#include "src/kernel/tcb.hpp"

#include <iterator>

#include "src/debug/counters.hpp"

namespace fsup {

const char* ToString(ThreadState s) {
  switch (s) {
    case ThreadState::kReady:
      return "ready";
    case ThreadState::kRunning:
      return "running";
    case ThreadState::kBlocked:
      return "blocked";
    case ThreadState::kTerminated:
      return "terminated";
  }
  return "?";
}

const char* ToString(BlockReason r) {
  static_assert(std::size(debug::kBlockReasonNames) ==
                    static_cast<size_t>(BlockReason::kLazy) + 1,
                "one name per BlockReason");
  return debug::BlockReasonName(static_cast<unsigned>(r));
}

}  // namespace fsup
