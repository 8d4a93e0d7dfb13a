// One snapshot of every counter the library already exports, so a phase of a workload can
// be measured as an after-minus-before delta and divided per op:
//
//   pt_stats()                    kernel entries, context switches, dispatches, preemptions,
//                                 deferred signals
//   probe::HostCallCount(c)       each hostos::Call service
//   probe::RasRestarts()          restartable-atomic-sequence rewinds
//   probe::StackPool*()           stack-pool reuses, fresh maps, lazy commits
//   io::GetStats()                readiness waits, wakeups, probes, interest-cache hits
//   getrusage(RUSAGE_SELF)        user/sys CPU and minor faults of the fsup process
//
// hostos counts only the services it wraps. The fcntl(F_GETFL), read(2) and write(2) inside
// every pt_read/pt_write, the clock reads and the benchmark's own kill(2) are not counted, so
// hostos.calls_per_op is a lower bound on the system calls an op makes.

#ifndef FSUP_PERFBENCH_COUNTERS_HPP_
#define FSUP_PERFBENCH_COUNTERS_HPP_

#include <sys/resource.h>

#include <array>
#include <cstdint>

#include "src/core/pthread.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/io/io.hpp"

namespace perfbench {

inline constexpr int kNumHostCalls = static_cast<int>(fsup::hostos::Call::kCount);

struct Counters {
  fsup::RuntimeStats rt{};
  std::array<uint64_t, kNumHostCalls> host{};
  uint64_t ras_restarts = 0;
  uint64_t pool_reuses = 0;
  uint64_t pool_maps = 0;
  uint64_t lazy_commits = 0;
  fsup::io::IoStats io{};
  rusage ru{};
  uint64_t wall_ns = 0;

  static Counters Take();
};

// after - before, with helpers that divide by the ops the phase completed.
class CounterDelta {
 public:
  CounterDelta(const Counters& before, const Counters& after, uint64_t ops)
      : b_(before), a_(after), ops_(ops) {}

  uint64_t ops() const { return ops_; }
  double wall_s() const { return static_cast<double>(a_.wall_ns - b_.wall_ns) * 1e-9; }
  double user_s() const;
  double sys_s() const;
  double cpu_s() const { return user_s() + sys_s(); }

  double PerOp(double v) const { return ops_ == 0 ? 0 : v / static_cast<double>(ops_); }
  double Host(fsup::hostos::Call c) const;
  double HostTotal() const;

#define PERFBENCH_DELTA(name, expr) \
  double name() const { return static_cast<double>(a_.expr - b_.expr); }
  PERFBENCH_DELTA(kernel_entries, rt.kernel_entries)
  PERFBENCH_DELTA(ctx_switches, rt.ctx_switches)
  PERFBENCH_DELTA(dispatches, rt.dispatches)
  PERFBENCH_DELTA(preemptions, rt.preemptions)
  PERFBENCH_DELTA(deferred_signals, rt.deferred_signals)
  PERFBENCH_DELTA(ras_restarts, ras_restarts)
  PERFBENCH_DELTA(pool_reuses, pool_reuses)
  PERFBENCH_DELTA(pool_maps, pool_maps)
  PERFBENCH_DELTA(lazy_commits, lazy_commits)
  PERFBENCH_DELTA(io_waits, io.waits)
  PERFBENCH_DELTA(io_wakeups, io.wakeups)
  PERFBENCH_DELTA(io_probes, io.probes)
  PERFBENCH_DELTA(io_cache_hits, io.cache_hits)
  PERFBENCH_DELTA(io_cache_misses, io.cache_misses)
  PERFBENCH_DELTA(minflt, ru.ru_minflt)
#undef PERFBENCH_DELTA

 private:
  Counters b_;
  Counters a_;
  uint64_t ops_;
};

// Peak resident set of this process image so far (VmHWM), in MiB.
double PeakRssMib();

}  // namespace perfbench

#endif  // FSUP_PERFBENCH_COUNTERS_HPP_
