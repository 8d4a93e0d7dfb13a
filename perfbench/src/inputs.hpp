// Seeded input generation, kept apart from the program under test: each workload's inputs
// and their expected outputs are generated here from --seed alone, before the workload
// starts. The workload code only consumes them, and checks what the library gives back
// against the expected values recorded here. The same seed always gives the same inputs.

#ifndef FSUP_PERFBENCH_INPUTS_HPP_
#define FSUP_PERFBENCH_INPUTS_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench::inputs {

// SplitMix64: small, fast and fully determined by its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint32_t Below(uint32_t n) { return static_cast<uint32_t>(Next() % n); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Log-uniform integer in [lo, hi].
  uint32_t LogUniform(uint32_t lo, uint32_t hi);

 private:
  uint64_t s_;
};

// ---- rendezvous -------------------------------------------------------------------------

inline constexpr int kCallers = 64;
inline constexpr int kEntries = 4;
inline constexpr int kCallsPerCaller = 256;  // each caller cycles through its own list
inline constexpr uint32_t kMaxBodyWork = 64;

// The entry body: `work` rounds of an LCG step and xor-shift fold over x.
int64_t EntryBody(int64_t x, uint32_t work);

struct RendezvousCall {
  int64_t x = 0;
  int64_t expected = 0;  // EntryBody(x, work)
  uint32_t work = 0;
  uint8_t entry = 0;
};

struct RendezvousInputs {
  std::vector<RendezvousCall> calls;  // kCallers * kCallsPerCaller, caller-major

  const RendezvousCall& At(int caller, uint64_t k) const {
    return calls[static_cast<size_t>(caller) * kCallsPerCaller + k % kCallsPerCaller];
  }
};

RendezvousInputs MakeRendezvous(uint64_t seed);

// ---- echo -------------------------------------------------------------------------------

inline constexpr int kConnections = 4;
inline constexpr uint32_t kMinMessage = 16;
inline constexpr uint32_t kMaxMessage = 4096;
inline constexpr int kMessagesPerConnection = 4096;  // each connection cycles its list
inline constexpr size_t kPayloadPool = 64 * 1024;

struct EchoMessage {
  uint32_t len = 0;
  uint32_t offset = 0;  // into EchoInputs::pool
};

struct EchoInputs {
  std::vector<uint8_t> pool;                 // random payload bytes
  std::vector<EchoMessage> messages;         // kConnections * kMessagesPerConnection

  const EchoMessage& At(int conn, uint64_t k) const {
    return messages[static_cast<size_t>(conn) * kMessagesPerConnection +
                    k % kMessagesPerConnection];
  }
};

EchoInputs MakeEcho(uint64_t seed);

// ---- lifecycle --------------------------------------------------------------------------

// What the controller does to a worker thread during its wave.
enum class Fate : uint8_t {
  kPlain,        // runs to completion
  kWait,         // blocks in pt_cond_wait until the wave is released
  kKillReady,    // pt_kill(SIGUSR1) right after creation, before it first runs
  kKillWaiting,  // pt_kill(SIGUSR1) while blocked in pt_cond_wait
  kCancel,       // pt_cancel while blocked in pt_cond_wait
};

inline constexpr int kWaves = 1024;  // the controller cycles through the planned waves
inline constexpr uint32_t kMinWave = 8;
inline constexpr uint32_t kMaxWave = 256;
inline constexpr uint32_t kMinStackShift = 14;  // 16 KiB
inline constexpr uint32_t kMaxStackShift = 20;  // 1 MiB

struct ThreadPlan {
  uint32_t stack_size = 0;
  uint32_t value = 0;        // the worker returns ExpectedReturn(value)
  Fate fate = Fate::kPlain;
  bool pop_execute = false;  // pt_cleanup_pop(execute) at the end of a normal run
};

struct WavePlan {
  uint32_t first = 0;  // index into LifecycleInputs::threads
  uint32_t count = 0;
};

struct LifecycleInputs {
  std::vector<WavePlan> waves;
  std::vector<ThreadPlan> threads;
};

uintptr_t ExpectedReturn(uint32_t value);
bool Waits(Fate f);  // blocks in pt_cond_wait during its wave
bool Killed(Fate f);

LifecycleInputs MakeLifecycle(uint64_t seed);

}  // namespace perfbench::inputs

#endif  // FSUP_PERFBENCH_INPUTS_HPP_
