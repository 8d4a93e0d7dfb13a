// The three closed-loop workloads. Each runs in its own fresh process, prints one result line
// (report.hpp) and returns the process exit code.

#ifndef FSUP_PERFBENCH_WORKLOADS_HPP_
#define FSUP_PERFBENCH_WORKLOADS_HPP_

#include <cstddef>
#include <cstdint>

namespace perfbench {

struct Options {
  uint64_t seed = 1;
  double seconds = 10;      // length of the measured part of the run
  bool trace = false;       // traced run: per-layer metrics instead of end-to-end ones
  bool setup_only = false;  // set up, report the ready time, tear down

  // Untraced runs measure `seconds` untraced, cut into kWindows windows. Traced runs split
  // it: the first half untraced (per-op counters, reference throughput), the second half
  // traced (spans).
  static constexpr int kWindows = 10;
  double WarmupSeconds() const { return 0.3; }
  double UntracedSeconds() const { return trace ? seconds / 2 : seconds; }
  double WindowSeconds() const { return UntracedSeconds() / kWindows; }
  double TracedSeconds() const { return trace ? seconds / 2 : 0; }
};

// Spans the traced half of a run can hold (32 bytes each).
inline constexpr size_t kSpanCapacity = size_t{1} << 20;

int RunRendezvous(const Options& o);
int RunEcho(const Options& o);
int RunLifecycle(const Options& o);

// Steady clock when the program starts: before the static initialisers of the program and
// of the library run, after the process is loaded.
extern uint64_t g_start_ns;

// Prints the set-up-only result line: {"start_ns": L, "ready_ns": N, "input_ns": M}. ready_ns
// is the steady clock when the workload is ready to measure; input_ns the part of set-up spent
// generating the seeded inputs, which is the benchmark's work, not the program's. Set-up time
// is ready_ns - start_ns - input_ns.
void PrintReady(uint64_t ready_ns, uint64_t input_ns);

}  // namespace perfbench

#endif  // FSUP_PERFBENCH_WORKLOADS_HPP_
