// Statistical on-/off-CPU profiler.
//
// On-CPU: a SIGPROF sampler (ITIMER_PROF) intercepted at the very top of the universal signal
// handler walks the interrupted thread's frame-pointer chain — bounded by the thread's stack
// interval and its demand-commit watermark — and pushes raw PCs into a lock-free ring. Under
// record/replay the itimer is never armed; sampling piggybacks on the (recorded, replayed)
// timer tick instead, so sample counts are bit-identical across a record→replay pair.
//
// Off-CPU: a subscriber of the probe stream. kSuspend snapshots the blocking call stack into
// the suspending thread's TCB (profile capture buffer); kReady closes the capture into one
// sample weighted by blocked nanoseconds and tagged with the wait object (mutex#/cond#
// tag + BlockReason).
//
// Samples fold into one fixed-capacity (stack hash → weight) table per kind, allocated when
// profiling first starts: nothing inside the kernel allocates. A collector — an ordinary
// library thread — drains the SIGPROF ring periodically, publishes a seqlock-versioned stats
// block for tools/fsup_top (FSUP_STATS_SHM), and records the points that debug/export turns
// into Perfetto counter tracks.
//
// Export: pt_profile_dump writes flamegraph.pl-compatible folded stacks ("0xPC;0xPC N") with
// a /proc/self/maps sidecar for offline symbolization; FSUP_PROFILE_FILE arms an atexit dump.
//
// Disabled cost: the off-CPU hooks are probe sites (one predicted branch on the subscriber
// mask), the tick hook one predicted branch on a global bool — bench_profiler_ablation holds
// the "statistically free" bar.

#ifndef FSUP_SRC_DEBUG_PROFILER_HPP_
#define FSUP_SRC_DEBUG_PROFILER_HPP_

#include <cstdint>

#include "src/debug/counters.hpp"

namespace fsup {
struct Tcb;
}

namespace fsup::debug::profiler {

// ---------------------------------------------------------------------------------------------
// Control. Start/Stop/Dump are public-API entry points (pt_profile_*): they run EnsureInit and
// take the kernel monitor themselves. hz <= 0 picks the default rate (kDefaultHz).
// ---------------------------------------------------------------------------------------------

inline constexpr int kDefaultHz = 997;  // prime, so sampling doesn't phase-lock the slice tick

// Starts a profiling session: resets aggregates, arms ITIMER_PROF (live mode) or tick
// piggybacking (record/replay), maps the FSUP_STATS_SHM segment if configured, and spawns the
// collector thread. Returns 0, EBUSY if already active, ENOMEM if the first session cannot
// allocate the aggregate tables, or the errno of a failed host call (fault-injectable
// setitimer) with everything unwound.
int Start(int hz);

// Stops the session: disarms the sampler, joins the collector, publishes a final shm frame and
// unmaps the segment. Aggregated data is retained for Dump. Returns 0 or EINVAL if inactive.
int Stop();

bool Active();

// Drains + folds everything accumulated so far and writes:
//   <path>         folded on-CPU stacks, "0xPC;0xPC count" root-first (flamegraph.pl)
//   <path>.offcpu  folded off-CPU stacks, weight = blocked microseconds, wait tag as leaf
//   <path>.maps    copy of /proc/self/maps for offline symbolization
// Works during or after a session. Returns 0 or an errno; a failed write reports its errno,
// or EIO.
int Dump(const char* path);

// Total samples taken so far (on-CPU + off-CPU); ring drops excluded. Used by the
// determinism tests: under record→replay the pair of counts must match exactly.
uint64_t SampleCount();
uint64_t DroppedCount();

// Off-CPU samples folded so far, one per closed wait.
uint64_t OffCpuSampleCount();

// Environment hooks (FSUP_PROFILE, FSUP_PROFILE_HZ, FSUP_PROFILE_FILE, FSUP_STATS_SHM), called
// at the tail of kernel::EnsureInit — after replay::InitFromEnv, so mode-dependent sampling
// setup sees the real replay mode. Re-reads the environment every call (pt_reinit).
void InitFromEnv();

// Called at the top of kernel::ReinitForTesting, before the single-thread assert: stops any
// active session (joining the collector thread) so teardown sees only the main thread.
void ShutdownForReinit();

// ---------------------------------------------------------------------------------------------
// Hot-path hooks. One predicted branch when profiling is off.
// ---------------------------------------------------------------------------------------------

extern bool g_tick_sampling;          // deterministic mode: sample from the timer tick
extern volatile bool g_signal_sampling;  // live mode: SIGPROF branch armed (read in handler)

void OnTickSlow();

// Off-CPU attribution, the kOffCpu subscriber of the probe stream (debug/probe.hpp).
// kSuspend (block_reason and wait object already set, state not yet mutated): capture the
// blocking stack into t->profile.
void OnSuspend(Tcb* t);
// kReady: if t is still blocked, emit the off-CPU sample for the closing wait.
void OnReady(Tcb* t);

// signals/timers TickImpl: one deterministic on-CPU sample per tick when tick sampling is on
// (ticks are recorded/replayed decisions, so replay reproduces the exact sample sequence).
inline void OnTick() {
  if (g_tick_sampling) {
    OnTickSlow();
  }
}

// The SIGPROF branch of the universal handler. Called with the raw ucontext_t* (as void* to
// keep <ucontext.h> out of this header); async-signal-safe, touches only the sample ring and
// the interrupted thread's TCB stack bounds, never enters the kernel. Preserves errno.
void OnSigprof(void* ucontext);

// ---------------------------------------------------------------------------------------------
// Counter tracks for the Chrome-trace export ("ph":"C"). The collector appends one point per
// collection period; export turns each field of the counter block into one track.
// ---------------------------------------------------------------------------------------------

inline constexpr int kCounterPoints = 256;  // newest points kept

struct CounterPoint {
  int64_t t_ns = 0;
  Counters counters;     // the shared counter block (debug/counters.hpp) at t_ns
  uint64_t samples = 0;  // cumulative SampleCount() at t_ns (export differentiates)
};

// Copies up to max points (oldest first) into out; returns the count. Enters the kernel
// monitor itself — user-context callers only (debug/export).
int CounterSnapshot(CounterPoint* out, int max);

}  // namespace fsup::debug::profiler

#endif  // FSUP_SRC_DEBUG_PROFILER_HPP_
