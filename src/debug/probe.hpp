// The probe stream: one event vocabulary and one subscriber mask for every observer of the
// scheduler. As in the paper, every thread state change happens inside the Pthreads kernel
// monitor, so each transition has one place to report from, and that place makes one Emit
// call. The subscribers set in the mask see it through one out-of-line fan-out:
//
//   kTrace   — the event ring behind the Perfetto export (debug/trace.hpp)
//   kMetrics — counters, latency histograms and per-thread time-in-state (debug/metrics.hpp)
//   kOffCpu  — the profiler's off-CPU attribution of blocked time (debug/profiler.hpp)
//
// With no subscriber an Emit costs one byte load and one predicted branch. Emit is safe from
// kernel and signal-handler context; every subscriber uses fixed storage only.
//
// Record/replay is not a subscriber: its hooks steer or verify scheduling decisions and its
// decision counter advances in every mode, so the kernel calls it directly. Neither is the
// SIGPROF/tick on-CPU sampler, which samples rather than follows events.

#ifndef FSUP_SRC_DEBUG_PROBE_HPP_
#define FSUP_SRC_DEBUG_PROBE_HPP_

#include <cstdint>

namespace fsup {
struct Tcb;
}

namespace fsup::debug::probe {

enum class Event : uint8_t {
  kSwitch = 0,    // a = from thread id, b = to thread id
  kMutexLock,     // a = thread id, b = mutex tag
  kMutexBlock,    // a = thread id, b = mutex tag
  kMutexUnlock,   // a = thread id, b = mutex tag
  kPrioBoost,     // a = thread id, b = new priority
  kPrioRestore,   // a = thread id, b = new priority
  kSignal,        // a = thread id, b = signo (a user handler was dispatched)
  kUser,          // a, b = caller-defined
  kFault,         // a = hostos::Call id, b = injected errno (fault injector hit)
  kOverflow,      // a = thread id, b = stack size in bytes (guard-page overflow)
  kDeadlock,      // a = thread id, b = mutex tag (EDEADLK returned by the graph walk)
  kCondWait,      // a = thread id, b = cond tag
  kCondSignal,    // a = woken thread id (0 = none), b = cond tag
  kCancel,        // a = target thread id, b = 1 if acted on immediately
  kFakeCall,      // a = target thread id, b = signo (kSigCancel for cancellation)
  kTimerTick,     // a = current thread id, b = number of expired timer entries
  kCondRequeue,   // a = waiters moved to the mutex queue, b = cond tag (broadcast)
  kStackCommit,   // a = faulting thread id, b = bytes committed by the demand-commit fault
  // Thread state transitions. Each is emitted BEFORE the TCB's state field changes: metrics
  // reads the old state to learn what the thread was doing since it last looked.
  kCreate,     // a = new thread id
  kReady,      // a = thread id (made ready: woken, yielding, or newly runnable)
  kSuspend,    // a = thread id, b = BlockReason (block_reason and wait object already set)
  kRun,        // a = thread id (re-selected without a context switch)
  kPreempt,    // a = thread id (running -> ready, involuntarily: priority or time slice)
  kTerminate,  // a = thread id
  kIdlePoll,   // one idle readiness pass of the dispatcher
};

// Subscriber bits of g_mask.
inline constexpr uint8_t kTrace = 1;
inline constexpr uint8_t kMetrics = 2;
inline constexpr uint8_t kOffCpu = 4;

// Plain byte: written only outside signal handlers, on the one OS thread the library runs on.
extern uint8_t g_mask;

inline bool Subscribed(uint8_t bits) { return (g_mask & bits) != 0; }

// Sets (on) or clears the given subscriber bits and recomputes the sync fast-path mode, which
// trace and metrics demote (sync/fastpath.hpp).
void Subscribe(uint8_t bits, bool on);

void Fanout(Event e, Tcb* t, uint32_t a, uint32_t b, int64_t since_ns);

// Reports one event. t is the thread the event is about (nullptr when none); a and b are the
// payload the trace ring records. since_ns is the start of the interval the event closes,
// when the caller keeps one (kMutexUnlock: the hold interval), else 0.
inline void Emit(Event e, Tcb* t, uint32_t a = 0, uint32_t b = 0, int64_t since_ns = 0) {
  if (__builtin_expect(g_mask != 0, 0)) {
    Fanout(e, t, a, b, since_ns);
  }
}

const char* Name(Event e);

}  // namespace fsup::debug::probe

#endif  // FSUP_SRC_DEBUG_PROBE_HPP_
