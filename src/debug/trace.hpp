// Event tracing.
//
// A fixed-size ring of probe events (debug/probe.hpp: context switches, thread state changes,
// mutex operations, priority changes, signal deliveries, cond waits, cancellations, fake
// calls, timer ticks) with CLOCK_MONOTONIC timestamps and the logging thread's id. The ring is
// the kTrace subscriber of the probe stream, so disabled it costs what every probe site costs:
// one predicted branch. The priority-inversion benches (paper Figure 5) replay this ring to
// print the execution timelines, tests assert ordering properties against it, and the Chrome
// trace_event exporter (debug/export.hpp) turns it into a Perfetto-loadable timeline.
//
// The ring is lock-free and bounded: writers reserve a slot with an atomic counter, fill it,
// and commit with a second counter. The only asynchrony in the process is UNIX signal
// delivery, so a "concurrent" writer is always a signal handler that interrupted either
// another Append call or a reader mid-copy; Snapshot() detects both via the counters and
// retries, entering the kernel (which defers signal handlers) as a last resort.

#ifndef FSUP_SRC_DEBUG_TRACE_HPP_
#define FSUP_SRC_DEBUG_TRACE_HPP_

#include <cstdint>
#include <cstddef>

#include "src/debug/probe.hpp"

namespace fsup::debug::trace {

using Event = probe::Event;
using probe::Name;

struct Record {
  int64_t t_ns;
  uint64_t d;    // logical decision counter at logging time (debug/replay.hpp) — a logical
                 // clock two runs can be compared on, unlike the wall-clock t_ns
  uint32_t tid;  // thread current when the event was logged (0 before init)
  uint32_t a;
  uint32_t b;
  Event event;
};

// Subscribes the ring to the probe stream (or unsubscribes it).
void Enable(bool on);
void Clear();
size_t Capacity();

// The probe subscriber: appends a record. Safe from kernel and signal-handler context (no
// allocation, no locks).
void Append(Event e, uint32_t a, uint32_t b);

// Records ever logged, including ones the ring has already overwritten.
uint64_t TotalLogged();

// Copies the most recent min(records held, max) records into out, oldest first, and returns
// the number copied. The copy is consistent: it retries if a signal-driven writer moved the
// ring during the copy, and as a final fallback performs the copy inside the Pthreads kernel,
// where signal handlers (the only possible concurrent writers) are deferred. Records are in
// slot order; timestamps can be out of order by one slot when a signal handler interrupted an
// Append call mid-write (the interrupted reservation commits later) — sort by t_ns if order
// matters.
size_t Snapshot(Record* out, size_t max);

}  // namespace fsup::debug::trace

#endif  // FSUP_SRC_DEBUG_TRACE_HPP_
