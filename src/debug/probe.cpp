#include "src/debug/probe.hpp"

#include <iterator>

#include "src/debug/metrics.hpp"
#include "src/debug/profiler.hpp"
#include "src/debug/trace.hpp"
#include "src/sync/fastpath.hpp"

namespace fsup::debug::probe {

uint8_t g_mask = 0;

void Subscribe(uint8_t bits, bool on) {
  g_mask = on ? static_cast<uint8_t>(g_mask | bits) : static_cast<uint8_t>(g_mask & ~bits);
  sync::fastpath::Recompute();
}

void Fanout(Event e, Tcb* t, uint32_t a, uint32_t b, int64_t since_ns) {
  const uint8_t mask = g_mask;
  if ((mask & kMetrics) != 0) {
    metrics::OnEvent(e, t, b, since_ns);
  }
  if ((mask & kOffCpu) != 0) {
    if (e == Event::kSuspend) {
      profiler::OnSuspend(t);
    } else if (e == Event::kReady) {
      profiler::OnReady(t);
    }
  }
  if ((mask & kTrace) != 0) {
    trace::Append(e, a, b);
  }
}

namespace {

// Indexed by Event; these are the stable names the exported trace shows.
constexpr const char* kNames[] = {
    "switch",       "lock",         "block",        "unlock",       "boost",
    "restore",      "signal",       "user",         "fault",        "overflow",
    "deadlock",     "cond-wait",    "cond-signal",  "cancel",       "fake-call",
    "timer-tick",   "cond-requeue", "stack-commit", "create",       "ready",
    "suspend",      "run",          "preempt",      "terminate",    "idle-poll",
};
static_assert(std::size(kNames) == static_cast<size_t>(Event::kIdlePoll) + 1,
              "one name per event");

}  // namespace

const char* Name(Event e) {
  const auto i = static_cast<size_t>(e);
  return i < std::size(kNames) ? kNames[i] : "?";
}

}  // namespace fsup::debug::probe
