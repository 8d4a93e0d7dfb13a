#include "src/debug/metrics.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/kernel/kernel.hpp"
#include "src/util/dual_loop_timer.hpp"

namespace fsup::debug::metrics {
namespace {

// Metrics-gated global accumulators. All mutation happens inside the kernel monitor or from
// the universal handler while it holds the kernel flag, so plain fields suffice — the same
// discipline as every other kernel statistic.
struct Globals {
  int64_t enabled_since_ns = 0;
  uint64_t voluntary_switches = 0;
  uint64_t preempted_switches = 0;
  uint64_t signals_delivered = 0;
  uint64_t fake_calls = 0;
  uint64_t timer_ticks = 0;
  uint64_t idle_polls = 0;
  bool next_switch_preempted = false;
  LatencyHist sched_latency;
  LatencyHist mutex_wait;
  LatencyHist mutex_hold;
};

Globals g_state;

// Generation counter for the lazy per-thread reset. Enable(true) bumps it; a TCB whose
// metrics.epoch is stale has not been touched since enable and its accumulators are garbage
// from a previous enable span (or from a recycled TCB slot). Lives outside Globals so the
// accumulator reset in Enable cannot clobber it.
uint32_t g_epoch = 0;

// Brings t's accumulators into the current epoch. A stale thread has seen no event since
// enable time, and an event fires on every state transition — so it has been sitting in its
// current state since the clock started. Called before reading or mutating any per-thread
// field; state-transition events are therefore emitted BEFORE t->state mutates.
void Touch(Tcb* t) {
  TcbMetrics& m = t->metrics;
  if (m.epoch == g_epoch) {
    return;
  }
  m = TcbMetrics{};
  m.epoch = g_epoch;
  m.acct_state = static_cast<uint8_t>(t->state);
  m.state_since_ns = g_state.enabled_since_ns;
}

// Folds the time since t's last state stamp into the bucket for the state it was in, and
// restamps. Returns the folded duration (used for the scheduling-latency histogram).
int64_t FoldStateTime(Tcb* t, int64_t now) {
  TcbMetrics& m = t->metrics;
  int64_t d = 0;
  if (m.state_since_ns != 0) {
    d = now - m.state_since_ns;
    switch (static_cast<ThreadState>(m.acct_state)) {
      case ThreadState::kRunning:
        m.running_ns += d;
        break;
      case ThreadState::kReady:
        m.ready_ns += d;
        break;
      case ThreadState::kBlocked:
        m.blocked_ns += d;
        break;
      case ThreadState::kTerminated:
        break;
    }
  }
  m.state_since_ns = now;
  return d;
}

void SetState(Tcb* t, ThreadState s) {
  Touch(t);
  FoldStateTime(t, NowNs());
  t->metrics.acct_state = static_cast<uint8_t>(s);
}

// `to` is already current (the probe fires after the switch bookkeeping) but its state field
// still reads ready: the time it just spent in ready is its scheduling latency.
void OnSwitch(Tcb* from, Tcb* to) {
  Touch(from);
  Touch(to);
  if (g_state.next_switch_preempted) {
    g_state.next_switch_preempted = false;
    ++g_state.preempted_switches;
    ++from->metrics.preempted;
  } else {
    ++g_state.voluntary_switches;
    ++from->metrics.voluntary;
  }
  const int64_t ready_time = FoldStateTime(to, NowNs());
  if (to->metrics.acct_state == static_cast<uint8_t>(ThreadState::kReady)) {
    g_state.sched_latency.Add(ready_time);
  }
  to->metrics.acct_state = static_cast<uint8_t>(ThreadState::kRunning);
}

void FillThreadSnap(const Tcb* t, ThreadSnap* out) {
  out->id = t->id;
  std::memcpy(out->name, t->name, sizeof(out->name));
  out->state = static_cast<uint8_t>(t->state);
  out->switches_in = t->switches_in;
  out->signals_taken = t->signals_taken;
  out->voluntary = t->metrics.voluntary;
  out->preempted = t->metrics.preempted;
  out->fake_calls = t->metrics.fake_calls;
  out->mutex_blocks = t->metrics.mutex_blocks;
  out->stack_commits = t->metrics.stack_commits;
  out->running_ns = t->metrics.running_ns;
  out->ready_ns = t->metrics.ready_ns;
  out->blocked_ns = t->metrics.blocked_ns;
  out->mutex_wait_ns = t->metrics.mutex_wait_ns;
}

}  // namespace

void Enable(bool on) {
  kernel::EnsureInit();
  kernel::Enter();
  if (on && !Enabled()) {
    g_state = Globals{};
    g_state.enabled_since_ns = NowNs();
    // O(1) regardless of thread count: invalidate instead of walking a million TCBs. Each
    // thread's accumulators reset lazily (Touch) the first time an event sees it.
    ++g_epoch;
  }
  probe::Subscribe(probe::kMetrics, on);
  kernel::Exit();
}

void OnEvent(probe::Event e, Tcb* t, uint32_t b, int64_t since_ns) {
  using probe::Event;
  switch (e) {
    case Event::kCreate:
      // A thread born after enable starts its clock now, not at enable time — and its
      // recycled TCB slot may carry a stale-but-matching epoch from a previous tenant, so the
      // reset is unconditional.
      t->metrics = TcbMetrics{};
      t->metrics.epoch = g_epoch;
      t->metrics.acct_state = static_cast<uint8_t>(t->state);
      t->metrics.state_since_ns = NowNs();
      break;
    case Event::kPreempt:
      g_state.next_switch_preempted = true;
      [[fallthrough]];
    case Event::kReady:
      SetState(t, ThreadState::kReady);
      break;
    case Event::kSuspend:
      SetState(t, ThreadState::kBlocked);
      break;
    case Event::kRun:
      SetState(t, ThreadState::kRunning);
      break;
    case Event::kTerminate:
      SetState(t, ThreadState::kTerminated);
      break;
    case Event::kSwitch:
      OnSwitch(t, kernel::ks().current);
      break;
    case Event::kMutexBlock:
      // A spurious wakeup re-contends and blocks again: the wait runs from the first block.
      Touch(t);
      if (t->metrics.mutex_wait_since_ns == 0) {
        t->metrics.mutex_wait_since_ns = NowNs();
        t->metrics.mutex_wait_tag = b;
      }
      break;
    case Event::kMutexLock: {
      Touch(t);
      TcbMetrics& m = t->metrics;
      // The tag check keeps a signal handler's lock of another mutex, taken while this thread
      // was blocked, from closing the outer wait.
      if (m.mutex_wait_since_ns != 0 && m.mutex_wait_tag == b) {
        const int64_t wait_ns = NowNs() - m.mutex_wait_since_ns;
        m.mutex_wait_since_ns = 0;
        ++m.mutex_blocks;
        m.mutex_wait_ns += wait_ns;
        g_state.mutex_wait.Add(wait_ns);
      }
      break;
    }
    case Event::kDeadlock:
      Touch(t);
      t->metrics.mutex_wait_since_ns = 0;  // the wait ended in EDEADLK, not an acquisition
      break;
    case Event::kMutexUnlock:
      if (since_ns != 0) {
        g_state.mutex_hold.Add(NowNs() - since_ns);
      }
      break;
    case Event::kSignal:
      ++g_state.signals_delivered;
      break;
    case Event::kFakeCall:
      Touch(t);
      ++t->metrics.fake_calls;
      ++g_state.fake_calls;
      break;
    case Event::kTimerTick:
      ++g_state.timer_ticks;
      break;
    case Event::kIdlePoll:
      ++g_state.idle_polls;
      break;
    default:
      break;
  }
}

void Capture(MetricsSnapshot* out) {
  *out = MetricsSnapshot{};
  kernel::EnsureInit();
  const bool enter = !kernel::InKernel();
  if (enter) {
    kernel::Enter();
  }
  KernelState& k = kernel::ks();

  out->enabled = Enabled();
  ReadCounters(&out->counters);
  out->enabled_since_ns = g_state.enabled_since_ns;
  out->voluntary_switches = g_state.voluntary_switches;
  out->preempted_switches = g_state.preempted_switches;
  out->signals_delivered = g_state.signals_delivered;
  out->fake_calls = g_state.fake_calls;
  out->timer_ticks = g_state.timer_ticks;
  out->idle_polls = g_state.idle_polls;
  out->sched_latency = g_state.sched_latency;
  out->mutex_wait = g_state.mutex_wait;
  out->mutex_hold = g_state.mutex_hold;

  // Bring the snapshotted threads' time-in-state current so a snapshot taken mid-run does
  // not hide the open interval of the running thread. Only the threads being copied out are
  // folded — a capture must stay O(kMaxSnapshotThreads) even with a million threads live.
  const int64_t now = Enabled() ? NowNs() : 0;
  uint32_t n = 0;
  for (Tcb* t : k.all_threads) {
    if (n >= kMaxSnapshotThreads) {
      break;
    }
    if (Enabled()) {
      Touch(t);
      FoldStateTime(t, now);
    }
    FillThreadSnap(t, &out->threads[n]);
    ++n;
  }
  out->thread_count = n;

  if (enter) {
    kernel::Exit();
  }
}

int DumpText(int fd, uint32_t max_threads) {
  MetricsSnapshot s;
  Capture(&s);

  char buf[16384];
  int off = 0;
  auto emit = [&](const char* fmt, auto... args) {
    if (off < static_cast<int>(sizeof(buf))) {
      const int n = std::snprintf(buf + off, sizeof(buf) - static_cast<size_t>(off), fmt,
                                  args...);
      if (n > 0) {
        off += n;
      }
    }
  };

  emit("fsup metrics (%s)\n", s.enabled ? "enabled" : "disabled");
  emit("  metrics: voluntary=%llu preempted=%llu signals=%llu fake_calls=%llu timer_ticks=%llu "
       "idle_polls=%llu\n",
       static_cast<unsigned long long>(s.voluntary_switches),
       static_cast<unsigned long long>(s.preempted_switches),
       static_cast<unsigned long long>(s.signals_delivered),
       static_cast<unsigned long long>(s.fake_calls),
       static_cast<unsigned long long>(s.timer_ticks),
       static_cast<unsigned long long>(s.idle_polls));
  PrintCounters(s.counters, [&](const char* text) { emit("%s", text); });

  auto hist = [&](const char* label, const LatencyHist& h) {
    emit("  %-13s n=%-8llu mean=%-10.0f p50=%-8lld p95=%-8lld p99=%-8lld max=%lld (ns)\n",
         label, static_cast<unsigned long long>(h.count), h.MeanNs(),
         static_cast<long long>(h.PercentileNs(50)),
         static_cast<long long>(h.PercentileNs(95)),
         static_cast<long long>(h.PercentileNs(99)), static_cast<long long>(h.max_ns));
  };
  hist("sched_latency", s.sched_latency);
  hist("mutex_wait", s.mutex_wait);
  hist("mutex_hold", s.mutex_hold);

  uint32_t rows = s.thread_count;
  if (max_threads != 0 && max_threads < rows) {
    rows = max_threads;
  }
  emit("  %-4s %-15s %-10s %-9s %-9s %-9s %-8s %-10s %-10s %-10s\n", "id", "name", "switches",
       "voluntary", "preempted", "mblocks", "commits", "run_us", "ready_us", "blocked_us");
  for (uint32_t i = 0; i < rows; ++i) {
    const ThreadSnap& t = s.threads[i];
    emit("  %-4u %-15s %-10llu %-9llu %-9llu %-9llu %-8llu %-10lld %-10lld %-10lld\n", t.id,
         t.name[0] != '\0' ? t.name : "-", static_cast<unsigned long long>(t.switches_in),
         static_cast<unsigned long long>(t.voluntary),
         static_cast<unsigned long long>(t.preempted),
         static_cast<unsigned long long>(t.mutex_blocks),
         static_cast<unsigned long long>(t.stack_commits),
         static_cast<long long>(t.running_ns / 1000),
         static_cast<long long>(t.ready_ns / 1000),
         static_cast<long long>(t.blocked_ns / 1000));
  }
  if (s.counters.live_threads > rows) {
    emit("  ... and %llu more threads\n",
         static_cast<unsigned long long>(s.counters.live_threads - rows));
  }

  const char* p = buf;
  int remaining = off;
  while (remaining > 0) {
    const ssize_t w = ::write(fd, p, static_cast<size_t>(remaining));
    if (w <= 0) {
      return errno != 0 ? errno : EIO;
    }
    p += w;
    remaining -= static_cast<int>(w);
  }
  return 0;
}

}  // namespace fsup::debug::metrics
