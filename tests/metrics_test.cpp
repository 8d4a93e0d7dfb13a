// Per-thread metrics: counters, time-in-state accounting, latency histograms, the snapshot
// and dump APIs, the trace-ring snapshot consistency guarantees, and DumpThreads under load.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/pthread.hpp"
#include "src/debug/profiler.hpp"
#include "src/debug/trace.hpp"

namespace fsup {
namespace {

using debug::metrics::LatencyHist;
using debug::metrics::MetricsSnapshot;
using debug::metrics::ThreadSnap;

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pt_reinit();
    pt_metrics_enable(false);
    debug::trace::Clear();
    debug::trace::Enable(false);
  }
  void TearDown() override {
    pt_metrics_enable(false);
    debug::trace::Enable(false);
  }
};

const ThreadSnap* FindSnap(const MetricsSnapshot& s, uint32_t id) {
  for (uint32_t i = 0; i < s.thread_count; ++i) {
    if (s.threads[i].id == id) {
      return &s.threads[i];
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------------------
// Histogram unit behaviour
// ---------------------------------------------------------------------------------------

TEST(LatencyHistTest, EmptyReportsZero) {
  LatencyHist h;
  EXPECT_EQ(0, h.PercentileNs(50));
  EXPECT_EQ(0, h.PercentileNs(99));
  EXPECT_EQ(0.0, h.MeanNs());
  EXPECT_EQ(0u, h.count);
}

TEST(LatencyHistTest, PercentilesBracketSamples) {
  LatencyHist h;
  for (int i = 0; i < 90; ++i) {
    h.Add(1000);  // bucket for ~1us
  }
  for (int i = 0; i < 10; ++i) {
    h.Add(1000000);  // ~1ms tail
  }
  EXPECT_EQ(100u, h.count);
  const int64_t p50 = h.PercentileNs(50);
  const int64_t p99 = h.PercentileNs(99);
  EXPECT_GE(p50, 1000);
  EXPECT_LT(p50, 1000000);
  EXPECT_GE(p99, 1000000);
  EXPECT_GE(h.max_ns, 1000000);
  EXPECT_GT(h.MeanNs(), 0.0);
  EXPECT_LE(p50, p99);
}

TEST(LatencyHistTest, NegativeAndHugeSamplesAreClamped) {
  LatencyHist h;
  h.Add(-5);                    // clamps to 0
  h.Add(int64_t{1} << 62);      // lands in (and is reported from) the top bucket
  EXPECT_EQ(2u, h.count);
  EXPECT_EQ(h.max_ns, h.PercentileNs(99));
}

// ---------------------------------------------------------------------------------------
// Enable/disable and the snapshot surface
// ---------------------------------------------------------------------------------------

TEST_F(MetricsTest, DisabledByDefaultAndKernelTotalsStillLive) {
  EXPECT_FALSE(pt_metrics_enabled());
  pt_yield();
  const MetricsSnapshot s = pt_metrics_snapshot();
  EXPECT_FALSE(s.enabled);
  EXPECT_GT(s.counters.kernel_entries, 0u);
  EXPECT_EQ(0u, s.mutex_wait.count);
  EXPECT_EQ(0, s.mutex_wait.PercentileNs(50));
}

TEST_F(MetricsTest, EnableResetsAndStartsAccounting) {
  pt_metrics_enable(true);
  EXPECT_TRUE(pt_metrics_enabled());
  // Burn a little CPU so the main thread accumulates running time.
  // Unsigned, so the sum may wrap; a plain store, since C++20 deprecates compound
  // assignment to a volatile.
  volatile unsigned sink = 0;
  for (unsigned i = 0; i < 2000000; ++i) {
    sink = sink + i;
  }
  const MetricsSnapshot s = pt_metrics_snapshot();
  EXPECT_TRUE(s.enabled);
  ASSERT_GE(s.thread_count, 1u);
  const ThreadSnap* main_snap = FindSnap(s, pt_id(pt_self()));
  ASSERT_NE(nullptr, main_snap);
  EXPECT_GT(main_snap->running_ns, 0);

  // Disabling freezes the gated counters; re-enabling resets them.
  pt_metrics_enable(false);
  EXPECT_FALSE(pt_metrics_enabled());
  pt_metrics_enable(true);
  const MetricsSnapshot s2 = pt_metrics_snapshot();
  const ThreadSnap* again = FindSnap(s2, pt_id(pt_self()));
  ASSERT_NE(nullptr, again);
  EXPECT_LT(again->running_ns, main_snap->running_ns + 1000000000);
}

TEST_F(MetricsTest, VoluntarySwitchesCountedOnYield) {
  pt_metrics_enable(true);
  pt_thread_t t;
  auto body = +[](void*) -> void* {
    for (int i = 0; i < 50; ++i) {
      pt_yield();
    }
    return nullptr;
  };
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  for (int i = 0; i < 50; ++i) {
    pt_yield();
  }
  ASSERT_EQ(0, pt_join(t, nullptr));
  const MetricsSnapshot s = pt_metrics_snapshot();
  EXPECT_GT(s.voluntary_switches, 0u);
  const ThreadSnap* main_snap = FindSnap(s, pt_id(pt_self()));
  ASSERT_NE(nullptr, main_snap);
  EXPECT_GT(main_snap->voluntary, 0u);
  // A yielding thread spends time both running and ready.
  EXPECT_GT(main_snap->ready_ns + main_snap->running_ns, 0);
}

// ---------------------------------------------------------------------------------------
// Mutex wait/hold histograms (the contended/uncontended acceptance criterion)
// ---------------------------------------------------------------------------------------

TEST_F(MetricsTest, UncontendedMutexShowsZeroWaitPercentiles) {
  pt_metrics_enable(true);
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(0, pt_mutex_lock(&m));
    ASSERT_EQ(0, pt_mutex_unlock(&m));
  }
  pt_mutex_destroy(&m);
  const MetricsSnapshot s = pt_metrics_snapshot();
  EXPECT_EQ(0u, s.mutex_wait.count);
  EXPECT_EQ(0, s.mutex_wait.PercentileNs(50));
  EXPECT_EQ(0, s.mutex_wait.PercentileNs(99));
  // Holds WERE observed (metrics force the kernel path).
  EXPECT_GT(s.mutex_hold.count, 0u);
}

struct ContendArgs {
  pt_mutex_t m;
  int rounds;
};

TEST_F(MetricsTest, ContendedMutexShowsNonZeroWaitPercentiles) {
  pt_metrics_enable(true);
  static ContendArgs args;
  ASSERT_EQ(0, pt_mutex_init(&args.m));
  args.rounds = 200;
  auto body = +[](void* p) -> void* {
    auto* a = static_cast<ContendArgs*>(p);
    for (int i = 0; i < a->rounds; ++i) {
      pt_mutex_lock(&a->m);
      pt_mutex_unlock(&a->m);
      pt_yield();
    }
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, &args));
  for (int i = 0; i < args.rounds; ++i) {
    pt_mutex_lock(&args.m);
    pt_yield();  // let the partner block on the held mutex
    pt_mutex_unlock(&args.m);
    pt_yield();
  }
  ASSERT_EQ(0, pt_join(t, nullptr));
  pt_mutex_destroy(&args.m);

  const MetricsSnapshot s = pt_metrics_snapshot();
  EXPECT_GT(s.mutex_wait.count, 0u);
  EXPECT_GT(s.mutex_wait.PercentileNs(50), 0);
  EXPECT_GT(s.mutex_wait.PercentileNs(95), 0);
  EXPECT_GT(s.mutex_wait.PercentileNs(99), 0);
  EXPECT_GE(s.mutex_wait.PercentileNs(99), s.mutex_wait.PercentileNs(50));
  EXPECT_GT(s.sched_latency.count, 0u);  // the blocked thread went ready -> running
}

TEST_F(MetricsTest, MutexBlocksAttributedToTheBlockedThread) {
  pt_metrics_enable(true);
  static ContendArgs args;
  ASSERT_EQ(0, pt_mutex_init(&args.m));
  args.rounds = 10;
  auto body = +[](void* p) -> void* {
    auto* a = static_cast<ContendArgs*>(p);
    for (int i = 0; i < a->rounds; ++i) {
      pt_mutex_lock(&a->m);
      pt_mutex_unlock(&a->m);
      pt_yield();
    }
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, &args));
  const uint32_t partner_id = pt_id(t);
  for (int i = 0; i < args.rounds; ++i) {
    pt_mutex_lock(&args.m);
    pt_yield();
    pt_mutex_unlock(&args.m);
    pt_yield();
  }
  // Snapshot while the partner is still alive (it may already be done; both fine — join
  // after so the TCB is certainly live at capture time only in the pre-join snapshot).
  const MetricsSnapshot s = pt_metrics_snapshot();
  ASSERT_EQ(0, pt_join(t, nullptr));
  pt_mutex_destroy(&args.m);
  const ThreadSnap* partner = FindSnap(s, partner_id);
  ASSERT_NE(nullptr, partner);
  EXPECT_GT(partner->mutex_blocks, 0u);
  EXPECT_GT(partner->mutex_wait_ns, 0);
}

// ---------------------------------------------------------------------------------------
// Text dump
// ---------------------------------------------------------------------------------------

TEST_F(MetricsTest, DumpTextWritesReport) {
  pt_metrics_enable(true);
  pt_yield();
  int fds[2];
  ASSERT_EQ(0, ::pipe(fds));
  EXPECT_EQ(0, pt_metrics_dump(fds[1]));
  ::close(fds[1]);
  char buf[16384];
  std::string out;
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  EXPECT_NE(std::string::npos, out.find("fsup metrics"));
  EXPECT_NE(std::string::npos, out.find("ctx_switches"));
  EXPECT_NE(std::string::npos, out.find("p50"));
  EXPECT_NE(std::string::npos, out.find("main"));  // the main thread's row
}

TEST_F(MetricsTest, DumpTextRejectsBadFd) { EXPECT_NE(0, pt_metrics_dump(-1)); }

// ---------------------------------------------------------------------------------------
// Trace ring: user events, totals, and the snapshot wrap-boundary guarantee
// ---------------------------------------------------------------------------------------

TEST_F(MetricsTest, TraceUserEventLogged) {
  debug::trace::Enable(true);
  pt_trace_user(7, 9);
  debug::trace::Enable(false);
  std::vector<debug::trace::Record> recs(debug::trace::Capacity());
  recs.resize(debug::trace::Snapshot(recs.data(), recs.size()));
  ASSERT_GE(recs.size(), 1u);
  bool found = false;
  for (const debug::trace::Record& r : recs) {
    if (r.event == debug::trace::Event::kUser && r.a == 7 && r.b == 9) {
      found = true;
      EXPECT_GT(r.t_ns, 0);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(MetricsTest, SnapshotConsistentAcrossWrap) {
  debug::trace::Enable(true);
  const size_t cap = debug::trace::Capacity();
  constexpr uint32_t kOverflow = 257;  // push this many records past a full ring
  for (uint32_t i = 0; i < cap + kOverflow; ++i) {
    pt_trace_user(i, 0);
  }
  debug::trace::Enable(false);

  EXPECT_EQ(static_cast<uint64_t>(cap) + kOverflow, debug::trace::TotalLogged());
  std::vector<debug::trace::Record> out(cap);
  const size_t n = debug::trace::Snapshot(out.data(), out.size());
  ASSERT_EQ(cap, n);
  // The ring kept the newest `cap` records: kOverflow .. cap+kOverflow-1, oldest first,
  // with no slot from before the wrap leaking in (the torn-view bug this API fixes).
  EXPECT_EQ(kOverflow, out.front().a);
  EXPECT_EQ(cap + kOverflow - 1, out.back().a);
  for (size_t i = 1; i < n; ++i) {
    EXPECT_EQ(out[i - 1].a + 1, out[i].a) << "gap at " << i;
  }
}

TEST_F(MetricsTest, SnapshotTruncatesToNewestWhenBufferSmall) {
  debug::trace::Enable(true);
  for (uint32_t i = 0; i < 100; ++i) {
    pt_trace_user(i, 0);
  }
  debug::trace::Enable(false);
  debug::trace::Record out[10];
  const size_t n = debug::trace::Snapshot(out, 10);
  ASSERT_EQ(10u, n);
  EXPECT_EQ(90u, out[0].a);  // newest 10, oldest first
  EXPECT_EQ(99u, out[9].a);
}

// ---------------------------------------------------------------------------------------
// DumpThreads under load (satellite: every live thread appears with sane fields)
// ---------------------------------------------------------------------------------------

struct DumpLoadArgs {
  pt_sem_t gate;
};

TEST_F(MetricsTest, DumpThreadsUnderLoadShowsEveryLiveThread) {
  pt_metrics_enable(true);
  static DumpLoadArgs args;
  ASSERT_EQ(0, pt_sem_init(&args.gate, 0));
  auto body = +[](void* p) -> void* {
    auto* a = static_cast<DumpLoadArgs*>(p);
    pt_sem_wait(&a->gate);
    return nullptr;
  };
  constexpr int kThreads = 4;
  pt_thread_t ts[kThreads];
  uint32_t ids[kThreads];
  const char* names[kThreads] = {"dump-a", "dump-b", "dump-c", "dump-d"};
  for (int i = 0; i < kThreads; ++i) {
    ThreadAttr attr;
    attr.name = names[i];
    ASSERT_EQ(0, pt_create(&ts[i], &attr, body, &args));
    ids[i] = pt_id(ts[i]);
  }
  pt_yield();  // let them all reach the semaphore

  ::testing::internal::CaptureStderr();
  pt_dump_threads();
  const std::string out = ::testing::internal::GetCapturedStderr();

  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(0, pt_sem_post(&args.gate));
  }
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(0, pt_join(ts[i], nullptr));
  }
  pt_sem_destroy(&args.gate);

  EXPECT_NE(std::string::npos, out.find("fsup threads:"));
  // Every live thread appears, by id and by name, with a valid state and metrics columns.
  EXPECT_NE(std::string::npos, out.find("[current]"));
  for (int i = 0; i < kThreads; ++i) {
    const std::string tag = "#" + std::to_string(ids[i]) + " " + names[i];
    EXPECT_NE(std::string::npos, out.find(tag)) << "missing: " << tag << "\n" << out;
  }
  EXPECT_NE(std::string::npos, out.find("blocked"));
  EXPECT_NE(std::string::npos, out.find("switches="));
  EXPECT_NE(std::string::npos, out.find("vol="));  // metrics columns present when enabled
  EXPECT_NE(std::string::npos, out.find("run_us="));
  // No garbage: every run_us= field parses as a non-negative integer.
  size_t pos = 0;
  while ((pos = out.find("run_us=", pos)) != std::string::npos) {
    pos += 7;
    ASSERT_LT(pos, out.size());
    EXPECT_TRUE(out[pos] == '-' ? false : std::isdigit(static_cast<unsigned char>(out[pos])))
        << "garbage after run_us= at " << pos;
    long long v = 0;
    EXPECT_EQ(1, std::sscanf(out.c_str() + pos, "%lld", &v));
    EXPECT_GE(v, 0);
  }
}

// ---------------------------------------------------------------------------------------
// The probe fan-out: trace, metrics and off-CPU profiling subscribed at once must agree
// ---------------------------------------------------------------------------------------

constexpr int kTurnThreads = 3;
constexpr int kTurnRounds = 20;

struct Turns {
  pt_mutex_t m;
  pt_cond_t c;
  int turn = 0;
};

struct TurnArg {
  Turns* turns;
  int me;
};

// Threads take turns under one mutex + cond; each yields while still holding the mutex, so
// the next locker blocks on it.
void* TakeTurns(void* p) {
  const auto* arg = static_cast<TurnArg*>(p);
  Turns* t = arg->turns;
  for (int i = 0; i < kTurnRounds; ++i) {
    pt_mutex_lock(&t->m);
    while (t->turn != arg->me) {
      pt_cond_wait(&t->c, &t->m);
    }
    t->turn = (t->turn + 1) % kTurnThreads;
    pt_cond_broadcast(&t->c);
    pt_yield();
    pt_mutex_unlock(&t->m);
  }
  return nullptr;
}

TEST_F(MetricsTest, ProbeSubscribersAgreeOnOneStream) {
  constexpr uint32_t kSessionStart = 0xfeed0001;
  constexpr uint32_t kSessionEnd = 0xfeed0002;
  Turns turns;
  ASSERT_EQ(0, pt_mutex_init(&turns.m));
  ASSERT_EQ(0, pt_cond_init(&turns.c));

  debug::trace::Enable(true);
  pt_metrics_enable(true);
  // The markers bracket the off-CPU session: waits that close outside it take no sample.
  pt_trace_user(kSessionStart, 0);
  ASSERT_EQ(0, pt_profile_start(0));
  pt_thread_t th[kTurnThreads];
  TurnArg args[kTurnThreads];
  for (int i = 0; i < kTurnThreads; ++i) {
    args[i] = TurnArg{&turns, i};
    ASSERT_EQ(0, pt_create(&th[i], nullptr, TakeTurns, &args[i]));
  }
  for (pt_thread_t t : th) {
    ASSERT_EQ(0, pt_join(t, nullptr));
  }
  pt_trace_user(kSessionEnd, 0);
  ASSERT_EQ(0, pt_profile_stop());
  const MetricsSnapshot s = pt_metrics_snapshot();
  pt_metrics_enable(false);
  debug::trace::Enable(false);

  ASSERT_LE(debug::trace::TotalLogged(), debug::trace::Capacity()) << "ring wrapped";
  std::vector<debug::trace::Record> recs(debug::trace::Capacity());
  recs.resize(debug::trace::Snapshot(recs.data(), recs.size()));

  using debug::trace::Event;
  uint64_t switches = 0;
  uint64_t blocked_acquisitions = 0;
  uint64_t waits_in_session = 0;
  bool in_session = false;
  std::unordered_map<uint32_t, uint32_t> mutex_blocked;  // thread id -> tag it blocked on
  std::unordered_map<uint32_t, bool> suspended;          // thread id -> suspended in session
  for (const debug::trace::Record& r : recs) {
    switch (r.event) {
      case Event::kSwitch:
        ++switches;
        break;
      case Event::kMutexBlock:
        mutex_blocked.emplace(r.a, r.b);  // a re-block after a spurious wakeup keeps the first
        break;
      case Event::kMutexLock:
        if (auto it = mutex_blocked.find(r.a); it != mutex_blocked.end() && it->second == r.b) {
          ++blocked_acquisitions;
          mutex_blocked.erase(it);
        }
        break;
      case Event::kSuspend:
        suspended[r.a] = in_session;
        break;
      case Event::kReady:
        if (in_session && suspended[r.a]) {
          ++waits_in_session;
        }
        suspended[r.a] = false;
        break;
      case Event::kUser:
        in_session = r.a == kSessionStart ? true : r.a == kSessionEnd ? false : in_session;
        break;
      default:
        break;
    }
  }

  EXPECT_GT(switches, 0u);
  EXPECT_EQ(switches, s.voluntary_switches + s.preempted_switches);
  EXPECT_GT(blocked_acquisitions, 0u);
  EXPECT_EQ(blocked_acquisitions, s.mutex_wait.count);
  EXPECT_GT(waits_in_session, 0u);
  EXPECT_EQ(0u, debug::profiler::DroppedCount());
  EXPECT_EQ(waits_in_session, debug::profiler::OffCpuSampleCount());

  ASSERT_EQ(0, pt_cond_destroy(&turns.c));
  ASSERT_EQ(0, pt_mutex_destroy(&turns.m));
}

// ---------------------------------------------------------------------------------------
// Signal delivery accounting
// ---------------------------------------------------------------------------------------

volatile sig_atomic_t g_handler_hits = 0;
void CountingHandler(int) { g_handler_hits = g_handler_hits + 1; }

TEST_F(MetricsTest, SignalDeliveriesCounted) {
  pt_metrics_enable(true);
  g_handler_hits = 0;
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, &CountingHandler, 0));
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(0, pt_kill(pt_self(), SIGUSR1));
  }
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, nullptr, 0));
  EXPECT_EQ(5, g_handler_hits);
  const MetricsSnapshot s = pt_metrics_snapshot();
  EXPECT_GE(s.signals_delivered, 5u);
  const ThreadSnap* main_snap = FindSnap(s, pt_id(pt_self()));
  ASSERT_NE(nullptr, main_snap);
  EXPECT_GE(main_snap->signals_taken, 5u);
}

}  // namespace
}  // namespace fsup
