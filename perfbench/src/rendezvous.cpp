// rendezvous: 64 caller tasks call 4 Ada-style entries, each served by one acceptor task,
// through the call/accept protocol of examples/ada_rendezvous.cpp (one mutex, a
// call_present and a call_done condition, broadcast on call_done). The broadcast wakes every
// caller queued on the entry, so most wake-ups find their predicate false: that herd is the
// protocol's cost and is measured as it is.
//
// An op is one completed call. The seed sets which entry each call goes to, its argument and
// the amount of work in the entry body; every result is checked against the value the input
// generator computed.

#include <cerrno>
#include <cstdint>
#include <memory>
#include <vector>

#include "perfbench/src/inputs.hpp"
#include "perfbench/src/report.hpp"
#include "perfbench/src/trace.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/core/pthread.hpp"

namespace perfbench {
namespace {

using namespace fsup;
using inputs::kCallers;
using inputs::kEntries;

constexpr uint32_t kStopOp = UINT32_MAX;  // a call with this op id stops the acceptor

int Wait(const Ctx& c, pt_cond_t* cv, pt_mutex_t* m) {
  int r;
  {
    Span s(c, Name::kCondWait);
    r = pt_cond_wait(cv, m);
  }
  ++g_app.cond_waits;
  if (r == EINTR) {
    ++g_app.eintr;
  }
  return r;
}

class EntryPoint {
 public:
  EntryPoint() {
    pt_mutex_init(&m_);
    pt_cond_init(&call_present_);
    pt_cond_init(&call_done_);
  }
  ~EntryPoint() {
    pt_cond_destroy(&call_done_);
    pt_cond_destroy(&call_present_);
    pt_mutex_destroy(&m_);
  }
  EntryPoint(const EntryPoint&) = delete;
  EntryPoint& operator=(const EntryPoint&) = delete;

  // Caller side: blocks until the acceptor has run the body on (x, work).
  int64_t Call(const Ctx& c, int64_t x, uint32_t work) {
    Lock(c);
    while (state_ != State::kIdle) {
      Wait(c, &call_done_, &m_);  // another caller is in rendezvous
      g_app.useful_wakes += state_ == State::kIdle;
    }
    in_ = x;
    in_work_ = work;
    in_op_ = c.op;
    state_ = State::kCallWaiting;
    {
      Span s(c, Name::kSignal);
      pt_cond_signal(&call_present_);
    }
    while (state_ != State::kCompleted) {
      Wait(c, &call_done_, &m_);
      g_app.useful_wakes += state_ == State::kCompleted;
    }
    const int64_t result = out_;
    state_ = State::kIdle;
    Broadcast(c);  // admit the next caller
    Unlock(c);
    return result;
  }

  // Acceptor side: one rendezvous. Returns false when the call asked the acceptor to stop.
  bool Accept(Ctx& c) {
    c.op = 0;
    Lock(c);
    while (state_ != State::kCallWaiting) {
      Wait(c, &call_present_, &m_);
      g_app.useful_wakes += state_ == State::kCallWaiting;
    }
    const bool stop = in_op_ == kStopOp;
    c.op = in_op_;
    {
      Span s(c, Name::kBody);
      out_ = stop ? 0 : inputs::EntryBody(in_, in_work_);
    }
    state_ = State::kCompleted;
    Broadcast(c);
    Unlock(c);
    return !stop;
  }

 private:
  enum class State { kIdle, kCallWaiting, kCompleted };

  void Lock(const Ctx& c) {
    Span s(c, Name::kLock);
    pt_mutex_lock(&m_);
  }
  void Unlock(const Ctx& c) {
    Span s(c, Name::kUnlock);
    pt_mutex_unlock(&m_);
  }
  void Broadcast(const Ctx& c) {
    Span s(c, Name::kBroadcast);
    pt_cond_broadcast(&call_done_);
  }

  pt_mutex_t m_;
  pt_cond_t call_present_;
  pt_cond_t call_done_;
  State state_ = State::kIdle;
  int64_t in_ = 0;
  uint32_t in_work_ = 0;
  uint32_t in_op_ = 0;
  int64_t out_ = 0;
};

struct Shared {
  const inputs::RendezvousInputs* in = nullptr;
  EntryPoint entries[kEntries];
  // Start gate: callers wait here until set-up is over.
  pt_mutex_t gate_m;
  pt_cond_t gate_cv;
  bool gate_open = false;
  volatile bool stop = false;
  volatile int window = -1;  // untraced window calls are filed under, or -1
  uint32_t next_op = 0;
  uint64_t completed = 0;     // calls completed in any phase
  uint64_t traced_ops = 0;    // calls completed while spans were being recorded
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Histogram latency_ns[Options::kWindows];  // per untraced window
};

Shared* g;

struct CallerArg {
  int id;
};

void* CallerBody(void* p) {
  const int id = static_cast<CallerArg*>(p)->id;
  Ctx c;
  pt_mutex_lock(&g->gate_m);
  while (!g->gate_open) {
    pt_cond_wait(&g->gate_cv, &g->gate_m);
  }
  pt_mutex_unlock(&g->gate_m);

  for (uint64_t k = 0; !g->stop; ++k) {
    const inputs::RendezvousCall& call = g->in->At(id, k);
    const uint64_t t0 = NowNs();
    int64_t result;
    {
      OpScope op(c, ++g->next_op);
      result = g->entries[call.entry].Call(c, call.x, call.work);
    }
    const uint64_t t1 = NowNs();
    ++g->attempted;
    g->failed += result != call.expected;
    ++g->completed;
    if (tracer::g_on) {
      ++g->traced_ops;
    }
    if (const int w = g->window; w >= 0) {
      g->latency_ns[w].Add(t1 - t0);
    }
  }
  return nullptr;
}

void* AcceptorBody(void* p) {
  auto* entry = static_cast<EntryPoint*>(p);
  Ctx c;
  while (entry->Accept(c)) {
  }
  return nullptr;
}

void Sleep(double seconds) { pt_delay(static_cast<int64_t>(seconds * 1e9)); }

}  // namespace

int RunRendezvous(const Options& o) {
  const uint64_t input_start_ns = NowNs();
  const inputs::RendezvousInputs in = inputs::MakeRendezvous(o.seed);
  const uint64_t input_ns = NowNs() - input_start_ns;
  pt_init();
  auto shared = std::make_unique<Shared>();
  g = shared.get();
  g->in = &in;
  pt_mutex_init(&g->gate_m);
  pt_cond_init(&g->gate_cv);
  std::unique_ptr<TracedLatencies> lat;
  if (o.trace) {
    tracer::Allocate(kSpanCapacity);
    lat = std::make_unique<TracedLatencies>();
    g_lat = lat.get();
  }

  Report report("rendezvous");
  pt_thread_t acceptors[kEntries];
  for (int e = 0; e < kEntries; ++e) {
    report.Check(pt_create(&acceptors[e], nullptr, &AcceptorBody, &g->entries[e]) == 0,
                 "create acceptor");
  }
  pt_thread_t callers[kCallers];
  CallerArg args[kCallers];
  for (int i = 0; i < kCallers; ++i) {
    args[i].id = i;
    report.Check(pt_create(&callers[i], nullptr, &CallerBody, &args[i]) == 0, "create caller");
  }
  pt_yield();  // every task runs to its first wait
  // The controller sleeps at top priority so it runs the moment a phase ends.
  pt_setprio(pt_self(), kMaxPrio);
  const uint64_t ready_ns = NowNs();

  if (o.setup_only) {
    g->stop = true;
  }
  pt_mutex_lock(&g->gate_m);
  g->gate_open = true;
  pt_cond_broadcast(&g->gate_cv);
  pt_mutex_unlock(&g->gate_m);

  std::vector<Mark> marks;  // untraced window boundaries
  Mark t0, t1;              // traced phase
  if (!o.setup_only) {
    Sleep(o.WarmupSeconds());
    marks.push_back(Mark::Take(g->completed));
    for (int w = 0; w < Options::kWindows; ++w) {
      g->window = w;
      Sleep(o.WindowSeconds());
      marks.push_back(Mark::Take(g->completed));
    }
    g->window = -1;
    if (o.trace) {
      t0 = Mark::Take(g->completed);
      tracer::Start();
      Sleep(o.TracedSeconds());
      tracer::Stop();
      t1 = Mark::Take(g->completed);
    }
  }
  g->stop = true;

  Ctx main_ctx;
  for (auto& t : callers) {
    report.Check(pt_join(t, nullptr) == 0, "join caller");
  }
  for (int e = 0; e < kEntries; ++e) {
    main_ctx.op = kStopOp;
    g->entries[e].Call(main_ctx, 0, 0);
    report.Check(pt_join(acceptors[e], nullptr) == 0, "join acceptor");
  }

  if (o.setup_only) {
    PrintReady(ready_ns, input_ns);
    return 0;
  }
  report.SetReady(ready_ns, input_ns);
  report.AddAttempts(g->attempted, g->failed);
  if (!o.trace) {
    std::vector<WindowFigures> windows;
    for (int w = 0; w < Options::kWindows; ++w) {
      windows.push_back(WindowFigures::Of(marks[w], marks[w + 1], g->latency_ns[w]));
    }
    report.EndToEnd(windows);
  } else {
    const Phase untraced(marks.front(), marks.back());
    const Phase traced(t0, t1);
    const auto spans = Analyze();
    report.PerLayer(untraced, traced, *spans, g->traced_ops,
                    static_cast<double>(spans->window_ns) * 1e-9);
  }
  report.Print();
  g_lat = nullptr;
  return 0;
}

}  // namespace perfbench
