// lifecycle: seeded waves of threads are created and joined. Wave sizes (8-256 threads)
// span the 32 MiB stack-pool budget and stack sizes span the 16 KiB-1 MiB classes. Each
// worker sets TSD with a destructor, pushes a cleanup handler and yields. The controller sends a
// seeded share of the workers pt_kill(SIGUSR1), some before they first run and some while
// they are blocked in pt_cond_wait, and cancels another seeded share while they are blocked
// there. Once per wave it sends kill(2) SIGUSR2 to its own process, which a service thread
// blocked in pt_sigwait takes.
//
// An op is one thread lifecycle; the latency sample is one wave, first create to last join.
// Checked per thread: the return value (or kCanceled), one TSD destructor run, the cleanup
// handler run exactly when the plan says, and the signal handler run exactly when killed.

#include <signal.h>
#include <unistd.h>

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
using inputs::Fate;

struct Worker {
  const inputs::ThreadPlan* plan = nullptr;
  pt_thread_t tid = nullptr;
  bool created = false;
  uint32_t op = 0;
  bool go = false;            // released by the controller; guarded by State::m
  bool tsd_ok = false;
  uint32_t handler_runs = 0;
  uint32_t cleanup_runs = 0;
  uint32_t destructor_runs = 0;
  uint64_t kill_ns = 0;       // traced runs: when pt_kill was sent
  uint64_t cancel_ns = 0;     // traced runs: when pt_cancel was sent
};

struct State {
  pt_mutex_t m;
  pt_cond_t arrive_cv;  // the last waiting worker to arrive signals the controller
  pt_cond_t go_cv;      // the controller releases the waiting workers
  uint32_t arrived = 0;
  uint32_t waiters = 0;
  pt_key_t key = 0;
  std::vector<Worker> workers;  // the current wave
  uint32_t first_id = 0;        // pt_id of the wave's first worker
  uint64_t ext_sent = 0;
  uint64_t ext_received = 0;
  uint64_t ext_send_ns = 0;
  bool ext_bad = false;
  uint64_t traced_ops = 0;
};

State* g;

// Tries the worker whose index matches the id offset from the wave's first worker, then
// searches the wave, so nothing depends on how the library numbers its threads.
Worker* SelfWorker() {
  const pt_thread_t self = pt_self();
  const uint32_t idx = pt_id(self) - g->first_id;
  if (idx < g->workers.size() && pt_equal(g->workers[idx].tid, self)) {
    return &g->workers[idx];
  }
  for (Worker& w : g->workers) {
    if (w.created && pt_equal(w.tid, self)) {
      return &w;
    }
  }
  return nullptr;
}

void Usr1Handler(int) {
  const uint64_t now = NowNs();
  Worker* w = SelfWorker();
  if (w == nullptr) {
    return;
  }
  ++w->handler_runs;
  if (g_lat != nullptr && w->kill_ns != 0) {
    g_lat->internal_deliver_ns.Add(now - w->kill_ns);
  }
}

void TsdDestructor(void* v) {
  ++static_cast<Worker*>(v)->destructor_runs;
  ++g_app.tsd_destructors;
}

void CleanupHandler(void* v) { ++static_cast<Worker*>(v)->cleanup_runs; }

void UnlockWaveMutex(void*) { pt_mutex_unlock(&g->m); }

void* WorkerBody(void* p) {
  auto* w = static_cast<Worker*>(p);
  Ctx c;
  c.op = w->op;
  {
    Span s(c, Name::kSetSpecific);
    pt_setspecific(g->key, w);
  }
  void* got;
  {
    Span s(c, Name::kGetSpecific);
    got = pt_getspecific(g->key);
  }
  w->tsd_ok = got == w;
  {
    Span s(c, Name::kCleanupPush);
    pt_cleanup_push(&CleanupHandler, w);
  }
  {
    Span s(c, Name::kYield);
    pt_yield();
  }
  if (inputs::Waits(w->plan->fate)) {
    {
      Span s(c, Name::kLock);
      pt_mutex_lock(&g->m);
    }
    pt_cleanup_push(&UnlockWaveMutex, nullptr);  // a cancelled wait returns with m held
    if (++g->arrived == g->waiters) {
      Span s(c, Name::kSignal);
      pt_cond_signal(&g->arrive_cv);
    }
    while (!w->go) {
      int r;
      {
        Span s(c, Name::kCondWait);
        r = pt_cond_wait(&g->go_cv, &g->m);
      }
      ++g_app.cond_waits;
      g_app.eintr += r == EINTR;
      g_app.useful_wakes += w->go;
    }
    Span s(c, Name::kCleanupPop);
    pt_cleanup_pop(true);  // unlocks m
  }
  {
    Span s(c, Name::kCleanupPop);
    pt_cleanup_pop(w->plan->pop_execute);
  }
  return reinterpret_cast<void*>(inputs::ExpectedReturn(w->plan->value));
}

void* ServiceBody(void*) {
  for (;;) {
    int signo = 0;
    const int r = pt_sigwait(SigBit(SIGUSR2), &signo);
    const uint64_t now = NowNs();
    if (r != 0 || signo != SIGUSR2) {
      g->ext_bad = true;
      continue;
    }
    ++g->ext_received;
    if (g_lat != nullptr && g->ext_send_ns != 0) {
      g_lat->external_deliver_ns.Add(now - g->ext_send_ns);
    }
  }
  return nullptr;
}

// Runs one wave; returns its duration. Failed threads are counted into the report.
uint64_t RunWave(const inputs::LifecycleInputs& in, const inputs::WavePlan& wave,
                 uint32_t* next_op, Report& report) {
  Ctx c;
  const bool traced = tracer::g_on;
  const uint64_t t0 = NowNs();
  g->workers.assign(wave.count, Worker{});
  g->arrived = 0;
  g->waiters = 0;
  for (uint32_t i = 0; i < wave.count; ++i) {
    Worker& w = g->workers[i];
    w.plan = &in.threads[wave.first + i];
    w.op = ++*next_op;
  }

  // Workers run at the controller's priority, so none runs before the controller blocks.
  ThreadAttr attr;
  for (uint32_t i = 0; i < wave.count; ++i) {
    Worker& w = g->workers[i];
    attr.stack_size = w.plan->stack_size;
    c.op = w.op;
    int r;
    {
      Span s(c, Name::kCreate);
      r = pt_create(&w.tid, &attr, &WorkerBody, &w);
    }
    w.created = r == 0;
    g->waiters += w.created && inputs::Waits(w.plan->fate);
    if (i == 0) {
      g->first_id = r == 0 ? pt_id(w.tid) : 0;
    }
    if (r == 0 && w.plan->fate == Fate::kKillReady) {
      w.kill_ns = traced ? NowNs() : 0;
      Span s(c, Name::kKill);
      pt_kill(w.tid, SIGUSR1);
    }
  }

  if (g->waiters > 0) {
    {
      Span s(c, Name::kLock);
      pt_mutex_lock(&g->m);
    }
    while (g->arrived < g->waiters) {
      Span s(c, Name::kCondWait);
      pt_cond_wait(&g->arrive_cv, &g->m);
    }
    for (Worker& w : g->workers) {
      if (!w.created) {
        continue;
      }
      if (w.plan->fate == Fate::kKillWaiting) {
        c.op = w.op;
        w.kill_ns = traced ? NowNs() : 0;
        Span s(c, Name::kKill);
        pt_kill(w.tid, SIGUSR1);
      } else if (w.plan->fate == Fate::kCancel) {
        c.op = w.op;
        w.cancel_ns = traced ? NowNs() : 0;
        Span s(c, Name::kCancel);
        pt_cancel(w.tid);
      }
      w.go = true;
    }
    {
      Span s(c, Name::kBroadcast);
      pt_cond_broadcast(&g->go_cv);
    }
    Span s(c, Name::kUnlock);
    pt_mutex_unlock(&g->m);
  }

  // Join the cancelled workers first, so cancel-to-join is not queued behind other joins.
  for (int pass = 0; pass < 2; ++pass) {
    for (uint32_t i = 0; i < wave.count; ++i) {
      Worker& w = g->workers[i];
      const bool cancelled = w.plan->fate == Fate::kCancel;
      if (!w.created || cancelled != (pass == 0)) {
        continue;
      }
      void* ret = nullptr;
      c.op = w.op;
      int r;
      {
        Span s(c, Name::kJoin);
        r = pt_join(w.tid, &ret);
      }
      if (cancelled && w.cancel_ns != 0 && g_lat != nullptr) {
        g_lat->cancel_to_join_ns.Add(NowNs() - w.cancel_ns);
      }
      const bool ret_ok =
          cancelled ? ret == kCanceled
                    : ret == reinterpret_cast<void*>(inputs::ExpectedReturn(w.plan->value));
      const uint32_t want_cleanup = cancelled || w.plan->pop_execute ? 1 : 0;
      const uint32_t want_handler = inputs::Killed(w.plan->fate) ? 1 : 0;
      report.Attempt(r == 0 && ret_ok && w.tsd_ok && w.destructor_runs == 1 &&
                     w.cleanup_runs == want_cleanup && w.handler_runs == want_handler);
    }
  }
  for (const Worker& w : g->workers) {
    if (!w.created) {
      report.Attempt(false);
    }
  }

  // The external signal: the service thread outranks the controller, so it runs in pt_sigwait's
  // return before kill(2) comes back here.
  g->ext_send_ns = traced ? NowNs() : 0;
  {
    Span s(c, Name::kHostKill);
    ::kill(::getpid(), SIGUSR2);
  }
  ++g->ext_sent;
  const uint64_t t1 = NowNs();
  if (traced && tracer::g_on) {
    g->traced_ops += wave.count;
  }
  return t1 - t0;
}

}  // namespace

int RunLifecycle(const Options& o) {
  const uint64_t input_start_ns = NowNs();
  const inputs::LifecycleInputs in = inputs::MakeLifecycle(o.seed);
  const uint64_t input_ns = NowNs() - input_start_ns;
  pt_init();
  auto state = std::make_unique<State>();
  g = state.get();
  pt_mutex_init(&g->m);
  pt_cond_init(&g->arrive_cv);
  pt_cond_init(&g->go_cv);
  pt_key_create(&g->key, &TsdDestructor);
  pt_sigaction(SIGUSR1, &Usr1Handler, 0);
  // Only the service thread takes SIGUSR2: everyone else inherits it blocked.
  pt_sigmask(SigMaskHow::kBlock, SigBit(SIGUSR2), nullptr);
  std::unique_ptr<TracedLatencies> lat;
  if (o.trace) {
    tracer::Allocate(kSpanCapacity);
    lat = std::make_unique<TracedLatencies>();
    g_lat = lat.get();
  }
  Report report("lifecycle");
  ThreadAttr service_attr;
  service_attr.priority = kDefaultPrio + 2;
  pt_thread_t service;
  report.Check(pt_create(&service, &service_attr, &ServiceBody, nullptr) == 0,
               "create service thread");
  const uint64_t ready_ns = NowNs();

  std::vector<Histogram> wave_ns(Options::kWindows);
  uint64_t ops = 0;
  uint32_t next_op = 0;
  size_t next_wave = 0;
  auto run_for = [&](double seconds, Histogram* lat_hist) {
    const uint64_t end_ns = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    while (NowNs() < end_ns) {
      const inputs::WavePlan& wave = in.waves[next_wave++ % in.waves.size()];
      const uint64_t d = RunWave(in, wave, &next_op, report);
      ops += wave.count;
      if (lat_hist != nullptr) {
        lat_hist->Add(d);
      }
    }
  };

  std::vector<Mark> marks;  // untraced window boundaries
  Mark t0, t1;              // traced phase
  if (!o.setup_only) {
    run_for(o.WarmupSeconds(), nullptr);
    marks.push_back(Mark::Take(ops));
    for (int w = 0; w < Options::kWindows; ++w) {
      run_for(o.WindowSeconds(), &wave_ns[w]);
      marks.push_back(Mark::Take(ops));
    }
    if (o.trace) {
      t0 = Mark::Take(ops);
      tracer::Start();
      run_for(o.TracedSeconds(), nullptr);
      tracer::Stop();
      t1 = Mark::Take(ops);
    }
  }

  void* ret = nullptr;
  report.Check(pt_cancel(service) == 0 && pt_join(service, &ret) == 0 && ret == kCanceled,
               "service thread cancelled in sigwait");
  report.Check(g->ext_received == g->ext_sent && !g->ext_bad, "external signals received");
  pt_key_delete(g->key);

  if (o.setup_only) {
    PrintReady(ready_ns, input_ns);
    return 0;
  }
  report.SetReady(ready_ns, input_ns);
  if (!o.trace) {
    std::vector<WindowFigures> windows;
    for (int w = 0; w < Options::kWindows; ++w) {
      windows.push_back(WindowFigures::Of(marks[w], marks[w + 1], wave_ns[w]));
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
