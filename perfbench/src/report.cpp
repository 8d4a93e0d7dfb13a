#include "perfbench/src/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "perfbench/src/workloads.hpp"

namespace perfbench {

AppCounters g_app;
TracedLatencies* g_lat = nullptr;

namespace {

using fsup::hostos::Call;

double Frac(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void Report::Set(const std::string& name, double value, const char* unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Check(bool ok, const char* what) {
  if (!ok) {
    check_failures_.emplace_back(what);
  }
}

WindowFigures WindowFigures::Of(const Mark& a, const Mark& b, const Histogram& latency_ns) {
  const Phase p(a, b);
  WindowFigures w;
  w.throughput = p.throughput();
  w.p50_ns = latency_ns.Quantile(0.50);
  w.p95_ns = latency_ns.Quantile(0.95);
  w.samples = latency_ns.count();
  w.cpu_us_per_op = p.delta.PerOp(p.delta.cpu_s() * 1e6);
  return w;
}

void Report::EndToEnd(const std::vector<WindowFigures>& windows) {
  auto mean = [&](double WindowFigures::*field) {
    double sum = 0;
    for (const WindowFigures& w : windows) {
      sum += w.*field;
    }
    return windows.empty() ? 0 : sum / static_cast<double>(windows.size());
  };
  uint64_t samples = 0;
  uint64_t min_samples = UINT64_MAX;
  for (const WindowFigures& w : windows) {
    samples += w.samples;
    min_samples = std::min(min_samples, w.samples);
  }
  Set("throughput_ops_s", mean(&WindowFigures::throughput), "op/s");
  Set("latency_p50_us", mean(&WindowFigures::p50_ns) / 1e3, "us");
  Set("latency_p95_us", mean(&WindowFigures::p95_ns) / 1e3, "us");
  Set("cpu_us_per_op", mean(&WindowFigures::cpu_us_per_op), "us/op");
  Set("peak_rss_mib", PeakRssMib(), "MiB");
  double tmin = windows.empty() ? 0 : windows.front().throughput;
  double tmax = tmin;
  for (const WindowFigures& w : windows) {
    tmin = std::min(tmin, w.throughput);
    tmax = std::max(tmax, w.throughput);
  }
  Note("windows", static_cast<double>(windows.size()));
  Note("throughput_min_window", tmin);
  Note("throughput_max_window", tmax);
  Note("latency_samples", static_cast<double>(samples));
  Note("latency_samples_min_window", static_cast<double>(windows.empty() ? 0 : min_samples));
}

void Report::PerLayer(const Phase& u, const Phase& t, const SpanAnalysis& s,
                      uint64_t traced_ops, double traced_window_s) {
  const CounterDelta& d = u.delta;
  const double ops = static_cast<double>(u.ops());
  const double tops = static_cast<double>(traced_ops);
  auto self_p = [&](Name n, double q) { return s[n].self_ns.Quantile(q); };
  auto wall_us_p = [&](Name n, double q) { return s[n].wall_ns.Quantile(q) / 1e3; };
  auto layer_us_per_op = [&](Layer l) {
    return Frac(static_cast<double>(s.layer_self_ns[static_cast<size_t>(l)]) / 1e3, tops);
  };

  // kernel
  Set("kernel.entries_per_op", d.PerOp(d.kernel_entries()), "1/op");
  Set("kernel.switches_per_op", d.PerOp(d.ctx_switches()), "1/op");
  Set("kernel.dispatches_per_op", d.PerOp(d.dispatches()), "1/op");
  Set("kernel.preemptions_per_op", d.PerOp(d.preemptions()), "1/op");
  Set("kernel.create_ns_p50", self_p(Name::kCreate, 0.50), "ns");
  Set("kernel.create_ns_p99", self_p(Name::kCreate, 0.99), "ns");
  Set("kernel.join_ns_p50", self_p(Name::kJoin, 0.50), "ns");
  Set("kernel.join_ns_p99", self_p(Name::kJoin, 0.99), "ns");
  Set("kernel.yield_ns_p50", self_p(Name::kYield, 0.50), "ns");
  Set("kernel.pool_hit_frac", Frac(d.pool_reuses(), d.pool_reuses() + d.pool_maps()), "frac");
  Set("kernel.lazy_commits_per_op", d.PerOp(d.lazy_commits()), "1/op");
  Set("kernel.minflt_per_op", d.PerOp(d.minflt()), "1/op");
  Set("kernel.self_us_per_op", layer_us_per_op(Layer::kKernel), "us/op");

  // sync
  const auto& lock = s[Name::kLock];
  Set("sync.lock_ns_p50", self_p(Name::kLock, 0.50), "ns");
  Set("sync.lock_ns_p99", self_p(Name::kLock, 0.99), "ns");
  Set("sync.lock_blocked_frac",
      Frac(static_cast<double>(lock.covered), static_cast<double>(lock.count)), "frac");
  Set("sync.unlock_ns_p50", self_p(Name::kUnlock, 0.50), "ns");
  Set("sync.cond_wait_us_p50", wall_us_p(Name::kCondWait, 0.50), "us");
  Set("sync.cond_wait_us_p99", wall_us_p(Name::kCondWait, 0.99), "us");
  Set("sync.cond_waits_per_op", Frac(static_cast<double>(u.cond_waits), ops), "1/op");
  Set("sync.cond_useful_wake_frac",
      Frac(static_cast<double>(u.useful_wakes), static_cast<double>(u.cond_waits)), "frac");
  Set("sync.signal_ns_p50", self_p(Name::kSignal, 0.50), "ns");
  Set("sync.broadcast_ns_p50", self_p(Name::kBroadcast, 0.50), "ns");
  Set("sync.fast_pair_ns_p50", self_p(Name::kFastPair, 0.50), "ns");
  Set("sync.self_us_per_op", layer_us_per_op(Layer::kSync), "us/op");

  // arch
  Set("arch.ras_restarts_per_mop", d.PerOp(d.ras_restarts()) * 1e6, "1/Mop");

  // io
  Set("io.read_ns_p50", self_p(Name::kRead, 0.50), "ns");
  Set("io.read_ns_p99", self_p(Name::kRead, 0.99), "ns");
  Set("io.write_ns_p50", self_p(Name::kWrite, 0.50), "ns");
  Set("io.waits_per_op", d.PerOp(d.io_waits()), "1/op");
  Set("io.probes_per_op", d.PerOp(d.io_probes()), "1/op");
  Set("io.wakeups_per_probe", Frac(d.io_wakeups(), d.io_probes()), "1/probe");
  Set("io.cache_hit_frac", Frac(d.io_cache_hits(), d.io_cache_hits() + d.io_cache_misses()),
      "frac");
  Set("io.self_us_per_op", layer_us_per_op(Layer::kIo), "us/op");
  // Wall time the process spent off the CPU (mostly asleep in epoll_wait), per op of the
  // traced phase. It sits inside some thread's blocked pt_read span, so it is part of
  // io.self_us_per_op; subtract it to get the I/O layer's CPU work.
  const double idle_s = t.delta.wall_s() - t.delta.cpu_s();
  Set("io.idle_us_per_op", Frac(idle_s > 0 ? idle_s * 1e6 : 0, static_cast<double>(t.ops())),
      "us/op");

  // hostos
  Set("hostos.epoll_wait_per_op", d.PerOp(d.Host(Call::kEpollWait)), "1/op");
  Set("hostos.epoll_ctl_per_op", d.PerOp(d.Host(Call::kEpollCtl)), "1/op");
  Set("hostos.sigprocmask_per_op", d.PerOp(d.Host(Call::kSigprocmask)), "1/op");
  Set("hostos.calls_per_op", d.PerOp(d.HostTotal()), "1/op");
  Set("hostos.sys_cpu_frac", Frac(d.sys_s(), d.cpu_s()), "frac");
  Set("hostos.mmap_per_op", d.PerOp(d.Host(Call::kMmap)), "1/op");
  Set("hostos.munmap_per_op", d.PerOp(d.Host(Call::kMunmap)), "1/op");
  Set("hostos.mprotect_per_op", d.PerOp(d.Host(Call::kMprotect)), "1/op");
  Set("hostos.kill_per_op", d.PerOp(d.Host(Call::kKill)), "1/op");
  Set("hostos.setitimer_per_op", d.PerOp(d.Host(Call::kSetitimer)), "1/op");

  // signals
  const TracedLatencies empty{};
  const TracedLatencies& lat = g_lat != nullptr ? *g_lat : empty;
  Set("signals.kill_ns_p50", self_p(Name::kKill, 0.50), "ns");
  Set("signals.internal_deliver_us_p50", lat.internal_deliver_ns.Quantile(0.50) / 1e3, "us");
  Set("signals.internal_deliver_us_p99", lat.internal_deliver_ns.Quantile(0.99) / 1e3, "us");
  Set("signals.external_deliver_us_p50", lat.external_deliver_ns.Quantile(0.50) / 1e3, "us");
  Set("signals.external_deliver_us_p99", lat.external_deliver_ns.Quantile(0.99) / 1e3, "us");
  Set("signals.deferred_per_op", d.PerOp(d.deferred_signals()), "1/op");
  Set("signals.eintr_per_op", Frac(static_cast<double>(u.eintr), ops), "1/op");
  Set("signals.self_us_per_op", layer_us_per_op(Layer::kSignals), "us/op");

  // cancel
  Set("cancel.cancel_to_join_us_p50", lat.cancel_to_join_ns.Quantile(0.50) / 1e3, "us");
  Set("cancel.cancel_to_join_us_p99", lat.cancel_to_join_ns.Quantile(0.99) / 1e3, "us");
  Set("cancel.self_us_per_op", layer_us_per_op(Layer::kCancel), "us/op");

  // tsd
  Set("tsd.set_ns_p50", self_p(Name::kSetSpecific, 0.50), "ns");
  Set("tsd.get_ns_p50", self_p(Name::kGetSpecific, 0.50), "ns");
  Set("tsd.destructors_per_op", Frac(static_cast<double>(u.tsd_destructors), ops), "1/op");
  Set("tsd.self_us_per_op", layer_us_per_op(Layer::kTsd), "us/op");

  // whole workload
  Set("unattributed_frac", s.UnattributedFrac(), "frac");
  const double traced_tput = Frac(tops, traced_window_s);
  Set("trace_overhead_frac", 1.0 - Frac(traced_tput, u.throughput()), "frac");

  Note("traced_ops", tops);
  Note("traced_window_s", traced_window_s);
  Note("spans", static_cast<double>(s.spans));
  Note("untraced_ops", ops);
  Note("untraced_tput", u.throughput());
  Note("traced_tput", traced_tput);
  Note("samples.cond_wait", static_cast<double>(s[Name::kCondWait].count));
  Note("samples.lock", static_cast<double>(lock.count));
  Note("samples.read", static_cast<double>(s[Name::kRead].count));
  Note("samples.create", static_cast<double>(s[Name::kCreate].count));
  Note("samples.internal_deliver", static_cast<double>(lat.internal_deliver_ns.count()));
  Note("samples.external_deliver", static_cast<double>(lat.external_deliver_ns.count()));
  Note("samples.cancel_to_join", static_cast<double>(lat.cancel_to_join_ns.count()));
  Note("app_self_frac", Frac(static_cast<double>(s.app_self_ns), static_cast<double>(s.window_ns)));
}

void Report::Print() const {
  std::string out = "{\"workload\": \"" + workload_ + "\"";
  out += ", \"correct\": ";
  out += (failed_ == 0 && check_failures_.empty() && attempted_ > 0) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"start_ns\": " + std::to_string(g_start_ns);
  out += ", \"ready_ns\": " + std::to_string(ready_ns_);
  out += ", \"input_ns\": " + std::to_string(input_ns_);
  char num[64];
  out += ", \"checks_failed\": [";
  for (size_t i = 0; i < check_failures_.size(); ++i) {
    out += (i ? ", \"" : "\"") + check_failures_[i] + "\"";
  }
  out += "], \"notes\": {";
  for (size_t i = 0; i < notes_.size(); ++i) {
    std::snprintf(num, sizeof(num), "%.17g", notes_[i].second);
    out += (i ? ", \"" : "\"") + notes_[i].first + "\": " + num;
  }
  out += "}, \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    if (std::isfinite(vu.first)) {
      std::snprintf(num, sizeof(num), "%.17g", vu.first);
    } else {
      std::snprintf(num, sizeof(num), "null");
    }
    out += (i ? ", \"" : "\"") + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace perfbench
