// Metric assembly shared by the three workloads: the end-to-end metrics of an untraced run,
// the per-layer metrics of a traced run, and the one JSON line run.py reads.

#ifndef FSUP_PERFBENCH_REPORT_HPP_
#define FSUP_PERFBENCH_REPORT_HPP_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/counters.hpp"
#include "perfbench/src/histogram.hpp"
#include "perfbench/src/trace.hpp"

namespace perfbench {

// Counts the benchmark takes at its own call sites. Plain increments: always on, in every
// run, at the cost of an add.
struct AppCounters {
  uint64_t cond_waits = 0;       // pt_cond_wait returns
  uint64_t useful_wakes = 0;     // pt_cond_wait returns that found the awaited predicate true
  uint64_t eintr = 0;            // library calls that returned EINTR
  uint64_t tsd_destructors = 0;  // TSD destructor runs
};
extern AppCounters g_app;

// Latencies between two benchmark call sites, taken only while tracing is on.
struct TracedLatencies {
  Histogram internal_deliver_ns;  // pt_kill -> handler entry
  Histogram external_deliver_ns;  // kill(2) -> pt_sigwait return
  Histogram cancel_to_join_ns;    // pt_cancel -> pt_join return of the cancelled thread
};
extern TracedLatencies* g_lat;  // allocated for traced runs only

// Counters plus the benchmark's own counts at one instant.
struct Mark {
  Counters c;
  AppCounters app;
  uint64_t ops = 0;

  static Mark Take(uint64_t ops_so_far) { return Mark{Counters::Take(), g_app, ops_so_far}; }
};

// The span between two marks.
struct Phase {
  Phase(const Mark& a, const Mark& b)
      : delta(a.c, b.c, b.ops - a.ops),
        cond_waits(b.app.cond_waits - a.app.cond_waits),
        useful_wakes(b.app.useful_wakes - a.app.useful_wakes),
        eintr(b.app.eintr - a.app.eintr),
        tsd_destructors(b.app.tsd_destructors - a.app.tsd_destructors) {}

  uint64_t ops() const { return delta.ops(); }
  double throughput() const {
    return delta.wall_s() > 0 ? static_cast<double>(ops()) / delta.wall_s() : 0;
  }

  CounterDelta delta;
  uint64_t cond_waits;
  uint64_t useful_wakes;
  uint64_t eintr;
  uint64_t tsd_destructors;
};

// The end-to-end figures of one window of the untraced phase.
struct WindowFigures {
  double throughput = 0;    // ops completed per second
  double p50_ns = 0;        // latency median
  // The tail is the 95th percentile: the highest one that repeated within a tenth from run
  // to run on every workload (the 99th did not on echo) and has far more than 10 samples
  // beyond it in every window.
  double p95_ns = 0;
  uint64_t samples = 0;     // latency samples behind p50/p95
  double cpu_us_per_op = 0; // user + sys CPU of the fsup process per op

  // From two marks and the latency samples taken between them.
  static WindowFigures Of(const Mark& a, const Mark& b, const Histogram& latency_ns);
};

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void Set(const std::string& name, double value, const char* unit);
  void Note(const std::string& name, double value) { notes_.emplace_back(name, value); }

  // Counts one op attempt; failed ones also count as failed.
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) {
      ++failed_;
    }
  }
  void AddAttempts(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  // A structural check that is not an op (e.g. shutdown cancelled every connection thread).
  void Check(bool ok, const char* what);

  // See PrintReady (workloads.hpp).
  void SetReady(uint64_t ready_ns, uint64_t input_ns) {
    ready_ns_ = ready_ns;
    input_ns_ = input_ns;
  }

  // End-to-end metrics of the untraced phase. Each figure is the mean over the phase's
  // windows, which are of equal length: on a shared host the speed of the machine drifts
  // over tens of seconds, and the mean weighs slow and fast periods by their length, where a
  // median would take whichever held most windows. Peak RSS is the process's, at the time
  // of the call.
  void EndToEnd(const std::vector<WindowFigures>& windows);

  // Per-layer metrics: per-op counts from the untraced phase, span metrics from the traced
  // phase. traced_ops/traced_window_s cover the traced window only (the buffer may fill
  // before the phase ends).
  void PerLayer(const Phase& untraced, const Phase& traced, const SpanAnalysis& spans,
                uint64_t traced_ops, double traced_window_s);

  // Writes the result JSON as the last line of stdout.
  void Print() const;

 private:
  std::string workload_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, double>> notes_;
  std::vector<std::string> check_failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t ready_ns_ = 0;
  uint64_t input_ns_ = 0;
};

}  // namespace perfbench

#endif  // FSUP_PERFBENCH_REPORT_HPP_
