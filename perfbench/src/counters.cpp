#include "perfbench/src/counters.hpp"

#include <cstdio>

#include "perfbench/src/trace.hpp"
#include "src/core/bench_probes.hpp"

namespace perfbench {

namespace {

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

Counters Counters::Take() {
  Counters c;
  c.rt = fsup::pt_stats();
  for (int i = 0; i < kNumHostCalls; ++i) {
    c.host[static_cast<size_t>(i)] = fsup::probe::HostCallCount(i);
  }
  c.ras_restarts = fsup::probe::RasRestarts();
  c.pool_reuses = fsup::probe::StackPoolReuses();
  c.pool_maps = fsup::probe::StackPoolMaps();
  c.lazy_commits = fsup::probe::StackPoolLazyCommits();
  c.io = fsup::io::GetStats();
  ::getrusage(RUSAGE_SELF, &c.ru);
  c.wall_ns = NowNs();
  return c;
}

double CounterDelta::user_s() const { return Seconds(a_.ru.ru_utime) - Seconds(b_.ru.ru_utime); }
double CounterDelta::sys_s() const { return Seconds(a_.ru.ru_stime) - Seconds(b_.ru.ru_stime); }

double CounterDelta::Host(fsup::hostos::Call c) const {
  const auto i = static_cast<size_t>(c);
  return static_cast<double>(a_.host[i] - b_.host[i]);
}

double CounterDelta::HostTotal() const {
  uint64_t total = 0;
  for (size_t i = 0; i < a_.host.size(); ++i) {
    total += a_.host[i] - b_.host[i];
  }
  return static_cast<double>(total);
}

double PeakRssMib() {
  // VmHWM, not ru_maxrss: the latter keeps the high-water mark of the image before exec(2),
  // i.e. of whatever process launched this one.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

}  // namespace perfbench
