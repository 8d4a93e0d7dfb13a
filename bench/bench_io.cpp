// I/O readiness scaling: waits/sec and syscalls/wakeup as the registered-waiter count grows.
//
// N threads each block reading their own pipe; one shared ack pipe carries replies back to
// the driver. Every round wakes exactly ONE waiter (round-robin single-byte write) and then
// blocks the driver on the ack — so each round costs two suspensions and two idle-loop
// readiness probes while N-1 threads stay registered. That shape is the discriminator: epoll
// pays O(ready)=O(1) per probe against a persistent interest set, where a poll(2) rebuild
// would scan all N+1 registered fds per probe. The acceptance criterion: waits/sec at N=4096
// within 2x of N=8, and >=90% of steady-state waits performing zero epoll_ctl calls.
//
// Writes BENCH_io.json (override with FSUP_IO_JSON), one row per N.

#include <sys/resource.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "src/core/pthread.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/io/io.hpp"
#include "src/util/dual_loop_timer.hpp"

namespace fsup {
namespace {

constexpr int kCounts[] = {8, 64, 512, 4096};
constexpr int kMaxThreads = 4096;

struct Row {
  int n = 0;
  int rounds = 0;
  double elapsed_s = 0;
  double waits_per_sec = 0;
  double ctl_per_wait = 0;    // epoll_ctl syscalls per wait (steady state: ~0)
  double probes_per_wait = 0; // epoll_wait syscalls per wait
  double ctl_free_fraction = 0;  // waits served purely from the interest cache
  bool valid = false;
};

struct Echo {
  int rfd = -1;
  int ack_wfd = -1;
};

Echo g_echo[kMaxThreads];

void* EchoThread(void* ap) {
  const Echo* e = static_cast<const Echo*>(ap);
  char b;
  while (pt_read(e->rfd, &b, 1) == 1 && b != 'q') {
    pt_write(e->ack_wfd, &b, 1);
  }
  return nullptr;
}

constexpr int kRounds = 4000;

bool RaiseFdLimitFor(int n) {
  const rlim_t need = static_cast<rlim_t>(2 * n + 64);
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) {
    return false;
  }
  if (rl.rlim_cur >= need) {
    return true;
  }
  if (rl.rlim_max < need) {
    return false;
  }
  rl.rlim_cur = need;
  return ::setrlimit(RLIMIT_NOFILE, &rl) == 0;
}

Row RunOne(int n) {
  Row row;
  row.n = n;
  if (!RaiseFdLimitFor(n)) {
    std::fprintf(stderr, "bench_io: fd limit too low for N=%d, skipping\n", n);
    return row;
  }
  pt_reinit();  // fresh interest cache + io counters

  static int pipes[kMaxThreads][2];
  int ack[2];
  if (::pipe(ack) != 0) {
    std::perror("pipe");
    return row;
  }
  static pt_thread_t threads[kMaxThreads];
  ThreadAttr attr;
  attr.stack_size = 32 * 1024;  // the echo loop is shallow; keep 4096 stacks affordable
  for (int i = 0; i < n; ++i) {
    if (::pipe(pipes[i]) != 0) {
      std::perror("pipe");
      return row;
    }
    g_echo[i].rfd = pipes[i][0];
    g_echo[i].ack_wfd = ack[1];
    if (pt_create(&threads[i], &attr, &EchoThread, &g_echo[i]) != 0) {
      std::fprintf(stderr, "bench_io: pt_create failed at %d\n", i);
      return row;
    }
  }

  auto round = [&](int i) {
    char b = 'x';
    pt_write(pipes[i][1], &b, 1);
    pt_read(ack[0], &b, 1);
  };

  // Warmup: one wake per thread registers every pipe read end (plus the ack end) in the
  // interest cache, so the measured window is the steady state the cache is built for.
  for (int i = 0; i < n; ++i) {
    round(i);
  }

  row.rounds = kRounds;
  const io::IoStats s0 = io::GetStats();
  const uint64_t ctl0 = hostos::CallCount(hostos::Call::kEpollCtl);
  const uint64_t ew0 = hostos::CallCount(hostos::Call::kEpollWait);
  const int64_t t0 = NowNs();
  for (int r = 0; r < kRounds; ++r) {
    round(r % n);
  }
  const int64_t t1 = NowNs();
  const io::IoStats s1 = io::GetStats();
  const uint64_t waits = s1.waits - s0.waits;
  const uint64_t ctl = hostos::CallCount(hostos::Call::kEpollCtl) - ctl0;
  const uint64_t probes = hostos::CallCount(hostos::Call::kEpollWait) - ew0;

  row.elapsed_s = static_cast<double>(t1 - t0) / 1e9;
  row.waits_per_sec = row.elapsed_s > 0 ? static_cast<double>(waits) / row.elapsed_s : 0;
  row.ctl_per_wait = waits > 0 ? static_cast<double>(ctl) / static_cast<double>(waits) : 0;
  row.probes_per_wait =
      waits > 0 ? static_cast<double>(probes) / static_cast<double>(waits) : 0;
  row.ctl_free_fraction =
      waits > 0 ? static_cast<double>(s1.cache_hits - s0.cache_hits) /
                      static_cast<double>(waits)
                : 0;
  row.valid = true;

  for (int i = 0; i < n; ++i) {
    char q = 'q';
    pt_write(pipes[i][1], &q, 1);
  }
  for (int i = 0; i < n; ++i) {
    pt_join(threads[i], nullptr);
  }
  for (int i = 0; i < n; ++i) {
    ::close(pipes[i][0]);
    ::close(pipes[i][1]);
  }
  ::close(ack[0]);
  ::close(ack[1]);
  return row;
}

void Print(const Row& r) {
  if (!r.valid) {
    std::printf("| %5d |   (skipped)\n", r.n);
    return;
  }
  std::printf("| %5d | %6d | %12.0f | %10.4f | %10.2f | %8.1f%% |\n", r.n, r.rounds,
              r.waits_per_sec, r.ctl_per_wait, r.probes_per_wait, 100.0 * r.ctl_free_fraction);
}

void WriteJson(const char* path, const Row* rows, size_t nrows, double scaling,
               double ctl_free) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_io: cannot write %s\n", path);
    return;
  }
  std::fputs("{\"bench\":\"io_readiness\",\"rows\":[\n", f);
  bool first = true;
  for (size_t i = 0; i < nrows; ++i) {
    const Row& r = rows[i];
    if (!r.valid) {
      continue;
    }
    if (!first) {
      std::fputs(",\n", f);
    }
    first = false;
    std::fprintf(f,
                 "  {\"n\":%d,\"rounds\":%d,\"elapsed_s\":%.4f,"
                 "\"waits_per_sec\":%.1f,\"epoll_ctl_per_wait\":%.5f,"
                 "\"probe_syscalls_per_wait\":%.3f,\"ctl_free_wait_fraction\":%.4f}",
                 r.n, r.rounds, r.elapsed_s, r.waits_per_sec, r.ctl_per_wait,
                 r.probes_per_wait, r.ctl_free_fraction);
  }
  std::fprintf(f,
               "\n],\"epoll_scaling_8_to_4096\":%.4f,"
               "\"epoll_steady_state_ctl_free\":%.4f}\n",
               scaling, ctl_free);
  std::fclose(f);
}

}  // namespace
}  // namespace fsup

int main() {
  using namespace fsup;
  pt_init();

  constexpr size_t kNCounts = sizeof(kCounts) / sizeof(kCounts[0]);
  Row rows[kNCounts];

  std::printf("I/O readiness scaling — serial single-waiter wakes against N registered "
              "waiters\n");
  std::printf("|     N | rounds |    waits/sec | ctl/wait  | probe/wait |  ctl-free |\n");
  for (size_t i = 0; i < kNCounts; ++i) {
    rows[i] = RunOne(kCounts[i]);
    Print(rows[i]);
  }
  pt_reinit();

  // Acceptance summary: rate at 4096 registered waiters vs 8, and the fraction of
  // steady-state waits that made zero epoll_ctl calls.
  double wps8 = 0, wps4096 = 0, ctl_free = 0;
  int ctl_free_rows = 0;
  for (const Row& r : rows) {
    if (!r.valid) {
      continue;
    }
    if (r.n == 8) {
      wps8 = r.waits_per_sec;
    }
    if (r.n == 4096) {
      wps4096 = r.waits_per_sec;
    }
    ctl_free += r.ctl_free_fraction;
    ++ctl_free_rows;
  }
  const double scaling = wps8 > 0 ? wps4096 / wps8 : 0;
  if (ctl_free_rows > 0) {
    ctl_free /= ctl_free_rows;
  }
  std::printf("\n  epoll waits/sec ratio N=4096 vs N=8: %.2f (acceptance: >= 0.50)  -> %s\n",
              scaling, scaling >= 0.50 ? "PASS" : "FAIL");
  std::printf("  epoll steady-state ctl-free waits:   %.1f%% (acceptance: >= 90%%) -> %s\n",
              100.0 * ctl_free, ctl_free >= 0.90 ? "PASS" : "FAIL");

  const char* jp = std::getenv("FSUP_IO_JSON");
  WriteJson(jp != nullptr && jp[0] != '\0' ? jp : "BENCH_io.json", rows, kNCounts, scaling,
            ctl_free);
  return 0;
}
