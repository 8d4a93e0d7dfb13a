// echo: a stream echo server on fsup, one thread per connection doing pt_read/pt_write, and
// a forked single-threaded native client that holds 4 AF_UNIX stream connections with one
// request outstanding on each. Every request also takes an uncontended stats mutex, so the
// sync fast path runs here and its slow path does not. At shutdown the server cancels the
// connection threads while they are blocked in pt_read.
//
// An op is one echoed request. The seed sets message sizes (log-uniform 16 B - 4 KiB) and
// payload bytes; the client checks every echoed byte and times every request.
//
// The client is forked before the runtime starts and drives the phases: it writes a marker
// byte on the control pipe at every window and phase boundary, and the server's controller
// thread takes its counter snapshots when the marker arrives.
//
// Client and server are pinned to one CPU, and the client sleeps in poll(2) while it waits.
// Spread over two CPUs of a virtual machine, every request needs a wake-up across CPUs, and
// when the server's CPU has gone idle that wake-up waits for the hypervisor. How long
// depends on the host's load: with a spinning client on a CPU of its own, ten 30 s runs on
// a shared 4-vCPU machine gave 85k-171k requests/s, an interquartile range of 0.40 of the
// median (p50 latency steady at 18 us: the loss is in rare long stalls). Two later sets of
// ten with the pinned pair gave 0.10 and 0.16.

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstring>
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
using inputs::kConnections;

constexpr size_t kHeader = 4;
constexpr size_t kBufSize = 2 * (kHeader + inputs::kMaxMessage);

// Control bytes, client -> server.
constexpr char kMarkUntraced = 'A';  // the untraced phase's first window starts
constexpr char kMarkWindow = 'W';    // an untraced window ends
constexpr char kMarkTraced = 'B';    // the traced phase starts
constexpr char kMarkEnd = 'E';       // measuring is over; a ClientResult follows
// Start bytes, server -> client.
constexpr char kGo = 'G';
constexpr char kQuit = 'Q';

constexpr int kWindows = Options::kWindows;

// What the client reports back at the end of the run.
struct ClientResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Per untraced window, as the client saw it.
  uint64_t ops[kWindows] = {};
  double seconds[kWindows] = {};
  double p50_ns[kWindows] = {};
  double p95_ns[kWindows] = {};
};

uint32_t ReadLen(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

bool WriteAll(int fd, const void* p, size_t n) {
  const auto* b = static_cast<const uint8_t*>(p);
  while (n > 0) {
    const ssize_t w = ::write(fd, b, n);
    if (w < 0 && errno == EINTR) {
      continue;
    }
    if (w <= 0) {
      return false;
    }
    b += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

// ---- client (native process, no fsup) -----------------------------------------------------

struct Conn {
  int fd = -1;
  uint64_t next = 0;       // index of the next message in this connection's list
  uint64_t sent_ns = 0;
  const inputs::EchoMessage* msg = nullptr;  // outstanding request, or nullptr
  std::vector<uint8_t> rx;
  size_t have = 0;
};

class Client {
 public:
  Client(const inputs::EchoInputs& in, const int* fds, int ctrl_fd, const Options& o)
      : in_(in), ctrl_(ctrl_fd), o_(o) {
    for (int i = 0; i < kConnections; ++i) {
      conns_[i].fd = fds[i];
      conns_[i].rx.resize(kHeader + inputs::kMaxMessage);
    }
  }

  int Run() {
    const auto ns = [](double s) { return static_cast<uint64_t>(s * 1e9); };
    // The stages: warm-up, kWindows untraced windows, traced phase, draining.
    constexpr int kTracedStage = kWindows + 1;
    constexpr int kDraining = kWindows + 2;
    uint64_t stage_end[kWindows + 2];
    stage_end[0] = NowNs() + ns(o_.WarmupSeconds());
    for (int w = 1; w <= kWindows; ++w) {
      stage_end[w] = stage_end[w - 1] + ns(o_.WindowSeconds());
    }
    stage_end[kTracedStage] = stage_end[kWindows] + ns(o_.TracedSeconds());
    int stage = 0;
    for (int i = 0; i < kConnections; ++i) {
      if (!Send(conns_[i], i)) {
        return 1;
      }
    }
    int outstanding = kConnections;
    bool progress = true;
    while (outstanding > 0) {
      if (!progress && !WaitReadable()) {
        return 1;
      }
      progress = false;
      const uint64_t now = NowNs();
      while (stage < kDraining && now >= stage_end[stage]) {
        if (stage == 0) {
          Mark(kMarkUntraced);
        } else if (stage <= kWindows) {
          Mark(kMarkWindow);
          result_.seconds[stage - 1] = static_cast<double>(now - window_start_) * 1e-9;
        }
        window_start_ = now;
        ++stage;
        if (stage == kTracedStage) {
          if (o_.trace) {
            Mark(kMarkTraced);
          } else {
            ++stage;
          }
        }
      }
      for (int i = 0; i < kConnections; ++i) {
        Conn& c = conns_[i];
        if (c.msg == nullptr) {
          continue;
        }
        int done = Receive(c);
        if (done < 0) {
          return 1;
        }
        if (done == 0) {
          continue;
        }
        progress = true;
        const uint64_t lat = NowNs() - c.sent_ns;
        if (stage >= 1 && stage <= kWindows) {
          latency_[stage - 1].Add(lat);
          ++result_.ops[stage - 1];
        }
        c.msg = nullptr;
        if (stage == kDraining) {
          --outstanding;
        } else if (!Send(c, i)) {
          return 1;
        }
      }
    }
    for (int w = 0; w < kWindows; ++w) {
      result_.p50_ns[w] = latency_[w].Quantile(0.50);
      result_.p95_ns[w] = latency_[w].Quantile(0.95);
    }
    Mark(kMarkEnd);
    return WriteAll(ctrl_, &result_, sizeof(result_)) ? 0 : 1;
  }

 private:
  bool Send(Conn& c, int conn) {
    c.msg = &in_.At(conn, c.next++);
    uint8_t frame[kHeader + inputs::kMaxMessage];
    std::memcpy(frame, &c.msg->len, kHeader);
    std::memcpy(frame + kHeader, &in_.pool[c.msg->offset], c.msg->len);
    c.have = 0;
    c.sent_ns = NowNs();
    ++result_.attempted;
    return WriteAll(c.fd, frame, kHeader + c.msg->len);
  }

  // 1 once the whole echo of the outstanding request is in and checked, 0 if more is to come,
  // -1 on a broken connection.
  int Receive(Conn& c) {
    const size_t want = kHeader + c.msg->len;
    const ssize_t r = ::recv(c.fd, c.rx.data() + c.have, want - c.have, MSG_DONTWAIT);
    if (r < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      return 0;
    }
    if (r <= 0) {
      return -1;
    }
    c.have += static_cast<size_t>(r);
    if (c.have < want) {
      return 0;
    }
    const bool ok = ReadLen(c.rx.data()) == c.msg->len &&
                    std::memcmp(c.rx.data() + kHeader, &in_.pool[c.msg->offset],
                                c.msg->len) == 0;
    result_.failed += !ok;
    return 1;
  }

  // Sleeps until a connection with a request outstanding has bytes to read (or 100 ms
  // passed); false on a poll(2) error.
  bool WaitReadable() {
    pollfd fds[kConnections];
    nfds_t n = 0;
    for (const Conn& c : conns_) {
      if (c.msg != nullptr) {
        fds[n++] = {c.fd, POLLIN, 0};
      }
    }
    return ::poll(fds, n, 100) >= 0 || errno == EINTR;
  }

  void Mark(char m) { WriteAll(ctrl_, &m, 1); }

  const inputs::EchoInputs& in_;
  int ctrl_;
  const Options& o_;
  Conn conns_[kConnections];
  Histogram latency_[kWindows];
  uint64_t window_start_ = 0;
  ClientResult result_;
};

int ClientMain(const inputs::EchoInputs& in, const int* fds, int ctrl_fd, int go_fd,
               const Options& o) {
  char go = 0;
  while (::read(go_fd, &go, 1) < 0 && errno == EINTR) {
  }
  int rc = 0;
  if (go == kGo) {
    Client client(in, fds, ctrl_fd, o);
    rc = client.Run();
  }
  // Keep the connections open until the server has cancelled its connection threads and
  // closes the start pipe, so those threads are still blocked in pt_read when cancelled.
  char eof;
  while (::read(go_fd, &eof, 1) < 0 && errno == EINTR) {
  }
  return rc;
}

// ---- server (fsup) ------------------------------------------------------------------------

struct Server {
  pt_mutex_t stats_m;
  uint64_t requests = 0;  // guarded by stats_m
  uint64_t bytes = 0;     // guarded by stats_m
  uint64_t traced_ops = 0;
  uint32_t next_op = 0;
  bool framing_error = false;
};

Server* g;

struct ConnArg {
  int fd;
};

void* ConnBody(void* p) {
  const auto* a = static_cast<ConnArg*>(p);
  Ctx c;
  uint8_t buf[kBufSize];
  size_t have = 0;
  for (;;) {
    OpScope op(c, ++g->next_op);
    // Read until one whole frame is buffered.
    while (have < kHeader || have < kHeader + ReadLen(buf)) {
      long n;
      {
        Span s(c, Name::kRead);
        n = pt_read(a->fd, buf + have, sizeof(buf) - have);
      }
      if (n < 0 && errno == EINTR) {
        ++g_app.eintr;
        continue;
      }
      if (n <= 0) {
        return nullptr;
      }
      have += static_cast<size_t>(n);
      if (have >= kHeader && ReadLen(buf) > inputs::kMaxMessage) {
        g->framing_error = true;
        return nullptr;
      }
    }
    const size_t frame = kHeader + ReadLen(buf);
    {
      Span s(c, Name::kFastPair);
      pt_mutex_lock(&g->stats_m);
      ++g->requests;
      g->bytes += frame - kHeader;
      pt_mutex_unlock(&g->stats_m);
    }
    if (tracer::g_on) {
      ++g->traced_ops;
    }
    size_t off = 0;
    while (off < frame) {
      long n;
      {
        Span s(c, Name::kWrite);
        n = pt_write(a->fd, buf + off, frame - off);
      }
      if (n < 0 && errno == EINTR) {
        ++g_app.eintr;
        continue;
      }
      if (n <= 0) {
        return nullptr;
      }
      off += static_cast<size_t>(n);
    }
    std::memmove(buf, buf + frame, have - frame);
    have -= frame;
  }
}

// Reads exactly n bytes from the control pipe (the controller thread blocks, the connection
// threads run).
bool ReadCtrl(int fd, void* p, size_t n) {
  auto* b = static_cast<uint8_t*>(p);
  while (n > 0) {
    const long r = pt_read(fd, b, n);
    if (r < 0 && errno == EINTR) {
      continue;
    }
    if (r <= 0) {
      return false;
    }
    b += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

}  // namespace

int RunEcho(const Options& o) {
  const uint64_t input_start_ns = NowNs();
  const inputs::EchoInputs in = inputs::MakeEcho(o.seed);
  const uint64_t input_ns = NowNs() - input_start_ns;
  int server_fds[kConnections];
  int client_fds[kConnections];
  for (int i = 0; i < kConnections; ++i) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
      std::perror("socketpair");
      return 3;
    }
    server_fds[i] = sv[0];
    client_fds[i] = sv[1];
  }
  int ctrl[2];  // client -> server
  int go[2];    // server -> client
  if (::pipe2(ctrl, O_CLOEXEC) != 0 || ::pipe2(go, O_CLOEXEC) != 0) {
    std::perror("pipe");
    return 3;
  }
  // Pinned before the fork, so the client inherits the CPU (see the top of this file).
  cpu_set_t cpu;
  CPU_ZERO(&cpu);
  CPU_SET(::sched_getcpu(), &cpu);
  if (::sched_setaffinity(0, sizeof(cpu), &cpu) != 0) {
    std::perror("sched_setaffinity");
    return 3;
  }
  // Forked before the runtime starts, so the client is a plain single-threaded process.
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return 3;
  }
  if (pid == 0) {
    for (int fd : server_fds) {
      ::close(fd);
    }
    ::close(ctrl[0]);
    ::close(go[1]);
    ::_exit(ClientMain(in, client_fds, ctrl[1], go[0], o));
  }
  for (int fd : client_fds) {
    ::close(fd);
  }
  ::close(ctrl[1]);
  ::close(go[0]);

  pt_init();
  auto server = std::make_unique<Server>();
  g = server.get();
  pt_mutex_init(&g->stats_m);
  std::unique_ptr<TracedLatencies> lat;
  if (o.trace) {
    tracer::Allocate(kSpanCapacity);
    lat = std::make_unique<TracedLatencies>();
    g_lat = lat.get();
  }
  Report report("echo");
  pt_thread_t threads[kConnections];
  ConnArg args[kConnections];
  for (int i = 0; i < kConnections; ++i) {
    args[i] = {server_fds[i]};
    report.Check(pt_create(&threads[i], nullptr, &ConnBody, &args[i]) == 0, "create conn");
  }
  pt_yield();  // every connection thread blocks in its first pt_read
  pt_setprio(pt_self(), kMaxPrio);
  const uint64_t ready_ns = NowNs();

  const char start = o.setup_only ? kQuit : kGo;
  report.Check(WriteAll(go[1], &start, 1), "start client");
  std::vector<Mark> marks;  // untraced window boundaries
  Mark t0, t1;              // traced phase
  ClientResult cr;
  if (!o.setup_only) {
    auto expect = [&](char want) {
      char mark = 0;
      return ReadCtrl(ctrl[0], &mark, 1) && mark == want;
    };
    bool ok = expect(kMarkUntraced);
    marks.push_back(Mark::Take(g->requests));
    for (int w = 0; ok && w < kWindows; ++w) {
      ok = expect(kMarkWindow);
      marks.push_back(Mark::Take(g->requests));
    }
    if (ok && o.trace) {
      ok = expect(kMarkTraced);
      t0 = Mark::Take(g->requests);
      tracer::Start();
      ok = ok && expect(kMarkEnd);
      tracer::Stop();
      t1 = Mark::Take(g->requests);
    } else {
      ok = ok && expect(kMarkEnd);
    }
    ok = ok && ReadCtrl(ctrl[0], &cr, sizeof(cr));
    report.Check(ok, "client protocol");
  }

  // Shutdown: every connection thread is blocked in pt_read; cancel it there.
  for (auto& t : threads) {
    void* ret = nullptr;
    report.Check(pt_cancel(t) == 0, "cancel conn");
    report.Check(pt_join(t, &ret) == 0 && ret == kCanceled, "conn thread cancelled in read");
  }
  for (int fd : server_fds) {
    ::close(fd);
  }
  int status = 0;
  ::close(go[1]);
  report.Check(::waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                   WEXITSTATUS(status) == 0,
               "client exit");
  ::close(ctrl[0]);
  report.Check(!g->framing_error, "framing");

  if (o.setup_only) {
    PrintReady(ready_ns, input_ns);
    return 0;
  }
  report.SetReady(ready_ns, input_ns);
  report.AddAttempts(cr.attempted, cr.failed);
  if (marks.size() != kWindows + 1) {  // client protocol broken: no metrics
    report.Print();
    return 0;
  }
  if (!o.trace) {
    // Throughput and latency as the client saw them, CPU per op as the server spent it.
    std::vector<WindowFigures> windows;
    for (int w = 0; w < kWindows; ++w) {
      const Phase p(marks[w], marks[w + 1]);
      WindowFigures f;
      f.throughput = cr.seconds[w] > 0 ? static_cast<double>(cr.ops[w]) / cr.seconds[w] : 0;
      f.p50_ns = cr.p50_ns[w];
      f.p95_ns = cr.p95_ns[w];
      f.samples = cr.ops[w];
      f.cpu_us_per_op = p.delta.PerOp(p.delta.cpu_s() * 1e6);
      windows.push_back(f);
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
