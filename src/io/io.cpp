#include "src/io/io.hpp"

#include <poll.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <new>

#include "src/cancel/cancel.hpp"
#include "src/debug/probe.hpp"
#include "src/debug/replay.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/kernel/kernel.hpp"
#include "src/signals/sigmodel.hpp"
#include "src/util/assert.hpp"
#include "src/util/dual_loop_timer.hpp"
#include "src/util/intrusive_list.hpp"

namespace fsup::io {
namespace {

// Power of two; fd-keyed registries are small (the node count tracks *waited* fds, not open
// ones), so collisions just lengthen a short chain.
constexpr uint32_t kHashBuckets = 128;
constexpr int kMaxEventsPerWait = 64;

// One node per fd that currently has (or recently had) waiters. The node IS the interest
// cache: `interest` mirrors what the kernel's interest set holds for this fd, so a wait whose
// mask fits inside it makes no epoll_ctl call at all. Waiting threads hang off `waiters`
// through Tcb::link (a thread blocks on at most one wait queue), which lifts the seed's
// 64-waiter cap and makes enqueue/dequeue/ForgetThread O(1).
struct FdState {
  int fd = -1;
  uint32_t interest = 0;    // epoll event mask the kernel currently watches for us
  bool registered = false;  // fd is present in the kernel's epoll interest set
  uint32_t waiter_count = 0;
  IntrusiveList<Tcb, &Tcb::link> waiters;
  FdState* next = nullptr;  // hash chain / freelist link
};

int g_epfd = -1;
FdState* g_buckets[kHashBuckets] = {};
FdState* g_free = nullptr;  // recycled nodes; allocation happens only on first use of an fd
int g_active = 0;           // threads suspended on some fd
int g_cached = 0;           // live FdState nodes (== interest-cache entries)
IoStats g_stats;

uint32_t BucketOf(int fd) {
  return (static_cast<uint32_t>(fd) * 2654435761u) >> 25;  // top 7 bits: 128 buckets
}

uint32_t ToEpollMask(short events) {
  uint32_t m = 0;
  if ((events & POLLIN) != 0) {
    m |= EPOLLIN;
  }
  if ((events & POLLOUT) != 0) {
    m |= EPOLLOUT;
  }
  if ((events & POLLPRI) != 0) {
    m |= EPOLLPRI;
  }
  return m;
}

// The epoll instance is created by the first fd wait, so a process that never waits on an fd
// never owns one. A failed creation fails only the wait that hit it; the next wait retries.
bool EnsureEpoll() {
  if (g_epfd < 0) {
    g_epfd = hostos::EpollCreate();
  }
  return g_epfd >= 0;
}

FdState* Find(int fd) {
  for (FdState* s = g_buckets[BucketOf(fd)]; s != nullptr; s = s->next) {
    if (s->fd == fd) {
      return s;
    }
  }
  return nullptr;
}

FdState* GetOrCreate(int fd) {
  if (FdState* s = Find(fd)) {
    return s;
  }
  FdState** bucket = &g_buckets[BucketOf(fd)];
  FdState* s = g_free;
  if (s != nullptr) {
    g_free = s->next;
  } else {
    s = new (std::nothrow) FdState();
    if (s == nullptr) {
      return nullptr;
    }
  }
  s->fd = fd;
  s->interest = 0;
  s->registered = false;
  s->waiter_count = 0;
  s->next = *bucket;
  *bucket = s;
  ++g_cached;
  return s;
}

void FreeFdState(FdState* s) {
  FSUP_ASSERT(s->waiter_count == 0);
  FdState** at = &g_buckets[BucketOf(s->fd)];
  while (*at != s) {
    at = &(*at)->next;
  }
  *at = s->next;
  s->fd = -1;
  s->next = g_free;
  g_free = s;
  --g_cached;
}

// Frees a node that holds neither waiters nor a kernel registration. A *registered* empty
// node is deliberately kept: it is the interest cache that lets the next wait on this fd skip
// epoll_ctl entirely.
void MaybeReclaim(FdState* s) {
  if (s->waiter_count == 0 && !s->registered) {
    FreeFdState(s);
  }
}

// Makes the kernel's interest set cover `mask` for s->fd. The common case — fd already
// registered with a superset — is a pure cache hit: zero syscalls. The ctl is self-healing
// against close/reopen races the cache cannot see: the kernel auto-removes a closed fd, so a
// MOD can answer ENOENT (retry as ADD) and an ADD can answer EEXIST (retry as MOD).
int EnsureInterest(FdState* s, uint32_t mask) {
  if (s->registered && (s->interest & mask) == mask) {
    ++g_stats.cache_hits;
    return 0;
  }
  ++g_stats.cache_misses;
  const uint32_t want = s->interest | mask;
  epoll_event ev{};
  ev.events = want;
  ev.data.ptr = s;
  int rc = hostos::EpollCtl(g_epfd, s->registered ? EPOLL_CTL_MOD : EPOLL_CTL_ADD, s->fd, &ev);
  if (rc != 0 && errno == ENOENT) {
    rc = hostos::EpollCtl(g_epfd, EPOLL_CTL_ADD, s->fd, &ev);
  } else if (rc != 0 && errno == EEXIST) {
    rc = hostos::EpollCtl(g_epfd, EPOLL_CTL_MOD, s->fd, &ev);
  }
  if (rc != 0) {
    return -1;
  }
  s->registered = true;
  s->interest = want;
  return 0;
}

void DetachWaiter(FdState* s, Tcb* t) {
  t->link.Unlink();
  FSUP_ASSERT(s->waiter_count > 0);
  --s->waiter_count;
  --g_active;
  t->io_wait_node = nullptr;
}

// Readies t as io-ready: its pt_read/pt_write retries the operation.
void WakeWaiter(FdState* s, Tcb* t) {
  DetachWaiter(s, t);
  t->io_ready = true;
  kernel::MakeReady(t);
  ++g_stats.wakeups;
}

// Wakes every waiter on s whose mask intersects the reported readiness (error-class events
// wake all, as poll(2) reports POLLERR/POLLHUP regardless of the requested mask).
int WakeMatching(FdState* s, uint32_t revents) {
  int woke = 0;
  s->waiters.ForEachSafe([&](Tcb* t) {
    if ((revents & (EPOLLERR | EPOLLHUP)) != 0 ||
        (revents & ToEpollMask(t->io_events)) != 0) {
      debug::replay::OnIoWake(t->id, revents);
      WakeWaiter(s, t);
      ++woke;
    }
  });
  return woke;
}

// A level-triggered readiness report that woke nobody would repeat on every idle pass and
// busy-spin the process. Narrow the kernel-side interest to what the remaining waiters
// actually want (none → drop error-only fds from the set entirely). This runs only on the
// zero-wake path, so the steady state — waits served from the cache, wakes consuming the
// readiness — still makes no epoll_ctl calls.
void DemoteStale(FdState* s, uint32_t revents) {
  ++g_stats.demotions;
  uint32_t want = 0;
  for (Tcb* t : s->waiters) {
    want |= ToEpollMask(t->io_events);
  }
  if (want == 0 && (revents & (EPOLLERR | EPOLLHUP)) != 0) {
    // ERR/HUP cannot be masked away; with no waiters left, deregister and forget the fd.
    hostos::EpollCtl(g_epfd, EPOLL_CTL_DEL, s->fd, nullptr);
    s->registered = false;
    s->interest = 0;
    MaybeReclaim(s);
    return;
  }
  epoll_event ev{};
  ev.events = want;
  ev.data.ptr = s;
  if (hostos::EpollCtl(g_epfd, EPOLL_CTL_MOD, s->fd, &ev) == 0) {
    s->interest = want;
  } else if (errno == ENOENT) {
    s->registered = false;  // the kernel already dropped it (fd closed)
    s->interest = 0;
    MaybeReclaim(s);
  }
}

// Shared EINTR policy, identical to the seed: an interrupt that carries a deferred signal or a
// pending dispatch must return to the idle loop for replay; a bare one (stray or injected)
// retries with the remaining budget. Returns true if the caller should keep sleeping.
bool RetryAfterEintr(int64_t deadline_ns) {
  KernelState& k = kernel::ks();
  const bool meaningful = k.sigs_caught_in_kernel.load(std::memory_order_relaxed) != 0 ||
                          k.dispatch_pending != 0;
  if (errno != EINTR || meaningful) {
    return false;
  }
  return deadline_ns < 0 || NowNs() < deadline_ns;
}

int EpollPass(int64_t deadline_ns) {
  epoll_event evs[kMaxEventsPerWait];
  int rc;
  for (;;) {
    int64_t budget_ns = -1;
    if (deadline_ns >= 0) {
      const int64_t remaining = deadline_ns - NowNs();
      budget_ns = remaining > 0 ? remaining : 0;
    }
    // Signals are unblocked here (the idle loop ensures it); they interrupt the sleep and are
    // replayed by the dispatcher since the kernel flag is set. Without an epoll instance no
    // thread waits on an fd, so the sleep waits for timers and signals alone.
    if (g_epfd >= 0) {
      rc = hostos::EpollPwait2(g_epfd, evs, kMaxEventsPerWait, budget_ns);
    } else {
      rc = hostos::Poll(nullptr, 0, budget_ns < 0 ? -1 : hostos::ClampedPollTimeoutMs(budget_ns));
    }
    if (rc >= 0) {
      break;
    }
    if (!RetryAfterEintr(deadline_ns)) {
      return 0;
    }
  }
  // O(ready) dispatch: only fds the kernel reported are touched, however many are registered.
  int woke = 0;
  for (int i = 0; i < rc; ++i) {
    FdState* s = static_cast<FdState*>(evs[i].data.ptr);
    const int w = WakeMatching(s, evs[i].events);
    if (w == 0) {
      DemoteStale(s, evs[i].events);
    }
    woke += w;
  }
  return woke;
}

}  // namespace

IoStats GetStats() {
  IoStats out = g_stats;
  out.active_waiters = g_active;
  out.cached_fds = g_cached;
  return out;
}

bool HaveWaiters() { return g_active > 0; }

void PollOnce(int64_t timeout_ns) {
  FSUP_ASSERT(kernel::InKernel());
  debug::probe::Emit(debug::probe::Event::kIdlePoll, nullptr);
  ++g_stats.probes;
  if (debug::replay::Replaying()) {
    // The pass is virtualized: no syscall runs; the log supplies the wakeups (and any fault
    // the recorded pass absorbed).
    debug::replay::ReplayIdleIo();
    return;
  }
  const int64_t deadline_ns = timeout_ns < 0 ? -1 : NowNs() + timeout_ns;
  debug::replay::OnIoDone(static_cast<uint32_t>(EpollPass(deadline_ns)));
}

int WaitFdReady(int fd, short events) {
  kernel::EnsureInit();
  Tcb* self = kernel::Current();
  kernel::Enter();
  cancel::TestIntrInKernel();  // I/O waits are interruption points
  ++g_stats.waits;

  // No epoll instance (creation failed; the next wait retries) or no memory for the node.
  FdState* s = EnsureEpoll() ? GetOrCreate(fd) : nullptr;
  if (s == nullptr) {
    kernel::Exit();
    errno = EAGAIN;
    return -1;
  }
  if (EnsureInterest(s, ToEpollMask(events)) != 0) {
    const int err = errno;
    MaybeReclaim(s);
    kernel::Exit();
    if (err == EPERM) {
      // Unpollable fd (regular file, …): poll(2) reports such fds as always ready, so the
      // caller's read/write proceeds instead of blocking forever.
      return 0;
    }
    errno = EAGAIN;
    return -1;
  }

  self->io_events = events;
  self->io_ready = false;
  self->io_wait_node = s;
  s->waiters.PushBack(self);
  ++s->waiter_count;
  ++g_active;

  kernel::Suspend(BlockReason::kIo);

  if (self->io_wait_node != nullptr) {
    // Woken by something that bypassed both the poller and ForgetThread: drop the entry.
    FSUP_ASSERT(self->io_wait_node == s);
    DetachWaiter(s, self);
    MaybeReclaim(s);
  }
  const bool ready = self->io_ready;
  cancel::TestIntrInKernel();
  kernel::Exit();

  if (!ready) {
    errno = EINTR;
    return -1;
  }
  return 0;
}

int CloseFd(int fd) {
  kernel::EnsureInit();
  kernel::Enter();
  if (FdState* s = Find(fd)) {
    if (s->registered) {
      hostos::EpollCtl(g_epfd, EPOLL_CTL_DEL, fd, nullptr);
    }
    s->waiters.ForEachSafe([&](Tcb* t) { WakeWaiter(s, t); });
    FreeFdState(s);
  }
  // Closed inside the monitor: no woken waiter can run, retry on the still-open fd and
  // re-register it before the close.
  const int rc = ::close(fd);
  const int err = errno;
  kernel::Exit();
  errno = err;
  return rc;
}

void ForgetThread(Tcb* t) {
  FdState* s = static_cast<FdState*>(t->io_wait_node);
  if (s == nullptr) {
    return;
  }
  DetachWaiter(s, t);
  MaybeReclaim(s);
}

void ReplayWake(Tcb* t) {
  FdState* s = static_cast<FdState*>(t->io_wait_node);
  FSUP_CHECK_MSG(s != nullptr, "replayed io wake for a thread not blocked on an fd");
  WakeWaiter(s, t);
  MaybeReclaim(s);  // no-op while the node is registered (it stays as the interest cache)
}

void ResetForTesting() {
  for (FdState*& bucket : g_buckets) {
    FdState* s = bucket;
    while (s != nullptr) {
      FdState* next = s->next;
      s->waiters.ForEachSafe([&](Tcb* t) {
        t->link.Unlink();
        t->io_wait_node = nullptr;
      });
      delete s;
      s = next;
    }
    bucket = nullptr;
  }
  FdState* f = g_free;
  while (f != nullptr) {
    FdState* next = f->next;
    delete f;
    f = next;
  }
  g_free = nullptr;
  if (g_epfd >= 0) {
    ::close(g_epfd);
    g_epfd = -1;
  }
  g_active = 0;
  g_cached = 0;
  g_stats = IoStats{};
}

}  // namespace fsup::io
