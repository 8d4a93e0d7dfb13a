#include "src/hostos/unix_if.hpp"

#include <fcntl.h>
#include <sys/auxv.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstdlib>

#include "src/debug/replay.hpp"
#include "src/hostos/fault.hpp"
#include "src/util/assert.hpp"

namespace fsup::hostos {
namespace {

uint64_t g_counts[static_cast<int>(Call::kCount)] = {};
int g_last_poll_timeout_ms = 0;
size_t g_stack_commit = 0;  // FSUP_STACK_COMMIT; 0 = default, resolved when PageSize is known

void Bump(Call c) { ++g_counts[static_cast<int>(c)]; }

// Cap on EINTR retries per wrapper invocation: keeps an every-invocation injection rule (or a
// pathological host) from spinning forever while still absorbing any realistic interrupt storm.
constexpr int kMaxEintrRetries = 64;

// Shared shape of the retrying wrappers: count once per semantic call, then loop — an injected
// EINTR takes the same retry edge as a real one (exercising exactly the path the injector is
// meant to test), any other injected errno surfaces, and raw EINTR retries the raw call.
template <typename RawFn>
int CountedRetryingCall(Call c, RawFn raw) {
  Bump(c);
  for (int attempt = 0;; ++attempt) {
    const int injected = fault::ShouldFail(c);
    if (injected != 0) {
      if (injected == EINTR && attempt < kMaxEintrRetries) {
        continue;
      }
      errno = injected;
      return -1;
    }
    const int rc = raw();
    if (rc != 0 && errno == EINTR && attempt < kMaxEintrRetries) {
      continue;
    }
    return rc;
  }
}

}  // namespace

uint64_t CallCount(Call c) { return g_counts[static_cast<int>(c)]; }

uint64_t TotalCallCount() {
  uint64_t total = 0;
  for (uint64_t n : g_counts) {
    total += n;
  }
  return total;
}

void ResetCallCounts() {
  for (uint64_t& n : g_counts) {
    n = 0;
  }
}

int Sigaction(int signo, const struct sigaction* act, struct sigaction* old) {
  return CountedRetryingCall(Call::kSigaction,
                             [&] { return ::sigaction(signo, act, old); });
}

int Sigprocmask(int how, const sigset_t* set, sigset_t* old) {
  return CountedRetryingCall(Call::kSigprocmask,
                             [&] { return ::sigprocmask(how, set, old); });
}

int Setitimer(int which, const itimerval* value, itimerval* old) {
  // A replayed run takes every tick from the schedule log; arming the physical interval timer
  // would only race a spurious SIGALRM against it. The fault hook still runs — the recorded
  // run may have had faults injected here, and those decisions must be consumed at the same
  // index — but the raw syscall is skipped. Leaving replay re-arms from the live timer heap
  // (StopReplay / log exhaustion).
  if (debug::replay::Replaying()) {
    Bump(Call::kSetitimer);
    for (int attempt = 0;; ++attempt) {
      const int injected = fault::ShouldFail(Call::kSetitimer);
      if (injected == 0) {
        return 0;
      }
      if (injected != EINTR || attempt >= kMaxEintrRetries) {
        errno = injected;
        return -1;
      }
    }
  }
  return CountedRetryingCall(Call::kSetitimer,
                             [&] { return ::setitimer(which, value, old); });
}

int SigaltStack(const stack_t* ss, stack_t* old) {
  return CountedRetryingCall(Call::kSigaltstack,
                             [&] { return ::sigaltstack(ss, old); });
}

int Kill(pid_t pid, int signo) {
  return CountedRetryingCall(Call::kKill, [&] { return ::kill(pid, signo); });
}

int Poll(struct pollfd* fds, nfds_t n, int timeout_ms) {
  Bump(Call::kPoll);
  g_last_poll_timeout_ms = timeout_ms;
  const int injected = fault::ShouldFail(Call::kPoll);
  if (injected != 0) {
    errno = injected;
    return -1;
  }
  return ::poll(fds, n, timeout_ms);
}

int EpollCreate() {
  Bump(Call::kEpollCreate);
  const int injected = fault::ShouldFail(Call::kEpollCreate);
  if (injected != 0) {
    errno = injected;
    return -1;
  }
  return ::epoll_create1(EPOLL_CLOEXEC);
}

int EpollCtl(int epfd, int op, int fd, struct epoll_event* ev) {
  Bump(Call::kEpollCtl);
  const int injected = fault::ShouldFail(Call::kEpollCtl);
  if (injected != 0) {
    errno = injected;
    return -1;
  }
  return ::epoll_ctl(epfd, op, fd, ev);
}

int EpollPwait2(int epfd, struct epoll_event* events, int maxevents, int64_t timeout_ns) {
  Bump(Call::kEpollWait);
  const int injected = fault::ShouldFail(Call::kEpollWait);
  if (injected != 0) {
    errno = injected;
    return -1;
  }
  // Host support for epoll_pwait2 is probed on first use and remembered: a kernel without it
  // answers ENOSYS forever, so every later sleep goes straight to the ms fallback.
  static bool pwait2_works = true;
  if (pwait2_works) {
    timespec ts;
    timespec* tsp = nullptr;
    if (timeout_ns >= 0) {
      ts.tv_sec = timeout_ns / 1000000000;
      ts.tv_nsec = timeout_ns % 1000000000;
      tsp = &ts;
    }
    const int rc = ::epoll_pwait2(epfd, events, maxevents, tsp, nullptr);
    if (rc >= 0 || errno != ENOSYS) {
      return rc;
    }
    pwait2_works = false;
  }
  const int timeout_ms = timeout_ns < 0 ? -1 : ClampedPollTimeoutMs(timeout_ns);
  g_last_poll_timeout_ms = timeout_ms;
  return ::epoll_wait(epfd, events, maxevents, timeout_ms);
}

int LastPollTimeoutMs() { return g_last_poll_timeout_ms; }

int ClampedPollTimeoutMs(int64_t remaining_ns) {
  if (remaining_ns <= 0) {
    return 0;
  }
  // Round up without forming remaining_ns + 999999, which overflows for an INT64_MAX budget.
  const int64_t ms = remaining_ns / 1000000 + (remaining_ns % 1000000 != 0 ? 1 : 0);
  return ms > INT_MAX ? INT_MAX : static_cast<int>(ms);
}

void* ShmMapStats(const char* path, size_t size) {
  Bump(Call::kShmMap);
  if (const int injected = fault::ShouldFail(Call::kShmMap); injected != 0) {
    errno = injected;
    return nullptr;
  }
  const int fd = ::open(path, O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return nullptr;
  }
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return nullptr;
  }
  void* addr = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  return addr == MAP_FAILED ? nullptr : addr;
}

void ShmUnmapStats(void* addr, size_t size) { ::munmap(addr, size); }

size_t PageSize() {
  static const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

size_t StackInitialCommit() {
  const size_t page = PageSize();
  // Default four pages: enough that a thread parked anywhere in its first page can still
  // take a kernel-pushed signal frame (~3.5 KiB with AVX-512 xsave) without crossing into
  // the PROT_NONE tail. RW-but-untouched pages cost no RSS, so a generous default is free.
  size_t commit = g_stack_commit == 0 ? 4 * page : g_stack_commit;
  return (commit + page - 1) & ~(page - 1);
}

void RefreshStackConfig() {
  g_stack_commit = 0;
  if (const char* commit = ::getenv("FSUP_STACK_COMMIT"); commit != nullptr) {
    char* end = nullptr;
    const unsigned long long v = ::strtoull(commit, &end, 10);
    if (end != commit && v > 0) {
      g_stack_commit = static_cast<size_t>(v);
    }
  }
}

void* MapStack(size_t usable_size, size_t* mapped_size_out) {
  const size_t page = PageSize();
  const size_t usable = (usable_size + page - 1) & ~(page - 1);
  const size_t total = usable + page;  // one guard page at the low end

  Bump(Call::kMmap);
  if (const int injected = fault::ShouldFail(Call::kMmap); injected != 0) {
    errno = injected;
    return nullptr;
  }
  // Reserve the whole range inaccessible (the guard page needs no extra protect) and spend
  // the one counted mprotect on committing the top chunk.
  void* base = ::mmap(nullptr, total, PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK | MAP_NORESERVE, -1, 0);
  if (base == MAP_FAILED) {
    return nullptr;
  }
  Bump(Call::kMprotect);
  if (const int injected = fault::ShouldFail(Call::kMprotect); injected != 0) {
    // Simulated protect failure: release the fresh mapping, exactly as the real path does.
    Bump(Call::kMunmap);
    ::munmap(base, total);
    errno = injected;
    return nullptr;
  }
  char* usable_base = static_cast<char*>(base) + page;
  size_t commit = StackInitialCommit();
  if (commit > usable) {
    commit = usable;
  }
  if (::mprotect(usable_base + usable - commit, commit, PROT_READ | PROT_WRITE) != 0) {
    Bump(Call::kMunmap);
    ::munmap(base, total);
    return nullptr;
  }
  if (mapped_size_out != nullptr) {
    *mapped_size_out = usable;
  }
  return usable_base;
}

bool CommitStackRange(void* usable_base, size_t mapped_size, const void* fault_addr) {
  char* lo = static_cast<char*>(usable_base);
  const char* f = static_cast<const char*>(fault_addr);
  if (f < lo || f >= lo + mapped_size) {
    return false;
  }
  // Commit the whole remaining reservation in one call, not a window around the fault. RW
  // pages cost RSS only when touched, so this is free memory-wise — and it is the only way
  // to keep UNIX signal delivery safe: the host kernel pushes the signal frame at the
  // interrupted SP itself, and a frame straddling a still-PROT_NONE page is force-converted
  // into SIGSEGV with the original signal lost. One commit per stack removes that band below
  // the watermark for the rest of the thread's life.
  return ::mprotect(lo, mapped_size, PROT_READ | PROT_WRITE) == 0;
}

size_t SignalFrameHeadroom() {
  // The host kernel's own advisory for the stack space an rt_sigframe needs (AT_MINSIGSTKSZ
  // covers the full xsave area — AVX-512 hosts report ~12 KiB where the classic constant
  // says 2 KiB). Used to decide when a thread running near its commit watermark must be
  // fully committed before it may be resumed.
  static const size_t headroom = [] {
    const unsigned long v = ::getauxval(AT_MINSIGSTKSZ);
    const size_t floor = 2 * PageSize();
    return v > floor ? static_cast<size_t>(v) : floor;
  }();
  return headroom;
}

void UnmapStack(void* usable_base, size_t mapped_size) {
  const size_t page = PageSize();
  Bump(Call::kMunmap);
  if (fault::ShouldFail(Call::kMunmap) != 0) {
    return;  // simulated munmap failure: the mapping leaks, callers must tolerate it
  }
  ::munmap(static_cast<char*>(usable_base) - page, mapped_size + page);
}

bool InGuardPage(const void* addr, const void* usable_base) {
  const char* guard_lo = static_cast<const char*>(usable_base) - PageSize();
  const char* p = static_cast<const char*>(addr);
  return p >= guard_lo && p < static_cast<const char*>(usable_base);
}

int RawGetpid() { return static_cast<int>(::syscall(SYS_getpid)); }

int RawGettid() { return static_cast<int>(::syscall(SYS_gettid)); }

}  // namespace fsup::hostos
