// Regression pins for the satellite fixes that rode along with the epoll readiness core:
//
//   1. Millisecond sleep timeouts are clamped to INT_MAX ms: a multi-week deadline used to
//      overflow the static_cast<int> (3.6e9 ms → a negative int → an *infinite* poll where a
//      bounded one was asked for). A failed epoll_create fails only the wait that hit it, and
//      the idle loop then sleeps in a zero-fd poll(2) with that clamped timeout.
//   2. Cancelling the head deadline disarms/reprograms ITIMER_REAL: a create/cancel storm
//      used to leave the interval timer programmed and fire stale SIGALRM ticks.
//   3. sig::ExternalWakeupPossible runs on counters: handler-install churn and sigwait wake
//      (and cancellation) cycles must leave the counters balanced, or deadlock detection
//      either misfires or goes blind.
//   4. An fd number reused after pt_close gets a fresh interest registration: with a plain
//      close(2) the cached node still read "registered", the wait on the new file made no
//      epoll_ctl call, and it never woke.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <thread>

#include "src/core/pthread.hpp"
#include "src/hostos/fault.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/io/io.hpp"

namespace fsup {
namespace {

class IoRegressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    pt_reinit();
  }
};

TEST_F(IoRegressTest, PollTimeoutClampsInsteadOfOverflowing) {
  // A six-week deadline: 3.63e15 ns ≈ 3.63e9 ms, which does not fit in int. The seed's
  // static_cast<int> produced a negative value — poll(2) treats that as "block forever".
  const int64_t six_weeks_ns = int64_t{6} * 7 * 24 * 3600 * 1'000'000'000;
  EXPECT_EQ(INT_MAX, hostos::ClampedPollTimeoutMs(six_weeks_ns));

  // Round-up and floor behaviour around the edges.
  EXPECT_EQ(0, hostos::ClampedPollTimeoutMs(0));
  EXPECT_EQ(0, hostos::ClampedPollTimeoutMs(-1));
  EXPECT_EQ(1, hostos::ClampedPollTimeoutMs(1));          // 1 ns still sleeps, never spins
  EXPECT_EQ(1, hostos::ClampedPollTimeoutMs(1'000'000));  // exactly 1 ms
  EXPECT_EQ(2, hostos::ClampedPollTimeoutMs(1'000'001));
  EXPECT_EQ(INT_MAX, hostos::ClampedPollTimeoutMs(INT64_MAX));
}

pt_thread_t g_far_sleeper;

void* FarFutureSleeper(void*) {
  pt_delay(int64_t{6} * 7 * 24 * 3600 * 1'000'000'000);  // cancelled by the test
  return nullptr;
}

int g_clamp_fd = -1;
long g_clamp_n = 0;

void* ClampReader(void*) {
  char b;
  g_clamp_n = pt_read(g_clamp_fd, &b, 1);
  return nullptr;
}

TEST_F(IoRegressTest, EpollCreateFailureFailsOnlyThatWaitAndIdlesInZeroFdPoll) {
  // pt_reinit closed the epoll instance, so the next fd wait is the one that creates it.
  hostos::fault::FailNth(hostos::Call::kEpollCreate, 1, EMFILE);
  int fds[2];
  ASSERT_EQ(0, ::pipe(fds));
  g_clamp_fd = fds[0];
  g_clamp_n = 0;

  // The wait that hit the failed creation returns EAGAIN at once and leaves no FdState behind.
  char b;
  errno = 0;
  EXPECT_EQ(-1, pt_read(fds[0], &b, 1));
  EXPECT_EQ(EAGAIN, errno);
  EXPECT_EQ(0, io::GetStats().cached_fds);
  EXPECT_EQ(1u, hostos::fault::InjectedCount(hostos::Call::kEpollCreate));

  // With no instance there is no fd waiter: while main waits for SIGUSR2 from a helper
  // process, the idle loop sleeps in one zero-fd poll(2) budgeted for the six-week sleeper.
  ASSERT_EQ(0, pt_create(&g_far_sleeper, nullptr, &FarFutureSleeper, nullptr));
  pt_yield();  // the sleeper arms its deadline and suspends
  const uint64_t epoll_waits = hostos::CallCount(hostos::Call::kEpollWait);
  const uint64_t polls = hostos::CallCount(hostos::Call::kPoll);
  const pid_t pid = ::getpid();
  const pid_t child = ::fork();
  if (child == 0) {  // the child only sleeps and kills
    ::usleep(100 * 1000);
    ::kill(pid, SIGUSR2);
    ::_exit(0);
  }
  int got = 0;
  EXPECT_EQ(0, pt_sigwait(SigBit(SIGUSR2), &got));
  EXPECT_EQ(SIGUSR2, got);
  ASSERT_EQ(child, ::waitpid(child, nullptr, 0));
  EXPECT_GT(hostos::CallCount(hostos::Call::kPoll), polls);
  EXPECT_EQ(epoll_waits, hostos::CallCount(hostos::Call::kEpollWait));
  EXPECT_EQ(INT_MAX, hostos::LastPollTimeoutMs());

  // The rule is spent: the next wait creates the instance, blocks, and a write wakes it.
  pt_thread_t reader;
  ASSERT_EQ(0, pt_create(&reader, nullptr, &ClampReader, nullptr));
  pt_yield();  // the reader blocks on the empty pipe
  EXPECT_EQ(1, io::GetStats().active_waiters);
  EXPECT_EQ(0, g_clamp_n);
  ASSERT_EQ(1, ::write(fds[1], "x", 1));
  ASSERT_EQ(0, pt_join(reader, nullptr));
  EXPECT_EQ(1, g_clamp_n);
  EXPECT_EQ(1u, hostos::fault::InjectedCount(hostos::Call::kEpollCreate));

  ASSERT_EQ(0, pt_cancel(g_far_sleeper));
  ASSERT_EQ(0, pt_join(g_far_sleeper, nullptr));
  ::close(fds[0]);
  ::close(fds[1]);
  hostos::fault::Clear();
}

int g_sw_rc = 0;

void* SigwaitWithTimeout(void* timeout_ns) {
  int signo = 0;
  g_sw_rc = pt_sigwait(SigBit(SIGUSR2), &signo,
                       reinterpret_cast<intptr_t>(timeout_ns));
  return nullptr;
}

TEST_F(IoRegressTest, CancellingHeadDeadlineReprogramsItimer) {
  // One deterministic cycle: arming the 10 s sigwait timeout programs ITIMER_REAL (1), the
  // signal arrives long before the deadline and the cancellation must now DISARM it (2). The
  // seed stopped at (1) and left the shot live.
  const uint64_t before = hostos::CallCount(hostos::Call::kSetitimer);
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, &SigwaitWithTimeout,
                         reinterpret_cast<void*>(intptr_t{10'000'000'000})));
  pt_yield();  // the waiter blocks, timer armed
  ASSERT_EQ(0, pt_kill(t, SIGUSR2));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(0, g_sw_rc);
  EXPECT_EQ(before + 2, hostos::CallCount(hostos::Call::kSetitimer));
}

TEST_F(IoRegressTest, CancelStormFiresNoStaleSigalrmTicks) {
  pt_metrics_enable(true);  // counts OnTimerTick invocations

  // Storm: every iteration arms a 60 ms deadline and cancels it microseconds later.
  constexpr int kIters = 30;
  for (int i = 0; i < kIters; ++i) {
    pt_thread_t t;
    ASSERT_EQ(0, pt_create(&t, nullptr, &SigwaitWithTimeout,
                           reinterpret_cast<void*>(intptr_t{60'000'000})));
    pt_yield();
    ASSERT_EQ(0, pt_kill(t, SIGUSR2));
    ASSERT_EQ(0, pt_join(t, nullptr));
    ASSERT_EQ(0, g_sw_rc);
  }
  const uint64_t ticks_after_storm = pt_metrics_snapshot().timer_ticks;

  // Sit past every cancelled deadline. With the interval timer correctly disarmed nothing
  // fires; the seed's leftover programming delivered a stale SIGALRM right about now.
  ::usleep(150'000);
  pt_yield();
  EXPECT_EQ(ticks_after_storm, pt_metrics_snapshot().timer_ticks);
  pt_metrics_enable(false);
}

pt_thread_t g_dl_t1;

void* DlBlockForever(void*) {
  static pt_sem_t sem;
  pt_sem_init(&sem, 0);
  pt_sem_wait(&sem);  // nobody posts
  return nullptr;
}

void* DlJoinT1(void*) {
  pt_join(g_dl_t1, nullptr);
  return nullptr;
}

void RunDeadlockAfterChurn() {
  // Handler churn: install/uninstall cycles must leave handlers_installed at zero...
  for (int i = 0; i < 25; ++i) {
    pt_sigaction(SIGUSR1, +[](int) {}, 0);
    pt_sigaction(SIGUSR1, nullptr, 0);  // back to default disposition
  }
  // ...and sigwait wake + cancellation cycles must leave sigwait_blocked at zero. The
  // cancellation path is the treacherous one: the fake call exits the thread without ever
  // returning into the sigwait loop.
  for (int i = 0; i < 5; ++i) {
    pt_thread_t t;
    pt_create(&t, nullptr, &SigwaitWithTimeout, reinterpret_cast<void*>(intptr_t{-1}));
    pt_yield();
    if (i % 2 == 0) {
      pt_kill(t, SIGUSR2);
    } else {
      pt_cancel(t);
    }
    pt_join(t, nullptr);
  }
  // Counters balanced → ExternalWakeupPossible() is false → the full deadlock below must
  // still be detected. A leaked count would leave the process idling forever instead.
  pt_thread_t t2;
  pt_create(&g_dl_t1, nullptr, &DlBlockForever, nullptr);
  pt_create(&t2, nullptr, &DlJoinT1, nullptr);
  pt_join(t2, nullptr);
}

TEST_F(IoRegressTest, DeadlockDetectionSurvivesHandlerAndSigwaitChurn) {
  EXPECT_DEATH(RunDeadlockAfterChurn(), "DEADLOCK");
}

// Runs body on a fresh runtime in a forked child. Returns the child's exit code, or -1 if it
// had not exited after five seconds (it is killed): a lost wakeup fails the test, not ctest.
int RunInChildWithTimeout(int (*body)()) {
  const pid_t child = ::fork();
  if (child == 0) {
    pt_reinit();
    ::_exit(body());
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(child, &status, WNOHANG) == child) {
      return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(child, SIGKILL);
  ::waitpid(child, nullptr, 0);
  return -1;
}

struct OneByteRead {
  int fd = -1;
  long n = 0;
  int err = 0;
  char got = 0;
};

void* ReadOneByte(void* arg) {
  auto* r = static_cast<OneByteRead*>(arg);
  r->n = pt_read(r->fd, &r->got, 1);
  r->err = r->n < 0 ? errno : 0;
  return nullptr;
}

// A reader thread blocks on fd until main writes one byte to wfd. Returns the byte, or -1.
int ReadAcrossWrite(int fd, int wfd, char byte) {
  OneByteRead r;
  r.fd = fd;
  pt_thread_t reader;
  if (pt_create(&reader, nullptr, &ReadOneByte, &r) != 0) {
    return -1;
  }
  pt_yield();  // the reader blocks on the empty pipe
  if (io::GetStats().active_waiters != 1 || ::write(wfd, &byte, 1) != 1) {
    return -1;
  }
  pt_join(reader, nullptr);  // hangs if the write never wakes the reader
  return r.n == 1 ? r.got : -1;
}

int WaitAcrossFdReuse() {
  int a[2];
  if (::pipe(a) != 0 || ReadAcrossWrite(a[0], a[1], 'a') != 'a') {
    return 2;
  }
  if (pt_close(a[0]) != 0 || ::close(a[1]) != 0) {
    return 3;
  }
  int b[2];
  if (::pipe(b) != 0 || b[0] != a[0]) {
    return 4;  // the new pipe must reuse the waited fd number
  }
  return ReadAcrossWrite(b[0], b[1], 'b') == 'b' ? 0 : 5;
}

TEST_F(IoRegressTest, WaitOnReusedFdNumberAfterPtCloseWakes) {
  EXPECT_EQ(0, RunInChildWithTimeout(&WaitAcrossFdReuse));
}

int CloseUnderBlockedReader() {
  int p[2];
  if (::pipe(p) != 0) {
    return 2;
  }
  OneByteRead r;
  r.fd = p[0];
  pt_thread_t reader;
  if (pt_create(&reader, nullptr, &ReadOneByte, &r) != 0) {
    return 3;
  }
  pt_yield();  // the reader blocks on the empty pipe
  if (pt_close(p[0]) != 0) {
    return 4;
  }
  pt_join(reader, nullptr);  // hangs if pt_close left the reader waiting
  ::close(p[1]);
  return r.n == -1 && r.err == EBADF && io::GetStats().cached_fds == 0 ? 0 : 5;
}

TEST_F(IoRegressTest, PtCloseWakesTheFdsWaitersWithEbadf) {
  EXPECT_EQ(0, RunInChildWithTimeout(&CloseUnderBlockedReader));
}

}  // namespace
}  // namespace fsup
