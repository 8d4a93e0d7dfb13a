// Edge cases across modules: ceiling adjustment, lazy-thread interactions, attribute
// handling, default-ignore signals, redirect from synchronous faults, invalid-input paths.

#include <gtest/gtest.h>

#include <csetjmp>
#include <csignal>
#include <cstring>

#include "src/core/attr.hpp"
#include "src/core/pthread.hpp"

namespace fsup {
namespace {

class EdgeTest : public ::testing::Test {
 protected:
  void SetUp() override { pt_reinit(); }
};

TEST_F(EdgeTest, SetCeilingAdjustsFutureBoosts) {
  pt_mutex_t m;
  const MutexAttr a = MakeCeilingMutexAttr(10);
  ASSERT_EQ(0, pt_mutex_init(&m, &a));
  ASSERT_EQ(0, pt_setprio(pt_self(), 5));
  int old_ceiling = -1;
  ASSERT_EQ(0, pt_mutex_setceiling(&m, 20, &old_ceiling));
  EXPECT_EQ(10, old_ceiling);
  ASSERT_EQ(0, pt_mutex_lock(&m));
  int prio = -1;
  ASSERT_EQ(0, pt_getprio(pt_self(), &prio));
  EXPECT_EQ(20, prio);  // boosted to the NEW ceiling
  ASSERT_EQ(0, pt_mutex_unlock(&m));
  pt_mutex_destroy(&m);
}

TEST_F(EdgeTest, SetCeilingRejectsBadInputs) {
  pt_mutex_t plain;
  ASSERT_EQ(0, pt_mutex_init(&plain));
  EXPECT_EQ(EINVAL, pt_mutex_setceiling(&plain, 5, nullptr));  // not a PROTECT mutex
  pt_mutex_t m;
  const MutexAttr a = MakeCeilingMutexAttr(10);
  ASSERT_EQ(0, pt_mutex_init(&m, &a));
  EXPECT_EQ(EINVAL, pt_mutex_setceiling(&m, kMaxPrio + 1, nullptr));
  EXPECT_EQ(EINVAL, pt_mutex_setceiling(&m, -1, nullptr));
  pt_mutex_destroy(&m);
  pt_mutex_destroy(&plain);
}

TEST_F(EdgeTest, CeilingAttrOutOfRangeRejectedAtInit) {
  pt_mutex_t m;
  MutexAttr a = MakeCeilingMutexAttr(kMaxPrio + 1);
  EXPECT_EQ(EINVAL, pt_mutex_init(&m, &a));
}

TEST_F(EdgeTest, ActivateNonLazyThreadIsNoop) {
  pt_thread_t t;
  auto body = +[](void*) -> void* { return nullptr; };
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  EXPECT_EQ(0, pt_activate(t));  // harmless
  ASSERT_EQ(0, pt_join(t, nullptr));
}

TEST_F(EdgeTest, CancelActivatesLazyThread) {
  ThreadAttr a = MakeLazyAttr(-1);
  pt_thread_t t;
  static bool body_ran = false;
  body_ran = false;
  auto body = +[](void*) -> void* {
    body_ran = true;
    pt_testintr();  // pending cancel acts here
    return nullptr;
  };
  ASSERT_EQ(0, pt_create(&t, &a, body, nullptr));
  ASSERT_EQ(0, pt_cancel(t));  // "needed": activation happens so the cancel can take effect
  void* ret = nullptr;
  ASSERT_EQ(0, pt_join(t, &ret));
  EXPECT_EQ(kCanceled, ret);
  EXPECT_TRUE(body_ran);  // controlled cancellation: it ran up to the interruption point
}

TEST_F(EdgeTest, KillActivatesLazyThreadViaHandler) {
  static int handled = 0;
  handled = 0;
  auto handler = +[](int) { ++handled; };
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, handler, 0));
  ThreadAttr a = MakeLazyAttr(-1);
  pt_thread_t t;
  auto body = +[](void*) -> void* { return nullptr; };
  ASSERT_EQ(0, pt_create(&t, &a, body, nullptr));
  ASSERT_EQ(0, pt_kill(t, SIGUSR1));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(1, handled);
}

TEST_F(EdgeTest, LongThreadNameTruncatedSafely) {
  ThreadAttr a = MakeThreadAttr(-1, "a-very-long-thread-name-indeed");
  pt_thread_t t;
  auto body = +[](void*) -> void* { return nullptr; };
  ASSERT_EQ(0, pt_create(&t, &a, body, nullptr));
  EXPECT_EQ(15u, std::strlen(t->name));  // truncated, NUL-terminated
  ASSERT_EQ(0, pt_join(t, nullptr));
}

TEST_F(EdgeTest, DefaultIgnoredSignalDiscardedSilently) {
  // SIGCHLD's default disposition is ignore (action 6 without an installed disposition).
  EXPECT_EQ(0, pt_kill(pt_self(), SIGCHLD));
  EXPECT_FALSE(SigIsMember(pt_sigpending(), SIGCHLD));
}

TEST_F(EdgeTest, TinyStackRoundedUpToMinimum) {
  ThreadAttr a;
  a.stack_size = 1;  // absurd: clamped to kMinStackSize
  pt_thread_t t;
  auto body = +[](void*) -> void* {
    char buf[4096];  // would smash a 1-byte stack
    std::memset(buf, 0, sizeof(buf));
    return buf[100] == 0 ? nullptr : reinterpret_cast<void*>(1);
  };
  ASSERT_EQ(0, pt_create(&t, &a, body, nullptr));
  void* ret = reinterpret_cast<void*>(1);
  ASSERT_EQ(0, pt_join(t, &ret));
  EXPECT_EQ(nullptr, ret);
}

sigjmp_buf g_fault_env;
int g_fault_recovered = 0;

void SegvRedirect(int) { pt_handler_redirect(&g_fault_env, 1); }

TEST_F(EdgeTest, RedirectFromSynchronousFault) {
  // The Ada exception path on a genuine SIGSEGV (not just SIGFPE): handler redirects out of
  // the fault instead of re-executing it.
  ASSERT_EQ(0, pt_sigaction(SIGSEGV, &SegvRedirect, 0));
  g_fault_recovered = 0;
  if (sigsetjmp(g_fault_env, 1) == 0) {
    // A store to address 0, in assembly: written in C++ it is undefined behaviour, which a
    // sanitizer build would report instead of letting the SIGSEGV happen.
    asm volatile("movl $42, (%0)" : : "r"(static_cast<int*>(nullptr)) : "memory");
    ADD_FAILURE() << "not reached";
  } else {
    g_fault_recovered = 1;
  }
  EXPECT_EQ(1, g_fault_recovered);
  ASSERT_EQ(0, pt_sigaction(SIGSEGV, nullptr, 0));  // restore default
}

TEST_F(EdgeTest, MixedFifoAndRrThreadsCoexist) {
  pt_enable_time_slicing(2000);
  ThreadAttr rr;
  rr.inherit_policy = false;
  rr.policy = SchedPolicy::kRr;
  static volatile long spins = 0;
  spins = 0;
  auto rr_body = +[](void*) -> void* {
    while (spins < 2000000) {
      spins = spins + 1;
    }
    return nullptr;
  };
  pt_thread_t t1, t2;
  ASSERT_EQ(0, pt_create(&t1, &rr, rr_body, nullptr));
  ASSERT_EQ(0, pt_create(&t2, &rr, rr_body, nullptr));
  // A FIFO thread (us) is never sliced; the RR pair beneath us shares the CPU when we block.
  ASSERT_EQ(0, pt_join(t1, nullptr));
  ASSERT_EQ(0, pt_join(t2, nullptr));
  pt_disable_time_slicing();
  EXPECT_GE(spins, 2000000);
}

TEST_F(EdgeTest, ReadFromBadFdFails) {
  char buf[8];
  EXPECT_EQ(-1, pt_read(-1, buf, sizeof(buf)));
  EXPECT_EQ(-1, pt_write(9999, buf, sizeof(buf)));
}

TEST_F(EdgeTest, CreateRejectsNullArguments) {
  pt_thread_t t;
  auto body = +[](void*) -> void* { return nullptr; };
  EXPECT_EQ(EINVAL, pt_create(nullptr, nullptr, body, nullptr));
  EXPECT_EQ(EINVAL, pt_create(&t, nullptr, nullptr, nullptr));
}

TEST_F(EdgeTest, SigmaskCannotMaskCancelSignal) {
  SigSet old;
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, kSigSetAll, &old));
  SigSet now;
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, 0, &now));
  EXPECT_FALSE(SigIsMember(now, kSigCancel));  // stripped: cancellation has its own states
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kSetMask, old, nullptr));
}

TEST_F(EdgeTest, AlarmRearmReplacesPrevious) {
  static int fired = 0;
  fired = 0;
  auto handler = +[](int) { ++fired; };
  ASSERT_EQ(0, pt_sigaction(SIGALRM, handler, 0));
  ASSERT_EQ(0, pt_alarm(5 * 1000 * 1000));   // 5ms...
  ASSERT_EQ(0, pt_alarm(60 * 1000 * 1000));  // ...replaced by 60ms
  EXPECT_EQ(0, pt_delay(30 * 1000 * 1000));  // at 30ms: the 5ms shot must NOT have fired
  EXPECT_EQ(0, fired);
  const int rc = pt_delay(60 * 1000 * 1000);  // sleep across the 60ms deadline
  EXPECT_TRUE(rc == 0 || rc == EINTR);        // the alarm may interrupt the sleep
  EXPECT_EQ(1, fired);
}

TEST_F(EdgeTest, ZeroByteIoCompletes) {
  int fds[2];
  ASSERT_EQ(0, ::pipe(fds));
  char c = 0;
  EXPECT_EQ(0, pt_read(fds[0], &c, 0));
  EXPECT_EQ(0, pt_write(fds[1], &c, 0));
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace fsup
