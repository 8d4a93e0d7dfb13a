// In-process schedule exploration (debug/explore.hpp): a planted order-dependent bug — a
// read-modify-write window that is atomic under default FIFO run-to-completion scheduling
// but loses updates when a context switch is forced inside it — must be found by the
// systematic phase and shrunk to a minimal point set by the random phase. A correct subject
// must come out clean (no false positives). The same holds when the window is split across
// two uncontended critical sections, which the default sync fast path runs without entering
// the kernel: an armed perturbation demotes the fast path so every lock and unlock is a gate.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "src/core/pthread.hpp"
#include "src/debug/explore.hpp"
#include "src/debug/replay.hpp"
#include "src/sync/fastpath.hpp"

namespace fsup {
namespace {

class ExploreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pt_reinit();
    debug::replay::ClearPerturb();
  }

  void TearDown() override { debug::replay::ClearPerturb(); }
};

constexpr int kWorkers = 3;
constexpr int kIters = 4;

int g_counter = 0;

// The planted bug: the increment is split across a kernel entry (pt_testintr is a no-op
// without a pending cancel, but enters and exits the kernel), so a forced switch inside the
// window lets a sibling run its whole loop and then be overwritten by the stale store.
// Under unperturbed FIFO scheduling each worker runs to completion — the counter is exact.
void* RacyWorker(void*) {
  for (int i = 0; i < kIters; ++i) {
    const int tmp = g_counter;
    pt_testintr();
    g_counter = tmp + 1;
  }
  return nullptr;
}

void* SafeWorker(void*) {
  for (int i = 0; i < kIters; ++i) {
    pt_testintr();
    ++g_counter;  // single store per iteration: no window to split
  }
  return nullptr;
}

// The lost update again, with each half of the window in its own critical section of a
// NORMAL mutex — the lock protects each access but not the read-modify-write as a whole.
// Every lock and unlock is uncontended, so the default fast path never enters the kernel.
pt_mutex_t g_mutex;

void* SplitLockWorker(void*) {
  for (int i = 0; i < kIters; ++i) {
    pt_mutex_lock(&g_mutex);
    const int tmp = g_counter;
    pt_mutex_unlock(&g_mutex);
    pt_mutex_lock(&g_mutex);
    g_counter = tmp + 1;
    pt_mutex_unlock(&g_mutex);
  }
  return nullptr;
}

bool RunSubject(void* (*worker)(void*)) {
  pt_reinit();
  g_counter = 0;
  if (pt_mutex_init(&g_mutex) != 0) {
    return false;
  }
  pt_thread_t t[kWorkers] = {};
  for (auto& th : t) {
    if (pt_create(&th, nullptr, worker, nullptr) != 0) {
      return false;
    }
  }
  for (auto& th : t) {
    if (pt_join(th, nullptr) != 0) {
      return false;
    }
  }
  return g_counter == kWorkers * kIters;
}

bool RacySubject(void*) { return RunSubject(RacyWorker); }
bool SafeSubject(void*) { return RunSubject(SafeWorker); }
bool SplitLockSubject(void*) { return RunSubject(SplitLockWorker); }

TEST_F(ExploreTest, UnperturbedSubjectsPass) {
  ASSERT_TRUE(RacySubject(nullptr));
  ASSERT_TRUE(SafeSubject(nullptr));
  ASSERT_TRUE(SplitLockSubject(nullptr));
}

// Counts the perturbation gates one subject run passes through (an armed-but-never-firing
// point set counts ordinals without perturbing), so the systematic window is exact rather
// than a guess about how many gates the pt_reinit preamble consumes.
uint64_t MeasureGates(bool (*subject)(void*)) {
  debug::replay::SetPerturbPoints(nullptr, 0);
  EXPECT_TRUE(subject(nullptr));
  const uint64_t gates = debug::replay::PerturbOrdinal();
  debug::replay::ClearPerturb();
  return gates;
}

TEST_F(ExploreTest, SystematicPhaseFindsPlantedBugAlreadyMinimal) {
  const uint64_t gates = MeasureGates(RacySubject);
  ASSERT_GT(gates, 0u);
  debug::explore::Options opt;
  opt.window = gates;  // full coverage: every gate of the run gets its own probe
  opt.random = false;
  const debug::explore::Result r = debug::explore::Run(RacySubject, nullptr, opt);
  EXPECT_TRUE(r.failure_found);
  EXPECT_TRUE(r.reproducible);
  ASSERT_EQ(1u, r.npoints);  // a single forced switch: minimal by construction
  EXPECT_GT(r.runs, 0u);

  // The reported schedule reproduces the failure on demand.
  debug::replay::SetPerturbPoints(r.points, r.npoints);
  EXPECT_FALSE(RacySubject(nullptr));
  debug::replay::ClearPerturb();
  EXPECT_TRUE(RacySubject(nullptr));
}

TEST_F(ExploreTest, RandomPhaseFindsAndShrinksPlantedBug) {
  debug::explore::Options opt;
  opt.systematic = false;
  opt.seeds = 12;
  opt.permille = 60;
  const debug::explore::Result r = debug::explore::Run(RacySubject, nullptr, opt);
  EXPECT_TRUE(r.failure_found);
  ASSERT_TRUE(r.reproducible);
  EXPECT_GT(r.seed, 0u);
  ASSERT_GE(r.npoints, 1u);
  EXPECT_LE(r.npoints, 3u) << "shrink left a non-minimal schedule";

  debug::replay::SetPerturbPoints(r.points, r.npoints);
  EXPECT_FALSE(RacySubject(nullptr));
  debug::replay::ClearPerturb();
}

// Runs under the default fast-path mode (no FSUP_FASTPATH in the environment).
TEST_F(ExploreTest, FindsLostUpdateAcrossFastPathCriticalSections) {
  ASSERT_TRUE(sync::fastpath::Enabled());
  debug::replay::SetPerturbPoints(nullptr, 0);
  EXPECT_FALSE(sync::fastpath::Enabled()) << "an armed perturbation must demote the fast path";
  debug::replay::ClearPerturb();
  EXPECT_TRUE(sync::fastpath::Enabled());

  debug::explore::Options opt;
  opt.window = MeasureGates(SplitLockSubject);
  opt.random = false;
  const debug::explore::Result r = debug::explore::Run(SplitLockSubject, nullptr, opt);
  EXPECT_TRUE(r.failure_found);
  EXPECT_TRUE(r.reproducible);
  ASSERT_EQ(1u, r.npoints);

  debug::replay::SetPerturbPoints(r.points, r.npoints);
  EXPECT_FALSE(SplitLockSubject(nullptr));
  debug::replay::ClearPerturb();
  EXPECT_TRUE(SplitLockSubject(nullptr));
}

// A recording of a perturbed run replays with no perturbation armed: the forced switches in
// the log keep the fast path demoted, so the replay passes the same numbered gates.
TEST_F(ExploreTest, PerturbedRecordingReplaysUnderDefaultFastPath) {
  debug::explore::Options opt;
  opt.window = MeasureGates(SplitLockSubject);
  opt.random = false;
  const debug::explore::Result r = debug::explore::Run(SplitLockSubject, nullptr, opt);
  ASSERT_TRUE(r.failure_found);

  const std::string path = std::string(::testing::TempDir()) + "fsup_explore_perturbed." +
                           std::to_string(::getpid()) + ".rpl";
  debug::replay::SetPerturbPoints(r.points, r.npoints);
  debug::replay::StartRecording();
  EXPECT_FALSE(SplitLockSubject(nullptr));
  debug::replay::StopRecording();
  ASSERT_EQ(0, debug::replay::SaveLog(path.c_str()));
  debug::replay::ClearPerturb();
  ASSERT_TRUE(sync::fastpath::Enabled());

  const uint64_t fired_before = debug::replay::ForcedFired();
  ASSERT_EQ(0, debug::replay::StartReplay(path.c_str()));
  EXPECT_FALSE(sync::fastpath::Enabled());
  EXPECT_FALSE(SplitLockSubject(nullptr));  // the same lost update, not a divergence abort
  EXPECT_EQ(r.npoints, debug::replay::ForcedFired() - fired_before);
  debug::replay::StopReplay();
  EXPECT_TRUE(sync::fastpath::Enabled());
  std::remove(path.c_str());
}

TEST_F(ExploreTest, CorrectSubjectSurvivesExploration) {
  debug::explore::Options opt;
  opt.window = MeasureGates(SafeSubject);
  opt.seeds = 4;
  const debug::explore::Result r = debug::explore::Run(SafeSubject, nullptr, opt);
  EXPECT_FALSE(r.failure_found);
  EXPECT_EQ(0u, r.npoints);
}

}  // namespace
}  // namespace fsup
