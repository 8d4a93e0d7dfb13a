// Size-classed stack pool edge cases: class geometry, per-class recycling, the non-pow2
// bypass, the committed-bytes recycle budget with largest-first eviction and its release of
// parked reservations when a map fails, lazy-commit demand paging (unit level via
// ClassifyStackFault and end-to-end via a deep-frame thread), and the commit watermark a
// recycled stack keeps.

#include <gtest/gtest.h>

#include <cstdlib>

#include "src/core/attr.hpp"
#include "src/core/bench_probes.hpp"
#include "src/core/pthread.hpp"
#include "src/hostos/fault.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/kernel/stack_pool.hpp"

namespace fsup {
namespace {

class StackPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Stack knobs are cached process-wide; make each test start from the defaults.
    ::unsetenv("FSUP_STACK_COMMIT");
    ::unsetenv("FSUP_STACK_POOL_BYTES");
    pt_reinit();
  }
  void TearDown() override {
    hostos::fault::Clear();
    ::unsetenv("FSUP_STACK_COMMIT");
    ::unsetenv("FSUP_STACK_POOL_BYTES");
    hostos::RefreshStackConfig();
  }
};

TEST_F(StackPoolTest, ClassIndexGeometry) {
  EXPECT_EQ(0, StackPool::ClassIndex(kMinStackSize));
  EXPECT_EQ(1, StackPool::ClassIndex(kMinStackSize * 2));
  EXPECT_EQ(3, StackPool::ClassIndex(kDefaultStackSize));  // 128 KiB = 16 KiB << 3
  EXPECT_EQ(9, StackPool::ClassIndex(StackPool::kMaxPooledStackSize));
  // Outside the pow2 ladder: below the floor, above the ceiling, or not a power of two.
  EXPECT_EQ(-1, StackPool::ClassIndex(kMinStackSize / 2));
  EXPECT_EQ(-1, StackPool::ClassIndex(StackPool::kMaxPooledStackSize * 2));
  EXPECT_EQ(-1, StackPool::ClassIndex(kMinStackSize * 3));
  EXPECT_EQ(-1, StackPool::ClassIndex(kDefaultStackSize + hostos::PageSize()));
}

TEST_F(StackPoolTest, PerClassRecyclingReturnsTheSameMapping) {
  StackPool pool(0);
  Tcb* small = pool.Allocate(kMinStackSize);
  Tcb* big = pool.Allocate(kMinStackSize * 4);
  ASSERT_NE(nullptr, small);
  ASSERT_NE(nullptr, big);
  void* small_base = small->stack_base;
  void* big_base = big->stack_base;
  EXPECT_TRUE(small->stack_pooled);
  EXPECT_TRUE(big->stack_pooled);
  pool.Free(small);
  pool.Free(big);
  EXPECT_EQ(2u, pool.pooled_stacks());
  EXPECT_EQ(kMinStackSize * 5, pool.pooled_bytes());

  // Each request is served from its own class: no cross-class mixups, no fresh maps.
  const uint64_t maps = pool.stack_maps();
  Tcb* big2 = pool.Allocate(kMinStackSize * 4);
  Tcb* small2 = pool.Allocate(kMinStackSize);
  ASSERT_NE(nullptr, big2);
  ASSERT_NE(nullptr, small2);
  EXPECT_EQ(big_base, big2->stack_base);
  EXPECT_EQ(small_base, small2->stack_base);
  EXPECT_EQ(maps, pool.stack_maps());
  EXPECT_EQ(2u, pool.stack_reuses());
  pool.Free(big2);
  pool.Free(small2);
}

TEST_F(StackPoolTest, NonPow2SizesBypassTheFreeLists) {
  StackPool pool(0);
  Tcb* t = pool.Allocate(kMinStackSize * 3);
  ASSERT_NE(nullptr, t);
  EXPECT_FALSE(t->stack_pooled);
  EXPECT_GE(t->stack_size, kMinStackSize * 3);
  // Freed odd-size stacks are unmapped, not hoarded on a list no class can serve.
  pool.Free(t);
  EXPECT_EQ(0u, pool.pooled_stacks());
  EXPECT_EQ(0u, pool.pooled_bytes());
}

TEST_F(StackPoolTest, BudgetEvictsLargestFirst) {
  // A fully committed 1 MiB stack is charged 1 MiB, over a 64 KiB budget: freeing both must
  // evict the big stack and keep the 16 KiB one (largest-first bounds the memory the free
  // lists pin while keeping the cheap, common classes warm).
  ASSERT_EQ(0, ::setenv("FSUP_STACK_POOL_BYTES", "65536", 1));
  StackPool pool(0);
  EXPECT_EQ(65536u, pool.pool_budget_bytes());
  Tcb* big = pool.Allocate(1u << 20);
  Tcb* small = pool.Allocate(kMinStackSize);
  ASSERT_NE(nullptr, big);
  ASSERT_NE(nullptr, small);
  ASSERT_TRUE(StackPool::CommitFaultOnThread(big->stack_base, big));  // commit all 1 MiB
  void* small_base = small->stack_base;
  pool.Free(small);
  EXPECT_EQ(1u, pool.pooled_stacks());  // under budget: kept
  pool.Free(big);
  EXPECT_EQ(1u, pool.pooled_stacks());  // over budget: the 1 MiB entry was evicted
  EXPECT_EQ(size_t{kMinStackSize}, pool.pooled_bytes());
  EXPECT_EQ(1u, pool.class_stats(StackPool::ClassIndex(1u << 20)).evictions);

  Tcb* small2 = pool.Allocate(kMinStackSize);
  ASSERT_NE(nullptr, small2);
  EXPECT_EQ(small_base, small2->stack_base);
  pool.Free(small2);
}

// Allocates n stacks of `size` bytes from pool, then frees them all.
void AllocateAndFree(StackPool* pool, size_t size, int n) {
  Tcb* ts[16];
  ASSERT_LE(n, 16);
  for (int i = 0; i < n; ++i) {
    ts[i] = pool->Allocate(size);
    ASSERT_NE(nullptr, ts[i]);
  }
  for (int i = 0; i < n; ++i) {
    pool->Free(ts[i]);
  }
}

TEST_F(StackPoolTest, LazyParkedStacksAreChargedTheirCommittedBytes) {
  // A never-faulted 1 MiB stack has only its initial 16 KiB committed, and that is what it is
  // charged: a 64 KiB budget keeps four of them parked, though they reserve 4 MiB.
  ASSERT_EQ(0, ::setenv("FSUP_STACK_POOL_BYTES", "65536", 1));
  StackPool pool(0);
  ASSERT_EQ(size_t{kMinStackSize}, hostos::StackInitialCommit());
  AllocateAndFree(&pool, 1u << 20, 5);
  EXPECT_EQ(4u, pool.pooled_stacks());
  EXPECT_EQ(size_t{4} << 20, pool.pooled_bytes());  // pooled_bytes stays the reservation
  EXPECT_EQ(1u, pool.class_stats(StackPool::ClassIndex(1u << 20)).evictions);

  // All four are reused without a fresh map.
  const uint64_t maps = pool.stack_maps();
  AllocateAndFree(&pool, 1u << 20, 4);
  EXPECT_EQ(maps, pool.stack_maps());
}

TEST_F(StackPoolTest, ChargeFloorCapsTheParkedCount) {
  // One committed page per stack would let a 64 KiB budget park sixteen; the one-class floor
  // charges each 16 KiB, so at most budget / kMinStackSize stay parked.
  ASSERT_EQ(0, ::setenv("FSUP_STACK_COMMIT", "4096", 1));
  ASSERT_EQ(0, ::setenv("FSUP_STACK_POOL_BYTES", "65536", 1));
  StackPool pool(0);
  ASSERT_LT(hostos::StackInitialCommit(), size_t{kMinStackSize});
  AllocateAndFree(&pool, 1u << 20, 8);
  EXPECT_EQ(65536 / kMinStackSize, pool.pooled_stacks());
}

TEST_F(StackPoolTest, FailedMapReleasesOtherClassesParkedStacksAndRetries) {
  // Four lazily committed 1 MiB stacks fit a 64 KiB charge budget but reserve 4 MiB. When a
  // map for another class fails, the pool releases the reservations beyond the budget and
  // maps once more, so the create succeeds.
  ASSERT_EQ(0, ::setenv("FSUP_STACK_POOL_BYTES", "65536", 1));
  StackPool pool(0);
  AllocateAndFree(&pool, 1u << 20, 4);
  ASSERT_EQ(4u, pool.pooled_stacks());

  hostos::fault::FailNth(hostos::Call::kMmap, 1, ENOMEM);
  Tcb* t = pool.Allocate(kMinStackSize * 16);
  ASSERT_NE(nullptr, t);
  EXPECT_EQ(1u, hostos::fault::InjectedCount(hostos::Call::kMmap));
  EXPECT_EQ(0u, pool.alloc_failures());
  EXPECT_EQ(0u, pool.pooled_stacks());
  EXPECT_EQ(4u, pool.class_stats(StackPool::ClassIndex(1u << 20)).evictions);
  pool.Free(t);
}

TEST_F(StackPoolTest, TcbSlotsComeFromTheSlabFreeList) {
  StackPool pool(0);
  Tcb* t = pool.Allocate(kMinStackSize);
  ASSERT_NE(nullptr, t);
  pool.Free(t);
  // LIFO slab free list: the very next allocation reuses the slot — creation touches no
  // allocator once warm (the paper's pre-cache claim, TCB half).
  Tcb* t2 = pool.Allocate(kMinStackSize);
  EXPECT_EQ(static_cast<void*>(t), static_cast<void*>(t2));
  pool.Free(t2);
}

TEST_F(StackPoolTest, ClassifyStackFaultResolvesLazyAndGuardFaults) {
  StackPool pool(0);
  Tcb* t1 = pool.Allocate(kDefaultStackSize);
  Tcb* t2 = pool.Allocate(kDefaultStackSize);
  ASSERT_NE(nullptr, t1);
  ASSERT_NE(nullptr, t2);
  char* base2 = static_cast<char*>(t2->stack_base);
  ASSERT_GT(t2->stack_commit_lo, base2);  // a lazy band exists below the watermark

  // A write deep below t2's watermark, with some OTHER thread current: the ordered registry
  // finds the owner and commits in place.
  auto r = pool.ClassifyStackFault(base2 + 64, t1);
  EXPECT_EQ(StackFaultInfo::Kind::kCommitted, r.kind);
  EXPECT_EQ(t2, r.thread);
  EXPECT_EQ(base2, t2->stack_commit_lo);
  EXPECT_EQ(1u, pool.lazy_commits());

  // The same address again is a real fault now (committed pages don't re-fault) — it must
  // not be swallowed as demand paging.
  r = pool.ClassifyStackFault(base2 + 64, t1);
  EXPECT_EQ(StackFaultInfo::Kind::kNone, r.kind);

  // Guard-page hits classify as overflow with the right victim, current thread or not.
  r = pool.ClassifyStackFault(base2 - 1, t1);
  EXPECT_EQ(StackFaultInfo::Kind::kOverflow, r.kind);
  EXPECT_EQ(t2, r.thread);
  char* base1 = static_cast<char*>(t1->stack_base);
  r = pool.ClassifyStackFault(base1 - 1, t1);
  EXPECT_EQ(StackFaultInfo::Kind::kOverflow, r.kind);
  EXPECT_EQ(t1, r.thread);

  // An address on no registered stack is nobody's business.
  int on_main_stack = 0;
  r = pool.ClassifyStackFault(&on_main_stack, t1);
  EXPECT_EQ(StackFaultInfo::Kind::kNone, r.kind);

  pool.Free(t1);
  pool.Free(t2);
}

TEST_F(StackPoolTest, RecycledStackKeepsItsCommitWatermark) {
  StackPool pool(0);
  Tcb* t = pool.Allocate(kDefaultStackSize);
  ASSERT_NE(nullptr, t);
  char* base = static_cast<char*>(t->stack_base);
  ASSERT_TRUE(StackPool::CommitFaultOnThread(base + 64, t));  // fully commit
  EXPECT_EQ(base, t->stack_commit_lo);
  pool.Free(t);
  // The recycled stack comes back warm: already-committed pages are not re-reserved, so the
  // next tenant pays no demand faults for them.
  Tcb* t2 = pool.Allocate(kDefaultStackSize);
  ASSERT_NE(nullptr, t2);
  EXPECT_EQ(base, static_cast<char*>(t2->stack_base));
  EXPECT_EQ(base, t2->stack_commit_lo);
  pool.Free(t2);
}

// End-to-end demand paging: a thread whose first frame lands far below the initial commit
// faults once, the SIGSEGV handler commits the reservation, and the thread never notices.
__attribute__((noinline)) void* DeepFrameBody(void*) {
  volatile char frame[96 * 1024];  // default stack 128 KiB, initial commit far smaller
  frame[0] = 1;
  frame[sizeof(frame) - 1] = 2;
  return nullptr;
}

TEST_F(StackPoolTest, DeepFirstFrameIsDemandCommittedTransparently) {
  const uint64_t before = probe::StackPoolLazyCommits();
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, &DeepFrameBody, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_GE(probe::StackPoolLazyCommits(), before + 1);
}

}  // namespace
}  // namespace fsup
