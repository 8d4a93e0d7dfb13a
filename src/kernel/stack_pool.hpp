// Pool of pre-mapped thread stacks and TCBs.
//
// The paper: "Thread creation/termination involves allocation/deallocation of heap space which
// sporadically may result in kernel calls to sbrk. This could be avoided in most cases by
// preallocating a pool of thread control blocks and stacks" — and its Table 2 creation metric
// is measured with the pool warm. This module is that pool, grown for million-thread working
// sets: stacks are recycled on power-of-two size-class free lists under a committed-bytes
// budget (odd sizes bypass the pool), TCBs come from a growable slab allocator, and a sorted
// registry of live stacks lets the SIGSEGV handler classify a fault — lazy-commit demand
// paging versus guard-page overflow — in O(log n) instead of walking every thread.

#ifndef FSUP_SRC_KERNEL_STACK_POOL_HPP_
#define FSUP_SRC_KERNEL_STACK_POOL_HPP_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>

#include "src/debug/counters.hpp"
#include "src/kernel/tcb.hpp"
#include "src/util/fixed_pool.hpp"

namespace fsup {

// Classification of a synchronous fault address against the pool's live stacks.
struct StackFaultInfo {
  enum class Kind {
    kNone,        // not a live stack address this registry knows about
    kCommitted,   // lazy-commit fault: pages committed, retry the faulting instruction
    kOverflow,    // guard page hit: genuine stack overflow, `thread` names the victim
    kUnavailable  // registry mid-mutation; caller must fall back to a linear scan
  };
  Kind kind = Kind::kNone;
  Tcb* thread = nullptr;
};

class StackPool {
 public:
  explicit StackPool(size_t precache = 8);
  ~StackPool();

  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  // Allocates a TCB with an attached stack of at least `stack_size` usable bytes. The TCB is
  // default-constructed. Returns nullptr on mmap failure.
  Tcb* Allocate(size_t stack_size);

  // Allocates a TCB with no stack (lazy thread creation: the paper's future-work feature
  // defers the expensive resource until the thread is needed).
  Tcb* AllocateNoStack();

  // Attaches a stack to a TCB created with AllocateNoStack. On mmap failure (exhaustion,
  // injected fault) falls back to the request's size-class free list, then releases the
  // address space other classes' parked stacks hold beyond the budget and retries the map
  // once; false only when every source is dry, with no pool state leaked. errno is left as
  // the last map failure set it.
  bool AttachStack(Tcb* t, size_t stack_size);

  // Destroys and recycles a TCB + stack obtained from Allocate().
  void Free(Tcb* t);

  // Classifies a synchronous fault address. Async-signal-safe: consults the current thread's
  // own stack first (no locks), then the sorted live-stack registry unless a mutation is in
  // flight (kUnavailable → the handler degrades to its linear scan). Lazy-commit faults are
  // resolved in place via hostos::CommitStackRange before returning kCommitted.
  StackFaultInfo ClassifyStackFault(const void* addr, Tcb* current);

  // Commits t's stack if `addr` is a lazy, not-yet-committed stack page of t. Shared by
  // ClassifyStackFault and the handler's registry-busy fallback scan.
  static bool CommitFaultOnThread(const void* addr, Tcb* t);

  // Called by the dispatcher before resuming t: if t's saved SP is within the host's
  // signal-frame headroom of the commit watermark, commit the rest of the reservation so a
  // kernel-pushed signal frame cannot land on PROT_NONE pages (which would drop the signal).
  static void EnsureSignalHeadroom(Tcb* t);

  // True if `addr` lies in the guard page of any pooled or live stack this pool issued whose
  // usable base is `stack_base`.
  static bool AddrInGuard(const void* addr, const Tcb* t);

  size_t pooled_stacks() const { return free_count_; }
  size_t pooled_bytes() const { return free_bytes_; }
  size_t pool_budget_bytes() const { return budget_bytes_; }
  uint64_t stack_reuses() const { return stack_reuses_; }
  uint64_t stack_maps() const { return stack_maps_; }
  uint64_t alloc_failures() const { return alloc_failures_; }
  uint64_t lazy_commits() const { return lazy_commits_; }
  size_t live_registered() const { return live_.size(); }

  // Per-size-class traffic: free-list reuses (hits), fresh maps (misses), budget evictions.
  const debug::PoolClassCounters& class_stats(int cls) const { return class_stats_[cls]; }

  // Reserved bytes currently mapped (live stacks + free lists) and the high-water mark of
  // that sum over the pool's lifetime.
  size_t mapped_bytes() const { return live_bytes_ + free_bytes_; }
  size_t mapped_hw_bytes() const { return mapped_hw_bytes_; }

  // Size-class geometry, exposed for tests: pooled iff the page-rounded usable size is an
  // exact power of two within [kMinStackSize, kMaxPooledStackSize]; anything else bypasses
  // the free lists and is mapped/unmapped directly.
  static constexpr size_t kMaxPooledStackSize = 8u << 20;
  static constexpr int kNumClasses = 10;  // kMinStackSize .. kMaxPooledStackSize, pow2 steps
  static int ClassIndex(size_t usable_size);

 private:
  // Free-list node, placed at the TOP of the recycled stack: with lazy commit the base pages
  // may be PROT_NONE, but the top page is always committed (MapStack's initial commit covers
  // it and every thread ran there). commit_lo preserves the previous tenant's commit
  // watermark so a recycled stack keeps its warm pages without re-faulting.
  struct FreeStack {
    FreeStack* next;
    size_t mapped_size;
    char* commit_lo;

    // What parking this stack costs against the budget: its committed span (an upper bound
    // on its RSS), floored at one minimum class so the parked count stays bounded too.
    size_t Charge() const {
      const auto* top = reinterpret_cast<const char*>(this + 1);
      const auto committed = static_cast<size_t>(top - commit_lo);
      return committed > kMinStackSize ? committed : kMinStackSize;
    }
  };

  struct LiveStack {
    size_t mapped_size;
    Tcb* owner;
  };

  // Allocator for live_'s nodes. A freed node goes on the pool's intrusive free list and the
  // next insertion takes it back, so the registry calls operator new only when the live count
  // reaches a new high-water mark: a warm create/join allocates nothing inside the kernel.
  template <class T>
  struct NodeRecycler {
    using value_type = T;
    void** free_list;

    explicit NodeRecycler(void** list) : free_list(list) {}
    template <class U>
    NodeRecycler(const NodeRecycler<U>& other) : free_list(other.free_list) {}  // rebind

    T* allocate(size_t n) {
      if (n == 1 && *free_list != nullptr) {
        void* node = *free_list;
        std::memcpy(free_list, node, sizeof(void*));
        return static_cast<T*>(node);
      }
      return static_cast<T*>(::operator new(n * sizeof(T)));
    }
    void deallocate(T* p, size_t n) {
      if (n != 1) {
        ::operator delete(p);
        return;
      }
      std::memcpy(p, free_list, sizeof(void*));
      *free_list = p;
    }
    template <class U>
    bool operator==(const NodeRecycler<U>& other) const {
      return free_list == other.free_list;
    }
  };
  using LiveMap = std::map<const char*, LiveStack, std::less<const char*>,
                           NodeRecycler<std::pair<const char* const, LiveStack>>>;

  void* TakePooledStack(int cls, size_t* size_out, char** commit_lo_out);
  void* MapFresh(size_t usable, size_t* size_out, char** commit_lo_out);
  void PushFree(void* usable_base, size_t mapped, char* commit_lo);
  bool EvictLargestFirst(const size_t& held);
  void RegisterLive(Tcb* t);
  void UnregisterLive(Tcb* t);

  FixedPool<Tcb> tcb_pool_;
  FreeStack* free_heads_[kNumClasses] = {};
  size_t free_count_ = 0;
  size_t free_bytes_ = 0;    // mapped (reserved) bytes across all free lists
  size_t free_charge_ = 0;   // FreeStack::Charge() summed across all free lists
  size_t budget_bytes_ = 0;  // FSUP_STACK_POOL_BYTES: bound on free_charge_, largest-first
  size_t precache_target_;
  uint64_t stack_reuses_ = 0;
  uint64_t stack_maps_ = 0;
  uint64_t alloc_failures_ = 0;  // AttachStack exhausted both mmap and the freelist
  uint64_t lazy_commits_ = 0;    // demand-commit faults resolved by the SIGSEGV handler
  debug::PoolClassCounters class_stats_[kNumClasses] = {};
  size_t live_bytes_ = 0;        // mapped (reserved) bytes across registered live stacks
  size_t mapped_hw_bytes_ = 0;   // high-water of live_bytes_ + free_bytes_

  // Stamps the mapped-bytes high-water after live_bytes_ or free_bytes_ grew.
  void NoteMapped() {
    size_t mapped = live_bytes_ + free_bytes_;
    if (mapped > mapped_hw_bytes_) {
      mapped_hw_bytes_ = mapped;
    }
  }

  // Live stacks ordered by usable base. Mutated only inside the kernel monitor; the busy flag
  // (with signal fences) lets the handler detect the impossible-in-theory mid-mutation fault
  // and degrade safely instead of walking a broken tree. Its nodes recycle through
  // live_free_nodes_ (NodeRecycler); the destructor releases them.
  void* live_free_nodes_ = nullptr;
  LiveMap live_{LiveMap::allocator_type(&live_free_nodes_)};
  std::atomic<int> registry_busy_{0};
};

}  // namespace fsup

#endif  // FSUP_SRC_KERNEL_STACK_POOL_HPP_
