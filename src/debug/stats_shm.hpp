// Shared-memory stats segment layout (FSUP_STATS_SHM).
//
// The runtime's profiler collector mmaps a small MAP_SHARED file and republishes a fixed-size
// statistics block into it every collection period; `tools/fsup_top` (a standalone binary that
// does NOT link the library) mmaps the same file read-only and renders a refreshing top-style
// view. This header is therefore deliberately freestanding: plain structs, <cstdint> only, no
// library includes — both sides compile it independently and must agree on the layout.
//
// Consistency protocol: a seqlock. The writer bumps `seq` to an odd value, updates the body,
// then bumps it even; a reader copies the whole block and accepts the copy only if `seq` was
// even and unchanged across the copy. Single writer (the collector, inside the Pthreads
// kernel), any number of cross-process readers, no reader-side blocking — a dead or stalled
// target can never wedge the monitor. Accesses to `seq` go through __atomic builtins so the
// protocol works across processes without dragging std::atomic into the shared layout.

#ifndef FSUP_SRC_DEBUG_STATS_SHM_HPP_
#define FSUP_SRC_DEBUG_STATS_SHM_HPP_

#include <cstdint>

namespace fsup::debug {

inline constexpr uint32_t kStatsShmMagic = 0x70755346;  // "FsUp"
inline constexpr uint32_t kStatsShmVersion = 2;
inline constexpr int kStatsShmTopStacks = 8;   // hottest on-CPU / most-blocked rows exported
inline constexpr int kStatsShmMaxDepth = 8;    // frames kept per exported stack
inline constexpr int kStatsShmStackClasses = 10;  // == StackPool::kNumClasses (static_assert
                                                  // at the writer, which sees both headers)

// One aggregated stack row. On-CPU rows: weight == count == samples. Off-CPU rows: weight is
// blocked nanoseconds, count is wake events, tag/reason name the wait object.
struct StatsShmStack {
  uint64_t weight = 0;
  uint64_t count = 0;
  uint32_t tag = 0;     // sync-object tag (mutex#/cond#), 0 when the wait has none
  uint8_t reason = 0;   // BlockReason raw value (off-CPU rows)
  uint8_t depth = 0;
  uint8_t pad[2] = {};
  uint64_t pcs[kStatsShmMaxDepth] = {};  // leaf first
};

struct StatsShmStackClass {
  uint64_t hits = 0;       // pool free-list reuses
  uint64_t misses = 0;     // fresh mmaps for this class
  uint64_t evictions = 0;  // budget evictions
};

struct StatsShm {
  uint32_t magic = 0;
  uint32_t version = 0;
  int32_t pid = 0;
  uint32_t seq = 0;        // seqlock; odd while the writer is mid-update
  int64_t updated_ns = 0;  // CLOCK_MONOTONIC stamp of the last publish

  // -- thread population (blocked = live - ready - 1 running; O(1), no thread walk) --------
  uint32_t live_threads = 0;
  uint32_t ready_threads = 0;
  uint32_t blocked_threads = 0;
  uint32_t sample_hz = 0;

  // -- kernel counters ----------------------------------------------------------------------
  uint64_t ctx_switches = 0;
  uint64_t dispatches = 0;
  uint64_t preemptions = 0;
  uint64_t kernel_entries = 0;
  uint64_t deferred_signals = 0;

  // -- profiler -----------------------------------------------------------------------------
  uint64_t samples_oncpu = 0;
  uint64_t samples_offcpu = 0;   // off-CPU wake records
  uint64_t samples_dropped = 0;  // ring-full + drain-window drops
  uint64_t offcpu_blocked_ns = 0;

  // -- stack pool ---------------------------------------------------------------------------
  uint64_t pool_mapped_bytes = 0;     // live + free reservations
  uint64_t pool_mapped_hw_bytes = 0;  // high-water of the above
  uint64_t pool_free_bytes = 0;
  uint64_t pool_budget_bytes = 0;
  uint64_t stack_reuses = 0;
  uint64_t stack_maps = 0;
  uint64_t lazy_commits = 0;
  StatsShmStackClass classes[kStatsShmStackClasses];

  // -- io readiness core --------------------------------------------------------------------
  uint64_t io_waits = 0;
  uint64_t io_wakeups = 0;
  uint64_t io_cache_hits = 0;
  uint64_t io_cache_misses = 0;
  int32_t io_active_waiters = 0;
  int32_t io_cached_fds = 0;

  StatsShmStack top_oncpu[kStatsShmTopStacks];
  StatsShmStack top_offcpu[kStatsShmTopStacks];
};

// The file is sized to one comfortable power of two; the layout must stay within it.
inline constexpr uint64_t kStatsShmSize = 8192;
static_assert(sizeof(StatsShm) <= kStatsShmSize, "StatsShm outgrew the segment size");

}  // namespace fsup::debug

#endif  // FSUP_SRC_DEBUG_STATS_SHM_HPP_
