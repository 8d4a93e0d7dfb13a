// The runtime counter block behind every stats view (paper, Future Work: "Information could
// be extracted from the thread control block and made available to the user").
//
// pt_metrics_snapshot, pt_metrics_dump, pt_dump_threads, the FSUP_STATS_SHM segment and
// tools/fsup_top all carry and print this one block: FSUP_DEBUG_COUNTERS names every field
// once, ReadCounters fills it, PrintCounters prints it. The header is freestanding (<cstdint>
// only) because fsup_top compiles it without linking the library.

#ifndef FSUP_SRC_DEBUG_COUNTERS_HPP_
#define FSUP_SRC_DEBUG_COUNTERS_HPP_

#include <cstdint>

namespace fsup::debug {

inline constexpr int kPoolClasses = 10;                // == StackPool::kNumClasses
inline constexpr uint64_t kPoolClassMinBytes = 16384;  // == kMinStackSize; classes step pow2

// fsup::BlockReason names by raw value; ToString(BlockReason) static_asserts the count.
inline constexpr const char* kBlockReasonNames[] = {"none",    "mutex", "cond", "join",
                                                    "sigwait", "delay", "io",   "lazy"};

inline const char* BlockReasonName(unsigned r) {
  return r < sizeof(kBlockReasonNames) / sizeof(kBlockReasonNames[0]) ? kBlockReasonNames[r]
                                                                      : "?";
}

// The one list, in print order: L(line) opens a printed line, X(field) is a counter printed
// as "field=value".
#define FSUP_DEBUG_COUNTERS(L, X)                                          \
  L(kernel)                                                                \
  X(live_threads)                                                          \
  X(ready_threads)                                                         \
  X(ctx_switches)                                                          \
  X(dispatches)                                                            \
  X(preemptions)                                                           \
  X(deferred_signals)                                                      \
  X(forced_switches)                                                       \
  X(kernel_entries)                                                        \
  X(ras_restarts)         /* since process start */                        \
  L(io)                                                                    \
  X(io_waits)                                                              \
  X(io_wakeups)                                                            \
  X(io_cache_hits)        /* waits that made no epoll_ctl call */          \
  X(io_cache_misses)                                                       \
  X(io_demotions)                                                          \
  X(io_probes)                                                             \
  X(io_active_waiters)                                                     \
  X(io_cached_fds)                                                         \
  L(pool)                                                                  \
  X(pool_mapped_bytes)    /* live + free reservations */                   \
  X(pool_mapped_hw_bytes) /* lifetime high-water of the above */           \
  X(pool_free_bytes)                                                       \
  X(pool_free_stacks)                                                      \
  X(pool_budget_bytes)                                                     \
  X(stack_reuses)                                                          \
  X(stack_maps)                                                            \
  X(stack_alloc_failures)                                                  \
  X(lazy_commits)         /* SIGSEGV demand-commit faults */

struct PoolClassCounters {
  uint64_t hits = 0;       // free-list reuses
  uint64_t misses = 0;     // fresh maps
  uint64_t evictions = 0;  // budget evictions
};

struct Counters {
#define FSUP_COUNTER_LINE(line)
#define FSUP_COUNTER_FIELD(name) uint64_t name = 0;
  FSUP_DEBUG_COUNTERS(FSUP_COUNTER_LINE, FSUP_COUNTER_FIELD)
#undef FSUP_COUNTER_FIELD
#undef FSUP_COUNTER_LINE
  PoolClassCounters pool_classes[kPoolClasses];  // class c holds kPoolClassMinBytes << c
};

// Fills *out from the kernel state, the io core and the stack pool. A plain read that does
// not enter the kernel: each caller holds whatever exclusion its view needs.
// Async-signal-safe.
void ReadCounters(Counters* out);

// Prints c as one "  <line>: name=value ..." line per line group, then one
// "    class[i] (<size>K): hits= misses= evictions=" line per size class that saw traffic.
// put(const char*) receives the text piecewise. Async-signal-safe when put is: no stdio,
// no allocation.
template <class Put>
void PrintCounters(const Counters& c, Put put) {
  auto num = [&](uint64_t v) {
    char digits[21];
    char* p = digits + sizeof(digits);
    *--p = '\0';
    do {
      *--p = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    put(p);
  };
  const char* sep = "  ";
#define FSUP_COUNTER_LINE(line) \
  put(sep);                     \
  put(#line ":");               \
  sep = "\n  ";
#define FSUP_COUNTER_PRINT(name) \
  put(" " #name "=");            \
  num(c.name);
  FSUP_DEBUG_COUNTERS(FSUP_COUNTER_LINE, FSUP_COUNTER_PRINT)
#undef FSUP_COUNTER_PRINT
#undef FSUP_COUNTER_LINE
  put("\n");
  for (int i = 0; i < kPoolClasses; ++i) {
    const PoolClassCounters& pc = c.pool_classes[i];
    if (pc.hits == 0 && pc.misses == 0 && pc.evictions == 0) {
      continue;  // only classes that saw traffic — all-zero rows are noise
    }
    put("    class[");
    num(static_cast<uint64_t>(i));
    put("] (");
    num((kPoolClassMinBytes << i) / 1024);
    put("K): hits=");
    num(pc.hits);
    put(" misses=");
    num(pc.misses);
    put(" evictions=");
    num(pc.evictions);
    put("\n");
  }
}

}  // namespace fsup::debug

#endif  // FSUP_SRC_DEBUG_COUNTERS_HPP_
