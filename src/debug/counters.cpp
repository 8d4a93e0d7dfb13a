#include "src/debug/counters.hpp"

#include "src/arch/ras.hpp"
#include "src/io/io.hpp"
#include "src/kernel/kernel.hpp"
#include "src/kernel/stack_pool.hpp"

namespace fsup::debug {

static_assert(kPoolClasses == StackPool::kNumClasses, "counter block and pool disagree");
static_assert(kPoolClassMinBytes == kMinStackSize, "counter block and pool disagree");

void ReadCounters(Counters* out) {
  *out = Counters{};
  const KernelState& k = kernel::ks();
  out->live_threads = k.live_threads;
  out->ready_threads = k.ready.size();
  out->ctx_switches = k.ctx_switches;
  out->dispatches = k.dispatches;
  out->preemptions = k.preemptions;
  out->deferred_signals = k.deferred_signals;
  out->forced_switches = k.forced_switches;
  out->kernel_entries = k.kernel_entries;
  out->ras_restarts = ras::RestartCount();

  const io::IoStats io = io::GetStats();
  out->io_waits = io.waits;
  out->io_wakeups = io.wakeups;
  out->io_cache_hits = io.cache_hits;
  out->io_cache_misses = io.cache_misses;
  out->io_demotions = io.demotions;
  out->io_probes = io.probes;
  out->io_active_waiters = static_cast<uint64_t>(io.active_waiters);
  out->io_cached_fds = static_cast<uint64_t>(io.cached_fds);

  if (k.pool == nullptr) {
    return;  // before init
  }
  const StackPool& pool = *k.pool;
  out->pool_mapped_bytes = pool.mapped_bytes();
  out->pool_mapped_hw_bytes = pool.mapped_hw_bytes();
  out->pool_free_bytes = pool.pooled_bytes();
  out->pool_free_stacks = pool.pooled_stacks();
  out->pool_budget_bytes = pool.pool_budget_bytes();
  out->stack_reuses = pool.stack_reuses();
  out->stack_maps = pool.stack_maps();
  out->stack_alloc_failures = pool.alloc_failures();
  out->lazy_commits = pool.lazy_commits();
  for (int c = 0; c < kPoolClasses; ++c) {
    out->pool_classes[c] = pool.class_stats(c);
  }
}

}  // namespace fsup::debug
