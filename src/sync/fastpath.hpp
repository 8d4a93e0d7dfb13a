// Fast-path mode selector: the one byte every kernel-bypassing sync operation reads.
//
// ISSUE 9: the uncontended lock/unlock, trylock and signal-with-no-waiters paths never enter
// the kernel monitor. Whether they are allowed to bypass it is a global property — tracing
// wants every event logged from inside the monitor, metrics bracket hold times on the kernel
// path, and the perverted mutex-switch policy hooks every successful lock — so instead of
// re-deriving those predicates per operation (three loads and branches on the hottest path in
// the library), they are folded into a single mode byte recomputed whenever any of the inputs
// changes. The hot-path cost of all observability gates together is then exactly one load and
// one predicted branch, as the metrics/replay ablations demand.
//
//   FSUP_FASTPATH=0|off  — kill switch: every operation takes today's all-kernel path
//   FSUP_FASTPATH=ras|1  — restartable-sequence acquire (paper Fig. 4; the default)
//
// The requested mode is what the user asked for; the ACTIVE mode is the requested mode
// demoted to kOff while tracing, metrics, a perverted policy or a schedule perturbation is
// live. Recompute() is called from every toggle (probe::Subscribe, sched::SetPolicy, the
// replay module's perturbation setters, EnsureInit).

#ifndef FSUP_SRC_SYNC_FASTPATH_HPP_
#define FSUP_SRC_SYNC_FASTPATH_HPP_

#include <cstdint>

namespace fsup::sync::fastpath {

enum class Mode : uint8_t {
  kOff = 0,
  kRas = 1,
};

// The active mode, read by the hot paths. Plain byte: mode changes happen in user context
// on the one OS thread the whole library runs on, so no atomicity is needed.
extern uint8_t g_active;

inline bool Enabled() { return g_active != 0; }
inline Mode Active() { return static_cast<Mode>(g_active); }

// Runtime selector (benches, tests, the FSUP_FASTPATH env). Calls Recompute().
void SetRequested(Mode m);
Mode Requested();

// Re-derives the active byte: requested, demoted to kOff while tracing, metrics, a perverted
// scheduling policy or a schedule perturbation is enabled.
void Recompute();

// Parses FSUP_FASTPATH (unset/empty = ras) into the requested mode. kernel::EnsureInit calls
// it on the first init only; a direct call re-reads the environment.
void InitFromEnv();

}  // namespace fsup::sync::fastpath

#endif  // FSUP_SRC_SYNC_FASTPATH_HPP_
