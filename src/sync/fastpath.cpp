#include "src/sync/fastpath.hpp"

#include <cstdlib>
#include <cstring>

#include "src/debug/probe.hpp"
#include "src/debug/replay.hpp"
#include "src/kernel/kernel.hpp"

namespace fsup::sync::fastpath {
namespace {

Mode g_requested = Mode::kRas;

}  // namespace

uint8_t g_active = static_cast<uint8_t>(Mode::kRas);

void Recompute() {
  Mode active = g_requested;
  // Any observer that needs to see every sync operation forces the kernel path: tracing logs
  // from inside the monitor, metrics bracket hold times there, the perverted mutex-switch
  // policy hooks each successful lock, and an armed schedule perturbation needs every lock and
  // unlock to pass a kernel-exit gate. Off-CPU profiling does NOT demote the mode — it books
  // only at Suspend, which a fast-path operation by definition never reaches — and neither
  // does the on-CPU sampler, which rides the universal signal handler (that restarts an
  // interrupted fast-path sequence like any other signal).
  if (debug::probe::Subscribed(debug::probe::kTrace | debug::probe::kMetrics) ||
      kernel::ks().perverted != PervertedPolicy::kNone || debug::replay::Perturbing()) {
    active = Mode::kOff;
  }
  g_active = static_cast<uint8_t>(active);
}

void SetRequested(Mode m) {
  g_requested = m;
  Recompute();
}

Mode Requested() { return g_requested; }

void InitFromEnv() {
  const char* v = std::getenv("FSUP_FASTPATH");
  Mode m = Mode::kRas;
  if (v != nullptr && v[0] != '\0') {
    if (std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0) {
      m = Mode::kOff;
    }  // "1", "ras", and anything else keep the default
  }
  g_requested = m;
  Recompute();
}

}  // namespace fsup::sync::fastpath
