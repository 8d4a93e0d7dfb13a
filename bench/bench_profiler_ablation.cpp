// Profiler-hook ablation: proves the profiler PR's "disabled hooks are free" claim with
// numbers instead of prose, and prices the enabled modes.
//
//   A — the shipped kernel crossing PLUS the two probe sites of the dispatcher's block/wake
//       path: kernel::Enter, then the kSuspend + kReady emits exactly as kernel::Suspend and
//       kernel::MakeReady execute them (each is one load of the probe subscriber mask and one
//       predicted-untaken branch when nothing subscribes), then kernel::Exit.
//   B — the pre-PR baseline: the identical kernel::Enter/kernel::Exit crossing with no hook
//       branches. Both sides run the same shipped Enter/Exit code, so the only delta between
//       A and B is the pair of gate branches themselves.
//
// A and B are measured with the paper's dual-loop methodology in interleaved trials (ABBA…
// alternation so drift hits both alike) and compared with Welch's criterion. For context, the
// enabled costs are reported too: the off-CPU attribution price per block/wake cycle on a
// two-thread semaphore ping-pong, and the on-CPU per-sample price (bounded frame walk + fold)
// on the tick-sampling path.
//
// Writes BENCH_profile.json (override with FSUP_PROFILE_JSON). FSUP_PROFILE_SMOKE=1 shrinks
// every dimension for the ctest smoke run.

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/core/pthread.hpp"
#include "src/debug/probe.hpp"
#include "src/debug/profiler.hpp"
#include "src/debug/replay.hpp"
#include "src/kernel/kernel.hpp"
#include "src/util/dual_loop_timer.hpp"
#include "src/util/stats.hpp"

namespace fsup {
namespace {

bool Smoke() {
  const char* v = std::getenv("FSUP_PROFILE_SMOKE");
  return v != nullptr && v[0] == '1';
}

double MeasureHooked(int64_t iters) {
  DualLoopTimer t(iters, 1);
  return t.MeasureNs([] {
    kernel::Enter();
    Tcb* self = kernel::ks().current;
    // The exact added instructions: Suspend's probe and MakeReady's probe, mask clear.
    debug::probe::Emit(debug::probe::Event::kSuspend, self, self->id);
    debug::probe::Emit(debug::probe::Event::kReady, self, self->id);
    kernel::Exit();
  });
}

double MeasureBaseline(int64_t iters) {
  DualLoopTimer t(iters, 1);
  return t.MeasureNs([] {
    kernel::Enter();
    Tcb* self = kernel::ks().current;
    (void)self;
    kernel::Exit();
  });
}

// -- off-CPU context: a ping-pong where every iteration blocks and wakes twice -----------

struct PingPong {
  pt_sem_t to_echo;
  pt_sem_t to_main;
  int64_t rounds = 0;
};

void* EchoThread(void* arg) {
  auto* pp = static_cast<PingPong*>(arg);
  for (int64_t i = 0; i < pp->rounds; ++i) {
    pt_sem_wait(&pp->to_echo);
    pt_sem_post(&pp->to_main);
  }
  return nullptr;
}

// Mean ns per round trip (2 blocks + 2 wakes + 2 context switches).
double MeasurePingPong(int64_t rounds) {
  PingPong pp;
  pp.rounds = rounds;
  pt_sem_init(&pp.to_echo, 0);
  pt_sem_init(&pp.to_main, 0);
  pt_thread_t echo = nullptr;
  pt_create(&echo, nullptr, EchoThread, &pp);
  DualLoopTimer t(rounds, 1);
  const double ns = t.MeasureNs([&] {
    pt_sem_post(&pp.to_echo);
    pt_sem_wait(&pp.to_main);
  });
  pt_join(echo, nullptr);
  pt_sem_destroy(&pp.to_echo);
  pt_sem_destroy(&pp.to_main);
  return ns;
}

// -- on-CPU context: per-sample cost of the sample machinery itself ----------------------
//
// ITIMER_PROF delivery is jiffy-limited (~250 Hz effective on a stock kernel), so a timed
// burn cannot accumulate enough samples to resolve microsecond-scale per-sample cost above
// run-to-run noise. Price the path directly instead: under a recording session the profiler
// runs in tick-sampling mode, and profiler::OnTick() is the exact shipped sample path (gate,
// bounded frame walk, in-kernel fold into the fixed table). Driving it from an Enter/Exit
// loop and subtracting the bare crossing isolates one sample's cost.

double MeasureTickSample(int64_t iters) {
  DualLoopTimer t(iters, 1);
  return t.MeasureNs([] {
    kernel::Enter();
    debug::profiler::OnTick();
    kernel::Exit();
  });
}

void Report(const char* label, const Stats& s) {
  std::printf("  %-34s mean %7.3f ns  stddev %6.3f  min %7.3f  max %7.3f  (n=%lld)\n",
              label, s.mean(), s.stddev(), s.min(), s.max(),
              static_cast<long long>(s.count()));
}

}  // namespace
}  // namespace fsup

int main() {
  using namespace fsup;
  pt_init();

  const bool smoke = Smoke();
  const int64_t iters = smoke ? 100'000 : 1'000'000;
  const int trials = smoke ? 4 : 12;  // interleaved pairs
  const int64_t rounds = smoke ? 2'000 : 20'000;
  const int64_t burn_iters = smoke ? 200'000 : 2'000'000;

  // Warm both paths (settle predictors, fault in the kernel state).
  MeasureHooked(iters);
  MeasureBaseline(iters);

  Stats a, b;
  for (int t = 0; t < trials; ++t) {
    // ABBA alternation: slow drift (thermal, scheduling) biases both sides equally.
    if (t % 2 == 0) {
      a.Add(MeasureHooked(iters));
      b.Add(MeasureBaseline(iters));
    } else {
      b.Add(MeasureBaseline(iters));
      a.Add(MeasureHooked(iters));
    }
  }

  // Context 1: off-CPU attribution price per block/wake round trip.
  MeasurePingPong(rounds);  // warm
  Stats off, on;
  const int ctx_trials = smoke ? 2 : 4;
  for (int t = 0; t < ctx_trials; ++t) {
    off.Add(MeasurePingPong(rounds));
    pt_profile_start(997);
    on.Add(MeasurePingPong(rounds));
    pt_profile_stop();
  }

  // Context 2: on-CPU per-sample price via the tick-sampling path. Recording mode arms tick
  // sampling (no itimer, no collector); both sides of the subtraction run under the same
  // recording session so the replay-gate branches cancel. Sample counts are cumulative, so
  // take a delta.
  debug::replay::StartRecording();
  const uint64_t samples_before = pt_profile_samples();
  pt_profile_start(0);
  MeasureTickSample(burn_iters / 4);  // warm
  const double tick_ns = MeasureTickSample(burn_iters);
  const double crossing_ns = MeasureBaseline(burn_iters);
  pt_profile_stop();
  const uint64_t samples = pt_profile_samples() - samples_before;
  debug::replay::StopRecording();
  const double per_sample_ns = tick_ns - crossing_ns;

  std::printf("Profiler ablation — kernel crossing + block/wake hook gates, dual-loop, %d "
              "interleaved trials x %lld iters\n\n",
              trials, static_cast<long long>(iters));
  Report("A: shipped, hooks gated off", a);
  Report("B: pre-PR crossing, no hooks", b);

  const double n = static_cast<double>(a.count());
  const double diff = std::fabs(a.mean() - b.mean());
  const double se = std::sqrt(a.variance() / n + b.variance() / n);
  const double rel = b.mean() > 0 ? diff / b.mean() : 0.0;
  std::printf("\n  |A-B| = %.3f ns, combined stderr = %.3f ns, relative = %.2f%%\n", diff, se,
              rel * 100.0);
  // Welch criterion at ~2.5 sigma, with a floor for sub-noise clock granularity.
  const bool indistinguishable = diff <= 2.5 * se || diff < 0.25 || rel < 0.02;
  std::printf("  verdict: disabled-hook cost is %s from the pre-PR baseline\n",
              indistinguishable ? "statistically INDISTINGUISHABLE"
                                : "DISTINGUISHABLE (hook overhead detected)");

  std::printf("\nContext — off-CPU attribution, semaphore ping-pong (%lld round trips, "
              "2 blocks + 2 wakes each):\n",
              static_cast<long long>(rounds));
  Report("ping-pong, profiler off", off);
  Report("ping-pong, off-CPU PROFILING", on);
  const double per_cycle = (on.mean() - off.mean()) / 2.0;
  std::printf("  attribution overhead: %.3f ns/round trip (%.3f ns per block/wake cycle)\n",
              on.mean() - off.mean(), per_cycle);

  std::printf("\nContext — on-CPU sample path (tick mode, %lld samples): %.1f ns/sample "
              "(walk + fold; bare crossing %.1f ns subtracted)\n",
              static_cast<long long>(samples), per_sample_ns, crossing_ns);

  const char* jp = std::getenv("FSUP_PROFILE_JSON");
  const char* json_path = jp != nullptr && jp[0] != '\0' ? jp : "BENCH_profile.json";
  if (FILE* f = std::fopen(json_path, "w"); f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"profiler_ablation\",\n"
                 "  \"smoke\": %s,\n"
                 "  \"hooks_off_ns\": %.4f,\n"
                 "  \"baseline_ns\": %.4f,\n"
                 "  \"diff_ns\": %.4f,\n"
                 "  \"stderr_ns\": %.4f,\n"
                 "  \"relative\": %.5f,\n"
                 "  \"indistinguishable\": %s,\n"
                 "  \"offcpu_ns_per_block_wake\": %.2f,\n"
                 "  \"oncpu_samples\": %llu,\n"
                 "  \"oncpu_ns_per_sample\": %.1f\n"
                 "}\n",
                 smoke ? "true" : "false", a.mean(), b.mean(), diff, se, rel,
                 indistinguishable ? "true" : "false", per_cycle,
                 static_cast<unsigned long long>(samples), per_sample_ns);
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);
  }
  return 0;
}
