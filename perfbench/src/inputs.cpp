#include "perfbench/src/inputs.hpp"

#include <cmath>

namespace perfbench::inputs {

namespace {

// Distinct streams per workload, so one seed does not give correlated inputs across them.
constexpr uint64_t kRendezvousStream = 0x72656e64657a766full;
constexpr uint64_t kEchoStream = 0x6563686f00000000ull;
constexpr uint64_t kLifecycleStream = 0x6c6966656379636cull;

}  // namespace

uint32_t Rng::LogUniform(uint32_t lo, uint32_t hi) {
  const double v = std::exp(std::log(lo) + Unit() * (std::log(hi) - std::log(lo)));
  const auto r = static_cast<uint32_t>(v);
  return r < lo ? lo : (r > hi ? hi : r);
}

int64_t EntryBody(int64_t x, uint32_t work) {
  uint64_t h = static_cast<uint64_t>(x);
  for (uint32_t i = 0; i < work; ++i) {
    h = h * 6364136223846793005ull + 1442695040888963407ull;
    h ^= h >> 29;
  }
  return static_cast<int64_t>(h >> 1);
}

RendezvousInputs MakeRendezvous(uint64_t seed) {
  Rng rng(seed ^ kRendezvousStream);
  RendezvousInputs in;
  in.calls.resize(static_cast<size_t>(kCallers) * kCallsPerCaller);
  for (auto& c : in.calls) {
    c.entry = static_cast<uint8_t>(rng.Below(kEntries));
    c.work = rng.Below(kMaxBodyWork + 1);
    c.x = static_cast<int64_t>(rng.Next() >> 2);
    c.expected = EntryBody(c.x, c.work);
  }
  return in;
}

EchoInputs MakeEcho(uint64_t seed) {
  Rng rng(seed ^ kEchoStream);
  EchoInputs in;
  in.pool.resize(kPayloadPool);
  for (auto& b : in.pool) {
    b = static_cast<uint8_t>(rng.Next());
  }
  in.messages.resize(static_cast<size_t>(kConnections) * kMessagesPerConnection);
  for (auto& m : in.messages) {
    m.len = rng.LogUniform(kMinMessage, kMaxMessage);
    m.offset = rng.Below(static_cast<uint32_t>(kPayloadPool - m.len + 1));
  }
  return in;
}

uintptr_t ExpectedReturn(uint32_t value) { return (uintptr_t{value} << 4) | 0x5; }

bool Waits(Fate f) { return f == Fate::kWait || f == Fate::kKillWaiting || f == Fate::kCancel; }

bool Killed(Fate f) { return f == Fate::kKillReady || f == Fate::kKillWaiting; }

LifecycleInputs MakeLifecycle(uint64_t seed) {
  Rng rng(seed ^ kLifecycleStream);
  LifecycleInputs in;
  in.waves.resize(kWaves);
  for (auto& w : in.waves) {
    w.first = static_cast<uint32_t>(in.threads.size());
    w.count = rng.LogUniform(kMinWave, kMaxWave);
    // Seeded per-wave shares of signalled, cancelled and waiting threads.
    const double kill = 0.04 + 0.08 * rng.Unit();
    const double cancel = 0.04 + 0.08 * rng.Unit();
    const double wait = 0.10 + 0.20 * rng.Unit();
    for (uint32_t i = 0; i < w.count; ++i) {
      ThreadPlan t;
      t.stack_size = 1u << (kMinStackShift + rng.Below(kMaxStackShift - kMinStackShift + 1));
      t.value = static_cast<uint32_t>(rng.Next());
      t.pop_execute = (rng.Next() & 1) != 0;
      const double u = rng.Unit();
      if (u < kill / 2) {
        t.fate = Fate::kKillReady;
      } else if (u < kill) {
        t.fate = Fate::kKillWaiting;
      } else if (u < kill + cancel) {
        t.fate = Fate::kCancel;
      } else if (u < kill + cancel + wait) {
        t.fate = Fate::kWait;
      } else {
        t.fate = Fate::kPlain;
      }
      in.threads.push_back(t);
    }
  }
  return in;
}

}  // namespace perfbench::inputs
