#include "src/debug/profiler.hpp"

#include <sys/time.h>
#include <ucontext.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/core/pthread.hpp"
#include "src/debug/probe.hpp"
#include "src/debug/replay.hpp"
#include "src/debug/stats_shm.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/kernel/kernel.hpp"
#include "src/util/dual_loop_timer.hpp"
#include "src/util/log.hpp"

// glibc records the main thread's stack top here at startup; it is the only reliable upper
// walk bound for the main stack (the kernel grows it downward, /proc parsing is not
// signal-safe). Library stacks carry their own bounds in the TCB.
extern "C" void* __libc_stack_end;

namespace fsup::debug::profiler {

bool g_tick_sampling = false;
volatile bool g_signal_sampling = false;

namespace {

static_assert(kStatsShmMaxDepth == TcbProfile::kMaxDepth,
              "shm layout and TCB capture disagree on the off-CPU depth");

// ---------------------------------------------------------------------------------------------
// The sample ring. Its one writer is the SIGPROF sampler, which runs with every signal
// blocked, so it never nests; it drops when the ring is full. The collector drains in-kernel
// under the g_draining flag, which the sampler sees and skips. The in-kernel emitters (tick
// sampling, off-CPU wakes) bypass the ring and fold straight into the aggregates.
// ---------------------------------------------------------------------------------------------

constexpr int kMaxDepth = 24;   // on-CPU frames kept per sample
constexpr int kRingCap = 4096;  // SIGPROF samples buffered between collector drains

struct Sample {
  uint64_t weight;  // on-CPU: 1; off-CPU: blocked nanoseconds
  uint32_t tag;     // wait-object tag (off-CPU), 0 otherwise
  uint8_t kind;     // 0 = on-CPU, 1 = off-CPU
  uint8_t reason;   // BlockReason raw value (off-CPU)
  uint8_t depth;
  uintptr_t pcs[kMaxDepth];  // leaf first
};

Sample g_ring[kRingCap];
std::atomic<uint64_t> g_committed{0};
std::atomic<uint64_t> g_read{0};     // drain cursor; sampler reads it to bound the ring
std::atomic<uint64_t> g_dropped{0};  // ring-full + drain-window + table-full drops
volatile bool g_draining = false;

void EmitSample(const Sample& s) {
  const uint64_t seq = g_committed.load(std::memory_order_relaxed);
  if (seq - g_read.load(std::memory_order_relaxed) >= kRingCap) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  g_ring[seq % kRingCap] = s;
  g_committed.store(seq + 1, std::memory_order_release);
}

// ---------------------------------------------------------------------------------------------
// Frame-pointer stack walking. The library builds with -fno-omit-frame-pointer, so a frame is
// [rbp] = caller's rbp, [rbp+8] = return address. Every dereference is bounds-checked against
// the thread's stack interval; for a lazily committed stack the lower bound is additionally
// clamped to the commit watermark, so the walker can never touch a PROT_NONE page (no
// recursion into the SIGSEGV demand-commit path). A walk that immediately fails the bounds
// check degrades to a leaf-only sample — a counted, attributable outcome, never a crash.
// ---------------------------------------------------------------------------------------------

struct WalkBounds {
  uintptr_t lo = 0;
  uintptr_t hi = 0;
};

// Bounds for walking t's stack starting at stack pointer sp. t == nullptr or a TCB without a
// library stack means the main thread, whose top glibc recorded in __libc_stack_end.
WalkBounds BoundsFor(const Tcb* t, uintptr_t sp) {
  WalkBounds b;
  if (t != nullptr && t->stack_base != nullptr) {
    b.lo = reinterpret_cast<uintptr_t>(t->stack_commit_lo);
    b.hi = reinterpret_cast<uintptr_t>(t->stack_base) + t->stack_size;
    if (sp > b.lo && sp <= b.hi) {
      b.lo = sp;  // nothing below the live SP is a frame
    }
    if (sp < b.lo || sp > b.hi) {
      return {};  // SP outside the stack (mid-switch): leaf-only sample
    }
  } else {
    b.lo = sp;
    b.hi = reinterpret_cast<uintptr_t>(__libc_stack_end);
    if (b.hi <= b.lo) {
      return {};
    }
  }
  return b;
}

int WalkFrames(uintptr_t pc, uintptr_t fp, const WalkBounds& b, uintptr_t* out, int max) {
  int n = 0;
  if (pc != 0) {
    out[n++] = pc;
  }
  if (b.hi == 0) {
    return n;
  }
  uintptr_t prev = 0;
  while (n < max) {
    if ((fp & 7) != 0 || fp < b.lo || fp + 16 > b.hi || fp <= prev) {
      break;
    }
    const uintptr_t ret = reinterpret_cast<const uintptr_t*>(fp)[1];
    const uintptr_t next = reinterpret_cast<const uintptr_t*>(fp)[0];
    if (ret < 4096) {
      break;  // not a code address: past the outermost frame
    }
    out[n++] = ret;
    prev = fp;
    fp = next;
  }
  return n;
}

// One on-CPU sample of thread t (nullptr: the main thread) stopped at pc, with frame pointer
// fp and stack pointer sp.
Sample OnCpuSample(const Tcb* t, uintptr_t pc, uintptr_t fp, uintptr_t sp) {
  Sample s = {};
  s.weight = 1;
  s.depth = static_cast<uint8_t>(WalkFrames(pc, fp, BoundsFor(t, sp), s.pcs, kMaxDepth));
  return s;
}

// ---------------------------------------------------------------------------------------------
// Aggregation (in-kernel). Each kind folds into one fixed-capacity open-addressing table: a
// dense entry array filled in first-seen order, plus a power-of-two index of entry numbers
// probed linearly from the FNV stack hash. Both tables come from one calloc the first time
// profiling starts, outside the kernel, and folds only write into them: a fold can run from the
// universal signal handler's timer tick, which may have interrupted the C library's
// non-reentrant malloc. calloc's fresh pages fault in as entries are used, so resident memory
// follows the number of distinct stacks. A stack that finds its table full counts as a drop.
// ---------------------------------------------------------------------------------------------

constexpr uint32_t kMaxStacks = 65536;          // per kind
constexpr uint32_t kIndexSlots = 2 * kMaxStacks;  // power of two; load factor <= 1/2

struct Agg {
  uint64_t hash;
  uint64_t weight;
  uint64_t count;
  uint32_t tag;
  uint32_t slot;  // index slot naming this entry, so a reset clears only what was used
  uint8_t reason;
  uint8_t depth;
  uintptr_t pcs[kMaxDepth];
};

struct Table {
  Agg entries[kMaxStacks];
  uint32_t index[kIndexSlots];  // entry number + 1; 0 = empty
  uint32_t used;
};

Table* g_tables = nullptr;  // [2], by Sample::kind

uint64_t HashSample(const Sample& s) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(s.kind);
  mix(s.tag);
  mix(s.reason);
  mix(s.depth);
  for (int i = 0; i < s.depth; ++i) {
    mix(s.pcs[i]);
  }
  return h;
}

uint64_t g_kernel_samples = 0;   // samples the in-kernel emitters folded without the ring
uint64_t g_offcpu_samples = 0;   // off-CPU wake records folded
uint64_t g_offcpu_blocked = 0;   // total blocked ns folded

void Fold(const Sample& s) {
  Table& t = g_tables[s.kind];
  const uint64_t h = HashSample(s);
  uint32_t slot = static_cast<uint32_t>(h) & (kIndexSlots - 1);
  while (t.index[slot] != 0 && t.entries[t.index[slot] - 1].hash != h) {
    slot = (slot + 1) & (kIndexSlots - 1);
  }
  if (t.index[slot] == 0) {
    if (t.used == kMaxStacks) {
      g_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    t.entries[t.used] = Agg{h, 0, 0, s.tag, slot, s.reason, s.depth, {}};
    std::memcpy(t.entries[t.used].pcs, s.pcs, sizeof(uintptr_t) * s.depth);
    t.index[slot] = ++t.used;
  }
  Agg& a = t.entries[t.index[slot] - 1];
  a.weight += s.weight;
  a.count += 1;
  if (s.kind != 0) {
    ++g_offcpu_samples;
    g_offcpu_blocked += s.weight;
  }
}

// Drains [g_read, committed) into the aggregates. In-kernel only.
void DrainRing() {
  g_draining = true;
  std::atomic_signal_fence(std::memory_order_seq_cst);
  const uint64_t committed = g_committed.load(std::memory_order_acquire);
  for (uint64_t i = g_read.load(std::memory_order_relaxed); i != committed; ++i) {
    Fold(g_ring[i % kRingCap]);
  }
  g_read.store(committed, std::memory_order_relaxed);
  std::atomic_signal_fence(std::memory_order_seq_cst);
  g_draining = false;
}

// ---------------------------------------------------------------------------------------------
// Session state
// ---------------------------------------------------------------------------------------------

bool g_active = false;
bool g_itimer_armed = false;  // live mode: ITIMER_PROF owns the sampling cadence
int g_hz = kDefaultHz;
uint32_t g_session = 0;  // stamps off-CPU captures; stale captures are ignored
bool g_collector_stop = false;
pt_thread_t g_collector = nullptr;

StatsShm* g_shm = nullptr;

// Perfetto counter tracks: one point per collection period, fixed overwrite ring.
CounterPoint g_counter_ring[kCounterPoints];
uint64_t g_counter_total = 0;

constexpr int64_t kCollectPeriodNs = 20 * 1000 * 1000;

void TopStacks(const Table& t, StatsShmStack* out, int n) {
  for (int i = 0; i < n; ++i) {
    out[i] = StatsShmStack{};
  }
  for (uint32_t e = 0; e < t.used; ++e) {
    const Agg& a = t.entries[e];
    // Insertion sort into the fixed top-N array, descending by weight.
    int slot = n;
    while (slot > 0 && a.weight > out[slot - 1].weight) {
      --slot;
    }
    if (slot >= n) {
      continue;
    }
    for (int j = n - 1; j > slot; --j) {
      out[j] = out[j - 1];
    }
    StatsShmStack& s = out[slot];
    s.weight = a.weight;
    s.count = a.count;
    s.tag = a.tag;
    s.reason = a.reason;
    s.depth = a.depth < kStatsShmMaxDepth ? a.depth : kStatsShmMaxDepth;
    for (int j = 0; j < s.depth; ++j) {
      s.pcs[j] = a.pcs[j];
    }
  }
}

// Publishes one seqlock-versioned frame into the shared segment. In-kernel (single writer).
void PublishShm(const CounterPoint& p) {
  if (g_shm == nullptr) {
    return;
  }
  StatsShm* s = g_shm;
  const uint32_t seq = __atomic_load_n(&s->seq, __ATOMIC_RELAXED);
  __atomic_store_n(&s->seq, seq + 1, __ATOMIC_RELAXED);  // odd: update in progress
  __atomic_thread_fence(__ATOMIC_RELEASE);

  s->updated_ns = p.t_ns;
  s->counters = p.counters;
  s->sample_hz = static_cast<uint32_t>(g_hz);

  s->samples_offcpu = g_offcpu_samples;
  s->samples_oncpu = p.samples >= g_offcpu_samples ? p.samples - g_offcpu_samples : 0;
  s->samples_dropped = g_dropped.load(std::memory_order_relaxed);
  s->offcpu_blocked_ns = g_offcpu_blocked;

  TopStacks(g_tables[0], s->top_oncpu, kStatsShmTopStacks);
  TopStacks(g_tables[1], s->top_offcpu, kStatsShmTopStacks);

  __atomic_thread_fence(__ATOMIC_RELEASE);
  __atomic_store_n(&s->seq, seq + 2, __ATOMIC_RELEASE);  // even: frame consistent
}

// One collection period: drain, stamp a counter point, republish the shm frame. In-kernel.
void CollectOnce() {
  DrainRing();
  CounterPoint& p = g_counter_ring[g_counter_total++ % kCounterPoints];
  p.t_ns = NowNs();
  ReadCounters(&p.counters);
  p.samples = SampleCount();
  PublishShm(p);
}

void* CollectorMain(void*) {
  while (!g_collector_stop) {
    pt_delay(kCollectPeriodNs);
    kernel::Enter();
    CollectOnce();
    kernel::Exit();
  }
  return nullptr;
}

int ArmItimer(int hz) {
  int64_t usec = 1000000 / (hz > 0 ? hz : 1);
  if (usec < 1) {
    usec = 1;
  }
  itimerval v = {};
  v.it_interval.tv_sec = usec / 1000000;
  v.it_interval.tv_usec = usec % 1000000;
  v.it_value = v.it_interval;
  return hostos::Setitimer(ITIMER_PROF, &v, nullptr);
}

void DisarmItimer() {
  itimerval off = {};
  hostos::Setitimer(ITIMER_PROF, &off, nullptr);
}

void ResetSession() {
  g_read.store(g_committed.load(std::memory_order_relaxed),
               std::memory_order_relaxed);  // discard unconsumed samples
  g_dropped.store(0, std::memory_order_relaxed);
  for (Table* t = g_tables; t != g_tables + 2; ++t) {
    for (uint32_t e = 0; e < t->used; ++e) {
      t->index[t->entries[e].slot] = 0;
    }
    t->used = 0;
  }
  g_offcpu_samples = 0;
  g_offcpu_blocked = 0;
  g_counter_total = 0;
  ++g_session;
}

// ---------------------------------------------------------------------------------------------
// Folded-stacks output
// ---------------------------------------------------------------------------------------------

void WriteFolded(FILE* f, const Agg& a, bool offcpu) {
  // Root first, leaf last — the orientation flamegraph.pl expects. PCs are raw hex frame
  // names; the .maps sidecar lets an offline script rewrite them into symbols.
  for (int i = a.depth - 1; i >= 0; --i) {
    std::fprintf(f, "%s0x%zx", i == a.depth - 1 ? "" : ";", a.pcs[i]);
  }
  if (a.depth == 0) {
    std::fputs("[unknown]", f);
  }
  uint64_t value = a.weight;
  if (offcpu) {
    // Leaf frame names the wait object; the value column is blocked microseconds.
    const char* reason = ToString(static_cast<BlockReason>(a.reason));
    if (a.tag != 0) {
      std::fprintf(f, ";%s#%u", reason, a.tag);
    } else {
      std::fprintf(f, ";%s", reason);
    }
    value = a.weight / 1000;
    if (value == 0) {
      value = 1;
    }
  }
  std::fprintf(f, " %llu\n", static_cast<unsigned long long>(value));
}

// Closes f, returning 0, or the errno of a failed close (EIO for an earlier write error).
int CloseChecked(FILE* f) {
  if (std::ferror(f) != 0) {
    std::fclose(f);
    return EIO;
  }
  if (std::fclose(f) != 0) {
    return errno != 0 ? errno : EIO;
  }
  return 0;
}

int WriteFoldedFile(const char* path, const Agg* aggs, uint32_t n, bool offcpu) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    return errno;
  }
  for (uint32_t i = 0; i < n; ++i) {
    WriteFolded(f, aggs[i], offcpu);
  }
  return CloseChecked(f);
}

int CopyMapsSidecar(const char* path) {
  FILE* in = std::fopen("/proc/self/maps", "r");
  if (in == nullptr) {
    return errno;
  }
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    const int err = errno;
    std::fclose(in);
    return err;
  }
  char buf[4096];
  for (size_t n; (n = std::fread(buf, 1, sizeof buf, in)) > 0;) {
    std::fwrite(buf, 1, n, out);  // a failure shows in CloseChecked's ferror
  }
  std::fclose(in);
  return CloseChecked(out);
}

// FSUP_PROFILE_FILE: dump at process exit, same pattern as FSUP_TRACE_FILE.
char g_atexit_path[512] = {};

void AtExitDump() {
  if (g_atexit_path[0] != '\0') {
    Dump(g_atexit_path);
  }
}

}  // namespace

// ---------------------------------------------------------------------------------------------
// Hot-path hooks
// ---------------------------------------------------------------------------------------------

void OnSuspend(Tcb* t) {
  TcbProfile& p = t->profile;
  p.session = g_session;
  p.block_since_ns = NowNs();
  p.block_reason = static_cast<uint8_t>(t->block_reason);
  p.block_tag = 0;
  if (t->block_reason == BlockReason::kMutex && t->waiting_on_mutex != nullptr) {
    p.block_tag = t->waiting_on_mutex->tag;
  } else if (t->block_reason == BlockReason::kCond && t->waiting_on_cond != nullptr) {
    p.block_tag = t->waiting_on_cond->tag;
  }
  // Walk our own live stack: the chain through Suspend and the sync layer up into user code.
  // The first return address is into the probe fan-out; it is dropped so the capture starts
  // in Suspend.
  const auto fp = reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
  uintptr_t pcs[TcbProfile::kMaxDepth + 1];
  const int walked = WalkFrames(0, fp, BoundsFor(t, fp), pcs, TcbProfile::kMaxDepth + 1);
  const int depth = walked > 1 ? walked - 1 : 0;
  p.depth = static_cast<uint8_t>(depth);
  std::memcpy(p.pcs, pcs + 1, sizeof(uintptr_t) * depth);
}

void OnReady(Tcb* t) {
  TcbProfile& p = t->profile;
  if (t->state != ThreadState::kBlocked || p.depth == 0 || p.session != g_session) {
    return;
  }
  Sample s;
  const int64_t now = NowNs();
  s.weight = now > p.block_since_ns ? static_cast<uint64_t>(now - p.block_since_ns) : 0;
  s.tag = p.block_tag;
  s.kind = 1;
  s.reason = p.block_reason;
  s.depth = p.depth;
  std::memcpy(s.pcs, p.pcs, sizeof(uintptr_t) * p.depth);
  p.depth = 0;  // capture consumed
  ++g_kernel_samples;
  Fold(s);
}

void OnTickSlow() {
  // Deterministic-mode on-CPU sample: ticks are recorded/replayed decisions, so sampling here
  // (instead of from an unsynchronized ITIMER_PROF) makes the sample sequence reproducible.
  // The tick runs in-kernel on the interrupted thread's behalf; we sample the live kernel
  // call stack, which chains back into the interrupted user frames on the same stack.
  const auto fp = reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
  const auto pc = reinterpret_cast<uintptr_t>(__builtin_return_address(0));
  ++g_kernel_samples;
  Fold(OnCpuSample(kernel::ks().current, pc, fp, fp));
}

void OnSigprof(void* ucontext) {
  // Signal context, possibly mid-kernel or mid-anything: touch only the ring, the drain flag
  // and the interrupted thread's stack bounds; preserve errno; never enter the kernel.
  const int saved_errno = errno;
  if (g_draining) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  const auto* uc = static_cast<const ucontext_t*>(ucontext);
  const auto pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  const auto fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  const auto sp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
  EmitSample(OnCpuSample(kernel::ks().current, pc, fp, sp));
  errno = saved_errno;
}

// ---------------------------------------------------------------------------------------------
// Control
// ---------------------------------------------------------------------------------------------

namespace {

// reset=false is the pt_reinit continuation path: benches tear the runtime down between
// cases, which stops the session; the env-driven restart must not wipe what the previous
// segments accumulated or an atexit dump would only cover the tail segment.
int StartImpl(int hz, bool reset) {
  kernel::EnsureInit();
  const bool first = g_tables == nullptr;
  if (first) {
    g_tables = static_cast<Table*>(std::calloc(2, sizeof(Table)));
    if (g_tables == nullptr) {
      return ENOMEM;
    }
  }
  kernel::Enter();
  if (g_active) {
    kernel::Exit();
    return EBUSY;
  }
  if (reset || first) {
    ResetSession();
  }
  g_hz = hz > 0 ? hz : kDefaultHz;
  g_collector_stop = false;

  if (replay::CurrentMode() == replay::Mode::kOff) {
    // Live sampling: the profiling interval timer ticks on consumed CPU time and SIGPROF is
    // already claimed by the universal handler. Fault-injectable; failure unwinds cleanly.
    if (ArmItimer(g_hz) != 0) {
      const int err = errno;
      kernel::Exit();
      return err;
    }
    g_itimer_armed = true;
    g_signal_sampling = true;
  } else {
    // Record or replay: an unsynchronized itimer would make the two runs sample differently.
    // Piggyback on the timer tick — a recorded decision — so both runs take identical samples.
    g_tick_sampling = true;
  }
  probe::Subscribe(probe::kOffCpu, true);

  if (const char* shm_path = std::getenv("FSUP_STATS_SHM");
      shm_path != nullptr && shm_path[0] != '\0') {
    void* mem = hostos::ShmMapStats(shm_path, kStatsShmSize);
    if (mem == nullptr) {
      // The profile itself is still viable without the live monitor: degrade, don't fail.
      log::Write("profiler: FSUP_STATS_SHM map failed, live monitor disabled");
    } else {
      g_shm = static_cast<StatsShm*>(mem);
      *g_shm = StatsShm{};  // fresh file contents are zero already; a reused file is not
      g_shm->version = kStatsShmVersion;
      g_shm->pid = hostos::RawGetpid();
      __atomic_store_n(&g_shm->magic, kStatsShmMagic, __ATOMIC_RELEASE);
    }
  }
  g_active = true;
  // First frame immediately: a monitor attaching between now and the collector's first period
  // (or a process that exits before one elapses) sees real counters, not the zeroed segment.
  CollectOnce();
  kernel::Exit();

  // No collector thread under record/replay: its periodic pt_delay would sit in the timer
  // heap next to the workload's own timers, and replay expires timers by recorded COUNT in
  // deadline order — the collector's 20ms deadline vs a workload's 1ms deadlines can order
  // differently between the (real-time) recording and the (fast-forwarded) replay, so its
  // mere presence would make otherwise-deterministic workloads diverge. Tick sampling does
  // not need it: ticks and wakes fold straight into the aggregates.
  if (replay::CurrentMode() != replay::Mode::kOff) {
    return 0;
  }
  ThreadAttr attr;
  attr.name = "fsup-prof";
  attr.priority = kMaxPrio;  // wake promptly over busy user threads; runs for microseconds
  const int rc = pt_create(&g_collector, &attr, CollectorMain, nullptr);
  if (rc != 0) {
    Stop();
    return rc;
  }
  return 0;
}

}  // namespace

int Start(int hz) { return StartImpl(hz, /*reset=*/true); }

int Stop() {
  kernel::EnsureInit();
  kernel::Enter();
  if (!g_active) {
    kernel::Exit();
    return EINVAL;
  }
  g_signal_sampling = false;
  g_tick_sampling = false;
  probe::Subscribe(probe::kOffCpu, false);
  if (g_itimer_armed) {
    DisarmItimer();
    g_itimer_armed = false;
  }
  g_collector_stop = true;
  kernel::Exit();

  if (g_collector != nullptr) {
    pt_join(g_collector, nullptr);
    g_collector = nullptr;
  }

  kernel::Enter();
  CollectOnce();  // final drain + shm frame so a monitor sees the session's last word
  if (g_shm != nullptr) {
    hostos::ShmUnmapStats(g_shm, kStatsShmSize);
    g_shm = nullptr;
  }
  g_active = false;
  kernel::Exit();
  return 0;
}

bool Active() { return g_active; }

uint64_t SampleCount() { return g_committed.load(std::memory_order_acquire) + g_kernel_samples; }

uint64_t DroppedCount() { return g_dropped.load(std::memory_order_relaxed); }

uint64_t OffCpuSampleCount() { return g_offcpu_samples; }

int Dump(const char* path) {
  if (path == nullptr || path[0] == '\0') {
    return EINVAL;
  }
  kernel::EnsureInit();
  if (g_tables == nullptr) {
    return EINVAL;  // never started
  }
  // Copy the aggregates out so file I/O runs outside the monitor. The copy buffer is sized
  // and allocated outside it too; stacks first seen in between make it size again.
  Agg* copy = nullptr;
  uint32_t n[2] = {};
  for (uint32_t cap = 0;;) {
    kernel::Enter();
    CollectOnce();  // post-mortem monitors see the frame the dump is about to describe
    n[0] = g_tables[0].used;
    n[1] = g_tables[1].used;
    if (copy != nullptr && n[0] + n[1] <= cap) {
      break;
    }
    kernel::Exit();
    std::free(copy);
    cap = n[0] + n[1] + 64;
    copy = static_cast<Agg*>(std::malloc(sizeof(Agg) * cap));
    if (copy == nullptr) {
      return ENOMEM;
    }
  }
  std::memcpy(copy, g_tables[0].entries, sizeof(Agg) * n[0]);
  std::memcpy(copy + n[0], g_tables[1].entries, sizeof(Agg) * n[1]);
  kernel::Exit();

  int err = WriteFoldedFile(path, copy, n[0], /*offcpu=*/false);
  char side[sizeof(g_atexit_path) + 16];
  if (err == 0) {
    std::snprintf(side, sizeof side, "%s.offcpu", path);
    err = WriteFoldedFile(side, copy + n[0], n[1], /*offcpu=*/true);
  }
  std::free(copy);
  if (err != 0) {
    return err;
  }
  std::snprintf(side, sizeof side, "%s.maps", path);
  return CopyMapsSidecar(side);
}

int CounterSnapshot(CounterPoint* out, int max) {
  kernel::Enter();
  const uint64_t total = g_counter_total;
  uint64_t first = total > static_cast<uint64_t>(kCounterPoints) ? total - kCounterPoints : 0;
  int n = 0;
  for (uint64_t i = first; i != total && n < max; ++i) {
    out[n++] = g_counter_ring[i % kCounterPoints];
  }
  kernel::Exit();
  return n;
}

void InitFromEnv() {
  static bool atexit_registered = false;
  const char* file = std::getenv("FSUP_PROFILE_FILE");
  if (file != nullptr && file[0] != '\0') {
    std::snprintf(g_atexit_path, sizeof g_atexit_path, "%s", file);
    if (!atexit_registered) {
      atexit_registered = true;
      std::atexit(AtExitDump);
    }
  } else {
    g_atexit_path[0] = '\0';
  }
  const char* prof = std::getenv("FSUP_PROFILE");
  const bool want = (prof != nullptr && prof[0] != '\0' && prof[0] != '0') ||
                    (file != nullptr && file[0] != '\0');
  if (want && !g_active) {
    int hz = 0;
    if (const char* hz_s = std::getenv("FSUP_PROFILE_HZ"); hz_s != nullptr) {
      hz = std::atoi(hz_s);
    }
    StartImpl(hz, /*reset=*/false);  // continuation across pt_reinit keeps prior aggregates
  }
}

void ShutdownForReinit() {
  if (g_active) {
    Stop();
  }
  // A reinitialized kernel re-reads FSUP_PROFILE from EnsureInit; stale atexit paths are
  // refreshed there too.
}

}  // namespace fsup::debug::profiler
