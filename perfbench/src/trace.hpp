// The benchmark's own span tracer. Spans are timed around the benchmark's calls into the
// public pt_* functions of each fsup layer; nothing inside the library is instrumented, and
// the library's own trace, metrics and profiler stay off, so the traced run takes the same
// lock paths as the untraced one.
//
// Every span records its name, start, end, the op it belongs to and its parent span. Spans
// live in one preallocated buffer that is analysed when the run ends. Recording stops when
// the buffer is full; the traced window then ends at that moment.
//
// All fsup threads share one OS thread, so a blocking call's interval contains the spans of
// the threads that ran while it was blocked. Analyze() therefore attributes every instant of
// the window to the innermost open span, the open span that began last, and a span's self
// time is what it is attributed: its duration minus the parts covered by spans that began
// inside it. Op spans group a whole operation and take no part in that attribution.

#ifndef FSUP_PERFBENCH_TRACE_HPP_
#define FSUP_PERFBENCH_TRACE_HPP_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "perfbench/src/histogram.hpp"

namespace perfbench {

uint64_t NowNs();  // steady clock

// The fsup layers the benchmark calls into, plus the benchmark's own work (kApp) and whole
// operations (kOp).
enum class Layer : uint8_t { kKernel, kSync, kIo, kSignals, kCancel, kTsd, kApp, kOp };
inline constexpr int kNumLayers = 6;  // kKernel .. kTsd

enum class Name : uint16_t {
  kCreate,       // kernel: pt_create
  kJoin,         // kernel: pt_join
  kYield,        // kernel: pt_yield
  kLock,         // sync: pt_mutex_lock
  kUnlock,       // sync: pt_mutex_unlock
  kCondWait,     // sync: pt_cond_wait
  kSignal,       // sync: pt_cond_signal
  kBroadcast,    // sync: pt_cond_broadcast
  kFastPair,     // sync: uncontended pt_mutex_lock + pt_mutex_unlock around a counter update
  kRead,         // io: pt_read
  kWrite,        // io: pt_write
  kKill,         // signals: pt_kill
  kHostKill,     // signals: kill(2) of the own process, the external delivery path
  kCancel,       // cancel: pt_cancel
  kCleanupPush,  // cancel: pt_cleanup_push
  kCleanupPop,   // cancel: pt_cleanup_pop
  kSetSpecific,  // tsd: pt_setspecific
  kGetSpecific,  // tsd: pt_getspecific
  kBody,         // app: entry body / payload handling
  kOp,           // op: one rendezvous call, echo request or thread lifecycle
  kCount,
};
inline constexpr int kNumNames = static_cast<int>(Name::kCount);

Layer LayerOf(Name n);

// Who is calling: the op it works on and the span that encloses its next span (0 = none).
struct Ctx {
  uint32_t op = 0;
  uint32_t parent = 0;
};

struct SpanRec {
  uint64_t start = 0;
  uint64_t end = 0;  // 0 while open, or forever if the thread was cancelled inside it
  uint32_t op = 0;
  uint32_t parent = 0;
  uint16_t name = 0;
};

namespace tracer {

extern bool g_on;

// Allocates and touches the buffer (call during set-up, before the timed phases).
void Allocate(size_t capacity);
// Opens the traced window.
void Start();
// Closes the traced window (no-op if the buffer already filled up and closed it).
void Stop();
uint64_t WindowStart();
uint64_t WindowEnd();
size_t Recorded();

// Returns the span id (buffer slot + 1), or 0 once the buffer is full.
uint32_t Begin(Name n, const Ctx& c);
void End(uint32_t id);

}  // namespace tracer

// Scoped span; costs one predicted branch while tracing is off.
class Span {
 public:
  Span(const Ctx& c, Name n) : id_(tracer::g_on ? tracer::Begin(n, c) : 0) {}
  ~Span() {
    if (id_ != 0) {
      tracer::End(id_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  uint32_t id_;
};

// Scoped op: sets the caller's op and makes its op span the parent of the spans inside.
class OpScope {
 public:
  OpScope(Ctx& c, uint32_t op) : ctx_(c), saved_parent_(c.parent) {
    c.op = op;
    span_id_ = tracer::g_on ? tracer::Begin(Name::kOp, c) : 0;
    if (span_id_ != 0) {
      c.parent = span_id_;
    }
  }
  ~OpScope() {
    if (span_id_ != 0) {
      tracer::End(span_id_);
    }
    ctx_.parent = saved_parent_;
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  Ctx& ctx_;
  uint32_t saved_parent_;
  uint32_t span_id_ = 0;
};

// Result of the self-time sweep over the traced window.
struct SpanAnalysis {
  struct PerName {
    Histogram self_ns;     // self time of each finished span
    Histogram wall_ns;     // start-to-end duration of each finished span
    uint64_t count = 0;
    uint64_t covered = 0;  // spans inside which another span began (the caller blocked)
  };
  std::array<PerName, kNumNames> names;
  std::array<uint64_t, kNumLayers> layer_self_ns{};
  uint64_t app_self_ns = 0;
  uint64_t window_ns = 0;
  uint64_t spans = 0;

  const PerName& operator[](Name n) const { return names[static_cast<size_t>(n)]; }
  // Share of the window covered by no layer's self time.
  double UnattributedFrac() const;
};

std::unique_ptr<SpanAnalysis> Analyze();

}  // namespace perfbench

#endif  // FSUP_PERFBENCH_TRACE_HPP_
