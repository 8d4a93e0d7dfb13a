#include "perfbench/src/trace.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <queue>
#include <vector>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

Layer LayerOf(Name n) {
  switch (n) {
    case Name::kCreate:
    case Name::kJoin:
    case Name::kYield:
      return Layer::kKernel;
    case Name::kLock:
    case Name::kUnlock:
    case Name::kCondWait:
    case Name::kSignal:
    case Name::kBroadcast:
    case Name::kFastPair:
      return Layer::kSync;
    case Name::kRead:
    case Name::kWrite:
      return Layer::kIo;
    case Name::kKill:
    case Name::kHostKill:
      return Layer::kSignals;
    case Name::kCancel:
    case Name::kCleanupPush:
    case Name::kCleanupPop:
      return Layer::kCancel;
    case Name::kSetSpecific:
    case Name::kGetSpecific:
      return Layer::kTsd;
    case Name::kBody:
      return Layer::kApp;
    case Name::kOp:
    case Name::kCount:
      break;
  }
  return Layer::kOp;
}

namespace tracer {

bool g_on = false;

namespace {

SpanRec* g_buf = nullptr;
size_t g_cap = 0;
// Threads are switched by signal handlers at any instruction, so the slot counter is bumped
// with one (signal-atomic) read-modify-write instruction.
std::atomic<uint32_t> g_next{0};
uint64_t g_start_ns = 0;
uint64_t g_end_ns = 0;

}  // namespace

void Allocate(size_t capacity) {
  const size_t bytes = capacity * sizeof(SpanRec);
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS |
                   MAP_POPULATE, -1, 0);
  if (p == MAP_FAILED) {
    std::perror("perfbench: span buffer");
    std::exit(3);
  }
  g_buf = static_cast<SpanRec*>(p);
  g_cap = capacity;
}

void Start() {
  g_next.store(0, std::memory_order_relaxed);
  g_end_ns = 0;
  g_start_ns = NowNs();
  g_on = g_cap > 0;
}

void Stop() {
  if (g_on) {
    g_on = false;
    g_end_ns = NowNs();
  }
}

uint64_t WindowStart() { return g_start_ns; }
uint64_t WindowEnd() { return g_end_ns; }
size_t Recorded() {
  return std::min<size_t>(g_next.load(std::memory_order_relaxed), g_cap);
}

uint32_t Begin(Name n, const Ctx& c) {
  const uint64_t now = NowNs();
  const uint32_t slot = g_next.fetch_add(1, std::memory_order_relaxed);
  if (slot >= g_cap) {
    if (g_on) {  // first overflow closes the window
      g_on = false;
      g_end_ns = now;
    }
    return 0;
  }
  SpanRec& r = g_buf[slot];
  r.start = now;
  r.end = 0;
  r.op = c.op;
  r.parent = c.parent;
  r.name = static_cast<uint16_t>(n);
  return slot + 1;
}

void End(uint32_t id) { g_buf[id - 1].end = NowNs(); }

}  // namespace tracer

double SpanAnalysis::UnattributedFrac() const {
  if (window_ns == 0) {
    return 0;
  }
  uint64_t attributed = 0;
  for (uint64_t v : layer_self_ns) {
    attributed += v;
  }
  return 1.0 - static_cast<double>(attributed) / static_cast<double>(window_ns);
}

std::unique_ptr<SpanAnalysis> Analyze() {
  auto out = std::make_unique<SpanAnalysis>();
  const uint64_t w0 = tracer::WindowStart();
  const uint64_t w1 = tracer::WindowEnd();
  const size_t n = tracer::Recorded();
  out->window_ns = w1 > w0 ? w1 - w0 : 0;
  out->spans = n;
  const SpanRec* buf = tracer::g_buf;

  // Sweep events: time << 1 | is_start, so at equal times ends sort before starts.
  struct Event {
    uint64_t key;
    uint32_t idx;
  };
  std::vector<Event> events;
  events.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    const SpanRec& r = buf[i];
    if (r.end == 0 || r.name == static_cast<uint16_t>(Name::kOp)) {
      continue;
    }
    const uint64_t s = std::max(r.start, w0);
    const uint64_t e = std::min(r.end, w1);
    if (e <= s) {
      continue;
    }
    events.push_back({(s << 1) | 1, static_cast<uint32_t>(i)});
    events.push_back({e << 1, static_cast<uint32_t>(i)});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.key < b.key; });

  // Slots are handed out in begin order, so the innermost open span is the open span with the
  // largest index. Closed spans leave the heap lazily.
  std::vector<uint64_t> self(n, 0);
  std::vector<bool> closed(n, false);
  std::priority_queue<uint32_t> open;
  uint64_t prev = events.empty() ? 0 : events.front().key >> 1;
  for (const Event& ev : events) {
    const uint64_t t = ev.key >> 1;
    while (!open.empty() && closed[open.top()]) {
      open.pop();
    }
    if (!open.empty()) {
      self[open.top()] += t - prev;
    }
    prev = t;
    if (ev.key & 1) {
      open.push(ev.idx);
    } else {
      closed[ev.idx] = true;
    }
  }

  for (size_t i = 0; i < n; ++i) {
    const SpanRec& r = buf[i];
    if (r.end == 0 || r.end > w1 || r.start < w0) {
      continue;
    }
    const Name name = static_cast<Name>(r.name);
    auto& pn = out->names[r.name];
    const uint64_t wall = r.end - r.start;
    ++pn.count;
    pn.wall_ns.Add(wall);
    if (name == Name::kOp) {
      continue;
    }
    pn.self_ns.Add(self[i]);
    if (self[i] < wall) {
      ++pn.covered;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const SpanRec& r = buf[i];
    if (r.end == 0 || r.name == static_cast<uint16_t>(Name::kOp)) {
      continue;
    }
    const Layer l = LayerOf(static_cast<Name>(r.name));
    if (l == Layer::kApp) {
      out->app_self_ns += self[i];
    } else {
      out->layer_self_ns[static_cast<size_t>(l)] += self[i];
    }
  }
  return out;
}

}  // namespace perfbench
