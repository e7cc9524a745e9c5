#include "realm/obs/trace.hpp"

#include "realm/obs/counters.hpp"
#include "realm/obs/sampler.hpp"

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace realm::obs {

namespace {

bool env_tracing_on() noexcept {
  const char* v = std::getenv("REALM_TRACE");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

// Trace epoch: captured during static initialization so every thread's
// timestamps share one zero point that precedes all spans.
const std::chrono::steady_clock::time_point g_epoch = std::chrono::steady_clock::now();

/// Spans retained per thread.  24 B/slot -> 768 KiB per recording thread;
/// at ~1 us/span that is tens of milliseconds of dense history, and coarser
/// (shard/block-level) spans cover whole --full runs without wrapping.
constexpr std::size_t kRingCapacity = std::size_t{1} << 15;

// One slot of a ring.  Fields are relaxed atomics so an exporter racing a
// wrapping producer reads values, not torn bytes (a mixed-up slot is
// cosmetic; a data race would be UB).  The producer publishes via the ring
// head, not per-slot flags.
struct Slot {
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> start_ns{0};
  std::atomic<std::uint64_t> dur_ns{0};
  std::atomic<std::uint64_t> rid{0};  // request id; 0 = no request context
};

/// Distinct span names one thread can histogram.  The whole library uses
/// ~30 literals today; a thread that somehow exceeds the table keeps
/// recording ring spans but stops gaining new histogram rows.
constexpr std::size_t kMaxSpanNames = 64;

// One per-thread histogram row.  `name` is written once by the owning
// thread (published via the table's size counter); the histogram itself is
// relaxed-atomic so the exporter can merge mid-run without tearing.
struct HistEntry {
  std::atomic<const char*> name{nullptr};
  AtomicHistogram hist;
};

struct ThreadBuffer {
  std::uint32_t tid = 0;                  // dense export id, assigned at registration
  std::atomic<std::uint64_t> head{0};     // total spans ever recorded here
  std::vector<Slot> ring{kRingCapacity};
  // Append-only name -> duration-histogram table; only the owning thread
  // appends, exporters read up to hist_count (acquire).
  std::array<HistEntry, kMaxSpanNames> hists;
  std::atomic<std::size_t> hist_count{0};

  AtomicHistogram* hist_for(const char* name) {
    const std::size_t n = hist_count.load(std::memory_order_relaxed);
    // Fast path: literal pointers are stable, so pointer equality almost
    // always hits; the strcmp pass catches the same literal from another TU.
    for (std::size_t i = 0; i < n; ++i) {
      if (hists[i].name.load(std::memory_order_relaxed) == name) return &hists[i].hist;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (std::strcmp(hists[i].name.load(std::memory_order_relaxed), name) == 0) {
        return &hists[i].hist;
      }
    }
    if (n >= kMaxSpanNames) return nullptr;
    hists[n].name.store(name, std::memory_order_relaxed);
    hist_count.store(n + 1, std::memory_order_release);
    return &hists[n].hist;
  }
};

struct Registry {
  std::mutex m;
  // shared_ptr keeps rings of exited threads alive until process end, so a
  // worker's spans are still exportable after the pool shuts down.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: exporters may run at exit
  return *r;
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> tb = [] {
    auto b = std::make_shared<ThreadBuffer>();
    Registry& r = registry();
    std::lock_guard lock{r.m};
    b->tid = static_cast<std::uint32_t>(r.buffers.size());
    r.buffers.push_back(b);
    return b;
  }();
  return *tb;
}

std::vector<std::shared_ptr<ThreadBuffer>> buffer_snapshot() {
  Registry& r = registry();
  std::lock_guard lock{r.m};
  return r.buffers;
}

struct ExportEvent {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
  std::uint32_t tid;
  std::uint64_t rid;
};

// Every span still resident in some ring, in (tid, slot) order.
std::vector<ExportEvent> collect_events() {
  std::vector<ExportEvent> out;
  for (const auto& b : buffer_snapshot()) {
    const std::uint64_t head = b->head.load(std::memory_order_acquire);
    const std::uint64_t n = head < kRingCapacity ? head : kRingCapacity;
    out.reserve(out.size() + static_cast<std::size_t>(n));
    for (std::uint64_t k = head - n; k < head; ++k) {
      const Slot& s = b->ring[static_cast<std::size_t>(k % kRingCapacity)];
      const char* name = s.name.load(std::memory_order_relaxed);
      if (name == nullptr) continue;  // slot zeroed by a concurrent reset
      out.push_back({name, s.start_ns.load(std::memory_order_relaxed),
                     s.dur_ns.load(std::memory_order_relaxed), b->tid,
                     s.rid.load(std::memory_order_relaxed)});
    }
  }
  return out;
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  out += buf;
}

}  // namespace

namespace detail {

std::atomic<bool> g_trace_enabled{env_tracing_on()};
thread_local std::uint64_t g_trace_rid = 0;

void record_span(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns) {
  ThreadBuffer& b = local_buffer();
  if (AtomicHistogram* hist = b.hist_for(name)) hist->record(dur_ns);
  const std::uint64_t h = b.head.load(std::memory_order_relaxed);
  Slot& s = b.ring[static_cast<std::size_t>(h % kRingCapacity)];
  s.name.store(name, std::memory_order_relaxed);
  s.start_ns.store(start_ns, std::memory_order_relaxed);
  s.dur_ns.store(dur_ns, std::memory_order_relaxed);
  s.rid.store(g_trace_rid, std::memory_order_relaxed);
  b.head.store(h + 1, std::memory_order_release);
}

}  // namespace detail

void set_tracing(bool on) noexcept {
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - g_epoch)
          .count());
}

const char* trace_env_path() noexcept {
  const char* v = std::getenv("REALM_TRACE");
  if (v == nullptr || v[0] == '\0') return nullptr;
  if (std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0) return nullptr;
  return v;
}

std::size_t trace_events_recorded() {
  std::size_t total = 0;
  for (const auto& b : buffer_snapshot()) {
    total += static_cast<std::size_t>(b->head.load(std::memory_order_acquire));
  }
  return total;
}

std::size_t trace_events_dropped() {
  std::size_t dropped = 0;
  for (const auto& b : buffer_snapshot()) {
    const std::uint64_t head = b->head.load(std::memory_order_acquire);
    if (head > kRingCapacity) dropped += static_cast<std::size_t>(head - kRingCapacity);
  }
  return dropped;
}

std::map<std::string, SpanAggregate> span_aggregates() {
  std::map<std::string, SpanAggregate> agg;
  for (const ExportEvent& e : collect_events()) {
    SpanAggregate& a = agg[e.name];
    ++a.count;
    a.total_ns += e.dur_ns;
    if (e.dur_ns < a.min_ns) a.min_ns = e.dur_ns;
    if (e.dur_ns > a.max_ns) a.max_ns = e.dur_ns;
  }
  return agg;
}

std::map<std::string, HistogramSnapshot> span_histograms() {
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& b : buffer_snapshot()) {
    const std::size_t n = b->hist_count.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      const char* name = b->hists[i].name.load(std::memory_order_relaxed);
      if (name == nullptr) continue;  // cleared by a concurrent reset
      out[name].merge(b->hists[i].hist.snapshot());
    }
  }
  return out;
}

std::string chrome_trace_json() {
  const std::vector<ExportEvent> events = collect_events();
  std::string out;
  out.reserve(events.size() * 96 + 256);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";

  // Thread-name metadata rows so Perfetto labels the tracks.
  std::vector<std::uint32_t> tids;
  for (const auto& b : buffer_snapshot()) tids.push_back(b->tid);
  bool first = true;
  for (const std::uint32_t tid : tids) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(tid);
    out += ",\"args\":{\"name\":\"realm-";
    out += tid == 0 ? "main" : "worker-" + std::to_string(tid);
    out += "\"}}";
  }

  for (const ExportEvent& e : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += e.name;  // span names are identifier-style literals, no escaping
    out += "\",\"cat\":\"realm\",\"ph\":\"X\",\"ts\":";
    append_double(out, static_cast<double>(e.start_ns) / 1000.0);
    out += ",\"dur\":";
    append_double(out, static_cast<double>(e.dur_ns) / 1000.0);
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(e.tid);
    if (e.rid != 0) {
      // Request lane: Perfetto's "args.rid" query/filter groups every span
      // of one served request across loop, executor and pool threads.
      out += ",\"args\":{\"rid\":";
      out += std::to_string(e.rid);
      out += '}';
    }
    out += '}';
  }

  // Sampler timeline as counter ("C" phase) tracks: Perfetto renders pool
  // occupancy and RSS as area charts below the span rows.  Empty when the
  // sampler never ran.
  for (const TimelineSample& s : timeline_samples()) {
    const auto counter_event = [&](const char* name, const char* arg,
                                   std::uint64_t value) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"";
      out += name;
      out += "\",\"cat\":\"realm\",\"ph\":\"C\",\"ts\":";
      append_double(out, static_cast<double>(s.t_ns) / 1000.0);
      out += ",\"pid\":1,\"args\":{\"";
      out += arg;
      out += "\":";
      out += std::to_string(value);
      out += "}}";
    };
    counter_event(gauge_name(Gauge::kPoolActiveWorkers), "active", s.pool_active);
    counter_event(gauge_name(Gauge::kPoolQueueDepth), "depth", s.pool_queue_depth);
    counter_event("rss_kb", "kb", s.rss_kb);
  }
  out += "]}";
  return out;
}

void write_chrome_trace(const std::string& path) {
  const std::filesystem::path p{path};
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream os{p};
  if (!os) throw std::runtime_error("write_chrome_trace: cannot open " + path);
  os << chrome_trace_json();
  if (!os) throw std::runtime_error("write_chrome_trace: write failed for " + path);
}

void trace_reset() {
  for (const auto& b : buffer_snapshot()) {
    for (Slot& s : b->ring) s.name.store(nullptr, std::memory_order_relaxed);
    b->head.store(0, std::memory_order_release);
    const std::size_t n = b->hist_count.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      b->hists[i].hist.reset();
      b->hists[i].name.store(nullptr, std::memory_order_relaxed);
    }
    b->hist_count.store(0, std::memory_order_release);
  }
}

}  // namespace realm::obs
