// Fixed-size log2-bucketed histograms for the telemetry subsystem.
//
// The PR-3 span aggregates and the kPoolQueueWaitNs counter only carried
// sums, which hide exactly the behavior a latency regression shows first:
// the tail.  A Histogram buckets unsigned 64-bit values by bit width —
// bucket 0 holds the value 0, bucket i (1 <= i <= 62) holds
// [2^(i-1), 2^i), and bucket 63 absorbs everything >= 2^62 — so the whole
// distribution fits in 64 fixed counters, recording is a shift and an add
// (no allocation, no binary search), and merging two histograms is 64
// additions.  Count/total/min/max are tracked exactly alongside the
// buckets; percentiles are bucket-resolved: the estimate returned for a
// quantile is an upper bound on the true order statistic and is below
// twice its value (one log2 bucket of slack), which is ample for p50/p95/
// p99 regression gating.
//
// Two deployments share the arithmetic:
//   * span histograms — per-thread tables inside trace.cpp, fed by
//     record_span (so a disabled span still costs one relaxed load and
//     nothing else), merged at snapshot time by span_histograms();
//   * value histograms — the small always-on catalog below (ValueHist),
//     global AtomicHistograms fed at block granularity, e.g. one record
//     per thread-pool region join or per campaign-store append.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "realm/obs/counters.hpp"  // the catalog-table expanders

namespace realm::obs {

inline constexpr unsigned kHistogramBuckets = 64;

/// Bucket index of a value: 0 for 0, otherwise bit_width(v) clamped to 63.
[[nodiscard]] constexpr unsigned histogram_bucket(std::uint64_t v) noexcept {
  unsigned w = 0;
  while (v != 0) {
    v >>= 1;
    ++w;
  }
  return w > kHistogramBuckets - 1 ? kHistogramBuckets - 1 : w;
}

/// Smallest value a bucket can hold (0, then powers of two).
[[nodiscard]] constexpr std::uint64_t histogram_bucket_lower(unsigned i) noexcept {
  return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
}

/// Largest value a bucket can hold (inclusive; the last bucket is open).
[[nodiscard]] constexpr std::uint64_t histogram_bucket_upper(unsigned i) noexcept {
  if (i == 0) return 0;
  if (i >= kHistogramBuckets - 1) return ~std::uint64_t{0};
  return (std::uint64_t{1} << i) - 1;
}

/// Plain (single-writer) histogram: the merge/report currency, also usable
/// directly where no concurrency is involved (tests, offline analysis).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t total = 0;
  std::uint64_t min = ~std::uint64_t{0};  ///< meaningful only when count > 0
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  void record(std::uint64_t v) noexcept {
    ++count;
    total += v;
    if (v < min) min = v;
    if (v > max) max = v;
    ++buckets[histogram_bucket(v)];
  }

  void merge(const HistogramSnapshot& o) noexcept {
    count += o.count;
    total += o.total;
    if (o.count != 0) {
      if (o.min < min) min = o.min;
      if (o.max > max) max = o.max;
    }
    for (unsigned i = 0; i < kHistogramBuckets; ++i) buckets[i] += o.buckets[i];
  }

  /// Upper-bound estimate of the nearest-rank q-quantile (0 < q <= 1):
  /// the inclusive upper edge of the bucket holding the k-th smallest
  /// sample (k = ceil(q * count)), clamped to [min, max].  Guarantees
  /// true <= estimate < 2 * true for nonzero true values; 0 when empty.
  [[nodiscard]] std::uint64_t percentile(double q) const noexcept;
};

/// Concurrently recordable histogram: relaxed atomics throughout, so a
/// snapshot racing a writer reads slightly stale but never torn values.
struct AtomicHistogram {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total{0};
  std::atomic<std::uint64_t> min{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max{0};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};

  void record(std::uint64_t v) noexcept {
    count.fetch_add(1, std::memory_order_relaxed);
    total.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t m = min.load(std::memory_order_relaxed);
    while (v < m && !min.compare_exchange_weak(m, v, std::memory_order_relaxed)) {
    }
    m = max.load(std::memory_order_relaxed);
    while (v > m && !max.compare_exchange_weak(m, v, std::memory_order_relaxed)) {
    }
    buckets[histogram_bucket(v)].fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] HistogramSnapshot snapshot() const noexcept {
    HistogramSnapshot s;
    s.count = count.load(std::memory_order_relaxed);
    s.total = total.load(std::memory_order_relaxed);
    s.min = min.load(std::memory_order_relaxed);
    s.max = max.load(std::memory_order_relaxed);
    for (unsigned i = 0; i < kHistogramBuckets; ++i) {
      s.buckets[i] = buckets[i].load(std::memory_order_relaxed);
    }
    return s;
  }

  void reset() noexcept {
    count.store(0, std::memory_order_relaxed);
    total.store(0, std::memory_order_relaxed);
    min.store(~std::uint64_t{0}, std::memory_order_relaxed);
    max.store(0, std::memory_order_relaxed);
    for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
  }
};

/// Always-on value-histogram catalog, the distributional siblings of the
/// counters: one X(enumerator, "json_name", "meaning") entry each, read the
/// same way as the tables in counters.hpp.
// clang-format off
#define REALM_OBS_VALUE_HISTS(X)                                                         \
  X(kPoolQueueWaitNs, "pool_queue_wait_ns",                                              \
    "ns between a region publish and a worker starting on it (one record per "           \
    "worker join; the counter of the same name keeps the total)")                        \
  X(kStoreRecordBytes, "store_record_bytes",                                             \
    "on-disk size of each campaign-store record appended (header + key + payload)")
// clang-format on

enum class ValueHist : unsigned { REALM_OBS_VALUE_HISTS(REALM_OBS_ENUMERATOR) kCount };

inline constexpr unsigned kValueHistCount = static_cast<unsigned>(ValueHist::kCount);

namespace detail {
extern AtomicHistogram g_value_hists[kValueHistCount];
inline constexpr const char* kValueHistNames[] = {
    REALM_OBS_VALUE_HISTS(REALM_OBS_JSON_NAME)};
}  // namespace detail

inline void value_hist_record(ValueHist h, std::uint64_t v) noexcept {
  detail::g_value_hists[static_cast<unsigned>(h)].record(v);
}

[[nodiscard]] inline HistogramSnapshot value_hist_snapshot(ValueHist h) noexcept {
  return detail::g_value_hists[static_cast<unsigned>(h)].snapshot();
}

/// Stable snake_case JSON key (same contract as counter_name()).
[[nodiscard]] constexpr const char* value_hist_name(ValueHist h) noexcept {
  const auto i = static_cast<unsigned>(h);
  return i < kValueHistCount ? detail::kValueHistNames[i] : "unknown";
}

/// Zeroes every value histogram (test/bench support; quiesce writers first).
void value_hist_reset() noexcept;

}  // namespace realm::obs
