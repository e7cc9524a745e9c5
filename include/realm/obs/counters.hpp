// Process-wide named monotonic counters and gauges.
//
// Counters are the always-on half of the telemetry subsystem (trace.hpp is
// the sampled half): every hot engine increments a small fixed set of
// relaxed atomics at *block* granularity (per Monte-Carlo shard, per packed
// gate-sim block, per JPEG image — never per sample), so the cost is a
// handful of uncontended cache-line bumps per million samples and the
// counters can stay enabled even in throughput benchmarks.  The catalog is
// a closed enum rather than a string registry so an increment compiles to a
// single `lock add` with no hashing; MetricsSink snapshots the whole table
// into every BENCH_*.json.
//
// Counter semantics (the catalog; keep counter_name() in sync):
//   kMcSamples          operand pairs evaluated by the error engines
//   kMcShards           Monte-Carlo / exhaustive shards executed
//   kLutCacheHits       SegmentLut::shared served from the live cache
//   kLutCacheMisses     SegmentLut::shared derivations (cold or expired)
//   kGateEvals          packed gate-word evaluations (one gate x 64 lanes)
//   kPackedBlocks       packed-simulator work blocks (power/fault/equiv)
//   kEquivPairs         circuit-vs-model operand pairs compared
//   kFaultSitesDropped  fault sites dropped (detected) during ATPG
//   kPoolRegions        ThreadPool::run calls dispatched to workers
//   kPoolTasksExecuted  tasks completed through ThreadPool::run (any path)
//   kPoolTasksInline    tasks run inline because the pool was busy (the
//                       previously invisible contention-fallback path)
//   kPoolTasksFailed    tasks that threw (first is rethrown, rest swallowed)
//   kPoolQueueWaitNs    summed ns between region publish and worker start.
//                       Since the histogram PR this is the *total* of the
//                       pool_queue_wait_ns value histogram (histogram.hpp),
//                       kept as a backward-compatible sum — new consumers
//                       should read the histogram, whose buckets and
//                       p50/p95/p99 expose the dispatch-latency tail the
//                       bare sum hides
//   kJpegBlocksEncoded  8x8 blocks through the forward DCT/quant/entropy path
//   kJpegBlocksDecoded  8x8 blocks through the inverse path
//   kStoreHits          campaign-store lookups served from the journal
//   kStoreMisses        campaign-store lookups that missed
//   kStoreBytesRead     journal bytes replayed clean on store open
//   kStoreBytesWritten  journal bytes durably appended (records incl. headers)
//   kCampaignUnitsResumed   work units skipped via a stored result
//   kCampaignUnitsComputed  work units computed and recorded this run
//   kSweepPoints        design points characterized by dse::run_sweep
//   kExhaustiveRows     rows with fixed-operand work hoisted by the tiled
//                       exhaustive engine (one per multiply_row_range row)
//   kExhaustiveTiles    row×column tiles executed by the exhaustive engine
//   kRowFallbackBatches reads 0: every design's batch shapes are generated
//                       kernels (Multiplier has no fallback loop), so
//                       nothing increments it; kept because the stats
//                       documents and perfbench readers name it
//   kDctBlocksBatched   8x8 blocks transformed by the panel DCT/IDCT engine
//                       (forward + inverse; counted once per panel call)
//   kNnMacsBatched      fixed-point MLP MACs issued through the batched
//                       matvec path (products, counted once per forward)
//   kDspTapsBatched     tap x pixel products issued through the batched
//                       FIR/Sobel row engine (counted once per image)
//   kNetAccepts         connections accepted by the serving event loop
//   kNetRequests        request frames decoded and answered (any reply type)
//   kNetBytesIn         bytes read from client sockets
//   kNetBytesOut        bytes written to client sockets
//   kNetFrameErrors     frames rejected with a typed error reply (bad magic,
//                       bad checksum, oversized, unknown type, bad request)
//   kNetBackpressureStalls  read-side stalls entered because a connection's
//                       write buffer crossed its high-water mark
//   kNetDrained         in-flight requests flushed during graceful drain
//                       (between SIGINT/SIGTERM and the event loop exiting)
//   kNetClientTimeouts  client-side replies abandoned because recv_reply hit
//                       its poll deadline (thrown as net::TimeoutError)
//   kSloRecords         finished requests folded into an SLO window bucket
//   kSloRotations       SLO buckets recycled to a new second (claim/publish
//                       rotations won; at most one per second per window)
//   kStoreAppendFailures    campaign-store appends that failed (short write
//                       or fsync error) and were rolled back or, if the
//                       rollback failed too, turned the store read-only

#pragma once

#include <atomic>
#include <cstdint>

namespace realm::obs {

enum class Counter : unsigned {
  kMcSamples = 0,
  kMcShards,
  kLutCacheHits,
  kLutCacheMisses,
  kGateEvals,
  kPackedBlocks,
  kEquivPairs,
  kFaultSitesDropped,
  kPoolRegions,
  kPoolTasksExecuted,
  kPoolTasksInline,
  kPoolTasksFailed,
  kPoolQueueWaitNs,
  kJpegBlocksEncoded,
  kJpegBlocksDecoded,
  kStoreHits,
  kStoreMisses,
  kStoreBytesRead,
  kStoreBytesWritten,
  kCampaignUnitsResumed,
  kCampaignUnitsComputed,
  kSweepPoints,
  kExhaustiveRows,
  kExhaustiveTiles,
  kRowFallbackBatches,
  kDctBlocksBatched,
  kNnMacsBatched,
  kDspTapsBatched,
  kNetAccepts,
  kNetRequests,
  kNetBytesIn,
  kNetBytesOut,
  kNetFrameErrors,
  kNetBackpressureStalls,
  kNetDrained,
  kNetClientTimeouts,
  kSloRecords,
  kSloRotations,
  kStoreAppendFailures,
  kCount
};

inline constexpr unsigned kCounterCount = static_cast<unsigned>(Counter::kCount);

/// Gauges hold a last-written value instead of accumulating.
enum class Gauge : unsigned {
  kPoolWorkers = 0,     ///< background threads in the global pool
  kPoolActiveWorkers,   ///< workers currently draining a pool region
  kPoolQueueDepth,      ///< unclaimed tasks remaining in the active region
  kCount
};

inline constexpr unsigned kGaugeCount = static_cast<unsigned>(Gauge::kCount);

namespace detail {

// One cache line per counter: concurrent shards bump different counters
// without false sharing; a single hot counter still serializes, which is why
// call sites aggregate per block before adding.
struct alignas(64) PaddedAtomic {
  std::atomic<std::uint64_t> v{0};
};

extern PaddedAtomic g_counters[kCounterCount];
extern PaddedAtomic g_gauges[kGaugeCount];

}  // namespace detail

inline void counter_add(Counter c, std::uint64_t n) noexcept {
  detail::g_counters[static_cast<unsigned>(c)].v.fetch_add(n,
                                                           std::memory_order_relaxed);
}

[[nodiscard]] inline std::uint64_t counter_value(Counter c) noexcept {
  return detail::g_counters[static_cast<unsigned>(c)].v.load(std::memory_order_relaxed);
}

inline void gauge_set(Gauge g, std::uint64_t value) noexcept {
  detail::g_gauges[static_cast<unsigned>(g)].v.store(value, std::memory_order_relaxed);
}

[[nodiscard]] inline std::uint64_t gauge_value(Gauge g) noexcept {
  return detail::g_gauges[static_cast<unsigned>(g)].v.load(std::memory_order_relaxed);
}

/// Zeroes every counter (gauges keep their last value).  Test/bench support;
/// racing increments are not lost atomically, so quiesce first.
void counters_reset() noexcept;

/// Stable snake_case identifier used as the JSON key (never renumber or
/// rename — BENCH_*.json consumers key off these).
[[nodiscard]] const char* counter_name(Counter c) noexcept;
[[nodiscard]] const char* gauge_name(Gauge g) noexcept;

}  // namespace realm::obs
