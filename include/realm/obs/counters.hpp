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
// Each catalog is one table: an entry X(enumerator, "json_name", "meaning")
// generates the enum value and its counter_name()/gauge_name() string, and
// tools/check_bench_schema.py reads the same table to check that every
// BENCH_*.json carries the whole catalog.  So adding a counter is one line
// here.  Never reorder or rename an entry: BENCH_*.json consumers, the
// history records and perfbench key off the JSON names.

#pragma once

#include <atomic>
#include <cstdint>

// clang-format off
#define REALM_OBS_COUNTERS(X)                                                            \
  X(kMcSamples, "mc_samples", "operand pairs evaluated by the error engines")            \
  X(kMcShards, "mc_shards", "Monte-Carlo / exhaustive shards executed")                  \
  X(kLutCacheHits, "lut_cache_hits", "SegmentLut::shared served from the live cache")    \
  X(kLutCacheMisses, "lut_cache_misses",                                                 \
    "SegmentLut::shared derivations (cold or expired)")                                  \
  X(kGateEvals, "gate_evals", "packed gate-word evaluations (one gate x 64 lanes)")      \
  X(kPackedBlocks, "packed_blocks", "packed-simulator work blocks (power/fault/equiv)")  \
  X(kEquivPairs, "equiv_pairs", "circuit-vs-model operand pairs compared")               \
  X(kFaultSitesDropped, "fault_sites_dropped",                                           \
    "fault sites dropped (detected) during ATPG")                                        \
  X(kPoolRegions, "pool_regions", "ThreadPool::run calls published to the workers")      \
  X(kPoolTasksExecuted, "pool_tasks_executed",                                           \
    "tasks completed through ThreadPool::run (any path)")                                \
  X(kPoolTasksInline, "pool_tasks_inline",                                               \
    "tasks of a parallel region that no worker joined, so it ran on its caller "         \
    "alone: pool starvation (every worker busy in other regions, or none woke "          \
    "before the caller had claimed every task)")                                         \
  X(kPoolTasksFailed, "pool_tasks_failed",                                               \
    "tasks that threw (first is rethrown, rest swallowed)")                              \
  X(kPoolQueueWaitNs, "pool_queue_wait_ns",                                              \
    "summed ns between region publish and worker start: the total of the value "         \
    "histogram of the same name (histogram.hpp), whose buckets expose the tail")         \
  X(kJpegBlocksEncoded, "jpeg_blocks_encoded",                                           \
    "8x8 blocks through the forward DCT/quant/entropy path")                             \
  X(kJpegBlocksDecoded, "jpeg_blocks_decoded", "8x8 blocks through the inverse path")    \
  X(kStoreHits, "store_hits", "campaign-store lookups served from the journal")          \
  X(kStoreMisses, "store_misses", "campaign-store lookups that missed")                  \
  X(kStoreBytesRead, "store_bytes_read", "journal bytes replayed clean on store open")   \
  X(kStoreBytesWritten, "store_bytes_written",                                           \
    "journal bytes durably appended (records incl. headers)")                            \
  X(kCampaignUnitsResumed, "campaign_units_resumed",                                     \
    "work units skipped via a stored result")                                            \
  X(kCampaignUnitsComputed, "campaign_units_computed",                                   \
    "work units computed and recorded this run")                                         \
  X(kSweepPoints, "sweep_points", "design points characterized by dse::run_sweep")       \
  X(kExhaustiveRows, "exhaustive_rows",                                                  \
    "rows with fixed-operand work hoisted by the tiled exhaustive engine (one per "      \
    "multiply_row_range row)")                                                           \
  X(kExhaustiveTiles, "exhaustive_tiles",                                                \
    "row x column tiles run by the exhaustive engine")                                   \
  X(kRowFallbackBatches, "row_fallback_batches",                                         \
    "reads 0: every design's batch shapes are generated kernels, so nothing "            \
    "increments it; kept because the stats documents and perfbench name it")            \
  X(kDctBlocksBatched, "dct_blocks_batched",                                             \
    "8x8 blocks transformed by the panel DCT/IDCT engine (forward + inverse)")           \
  X(kNnMacsBatched, "nn_macs_batched",                                                   \
    "fixed-point MLP MACs issued through the batched matvec path")                       \
  X(kDspTapsBatched, "dsp_taps_batched",                                                 \
    "tap x pixel products issued through the batched FIR/Sobel row engine")              \
  X(kNetAccepts, "net_accepts", "connections accepted by the serving event loop")        \
  X(kNetRequests, "net_requests",                                                        \
    "request frames decoded and answered (any reply type)")                              \
  X(kNetBytesIn, "net_bytes_in", "bytes read from client sockets")                       \
  X(kNetBytesOut, "net_bytes_out", "bytes written to client sockets")                    \
  X(kNetFrameErrors, "net_frame_errors",                                                 \
    "frames rejected with a typed error reply (bad magic, bad checksum, oversized, "     \
    "unknown type, bad request)")                                                        \
  X(kNetBackpressureStalls, "net_backpressure_stalls",                                   \
    "read-side stalls entered because a connection's write buffer crossed its "          \
    "high-water mark")                                                                   \
  X(kNetDrained, "net_drained",                                                          \
    "in-flight requests flushed during graceful drain (SIGINT/SIGTERM to loop exit)")    \
  X(kNetClientTimeouts, "net_client_timeouts",                                           \
    "client-side replies abandoned because recv_reply hit its poll deadline")            \
  X(kSloRecords, "slo_records", "finished requests folded into an SLO window bucket")    \
  X(kSloRotations, "slo_rotations",                                                      \
    "SLO buckets recycled to a new second (at most one per second per window)")          \
  X(kStoreAppendFailures, "store_append_failures",                                       \
    "campaign-store appends that failed (short write or fsync error) and were "          \
    "rolled back or, if the rollback failed too, turned the store read-only")

/// Gauges hold a last-written value instead of accumulating.
#define REALM_OBS_GAUGES(X)                                                              \
  X(kPoolWorkers, "pool_workers", "background threads in the global pool")               \
  X(kPoolActiveWorkers, "pool_active_workers",                                           \
    "workers currently draining a pool region")                                          \
  X(kPoolQueueDepth, "pool_queue_depth",                                                 \
    "unclaimed tasks left in the region a task was last claimed from")
// clang-format on

/// Expands a catalog entry to its enumerator / its JSON name.
#define REALM_OBS_ENUMERATOR(id, name, doc) id,
#define REALM_OBS_JSON_NAME(id, name, doc) name,

namespace realm::obs {

enum class Counter : unsigned { REALM_OBS_COUNTERS(REALM_OBS_ENUMERATOR) kCount };
enum class Gauge : unsigned { REALM_OBS_GAUGES(REALM_OBS_ENUMERATOR) kCount };

inline constexpr unsigned kCounterCount = static_cast<unsigned>(Counter::kCount);
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

namespace detail {
inline constexpr const char* kCounterNames[] = {REALM_OBS_COUNTERS(REALM_OBS_JSON_NAME)};
inline constexpr const char* kGaugeNames[] = {REALM_OBS_GAUGES(REALM_OBS_JSON_NAME)};
}  // namespace detail

/// Stable snake_case JSON key of a catalog entry ("unknown" for kCount).
[[nodiscard]] constexpr const char* counter_name(Counter c) noexcept {
  const auto i = static_cast<unsigned>(c);
  return i < kCounterCount ? detail::kCounterNames[i] : "unknown";
}
[[nodiscard]] constexpr const char* gauge_name(Gauge g) noexcept {
  const auto i = static_cast<unsigned>(g);
  return i < kGaugeCount ? detail::kGaugeNames[i] : "unknown";
}

}  // namespace realm::obs
