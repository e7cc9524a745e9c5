// Campaign-memoized front ends for the expensive evaluation engines.
//
// Each wrapper pairs a canonical key builder with an exact (hex-float)
// payload codec and funnels the computation through CampaignRunner::run_unit,
// so Monte-Carlo error characterization, calibrated synthesis costs and
// fault-campaign summaries all become resumable shard-granular work units.
// Passing a null runner degrades every wrapper to the direct computation —
// call sites stay oblivious to whether a store is attached.
//
// Keys deliberately exclude thread counts: every wrapped engine is
// bit-identical for any parallelism (the seed-stability invariant), so a
// result computed with --threads=8 is a valid resume hit for --threads=1.
// Keys *include* a per-engine version tag; bump it whenever an engine's
// numerics change so stale stores miss instead of serving wrong answers.

#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "realm/campaign/runner.hpp"
#include "realm/error/metrics.hpp"
#include "realm/error/monte_carlo.hpp"
#include "realm/hw/power.hpp"
#include "realm/multiplier.hpp"
#include "realm/multipliers/registry.hpp"

namespace realm::hw {
class CostModel;
}

namespace realm::campaign {

/// Version tags folded into the request keys (bump on numeric changes).
inline constexpr const char* kErrorEngineVersion = "batched-v1";
inline constexpr const char* kExhaustiveEngineVersion = "tiled-v1";
inline constexpr const char* kSynthesisEngineVersion = "packed-v1";
inline constexpr const char* kFaultEngineVersion = "packed-v1";

// -- key builders -----------------------------------------------------------
//
// The design enters every key in its canonical spelling
// (mult::DesignSpec::to_string), so all spellings of one design share one
// store unit.

[[nodiscard]] std::string monte_carlo_key(const mult::DesignSpec& spec, int n,
                                          const err::MonteCarloOptions& opts);
/// Parses `spec` (std::invalid_argument on a rejected form), then keys it.
[[nodiscard]] std::string monte_carlo_key(const std::string& spec, int n,
                                          const err::MonteCarloOptions& opts);
[[nodiscard]] std::string exhaustive_key(const mult::DesignSpec& spec, int n,
                                         std::uint64_t lo, std::uint64_t hi);
[[nodiscard]] std::string synthesis_key(const mult::DesignSpec& spec, int n,
                                        const hw::StimulusProfile& profile);
[[nodiscard]] std::string fault_key(const mult::DesignSpec& spec, int n, int vectors,
                                    std::uint64_t seed, std::size_t max_sites);

// -- payload codecs (exact round-trip; parse throws on schema drift) --------

[[nodiscard]] std::string serialize_error_metrics(const err::ErrorMetrics& m);
[[nodiscard]] err::ErrorMetrics parse_error_metrics(const std::string& payload);
[[nodiscard]] std::string serialize_exhaustive_report(const err::ExhaustiveReport& r);
[[nodiscard]] err::ExhaustiveReport parse_exhaustive_report(const std::string& payload);
struct SynthesisResult;
[[nodiscard]] std::string serialize_synthesis(const SynthesisResult& s);
[[nodiscard]] SynthesisResult parse_synthesis(const std::string& payload);

// -- memoized front ends ----------------------------------------------------

/// err::monte_carlo through the campaign store.  `spec`/`n` must be the
/// provenance of `design` — they form the key; the engine never checks.
[[nodiscard]] err::ErrorMetrics cached_monte_carlo(CampaignRunner* runner,
                                                   const Multiplier& design,
                                                   const std::string& spec, int n,
                                                   const err::MonteCarloOptions& opts);

/// err::exhaustive_report through the campaign store.  Exact results are
/// ideal memoization targets: the key is just (engine version, spec, n,
/// range) — no seed, no sample budget — and a stored unit resumes a full
/// 2^32 sweep in one journal read.  `threads` never enters the key (the
/// tiled engine is thread-count invariant); histograms are not stored, so
/// pass hist only through the direct path (runner == nullptr).
[[nodiscard]] err::ExhaustiveReport cached_exhaustive(CampaignRunner* runner,
                                                      const Multiplier& design,
                                                      const std::string& spec, int n,
                                                      std::uint64_t lo,
                                                      std::uint64_t hi,
                                                      int threads = 0);

/// One design's calibrated synthesis record: the Table I design-metric
/// columns plus critical-path delay.
struct SynthesisResult {
  double area_um2 = 0.0;
  double power_uw = 0.0;
  double area_reduction_pct = 0.0;
  double power_reduction_pct = 0.0;
  double delay_ps = 0.0;
};

/// Calibrated cost + timing of one design, computed directly: the unit that
/// cached_synthesis memoizes and the serving layer's synthesis job.
[[nodiscard]] SynthesisResult compute_synthesis(hw::CostModel& cm,
                                                const std::string& spec, int n);

/// Calibrated cost + timing through the campaign store.  `model` is invoked
/// lazily, only when a unit actually misses — a fully warm sweep never pays
/// the CostModel's accurate-reference calibration.
[[nodiscard]] SynthesisResult cached_synthesis(
    CampaignRunner* runner, const std::string& spec, int n,
    const hw::StimulusProfile& profile,
    const std::function<hw::CostModel&()>& model);

/// Summary of one design's stuck-at fault campaign (the fault-tolerance
/// bench's row; per-site detail stays out of the store).
struct FaultSummary {
  std::uint64_t gates = 0;
  std::uint64_t sites_analyzed = 0;
  std::uint64_t sites_undetected = 0;
  double mean_rel_error = 0.0;
  double worst_rel_error = 0.0;
};

/// hw::analyze_fault_impact over build_circuit(spec, n) through the store.
/// `threads` only sets packed-engine parallelism; it is not part of the key.
[[nodiscard]] FaultSummary cached_fault_impact(CampaignRunner* runner,
                                               const std::string& spec, int n,
                                               int vectors, std::uint64_t seed,
                                               std::size_t max_sites, int threads);

}  // namespace realm::campaign
