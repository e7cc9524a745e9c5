#include "realm/dse/sweep.hpp"

#include <optional>
#include <unordered_map>
#include <utility>

#include "realm/campaign/cached_eval.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/obs/counters.hpp"
#include "realm/obs/trace.hpp"

namespace realm::dse {

std::vector<DesignPoint> run_sweep(const std::vector<std::string>& specs,
                                   const SweepOptions& opts) {
  REALM_TRACE_SCOPE("dse/sweep");

  // Dedupe by canonical spec up front: each unique design, however it is
  // spelled, is characterized exactly once and fanned back out in input
  // order below.
  std::unordered_map<std::string, std::size_t> unique_index;
  std::vector<std::string> unique_specs;
  std::vector<std::size_t> slot;
  slot.reserve(specs.size());
  for (const auto& spec : specs) {
    std::string canonical = mult::DesignSpec::parse(spec).to_string();
    const auto [it, fresh] = unique_index.try_emplace(canonical, unique_specs.size());
    if (fresh) unique_specs.push_back(std::move(canonical));
    slot.push_back(it->second);
  }

  // The calibration (accurate-reference synthesis) is the sweep's fixed
  // cost; build it lazily so a fully campaign-warm run never pays it.
  std::optional<hw::CostModel> cost_model;
  const auto model_ref = [&]() -> hw::CostModel& {
    if (!cost_model) {
      REALM_TRACE_SCOPE("dse/calibrate");
      cost_model.emplace(opts.n, opts.stimulus);
    }
    return *cost_model;
  };

  std::vector<DesignPoint> unique_points;
  unique_points.reserve(unique_specs.size());
  for (const auto& spec : unique_specs) {
    REALM_TRACE_SCOPE("dse/point");
    const auto model = mult::make_multiplier(spec, opts.n);
    DesignPoint p;
    p.spec = spec;
    p.name = model->name();
    // Characterization runs on the batched evaluation engine (persistent
    // pool + multiply_batch); REALM points also hit the shared SegmentLut
    // cache, so repeated (m, q) pairs across the sweep derive Eq. 11 once.
    // With a campaign attached, both halves are store units: completed ones
    // replay from the journal instead of recomputing.
    p.error = campaign::cached_monte_carlo(opts.campaign, *model, spec, opts.n,
                                           opts.monte_carlo);
    const auto syn =
        campaign::cached_synthesis(opts.campaign, spec, opts.n, opts.stimulus, model_ref);
    p.cost.area_um2 = syn.area_um2;
    p.cost.power_uw = syn.power_uw;
    p.area_reduction_pct = syn.area_reduction_pct;
    p.power_reduction_pct = syn.power_reduction_pct;
    obs::counter_add(obs::Counter::kSweepPoints, 1);
    unique_points.push_back(std::move(p));
  }

  std::vector<DesignPoint> points;
  points.reserve(specs.size());
  for (const std::size_t i : slot) points.push_back(unique_points[i]);
  return points;
}

}  // namespace realm::dse
