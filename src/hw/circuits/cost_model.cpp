#include "realm/hw/cost_model.hpp"

#include <mutex>
#include <utility>
#include <vector>

#include "realm/hw/circuits.hpp"
#include "realm/obs/trace.hpp"

namespace realm::hw {

namespace {

// The accurate reference's uncalibrated figures under one stimulus profile.
struct Calibration {
  double raw_area = 0.0;
  double raw_power = 0.0;
};

// Everything that changes the reference's report.  `threads` is left out:
// the packed power engine is bit-identical for any thread count.
struct CalibrationKey {
  int n;
  std::uint32_t cycles;
  std::uint64_t seed;
  double toggle_rate;
  double probability;
  bool count_glitches;

  bool operator==(const CalibrationKey&) const = default;
};

// Process-wide memo of calibrations, so every CostModel on one profile (one
// per served synthesis request, one per CLI or sweep call) simulates the
// reference once.  Fixed capacity with round-robin replacement: a caller
// cycling through many profiles keeps recomputing, but never grows memory.
struct CalibrationMemo {
  std::mutex m;
  std::vector<std::pair<CalibrationKey, Calibration>> entries;  // guarded by m
  std::size_t next_victim = 0;                                  // guarded by m

  // Called with m held.
  [[nodiscard]] const Calibration* find(const CalibrationKey& key) const {
    for (const auto& [k, c] : entries) {
      if (k == key) return &c;
    }
    return nullptr;
  }
};

CalibrationMemo& calibration_memo() {
  static CalibrationMemo memo;
  return memo;
}

Calibration calibrate(int n, const StimulusProfile& profile) {
  const CalibrationKey key{n,
                           profile.cycles,
                           profile.seed,
                           profile.toggle_rate,
                           profile.probability,
                           profile.count_glitches};
  CalibrationMemo& memo = calibration_memo();
  {
    std::lock_guard lock{memo.m};
    if (const Calibration* hit = memo.find(key)) return *hit;
  }
  // Simulated without the lock.  Threads that miss on one key together all
  // compute the same figures; the first to insert wins.
  REALM_TRACE_SCOPE("hw/calibrate");
  const Module acc = build_accurate(n);
  const Calibration c{acc.area_um2(), estimate_power(acc, profile).total()};
  std::lock_guard lock{memo.m};
  if (memo.find(key) != nullptr) return c;
  if (memo.entries.size() < CostModel::kCalibrationMemoCapacity) {
    memo.entries.emplace_back(key, c);
  } else {
    memo.entries[memo.next_victim] = {key, c};
    memo.next_victim = (memo.next_victim + 1) % memo.entries.size();
  }
  return c;
}

}  // namespace

CostModel::CostModel(int n, StimulusProfile profile) : n_{n}, profile_{profile} {
  const Calibration c = calibrate(n_, profile_);
  area_scale_ = kPaperAccurateAreaUm2 / c.raw_area;
  power_scale_ = kPaperAccuratePowerUw / c.raw_power;
  accurate_ = {kPaperAccurateAreaUm2, kPaperAccuratePowerUw};
  cache_["accurate"] = accurate_;
}

std::size_t CostModel::calibration_memo_size() {
  CalibrationMemo& memo = calibration_memo();
  std::lock_guard lock{memo.m};
  return memo.entries.size();
}

const DesignCost& CostModel::cost(const std::string& spec) {
  const mult::DesignSpec parsed = mult::DesignSpec::parse(spec);
  std::string key = parsed.to_string();
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  const Module mod = build_circuit(parsed, n_);
  DesignCost c;
  c.area_um2 = mod.area_um2() * area_scale_;
  c.power_uw = estimate_power(mod, profile_).total() * power_scale_;
  return cache_.emplace(std::move(key), c).first->second;
}

double CostModel::area_reduction_pct(const std::string& spec) {
  return 100.0 * (accurate_.area_um2 - cost(spec).area_um2) / accurate_.area_um2;
}

double CostModel::power_reduction_pct(const std::string& spec) {
  return 100.0 * (accurate_.power_uw - cost(spec).power_uw) / accurate_.power_uw;
}

}  // namespace realm::hw
