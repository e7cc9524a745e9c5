#include "realm/hw/cost_model.hpp"

#include <array>
#include <cstdint>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "realm/hw/circuits.hpp"

using namespace realm::hw;

namespace {

CostModel quick_model() {
  StimulusProfile p;
  p.cycles = 300;
  return CostModel{16, p};
}

}  // namespace

TEST(CostModel, CalibrationPinsTheAccurateReference) {
  CostModel cm = quick_model();
  EXPECT_DOUBLE_EQ(cm.accurate().area_um2, kPaperAccurateAreaUm2);
  EXPECT_DOUBLE_EQ(cm.accurate().power_uw, kPaperAccuratePowerUw);
  EXPECT_NEAR(cm.area_reduction_pct("accurate"), 0.0, 1e-9);
  EXPECT_NEAR(cm.power_reduction_pct("accurate"), 0.0, 1e-9);
}

TEST(CostModel, ApproximateDesignsReduceBothMetrics) {
  CostModel cm = quick_model();
  for (const char* spec : {"calm", "mbm:t=0", "realm:m=16,t=0", "realm:m=4,t=9",
                           "drum:k=6", "ssm:m=8", "essm:m=8", "alm-soa:m=11"}) {
    EXPECT_GT(cm.area_reduction_pct(spec), 20.0) << spec;
    EXPECT_LT(cm.area_reduction_pct(spec), 90.0) << spec;
    EXPECT_GT(cm.power_reduction_pct(spec), 20.0) << spec;
    EXPECT_LT(cm.power_reduction_pct(spec), 95.0) << spec;
  }
}

TEST(CostModel, RealmCostOrderingFollowsTheKnobs) {
  CostModel cm = quick_model();
  // Area reduction grows with t (narrower datapath)...
  EXPECT_LT(cm.area_reduction_pct("realm:m=8,t=0"),
            cm.area_reduction_pct("realm:m=8,t=9"));
  // ...and shrinks with M (bigger LUT mux).
  EXPECT_GT(cm.area_reduction_pct("realm:m=4,t=0"),
            cm.area_reduction_pct("realm:m=16,t=0"));
}

TEST(CostModel, RealmOverheadOverMbmIsSmall) {
  // The paper's headline hardware claim: the per-segment LUT adds little on
  // top of MBM's single-constant correction.
  CostModel cm = quick_model();
  const double mbm = cm.cost("mbm:t=0").area_um2;
  const double realm4 = cm.cost("realm:m=4,t=0").area_um2;
  EXPECT_LT(realm4 - mbm, 0.15 * cm.accurate().area_um2);
}

TEST(CostModel, CachingReturnsIdenticalObjects) {
  CostModel cm = quick_model();
  const DesignCost& a = cm.cost("calm");
  const DesignCost& b = cm.cost("calm");
  EXPECT_EQ(&a, &b);
  // The cache keys on the canonical spec, so every spelling shares the entry.
  EXPECT_EQ(&a, &cm.cost("mitchell"));
  EXPECT_EQ(&cm.cost("realm:m=8,t=2"), &cm.cost("REALM:t=2;m=8,q=6"));
  EXPECT_THROW((void)cm.cost("calm:t=00"), std::invalid_argument);
}

TEST(CostModel, IntAlpL2IsTheCostliestApproximate) {
  CostModel cm = quick_model();
  const double intalp = cm.area_reduction_pct("intalp:l=2");
  for (const char* spec : {"calm", "realm:m=16,t=0", "drum:k=8", "ssm:m=10"}) {
    EXPECT_LT(intalp, cm.area_reduction_pct(spec)) << spec;
  }
}

// The calibration memo is process-wide, so the tests below hold whatever
// earlier tests in the same process left in it.

TEST(CostModel, MemoHitsMatchAFreshCalibration) {
  StimulusProfile p;
  p.cycles = 300;
  CostModel first{16, p};
  const std::size_t held = CostModel::calibration_memo_size();
  p.threads = 1;  // never changes a report, so it shares the entry
  CostModel hit{16, p};
  EXPECT_EQ(CostModel::calibration_memo_size(), held);

  // The calibration done by hand, with no memo in the way.
  const Module acc = build_accurate(16);
  const double area_scale = kPaperAccurateAreaUm2 / acc.area_um2();
  const double power_scale = kPaperAccuratePowerUw / estimate_power(acc, p).total();
  const Module design = build_circuit("realm:m=16,t=8", 16);
  const double area = design.area_um2() * area_scale;
  const double power = estimate_power(design, p).total() * power_scale;
  for (CostModel* cm : {&first, &hit}) {
    EXPECT_EQ(cm->cost("realm:m=16,t=8").area_um2, area);
    EXPECT_EQ(cm->cost("realm:m=16,t=8").power_uw, power);
  }
}

TEST(CostModel, MemoStaysAtCapacity) {
  StimulusProfile p;
  p.cycles = 1;
  CostModel first{4, p};
  const DesignCost before = first.cost("calm");
  for (std::uint32_t cycles = 1; cycles <= 1000; ++cycles) {
    p.cycles = cycles;
    CostModel cm{4, p};
  }
  EXPECT_EQ(CostModel::calibration_memo_size(), CostModel::kCalibrationMemoCapacity);

  // cycles = 1 was evicted long ago: recalibrating it reproduces the figures.
  p.cycles = 1;
  CostModel again{4, p};
  EXPECT_EQ(again.cost("calm").area_um2, before.area_um2);
  EXPECT_EQ(again.cost("calm").power_uw, before.power_uw);
}

TEST(CostModel, ConcurrentConstructorsOnOneProfileAgree) {
  constexpr std::size_t kThreads = 4;
  std::array<DesignCost, kThreads> got{};
  std::array<std::thread, kThreads> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads[t] = std::thread{[&got, t] {
      StimulusProfile p;
      p.cycles = 2100;  // three packed blocks, so the power sweep uses the pool
      p.threads = static_cast<int>(t);
      CostModel cm{16, p};
      got[t] = cm.cost("realm:m=16,t=8");
    }};
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(got[t].area_um2, got[0].area_um2) << t;
    EXPECT_EQ(got[t].power_uw, got[0].power_uw) << t;
  }
  // The profile is in the memo now: another constructor hits it and adds
  // nothing.
  const std::size_t held = CostModel::calibration_memo_size();
  StimulusProfile p;
  p.cycles = 2100;
  CostModel again{16, p};
  EXPECT_EQ(CostModel::calibration_memo_size(), held);
  EXPECT_EQ(again.cost("realm:m=16,t=8").power_uw, got[0].power_uw);
}
