#include "realm/hw/power.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "realm/hw/circuits.hpp"

using namespace realm::hw;

namespace {

StimulusProfile quick() {
  StimulusProfile p;
  p.cycles = 200;
  return p;
}

}  // namespace

TEST(Power, DeterministicForSeed) {
  const Module m = build_circuit("calm", 16);
  const auto a = estimate_power(m, quick());
  const auto b = estimate_power(m, quick());
  EXPECT_EQ(a.dynamic, b.dynamic);
  EXPECT_EQ(a.leakage, b.leakage);
}

TEST(Power, ZeroCycleProfileIsRejected) {
  const Module m = build_circuit("calm", 16);
  StimulusProfile p = quick();
  p.cycles = 0;
  EXPECT_THROW((void)estimate_power(m, p), std::invalid_argument);
  EXPECT_THROW((void)estimate_power_reference(m, p), std::invalid_argument);
}

TEST(Power, PackedEngineMatchesScalarReference) {
  const Module m = build_circuit("realm:m=16,t=0", 16);
  StimulusProfile p = quick();
  p.cycles = 1100;  // one full 1024-cycle block plus a partial tail
  // The default profile's rates are dyadic; 0.3 and 0.37 are not, so they
  // pin the packed path's scaled threshold compare to uniform() < p.
  for (const auto& [toggle, prob] : {std::pair{0.25, 0.5}, std::pair{0.3, 0.37}}) {
    p.toggle_rate = toggle;
    p.probability = prob;
    p.threads = 0;
    const auto ref = estimate_power_reference(m, p);
    for (const int threads : {1, 2, 5}) {
      p.threads = threads;
      const auto got = estimate_power(m, p);
      EXPECT_EQ(ref.dynamic, got.dynamic) << toggle << "/" << prob << ", " << threads;
      EXPECT_EQ(ref.leakage, got.leakage) << toggle << "/" << prob << ", " << threads;
    }
  }
}

TEST(Power, ZeroToggleRateMeansZeroDynamic) {
  const Module m = build_circuit("calm", 16);
  StimulusProfile p = quick();
  p.toggle_rate = 0.0;
  const auto r = estimate_power(m, p);
  EXPECT_EQ(r.dynamic, 0.0);
  EXPECT_GT(r.leakage, 0.0);
  EXPECT_EQ(r.total(), r.leakage);
}

TEST(Power, MonotoneInToggleRate) {
  const Module m = build_circuit("accurate", 16);
  StimulusProfile lo = quick(), hi = quick();
  lo.toggle_rate = 0.1;
  hi.toggle_rate = 0.5;
  EXPECT_LT(estimate_power(m, lo).dynamic, estimate_power(m, hi).dynamic);
}

TEST(Power, GlitchModelNeverBelowFunctional) {
  for (const char* spec : {"accurate", "calm", "drum:k=6"}) {
    const Module m = build_circuit(spec, 16);
    StimulusProfile func = quick(), glitch = quick();
    glitch.count_glitches = true;
    EXPECT_GE(estimate_power(m, glitch).dynamic, estimate_power(m, func).dynamic)
        << spec;
  }
}

TEST(Power, LeakageScalesWithGateCount) {
  const Module big = build_circuit("accurate", 16);
  const Module small = build_circuit("ssm:m=8", 16);
  EXPECT_GT(estimate_power(big, quick()).leakage,
            estimate_power(small, quick()).leakage);
}

TEST(Power, ApproximateDesignsBeatAccurate) {
  const StimulusProfile p = quick();
  const double acc = estimate_power(build_circuit("accurate", 16), p).total();
  for (const char* spec : {"calm", "realm:m=16,t=0", "realm:m=4,t=9", "drum:k=5",
                           "ssm:m=8"}) {
    EXPECT_LT(estimate_power(build_circuit(spec, 16), p).total(), acc) << spec;
  }
}
