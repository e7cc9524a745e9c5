#include "realm/multipliers/registry.hpp"

#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "realm/campaign/cached_eval.hpp"
#include "realm/multipliers/accurate.hpp"
#include "realm/multipliers/drum.hpp"
#include "realm/multipliers/mbm.hpp"
#include "realm/multipliers/mitchell.hpp"
#include "realm/multipliers/ssm.hpp"
#include "realm/numeric/rng.hpp"

using namespace realm;

namespace {

double rel_error_pct(const Multiplier& m, std::uint64_t a, std::uint64_t b) {
  const double exact = static_cast<double>(a) * static_cast<double>(b);
  return 100.0 * (static_cast<double>(m.multiply(a, b)) - exact) / exact;
}

}  // namespace

TEST(Accurate, IsExactEverywhere) {
  const mult::AccurateMultiplier m{16};
  num::Xoshiro256 rng{1};
  for (int it = 0; it < 100000; ++it) {
    const std::uint64_t a = rng.below(65536), b = rng.below(65536);
    EXPECT_EQ(m.multiply(a, b), a * b);
  }
}

TEST(Mitchell, HandComputedValues) {
  const mult::MitchellMultiplier m{16};
  // 3×3: x = y = 1/2, x+y = 1 -> C~ = 2^(1+1+1)·(1+0) = 8 (exact 9, -11.1 %).
  EXPECT_EQ(m.multiply(3, 3), 8u);
  // Powers of two are exact (x = y = 0).
  EXPECT_EQ(m.multiply(4, 8), 32u);
  EXPECT_EQ(m.multiply(1, 77), 77u);
  // 6×6: same fractions as 3×3, scaled: 2^(2+2+1)·1 = 32 (exact 36).
  EXPECT_EQ(m.multiply(6, 6), 32u);
  // 5×5: x = y = 1/4 -> 2^4·(1.5) = 24 (exact 25).
  EXPECT_EQ(m.multiply(5, 5), 24u);
}

TEST(Mitchell, NeverOverestimates) {
  const mult::MitchellMultiplier m{16};
  num::Xoshiro256 rng{2};
  for (int it = 0; it < 200000; ++it) {
    const std::uint64_t a = rng.below(65536), b = rng.below(65536);
    EXPECT_LE(m.multiply(a, b), a * b);
  }
}

TEST(Mitchell, PeakUnderestimateIsOneNinth) {
  const mult::MitchellMultiplier m{16};
  double worst = 0.0;
  num::Xoshiro256 rng{3};
  for (int it = 0; it < 300000; ++it) {
    const std::uint64_t a = 1 + rng.below(65535), b = 1 + rng.below(65535);
    worst = std::min(worst, rel_error_pct(m, a, b));
  }
  EXPECT_GT(worst, -100.0 / 9.0 - 1e-6);
  EXPECT_LT(worst, -11.0);  // the bound is achieved (x = y = 1/2 inputs)
}

TEST(Drum, ExactWhenOperandsFitFragment) {
  const mult::DrumMultiplier m{16, 6};
  for (std::uint64_t a = 0; a < 64; ++a) {
    for (std::uint64_t b = 0; b < 64; ++b) EXPECT_EQ(m.multiply(a, b), a * b);
  }
}

TEST(Drum, ErrorShrinksWithK) {
  num::Xoshiro256 rng{4};
  double worst6 = 0.0, worst8 = 0.0;
  const mult::DrumMultiplier m6{16, 6}, m8{16, 8};
  for (int it = 0; it < 100000; ++it) {
    const std::uint64_t a = 1 + rng.below(65535), b = 1 + rng.below(65535);
    worst6 = std::max(worst6, std::fabs(rel_error_pct(m6, a, b)));
    worst8 = std::max(worst8, std::fabs(rel_error_pct(m8, a, b)));
  }
  EXPECT_LT(worst8, worst6);
  EXPECT_LT(worst8, 1.6);   // Table I: ±1.47/1.57 for k = 8
  EXPECT_LT(worst6, 6.5);   // Table I: -5.78/+6.35 for k = 6
}

TEST(Ssm, OneSidedAndExactForSmallInputs) {
  const mult::SsmMultiplier m{16, 8};
  num::Xoshiro256 rng{5};
  for (std::uint64_t a = 0; a < 256; ++a) EXPECT_EQ(m.multiply(a, 7), a * 7);
  for (int it = 0; it < 100000; ++it) {
    const std::uint64_t a = rng.below(65536), b = rng.below(65536);
    EXPECT_LE(m.multiply(a, b), a * b);
  }
}

TEST(Essm, MiddleSegmentHalvesWorstCase) {
  const mult::SsmMultiplier ssm{16, 8};
  const mult::EssmMultiplier essm{16, 8};
  // The SSM worst case: value just above a segment boundary.
  const std::uint64_t bad = 0x01FF;
  EXPECT_LT(rel_error_pct(ssm, bad, bad), -70.0);
  EXPECT_GT(rel_error_pct(essm, bad, bad), -13.0);
}

TEST(LogFamily, CommutativityHoldsForSymmetricDesigns) {
  num::Xoshiro256 rng{6};
  for (const char* spec : {"calm", "mbm:t=3", "alm-soa:m=9", "alm-maa:m=6", "implm",
                           "drum:k=6", "ssm:m=8", "essm:m=8", "intalp:l=2"}) {
    const auto m = mult::make_multiplier(spec, 16);
    for (int it = 0; it < 20000; ++it) {
      const std::uint64_t a = rng.below(65536), b = rng.below(65536);
      ASSERT_EQ(m->multiply(a, b), m->multiply(b, a)) << spec;
    }
  }
}

TEST(AllDesigns, ZeroAnnihilates) {
  for (const auto& spec : mult::table1_specs()) {
    const auto m = mult::make_multiplier(spec, 16);
    EXPECT_EQ(m->multiply(0, 54321), 0u) << spec;
    EXPECT_EQ(m->multiply(54321, 0), 0u) << spec;
  }
}

TEST(AllDesigns, MultiplyByOneStaysInsideTheDesignEnvelope) {
  // a·1: log-based designs see x = 0 for the 1-operand and stay within
  // ~12.5 %; segment multipliers (SSM) can still truncate the a-operand by
  // almost half.  Nothing may exceed the worst Table I peak (-72.7 %).
  num::Xoshiro256 rng{8};
  for (const auto& spec : mult::table1_specs()) {
    const auto m = mult::make_multiplier(spec, 16);
    for (int it = 0; it < 2000; ++it) {
      const std::uint64_t a = 1 + rng.below(65535);
      const double e = std::fabs(rel_error_pct(*m, a, 1));
      ASSERT_LT(e, 55.0) << spec << " a=" << a;
    }
  }
}

TEST(AllDesigns, OutputNeverExceedsProductEnvelope) {
  // No design may overshoot 2·exact (sanity bound well beyond any Table I
  // peak error).
  num::Xoshiro256 rng{9};
  for (const auto& spec : mult::table1_specs()) {
    const auto m = mult::make_multiplier(spec, 16);
    for (int it = 0; it < 5000; ++it) {
      const std::uint64_t a = 1 + rng.below(65535), b = 1 + rng.below(65535);
      ASSERT_LT(static_cast<double>(m->multiply(a, b)),
                2.0 * static_cast<double>(a * b))
          << spec;
    }
  }
}

TEST(Mbm, RejectsCorrectionBitsPastTheCap) {
  // Past q = 34 the 32-bit correction wraps and past q = 65 the alignment
  // shifts overflow, so direct callers get the parser's q <= 30 cap.
  EXPECT_THROW(mult::MbmMultiplier(16, 0, 31), std::invalid_argument);
  EXPECT_THROW(mult::MbmMultiplier(16, 0, 70), std::invalid_argument);
  EXPECT_THROW(mult::MbmMultiplier(16, 0, 2), std::invalid_argument);
  EXPECT_NO_THROW(mult::MbmMultiplier(16, 0, 30));
}

TEST(IntAlp, Level1IsOneSidedPositive) {
  const auto m = mult::make_multiplier("intalp:l=1", 16);
  num::Xoshiro256 rng{10};
  for (int it = 0; it < 100000; ++it) {
    const std::uint64_t a = 1 + rng.below(65535), b = 1 + rng.below(65535);
    ASSERT_GE(static_cast<double>(m->multiply(a, b)) + 1.0,
              static_cast<double>(a * b));
  }
}

TEST(AmFamily, OneSidedNegative) {
  num::Xoshiro256 rng{11};
  for (const char* spec : {"am1:nb=13", "am1:nb=5", "am2:nb=13", "am2:nb=5"}) {
    const auto m = mult::make_multiplier(spec, 16);
    for (int it = 0; it < 50000; ++it) {
      const std::uint64_t a = rng.below(65536), b = rng.below(65536);
      ASSERT_LE(m->multiply(a, b), a * b) << spec;
    }
  }
}

TEST(Registry, ParsesSpecsAndRejectsGarbage) {
  EXPECT_NO_THROW((void)mult::make_multiplier("REALM:M=8,T=2", 16));  // case-insensitive
  EXPECT_NO_THROW((void)mult::make_multiplier("realm:m=8;t=2", 16));  // CSV-safe form
  EXPECT_THROW((void)mult::make_multiplier("unknown", 16), std::invalid_argument);
  EXPECT_THROW((void)mult::make_multiplier("drum", 16), std::invalid_argument);  // missing k
  EXPECT_THROW((void)mult::make_multiplier("drum:=3", 16), std::invalid_argument);
  EXPECT_THROW((void)mult::make_multiplier("realm:m=5", 16), std::invalid_argument);
}

TEST(Registry, Table1CoversThePaperRowCount) {
  const auto specs = mult::table1_specs();
  // 30 REALM rows + cALM + ImpLM + 6 MBM + 10 ALM + 2 IntALP + 6 AM +
  // 5 DRUM + 3 SSM + ESSM8 = 65 approximate designs.
  EXPECT_EQ(specs.size(), 65u);
  for (const auto& spec : specs) {
    EXPECT_NO_THROW((void)mult::make_multiplier(spec, 16)) << spec;
  }
}

TEST(Registry, NamesAreUnique) {
  std::set<std::string> names;
  for (const auto& spec : mult::table1_specs()) {
    EXPECT_TRUE(names.insert(mult::make_multiplier(spec, 16)->name()).second) << spec;
  }
}

// Every spelling the repo uses as a key is its own canonical form, so
// journals written before DesignSpec existed keep every warm hit.
TEST(DesignSpec, RepoSpellingsAreCanonical) {
  std::vector<std::string> specs = mult::table1_specs();
  for (const auto& s : mult::table2_specs()) specs.push_back(s);
  for (const auto& s : mult::fig1_specs()) specs.push_back(s);
  // The served benchmark's design rotation, the CI smokes, the circuit-only
  // adder ablation and bench_ablation's non-default q / MSE points.
  for (const char* s : {"realm:m=16,t=4", "realm:m=8,t=2", "mbm:t=0", "drum:k=6", "calm",
                        "ssm:m=8", "implm", "alm-soa:m=11", "accurate", "realm:m=16,t=8",
                        "calm:adder=1", "calm:adder=2", "realm:m=8,t=0,q=5",
                        "realm:m=8,t=0,mse=1"}) {
    specs.emplace_back(s);
  }
  for (const auto& s : specs) {
    const auto parsed = mult::DesignSpec::parse(s);
    EXPECT_EQ(parsed.to_string(), s);
    EXPECT_EQ(mult::DesignSpec::parse(parsed.to_string()), parsed) << s;
  }
}

// The alias spellings that used to build one model under many campaign keys:
// each now yields exactly the canonical key or is rejected with
// std::invalid_argument (never std::out_of_range).
TEST(DesignSpec, AliasSpellingsFoldOrAreRejected) {
  struct Case {
    const char* spelling;
    const char* canonical;  // nullptr: rejected
  };
  const Case cases[] = {
      {"realm:t=0,m=16", "realm:m=16,t=0"},
      {"REALM:m=16,t=0", "realm:m=16,t=0"},
      {"realm:m=16;t=0", "realm:m=16,t=0"},
      {"realm", "realm:m=16,t=0"},
      {"realm:m=16,t=0,q=6,mse=0", "realm:m=16,t=0"},
      {"mitchell", "calm"},
      {"calm:t=0,adder=0", "calm"},
      {"mbm", "mbm:t=0"},
      {"intalp", "intalp:l=2"},
      {"realm:m=016,t=0", nullptr},
      {"realm:m=+16,t=00", nullptr},
      {"realm:m= 16,t=0", nullptr},
      {"realm:m=16abc,t=0", nullptr},
      {"realm:m=16,t=0,", nullptr},
      {"realm:m=16,t=0,zz=7", nullptr},
      {"realm:m=16,t=0,m=16", nullptr},
      {"realm:m=16,t=-0", nullptr},
      {"realm:m=99999999999,t=0", nullptr},
      {"realm:m=16,,t=0", nullptr},
      {"realm:", nullptr},
      {"realm:m=16,t=0,mse=2", nullptr},
      {"drum:k=6,q=1", nullptr},
      {"accurate:x=1", nullptr},
      {" realm:m=16,t=0", nullptr},
  };
  err::MonteCarloOptions opts;
  for (const Case& c : cases) {
    if (c.canonical != nullptr) {
      EXPECT_EQ(mult::DesignSpec::parse(c.spelling).to_string(), c.canonical)
          << c.spelling;
      EXPECT_EQ(campaign::monte_carlo_key(c.spelling, 16, opts),
                campaign::monte_carlo_key(c.canonical, 16, opts))
          << c.spelling;
    } else {
      EXPECT_THROW((void)mult::DesignSpec::parse(c.spelling), std::invalid_argument)
          << c.spelling;
      EXPECT_THROW((void)mult::make_multiplier(c.spelling, 16), std::invalid_argument)
          << c.spelling;
      EXPECT_THROW((void)campaign::monte_carlo_key(c.spelling, 16, opts),
                   std::invalid_argument)
          << c.spelling;
    }
  }
}

// The key bytes journals were written under before specs were parsed into a
// DesignSpec; a store from then must stay warm, so these must not move.
TEST(DesignSpec, CampaignKeysKeepTheirJournalBytes) {
  err::MonteCarloOptions mc;
  mc.samples = 1 << 20;
  mc.seed = 0x1234;
  hw::StimulusProfile profile;
  profile.cycles = 512;
  const auto alm = mult::DesignSpec::parse("ALM-SOA:m=11");
  EXPECT_EQ(campaign::monte_carlo_key("alm-soa:m=11", 16, mc),
            "realm-campaign/v1|error_mc|engine=batched-v1|spec=alm-soa:m=11|n=16|"
            "samples=1048576|seed=0x1234");
  EXPECT_EQ(campaign::exhaustive_key(alm, 16, 0, 4095),
            "realm-campaign/v1|error_exhaustive|engine=tiled-v1|spec=alm-soa:m=11|n=16|"
            "lo=0|hi=4095");
  EXPECT_EQ(campaign::synthesis_key(alm, 16, profile),
            "realm-campaign/v1|synthesis|engine=packed-v1|spec=alm-soa:m=11|n=16|"
            "cycles=512|seed=0x9a7e5eed|toggle_rate=0x1p-2|probability=0x1p-1|"
            "glitches=0");
}
