#include "realm/core/lut.hpp"

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "realm/obs/counters.hpp"

namespace core = realm::core;
namespace obs = realm::obs;

TEST(SegmentLut, QuantizationIsRoundToNearest) {
  const core::SegmentLut lut{16, 6};
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 16; ++j) {
      const double exact = lut.exact(i, j);
      EXPECT_EQ(lut.units(i, j),
                static_cast<std::uint32_t>(std::lround(exact * 64.0)));
      EXPECT_NEAR(lut.quantized(i, j), exact, 1.0 / 128.0 + 1e-12);
    }
  }
  EXPECT_LE(lut.max_quantization_error(), 1.0 / 128.0 + 1e-12);
}

TEST(SegmentLut, StoredWidthDropsTwoImplicitZeros) {
  // Factors < 0.25 => bits 2^-1 and 2^-2 are zero => q-2 stored bits.
  // (q = 4 is unbuildable for M = 8 — see CoarseQuantizationOverflows.)
  for (const int q : {5, 6, 8, 10}) {
    const core::SegmentLut lut{8, q};
    EXPECT_EQ(lut.stored_bits(), q - 2);
    for (const auto u : lut.all_units()) {
      EXPECT_LT(u, 1u << (q - 2));
    }
  }
}

TEST(SegmentLut, SelectBitsAreLog2M) {
  EXPECT_EQ(core::SegmentLut(4, 6).select_bits(), 2);
  EXPECT_EQ(core::SegmentLut(8, 6).select_bits(), 3);
  EXPECT_EQ(core::SegmentLut(16, 6).select_bits(), 4);
}

TEST(SegmentLut, RowMajorLayout) {
  const core::SegmentLut lut{4, 6};
  const auto& all = lut.all_units();
  ASSERT_EQ(all.size(), 16u);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(all[static_cast<std::size_t>(i * 4 + j)], lut.units(i, j));
    }
  }
}

TEST(SegmentLut, RejectsInvalidConfigurations) {
  EXPECT_THROW(core::SegmentLut(3, 6), std::invalid_argument);   // not power of 2
  EXPECT_THROW(core::SegmentLut(1, 6), std::invalid_argument);   // too small
  EXPECT_THROW(core::SegmentLut(0, 6), std::invalid_argument);
  EXPECT_THROW(core::SegmentLut(8, 2), std::invalid_argument);   // q too small
  EXPECT_THROW((void)core::SegmentLut(8, 6).exact(8, 0), std::out_of_range);
  EXPECT_THROW((void)core::SegmentLut(8, 6).units(0, -1), std::out_of_range);
}

TEST(SegmentLut, RejectsParametersPastTheCaps) {
  // Direct callers get the spec parser's caps (M <= 256, q <= 30) too: an
  // M = 2^20 table alone would need terabytes.
  EXPECT_THROW(core::SegmentLut(512, 6), std::invalid_argument);
  EXPECT_THROW(core::SegmentLut(1 << 20, 6), std::invalid_argument);
  EXPECT_THROW(core::SegmentLut(8, 31), std::invalid_argument);
  EXPECT_THROW((void)core::SegmentLut::shared(512, 6), std::invalid_argument);
  EXPECT_NO_THROW(core::SegmentLut(8, core::kMaxCorrectionBits));
}

TEST(SegmentLut, MseFormulationAlsoFitsHardwareLayout) {
  const core::SegmentLut lut{8, 6, core::Formulation::kMeanSquareError};
  EXPECT_EQ(lut.formulation(), core::Formulation::kMeanSquareError);
  for (const auto u : lut.all_units()) EXPECT_LT(u, 16u);
}

class LutQuantizationSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LutQuantizationSweep, ErrorBoundedByHalfUlp) {
  const auto [m, q] = GetParam();
  const core::SegmentLut lut{m, q};
  EXPECT_LE(lut.max_quantization_error(), std::ldexp(1.0, -q - 1) + 1e-12);
}

// Minimum buildable q grows with M: the largest factor approaches 0.25 and
// must still round below it (M=4: q>=4, M=8: q>=5, M=16: q>=6).
INSTANTIATE_TEST_SUITE_P(AllPracticalConfigs, LutQuantizationSweep,
                         ::testing::Values(std::tuple{4, 4}, std::tuple{4, 6},
                                           std::tuple{4, 8}, std::tuple{8, 5},
                                           std::tuple{8, 6}, std::tuple{8, 8},
                                           std::tuple{16, 6}, std::tuple{16, 7},
                                           std::tuple{16, 8}));

TEST(SegmentLutCache, SharesOneTablePerConfiguration) {
  const auto a = core::SegmentLut::shared(8, 6);
  const auto b = core::SegmentLut::shared(8, 6);
  EXPECT_EQ(a.get(), b.get());  // identical (m, q, formulation) => same object

  // Any differing key component yields a distinct table.
  EXPECT_NE(a.get(), core::SegmentLut::shared(16, 6).get());
  EXPECT_NE(a.get(), core::SegmentLut::shared(8, 7).get());
  EXPECT_NE(a.get(),
            core::SegmentLut::shared(8, 6, core::Formulation::kMeanSquareError).get());
}

TEST(SegmentLutCache, CachedTableMatchesFreshDerivation) {
  const auto cached = core::SegmentLut::shared(16, 6);
  const core::SegmentLut fresh{16, 6};
  ASSERT_EQ(cached->all_units().size(), fresh.all_units().size());
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 16; ++j) {
      EXPECT_EQ(cached->units(i, j), fresh.units(i, j));
      EXPECT_EQ(cached->exact(i, j), fresh.exact(i, j));
    }
  }
}

TEST(SegmentLutCache, EntriesSurviveAllUsersDropping) {
  // Strong caching: a derived table lives for the process, so the
  // construct-use-destroy iterations of a sweep re-use one derivation
  // instead of repeating the quadrature (and the telemetry records it).
  const core::SegmentLut* first;
  {
    const auto a = core::SegmentLut::shared(4, 12);  // (4, 12): test-local key
    first = a.get();
  }
  const std::uint64_t hits_before = obs::counter_value(obs::Counter::kLutCacheHits);
  const auto b = core::SegmentLut::shared(4, 12);
  EXPECT_EQ(b.get(), first);  // same object, not a rederivation
  EXPECT_EQ(obs::counter_value(obs::Counter::kLutCacheHits), hits_before + 1);
}

TEST(SegmentLutCache, InvalidConfigurationsStillThrow) {
  EXPECT_THROW((void)core::SegmentLut::shared(3, 6), std::invalid_argument);
  EXPECT_THROW((void)core::SegmentLut::shared(8, 2), std::invalid_argument);
  EXPECT_THROW((void)core::SegmentLut::shared(16, 4), std::domain_error);
}

TEST(SegmentLut, CoarseQuantizationOverflowsTheStoredWidth) {
  // For M >= 8 the largest factor (~0.225 at the anti-diagonal centre)
  // rounds up to 0.25 at q <= 4, which no longer fits q-2 bits — the
  // hardware layout's implicit-zero assumption would break, so construction
  // must fail loudly.
  EXPECT_THROW(core::SegmentLut(8, 4), std::domain_error);
  EXPECT_THROW(core::SegmentLut(16, 4), std::domain_error);
  EXPECT_NO_THROW(core::SegmentLut(4, 4));  // M = 4 peaks at ~0.193
}
