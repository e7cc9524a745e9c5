#include "realm/numeric/fixed_point.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "oracle/oracle.hpp"
#include "realm/multiplier.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/numeric/rng.hpp"

namespace num = realm::num;
namespace oracle = realm::oracle;

namespace {

// Exact product that counts how often the scalar entry point is called.
class CountingMultiplier final : public realm::Multiplier {
 public:
  std::uint64_t multiply(std::uint64_t a, std::uint64_t b) const override {
    ++calls;
    return a * b;
  }
  std::string name() const override { return "counting"; }
  int width() const override { return 16; }
  mutable int calls = 0;
};

// Signed operands whose magnitudes span the multipliers' full 16-bit
// datapath (the designs assert their operands fit the configured width).
std::vector<std::int64_t> random_operands(std::size_t n, std::uint64_t seed) {
  realm::num::Xoshiro256 rng{seed};
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.below(0x1FFFF)) - 0xFFFF;
  return v;
}
}  // namespace

TEST(FixedPoint, SignedMulSignGrid) {
  EXPECT_EQ(oracle::signed_mul(3, 4, oracle::exact()), 12);
  EXPECT_EQ(oracle::signed_mul(-3, 4, oracle::exact()), -12);
  EXPECT_EQ(oracle::signed_mul(3, -4, oracle::exact()), -12);
  EXPECT_EQ(oracle::signed_mul(-3, -4, oracle::exact()), 12);
  EXPECT_EQ(oracle::signed_mul(0, -4, oracle::exact()), 0);
}

TEST(FixedPoint, SignedMulRoutesThroughProvidedMultiplier) {
  const CountingMultiplier counting;
  EXPECT_EQ(oracle::signed_mul(-5, 6, counting), -30);
  EXPECT_EQ(counting.calls, 1);
}

TEST(FixedPoint, FxMulTruncatesTowardZero) {
  // 1.5 * 1.5 = 2.25 -> 2.25 in Q8 = 576; check truncation on negatives.
  const std::int32_t a = num::to_fx(1.5, 8);
  EXPECT_EQ(oracle::fx_mul(a, a, 8, oracle::exact()), num::to_fx(2.25, 8));
  const std::int32_t m = num::to_fx(-1.5, 8);
  EXPECT_EQ(oracle::fx_mul(m, a, 8, oracle::exact()), -num::to_fx(2.25, 8));
  // (-3) * 1 with 1 fraction bit: -3/2 * 1/2 = -0.75 -> truncates to -0.5 raw -1.
  EXPECT_EQ(oracle::fx_mul(-3, 1, 1, oracle::exact()), -1);
}

TEST(FixedPoint, ToFromFxRoundTrip) {
  for (const double v : {0.0, 0.25, -0.25, 1.999, -3.125}) {
    EXPECT_NEAR(num::from_fx(num::to_fx(v, 12), 12), v, 1.0 / (1 << 12));
  }
}

TEST(FixedPoint, SatSignedClampsToRange) {
  EXPECT_EQ(num::sat_signed(40000, 16), 32767);
  EXPECT_EQ(num::sat_signed(-40000, 16), -32768);
  EXPECT_EQ(num::sat_signed(123, 16), 123);
  EXPECT_EQ(num::sat_signed(-32768, 16), -32768);
  EXPECT_EQ(num::sat_signed(32767, 16), 32767);
}

// --- batched sign/magnitude substrate ---

TEST(FixedPoint, SignedMulBatchMatchesScalarLoop) {
  // 600 elements crosses the internal 512-element chunk boundary.
  const auto a = random_operands(600, 0xA);
  const auto b = random_operands(600, 0xB);
  for (const char* spec : {"accurate", "realm:m=16,t=8", "mitchell", "drum:k=6"}) {
    const auto mul = realm::mult::make_multiplier(spec, 16);
    std::vector<std::int64_t> out(a.size());
    num::signed_mul_batch(a.data(), b.data(), out.data(), a.size(), *mul);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(out[i], oracle::signed_mul(a[i], b[i], *mul)) << spec << " i=" << i;
    }
  }
}

TEST(FixedPoint, SignedRowBatchMatchesScalarLoop) {
  const auto b = random_operands(600, 0xC);
  for (const char* spec : {"accurate", "realm:m=16,t=8", "mbm:t=0"}) {
    const auto mul = realm::mult::make_multiplier(spec, 16);
    for (const std::int64_t a : {std::int64_t{-37}, std::int64_t{0}, std::int64_t{41}}) {
      std::vector<std::int64_t> out(b.size());
      num::signed_row_batch(a, b.data(), out.data(), b.size(), *mul);
      for (std::size_t i = 0; i < b.size(); ++i) {
        ASSERT_EQ(out[i], oracle::signed_mul(a, b[i], *mul))
            << spec << " a=" << a << " i=" << i;
      }
    }
  }
}

TEST(FixedPoint, BatchHandlesEmptyAndOddLengths) {
  const auto mul = realm::mult::make_multiplier("realm:m=16,t=8", 16);
  num::signed_mul_batch(nullptr, nullptr, nullptr, 0, *mul);  // n = 0 is a no-op
  num::signed_row_batch(7, nullptr, nullptr, 0, *mul);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{513}}) {
    const auto a = random_operands(n, 0xD0 + n);
    const auto b = random_operands(n, 0xE0 + n);
    std::vector<std::int64_t> out(n);
    num::signed_mul_batch(a.data(), b.data(), out.data(), n, *mul);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], oracle::signed_mul(a[i], b[i], *mul)) << "n=" << n << " i=" << i;
    }
  }
}

#ifndef NDEBUG
TEST(FixedPointDeathTest, SignedMulRejectsInt64MinInDebug) {
  // |INT64_MIN| is not representable: the magnitude-domain precondition.
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  EXPECT_DEATH((void)oracle::signed_mul(lo, 1, oracle::exact()), "INT64_MIN");
  EXPECT_DEATH((void)oracle::signed_mul(1, lo, oracle::exact()), "INT64_MIN");
}
#endif
