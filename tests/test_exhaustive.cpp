// Exhaustive characterization engine and the row-hoisted fixed-operand
// kernels.
//
// The load-bearing contracts:
//   * multiply_row_batch / multiply_row_range are bit-identical to scalar
//     multiply() for every design (exhaustively at 8 bits, randomized at 16);
//   * the tiled engine reproduces exhaustive_generic_reference bit-for-bit
//     (identical fold order and IEEE ops) at any thread count;
//   * peak witnesses are integer-exact and reproduce the metrics peaks;
//   * range validation throws instead of silently sweeping a wrong space;
//   * the campaign codec round-trips reports exactly and a resumed
//     cached_exhaustive serves the stored result bit-for-bit.

#include "realm/error/monte_carlo.hpp"

#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "realm/campaign/cached_eval.hpp"
#include "realm/campaign/result_store.hpp"
#include "realm/campaign/runner.hpp"
#include "realm/error/eval_engine.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/numeric/rng.hpp"
#include "realm/obs/counters.hpp"

namespace fs = std::filesystem;
using namespace realm;

namespace {

// Every multiplier family (pairwise, row and range kernels generated from
// one datapath definition), several configurations of the LUT families.
const std::vector<std::string>& kernel_specs() {
  static const std::vector<std::string> specs = {
      "accurate",      "realm:m=16,t=0", "realm:m=16,t=4", "realm:m=8,t=2",
      "realm:m=4,t=9", "calm",           "mbm:t=4",        "mbm:t=0",
      "drum:k=6",      "ssm:m=10",       "essm:m=8",       "implm",
      "intalp:l=1",    "intalp:l=2",     "alm-soa:m=11",   "alm-maa:m=11",
      "am1:nb=9",      "am2:nb=9",
  };
  return specs;
}

// Some listed specs are unrealizable at narrow widths (e.g. t consuming the
// whole fraction, or an SSM segment wider than the operand) — skip those,
// matching the --exact bench's behavior.
std::unique_ptr<Multiplier> try_make(const std::string& spec, int width) {
  try {
    return mult::make_multiplier(spec, width);
  } catch (const std::exception&) {
    return nullptr;
  }
}

bool metrics_identical(const err::ErrorMetrics& x, const err::ErrorMetrics& y) {
  return x.bias == y.bias && x.mean == y.mean && x.variance == y.variance &&
         x.min == y.min && x.max == y.max && x.samples == y.samples;
}

/// Fresh path under the system temp dir; removed on destruction.
class TempStorePath {
 public:
  explicit TempStorePath(const std::string& tag) {
    static int counter = 0;
    path_ = (fs::temp_directory_path() /
             ("realm_test_" + tag + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter++) + ".store"))
                .string();
    std::remove(path_.c_str());
  }
  ~TempStorePath() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& str() const noexcept { return path_; }

 private:
  std::string path_;
};

}  // namespace

// -- row kernels: bit-identity with the scalar datapath ----------------------

TEST(RowKernels, Exhaustive8BitMatchesScalar) {
  constexpr int kWidth = 8;
  constexpr std::uint64_t kSpace = 1u << kWidth;
  std::vector<std::uint64_t> b_all(kSpace), out(kSpace);
  for (std::uint64_t b = 0; b < kSpace; ++b) b_all[b] = b;
  // Pairwise operands for the full cross product with `a` varying inside
  // each call: a = i mod 256, b = i / 256.
  std::vector<std::uint64_t> a_cross(kSpace * kSpace), b_cross(kSpace * kSpace),
      out_cross(kSpace * kSpace);
  for (std::uint64_t i = 0; i < kSpace * kSpace; ++i) {
    a_cross[i] = i % kSpace;
    b_cross[i] = i / kSpace;
  }

  for (const auto& spec : kernel_specs()) {
    SCOPED_TRACE(spec);
    const auto m = try_make(spec, kWidth);
    if (!m) continue;
    for (std::uint64_t a = 0; a < kSpace; ++a) {
      m->multiply_row_batch(a, b_all.data(), out.data(), kSpace);
      for (std::uint64_t b = 0; b < kSpace; ++b) {
        ASSERT_EQ(out[b], m->multiply(a, b)) << "row_batch a=" << a << " b=" << b;
      }
      m->multiply_row_range(a, 0, out.data(), kSpace);
      for (std::uint64_t b = 0; b < kSpace; ++b) {
        ASSERT_EQ(out[b], m->multiply(a, b)) << "row_range a=" << a << " b=" << b;
      }
    }
    m->multiply_batch(a_cross.data(), b_cross.data(), out_cross.data(), out_cross.size());
    for (std::size_t i = 0; i < out_cross.size(); ++i) {
      ASSERT_EQ(out_cross[i], m->multiply(a_cross[i], b_cross[i]))
          << "batch a=" << a_cross[i] << " b=" << b_cross[i];
    }
  }
}

TEST(RowKernels, Randomized16BitMatchesBatchAndScalar) {
  constexpr int kWidth = 16;
  constexpr std::uint64_t kSpace = 1u << kWidth;
  constexpr std::size_t kN = 2048;
  num::Xoshiro256 rng{42};

  std::vector<std::uint64_t> b(kN), a_rep(kN), out_row(kN), out_batch(kN);
  for (const auto& spec : kernel_specs()) {
    SCOPED_TRACE(spec);
    const auto m = try_make(spec, kWidth);
    ASSERT_NE(m, nullptr) << "every listed spec must be realizable at 16 bits";
    for (int rep = 0; rep < 8; ++rep) {
      const std::uint64_t a = rng.below(kSpace);
      for (std::size_t i = 0; i < kN; ++i) {
        b[i] = rng.below(kSpace);
        a_rep[i] = a;
      }
      m->multiply_row_batch(a, b.data(), out_row.data(), kN);
      m->multiply_batch(a_rep.data(), b.data(), out_batch.data(), kN);
      for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(out_row[i], out_batch[i]) << "a=" << a << " b=" << b[i];
        ASSERT_EQ(out_row[i], m->multiply(a, b[i])) << "a=" << a << " b=" << b[i];
      }
      // Contiguous ranges with a random start exercise every power-of-two
      // segment boundary crossing in the range kernels.
      const std::uint64_t b0 = rng.below(kSpace - kN);
      m->multiply_row_range(a, b0, out_row.data(), kN);
      for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(out_row[i], m->multiply(a, b0 + i)) << "a=" << a << " b=" << (b0 + i);
      }
    }
  }
}

TEST(RowKernels, RangeCoversFullSpaceEdges) {
  // Degenerate ranges: n = 0 and n = 1 at both ends of the space, plus a
  // range starting at 0 (the zero-column special case).
  for (const auto& spec : kernel_specs()) {
    SCOPED_TRACE(spec);
    const auto m = try_make(spec, 8);
    if (!m) continue;
    std::uint64_t out[4] = {~0ull, ~0ull, ~0ull, ~0ull};
    m->multiply_row_range(7, 0, out, 0);  // n = 0: no write
    EXPECT_EQ(out[0], ~0ull);
    m->multiply_row_range(7, 0, out, 1);  // only the zero column
    EXPECT_EQ(out[0], 0u);
    m->multiply_row_range(7, 255, out, 1);  // top of the space
    EXPECT_EQ(out[0], m->multiply(7, 255));
    m->multiply_row_range(0, 5, out, 3);  // zero row
    EXPECT_EQ(out[0], 0u);
    EXPECT_EQ(out[1], 0u);
    EXPECT_EQ(out[2], 0u);
  }
}

TEST(RowKernels, NoDesignUsesAFallbackLoop) {
  // Multiplier declares the three batch shapes pure virtual, so every
  // design of Tables I and II runs its generated kernels; the retired
  // fallback counter stays 0.
  std::vector<std::string> specs = mult::table1_specs();
  for (const auto& s : mult::table2_specs()) specs.push_back(s);
  constexpr std::uint64_t kA = 40503;
  std::vector<std::uint64_t> a(1500), b(1500), out(1500);
  for (std::size_t i = 0; i < b.size(); ++i) {
    a[i] = (i * 7919) & 0xFFFF;
    b[i] = i;
  }
  obs::counters_reset();
  for (const auto& spec : specs) {
    SCOPED_TRACE(spec);
    const auto m = mult::make_multiplier(spec, 16);
    m->multiply_batch(a.data(), b.data(), out.data(), out.size());
    EXPECT_EQ(out[1499], m->multiply(a[1499], b[1499]));
    m->multiply_row_batch(kA, b.data(), out.data(), out.size());
    EXPECT_EQ(out[1499], m->multiply(kA, b[1499]));
    m->multiply_row_range(kA, 0, out.data(), out.size());
    EXPECT_EQ(out[1499], m->multiply(kA, 1499));
  }
  EXPECT_EQ(obs::counter_value(obs::Counter::kRowFallbackBatches), 0u);
}

// -- tiled engine: bit-identity, determinism, witnesses ----------------------

TEST(ExhaustiveEngine, TiledMatchesGenericReferenceBitForBit) {
  for (const auto& spec : {"realm:m=16,t=0", "calm", "drum:k=6", "accurate"}) {
    SCOPED_TRACE(spec);
    const auto m = mult::make_multiplier(spec, 8);
    const auto ref = err::exhaustive_generic_reference(*m);
    const auto rep = err::exhaustive_report(*m);
    EXPECT_TRUE(metrics_identical(ref, rep.metrics));
    EXPECT_TRUE(metrics_identical(ref, err::exhaustive(*m)));
  }
}

TEST(ExhaustiveEngine, ThreadCountNeverChangesResults) {
  const auto m = mult::make_multiplier("realm:m=8,t=2", 8);
  const auto t1 = err::exhaustive_report(*m, nullptr, {}, {}, 1);
  for (int threads : {2, 3, 8}) {
    const auto tn = err::exhaustive_report(*m, nullptr, {}, {}, threads);
    EXPECT_TRUE(metrics_identical(t1.metrics, tn.metrics)) << threads << " threads";
    EXPECT_EQ(t1.min_peak.a, tn.min_peak.a);
    EXPECT_EQ(t1.min_peak.b, tn.min_peak.b);
    EXPECT_EQ(t1.max_peak.a, tn.max_peak.a);
    EXPECT_EQ(t1.max_peak.b, tn.max_peak.b);
  }
}

TEST(ExhaustiveEngine, SubrangeMatchesGenericReference) {
  const auto m = mult::make_multiplier("realm:m=16,t=0", 16);
  const auto ref = err::exhaustive_generic_reference(*m, 100, 900);
  const auto rep = err::exhaustive_report(*m, nullptr, 100, 900);
  EXPECT_TRUE(metrics_identical(ref, rep.metrics));
  EXPECT_EQ(rep.pairs, 801u * 801u);
}

TEST(ExhaustiveEngine, ScalarReferenceAgreesStatistically) {
  // Different summation order — numerically close, not bit-identical.
  const auto m = mult::make_multiplier("calm", 8);
  const auto scalar = err::exhaustive_scalar_reference(*m);
  const auto tiled = err::exhaustive(*m);
  EXPECT_NEAR(scalar.bias, tiled.bias, 1e-9);
  EXPECT_NEAR(scalar.mean, tiled.mean, 1e-9);
  EXPECT_NEAR(scalar.variance, tiled.variance, 1e-7);
  EXPECT_EQ(scalar.min, tiled.min);  // peaks are single-pair values: exact
  EXPECT_EQ(scalar.max, tiled.max);
  EXPECT_EQ(scalar.samples, tiled.samples);
}

TEST(ExhaustiveEngine, PeakWitnessesAreIntegerExact) {
  const auto m = mult::make_multiplier("realm:m=16,t=0", 10);
  const auto rep = err::exhaustive_report(*m);
  ASSERT_TRUE(rep.min_peak.valid);
  ASSERT_TRUE(rep.max_peak.valid);
  for (const auto* w : {&rep.min_peak, &rep.max_peak}) {
    EXPECT_EQ(w->product, m->multiply(w->a, w->b));
    const double exact = static_cast<double>(w->a) * static_cast<double>(w->b);
    ASSERT_NE(exact, 0.0);
    const double err_pct = 100.0 * (static_cast<double>(w->product) - exact) / exact;
    EXPECT_EQ(err_pct, w->error);
  }
  EXPECT_EQ(rep.min_peak.error, rep.metrics.min);
  EXPECT_EQ(rep.max_peak.error, rep.metrics.max);
  EXPECT_EQ(rep.pairs, std::uint64_t{1} << 20);
}

TEST(ExhaustiveEngine, AccurateDesignHasZeroErrorEverywhere) {
  const auto m = mult::make_multiplier("accurate", 8);
  const auto rep = err::exhaustive_report(*m);
  EXPECT_EQ(rep.metrics.min, 0.0);
  EXPECT_EQ(rep.metrics.max, 0.0);
  EXPECT_EQ(rep.metrics.bias, 0.0);
  EXPECT_EQ(rep.metrics.mean, 0.0);
}

TEST(ExhaustiveEngine, HistogramCountsEveryValidPair) {
  const auto m = mult::make_multiplier("calm", 8);
  err::Histogram hist{-15.0, 15.0, 64};
  const auto rep = err::exhaustive_report(*m, &hist);
  EXPECT_EQ(hist.total(), rep.metrics.samples);
  // Mitchell's error is never positive: everything at or below zero.
  EXPECT_EQ(hist.overflow(), 0u);
}

TEST(ExhaustiveEngine, HistogramIsThreadCountInvariant) {
  const auto m = mult::make_multiplier("realm:m=8,t=0", 8);
  err::Histogram h1{-12.0, 12.0, 48}, h4{-12.0, 12.0, 48};
  (void)err::exhaustive_report(*m, &h1, {}, {}, 1);
  (void)err::exhaustive_report(*m, &h4, {}, {}, 4);
  for (int bin = 0; bin < h1.bins(); ++bin) EXPECT_EQ(h1.count(bin), h4.count(bin));
  EXPECT_EQ(h1.underflow(), h4.underflow());
  EXPECT_EQ(h1.overflow(), h4.overflow());
}

TEST(ExhaustiveEngine, ValidationRejectsBadRanges) {
  const auto m = mult::make_multiplier("realm:m=16,t=0", 8);
  EXPECT_THROW((void)err::exhaustive(*m, 10, 5), std::invalid_argument);
  EXPECT_THROW((void)err::exhaustive(*m, {}, 256), std::invalid_argument);
  EXPECT_THROW((void)err::exhaustive_report(*m, nullptr, 10, 5), std::invalid_argument);
  EXPECT_THROW((void)err::exhaustive_report(*m, nullptr, 0, 1u << 20),
               std::invalid_argument);
  // The boundary itself is fine.
  EXPECT_NO_THROW((void)err::exhaustive(*m, 255, 255));
}

TEST(ExhaustiveEngine, MonteCarloStaysInsideExactEnvelope) {
  // MC draws from the same space, so its peaks can never escape the exact
  // ones, and bias/mean converge to the exact values.
  const auto m = mult::make_multiplier("realm:m=16,t=0", 10);
  const auto exact = err::exhaustive_report(*m);
  err::MonteCarloOptions opts;
  opts.samples = std::uint64_t{1} << 18;
  const auto mc = err::monte_carlo(*m, opts);
  EXPECT_GE(mc.min, exact.metrics.min);
  EXPECT_LE(mc.max, exact.metrics.max);
  EXPECT_NEAR(mc.bias, exact.metrics.bias, 0.05);
  EXPECT_NEAR(mc.mean, exact.metrics.mean, 0.05);
}

// -- campaign integration ----------------------------------------------------

TEST(ExhaustiveCampaign, ReportCodecRoundTripsExactly) {
  const auto m = mult::make_multiplier("realm:m=16,t=0", 10);
  const auto rep = err::exhaustive_report(*m);
  const auto back = campaign::parse_exhaustive_report(
      campaign::serialize_exhaustive_report(rep));
  EXPECT_TRUE(metrics_identical(rep.metrics, back.metrics));
  EXPECT_EQ(rep.pairs, back.pairs);
  for (const auto& [orig, parsed] :
       {std::pair{&rep.min_peak, &back.min_peak}, {&rep.max_peak, &back.max_peak}}) {
    EXPECT_EQ(orig->a, parsed->a);
    EXPECT_EQ(orig->b, parsed->b);
    EXPECT_EQ(orig->product, parsed->product);
    EXPECT_EQ(orig->error, parsed->error);  // hex-float payload: bit-exact
    EXPECT_EQ(orig->valid, parsed->valid);
  }
}

TEST(ExhaustiveCampaign, CodecRejectsGarbage) {
  EXPECT_THROW((void)campaign::parse_exhaustive_report(""), std::exception);
  EXPECT_THROW((void)campaign::parse_exhaustive_report("bias=zzz"), std::exception);
}

TEST(ExhaustiveCampaign, KeyIsCanonicalAndThreadFree) {
  const auto realm16 = mult::DesignSpec::parse("realm:m=16,t=0");
  const auto k1 = campaign::exhaustive_key(realm16, 16, 0, 65535);
  EXPECT_EQ(k1, campaign::exhaustive_key(realm16, 16, 0, 65535));
  EXPECT_EQ(k1, campaign::exhaustive_key(mult::DesignSpec::parse("realm:t=0,m=16"), 16,
                                         0, 65535));
  EXPECT_NE(k1, campaign::exhaustive_key(realm16, 16, 0, 1023));
  EXPECT_NE(k1, campaign::exhaustive_key(mult::DesignSpec::parse("realm:m=8,t=0"), 16,
                                         0, 65535));
  EXPECT_NE(k1, campaign::exhaustive_key(realm16, 10, 0, 65535));
  EXPECT_NE(k1.find(campaign::kExhaustiveEngineVersion), std::string::npos);
}

TEST(ExhaustiveCampaign, ResumeServesStoredResultBitForBit) {
  TempStorePath store_path{"exhaustive"};
  const auto m = mult::make_multiplier("realm:m=16,t=0", 8);
  const auto direct = campaign::cached_exhaustive(nullptr, *m, "realm:m=16,t=0", 8,
                                                  0, 255);

  err::ExhaustiveReport first;
  {
    campaign::ResultStore store{store_path.str()};
    campaign::CampaignRunner runner{&store, false};
    first = campaign::cached_exhaustive(&runner, *m, "realm:m=16,t=0", 8, 0, 255);
    EXPECT_EQ(runner.units_computed(), 1u);
    EXPECT_EQ(runner.units_resumed(), 0u);
  }
  EXPECT_TRUE(metrics_identical(direct.metrics, first.metrics));

  // Reopen with --resume semantics: the unit must replay from the journal
  // (no recomputation) and decode to the identical report.
  campaign::ResultStore store{store_path.str()};
  campaign::CampaignRunner runner{&store, true};
  const auto resumed = campaign::cached_exhaustive(&runner, *m, "realm:m=16,t=0", 8,
                                                   0, 255);
  EXPECT_EQ(runner.units_resumed(), 1u);
  EXPECT_EQ(runner.units_computed(), 0u);
  EXPECT_TRUE(metrics_identical(first.metrics, resumed.metrics));
  EXPECT_EQ(first.min_peak.a, resumed.min_peak.a);
  EXPECT_EQ(first.min_peak.b, resumed.min_peak.b);
  EXPECT_EQ(first.min_peak.product, resumed.min_peak.product);
  EXPECT_EQ(first.min_peak.error, resumed.min_peak.error);
  EXPECT_EQ(first.max_peak.a, resumed.max_peak.a);
  EXPECT_EQ(first.max_peak.error, resumed.max_peak.error);
  EXPECT_EQ(first.pairs, resumed.pairs);
}
