// Batched evaluation engine: multiply_batch/multiply equivalence, the
// seed-stability (thread-count determinism) invariant, histogram sharding,
// and the persistent thread pool itself.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "realm/core/realm_multiplier.hpp"
#include "realm/error/eval_engine.hpp"
#include "realm/error/monte_carlo.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/numeric/rng.hpp"
#include "realm/numeric/thread_pool.hpp"

using namespace realm;

namespace {

// Random operand vectors for a width-n design, with zeros and the all-ones
// extremes sprinkled in so the special cases are exercised.
void fill_operands(int n, std::uint64_t seed, std::vector<std::uint64_t>& a,
                   std::vector<std::uint64_t>& b) {
  num::Xoshiro256 rng{seed};
  const std::uint64_t range = std::uint64_t{1} << n;
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.below(range);
    b[i] = rng.below(range);
  }
  if (a.size() >= 4) {
    a[0] = 0;                              // zero-detect bypass
    b[1] = 0;
    a[2] = range - 1;                      // special case 1 territory
    b[2] = range - 1;
    a[3] = 1;                              // smallest nonzero products
    b[3] = 2;
  }
}

void expect_batch_matches_scalar(const Multiplier& m, std::uint64_t seed) {
  const std::size_t kPairs = 4099;  // deliberately not a batch multiple
  std::vector<std::uint64_t> a(kPairs), b(kPairs), out(kPairs);
  fill_operands(m.width(), seed, a, b);
  m.multiply_batch(a.data(), b.data(), out.data(), kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    ASSERT_EQ(out[i], m.multiply(a[i], b[i]))
        << m.name() << " diverges at a=" << a[i] << " b=" << b[i];
  }
}

void expect_metrics_identical(const err::ErrorMetrics& x, const err::ErrorMetrics& y) {
  EXPECT_EQ(x.samples, y.samples);
  EXPECT_EQ(x.bias, y.bias);
  EXPECT_EQ(x.mean, y.mean);
  EXPECT_EQ(x.variance, y.variance);
  EXPECT_EQ(x.min, y.min);
  EXPECT_EQ(x.max, y.max);
}

}  // namespace

TEST(MultiplyBatch, RealmMatchesScalarAcrossConfigGrid) {
  for (const int m : {4, 8, 16}) {
    for (int t = 0; t <= 6; ++t) {
      const core::RealmMultiplier mul{{.n = 16, .m = m, .t = t, .q = 6}};
      expect_batch_matches_scalar(mul, 0xabcd0000u + static_cast<unsigned>(m * 16 + t));
    }
  }
}

TEST(MultiplyBatch, RealmMatchesScalarAtOtherWidths) {
  for (const int n : {8, 12, 24, 31}) {
    const core::RealmMultiplier mul{{.n = n, .m = 8, .t = 0, .q = 6}};
    expect_batch_matches_scalar(mul, 0x1234u + static_cast<unsigned>(n));
  }
}

TEST(MultiplyBatch, EveryBaselineMatchesScalar) {
  // Covers the generated pairwise kernel of every design in Table I.
  // Widths 24 and 31 put the masked shifts of the branchless datapaths at
  // their widest amounts; specs unrealizable at a width are skipped there.
  const auto table1 = mult::table1_specs();
  std::set<std::string> specs{table1.begin(), table1.end()};
  specs.insert("accurate");
  std::uint64_t salt = 1;
  for (const auto& spec : specs) {
    const auto m = mult::make_multiplier(spec, 16);
    expect_batch_matches_scalar(*m, 0x5eed0000u + salt++);
  }
  for (const int width : {24, 31}) {
    for (const auto& spec : specs) {
      SCOPED_TRACE(spec + " @" + std::to_string(width));
      std::unique_ptr<Multiplier> m;
      try {
        m = mult::make_multiplier(spec, width);
      } catch (const std::exception&) {
        continue;
      }
      expect_batch_matches_scalar(*m, 0x5eed0000u + salt++);
    }
  }
}

TEST(EvalEngine, MonteCarloIsThreadCountInvariant) {
  // The seed-stability invariant: shard layout depends only on (samples,
  // seed), so the merged metrics are bit-identical for any thread count.
  const auto m = mult::make_multiplier("realm:m=16,t=4", 16);
  err::MonteCarloOptions opts;
  opts.samples = (std::uint64_t{3} << 15) + 7;  // not a shard multiple
  opts.threads = 1;
  const auto r1 = err::monte_carlo(*m, opts);
  opts.threads = 2;
  const auto r2 = err::monte_carlo(*m, opts);
  opts.threads = 0;  // hardware concurrency
  const auto rhw = err::monte_carlo(*m, opts);
  expect_metrics_identical(r1, r2);
  expect_metrics_identical(r1, rhw);
}

TEST(EvalEngine, HistogramRunReturnsMonteCarloMetricsAndSameFill) {
  const auto m = mult::make_multiplier("calm", 16);
  err::MonteCarloOptions opts;
  opts.samples = 1 << 17;
  const auto plain = err::monte_carlo(*m, opts);

  err::Histogram h2{-12.0, 2.0, 140};
  opts.threads = 2;
  const auto r2 = err::monte_carlo_histogram(*m, &h2, opts);
  err::Histogram h1{-12.0, 2.0, 140};
  opts.threads = 1;
  const auto r1 = err::monte_carlo_histogram(*m, &h1, opts);

  expect_metrics_identical(plain, r2);  // same shard runner, same samples
  expect_metrics_identical(r1, r2);
  EXPECT_EQ(h1.total(), r1.samples);
  EXPECT_EQ(h2.total(), r2.samples);
  for (int b = 0; b < h1.bins(); ++b) EXPECT_EQ(h1.count(b), h2.count(b)) << b;
  EXPECT_EQ(h1.underflow(), h2.underflow());
  EXPECT_EQ(h1.overflow(), h2.overflow());
}

TEST(EvalEngine, ExhaustiveIsThreadCountInvariant) {
  const auto m = mult::make_multiplier("realm:m=4,t=0", 8);
  const auto r1 = err::exhaustive(*m, {}, {}, 1);
  const auto r4 = err::exhaustive(*m, {}, {}, 4);
  expect_metrics_identical(r1, r4);
  EXPECT_EQ(r1.samples, 255u * 255u);  // zero rows/columns skipped
}

TEST(EvalEngine, AgreesStatisticallyWithScalarReference) {
  // The scalar reference partitions samples differently (shard per thread),
  // so agreement is statistical, not bitwise.
  const auto m = mult::make_multiplier("realm:m=16,t=0", 16);
  err::MonteCarloOptions opts;
  opts.samples = 1 << 18;
  const auto batched = err::monte_carlo(*m, opts);
  const auto scalar = err::monte_carlo_scalar_reference(*m, opts);
  EXPECT_NEAR(batched.bias, scalar.bias, 0.02);
  EXPECT_NEAR(batched.mean, scalar.mean, 0.02);
  EXPECT_NEAR(batched.variance, scalar.variance, 0.05);
}

TEST(EvalEngine, ShardCountDependsOnlyOnBudget) {
  EXPECT_EQ(err::mc_shard_count(0), 1u);
  EXPECT_EQ(err::mc_shard_count(1), 1u);
  EXPECT_EQ(err::mc_shard_count(err::kMcShardSamples), 1u);
  EXPECT_EQ(err::mc_shard_count(err::kMcShardSamples + 1), 2u);
  EXPECT_EQ(err::mc_shard_count(std::uint64_t{1} << 24), 1024u);
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  auto& pool = num::ThreadPool::global();
  constexpr std::size_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.run(kTasks, 0, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelismOneRunsInline) {
  auto& pool = num::ThreadPool::global();
  const auto self = std::this_thread::get_id();
  std::atomic<bool> all_inline{true};
  pool.run(64, 1, [&](std::size_t) {
    if (std::this_thread::get_id() != self) all_inline = false;
  });
  EXPECT_TRUE(all_inline.load());
}

TEST(ThreadPool, NestedRunDoesNotDeadlock) {
  auto& pool = num::ThreadPool::global();
  std::atomic<int> inner_total{0};
  pool.run(4, 0, [&](std::size_t) {
    pool.run(8, 0, [&](std::size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  auto& pool = num::ThreadPool::global();
  EXPECT_THROW(
      pool.run(16, 0,
               [&](std::size_t i) {
                 if (i == 7) throw std::runtime_error("boom");
               }),
      std::runtime_error);
}
