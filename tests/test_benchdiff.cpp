// Bench-history regression harness tests: record parsing (round-trip from
// MetricsSink::history_record, malformed rejection), direction
// classification, the diff engine's pass/fail semantics (slowdowns,
// improvements, NaN/missing directional keys, per-key tolerances, zero
// baselines), and the median baseline.
//
// These are the contracts CI's regression gate rides on: a bug that makes
// diff() pass vacuously silently disables the gate.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "realm/obs/benchdiff.hpp"
#include "realm/obs/counters.hpp"
#include "realm/obs/metrics_sink.hpp"
#include "realm/obs/trace.hpp"

namespace {

namespace bd = realm::obs::benchdiff;
namespace obs = realm::obs;

/// A minimal well-formed record with the given value lines appended.
std::string record_text(const std::string& extra_lines) {
  return "schema=realm-history-v1\n"
         "bench=unit_test\n"
         "utc=2026-08-08T12:00:00Z\n"
         "commit=abc123\n"
         "host=testhost\n" +
         extra_lines;
}

bd::Record make_record(const std::string& extra_lines) {
  return bd::parse_record(record_text(extra_lines));
}

TEST(BenchdiffParse, RoundTripsMetricsSinkHistoryRecord) {
  obs::set_tracing(false);
  obs::trace_reset();
  obs::counters_reset();
  obs::counter_add(obs::Counter::kMcSamples, 12345);

  obs::MetricsSink sink{"round_trip"};
  sink.meta("threads", 4);                      // meta never reaches the record
  sink.metric("speedup_1t", 5.25);              // exactly representable
  sink.metric("blur_psnr/realm:m=16,t=8", 1.0 / 3.0);  // '=' in name + messy value
  sink.metric("pairs", std::uint64_t{1} << 40);
  sink.metric("label", "not-a-number");         // non-numeric: skipped

  const bd::Record r = bd::parse_record(sink.history_record());
  EXPECT_EQ(r.bench, "round_trip");
  EXPECT_EQ(r.host, obs::run_host());
  EXPECT_EQ(r.hw_threads, static_cast<int>(std::thread::hardware_concurrency()));
  ASSERT_EQ(r.values.count("metric.speedup_1t"), 1u);
  EXPECT_EQ(r.values.at("metric.speedup_1t"), 5.25);
  // Hex-float serialization is bit-exact even for non-terminating decimals.
  ASSERT_EQ(r.values.count("metric.blur_psnr/realm:m=16,t=8"), 1u);
  EXPECT_EQ(r.values.at("metric.blur_psnr/realm:m=16,t=8"), 1.0 / 3.0);
  EXPECT_EQ(r.values.at("metric.pairs"), static_cast<double>(std::uint64_t{1} << 40));
  EXPECT_EQ(r.values.count("metric.label"), 0u);
  // The full counter catalog rides along, with the live value we bumped.
  EXPECT_EQ(r.values.at("counter.mc_samples"), 12345.0);
  // And the value-histogram catalog is always present.
  EXPECT_EQ(r.values.count("vhist.pool_queue_wait_ns.count"), 1u);
  obs::counters_reset();
}

TEST(BenchdiffParse, RejectsMalformedRecords) {
  EXPECT_THROW((void)bd::parse_record(""), std::runtime_error);  // no schema
  EXPECT_THROW((void)bd::parse_record("schema=realm-history-v1\n"),
               std::runtime_error);  // no bench stamp
  EXPECT_THROW((void)bd::parse_record("schema=realm-history-v2\nbench=x\n"),
               std::runtime_error);  // wrong schema
  EXPECT_THROW((void)bd::parse_record(record_text("metric.x=not_a_number\n")),
               std::runtime_error);
  EXPECT_THROW((void)bd::parse_record(record_text("line-without-equals\n")),
               std::runtime_error);
  // Unknown stamp keys are forward-compatible, not errors.
  EXPECT_NO_THROW((void)bd::parse_record(record_text("future_stamp=hello\n")));
}

TEST(BenchdiffClassify, DirectionByNamingConvention) {
  using bd::Direction;
  EXPECT_EQ(bd::classify("metric.speedup_1t"), Direction::kHigherIsBetter);
  EXPECT_EQ(bd::classify("metric.batched_sps_1t"), Direction::kHigherIsBetter);
  EXPECT_EQ(bd::classify("metric.blur_mpix_per_s"), Direction::kHigherIsBetter);
  EXPECT_EQ(bd::classify("metric.blur_psnr/realm:m=16,t=8"), Direction::kHigherIsBetter);
  EXPECT_EQ(bd::classify("metric.top1_acc"), Direction::kHigherIsBetter);

  EXPECT_EQ(bd::classify("metric.startup_ns"), Direction::kLowerIsBetter);
  EXPECT_EQ(bd::classify("metric.decode_ms"), Direction::kLowerIsBetter);
  EXPECT_EQ(bd::classify("metric.total_latency"), Direction::kLowerIsBetter);
  EXPECT_EQ(bd::classify("span.mc/shard.p95_us"), Direction::kLowerIsBetter);
  EXPECT_EQ(bd::classify("span.pool/task.total_us"), Direction::kLowerIsBetter);

  EXPECT_EQ(bd::classify("span.pool/task.count"), Direction::kInformational);
  EXPECT_EQ(bd::classify("counter.mc_samples"), Direction::kInformational);
  EXPECT_EQ(bd::classify("vhist.pool_queue_wait_ns.p95"), Direction::kInformational);
  EXPECT_EQ(bd::classify("metric.mean_rel_error"), Direction::kInformational);
}

TEST(BenchdiffDiff, IdenticalRecordsPass) {
  const bd::Record r = make_record(
      "metric.speedup_1t=0x1.5p+2\nspan.pool/task.p95_us=0x1p+4\ncounter.mc_samples=9\n");
  const bd::DiffReport report = bd::diff(r, r, bd::Tolerances{});
  EXPECT_FALSE(report.regressed);
  EXPECT_TRUE(report.regressions().empty());
  EXPECT_EQ(report.deltas.size(), 3u);
}

TEST(BenchdiffDiff, SlowdownOnLowerBetterRegresses) {
  // total_us is an exact (unquantized) duration: the plain tolerance applies.
  const bd::Record base = make_record("span.pool/task.total_us=0x1p+4\n");  // 16
  const bd::Record slow = make_record("span.pool/task.total_us=0x1p+5\n");  // 32 = 2x
  const bd::DiffReport report = bd::diff(base, slow, bd::Tolerances{});
  ASSERT_TRUE(report.regressed);
  ASSERT_EQ(report.regressions().size(), 1u);
  EXPECT_EQ(report.regressions()[0]->key, "span.pool/task.total_us");
  EXPECT_NEAR(report.regressions()[0]->rel_change, 1.0, 1e-12);
  // The same 2x move in the *good* direction passes.
  EXPECT_FALSE(bd::diff(slow, base, bd::Tolerances{}).regressed);
}

TEST(BenchdiffDiff, PercentileKeysGetOneBucketOfSlack) {
  // p50/p95/p99 are log2-bucket estimates: a one-bucket (2x) move is edge
  // flap, not a regression; anything beyond 2*(1+tol) is real.
  const bd::Record base = make_record("span.pool/task.p95_us=0x1p+4\n");    // 16
  const bd::Record flap = make_record("span.pool/task.p95_us=0x1p+5\n");    // 32 = 2x
  const bd::Record real = make_record("span.pool/task.p95_us=0x1.8p+5\n");  // 48 = 3x
  EXPECT_FALSE(bd::diff(base, flap, bd::Tolerances{}).regressed);
  EXPECT_TRUE(bd::diff(base, real, bd::Tolerances{}).regressed);
  // The widening composes with the tolerance: at tol=2.0 even 3x passes.
  bd::Tolerances loose;
  loose.rel = 2.0;
  EXPECT_FALSE(bd::diff(base, real, loose).regressed);
}

TEST(BenchdiffDiff, ThroughputDropOnHigherBetterRegresses) {
  const bd::Record base = make_record("metric.batched_sps_1t=0x1.9p+20\n");
  const bd::Record drop = make_record("metric.batched_sps_1t=0x1.9p+19\n");  // -50%
  EXPECT_TRUE(bd::diff(base, drop, bd::Tolerances{}).regressed);
  EXPECT_FALSE(bd::diff(drop, base, bd::Tolerances{}).regressed);  // improvement
}

TEST(BenchdiffDiff, WithinToleranceIsNoise) {
  const bd::Record base = make_record("metric.batched_sps_1t=0x1.9p+20\n");
  // -5% sits inside the default 10% tolerance.
  const bd::Record wobble = make_record("metric.batched_sps_1t=0x1.7cp+20\n");
  bd::Tolerances tol;
  EXPECT_FALSE(bd::diff(base, wobble, tol).regressed);
  // Tighten the tolerance per key and the same wobble regresses.
  tol.per_key["metric.batched_sps_1t"] = 0.01;
  EXPECT_TRUE(bd::diff(base, wobble, tol).regressed);
  // A per-key *loosening* also works over a tight global default.
  bd::Tolerances strict;
  strict.rel = 0.01;
  strict.per_key["metric.batched_sps_1t"] = 0.20;
  EXPECT_FALSE(bd::diff(base, wobble, strict).regressed);
}

TEST(BenchdiffDiff, NanOnDirectionalKeyRegresses) {
  const bd::Record base = make_record("metric.speedup_1t=0x1.5p+2\n");
  const bd::Record nan = make_record("metric.speedup_1t=nan\n");
  const bd::DiffReport report = bd::diff(base, nan, bd::Tolerances{});
  ASSERT_TRUE(report.regressed);
  EXPECT_EQ(report.regressions()[0]->note, "NaN value");
  // NaN on an informational key is reported but never gates.
  const bd::Record base_info = make_record("metric.mean_rel_error=0x1p-10\n");
  const bd::Record nan_info = make_record("metric.mean_rel_error=nan\n");
  EXPECT_FALSE(bd::diff(base_info, nan_info, bd::Tolerances{}).regressed);
}

TEST(BenchdiffDiff, MissingDirectionalKeyRegresses) {
  const bd::Record base =
      make_record("metric.speedup_1t=0x1.5p+2\ncounter.mc_samples=9\n");
  const bd::Record current = make_record("counter.mc_samples=9\n");
  const bd::DiffReport report = bd::diff(base, current, bd::Tolerances{});
  ASSERT_TRUE(report.regressed);
  EXPECT_EQ(report.regressions()[0]->note, "missing from current run");
  // A vanished informational key does not gate...
  const bd::Record no_counter = make_record("metric.speedup_1t=0x1.5p+2\n");
  EXPECT_FALSE(bd::diff(base, no_counter, bd::Tolerances{}).regressed);
  // ...and a brand-new key is visibility only, whatever its direction.
  const bd::DiffReport grown = bd::diff(current, base, bd::Tolerances{});
  EXPECT_FALSE(grown.regressed);
  bool saw_new = false;
  for (const bd::Delta& d : grown.deltas) {
    if (d.note == "new key (not in baseline)") saw_new = true;
  }
  EXPECT_TRUE(saw_new);
}

TEST(BenchdiffDiff, ZeroBaselineLowerBetterSemantics) {
  const bd::Record zero = make_record("span.pool/task.p95_us=0x0p+0\n");
  const bd::Record still_zero = make_record("span.pool/task.p95_us=0x0p+0\n");
  const bd::Record nonzero = make_record("span.pool/task.p95_us=0x1p+0\n");
  EXPECT_FALSE(bd::diff(zero, still_zero, bd::Tolerances{}).regressed);
  // "Was instantaneous, now takes time" cannot hide behind a relative
  // tolerance whose denominator is zero.
  EXPECT_TRUE(bd::diff(zero, nonzero, bd::Tolerances{}).regressed);
  // Higher-better with zero baseline never regresses (no meaningful ratio).
  const bd::Record hb_zero = make_record("metric.speedup_1t=0x0p+0\n");
  const bd::Record hb_any = make_record("metric.speedup_1t=0x1p+0\n");
  EXPECT_FALSE(bd::diff(hb_zero, hb_any, bd::Tolerances{}).regressed);
}

TEST(BenchdiffMedian, OddEvenAndNanSkipping) {
  std::vector<bd::Record> history;
  history.push_back(make_record("metric.speedup_1t=0x1p+0\n"));  // 1
  history.push_back(make_record("metric.speedup_1t=0x1p+2\n"));  // 4
  history.push_back(make_record("metric.speedup_1t=0x1p+1\n"));  // 2
  bd::Record med = bd::median_record(history);
  EXPECT_EQ(med.values.at("metric.speedup_1t"), 2.0);  // odd: true median

  history.push_back(make_record("metric.speedup_1t=0x1p+3\n"));  // 8
  med = bd::median_record(history);
  // Even size takes the lower middle, so the result is an observed value.
  EXPECT_EQ(med.values.at("metric.speedup_1t"), 2.0);

  // NaNs are skipped per key; a key that is all-NaN vanishes.
  history.push_back(make_record("metric.speedup_1t=nan\nmetric.only_nan_us=nan\n"));
  med = bd::median_record(history);
  EXPECT_EQ(med.values.at("metric.speedup_1t"), 2.0);
  EXPECT_EQ(med.values.count("metric.only_nan_us"), 0u);

  EXPECT_THROW((void)bd::median_record({}), std::runtime_error);
}

TEST(BenchdiffMedian, StampComesFromNewestRecord) {
  std::vector<bd::Record> history;
  bd::Record old = make_record("metric.speedup_1t=0x1p+0\n");
  old.utc = "2026-01-01T00:00:00Z";
  old.commit = "older";
  bd::Record fresh = make_record("metric.speedup_1t=0x1p+1\n");
  fresh.utc = "2026-08-08T00:00:00Z";
  fresh.commit = "newer";
  history.push_back(old);
  history.push_back(fresh);
  const bd::Record med = bd::median_record(history);
  EXPECT_EQ(med.utc, "2026-08-08T00:00:00Z");
  EXPECT_EQ(med.commit, "newer");
  EXPECT_EQ(med.values.at("metric.speedup_1t"), 1.0);  // lower middle of {1, 2}
}

TEST(BenchdiffThreads, MismatchedHwThreadsAreRefused) {
  const bd::Record one = make_record("hw_threads=1\nmetric.speedup_1t=0x1p+0\n");
  const bd::Record four = make_record("hw_threads=4\nmetric.speedup_1t=0x1p+0\n");
  EXPECT_EQ(one.hw_threads, 1);
  EXPECT_EQ(four.hw_threads, 4);
  EXPECT_THROW((void)bd::diff(one, four, bd::Tolerances{}), std::runtime_error);
  EXPECT_THROW((void)bd::median_record({four, one, four}), std::runtime_error);
  // An unstamped record is not a wildcard.
  const bd::Record unstamped = make_record("metric.speedup_1t=0x1p+0\n");
  EXPECT_EQ(unstamped.hw_threads, 0);
  EXPECT_THROW((void)bd::diff(unstamped, four, bd::Tolerances{}), std::runtime_error);
  EXPECT_THROW((void)make_record("hw_threads=four\n"), std::runtime_error);
  EXPECT_THROW((void)make_record("hw_threads=-1\n"), std::runtime_error);
}

TEST(BenchdiffThreads, SameHwThreadsCompare) {
  const bd::Record base = make_record("hw_threads=4\nmetric.speedup_1t=0x1p+1\n");
  const bd::Record slow = make_record("hw_threads=4\nmetric.speedup_1t=0x1p+0\n");
  EXPECT_TRUE(bd::diff(base, slow, bd::Tolerances{}).regressed);
  EXPECT_FALSE(bd::diff(base, base, bd::Tolerances{}).regressed);
  const bd::Record med = bd::median_record({base, slow, base});
  EXPECT_EQ(med.hw_threads, 4);
  EXPECT_EQ(med.values.at("metric.speedup_1t"), 2.0);
}

}  // namespace
