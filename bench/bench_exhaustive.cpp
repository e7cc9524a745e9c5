// Exhaustive characterization engine bench: the row-hoisted kernel ladder
// and the tiled full-space engine.
//
// Three kernel-level paths over identical work (full-width column rows):
//
//   scalar   — one virtual multiply() per pair (the pre-engine baseline)
//   generic  — operands materialized into blocks, multiply_batch (exactly
//              the legacy exhaustive() inner loop)
//   row      — multiply_row_range: fixed-operand work hoisted per row,
//              constant-shift segments per power-of-two column interval
//
// plus the engine-level comparison exhaustive_report (tiled) vs
// exhaustive_generic_reference, which the bench also cross-checks for
// bit-identical metrics (the determinism contract, enforced here and in the
// tests).  At 16 bits it also runs the per-family ladder: for every
// multiplier family, ms per 2048 x 2048 products through the scalar
// multiply() loop and the pairwise, row and range kernels, one thread
// (metrics ladder.<family>.{scalar,pairwise,row,range}_ms).  Writes
// bench_out/BENCH_exhaustive.json; CI gates on speedup_row_vs_generic >= 2.5
// (REALM16) and on each family's scalar_ms / row_ms >= 2.
//
// With --store, switches to campaign mode: three REALM configurations run
// through cached_exhaustive as resumable units and the document carries only
// deterministic exact metrics (timing stays in meta), so an interrupted and
// resumed campaign's metrics are byte-identical to an uninterrupted run's.
//
// Flags: --width=N (operand width, default 16), --rows=N (square subrange
// [0, N-1], default min(2^width, 4096)), --threads=N, --json/--store/--resume.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "realm/campaign/cached_eval.hpp"
#include "realm/error/eval_engine.hpp"
#include "realm/error/monte_carlo.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/numeric/bits.hpp"
#include "realm/obs/metrics_sink.hpp"

using namespace realm;

namespace {

// Best-of-N wall-clock seconds for one call of fn: after a warm-up, between
// min_reps and max_reps timed reps, stopping once 0.5 s have elapsed.
// Noise only ever slows a rep down, so the minimum is the stable estimator.
template <typename Fn>
double best_seconds(Fn&& fn, int min_reps, int max_reps) {
  using clock = std::chrono::steady_clock;
  fn();  // warm-up
  double best = 1e300;
  double elapsed = 0.0;
  int reps = 0;
  do {
    const auto t0 = clock::now();
    fn();
    const double dt = std::chrono::duration<double>(clock::now() - t0).count();
    best = std::min(best, dt);
    elapsed += dt;
    ++reps;
  } while ((elapsed < 0.5 || reps < min_reps) && reps < max_reps);
  return best;
}

// Best-of-N wall-clock throughput (pairs/second); see bench_table1_errors.
template <typename Fn>
double measure_pps(std::uint64_t pairs, Fn&& fn) {
  return static_cast<double>(pairs) / best_seconds(fn, 3, 64);
}

constexpr int kLadderWidth = 16;

// Per-family ladder: every design's scalar multiply() loop and its three
// generated batch shapes over the same 2048 x 2048 16-bit products, one
// thread, best of 5, in ms.  Row i takes an operand spread over the range
// and meets the 2048-column tile i mod 32, so the rows visit every tile of
// the column space; pairwise pairs the same columns with a rotating row
// operand so both of its inputs vary.
void family_ladder(obs::MetricsSink& sink) {
  constexpr std::uint64_t kRows = 2048, kCols = 2048;
  constexpr std::uint64_t kSpace = std::uint64_t{1} << kLadderWidth;
  constexpr std::uint64_t kTiles = kSpace / kCols;
  struct Family {
    const char* label;
    const char* spec;
  };
  constexpr Family kFamilies[] = {
      {"accurate", "accurate"},  {"realm", "realm:m=16,t=4"},
      {"calm", "calm"},          {"mbm", "mbm:t=4"},
      {"drum", "drum:k=6"},      {"ssm", "ssm:m=8"},
      {"essm", "essm:m=8"},      {"alm_soa", "alm-soa:m=11"},
      {"alm_maa", "alm-maa:m=11"}, {"implm", "implm"},
      {"intalp_l1", "intalp:l=1"}, {"intalp_l2", "intalp:l=2"},
      {"am1", "am1:nb=9"},       {"am2", "am2:nb=9"},
  };

  std::vector<std::uint64_t> rows(2 * kRows), cols(kSpace), out(kCols);
  for (std::uint64_t i = 0; i < kRows; ++i) {
    rows[i] = rows[i + kRows] = 1 + (i * (kSpace - 2)) / (kRows - 1);
  }
  for (std::uint64_t b = 0; b < kSpace; ++b) cols[b] = b;
  const auto tile = [&](std::uint64_t i) { return (i % kTiles) * kCols; };
  volatile std::uint64_t guard = 0;  // keep the products live
  const auto ms = [](auto&& fn) { return 1e3 * best_seconds(fn, 5, 5); };

  std::printf("\nper-family ladder, %d bits, %llu x %llu products, 1 thread, best of 5 (ms):\n",
              kLadderWidth, static_cast<unsigned long long>(kRows),
              static_cast<unsigned long long>(kCols));
  std::printf("  %-10s %-15s %9s %9s %9s %9s %11s\n", "family", "spec", "scalar",
              "pairwise", "row", "range", "row/scalar");
  for (const Family& f : kFamilies) {
    const auto m = mult::make_multiplier(f.spec, kLadderWidth);
    const double scalar_ms = ms([&] {
      for (std::uint64_t i = 0; i < kRows; ++i) {
        const std::uint64_t b0 = tile(i);
        for (std::uint64_t j = 0; j < kCols; ++j) out[j] = m->multiply(rows[i], b0 + j);
        guard = out[kCols - 1];
      }
    });
    const double pairwise_ms = ms([&] {
      for (std::uint64_t i = 0; i < kRows; ++i) {
        m->multiply_batch(&rows[i], &cols[tile(i)], out.data(), kCols);
        guard = out[kCols - 1];
      }
    });
    const double row_ms = ms([&] {
      for (std::uint64_t i = 0; i < kRows; ++i) {
        m->multiply_row_batch(rows[i], &cols[tile(i)], out.data(), kCols);
        guard = out[kCols - 1];
      }
    });
    const double range_ms = ms([&] {
      for (std::uint64_t i = 0; i < kRows; ++i) {
        m->multiply_row_range(rows[i], tile(i), out.data(), kCols);
        guard = out[kCols - 1];
      }
    });
    std::printf("  %-10s %-15s %9.2f %9.2f %9.2f %9.2f %10.1fx\n", f.label, f.spec,
                scalar_ms, pairwise_ms, row_ms, range_ms, scalar_ms / row_ms);
    const std::string key = std::string{"ladder."} + f.label;
    sink.meta(key + ".spec", f.spec);
    sink.metric(key + ".scalar_ms", scalar_ms);
    sink.metric(key + ".pairwise_ms", pairwise_ms);
    sink.metric(key + ".row_ms", row_ms);
    sink.metric(key + ".range_ms", range_ms);
  }
  (void)guard;
}

bool metrics_identical(const err::ErrorMetrics& x, const err::ErrorMetrics& y) {
  return x.bias == y.bias && x.mean == y.mean && x.variance == y.variance &&
         x.min == y.min && x.max == y.max && x.samples == y.samples;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  const bench::Campaign camp = bench::open_campaign(args);

  const int width = args.width > 0 ? args.width : 16;
  const std::uint64_t space = std::uint64_t{1} << width;
  const std::uint64_t rows_cap =
      std::min<std::uint64_t>(args.rows > 0 ? args.rows : 4096, space);
  const std::uint64_t sq_hi = rows_cap - 1;  // engine square range [0, sq_hi]

  const char* spec = "realm:m=16,t=0";  // REALM16, the paper's headline config
  const auto model = mult::make_multiplier(spec, width);

  if (camp) {
    // Campaign mode: exact characterizations as resumable units.  Only
    // deterministic values enter `metrics` (the resume smoke asserts metric
    // equality across interrupted/resumed runs); timing would go to meta.
    obs::MetricsSink sink{"exhaustive_campaign"};
    const std::vector<std::string> specs = {"realm:m=16,t=0", "realm:m=16,t=4",
                                            "realm:m=8,t=0"};
    std::printf("exhaustive campaign: width=%d range=[0,%llu] (%llu^2 pairs/design)\n",
                width, static_cast<unsigned long long>(sq_hi),
                static_cast<unsigned long long>(rows_cap));
    for (const auto& s : specs) {
      const auto m = mult::make_multiplier(s, width);
      const auto r = campaign::cached_exhaustive(camp.runner(), *m, s, width, 0,
                                                 sq_hi, args.threads);
      std::printf("  %-18s bias=%+.4f%% mean=%.4f%% min=%+.4f%% @(%llu,%llu) "
                  "max=%+.4f%% @(%llu,%llu)\n",
                  s.c_str(), r.metrics.bias, r.metrics.mean, r.metrics.min,
                  static_cast<unsigned long long>(r.min_peak.a),
                  static_cast<unsigned long long>(r.min_peak.b), r.metrics.max,
                  static_cast<unsigned long long>(r.max_peak.a),
                  static_cast<unsigned long long>(r.max_peak.b));
      sink.metric(s + ".bias", r.metrics.bias);
      sink.metric(s + ".mean", r.metrics.mean);
      sink.metric(s + ".variance", r.metrics.variance);
      sink.metric(s + ".min", r.metrics.min);
      sink.metric(s + ".max", r.metrics.max);
      sink.metric(s + ".samples", static_cast<double>(r.metrics.samples));
      sink.metric(s + ".min_a", static_cast<double>(r.min_peak.a));
      sink.metric(s + ".min_b", static_cast<double>(r.min_peak.b));
      sink.metric(s + ".max_a", static_cast<double>(r.max_peak.a));
      sink.metric(s + ".max_b", static_cast<double>(r.max_peak.b));
    }
    sink.meta("width", width);
    sink.meta("range_hi", sq_hi);
    sink.meta("designs", specs.size());
    camp.describe(sink);
    std::printf("campaign: %llu units resumed, %llu computed (store: %s)\n",
                static_cast<unsigned long long>(camp.campaign_runner->units_resumed()),
                static_cast<unsigned long long>(camp.campaign_runner->units_computed()),
                camp.store->path().c_str());
    bench::write_outputs(args, sink, "bench_out/BENCH_exhaustive_campaign.json");
    return 0;
  }

  obs::MetricsSink sink{"exhaustive"};

  // --- kernel ladder: full-width column rows, three paths ------------------
  // A fixed sample of rows spread over the operand range, each against the
  // full column space — the exhaustive engine's exact inner-loop shape.
  const std::uint64_t n_rows = std::min<std::uint64_t>(64, space - 1);
  std::vector<std::uint64_t> rows(n_rows);
  for (std::uint64_t i = 0; i < n_rows; ++i) {
    rows[i] = 1 + (i * (space - 2)) / (n_rows > 1 ? n_rows - 1 : 1);
  }
  const std::uint64_t cols = space;
  const std::uint64_t ladder_pairs = n_rows * cols;

  std::vector<std::uint64_t> out(cols), a_rep(err::kBatchPairs),
      b_iota(err::kBatchPairs);
  volatile std::uint64_t guard = 0;  // keep the product live

  const double scalar_pps = measure_pps(ladder_pairs, [&] {
    std::uint64_t acc = 0;
    for (const std::uint64_t a : rows) {
      for (std::uint64_t b = 0; b < cols; ++b) acc ^= model->multiply(a, b);
    }
    guard = acc;
  });

  const double generic_pps = measure_pps(ladder_pairs, [&] {
    for (const std::uint64_t a : rows) {
      std::uint64_t b = 0;
      while (b < cols) {
        const auto block = static_cast<std::size_t>(
            std::min<std::uint64_t>(cols - b, err::kBatchPairs));
        for (std::size_t i = 0; i < block; ++i) {
          a_rep[i] = a;
          b_iota[i] = b + i;
        }
        model->multiply_batch(a_rep.data(), b_iota.data(), out.data(), block);
        b += block;
      }
      guard = out[cols - 1];
    }
  });

  const double row_pps = measure_pps(ladder_pairs, [&] {
    for (const std::uint64_t a : rows) {
      model->multiply_row_range(a, 0, out.data(), cols);
      guard = out[cols - 1];
    }
  });

  std::printf("exhaustive kernels, %s, width %d, %llu rows x %llu cols:\n", spec,
              width, static_cast<unsigned long long>(n_rows),
              static_cast<unsigned long long>(cols));
  std::printf("  scalar multiply():    %10.2f Mpairs/s\n", scalar_pps / 1e6);
  std::printf("  generic batch path:   %10.2f Mpairs/s\n", generic_pps / 1e6);
  std::printf("  row-hoisted path:     %10.2f Mpairs/s\n", row_pps / 1e6);
  std::printf("  speedup row vs generic: %.2fx   row vs scalar: %.2fx\n",
              row_pps / generic_pps, row_pps / scalar_pps);

  // --- engine level: tiled vs generic-batched reference --------------------
  const std::uint64_t engine_pairs = rows_cap * rows_cap;
  const double engine_generic_pps = measure_pps(engine_pairs, [&] {
    (void)err::exhaustive_generic_reference(*model, 0, sq_hi, args.threads);
  });
  const double engine_tiled_pps = measure_pps(engine_pairs, [&] {
    (void)err::exhaustive_report(*model, nullptr, 0, sq_hi, args.threads);
  });

  // Determinism cross-check: the tiled engine must reproduce the reference
  // bit-for-bit (identical fold order, identical IEEE ops).
  const auto ref = err::exhaustive_generic_reference(*model, 0, sq_hi, args.threads);
  const auto rep = err::exhaustive_report(*model, nullptr, 0, sq_hi, args.threads);
  if (!metrics_identical(ref, rep.metrics)) {
    std::fprintf(stderr,
                 "FATAL: tiled engine diverged from the generic reference\n");
    return 1;
  }

  std::printf("\nexhaustive engine, range [0,%llu]^2 (%llu pairs):\n",
              static_cast<unsigned long long>(sq_hi),
              static_cast<unsigned long long>(engine_pairs));
  std::printf("  generic-batched:      %10.2f Mpairs/s\n", engine_generic_pps / 1e6);
  std::printf("  tiled row-hoisted:    %10.2f Mpairs/s  (%.2fx)\n",
              engine_tiled_pps / 1e6, engine_tiled_pps / engine_generic_pps);
  std::printf("  metrics bit-identical to reference: yes\n");
  std::printf("  peaks: min %+.4f%% at (%llu,%llu)  max %+.4f%% at (%llu,%llu)\n",
              rep.metrics.min, static_cast<unsigned long long>(rep.min_peak.a),
              static_cast<unsigned long long>(rep.min_peak.b), rep.metrics.max,
              static_cast<unsigned long long>(rep.max_peak.a),
              static_cast<unsigned long long>(rep.max_peak.b));
  (void)guard;

  if (width == kLadderWidth) family_ladder(sink);

  sink.meta("config", spec);
  sink.meta("width", width);
  sink.meta("ladder_rows", n_rows);
  sink.meta("engine_range_hi", sq_hi);
  sink.metric("scalar_pps", scalar_pps);
  sink.metric("generic_pps", generic_pps);
  sink.metric("row_pps", row_pps);
  sink.metric("speedup_row_vs_generic", row_pps / generic_pps);
  sink.metric("speedup_row_vs_scalar", row_pps / scalar_pps);
  sink.metric("engine_generic_pps", engine_generic_pps);
  sink.metric("engine_tiled_pps", engine_tiled_pps);
  sink.metric("engine_speedup", engine_tiled_pps / engine_generic_pps);
  bench::write_outputs(args, sink, "bench_out/BENCH_exhaustive.json");
  return 0;
}
