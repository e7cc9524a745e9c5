// Table I (error columns): Monte-Carlo error characterization of every
// design configuration, printed next to the paper's numbers.
//
// Default budget is 2^22 uniform input pairs per design (the paper uses
// 2^24; pass --full to match it exactly).  Also times the evaluation engine
// itself (scalar-virtual reference vs. the batched engine, single- and
// multi-threaded) and writes the measurements to
// bench_out/BENCH_eval_engine.json so CI tracks the perf trajectory.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench_common.hpp"
#include "paper_reference.hpp"
#include "realm/campaign/cached_eval.hpp"
#include "realm/error/eval_engine.hpp"
#include "realm/error/monte_carlo.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/obs/metrics_sink.hpp"

using namespace realm;

namespace {

// Throughput of fn (which evaluates `samples` pairs per call) as the best of
// five rounds.  A round repeats fn until it has run at least three times and
// 0.1 s (at most 64 times) and keeps its fastest repetition.  Best-of (peak
// throughput) rather than mean: external noise on a shared machine only ever
// slows a run down, so the minimum is the stable estimator; the slowest
// round's minimum over the fastest's, minus 1, is the spread it hides.
struct Throughput {
  double per_s;   ///< samples/second of the fastest repetition
  double spread;  ///< slowest round's best time / fastest round's best time - 1
};

template <typename Fn>
Throughput measure_sps(std::uint64_t samples, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  constexpr int kRounds = 5;
  fn();  // warm-up: page in code, spin up pool workers, fill the LUT cache
  double best = 1e300;
  double worst = 0.0;
  for (int r = 0; r < kRounds; ++r) {
    double round_best = 1e300;
    double elapsed = 0.0;
    int reps = 0;
    do {
      const auto t0 = clock::now();
      fn();
      const double dt = std::chrono::duration<double>(clock::now() - t0).count();
      round_best = std::min(round_best, dt);
      elapsed += dt;
      ++reps;
    } while ((elapsed < 0.1 || reps < 3) && reps < 64);
    best = std::min(best, round_best);
    worst = std::max(worst, round_best);
  }
  return {static_cast<double>(samples) / best, worst / best - 1.0};
}

void bench_eval_engine(std::uint64_t samples, int threads, obs::MetricsSink& sink) {
  const char* spec = "realm:m=16,t=0";  // REALM16, the paper's headline config
  const auto model = mult::make_multiplier(spec, 16);

  const unsigned hw = std::thread::hardware_concurrency();
  const int nt = threads > 0 ? threads : static_cast<int>(hw == 0 ? 1 : hw);

  err::MonteCarloOptions o1;
  o1.samples = samples;
  o1.threads = 1;
  err::MonteCarloOptions on = o1;
  on.threads = nt;

  const Throughput scalar_1t_run =
      measure_sps(samples, [&] { (void)err::monte_carlo_scalar_reference(*model, o1); });
  const Throughput scalar_nt_run =
      measure_sps(samples, [&] { (void)err::monte_carlo_scalar_reference(*model, on); });
  const Throughput batched_1t_run =
      measure_sps(samples, [&] { (void)err::monte_carlo(*model, o1); });
  const Throughput batched_nt_run =
      measure_sps(samples, [&] { (void)err::monte_carlo(*model, on); });
  const double scalar_1t = scalar_1t_run.per_s;
  const double scalar_nt = scalar_nt_run.per_s;
  const double batched_1t = batched_1t_run.per_s;
  const double batched_nt = batched_nt_run.per_s;
  // Any pairing of one scalar and one batched round lands within this
  // relative distance of speedup_1t.
  const double speedup_1t_spread =
      (1.0 + scalar_1t_run.spread) * (1.0 + batched_1t_run.spread) - 1.0;

  std::printf("\nevaluation engine, %s, %llu samples:\n", spec,
              static_cast<unsigned long long>(samples));
  std::printf("  scalar-virtual: %10.2f Msamples/s (1 thread)  %10.2f Msamples/s (%d threads)\n",
              scalar_1t / 1e6, scalar_nt / 1e6, nt);
  std::printf("  batched engine: %10.2f Msamples/s (1 thread)  %10.2f Msamples/s (%d threads)\n",
              batched_1t / 1e6, batched_nt / 1e6, nt);
  std::printf("  speedup: %.2fx (1 thread, round spread %.1f%%), %.2fx (%d threads)\n",
              batched_1t / scalar_1t, 100.0 * speedup_1t_spread, batched_nt / scalar_nt, nt);

  sink.meta("config", spec);
  sink.meta("samples", samples);
  sink.meta("threads", nt);
  sink.metric("scalar_virtual_sps_1t", scalar_1t);
  sink.metric("scalar_virtual_sps_nt", scalar_nt);
  sink.metric("batched_sps_1t", batched_1t);
  sink.metric("batched_sps_nt", batched_nt);
  sink.metric("speedup_1t", batched_1t / scalar_1t);
  // Not named speedup_*: realm_benchdiff would gate it as higher-is-better.
  sink.metric("round_spread_1t", speedup_1t_spread);
  sink.metric("speedup_nt", batched_nt / scalar_nt);
}

// --exact: exhaustive ground truth vs the Monte-Carlo estimate, per design,
// at a width where the full space is cheap (default 10 bits = 2^20 pairs).
// The MC estimate's peaks can never exceed the exact ones (its input set is
// a subset), and bias/mean should agree to O(1/sqrt(samples)) — this mode
// prints the deltas so the sampling budget's adequacy is visible, and CI
// smokes it.  Configurations unrealizable at the narrow width (e.g. t too
// large to address the LUT) are skipped with a note.
int run_exact_mode(const bench::Args& args, const bench::Campaign& camp) {
  const int width = args.width > 0 ? args.width : 10;
  const std::uint64_t hi = (std::uint64_t{1} << width) - 1;
  err::MonteCarloOptions opts;
  opts.samples = args.samples;
  opts.threads = args.threads;

  std::printf("Exact vs Monte-Carlo (width %d: %llu^2 pairs exact, %llu MC samples)\n",
              width, static_cast<unsigned long long>(hi + 1),
              static_cast<unsigned long long>(opts.samples));
  bench::print_rule();
  std::printf("%-22s %10s %10s %10s %10s %12s %12s\n", "design", "bias ex",
              "bias mc", "mean ex", "mean mc", "d|bias|", "d|mean|");
  bench::print_rule();

  obs::MetricsSink sink{"table1_exact"};
  std::printf("\nCSV:spec,bias_exact,bias_mc,mean_exact,mean_mc,min_exact,max_exact\n");
  int evaluated = 0;
  for (const auto& spec : mult::table1_specs()) {
    std::unique_ptr<Multiplier> model;
    try {
      model = mult::make_multiplier(spec, width);
    } catch (const std::exception&) {
      std::printf("%-22s (not realizable at width %d — skipped)\n", spec.c_str(),
                  width);
      continue;
    }
    const auto ex =
        campaign::cached_exhaustive(camp.runner(), *model, spec, width, 0, hi,
                                    args.threads);
    const auto mc = err::monte_carlo(*model, opts);
    // Subset property: an MC estimate's peaks are bounded by the exact ones.
    if (mc.min < ex.metrics.min || mc.max > ex.metrics.max) {
      std::fprintf(stderr, "FATAL: MC peaks escape the exact envelope (%s)\n",
                   spec.c_str());
      return 1;
    }
    std::printf("%-22s %+9.3f %+9.3f %9.3f %9.3f %11.4f %11.4f\n",
                model->name().c_str(), ex.metrics.bias, mc.bias, ex.metrics.mean,
                mc.mean, std::fabs(mc.bias - ex.metrics.bias),
                std::fabs(mc.mean - ex.metrics.mean));
    std::printf("CSV:%s,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n", spec.c_str(),
                ex.metrics.bias, mc.bias, ex.metrics.mean, mc.mean,
                ex.metrics.min, ex.metrics.max);
    sink.metric(spec + ".bias_exact", ex.metrics.bias);
    sink.metric(spec + ".bias_mc", mc.bias);
    sink.metric(spec + ".mean_exact", ex.metrics.mean);
    sink.metric(spec + ".mean_mc", mc.mean);
    sink.metric(spec + ".min_exact", ex.metrics.min);
    sink.metric(spec + ".max_exact", ex.metrics.max);
    sink.metric(spec + ".bias_delta", std::fabs(mc.bias - ex.metrics.bias));
    sink.metric(spec + ".mean_delta", std::fabs(mc.mean - ex.metrics.mean));
    ++evaluated;
  }
  bench::print_rule();
  std::printf("note: exact values from the tiled exhaustive engine; MC peaks are\n"
              "always inside the exact envelope (asserted above)\n");
  sink.meta("width", width);
  sink.meta("samples", opts.samples);
  sink.meta("designs_evaluated", evaluated);
  camp.describe(sink);
  bench::write_outputs(args, sink, "bench_out/BENCH_table1_exact.json");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  const bench::Campaign camp = bench::open_campaign(args);
  if (args.exact) return run_exact_mode(args, camp);
  err::MonteCarloOptions opts;
  opts.samples = args.samples;
  opts.threads = args.threads;

  std::printf("Table I — error metrics (%llu samples/design; paper values in brackets)\n",
              static_cast<unsigned long long>(opts.samples));
  bench::print_rule();
  std::printf("%-22s %19s %19s %21s %21s %19s\n", "design", "bias %", "mean %",
              "min peak %", "max peak %", "variance");
  bench::print_rule();

  // With --store, every design is one resumable campaign unit, and the
  // per-design metrics go into the JSON document verbatim — they are exact
  // (hex-float payloads), so an interrupted-then-resumed campaign's JSON is
  // byte-identical to an uninterrupted run's (the CI smoke asserts this).
  obs::MetricsSink campaign_sink{"table1_campaign"};
  std::printf("\nCSV:spec,bias,mean,min,max,variance\n");
  for (const auto& spec : mult::table1_specs()) {
    const auto model = mult::make_multiplier(spec, 16);
    const auto r = campaign::cached_monte_carlo(camp.runner(), *model, spec, 16, opts);
    const auto p = bench::paper_row(spec);
    std::printf("%-22s %+7.2f [%+6.2f]    %6.2f [%6.2f]    %+7.2f [%+7.2f]     "
                "%+7.2f [%+7.2f]    %7.2f [%7.2f]\n",
                model->name().c_str(), r.bias, p ? p->bias : 0.0, r.mean,
                p ? p->mean : 0.0, r.min, p ? p->min : 0.0, r.max, p ? p->max : 0.0,
                r.variance, p ? p->variance : 0.0);
    std::printf("CSV:%s,%.4f,%.4f,%.4f,%.4f,%.4f\n", spec.c_str(), r.bias, r.mean,
                r.min, r.max, r.variance);
    if (camp) {
      campaign_sink.metric(spec + ".bias", r.bias);
      campaign_sink.metric(spec + ".mean", r.mean);
      campaign_sink.metric(spec + ".min", r.min);
      campaign_sink.metric(spec + ".max", r.max);
      campaign_sink.metric(spec + ".variance", r.variance);
    }
  }
  bench::print_rule();
  std::printf("note: bracketed values are Table I of the paper; see EXPERIMENTS.md\n");

  if (camp) {
    // Campaign mode: the engine-throughput microbenchmark is skipped — under
    // memoization it would measure the store, not the engine — and the
    // document carries the deterministic error table plus campaign meta.
    campaign_sink.meta("samples", args.samples);
    campaign_sink.meta("designs", mult::table1_specs().size());
    camp.describe(campaign_sink);
    std::printf("campaign: %llu units resumed, %llu computed (store: %s)\n",
                static_cast<unsigned long long>(camp.campaign_runner->units_resumed()),
                static_cast<unsigned long long>(camp.campaign_runner->units_computed()),
                camp.store->path().c_str());
    bench::write_outputs(args, campaign_sink, "bench_out/BENCH_table1_campaign.json");
    return 0;
  }

  obs::MetricsSink sink{"eval_engine"};
  bench_eval_engine(args.samples, args.threads, sink);
  bench::write_outputs(args, sink, "bench_out/BENCH_eval_engine.json");
  return 0;
}
