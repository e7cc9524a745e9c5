// jpeg-table2: the Table II round trip (encode + decode, quality 50) of the
// three 512x512 synthetic images for the nine Table II designs, in process
// on the batched panel engine with threads = 0.  Every timed sweep must
// reproduce the compressed bytes and decoded pixels of an untimed threads = 1
// sweep, whose PSNRs must equal the committed Table II values.

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench.hpp"
#include "realm/jpeg/codec.hpp"
#include "realm/jpeg/quality.hpp"
#include "realm/jpeg/synthetic.hpp"
#include "realm/multiplier.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/obs/counters.hpp"
#include "realm/obs/sampler.hpp"
#include "realm/obs/trace.hpp"

namespace pb {
namespace {

namespace jp = realm::jpeg;
using realm::obs::Counter;

constexpr int kWidth = 16;
constexpr int kImageSize = 512;
constexpr int kSetupRepeats = 5;

const std::vector<std::string> kSpecs = {
    "accurate", "realm:m=16,t=8", "realm:m=8,t=8", "realm:m=4,t=8", "mbm:t=0",
    "calm",     "implm",          "intalp:l=1",    "alm-soa:m=11"};

/// Designs without a row kernel (served by the multiply_batch fallback).
bool is_fallback(const std::string& spec) {
  return spec == "implm" || spec == "intalp:l=1" || spec == "alm-soa:m=11";
}

struct Inputs {
  std::vector<jp::NamedImage> images;
  std::vector<std::unique_ptr<realm::Multiplier>> designs;
};

jp::CodecOptions options(const realm::Multiplier& m, int threads) {
  jp::CodecOptions o;
  o.quality = 50;
  o.mul = &m;
  o.threads = threads;
  return o;
}

struct Output {
  std::vector<std::uint8_t> compressed;
  std::vector<std::uint8_t> pixels;
};

/// One full sweep; outputs[ii * designs + si].
std::vector<Output> sweep(const Inputs& in, int threads) {
  std::vector<Output> out;
  for (const auto& img : in.images) {
    for (const auto& d : in.designs) {
      const jp::CodecOptions o = options(*d, threads);
      const jp::Compressed c = jp::encode(img.image, o);
      out.push_back({jp::serialize(c), jp::decode(c, o).pixels()});
    }
  }
  return out;
}

Inputs set_up() {
  Inputs in;
  in.images = jp::table2_images(kImageSize);
  for (const auto& s : kSpecs) {
    in.designs.push_back(realm::mult::make_multiplier(s, kWidth));
  }
  (void)sweep(in, 0);  // one untimed sweep: pool start-up, LUT and cache warm-up
  return in;
}

/// "image spec psnr" lines (the committed Table II record); '#' comments.
std::map<std::string, double> read_psnr(const std::string& path) {
  std::ifstream f{path};
  if (!f) throw std::runtime_error("cannot read " + path);
  std::map<std::string, double> out;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields{line};
    std::string image, spec, value;
    if (!(fields >> image >> spec >> value)) {
      throw std::runtime_error("bad line: " + line);
    }
    out[image + "/" + spec] = std::stod(value);
  }
  return out;
}

struct Pass {
  Samples call_ms;        ///< every encode and every decode call
  double busy_ms = 0.0;   ///< sum of all timed calls
  std::vector<double> sweep_ms;  ///< busy time of each sweep
  double fallback_ms = 0.0;
  std::uint64_t sweeps = 0;
  std::map<Counter, std::uint64_t> counters;  ///< deltas over the pass
};

Pass timed_sweeps(const Options& o, const Inputs& in, const std::vector<Output>& ref,
                  Report& r) {
  const std::vector<Counter> watched = {
      Counter::kRowFallbackBatches, Counter::kLutCacheMisses, Counter::kPoolTasksExecuted,
      Counter::kPoolTasksInline, Counter::kPoolQueueWaitNs};
  std::map<Counter, std::uint64_t> before;
  for (const Counter c : watched) before[c] = realm::obs::counter_value(c);
  Pass p;
  const auto deadline = Clock::now() + std::chrono::seconds(o.seconds);
  while (Clock::now() < deadline) {
    const double busy_before = p.busy_ms;
    std::size_t k = 0;
    for (const auto& img : in.images) {
      for (std::size_t si = 0; si < in.designs.size(); ++si, ++k) {
        const jp::CodecOptions opt = options(*in.designs[si], 0);
        const auto t0 = Clock::now();
        const jp::Compressed c = jp::encode(img.image, opt);
        const auto t1 = Clock::now();
        const jp::Image d = jp::decode(c, opt);
        const auto t2 = Clock::now();
        const double enc = seconds_between(t0, t1) * 1e3;
        const double dec = seconds_between(t1, t2) * 1e3;
        p.call_ms.add(enc);
        p.call_ms.add(dec);
        p.busy_ms += enc + dec;
        if (is_fallback(kSpecs[si])) p.fallback_ms += enc + dec;
        // Off the clock: bytes and pixels against the threads = 1 sweep.
        ++r.attempted;
        if (jp::serialize(c) != ref[k].compressed || d.pixels() != ref[k].pixels) {
          r.fail(std::string{"jpeg output differs from the threads=1 sweep: "} +
                 img.name + " / " + kSpecs[si]);
        }
      }
    }
    ++p.sweeps;
    p.sweep_ms.push_back(p.busy_ms - busy_before);
  }
  for (const Counter c : watched) {
    p.counters[c] = realm::obs::counter_value(c) - before[c];
  }
  return p;
}

/// Median over sweeps of the sweep's round-tripped pixels per second.
double mpix_per_s(const Pass& p, const Inputs& in) {
  const double pixels =
      static_cast<double>(in.images.size() * in.designs.size()) * kImageSize * kImageSize;
  return pixels / 1e6 / (median(p.sweep_ms) / 1e3);
}

}  // namespace

void run_jpeg_table2(const Options& o, Report& r) {
  std::vector<double> setups;
  Inputs in;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const auto t0 = Clock::now();
    in = set_up();
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  // Untimed threads = 1 reference sweep and its Table II PSNRs.
  const std::vector<Output> ref = sweep(in, 1);
  const std::map<std::string, double> psnr = read_psnr(o.psnr);
  std::size_t k = 0;
  for (const auto& img : in.images) {
    for (std::size_t si = 0; si < in.designs.size(); ++si, ++k) {
      jp::Image decoded(kImageSize, kImageSize);
      decoded.pixels() = ref[k].pixels;
      const double got = jp::psnr(img.image, decoded);
      const std::string key = std::string{img.name} + "/" + kSpecs[si];
      const auto it = psnr.find(key);
      ++r.attempted;
      if (it == psnr.end() || it->second != got) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "PSNR %s = %.17g differs from Table II record",
                      key.c_str(), got);
        r.fail(buf);
      }
    }
  }

  const Pass p = timed_sweeps(o, in, ref, r);
  const double mpix = mpix_per_s(p, in);
  r.e2e("setup_s", median(setups), "s", setups.size());
  r.e2e("jpeg_mpix_per_s", mpix, "Mpix/s", p.sweeps);
  // Codec calls per second over the median sweep; latency quantiles over
  // every call of the run.
  Summary calls;
  calls.rate = static_cast<double>(2 * in.images.size() * in.designs.size()) /
               (median(p.sweep_ms) / 1e3);
  calls.p50 = p.call_ms.quantile(0.50);
  calls.p95 = p.call_ms.quantile(0.95);
  calls.p99 = p.call_ms.quantile(0.99);
  calls.n = p.call_ms.size();
  headline(r, calls);
  r.e2e("codec_p99_ms", calls.p99, "ms", calls.n);
  r.e2e("rss_mb", static_cast<double>(realm::obs::read_rss_kb()) / 1024.0, "MB", 1);
  r.info["ops"] = "codec calls (one encode or one decode of a 512x512 image)";
  r.info["sweeps"] = std::to_string(p.sweeps);
  if (o.trace == 0) return;

  // Counters and the benchmark's own per-design timing (untraced pass).
  const double sweeps = static_cast<double>(p.sweeps);
  const auto delta = [&](Counter c) { return static_cast<double>(p.counters.at(c)); };
  const double tasks = delta(Counter::kPoolTasksExecuted);
  r.layer("jpeg.row_fallback_batches", delta(Counter::kRowFallbackBatches) / sweeps,
          "count", p.sweeps, "S");
  r.layer("core.lut_cache_misses", delta(Counter::kLutCacheMisses), "count", 1, "S");
  r.layer("pool.tasks_executed", tasks, "count", 1, "S");
  r.layer("pool.inline_pct",
          tasks == 0 ? 0.0 : 100.0 * delta(Counter::kPoolTasksInline) / tasks, "%", 1,
          "S");
  r.layer("pool.queue_wait_us_per_task",
          tasks == 0 ? 0.0 : delta(Counter::kPoolQueueWaitNs) / 1e3 / tasks, "us", 1,
          "S");
  r.layer("jpeg.fallback_designs_ms", p.fallback_ms / sweeps, "ms", p.sweeps, "C");
  r.layer("jpeg.fallback_designs_pct", 100.0 * p.fallback_ms / p.busy_ms, "%", p.sweeps,
          "C");

  // Traced pass: the library's own spans, recorded in this process.
  realm::obs::trace_reset();
  realm::obs::set_tracing(true);
  const Pass tp = timed_sweeps(o, in, ref, r);
  realm::obs::set_tracing(false);
  const auto hists = realm::obs::span_histograms();
  const auto total_ms = [&](const char* name) {
    const auto it = hists.find(name);
    return it == hists.end() ? 0.0 : static_cast<double>(it->second.total) / 1e6;
  };
  const auto count = [&](const char* name) {
    const auto it = hists.find(name);
    return it == hists.end() ? std::uint64_t{0} : it->second.count;
  };
  const double enc = total_ms("jpeg/encode"), dec = total_ms("jpeg/decode");
  const std::uint64_t n_enc = count("jpeg/encode"), n_dec = count("jpeg/decode");
  r.layer("jpeg.encode_ms", n_enc == 0 ? 0.0 : enc / static_cast<double>(n_enc), "ms",
          n_enc, "T");
  r.layer("jpeg.decode_ms", n_dec == 0 ? 0.0 : dec / static_cast<double>(n_dec), "ms",
          n_dec, "T");
  const double codec = enc + dec;
  const double transform_ms =
      total_ms("jpeg/encode/transform_batched") + total_ms("jpeg/decode/inverse_batched");
  const double entropy_ms = total_ms("jpeg/encode/tokenize") +
                            total_ms("jpeg/encode/huffman") +
                            total_ms("jpeg/encode/emit") + total_ms("jpeg/decode/parse");
  r.layer("jpeg.transform_pct", codec == 0 ? 0.0 : 100.0 * transform_ms / codec, "%",
          n_enc + n_dec, "T");
  r.layer("jpeg.huffman_pct", codec == 0 ? 0.0 : 100.0 * entropy_ms / codec, "%",
          n_enc + n_dec, "T");
  r.layer("obs.span_coverage_pct", 100.0 * codec / tp.busy_ms, "%", n_enc + n_dec, "T");
  r.layer("obs.trace_overhead_pct", 100.0 * (mpix - mpix_per_s(tp, in)) / mpix, "%",
          tp.sweeps, "T");

  probe_row_products(kSpecs[1], o.seed, r);
}

}  // namespace pb
