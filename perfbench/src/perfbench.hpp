// Shared pieces of the repository benchmark driver (see perfbench/README.md).
//
// One realm_perfbench process runs one workload for one seed: it builds the
// workload's inputs from the seed, times the work, verifies every output off
// the clock and writes a result document that run.py turns into the
// benchmark's one-line verdict.

#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace realm::net {
class Client;
}

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// splitmix64 finalizer: the benchmark's only source of pseudo-randomness,
/// so every input is a pure function of the seed and an index.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Exact per-operation samples, each with its completion time in seconds
/// into the timed phase.  Quantiles are nearest-rank over the sorted values,
/// never histogram bucket edges.
class Samples {
 public:
  void add(double v, double t = 0.0) {
    v_.push_back(v);
    t_.push_back(t);
    sorted_.clear();
  }
  void append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    t_.insert(t_.end(), o.t_.begin(), o.t_.end());
    sorted_.clear();
  }
  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double sum() const;

  /// Samples completed before `t` seconds.
  [[nodiscard]] std::size_t count_before(double t) const;

 private:
  std::vector<double> v_, t_;
  mutable std::vector<double> sorted_;  ///< cache for quantile()
};

/// Rate and latency quantiles of one class of operations, measured in
/// several independent timed sessions of `span` seconds each.  The rate is
/// the median over sessions of the completions inside the session's span;
/// the quantiles are medians of per-session quantiles when every session
/// holds at least 1000 samples (so p99 keeps ten samples beyond it), and
/// quantiles of all sessions' samples pooled otherwise.
struct Summary {
  double rate = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::uint64_t n = 0;
};
[[nodiscard]] Summary summarize(const std::vector<Samples>& sessions, double span);

[[nodiscard]] double median(std::vector<double> v);

struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< observations behind the value
  std::string source;         ///< run | S (stats delta) | T (spans) | C (call timing)
};

/// Everything one workload run measured; written as JSON for run.py.
struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, std::string> info;

  void fail(const std::string& why);
  void e2e(const std::string& name, double v, const char* unit, std::uint64_t n,
           const char* source = "run");
  void layer(const std::string& name, double v, const char* unit, std::uint64_t n,
             const char* source);
  [[nodiscard]] std::string to_json() const;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  int trace = 0;
  std::string served;  ///< realm_served binary
  std::string work;    ///< scratch directory for journals and exit documents
  std::string psnr;    ///< Table II PSNR record (jpeg-table2)
};

/// A realm_served child process on a loopback port.  The destructor stops it
/// (SIGTERM, then SIGKILL after a deadline) and reaps it, so no run leaves a
/// daemon behind, even when the run throws.
class ServedProcess {
 public:
  ServedProcess(const std::string& binary, const std::vector<std::string>& args,
                bool traced, const std::string& log_path);
  ~ServedProcess();
  ServedProcess(const ServedProcess&) = delete;
  ServedProcess& operator=(const ServedProcess&) = delete;

  [[nodiscard]] int port() const noexcept { return port_; }
  /// Graceful drain; returns the exit status (0 = clean).
  int stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

/// One `stats` wire request: the flat name=value catalog.
[[nodiscard]] std::map<std::string, std::string> fetch_stats(realm::net::Client& c,
                                                             std::uint64_t seq);
[[nodiscard]] std::uint64_t stat_u64(const std::map<std::string, std::string>& s,
                                     const std::string& name);

/// Span aggregates (count, total_us) from a realm-bench-v3 document's
/// "spans" section.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_us = 0.0;
  [[nodiscard]] double mean_us() const {
    return count == 0 ? 0.0 : total_us / static_cast<double>(count);
  }
};
[[nodiscard]] std::map<std::string, SpanTotals> read_spans(const std::string& json_path);

/// Copies a journal and fsyncs the copy.
void copy_file(const std::string& from, const std::string& to);

/// The workload's headline operations, under the names every workload
/// reports: ops_per_s, op_p50_ms, op_p95_ms (latencies in ms).  The
/// bounded tail is p95; README.md says why not p99 or p90.
void headline(Report& r, const Summary& ms);

void run_engine_miss(const Options& o, Report& r);
void run_warm_under_write(const Options& o, Report& r);
void run_jpeg_table2(const Options& o, Report& r);

/// Layer-call pass (source C): ResultStore::get with and without a
/// concurrent put, ResultStore replay, CostModel calibrate vs cost, and
/// multiply_row_batch product rates.
void probe_store(const std::string& journal, const std::vector<std::string>& keys,
                 const std::string& work, std::uint64_t seed, Report& r);
void probe_cost_model(const std::vector<std::string>& specs, std::uint32_t cycles,
                      Report& r);
void probe_row_products(const std::string& realm_spec, std::uint64_t seed, Report& r);

}  // namespace pb
