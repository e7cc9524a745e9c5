// Bench-history comparison engine behind the realm_benchdiff CLI.
//
// A history record (MetricsSink::history_record, appended by
// bench::write_outputs --history=DIR) is line-oriented `name=value` text —
// the campaign-store payload conventions: doubles as C99 hex-floats, and
// because metric names may themselves contain '=', fields split on the
// *last* '=' of each line.  This header parses records, classifies each key
// by regression direction, and diffs a current record against a baseline
// (or the per-key median of a history set) under per-metric noise
// tolerances.
//
// Classification is by naming convention, the same one the benches already
// follow:
//   higher-is-better  throughput/quality: *speedup*, *_sps*, *_per_s,
//                     *_mpix*, *psnr*, *_acc* ...
//   lower-is-better   durations: span.* percentile/total columns and
//                     metric keys ending in _ns/_us/_ms/_s or containing
//                     "latency"/"wait"/"time"
//   informational     everything else (error metrics, counters, stamps):
//                     reported, never gated — bias drifting is a
//                     correctness question, not a perf regression.
//
// NaN or missing values on a *directional* key are regressions by fiat: a
// record that can no longer prove its perf claim must fail loudly, not
// vacuously pass.

#pragma once

#include <map>
#include <string>
#include <vector>

namespace realm::obs::benchdiff {

/// One parsed history record.
struct Record {
  std::string bench;
  std::string commit;
  std::string host;
  std::string utc;
  /// Hardware threads of the recording host; 0 when the record has no stamp.
  /// Runs from hosts with different thread counts are never compared.
  int hw_threads = 0;
  std::map<std::string, double> values;  ///< metric./counter./span./vhist. keys
};

/// Parses record text; throws std::runtime_error on a malformed line or a
/// missing schema/bench stamp.
[[nodiscard]] Record parse_record(const std::string& text);

/// parse_record over a file; throws std::runtime_error on I/O failure.
[[nodiscard]] Record load_record(const std::string& path);

enum class Direction { kLowerIsBetter, kHigherIsBetter, kInformational };

[[nodiscard]] Direction classify(const std::string& key);

/// Relative noise tolerances: `rel` applies to every directional key unless
/// a per-key override is present.  0.10 = a 10% adverse move is noise.
///
/// Percentile columns (keys ending .p50/.p95/.p99, with or without a unit
/// suffix) are log2-bucket estimates, so diff() automatically widens their
/// regression threshold to one full bucket (2x) plus the tolerance — a
/// sample near a bucket edge flaps the reported value by ~2x between
/// identical runs, and gating that at the plain tolerance would flake.
struct Tolerances {
  double rel = 0.10;
  std::map<std::string, double> per_key;

  [[nodiscard]] double for_key(const std::string& key) const {
    const auto it = per_key.find(key);
    return it == per_key.end() ? rel : it->second;
  }
};

/// One compared key.
struct Delta {
  std::string key;
  Direction direction = Direction::kInformational;
  double baseline = 0.0;
  double current = 0.0;
  double rel_change = 0.0;  ///< (current - baseline) / |baseline|; 0 if baseline 0
  bool regression = false;
  std::string note;  ///< set for NaN/missing/new-key conditions
};

struct DiffReport {
  std::vector<Delta> deltas;  ///< every key seen in either record, sorted
  bool regressed = false;     ///< any delta.regression

  [[nodiscard]] std::vector<const Delta*> regressions() const;
};

/// Compares `current` against `baseline`.  Only directional keys can set
/// `regressed`; informational keys are carried through for reporting.
/// Throws std::runtime_error when the two hw_threads stamps differ.
[[nodiscard]] DiffReport diff(const Record& baseline, const Record& current,
                              const Tolerances& tol);

/// Per-key median over `history` (NaN values are skipped per key; even
/// sizes take the lower middle so the result is always an observed value).
/// Stamp fields are taken from the newest record by utc.  Throws
/// std::runtime_error when `history` is empty or its records differ in
/// hw_threads.
[[nodiscard]] Record median_record(const std::vector<Record>& history);

}  // namespace realm::obs::benchdiff
