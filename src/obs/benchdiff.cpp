#include "realm/obs/benchdiff.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace realm::obs::benchdiff {

namespace {

bool contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Numeric-value keys all live under these prefixes; stamp lines (bench=,
/// utc=, ...) are everything else.
bool is_value_key(const std::string& key) {
  return key.rfind("metric.", 0) == 0 || key.rfind("counter.", 0) == 0 ||
         key.rfind("span.", 0) == 0 || key.rfind("vhist.", 0) == 0;
}

/// Percentile columns are log2-bucket estimates: a sample sitting near a
/// bucket edge flaps the reported value by a whole bucket (~2x) between
/// otherwise identical runs.  Gating them at the plain relative tolerance
/// would be permanently flaky, so diff() widens their threshold to one full
/// bucket plus the tolerance.
bool is_bucket_quantized(const std::string& key) {
  for (const char* suffix : {".p50_us", ".p95_us", ".p99_us", ".p50", ".p95", ".p99"}) {
    if (ends_with(key, suffix)) return true;
  }
  return false;
}

/// A 1-thread VM and a multi-core host measure different machines; no
/// tolerance makes their numbers comparable.
void require_same_threads(const Record& a, const Record& b) {
  if (a.hw_threads != b.hw_threads) {
    throw std::runtime_error("hw_threads mismatch: " + std::to_string(a.hw_threads) +
                             " vs " + std::to_string(b.hw_threads) +
                             " (records from different hosts are not comparable)");
  }
}

}  // namespace

Record parse_record(const std::string& text) {
  Record r;
  std::string schema;
  std::istringstream in{text};
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    // Metric names may contain '='; values (hex-floats, decimals, stamps)
    // never do — split on the last '='.
    const std::size_t eq = line.rfind('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::runtime_error("history record line " + std::to_string(lineno) +
                               " is not name=value: '" + line + "'");
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (is_value_key(key)) {
      char* end = nullptr;
      const double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        throw std::runtime_error("history record line " + std::to_string(lineno) +
                                 ": malformed number '" + value + "' for " + key);
      }
      r.values[key] = v;
    } else if (key == "schema") {
      schema = value;
    } else if (key == "bench") {
      r.bench = value;
    } else if (key == "commit") {
      r.commit = value;
    } else if (key == "host") {
      r.host = value;
    } else if (key == "utc") {
      r.utc = value;
    } else if (key == "hw_threads") {
      char* end = nullptr;
      const long n = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || n < 0 || n > INT_MAX) {
        throw std::runtime_error("history record line " + std::to_string(lineno) +
                                 ": malformed hw_threads '" + value + "'");
      }
      r.hw_threads = static_cast<int>(n);
    }
    // Unknown stamp keys (future additions) are ignored: the record format
    // may grow without breaking old benchdiff binaries.
  }
  if (schema != "realm-history-v1") {
    throw std::runtime_error("history record has schema '" + schema +
                             "', expected 'realm-history-v1'");
  }
  if (r.bench.empty()) throw std::runtime_error("history record has no bench stamp");
  return r;
}

Record load_record(const std::string& path) {
  std::ifstream is{path};
  if (!is) throw std::runtime_error("cannot open history record " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  try {
    return parse_record(buf.str());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

Direction classify(const std::string& key) {
  if (key.rfind("counter.", 0) == 0 || key.rfind("vhist.", 0) == 0) {
    return Direction::kInformational;
  }
  if (key.rfind("span.", 0) == 0) {
    // Span durations: smaller is faster.  The count column is workload
    // shape, not speed.
    return ends_with(key, ".count") ? Direction::kInformational
                                    : Direction::kLowerIsBetter;
  }
  if (key.rfind("metric.", 0) == 0) {
    if (contains(key, "speedup") || contains(key, "_sps") ||
        contains(key, "_per_s") || contains(key, "per_sec") ||
        contains(key, "mpix") || contains(key, "psnr") || contains(key, "_acc")) {
      return Direction::kHigherIsBetter;
    }
    if (ends_with(key, "_ns") || ends_with(key, "_us") || ends_with(key, "_ms") ||
        ends_with(key, "_s") || ends_with(key, "_seconds") ||
        contains(key, "latency") || contains(key, "wait") || contains(key, "time")) {
      return Direction::kLowerIsBetter;
    }
  }
  return Direction::kInformational;
}

std::vector<const Delta*> DiffReport::regressions() const {
  std::vector<const Delta*> out;
  for (const Delta& d : deltas) {
    if (d.regression) out.push_back(&d);
  }
  return out;
}

DiffReport diff(const Record& baseline, const Record& current,
                const Tolerances& tol) {
  require_same_threads(baseline, current);
  DiffReport report;
  std::set<std::string> keys;
  for (const auto& [k, v] : baseline.values) keys.insert(k);
  for (const auto& [k, v] : current.values) keys.insert(k);

  for (const std::string& key : keys) {
    Delta d;
    d.key = key;
    d.direction = classify(key);
    const bool directional = d.direction != Direction::kInformational;
    const auto b = baseline.values.find(key);
    const auto c = current.values.find(key);

    if (b == baseline.values.end()) {
      // New key: nothing to regress against, record for visibility.
      d.current = c->second;
      d.note = "new key (not in baseline)";
      report.deltas.push_back(d);
      continue;
    }
    d.baseline = b->second;
    if (c == current.values.end()) {
      d.note = "missing from current run";
      d.regression = directional;  // a tracked perf metric vanished
      report.deltas.push_back(d);
      report.regressed |= d.regression;
      continue;
    }
    d.current = c->second;
    if (std::isnan(d.baseline) || std::isnan(d.current)) {
      d.note = "NaN value";
      d.regression = directional;  // cannot prove no regression
      report.deltas.push_back(d);
      report.regressed |= d.regression;
      continue;
    }
    if (d.baseline != 0.0) {
      d.rel_change = (d.current - d.baseline) / std::fabs(d.baseline);
    }
    if (directional) {
      const double t = tol.for_key(key);
      if (d.direction == Direction::kLowerIsBetter) {
        // Bucket-quantized keys get one bucket of slack: regression means
        // current > 2*(1+t)*baseline, i.e. the move cannot be explained by
        // edge flap alone.  For exact keys the plain tolerance applies.
        const double limit = is_bucket_quantized(key) ? 2.0 * (1.0 + t) - 1.0 : t;
        // baseline 0 means "was instantaneous": any measurable time is an
        // infinite relative slowdown, but sub-tolerance absolute noise on a
        // zero baseline is meaningless — only flag a clearly nonzero move.
        d.regression = d.baseline == 0.0 ? d.current > 0.0 : d.rel_change > limit;
      } else {
        d.regression = d.baseline != 0.0 && d.rel_change < -t;
      }
    }
    report.deltas.push_back(d);
    report.regressed |= d.regression;
  }
  return report;
}

Record median_record(const std::vector<Record>& history) {
  if (history.empty()) throw std::runtime_error("median_record: empty history");
  Record out;
  // Stamp from the newest record (lexicographic utc == chronological for
  // ISO-8601), so reports name the latest baseline conditions.
  const Record* newest = &history.front();
  for (const Record& r : history) {
    require_same_threads(history.front(), r);
    if (r.utc > newest->utc) newest = &r;
  }
  out.bench = newest->bench;
  out.commit = newest->commit;
  out.host = newest->host;
  out.utc = newest->utc;
  out.hw_threads = newest->hw_threads;

  std::set<std::string> keys;
  for (const Record& r : history) {
    for (const auto& [k, v] : r.values) keys.insert(k);
  }
  for (const std::string& key : keys) {
    std::vector<double> vals;
    for (const Record& r : history) {
      const auto it = r.values.find(key);
      if (it != r.values.end() && !std::isnan(it->second)) vals.push_back(it->second);
    }
    if (vals.empty()) continue;  // only NaNs: leave the key out entirely
    std::sort(vals.begin(), vals.end());
    out.values[key] = vals[(vals.size() - 1) / 2];
  }
  return out;
}

}  // namespace realm::obs::benchdiff
