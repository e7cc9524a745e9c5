// realm_benchdiff — run-over-run bench regression comparator.
//
//   realm_benchdiff BASELINE.rec CURRENT.rec [options]
//   realm_benchdiff --history=DIR CURRENT.rec [options]
//
// Records are the `name=value` history files bench::write_outputs appends
// under --history=DIR (one content-addressed file per run).  The first form
// diffs two explicit runs; the second diffs CURRENT against the per-metric
// *median* of every record in DIR with the same bench stamp (excluding
// records byte-identical to CURRENT, so a freshly appended run is not its
// own baseline).  Medians make single-outlier history robust: one noisy CI
// run cannot shift the gate.
//
// Options:
//   --tolerance=F        relative noise tolerance for every directional
//                        metric (default 0.10 = 10%)
//   --tol=KEY=F          per-metric override (repeatable), e.g.
//                        --tol=metric.batched_sps_1t=0.30
//   --verbose            print every compared key, not just regressions
//
// Exit codes: 0 = no regression (including "no usable history yet"),
// 1 = regression detected, 2 = usage or I/O error, or records stamped with
// different hw_threads (never comparable).  Direction and
// NaN/missing semantics live in realm/obs/benchdiff.hpp.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "realm/obs/benchdiff.hpp"

namespace bd = realm::obs::benchdiff;

namespace {

double parse_fraction(const char* flag, const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || !(v >= 0.0) || v > 10.0) {
    std::fprintf(stderr, "bad value for %s: '%s' (expected a fraction, e.g. 0.25)\n",
                 flag, s.c_str());
    std::exit(2);
  }
  return v;
}

const char* direction_tag(bd::Direction d) {
  switch (d) {
    case bd::Direction::kLowerIsBetter: return "lower-better";
    case bd::Direction::kHigherIsBetter: return "higher-better";
    case bd::Direction::kInformational: return "info";
  }
  return "?";
}

void print_delta(const bd::Delta& d) {
  if (!d.note.empty()) {
    std::printf("  %-52s %-13s baseline=%.6g current=%.6g  [%s]\n", d.key.c_str(),
                direction_tag(d.direction), d.baseline, d.current, d.note.c_str());
    return;
  }
  std::printf("  %-52s %-13s baseline=%.6g current=%.6g  %+.1f%%\n", d.key.c_str(),
              direction_tag(d.direction), d.baseline, d.current,
              d.rel_change * 100.0);
}

std::string slurp(const std::string& path) {
  std::ifstream is{path};
  if (!is) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string history_dir;
  std::vector<std::string> files;
  bd::Tolerances tol;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--history=", 0) == 0) {
      history_dir = arg.substr(std::strlen("--history="));
    } else if (arg.rfind("--tolerance=", 0) == 0) {
      tol.rel = parse_fraction("--tolerance", arg.substr(std::strlen("--tolerance=")));
    } else if (arg.rfind("--tol=", 0) == 0) {
      const std::string kv = arg.substr(std::strlen("--tol="));
      const std::size_t eq = kv.rfind('=');
      if (eq == std::string::npos || eq == 0) {
        std::fprintf(stderr, "bad value for --tol: '%s' (expected KEY=F)\n", kv.c_str());
        return 2;
      }
      tol.per_key[kv.substr(0, eq)] = parse_fraction("--tol", kv.substr(eq + 1));
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--help") {
      std::printf("usage: realm_benchdiff BASELINE.rec CURRENT.rec [options]\n"
                  "       realm_benchdiff --history=DIR CURRENT.rec [options]\n"
                  "options: --tolerance=F --tol=KEY=F --verbose\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }

  bd::Record baseline;
  bd::Record current;
  std::string baseline_desc;
  try {
    if (!history_dir.empty()) {
      if (files.size() != 1) {
        std::fprintf(stderr, "--history mode takes exactly one CURRENT.rec\n");
        return 2;
      }
      const std::string current_text = slurp(files[0]);
      current = bd::parse_record(current_text);
      std::vector<bd::Record> history;
      std::error_code ec;
      for (const auto& entry :
           std::filesystem::directory_iterator{history_dir, ec}) {
        if (!entry.is_regular_file() || entry.path().extension() != ".rec") continue;
        const std::string text = slurp(entry.path().string());
        if (text == current_text) continue;  // the run under test itself
        bd::Record r;
        try {
          r = bd::parse_record(text);
        } catch (const std::runtime_error& e) {
          std::fprintf(stderr, "warning: skipping %s: %s\n",
                       entry.path().c_str(), e.what());
          continue;
        }
        if (r.bench == current.bench) history.push_back(std::move(r));
      }
      if (ec) {
        std::fprintf(stderr, "cannot read history dir %s: %s\n", history_dir.c_str(),
                     ec.message().c_str());
        return 2;
      }
      if (history.empty()) {
        std::printf("ok   no prior '%s' history under %s — nothing to regress against\n",
                    current.bench.c_str(), history_dir.c_str());
        return 0;
      }
      baseline = bd::median_record(history);
      baseline_desc = "median of " + std::to_string(history.size()) +
                      " history record(s), newest " + baseline.utc;
    } else {
      if (files.size() != 2) {
        std::fprintf(stderr, "usage: realm_benchdiff BASELINE.rec CURRENT.rec "
                             "(or --history=DIR CURRENT.rec); see --help\n");
        return 2;
      }
      baseline = bd::load_record(files[0]);
      current = bd::load_record(files[1]);
      baseline_desc = files[0];
    }
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "FAIL %s\n", e.what());
    return 2;
  }

  if (baseline.bench != current.bench) {
    std::fprintf(stderr, "FAIL bench mismatch: baseline '%s' vs current '%s'\n",
                 baseline.bench.c_str(), current.bench.c_str());
    return 2;
  }

  bd::DiffReport report;
  try {
    report = bd::diff(baseline, current, tol);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "FAIL %s\n", e.what());
    return 2;
  }
  std::printf("benchdiff: %s\n  baseline: %s (commit %s)\n  current:  %s (commit %s)\n",
              current.bench.c_str(), baseline_desc.c_str(), baseline.commit.c_str(),
              current.utc.c_str(), current.commit.c_str());

  std::size_t directional = 0;
  for (const bd::Delta& d : report.deltas) {
    if (d.direction != bd::Direction::kInformational) ++directional;
    if (verbose) print_delta(d);
  }
  const auto regressions = report.regressions();
  if (!regressions.empty()) {
    std::printf("REGRESSION: %zu of %zu directional metric(s) outside tolerance "
                "(default %.0f%%):\n",
                regressions.size(), directional, tol.rel * 100.0);
    for (const bd::Delta* d : regressions) print_delta(*d);
    return 1;
  }
  std::printf("ok   %zu directional metric(s) within tolerance (%zu keys compared)\n",
              directional, report.deltas.size());
  return 0;
}
