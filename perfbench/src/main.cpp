// realm_perfbench — one benchmark run of one workload (see perfbench/README.md).
//
//   realm_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                   --served=PATH --work=DIR --psnr=PATH --out=PATH
//
// Writes the run's result document to --out.  Exit 0 when the run completed
// (its correctness verdict is in the document), 1 when it could not run,
// 2 on a usage error.  perfbench/run.py builds this program and realm_served
// and is the command to use.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: realm_perfbench\n"
               "         --workload=engine-miss|warm-under-write|jpeg-table2\n"
               "         --seed=N --seconds=S --trace=0|1 --served=PATH --work=DIR\n"
               "         --psnr=PATH --out=PATH\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options o;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) return usage();
    const std::string k = a.substr(2, eq - 2), v = a.substr(eq + 1);
    if (k == "workload") o.workload = v;
    else if (k == "seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "seconds") o.seconds = std::atoi(v.c_str());
    else if (k == "trace") o.trace = std::atoi(v.c_str());
    else if (k == "served") o.served = v;
    else if (k == "work") o.work = v;
    else if (k == "psnr") o.psnr = v;
    else if (k == "out") out = v;
    else return usage();
  }
  if (o.workload.empty() || o.seconds < 1 || o.work.empty() || out.empty()) {
    return usage();
  }

  pb::Report r;
  r.workload = o.workload;
  r.seed = o.seed;
  r.seconds = o.seconds;
  r.trace = o.trace;
  r.info["hw_threads"] = std::to_string(std::thread::hardware_concurrency());
  try {
    if (o.workload == "engine-miss") {
      pb::run_engine_miss(o, r);
    } else if (o.workload == "warm-under-write") {
      pb::run_warm_under_write(o, r);
    } else if (o.workload == "jpeg-table2") {
      pb::run_jpeg_table2(o, r);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "realm_perfbench: %s\n", e.what());
    return 1;
  }
  std::ofstream f{out};
  f << r.to_json();
  return f.good() ? 0 : 1;
}
