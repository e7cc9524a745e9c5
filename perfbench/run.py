#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the REALM library, realm_served and the realm_perfbench driver from
the sources next to this directory (Release, into $CARGO_TARGET_DIR or
.bench_build), runs one workload for one seed, prints every metric with its
unit and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  Each run also leaves a stamped record (git
commit, source digest, nproc, seed, realm_served flags and every metric)
under <build dir>/perfbench-runs/.  Exit status: 0 when every output was
correct, 1 when an output was wrong or the run failed, 2 on a usage or
build error.
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("engine-miss", "warm-under-write", "jpeg-table2")
RUN_TIMEOUT_S = 170
SETTLE_AFTER_BUILD_S = 20


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return a


def build(build_root):
    """Configures (once) and builds the driver and realm_served."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("no REALM sources next to %s" % HERE)
    tree = os.path.join(build_root, "perfbench")
    os.makedirs(tree, exist_ok=True)
    log_path = os.path.join(tree, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", tree, "--target", "realm_perfbench",
              "realm_served", "-j", jobs]]
    if os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        steps = steps[1:]
    driver = os.path.join(tree, "realm_perfbench")
    built_at = os.path.getmtime(driver) if os.path.isfile(driver) else None
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                die("build failed: %s (log: %s)" % (" ".join(cmd), log_path))
    if os.path.getmtime(driver) != built_at:
        # The first run after a build measured 20-40% slow on a 4-core VM
        # (the compile's load outlasts it); let the machine settle first.
        time.sleep(SETTLE_AFTER_BUILD_S)
    return driver, os.path.join(tree, "realm", "tools", "realm_served")


def git_commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """sha256 over the sources the benchmark builds (a commit stamp that also
    works in a checkout without git metadata)."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for sub in ("include", "src", "tools", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, sub)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(files)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def run_driver(cmd):
    """Runs the driver in its own process group; kills the group on timeout
    or interruption so no realm_served outlives the run."""
    proc = subprocess.Popen(cmd, start_new_session=True)

    def kill_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    old = signal.signal(signal.SIGTERM, lambda *a: (kill_group(), sys.exit(1)))
    try:
        status = proc.wait(timeout=RUN_TIMEOUT_S)
        kill_group()  # a daemon left behind by a crashed driver
        return status
    except subprocess.TimeoutExpired:
        kill_group()
        proc.wait()
        die("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    except KeyboardInterrupt:
        kill_group()
        proc.wait()
        raise
    finally:
        signal.signal(signal.SIGTERM, old)


def fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def main():
    args = parse_args()
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die("no BENCHMARK.json in %s" % ROOT)
    with open(spec_path) as f:
        spec = json.load(f)

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    driver, served = build(build_root)

    work = os.path.join(build_root, "perfbench-work", "%s-%d-%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = os.path.join(work, "result.json")
    # Flush dirty pages (the build's, an earlier run's) now, so writeback
    # does not compete with the journal fsyncs inside the timed phase.
    os.sync()
    try:
        status = run_driver([driver, "--workload=" + args.workload,
                             "--seed=%d" % args.seed, "--seconds=%d" % args.seconds,
                             "--trace=%d" % args.trace, "--served=" + served,
                             "--work=" + work,
                             "--psnr=" + os.path.join(HERE, "table2_psnr.txt"),
                             "--out=" + out])
        if status != 0 or not os.path.isfile(out):
            die("driver failed with status %d" % status, 1)
        with open(out) as f:
            res = json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = res["attempted"], res["failed"]
    failed_pct = 100.0 * failed / attempted if attempted else 100.0
    res["end_to_end"]["failed_pct"] = {"value": failed_pct, "unit": "%",
                                       "samples": attempted, "source": "run"}
    stamp = {"commit": git_commit(), "source_digest": source_digest(),
             "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
             "hw_threads": int(res["info"].get("hw_threads", "0")),
             "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "workload": args.workload,
             "served_flags": res["info"].get("served_flags", ""),
             "utc": datetime.datetime.now(datetime.timezone.utc).isoformat()}

    # The verdict line carries exactly BENCHMARK.json's metrics for this mode.
    section = "end_to_end" if args.trace == 0 else "per_layer"
    metrics, problems = {}, []
    for m in spec[section]:
        got = res[section].get(m["name"])
        if got is None and args.trace == 1:
            # A layer this workload never reaches: nothing to measure.
            got = {"value": 0.0, "unit": m["unit"], "samples": 0, "source": "unreached"}
            res[section][m["name"]] = got
        if got is None or got["value"] is None:
            problems.append("no value for " + m["name"])
            continue
        if got["unit"] != m["unit"]:
            problems.append("%s measured in %s, declared in %s" % (
                m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for p in problems:
        res["failures"].append(p)
    correct = failed == 0 and not problems

    print("perfbench %s seed=%d seconds=%d trace=%d commit=%s source=%s nproc=%s "
          "hw_threads=%d" % (args.workload, args.seed, args.seconds, args.trace,
                             stamp["commit"], stamp["source_digest"], stamp["nproc"],
                             stamp["hw_threads"]))
    for k in sorted(res["info"]):
        print("  %s: %s" % (k, res["info"][k]))
    for title, sec in (("end-to-end", "end_to_end"), ("per-layer", "per_layer")):
        if not res[sec]:
            continue
        print(title + ":")
        for name in sorted(res[sec]):
            m = res[sec][name]
            print("  %-34s %14s %-7s n=%-8d %s" % (name, fmt(m["value"]), m["unit"],
                                                   m["samples"], m["source"]))
    for f in res["failures"]:
        print("FAILED: " + f)

    verdict = {"correct": correct, "attempted": attempted,
               "failed": failed + len(problems), "metrics": metrics}
    runs = os.path.join(build_root, "perfbench-runs")
    os.makedirs(runs, exist_ok=True)
    record = os.path.join(runs, "%s-seed%d-trace%d-%d.json" % (
        args.workload, args.seed, args.trace, int(time.time() * 1000)))
    with open(record, "w") as f:
        json.dump({"stamp": stamp, "result": res, "verdict": verdict}, f, indent=1)
    print("record: " + os.path.relpath(record, ROOT))
    print(json.dumps(verdict))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
