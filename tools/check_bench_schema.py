#!/usr/bin/env python3
"""Validate bench output files against the realm-bench-v3 schema.

Usage: check_bench_schema.py FILE [FILE ...]
       check_bench_schema.py --equal-metrics FILE_A FILE_B
       check_bench_schema.py --equal-metric FILE_A FILE_B KEY
       check_bench_schema.py --min-counter FILE NAME MIN
       check_bench_schema.py --min-speedup FILE MIN [METRIC]
       check_bench_schema.py --min-ratio FILE_A FILE_B KEY MIN
       check_bench_schema.py --min-timeline FILE N
       check_bench_schema.py --min-window-count FILE MIN

Two file kinds are accepted:
  * BENCH_*.json — MetricsSink documents; must carry schema "realm-bench-v3"
    with `meta` (including the producing bench's name), a `run` stamp
    (host/commit/hw_threads), `metrics`, the full `counters` catalog
    (including the campaign-store hit/miss/bytes and resumed-vs-computed
    unit counters), `gauges`, `spans` (each span with count/total/mean/min/
    max/p50/p95/p99 in µs plus a 64-entry log2 bucket array), the full
    `value_histograms` catalog and a `timeline` list (sampler snapshots;
    empty unless --sample-hz was given).
  * trace_*.json — Chrome trace-event exports; must hold a non-empty
    `traceEvents` list whose complete ("X") events carry name/ts/dur/pid/tid.

--equal-metrics compares the `metrics` objects of two documents for exact
equality (key set and values) — the crash/resume smoke uses it to prove an
interrupted-then-resumed campaign reproduces the uninterrupted run bit for
bit.  --min-counter asserts counters[NAME] >= MIN in one document, e.g. that
a resumed run actually replayed units from the store.  --min-speedup asserts
metrics[METRIC] >= MIN in one document; METRIC defaults to
"speedup_row_vs_generic" (the CI gate for the row-hoisted exhaustive
kernels).  The app-bench smoke passes METRIC=speedup_batched_vs_scalar to
gate the batched JPEG engine's floor against BENCH_apps.json.
--min-timeline asserts the document's timeline holds at least N sampler
snapshots — the CI smoke for --sample-hz actually sampling.
--equal-metric compares a single metric KEY across two documents for exact
equality — the serve smoke uses it to prove a warm pass's reply bytes match
the cold pass's (metrics.reply_digest).  --min-ratio asserts
metrics_B[KEY] / metrics_A[KEY] >= MIN — the serve smoke's warm-vs-cold
request-rate floor.  --min-window-count reads a realm_top --once --json
snapshot and asserts the summed slo_*_w10_count metrics cover at least MIN
requests, with a matching _p99_us metric published for every non-empty
window — the live-stats smoke's proof that the SLO ring actually recorded
the load it was under.

Exits non-zero (listing every problem) if any check fails, so CI catches a
bench drifting off the unified schema the moment it happens.  Stdlib only.
"""

import json
import sys

# Keep in sync with obs::Counter / counter_name() (include/realm/obs/counters.hpp).
EXPECTED_COUNTERS = [
    "mc_samples",
    "mc_shards",
    "lut_cache_hits",
    "lut_cache_misses",
    "gate_evals",
    "packed_blocks",
    "equiv_pairs",
    "fault_sites_dropped",
    "pool_regions",
    "pool_tasks_executed",
    "pool_tasks_inline",
    "pool_tasks_failed",
    "pool_queue_wait_ns",
    "jpeg_blocks_encoded",
    "jpeg_blocks_decoded",
    "store_hits",
    "store_misses",
    "store_bytes_read",
    "store_bytes_written",
    "campaign_units_resumed",
    "campaign_units_computed",
    "sweep_points",
    "exhaustive_rows",
    "exhaustive_tiles",
    "row_fallback_batches",
    "dct_blocks_batched",
    "nn_macs_batched",
    "dsp_taps_batched",
    "net_accepts",
    "net_requests",
    "net_bytes_in",
    "net_bytes_out",
    "net_frame_errors",
    "net_backpressure_stalls",
    "net_drained",
    "net_client_timeouts",
    "slo_records",
    "slo_rotations",
    "store_append_failures",
]

EXPECTED_GAUGES = ["pool_workers", "pool_active_workers", "pool_queue_depth"]

# Keep in sync with obs::ValueHist / value_hist_name()
# (include/realm/obs/histogram.hpp).
EXPECTED_VALUE_HISTOGRAMS = ["pool_queue_wait_ns", "store_record_bytes"]

HISTOGRAM_BUCKETS = 64

# Per-span and per-value-histogram summary columns (µs-scaled for spans,
# raw units for value histograms).
SPAN_FIELDS = ("count", "total_us", "mean_us", "min_us", "max_us",
               "p50_us", "p95_us", "p99_us")
VHIST_FIELDS = ("count", "total", "mean", "min", "max", "p50", "p95", "p99")

TIMELINE_FIELDS = ("t_us", "rss_kb", "pool_workers", "pool_active",
                   "pool_queue_depth", "counters")


def check_histogram(name, entry, fields, problems):
    if not isinstance(entry, dict):
        problems.append(f"{name} is not an object")
        return
    for key in fields:
        if not isinstance(entry.get(key), (int, float)) or isinstance(
                entry.get(key), bool):
            problems.append(f"{name} missing numeric {key!r}")
    buckets = entry.get("buckets")
    if (not isinstance(buckets, list) or len(buckets) != HISTOGRAM_BUCKETS
            or not all(isinstance(b, int) and b >= 0 for b in buckets)):
        problems.append(
            f"{name}.buckets is not a {HISTOGRAM_BUCKETS}-entry list of"
            " non-negative integers")
    elif isinstance(entry.get("count"), int) and sum(buckets) != entry["count"]:
        problems.append(f"{name}: bucket sum {sum(buckets)} != count {entry['count']}")


def check_bench(doc, problems):
    if doc.get("schema") != "realm-bench-v3":
        problems.append(f"schema is {doc.get('schema')!r}, expected 'realm-bench-v3'")
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        problems.append("missing 'meta' object")
    elif not meta.get("bench"):
        problems.append("meta.bench is missing or empty")
    elif not meta.get("generated_utc"):
        problems.append("meta.generated_utc is missing or empty")
    run = doc.get("run")
    if not isinstance(run, dict):
        problems.append("missing 'run' object")
    else:
        for key in ("host", "commit"):
            if not run.get(key):
                problems.append(f"run.{key} is missing or empty")
        if not isinstance(run.get("hw_threads"), int):
            problems.append("run.hw_threads is not an integer")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        problems.append("missing or empty 'metrics' object")
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        problems.append("missing 'counters' object")
    else:
        for name in EXPECTED_COUNTERS:
            if name not in counters:
                problems.append(f"counters missing {name!r}")
        for name, value in counters.items():
            if not isinstance(value, int) or value < 0:
                problems.append(f"counter {name!r} is not a non-negative integer")
    gauges = doc.get("gauges")
    if not isinstance(gauges, dict):
        problems.append("missing 'gauges' object")
    else:
        for name in EXPECTED_GAUGES:
            if name not in gauges:
                problems.append(f"gauges missing {name!r}")
    spans = doc.get("spans")
    if not isinstance(spans, dict):
        problems.append("missing 'spans' object")
    else:
        for name, entry in spans.items():
            check_histogram(f"spans[{name!r}]", entry, SPAN_FIELDS, problems)
    vhists = doc.get("value_histograms")
    if not isinstance(vhists, dict):
        problems.append("missing 'value_histograms' object")
    else:
        for name in EXPECTED_VALUE_HISTOGRAMS:
            if name not in vhists:
                problems.append(f"value_histograms missing {name!r}")
        for name, entry in vhists.items():
            check_histogram(f"value_histograms[{name!r}]", entry, VHIST_FIELDS,
                            problems)
    timeline = doc.get("timeline")
    if not isinstance(timeline, list):
        problems.append("missing 'timeline' list")
    else:
        for i, sample in enumerate(timeline):
            if not isinstance(sample, dict):
                problems.append(f"timeline[{i}] is not an object")
                continue
            for key in TIMELINE_FIELDS:
                if key not in sample:
                    problems.append(f"timeline[{i}] missing {key!r}")
            if not isinstance(sample.get("counters"), dict):
                problems.append(f"timeline[{i}].counters is not an object")


def check_trace(doc, problems):
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        problems.append("missing or empty 'traceEvents' list")
        return
    complete = [e for e in events if e.get("ph") == "X"]
    if not complete:
        problems.append("no complete ('X' phase) events in trace")
    for e in complete:
        for key in ("name", "ts", "dur", "pid", "tid"):
            if key not in e:
                problems.append(f"'X' event missing {key!r}: {e}")
                break


def check_file(path):
    problems = []
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        return [str(exc)]
    if not isinstance(doc, dict):
        return ["top level is not a JSON object"]
    if "traceEvents" in doc:
        check_trace(doc, problems)
    else:
        check_bench(doc, problems)
    return problems


def load(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level is not a JSON object")
    return doc


def equal_metrics(path_a, path_b):
    a, b = load(path_a).get("metrics"), load(path_b).get("metrics")
    if not isinstance(a, dict) or not isinstance(b, dict):
        print("FAIL --equal-metrics: one document has no 'metrics' object")
        return 1
    problems = []
    for key in sorted(set(a) | set(b)):
        if key not in a:
            problems.append(f"only in {path_b}: {key!r}")
        elif key not in b:
            problems.append(f"only in {path_a}: {key!r}")
        elif a[key] != b[key]:
            problems.append(f"{key!r}: {a[key]!r} != {b[key]!r}")
    if problems:
        print(f"FAIL metrics of {path_a} and {path_b} differ")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(f"ok   metrics of {path_a} and {path_b} are identical ({len(a)} entries)")
    return 0


def equal_metric(path_a, path_b, key):
    a, b = load(path_a).get("metrics"), load(path_b).get("metrics")
    if not isinstance(a, dict) or not isinstance(b, dict):
        print("FAIL --equal-metric: one document has no 'metrics' object")
        return 1
    if key not in a or key not in b:
        print(f"FAIL --equal-metric: metric {key!r} missing from one document")
        return 1
    if a[key] != b[key]:
        print(f"FAIL metric {key!r} differs: {a[key]!r} != {b[key]!r}")
        return 1
    print(f"ok   metric {key!r} identical in {path_a} and {path_b}: {a[key]!r}")
    return 0


def min_ratio(path_a, path_b, key, minimum):
    a, b = load(path_a).get("metrics"), load(path_b).get("metrics")
    va = a.get(key) if isinstance(a, dict) else None
    vb = b.get(key) if isinstance(b, dict) else None
    for path, v in ((path_a, va), (path_b, vb)):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            print(f"FAIL {path}: metric {key!r} missing or not a number")
            return 1
    if va <= 0:
        print(f"FAIL {path_a}: metric {key} = {va} is not positive")
        return 1
    ratio = vb / va
    if ratio < minimum:
        print(f"FAIL {key}: {path_b} / {path_a} = {ratio:.2f} < required {minimum}")
        return 1
    print(f"ok   {key}: {path_b} / {path_a} = {ratio:.2f} >= {minimum}")
    return 0


def min_speedup(path, minimum, metric="speedup_row_vs_generic"):
    metrics = load(path).get("metrics")
    value = metrics.get(metric) if isinstance(metrics, dict) else None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        print(f"FAIL {path}: metric {metric!r} missing or not a number")
        return 1
    if value < minimum:
        print(f"FAIL {path}: {metric} = {value:.2f} < required {minimum}")
        return 1
    print(f"ok   {path}: {metric} = {value:.2f} >= {minimum}")
    return 0


def min_timeline(path, minimum):
    timeline = load(path).get("timeline")
    if not isinstance(timeline, list):
        print(f"FAIL {path}: missing 'timeline' list")
        return 1
    if len(timeline) < minimum:
        print(f"FAIL {path}: timeline has {len(timeline)} sample(s) < required {minimum}")
        return 1
    print(f"ok   {path}: timeline has {len(timeline)} sample(s) >= {minimum}")
    return 0


def min_window_count(path, minimum):
    metrics = load(path).get("metrics")
    if not isinstance(metrics, dict):
        print(f"FAIL {path}: missing 'metrics' object")
        return 1
    suffix = "_w10_count"
    windows = {k: v for k, v in metrics.items()
               if k.startswith("slo_") and k.endswith(suffix)}
    if not windows:
        print(f"FAIL {path}: no slo_*{suffix} metrics found")
        return 1
    problems = []
    total = 0
    for key, value in sorted(windows.items()):
        if not isinstance(value, int) or value < 0:
            problems.append(f"{key} is not a non-negative integer: {value!r}")
            continue
        total += value
        p99_key = key[: -len(suffix)] + "_w10_p99_us"
        if value > 0 and not isinstance(metrics.get(p99_key), (int, float)):
            problems.append(f"{key} = {value} but {p99_key} is missing")
    if total < minimum:
        problems.append(f"summed w10 window count {total} < required {minimum}")
    if problems:
        print(f"FAIL {path}")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(f"ok   {path}: {len(windows)} windows hold {total} request(s) >= {minimum}")
    return 0


def min_counter(path, name, minimum):
    counters = load(path).get("counters")
    value = counters.get(name) if isinstance(counters, dict) else None
    if not isinstance(value, int):
        print(f"FAIL {path}: counter {name!r} missing or not an integer")
        return 1
    if value < minimum:
        print(f"FAIL {path}: counter {name} = {value} < required {minimum}")
        return 1
    print(f"ok   {path}: counter {name} = {value} >= {minimum}")
    return 0


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        if argv[1] == "--equal-metrics":
            if len(argv) != 4:
                print("usage: check_bench_schema.py --equal-metrics FILE_A FILE_B",
                      file=sys.stderr)
                return 2
            return equal_metrics(argv[2], argv[3])
        if argv[1] == "--equal-metric":
            if len(argv) != 5:
                print("usage: check_bench_schema.py --equal-metric FILE_A FILE_B KEY",
                      file=sys.stderr)
                return 2
            return equal_metric(argv[2], argv[3], argv[4])
        if argv[1] == "--min-ratio":
            if len(argv) != 6:
                print("usage: check_bench_schema.py --min-ratio FILE_A FILE_B KEY MIN",
                      file=sys.stderr)
                return 2
            return min_ratio(argv[2], argv[3], argv[4], float(argv[5]))
        if argv[1] == "--min-counter":
            if len(argv) != 5:
                print("usage: check_bench_schema.py --min-counter FILE NAME MIN",
                      file=sys.stderr)
                return 2
            return min_counter(argv[2], argv[3], int(argv[4]))
        if argv[1] == "--min-window-count":
            if len(argv) != 4:
                print("usage: check_bench_schema.py --min-window-count FILE MIN",
                      file=sys.stderr)
                return 2
            return min_window_count(argv[2], int(argv[3]))
        if argv[1] == "--min-timeline":
            if len(argv) != 4:
                print("usage: check_bench_schema.py --min-timeline FILE N",
                      file=sys.stderr)
                return 2
            return min_timeline(argv[2], int(argv[3]))
        if argv[1] == "--min-speedup":
            if len(argv) not in (4, 5):
                print("usage: check_bench_schema.py --min-speedup FILE MIN [METRIC]",
                      file=sys.stderr)
                return 2
            if len(argv) == 5:
                return min_speedup(argv[2], float(argv[3]), argv[4])
            return min_speedup(argv[2], float(argv[3]))
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"FAIL {exc}")
        return 1
    failed = False
    for path in argv[1:]:
        problems = check_file(path)
        if problems:
            failed = True
            print(f"FAIL {path}")
            for p in problems:
                print(f"  - {p}")
        else:
            print(f"ok   {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
