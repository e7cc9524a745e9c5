#!/usr/bin/env python3
"""Validate bench output files against the realm-bench-v3 schema, and gate them.

Usage: check_bench_schema.py FILE [FILE ...]
       check_bench_schema.py --at-least FILE KEY MIN
       check_bench_schema.py --ratio-at-least FILE_A KEY_A FILE_B KEY_B MIN
       check_bench_schema.py --equal FILE_A FILE_B [KEY]
       check_bench_schema.py --min-window-count FILE MIN

Two file kinds are accepted:
  * BENCH_*.json — MetricsSink documents; must carry schema "realm-bench-v3"
    with `meta` (including the producing bench's name), a `run` stamp
    (host/commit/hw_threads), `metrics`, the full `counters` and `gauges`
    catalogs, `spans` (each span with count/total/mean/min/max/p50/p95/p99
    in µs plus a 64-entry log2 bucket array), the full `value_histograms`
    catalog and a `timeline` list (sampler snapshots; empty unless
    --sample-hz was given).  The catalogs are read from the tables that
    generate them (REALM_OBS_COUNTERS, REALM_OBS_GAUGES and
    REALM_OBS_VALUE_HISTS in include/realm/obs/), found relative to this
    script, so no build is needed.
  * trace_*.json — Chrome trace-event exports; must hold a non-empty
    `traceEvents` list whose complete ("X") events carry name/ts/dur/pid/tid.

A KEY names one value of a document: `metrics.X` (X may itself contain
dots, e.g. metrics.ladder.am1.row_ms), `counters.X`, or `timeline` (the
number of sampler snapshots).

--at-least asserts FILE's KEY >= MIN.
--ratio-at-least asserts FILE_A's KEY_A / FILE_B's KEY_B >= MIN (KEY_B's
  value must be positive); one file may be both A and B.
--equal asserts two documents' `metrics` objects are identical (key set and
  values) — an interrupted-then-resumed campaign reproduces the
  uninterrupted run bit for bit — or, given KEY, that one value is.
--min-window-count reads a realm_top --once --json snapshot and asserts the
  summed slo_*_w10_count metrics cover at least MIN requests, with a
  matching _p99_us metric published for every non-empty window.

Exits 0 when every check passes, 1 (listing every problem) when one fails
and 2 on a usage error, so CI catches a bench drifting off the unified
schema the moment it happens.  Stdlib only.
"""

import functools
import json
import pathlib
import re
import sys

OBS_INCLUDE = pathlib.Path(__file__).resolve().parent.parent / "include" / "realm" / "obs"

HISTOGRAM_BUCKETS = 64

# Per-span and per-value-histogram summary columns (µs-scaled for spans,
# raw units for value histograms).
SPAN_FIELDS = ("count", "total_us", "mean_us", "min_us", "max_us",
               "p50_us", "p95_us", "p99_us")
VHIST_FIELDS = ("count", "total", "mean", "min", "max", "p50", "p95", "p99")

TIMELINE_FIELDS = ("t_us", "rss_kb", "pool_workers", "pool_active",
                   "pool_queue_depth", "counters")


@functools.lru_cache(maxsize=None)
def catalog(header, table):
    """JSON names of a catalog table, in entry order."""
    text = (OBS_INCLUDE / header).read_text(encoding="utf-8")
    body = re.search(rf"^#define {table}\(X\)(?:.*\\\n)*.*", text, re.M)
    names = re.findall(r'\bX\(\s*\w+\s*,\s*"([^"]*)"', body.group(0)) if body else []
    if not names:
        raise ValueError(f"{OBS_INCLUDE / header}: no {table} table")
    return tuple(names)


def check_catalog(doc, section, names, problems):
    entries = doc.get(section)
    if not isinstance(entries, dict):
        problems.append(f"missing {section!r} object")
        return None
    for name in names:
        if name not in entries:
            problems.append(f"{section} missing {name!r}")
    return entries


def check_histogram(name, entry, fields, problems):
    if not isinstance(entry, dict):
        problems.append(f"{name} is not an object")
        return
    for key in fields:
        if not is_number(entry.get(key)):
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
    counters = check_catalog(doc, "counters",
                             catalog("counters.hpp", "REALM_OBS_COUNTERS"), problems)
    for name, value in (counters or {}).items():
        if not isinstance(value, int) or value < 0:
            problems.append(f"counter {name!r} is not a non-negative integer")
    check_catalog(doc, "gauges", catalog("counters.hpp", "REALM_OBS_GAUGES"), problems)
    spans = doc.get("spans")
    if not isinstance(spans, dict):
        problems.append("missing 'spans' object")
    else:
        for name, entry in spans.items():
            check_histogram(f"spans[{name!r}]", entry, SPAN_FIELDS, problems)
    vhists = check_catalog(doc, "value_histograms",
                           catalog("histogram.hpp", "REALM_OBS_VALUE_HISTS"), problems)
    for name, entry in (vhists or {}).items():
        check_histogram(f"value_histograms[{name!r}]", entry, VHIST_FIELDS, problems)
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


class Usage(Exception):
    pass


class Failure(Exception):
    pass


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def to_float(text):
    try:
        return float(text)
    except ValueError:
        raise Usage(f"not a number: {text!r}") from None


def load(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise Failure(f"{path}: top level is not a JSON object")
    return doc


def lookup(path, key):
    """The value KEY names in the document at path."""
    doc = load(path)
    if key == "timeline":
        timeline = doc.get("timeline")
        if not isinstance(timeline, list):
            raise Failure(f"{path}: missing 'timeline' list")
        return len(timeline)
    section, _, name = key.partition(".")
    if section not in ("metrics", "counters") or not name:
        raise Usage(f"KEY must be metrics.X, counters.X or timeline, not {key!r}")
    entries = doc.get(section)
    if not isinstance(entries, dict) or name not in entries:
        raise Failure(f"{path}: {key} is missing")
    return entries[name]


def number(path, key):
    value = lookup(path, key)
    if not is_number(value):
        raise Failure(f"{path}: {key} = {value!r} is not a number")
    return value


def at_least(path, key, minimum):
    minimum = to_float(minimum)
    value = number(path, key)
    if value < minimum:
        raise Failure(f"{path}: {key} = {value:g} < required {minimum:g}")
    return f"{path}: {key} = {value:g} >= {minimum:g}"


def ratio_at_least(path_a, key_a, path_b, key_b, minimum):
    minimum = to_float(minimum)
    a, b = number(path_a, key_a), number(path_b, key_b)
    if b <= 0:
        raise Failure(f"{path_b}: {key_b} = {b:g} is not positive")
    what = f"{path_a} {key_a} / {path_b} {key_b} = {a / b:.2f}"
    if a / b < minimum:
        raise Failure(f"{what} < required {minimum:g}")
    return f"{what} >= {minimum:g}"


def equal(path_a, path_b, key=None):
    if key is not None:
        a, b = lookup(path_a, key), lookup(path_b, key)
        if a != b:
            raise Failure(f"{key} differs: {a!r} != {b!r}")
        return f"{key} identical in {path_a} and {path_b}: {a!r}"
    a, b = load(path_a).get("metrics"), load(path_b).get("metrics")
    if not isinstance(a, dict) or not isinstance(b, dict):
        raise Failure("one document has no 'metrics' object")
    problems = []
    for k in sorted(set(a) | set(b)):
        if k not in a:
            problems.append(f"only in {path_b}: {k!r}")
        elif k not in b:
            problems.append(f"only in {path_a}: {k!r}")
        elif a[k] != b[k]:
            problems.append(f"{k!r}: {a[k]!r} != {b[k]!r}")
    if problems:
        raise Failure("\n  - ".join([f"metrics of {path_a} and {path_b} differ"]
                                    + problems))
    return f"metrics of {path_a} and {path_b} are identical ({len(a)} entries)"


def min_window_count(path, minimum):
    minimum = to_float(minimum)
    metrics = load(path).get("metrics")
    if not isinstance(metrics, dict):
        raise Failure(f"{path}: missing 'metrics' object")
    suffix = "_w10_count"
    windows = {k: v for k, v in metrics.items()
               if k.startswith("slo_") and k.endswith(suffix)}
    if not windows:
        raise Failure(f"{path}: no slo_*{suffix} metrics found")
    problems = []
    total = 0
    for key, value in sorted(windows.items()):
        if not isinstance(value, int) or value < 0:
            problems.append(f"{key} is not a non-negative integer: {value!r}")
            continue
        total += value
        p99_key = key[: -len(suffix)] + "_w10_p99_us"
        if value > 0 and not is_number(metrics.get(p99_key)):
            problems.append(f"{key} = {value} but {p99_key} is missing")
    if total < minimum:
        problems.append(f"summed w10 window count {total} < required {minimum:g}")
    if problems:
        raise Failure("\n  - ".join([path] + problems))
    return f"{path}: {len(windows)} windows hold {total} request(s) >= {minimum:g}"


# mode -> (accepted argument counts, usage, gate)
GATES = {
    "--at-least": ((3,), "FILE KEY MIN", at_least),
    "--ratio-at-least": ((5,), "FILE_A KEY_A FILE_B KEY_B MIN", ratio_at_least),
    "--equal": ((2, 3), "FILE_A FILE_B [KEY]", equal),
    "--min-window-count": ((2,), "FILE MIN", min_window_count),
}


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    mode, args = argv[1], argv[2:]
    if mode.startswith("--"):
        if mode not in GATES:
            print(f"unknown mode {mode}\n\n{__doc__.strip()}", file=sys.stderr)
            return 2
        counts, names, gate = GATES[mode]
        try:
            if len(args) not in counts:
                raise Usage(f"usage: check_bench_schema.py {mode} {names}")
            print(f"ok   {gate(*args)}")
            return 0
        except Usage as exc:
            print(exc, file=sys.stderr)
            return 2
        except (Failure, OSError, ValueError) as exc:
            print(f"FAIL {mode}: {exc}")
            return 1
    failed = False
    for path in argv[1:]:
        try:
            problems = check_file(path)
        except (OSError, ValueError) as exc:  # the catalog headers are unreadable
            problems = [str(exc)]
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
