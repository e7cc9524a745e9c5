#!/usr/bin/env python3
"""Tests of tools/check_bench_schema.py: one passing and one failing case per
gate mode, the catalog read from the obs headers, and the committed
bench_out/BENCH_*.json documents.  Stdlib only; run directly or via ctest."""

import copy
import glob
import importlib.util
import json
import pathlib
import re
import subprocess
import sys
import tempfile
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "check_bench_schema.py"
COMMITTED = sorted(glob.glob(str(ROOT / "bench_out" / "BENCH_*.json")))

_spec = importlib.util.spec_from_file_location("check_bench_schema", SCRIPT)
schema = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(schema)


def run(*args):
    proc = subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout + proc.stderr


class GateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def doc(self, name, metrics=None, counters=None, timeline=0):
        path = pathlib.Path(self.tmp.name) / name
        path.write_text(json.dumps({
            "metrics": metrics or {},
            "counters": counters or {},
            "timeline": [{}] * timeline,
        }), encoding="utf-8")
        return path

    def assertGate(self, expected_rc, *args):
        rc, out = run(*args)
        self.assertEqual(rc, expected_rc, out)
        return out

    def test_at_least_metric(self):
        f = self.doc("a.json", metrics={"speedup_1t": 3.5, "digest": "x"})
        self.assertGate(0, "--at-least", f, "metrics.speedup_1t", 3)
        self.assertGate(0, "--at-least", f, "metrics.speedup_1t", 3.5)
        self.assertIn("< required 4", self.assertGate(1, "--at-least", f,
                                                      "metrics.speedup_1t", 4))
        self.assertGate(1, "--at-least", f, "metrics.missing", 0)
        self.assertGate(1, "--at-least", f, "metrics.digest", 0)  # not a number

    def test_at_least_dotted_metric(self):
        f = self.doc("a.json", metrics={"ladder.am1.row_ms": 2.0})
        self.assertGate(0, "--at-least", f, "metrics.ladder.am1.row_ms", 2)
        self.assertGate(1, "--at-least", f, "metrics.ladder.am1.row_ms", 2.1)

    def test_at_least_counter(self):
        f = self.doc("a.json", counters={"campaign_units_resumed": 7})
        self.assertGate(0, "--at-least", f, "counters.campaign_units_resumed", 7)
        self.assertGate(1, "--at-least", f, "counters.campaign_units_resumed", 8)

    def test_at_least_timeline(self):
        self.assertGate(0, "--at-least", self.doc("a.json", timeline=2), "timeline", 2)
        self.assertGate(1, "--at-least", self.doc("b.json", timeline=1), "timeline", 2)

    def test_at_least_has_no_default_key(self):
        f = self.doc("a.json", metrics={"speedup_row_vs_generic": 9.0})
        self.assertGate(2, "--at-least", f, 2.5)
        self.assertGate(2, "--at-least", f, "speedup_row_vs_generic", 2.5)
        self.assertGate(2, "--at-least", f, "metrics.speedup_row_vs_generic", "x")

    def test_ratio_at_least(self):
        cold = self.doc("cold.json", metrics={"requests_per_s": 100.0})
        warm = self.doc("warm.json", metrics={"requests_per_s": 1500.0})
        self.assertGate(0, "--ratio-at-least", warm, "metrics.requests_per_s",
                        cold, "metrics.requests_per_s", 10)
        self.assertGate(1, "--ratio-at-least", cold, "metrics.requests_per_s",
                        warm, "metrics.requests_per_s", 10)

    def test_ratio_at_least_within_one_document(self):
        f = self.doc("ladder.json", metrics={"ladder.am1.scalar_ms": 366.0,
                                             "ladder.am1.row_ms": 77.0,
                                             "zero": 0})
        self.assertGate(0, "--ratio-at-least", f, "metrics.ladder.am1.scalar_ms",
                        f, "metrics.ladder.am1.row_ms", 2)
        self.assertGate(1, "--ratio-at-least", f, "metrics.ladder.am1.row_ms",
                        f, "metrics.ladder.am1.scalar_ms", 2)
        self.assertIn("not positive",
                      self.assertGate(1, "--ratio-at-least", f,
                                      "metrics.ladder.am1.row_ms", f, "metrics.zero", 1))

    def test_equal_whole_metrics(self):
        a = self.doc("a.json", metrics={"x": 1, "y": "z"})
        b = self.doc("b.json", metrics={"x": 1, "y": "z"})
        c = self.doc("c.json", metrics={"x": 2, "y": "z"})
        d = self.doc("d.json", metrics={"x": 1})
        self.assertGate(0, "--equal", a, b)
        self.assertIn("'x': 1 != 2", self.assertGate(1, "--equal", a, c))
        self.assertIn("only in", self.assertGate(1, "--equal", a, d))

    def test_equal_one_metric(self):
        a = self.doc("a.json", metrics={"reply_digest": "ab12", "rate": 1.0})
        b = self.doc("b.json", metrics={"reply_digest": "ab12", "rate": 9.0})
        c = self.doc("c.json", metrics={"reply_digest": "ff00", "rate": 1.0})
        self.assertGate(0, "--equal", a, b, "metrics.reply_digest")
        self.assertGate(1, "--equal", a, c, "metrics.reply_digest")

    def test_min_window_count(self):
        ok = self.doc("top.json", metrics={"slo_ping_w10_count": 40,
                                           "slo_ping_w10_p99_us": 12.0,
                                           "slo_stats_w10_count": 30,
                                           "slo_stats_w10_p99_us": 50.0})
        no_p99 = self.doc("no_p99.json", metrics={"slo_ping_w10_count": 70})
        self.assertGate(0, "--min-window-count", ok, 64)
        self.assertGate(1, "--min-window-count", ok, 71)
        self.assertIn("slo_ping_w10_p99_us is missing",
                      self.assertGate(1, "--min-window-count", no_p99, 64))

    def test_unknown_and_removed_modes_are_usage_errors(self):
        f = self.doc("a.json", metrics={"m": 1})
        for mode in ("--min-speedup", "--min-ratio", "--min-counter", "--min-timeline",
                     "--equal-metrics", "--equal-metric"):
            self.assertGate(2, mode, f, "m", 1)
        self.assertGate(2, "--equal", f)  # wrong argument count

    def test_missing_file_fails(self):
        self.assertGate(1, "--at-least", pathlib.Path(self.tmp.name) / "none.json",
                        "timeline", 0)


class SchemaTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.assertTrue(COMMITTED, "no committed bench_out/BENCH_*.json")
        with open(COMMITTED[0], encoding="utf-8") as f:
            self.base = json.load(f)

    def write(self, doc):
        path = pathlib.Path(self.tmp.name) / "BENCH_mutated.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_every_committed_document_passes(self):
        rc, out = run(*COMMITTED)
        self.assertEqual(rc, 0, out)

    def test_removing_any_catalog_entry_is_rejected(self):
        # The script's catalog holds every entry of the header tables, and a
        # committed document missing any one of them is rejected.
        for header, tables in (
                ("counters.hpp", (("REALM_OBS_COUNTERS", "counters"),
                                  ("REALM_OBS_GAUGES", "gauges"))),
                ("histogram.hpp", (("REALM_OBS_VALUE_HISTS", "value_histograms"),))):
            text = (ROOT / "include" / "realm" / "obs" / header).read_text(encoding="utf-8")
            catalogs = [(schema.catalog(header, table), section)
                        for table, section in tables]
            self.assertEqual(sum(len(names) for names, _ in catalogs),
                             text.count("  X(k"), header)
            for names, section in catalogs:
                for name in names:
                    doc = copy.deepcopy(self.base)
                    del doc[section][name]
                    rc, out = run(self.write(doc))
                    self.assertEqual(rc, 1, out)
                    self.assertIn(f"{section} missing {name!r}", out)

    def test_a_malformed_histogram_is_rejected(self):
        doc = copy.deepcopy(self.base)
        doc["value_histograms"]["store_record_bytes"]["buckets"] = [0] * 63
        rc, out = run(self.write(doc))
        self.assertEqual(rc, 1, out)
        self.assertIn("64-entry list", out)


class CiTest(unittest.TestCase):
    def test_ci_uses_only_existing_modes(self):
        ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
        modes = re.findall(r"check_bench_schema\.py\s*\\?\s*(--[\w-]+)", ci)
        self.assertTrue(modes)
        for mode in modes:
            self.assertIn(mode, ("--at-least", "--ratio-at-least", "--equal",
                                 "--min-window-count"))


if __name__ == "__main__":
    unittest.main(verbosity=2)
