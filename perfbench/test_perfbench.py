"""Tests of the benchmark harness, at smoke sizes.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(root, *args):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=900)


def smoke(workload, trace=0, *extra):
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds",
               "1", "--trace", str(trace), "--smoke", *extra)
    if proc.returncode != 0:
        raise AssertionError("run.py failed:\n" + proc.stderr[-2000:])
    lines = proc.stdout.rstrip("\n").split("\n")
    return json.loads(lines[-1]), lines


class ContractTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        names = [w["name"] for w in s["workloads"]]
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])

    def test_goldens_cover_every_universe(self):
        with open(os.path.join(HERE, "goldens.txt")) as fh:
            universes = {line.split()[1] for line in fh
                         if line.startswith("universe ")}
        for w in spec()["workloads"]:
            self.assertIn(w["name"], universes)
            self.assertIn("smoke/" + w["name"], universes)


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in declared})
        for name, v in result["metrics"].items():
            self.assertTrue(math.isfinite(v["value"]), name)

    def test_end_to_end_metrics_and_digests(self):
        for w in spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                result, lines = smoke(w["name"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.check_metrics(result, spec()["end_to_end"])
                self.assertEqual(result["metrics"]["ok_frac"]["value"], 1)
                for name in ("setup_s", "grid_cells_per_s",
                             "request_p90_ms", "peak_rss_mb"):
                    self.assertGreater(result["metrics"][name]["value"], 0)
                prov = json.loads(next(l for l in lines
                                       if l.startswith("provenance "))[11:])
                for key in ("host", "nproc", "TG_JOBS", "TG_ARCH",
                            "compiler", "revision"):
                    self.assertIn(key, prov)

    def test_traced_run_reports_every_layer_and_writes_a_trace(self):
        for w in spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                result, lines = smoke(w["name"], 1)
                self.assertTrue(result["correct"])
                self.check_metrics(result, spec()["per_layer"])
                self.assertTrue(any(l.startswith("traced-e2e ")
                                    for l in lines))
                path = os.path.join(ROOT, ".bench_build", "traces",
                                    "%s-seed3.json" % w["name"])
                with open(path) as fh:
                    events = json.load(fh)["traceEvents"]
                self.assertTrue(events)
                ids = {e["args"]["span"] for e in events}
                for e in events:
                    self.assertEqual(e["ph"], "X")
                    parent = e["args"]["parent"]
                    self.assertTrue(parent == 0 or parent in ids, e)
                if w["name"] == "serve-mixed":
                    # Repeats come in pairs with novel requests; the
                    # harness checks hits == planned repeats exactly.
                    ratio = result["metrics"]["cache.memo_hit_ratio"]["value"]
                    self.assertTrue(0.3 < ratio <= 0.5, ratio)

    def test_corrupted_digest_counts_as_failure(self):
        result, _ = smoke("grid-default", 0, "--corrupt-golden")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_repository_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-test")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(bare, "--workload", "grid-default", "--seed", "1",
                       "--seconds", "1", "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
