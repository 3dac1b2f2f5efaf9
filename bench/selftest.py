"""Self-test of the benchmark: every workload once at a tiny size, the metric
names against ``BENCHMARK.json``, and the paths that must count failures.

    python3 bench/selftest.py        (from the repository root; about 20 s)
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# The tier-1 suite (pytest over tests/) of the commit the benchmark was
# defined on; the benchmark must add no test to it.
TIER1_TESTS = 145

# Launchers that run the CLI but leave missing, emptied or unstable artifacts.
NO_ENTRY_POINT = "import cavityswap.cli"
EMPTIES_OUTPUT = """
import os, shutil, sys
from cavityswap.cli import run
try:
    run()
finally:
    out = sys.argv[sys.argv.index("--out") + 1]
    shutil.rmtree(out)
    os.mkdir(out)
"""
UNSTABLE_BYTES = """
import sys, time
from cavityswap.cli import run
try:
    run()
finally:
    out = sys.argv[sys.argv.index("--out") + 1]
    with open(out + "/stamp.txt", "w") as f:
        f.write(repr(time.perf_counter_ns()))
"""


def emitted(rounds, metrics, units) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.emit(rounds, metrics, units)
    return json.loads(buf.getvalue().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def setUp(self):
        self.workdir = run.OUT / f"selftest-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def assert_all_printed(self, result, declared):
        names = [(m["name"], m["unit"]) for m in declared]
        self.assertEqual([(k, v["unit"]) for k, v in result["metrics"].items()], names)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_benchmark_json_matches_the_runner(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(workloads.NAMES))
        self.assertEqual([(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]], list(run.PER_LAYER))

    def test_each_workload_untraced_prints_every_end_to_end_metric(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                rounds, metrics = run.measure_untraced(workloads.build(name, 3, tiny=True), 0, self.workdir)
                result = emitted(rounds, metrics, run.END_TO_END)
                self.assertTrue(result["correct"], result)
                self.assertEqual(result["failed"], 0)
                self.assert_all_printed(result, BENCHMARK["end_to_end"])
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()), result)

    def test_each_workload_traced_prints_every_per_layer_metric(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                rounds, metrics, shares, spans, absent = run.measure_traced(
                    workloads.build(name, 3, tiny=True), 0, self.workdir)
                result = emitted(rounds, metrics, run.PER_LAYER)
                self.assertTrue(result["correct"], result)
                self.assert_all_printed(result, BENCHMARK["per_layer"])
                self.assertEqual(absent, [])
                self.assertTrue(spans)

    def test_broken_launchers_count_as_failed_operations(self):
        wl = workloads.build("shots", 3, tiny=True)
        for launcher in (NO_ENTRY_POINT, EMPTIES_OUTPUT, UNSTABLE_BYTES):
            with self.subTest(launcher=launcher.strip().splitlines()[-1]):
                rounds, metrics = run.measure_untraced(wl, 0, self.workdir, launcher=launcher)
                result = emitted(rounds, metrics, run.END_TO_END)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_fails_without_printing_a_result_when_sources_are_missing(self):
        bare = self.workdir / "bare"
        shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "shots",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)

    def test_tier1_run_collects_the_seed_tests_only(self):
        done = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q"], cwd=run.ROOT,
                              env=run.child_env(), capture_output=True, text=True, timeout=300)
        self.assertEqual(done.returncode, 0, done.stdout[-2000:])
        self.assertNotIn("bench/", done.stdout)
        collected = re.search(r"^(\d+) tests? collected", done.stdout, re.MULTILINE)
        self.assertIsNotNone(collected, done.stdout[-2000:])
        self.assertEqual(int(collected.group(1)), TIER1_TESTS)


if __name__ == "__main__":
    unittest.main()
