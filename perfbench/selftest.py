"""Self-tests of the benchmark itself, at tiny workload sizes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

They check that every workload prints every metric BENCHMARK.json names
with its unit, that a wrong digest counts as a failure, that traced self
times add up to their span totals, and that the benchmark refuses to run
without the package sources.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest
from unittest import mock

import run  # first: pins BLAS threads before numpy loads
import spans
import workloads

ROOT = run.ROOT
TIMEOUT = 300

#: Workload sizes small enough for each execution to take a fraction of
#: a second; they replace workloads.SIZES while the self-tests run.
TINY = {
    "cone": {"problems": ("P1", "P17"), "evals_per_dim": 60,
             "environments": 2},
    "table": {"problems": workloads.ALL_PROBLEMS, "evals_per_dim": 20,
              "environments": 2},
    "offline": {"snapshot_problems": ("P1", "P5"), "evals_per_dim": 40,
                "environments": 3, "grid_problems": "P1,P5", "grid_env": 2,
                "resolution": 21},
}


def setUpModule():
    patch = mock.patch.dict(workloads.SIZES, TINY)
    patch.start()
    unittest.addModuleCleanup(patch.stop)


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _main(*args):
    """(exit code, printed lines) of the benchmark run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(args))
    return code, out.getvalue().splitlines()


class Smoke(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        spec = _spec()
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            units = {m["name"]: m["unit"] for m in spec[group]}
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, lines = _main("--workload", workload, "--seed", "3",
                                        "--seconds", "0.5",
                                        "--trace", str(trace))
                    self.assertEqual(code, 0)
                    final = json.loads(lines[-1])
                    self.assertEqual(
                        set(final),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(final["correct"])
                    self.assertEqual(final["failed"], 0)
                    self.assertGreaterEqual(final["attempted"], 1)
                    printed = {name: m["unit"]
                               for name, m in final["metrics"].items()}
                    self.assertEqual(printed, units)
                    for name, m in final["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                        self.assertNotIsInstance(m["value"], bool, name)

    def test_refuses_without_sources(self):
        bare = run.OUT / f"bare-{os.getpid()}"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(run.HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            done = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"),
                 "--workload", "cone", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=TIMEOUT)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


class Checks(unittest.TestCase):
    def test_corrupted_digest_counts_as_failure(self):
        metrics, checker, _ = run.measure("cone", 1, 0.1)
        self.assertEqual(checker.failed, 0)
        self.assertEqual(metrics["pass_ratio"], 1.0)
        good = checker.first_digests
        metrics, checker, walls = run.measure("cone", 1, 0.1, digests=good)
        self.assertEqual(checker.failed, 0)
        corrupted = dict(good, **{"results.csv": "0" * 64})
        metrics, checker, walls = run.measure("cone", 1, 0.1,
                                              digests=corrupted)
        # every execution compares against the corrupted digest
        self.assertEqual(checker.failed, len(walls))
        self.assertAlmostEqual(metrics["pass_ratio"],
                               1.0 - checker.failed / checker.attempted)
        self.assertLess(metrics["pass_ratio"], 1.0)


class Tracing(unittest.TestCase):
    def traced_table(self):
        workload = workloads.WORKLOADS["table"]
        work_dir = run.OUT / f"selftest-{os.getpid()}"
        try:
            _, dmm, inputs = run.setup(workload, 1, work_dir)
            original = dmm.controller.ProblemInstance.evaluate_many
            tracer = spans.Tracer()
            tracer.install(dmm)
            try:
                tracer.root(workload.execute, dmm, inputs,
                            run.fresh_dir(work_dir / "out"), 1)
            finally:
                tracer.restore()
            self.assertIs(dmm.controller.ProblemInstance.evaluate_many,
                          original)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        return tracer, inputs

    def test_self_times_add_up_to_span_totals(self):
        tracer, inputs = self.traced_table()
        self.assertEqual(spans.check_nesting(tracer), [])
        _, start, end, parent = tracer.arrays()
        roots = parent < 0
        self.assertEqual(int(roots.sum()), 1)
        total = float((end - start)[roots].sum())
        self.assertAlmostEqual(float(tracer.self_times().sum()), total,
                               delta=1e-9 * total)
        layers = spans.layer_metrics(tracer)
        self.assertGreater(layers["composition.weierstrass.self_s"], 0.0)
        self.assertEqual(layers["controller.charged_evals"],
                         inputs.evaluations)

    def test_nesting_check_catches_overlap(self):
        tracer = spans.Tracer()
        tracer.span_name[:] = [0, 0]
        tracer.span_start[:] = [0.0, 0.5]
        tracer.span_end[:] = [1.0, 1.5]
        tracer.span_parent[:] = [-1, 0]
        self.assertTrue(spans.check_nesting(tracer))


if __name__ == "__main__":
    unittest.main()
