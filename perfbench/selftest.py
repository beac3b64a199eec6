"""Self-tests of the benchmark (not part of the program's test suite).

    python3 perfbench/selftest.py

* a tiny-size pass of every workload, untraced and traced, must exit 0,
  pass its output checks and print only metrics declared in
  ``BENCHMARK.json``, with their declared units;
* the declared metric names are unique and match ``[A-Za-z0-9_.-]+``,
  and the per-layer list is exactly what a traced run produces;
* spans of an instrumented engine nest inside their parents and their
  self times sum to no more than the wall time;
* the calibration kernel is deterministic, allocates no array, and a
  scaled interval of pure kernel work reads as that many reference
  kernel times;
* without the program source next to it, the benchmark exits non-zero
  without printing a result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
import workload as w  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


class TinyRuns(unittest.TestCase):
    def check_run(self, workload: str, trace: str) -> None:
        proc = bench("--workload", workload, "--seed", "7", "--seconds", "2",
                     "--trace", trace, "--users", "2")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        kind = "per_layer" if trace == "1" else "end_to_end"
        declared = {m["name"]: m["unit"] for m in SPEC[kind]}
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, metric in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertEqual(metric["unit"], declared[name], name)
            self.assertIsInstance(metric["value"], float)

    def test_workloads(self) -> None:
        for workload in sorted(run.WORKLOADS):
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)


class Declarations(unittest.TestCase):
    def test_names(self) -> None:
        names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
        names += [wl["name"] for wl in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual({wl["name"] for wl in SPEC["workloads"]}, set(run.WORKLOADS))

    def test_per_layer_matches_traced_output(self) -> None:
        empty = {
            "summary": {}, "counters": {}, "setup": {}, "evaluations": 0.0,
            "feature_cache.hit_ratio": 0.0, "feature_cache.evictions": 0.0,
            "users_per_s_delta": 0.0, "ack_p50_ms_delta": 0.0, "wall_s": 1.0,
        }
        produced = {n: u for n, (_, u) in run.layer_metrics(empty, {}).items()}
        produced["failed_share"] = "ratio"
        self.assertEqual(produced, {m["name"]: m["unit"] for m in SPEC["per_layer"]})

    def test_offered_rates_are_recorded(self) -> None:
        why = next(wl["why"] for wl in SPEC["workloads"] if wl["name"] == "serve-stream")
        self.assertIn(f"{serve.FRAME_RATE:g} frames/s", why)
        self.assertIn(f"{serve.FRAME_RATE * serve.FRAME_RECORDS:g} records/s", why)
        self.assertIn(f"{serve.QUERY_RATE:g} queries/s", why)
        self.assertIn(f"{serve.STREAM_USERS} users", why)


class SpanNesting(unittest.TestCase):
    def test_engine_spans_nest(self) -> None:
        tracer = Tracer()
        try:
            background, test = w.corpus_slice(16)
            engine = w.build_engine(background, tracer)
            tracer.spans.clear()
            t0 = time.perf_counter()
            for user in w.protected_ids(test, 2):
                engine.protect_daily(test[user])
            wall = time.perf_counter() - t0
        finally:
            w.restore_engine_module()
        self.assertTrue(tracer.spans)
        self.assertEqual(tracer.nesting_errors(), [])
        summary = tracer.summary()
        self.assertIn("engine.protect", summary)
        self.assertIn("lppm.hmc.select_target", summary)
        self.assertLessEqual(sum(r["self_s"] for r in summary.values()), wall)
        for row in summary.values():
            self.assertGreaterEqual(row["self_s"], -1e-9)

    def test_self_time_excludes_children(self) -> None:
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda: time.sleep(0.02))

        def body() -> None:
            inner()
            inner()

        tracer.wrap("outer", body)()
        summary = tracer.summary()
        self.assertEqual(summary["inner"]["calls"], 2)
        outer = summary["outer"]
        self.assertAlmostEqual(outer["self_s"], outer["busy_s"] - summary["inner"]["busy_s"])
        self.assertLess(outer["self_s"], 0.01)


class Calibration(unittest.TestCase):
    def test_kernel_is_fixed_work(self) -> None:
        import tracemalloc

        first = calibrate.kernel()
        tracemalloc.start()
        try:
            self.assertEqual(calibrate.kernel(), first)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        self.assertLess(peak, 2 * 1024 * 1024)

    def test_kernel_work_scales_to_reference_time(self) -> None:
        def five_kernels() -> None:
            for _ in range(5):
                calibrate.kernel()

        _, scaled = calibrate.timed_setup(five_kernels)
        self.assertAlmostEqual(scaled / (5 * calibrate.REFERENCE_S), 1.0, delta=0.5)

    def test_scale_without_samples_is_one(self) -> None:
        self.assertEqual(calibrate.Calibrator().scale(), 1.0)


class WithoutProgram(unittest.TestCase):
    def test_fails_without_source(self) -> None:
        with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "publish-pop64", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
