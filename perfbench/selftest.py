"""Self-tests of the benchmark itself (not of symprs).

    python3 perfbench/selftest.py

Each test runs one repetition of the ``algebra`` workload at the default
seed, the quickest of the three, so the whole file takes well under a
minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(HERE, "_work")
NAME = "algebra"


def one_rep(expected, tracer=None) -> worker.Rep:
    rep = worker.Rep(NAME, expected, tracer)
    worker.run_rep(make_workload(), rep)
    return rep


def make_workload():
    workdir = os.path.join(WORK, "inputs")
    os.makedirs(workdir, exist_ok=True)
    return workloads.WORKLOADS[NAME](workloads.DEFAULT_SEED, workdir)


class SelfTest(unittest.TestCase):
    def test_untraced_run_has_no_wrapper_installed(self):
        self.assertEqual(spans.installed(), [])
        rep = one_rep(worker.expected_digests(NAME, workloads.DEFAULT_SEED))
        self.assertEqual(rep.failures, [])
        self.assertEqual(spans.installed(), [])

    def test_tracer_rebinds_every_alias_and_restores(self):
        from symprs import gf2, srs, symplectic

        originals = (srs.row_reduce, gf2.BitMat.__matmul__, symplectic.SympSpace.form)
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertTrue(hasattr(srs.row_reduce, spans.MARK))  # bound by `from .gf2 import`
            self.assertIs(srs.row_reduce, gf2.row_reduce)
            self.assertTrue(spans.installed())
        finally:
            tracer.restore()
        self.assertEqual(spans.installed(), [])
        self.assertEqual(originals, (srs.row_reduce, gf2.BitMat.__matmul__, symplectic.SympSpace.form))

    def test_corrupted_expected_digest_is_a_failure(self):
        expected = dict(worker.expected_digests(NAME, workloads.DEFAULT_SEED))
        self.assertIn("cli.weyl", expected)
        expected["cli.weyl"] = "0" * 64
        rep = one_rep(expected)
        self.assertGreater(len(rep.failures) / rep.attempted, 0)
        self.assertTrue(any("cli.weyl" in f and "sha256" in f for f in rep.failures))

    def test_traced_self_times_fit_in_wall_time(self):
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            path = os.path.join(tmp, "spans.bin")
            result = worker.trace(make_workload(), NAME,
                                  worker.expected_digests(NAME, workloads.DEFAULT_SEED), path)
            with open(path, "rb") as handle:
                header = json.loads(handle.readline())
        self.assertEqual(result["failures"], [])
        self.assertEqual(header["count"], result["spans"])
        self.assertGreater(result["spans"], 0)
        per_function = [v for k, v in result["layers"].items()
                        if k.count(".") == 2 and k.endswith(".self_s")]
        self.assertTrue(all(v >= 0 for v in per_function))
        self.assertLessEqual(sum(per_function), result["wall_s"][0])
        self.assertGreater(result["layers"]["grp2.cocycle.calls"], 0)
        self.assertEqual(spans.installed(), [])

    def test_benchmark_json_matches_emitted_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.UNITS)
        layer_names = list(spans.Tracer().metrics())
        layer_names += [f"cli.{verb}.stdout_bytes" for verb in spans.CLI_VERBS]
        layer_names.append("trace.overhead_s")
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {name: run.layer_unit(name) for name in layer_names})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(run.WORKLOADS, tuple(workloads.WORKLOADS))

    def test_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("_work", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", NAME, "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
