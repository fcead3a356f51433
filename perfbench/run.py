"""The symprs benchmark.

    python3 perfbench/run.py --workload dense|census|algebra --seed N \\
        --seconds T --trace 0|1

Every measurement runs in a fresh single-threaded interpreter
(``worker.py``), one process at a time. ``--trace 0`` reports the
end-to-end metrics from untraced runs; ``--trace 1`` reports the per-layer
metrics of one traced repetition, with the tracing overhead measured
against an untraced run made just before it. The last line of stdout is
the result as one JSON object; the line before it gives the details (seed,
interpreter, CPUs, source digest, run counts and tails, every failure).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import CLI_VERBS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
WORKLOADS = ("dense", "census", "algebra")
SETUP_SAMPLES = 5  # set-up-only interpreters per run, besides the measured one
DEADLINE_S = 170.0  # every child is killed so the whole run ends within 180 s

UNITS = {"job_s": "s", "cli_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".stdout_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


class Runner:
    """Starts worker interpreters one after another under one deadline."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def child(self, mode: str, seconds: float) -> dict:
        out = WORK / f"result-{mode}.json"
        out.unlink(missing_ok=True)
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise TimeoutError("benchmark deadline passed")
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--seconds", repr(seconds), "--mode", mode,
               "--t0", repr(t0), "--out", str(out)]
        proc = subprocess.run(cmd, env=self.env, stdout=sys.stderr, timeout=left, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)

    def setup_samples(self) -> list[dict]:
        self.child("setup", 0)  # warm-up: bytecode compiled, files cached
        return [self.child("setup", 0) for _ in range(SETUP_SAMPLES)]


def tail(values: list[float]) -> dict | None:
    """The highest of p50/p90/p95/p99 with at least ten samples beyond it."""
    ordered = sorted(values)
    for pct in (99, 95, 90, 50):
        rank = math.ceil(pct / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return {"pct": pct, "value": ordered[rank - 1]}
    return None


def timing(values: list[float]) -> dict:
    return {"median": statistics.median(values), "n": len(values), "tail": tail(values)}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "symprs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def end_to_end(runner: Runner) -> tuple[dict, list[dict], dict]:
    setups = runner.setup_samples()
    run = runner.child("run", runner.seconds)
    setups.append(run)
    metrics = {
        "job_s": statistics.median(run["job_s"]),
        "cli_s": statistics.median(run["cli_s"]),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    details = {name: timing(run[name]) for name in ("job_s", "cli_s", "job_wall_s", "cli_wall_s")}
    details["setup_s"] = timing([s["setup_s"] for s in setups])
    details["setup_wall_s"] = timing([s["setup_wall_s"] for s in setups])
    details["reps"] = len(run["job_s"])
    return metrics, [run], details


def per_layer(runner: Runner) -> tuple[dict, list[dict], dict]:
    base = runner.child("run", runner.seconds / 2)
    traced = runner.child("trace", 0)
    untraced_job = statistics.median(base["job_s"])
    metrics = dict(traced["layers"])
    for verb in CLI_VERBS:
        metrics[f"cli.{verb}.stdout_bytes"] = traced["stdout_bytes"].get(verb, 0)
    metrics["trace.overhead_s"] = traced["job_s"][0] - untraced_job
    details = {"untraced_job_s": timing(base["job_s"]), "traced_job_s": traced["job_s"][0],
               "traced_wall_s": traced["wall_s"][0], "spans": traced["spans"],
               "self_s_total": sum(v for k, v in traced["layers"].items()
                                   if k.count(".") == 2 and k.endswith(".self_s"))}
    return metrics, [base, traced], details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="symprs benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "symprs" / "__init__.py").is_file():
        print(f"error: no symprs sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed, args.seconds)
    try:
        metrics, runs, details = (per_layer if args.trace else end_to_end)(runner)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    details.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(), "src_sha256": source_digest(),
        "fail_frac": len(failures) / attempted if attempted else 1.0,
        "failures": failures[:20],
    })
    units = {name: UNITS.get(name) or layer_unit(name) for name in metrics}
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
