"""One measured process of the benchmark; ``run.py`` starts it, one at a time.

    python3 perfbench/worker.py --workload W --seed S --seconds T \\
        --mode setup|run|trace --t0 MONOTONIC --out RESULT.json

Set-up runs from interpreter start to the first timed op: ``setup_s`` is
the CPU time this interpreter has used by then, at reference speed, and
``setup_wall_s`` the wall time since ``--t0``, the parent's
``time.monotonic()`` just before it started this interpreter. ``setup``
stops there; ``run`` repeats the workload untraced for about ``--seconds``;
``trace`` installs the span wrappers, runs one repetition, restores the
originals and writes the spans out.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from collections import Counter

import spans

MIN_REPS = 3
# On a shared host (2 vCPUs at 2.1 GHz) the CPU speed drifted by up to 2x
# within minutes (a fixed loop took 20-34 ms from one second to the next),
# and the host at times took the vCPU away for whole seconds (reported as
# steal time), so raw wall times could not be compared across runs. Timed
# work is therefore also reported in reference-speed seconds: its CPU time
# (the thread clock: this process has one thread), which leaves out stolen
# and descheduled time, is cut into segments at samples of ``reference()``,
# taken every REF_EVERY_S inside long calls (by an interval timer) and
# between calls once REF_EVERY_S of CPU time has built up, and each
# segment is scaled by
# REF_NOMINAL_S / mean(sample before, sample after).
# REF_NOMINAL_S is fixed for good; changing it rescales every result.
REF_NOMINAL_S = 0.0012
REF_EVERY_S = 0.1
HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")


def reference() -> float:
    """CPU seconds taken by a fixed loop of int, bit and dict work (no
    symprs), with the garbage collector held off so the workload's heap
    cannot lengthen it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        acc = 0
        table = {}
        for i in range(6000):
            acc ^= (i * 2654435761) & 0xFFFFFFFF
            table[i & 255] = (acc & (acc >> 7)).bit_count()
        return time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()


class Rep:
    """One repetition: times, op counts, failures and output digests.

    ``expected`` maps labels to recorded sha256 digests (default seed only);
    ``None`` skips the comparison.
    """

    def __init__(self, workload: str, expected: dict | None, tracer=None):
        self.workload = workload
        self.expected = expected
        self.tracer = tracer
        self.wall = {"job": 0.0, "cli": 0.0}
        self.scaled = {"job": 0.0, "cli": 0.0}
        self._pending: list[tuple[str, float]] = []
        self._since_ref = 0.0
        self._ref = reference()
        self._kind = None  # "job" or "cli" while a timed call runs
        self._segment_start = (0.0, 0.0)  # (wall, CPU)
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.stdout_bytes: Counter = Counter()

    def op(self, label: str, fn, check, digest=None):
        """Time one library call, then check its output untimed."""
        self.attempted += 1
        try:
            result = self._timed("job", fn)
        except Exception as exc:  # a failed op is counted, never fatal
            self.fail(label, f"raised {exc!r}")
            return None
        self._judge(label, result, check, digest)
        return result

    def cli(self, label: str, argv: list[str], check):
        """Time one in-process ``symprs.cli.main(argv)`` with stdout captured."""
        from symprs import cli

        self.attempted += 1
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = self._timed("cli", lambda: cli.main(argv))
        except (Exception, SystemExit) as exc:  # argparse exits on usage errors
            self.fail(f"cli.{label}", f"raised {exc!r}")
            return
        text = out.getvalue()
        self.stdout_bytes[argv[0]] += len(text.encode())
        if code != 0:
            self.fail(f"cli.{label}", f"exit code {code}")
            return
        self._judge(f"cli.{label}", text, lambda t: check(json.loads(t)), lambda t: t)

    def _timed(self, kind: str, fn):
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._kind = kind
        self._segment_start = (time.perf_counter(), time.thread_time())
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        try:
            return fn()
        finally:
            self._kind = None
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._close_segment(kind)
            if self._since_ref >= REF_EVERY_S:
                self.flush()

    def _close_segment(self, kind: str):
        wall, cpu = self._segment_start
        self.wall[kind] += time.perf_counter() - wall
        seconds = time.thread_time() - cpu
        self._pending.append((kind, seconds))
        self._since_ref += seconds

    def _tick(self, signum, frame):
        """Timer inside a long call: sample the speed, and keep the sample's
        own time out of the call's time and out of any open span."""
        kind, self._kind = self._kind, None  # also shields against a nested tick
        if kind is None:
            return
        self._close_segment(kind)
        t0 = time.perf_counter()
        self.flush()
        if self.tracer is not None:
            self.tracer.exclude(time.perf_counter() - t0)
        self._segment_start = (time.perf_counter(), time.thread_time())
        self._kind = kind

    def flush(self):
        """Scale the calls timed since the last reference sample."""
        if not self._pending:
            return
        ref = reference()
        scale = REF_NOMINAL_S / ((self._ref + ref) / 2)
        for kind, seconds in self._pending:
            self.scaled[kind] += seconds * scale
        self._pending.clear()
        self._since_ref = 0.0
        self._ref = ref

    def _judge(self, label, result, check, digest):
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            reason = check(result)
            if reason is None and digest is not None:
                reason = self._compare_digest(label, digest(result))
        except Exception as exc:  # a check that cannot run is a failed check
            reason = f"check raised {exc!r}"
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True
        if reason is not None:
            self.fail(label, reason)

    def _compare_digest(self, label: str, text: str) -> str | None:
        found = hashlib.sha256(text.encode()).hexdigest()
        self.digests[label] = found
        if self.expected is None:
            return None
        want = self.expected.get(label)
        if want != found:
            return f"sha256 {found[:16]} != recorded {want[:16] if want else None}"
        return None

    def fail(self, label: str, reason: str):
        message = f"{self.workload}.{label}: {reason}"
        self.failures.append(message)
        print(f"FAILED {message}", file=sys.stderr, flush=True)


def run_rep(workload, rep: Rep) -> float:
    t0 = time.perf_counter()
    try:
        workload.run(rep)
    except Exception as exc:  # code between ops touched a failed op's output
        rep.attempted += 1
        rep.fail("job", f"aborted: {exc!r}")
    rep.flush()
    return time.perf_counter() - t0


def expected_digests(workload: str, seed: int) -> dict | None:
    from workloads import DEFAULT_SEED

    if seed != DEFAULT_SEED:
        return None
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as handle:
            recorded = json.load(handle)
    except FileNotFoundError:
        recorded = {}
    return recorded.get("digests", {}).get(workload, {})


def measure(workload, name: str, seconds: float, expected) -> dict:
    """Untraced repetitions until the next one would overrun ``seconds``."""
    reps: list[Rep] = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        rep = Rep(name, expected)
        if spans.installed():
            rep.attempted += 1
            rep.fail("untraced", f"wrappers installed: {spans.installed()}")
        walls.append(run_rep(workload, rep))
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + statistics.median(walls) > seconds:
            break
    return summarize(reps, walls)


def trace(workload, name: str, expected, spans_path: str) -> dict:
    """One repetition with every span wrapper installed, then restored."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        rep = Rep(name, expected, tracer)
        wall = run_rep(workload, rep)
    finally:
        tracer.restore()
    left = spans.installed()
    if left:
        rep.attempted += 1
        rep.fail("restore", f"wrappers left installed: {left}")
    tracer.write(spans_path)
    result = summarize([rep], [wall])
    result["layers"] = tracer.metrics()
    result["spans"] = len(tracer.name_ix)
    return result


def summarize(reps: list[Rep], walls: list[float]) -> dict:
    return {
        "job_s": [r.scaled["job"] for r in reps],
        "cli_s": [r.scaled["cli"] for r in reps],
        "job_wall_s": [r.wall["job"] for r in reps],
        "cli_wall_s": [r.wall["cli"] for r in reps],
        "wall_s": walls,
        "attempted": sum(r.attempted for r in reps),
        "failures": [f for r in reps for f in r.failures],
        "stdout_bytes": dict(reps[-1].stdout_bytes),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import workloads

    workdir = os.path.join(HERE, "_work", "inputs")
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_wall, setup_cpu = time.monotonic() - args.t0, time.thread_time()
    result: dict = {"setup_wall_s": setup_wall, "setup_s": setup_cpu * REF_NOMINAL_S / reference()}
    if args.mode != "setup":
        expected = expected_digests(args.workload, args.seed)
        if args.mode == "run":
            result.update(measure(workload, args.workload, args.seconds, expected))
        else:
            spans_path = os.path.join(HERE, "_work", f"spans-{args.workload}.bin")
            result.update(trace(workload, args.workload, expected, spans_path))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
