"""Record the sha256 digests that default-seed runs are compared against.

    python3 perfbench/record_expected.py

Runs one repetition of every workload at the default seed (with the
symprs sources under ``src/`` on the path) and rewrites
``perfbench/expected.json``. Re-record only when a change to symprs alters
its output on purpose, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
import worker  # noqa: E402


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "_work")) as workdir:
        for name, cls in workloads.WORKLOADS.items():
            rep = worker.Rep(name, None)
            worker.run_rep(cls(workloads.DEFAULT_SEED, workdir), rep)
            if rep.failures:
                print(f"{name}: {len(rep.failures)} failed checks; nothing recorded", file=sys.stderr)
                return 1
            digests[name] = dict(sorted(rep.digests.items()))
    with open(worker.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"seed": workloads.DEFAULT_SEED, "digests": digests}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
