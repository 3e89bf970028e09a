"""Compare verification-report rows between two invarkit source trees.

    python tools/row_drift.py BASE_TREE NEW_TREE [--seeds 0-39]

Each tree is a checkout (or ``git archive`` copy) holding ``src/invarkit``.
For every seed and for workers 1 and 2, each tree runs
``run_suite(SuiteConfig("all", seed, 100000, workers=w))`` in its own
Python process, with BLAS pinned to one thread; the two trees run side by
side. A row differs when its status or the hex form of its value differs,
or when it is present in one report only. Every differing row is printed
with both values and their absolute difference, then one line per check
id that moved: its rows moved, their largest absolute difference and its
status changes. Exit status is 1 if any row differs and 0 otherwise.

Example, against the parent commit:

    mkdir -p /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python tools/row_drift.py /tmp/parent .
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

_WORKERS = (1, 2)
_SAMPLES = 100_000

# Run inside each tree's process: one JSON line per report row.
_CHILD = """
import json, sys
import invarkit
from invarkit.suites import SuiteConfig, run_suite
src, samples, seeds, workers = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
if not invarkit.__file__.startswith(src):
    sys.exit(f"imported {invarkit.__file__}, not the tree under {src}")
for seed in map(int, seeds.split(",")):
    for w in map(int, workers.split(",")):
        for c in run_suite(SuiteConfig("all", seed, samples, workers=w)).checks:
            row = [seed, w, c.check_id, c.status, float(c.value).hex()]
            print(json.dumps(row), flush=True)
"""


def _seeds(text: str) -> list[int]:
    """'0-39' or '3' or '0,5,9' as a list of seeds."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _src(tree: str) -> str:
    src = Path(tree).resolve() / "src"
    if not (src / "invarkit" / "__init__.py").is_file():
        sys.exit(f"error: no src/invarkit under {tree}")
    return str(src)


def _start(src: str, seeds: list[int]) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, "-c", _CHILD, src, str(_SAMPLES),
        ",".join(map(str, seeds)), ",".join(map(str, _WORKERS)),
    ]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)


def _rows(proc: subprocess.Popen, tree: str) -> dict:
    out, _ = proc.communicate()
    if proc.returncode != 0:
        sys.exit(f"error: the run in {tree} exited with {proc.returncode}")
    rows = {}
    for line in out.splitlines():
        seed, w, check_id, status, value = json.loads(line)
        rows[seed, w, check_id] = (status, value)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-39"))
    args = parser.parse_args(argv)

    procs = [(tree, _start(_src(tree), args.seeds)) for tree in (args.base, args.new)]
    base, new = (_rows(proc, tree) for tree, proc in procs)
    missing = ("absent", None)
    differing = 0
    moved = {}  # check id -> [rows moved, max |diff|, status changes]
    for key in sorted(base.keys() | new.keys()):
        (s0, v0), (s1, v1) = base.get(key, missing), new.get(key, missing)
        if (s0, v0) == (s1, v1):
            continue
        differing += 1
        diff = abs(float.fromhex(v1) - float.fromhex(v0)) if v0 and v1 else float("nan")
        seed, w, check_id = key
        print(f"seed={seed} workers={w} {check_id}: {s0} {v0} -> {s1} {v1} |diff|={diff:.3g}")
        tally = moved.setdefault(check_id, [0, 0.0, 0])
        tally[0] += 1
        tally[1] = max(tally[1], diff)  # an absent row (NaN) counts as a status change
        tally[2] += s0 != s1
    for check_id, (rows, worst, changes) in sorted(moved.items()):
        print(f"{check_id}: {rows} rows moved, max |diff| {worst:.3g}, "
              f"{changes} status changes")
    print(f"{differing} of {len(base.keys() | new.keys())} rows differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
