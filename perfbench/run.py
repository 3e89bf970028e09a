"""invarkit benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload verify|invariant_features|hbf_fit \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout that holds ``src/invarkit``. It
exits with status 2, printing no result, when there is no such tree.

Every measuring process runs invarkit from the checkout's ``src`` with
BLAS pinned to one thread (``verify`` runs two suite worker threads on
what is usually a 2-core machine, and OpenBLAS would add threads per
worker). With ``--trace 0`` the run starts the workload several times up
to the end of its set-up, reports the median set-up time, and then runs
the closed loop untraced; the result holds the end-to-end metrics. With
``--trace 1`` it holds the per-layer metrics of a traced run, and the
spans are saved under ``.bench_out/``.

Before the last line, ``env:`` gives the environment stamp and
``samples:`` the number of measurements behind each metric. The last
line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("verify", "invariant_features", "hbf_fit")
SETUP_RUNS = 7  # set-up is timed in this many processes; the median is reported
TIME_LIMIT_S = 170  # the whole run, set-up processes included, ends within this
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in BLAS_THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


def measure(args, workdir: Path, deadline: float, *flags: str) -> dict:
    """Run measure.py once and return its JSON result; exits on failure."""
    cmd = [
        sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--workdir", str(workdir), *flags,
    ]
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"error: {args.workload} did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: measuring {args.workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one invarkit benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "invarkit" / "__init__.py").is_file():
        print(f"error: no invarkit source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_out"
    workdir.mkdir(exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S

    if args.trace:
        result = measure(args, workdir, deadline, "--trace")
    else:
        setups = [measure(args, workdir, deadline, "--setup-only")["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        result = measure(args, workdir, deadline)
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        result["samples"]["setup_s"] = len(setups)

    print("env: " + json.dumps(result["env"], sort_keys=True))
    print("samples: " + json.dumps(result["samples"], sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
