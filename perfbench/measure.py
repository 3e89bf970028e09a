"""One workload process: set up, run the closed loop, print one JSON line.

    python3 perfbench/measure.py --workload NAME --seed N --seconds S \
        --workdir DIR [--trace] [--setup-only]

run.py starts this with the environment the benchmark fixes (invarkit
from the checkout's ``src``, BLAS pinned to one thread) and reads the
last line of its output. Set-up time runs from the top of this file, so
it covers the imports, the input generation and the warm-up.

Untraced, the process reports the end-to-end metrics. With ``--trace``
it runs rounds of one untraced and one traced operation, back to back,
with every invarkit function wrapped by the span recorder only for the
traced one, and reports the per-layer metrics; the tracing overhead is
the median over rounds of traced minus untraced time. For ``verify``
each round first times each suite through its own single-worker
``run_suite`` call, right before the untraced ``--workers 2`` operation
that ``suites.overlap`` divides their sum by.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import invarkit  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from invarkit import suites  # noqa: E402

import tracing  # noqa: E402
from run import BLAS_THREAD_VARS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# (name, unit) of every metric; BENCHMARK.json lists the same.
END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = [
    ("hbf.train.self_s", "s"),
    ("hbf.train.iters", "count"),
    ("hbf.step_us", "us"),
    ("hbf.cdist.per_iter", "calls/iter"),
    ("hbf.cdist.self_s", "s"),
    ("hbf.radial_basis.per_iter", "calls/iter"),
    ("hbf.grad_coeffs.calls", "count"),
    ("hbf.grad_centers.calls", "count"),
    ("hbf.objective.calls", "count"),
    ("hbf.solve_coeffs.calls", "count"),
    ("hbf.solve_coeffs.self_s", "s"),
    ("hbf.init_centers.self_s", "s"),
    ("pooling.layer_forward.calls", "count"),
    ("pooling.layer_forward.self_s", "s"),
    ("pooling.network_forward.self_s", "s"),
    ("pooling.invariance_gap.self_s", "s"),
    ("pooling.pool.calls", "count"),
    ("pooling.pool.per_forward", "calls/forward"),
    ("pooling.mex.self_s", "s"),
    ("signals.apply.calls", "count"),
    ("signals.normalize.calls", "count"),
    ("kernels.k0_mc.calls", "count"),
    ("kernels.k0_mc.self_s", "s"),
    ("kernels.ktilde_mc.calls", "count"),
    ("kernels.ktilde_mc.self_s", "s"),
    ("kernels.gram.self_s", "s"),
    ("kernels.draw.calls", "count"),
    ("kernels.draw.rows", "count"),
    ("kernels.draw.unique_ratio", "ratio"),
    ("kernels.step_kernel_numeric.self_s", "s"),
    ("kernels.mex_npsd_scan.self_s", "s"),
    *((f"suites.{s}.wall_s", "s") for s in
      ("invariance", "kernels", "mex", "ramps", "hbf", "hvq")),
    ("suites.overlap", "ratio"),
    ("suites.write_report.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("ramps.fit_ramp_combination.self_s", "s"),
    ("vq.classify.calls", "count"),
    ("vq.classify.self_s", "s"),
    ("trace.overhead_s", "s"),
]


class Checker:
    """Checks each output against the first correct one and counts failures."""

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.reference, self.attempted, self.failed = None, 0, 0

    def __call__(self, output) -> None:
        ok = output is not None and self.workload.check(
            self.inputs, output, self.reference)
        if ok and self.reference is None:
            self.reference = output
        self.attempted += 1
        self.failed += not ok


def timed_op(workload, inputs):
    """Wall time and output of one operation; the output is None if it raised."""
    t = time.perf_counter()
    try:
        output = workload.op(inputs)
    except Exception:
        traceback.print_exc()
        output = None
    return time.perf_counter() - t, output


def run_loop(workload, inputs, seconds):
    """Closed loop: operations back to back until ``seconds`` have passed.

    Returns per-operation times, the checker and the loop wall time.
    """
    times, check = [], Checker(workload, inputs)
    start = time.perf_counter()
    while True:
        t, output = timed_op(workload, inputs)
        times.append(t)
        check(output)
        if time.perf_counter() - start >= seconds:
            return times, check, time.perf_counter() - start


def traced_loop(workload, inputs, seconds, seed):
    """Rounds of an untraced and a traced operation until ``seconds`` have passed.

    The recorder is installed right before each traced operation and
    removed right after it, so checks and untraced operations run bare.
    Returns the traced profiles, the per-round overheads, the per-round
    suite timings (``verify`` only), the checker and the recorder.
    """
    rec = tracing.Recorder()
    modules = [sys.modules[m] for m in tracing.MODULES]
    check = Checker(workload, inputs)
    profiles, overheads, suite_rounds = [], [], []
    start = time.perf_counter()
    while True:
        walls = time_suites(seed) if workload.name == "verify" else None
        untraced, output = timed_op(workload, inputs)
        check(output)
        if walls is not None:
            suite_rounds.append((walls, untraced))
        undo = tracing.install(rec, modules)
        try:
            rec.begin_op()
            traced, output = timed_op(workload, inputs)
            profiles.append(rec.end_op())
        finally:
            undo()
        check(output)
        overheads.append(traced - untraced)
        if time.perf_counter() - start >= seconds:
            return profiles, overheads, suite_rounds, check, rec


def layer_metrics(profiles, overheads, suite_rounds) -> dict:
    """Per-layer metrics: the median over traced operations or rounds of each figure.

    ``suite_rounds`` holds, per round, the single-worker wall time of each
    suite and the time of the ``--workers 2`` operation next to them.
    """

    def med(fn):
        return statistics.median(fn(p) for p in profiles)

    def ratio(a, b):
        return a / b if b else 0.0

    iters = lambda p: p.counts["hbf.train.iters"]  # noqa: E731
    values = {}
    for name, _ in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = med(lambda p: p.calls.get(fn, 0))
        elif stat == "self_s":
            values[name] = med(lambda p: p.self_s.get(fn, 0.0))
    values["hbf.train.iters"] = med(iters)
    values["hbf.step_us"] = med(
        lambda p: 1e6 * ratio(p.incl_s.get("hbf.train", 0.0), iters(p))
    )
    for fn in ("hbf.cdist", "hbf.radial_basis"):
        values[f"{fn}.per_iter"] = med(lambda p: ratio(p.calls.get(fn, 0), iters(p)))
    values["pooling.pool.per_forward"] = med(
        lambda p: ratio(p.calls.get("pooling.pool", 0),
                        p.calls.get("pooling.layer_forward", 0))
    )
    values["kernels.draw.rows"] = med(lambda p: p.counts["kernels.draw.rows"])
    values["kernels.draw.unique_ratio"] = med(
        lambda p: ratio(p.distinct.get("kernels.draw", 0), p.calls.get("kernels.draw", 0))
    )
    if suite_rounds:
        for suite in suite_rounds[0][0]:
            values[f"suites.{suite}.wall_s"] = statistics.median(
                w[suite] for w, _ in suite_rounds)
        values["suites.overlap"] = statistics.median(
            ratio(sum(w.values()), op_s) for w, op_s in suite_rounds)
    values["trace.overhead_s"] = statistics.median(overheads)
    return {n: {"value": float(values.get(n, 0.0)), "unit": u} for n, u in PER_LAYER}


def time_suites(seed) -> dict:
    """Wall time of each suite through its own single-worker run_suite call."""
    walls = {}
    for name in suites.SUITES:
        if name == "all":
            continue
        t = time.perf_counter()
        suites.run_suite(suites.SuiteConfig(suite=name, seed=seed, workers=1))
        walls[name] = time.perf_counter() - t
    return walls


def env_stamp(args, root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    make_inputs = WORKLOADS[args.workload].make_inputs
    defaults = {
        k: p.default for k, p in inspect.signature(make_inputs).parameters.items()
        if p.default is not inspect.Parameter.empty and k != "workdir"
    }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": defaults,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "invarkit": invarkit.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root / "src"),
    }


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, args.workdir)
    workload.warm_up(args.seed, args.workdir)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"env": env_stamp(args, Path(__file__).resolve().parents[1])}
    if not args.trace:
        times, check, wall = run_loop(workload, inputs, args.seconds)
        metrics = {
            "setup_s": setup_s,
            "op_p50_s": statistics.median(times),
            "ops_per_s": len(times) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["metrics"] = {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END}
        result["samples"] = {"setup_s": 1, "op_p50_s": len(times),
                             "ops_per_s": len(times), "peak_rss_mb": 1}
    else:
        profiles, overheads, suite_rounds, check, rec = traced_loop(
            workload, inputs, args.seconds, args.seed)
        spans = rec.write(args.workdir / f"spans-{args.workload}.npz")
        result["metrics"] = layer_metrics(profiles, overheads, suite_rounds)
        samples = {name: len(profiles) for name, _ in PER_LAYER}
        for name in samples:
            if name.startswith("suites.") and name != "suites.write_report.self_s":
                samples[name] = len(suite_rounds)
        samples["trace.overhead_s"] = len(overheads)
        result["samples"] = dict(samples, spans=spans)
    result.update(attempted=check.attempted, failed=check.failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
