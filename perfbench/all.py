"""Run every workload over several seeds, untraced and traced, and print every metric.

    python3 perfbench/all.py [--seeds K] [--seconds S] [--record PATH]

Each workload runs untraced once per seed 0 .. K-1, then traced once at
seed 0. Each line gives the workload, the metric, its median over the
runs, the distance between the first and the third quartile as a share
of the median (with two runs or more), the unit and how many measurements
stand behind it, summed over the runs. ``fail_ratio`` is failed over
attempted operations. Nothing is compared against a bar. ``--record``
also times the ROADMAP item-1 primitives (roadmap.py) and writes all of
it, every run with its environment stamp included, as one JSON file.
"""

import argparse
import json
import statistics
import subprocess
import sys

import run


def run_workload(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    prefixed = dict(line.split(": ", 1) for line in lines[:-1])
    result = json.loads(lines[-1])
    result["env"] = json.loads(prefixed["env"])
    result["samples"] = json.loads(prefixed["samples"])
    if not trace:
        result["metrics"]["fail_ratio"] = {
            "value": result["failed"] / result["attempted"], "unit": "ratio"}
        result["samples"]["fail_ratio"] = result["attempted"]
    return result


def summarize(results) -> dict:
    """Per metric: median over the runs, IQR / median, unit and summed samples."""
    rows = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        spread = None
        if len(values) >= 2 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
        rows[name] = {"median": median, "iqr_ratio": spread, "unit": m["unit"],
                      "samples": sum(r["samples"][name] for r in results)}
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--record", default=None)
    args = parser.parse_args(argv)

    record = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    print(f"{'workload':20s} {'metric':36s} {'median':>14s} {'iqr/med':>8s} "
          f"{'unit':14s} samples")
    for workload in run.WORKLOAD_NAMES:
        runs = [run_workload(workload, seed, args.seconds, 0)
                for seed in range(args.seeds)]
        traced = run_workload(workload, 0, args.seconds, 1)
        summary = {**summarize(runs), **summarize([traced])}
        for name, row in summary.items():
            spread = "-" if row["iqr_ratio"] is None else f"{row['iqr_ratio']:.3f}"
            print(f"{workload:20s} {name:36s} {row['median']:14.6g} {spread:>8s} "
                  f"{row['unit']:14s} {row['samples']}")
        record["workloads"][workload] = {
            "summary": summary, "untraced": runs, "trace": traced}

    if args.record:
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "roadmap.py")], env=run.child_env(),
            stdout=subprocess.PIPE, text=True, check=True,
        )
        record["roadmap_item1"] = json.loads(proc.stdout)
        for row, m in record["roadmap_item1"].items():
            print(f"{'roadmap':20s} {row:36s} {m['measured_ms']:14.6g} {'-':>8s} "
                  f"{'ms':14s} ROADMAP {m['roadmap_ms']} ms")
        with open(args.record, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
