"""Command-line verification harness.

    invarkit run --suite <name> --seed <u64> --samples <int> \
        --out <path> --format json|csv [--config <file>] [--workers <int>]

Config-file values are overridden by explicit flags; unknown config keys
are rejected. Exit status is 0 iff every non-skipped check passed, and 2
when the configuration is invalid or the report path cannot be written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InvalidConfig, MalformedFile, OutputUnwritable
from .suites import SUITES, SuiteConfig, run_suite, write_report

# Config-file key -> the JSON types its value may take.
_CONFIG_TYPES = {
    "suite": (str,),
    "seed": (int,),
    "samples": (int,),
    "output_path": (str, type(None)),
    "format": (str,),
    "workers": (int,),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invarkit", description="Run verification suites."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a verification suite")
    run.add_argument("--suite", choices=SUITES, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--samples", type=int, default=None)
    run.add_argument("--out", dest="output_path", default=None)
    run.add_argument("--format", choices=("json", "csv"), default=None)
    run.add_argument("--workers", type=int, default=None)
    run.add_argument("--config", dest="config_file", default=None)
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise MalformedFile(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedFile("config file must hold a JSON object")
    unknown = set(doc) - set(_CONFIG_TYPES)
    if unknown:
        raise MalformedFile(f"unknown config keys: {sorted(unknown)}")
    for key, value in doc.items():
        # bool is an int subclass, but true/false is not a count or a seed
        if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[key]):
            raise MalformedFile(f"config key {key!r} has a wrong-typed value {value!r}")
    return doc


def _probe_output(path: str) -> None:
    """Fail before any work when the report path cannot be opened for writing."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise OutputUnwritable(f"cannot write report: {exc}") from exc
    if not existed:
        os.remove(path)


def parse_config(argv) -> SuiteConfig:
    """Merge config file and flags (flags win) into a validated SuiteConfig."""
    args = _build_parser().parse_args(argv)
    values = _load_config_file(args.config_file) if args.config_file else {}
    for key in _CONFIG_TYPES:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    if "format" in values:
        values["fmt"] = values.pop("format")
    return SuiteConfig(**values)


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
        if config.output_path is not None:
            _probe_output(config.output_path)
        report = run_suite(config)
        write_report(report, config)
    except (InvalidConfig, MalformedFile, OutputUnwritable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for c in report.checks:
        print(
            f"[{c.status.upper():4s}] {c.check_id}: value={c.value:.6g} "
            f"tol={c.tolerance:.6g} ({c.provenance})"
        )
    n_fail = sum(1 for c in report.checks if c.status == "fail")
    n_skip = sum(1 for c in report.checks if c.status == "skip")
    print(
        f"suite={report.suite} seed={report.seed} checks={len(report.checks)} "
        f"failed={n_fail} skipped={n_skip} wall_time={report.wall_time:.2f}s"
    )
    return 0 if n_fail == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
