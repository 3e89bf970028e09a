import json
import multiprocessing
import os
from dataclasses import asdict

import numpy as np
import pytest

from invarkit import cli, suites
from invarkit.cli import main, parse_config
from invarkit.errors import (
    DivergenceDetected,
    InvalidConfig,
    MalformedFile,
    SingularSystem,
)
from invarkit.suites import (
    CheckResult,
    SuiteConfig,
    SuiteReport,
    report_to_csv,
    report_to_json,
    run_suite,
    write_report,
)


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(["run"])
        assert cfg.suite == "all"
        assert cfg.seed == 0
        assert cfg.samples == 100_000
        assert cfg.fmt == "json"
        assert cfg.workers == 1
        assert cfg.output_path is None

    def test_flags(self):
        cfg = parse_config(
            ["run", "--suite", "mex", "--seed", "5", "--samples", "300",
             "--format", "csv", "--workers", "4", "--out", "r.csv"]
        )
        assert cfg == SuiteConfig(
            suite="mex", seed=5, samples=300,
            output_path="r.csv", fmt="csv", workers=4,
        )

    def test_config_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"suite": "ramps", "seed": 11, "workers": 2}))
        cfg = parse_config(["run", "--config", str(p)])
        assert cfg.suite == "ramps" and cfg.seed == 11 and cfg.workers == 2
        assert cfg.samples == 100_000

    def test_flags_override_config_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"suite": "ramps", "seed": 11}))
        cfg = parse_config(["run", "--config", str(p), "--seed", "99"])
        assert cfg.suite == "ramps" and cfg.seed == 99

    def test_unknown_config_keys_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"suite": "mex", "smaples": 10}))
        with pytest.raises(MalformedFile):
            parse_config(["run", "--config", str(p)])

    def test_non_object_config_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("[1, 2, 3]")
        with pytest.raises(MalformedFile):
            parse_config(["run", "--config", str(p)])

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(MalformedFile):
            parse_config(["run", "--config", str(p)])

    def test_unknown_suite_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            parse_config(["run", "--suite", "bogus"])

    def test_unknown_suite_from_config_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"suite": "bogus"}))
        with pytest.raises(InvalidConfig):
            parse_config(["run", "--config", str(p)])

    @pytest.mark.parametrize("suite", ["invariance", "kernels", "hbf", "all"])
    def test_single_sample_rejected_for_monte_carlo_suites(self, suite):
        with pytest.raises(InvalidConfig):
            parse_config(["run", "--suite", suite, "--samples", "1"])

    def test_single_sample_fine_for_deterministic_suites(self):
        cfg = parse_config(["run", "--suite", "mex", "--samples", "1"])
        assert cfg.samples == 1

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_u64_rejected(self, seed):
        with pytest.raises(InvalidConfig):
            parse_config(["run", "--suite", "hvq", "--seed", str(seed)])

    def test_largest_u64_seed_accepted(self):
        assert parse_config(["run", "--seed", str(2**64 - 1)]).seed == 2**64 - 1

    @pytest.mark.parametrize(
        "doc",
        [{"seed": "abc"}, {"seed": "5"}, {"samples": 1.5}, {"workers": True},
         {"suite": 3}, {"format": None}, {"output_path": 7}],
    )
    def test_config_value_of_wrong_type_rejected(self, tmp_path, doc):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(MalformedFile):
            parse_config(["run", "--config", str(p)])


class TestSuiteConfigTypes:
    @pytest.mark.parametrize(
        "field,value",
        [("seed", 1.5), ("seed", True), ("seed", "3"), ("samples", 2.5),
         ("samples", False), ("workers", 1.5), ("workers", True),
         ("seed", np.array(3))],
    )
    def test_non_integer_count_rejected(self, field, value):
        with pytest.raises(InvalidConfig):
            SuiteConfig(suite="ramps", **{field: value})

    def test_numpy_integers_accepted(self):
        cfg = SuiteConfig(seed=np.int64(3), samples=np.int32(10), workers=np.uint8(2))
        assert (cfg.seed, cfg.samples, cfg.workers) == (3, 10, 2)

    def test_float_seed_fails_before_the_run(self):
        with pytest.raises(InvalidConfig):
            run_suite(SuiteConfig(suite="ramps", seed=1.5))

    @pytest.mark.parametrize("kind", ["fd", "path", "bytes"])
    def test_output_path_of_wrong_type_rejected(self, tmp_path, kind):
        target = tmp_path / "report.json"
        r, w = os.pipe()
        value = {"fd": w, "path": target, "bytes": os.fsencode(target)}[kind]
        try:
            with pytest.raises(InvalidConfig):
                cfg = SuiteConfig(suite="hvq", output_path=value)
                write_report(run_suite(cfg), cfg)
            os.fstat(w)  # the pipe is still open, and nothing went into it
            os.set_blocking(r, False)
            with pytest.raises(BlockingIOError):
                os.read(r, 1)
        finally:
            os.close(r)
            os.close(w)
        assert list(tmp_path.iterdir()) == []


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


class TestReports:
    def test_non_finite_values_are_strings(self):
        rows = [
            CheckResult("a", "fail", np.inf, 3.0, "derived"),
            CheckResult("b", "fail", -np.inf, np.inf, "derived"),
            CheckResult("c", "fail", np.nan, 1e-12, "paper"),
            CheckResult("d", "pass", 0.1 + 0.2, 1e-12, "paper"),
        ]
        report = SuiteReport(suite="mex", seed=0, checks=tuple(rows), wall_time=0.5)
        text = report_to_json(report)
        doc = json.loads(text, parse_constant=_reject_constant)
        assert [(r["value"], r["tolerance"]) for r in doc["checks"]] == [
            ("inf", 3.0), ("-inf", "inf"), ("nan", 1e-12), (0.1 + 0.2, 1e-12)
        ]
        # finite rows are written exactly as json.dumps writes them
        finite = json.dumps(asdict(rows[3]), indent=2).replace("\n", "\n    ")
        assert "    " + finite in text

    def test_cli_report_with_infinite_value_is_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["run", "--suite", "kernels", "--samples", "2", "--out", str(out)])
        doc = json.loads(out.read_text(), parse_constant=_reject_constant)
        row = next(r for r in doc["checks"] if r["check_id"] == "kernels.arccos_oracle")
        assert row["value"] == "inf"

    def test_json_schema(self):
        report = run_suite(SuiteConfig(suite="mex", seed=3))
        doc = json.loads(report_to_json(report))
        assert set(doc) == {"suite", "seed", "wall_time", "checks"}
        for row in doc["checks"]:
            assert set(row) == {
                "check_id", "status", "value", "tolerance", "provenance",
            }
            assert row["status"] in ("pass", "fail", "skip")
            assert row["provenance"] in ("paper", "derived", "trivial")

    def test_rows_sorted_by_check_id(self):
        report = run_suite(SuiteConfig(suite="hvq", seed=0))
        ids = [c.check_id for c in report.checks]
        assert ids == sorted(ids)

    def test_csv_header(self):
        report = run_suite(SuiteConfig(suite="hvq", seed=0))
        lines = report_to_csv(report).splitlines()
        assert lines[0] == "check_id,status,value,tolerance,provenance"
        assert len(lines) == len(report.checks) + 1

    def test_same_seed_byte_identical_modulo_wall_time(self):
        def canon(r):
            doc = json.loads(report_to_json(r))
            del doc["wall_time"]
            return json.dumps(doc, sort_keys=True)

        a = run_suite(SuiteConfig(suite="ramps", seed=12))
        b = run_suite(SuiteConfig(suite="ramps", seed=12))
        assert canon(a) == canon(b)

    def test_worker_count_does_not_change_values(self):
        serial = run_suite(SuiteConfig(suite="mex", seed=4, workers=1))
        threaded = run_suite(SuiteConfig(suite="mex", seed=4, workers=8))
        assert [(c.check_id, c.value) for c in serial.checks] == [
            (c.check_id, c.value) for c in threaded.checks
        ]


def _record_pools(monkeypatch):
    """Stub every job and run the pool's tasks inline; returns the pool sizes asked for."""
    for key in suites._JOBS:
        monkeypatch.setitem(suites._JOBS, key, _one_row(key))
    sizes = []

    class InlinePool:
        def __init__(self, max_workers, mp_context=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(suites, "ProcessPoolExecutor", InlinePool)
    return sizes


def _one_row(name):
    return lambda config: [CheckResult(f"{name}.stub", "pass", 0.0, 0.0, "trivial")]


def _diverging(config):
    raise DivergenceDetected("objective blew up in a worker")


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="suites run serially where there is no fork start method",
)
class TestWorkerProcesses:
    def test_pool_is_never_larger_than_the_job_count(self, monkeypatch):
        sizes = _record_pools(monkeypatch)
        report = run_suite(SuiteConfig(suite="all", workers=10**6))
        assert sizes == [len(suites._JOBS)] == [9]
        assert len(report.checks) == 9
        # the hbf suite alone is four jobs
        assert len(run_suite(SuiteConfig(suite="hbf", workers=10**6)).checks) == 4
        assert sizes == [9, 4]

    @pytest.mark.parametrize("suite, workers", [("all", 1), ("mex", 8)])
    def test_one_worker_or_one_suite_starts_no_pool(self, monkeypatch, suite, workers):
        sizes = _record_pools(monkeypatch)
        run_suite(SuiteConfig(suite=suite, workers=workers))
        assert sizes == []

    def test_heavy_jobs_start_first(self):
        assert list(suites._JOBS)[:2] == ["hbf.sin_task", "kernels"]

    def test_worker_error_keeps_its_type_and_leaves_no_process(self, monkeypatch):
        # fork carries the patched registry into the workers
        monkeypatch.setitem(suites._JOBS, "hbf.sin_task", _diverging)
        with pytest.raises(DivergenceDetected, match="blew up in a worker"):
            run_suite(SuiteConfig(suite="all", samples=200, workers=2))
        assert multiprocessing.active_children() == []

    def test_cli_exits_two_on_a_worker_error(self, monkeypatch, capsys):
        monkeypatch.setitem(suites._JOBS, "hbf.sin_task", _diverging)
        argv = ["run", "--suite", "all", "--samples", "200", "--workers", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: objective blew up in a worker" in err
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []

    def test_passing_run_leaves_no_process(self, monkeypatch):
        monkeypatch.setitem(suites._JOBS, "hbf.sin_task", _one_row("hbf"))
        report = run_suite(SuiteConfig(suite="all", samples=200, workers=2))
        assert "hbf.stub" in [c.check_id for c in report.checks]
        assert "mex.not_psd" in [c.check_id for c in report.checks]
        assert multiprocessing.active_children() == []

    def test_hbf_jobs_in_two_workers_give_the_rows_of_one(self, tmp_path):
        rows = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}.json"
            argv = ["run", "--suite", "hbf", "--workers", str(workers)]
            assert main([*argv, "--out", str(out)]) == 0
            rows.append(json.loads(out.read_text())["checks"])
        assert rows[0] == rows[1]
        assert len(rows[0]) == 5


class TestMain:
    def test_passing_suite_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["run", "--suite", "hvq", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["suite"] == "hvq"
        printed = capsys.readouterr().out
        assert "[PASS]" in printed
        assert "failed=0" in printed

    def test_one_line_per_check(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["run", "--suite", "mex", "--out", str(out)])
        doc = json.loads(out.read_text())
        printed = capsys.readouterr().out.splitlines()
        check_lines = [l for l in printed if l.startswith("[")]
        assert len(check_lines) == len(doc["checks"])

    def test_csv_output(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(
            ["run", "--suite", "ramps", "--out", str(out), "--format", "csv"]
        )
        assert code == 0
        assert out.read_text().startswith("check_id,status,value")

    def test_bad_config_exit_two(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"nope": 1}))
        assert main(["run", "--config", str(p)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_samples_exit_two(self, capsys):
        assert main(["run", "--suite", "kernels", "--samples", "0"]) == 2

    def test_two_samples_report_without_traceback(self, capsys):
        # at 2 samples every rectified product of an arccos pair can be 0,
        # which leaves a zero standard error
        assert main(["run", "--suite", "kernels", "--samples", "2"]) in (0, 1)
        captured = capsys.readouterr()
        assert "kernels.arccos_oracle" in captured.out
        assert "Traceback" not in captured.err

    def test_library_error_in_a_suite_exit_two(self, capsys, monkeypatch):
        def singular(config):
            raise SingularSystem("normal equations unsolvable after jitter")

        monkeypatch.setitem(suites._JOBS, "ramps", singular)
        assert main(["run", "--suite", "ramps"]) == 2
        err = capsys.readouterr().err
        assert "error: normal equations unsolvable" in err
        assert "Traceback" not in err

    def test_negative_seed_exit_two(self, capsys):
        assert main(["run", "--suite", "hvq", "--seed", "-1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_integer_config_seed_exit_two(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"suite": "hvq", "seed": "abc"}))
        assert main(["run", "--config", str(p)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_out_exit_two_before_running(
        self, tmp_path, capsys, monkeypatch
    ):
        def must_not_run(config):
            raise AssertionError("suite ran before the output path was checked")

        monkeypatch.setattr(cli, "run_suite", must_not_run)
        out = tmp_path / "missing" / "report.json"
        assert main(["run", "--suite", "hvq", "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_output_probe_leaves_no_file_behind(self, tmp_path, monkeypatch):
        def no_report(config):
            raise RuntimeError("suite failed")

        monkeypatch.setattr(cli, "run_suite", no_report)
        out = tmp_path / "report.json"
        with pytest.raises(RuntimeError):
            main(["run", "--suite", "hvq", "--out", str(out)])
        assert not out.exists()
