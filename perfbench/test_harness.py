"""Fast checks of the benchmark harness: op checks, span self time, exact counts."""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import measure
import run
import tracing
import workloads
from invarkit import hbf

ROOT = Path(__file__).resolve().parents[1]


def _fit_inputs():
    return workloads.fit_inputs(0, **workloads.FIT_SMALL)


def _feature_inputs():
    return workloads.feature_inputs(0, **workloads.FEATURE_SMALL)


def _fit_small():
    return workloads.fit_op(_fit_inputs())


def _features_small():
    return workloads.feature_op(_feature_inputs())


def _verify_output():
    rows = [
        {"check_id": f"c{i:02d}", "status": "pass", "value": 0.5 * i,
         "tolerance": 1.0, "provenance": "derived"}
        for i in range(workloads.VERIFY_CHECKS)
    ]
    return 0, rows


def _one_op(workload_name, inputs, output):
    """run_loop over a single operation that returns ``output``."""
    real = workloads.WORKLOADS[workload_name]
    fake = workloads.Workload(real.name, None, lambda _: output, real.check, None)
    times, check, _ = measure.run_loop(fake, inputs, 0.0)
    assert len(times) == check.attempted == 1
    return check.failed


def _scale_coeffs(o):
    o["coeffs"] = 10.0 * o["coeffs"]


@pytest.mark.parametrize("name, make_inputs, op, corrupt", [
    ("hbf_fit", _fit_inputs, workloads.fit_op, _scale_coeffs),
    ("invariant_features", _feature_inputs, workloads.feature_op,
     lambda o: o.__setitem__("gap.mex", 1e-9)),
    ("invariant_features", _feature_inputs, workloads.feature_op,
     lambda o: o.__setitem__("k0_psd", False)),
    ("verify", lambda: None, lambda _: _verify_output(),
     lambda o: o[1][7].__setitem__("status", "fail")),
])
def test_loop_counts_corrupted_output_as_failed(name, make_inputs, op, corrupt):
    inputs = make_inputs()
    good = op(inputs)
    assert _one_op(name, inputs, good) == 0
    bad = copy.deepcopy(good)
    corrupt(bad)
    assert _one_op(name, inputs, bad) == 1


@pytest.mark.parametrize("name, make_inputs, op, path", [
    ("hbf_fit", _fit_inputs, workloads.fit_op, ("coeffs", 0)),
    ("invariant_features", _feature_inputs, workloads.feature_op, ("ktilde_gram", 0)),
])
def test_check_rejects_output_that_differs_from_the_first(name, make_inputs, op, path):
    check = workloads.WORKLOADS[name].check
    inputs = make_inputs()
    first = op(inputs)
    again = op(inputs)
    assert check(inputs, again, first)
    key, index = path
    again[key].flat[index] = np.nextafter(again[key].flat[index], np.inf)
    assert not check(inputs, again, first)


def test_verify_check_rejects_changed_value_and_exit_status():
    first = _verify_output()
    assert workloads.verify_check(None, first, None)
    status, rows = copy.deepcopy(first)
    rows[3]["value"] += 1e-15
    assert not workloads.verify_check(None, (status, rows), first)
    assert not workloads.verify_check(None, (1, first[1]), None)
    assert not workloads.verify_check(None, (0, first[1][:-1]), None)


def _traced(fn):
    rec = tracing.Recorder()
    undo = tracing.install(rec, [sys.modules[m] for m in tracing.MODULES])
    try:
        rec.begin_op()
        fn()
        return rec, rec.end_op()
    finally:
        undo()


def test_self_times_sum_to_the_root_span_and_calls_nest():
    inputs = workloads.fit_inputs(1, **workloads.FIT_SMALL)
    start = hbf.HBFModel(centers=inputs.data.inputs[:3], coeffs=np.zeros(3), sigma=1.0)
    rec, prof = _traced(lambda: hbf.train(start, inputs.data, inputs.config))

    assert prof.calls["hbf.train"] == 1
    assert sum(prof.self_s.values()) == pytest.approx(prof.incl_s["hbf.train"], rel=1e-9)
    assert all(v >= 0 for v in prof.self_s.values())

    (buf,) = rec.buffers
    name = np.frombuffer(buf.name, dtype=np.int32)
    parent = np.frombuffer(buf.parent, dtype=np.int32)
    span = {n: i for i, n in enumerate(rec.names)}
    radial = np.flatnonzero(name == span["hbf.radial_basis"])
    parents = {rec.names[name[parent[i]]] for i in radial}
    assert "hbf.grad_centers" in parents
    assert "hbf.radial_basis_deriv" in parents
    assert parent[np.flatnonzero(name == span["hbf.grad_centers"])[0]] == 0


def test_uninstall_restores_every_binding():
    import invarkit
    from invarkit import kernels, pooling, suites

    before = (hbf.cdist, kernels.mex, suites.apply, invarkit.layer_forward,
              kernels.TemplateSampler.draw)
    rec, _ = _traced(lambda: None)
    names = list(rec.names)
    undo = tracing.install(rec, [sys.modules[m] for m in tracing.MODULES])
    undo()
    assert rec.names == names  # a second install reuses the span names
    after = (hbf.cdist, kernels.mex, suites.apply, invarkit.layer_forward,
             kernels.TemplateSampler.draw)
    assert after == before
    assert hbf.cdist is cdist and kernels.mex is pooling.mex


def test_exact_counts_repeat_across_traced_runs():
    def counts():
        def op():
            _fit_small()
            _features_small()

        _, prof = _traced(op)
        m = measure.layer_metrics([prof], [0.0], [])
        return {k: m[k]["value"] for k in (
            "hbf.train.iters", "hbf.cdist.per_iter", "pooling.pool.per_forward",
            "kernels.draw.rows", "kernels.draw.calls", "signals.apply.calls",
        )}

    first, second = counts(), counts()
    assert first == second
    assert first["hbf.train.iters"] == workloads.FIT_SMALL["iters"]
    assert first["pooling.pool.per_forward"] == 4  # 2 templates x 2 biases
    assert first["kernels.draw.rows"] > 0


def test_traced_loop_traces_only_the_traced_operation():
    workload = workloads.WORKLOADS["hbf_fit"]
    profiles, overheads, suite_rounds, check, rec = measure.traced_loop(
        workload, _fit_inputs(), 0.0, 0)
    assert len(profiles) == len(overheads) == 1 and suite_rounds == []
    assert (check.attempted, check.failed) == (2, 0)
    assert profiles[0].calls["hbf.train"] == 1
    # Every recorded span belongs to the traced operation: the untraced one
    # and the checks ran unwrapped.
    in_ops = sum(hi - lo for ranges in rec.ops for lo, hi in ranges.values())
    assert in_ops == sum(len(b) for b in rec.buffers) > 0
    assert hbf.cdist is cdist


def test_benchmark_json_lists_the_metrics_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == measure.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == measure.PER_LAYER
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
