"""Ceilings on the work that the kernel, pooling, ramp and HBF primitives do.

Call counts are exact and repeat from run to run, unlike timings on a
shared host, so a change that brings back a per-pair or per-row call
pattern fails here. Counts come from module attributes replaced with
``monkeypatch``; sizes are small so that the file runs in well under a
second. Memory traffic is bounded too, by the peak of the bytes that
``tracemalloc`` traces while a call runs (numpy reports its array buffers
to it), so a change that brings back a temporary array fails as well.
"""

import json
import multiprocessing
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import invarkit
from invarkit import hbf, kernels, pooling, ramps, signals
from invarkit.kernels import TemplateSampler, gram, k0_mc, ktilde_mc
from invarkit.signals import cyclic_group, normalize


def _counter(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    if name in vars(owner):
        monkeypatch.setattr(owner, name, counted)
    else:  # a name that a module __getattr__ serves stays unbound after the test
        monkeypatch.setitem(vars(owner), name, counted)
    return calls


def _points(m, d, seed):
    rng = np.random.default_rng(seed)
    return [normalize(rng.standard_normal(d)) for _ in range(m)]


@pytest.mark.parametrize("group", [None, cyclic_group(4)])
def test_features_calls_per_gram_at_most_one_per_point(monkeypatch, group):
    m = 6
    pts = _points(m, 4, seed=1)
    sampler = TemplateSampler(seed=11)
    TemplateSampler(seed=12).draw(4, 64)  # start from another retained draw
    calls = _counter(monkeypatch, kernels, "features")
    if group is None:
        gram(pts, lambda a, b: k0_mc(a, b, sampler, 64).value)
    else:
        gram(pts, lambda a, b: ktilde_mc(a, b, group, sampler, 64).value)
    assert len(calls) <= m  # pair by pair it was m * m


def test_one_draw_per_features_call(monkeypatch):
    pts = _points(5, 4, seed=2)
    draws = _counter(monkeypatch, TemplateSampler, "draw")
    kernels.features(pts, TemplateSampler(seed=13), 64, cyclic_group(4))
    assert len(draws) == 1


def test_one_layer_forward_per_invariance_gap(monkeypatch):
    d = 6
    t, x = _points(2, d, seed=3)
    layer = pooling.HWLayer((t,), (0.0, 0.2), cyclic_group(d), pooling.PoolingSpec("max"))
    calls = _counter(monkeypatch, pooling, "layer_forward")
    pooling.invariance_gap(x, layer)
    assert len(calls) == 1


@pytest.mark.parametrize("d, per_step", [(1, 0), (2, 2)])
def test_cdist_calls_per_train_step(monkeypatch, d, per_step):
    # at d = 1 the distances are one difference squared; cdist serves d >= 2,
    # at least once a step, so distances that stop calling hbf.cdist fail
    rng = np.random.default_rng(6)
    data = hbf.TrainingSet(rng.standard_normal((30, d)), rng.standard_normal(30))
    model = hbf.HBFModel(rng.standard_normal((4, d)), rng.standard_normal(4), 1.0)
    steps = 5
    cfg = hbf.TrainConfig(omega=1e-4, max_iters=steps, grad_tol=1e-300, resolve_every=0)
    calls = _counter(monkeypatch, hbf, "cdist")
    _, trace = hbf.train(model, data, cfg)
    assert trace.iterations.size == steps
    # one more for the starting objective, when distances take cdist at all
    assert (per_step > 0) * steps <= len(calls) <= per_step * steps + (per_step > 0)


_GRID = 100_000  # step_kernel_numeric's default grid_points
# Python objects a call makes besides its arrays; a tenth of a grid array
_SLACK = 0.1


def _peak_bytes(call) -> int:
    """Peak traced memory while call() runs, above what was traced before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base


def _peak_grid_arrays(call) -> float:
    """Peak traced memory while call() runs, in units of one float grid array."""
    return _peak_bytes(call) / (_GRID * 8)


def test_step_approx_allocates_two_arrays():
    s = np.linspace(-1.0, 1.0, _GRID)
    assert _peak_grid_arrays(lambda: ramps.step_approx(s, 1e4)) <= 2 + _SLACK


def test_step_kernel_numeric_holds_at_most_five_grid_arrays():
    # a first call: the grid, the three-row work block and the spacing
    kernels._grid.cache_clear()
    kernels._spacing.cache_clear()
    peak = _peak_grid_arrays(lambda: kernels.step_kernel_numeric(0.2, -0.3, 1.0))
    assert peak <= 5 + _SLACK


def test_step_kernel_numeric_on_a_kept_grid_holds_its_work_block_alone():
    kernels.step_kernel_numeric(0.1, 0.4, 1.0)  # keeps the grid and its spacing
    peak = _peak_grid_arrays(lambda: kernels.step_kernel_numeric(0.2, -0.3, 1.0))
    assert peak <= 3 + _SLACK


# The kernels suite's step-oracle loop in a fresh interpreter, whose
# allocator starts as a forked suite worker's does: arrays that it maps and
# unmaps on every call would be faulted in again on every call.
_ORACLE_LOOP = """
import resource
import numpy as np
from invarkit import kernels
rng = np.random.default_rng(0)
rng.uniform(-1, 1, (10_000, 2))  # the suite's step-identity draw comes first
pairs = rng.uniform(-1, 1, (100, 2))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for a, b in pairs:
    kernels.step_kernel_numeric(a, b, 1.0, 100_000)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _fresh(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports this invarkit."""
    src = str(Path(invarkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc",
    reason="the ceiling rests on glibc's adaptive mmap and trim thresholds",
)
def test_step_oracle_loop_in_a_fresh_process_takes_few_page_faults():
    assert int(_fresh(_ORACLE_LOOP)) < 10_000  # a grid array is ~200 pages


# scipy.spatial costs ~0.3 s and ~36 MB at import, and only HBF distances at
# d >= 2 use it: each step notes whether it is loaded after the step's calls.
_SCIPY_SPATIAL_STEPS = """
import json, sys
import numpy as np
loaded = {}
def note(step):
    loaded[step] = "scipy.spatial" in sys.modules
import invarkit
note("import invarkit")
from invarkit import hbf, kernels, pooling, ramps, suites, vq
from invarkit.signals import cyclic_group, normalize
rng = np.random.default_rng(0)
x, t = (normalize(rng.standard_normal(8)) for _ in range(2))
layer = pooling.HWLayer((x,), (0.0, 0.2), cyclic_group(8), pooling.PoolingSpec("max"))
e = normalize([1.0, 0.0])
top = pooling.HWLayer((e,), (0.0,), cyclic_group(2), pooling.PoolingSpec("mean"))
pooling.layer_forward(x, layer)
pooling.network_forward(x, pooling.HWNetwork((layer, top)))
pooling.invariance_gap(x, layer)
note("pooling")
sampler = kernels.TemplateSampler(seed=1)
kernels.gram([x, t], lambda a, b: kernels.k0_mc(a, b, sampler, 64).value)
G = cyclic_group(8)
kernels.gram([x, t], lambda a, b: kernels.ktilde_mc(a, b, G, sampler, 64).value)
note("kernels")
ramps.fit_ramp_combination(abs, (-1.0, 1.0, 40), 4)
family = vq.two_part_family(2)
vq.classify(vq.build_hvq(family), family.pattern(0))
note("ramps and vq")
suites.sin_task_benchmark()
note("sin task")
for suite in ("kernels", "mex", "invariance", "ramps", "hvq"):
    suites.run_suite(suites.SuiteConfig(suite, samples=2000))
    note(f"{suite} suite")
hbf.median_pairwise_distance([[0.0], [1.0], [3.0]])
note("median distance at d = 1")
model = hbf.HBFModel(np.zeros((2, 2)), np.ones(2), 1.0)
hbf.objective(model, hbf.TrainingSet(rng.standard_normal((3, 2)), np.zeros(3)))
note("objective at d = 2")
print(json.dumps(loaded))
print("cdist" in vars(hbf))
"""


def test_scipy_spatial_loads_at_the_first_distance_at_d_2_alone():
    steps, bound = _fresh(_SCIPY_SPATIAL_STEPS).splitlines()
    loaded = json.loads(steps)
    assert len(loaded) == 12
    assert loaded == {step: step == "objective at d = 2" for step in loaded}
    # not cached as a binding: a tracer installed later sees what one before did
    assert bound == "False"


_PROBED_SUITES = """
import sys
from invarkit import suites
def probe(cfg):
    loaded = "scipy.spatial" in sys.modules
    return [suites.CheckResult("probe", "pass" if loaded else "fail", 0.0, 0.0, "trivial")]
print("scipy.spatial" in sys.modules)
suites._JOBS = {"probe": probe, "probe.again": probe}
report = suites.run_suite(suites.SuiteConfig("all", workers=2))
print(*(c.status for c in report.checks))
"""


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="without fork the jobs run in the calling process",
)
def test_forked_jobs_start_with_scipy_spatial_loaded():
    # the parent imports it once, so that no worker imports it again
    before, statuses = _fresh(_PROBED_SUITES).splitlines()
    assert before == "False"
    assert statuses == "pass pass"


def test_single_signal_forward_makes_no_orbit_gather():
    # the layer's orbit stack is built with it; a forward gathers no g t
    d = 128
    rng = np.random.default_rng(4)
    temps = [normalize(rng.standard_normal(d)) for _ in range(4)]
    layer = pooling.HWLayer(temps, (0.0, 0.2), cyclic_group(d), pooling.PoolingSpec("max"))
    x = normalize(rng.standard_normal(d))
    gather = d * d * 8  # bytes of one template's (|G|, d) orbit block
    assert _peak_bytes(lambda: pooling.layer_forward(x, layer)) <= gather / 4


@pytest.mark.parametrize("make", ["apply", "normalize"])
def test_new_signal_holds_one_array(make):
    # the array the function makes is the Signal's own; it is not copied again
    d = 100_000
    x = normalize(np.random.default_rng(6).standard_normal(d))
    g = np.roll(np.arange(d), 1)
    raw = 2.0 * x.values
    call = {"apply": lambda: signals.apply(g, x), "normalize": lambda: normalize(raw)}
    assert _peak_bytes(call[make]) / (d * 8) <= 1 + _SLACK


def test_estimate_allocates_no_sample_sized_array():
    products = np.random.default_rng(5).standard_normal(_GRID)
    # np.std allocates the S deviations; the estimate forms them in place
    assert _peak_bytes(lambda: kernels._estimate(products)) / (_GRID * 8) <= _SLACK


def test_gram_retains_one_row_per_point():
    # a row kept beside a kept row is a copy, not a view holding its pair's array
    m, S = 8, 4096
    pts = _points(m, 4, seed=7)
    sampler = TemplateSampler(seed=14)
    sampler.draw(4, S)  # the draw is retained before the baseline
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gram(pts, lambda a, b: k0_mc(a, b, sampler, S).value)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert kept <= 1.1 * m * S * 8

