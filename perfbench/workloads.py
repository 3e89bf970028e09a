"""The benchmark's workloads: inputs made from a seed, one operation, its check.

Each workload runs as a closed loop with one client: the next operation
starts only after the previous one has finished. The program sees only
the inputs built here; for ``verify`` that is the command line, with the
workload seed as its ``--seed``.

Why these three:

* ``verify`` is the command-line user's time to a verified report. The
  ``hbf`` suite (a small sin task where Python overhead dominates) takes
  most of it, single-pair kernel estimates most of the rest, and it is
  the only workload that exercises suite scheduling and report writing.
* ``invariant_features`` is how a library user drives ``pooling`` and
  ``kernels`` in bulk, in two halves of similar cost. ``hbf`` and
  ``suites`` do no work here, so a change to them should leave it unmoved.
* ``hbf_fit`` is a moving-center fit where array work dominates (2000
  examples and 40 centers, against 200 and 10 on the sin task), so a
  change that trims Python overhead but adds array passes or memory
  shows up here.

A check gets the inputs, the operation's output and the first
operation's output (``None`` for the first operation) and says whether
the output is correct. It runs outside the operation's timing.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from invarkit import cli, hbf, kernels, pooling, signals

# Bound on |estimate - closed form| / stderr, as in the kernels.arccos_oracle check.
ARCCOS_Z_BOUND = 3.0
GAP_BOUND = 1e-12
VERIFY_CHECKS = 42


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable  # (seed, workdir, **sizes) -> inputs
    op: Callable  # inputs -> output
    check: Callable  # (inputs, output, reference or None) -> bool
    warm_up: Callable  # (seed, workdir) -> None; first-call costs only


# ---------------------------------------------------------------------------
# verify: one `invarkit run --suite all` through the in-process CLI entry


def verify_inputs(seed, workdir, suite="all", samples=100_000, workers=2):
    out = Path(workdir) / "verify-report.json"
    return [
        "run", "--suite", suite, "--seed", str(seed), "--samples", str(samples),
        "--workers", str(workers), "--out", str(out),
    ]


def verify_op(argv):
    """Exit status and report rows of one CLI run; its printout is kept off stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    with open(argv[argv.index("--out") + 1]) as f:
        return status, json.load(f)["checks"]


def verify_check(argv, output, reference) -> bool:
    status, rows = output
    if status != 0 or len(rows) != VERIFY_CHECKS:
        return False
    if any(row["status"] != "pass" for row in rows):
        return False
    return reference is None or rows == reference[1]


def verify_warm_up(seed, workdir):
    verify_op(verify_inputs(seed, workdir, suite="hvq"))


# ---------------------------------------------------------------------------
# invariant_features: pooled signatures and group-averaged kernel Grams


@dataclass(frozen=True)
class FeatureInputs:
    layers: dict  # pooling kind -> HWLayer, all on the same templates
    network: pooling.HWNetwork
    signals: tuple
    kernel_signals: tuple
    kernel_group: signals.FiniteGroup
    sampler: kernels.TemplateSampler
    samples: int
    k0_points: int
    oracle_pairs: tuple  # (x, y, sampler) triples
    oracle_samples: int


def _unit_vectors(rng, count, d):
    return tuple(signals.normalize(rng.standard_normal(d)) for _ in range(count))


def feature_inputs(
    seed, workdir=None, d=64, templates=16, biases=8, batch=16,
    kernel_points=16, kernel_dim=8, samples=20_000, k0_points=8,
    oracle_pairs=8, oracle_samples=100_000,
):
    rng = np.random.default_rng(seed)
    group = signals.cyclic_group(d)
    temps = _unit_vectors(rng, templates, d)
    bias = tuple(np.linspace(-0.2, 0.2, biases))
    specs = {
        "mex": pooling.PoolingSpec("mex", xi=2.0),
        "max": pooling.PoolingSpec("max"),
        "softmax": pooling.PoolingSpec("softmax", n=3),
    }
    layers = {k: pooling.HWLayer(temps, bias, group, s) for k, s in specs.items()}
    width = templates * biases
    second = pooling.HWLayer(
        _unit_vectors(rng, templates, width), bias, signals.cyclic_group(width),
        specs["mex"],
    )
    # The z-test is statistical: at 3 standard errors about one pair in 370
    # fails by chance. The oracle pairs therefore come from a fixed stream,
    # not from the workload seed, so that no seed is wrong by chance alone.
    fixed = np.random.default_rng(2015)
    pairs = tuple(
        (*_unit_vectors(fixed, 2, 3), kernels.TemplateSampler(seed=i))
        for i in range(oracle_pairs)
    )
    return FeatureInputs(
        layers=layers,
        network=pooling.HWNetwork((layers["mex"], second)),
        signals=_unit_vectors(rng, batch, d),
        kernel_signals=_unit_vectors(rng, kernel_points, kernel_dim),
        kernel_group=signals.cyclic_group(kernel_dim),
        sampler=kernels.TemplateSampler(seed=seed),
        samples=samples,
        k0_points=k0_points,
        oracle_pairs=pairs,
        oracle_samples=oracle_samples,
    )


def feature_op(inp: FeatureInputs) -> dict:
    out = {}
    for kind, layer in inp.layers.items():
        out[f"sig.{kind}"] = np.stack(
            [pooling.layer_forward(x, layer) for x in inp.signals]
        )
    out["network"] = np.stack(
        [pooling.network_forward(x, inp.network) for x in inp.signals]
    )
    for kind, layer in inp.layers.items():
        out[f"gap.{kind}"] = pooling.invariance_gap(inp.signals[0], layer)

    G, sampler, S = inp.kernel_group, inp.sampler, inp.samples
    out["ktilde_gram"] = kernels.gram(
        inp.kernel_signals, lambda a, b: kernels.ktilde_mc(a, b, G, sampler, S).value
    ).matrix
    k0 = kernels.gram(
        inp.kernel_signals[: inp.k0_points],
        lambda a, b: kernels.k0_mc(a, b, sampler, S).value,
    )
    out["k0_gram"] = k0.matrix
    out["k0_psd"] = k0.psd_pass
    z = []
    for x, y, pair_sampler in inp.oracle_pairs:
        est = kernels.k0_mc(x, y, pair_sampler, inp.oracle_samples)
        exact = kernels.arccos1_kernel(np.append(x.values, 1.0), np.append(y.values, 1.0))
        z.append(abs(est.value - exact) / est.stderr)
    out["arccos_z"] = np.asarray(z)
    return out


def feature_check(inp: FeatureInputs, output, reference) -> bool:
    gaps = [v for k, v in output.items() if k.startswith("gap.")]
    if not gaps or max(gaps) > GAP_BOUND or not output["k0_psd"]:
        return False
    if np.max(output["arccos_z"]) > ARCCOS_Z_BOUND:
        return False
    return reference is None or _same(output, reference)


def feature_warm_up(seed, workdir):
    feature_op(feature_inputs(seed, **FEATURE_WARM))


FEATURE_SMALL = dict(
    d=8, templates=2, biases=2, batch=2, kernel_points=3, samples=200,
    k0_points=3, oracle_pairs=2, oracle_samples=2000,
)
# Few items at the full array sizes, so that the allocator has settled.
FEATURE_WARM = dict(FEATURE_SMALL, samples=20_000, oracle_samples=100_000)


# ---------------------------------------------------------------------------
# hbf_fit: k-means centers, a coefficient solve, then joint training


@dataclass(frozen=True)
class FitInputs:
    data: hbf.TrainingSet
    n: int
    sigma: float
    seed: int
    config: hbf.TrainConfig


def fit_inputs(seed, workdir=None, N=2000, n=40, iters=500, resolve_every=50):
    """2-D regression of sin(0.7 u) cos(0.7 v) on [-4, 4]^2 with sigma = 1.

    omega = 1e-4 keeps every step descending on this task; the tolerance
    is below any gradient reached, so every fit runs all ``iters`` steps.
    """
    rng = np.random.default_rng(seed)
    X = rng.uniform(-4.0, 4.0, (N, 2))
    y = np.sin(0.7 * X[:, 0]) * np.cos(0.7 * X[:, 1])
    config = hbf.TrainConfig(
        omega=1e-4, max_iters=iters, grad_tol=1e-12, seed=seed,
        resolve_every=resolve_every,
    )
    return FitInputs(hbf.TrainingSet(X, y), n, 1.0, seed, config)


def fit_op(inp: FitInputs):
    centers = hbf.init_centers(inp.data, inp.n, seed=inp.seed)
    start = hbf.HBFModel(centers=centers, coeffs=np.zeros(inp.n), sigma=inp.sigma)
    start = hbf.HBFModel(
        centers=centers,
        coeffs=hbf.solve_coeffs(start, inp.data).coeffs,
        sigma=inp.sigma,
    )
    model, trace = hbf.train(start, inp.data, inp.config)
    return {
        "centers": model.centers,
        "coeffs": model.coeffs,
        "objectives": trace.objectives,
    }


def fit_check(inp: FitInputs, output, reference) -> bool:
    # objectives[0] is the objective of the freshly solved start model; the
    # trace holds none for the model that train returns, so it is computed here.
    model = hbf.HBFModel(centers=output["centers"], coeffs=output["coeffs"],
                         sigma=inp.sigma)
    if not hbf.objective(model, inp.data) <= output["objectives"][0]:
        return False
    return reference is None or _same(output, reference)


def fit_warm_up(seed, workdir):
    fit_op(fit_inputs(seed, **FIT_WARM))


FIT_SMALL = dict(N=100, n=5, iters=20, resolve_every=5)
# A few steps at the full array sizes, so that the allocator has settled.
FIT_WARM = dict(iters=5, resolve_every=5)


def _same(a: dict, b: dict) -> bool:
    """Bit-for-bit equality of two outputs of one workload."""
    return a.keys() == b.keys() and all(
        np.array_equal(a[k], b[k]) for k in a
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify", verify_inputs, verify_op, verify_check, verify_warm_up),
        Workload("invariant_features", feature_inputs, feature_op, feature_check,
                 feature_warm_up),
        Workload("hbf_fit", fit_inputs, fit_op, fit_check, fit_warm_up),
    )
}
