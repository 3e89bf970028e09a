"""Named verification suites with machine-readable reports.

Each check computes a measured value, compares it against a tolerance, and
records the provenance of its expected value (paper / derived / trivial).
Checks are pure functions of (seed, samples), so reports are reproducible
across runs and worker counts; rows are always sorted by check id.
"""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import hbf, kernels, pooling, ramps, vq
from .errors import InvalidConfig, OutputUnwritable
from .signals import apply, cyclic_group, normalize, orbit

SUITES = ("invariance", "kernels", "mex", "ramps", "hbf", "hvq", "all")
_MC_SUITES = ("invariance", "kernels", "hbf", "all")

PROV_PAPER = "paper"
PROV_DERIVED = "derived"
PROV_TRIVIAL = "trivial"


@dataclass(frozen=True)
class SuiteConfig:
    suite: str = "all"
    seed: int = 0
    samples: int = 100_000
    output_path: str | None = None
    fmt: str = "json"
    workers: int = 1

    def __post_init__(self):
        if self.suite not in SUITES:
            raise InvalidConfig(f"unknown suite {self.suite!r}")
        if self.fmt not in ("json", "csv"):
            raise InvalidConfig(f"unknown format {self.fmt!r}")
        if not 0 <= self.seed < 2**64:
            raise InvalidConfig(f"seed {self.seed} is outside [0, 2**64)")
        if self.suite in _MC_SUITES and self.samples < 2:
            raise InvalidConfig("Monte-Carlo suites need samples >= 2")
        if self.workers < 1:
            raise InvalidConfig("workers must be >= 1")


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str  # pass | fail | skip
    value: float
    tolerance: float
    provenance: str


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    checks: tuple
    wall_time: float

    @property
    def all_passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


def _check(check_id, value, tolerance, provenance, ok=None):
    if ok is None:
        ok = value <= tolerance
    return CheckResult(
        check_id=check_id,
        status="pass" if ok else "fail",
        value=float(value),
        tolerance=float(tolerance),
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# mex suite


def _mex_checks(cfg: SuiteConfig):
    v = [1.0, 2.0, 3.0, 4.0]
    out = [
        _check(
            "mex.limit_max",
            abs(pooling.mex(v, 100.0) - 4.0),
            0.05,
            PROV_PAPER,
        ),
        _check(
            "mex.limit_mean",
            abs(pooling.mex(v, 1e-6) - 2.5),
            1e-4,
            PROV_PAPER,
        ),
        _check(
            "mex.limit_min",
            abs(pooling.mex(v, -100.0) - 1.0),
            0.05,
            PROV_PAPER,
        ),
    ]
    # monotone in xi over a deterministic grid
    xis = np.linspace(-30, 30, 61)
    vals = [pooling.mex(v, xi) for xi in xis]
    worst = max(
        (a - b) for a, b in zip(vals, vals[1:])
    )  # positive only if decreasing somewhere
    out.append(_check("mex.monotone_in_xi", max(worst, 0.0), 1e-12, PROV_TRIVIAL))
    scan = kernels.mex_npsd_scan(max_instances=1000, seed=cfg.seed)
    out.append(
        _check(
            "mex.not_psd",
            scan.min_eigenvalue,
            -1e-6,
            PROV_PAPER,
            ok=scan.found,
        )
    )
    return out


# ---------------------------------------------------------------------------
# invariance suite


def _invariance_checks(cfg: SuiteConfig):
    out = []
    rng = np.random.default_rng(cfg.seed)
    specs = [
        pooling.PoolingSpec("sum"),
        pooling.PoolingSpec("max"),
        pooling.PoolingSpec("mean"),
        pooling.PoolingSpec("softmax", n=3),
        pooling.PoolingSpec("mex", xi=2.0),
    ]
    for d in (2, 4, 8):
        G = cyclic_group(d)
        x = normalize(rng.standard_normal(d))
        x2 = normalize(rng.standard_normal(d))
        sampler = kernels.TemplateSampler(seed=cfg.seed + d)
        S = min(cfg.samples, 5000)
        base = kernels.ktilde_mc(x, x2, G, sampler, S).value
        gap = max(
            abs(kernels.ktilde_mc(apply(g, x), x2, G, sampler, S).value - base)
            for g in G
        )
        out.append(_check(f"invariance.ktilde_d{d}", gap, 1e-10, PROV_PAPER))
        t = normalize(rng.standard_normal(d))
        for spec in specs:
            layer = pooling.HWLayer(
                templates=(t,), biases=(0.0, 0.3), group=G, pooling=spec
            )
            out.append(
                _check(
                    f"invariance.layer_d{d}_{spec.kind}",
                    pooling.invariance_gap(x, layer),
                    1e-12,
                    PROV_PAPER,
                )
            )
    return out


# ---------------------------------------------------------------------------
# kernels suite


def _kernels_checks(cfg: SuiteConfig):
    out = []
    rng = np.random.default_rng(cfg.seed)

    # closed form vs algebraic identity
    worst = 0.0
    for _ in range(10_000):
        a, b = rng.uniform(-1, 1, 2)
        lhs = kernels.step_kernel_exact(a, b, 1.0)
        rhs = 1.0 - 0.5 * (a + b + abs(a - b))
        worst = max(worst, abs(lhs - rhs))
    out.append(_check("kernels.step_identity", worst, 1e-12, PROV_PAPER))

    # closed form vs trapezoid oracle
    worst = 0.0
    for _ in range(100):
        a, b = rng.uniform(-1, 1, 2)
        worst = max(
            worst,
            abs(
                kernels.step_kernel_exact(a, b, 1.0)
                - kernels.step_kernel_numeric(a, b, 1.0, 100_000)
            ),
        )
    out.append(_check("kernels.step_numeric_oracle", worst, 1e-3, PROV_DERIVED))

    # arc-cosine closed form under Gaussian laws
    S = max(cfg.samples, 2)
    worst_z = 0.0
    for i in range(20):
        x = normalize(rng.standard_normal(3))
        y = normalize(rng.standard_normal(3))
        est = kernels.k0_mc(x, y, kernels.TemplateSampler(seed=cfg.seed + i), S)
        exact = kernels.arccos1_kernel(
            np.append(x.values, 1.0), np.append(y.values, 1.0)
        )
        worst_z = max(worst_z, abs(est.value - exact) / est.stderr)
    out.append(_check("kernels.arccos_oracle", worst_z, 3.0, PROV_DERIVED))

    # selectivity margin on one-hot vs all-ones orbits in d=4
    G = cyclic_group(4)
    onehot = normalize(np.array([1.0, 0.0, 0.0, 0.0]))
    ones = normalize(np.ones(4))
    orbits = [orbit(G, onehot), orbit(G, ones)]

    def step_ktilde(a, b):
        return kernels.ktilde_step(a, b, [onehot, ones], [0.5, 0.5], G, 1.0)

    rep = kernels.selectivity_scan(orbits, step_ktilde)
    out.append(
        _check(
            "kernels.selectivity_margin",
            rep.margin,
            1e-3,
            PROV_DERIVED,
            ok=rep.margin >= 1e-3,
        )
    )

    # random-feature Gram is PSD under a shared sample stream
    pts = [normalize(rng.standard_normal(4)) for _ in range(5)]
    sampler = kernels.TemplateSampler(seed=cfg.seed)
    S2 = min(cfg.samples, 20_000)

    def k0_shared(a, b):
        return kernels.k0_mc(a, b, sampler, S2).value

    grep = kernels.gram(pts, k0_shared)
    out.append(
        _check(
            "kernels.random_feature_gram_psd",
            grep.min_eigenvalue,
            0.0,
            PROV_TRIVIAL,
            ok=grep.psd_pass,
        )
    )
    return out


# ---------------------------------------------------------------------------
# ramps suite


def _ramps_checks(cfg: SuiteConfig):
    rng = np.random.default_rng(cfg.seed)
    out = []
    s = rng.uniform(-1e3, 1e3, 100_000)
    worst = float(np.max(np.abs(ramps.abs_identity(s) - np.abs(s))))
    out.append(_check("ramps.abs_identity", worst, 0.0, PROV_PAPER, ok=worst == 0.0))

    peak = abs(ramps.hat_via_ramps(0.0, 1.0) - 1.0)
    edges = max(abs(ramps.hat_via_ramps(1.0, 1.0)), abs(ramps.hat_via_ramps(-1.0, 1.0)))
    out.append(_check("ramps.hat_peak", peak, 0.0, PROV_TRIVIAL, ok=peak == 0.0))
    out.append(_check("ramps.hat_edges", edges, 0.0, PROV_TRIVIAL, ok=edges == 0.0))

    _, err = ramps.fit_ramp_combination(
        lambda t: float(np.exp(-(t**2) / 2.0)), (-3.0, 3.0, 601), 20
    )
    out.append(_check("ramps.gaussian_fit_k20", err, 0.05, PROV_DERIVED))
    return out


# ---------------------------------------------------------------------------
# hbf suite


def _hbf_checks(cfg: SuiteConfig):
    out = []

    # analytic gradients vs central finite differences
    worst = 0.0
    for s in range(100):
        r = np.random.default_rng(cfg.seed * 1000 + s)
        n, d, N = int(r.integers(1, 6)), int(r.integers(1, 4)), int(r.integers(2, 21))
        model = hbf.HBFModel(
            centers=r.standard_normal((n, d)),
            coeffs=r.standard_normal(n),
            sigma=0.5 + r.random(),
        )
        data = hbf.TrainingSet(
            inputs=r.standard_normal((N, d)), targets=r.standard_normal(N)
        )
        worst = max(worst, _gradient_fd_error(model, data))
    out.append(_check("hbf.gradient_fd", worst, 1e-5, PROV_DERIVED))

    # interpolation recovery, n = N = 20, d = 2
    r = np.random.default_rng(cfg.seed + 1)
    X = r.standard_normal((20, 2))
    y = r.standard_normal(20)
    data = hbf.TrainingSet(X, y)
    model = hbf.HBFModel(
        centers=X.copy(),
        coeffs=np.zeros(20),
        sigma=0.5 * hbf.median_pairwise_distance(X),
        lam=1e-12,
    )
    sr = hbf.solve_coeffs(model, data)
    out.append(_check("hbf.interpolation", sr.max_residual, 1e-6, PROV_PAPER))

    # moving centers beat the fixed-center baseline on the sin task
    moving, fixed, fp = sin_task_benchmark(seed=7)
    out.append(
        _check(
            "hbf.moving_centers_benefit",
            moving - fixed,
            0.0,
            PROV_DERIVED,
            ok=moving < fixed,
        )
    )
    out.append(_check("hbf.center_fixed_point", fp, 1e-6, PROV_DERIVED))

    cap = hbf.check_capacity(100, 5, 3)
    out.append(
        _check("hbf.capacity_rule", cap.ratio, 5.0, PROV_PAPER, ok=cap.ok)
    )
    return out


def _gradient_fd_error(model, data) -> float:
    """Sup-norm relative error between analytic and central-difference gradients."""
    gc = hbf.grad_coeffs(model, data)
    gt = hbf.grad_centers(model, data)

    def obj(c, t):
        return hbf.objective(
            hbf.HBFModel(centers=t, coeffs=c, sigma=model.sigma, lam=model.lam), data
        )

    fd_c = np.empty_like(gc)
    for a in range(model.n):
        h = 1e-6 * max(1.0, abs(model.coeffs[a]))
        cp, cm = model.coeffs.copy(), model.coeffs.copy()
        cp[a] += h
        cm[a] -= h
        fd_c[a] = (obj(cp, model.centers) - obj(cm, model.centers)) / (2 * h)
    fd_t = np.empty_like(gt)
    for a in range(model.n):
        for j in range(model.d):
            h = 1e-6 * max(1.0, abs(model.centers[a, j]))
            tp, tm = model.centers.copy(), model.centers.copy()
            tp[a, j] += h
            tm[a, j] -= h
            fd_t[a, j] = (obj(model.coeffs, tp) - obj(model.coeffs, tm)) / (2 * h)

    err_c = np.max(np.abs(fd_c - gc)) / max(np.max(np.abs(fd_c)), 1.0)
    err_t = np.max(np.abs(fd_t - gt)) / max(np.max(np.abs(fd_t)), 1.0)
    return float(max(err_c, err_t))


def sin_task_benchmark(seed: int = 7):
    """Seeded 1-D sin regression: moving vs fixed centers, then stationarity.

    Returns (moving_objective, fixed_objective, fixed_point_residual). The
    joint arms follow the reference setup (N=200, n=10, sigma=0.5,
    omega=1e-3, 5000 iterations). The stationarity arm then refines the
    centers alone to grad_tol 1e-10; with the Gaussian profile the
    weighted-mean center identity degenerates (0/0) at joint optima, since
    its denominator is proportional to the coefficient gradient.
    """
    N, n = 200, 10
    X = np.linspace(0.0, 2.0 * np.pi, N)[:, None]
    y = np.sin(X).ravel()
    data = hbf.TrainingSet(X, y)
    centers = hbf.init_centers(data, n, seed=seed)
    start = hbf.HBFModel(centers=centers, coeffs=np.zeros(n), sigma=0.5)
    start = hbf.HBFModel(
        centers=centers,
        coeffs=hbf.solve_coeffs(start, data).coeffs,
        sigma=0.5,
    )
    cfg_moving = hbf.TrainConfig(
        omega=1e-3, max_iters=5000, grad_tol=1e-12, seed=seed
    )
    cfg_fixed = hbf.TrainConfig(
        omega=1e-3, max_iters=5000, grad_tol=1e-12, seed=seed, update_centers=False
    )
    moved, trace_m = hbf.train(start, data, cfg_moving)
    _, trace_f = hbf.train(start, data, cfg_fixed)

    refined, _ = hbf.train(
        moved,
        data,
        hbf.TrainConfig(
            omega=3e-3,
            max_iters=200_000,
            grad_tol=1e-10,
            seed=seed,
            update_coeffs=False,
        ),
    )
    fp = hbf.center_fixed_point_residual(refined, data)
    return (
        float(trace_m.objectives[-1]),
        float(trace_f.objectives[-1]),
        fp.residual,
    )


# ---------------------------------------------------------------------------
# hvq suite


def _hvq_checks(cfg: SuiteConfig):
    out = []
    fam16 = vq.two_part_family(8)  # N = 16
    vq16 = vq.memory_cost(vq.build_vq(fam16))
    hvq16 = vq.memory_cost(vq.build_hvq(fam16))
    out.append(
        _check("hvq.cost_n16_vq", float(vq16), 64.0, PROV_PAPER, ok=vq16 == 64)
    )
    out.append(
        _check("hvq.cost_n16_hvq", float(hvq16), 24.0, PROV_PAPER, ok=hvq16 == 24)
    )

    formulas_ok = all(
        vq.memory_cost(vq.build_vq(vq.two_part_family(N // 2))) == 4 * N
        and vq.memory_cost(vq.build_hvq(vq.two_part_family(N // 2))) == N + 8
        for N in range(2, 65, 2)
    )
    out.append(
        _check("hvq.cost_formulas", 0.0 if formulas_ok else 1.0, 0.0, PROV_PAPER, ok=formulas_ok)
    )

    crossover_ok = all(((N + 8) < 4 * N) == (N >= 3) for N in range(1, 65))
    out.append(
        _check("hvq.crossover_n3", 0.0 if crossover_ok else 1.0, 0.0, PROV_DERIVED, ok=crossover_ok)
    )

    fam = vq.two_part_family(4)
    flat = vq.build_vq(fam)
    hier = vq.build_hvq(fam)
    agree = all(
        vq.classify(flat, fam.pattern(k)) == vq.classify(hier, fam.pattern(k))
        for k in range(len(fam.compositions))
    )
    probe = tuple([7] * fam.full_length)
    agree = agree and vq.classify(flat, probe) is None and vq.classify(hier, probe) is None
    out.append(
        _check("hvq.classification_equivalence", 0.0 if agree else 1.0, 0.0, PROV_DERIVED, ok=agree)
    )
    return out


_SUITE_FUNCS = {
    "mex": _mex_checks,
    "invariance": _invariance_checks,
    "kernels": _kernels_checks,
    "ramps": _ramps_checks,
    "hbf": _hbf_checks,
    "hvq": _hvq_checks,
}


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Execute the selected suite(s) and return a canonical, sorted report."""
    names = list(_SUITE_FUNCS) if config.suite == "all" else [config.suite]
    start = time.time()
    with ThreadPoolExecutor(max_workers=config.workers) as pool_:
        results = list(pool_.map(lambda nm: _SUITE_FUNCS[nm](config), names))
    checks = sorted(
        (c for group in results for c in group), key=lambda c: c.check_id
    )
    return SuiteReport(
        suite=config.suite,
        seed=config.seed,
        checks=tuple(checks),
        wall_time=time.time() - start,
    )


def report_to_json(report: SuiteReport) -> str:
    return json.dumps(
        {
            "suite": report.suite,
            "seed": report.seed,
            "wall_time": report.wall_time,
            "checks": [
                {
                    "check_id": c.check_id,
                    "status": c.status,
                    "value": c.value,
                    "tolerance": c.tolerance,
                    "provenance": c.provenance,
                }
                for c in report.checks
            ],
        },
        indent=2,
    )


def report_to_csv(report: SuiteReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["check_id", "status", "value", "tolerance", "provenance"])
    for c in report.checks:
        writer.writerow([c.check_id, c.status, repr(c.value), repr(c.tolerance), c.provenance])
    return buf.getvalue()


def write_report(report: SuiteReport, config: SuiteConfig) -> None:
    if config.output_path is None:
        return
    text = report_to_json(report) if config.fmt == "json" else report_to_csv(report)
    try:
        with open(config.output_path, "w") as f:
            f.write(text)
    except OSError as exc:
        raise OutputUnwritable(str(exc)) from exc
