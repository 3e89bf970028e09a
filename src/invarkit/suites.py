"""Named verification suites with machine-readable reports.

Each check computes a measured value, compares it against a tolerance, and
records the provenance of its expected value (paper / derived / trivial).
Checks are pure functions of (seed, samples), so reports are reproducible
across runs and worker counts; rows are always sorted by check id. A
suite is one or more jobs: check builders that share no generator.
With more than one worker the jobs run in forked worker processes, the
longest first, so that no two jobs share one interpreter lock.
"""

from __future__ import annotations

import csv
import io
import json
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields, replace

import numpy as np

from . import hbf, kernels, pooling, ramps, vq
from .errors import InvalidConfig, OutputUnwritable, _index
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
        for name, lo in (("seed", 0), ("samples", None), ("workers", 1)):
            _index(name, getattr(self, name), lo, InvalidConfig)
        if self.suite not in SUITES:
            raise InvalidConfig(f"unknown suite {self.suite!r}")
        if self.fmt not in ("json", "csv"):
            raise InvalidConfig(f"unknown format {self.fmt!r}")
        if not isinstance(self.output_path, (str, type(None))):
            kind = type(self.output_path).__name__
            raise InvalidConfig(f"output_path must be a str or None, not {kind}")
        if self.seed >= 2**64:
            raise InvalidConfig(f"seed {self.seed} is outside [0, 2**64)")
        if self.suite in _MC_SUITES and self.samples < 2:
            raise InvalidConfig("Monte-Carlo suites need samples >= 2")


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


def _flag(check_id, ok, provenance):
    """A check with no measured quantity: value 0 when ok holds, else 1."""
    return _check(check_id, 0.0 if ok else 1.0, 0.0, provenance, ok=ok)


# ---------------------------------------------------------------------------
# mex suite


def _mex_checks(cfg: SuiteConfig):
    v = [1.0, 2.0, 3.0, 4.0]
    out = [
        _check(f"mex.limit_{name}", abs(pooling.mex(v, xi) - limit), tol, PROV_PAPER)
        for name, xi, limit, tol in (
            ("max", 100.0, 4.0, 0.05),
            ("mean", 1e-6, 2.5, 1e-4),
            ("min", -100.0, 1.0, 0.05),
        )
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
    a, b = rng.uniform(-1, 1, (10_000, 2)).T
    rhs = 1.0 - 0.5 * (a + b + np.abs(a - b))
    worst = np.max(np.abs(kernels.step_kernel_exact(a, b, 1.0) - rhs))
    out.append(_check("kernels.step_identity", worst, 1e-12, PROV_PAPER))

    # closed form vs trapezoid oracle
    pairs = rng.uniform(-1, 1, (100, 2))
    numeric = [kernels.step_kernel_numeric(a, b, 1.0, 100_000) for a, b in pairs]
    exact = kernels.step_kernel_exact(pairs[:, 0], pairs[:, 1], 1.0)
    worst = np.max(np.abs(exact - numeric))
    out.append(_check("kernels.step_numeric_oracle", worst, 1e-3, PROV_DERIVED))

    # arc-cosine closed form under Gaussian laws
    worst_z = 0.0
    for i in range(20):
        x = normalize(rng.standard_normal(3))
        y = normalize(rng.standard_normal(3))
        est = kernels.k0_mc(x, y, kernels.TemplateSampler(seed=cfg.seed + i), cfg.samples)
        exact = kernels.arccos1_kernel(
            np.append(x.values, 1.0), np.append(y.values, 1.0)
        )
        gap = abs(est.value - exact)
        # every rectified product 0 (tiny samples): z is 0 if exact, else inf
        z = gap / est.stderr if est.stderr > 0 else (np.inf if gap else 0.0)
        worst_z = max(worst_z, z)
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
# hbf suite: four jobs, each check seeding its own generator


def _gradient_fd_checks(cfg: SuiteConfig):
    """Analytic gradients against central finite differences."""
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
    return [_check("hbf.gradient_fd", worst, 1e-5, PROV_DERIVED)]


def _interpolation_checks(cfg: SuiteConfig):
    """Interpolation recovery, n = N = 20, d = 2."""
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
    return [_check("hbf.interpolation", sr.max_residual, 1e-6, PROV_PAPER)]


def _sin_task_checks(cfg: SuiteConfig):
    """Moving centers beat the fixed-center baseline on the sin task."""
    moving, fixed, fp = sin_task_benchmark(seed=7)
    return [
        _check(
            "hbf.moving_centers_benefit",
            moving - fixed,
            0.0,
            PROV_DERIVED,
            ok=moving < fixed,
        ),
        _check("hbf.center_fixed_point", fp, 1e-6, PROV_DERIVED),
    ]


def _capacity_checks(cfg: SuiteConfig):
    cap = hbf.check_capacity(100, 5, 3)
    tol = hbf._CAPACITY_THRESHOLD
    return [_check("hbf.capacity_rule", cap.ratio, tol, PROV_PAPER, ok=cap.ok)]


def _gradient_fd_error(model, data) -> float:
    """Sup-norm relative error between analytic and central-difference gradients."""
    errs = []
    arrays = {"centers": model.centers, "coeffs": model.coeffs}
    for name, grad in (("coeffs", hbf.grad_coeffs), ("centers", hbf.grad_centers)):
        p = getattr(model, name)
        fd = np.empty_like(p)
        for i in np.ndindex(p.shape):
            h = 1e-6 * max(1.0, abs(p[i]))
            pp, pm = p.copy(), p.copy()
            pp[i] += h
            pm[i] -= h
            hp = hbf.objective(hbf._iterate(model, **{**arrays, name: pp}), data)
            hm = hbf.objective(hbf._iterate(model, **{**arrays, name: pm}), data)
            fd[i] = (hp - hm) / (2 * h)
        g = grad(model, data)
        errs.append(np.max(np.abs(fd - g)) / max(np.max(np.abs(fd)), 1.0))
    return float(max(errs))


def sin_task_benchmark(seed: int = 7):
    """Seeded 1-D sin regression: moving vs fixed centers, then stationarity.

    Returns (moving_objective, fixed_objective, fixed_point_residual). The
    joint arms follow the reference setup (N=200, n=10, sigma=0.5,
    omega=1e-3, 5000 iterations). The stationarity arm then refines the
    moving arm's centers alone, coefficients held, by BFGS
    (`hbf.refine_centers`) to sup|dH/dt| < 1e-10: some 40 iterations where
    fixed-step gradient descent takes ~29k. The centers alone, because with
    the Gaussian profile the weighted-mean center identity degenerates (0/0)
    at joint optima, since its denominator is proportional to the
    coefficient gradient.
    """
    N, n = 200, 10
    X = np.linspace(0.0, 2.0 * np.pi, N)[:, None]
    y = np.sin(X).ravel()
    data = hbf.TrainingSet(X, y)
    centers = hbf.init_centers(data, n, seed=seed)
    start = hbf.HBFModel(centers=centers, coeffs=np.zeros(n), sigma=0.5)
    start = replace(start, coeffs=hbf.solve_coeffs(start, data).coeffs)
    cfg = hbf.TrainConfig(omega=1e-3, max_iters=5000, grad_tol=1e-12, seed=seed)
    moved, trace_m = hbf.train(start, data, cfg)
    _, trace_f = hbf.train(start, data, replace(cfg, update_centers=False))

    refined, _ = hbf.refine_centers(moved, data, grad_tol=1e-10)
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
    out.append(_flag("hvq.cost_formulas", formulas_ok, PROV_PAPER))

    crossover_ok = all(((N + 8) < 4 * N) == (N >= 3) for N in range(1, 65))
    out.append(_flag("hvq.crossover_n3", crossover_ok, PROV_DERIVED))

    fam = vq.two_part_family(4)
    flat = vq.build_vq(fam)
    hier = vq.build_hvq(fam)
    agree = all(
        vq.classify(flat, fam.pattern(k)) == vq.classify(hier, fam.pattern(k))
        for k in range(len(fam.compositions))
    )
    probe = tuple([7] * fam.full_length)
    agree = agree and vq.classify(flat, probe) is None and vq.classify(hier, probe) is None
    out.append(_flag("hvq.classification_equivalence", agree, PROV_DERIVED))
    return out


# One job per key, the longest first, so that the sin task and the kernels
# suite start together on two workers. A key names its suite before any dot.
# The kernels suite is one job because its checks draw from one generator.
_JOBS = {
    "hbf.sin_task": _sin_task_checks,
    "kernels": _kernels_checks,
    "hbf.gradient_fd": _gradient_fd_checks,
    "invariance": _invariance_checks,
    "ramps": _ramps_checks,
    "mex": _mex_checks,
    "hvq": _hvq_checks,
    "hbf.interpolation": _interpolation_checks,
    "hbf.capacity_rule": _capacity_checks,
}


def _run_job(key: str, config: SuiteConfig):
    return _JOBS[key](config)


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Execute the selected suite(s) and return a canonical, sorted report.

    The unit of work is a job: one check builder of ``_JOBS``, the longest
    first. The hbf suite is four jobs, with the sin task its own; every
    other suite is one. With ``config.workers`` > 1 and several jobs, the
    jobs run in forked processes, at most one per job. A worker inherits
    the caller's memory as it stands, so call it from a thread that is the
    only one running, and it loads ``hbf.cdist`` (scipy.spatial) first, so
    that the workers inherit it instead of each importing it again. A
    job's error reaches the caller with its own type, and no worker
    outlives the call. Otherwise, and where there is no ``fork``, the jobs
    run in order in the calling process.
    """
    keys = [k for k in _JOBS if config.suite in ("all", k.partition(".")[0])]
    workers = min(config.workers, len(keys))  # fork starts every worker at once
    start = time.time()
    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        results = [_run_job(key, config) for key in keys]
    else:
        context = multiprocessing.get_context("fork")
        hbf.cdist  # imported here once, not in each worker
        with ProcessPoolExecutor(workers, mp_context=context) as pool_:
            # keys, not builders, go to the workers: fork carries the registry
            results = list(pool_.map(_run_job, keys, [config] * len(keys)))
    checks = sorted(
        (c for group in results for c in group), key=lambda c: c.check_id
    )
    return SuiteReport(
        suite=config.suite,
        seed=config.seed,
        checks=tuple(checks),
        wall_time=time.time() - start,
    )


def _json_number(x):
    """A float as JSON allows it: non-finite values as the strings the CSV uses."""
    return str(x) if isinstance(x, float) and not math.isfinite(x) else x


def report_to_json(report: SuiteReport) -> str:
    checks = [{k: _json_number(x) for k, x in asdict(c).items()} for c in report.checks]
    return json.dumps(
        {
            "suite": report.suite,
            "seed": report.seed,
            "wall_time": report.wall_time,
            "checks": checks,
        },
        indent=2,
    )


def report_to_csv(report: SuiteReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([f.name for f in fields(CheckResult)])
    writer.writerows(astuple(c) for c in report.checks)
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
