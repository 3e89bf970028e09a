"""Kernels induced by rectifier feature maps and their group averages.

Monte-Carlo estimation runs only over the (template, bias) draws; the group
average is always an exact finite sum, so orbit invariance holds sample by
sample rather than statistically. A closed-form kernel for the step
nonlinearity and Gram-matrix / selectivity diagnostics round out the module.
"""

from __future__ import annotations

import csv
import functools
import json
import mmap
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    KernelAsymmetric,
    OutOfRange,
    WeightsNotNormalized,
    ZeroVector,
    _finite,
    _index,
)
from .pooling import mex
from .ramps import step_approx
from .signals import FiniteGroup, Signal, cyclic_group, normalize

TEMPLATE_LAWS = ("gaussian", "uniform_sphere")
BIAS_LAWS = ("gaussian", "uniform")


@dataclass(frozen=True)
class TemplateSampler:
    """Random law for (template, bias) draws; identical seed, identical stream.

    The Gaussian/Gaussian configuration is the validation setup: absorbing
    the bias into an augmented coordinate makes the induced kernel a
    first-order arc-cosine kernel with a closed form.
    """

    template_law: str = "gaussian"
    bias_law: str = "gaussian"
    bias_range: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.template_law not in TEMPLATE_LAWS:
            raise InvalidArgument(f"unknown template law {self.template_law!r}")
        if self.bias_law not in BIAS_LAWS:
            raise InvalidArgument(f"unknown bias law {self.bias_law!r}")
        _index("seed", self.seed, 0)  # None would seed from OS entropy
        _finite("bias_range", self.bias_range)
        if self.bias_law == "uniform" and not self.bias_range > 0:
            raise InvalidArgument("uniform bias law needs bias_range > 0")

    def draw(self, d: int, S: int, stream: int = 0):
        """Draw S templates (rows) and biases; ``stream`` derives a substream.

        The arrays are read-only. The most recent draw is kept and returned
        again for an equal (sampler, d, S, stream), so at most one draw is
        retained in the process, together with at most ``_ROWS_MAX_BYTES`` of
        the feature rows that ``k0_mc`` and ``ktilde_mc`` computed from it.
        """
        # checked here, so that a non-integer size is an error, not a cache hit
        return _draw(
            self, _index("d", d, 0), _index("S", S, 0), _index("stream", stream, 0)
        )


# Windows has neither fork nor the flag; its anonymous maps are private.
_PRIVATE = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}


class _RowMemo:
    """Feature rows of one draw, keyed by content, at most max_bytes of them.

    The rows live in one buffer, allocated once and refilled from its start
    after each new draw, so keeping a row allocates no memory. A new draw
    overwrites them, so they are read and written only under the lock.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.lock = threading.Lock()
        # An anonymous map, not np.empty: numpy asks for 2 MiB huge pages at
        # this size, while a page of the map takes memory once it is written.
        # It is private, so that a forked process writes to its own copy.
        self.buffer = np.frombuffer(mmap.mmap(-1, max_bytes // 8 * 8, **_PRIVATE))
        self.reset(None)

    def reset(self, draw):
        with self.lock:
            self.draw, self.rows, self.nbytes, self.used = draw, {}, 0, 0

    def put(self, key, row: np.ndarray) -> None:
        """Keep a copy of row under key = (*draw, group, signal) if it fits.

        A row of any draw but this memo's is dropped.
        """
        size = row.nbytes + len(key[-1]) + len(key[-2] or b"")
        with self.lock:
            if key[:4] != self.draw or key in self.rows:
                return
            if self.nbytes + size <= self.max_bytes:
                kept = self.buffer[self.used : self.used + row.size]
                kept[:] = row
                self.rows[key] = kept
                self.used += row.size
                self.nbytes += size

    def product(self, keys) -> np.ndarray | None:
        """The product of the rows kept under both keys; None if one is missing."""
        with self.lock:
            u, v = (self.rows.get(k) for k in keys)
            return None if u is None or v is None else u * v


# 8 MiB holds a 50-point Gram's rows at S = 20000.
_ROWS_MAX_BYTES = 8 << 20
_rows = _RowMemo(_ROWS_MAX_BYTES)


@functools.lru_cache(maxsize=1)
def _draw(sampler: TemplateSampler, d: int, S: int, stream: int):
    _rows.reset((sampler, d, S, stream))  # a new draw drops the old rows
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=sampler.seed, spawn_key=(stream,))
    )
    T = rng.standard_normal((S, d))
    if sampler.template_law == "uniform_sphere":
        T /= np.linalg.norm(T, axis=1, keepdims=True)
    if sampler.bias_law == "gaussian":
        b = rng.standard_normal(S)
    else:
        b = rng.uniform(-sampler.bias_range, sampler.bias_range, S)
    T.flags.writeable = False
    b.flags.writeable = False
    return T, b


@dataclass(frozen=True)
class KernelEstimate:
    """Monte-Carlo kernel value with its standard error."""

    value: float
    stderr: float
    samples: int

    def __post_init__(self):
        _index("samples", self.samples, 2)  # a standard error needs two


def _estimate(products: np.ndarray) -> KernelEstimate:
    S = products.size
    return KernelEstimate(
        value=float(np.mean(products)),
        stderr=float(np.std(products, ddof=1) / np.sqrt(S)),
        samples=S,
    )


def _require_signals(*xs) -> None:
    """Raise InvalidArgument, naming the type, for an x that has no values array."""
    for x in xs:
        if not isinstance(getattr(x, "values", None), np.ndarray):
            raise InvalidArgument(f"expected a Signal, not {type(x).__name__}")


def _feature_args(signals: list, S, group: FiniteGroup | None) -> tuple[int, int]:
    """S and the signal dimension d, once the arguments of ``features`` pass."""
    S = _index("S", S, 2)  # a standard error needs two samples
    if not signals:
        raise InvalidArgument("need at least one signal")
    _require_signals(*signals)
    d = signals[0].dim
    if any(x.dim != d for x in signals) or (group is not None and group.dim != d):
        raise DimensionMismatch("signal/group dimensions differ")
    return S, d


def features(
    signals, sampler: TemplateSampler, S: int, group: FiniteGroup | None = None
) -> np.ndarray:
    """Random feature map: row i holds (1/|G|) sum_g |<t_s, g x_i> + b_s|_+ over s.

    One draw of S (template, bias) pairs serves every signal, so the mean
    over s of Phi(x)_s Phi(x')_s estimates the group-averaged kernel
    k~(x, x'), and k0 for ``group=None``. The group average is an exact
    finite sum. Returns an (m, S) array for m signals.
    """
    signals = list(signals)
    S, d = _feature_args(signals, S, group)
    T, b = sampler.draw(d, S)
    X = np.stack([x.values for x in signals])
    # <g t, x> = <t, g^{-1} x>; summing over all g covers all inverses.
    orbit_rows = X if group is None else X[:, group.elements].reshape(-1, d)
    R = orbit_rows @ T.T  # (m |G|, S): one row per g x_i
    R += b
    np.maximum(R, 0.0, out=R)
    if len(R) == len(X):  # one orbit row per signal: the mean is the row
        return R
    return R.reshape(len(X), -1, S).mean(axis=1)


def _pair_estimate(x, x2, sampler, S, group) -> KernelEstimate:
    """Mean of Phi(x) * Phi(x2), with rows of the retained draw reused.

    A row is only ever computed with its pair, as ``features((x, x2), ...)``
    gives it: a one-row block takes another BLAS path and rounds otherwise.
    """
    S, d = _feature_args([x, x2], S, group)
    draw = (sampler, d, S, 0)
    g = None if group is None else group.elements.tobytes()
    keys = [(*draw, g, v.values.tobytes()) for v in (x, x2)]
    products = _rows.product(keys)
    if products is None:
        u, v = features((x, x2), sampler, S, group)
        for key, row in zip(keys, (u, v)):
            _rows.put(key, row)
        products = u * v
    else:
        sampler.draw(d, S)  # one draw per call either way; it stays retained
    return _estimate(products)


def k0_mc(x: Signal, x2: Signal, sampler: TemplateSampler, S: int) -> KernelEstimate:
    """Base kernel estimate: mean over draws of |<t,x>+b|_+ |<t,x'>+b|_+.

    The rows Phi(x) and Phi(x2) of ``features`` are kept, while their draw
    is the retained one, for later calls on the same signals.
    """
    return _pair_estimate(x, x2, sampler, S, None)


def ktilde_mc(
    x: Signal,
    x2: Signal,
    G: FiniteGroup,
    sampler: TemplateSampler,
    S: int,
) -> KernelEstimate:
    """Group-averaged kernel estimate.

    The double group sum factorizes per sample into the product of two
    single group averages; only the (t, b) draw is Monte-Carlo. Rows are
    kept for later calls as in ``k0_mc``.
    """
    return _pair_estimate(x, x2, sampler, S, G)


def arccos1_kernel(u: np.ndarray, v: np.ndarray) -> float:
    """Closed-form first-order arc-cosine kernel for standard normal weights.

    E |<w,u>|_+ |<w,v>|_+ = (1/2pi) |u||v| (sin th + (pi - th) cos th).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if not np.isfinite(nu * nv):  # a NaN or inf entry, or norms that overflow
        raise InvalidArgument("arccos1_kernel needs finite vectors")
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector("arccos1_kernel is undefined for a zero vector")
    c = np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0)
    th = np.arccos(c)
    return float(nu * nv * (np.sin(th) + (np.pi - th) * np.cos(th)) / (2 * np.pi))


def _check_projections(xs, xs2, p: float):
    """Projections as float arrays, once p > 0 is finite and both lie in [-p, p]."""
    _finite("p", p, 0.0, error=OutOfRange)
    xs = np.asarray(xs, dtype=float)
    xs2 = np.asarray(xs2, dtype=float)
    # written as "all inside" so that a NaN projection fails too
    if not (np.all(np.abs(xs) <= p) and np.all(np.abs(xs2) <= p)):
        raise OutOfRange("projections must lie in [-p, p]")
    return xs, xs2


def step_kernel_exact(xs, xs2, p: float):
    """Integral over [-p, p] of step(b - xs) * step(b - xs2) db = p - max(xs, xs2).

    Broadcasts over array projections; scalar inputs give a float.
    """
    xs, xs2 = _check_projections(xs, xs2, p)
    out = p - np.maximum(xs, xs2)
    return float(out) if out.ndim == 0 else out


def step_kernel_numeric(
    xs: float,
    xs2: float,
    p: float,
    grid_points: int = 100_000,
    alpha: float = 1e4,
) -> float:
    """Trapezoid oracle for step_kernel_exact.

    The step is replaced by its ramp approximation ``ramps.step_approx``,
    alpha * (|s|_+ - |s - 1/alpha|_+), and the product integrated on a
    uniform b-grid.
    """
    _index("grid_points", grid_points, 1000)
    _check_projections(xs, xs2, p)

    b = np.linspace(-p, p, grid_points)
    integrand = step_approx(b - xs, alpha) * step_approx(b - xs2, alpha)
    return float(np.trapezoid(integrand, b))


def ktilde_step(
    I: Signal,
    I2: Signal,
    templates,
    weights,
    G: FiniteGroup,
    p: float,
) -> float:
    """Group- and template-averaged step-nonlinearity kernel.

    p minus the weighted average over templates, and exact double group
    average, of max(<I2, g t>, <I, g' t>).
    """
    _require_signals(I, I2, *templates)
    _finite("p", p, 0.0, error=OutOfRange)
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or abs(np.sum(w) - 1.0) > 1e-12:
        raise WeightsNotNormalized("weights must be nonnegative and sum to 1")
    if len(templates) != w.size:
        raise DimensionMismatch("one weight per template required")
    total = 0.0
    for t, wt in zip(templates, w):
        gt = t.values[G.elements]  # rows g t
        a = gt @ I2.values  # <I2, g t> over g
        c = gt @ I.values  # <I, g' t> over g'
        _check_projections(a, c, p + 1e-12)  # 1e-12 slack for rounding
        total += wt * float(np.mean(np.maximum(a[:, None], c[None, :])))
    return p - total


@dataclass(frozen=True)
class GramReport:
    """Symmetric kernel matrix with eigenvalue extremes and a PSD verdict."""

    matrix: np.ndarray
    min_eigenvalue: float
    max_eigenvalue: float
    psd_pass: bool


def _kernel_matrix(points, kernel) -> np.ndarray:
    """m x m matrix of kernel(points[i], points[j]), one call per entry."""
    m = len(points)
    K = np.array([[kernel(a, b) for b in points] for a in points], dtype=float)
    return K.reshape(m, m)


def gram(points, kernel) -> GramReport:
    """Build the full kernel matrix and test positive semidefiniteness.

    psd_pass allows eigenvalues down to -1e-8 relative to the largest one
    (floating-point slack).
    """
    if len(points) < 2:
        raise InvalidArgument("need at least 2 points")
    K = _kernel_matrix(points, kernel)
    asym = np.argwhere(np.triu(np.abs(K - K.T) > 1e-9))
    if asym.size:
        i, j = asym[0]
        raise KernelAsymmetric(f"K({i},{j}) != K({j},{i})")
    K = 0.5 * (K + K.T)
    eig = np.linalg.eigvalsh(K)
    lo, hi = float(eig[0]), float(eig[-1])
    return GramReport(
        matrix=K,
        min_eigenvalue=lo,
        max_eigenvalue=hi,
        psd_pass=lo >= -1e-8 * max(abs(hi), 1.0),
    )


def gram_to_csv(report: GramReport, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["row", "col", "value"])
        m = report.matrix.shape[0]
        for i in range(m):
            for j in range(m):
                writer.writerow([i, j, repr(report.matrix[i, j])])


def gram_summary_json(report: GramReport, n_points: int, kernel_id: str, seed: int) -> str:
    return json.dumps(
        {
            "min_eig": report.min_eigenvalue,
            "max_eig": report.max_eigenvalue,
            "psd_pass": report.psd_pass,
            "n_points": n_points,
            "kernel_id": kernel_id,
            "seed": seed,
        }
    )


def mex_similarity(x: Signal, y: Signal, G: FiniteGroup, xi: float) -> float:
    """Log-mean-exp aggregation of the dot products <x, g y> over the group.

    Symmetric (the multiset {<x, g y>} equals {<y, g x>}) but not positive
    semidefinite in general.
    """
    _require_signals(x, y)
    if x.dim != y.dim or x.dim != G.dim:
        raise DimensionMismatch("signal/group dimensions differ")
    dots = y.values[G.elements] @ x.values
    return mex(dots, xi)


@dataclass(frozen=True)
class MexScanResult:
    found: bool
    instances_tried: int
    min_eigenvalue: float
    dim: int = 0
    xi: float = 0.0


def mex_npsd_scan(
    max_instances: int = 1000,
    seed: int = 0,
    dims=(2, 3, 4),
    xis=(1.0, 5.0, 25.0),
    n_points: int = 6,
    eig_threshold: float = -1e-6,
) -> MexScanResult:
    """Randomized search for a non-PSD pairwise similarity matrix.

    Each instance draws random unit vectors, builds the pairwise
    log-mean-exp similarity matrix over a cyclic group, and checks its
    smallest eigenvalue. Stops at the first eigenvalue below the threshold.
    """
    rng = np.random.default_rng(_index("seed", seed, 0))
    worst = np.inf
    for trial in range(_index("max_instances", max_instances, 1)):
        d = int(rng.choice(dims))
        xi = float(rng.choice(xis))
        G = cyclic_group(d)
        pts = [normalize(rng.standard_normal(d)) for _ in range(n_points)]
        lo = gram(pts, lambda a, b: mex_similarity(a, b, G, xi)).min_eigenvalue
        worst = min(worst, lo)
        if lo < eig_threshold:
            return MexScanResult(
                found=True,
                instances_tried=trial + 1,
                min_eigenvalue=lo,
                dim=d,
                xi=xi,
            )
    return MexScanResult(found=False, instances_tried=max_instances, min_eigenvalue=worst)


@dataclass(frozen=True)
class SelectivityReport:
    """Extremes of the normalized kernel across same- and distinct-orbit pairs."""

    same_orbit_min: float
    distinct_orbit_max: float

    @property
    def margin(self) -> float:
        return self.same_orbit_min - self.distinct_orbit_max


def selectivity_scan(orbits, kernel) -> SelectivityReport:
    """Compare normalized kernel values within and across orbits.

    The caller guarantees an invariant (group-averaged) kernel; values are
    normalized as K(x,y) / sqrt(K(x,x) K(y,y)).
    """
    members = [m for orb in orbits for m in orb.members]
    label = np.repeat(np.arange(len(orbits)), [len(orb.members) for orb in orbits])
    K = _kernel_matrix(members, kernel)
    diag = np.diag(K)
    khat = K / np.sqrt(diag[:, None] * diag[None, :])
    # distinct-orbit pairs (a in orbit i, b in orbit j) are read for i < j only
    same = label[:, None] == label[None, :]
    distinct = label[:, None] < label[None, :]
    return SelectivityReport(
        same_orbit_min=float(np.min(khat[same], initial=np.inf)),
        distinct_orbit_max=float(np.max(khat[distinct], initial=-np.inf)),
    )
