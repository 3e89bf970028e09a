"""Kernels induced by rectifier feature maps and their group averages.

Monte-Carlo estimation runs only over the (template, bias) draws; the group
average is always an exact finite sum, so orbit invariance holds sample by
sample rather than statistically. A closed-form kernel for the step
nonlinearity and Gram-matrix / selectivity diagnostics round out the module.
"""

from __future__ import annotations

import functools
import math
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
from .signals import FiniteGroup, Signal, cyclic_group, normalize


@dataclass(frozen=True)
class TemplateSampler:
    """Gaussian templates and Gaussian biases; identical seed, identical stream.

    This is the validation setup: absorbing the bias into an augmented
    coordinate makes the induced kernel a first-order arc-cosine kernel with
    a closed form.
    """

    seed: int = 0

    def __post_init__(self):
        _index("seed", self.seed, 0)  # None would seed from OS entropy

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
        )[:2]


@functools.lru_cache(maxsize=1)
def _draw(sampler: TemplateSampler, d: int, S: int, stream: int):
    """T, b and the rows of ``features`` kept, by (group or None, signal) bytes."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=sampler.seed, spawn_key=(stream,))
    )
    T = rng.standard_normal((S, d))
    b = rng.standard_normal(S)
    T.flags.writeable = False
    b.flags.writeable = False
    return T, b, {}


@dataclass(frozen=True)
class KernelEstimate:
    """Monte-Carlo kernel value with its standard error."""

    value: float
    stderr: float
    samples: int

    def __post_init__(self):
        _index("samples", self.samples, 2)  # a standard error needs two


def _estimate(products: np.ndarray) -> KernelEstimate:
    """Mean and standard error of the products, which are overwritten.

    One sum gives the mean, and the squared deviations are formed in place:
    bit for bit np.mean and np.std(ddof=1) / sqrt(S), with no S-sized
    temporary.
    """
    S = products.size
    mean = np.add.reduce(products) / S
    products -= mean
    products *= products
    var = np.add.reduce(products) / (S - 1)
    return KernelEstimate(
        value=float(mean), stderr=float(np.sqrt(var) / np.sqrt(S)), samples=S
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


# 8 MiB holds a 50-point Gram's rows at S = 20000.
_ROWS_MAX_BYTES = 8 << 20
_keeping = threading.Lock()  # held while rows are checked against the cap and kept


def _pair_estimate(x, x2, sampler, S, group) -> KernelEstimate:
    """Mean of Phi(x) * Phi(x2), with the rows that the retained draw keeps.

    A row is only ever computed with its pair, as ``features((x, x2), ...)``
    gives it: a one-row block takes another BLAS path and rounds otherwise.
    Rows the draw lacks are kept while they, with their keys, fit in
    ``_ROWS_MAX_BYTES``: two as the rows of the pair's array, one as a copy
    that does not hold that array. A kept row is never written again, so it
    is read without the lock.
    """
    S, d = _feature_args([x, x2], S, group)
    rows = _draw(sampler, d, S, 0)[2]
    g = None if group is None else group.elements.tobytes()
    keys = [(g, v.values.tobytes()) for v in (x, x2)]
    u, v = (rows.get(key) for key in keys)
    if u is None or v is None:
        u, v = pair = features((x, x2), sampler, S, group)
        size = u.nbytes + len(keys[0][1]) + len(g or b"")  # a row and its key
        with _keeping:
            used = sum(r.nbytes + len(k[1]) + len(k[0] or b"") for k, r in rows.items())
            new = list(dict.fromkeys(k for k in keys if k not in rows))
            new = new[: (_ROWS_MAX_BYTES - used) // size]
            if len(new) == 2:
                rows.update(zip(keys, pair))
            elif new:
                rows[new[0]] = pair[keys.index(new[0])].copy()
    else:
        sampler.draw(d, S)  # one draw per call either way; it stays retained
    return _estimate(u * v)


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

    A vector whose largest |entry| lies outside 2**+-256 is scaled by a power
    of two, which is exact, before its norm is taken, and the value is scaled
    back, so finite vectors of any size give the value rounded to a float:
    0.0 below the smallest one, ``InvalidArgument`` above the largest. Other
    vectors are not scaled.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    tops = [float(np.abs(x).max(initial=0.0)) for x in (u, v)]
    if not all(map(math.isfinite, tops)):
        raise InvalidArgument("arccos1_kernel needs finite vectors")
    if 0.0 in tops:
        raise ZeroVector("arccos1_kernel is undefined for a zero vector")
    ku, kv = (e if abs(e) > 256 else 0 for _, e in map(math.frexp, tops))
    u, v = np.ldexp(u, -ku), np.ldexp(v, -kv)
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    c = np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0)
    th = np.arccos(c)
    value = float(nu * nv * (np.sin(th) + (np.pi - th) * np.cos(th)) / (2 * np.pi))
    try:
        return math.ldexp(value, ku + kv)
    except OverflowError:
        raise InvalidArgument(
            f"arccos1_kernel value {value!r} * 2**{ku + kv} exceeds the largest float"
        ) from None


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
) -> float:
    """Trapezoid oracle for step_kernel_exact.

    The step is replaced by its ramp approximation ``ramps.step_approx``
    at alpha = 1e4, alpha * (|s|_+ - |s - 1/alpha|_+), and the product
    integrated on a uniform b-grid. All of it runs in one (3, grid_points)
    block made per call, whose rows hold the integrand, the second step and
    the shifted grid. One block, not several grid-sized arrays, because
    glibc raises its mmap and trim thresholds once a block this large is
    freed, so the next calls reuse heap memory instead of faulting in fresh
    pages. Each step is formed in ``step_approx``'s order of operations, so
    the value is the same bit for bit.
    """
    _index("grid_points", grid_points, 1000)
    _check_projections(xs, xs2, p)

    b = _grid(p, grid_points)
    integrand, step, s = np.empty((3, grid_points))
    for out, x in ((integrand, xs), (step, xs2)):
        np.subtract(b, x, out=s)
        np.maximum(s, 0.0, out=out)
        s -= 1e-4
        out -= np.maximum(s, 0.0, out=s)
        out *= 1e4
    integrand *= step
    # np.trapezoid(integrand, b), in its order of operations
    mid = np.add(integrand[1:], integrand[:-1], out=s[:-1])
    mid *= _spacing(p, grid_points)
    mid /= 2.0
    return float(mid.sum())


# The oracle's grid and spacing are kept for the next pair; typed, since a
# float32 p gives a float32 grid. The spacing is made only once the
# integrand is, so that a first call holds no more arrays at its peak.
@functools.lru_cache(maxsize=1, typed=True)
def _grid(p: float, grid_points: int) -> np.ndarray:
    b = np.linspace(-p, p, grid_points)
    b.flags.writeable = False
    return b


@functools.lru_cache(maxsize=1, typed=True)
def _spacing(p: float, grid_points: int) -> np.ndarray:
    db = np.diff(_grid(p, grid_points))
    db.flags.writeable = False
    return db


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
    (floating-point slack). A non-finite entry raises InvalidArgument naming
    the first such (i, j), before the matrix is tested for symmetry.
    """
    if len(points) < 2:
        raise InvalidArgument("need at least 2 points")
    K = _kernel_matrix(points, kernel)
    bad = np.argwhere(~np.isfinite(K))
    if bad.size:
        i, j = bad[0]
        raise InvalidArgument(f"K({i},{j}) = {K[i, j]} is not finite")
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
) -> MexScanResult:
    """Randomized search for a non-PSD pairwise similarity matrix.

    Each instance draws a dimension d in {2, 3, 4}, xi in {1, 5, 25} and
    six random unit vectors, builds the pairwise log-mean-exp similarity
    matrix over the cyclic group of order d, and checks its smallest
    eigenvalue. Stops at the first eigenvalue below -1e-6.
    """
    rng = np.random.default_rng(_index("seed", seed, 0))
    worst = np.inf
    for trial in range(_index("max_instances", max_instances, 1)):
        d = int(rng.choice((2, 3, 4)))
        xi = float(rng.choice((1.0, 5.0, 25.0)))
        G = cyclic_group(d)
        pts = [normalize(rng.standard_normal(d)) for _ in range(6)]
        lo = gram(pts, lambda a, b: mex_similarity(a, b, G, xi)).min_eigenvalue
        worst = min(worst, lo)
        if lo < -1e-6:
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
    normalized as K(x,y) / sqrt(K(x,x) K(y,y)), so every K(x,x) must be
    positive; InvalidArgument names the first member whose value is not.
    """
    members = [m for orb in orbits for m in orb.members]
    label = np.repeat(np.arange(len(orbits)), [len(orb.members) for orb in orbits])
    K = _kernel_matrix(members, kernel)
    diag = np.diag(K)
    bad = np.flatnonzero(~(diag > 0))  # NaN is not positive either
    if bad.size:
        i = bad[0]
        k = i - np.flatnonzero(label == label[i])[0]
        raise InvalidArgument(
            f"K(x, x) = {diag[i]!r} for member {k} of orbit {label[i]}; "
            "normalizing needs K(x, x) > 0"
        )
    khat = K / np.sqrt(diag[:, None] * diag[None, :])
    # distinct-orbit pairs (a in orbit i, b in orbit j) are read for i < j only
    same = label[:, None] == label[None, :]
    distinct = label[:, None] < label[None, :]
    return SelectivityReport(
        same_orbit_min=float(np.min(khat[same], initial=np.inf)),
        distinct_orbit_max=float(np.max(khat[distinct], initial=-np.inf)),
    )
