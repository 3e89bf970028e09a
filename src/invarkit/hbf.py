"""Radial basis networks with movable centers.

The model is f(x) = sum_a c_a G(||x - t_a||^2) with a Gaussian radial
profile. Both the coefficients and the center positions are trainable:
coefficients by a regularized pseudo-inverse solve, centers by gradient
descent on the squared-error objective (optionally with decaying noise),
and the centers alone can be refined to a stationary point by BFGS.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist

from .errors import (
    DimensionMismatch,
    DivergenceDetected,
    InvalidArgument,
    InvalidN,
    SingularSystem,
    _finite,
    _index,
)

_JITTER_FLOOR = 1e-12


@dataclass(frozen=True)
class HBFModel:
    """Centers, coefficients, radial width, and ridge regularization."""

    centers: np.ndarray  # (n, d)
    coeffs: np.ndarray  # (n,)
    sigma: float
    lam: float = 0.0

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.centers, dtype=float))
        w = np.asarray(self.coeffs, dtype=float).ravel()
        if c.shape[0] != w.size or c.shape[0] < 1:
            raise DimensionMismatch("one coefficient per center required")
        _finite("sigma", self.sigma, 0.0)
        _finite("lambda", self.lam, 0.0, strict=False)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "coeffs", w)

    @property
    def n(self) -> int:
        return self.centers.shape[0]

    @property
    def d(self) -> int:
        return self.centers.shape[1]


@dataclass(frozen=True)
class TrainingSet:
    inputs: np.ndarray  # (N, d)
    targets: np.ndarray  # (N,)

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        y = np.asarray(self.targets, dtype=float).ravel()
        if x.shape[0] != y.size or x.shape[0] < 1:
            raise DimensionMismatch("one target per input required")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise InvalidArgument("inputs and targets must be finite")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", y)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    """Gradient-descent settings.

    noise_amplitude is the initial scale of the zero-mean perturbations and
    decays as 1/iteration; zero (the default) gives plain gradient descent.
    resolve_every > 0 re-solves the coefficients by pseudo-inverse every
    that many iterations. update_centers=False freezes the centers (the
    fixed-center baseline).
    """

    omega: float
    max_iters: int
    grad_tol: float = 1e-8
    noise_amplitude: float = 0.0
    seed: int = 0
    update_centers: bool = True
    update_coeffs: bool = True
    resolve_every: int = 0

    def __post_init__(self):
        _finite("omega", self.omega, 0.0)
        _finite("grad_tol", self.grad_tol, 0.0)
        _finite("noise_amplitude", self.noise_amplitude, 0.0, strict=False)
        _index("max_iters", self.max_iters, 1)
        _index("resolve_every", self.resolve_every)
        _index("seed", self.seed, 0)  # None would seed from OS entropy


def radial_basis(r2, sigma: float):
    """Gaussian radial profile G(r^2) = exp(-r^2 / (2 sigma^2))."""
    return np.exp(-np.asarray(r2, dtype=float) / (2.0 * sigma**2))


def radial_basis_deriv(r2, sigma: float):
    """dG/d(r^2) = -G(r^2) / (2 sigma^2)."""
    return -radial_basis(r2, sigma) / (2.0 * sigma**2)


def _design(model: HBFModel, X: np.ndarray) -> np.ndarray:
    """(N, n) matrix of G(||x_i - t_a||^2)."""
    r2 = cdist(X, model.centers, "sqeuclidean")
    return radial_basis(r2, model.sigma)


def hbf_eval(model: HBFModel, x) -> float:
    """f(x) = sum_a c_a G(||x - t_a||^2)."""
    return float(hbf_eval_batch(model, np.ravel(x)[None, :])[0])


def hbf_eval_batch(model: HBFModel, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.d:
        raise DimensionMismatch(f"input dim {X.shape[1]} != model dim {model.d}")
    return _design(model, X) @ model.coeffs


def _forward(model: HBFModel, data: TrainingSet):
    """Squared distances r2 (N, n), design Phi = G(r2) and residuals Delta (N,).

    Delta_i = y_i - f(x_i) is what the objective, both gradients and the
    center fixed-point condition are built from.
    """
    r2 = cdist(data.inputs, model.centers, "sqeuclidean")
    Phi = radial_basis(r2, model.sigma)
    return r2, Phi, data.targets - Phi @ model.coeffs


def _center_weights(model: HBFModel, data: TrainingSet) -> np.ndarray:
    """(N, n) matrix P_i^a = Delta_i G'(||x_i - t_a||^2)."""
    r2, _, delta = _forward(model, data)
    return delta[:, None] * radial_basis_deriv(r2, model.sigma)


def objective(model: HBFModel, data: TrainingSet) -> float:
    """Sum of squared residuals."""
    delta = _forward(model, data)[2]
    return float(delta @ delta)


def grad_coeffs(model: HBFModel, data: TrainingSet) -> np.ndarray:
    """dH/dc_a = -2 sum_i Delta_i G(||x_i - t_a||^2)."""
    _, Phi, delta = _forward(model, data)
    return -2.0 * (Phi.T @ delta)


def grad_centers(model: HBFModel, data: TrainingSet) -> np.ndarray:
    """dH/dt_a = 4 c_a sum_i Delta_i G'(||x_i - t_a||^2) (x_i - t_a).

    The (N, n, d) products P_i^a (x_ik - t_ak) are filled one input column k
    at a time, which avoids a broadcast whose inner loop runs over d alone,
    and the examples are then summed in index order by one reduction over
    axis 0. A sum per column takes numpy's pairwise order instead (it
    differs at n = 1); the bit-identity tests against the broadcast
    reference pin this order.
    """
    P = _center_weights(model, data)
    X, t = data.inputs, model.centers
    weighted = np.empty((X.shape[0],) + t.shape)
    for k in range(t.shape[1]):
        np.multiply(P, X[:, k, None] - t[:, k], out=weighted[:, :, k])
    return 4.0 * model.coeffs[:, None] * weighted.sum(axis=0)


@dataclass(frozen=True)
class SolveResult:
    coeffs: np.ndarray
    max_residual: float
    underdetermined: bool  # n > N: fewer examples than centers


def solve_coeffs(model: HBFModel, data: TrainingSet) -> SolveResult:
    """Optimal coefficients c = (Phi^T Phi + lam g)^{-1} Phi^T y.

    Phi is the data/center design matrix and g the center Gram matrix. The
    system is solved in its equivalent stacked least-squares form
    [Phi; sqrt(lam) L^T] c ~ [y; 0] with g + jitter = L L^T, which avoids
    squaring the condition number of Phi; a jitter floor on the diagonal
    keeps near-singular Gaussian systems solvable. lam is floored at the
    jitter, not added to it, so any lam up to the jitter solves alike.
    """
    Phi = _design(model, data.inputs)
    g = _design(model, model.centers)
    g[np.diag_indices_from(g)] += _JITTER_FLOOR
    try:
        L = np.linalg.cholesky(g)
        A = np.vstack([Phi, np.sqrt(max(model.lam, _JITTER_FLOOR)) * L.T])
        rhs = np.concatenate([data.targets, np.zeros(model.n)])
        c, _, _, _ = np.linalg.lstsq(A, rhs, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("normal equations unsolvable after jitter") from exc
    if not np.all(np.isfinite(c)):
        raise SingularSystem("normal-equation solve produced non-finite values")
    res = data.targets - Phi @ c
    return SolveResult(
        coeffs=c,
        max_residual=float(np.max(np.abs(res))),
        underdetermined=model.n > data.size,
    )


def median_pairwise_distance(X) -> float:
    """Default radial width: median pairwise distance of the inputs."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    D = cdist(X, X)
    vals = D[np.triu_indices_from(D, k=1)]
    med = float(np.median(vals)) if vals.size else 1.0
    return med if med > 0 else 1.0


def init_centers(data: TrainingSet, n: int, seed: int = 0) -> np.ndarray:
    """Seeded k-means placement of n centers.

    Initialization draws n distinct examples; Lloyd iterations run for at
    most 50 rounds or until the relative center shift drops below 1e-8.
    Empty clusters are re-seeded to the farthest point; assignment ties
    break toward the lowest center index.
    """
    N = data.size
    if not 1 <= _index("n", n, error=InvalidN) <= N:
        raise InvalidN(f"need 1 <= n <= {N}, got {n}")
    rng = np.random.default_rng(_index("seed", seed, 0))
    X = data.inputs
    centers = X[rng.choice(N, size=n, replace=False)].copy()
    for _ in range(50):
        D = cdist(X, centers, "sqeuclidean")
        assign = np.argmin(D, axis=1)  # argmin takes the lowest index on ties
        new = np.empty_like(centers)
        for a in range(n):
            members = X[assign == a]
            if members.size == 0:
                new[a] = X[np.argmax(np.min(D, axis=1))]
            else:
                new[a] = members.mean(axis=0)
        shift = np.linalg.norm(new - centers)
        scale = np.linalg.norm(centers) + 1e-30
        centers = new
        if shift / scale < 1e-8:
            break
    return centers


@dataclass(frozen=True)
class TrainTrace:
    """Per-iteration record: objective and sup-norm of the full gradient."""

    iterations: np.ndarray
    objectives: np.ndarray
    grad_inf_norms: np.ndarray
    converged: bool = False

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["iteration", "objective", "grad_inf_norm"])
            for it, obj, gn in zip(
                self.iterations, self.objectives, self.grad_inf_norms
            ):
                writer.writerow([int(it), repr(float(obj)), repr(float(gn))])


def _trace(objectives, grad_inf_norms, converged: bool) -> TrainTrace:
    """The trace of iterations 1..k from the k recorded objectives and norms."""
    return TrainTrace(
        iterations=np.arange(1, len(objectives) + 1),
        objectives=np.asarray(objectives),
        grad_inf_norms=np.asarray(grad_inf_norms),
        converged=converged,
    )


def train(model: HBFModel, data: TrainingSet, config: TrainConfig):
    """Joint gradient descent on coefficients and centers.

    c <- c - omega dH/dc + eta, t <- t - omega dH/dt + mu, with zero-mean
    Gaussian noise whose amplitude decays as 1/iteration. Stops at
    max_iters or when the sup-norm of the active gradient falls below
    grad_tol. Deterministic given the seed. Raises DivergenceDetected when
    the objective is not finite or exceeds 1e6 times its initial value.
    """
    rng = np.random.default_rng(config.seed)
    c = model.coeffs.copy()
    t = model.centers.copy()
    cur = replace(model, centers=t, coeffs=c)

    objs, gnorms = [], []
    h0 = objective(cur, data)
    converged = False
    for it in range(1, config.max_iters + 1):
        _, Phi, delta = _forward(cur, data)
        gc = -2.0 * (Phi.T @ delta)
        parts = []
        if config.update_coeffs:
            parts.append(np.max(np.abs(gc)))
        if config.update_centers:
            gt = grad_centers(cur, data)
            parts.append(np.max(np.abs(gt)))
        gnorm = float(max(parts)) if parts else 0.0
        h = float(delta @ delta)

        objs.append(h)
        gnorms.append(gnorm)

        if not math.isfinite(h):
            raise DivergenceDetected(f"objective {h} at iteration {it}")
        if h > 1e6 * max(h0, 1e-300):
            raise DivergenceDetected(
                f"objective {h:.3e} exceeded 1e6 x initial {h0:.3e}"
            )
        if gnorm < config.grad_tol:
            converged = True
            break

        amp = config.noise_amplitude / it
        if config.update_coeffs:
            c = c - config.omega * gc
            if amp > 0:
                c = c + amp * rng.standard_normal(c.shape)
        if config.update_centers:
            t = t - config.omega * gt
            if amp > 0:
                t = t + amp * rng.standard_normal(t.shape)
        cur = replace(cur, centers=t, coeffs=c)

        if config.resolve_every > 0 and it % config.resolve_every == 0:
            c = solve_coeffs(cur, data).coeffs
            cur = replace(cur, coeffs=c)

    return cur, _trace(objs, gnorms, converged)


# refine_centers: iteration cap, Armijo constant, smallest backtracked step,
# and the relative change in H below which H is taken as flat (within rounding).
_REFINE_MAX_ITERS = 500
_ARMIJO_C1 = 1e-4
_MIN_STEP = 1e-12
_FLAT_REL = 1e-13


def refine_centers(model: HBFModel, data: TrainingSet, grad_tol: float):
    """Move the centers alone to a stationary point of H by BFGS.

    Coefficients, sigma and lam are left as they are. Each evaluation takes
    H from `objective` and dH/dt from `grad_centers`; the inverse Hessian
    of the flattened centers gets the BFGS update (Nocedal & Wright eq. 6.17),
    starting from the identity scaled by s^T y / y^T y after the first step
    (eq. 6.20), and skipped when s^T y <= 0. A backtracked step is taken if
    it meets the Armijo condition or, once H is flat to rounding, if it
    lowers sup|dH/dt|. Stops with converged=True when sup|dH/dt| < grad_tol;
    a backtrack below the smallest step, a step that leaves the centers
    unchanged, or the iteration cap stops it with converged=False, keeping
    the last accepted centers. Returns (model, TrainTrace) as `train` does.
    Raises DivergenceDetected when the starting objective is not finite.
    """
    _finite("grad_tol", grad_tol, 0.0)
    shape = model.centers.shape

    def evaluate(x):
        cur = replace(model, centers=x.reshape(shape))
        return cur, objective(cur, data), grad_centers(cur, data).ravel()

    cur, h, g = evaluate(model.centers.ravel())
    if not math.isfinite(h):
        raise DivergenceDetected(f"objective {h} at the starting centers")
    x = cur.centers.ravel()
    inv_hess = None  # identity until the first curvature pair
    objs, gnorms = [], []
    converged = False
    for _ in range(_REFINE_MAX_ITERS):
        gnorm = float(np.max(np.abs(g)))
        objs.append(h)
        gnorms.append(gnorm)
        if gnorm < grad_tol:
            converged = True
            break

        p = -g if inv_hess is None else -(inv_hess @ g)
        slope = float(g @ p)
        if slope >= 0:  # not a descent direction: fall back to steepest descent
            p, slope = -g, -float(g @ g)
        step = 1.0
        while step >= _MIN_STEP:
            x2 = x + step * p
            nxt, h2, g2 = evaluate(x2)
            if h2 <= h + _ARMIJO_C1 * step * slope or (
                abs(h2 - h) <= _FLAT_REL * abs(h) and np.max(np.abs(g2)) < gnorm
            ):
                break
            step *= 0.5
        else:
            break  # no acceptable step down to the smallest one

        s, y = x2 - x, g2 - g
        if not np.any(s):  # the step is below rounding of the centers
            break
        sy = float(s @ y)
        if sy > 0:
            if inv_hess is None:
                inv_hess = (sy / float(y @ y)) * np.eye(s.size)
            rho = 1.0 / sy
            v = np.eye(s.size) - rho * np.outer(s, y)
            inv_hess = v @ inv_hess @ v.T + rho * np.outer(s, s)
        cur, x, h, g = nxt, x2, h2, g2

    return cur, _trace(objs, gnorms, converged)


@dataclass(frozen=True)
class FixedPointReport:
    """Deviation of the centers from their weighted-mean stationarity form."""

    residual: float
    skipped: tuple = ()  # center indices with degenerate denominators


def center_fixed_point_residual(
    model: HBFModel, data: TrainingSet, denom_tol: float = 1e-12
) -> FixedPointReport:
    """Stationary centers satisfy t_a = sum_i P_i^a x_i / sum_i P_i^a.

    P_i^a = Delta_i G'(||x_i - t_a||^2). Centers whose denominator is below
    denom_tol in magnitude are skipped and reported.
    """
    P = _center_weights(model, data)
    denom = P.sum(axis=0)
    skipped = []
    worst = 0.0
    for a in range(model.n):
        if abs(denom[a]) <= denom_tol:
            skipped.append(a)
            continue
        t_hat = (P[:, a] @ data.inputs) / denom[a]
        worst = max(worst, float(np.max(np.abs(model.centers[a] - t_hat))))
    return FixedPointReport(residual=worst, skipped=tuple(skipped))


@dataclass(frozen=True)
class CapacityReport:
    ratio: float
    ok: bool


def check_capacity(N: int, n: int, d: int, threshold: float = 5.0) -> CapacityReport:
    """Examples-per-parameter ratio N / (n + n d); passes at >= threshold."""
    for name, v in (("N", N), ("n", n), ("d", d)):
        _index(name, v, 1)
    _finite("threshold", threshold)
    ratio = N / (n + n * d)
    return CapacityReport(ratio=float(ratio), ok=ratio >= threshold)


def model_to_json(model: HBFModel) -> str:
    return json.dumps(
        {
            "d": model.d,
            "n": model.n,
            "sigma": model.sigma,
            "lambda": model.lam,
            "centers": model.centers.tolist(),
            "coeffs": model.coeffs.tolist(),
        }
    )


def model_from_json(text: str) -> HBFModel:
    doc = json.loads(text)
    return HBFModel(
        centers=np.asarray(doc["centers"], dtype=float),
        coeffs=np.asarray(doc["coeffs"], dtype=float),
        sigma=float(doc["sigma"]),
        lam=float(doc["lambda"]),
    )
