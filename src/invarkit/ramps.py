"""Ramp-combination constructions: abs identity, step and hat shapes, fitting.

A ramp unit is c * |sign * s + b|_+. Pairs of opposite-sign ramps at a
shared breakpoint span absolute values and affine pieces, so combinations
reproduce steps, triangular bumps, and least-squares fits of smooth targets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import SingularDesign


def abs_identity(s):
    """|s| written as the two-ramp combination |s|_+ + |-s|_+."""
    s = np.asarray(s, dtype=float)
    out = np.maximum(s, 0.0) + np.maximum(-s, 0.0)
    return float(out) if out.ndim == 0 else out


def step_approx(s, alpha: float):
    """Sigmoid-like step from two ramps: alpha * (|s|_+ - |s - 1/alpha|_+).

    0 for s <= 0, linear on (0, 1/alpha), 1 beyond.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    s = np.asarray(s, dtype=float)
    out = alpha * (np.maximum(s, 0.0) - np.maximum(s - 1.0 / alpha, 0.0))
    return float(out) if out.ndim == 0 else out


def hat_via_ramps(s, w: float):
    """Triangular bump as a second difference of ramps.

    (1/w) * (|s+w|_+ - 2|s|_+ + |s-w|_+): zero outside [-w, w], peak 1 at 0.
    """
    if not w > 0:
        raise ValueError("half-width w must be positive")
    s = np.asarray(s, dtype=float)
    out = (
        np.maximum(s + w, 0.0) - 2.0 * np.maximum(s, 0.0) + np.maximum(s - w, 0.0)
    ) / w
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class RampCombination:
    """A finite combination s -> sum_i c_i * |sign_i * s + b_i|_+."""

    units: tuple  # of (coefficient, bias, sign)

    def __post_init__(self):
        if not self.units:
            raise ValueError("need at least one unit")
        object.__setattr__(
            self,
            "units",
            tuple((float(c), float(b), int(sg)) for c, b, sg in self.units),
        )

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for c, b, sg in self.units:
            out += c * np.maximum(sg * s + b, 0.0)
        return float(out) if out.ndim == 0 else out

    def breakpoints(self):
        return tuple(-sg * b for _, b, sg in self.units)

    def to_json(self, grid=None, sup_error=None) -> str:
        doc = {"units": [{"c": c, "b": b, "sign": sg} for c, b, sg in self.units]}
        if grid is not None:
            doc["grid"] = list(grid)
        if sup_error is not None:
            doc["sup_error"] = sup_error
        return json.dumps(doc)


def _ramp_basis(k: int, lo: float, hi: float):
    """k units with evenly spaced interior breakpoints, full column rank.

    k-1 breakpoints strictly inside (lo, hi) (k=1: just the midpoint). The
    first breakpoint carries ramps of both signs, which span the absolute
    value and the linear part; every further breakpoint adds one ascending
    hinge. Opposite-sign pairs at every breakpoint would duplicate the
    affine span and make the design singular.
    """
    if k == 1:
        return [((lo + hi) / 2.0, +1)]
    pairs = 2 if k >= 4 else 1
    m = k - pairs
    bps = np.linspace(lo, hi, m + 2)[1:-1]
    units = [(bps[0], +1), (bps[0], -1)]
    units.extend((beta, +1) for beta in bps[1:])
    if pairs == 2:
        units.append((bps[-1], -1))
    return units


def fit_ramp_combination(target, grid, k: int):
    """Least-squares fit of a scalar target by k ramp units on a grid.

    grid is (lo, hi, n_points) with n_points >= 10 k. Breakpoints are fixed
    and evenly spaced; only the coefficients are solved for. Returns the
    fitted combination and the sup deviation on the grid.
    """
    lo, hi, n_points = grid
    if not (lo < hi):
        raise ValueError("grid must satisfy lo < hi")
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_points < 10 * k:
        raise ValueError("n_points must be at least 10 k")

    s = np.linspace(lo, hi, int(n_points))
    y = np.asarray([target(v) for v in s], dtype=float)

    layout = _ramp_basis(k, lo, hi)
    A = np.empty((s.size, k))
    for col, (beta, sg) in enumerate(layout):
        A[:, col] = np.maximum(sg * (s - beta), 0.0)

    coeffs, _, rank, sv = np.linalg.lstsq(A, y, rcond=None)
    if rank < k or sv[-1] < 1e-10 * sv[0]:
        raise SingularDesign("ramp design matrix is rank-deficient")

    units = tuple(
        (c, -sg * beta, sg) for c, (beta, sg) in zip(coeffs, layout)
    )
    combo = RampCombination(units=units)
    sup_error = float(np.max(np.abs(combo(s) - y)))
    return combo, sup_error
