"""Unit-norm signals, finite permutation groups, and orbits.

Signals live on the unit sphere; group elements are permutations of the
coordinate indices, so every action preserves the Euclidean norm exactly.
Groups are stored as explicit element lists, which turns the group averages
used elsewhere into exact finite sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, ZeroVector, _index

_NORM_TOL = 1e-12


def _by_constructor(obj):
    """__reduce__ that rebuilds obj from its fields through its constructor.

    A pickled or copied object is then checked again, and its arrays are
    read-only again; restoring the instance dict would leave them writeable.
    """
    return type(obj), tuple(getattr(obj, f.name) for f in fields(obj) if f.init)


@dataclass(frozen=True)
class Signal:
    """A real vector of unit Euclidean norm."""

    values: np.ndarray
    __reduce__ = _by_constructor

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v = v.copy() if v is self.values else v  # read-only, but not the caller's
        object.__setattr__(self, "values", _unit_values(v))

    @property
    def dim(self) -> int:
        return self.values.size

    def __array__(self, dtype=None):
        return np.asarray(self.values, dtype=dtype)


def _unit_values(v: np.ndarray) -> np.ndarray:
    """v, a float array no caller holds, checked for unit norm and made read-only."""
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatch("signal must be a 1-d vector with d >= 1")
    # written as "inside the tolerance" so that a NaN entry fails too
    if not abs(np.linalg.norm(v) - 1.0) <= _NORM_TOL:
        raise InvalidArgument("signal is not unit-norm; use normalize()")
    v.setflags(write=False)
    return v


def _fresh_signal(v: np.ndarray) -> Signal:
    """A Signal on v, a float array made here for it, without the constructor's copy."""
    x = object.__new__(Signal)
    object.__setattr__(x, "values", _unit_values(v))
    return x


def normalize(v) -> Signal:
    """Scale a vector to unit norm.

    Raises ZeroVector for degenerate inputs.
    """
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-300:
        raise ZeroVector("cannot normalize a zero vector")
    return _fresh_signal(v / n)


@dataclass(frozen=True)
class FiniteGroup:
    """An explicit finite group of coordinate permutations.

    ``elements[k]`` is a permutation array ``p`` acting on a vector ``x`` as
    ``(g x)[j] = x[p[j]]``. Every row must be an integer permutation of
    ``range(d)``, and ``identity_index`` is the first row equal to
    ``arange(d)``; elements that break either rule raise InvalidArgument.
    """

    elements: np.ndarray  # (order, d) int array
    identity_index: int = field(init=False)
    __reduce__ = _by_constructor

    def __post_init__(self):
        try:
            e = np.asarray(self.elements)
        except ValueError as exc:  # ragged nesting
            raise InvalidArgument("elements must be an (order, d) integer array") from exc
        if e.ndim != 2:
            raise DimensionMismatch("elements must be an (order, d) array")
        if e.dtype.kind not in "iu":
            raise InvalidArgument(f"elements must be integers, not {e.dtype} values")
        e = e.astype(np.intp, copy=False)
        e = e.copy() if e is self.elements else e  # read-only, but not the caller's
        idx = np.arange(e.shape[1])
        if not (np.sort(e, axis=1) == idx).all():
            raise InvalidArgument("every element must be a permutation of range(d)")
        is_identity = (e == idx).all(axis=1)
        if not is_identity.any():
            raise InvalidArgument("elements hold no identity row arange(d)")
        e.setflags(write=False)
        object.__setattr__(self, "elements", e)
        object.__setattr__(self, "identity_index", int(is_identity.argmax()))

    @property
    def order(self) -> int:
        return self.elements.shape[0]

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def __iter__(self):
        return iter(self.elements)


@dataclass(frozen=True)
class Orbit:
    """The set {g x : g in G}, one member per group element."""

    representative: Signal
    members: list = field(default_factory=list)


def cyclic_group(d: int) -> FiniteGroup:
    """The d circular shifts of coordinates; shift k maps index i to (i+k) mod d."""
    _index("d", d, 1, error=DimensionMismatch)
    idx = np.arange(d)
    elements = np.stack([(idx - k) % d for k in range(d)])
    return FiniteGroup(elements=elements)


def apply(g: np.ndarray, x: Signal) -> Signal:
    """Apply one group element (a permutation array) to a signal."""
    g = np.asarray(g, dtype=np.intp)
    if g.size != x.dim:
        raise DimensionMismatch(f"element dim {g.size} != signal dim {x.dim}")
    return _fresh_signal(x.values[g])


def orbit(G: FiniteGroup, x: Signal) -> Orbit:
    """Assemble the full orbit of x under G (duplicates allowed)."""
    if G.dim != x.dim:
        raise DimensionMismatch(f"group dim {G.dim} != signal dim {x.dim}")
    return Orbit(representative=x, members=[apply(g, x) for g in G])
