"""Simple-cell responses, pooling operators, and layered feature maps.

A layer holds a set of unit-norm templates, a bias grid, a finite group,
and a pooling operator. Its forward pass computes, for every (template,
bias) pair, the pooled value of the rectified dot products of the input
with all group-transformed copies of the template. Signature ordering is
template-major, bias-minor, and is part of the external contract. Pooling
reduces over the last axis, so a forward takes one signal or a block of
signals, one per row, and gives each row the signature it gets alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyPool,
    InvalidArgument,
    SoftMaxDenominatorZero,
    ZeroSignature,
    _finite,
    _index,
)
from .signals import FiniteGroup, Signal, cyclic_group

_EPS = np.finfo(float).eps

POOL_KINDS = ("sum", "max", "mean", "softmax", "mex")


@dataclass(frozen=True)
class PoolingSpec:
    """Which aggregation runs over the group-transformed responses.

    kind: one of sum | max | mean | softmax | mex.
    n: soft-max order (softmax only), integer >= 1.
    xi: sharpness of the log-mean-exp pool (mex only); xi = 0 means mean.
    """

    kind: str
    n: int = 1
    xi: float = 0.0

    def __post_init__(self):
        if self.kind not in POOL_KINDS:
            raise InvalidArgument(f"unknown pooling kind {self.kind!r}")
        if self.kind == "softmax":
            _index("softmax order n", self.n, 1)
        if self.kind == "mex":
            _finite("mex xi", self.xi)


_REALS = (float, int, np.floating, np.integer)


def _rows(values, what: str) -> np.ndarray:
    """values as a C-ordered float array whose last axis is nonempty."""
    v = np.asarray(values, dtype=float, order="C")
    if v.ndim == 0:
        v = v.reshape(1)
    if v.shape[-1] == 0:
        raise EmptyPool(f"{what} over empty values")
    return v


def _all(mask) -> bool:
    """mask.all(); a single row's numpy bool skips the cost of a numpy reduction."""
    return bool(mask.all()) if mask.ndim else bool(mask)


def _row_result(v, r):
    """A float for a 1-D input, else the array of row results."""
    return float(r) if v.ndim == 1 else r


def mex(values, xi: float):
    """Log-mean-exp aggregation over the last axis: (1/xi) * log(mean(exp(xi * v))).

    Interpolates min -> mean -> max as xi runs over the reals. Centred on
    c = max(v) for xi > 0 and min(v) otherwise, it is c + log1p(m) / xi with
    m = mean(expm1(xi * (v - c))) in (-1, 0]; below m = -1/2, where the expm1
    sum cancels, log(1 + m) is taken from the exp sum. Its limits, the centred
    mean (|xi| * (max - min) below rounding) and c (xi = +-inf), join it to
    within rounding. A 1-D input gives a float, a higher-rank one an array
    with one value per row; each row's value does not depend on the others.
    """
    if isinstance(xi, bool) or not isinstance(xi, _REALS) or xi != xi:
        raise InvalidArgument(f"mex xi must be a real number other than NaN, not {xi!r}")
    v = _rows(values, "mex")
    return _row_result(v, _mex(v, xi))


def _mex(v: np.ndarray, xi):
    """mex over the last axis of v; numpy scalars for a 1-D v."""
    c = v.max(axis=-1) if xi > 0 else v.min(axis=-1)
    if math.isinf(xi):
        return c
    finite = abs(c) < math.inf
    if not _all(finite):
        # A row with an infinite or NaN centre gives c. The other rows are
        # computed with those rows zeroed, so that no inf - inf arises.
        return np.where(finite, _mex(np.where(finite[..., None], v, 0.0), xi), c)
    n = v.shape[-1]
    col = c[..., None] if v.ndim > 1 else c  # c against every value of its row
    if xi:
        e = v - col
        e *= xi
        m = np.expm1(e, out=e).sum(axis=-1) / n  # in (-1, 0]; >= -eps on a flat row
        if _all((m > -0.5) & (m < -_EPS)):
            return c + np.log1p(m) / xi
    # Rare rows. A row flat to rounding, |xi| * (max - min) <= eps (every row
    # at xi = 0), takes the centred mean. Where m <= -1/2 the expm1 sum
    # cancels, and log(1 + m) comes from the exp sum instead.
    d = v - col
    mean = c + d.sum(axis=-1) / n
    if not xi:
        return mean
    far = v.min(axis=-1) if xi > 0 else v.max(axis=-1)
    flat = abs(xi) * abs(c - far) <= _EPS
    if _all(flat):
        return mean
    d *= xi
    log1p_m = np.where(m > -0.5, np.log1p(m), np.log(np.exp(d, out=d).sum(axis=-1) / n))
    return np.where(flat, mean, c + log1p_m / xi)


def softmax_pool(values, n: int):
    """Ratio pooling sum(v^n) / sum((1+v)^(n-1)) over the last axis, row by row."""
    v = _rows(values, "softmax")
    denom = ((1.0 + v) ** (n - 1)).sum(axis=-1)
    if (denom < 1e-300).any():
        raise SoftMaxDenominatorZero("softmax denominator underflowed")
    return _row_result(v, (v**n).sum(axis=-1) / denom)


def pool(values, spec: PoolingSpec):
    """Aggregate nonempty responses over the last axis according to the spec.

    A 1-D input gives a float; an array of rows gives one value per row.
    """
    if spec.kind == "softmax":
        return softmax_pool(values, spec.n)
    if spec.kind == "mex":
        return mex(values, spec.xi)
    v = _rows(values, "pool")
    if spec.kind == "sum":
        return _row_result(v, v.sum(axis=-1))
    if spec.kind == "max":
        return _row_result(v, v.max(axis=-1))
    return _row_result(v, v.mean(axis=-1))


@dataclass(frozen=True)
class HWLayer:
    """Templates + biases + group + pooling: one convolution-and-pool layer.

    softmax pooling consumes rectified dot products without bias (the raw
    expression is sign-ambiguous for odd orders); set ``softmax_raw`` to
    feed the raw dot products instead. Raw mode carries no invariance or
    kernel claims.
    """

    templates: tuple
    biases: tuple
    group: FiniteGroup
    pooling: PoolingSpec
    softmax_raw: bool = False

    def __post_init__(self):
        object.__setattr__(self, "templates", tuple(self.templates))
        biases = tuple(self.biases)
        for b in biases:
            _finite("bias", b)
        object.__setattr__(self, "biases", tuple(map(float, biases)))
        if not self.templates or not self.biases:
            raise InvalidArgument("layer needs at least one template and one bias")
        for t in self.templates:
            if t.dim != self.group.dim:
                raise DimensionMismatch("template dim differs from group dim")

    @property
    def input_dim(self) -> int:
        return self.group.dim

    @property
    def output_dim(self) -> int:
        return len(self.templates) * len(self.biases)


def layer_forward(x, layer: HWLayer) -> np.ndarray:
    """Pooled signature of x: one value per (template, bias), template-major.

    x is one signal (a Signal, or a plain vector for unnormalized
    between-layer signatures) or an (m, d) block of them, one per row. A
    block gives an (m, T*B) array whose row i is the signature of row i.
    """
    xv = np.asarray(x, dtype=float)
    if xv.ndim not in (1, 2) or xv.shape[-1] != layer.input_dim:
        raise DimensionMismatch(
            f"input shape {xv.shape} does not end in the layer dim {layer.input_dim}"
        )
    spec = layer.pooling
    b = np.reshape(layer.biases, (-1,) + (1,) * xv.ndim)
    cols = []
    for t in layer.templates:
        gt = t.values[layer.group.elements]  # row g holds g t
        # (..., |G|): <g t, x> over g, for each row of x
        dots = gt @ xv if xv.ndim == 1 else xv @ gt.T
        if spec.kind == "softmax":
            # softmax takes no bias, so each template's row is pooled once per bias
            s = dots if layer.softmax_raw else np.maximum(dots, 0.0)
            cols += [pool(s, spec) for _ in b]
        else:
            rows = dots + b  # (B, ..., |G|)
            cols += [pool(r, spec) for r in np.maximum(rows, 0.0, out=rows)]
    return np.array(cols).T


@dataclass(frozen=True)
class HWNetwork:
    """A stack of layers; signatures are renormalized between layers by default."""

    layers: tuple
    renormalize_between_layers: bool = True

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.output_dim != nxt.input_dim:
                raise DimensionMismatch(
                    f"layer output dim {prev.output_dim} != next input dim "
                    f"{nxt.input_dim}"
                )


def network_forward(x, net: HWNetwork) -> np.ndarray:
    """Sequential forward pass; the final signature is returned unnormalized.

    x is one signal or an (m, d) block; between layers every row is
    renormalized on its own.
    """
    sig = None
    cur = x
    for i, layer in enumerate(net.layers):
        sig = layer_forward(cur, layer)
        if i + 1 < len(net.layers):
            if net.renormalize_between_layers:
                norm = np.linalg.norm(sig, axis=-1, keepdims=True)
                if (norm < 1e-300).any():
                    raise ZeroSignature(f"layer {i} produced a zero signature")
                cur = sig / norm
            else:
                cur = sig
    return sig


def invariance_gap(x: Signal, layer: HWLayer) -> float:
    """Worst-case signature change under the layer's own group.

    max over g of the sup-norm difference between the signatures of g x
    and x, from one forward over the orbit block whose row g is g x; zero
    (to rounding) whenever pooling runs over the full group.
    """
    G = layer.group
    xv = np.asarray(x, dtype=float)
    if xv.shape != (G.dim,):
        raise DimensionMismatch(f"input shape {xv.shape} != ({G.dim},)")
    sig = layer_forward(xv[G.elements], layer)
    return float(np.max(np.abs(sig - sig[G.identity_index])))


def layer_to_json(layer: HWLayer) -> str:
    """Serialize a cyclic-group layer to the documented JSON schema."""
    doc = {
        "dim": layer.input_dim,
        "group": "cyclic",
        "templates": [t.values.tolist() for t in layer.templates],
        "biases": list(layer.biases),
        "pooling": {"kind": layer.pooling.kind},
    }
    if layer.pooling.kind == "softmax":
        doc["pooling"]["n"] = layer.pooling.n
    if layer.pooling.kind == "mex":
        doc["pooling"]["xi"] = layer.pooling.xi
    return json.dumps(doc)


def layer_from_json(text: str) -> HWLayer:
    """Inverse of layer_to_json. Only the cyclic group is supported."""
    doc = json.loads(text)
    if doc.get("group") != "cyclic":
        raise InvalidArgument(f"unsupported group {doc.get('group')!r}")
    d = _index("dim", doc["dim"], 1)
    p = doc.get("pooling", {})
    xi = p.get("xi", 0.0)
    _finite("mex xi", xi)
    spec = PoolingSpec(
        kind=p.get("kind", "sum"),
        n=_index("softmax order n", p.get("n", 1), 1),
        xi=float(xi),
    )
    return HWLayer(
        templates=tuple(Signal(np.asarray(t, dtype=float)) for t in doc["templates"]),
        biases=tuple(doc["biases"]),
        group=cyclic_group(d),
        pooling=spec,
    )
