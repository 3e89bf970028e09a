"""Simple-cell responses, pooling operators, and layered feature maps.

A layer holds a set of unit-norm templates, a bias grid, a finite group,
and a pooling operator. Its forward pass computes, for every (template,
bias) pair, the pooled value of the rectified dot products of the input
with all group-transformed copies of the template. Signature ordering is
template-major, bias-minor, and is part of the external contract.
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
from .signals import FiniteGroup, Signal, apply, cyclic_group

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


def mex(values, xi: float) -> float:
    """Log-mean-exp aggregation: (1/xi) * log(mean(exp(xi * v))).

    Interpolates min -> mean -> max as xi runs over the reals. Centred on
    c = max(v) for xi > 0 and min(v) otherwise, it is c + log1p(m) / xi with
    m = mean(expm1(xi * (v - c))) in (-1, 0]; below m = -1/2, where the expm1
    sum cancels, log(1 + m) is taken from the exp sum. Its limits, the centred
    mean (|xi| * (max - min) below rounding) and c (xi = +-inf), join it to
    within rounding.
    """
    if xi != xi:  # NaN; a bare comparison, as mex runs once per pooled row
        raise InvalidArgument("mex xi must not be NaN")
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise EmptyPool("mex over empty values")
    hi, lo = float(v.max()), float(v.min())
    c = hi if xi > 0 else lo
    if math.isinf(xi) or not math.isfinite(c):  # a NaN value gives NaN
        return c
    d = v - c
    if xi == 0 or abs(xi) * (hi - lo) <= _EPS:
        return c + float(d.sum()) / v.size
    d *= xi
    m = float(np.expm1(d).sum()) / v.size
    if m > -0.5:
        return c + math.log1p(m) / xi
    return c + math.log(float(np.exp(d, out=d).sum()) / v.size) / xi


def softmax_pool(values, n: int) -> float:
    """Ratio pooling sum(v^n) / sum((1+v)^(n-1)) with a shared denominator."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise EmptyPool("softmax over empty values")
    denom = float(np.sum((1.0 + v) ** (n - 1)))
    if denom < 1e-300:
        raise SoftMaxDenominatorZero("softmax denominator underflowed")
    return float(np.sum(v**n) / denom)


def pool(values, spec: PoolingSpec) -> float:
    """Aggregate a nonempty list of responses according to the pooling spec."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise EmptyPool("pool over empty values")
    if spec.kind == "sum":
        return float(np.sum(v))
    if spec.kind == "max":
        return float(np.max(v))
    if spec.kind == "mean":
        return float(np.mean(v))
    if spec.kind == "softmax":
        return softmax_pool(v, spec.n)
    return mex(v, spec.xi)


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
        object.__setattr__(self, "biases", tuple(float(b) for b in self.biases))
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

    Accepts a Signal or a plain vector (for unnormalized between-layer
    signatures).
    """
    xv = np.asarray(x, dtype=float)
    if xv.size != layer.input_dim:
        raise DimensionMismatch(
            f"input dim {xv.size} != layer dim {layer.input_dim}"
        )
    # (T, |G|): row k holds <g t_k, x> over g; gathered rows are the g t_k
    dots = np.stack([t.values[layer.group.elements] @ xv for t in layer.templates])
    if layer.pooling.kind == "softmax":
        # softmax takes no bias, so each template's row repeats once per bias
        s = dots if layer.softmax_raw else np.maximum(dots, 0.0)
        rows = np.repeat(s, len(layer.biases), axis=0)
    else:
        b = np.asarray(layer.biases)
        rows = np.maximum(dots[:, None, :] + b[:, None], 0.0).reshape(-1, dots.shape[1])
    return np.array([pool(r, layer.pooling) for r in rows])


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
    """Sequential forward pass; the final signature is returned unnormalized."""
    sig = None
    cur = x
    for i, layer in enumerate(net.layers):
        sig = layer_forward(cur, layer)
        if i + 1 < len(net.layers):
            if net.renormalize_between_layers:
                norm = np.linalg.norm(sig)
                if norm < 1e-300:
                    raise ZeroSignature(f"layer {i} produced a zero signature")
                cur = sig / norm
            else:
                cur = sig
    return sig


def invariance_gap(x: Signal, layer: HWLayer) -> float:
    """Worst-case signature change under the layer's own group.

    max over g of the sup-norm difference between the signatures of g x
    and x; zero (to rounding) whenever pooling runs over the full group.
    """
    base = layer_forward(x, layer)
    gap = 0.0
    for g in layer.group:
        shifted = layer_forward(apply(g, x), layer)
        gap = max(gap, float(np.max(np.abs(shifted - base))))
    return gap


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
    d = int(doc["dim"])
    p = doc.get("pooling", {})
    spec = PoolingSpec(
        kind=p.get("kind", "sum"),
        n=int(p.get("n", 1)),
        xi=float(p.get("xi", 0.0)),
    )
    return HWLayer(
        templates=tuple(Signal(np.asarray(t, dtype=float)) for t in doc["templates"]),
        biases=tuple(doc["biases"]),
        group=cyclic_group(d),
        pooling=spec,
    )
