"""Ceilings on the work that the kernel and pooling primitives do.

Call counts are exact and repeat from run to run, unlike timings on a
shared host, so a change that brings back a per-pair or per-row call
pattern fails here. Counts come from module attributes replaced with
``monkeypatch``; sizes are small so that the file runs in well under a
second.
"""

import numpy as np
import pytest

from invarkit import kernels, pooling
from invarkit.kernels import TemplateSampler, gram, k0_mc, ktilde_mc
from invarkit.signals import cyclic_group, normalize


def _counter(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _points(m, d, seed):
    rng = np.random.default_rng(seed)
    return [normalize(rng.standard_normal(d)) for _ in range(m)]


@pytest.mark.parametrize("group", [None, cyclic_group(4)])
def test_features_calls_per_gram_at_most_one_per_point(monkeypatch, group):
    m = 6
    pts = _points(m, 4, seed=1)
    sampler = TemplateSampler(seed=11)
    TemplateSampler(seed=12).draw(4, 64)  # start from another retained draw
    calls = _counter(monkeypatch, kernels, "features")
    if group is None:
        gram(pts, lambda a, b: k0_mc(a, b, sampler, 64).value)
    else:
        gram(pts, lambda a, b: ktilde_mc(a, b, group, sampler, 64).value)
    assert len(calls) <= m  # pair by pair it was m * m


def test_one_draw_per_features_call(monkeypatch):
    pts = _points(5, 4, seed=2)
    draws = _counter(monkeypatch, TemplateSampler, "draw")
    kernels.features(pts, TemplateSampler(seed=13), 64, cyclic_group(4))
    assert len(draws) == 1


def test_one_layer_forward_per_invariance_gap(monkeypatch):
    d = 6
    t, x = _points(2, d, seed=3)
    layer = pooling.HWLayer((t,), (0.0, 0.2), cyclic_group(d), pooling.PoolingSpec("max"))
    calls = _counter(monkeypatch, pooling, "layer_forward")
    pooling.invariance_gap(x, layer)
    assert len(calls) == 1
