import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from invarkit.errors import DimensionMismatch, EmptyPool, ZeroSignature
from invarkit.pooling import (
    HWLayer,
    HWNetwork,
    PoolingSpec,
    invariance_gap,
    layer_forward,
    layer_from_json,
    layer_to_json,
    mex,
    network_forward,
    pool,
)
from invarkit.signals import FiniteGroup, apply, cyclic_group, normalize


class TestPool:
    def test_softmax_order_two(self):
        # (1^2 + 0^2) / ((1+1)^1 + (1+0)^1) = 1/3
        assert pool([1.0, 0.0], PoolingSpec("softmax", n=2)) == pytest.approx(1 / 3)

    def test_softmax_order_one_is_scaled_sum(self):
        vals = [0.2, 0.7, 0.1]
        assert pool(vals, PoolingSpec("softmax", n=1)) == pytest.approx(
            sum(vals) / len(vals), abs=0
        )

    def test_mex_xi_one(self):
        assert pool([0.0, 1.0], PoolingSpec("mex", xi=1.0)) == pytest.approx(
            np.log((1 + np.e) / 2), abs=1e-12
        )

    def test_mex_small_xi_is_mean(self):
        assert pool([1.0, 2.0, 3.0], PoolingSpec("mex", xi=1e-6)) == pytest.approx(
            2.0, abs=1e-5
        )

    def test_mex_large_xi_near_max(self):
        v = [1.0, 2.0, 3.0, 4.0]
        assert abs(pool(v, PoolingSpec("mex", xi=100.0)) - 4.0) <= np.log(4) / 100 + 1e-12

    def test_mex_xi_zero_is_mean(self):
        assert pool([1.0, 5.0], PoolingSpec("mex", xi=0.0)) == pytest.approx(3.0)

    def test_empty_raises(self):
        with pytest.raises(EmptyPool):
            pool([], PoolingSpec("sum"))

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=12),
        st.floats(-100, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_mex_bounded_by_min_max(self, values, xi):
        m = mex(values, xi)
        assert min(values) - 1e-9 <= m <= max(values) + 1e-9

    @given(st.lists(st.floats(-20, 20), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_mex_monotone_in_xi(self, values):
        xis = [-50.0, -5.0, -0.5, 0.0, 0.5, 5.0, 50.0]
        vals = [mex(values, xi) for xi in xis]
        for a, b in zip(vals, vals[1:]):
            assert a <= b + 1e-12


def _mex_reference(values, xi):
    """mex as evaluated through scipy.special.logsumexp."""
    v = np.asarray(values, dtype=float)
    if abs(xi) < 1e-9:
        return float(np.mean(v))
    if xi > 1e6:
        return float(np.max(v))
    if xi < -1e6:
        return float(np.min(v))
    return float((logsumexp(xi * v) - np.log(v.size)) / xi)


# Values with ties and rectified zeros, and xi of both signs around the
# mean (1e-9) and max/min (1e6) dispatch thresholds.
_POOLED = st.one_of(st.sampled_from([0.0, 0.25, 1.0, -0.5]), st.floats(-50, 50))
_XI = st.one_of(
    st.floats(-100, 100),
    st.floats(5e-10, 2e-8),
    st.floats(-2e-8, -5e-10),
    st.floats(1e5, 1.1e6),
    st.floats(-1.1e6, -1e5),
    st.sampled_from([1e-9, -1e-9, 1e6, -1e6, np.nextafter(1e6, 0), 1.0]),
)


class TestMexMatchesLogsumexp:
    @given(st.lists(_POOLED, min_size=1, max_size=70), _XI)
    @settings(max_examples=500, deadline=None)
    def test_bit_identical(self, values, xi):
        assert mex(values, xi) == _mex_reference(values, xi)

    @pytest.mark.parametrize(
        "values",
        [[np.inf, 1.0], [-np.inf, -np.inf], [np.nan, 1.0], [1e308, 1e308],
         [np.inf, -np.inf], [-1e308, 0.0]],
    )
    @pytest.mark.parametrize("xi", [1.0, -2.0, 1e5])
    def test_non_finite_like_logsumexp(self, values, xi):
        with np.errstate(all="ignore"):
            expected = _mex_reference(values, xi)
            actual = mex(values, xi)
        assert np.array_equal(actual, expected, equal_nan=True)


def _single_template_layer(spec, d=2, bias=0.0):
    return HWLayer(
        templates=(normalize([1.0] + [0.0] * (d - 1)),),
        biases=(bias,),
        group=cyclic_group(d),
        pooling=spec,
    )


def _identity_layer(t, b):
    """One template, one bias, identity-only group: the non-pooling layer."""
    return HWLayer(
        templates=(t,),
        biases=(b,),
        group=FiniteGroup(np.arange(t.dim)[None]),
        pooling=PoolingSpec("sum"),
    )


class TestLayerForward:
    # With the identity as its only group element, a layer returns the
    # rectified template match max(<x, t> + b, 0).
    def test_aligned(self):
        layer = _identity_layer(normalize([1.0, 0.0]), 0.0)
        assert layer_forward(normalize([1.0, 0.0]), layer)[0] == pytest.approx(1.0)

    def test_rectified_negative(self):
        layer = _identity_layer(normalize([1.0, 0.0]), -0.5)
        assert layer_forward(normalize([0.0, 1.0]), layer)[0] == 0.0

    def test_with_bias(self):
        layer = _identity_layer(normalize([1.0, 0.0]), 0.1)
        assert layer_forward(normalize([0.6, 0.8]), layer)[0] == pytest.approx(0.7)

    def test_sum(self):
        layer = _single_template_layer(PoolingSpec("sum"))
        np.testing.assert_allclose(
            layer_forward(normalize([1.0, 0.0]), layer), [1.0]
        )

    def test_max(self):
        layer = _single_template_layer(PoolingSpec("max"))
        np.testing.assert_allclose(
            layer_forward(normalize([1.0, 0.0]), layer), [1.0]
        )

    def test_mean(self):
        layer = _single_template_layer(PoolingSpec("mean"))
        np.testing.assert_allclose(
            layer_forward(normalize([1.0, 0.0]), layer), [0.5]
        )

    def test_output_ordering_template_major(self):
        G = cyclic_group(2)
        layer = HWLayer(
            templates=(normalize([1.0, 0.0]), normalize([0.0, 1.0])),
            biases=(0.0, 1.0),
            group=G,
            pooling=PoolingSpec("sum"),
        )
        x = normalize([1.0, 0.0])
        out = layer_forward(x, layer)
        assert out.shape == (4,)
        # (t0,b0), (t0,b1), (t1,b0), (t1,b1)
        np.testing.assert_allclose(out, [1.0, 3.0, 1.0, 3.0])

    def test_nonnegative_outputs(self):
        rng = np.random.default_rng(3)
        for kind in ("sum", "max", "mean", "softmax"):
            layer = _single_template_layer(PoolingSpec(kind), d=4)
            x = normalize(rng.standard_normal(4))
            assert np.all(layer_forward(x, layer) >= 0)

    def test_dimension_mismatch(self):
        layer = _single_template_layer(PoolingSpec("sum"), d=3)
        with pytest.raises(DimensionMismatch):
            layer_forward(normalize([1.0, 0.0]), layer)

    @pytest.mark.parametrize(
        "spec, raw",
        [
            (PoolingSpec("sum"), False),
            (PoolingSpec("max"), False),
            (PoolingSpec("mean"), False),
            (PoolingSpec("softmax", n=3), False),
            (PoolingSpec("softmax", n=3), True),
            (PoolingSpec("softmax", n=2), True),
            (PoolingSpec("mex", xi=2.0), False),
            (PoolingSpec("mex", xi=-3.0), False),
        ],
        ids=lambda p: getattr(p, "kind", "raw" if p else "rect"),
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_per_pair_loop(self, spec, raw, seed):
        rng = np.random.default_rng(seed)
        d = 8 + 4 * seed
        layer = HWLayer(
            templates=tuple(normalize(rng.standard_normal(d)) for _ in range(3)),
            biases=(-0.3, 0.0, 0.1, 0.4),
            group=cyclic_group(d),
            pooling=spec,
            softmax_raw=raw,
        )
        for x in (normalize(rng.standard_normal(d)), rng.standard_normal(d)):
            assert np.array_equal(
                layer_forward(x, layer), _layer_forward_reference(x, layer)
            )


def _layer_forward_reference(x, layer):
    """One rectification and one pool call per (template, bias) pair."""
    xv = np.asarray(x, dtype=float)
    out = np.empty(layer.output_dim)
    k = 0
    for t in layer.templates:
        dots = t.values[layer.group.elements] @ xv
        for b in layer.biases:
            if layer.pooling.kind == "softmax":
                s = dots if layer.softmax_raw else np.maximum(dots, 0.0)
            else:
                s = np.maximum(dots + b, 0.0)
            out[k] = pool(s, layer.pooling)
            k += 1
    return out


class TestNetworkForward:
    def test_single_layer_is_raw_signature(self):
        layer = _single_template_layer(PoolingSpec("sum"))
        net = HWNetwork(layers=(layer,))
        x = normalize([1.0, 0.0])
        np.testing.assert_array_equal(
            network_forward(x, net), layer_forward(x, layer)
        )

    def test_two_layers_compose(self):
        d = 2
        layer1 = HWLayer(
            templates=(normalize([1.0, 0.0]),),
            biases=(0.0, 0.5),
            group=cyclic_group(d),
            pooling=PoolingSpec("sum"),
        )
        layer2 = HWLayer(
            templates=(normalize([1.0, 0.0]),),
            biases=(0.1,),
            group=cyclic_group(2),
            pooling=PoolingSpec("max"),
        )
        net = HWNetwork(layers=(layer1, layer2))
        x = normalize([0.6, 0.8])
        mid = layer_forward(x, layer1)
        expected = layer_forward(mid / np.linalg.norm(mid), layer2)
        np.testing.assert_allclose(network_forward(x, net), expected)

    def test_zero_signature_raises(self):
        dead = HWLayer(
            templates=(normalize([1.0, 0.0]),),
            biases=(-1.5,),
            group=cyclic_group(2),
            pooling=PoolingSpec("sum"),
        )
        tail = HWLayer(
            templates=(normalize([1.0]),),
            biases=(0.0,),
            group=cyclic_group(1),
            pooling=PoolingSpec("sum"),
        )
        net = HWNetwork(layers=(dead, tail))
        with pytest.raises(ZeroSignature):
            network_forward(normalize([0.6, 0.8]), net)


class TestInvariance:
    @pytest.mark.parametrize(
        "spec",
        [
            PoolingSpec("sum"),
            PoolingSpec("max"),
            PoolingSpec("mean"),
            PoolingSpec("softmax", n=3),
            PoolingSpec("mex", xi=2.0),
        ],
        ids=lambda s: s.kind,
    )
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_full_group_pooling_is_invariant(self, spec, d):
        rng = np.random.default_rng(d)
        layer = HWLayer(
            templates=(normalize(rng.standard_normal(d)),),
            biases=(0.0, 0.2),
            group=cyclic_group(d),
            pooling=spec,
        )
        x = normalize(rng.standard_normal(d))
        assert invariance_gap(x, layer) <= 1e-12

    def test_signature_matches_under_each_element(self):
        d = 4
        rng = np.random.default_rng(1)
        layer = _single_template_layer(PoolingSpec("sum"), d=d)
        x = normalize(rng.standard_normal(d))
        base = layer_forward(x, layer)
        for g in cyclic_group(d):
            np.testing.assert_allclose(
                layer_forward(apply(g, x), layer), base, atol=1e-12
            )

    def test_non_subgroup_subset_generally_breaks_invariance(self):
        from invarkit.signals import FiniteGroup

        full = cyclic_group(4)
        subset = FiniteGroup(elements=full.elements[:2], identity_index=0)
        layer = HWLayer(
            templates=(normalize([1.0, 0.0, 0.0, 0.0]),),
            biases=(0.0,),
            group=subset,
            pooling=PoolingSpec("sum"),
        )
        gaps = []
        for k in range(4):
            one_hot = [0.0] * 4
            one_hot[k] = 1.0
            x = normalize(one_hot)
            base = layer_forward(x, layer)
            for g in full:
                gaps.append(
                    float(np.max(np.abs(layer_forward(apply(g, x), layer) - base)))
                )
        assert max(gaps) > 0


class TestLayerJson:
    def test_round_trip(self):
        layer = HWLayer(
            templates=(normalize([0.6, 0.8]),),
            biases=(0.0, -0.25),
            group=cyclic_group(2),
            pooling=PoolingSpec("mex", xi=3.0),
        )
        restored = layer_from_json(layer_to_json(layer))
        x = normalize([1.0, 0.0])
        np.testing.assert_allclose(
            layer_forward(x, restored), layer_forward(x, layer)
        )
        assert restored.pooling == layer.pooling
