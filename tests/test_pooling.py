import copy
import dataclasses
import pickle

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
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


_EPS = np.finfo(float).eps


def _scale(values):
    return _EPS * max(1.0, max(abs(x) for x in values))


def _mex_reference(values, xi):
    """mex as evaluated through scipy.special.logsumexp."""
    v = np.asarray(values, dtype=float)
    return float((logsumexp(xi * v) - np.log(v.size)) / xi)


def _mex_exact(values, xi):
    """mex of the given floats to 60 significant digits, rounded once."""
    if np.isinf(xi):
        return max(values) if xi > 0 else min(values)
    with mpmath.workdps(60):
        if xi == 0:
            return float(mpmath.fsum(values) / len(values))
        c = mpmath.mpf(max(values) if xi > 0 else min(values))
        terms = (mpmath.expm1(xi * (mpmath.mpf(x) - c)) for x in values)
        return float(c + mpmath.log1p(mpmath.fsum(terms) / len(values)) / xi)


# Values with ties and rectified zeros; xi over 0, +-inf and +-[1e-300, 1e300],
# log-uniform in magnitude, with the points where mex once switched branches
# and subnormal xi, whose products xi * (v - c) would lose their precision.
_POOLED = st.one_of(st.sampled_from([0.0, 0.25, 1.0, -0.5]), st.floats(-50, 50))
_XI_MAGNITUDE = st.builds(
    lambda m, e: m * 10.0**e, st.floats(1, 10, exclude_max=True), st.integers(-300, 299)
)
_XI = st.one_of(
    st.sampled_from([0.0, np.inf, -np.inf, 1e-9, -1e-9, 1e6, -1e6, 5e-324, -1e-310]),
    _XI_MAGNITUDE,
    _XI_MAGNITUDE.map(lambda x: -x),
    st.floats(1e-300, 1e300),
    st.floats(-1e300, -1e-300),
)


_SMALL_POOLS = [[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.25, 1.0], [-50.0, 50.0, 3.0]]


class TestMexAccuracy:
    @given(st.lists(_POOLED, min_size=1, max_size=129), _XI)
    @settings(max_examples=400, deadline=None)
    def test_within_4_eps_of_exact(self, values, xi):
        assert abs(mex(values, xi) - _mex_exact(values, xi)) <= 4 * _scale(values)

    @pytest.mark.parametrize("values", _SMALL_POOLS)
    @pytest.mark.parametrize("edge", [1e-9, -1e-9, 1e6, -1e6, "rounding"])
    def test_continuous_at_dispatch_points(self, values, edge):
        if edge == "rounding":  # where |xi| * (max - min) reaches eps
            edge = _EPS / (max(values) - min(values))
        xis = [np.nextafter(edge, 0), edge, np.nextafter(edge, 2 * edge)]
        out = [mex(values, xi) for xi in xis]
        for a, b in zip(out, out[1:]):
            assert abs(a - b) <= 4 * _scale(values)

    @pytest.mark.parametrize("values", _SMALL_POOLS)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_accurate_where_expm1_gives_way_to_exp(self, values, sign):
        # the xi at which mean(expm1(xi * (v - c))) crosses -1/2
        v = np.asarray(values)
        c = v.max() if sign > 0 else v.min()
        root = brentq(lambda xi: np.mean(np.expm1(xi * (v - c))) + 0.5, sign * 1e-3, sign * 1e3)
        for k in range(-8, 9):
            xi = root * (1 + k * _EPS)
            assert abs(mex(values, xi) - _mex_exact(values, xi)) <= 4 * _scale(values)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_accurate_with_most_values_far_from_the_extreme(self, sign):
        # mean(expm1) lies near -1 here; the expm1 sum alone misses by ~10 eps
        values = [sign * x for x in [50.0, *np.linspace(-50, -20, 128)]]
        xi = sign * 0.1
        assert abs(mex(values, xi) - _mex_exact(values, xi)) <= 4 * _scale(values)


# scipy's xi * v overflows to +-inf on these finite values; the true mex is
# finite and rounds to the extreme that the sign of xi selects.
_SCIPY_OVERFLOWS = {
    ((1e308, 1e308), -2.0): 1e308,
    ((1e308, 1e308), 1e5): 1e308,
    ((-1e308, 0.0), -2.0): -1e308,
}


class TestMexMatchesLogsumexp:
    @given(
        st.lists(_POOLED, min_size=1, max_size=70),
        st.one_of(st.floats(1, 1e5), st.floats(-1e5, -1)),
    )
    @settings(max_examples=500, deadline=None)
    def test_within_8_eps(self, values, xi):
        assert abs(mex(values, xi) - _mex_reference(values, xi)) <= 8 * _scale(values)

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
        expected = _SCIPY_OVERFLOWS.get((tuple(values), xi), expected)
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


def _rect_id(spec):
    """Test id of a pooling spec; every layer pools rectified responses."""
    return f"{spec.kind}-rect"


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
        "spec",
        [
            PoolingSpec("sum"),
            PoolingSpec("max"),
            PoolingSpec("mean"),
            PoolingSpec("softmax", n=3),
            pytest.param(PoolingSpec("softmax", n=2), id="softmax2-rect"),
            PoolingSpec("mex", xi=2.0),
            PoolingSpec("mex", xi=-3.0),
        ],
        ids=_rect_id,
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_per_pair_loop(self, spec, seed):
        rng = np.random.default_rng(seed)
        d = 8 + 4 * seed
        layer = HWLayer(
            templates=tuple(normalize(rng.standard_normal(d)) for _ in range(3)),
            biases=(-0.3, 0.0, 0.1, 0.4),
            group=cyclic_group(d),
            pooling=spec,
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
                s = np.maximum(dots, 0.0)
            else:
                s = np.maximum(dots + b, 0.0)
            out[k] = pool(s, layer.pooling)
            k += 1
    return out


class TestOrbitStack:
    def _layer(self, d=6, seed=0):
        rng = np.random.default_rng(seed)
        return HWLayer(
            templates=tuple(normalize(rng.standard_normal(d)) for _ in range(3)),
            biases=(-0.2, 0.1),
            group=cyclic_group(d),
            pooling=PoolingSpec("mex", xi=2.0),
        )

    def test_stack_is_read_only_and_template_major(self):
        layer = self._layer()
        orbits = layer._orbits
        assert orbits.shape == (3, 6, 6)
        for k, t in enumerate(layer.templates):
            assert np.array_equal(orbits[k], t.values[layer.group.elements])
        with pytest.raises(ValueError):
            orbits[0, 0, 0] = 1.0

    def test_replace_rebuilds_the_stack(self):
        layer, other = self._layer(seed=0), self._layer(seed=1)
        moved = dataclasses.replace(layer, templates=other.templates)
        assert np.array_equal(moved._orbits, other._orbits)
        assert not moved._orbits.flags.writeable
        x = normalize(np.random.default_rng(2).standard_normal(6))
        assert np.array_equal(layer_forward(x, moved), layer_forward(x, other))

    def test_json_round_trip_forwards_equal(self):
        layer = self._layer()
        restored = layer_from_json(layer_to_json(layer))
        rng = np.random.default_rng(3)
        for x in (normalize(rng.standard_normal(6)), rng.standard_normal((5, 6))):
            assert np.array_equal(layer_forward(x, restored), layer_forward(x, layer))

    @pytest.mark.parametrize(
        "round_trip", [lambda o: pickle.loads(pickle.dumps(o)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_round_trip_keeps_the_arrays_read_only(self, round_trip):
        layer = self._layer()
        restored = round_trip(layer)
        assert np.array_equal(restored._orbits, layer._orbits)
        assert not restored._orbits.flags.writeable
        for t, t0 in zip(restored.templates, layer.templates):
            assert np.array_equal(t.values, t0.values)
            assert not t.values.flags.writeable
        assert not restored.group.elements.flags.writeable
        assert (restored.biases, restored.pooling) == (layer.biases, layer.pooling)

    @pytest.mark.parametrize("d", [3, 5, 7, 9])
    @pytest.mark.parametrize("order", ["full", "half", "one"])
    def test_equals_per_pair_loop_at_any_group_order(self, d, order):
        # orders that are not a multiple of 4 are where one stacked product
        # over all templates rounds otherwise than one product per template
        rng = np.random.default_rng(d)
        G = cyclic_group(d)
        n = {"full": d, "half": d // 2, "one": 1}[order]
        layer = HWLayer(
            templates=tuple(normalize(rng.standard_normal(d)) for _ in range(5)),
            biases=(-0.3, 0.0, 0.4),
            group=FiniteGroup(G.elements[:n]),
            pooling=PoolingSpec("mex", xi=2.0),
        )
        for x in (normalize(rng.standard_normal(d)), rng.standard_normal(d)):
            assert np.array_equal(
                layer_forward(x, layer), _layer_forward_reference(x, layer)
            )

    @pytest.mark.parametrize("d", [5, 12])
    def test_block_equals_per_template_products(self, d):
        layer = _block_layer(PoolingSpec("mex", xi=2.0), d=d)
        X = np.random.default_rng(4).standard_normal((7, d))
        cols = []
        for t in layer.templates:
            dots = X @ t.values[layer.group.elements].T
            for b in layer.biases:
                cols.append(pool(np.maximum(dots + b, 0.0), layer.pooling))
        assert np.array_equal(layer_forward(X, layer), np.array(cols).T)


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
        subset = FiniteGroup(elements=full.elements[:2])
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


# ---------------------------------------------------------------------------
# Block inputs: pooling over the last axis, forwards over (m, d) blocks


def _mixed_rows(n=16):
    """Ordinary rows next to each kind of row that mex handles on its own."""
    rng = np.random.default_rng(7)
    tail = rng.standard_normal(n - 1)
    ulp = np.spacing(0.1)
    return np.array(
        [
            rng.standard_normal(n),
            np.maximum(rng.standard_normal(n), 0.0),  # rectified: ties at 0
            [50.0, *np.linspace(-50, -20, n - 1)],  # m <= -1/2 at xi = +-2
            [-50.0, *np.linspace(20, 50, n - 1)],
            np.full(n, 0.3),  # flat
            0.1 + ulp * (np.arange(n) % 3),  # flat to rounding at |xi| = 2
            [np.inf, *tail],
            [-np.inf, *tail],
            np.full(n, np.inf),
            np.full(n, -np.inf),
            [np.nan, *tail],
            rng.uniform(0.0, 1.0, n),
        ]
    )


_BLOCK_SPECS = [
    PoolingSpec("sum"),
    PoolingSpec("max"),
    PoolingSpec("mean"),
    PoolingSpec("softmax", n=3),
    PoolingSpec("mex", xi=2.0),
    PoolingSpec("mex", xi=-2.0),
]


class TestBlockPooling:
    @pytest.mark.parametrize("xi", [0.0, np.inf, -np.inf, 2.0, -2.0])
    def test_mex_rows_do_not_depend_on_the_block(self, xi):
        V = _mixed_rows()
        with np.errstate(all="ignore"):
            block = mex(V, xi)
            rows = [mex(v, xi) for v in V]
            stacked = mex(V.reshape(2, -1, V.shape[1]), xi)
        assert block.shape == (len(V),)
        assert all(type(r) is float for r in rows)
        np.testing.assert_array_equal(block, rows)
        np.testing.assert_array_equal(stacked.ravel(), rows)

    @pytest.mark.parametrize("spec", _BLOCK_SPECS, ids=lambda s: f"{s.kind}{s.xi or ''}")
    def test_pool_rows_do_not_depend_on_the_block(self, spec):
        V = _mixed_rows()
        with np.errstate(all="ignore"):
            block = pool(V, spec)
            rows = [pool(v, spec) for v in V]
        assert all(type(r) is float for r in rows)
        np.testing.assert_array_equal(block, rows)

    def test_block_rows_are_within_4_eps_of_exact(self):
        rng = np.random.default_rng(11)
        V = np.maximum(rng.normal(0.1, 0.3, (40, 33)), 0.0)
        for xi in (-3.0, 0.5, 2.0, 40.0):
            for v, got in zip(V, mex(V, xi)):
                assert abs(got - _mex_exact(list(v), xi)) <= 4 * _scale(v)

    def test_empty_rows_raise(self):
        with pytest.raises(EmptyPool):
            mex(np.empty((3, 0)), 1.0)
        with pytest.raises(EmptyPool):
            pool(np.empty((3, 0)), PoolingSpec("max"))


def _block_layer(spec, d=12, seed=0):
    rng = np.random.default_rng(seed)
    return HWLayer(
        templates=tuple(normalize(rng.standard_normal(d)) for _ in range(3)),
        biases=(-0.3, 0.0, 0.1, 0.4),
        group=cyclic_group(d),
        pooling=spec,
    )


def _invariance_gap_reference(x, layer):
    """One forward for x and one more for each g x, each a separate signal."""
    base = layer_forward(x, layer)
    return max(
        float(np.max(np.abs(layer_forward(apply(g, x), layer) - base)))
        for g in layer.group
    )


class TestBlockForward:
    @pytest.mark.parametrize(
        "spec",
        _BLOCK_SPECS + [pytest.param(PoolingSpec("softmax", n=2), id="softmax2-rect")],
        ids=_rect_id,
    )
    def test_block_rows_equal_single_forwards(self, spec):
        layer = _block_layer(spec)
        rng = np.random.default_rng(1)
        unit = normalize(rng.standard_normal(12)).values
        X = np.vstack([rng.standard_normal((4, 12)), unit])
        out = layer_forward(X, layer)
        assert out.shape == (5, layer.output_dim)
        for x, row in zip(X, out):
            np.testing.assert_allclose(row, layer_forward(x, layer), rtol=0, atol=1e-13)

    def test_wide_block_rows_equal_single_forwards(self):
        layer = _block_layer(PoolingSpec("mex", xi=2.0), d=128)
        X = np.random.default_rng(2).standard_normal((9, 128)) / np.sqrt(128)
        for x, row in zip(X, layer_forward(X, layer)):
            np.testing.assert_allclose(row, layer_forward(x, layer), rtol=0, atol=1e-13)

    def test_block_dimension_mismatch(self):
        layer = _block_layer(PoolingSpec("sum"))
        for bad in (np.zeros((3, 11)), np.zeros((2, 3, 12)), np.zeros(11)):
            with pytest.raises(DimensionMismatch):
                layer_forward(bad, layer)

    @pytest.mark.parametrize("spec", _BLOCK_SPECS, ids=lambda s: f"{s.kind}{s.xi or ''}")
    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_invariance_gap_matches_one_forward_per_shift(self, spec, d):
        x = normalize(np.random.default_rng(100 + d).standard_normal(d))
        full = _block_layer(spec, d=d, seed=d)
        # two of the d >= 3 shifts are not a group: their gap is of order one
        two = FiniteGroup(full.group.elements[:2])
        part = HWLayer(full.templates, full.biases, two, spec)
        # the identity is row 2 here, and each gap is taken from it
        shuffled = FiniteGroup(full.group.elements[[1, 2, 0]])
        moved = HWLayer(full.templates, full.biases, shuffled, spec)
        for layer in (full, part, moved):
            gap = invariance_gap(x, layer)
            assert abs(gap - _invariance_gap_reference(x, layer)) <= 1e-15
        assert invariance_gap(x, part) > 1e-3

    def test_invariance_gap_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            invariance_gap(normalize([1.0, 0.0, 0.0]), _block_layer(PoolingSpec("sum")))


class TestBlockNetwork:
    def _net(self):
        first = HWLayer(
            templates=(normalize([1.0, 0.0]),),
            biases=(-0.5, -0.7),
            group=FiniteGroup(np.arange(2)[None]),
            pooling=PoolingSpec("sum"),
        )
        second = HWLayer(
            templates=(normalize([0.6, 0.8]),),
            biases=(0.1,),
            group=cyclic_group(2),
            pooling=PoolingSpec("mex", xi=2.0),
        )
        return HWNetwork(layers=(first, second))

    def test_block_rows_equal_single_forwards(self):
        net = self._net()
        X = np.array([[1.0, 0.0], [0.8, 0.6], [0.9, -0.1]])
        out = network_forward(X, net)
        assert out.shape == (3, 1)
        for x, row in zip(X, out):
            np.testing.assert_allclose(row, network_forward(x, net), rtol=0, atol=1e-13)

    def test_one_zero_row_raises(self):
        # <x, (1, 0)> = 0 rectifies to zero at both biases
        X = np.array([[1.0, 0.0], [0.0, 1.0], [0.8, 0.6]])
        with pytest.raises(ZeroSignature):
            network_forward(X, self._net())
