import math
import sys
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import chi2

from invarkit import kernels
from invarkit.errors import (
    DimensionMismatch,
    InvalidArgument,
    InvarkitError,
    KernelAsymmetric,
    OutOfRange,
    WeightsNotNormalized,
)
from invarkit.kernels import (
    KernelEstimate,
    TemplateSampler,
    _estimate,
    arccos1_kernel,
    features,
    gram,
    k0_mc,
    ktilde_mc,
    ktilde_step,
    mex_npsd_scan,
    mex_similarity,
    selectivity_scan,
    step_kernel_exact,
    step_kernel_numeric,
)
from invarkit.ramps import step_approx
from invarkit.signals import (
    FiniteGroup,
    Orbit,
    Signal,
    apply,
    cyclic_group,
    normalize,
    orbit,
)
from invarkit.suites import SuiteConfig, run_suite


def _fresh_draw(sampler, d, S, stream=0):
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=sampler.seed, spawn_key=(stream,))
    )
    T = rng.standard_normal((S, d))
    return T, rng.standard_normal(S)


_SAMPLERS = (TemplateSampler(seed=0), TemplateSampler(seed=1))
_DRAW_ARGS = [
    (s, d, S, stream)
    for s in _SAMPLERS for d in (3, 5) for S in (7, 11) for stream in (0, 1)
]


class TestDraw:
    def test_read_only(self):
        T, b = TemplateSampler(seed=4).draw(3, 10)
        assert not T.flags.writeable and not b.flags.writeable
        with pytest.raises(ValueError):
            T[0, 0] = 1.0
        with pytest.raises(ValueError):
            b += 1.0

    def test_repeat_calls_equal(self):
        s = TemplateSampler(seed=4)
        T1, b1 = s.draw(3, 10, stream=2)
        T2, b2 = s.draw(3, 10, 2)
        assert np.array_equal(T1, T2) and np.array_equal(b1, b2)

    def test_interleaved_calls_match_fresh_draws(self):
        order = np.random.default_rng(0).permutation(2 * len(_DRAW_ARGS))
        for k in order:
            sampler, d, S, stream = _DRAW_ARGS[k % len(_DRAW_ARGS)]
            T, b = sampler.draw(d, S, stream)
            T0, b0 = _fresh_draw(sampler, d, S, stream)
            assert np.array_equal(T, T0) and np.array_equal(b, b0)

    def test_two_threads_match_fresh_draws(self):
        expected = {args: _fresh_draw(*args) for args in _DRAW_ARGS}
        failures = []

        def worker(seed):
            order = np.random.default_rng(seed).permutation(10 * len(_DRAW_ARGS))
            for k in order:
                args = _DRAW_ARGS[k % len(_DRAW_ARGS)]
                T, b = args[0].draw(*args[1:])
                T0, b0 = expected[args]
                if not (np.array_equal(T, T0) and np.array_equal(b, b0)):
                    failures.append(args)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


class TestEstimate:
    @pytest.mark.parametrize("S", [2, 3, 17, 1000, 100_000])
    @pytest.mark.parametrize("law", ["normal", "product", "offset", "zero", "constant"])
    def test_equals_numpy_mean_and_std(self, S, law):
        rng = np.random.default_rng(S)
        products = {
            "normal": lambda: rng.standard_normal(S),
            "product": lambda: np.maximum(rng.standard_normal((2, S)), 0.0).prod(axis=0),
            "offset": lambda: 3e7 + 1e5 * rng.standard_normal(S),
            "zero": lambda: np.zeros(S),
            "constant": lambda: np.full(S, 0.1),
        }[law]()
        est = _estimate(products.copy())
        assert est.value == float(np.mean(products))
        assert est.stderr == float(np.std(products, ddof=1) / np.sqrt(S))
        assert est.samples == S


class TestK0:
    def test_diagonal_nonnegative(self):
        x = normalize([0.3, -0.7, 0.6])
        est = k0_mc(x, x, TemplateSampler(seed=0), 500)
        assert est.value >= 0

    def test_symmetry_with_shared_stream(self):
        x = normalize([1.0, 0.0])
        y = normalize([0.6, 0.8])
        s = TemplateSampler(seed=42)
        assert k0_mc(x, y, s, 1000).value == k0_mc(y, x, s, 1000).value

    def test_deterministic_given_seed(self):
        x = normalize([1.0, 0.0, 0.0])
        y = normalize([0.0, 1.0, 0.0])
        a = k0_mc(x, y, TemplateSampler(seed=9), 2000)
        b = k0_mc(x, y, TemplateSampler(seed=9), 2000)
        assert a.value == b.value and a.stderr == b.stderr

    def test_orthogonal_augmented_pair_matches_inverse_pi(self):
        # (x,1) and (-x,1) are orthogonal; closed form gives 1/pi there
        x = normalize([1.0, 0.0, 0.0])
        y = normalize([-1.0, 0.0, 0.0])
        est = k0_mc(x, y, TemplateSampler(seed=5), 10**6)
        assert abs(est.value - 1 / np.pi) <= 3 * est.stderr

    def test_stderr_shrinks_with_samples(self):
        x = normalize([0.6, 0.8])
        y = normalize([0.0, 1.0])
        small = [
            k0_mc(x, y, TemplateSampler(seed=s), 2000).stderr for s in range(8)
        ]
        large = [
            k0_mc(x, y, TemplateSampler(seed=s), 8000).stderr for s in range(8)
        ]
        ratio = np.mean(small) / np.mean(large)
        assert 2 / 1.5 <= ratio <= 2 * 1.5

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            k0_mc(normalize([1.0, 0.0]), normalize([1.0, 0.0, 0.0]),
                  TemplateSampler(seed=0), 10)


class TestKtilde:
    def test_trivial_group_equals_k0(self):
        # the identity-only group is the non-convolutional layer: the
        # group-averaged estimate is k0 on the same sample stream
        s = TemplateSampler(seed=3)
        for d in (1, 2, 3, 8):
            rng = np.random.default_rng(d)
            x = normalize(rng.standard_normal(d))
            y = normalize(rng.standard_normal(d))
            G1 = FiniteGroup(np.arange(d)[None])
            for a, b in ((x, x), (x, y)):
                kt, k0 = ktilde_mc(a, b, G1, s, 500), k0_mc(a, b, s, 500)
                assert (kt.value, kt.stderr) == (k0.value, k0.stderr), d

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_invariance_under_group(self, d):
        rng = np.random.default_rng(d)
        x = normalize(rng.standard_normal(d))
        y = normalize(rng.standard_normal(d))
        G = cyclic_group(d)
        s = TemplateSampler(seed=7)
        base = ktilde_mc(x, y, G, s, 1000).value
        for g in G:
            for g2 in G:
                shifted = ktilde_mc(apply(g, x), apply(g2, y), G, s, 1000).value
                assert abs(shifted - base) <= 1e-10

    def test_same_orbit_matches_diagonal(self):
        G = cyclic_group(2)
        x = normalize([1.0, 0.0])
        y = normalize([0.0, 1.0])  # same orbit as x
        s = TemplateSampler(seed=11)
        a = ktilde_mc(x, y, G, s, 2000).value
        b = ktilde_mc(x, x, G, s, 2000).value
        assert a == pytest.approx(b, abs=1e-10)


class TestArcCosineOracle:
    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(0)
        for i in range(5):
            x = normalize(rng.standard_normal(3))
            y = normalize(rng.standard_normal(3))
            est = k0_mc(x, y, TemplateSampler(seed=50 + i), 200_000)
            exact = arccos1_kernel(
                np.append(x.values, 1.0), np.append(y.values, 1.0)
            )
            assert abs(est.value - exact) <= 4 * est.stderr

    def test_bit_equal_to_the_closed_form_on_ordinary_vectors(self):
        def closed_form(u, v):
            nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
            th = np.arccos(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))
            return float(nu * nv * (np.sin(th) + (np.pi - th) * np.cos(th)) / (2 * np.pi))

        rng = np.random.default_rng(8)
        for scale in (1e-60, 1e-3, 1.0, 7.5, 1e60):
            for d in (2, 9, 65):
                u, v = scale * rng.standard_normal((2, d))
                assert arccos1_kernel(u, v) == closed_form(u, v)
        u = rng.standard_normal(5)
        assert arccos1_kernel(u, -u) == closed_form(u, -u)

    def test_scales_by_powers_of_two_beyond_the_norm_range(self):
        # scaling u by 2**a and v by 2**b scales the kernel by 2**(a + b) exactly
        rng = np.random.default_rng(9)
        u, v = rng.standard_normal((2, 6))
        k = arccos1_kernel(u, v)
        for a, b in ((-700, 700), (700, -700), (-600, -300), (400, 500), (-1000, 40)):
            assert arccos1_kernel(np.ldexp(u, a), np.ldexp(v, b)) == math.ldexp(k, a + b)

    def test_tiny_vectors_give_the_rounded_value_not_zero_vector(self):
        ones = np.ones(3)
        tiny = np.full(3, 2.0**-532)  # |u||v| = 3 * 2**-1064, a subnormal product
        assert arccos1_kernel(tiny, tiny) == math.ldexp(arccos1_kernel(ones, ones), -1064)
        assert arccos1_kernel(np.full(3, 1e-200), np.full(3, 1e-200)) == 0.0  # 1.5e-400
        assert arccos1_kernel(np.full(3, 1e200), np.full(3, 1e-200)) == pytest.approx(1.5)

    def test_huge_vectors_raise_a_typed_error_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgument, match="exceeds the largest float"):
                arccos1_kernel(np.full(3, 1e200), np.full(3, 1e200))


class TestStepKernel:
    def test_basic_value(self):
        assert step_kernel_exact(0.2, 0.5, 1.0) == pytest.approx(0.5)

    def test_upper_edge(self):
        assert step_kernel_exact(1.0, 1.0, 1.0) == 0.0

    def test_lower_edge(self):
        assert step_kernel_exact(-1.0, -1.0, 1.0) == 2.0

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            step_kernel_exact(1.5, 0.0, 1.0)

    def test_matches_algebraic_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            a, b = rng.uniform(-1, 1, 2)
            assert step_kernel_exact(a, b, 1.0) == pytest.approx(
                1.0 - 0.5 * (a + b + abs(a - b)), abs=1e-12
            )

    def test_numeric_oracle_basic(self):
        assert step_kernel_numeric(0.2, 0.5, 1.0, 100_000) == pytest.approx(
            0.5, abs=1e-3
        )
        assert step_kernel_numeric(0.0, 0.0, 1.0, 100_000) == pytest.approx(
            1.0, abs=1e-3
        )

    def test_numeric_is_trapezoid_of_two_ramp_steps(self):
        alpha = 1e4
        b = np.linspace(-1.0, 1.0, 100_000)

        def ramp_step(s):
            return alpha * (np.maximum(s, 0.0) - np.maximum(s - 1.0 / alpha, 0.0))

        expected = float(np.trapezoid(ramp_step(b - 0.2) * ramp_step(b + 0.3), b))
        assert step_kernel_numeric(0.2, -0.3, 1.0) == expected

    def test_numeric_agrees_with_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a, b = rng.uniform(-1, 1, 2)
            assert step_kernel_numeric(a, b, 1.0, 100_000) == pytest.approx(
                step_kernel_exact(a, b, 1.0), abs=1e-3
            )

    def test_numeric_is_the_trapezoid_on_each_grid_in_turn(self):
        # the kept grid is replaced, never reused, when p or grid_points change
        for p, n in [(1.0, 100_000), (2.0, 5000), (1, 5000), (1.0, 100_000)]:
            b = np.linspace(-p, p, n)
            y = step_approx(b - 0.3 * p, 1e4) * step_approx(b + 0.1 * p, 1e4)
            expected = float(np.trapezoid(y, b))
            assert step_kernel_numeric(0.3 * p, -0.1 * p, p, n) == expected
            assert not kernels._grid(p, n).flags.writeable


class TestKtildeStep:
    def test_trivial_group_single_template(self):
        G = cyclic_group(1)
        t = normalize([1.0])
        I = normalize([1.0])
        assert ktilde_step(I, I, [t], [1.0], G, 1.0) == pytest.approx(
            1.0 - max(np.dot(I.values, t.values), np.dot(I.values, t.values))
        )

    def test_symmetric_in_inputs(self):
        G = cyclic_group(4)
        rng = np.random.default_rng(6)
        t = normalize(rng.standard_normal(4))
        a = normalize(rng.standard_normal(4))
        b = normalize(rng.standard_normal(4))
        assert ktilde_step(a, b, [t], [1.0], G, 1.0) == pytest.approx(
            ktilde_step(b, a, [t], [1.0], G, 1.0), abs=1e-12
        )

    def test_two_element_group_expansion(self):
        # hand expansion of the 2x2 group sum gives 1 - 3/4
        G = cyclic_group(2)
        t = normalize([1.0, 0.0])
        I = normalize([1.0, 0.0])
        I2 = normalize([0.0, 1.0])
        assert ktilde_step(I, I2, [t], [1.0], G, 1.0) == pytest.approx(0.25)

    def test_bad_weights(self):
        G = cyclic_group(2)
        t = normalize([1.0, 0.0])
        with pytest.raises(WeightsNotNormalized):
            ktilde_step(t, t, [t], [0.7], G, 1.0)

    @pytest.mark.parametrize("p", [np.nan, np.inf, 0.0, -1.0, True, "1", None])
    def test_p_outside_zero_to_inf_raises(self, p):
        t = normalize([1.0, 0.0])
        with pytest.raises(OutOfRange):
            ktilde_step(t, t, [t], [1.0], cyclic_group(2), p)

    def test_nan_projection_raises(self):
        # a Signal cannot hold NaN, so a stand-in carries it
        t = normalize([1.0, 0.0])
        bad = SimpleNamespace(values=np.array([np.nan, 0.0]))
        with pytest.raises(OutOfRange):
            ktilde_step(bad, t, [t], [1.0], cyclic_group(2), 1.0)
        with pytest.raises(OutOfRange):
            ktilde_step(t, bad, [t], [1.0], cyclic_group(2), 1.0)

    def test_projection_bound_keeps_its_slack(self):
        t = normalize([1.0, 0.0])
        G = cyclic_group(2)
        assert ktilde_step(t, t, [t], [1.0], G, 1.0 - 5e-13) == pytest.approx(0.25, abs=1e-12)
        with pytest.raises(OutOfRange):
            ktilde_step(t, t, [t], [1.0], G, 0.99)


class TestGram:
    def test_step_kernel_gram_is_psd(self):
        rng = np.random.default_rng(8)
        G = cyclic_group(4)
        pts = [normalize(rng.standard_normal(4)) for _ in range(5)]
        temps = [normalize(rng.standard_normal(4)) for _ in range(3)]
        w = [1 / 3] * 3

        def kernel(a, b):
            return ktilde_step(a, b, temps, w, G, 1.0)

        assert gram(pts, kernel).psd_pass

    def test_shared_stream_random_feature_gram_is_psd(self):
        rng = np.random.default_rng(9)
        pts = [normalize(rng.standard_normal(3)) for _ in range(5)]
        sampler = TemplateSampler(seed=21)

        def kernel(a, b):
            return k0_mc(a, b, sampler, 5000).value

        report = gram(pts, kernel)
        assert report.psd_pass
        assert report.min_eigenvalue >= -1e-8 * max(abs(report.max_eigenvalue), 1)

    def test_asymmetric_kernel_rejected(self):
        pts = [normalize([1.0, 0.0]), normalize([0.0, 1.0])]

        def lopsided(a, b):
            return float(a.values[0] - b.values[0])

        with pytest.raises(KernelAsymmetric):
            gram(pts, lopsided)


class TestMexSimilarity:
    def test_symmetric(self):
        rng = np.random.default_rng(12)
        G = cyclic_group(3)
        x = normalize(rng.standard_normal(3))
        y = normalize(rng.standard_normal(3))
        assert mex_similarity(x, y, G, 5.0) == pytest.approx(
            mex_similarity(y, x, G, 5.0), abs=1e-12
        )

    def test_scan_finds_non_psd_instance(self):
        res = mex_npsd_scan(max_instances=1000, seed=0)
        assert res.found
        assert res.min_eigenvalue < -1e-6
        assert res.instances_tried <= 1000


class TestSelectivity:
    def _step_ktilde(self, templates, weights, G):
        def kernel(a, b):
            return ktilde_step(a, b, templates, weights, G, 1.0)

        return kernel

    def test_identical_orbits_score_one(self):
        G = cyclic_group(4)
        x = normalize([1.0, 0.0, 0.0, 0.0])
        kernel = self._step_ktilde([x], [1.0], G)
        rep = selectivity_scan([orbit(G, x), orbit(G, x)], kernel)
        # both "distinct" orbits are really the same orbit
        assert rep.same_orbit_min == pytest.approx(1.0, abs=1e-10)
        assert rep.distinct_orbit_max == pytest.approx(1.0, abs=1e-10)

    def test_one_hot_vs_all_ones_margin(self):
        G = cyclic_group(4)
        onehot = normalize([1.0, 0.0, 0.0, 0.0])
        ones = normalize([1.0, 1.0, 1.0, 1.0])
        kernel = self._step_ktilde([onehot, ones], [0.5, 0.5], G)
        rep = selectivity_scan([orbit(G, onehot), orbit(G, ones)], kernel)
        assert rep.margin > 0

    def test_shifted_orbit_counts_as_same(self):
        G = cyclic_group(4)
        x = normalize([0.5, 0.5, -0.5, 0.5])
        shifted = apply(G.elements[2], x)
        kernel = self._step_ktilde([x], [1.0], G)
        rep = selectivity_scan([orbit(G, x), orbit(G, shifted)], kernel)
        assert rep.distinct_orbit_max == pytest.approx(1.0, abs=1e-10)

    def test_normalized_kernel_bounded(self):
        rng = np.random.default_rng(13)
        G = cyclic_group(4)
        temps = [normalize(rng.standard_normal(4)) for _ in range(2)]
        kernel = self._step_ktilde(temps, [0.5, 0.5], G)
        orbs = [orbit(G, normalize(rng.standard_normal(4))) for _ in range(3)]
        rep = selectivity_scan(orbs, kernel)
        assert rep.same_orbit_min <= 1 + 1e-9
        assert rep.distinct_orbit_max <= 1 + 1e-9


# Pairwise reference versions of ``gram`` and ``selectivity_scan`` and the
# kernels suite's scalar step loops, kept to pin the array forms to them
# bit for bit.


def _gram_reference(points, kernel):
    m = len(points)
    K = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            kij = kernel(points[i], points[j])
            kji = kernel(points[j], points[i]) if j > i else kij
            if abs(kij - kji) > 1e-9:
                raise KernelAsymmetric(f"K({i},{j}) != K({j},{i})")
            K[i, j] = K[j, i] = 0.5 * (kij + kji)
    eig = np.linalg.eigvalsh(K)
    lo, hi = float(eig[0]), float(eig[-1])
    return K, lo, hi, lo >= -1e-8 * max(abs(hi), 1.0)


def _selectivity_reference(orbits, kernel):
    def khat(a, b):
        return kernel(a, b) / np.sqrt(kernel(a, a) * kernel(b, b))

    same_min = np.inf
    distinct_max = -np.inf
    for oi, orb_i in enumerate(orbits):
        for oj, orb_j in enumerate(orbits):
            if oj < oi:
                continue
            for a in orb_i.members:
                for b in orb_j.members:
                    v = khat(a, b)
                    if oi == oj:
                        same_min = min(same_min, v)
                    else:
                        distinct_max = max(distinct_max, v)
    return float(same_min), float(distinct_max)


def _step_identity_reference(rng):
    worst = 0.0
    for _ in range(10_000):
        a, b = rng.uniform(-1, 1, 2)
        lhs = 1.0 - max(a, b)
        rhs = 1.0 - 0.5 * (a + b + abs(a - b))
        worst = max(worst, abs(lhs - rhs))
    return worst


def _step_oracle_reference(rng):
    worst = 0.0
    for _ in range(100):
        a, b = rng.uniform(-1, 1, 2)
        worst = max(
            worst, abs(1.0 - max(a, b) - step_kernel_numeric(a, b, 1.0, 100_000))
        )
    return worst


def _table_kernel(M):
    """Kernel on integer points that reads a fixed matrix."""

    def kernel(i, j):
        return float(M[i, j])

    return kernel


def _suite_step_setup():
    """The kernels suite's selectivity setup: two d=4 orbits, step k-tilde."""
    G = cyclic_group(4)
    onehot = normalize([1.0, 0.0, 0.0, 0.0])
    ones = normalize(np.ones(4))

    def kernel(a, b):
        return ktilde_step(a, b, [onehot, ones], [0.5, 0.5], G, 1.0)

    return [orbit(G, onehot), orbit(G, ones)], kernel


def _random_symmetric(rng, m, psd):
    A = rng.standard_normal((m, m))
    M = A @ A.T if psd else 0.5 * (A + A.T)
    # asymmetry below the 1e-9 rejection threshold, so symmetrizing matters
    return M + 1e-12 * rng.standard_normal((m, m))


class TestGramMatchesPairwiseReference:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("psd", [True, False])
    def test_random_symmetric_kernels(self, seed, psd):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 9))
        kernel = _table_kernel(_random_symmetric(rng, m, psd))
        K, lo, hi, ok = _gram_reference(list(range(m)), kernel)
        rep = gram(list(range(m)), kernel)
        assert np.array_equal(rep.matrix, K)
        assert (rep.min_eigenvalue, rep.max_eigenvalue, rep.psd_pass) == (lo, hi, ok)

    def test_suite_step_ktilde_setup(self):
        orbits, kernel = _suite_step_setup()
        pts = [m for orb in orbits for m in orb.members]
        K, lo, hi, ok = _gram_reference(pts, kernel)
        rep = gram(pts, kernel)
        assert np.array_equal(rep.matrix, K)
        assert (rep.min_eigenvalue, rep.max_eigenvalue, rep.psd_pass) == (lo, hi, ok)

    def test_one_call_per_entry(self):
        calls = []
        M = np.arange(25.0).reshape(5, 5)

        def kernel(i, j):
            calls.append((i, j))
            return M[i, j] + M[j, i]

        gram(list(range(5)), kernel)
        assert sorted(calls) == [(i, j) for i in range(5) for j in range(5)]

    @pytest.mark.parametrize("cells", [[(2, 0), (1, 3)], [(3, 1)], [(1, 2), (3, 0)]])
    def test_asymmetry_names_the_same_pair(self, cells):
        rng = np.random.default_rng(14)
        M = _random_symmetric(rng, 4, psd=True)
        for i, j in cells:
            M[i, j] += 1e-6
        kernel = _table_kernel(M)
        with pytest.raises(KernelAsymmetric) as expected:
            _gram_reference(list(range(4)), kernel)
        with pytest.raises(KernelAsymmetric) as got:
            gram(list(range(4)), kernel)
        assert str(got.value) == str(expected.value)


class TestSelectivityMatchesPairwiseReference:
    def _assert_matches(self, orbits, kernel):
        rep = selectivity_scan(orbits, kernel)
        same, distinct = _selectivity_reference(orbits, kernel)
        assert (rep.same_orbit_min, rep.distinct_orbit_max) == (same, distinct)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_symmetric_kernels(self, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 5, size=int(rng.integers(1, 4)))
        labels = np.cumsum(np.concatenate([[0], sizes]))
        orbits = [
            Orbit(representative=int(lo), members=list(range(lo, hi)))
            for lo, hi in zip(labels[:-1], labels[1:])
        ]
        kernel = _table_kernel(_random_symmetric(rng, int(labels[-1]), psd=True))
        self._assert_matches(orbits, kernel)

    def test_suite_step_ktilde_setup(self):
        self._assert_matches(*_suite_step_setup())

    def test_single_orbit(self):
        orbits, kernel = _suite_step_setup()
        self._assert_matches(orbits[:1], kernel)
        assert selectivity_scan(orbits[:1], kernel).distinct_orbit_max == -np.inf

    def test_one_member_orbit(self):
        orbits, kernel = _suite_step_setup()
        lone = Orbit(representative=orbits[1].representative,
                     members=[orbits[1].representative])
        self._assert_matches([orbits[0], lone], kernel)
        self._assert_matches([lone, orbits[0]], kernel)

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan])
    def test_non_positive_diagonal_names_its_member(self, value):
        M = np.eye(5)
        M[3, 3] = value
        orbits = [Orbit(representative=0, members=[0, 1]),
                  Orbit(representative=2, members=[2, 3, 4])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgument, match="member 1 of orbit 1"):
                selectivity_scan(orbits, _table_kernel(M))

    def test_suite_setup_makes_one_call_per_member_pair(self):
        orbits, kernel = _suite_step_setup()
        calls = []

        def counted(a, b):
            calls.append(1)
            return kernel(a, b)

        selectivity_scan(orbits, counted)
        assert len(calls) == 64


class TestArrayStepKernel:
    def test_equals_scalar_formula_elementwise(self):
        rng = np.random.default_rng(15)
        a = rng.uniform(-0.8, 0.8, (7, 1))
        b = rng.uniform(-0.8, 0.8, 5)
        out = step_kernel_exact(a, b, 0.8)
        assert out.shape == (7, 5)
        expected = [[0.8 - max(x, y) for y in b] for x in a[:, 0]]
        assert np.array_equal(out, expected)

    def test_scalar_inputs_give_a_float(self):
        assert type(step_kernel_exact(np.float64(0.2), 0.5, 1.0)) is float

    @pytest.mark.parametrize(
        "xs, xs2, p",
        [(np.nan, 0.5, 1.0), (0.5, np.nan, 1.0), (0.0, 0.0, np.inf),
         (0.0, 0.0, np.nan), ([0.1, np.nan], 0.0, 1.0), ([0.1, 1.5], 0.0, 1.0),
         (0.0, 0.0, True), (0.0, 0.0, "1")],
    )
    def test_nan_projection_or_infinite_p_out_of_range(self, xs, xs2, p):
        with pytest.raises(OutOfRange):
            step_kernel_exact(xs, xs2, p)
        if np.ndim(xs) == 0:
            with pytest.raises(OutOfRange):
                step_kernel_numeric(xs, xs2, p)


class TestKernelsSuiteStepChecks:
    def test_block_draws_match_pairwise_draws(self):
        pairwise = np.random.default_rng(16)
        values = [pairwise.uniform(-1, 1, 2) for _ in range(10_100)]
        block = np.random.default_rng(16)
        first = block.uniform(-1, 1, (10_000, 2))
        second = block.uniform(-1, 1, (100, 2))
        assert np.array_equal(np.vstack([first, second]), values)
        assert block.bit_generator.state == pairwise.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 5])
    def test_values_match_scalar_loops(self, seed):
        report = run_suite(SuiteConfig(suite="kernels", seed=seed, samples=100))
        rows = {c.check_id: c.value for c in report.checks}
        rng = np.random.default_rng(seed)
        assert rows["kernels.step_identity"] == _step_identity_reference(rng)
        assert rows["kernels.step_numeric_oracle"] == _step_oracle_reference(rng)


def _unit(rng, d):
    return normalize(rng.standard_normal(d))


def _features_reference(xs, sampler, S, G):
    """Row by row, one matrix-vector product per orbit point g x."""
    T, b = sampler.draw(xs[0].dim, S)
    return np.stack([
        np.mean([np.maximum(T @ gx + b, 0.0) for gx in x.values[G.elements]], axis=0)
        for x in xs
    ])


@pytest.fixture
def draw_count(monkeypatch):
    calls = []
    draw = TemplateSampler.draw

    def counted(self, *args, **kwargs):
        calls.append(args)
        return draw(self, *args, **kwargs)

    monkeypatch.setattr(TemplateSampler, "draw", counted)
    return calls


class TestFeatures:
    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_shape_and_definition(self, d):
        rng = np.random.default_rng(d)
        xs = [_unit(rng, d) for _ in range(5)]
        s = TemplateSampler(seed=d)
        G = cyclic_group(d)
        for group in (None, G):
            Phi = features(xs, s, 7, group)
            assert Phi.shape == (5, 7)
        ref = _features_reference(xs, s, 300, G)
        assert np.allclose(features(xs, s, 300, G), ref, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_k0_and_ktilde_estimate_the_feature_products(self, d):
        rng = np.random.default_rng(20 + d)
        x, y = _unit(rng, d), _unit(rng, d)
        s = TemplateSampler(seed=d)
        G = cyclic_group(d)
        for a, b in ((x, x), (x, y), (y, x)):
            u, v = features((a, b), s, 500)
            assert k0_mc(a, b, s, 500) == _estimate(u * v)
            u, v = features((a, b), s, 500, G)
            assert ktilde_mc(a, b, G, s, 500) == _estimate(u * v)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_no_group_equals_identity_group(self, d):
        rng = np.random.default_rng(30 + d)
        xs = [_unit(rng, d) for _ in range(4)]
        s = TemplateSampler(seed=2)
        G1 = FiniteGroup(np.arange(d)[None])
        assert np.array_equal(features(xs, s, 400), features(xs, s, 400, G1))

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_orbit_points_have_equal_rows(self, d):
        rng = np.random.default_rng(40 + d)
        x = _unit(rng, d)
        G = cyclic_group(d)
        Phi = features([apply(g, x) for g in G], TemplateSampler(seed=d), 1000, G)
        assert np.max(np.abs(Phi - Phi[0])) <= 1e-12

    def test_one_draw_per_call(self, draw_count):
        rng = np.random.default_rng(50)
        x, y = _unit(rng, 4), _unit(rng, 4)
        s = TemplateSampler(seed=5)
        G = cyclic_group(4)
        for call in (
            lambda: features([x, y, x], s, 100),
            lambda: features([x, y, x], s, 100, G),
            lambda: k0_mc(x, y, s, 100),
            lambda: ktilde_mc(x, y, G, s, 100),
        ):
            draw_count.clear()
            call()
            assert draw_count == [(4, 100)]

    def test_dimension_mismatch(self):
        s = TemplateSampler(seed=0)
        x2, x3 = normalize([1.0, 0.0]), normalize([0.0, 1.0, 0.0])
        with pytest.raises(DimensionMismatch):
            features([x2, x3], s, 10)
        with pytest.raises(DimensionMismatch):
            features([x3, x3], s, 10, cyclic_group(2))
        with pytest.raises(DimensionMismatch):
            ktilde_mc(x2, x2, cyclic_group(3), s, 10)

    def test_empty_signal_list(self, draw_count):
        with pytest.raises(InvalidArgument):
            features([], TemplateSampler(seed=0), 10)
        assert draw_count == []

    def test_two_threads_share_one_sampler(self):
        rng = np.random.default_rng(60)
        s = TemplateSampler(seed=6)
        cases = [
            ([_unit(rng, d) for _ in range(3)], S, group)
            for d in (2, 4, 8)
            for S in (50, 51)
            for group in (None, cyclic_group(d))
        ]
        expected = [features(xs, s, S, G) for xs, S, G in cases]
        failures = []

        def worker(seed):
            order = np.random.default_rng(seed).permutation(10 * len(cases))
            for k in order:
                xs, S, G = cases[k % len(cases)]
                if not np.array_equal(features(xs, s, S, G), expected[k % len(cases)]):
                    failures.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


def _ktilde_exact(x, y, G):
    """Closed-form k-tilde under Gaussian templates and biases.

    <t, g x> + b = <(t, b), (g x, 1)> with (t, b) ~ N(0, I), so each term of
    the double group average is the order-1 arc-cosine kernel.
    """
    return np.mean([
        arccos1_kernel(np.append(gx, 1.0), np.append(gy, 1.0))
        for gx in x.values[G.elements]
        for gy in y.values[G.elements]
    ])


class TestKtildeClosedForm:
    # Sum of squared z over independent pairs is chi-square with one degree
    # of freedom per pair for an unbiased estimator; unlike max |z| it also
    # gains power from a bias that all pairs share.
    PAIRS = 40
    FALSE_ALARM = 1e-3

    def test_pooled_z_against_chi_square(self):
        rng = np.random.default_rng(70)
        z = []
        for i in range(self.PAIRS):
            d = (2, 4, 8)[i % 3]
            G = cyclic_group(d)
            x, y = _unit(rng, d), _unit(rng, d)
            est = ktilde_mc(x, y, G, TemplateSampler(seed=1000 + i), 100_000)
            z.append((est.value - _ktilde_exact(x, y, G)) / est.stderr)
        stat = float(np.sum(np.square(z)))
        assert stat <= chi2.isf(self.FALSE_ALARM, self.PAIRS), (stat, max(np.abs(z)))


class TestKernelArgumentErrors:
    @pytest.mark.parametrize("seed", [None, True, False, -1, 1.0, 1.5, "3", np.nan])
    def test_sampler_rejects_seed(self, seed):
        with pytest.raises(InvalidArgument):
            TemplateSampler(seed=seed)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: KernelEstimate(value=0.0, stderr=0.0, samples=1),
            lambda: step_kernel_numeric(0.0, 0.0, 1.0, grid_points=999),
            lambda: gram([normalize([1.0])], lambda a, b: 1.0),
        ],
    )
    def test_bare_value_errors_are_typed(self, make):
        with pytest.raises(InvalidArgument) as err:
            make()
        assert isinstance(err.value, InvarkitError) and isinstance(err.value, ValueError)

    @pytest.mark.parametrize("S", [-1, 0, 1, True, 2.0, "3", None])
    def test_sample_count_checked_before_the_draw(self, S, draw_count):
        x = normalize([0.6, 0.8])
        G = cyclic_group(2)
        s = TemplateSampler(seed=0)
        for call in (
            lambda: features([x], s, S),
            lambda: k0_mc(x, x, s, S),
            lambda: ktilde_mc(x, x, G, s, S),
        ):
            with pytest.raises(InvalidArgument):
                call()
        assert draw_count == []

    @pytest.mark.parametrize(
        "call",
        [
            lambda x, v, G, s: features([x, v], s, 10),
            lambda x, v, G, s: features([v], s, 10, G),
            lambda x, v, G, s: k0_mc(v, x, s, 10),
            lambda x, v, G, s: ktilde_mc(x, v, G, s, 10),
            lambda x, v, G, s: mex_similarity(v, x, G, 1.0),
            lambda x, v, G, s: mex_similarity(x, v, G, 1.0),
            lambda x, v, G, s: ktilde_step(v, x, [x], [1.0], G, 1.0),
            lambda x, v, G, s: ktilde_step(x, v, [x], [1.0], G, 1.0),
            lambda x, v, G, s: ktilde_step(x, x, [x, v], [0.5, 0.5], G, 1.0),
        ],
    )
    def test_non_signal_argument_is_typed(self, call):
        x = normalize([0.6, 0.8])
        with pytest.raises(InvalidArgument, match="ndarray"):
            call(x, x.values.copy(), cyclic_group(2), TemplateSampler(seed=0))


@pytest.fixture
def feature_calls(monkeypatch):
    calls = []
    real = kernels.features

    def counted(signals, *args):
        calls.append(len(signals))
        return real(signals, *args)

    monkeypatch.setattr(kernels, "features", counted)
    return calls


def _new_draw():
    """Make some other draw the retained one, so the next draw starts with no rows."""
    TemplateSampler(seed=999).draw(1, 2)


def _kept_bytes(rows: dict) -> int:
    """Bytes that a draw's kept rows count against the cap, their keys' included."""
    return sum(r.nbytes + len(k[1]) + len(k[0] or b"") for k, r in rows.items())


class TestRowMemo:
    def test_repeat_pairs_compute_no_rows(self, feature_calls):
        rng = np.random.default_rng(80)
        x, y = _unit(rng, 4), _unit(rng, 4)
        s, G = TemplateSampler(seed=8), cyclic_group(4)
        _new_draw()
        first = [k0_mc(x, y, s, 50), ktilde_mc(x, y, G, s, 50)]
        assert feature_calls == [2, 2]
        again = [k0_mc(y, x, s, 50), ktilde_mc(x, y, G, s, 50), k0_mc(x, x, s, 50)]
        assert feature_calls == [2, 2]
        assert again[0] == _estimate(np.prod(features((y, x), s, 50), axis=0))
        assert again[1] == first[1]

    def test_equal_content_shares_rows_and_another_group_does_not(self, feature_calls):
        rng = np.random.default_rng(81)
        x, y = _unit(rng, 4), _unit(rng, 4)
        s = TemplateSampler(seed=8)
        _new_draw()
        ktilde_mc(x, y, cyclic_group(4), s, 50)
        x_copy, y_copy = Signal(x.values.copy()), Signal(y.values.copy())
        ktilde_mc(x_copy, y_copy, cyclic_group(4), TemplateSampler(seed=8), 50)
        assert feature_calls == [2]
        identity = FiniteGroup(np.arange(4)[None])
        est = ktilde_mc(x, y, identity, s, 50)
        assert feature_calls == [2, 2]
        assert est == _estimate(np.prod(features((x, y), s, 50, identity), axis=0))

    def test_new_draw_drops_the_rows(self, feature_calls):
        rng = np.random.default_rng(82)
        x, y = _unit(rng, 3), _unit(rng, 3)
        s = TemplateSampler(seed=8)
        _new_draw()
        k0_mc(x, y, s, 40)
        TemplateSampler(seed=9).draw(3, 40)
        assert kernels._draw(TemplateSampler(seed=9), 3, 40, 0)[2] == {}
        k0_mc(x, y, s, 40)
        assert feature_calls == [2, 2]

    def test_pair_with_one_cached_row_is_computed_as_a_pair(self, feature_calls):
        rng = np.random.default_rng(83)
        x, y, z = (_unit(rng, 5) for _ in range(3))
        s = TemplateSampler(seed=8)
        _new_draw()
        k0_mc(x, y, s, 60)
        est = k0_mc(x, z, s, 60)
        assert feature_calls == [2, 2]
        assert est == _estimate(np.prod(features((x, z), s, 60), axis=0))

    @pytest.mark.parametrize(
        "args",
        [
            lambda x, y, G: (x, y, None, 50.0),  # S is not an integer
            lambda x, y, G: (x, y, G, 50.0),
            lambda x, y, G: (x, y.values, None, 50),  # not a Signal
            lambda x, y, G: (x.values, y, G, 50),
            lambda x, y, G: (x, normalize([1.0, 1.0]), None, 50),  # d differs
            lambda x, y, G: (x, y, cyclic_group(3), 50),  # group d differs
        ],
    )
    def test_cached_rows_do_not_skip_argument_checks(self, args, feature_calls):
        rng = np.random.default_rng(84)
        x, y = _unit(rng, 4), _unit(rng, 4)
        s, G = TemplateSampler(seed=8), cyclic_group(4)
        _new_draw()
        for _ in range(2):
            k0_mc(x, y, s, 50)
            ktilde_mc(x, y, G, s, 50)
        assert len(feature_calls) == 2  # the second round found both pairs
        a, b, group, S = args(x, y, G)
        with pytest.raises(InvarkitError) as expected:
            features([a, b], s, S, group)
        with pytest.raises(type(expected.value)):
            k0_mc(a, b, s, S) if group is None else ktilde_mc(a, b, group, s, S)

    def test_retained_bytes_stay_under_the_cap(self):
        rng = np.random.default_rng(85)
        xs = [_unit(rng, 2) for _ in range(12)]
        s, S = TemplateSampler(seed=8), 2**17  # 1 MiB per row
        for a, b in zip(xs, xs[1:]):
            est = k0_mc(a, b, s, S)
            assert est == _estimate(np.prod(features((a, b), s, S), axis=0))
        rows = kernels._draw(s, 2, S, 0)[2]
        assert 0 < _kept_bytes(rows) <= kernels._ROWS_MAX_BYTES
        assert len(rows) < len(xs)

    @pytest.mark.parametrize("group", [None, cyclic_group(3)])
    def test_a_one_call_draw_keeps_its_two_rows_without_a_copy(self, group):
        rng = np.random.default_rng(89)
        x, y = _unit(rng, 3), _unit(rng, 3)
        s = TemplateSampler(seed=8)
        _new_draw()
        est = kernels._pair_estimate(x, y, s, 40, group)
        u, v = kernels._draw(s, 3, 40, 0)[2].values()
        assert u.base is v.base and u.base.shape == (2, 40)  # the pair's rows
        assert est == _estimate(u * v)

    def test_a_row_added_beside_a_kept_row_owns_its_floats(self):
        rng = np.random.default_rng(90)
        x, y, z, w = (_unit(rng, 3) for _ in range(4))
        s = TemplateSampler(seed=8)
        _new_draw()
        k0_mc(x, y, s, 40)
        est = k0_mc(x, z, s, 40)  # x is kept, z is not
        k0_mc(w, w, s, 40)  # the diagonal keeps one row too
        rows = kernels._draw(s, 3, 40, 0)[2]
        for single in (z, w):
            row = rows[(None, single.values.tobytes())]
            assert row.base is None and row.nbytes == 40 * 8
        assert est == _estimate(np.prod(features((x, z), s, 40), axis=0))

    def test_rows_read_from_a_draw_stay_unchanged_after_another_thread_draws(self):
        rng = np.random.default_rng(88)
        x, y, z = (_unit(rng, 3) for _ in range(3))
        s = TemplateSampler(seed=8)
        _new_draw()
        first = [k0_mc(x, y, s, 40), k0_mc(x, z, s, 40)]
        rows = kernels._draw(s, 3, 40, 0)[2]
        read = dict(rows)
        before = {key: row.copy() for key, row in read.items()}

        def other():  # the same signals on a new draw of the same size
            t = TemplateSampler(seed=9)
            for a, b in ((x, y), (y, z), (z, x), (x, x)):
                k0_mc(a, b, t, 40)

        thread = threading.Thread(target=other)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert kernels._draw(TemplateSampler(seed=9), 3, 40, 0)[2].keys() == read.keys()
        assert rows.keys() == read.keys()
        assert all(rows[key] is row for key, row in read.items())
        assert all(np.array_equal(read[key], before[key]) for key in read)
        ux, uy, uz = read.values()
        assert [_estimate(ux * uy), _estimate(ux * uz)] == first

    def test_two_threads_with_different_samplers_match_serial_grams(self):
        rng = np.random.default_rng(86)
        pts = [_unit(rng, 4) for _ in range(5)]
        G, s1, s2 = cyclic_group(4), TemplateSampler(seed=1), TemplateSampler(seed=2)
        jobs = [
            lambda: gram(pts, lambda a, b: ktilde_mc(a, b, G, s1, 64).value),
            lambda: gram(pts, lambda a, b: k0_mc(a, b, s2, 64).value),
        ]
        expected = [job().matrix for job in jobs]
        failures, kept = [], []

        def worker(i):
            for _ in range(10):
                if not np.array_equal(jobs[i]().matrix, expected[i]):
                    failures.append(i)
            kept.append(kernels._draw((s1, s2)[i], 4, 64, 0)[2])  # or a new draw's none

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert all(_kept_bytes(rows) <= kernels._ROWS_MAX_BYTES for rows in kept)

    def test_threads_on_one_draw_keep_rows_under_the_cap(self, monkeypatch):
        rng = np.random.default_rng(91)
        pts = [[_unit(rng, 2) for _ in range(6)] for _ in range(4)]
        size = 64 * 8 + 16  # a row at S = 64 and its key at d = 2
        _new_draw()  # no draw below holds rows kept under the real cap
        monkeypatch.setattr(kernels, "_ROWS_MAX_BYTES", 3 * size + size // 2)
        overfull = []

        def worker(xs, s, start):
            start.wait(timeout=60)
            for a, b in zip(xs, xs[1:]):
                k0_mc(a, b, s, 64)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(30):
                s, start = TemplateSampler(seed=seed), threading.Barrier(len(pts))
                s.draw(2, 64)  # retained before the threads start, so all share it
                threads = [threading.Thread(target=worker, args=(xs, s, start)) for xs in pts]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                rows = kernels._draw(s, 2, 64, 0)[2]
                if _kept_bytes(rows) > kernels._ROWS_MAX_BYTES:
                    overfull.append(seed)
        finally:
            sys.setswitchinterval(interval)
        assert overfull == []
