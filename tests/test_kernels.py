import json
import sys
import threading

import numpy as np
import pytest

from invarkit.errors import (
    DimensionMismatch,
    KernelAsymmetric,
    OutOfRange,
    WeightsNotNormalized,
)
from invarkit.kernels import (
    TemplateSampler,
    arccos1_kernel,
    gram,
    gram_summary_json,
    gram_to_csv,
    k0_mc,
    ktilde_mc,
    ktilde_step,
    mex_npsd_scan,
    mex_similarity,
    selectivity_scan,
    step_kernel_exact,
    step_kernel_numeric,
)
from invarkit.signals import FiniteGroup, apply, cyclic_group, normalize, orbit


def _fresh_draw(sampler, d, S, stream=0):
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=sampler.seed, spawn_key=(stream,))
    )
    T = rng.standard_normal((S, d))
    if sampler.template_law == "uniform_sphere":
        T /= np.linalg.norm(T, axis=1, keepdims=True)
    if sampler.bias_law == "gaussian":
        b = rng.standard_normal(S)
    else:
        b = rng.uniform(-sampler.bias_range, sampler.bias_range, S)
    return T, b


_SAMPLERS = (
    TemplateSampler(seed=0),
    TemplateSampler(seed=1),
    TemplateSampler(
        template_law="uniform_sphere", bias_law="uniform", bias_range=0.5, seed=0
    ),
)
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

    def test_exports(self, tmp_path):
        rng = np.random.default_rng(10)
        pts = [normalize(rng.standard_normal(2)) for _ in range(3)]
        report = gram(pts, lambda a, b: float(np.dot(a.values, b.values)))
        csv_path = tmp_path / "gram.csv"
        gram_to_csv(report, csv_path)
        assert csv_path.read_text().startswith("row,col,value")
        doc = json.loads(gram_summary_json(report, 3, "linear", 10))
        assert set(doc) == {
            "min_eig", "max_eig", "psd_pass", "n_points", "kernel_id", "seed",
        }


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
