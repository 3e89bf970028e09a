import functools
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from invarkit.errors import DimensionMismatch, DivergenceDetected, InvalidN
from invarkit.hbf import (
    HBFModel,
    TrainConfig,
    TrainingSet,
    center_fixed_point_residual,
    check_capacity,
    grad_centers,
    grad_coeffs,
    hbf_eval,
    hbf_eval_batch,
    init_centers,
    median_pairwise_distance,
    model_from_json,
    model_to_json,
    objective,
    radial_basis,
    radial_basis_deriv,
    refine_centers,
    solve_coeffs,
    train,
)
from invarkit import hbf
from invarkit.suites import _gradient_fd_error


def _random_instance(seed):
    r = np.random.default_rng(seed)
    n, d, N = int(r.integers(1, 6)), int(r.integers(1, 4)), int(r.integers(2, 21))
    return _instance(r, N, n, d)


def _instance(r, N, n, d):
    model = HBFModel(
        centers=r.standard_normal((n, d)),
        coeffs=r.standard_normal(n),
        sigma=0.5 + r.random(),
    )
    data = TrainingSet(
        inputs=r.standard_normal((N, d)), targets=r.standard_normal(N)
    )
    return model, data


class TestRadialBasis:
    def test_origin(self):
        assert radial_basis(0.0, 1.3) == 1.0

    def test_two_sigma_squared(self):
        sigma = 0.7
        assert radial_basis(2 * sigma**2, sigma) == pytest.approx(np.exp(-1))

    def test_monotone_decreasing(self):
        r2 = np.linspace(0, 10, 200)
        vals = radial_basis(r2, 1.0)
        assert np.all(np.diff(vals) < 0)

    def test_derivative_identity(self):
        r2 = np.linspace(0, 5, 50)
        sigma = 0.9
        np.testing.assert_allclose(
            radial_basis_deriv(r2, sigma),
            -radial_basis(r2, sigma) / (2 * sigma**2),
        )

    @pytest.mark.parametrize("sigma", [0.3, 0.5, 0.7, 1.3])
    def test_bit_equal_to_the_textbook_forms(self, sigma):
        r = np.random.default_rng(5)
        r2 = np.concatenate([[0.0, 5e-324, 1e-300], r.uniform(0, 50, 995), [800, 1e300]])
        for x in (r2, r2.reshape(10, 100), 0.0, 0.37, 2.5, np.float64(3.1), [0.5, 4.0]):
            G = np.exp(-np.asarray(x, dtype=float) / (2.0 * sigma**2))
            dG = -G / (2.0 * sigma**2)
            got, got_d = radial_basis(x, sigma), radial_basis_deriv(x, sigma)
            assert type(got) is type(G) and type(got_d) is type(dG)
            assert np.array_equal(got, G) and np.array_equal(got_d, dG)
            assert np.array_equal(np.signbit(got_d), np.signbit(dG))


class TestEval:
    def test_at_center(self):
        m = HBFModel(centers=[[0.0, 0.0]], coeffs=[1.0], sigma=1.0)
        assert hbf_eval(m, [0.0, 0.0]) == pytest.approx(1.0)

    def test_linear_in_coefficients(self):
        m1 = HBFModel(centers=[[0.5], [1.5]], coeffs=[1.0, -2.0], sigma=0.8)
        m2 = HBFModel(centers=[[0.5], [1.5]], coeffs=[3.0, -6.0], sigma=0.8)
        assert hbf_eval(m2, [0.3]) == pytest.approx(3 * hbf_eval(m1, [0.3]))

    def test_antisymmetric_pair_cancels_at_midpoint(self):
        m = HBFModel(centers=[[-1.0], [1.0]], coeffs=[1.0, -1.0], sigma=1.0)
        assert hbf_eval(m, [0.0]) == pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch(self):
        m = HBFModel(centers=[[0.0, 0.0]], coeffs=[1.0], sigma=1.0)
        with pytest.raises(DimensionMismatch):
            hbf_eval(m, [1.0])


class TestObjective:
    def test_zero_coeffs(self):
        _, data = _random_instance(0)
        m = HBFModel(
            centers=data.inputs[:2].copy(), coeffs=np.zeros(2), sigma=1.0
        )
        assert objective(m, data) == pytest.approx(float(data.targets @ data.targets))

    def test_single_point_residual(self):
        m = HBFModel(centers=[[0.0]], coeffs=[0.5], sigma=1.0)
        data = TrainingSet(inputs=[[0.0]], targets=[1.0])
        assert objective(m, data) == pytest.approx(0.25)

    def test_permutation_symmetry(self):
        model, data = _random_instance(5)
        perm = np.random.default_rng(1).permutation(model.n)
        permuted = HBFModel(
            centers=model.centers[perm],
            coeffs=model.coeffs[perm],
            sigma=model.sigma,
        )
        assert objective(permuted, data) == pytest.approx(
            objective(model, data), rel=1e-12
        )


class TestGradients:
    def test_zero_residual_zero_coeff_gradient(self):
        X = np.array([[0.0], [1.0]])
        m = HBFModel(centers=X.copy(), coeffs=[1.0, 1.0], sigma=1.0)
        y = hbf_eval_batch(m, X)
        data = TrainingSet(X, y)
        np.testing.assert_allclose(grad_coeffs(m, data), 0.0, atol=1e-12)

    def test_single_center_single_example(self):
        m = HBFModel(centers=[[0.0]], coeffs=[0.0], sigma=1.0)
        data = TrainingSet(inputs=[[0.0]], targets=[1.0])
        np.testing.assert_allclose(grad_coeffs(m, data), [-2.0])

    def test_zero_coeff_freezes_center_row(self):
        m = HBFModel(centers=[[0.0], [1.0]], coeffs=[0.0, 1.0], sigma=1.0)
        data = TrainingSet(inputs=[[0.3], [0.9]], targets=[1.0, -1.0])
        g = grad_centers(m, data)
        np.testing.assert_allclose(g[0], 0.0)

    def test_center_on_its_only_datum(self):
        m = HBFModel(centers=[[0.5, 0.5]], coeffs=[2.0], sigma=1.0)
        data = TrainingSet(inputs=[[0.5, 0.5]], targets=[0.0])
        np.testing.assert_allclose(grad_centers(m, data), 0.0)

    @pytest.mark.parametrize("seed", range(0, 100, 7))
    def test_matches_finite_differences(self, seed):
        model, data = _random_instance(seed)
        assert _gradient_fd_error(model, data) < 1e-5

    @pytest.mark.parametrize("name", ["grad_coeffs", "grad_centers"])
    @pytest.mark.parametrize("seed", range(0, 100, 7))
    def test_finite_differences_see_a_one_percent_error(self, seed, name, monkeypatch):
        # the check must compare both gradients: scaling either one by 1.01
        # puts it outside the check's 1e-5 tolerance
        model, data = _random_instance(seed)
        exact = getattr(hbf, name)
        monkeypatch.setattr(hbf, name, lambda m, d: 1.01 * exact(m, d))
        assert _gradient_fd_error(model, data) > 1e-5


class TestSolveCoeffs:
    def test_interpolation_square_system(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((20, 2))
        y = rng.standard_normal(20)
        data = TrainingSet(X, y)
        m = HBFModel(
            centers=X.copy(),
            coeffs=np.zeros(20),
            sigma=0.5 * median_pairwise_distance(X),
            lam=1e-12,
        )
        assert solve_coeffs(m, data).max_residual <= 1e-6

    @pytest.mark.parametrize("seed", [10, 25])
    def test_interpolation_check_instance(self, seed):
        # the hbf.interpolation check's instance at suite seeds that failed
        # while the ridge added the jitter floor on top of lam
        r = np.random.default_rng(seed + 1)
        X = r.standard_normal((20, 2))
        data = TrainingSet(X, r.standard_normal(20))
        m = HBFModel(
            centers=X.copy(),
            coeffs=np.zeros(20),
            sigma=0.5 * median_pairwise_distance(X),
            lam=1e-12,
        )
        assert solve_coeffs(m, data).max_residual <= 1e-6

    def test_ridge_below_jitter_floor_is_the_floor(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((12, 2))
        data = TrainingSet(X, rng.standard_normal(12))
        coeffs = [
            solve_coeffs(HBFModel(X.copy(), np.zeros(12), sigma=0.7, lam=lam), data).coeffs
            for lam in (0.0, 1e-13, 1e-12)
        ]
        assert np.array_equal(coeffs[0], coeffs[1])
        assert np.array_equal(coeffs[0], coeffs[2])

    def test_large_lambda_shrinks_coefficients(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((10, 1))
        y = rng.standard_normal(10)
        data = TrainingSet(X, y)
        small = HBFModel(X.copy(), np.zeros(10), sigma=1.0, lam=1e-6)
        big = HBFModel(X.copy(), np.zeros(10), sigma=1.0, lam=1e6)
        c_small = solve_coeffs(small, data).coeffs
        c_big = solve_coeffs(big, data).coeffs
        assert np.linalg.norm(c_big) < 1e-4 * np.linalg.norm(c_small)

    def test_single_center_normal_equation(self):
        # 1x1 system: c = y1*G1 / (G1^2 + G2^2) with G1=1, G2=e^{-1/2}
        m = HBFModel(centers=[[0.0]], coeffs=[0.0], sigma=1.0, lam=0.0)
        data = TrainingSet(inputs=[[0.0], [1.0]], targets=[1.0, 0.0])
        c = solve_coeffs(m, data).coeffs
        assert c[0] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), abs=1e-9)

    def test_underdetermined_reported(self):
        m = HBFModel(centers=[[0.0], [1.0], [2.0]], coeffs=np.zeros(3), sigma=1.0)
        data = TrainingSet(inputs=[[0.5]], targets=[1.0])
        assert solve_coeffs(m, data).underdetermined


class TestInitCenters:
    def test_n_equals_N(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 2))
        data = TrainingSet(X, np.zeros(6))
        centers = init_centers(data, 6, seed=0)
        assert sorted(map(tuple, centers)) == sorted(map(tuple, X))

    def test_single_center_is_centroid(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((15, 3))
        data = TrainingSet(X, np.zeros(15))
        centers = init_centers(data, 1, seed=0)
        np.testing.assert_allclose(centers[0], X.mean(axis=0), atol=1e-8)

    def test_two_blobs(self):
        rng = np.random.default_rng(7)
        blob1 = rng.normal(0.0, 0.1, (25, 2))
        blob2 = rng.normal(5.0, 0.1, (25, 2))
        X = np.vstack([blob1, blob2])
        data = TrainingSet(X, np.zeros(50))
        centers = init_centers(data, 2, seed=3)
        lows = sorted(c[0] for c in centers)
        assert -0.5 < lows[0] < 0.5 and 4.5 < lows[1] < 5.5

    def test_invalid_n(self):
        data = TrainingSet(inputs=[[0.0]], targets=[1.0])
        with pytest.raises(InvalidN):
            init_centers(data, 2, seed=0)

    @pytest.mark.parametrize("n", [1.5, 1.0, True, "1", None])
    def test_non_integer_n_is_invalid_n(self, n):
        data = TrainingSet(inputs=[[0.0], [1.0]], targets=[0.0, 1.0])
        with pytest.raises(InvalidN):
            init_centers(data, n, seed=0)


def _sin_setup(n=10, seed=7):
    X = np.linspace(0, 2 * np.pi, 200)[:, None]
    y = np.sin(X).ravel()
    data = TrainingSet(X, y)
    centers = init_centers(data, n, seed=seed)
    start = HBFModel(centers=centers, coeffs=np.zeros(n), sigma=0.5)
    coeffs = solve_coeffs(start, data).coeffs
    return HBFModel(centers=centers, coeffs=coeffs, sigma=0.5), data


class TestTrain:
    def test_descent_on_coeffs_is_monotone(self):
        model, data = _sin_setup()
        noisy = HBFModel(
            centers=model.centers,
            coeffs=model.coeffs + 0.5,
            sigma=model.sigma,
        )
        cfg = TrainConfig(
            omega=1e-4, max_iters=300, grad_tol=1e-14, update_centers=False
        )
        _, trace = train(noisy, data, cfg)
        assert np.all(np.diff(trace.objectives) <= 1e-12)

    def test_interpolating_start_stops_immediately(self):
        X = np.array([[0.0], [1.0], [2.0]])
        m = HBFModel(centers=X.copy(), coeffs=np.zeros(3), sigma=0.6, lam=0.0)
        data = TrainingSet(X, np.array([1.0, -1.0, 0.5]))
        m = HBFModel(
            centers=X.copy(),
            coeffs=solve_coeffs(m, data).coeffs,
            sigma=0.6,
        )
        cfg = TrainConfig(omega=1e-3, max_iters=100, grad_tol=1e-6)
        _, trace = train(m, data, cfg)
        assert trace.converged and len(trace.iterations) == 1

    def test_moving_centers_beat_fixed_baseline(self):
        model, data = _sin_setup()
        cfg_mov = TrainConfig(omega=1e-3, max_iters=5000, grad_tol=1e-12, seed=7)
        cfg_fix = TrainConfig(
            omega=1e-3, max_iters=5000, grad_tol=1e-12, seed=7, update_centers=False
        )
        _, tr_mov = train(model, data, cfg_mov)
        _, tr_fix = train(model, data, cfg_fix)
        assert tr_mov.objectives[-1] < tr_fix.objectives[-1]

    def test_bit_reproducible_trace(self):
        model, data = _sin_setup(n=5)
        cfg = TrainConfig(
            omega=1e-3, max_iters=200, grad_tol=1e-14, noise_amplitude=0.01, seed=11
        )
        _, a = train(model, data, cfg)
        _, b = train(model, data, cfg)
        assert np.array_equal(a.objectives, b.objectives)
        assert np.array_equal(a.grad_inf_norms, b.grad_inf_norms)

    def test_divergence_detection(self):
        model, data = _sin_setup(n=5)
        # coeffs-only descent on the quadratic is unstable at this step size
        wild = HBFModel(centers=model.centers, coeffs=np.zeros(5), sigma=0.5)
        cfg = TrainConfig(
            omega=50.0, max_iters=5000, grad_tol=1e-14, update_centers=False
        )
        with pytest.raises(DivergenceDetected):
            train(wild, data, cfg)

    def test_non_finite_objective_stops_at_first_step(self):
        model, data = _sin_setup(n=5)
        coeffs = model.coeffs.copy()
        coeffs[2] = 1e300  # finite, but its squared residuals overflow
        bad = HBFModel(centers=model.centers, coeffs=coeffs, sigma=model.sigma)
        cfg = TrainConfig(omega=1e-3, max_iters=50, grad_tol=1e-14)
        with np.errstate(over="ignore"):
            with pytest.raises(DivergenceDetected, match="iteration 1"):
                train(bad, data, cfg)

    def test_fixed_centers_skip_the_center_gradient(self, monkeypatch):
        def unused(*_):
            raise AssertionError("grad_centers called with the centers frozen")

        model, data = _sin_setup(n=5)
        monkeypatch.setattr(hbf, "grad_centers", unused)
        cfg = TrainConfig(omega=1e-3, max_iters=20, grad_tol=1e-14, update_centers=False)
        got, trace = train(model, data, cfg)
        assert trace.iterations.size == 20
        assert np.array_equal(got.centers, model.centers)


class TestCenterFixedPoint:
    def test_residual_small_after_center_convergence(self):
        model, data = _sin_setup()
        joint, _ = train(
            model, data, TrainConfig(omega=1e-3, max_iters=5000, grad_tol=1e-12, seed=7)
        )
        refined, trace = train(
            joint,
            data,
            TrainConfig(
                omega=3e-3,
                max_iters=200_000,
                grad_tol=1e-10,
                seed=7,
                update_coeffs=False,
            ),
        )
        assert trace.converged
        report = center_fixed_point_residual(refined, data)
        assert report.residual <= 1e-6

    def test_single_center_single_datum(self):
        m = HBFModel(centers=[[2.0]], coeffs=[1.0], sigma=1.0)
        data = TrainingSet(inputs=[[0.5]], targets=[5.0])
        report = center_fixed_point_residual(m, data)
        assert report.residual == pytest.approx(1.5)
        assert report.skipped == ()

    def test_zero_residuals_all_skipped(self):
        X = np.array([[0.0], [1.0]])
        m = HBFModel(centers=X.copy(), coeffs=[1.0, -0.5], sigma=1.0)
        data = TrainingSet(X, hbf_eval_batch(m, X))
        report = center_fixed_point_residual(m, data)
        assert report.residual == 0.0
        assert report.skipped == (0, 1)


@functools.cache
def _joint_optimum(seed):
    """The sin task after the 5000-step joint (coefficients and centers) train."""
    model, data = _sin_setup(seed=seed)
    cfg = TrainConfig(omega=1e-3, max_iters=5000, grad_tol=1e-12, seed=seed)
    return train(model, data, cfg)[0], data


class TestRefineCenters:
    @pytest.mark.parametrize("seed", range(20))
    def test_reaches_stationary_centers(self, seed):
        joint, data = _joint_optimum(seed)
        refined, trace = refine_centers(joint, data, grad_tol=1e-10)
        assert trace.converged
        assert trace.grad_inf_norms[-1] < 1e-10
        assert np.max(np.abs(grad_centers(refined, data))) < 1e-10
        assert center_fixed_point_residual(refined, data).residual <= 1e-6
        assert trace.objectives[0] == objective(joint, data)
        # every accepted step lowers H, or keeps it within rounding
        h = trace.objectives
        assert np.all(h[1:] <= h[:-1] + 1e-13 * h[:-1])
        assert objective(refined, data) <= objective(joint, data)

    def test_holds_coefficients_sigma_and_lambda(self):
        joint, data = _joint_optimum(7)
        start = replace(joint, lam=1e-3)
        refined, _ = refine_centers(start, data, grad_tol=1e-10)
        assert np.array_equal(refined.coeffs, start.coeffs)
        assert (refined.sigma, refined.lam) == (start.sigma, start.lam)
        assert not np.array_equal(refined.centers, start.centers)

    def test_repeatable_across_calls_and_threads(self):
        joint, data = _joint_optimum(7)
        first = refine_centers(joint, data, grad_tol=1e-10)[0].centers
        second = refine_centers(joint, data, grad_tol=1e-10)[0].centers
        assert np.array_equal(first, second)

        results = [None, None]

        def run(i):
            results[i] = refine_centers(joint, data, grad_tol=1e-10)[0].centers

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert np.array_equal(results[0], first)
        assert np.array_equal(results[1], first)

    def test_stationary_start_returns_after_one_iteration(self):
        joint, data = _joint_optimum(7)
        stationary, _ = refine_centers(joint, data, grad_tol=1e-10)
        again, trace = refine_centers(stationary, data, grad_tol=1e-10)
        assert trace.converged and len(trace.iterations) == 1
        assert np.array_equal(again.centers, stationary.centers)

    def test_unreachable_tolerance_stops_unconverged(self):
        joint, data = _joint_optimum(7)
        refined, trace = refine_centers(joint, data, grad_tol=1e-16)
        assert not trace.converged
        # it stops by itself once no step changes the centers, not at the cap
        assert len(trace.iterations) < hbf._REFINE_MAX_ITERS
        assert objective(refined, data) <= objective(joint, data)

    def test_rejects_nonpositive_tolerance(self):
        joint, data = _joint_optimum(7)
        with pytest.raises(ValueError):
            refine_centers(joint, data, grad_tol=0.0)

    def test_non_finite_start_raises(self):
        model, data = _sin_setup(n=5)
        coeffs = model.coeffs.copy()
        coeffs[2] = 1e300  # finite, but its squared residuals overflow
        bad = HBFModel(centers=model.centers, coeffs=coeffs, sigma=model.sigma)
        with np.errstate(over="ignore"), pytest.raises(DivergenceDetected):
            refine_centers(bad, data, grad_tol=1e-10)


def test_sin_task_leaves_scipy_optimize_unimported():
    # scipy.optimize costs ~11 MB of resident memory in a process that has
    # already imported invarkit; the refine arm runs without it.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, invarkit\n"
        "from invarkit import suites\n"
        "suites.sin_task_benchmark()\n"
        "sys.exit(3 if 'scipy.optimize' in sys.modules else 0)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()


# Reference forms: each quantity computed from its own forward pass, as
# before the objective, the gradients and the fixed-point check shared one.
def _ref_objective(model, data):
    Phi = radial_basis(cdist(data.inputs, model.centers, "sqeuclidean"), model.sigma)
    r = data.targets - Phi @ model.coeffs
    return float(r @ r)


def _ref_grad_coeffs(model, data):
    Phi = radial_basis(cdist(data.inputs, model.centers, "sqeuclidean"), model.sigma)
    delta = data.targets - Phi @ model.coeffs
    return -2.0 * (Phi.T @ delta)


def _ref_weights(model, data):
    r2 = cdist(data.inputs, model.centers, "sqeuclidean")
    Gp = radial_basis_deriv(r2, model.sigma)
    delta = data.targets - radial_basis(r2, model.sigma) @ model.coeffs
    return delta[:, None] * Gp


def _ref_grad_centers(model, data):
    diff = data.inputs[:, None, :] - model.centers[None, :, :]
    weighted = _ref_weights(model, data)[:, :, None] * diff
    return 4.0 * model.coeffs[:, None] * weighted.sum(axis=0)


def _ref_fixed_point(model, data):
    P = _ref_weights(model, data)
    denom = P.sum(axis=0)
    skipped, worst = [], 0.0
    for a in range(model.n):
        if abs(denom[a]) <= 1e-12:
            skipped.append(a)
            continue
        t_hat = (P[:, a] @ data.inputs) / denom[a]
        worst = max(worst, float(np.max(np.abs(model.centers[a] - t_hat))))
    return worst, tuple(skipped)


def _ref_train(model, data, config):
    rng = np.random.default_rng(config.seed)
    c, t = model.coeffs.copy(), model.centers.copy()
    cur = replace(model, centers=t, coeffs=c)
    objs, gnorms, converged = [], [], False
    for it in range(1, config.max_iters + 1):
        gc = _ref_grad_coeffs(cur, data)
        gt = _ref_grad_centers(cur, data)
        parts = []
        if config.update_coeffs:
            parts.append(np.max(np.abs(gc)))
        if config.update_centers:
            parts.append(np.max(np.abs(gt)))
        gnorm = float(max(parts)) if parts else 0.0
        objs.append(_ref_objective(cur, data))
        gnorms.append(gnorm)
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
    return cur, np.asarray(objs), np.asarray(gnorms), converged


class TestSharedForward:
    """The shared forward pass changes no bit of any output."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_reference_forms(self, seed):
        model, data = _random_instance(seed)
        assert objective(model, data) == _ref_objective(model, data)
        assert np.array_equal(grad_coeffs(model, data), _ref_grad_coeffs(model, data))
        assert np.array_equal(grad_centers(model, data), _ref_grad_centers(model, data))
        report = center_fixed_point_residual(model, data)
        assert (report.residual, report.skipped) == _ref_fixed_point(model, data)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"noise_amplitude": 0.01},
            {"update_centers": False},
            {"update_coeffs": False},
            {"resolve_every": 5},
        ],
        ids=["moving", "fixed_centers", "centers_only", "resolve_every"],
    )
    def test_train_matches_reference_loop(self, overrides):
        model, data = _sin_setup(n=5)
        cfg = TrainConfig(omega=1e-3, max_iters=200, grad_tol=1e-14, seed=11, **overrides)
        got, trace = train(model, data, cfg)
        ref, objs, gnorms, converged = _ref_train(model, data, cfg)
        assert np.array_equal(trace.iterations, np.arange(1, objs.size + 1))
        assert np.array_equal(trace.objectives, objs)
        assert np.array_equal(trace.grad_inf_norms, gnorms)
        assert trace.converged == converged
        assert np.array_equal(got.centers, ref.centers)
        assert np.array_equal(got.coeffs, ref.coeffs)


class TestCenterGradientOrder:
    """grad_centers sums the examples in the broadcast reference's order.

    At n = 1 and N >= 9 numpy's pairwise summation of a strided column
    differs from the reference's reduction over axis 0, so a column-by-column
    sum fails here at the first three shapes.
    """

    @pytest.mark.parametrize(
        "N,n,d",
        [(9, 1, 2), (14, 1, 3), (18, 1, 3), (10, 1, 2), (20, 3, 2), (7, 5, 17),
         (200, 10, 1), (2000, 40, 2), (9, 1, 1), (14, 1, 1), (33, 1, 1),
         (2000, 40, 1)],
    )
    def test_matches_reference_at_shape(self, N, n, d):
        model, data = _instance(np.random.default_rng(0), N, n, d)
        assert np.array_equal(grad_centers(model, data), _ref_grad_centers(model, data))

    def test_train_matches_reference_loop_in_two_dimensions(self):
        r = np.random.default_rng(5)
        X = r.uniform(-2.0, 2.0, (100, 2))
        data = TrainingSet(X, np.sin(X[:, 0]) * np.cos(X[:, 1]))
        centers = init_centers(data, 5, seed=5)
        start = HBFModel(centers=centers, coeffs=np.zeros(5), sigma=0.8)
        model = HBFModel(centers=centers, coeffs=solve_coeffs(start, data).coeffs, sigma=0.8)
        cfg = TrainConfig(omega=1e-3, max_iters=50, grad_tol=1e-14, seed=3, resolve_every=5)
        got, trace = train(model, data, cfg)
        ref, objs, gnorms, converged = _ref_train(model, data, cfg)
        assert trace.iterations.size == 50 and not converged
        assert np.array_equal(trace.objectives, objs)
        assert np.array_equal(trace.grad_inf_norms, gnorms)
        assert np.array_equal(got.centers, ref.centers)
        assert np.array_equal(got.coeffs, ref.coeffs)
        assert not np.array_equal(got.centers, model.centers)


def _through_cdist(X, t):
    return cdist(X, t, "sqeuclidean"), None


class TestOneDimensionalDistances:
    """At d = 1 the distances skip cdist and keep every bit of its result."""

    @pytest.mark.parametrize("N,n", [(1, 1), (9, 1), (200, 10), (57, 57)])
    def test_equal_to_cdist(self, N, n):
        r = np.random.default_rng(N)
        X, t = r.standard_normal((N, 1)), r.standard_normal((n, 1))
        r2, diff = hbf._sq_dist(X, t)
        assert np.array_equal(r2, cdist(X, t, "sqeuclidean"))
        assert np.array_equal(diff, X[:, 0, None] - t[:, 0])

    def test_init_centers_and_solve_coeffs_as_through_cdist(self, monkeypatch):
        model, data = _sin_setup(n=10, seed=3)
        centers = init_centers(data, 10, seed=3)
        solved = solve_coeffs(model, data)
        monkeypatch.setattr(hbf, "_sq_dist", _through_cdist)
        assert np.array_equal(centers, init_centers(data, 10, seed=3))
        ref = solve_coeffs(model, data)
        assert np.array_equal(solved.coeffs, ref.coeffs)
        assert solved.max_residual == ref.max_residual

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("N, scale", [(2, 1.0), (57, 1e-3), (300, 1e3)])
    def test_median_pairwise_distance_has_the_bits_of_cdist(self, d, N, scale):
        X = scale * np.random.default_rng(N + d).standard_normal((N, d))
        D = cdist(X, X)
        assert np.array_equal(np.sqrt(hbf._sq_dist(X, X)[0]), D)
        med = float(np.median(D[np.triu_indices(N, k=1)]))
        assert median_pairwise_distance(X) == med

    def test_unequal_dims_still_rejected_by_cdist(self):
        model = HBFModel(centers=[[0.0], [1.0]], coeffs=[1.0, 1.0], sigma=1.0)
        data = TrainingSet(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            objective(model, data)


class TestCapacity:
    @pytest.mark.parametrize(
        "N,n,d,ratio,ok",
        [(100, 5, 3, 5.0, True), (20, 5, 3, 1.0, False), (1000, 10, 9, 10.0, True)],
    )
    def test_examples(self, N, n, d, ratio, ok):
        rep = check_capacity(N, n, d)
        assert rep.ratio == pytest.approx(ratio)
        assert rep.ok is ok


class TestModelJson:
    def test_round_trip(self):
        m = HBFModel(
            centers=[[0.1, 0.2], [0.3, -0.4]],
            coeffs=[1.0, -2.0],
            sigma=0.9,
            lam=1e-3,
        )
        restored = model_from_json(model_to_json(m))
        np.testing.assert_array_equal(restored.centers, m.centers)
        np.testing.assert_array_equal(restored.coeffs, m.coeffs)
        assert restored.sigma == m.sigma and restored.lam == m.lam
