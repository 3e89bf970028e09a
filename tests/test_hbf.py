from dataclasses import replace

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
    solve_coeffs,
    train,
)
from invarkit.suites import _gradient_fd_error


def _random_instance(seed):
    r = np.random.default_rng(seed)
    n, d, N = int(r.integers(1, 6)), int(r.integers(1, 4)), int(r.integers(2, 21))
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
        coeffs[2] = np.nan
        bad = HBFModel(centers=model.centers, coeffs=coeffs, sigma=model.sigma)
        cfg = TrainConfig(omega=1e-3, max_iters=50, grad_tol=1e-14)
        with pytest.raises(DivergenceDetected, match="iteration 1"):
            train(bad, data, cfg)

    def test_trace_csv(self, tmp_path):
        model, data = _sin_setup(n=3)
        _, trace = train(model, data, TrainConfig(omega=1e-4, max_iters=10))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "iteration,objective,grad_inf_norm"


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


def _ref_fixed_point(model, data, denom_tol=1e-12):
    P = _ref_weights(model, data)
    denom = P.sum(axis=0)
    skipped, worst = [], 0.0
    for a in range(model.n):
        if abs(denom[a]) <= denom_tol:
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
