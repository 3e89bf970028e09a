"""Invalid arguments to the public API raise a typed InvarkitError."""

import json

import numpy as np
import pytest

from invarkit import hbf, kernels, pooling, ramps
from invarkit.errors import InvalidArgument, InvarkitError, ZeroVector
from invarkit.signals import Signal, cyclic_group

_MODEL = dict(centers=[[0.0]], coeffs=[1.0], sigma=1.0)
_DATA = dict(inputs=[[0.0], [1.0]], targets=[0.0, 1.0])
_LAYER_JSON = {"dim": 2, "group": "dihedral", "templates": [[1.0, 0.0]], "biases": [0.0]}


@pytest.mark.parametrize(
    "call",
    [
        lambda: hbf.HBFModel(**dict(_MODEL, sigma=0.0)),
        lambda: hbf.HBFModel(**_MODEL, lam=-1.0),
        lambda: hbf.TrainConfig(omega=0.0, max_iters=1),
        lambda: hbf.TrainConfig(omega=1.0, max_iters=0),
        lambda: hbf.TrainConfig(omega=1.0, max_iters=1, grad_tol=0.0),
        lambda: hbf.TrainConfig(omega=1.0, max_iters=1, noise_amplitude=-1.0),
        lambda: hbf.refine_centers(
            hbf.HBFModel(**_MODEL), hbf.TrainingSet([[0.0]], [1.0]), grad_tol=0.0
        ),
        lambda: hbf.check_capacity(0, 1, 1),
        lambda: ramps.step_approx(0.0, 0.0),
        lambda: ramps.hat_via_ramps(0.0, 0.0),
        lambda: ramps.RampCombination(units=()),
        lambda: ramps.fit_ramp_combination(np.sin, (1.0, 0.0, 100), 2),
        lambda: ramps.fit_ramp_combination(np.sin, (0.0, 1.0, 100), 0),
        lambda: ramps.fit_ramp_combination(np.sin, (0.0, 1.0, 19), 2),
        lambda: pooling.PoolingSpec("median"),
        lambda: pooling.PoolingSpec("softmax", n=0),
        lambda: pooling.PoolingSpec("mex", xi=np.inf),
        lambda: pooling.HWLayer(
            (), (0.0,), cyclic_group(2), pooling.PoolingSpec("sum")
        ),
        lambda: pooling.layer_from_json(json.dumps(_LAYER_JSON)),
        lambda: Signal(np.array([1.0, 1.0])),
        lambda: hbf.HBFModel(**dict(_MODEL, sigma=np.inf)),
        lambda: hbf.HBFModel(**dict(_MODEL, sigma=np.nan)),
        lambda: hbf.HBFModel(**_MODEL, lam=np.nan),
        lambda: hbf.HBFModel(**_MODEL, lam=np.inf),
        lambda: hbf.TrainConfig(omega=np.inf, max_iters=1),
        lambda: hbf.TrainConfig(omega=1.0, max_iters=1, grad_tol=np.inf),
        lambda: hbf.TrainConfig(omega=1.0, max_iters=1, grad_tol=np.nan),
        lambda: hbf.TrainConfig(omega=1.0, max_iters=1, noise_amplitude=np.inf),
        lambda: hbf.TrainConfig(omega=1.0, max_iters=1, noise_amplitude=np.nan),
        lambda: hbf.TrainConfig(omega=1.0, max_iters=None),
        lambda: hbf.TrainConfig(omega=1.0, max_iters=10.0),
        lambda: hbf.TrainConfig(omega=1.0, max_iters=1, resolve_every=2.5),
        lambda: hbf.TrainConfig(omega=1.0, max_iters=1, resolve_every=None),
        lambda: hbf.HBFModel(**dict(_MODEL, sigma="x")),
        lambda: hbf.HBFModel(**dict(_MODEL, sigma=10**400)),
        lambda: hbf.TrainConfig(omega=1.0, max_iters=True),
        lambda: hbf.HBFModel(**dict(_MODEL, sigma=True)),
        lambda: hbf.HBFModel(**_MODEL, lam=False),
        lambda: kernels.TemplateSampler().draw(3.0, 10),
        lambda: kernels.TemplateSampler().draw(3, -1),
        lambda: pooling.PoolingSpec("softmax", n=np.inf),
        lambda: pooling.PoolingSpec("softmax", n=2.0),
        lambda: pooling.PoolingSpec("mex", xi="x"),
        lambda: hbf.check_capacity(1.5, 2, 3),
        lambda: hbf.check_capacity(10, 1, 1, threshold=np.nan),
        lambda: kernels.KernelEstimate(value=0.0, stderr=0.0, samples=2.5),
        lambda: ramps.step_approx(0.5, np.inf),
        lambda: ramps.hat_via_ramps(0.5, np.inf),
        lambda: ramps.fit_ramp_combination(np.sin, (0.0, 1.0, 100), 1.5),
        lambda: ramps.fit_ramp_combination(np.sin, (0.0, 1.0, 100.5), 2),
        lambda: kernels.step_kernel_numeric(0.0, 0.0, 1.0, grid_points=1000.5),
        lambda: hbf.refine_centers(
            hbf.HBFModel(**_MODEL), hbf.TrainingSet([[0.0]], [1.0]), grad_tol=np.inf
        ),
        lambda: hbf.TrainConfig(omega=1.0, max_iters=1, seed=None),
        lambda: hbf.TrainConfig(omega=1.0, max_iters=1, seed=-1),
        lambda: hbf.TrainConfig(omega=1.0, max_iters=1, seed=1.5),
        lambda: hbf.init_centers(hbf.TrainingSet(**_DATA), 1, seed=None),
        lambda: hbf.init_centers(hbf.TrainingSet(**_DATA), 1, seed=-1),
        lambda: kernels.mex_npsd_scan(max_instances=1, seed=-1),
        lambda: kernels.mex_npsd_scan(max_instances=1, seed=1.5),
        lambda: pooling.mex([1.0, 2.0], np.nan),
        lambda: kernels.TemplateSampler(seed=np.array(3)),
        lambda: kernels.TemplateSampler(bias_range=np.array(1.0)),
    ],
)
def test_bare_value_errors_are_typed(call):
    with pytest.raises(InvarkitError) as err:
        call()
    # a ValueError still, so callers that catch ValueError keep working
    assert isinstance(err.value, InvalidArgument) and isinstance(err.value, ValueError)


_SOFTMAX_LAYER_JSON = {
    "dim": 4,
    "group": "cyclic",
    "templates": [[1.0, 0.0, 0.0, 0.0]],
    "biases": [0.0],
    "pooling": {"kind": "softmax", "n": 2},
}


@pytest.mark.parametrize(
    "call",
    [
        lambda: pooling.mex([1.0, 2.0], "x"),
        lambda: pooling.mex([1.0, 2.0], None),
        lambda: pooling.mex([1.0, 2.0], True),
        lambda: pooling.mex([[1.0, 2.0], [3.0, 4.0]], np.array([1.0, 2.0])),
        lambda: kernels.mex_npsd_scan(max_instances=1.5),
        lambda: kernels.mex_npsd_scan(max_instances=0),
        lambda: pooling.layer_from_json(json.dumps(dict(_SOFTMAX_LAYER_JSON, dim=4.7))),
        lambda: pooling.layer_from_json(
            json.dumps(dict(_SOFTMAX_LAYER_JSON, pooling={"kind": "softmax", "n": 2.5}))
        ),
        lambda: ramps.RampCombination(units=((1.0, 0.0, 2.5),)),
    ],
)
def test_untyped_and_truncated_arguments_raise_invalid_argument(call):
    with pytest.raises(InvalidArgument):
        call()


def test_layer_json_with_integer_fields_still_loads():
    layer = pooling.layer_from_json(json.dumps(_SOFTMAX_LAYER_JSON))
    assert layer.input_dim == 4 and layer.pooling.n == 2


@pytest.mark.parametrize(
    "grid", [(-np.inf, 0.0, 100), (0.0, np.inf, 100), (np.nan, 1.0, 100), (0.0, "1", 100)]
)
def test_ramp_fit_refuses_a_non_finite_grid_bound_quietly(grid, capfd):
    with pytest.raises(InvalidArgument):
        ramps.fit_ramp_combination(np.sin, grid, 2)
    assert capfd.readouterr().err == ""


_MEX_LAYER_JSON = dict(_SOFTMAX_LAYER_JSON, pooling={"kind": "mex", "xi": "x"})
_TEMPLATE = Signal(np.array([1.0, 0.0]))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: pooling.layer_from_json(json.dumps(_MEX_LAYER_JSON)), InvalidArgument),
        (
            lambda: pooling.HWLayer(
                (_TEMPLATE,), (0.0, np.nan), cyclic_group(2), pooling.PoolingSpec("max")
            ),
            InvalidArgument,
        ),
        (
            lambda: pooling.HWLayer(
                (_TEMPLATE,), (np.inf,), cyclic_group(2), pooling.PoolingSpec("sum")
            ),
            InvalidArgument,
        ),
        (lambda: hbf.TrainingSet([[0.0], [np.nan]], [0.0, 1.0]), InvalidArgument),
        (lambda: hbf.TrainingSet([[0.0], [1.0]], [np.inf, 1.0]), InvalidArgument),
        (lambda: kernels.arccos1_kernel(np.zeros(3), np.ones(3)), ZeroVector),
        (lambda: kernels.arccos1_kernel(np.ones(3), np.zeros(3)), ZeroVector),
        (lambda: kernels.arccos1_kernel([np.nan, 1.0, 0.0], np.ones(3)), InvalidArgument),
        (lambda: kernels.arccos1_kernel(np.ones(3), [np.inf, 0.0, 0.0]), InvalidArgument),
    ],
)
def test_non_finite_and_zero_inputs_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()
