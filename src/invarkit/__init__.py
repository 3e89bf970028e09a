"""Group-invariant pooling, rectifier kernels, moving-center RBF networks,
and VQ/HVQ memory accounting, with a batch verification CLI."""

from .signals import (
    FiniteGroup,
    Orbit,
    Signal,
    apply,
    cyclic_group,
    normalize,
    orbit,
)
from .pooling import (
    HWLayer,
    HWNetwork,
    PoolingSpec,
    invariance_gap,
    layer_forward,
    mex,
    network_forward,
    pool,
)
from .kernels import (
    GramReport,
    KernelEstimate,
    TemplateSampler,
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
from .ramps import (
    RampCombination,
    abs_identity,
    fit_ramp_combination,
    hat_via_ramps,
    step_approx,
)
from .hbf import (
    HBFModel,
    TrainConfig,
    TrainingSet,
    center_fixed_point_residual,
    check_capacity,
    grad_centers,
    grad_coeffs,
    hbf_eval,
    init_centers,
    objective,
    radial_basis,
    refine_centers,
    solve_coeffs,
    train,
)
from .vq import (
    HVQCodebook,
    PatternFamily,
    VQCodebook,
    build_hvq,
    build_vq,
    classify,
    memory_cost,
    two_part_family,
)

__version__ = "0.1.0"
