"""Dirichlet shifts on leafless, locally finite rooted directed trees.

The package builds the weighted shift with depth-dependent weights and
its Cauchy dual on a depth-truncated coordinate space, computes their
moments and defect identities exactly, exposes the reproducing-kernel
coefficient blocks of the associated holomorphic function spaces, and
decides unitary equivalence of two such shifts through the depth-profile
invariant, with an explicit intertwining unitary in the equivalent case.
"""

from .classify import (
    EQUIVALENT,
    EQUIVALENT_UP_TO_HORIZON,
    EXACT,
    HORIZON_LIMITED,
    NOT_EQUIVALENT,
    EquivalenceVerdict,
    GradedUnitary,
    build_graded_unitary,
    cokernel_dimension,
    decide_equivalence,
    lift_graded_unitary,
    verify_intertwining,
)
from .numerics import (
    HausdorffReport,
    alternating_binomial_sum,
    hausdorff_check,
    pochhammer,
    pochhammer_negative,
    pochhammer_ratio,
    radial_integral,
    radial_integral_quadrature,
)
from .shifts import DIRICHLET, DUAL, ShiftOperator, make_shift
from .spaces import (
    GradedFunction,
    KernelBlockSpec,
    PickReport,
    RadialWeightFamily,
    bergman_coefficient,
    bergman_norm,
    bergman_weight_moment,
    dirichlet_coefficient,
    dirichlet_measure_weights,
    dirichlet_norm,
    graded_function,
    h2_norm_via_measure_decomposition,
    kernel_apply,
    kernel_block_spec,
    kernel_matrix_oracle,
    kernel_oracle_expected,
    kernel_series_order,
    log_convexity_check,
    pick_property_check,
    radial_weight,
)
from .trees import (
    DepthProfile,
    Tree,
    Truncation,
    VertexInfo,
    build_tree,
    load_tree,
    sibling_chain_identity_sum,
    tree_from_json,
    tree_to_json,
)

__version__ = "0.1.0"
