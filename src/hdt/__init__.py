"""Hermitian symmetric pairs, their discrete-series existence criterion,
and numerical verification of the underlying matrix-model identities."""

from .cascade import (
    CascadeResult,
    RestrictedData,
    restricted_root_data,
    strongly_orthogonal_cascade,
    verify_rho_identities,
)
from .criterion import (
    CriterionVerdict,
    HighestWeightInput,
    hc_condition,
    hc_condition_original,
    hc_threshold,
    parse_decimal,
    reduction_trace,
)
from .exact import SingularMatrixError, solve_linear
from .hermitian import (
    HermitianPair,
    RootPartition,
    catalog,
    compact_nodes,
    dim_p_plus,
    pair_by_label,
    partition_roots,
)
from .integral import (
    ConvergenceReport,
    IntegralSpec,
    build_integrand,
    classify_convergence,
    empirical_threshold,
    integrate,
)
from .rootsystem import CartanType, RootSystem, StructuralError, build_root_system
from .weights import (
    KssWeightSystem,
    compact_fundamental_weights,
    extend_compact_coords,
    freudenthal_multiplicity,
    lambda_one,
    rho_weight,
    verify_weight_bound,
    weight_system,
)

__version__ = "0.1.0"
