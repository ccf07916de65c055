"""Assouad and lower dimensions of self-affine sponges with grouped coordinates."""

from .dimensions import (
    ClusterTerm,
    DimensionReport,
    DropReport,
    MoranSolution,
    assouad_lower_bm,
    assouad_lower_lg,
    assouad_lower_old,
    dimension_drop,
    dimensions,
    lg_moran_exponents,
    moran_solve,
    old_formula_spread,
)
from .errors import (
    BudgetExceededError,
    EmptySetError,
    InsufficientDataError,
    InsufficientLengthError,
    InvalidRatioError,
    InvalidSpecError,
    NoSolutionError,
    NoTwistAvailableError,
    ScaleTooLargeError,
    SpongeDimsError,
    WordTooShortError,
)
from .measure import (
    ApproximateCube,
    BernoulliWeights,
    RatioBoundReport,
    Word,
    approximate_cube,
    cube_measure,
    depths_bm,
    depths_lg,
    lg_weights,
    pcu_weights,
    power_depth,
    ratio_bound_check,
)
from .model import (
    ClusterStructure,
    DigitTree,
    DigitTreeNode,
    LGSpongeSpec,
    SpongeSpec,
    ValidationReport,
    encode_uniform_grid,
    load_spec,
    per_coordinate_counts,
    spec_from_json,
    validate,
    validate_bm,
    validate_lg,
)
from .oracle import (
    CountTable,
    FitResult,
    build_count_table,
    fit_exponent,
    subcube_counts,
)
from .tangent import (
    BoxSet,
    ContainmentReport,
    SweepReport,
    TangentPlan,
    cluster_prefractal,
    containment_check,
    convergence_sweep,
    hausdorff_distance,
    prefractal,
    select_maximizers,
    select_twists,
    tangent_plan,
    tangent_product,
    tangent_word,
    zoomed_fragment,
)

__version__ = "0.1.0"
