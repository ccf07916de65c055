"""Assouad and lower dimensions of self-affine sponges with grouped coordinates.

The package re-exports the names the README uses and the error classes;
everything else is imported from its submodule (``spongedims.measure``,
``spongedims.tangent`` ...).
"""

from .dimensions import assouad_lower_bm, dimension_drop, old_formula_spread
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
from .measure import Word, approximate_cube, block_weights, cube_measure
from .model import LGSpongeSpec, SpongeSpec, encode_uniform_grid, spec_from_json
from .oracle import subcube_counts
from .tangent import (
    BoxSet,
    cluster_prefractal,
    containment_check,
    convergence_sweep,
    hausdorff_distance,
    prefractal,
    tangent_plan,
    tangent_product,
    zoomed_fragment,
)

__version__ = "0.1.0"
