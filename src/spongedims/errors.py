"""Exception types shared across the package."""


class SpongeDimsError(Exception):
    """Base class for all package-specific errors."""


class InvalidSpecError(SpongeDimsError):
    """An operation received a sponge spec that fails validation."""


class InvalidRatioError(SpongeDimsError):
    """A contraction ratio lies outside (0, 1]."""


class NoSolutionError(SpongeDimsError):
    """The Moran equation has no root for the given ratio list."""


class BudgetExceededError(SpongeDimsError):
    """A construction would exceed its budget; the message names the stage, size and limit."""


class EmptySetError(SpongeDimsError):
    """Hausdorff distance is undefined for empty sets."""
