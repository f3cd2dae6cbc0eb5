"""Exception and warning types shared across the package."""


class SingularSystemError(ArithmeticError):
    """Raised when elimination meets a pivot too small to trust.

    For the coefficient systems built by :mod:`orthogen.core` this signals
    invalid generator values upstream (duplicates or non-positive entries),
    since distinct positive values guarantee nonsingular systems.
    """


class FidelityError(ArithmeticError):
    """Raised when a generated matrix has non-finite entries or may not be the
    matrix its values define (estimated entry error or orthonormality
    residual above the documented bound), because the moment systems lost
    too much precision."""


class DegenerateValuesError(ValueError):
    """Raised when generator values are non-positive, duplicated, or non-finite."""


class ZeroRowError(ArithmeticError):
    """Raised when a polynomial row evaluates to all zeros (defensive; cannot
    occur for a valid value set)."""


class SizeMismatchError(ValueError):
    """Raised when a sample block's shape does not match the transform size."""


class UnknownPresetError(ValueError):
    """Raised for a preset name this package does not provide."""


class OddSizeError(ValueError):
    """Raised when a requested matrix size is odd or smaller than 2."""


class DegenerateFamilyError(ArithmeticError):
    """Raised by the Gram-Schmidt oracle when the monomial family collapses
    (duplicate sample values)."""


class ConditioningWarning(UserWarning):
    """Emitted for inputs that are accepted but numerically risky."""
