"""Exception and warning types shared across the package."""


class SingularSystemError(ArithmeticError):
    """Raised when elimination meets a pivot too small to trust.

    Distinct positive values make the coefficient systems of
    :mod:`orthogen.core` nonsingular in exact arithmetic, but values packed
    closely enough still trip the test in double precision (four values
    within 3e-13 of 1 do).
    """


class FidelityError(ArithmeticError):
    """Raised when a generated matrix has non-finite entries or may not be the
    matrix its values define (estimated entry error or orthonormality
    residual above the documented bound), because the rows the recurrence
    built lost too much precision."""


class DegenerateValuesError(ValueError):
    """Raised when generator values are non-positive, duplicated, or non-finite."""


class ZeroRowError(ArithmeticError):
    """Raised when a row's sum of squares is zero, so it cannot be scaled to
    unit length. A valid value set reaches it when its values span about 1e200
    or more (``1e-200, 1e-100, 1`` or ``1e-300, 1``): the samples of a high
    row underflow, or their squares do."""


class SizeMismatchError(ValueError):
    """Raised when a transform matrix is not square, or a sample block's shape
    does not match its size."""


class UnknownPresetError(ValueError):
    """Raised for a preset name this package does not provide."""


class OddSizeError(ValueError):
    """Raised when a requested matrix size is odd or smaller than 2."""


class DegenerateFamilyError(ArithmeticError):
    """Raised by the Gram-Schmidt oracle when the monomial family collapses
    (duplicate sample values)."""


class ConditioningWarning(UserWarning):
    """Emitted for inputs that are accepted but numerically risky."""
