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
    """Raised by ``normalize_row`` for a row whose sum of squares is zero, and
    by ``induct_basis`` for a row that cannot be built because a lower row's
    squares underflow, as on values spanning about 1e200 or more.
    ``assemble_matrix`` refuses such values with :class:`FidelityError`."""


class SizeMismatchError(ValueError):
    """Raised when a transform matrix is not square, or a sample block's shape
    does not match its size."""


class UnknownPresetError(ValueError):
    """Raised for a preset name this package does not provide."""


class OddSizeError(ValueError):
    """Raised when a requested matrix size is odd or smaller than 2."""


class ConditioningWarning(UserWarning):
    """Emitted for inputs that are accepted but numerically risky."""
