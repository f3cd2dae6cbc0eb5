"""orthogen: discrete orthogonal transform matrices from positive value sets.

Any m distinct positive values yield a 2m x 2m orthonormal matrix whose rows
sample even/odd polynomials at the mirrored points +/-y_k. Bundled presets
reproduce the classic DCT-II and Tchebichef transform tables; arbitrary
value sets give new transforms with the same perfect-reconstruction
property.
"""

from .core import (
    EquationSystem,
    OrthoMatrix,
    ReducedBasis,
    assemble_matrix,
    build_even_system,
    build_odd_system,
    induct_basis,
    normalize_row,
    validate_values,
)
from .errors import (
    ConditioningWarning,
    DegenerateFamilyError,
    DegenerateValuesError,
    FidelityError,
    OddSizeError,
    SingularSystemError,
    SizeMismatchError,
    UnknownPresetError,
    ZeroRowError,
)
from .linsolve import determinant, solve
from .presets import PRESETS, preset_values
from .quantize import IntMatrix, dequantize_error, quantize_matrix
from .transform import compaction_report, forward_2d, inverse_2d

__version__ = "0.1.0"

__all__ = [
    "EquationSystem",
    "OrthoMatrix",
    "ReducedBasis",
    "IntMatrix",
    "assemble_matrix",
    "build_even_system",
    "build_odd_system",
    "induct_basis",
    "normalize_row",
    "validate_values",
    "solve",
    "determinant",
    "preset_values",
    "PRESETS",
    "quantize_matrix",
    "dequantize_error",
    "forward_2d",
    "inverse_2d",
    "compaction_report",
    "ConditioningWarning",
    "DegenerateFamilyError",
    "DegenerateValuesError",
    "FidelityError",
    "OddSizeError",
    "SingularSystemError",
    "SizeMismatchError",
    "UnknownPresetError",
    "ZeroRowError",
    "__version__",
]
