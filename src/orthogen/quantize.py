"""Integer approximation of orthogonal matrices for fixed-point codecs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import OrthoMatrix

AUTO_SCALE = "auto"


@dataclass(frozen=True)
class IntMatrix:
    """A scaled-and-rounded integer matrix together with its source."""

    n: int
    entries: np.ndarray
    scale: float
    source: OrthoMatrix


def auto_scale(n: int) -> float:
    """Default codec scaling 64*sqrt(n) (gives 64*sqrt(8) at n=8, 128 at n=4)."""
    return 64.0 * np.sqrt(n)


def quantize_matrix(matrix: OrthoMatrix, scale: float | str = AUTO_SCALE) -> IntMatrix:
    """Scale and round to integers, rounding ties away from zero.

    Raises ``ValueError`` for a scale that is not positive and finite, or
    whose rounded entries do not fit in int64.
    """
    if scale == AUTO_SCALE:
        factor = auto_scale(matrix.n)
    else:
        factor = float(scale)
        if not 0.0 < factor < math.inf:
            raise ValueError(f"scale must be positive and finite, got {factor:g}")
    scaled = matrix.entries * factor
    rounded = np.copysign(np.floor(np.abs(scaled) + 0.5), scaled)
    if not np.abs(rounded).max() < 2.0**63:
        raise ValueError(f"scale {factor:g} rounds entries beyond the int64 range")
    return IntMatrix(
        n=matrix.n,
        entries=rounded.astype(np.int64),
        scale=factor,
        source=matrix,
    )


def dequantize_error(im: IntMatrix) -> float:
    """Largest cellwise gap between entries/scale and the source matrix."""
    return float(np.abs(im.entries / im.scale - im.source.entries).max())
