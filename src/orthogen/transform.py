"""Separable 2D block transforms built on a generated matrix.

Blocks are n x n float arrays, or (..., n, n) stacks of them; the forward
transform maps spatial samples to frequency coefficients via M @ X @ M.T and
the inverse undoes it through the transpose, so round trips are exact up to
floating-point noise.
"""

from __future__ import annotations

import math

import numpy as np

from .core import OrthoMatrix
from .errors import SizeMismatchError


def _operands(matrix, block, stack: bool) -> tuple[np.ndarray, np.ndarray]:
    """The matrix entries and the block as floats; the block must be n x n
    (or, with ``stack``, a ``(..., n, n)`` stack of blocks) and finite."""
    m = matrix.entries if isinstance(matrix, OrthoMatrix) else np.asarray(matrix, dtype=float)
    x = np.asarray(block, dtype=float)
    n = m.shape[0]
    if x.shape[-2:] != (n, n) or not (stack or x.ndim == 2):
        raise SizeMismatchError(f"block shape {x.shape} does not match transform size {n}")
    # A finite sum of squares rules out NaN and +/-inf in one reduction; it
    # overflows for huge finite samples, so only then scan elementwise.
    if not math.isfinite(np.vdot(x, x)) and not np.isfinite(x).all():
        raise ValueError("block samples must be finite")
    return m, x


def forward_2d(matrix, block) -> np.ndarray:
    """Spatial block or stack -> frequency coefficients (energy preserving)."""
    m, x = _operands(matrix, block, stack=True)
    return m @ x @ m.T


def inverse_2d(matrix, block) -> np.ndarray:
    """Frequency coefficients (one block or a stack) -> spatial samples."""
    m, y = _operands(matrix, block, stack=True)
    return m.T @ y @ m


def compaction_report(matrix, block, keep: int) -> tuple[float, float]:
    """Energy compaction of a transform on one spatial block.

    Keeps only the ``keep`` largest-magnitude coefficients and returns
    ``(retained_energy_fraction, reconstruction_mse)``. The mse is the
    dropped energy over n^2, which by Parseval's identity is the
    reconstruction error for an orthonormal matrix.
    """
    m, x = _operands(matrix, block, stack=False)
    n2 = x.size
    if not 1 <= keep <= n2:
        raise ValueError(f"keep must be in 1..{n2}, got {keep}")
    energy = (m @ x @ m.T).ravel()
    # Squares of huge coefficients overflow, and those of tiny ones lose bits
    # to subnormals; for a sum of at least 2**-969 (2**53 times the smallest
    # normal) that loss is below the sum's rounding. Otherwise rescale by a
    # power of two, which is exact and cancels in the fraction, and scale the
    # mse back.
    shift = 0
    if not 2.0**-969 <= np.vdot(energy, energy) < math.inf:
        shift = int(np.frexp(np.abs(energy).max())[1])
        energy = np.ldexp(energy, -shift)
    # Ties in magnitude do not change the energies, so sorting them suffices.
    energy *= energy
    energy.sort()
    total = float(energy.sum())
    dropped = float(energy[: n2 - keep].sum())
    retained = 1.0 if total == 0.0 else (total - dropped) / total
    mse = dropped / n2
    if shift:
        with np.errstate(over="ignore"):  # an mse beyond the double range reads inf
            mse = float(np.ldexp(mse, 2 * shift))
    return retained, mse
