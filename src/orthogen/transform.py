"""Separable 2D block transforms built on a generated matrix.

Blocks are n x n float arrays, or (..., n, n) stacks of them; the forward
transform maps spatial samples to frequency coefficients via M @ X @ M.T and
the inverse undoes it through the transpose, so round trips are exact up to
floating-point noise.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .core import OrthoMatrix
from .errors import SizeMismatchError


def _transform(matrix, block, stack: bool, inverse: bool = False) -> np.ndarray:
    """``M @ X @ M.T`` (or ``M.T @ X @ M`` with ``inverse``) for a block that
    is n x n (or, with ``stack``, a ``(..., n, n)`` stack of blocks) and finite.
    Raises ``ValueError`` when a coefficient overflows the double range."""
    m = matrix.entries if isinstance(matrix, OrthoMatrix) else np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SizeMismatchError(f"transform matrix shape {m.shape} is not square")
    x = np.asarray(block, dtype=float)
    n = m.shape[0]
    if x.shape[-2:] != (n, n) or not (stack or x.ndim == 2):
        raise SizeMismatchError(f"block shape {x.shape} does not match transform size {n}")
    if x.ndim == 2:
        # np.dot runs the BLAS product that @ runs, without the matmul
        # gufunc's dispatch. It would copy a non-contiguous operand to row
        # order, where @ may pass it to BLAS transposed, and BLAS rounds the
        # two products differently. Copying such an operand in its own memory
        # order keeps the BLAS call of @, so every bit, and spares np.vdot
        # and np.dot a copy each. On a stack np.dot would contract axes, so
        # stacks keep @.
        product = np.dot
        if not m.flags.forc:
            m = m.copy(order="K")
        if not x.flags.forc:
            x = x.copy(order="K")
    else:
        product = np.matmul
    left, right = (m.T, m) if inverse else (m, m.T)
    # A finite sum of squares rules out NaN and +/-inf in one reduction and,
    # M being orthonormal, bounds every coefficient by the block's norm. It
    # overflows for huge finite samples; only then scan them elementwise and
    # check the result.
    if math.isfinite(np.vdot(x, x)):
        return product(product(left, x), right)
    if not np.isfinite(x).all():
        raise ValueError("block samples must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        result = product(product(left, x), right)
    if not np.isfinite(result).all():
        raise ValueError("block transform overflows: a coefficient is beyond the double range")
    return result


def forward_2d(matrix, block) -> np.ndarray:
    """Spatial block or stack -> frequency coefficients (energy preserving)."""
    return _transform(matrix, block, stack=True)


def inverse_2d(matrix, block) -> np.ndarray:
    """Frequency coefficients (one block or a stack) -> spatial samples."""
    return _transform(matrix, block, stack=True, inverse=True)


def compaction_report(matrix, block, keep: int) -> tuple[float, float]:
    """Energy compaction of a transform on one spatial block.

    Keeps only the ``keep`` largest-magnitude coefficients and returns
    ``(retained_energy_fraction, reconstruction_mse)``. The mse is the
    dropped energy over n^2, which by Parseval's identity is the
    reconstruction error for an orthonormal matrix.
    """
    energy = _transform(matrix, block, stack=False).ravel()
    n2 = energy.size
    # operator.index would take a bool as 0 or 1.
    if isinstance(keep, bool) or not hasattr(keep, "__index__"):
        raise ValueError(f"keep must be an integer, got {keep!r}")
    keep = operator.index(keep)
    if not 1 <= keep <= n2:
        raise ValueError(f"keep must be in 1..{n2}, got {keep}")
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
    # np.add.reduce is the pairwise sum ndarray.sum runs, without its wrapper.
    total = float(np.add.reduce(energy))
    dropped = float(np.add.reduce(energy[: n2 - keep]))
    retained = 1.0 if total == 0.0 else (total - dropped) / total
    mse = dropped / n2
    if shift:
        with np.errstate(over="ignore"):  # an mse beyond the double range reads inf
            mse = float(np.ldexp(mse, 2 * shift))
    return retained, mse
