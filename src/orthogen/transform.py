"""Separable 2D block transforms built on a generated matrix.

Blocks are plain n x n float arrays; the forward transform maps spatial
samples to frequency coefficients via M @ X @ M.T and the inverse undoes it
through the transpose, so round trips are exact up to floating-point noise.
"""

from __future__ import annotations

import numpy as np

from .core import OrthoMatrix
from .errors import SizeMismatchError


def _entries(matrix) -> np.ndarray:
    if isinstance(matrix, OrthoMatrix):
        return matrix.entries
    return np.asarray(matrix, dtype=float)


def _checked_block(m: np.ndarray, block) -> np.ndarray:
    b = np.asarray(block, dtype=float)
    if b.shape != (m.shape[0], m.shape[0]):
        raise SizeMismatchError(
            f"block shape {b.shape} does not match transform size {m.shape[0]}"
        )
    if not np.all(np.isfinite(b)):
        raise ValueError("block samples must be finite")
    return b


def forward_2d(matrix, block) -> np.ndarray:
    """Spatial block -> frequency coefficients (energy preserving)."""
    m = _entries(matrix)
    x = _checked_block(m, block)
    return m @ x @ m.T


def inverse_2d(matrix, block) -> np.ndarray:
    """Frequency coefficients -> spatial block."""
    m = _entries(matrix)
    y = _checked_block(m, block)
    return m.T @ y @ m


def compaction_report(matrix, block, keep: int) -> tuple[float, float]:
    """Energy compaction of a transform on one spatial block.

    Keeps only the ``keep`` largest-magnitude coefficients and returns
    ``(retained_energy_fraction, reconstruction_mse)``. The mse is the
    dropped energy over n^2, which by Parseval's identity is the
    reconstruction error for an orthonormal matrix.
    """
    m = _entries(matrix)
    x = _checked_block(m, block)
    n2 = x.size
    if not 1 <= keep <= n2:
        raise ValueError(f"keep must be in 1..{n2}, got {keep}")
    # Ties in magnitude do not change the energies, so sorting them suffices.
    energy = np.sort(np.square(m @ x @ m.T).ravel())
    total = float(energy.sum())
    dropped = float(energy[: n2 - keep].sum())
    retained = 1.0 if total == 0.0 else (total - dropped) / total
    return retained, dropped / n2
