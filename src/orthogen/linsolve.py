"""Dense kernel for the coefficient induction: square solves and determinants.

``solve`` runs Gaussian elimination with partial pivoting, sized for the tiny
systems the induction produces (t <= m-1 unknowns), and refuses a pivot too
small to trust. It equilibrates each system with power-of-two row/column
scales first; that is exact in binary64 and makes the pivot threshold respond
to genuine rank deficiency instead of the heavy grading the moment systems
carry. ``determinant`` is NumPy's LU determinant. Inputs are never mutated.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularSystemError

# A pivot below this fraction of the largest initial entry is treated as zero.
PIVOT_RTOL = 1e-12


def _checked_square(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _pow2_scales(maxima: np.ndarray) -> np.ndarray:
    # Exact power-of-two factor with max/scale in [0.5, 1); 1.0 for zero rows.
    return np.ldexp(1.0, np.frexp(maxima)[1])


def solve(a, rhs) -> np.ndarray:
    """Solve ``a @ x = rhs`` for a square ``a``.

    Raises :class:`SingularSystemError` when any pivot of the equilibrated
    matrix falls below ``PIVOT_RTOL`` times its largest initial entry
    magnitude; for the induction systems that signals duplicate or otherwise
    degenerate generator values.
    """
    a = _checked_square(a)
    b = np.array(rhs, dtype=float).reshape(-1)
    n = a.shape[0]
    if b.shape[0] != n:
        raise ValueError(f"right-hand side length {b.shape[0]} does not match size {n}")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side entries must be finite")

    col_maxima = np.abs(a).max(axis=0)
    if (col_maxima == 0.0).any():
        raise SingularSystemError("zero column: matrix is singular")
    col_scale = _pow2_scales(col_maxima)
    a /= col_scale[None, :]
    row_scale = _pow2_scales(np.abs(a).max(axis=1))
    a /= row_scale[:, None]
    b = b / row_scale

    floor = PIVOT_RTOL * np.abs(a).max()
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[p, k]) < floor or a[p, k] == 0.0:
            raise SingularSystemError(
                f"pivot {a[p, k]:.3e} in column {k} below threshold {floor:.3e}"
            )
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
        factors = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k + 1 :] -= np.outer(factors, a[k, k + 1 :])
        b[k + 1 :] -= factors * b[k]

    x = np.empty(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - np.dot(a[k, k + 1 :], x[k + 1 :])) / a[k, k]
    return x / col_scale


def determinant(a) -> float:
    """Determinant of a square matrix (LAPACK LU); ~0.0 for singular input."""
    return float(np.linalg.det(_checked_square(a)))
