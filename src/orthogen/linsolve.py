"""Pivot test and solves for the moment systems of the coefficient induction.

``check`` runs Gaussian elimination with partial pivoting on one system or a
``(k, t, t)`` stack of them, sized for the tiny systems the induction produces
(t <= m-1 unknowns), and refuses a pivot too small to trust; every system of a
stack gets exactly the arithmetic it would get alone. ``core.assemble_matrix``
and ``core.induct_basis`` run only this test on the moment systems, which is
where their remaining refusals come from; the coefficients come from the
three-term recurrence. The test first equilibrates each system with
power-of-two row/column scales, applied as exponents with ``ldexp`` so that no
scale overflows; that is exact in binary64 and makes the pivot threshold
respond to genuine rank deficiency instead of the heavy grading the moment
systems carry. ``solve`` is that test followed by LAPACK's solve, and
reproduces the paper's moment-system route to the coefficients.
``determinant`` is NumPy's LU determinant. Inputs are never mutated.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularSystemError

# A pivot below this fraction of the largest initial entry is treated as zero.
PIVOT_RTOL = 1e-12


def _checked_square(a, stack: bool = False) -> np.ndarray:
    a = np.array(a, dtype=float)
    if a.ndim not in ((2, 3) if stack else (2,)) or a.shape[-1] != a.shape[-2] or a.size == 0:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _pow2_exponents(maxima: np.ndarray) -> np.ndarray:
    # Exponent e with max / 2**e in [0.5, 1); 0 for zero maxima.
    return np.frexp(maxima)[1]


def _eliminate(a: np.ndarray) -> None:
    """Equilibrate and eliminate a validated ``(k, t, t)`` stack and raise the
    error of its first failing system."""
    k, n = a.shape[:2]
    col_maxima = np.abs(a).max(axis=1)
    a = np.ldexp(a, -_pow2_exponents(col_maxima)[:, None, :])
    a = np.ldexp(a, -_pow2_exponents(np.abs(a).max(axis=2))[:, :, None])
    floor = PIVOT_RTOL * np.abs(a).max(axis=(1, 2))

    systems = np.arange(k)
    # A failing system runs on into zero pivots and NaN; it is refused after
    # the loop by its first bad pivot, which it meets as it would alone.
    with np.errstate(invalid="ignore"):
        for j in range(n):
            p = j + np.abs(a[:, j:, j]).argmax(axis=1)
            pivot_rows = a[systems, p]
            a[systems, p] = a[:, j]
            a[:, j] = pivot_rows
            factors = a[:, j + 1 :, j] / pivot_rows[:, j, None]
            a[:, j + 1 :, j + 1 :] -= factors[:, :, None] * pivot_rows[:, None, j + 1 :]
        pivots = np.diagonal(a, axis1=1, axis2=2)
        bad = (np.abs(pivots) < floor[:, None]) | (pivots == 0.0)
    zero_column = (col_maxima == 0.0).any(axis=1)
    failed = zero_column | bad.any(axis=1)
    if failed.any():
        i = int(failed.argmax())
        if zero_column[i]:
            raise SingularSystemError("zero column: matrix is singular")
        j = int(bad[i].argmax())
        raise SingularSystemError(
            f"pivot {pivots[i, j]:.3e} in column {j} below threshold {floor[i]:.3e}"
        )


def check(a) -> None:
    """Run only the pivot test of :func:`solve` on ``a``, one ``(t, t)``
    matrix or a ``(k, t, t)`` stack. Raises exactly the
    :class:`SingularSystemError` or ``ValueError`` that ``solve(a, rhs)``
    raises for any finite ``rhs`` of the right shape; returns nothing.
    """
    a = _checked_square(a, stack=True)
    _eliminate(a[None] if a.ndim == 2 else a)


def solve(a, rhs) -> np.ndarray:
    """Solve ``a @ x = rhs`` for a square ``a``, or for each system of a stack.

    ``a`` is ``(t, t)`` with t ``rhs`` entries, or a ``(k, t, t)`` stack with
    a ``(k, t)`` ``rhs``; the result is ``(t,)`` or ``(k, t)``. A system that
    passes the pivot test is solved by LAPACK (``numpy.linalg.solve``).

    Raises :class:`SingularSystemError` when a matrix has a zero column or any
    pivot of the equilibrated matrix falls below ``PIVOT_RTOL`` times its
    largest initial entry magnitude; for the induction systems that signals
    duplicate or otherwise degenerate generator values. A stack raises the
    error of its first failing system, as that system alone would.
    """
    a = _checked_square(a, stack=True)
    b = np.array(rhs, dtype=float)
    single = a.ndim == 2
    if single:
        a, b = a[None], b.reshape(1, -1)
    if b.shape != a.shape[:2]:
        raise ValueError(
            f"right-hand side of shape {np.shape(rhs)} does not match matrix shape {a.shape[single:]}"
        )
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side entries must be finite")
    _eliminate(a)
    # A trailing unit axis makes b a stack of columns under NumPy 1.x and 2.x alike.
    x = np.linalg.solve(a, b[..., None])[..., 0]
    return x[0] if single else x


def determinant(a) -> float:
    """Determinant of a square matrix (LAPACK LU); ~0.0 for singular input."""
    return float(np.linalg.det(_checked_square(a)))
