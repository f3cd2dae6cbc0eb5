"""Pivot test and solves for the moment systems of the coefficient induction.

Step t of the induction has a ``(k, t, t)`` stack of moment systems, and
``check_steps`` pivot-tests the stacks of consecutive steps, the largest
first, in one Gaussian elimination with partial pivoting, raising what solving
each system one by one, the smallest step first, raises. Each Schur-complement
entry takes one rounded product, then one subtraction, as in the plain
per-system elimination (Golub & Van Loan, Matrix Computations, sec. 3.2).
``core.assemble_matrix`` and ``core.induct_basis`` run only this test, once
per build, which is where their remaining refusals come from; the
coefficients come from the three-term recurrence. The test first equilibrates
each system with power-of-two row/column scales, applied as exponents with
``ldexp`` so that no scale overflows; that is exact in binary64 and makes the
pivot threshold respond to genuine rank deficiency instead of the heavy
grading the moment systems carry. Each row's largest magnitude is then the
mantissa ``frexp`` returned for it, so the pivot floor, ``PIVOT_RTOL`` times
the largest equilibrated entry, is read off the largest of those mantissas.
``solve`` is the test on one system followed by LAPACK's solve, and reproduces
the paper's moment-system route to the coefficients. ``determinant`` is
NumPy's LU determinant. Inputs are never mutated.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import SingularSystemError

# A pivot below this fraction of the largest initial entry is treated as zero.
PIVOT_RTOL = 1e-12


def _checked_square(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def check_steps(stacks: Iterable[np.ndarray]) -> None:
    """Pivot-test ``(k, t, t)`` stacks whose sizes t fall by one from the
    first, in one elimination; returns nothing.

    Each stack is drawn when the elimination reaches its size, so a generator
    forms it only then; a stack of any other size raises ``ValueError``.
    Raises what solving each system one by one, the smallest step first,
    raises for a finite right-hand side, with each stack checked for finite
    entries as a whole: the error of the smallest failing step, which is
    ``ValueError`` when its stack is not finite.
    """
    stacks = iter(stacks)
    work = next(stacks, None)
    if work is None:
        return
    # Per system, in joining order: its size, whether its stack is not
    # finite, whether it has a zero column, and its pivot floor.
    size, nonfinite, zero_column, floor = [], [], [], []
    pivots = []  # per column, the pivots of the systems present

    def join(a: np.ndarray, t: int, above: int) -> np.ndarray:
        # Equilibrates the stack into a new work array, below `above` rows
        # left for the updated systems; the first stack keeps ldexp's dtype.
        if np.shape(a)[1:] != (t, t):
            raise ValueError(f"expected a stack of {t} x {t} systems, got shape {np.shape(a)}")
        col_maxima = np.maximum.reduce(np.abs(a), axis=1)  # NaN or inf where a column is not finite
        size.extend([t] * len(a))
        nonfinite.extend([not np.maximum.reduce(col_maxima, axis=None) < np.inf] * len(a))
        a = np.ldexp(a, -np.frexp(col_maxima)[1][:, None, :])
        mantissas, exponents = np.frexp(np.maximum.reduce(np.abs(a), axis=2))
        zero_column.append(np.logical_or.reduce(col_maxima == 0.0, axis=1))
        floor.append(PIVOT_RTOL * np.maximum.reduce(mantissas, axis=1))
        out = np.empty((above + len(a), t, t), float if above else a.dtype)
        np.ldexp(a, -exponents[:, :, None], out=out[above:])
        return out

    # A failing system runs on into zero pivots and NaN, a non-finite one into
    # NaN; neither touches another system. Each is refused after the loop, a
    # failing one by the first bad pivot, which it meets as it would alone.
    with np.errstate(invalid="ignore"):
        work = join(work, np.shape(work)[-1], 0)
        systems = np.arange(len(work))
        for t in range(work.shape[-1] - 1, 0, -1):
            p = np.abs(work[:, :, 0]).argmax(axis=1)
            pivot_rows = work[systems, p]
            work[systems, p] = work[:, 0]
            pivots.append(pivot_rows[:, 0].copy())
            factors = work[:, 1:, 0] / pivot_rows[:, 0, None]
            # The stack of size t, if any, joins below the updated systems.
            a = next(stacks, None)
            updated = np.empty((len(work), t, t)) if a is None else join(a, t, len(work))
            # One product per entry, rounded in the work's dtype, then one subtraction.
            present = updated[: len(work)]
            present[...] = factors[:, :, None]
            np.multiply(present, pivot_rows[:, None, 1:], out=present, dtype=work.dtype)
            np.subtract(work[:, 1:, 1:], present, out=present)
            work, systems = updated, systems if a is None else np.arange(len(updated))
    pivots.append(work[:, 0, 0])  # the last column's: one row is left
    # Row j of the table holds the pivots of the systems present at column j;
    # a system that joins later reads inf there, which passes the test.
    size, nonfinite = np.array(size), np.array(nonfinite)
    floor, zero_column = np.concatenate(floor), np.concatenate(zero_column)
    table = np.full((len(pivots), size.size), np.inf)
    for j, column in enumerate(pivots):
        table[j, : column.size] = column
    bad = (np.abs(table) < floor) | (table == 0.0)
    failed = np.flatnonzero(nonfinite | zero_column | bad.any(axis=0))
    if failed.size:
        s = failed[size[failed].argmin()]
        if nonfinite[s]:
            raise ValueError("matrix entries must be finite")
        if zero_column[s]:
            raise SingularSystemError("zero column: matrix is singular")
        j = int(bad[:, s].argmax())
        raise SingularSystemError(
            f"pivot {table[j, s]:.3e} in column {j - len(table) + size[s]} below threshold {floor[s]:.3e}"
        )


def solve(a, rhs) -> np.ndarray:
    """Solve ``a @ x = rhs`` for a square ``a``; ``rhs`` holds t entries in
    any shape and the result is ``(t,)``. A system that passes the pivot test
    is solved by LAPACK (``numpy.linalg.solve``).

    Raises :class:`SingularSystemError` when ``a`` has a zero column or any
    pivot of the equilibrated matrix falls below ``PIVOT_RTOL`` times its
    largest initial entry magnitude; for the induction systems that signals
    duplicate or otherwise degenerate generator values.
    """
    a = _checked_square(a)
    b = np.array(rhs, dtype=float)
    if b.size != len(a):
        raise ValueError(f"right-hand side of shape {np.shape(rhs)} does not match matrix shape {a.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side entries must be finite")
    check_steps([a[None]])
    return np.linalg.solve(a, b.reshape(-1))


def determinant(a) -> float:
    """Determinant of a square matrix (LAPACK LU); ~0.0 for singular input."""
    return float(np.linalg.det(_checked_square(a)))
