"""Pivot test and solves for the moment systems of the coefficient induction.

Step t of the induction has a ``(k, t, t)`` stack of moment systems, and
``check_steps`` pivot-tests the stacks of steps 1..s in one Gaussian
elimination with partial pivoting: every system sits in the bottom-right
corner of one frame of size s, stack t joins it at column s - t, and each
system gets exactly the arithmetic it would get alone, so the test raises
what solving the stacks one by one, the smallest first, raises.
``core.assemble_matrix`` and ``core.induct_basis`` run only this test, once
per build, which is where their remaining refusals come from; the
coefficients come from the three-term recurrence. The test first equilibrates
each system with power-of-two row/column scales, applied as exponents with
``ldexp`` so that no scale overflows; that is exact in binary64 and makes the
pivot threshold respond to genuine rank deficiency instead of the heavy
grading the moment systems carry. Each row's largest magnitude is then the
mantissa ``frexp`` returned for it, so the pivot floor, ``PIVOT_RTOL`` times
the largest equilibrated entry, is read off the largest of those mantissas.
``solve`` is the test on one stack followed by LAPACK's solve, and reproduces
the paper's moment-system route to the coefficients. ``determinant`` is
NumPy's LU determinant. Inputs are never mutated.
"""

from __future__ import annotations

from typing import Callable

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


def check_steps(moments: Callable[[int], np.ndarray], last: int, first: int = 1) -> None:
    """Pivot-test ``moments(last), moments(last - 1), ..., moments(first)``
    in one elimination; returns nothing.

    ``moments(t)`` returns a ``(k, t, t)`` float stack and is called when the
    stack joins, at column ``last - t``. At column j every system present has
    ``last - j`` rows and columns left, so one pass per column eliminates them
    all. Raises exactly what
    ``for t in range(first, last + 1): solve(moments(t), rhs)`` raises for a
    finite ``rhs``: the error of the smallest failing step, which is
    ``ValueError`` when its stack is not finite.
    """
    if first > last:
        return
    # Per join, (step, stack size, whether the stack is not finite); per system,
    # in joining order, whether it has a zero column and its pivot floor.
    joins, zero_column, floor = [], [], []
    pivots = []  # per column, the pivots of the systems present

    def join(t: int) -> np.ndarray:
        a = moments(t)
        col_maxima = np.abs(a).max(axis=1)  # NaN or inf where a column is not finite
        joins.append((t, len(a), not col_maxima.max() < np.inf))
        a = np.ldexp(a, -np.frexp(col_maxima)[1][:, None, :])
        mantissas, exponents = np.frexp(np.abs(a).max(axis=2))
        zero_column.append((col_maxima == 0.0).any(axis=1))
        floor.append(PIVOT_RTOL * mantissas.max(axis=1))
        return np.ldexp(a, -exponents[:, :, None])

    # A failing system runs on into zero pivots and NaN, a non-finite one
    # into NaN; neither touches another system. Each is refused after the
    # loop, a failing one by the first bad pivot, which it meets as it would
    # alone.
    with np.errstate(invalid="ignore"):
        work = join(last)
        for j in range(last):
            systems = np.arange(len(work))
            p = np.abs(work[:, :, 0]).argmax(axis=1)
            pivot_rows = work[systems, p]
            work[systems, p] = work[:, 0]
            pivots.append(pivot_rows[:, 0].copy())
            factors = work[:, 1:, 0] / pivot_rows[:, 0, None]
            # The next step, t = last - j - 1, joins below the updated systems.
            t = last - j - 1
            joining = join(t) if t >= first else np.empty((0, t, t))
            updated = np.empty((len(work) + len(joining), t, t))
            present = updated[: len(work)]
            np.multiply(factors[:, :, None], pivot_rows[:, None, 1:], out=present)
            np.subtract(work[:, 1:, 1:], present, out=present)
            updated[len(work) :] = joining
            work = updated
    # pivots[j] holds the pivots of the systems present at column j, the
    # first of them in joining order; the columns before a system joined hold
    # inf, which passes the test.
    joined = np.array(joins)
    step, _, nonfinite = np.repeat(joined, joined[:, 1], axis=0).T
    start = last - step
    table = np.full((last, step.size), np.inf)
    table[start <= np.arange(last)[:, None]] = np.concatenate(pivots)
    floor, zero_column = np.concatenate(floor), np.concatenate(zero_column)
    bad = (np.abs(table) < floor) | (table == 0.0)
    failed = np.flatnonzero(nonfinite | zero_column | bad.any(axis=0))
    if failed.size:
        s = failed[step[failed].argmin()]
        if nonfinite[s]:
            raise ValueError("matrix entries must be finite")
        if zero_column[s]:
            raise SingularSystemError("zero column: matrix is singular")
        j = int(bad[:, s].argmax())
        raise SingularSystemError(
            f"pivot {table[j, s]:.3e} in column {j - start[s]} below threshold {floor[s]:.3e}"
        )


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
    check_steps(lambda _: a, a.shape[-1], a.shape[-1])
    # A trailing unit axis makes b a stack of columns under NumPy 1.x and 2.x alike.
    x = np.linalg.solve(a, b[..., None])[..., 0]
    return x[0] if single else x


def determinant(a) -> float:
    """Determinant of a square matrix (LAPACK LU); ~0.0 for singular input."""
    return float(np.linalg.det(_checked_square(a)))
