"""Pivot test and solves for the moment systems of the coefficient induction.

Step t of the induction has a ``(k, t, t)`` stack of moment systems, and
``check_steps`` pivot-tests the stacks of consecutive steps, the largest
first, in one Gaussian elimination with partial pivoting, raising what solving
each system one by one, the smallest step first, raises. Each Schur-complement
entry takes one rounded product, then one subtraction, as in the plain
per-system elimination (Golub & Van Loan, Matrix Computations, sec. 3.2).
``core.assemble_matrix`` and ``core.induct_basis`` run only this test, once
per build, which makes their remaining refusals. It first equilibrates each
system with power-of-two column, then row, scales, applied as exponents with
``ldexp`` so that no scale overflows: exact in binary64, and the pivot
threshold then responds to genuine rank deficiency, not to the moment systems'
heavy grading. Each row's largest magnitude is then the mantissa ``frexp``
returned for it, so the pivot floor, ``PIVOT_RTOL`` times the largest
equilibrated entry, is read off the largest of those mantissas.
Above ``BATCHED_SIZE`` a stack joins the elimination, equilibrated, when the
elimination reaches its size, one per column. When it reaches
``BATCHED_SIZE``, the stacks left join as one batch, each padded with an
identity to the size present, and are equilibrated in one pass. The padding
is exact: real rows hold +0 in the identity's columns, so every factor there
is +0 and each real entry becomes a - (+0) = a, -0.0, inf and NaN included;
the identity's pivots read 0.5 once equilibrated, above every floor; and it
changes no real column's maximum, no real row's mantissa and no system's
floor, so every pivot, refusal and message is the per-column join's.
``solve`` is the test on one system followed by LAPACK's solve, the paper's
route to the coefficients. ``determinant`` is NumPy's LU determinant. Inputs
are never mutated.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import SingularSystemError

# A pivot below this fraction of the largest initial entry is treated as zero.
PIVOT_RTOL = 1e-12

# Stacks of this size and below join the elimination as one batch. A join
# costs about a dozen NumPy calls whatever its size, while the padding adds
# systems the elimination carries through every column from this size down.
# Timed on dct stacks at n = 24..96, bounds of 12 to 16 ran fastest, 12 by a
# little; from 20 up the padding's work outweighed the joins it saves.
BATCHED_SIZE = 12


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

    Above ``BATCHED_SIZE`` each stack is drawn when the elimination reaches
    its size, so a generator forms it only then. When the size present
    reaches ``BATCHED_SIZE``, every stack left is drawn at once and copied,
    as it is drawn, into an identity-padded slot of one batch, which is exact
    (see the module docstring); nothing is drawn past the stack of size 1,
    and sizes may stop short of it. A stack that is not double ends the batch
    and joins alone at its own column; the next column draws the stacks after
    it by the same rule. A stack of any other size, or an empty one, raises
    ``ValueError``.
    Raises what solving each system one by one, the smallest step first,
    raises for a finite right-hand side, with each stack checked for finite
    entries as a whole: the error of the smallest failing step, which is
    ``ValueError`` when its stack is not finite.
    """
    stacks = iter(stacks)
    work = next(stacks, None)
    if work is None:
        return
    size, floor, col_maxima = [], [], []  # per system its size and pivot floor; per join, its column maxima
    pivots = []  # per column, the pivots of the systems present
    held = []  # a stack the batch drew but left to join at its own column

    def checked(a, t: int | None) -> np.ndarray:
        # `a` as an array, once its shape is checked; the first stack sets t
        a = np.asarray(a)
        if 0 in a.shape or not a.shape:
            raise ValueError(f"expected a non-empty stack of systems, got shape {a.shape}")
        t = a.shape[-1] if t is None else t
        if a.shape[1:] != (t, t):
            raise ValueError(f"expected a stack of {t} x {t} systems, got shape {a.shape}")
        return a

    def batch(a: np.ndarray) -> np.ndarray:
        # `a` and every stack left, each copied as drawn into its slot's bottom-right
        # block in one identity-padded batch, grown for a stack with more systems. A
        # stack that is not double is held, to join at its own column in its dtype.
        t, end = a.shape[-1], 0
        out = np.zeros((len(a) * t, t, t))
        out.reshape(len(out), -1)[:, :: t + 1] = 1.0
        for s in range(t, 0, -1):
            if s < t:
                a = next(stacks, None)
                if a is None:
                    break
                a = checked(a, s)
                if a.dtype != float:
                    held.append(a)
                    break
            if end + len(a) > len(out):
                out = np.concatenate([out[:end], np.eye(t)[None].repeat(len(a) * s, axis=0)])
            out[end : end + len(a), t - s :, t - s :] = a
            end += len(a)
            size.extend([s] * len(a))
        return out[:end]

    def join(a, t: int | None, above: int) -> np.ndarray:
        # Equilibrates the stack (at BATCHED_SIZE and below, with every stack left) into a new
        # work array below `above` rows for the updated systems; the first keeps ldexp's array.
        a = checked(a, t)
        t = a.shape[-1]
        if t <= BATCHED_SIZE and a.dtype == float:
            a = batch(a)
        else:
            size.extend([t] * len(a))
        col_maxima.append(np.maximum.reduce(np.abs(a), axis=1))  # NaN or inf where a column is not finite
        a = np.ldexp(a, -np.frexp(col_maxima[-1])[1][:, None, :])
        mantissas, exponents = np.frexp(np.maximum.reduce(np.abs(a), axis=2))
        floor.append(PIVOT_RTOL * np.maximum.reduce(mantissas, axis=1))
        out = np.empty((above + len(a), t, t)) if above else a
        np.ldexp(a, -exponents[:, :, None], out=out[above:])
        return out

    # A failing system runs on into zero pivots and NaN, a non-finite one into NaN,
    # touching no other: each meets its first bad pivot as alone, judged after the loop.
    with np.errstate(invalid="ignore"):
        work = join(work, None, 0)
        systems = np.arange(len(work))
        for t in range(work.shape[-1] - 1, 0, -1):
            p = np.abs(work[:, :, 0]).argmax(axis=1)
            pivot_rows = work[systems, p]  # a new array, which nothing writes to
            work[systems, p] = work[:, 0]
            pivots.append(pivot_rows[:, 0])
            factors = work[:, 1:, 0] / pivot_rows[:, 0, None]
            # The stack of size t, if any and not in a batch (size[-1] is the
            # smallest size joined), joins below the updated systems.
            a = (held.pop() if held else next(stacks, None)) if t < size[-1] else None
            updated = np.empty((len(work), t, t)) if a is None else join(a, t, len(work))
            # One product per entry, rounded in the work's dtype, then one subtraction.
            present = updated[: len(work)]
            present[...] = factors[:, :, None]
            np.multiply(present, pivot_rows[:, None, 1:], out=present, dtype=work.dtype)
            np.subtract(work[:, 1:, 1:], present, out=present)
            work, systems = updated, systems if a is None else np.arange(len(updated))
    pivots.append(work[:, 0, 0])  # the last column's: one row is left
    # After one join every system is present at every column. None fails if no column
    # maximum is zero or not finite and no pivot is zero or below its floor.
    if len(col_maxima) == 1 and 0.0 < col_maxima[0].min() and col_maxima[0].max() < np.inf:
        table = np.abs(np.concatenate(pivots).reshape(len(pivots), -1))
        if 0.0 < table.min() and np.minimum.reduce(table >= floor[0], axis=None):
            return
    # Row j of the table holds column j's pivots; a system that joins later,
    # or a small one's padding, reads inf or 0.5 there, which passes.
    size, floor = np.array(size), np.concatenate(floor)
    nonfinite = np.concatenate([~(np.maximum.reduce(c, axis=1) < np.inf) for c in col_maxima])
    zero_column = np.concatenate([np.logical_or.reduce(c == 0.0, axis=1) for c in col_maxima])
    table = np.full((len(pivots), size.size), np.inf)
    for j, column in enumerate(pivots):
        table[j, : column.size] = column
    bad = (np.abs(table) < floor) | (table == 0.0)
    failed = np.flatnonzero(nonfinite | zero_column | bad.any(axis=0))
    if failed.size:
        s = failed[size[failed].argmin()]
        if nonfinite[size == size[s]].any():  # one stack per size
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
