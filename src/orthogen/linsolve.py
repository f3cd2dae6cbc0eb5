"""Pivot test and solves for the moment systems of the coefficient induction.

``check`` runs Gaussian elimination with partial pivoting on one system or a
``(k, t, t)`` stack of them, sized for the tiny systems the induction produces
(t <= m-1 unknowns), and refuses a pivot too small to trust. ``check_stacks``
runs it on a sequence of stacks of different sizes as one elimination: every
system sits in the bottom-right corner of one frame, joins when the
elimination reaches its first column, and gets exactly the arithmetic it
would get alone, so it raises what checking the stacks one by one raises.
``core.assemble_matrix`` and ``core.induct_basis`` run only this test, once per
build on every step's moment systems, which is where their remaining
refusals come from; the coefficients come from the three-term recurrence.
The test first equilibrates each system with power-of-two row/column scales,
applied as exponents with ``ldexp`` so that no scale overflows; that is exact
in binary64 and makes the pivot threshold respond to genuine rank deficiency
instead of the heavy grading the moment systems carry. ``solve`` is that test
followed by LAPACK's solve, and reproduces the paper's moment-system route to
the coefficients. ``determinant`` is NumPy's LU determinant. Inputs are never
mutated.
"""

from __future__ import annotations

from typing import Callable, Sequence

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


def _eliminate(sizes: Sequence[int], stack: Callable[[int], np.ndarray]) -> None:
    """Pivot-test ``stack(0), stack(1), ...`` in one elimination and raise
    what testing them one at a time, in that order, raises.

    ``stack(i)`` returns a validated ``(k, t, t)`` stack, t = ``sizes[i]``, or
    raises ``ValueError``. Every system sits in the bottom-right corner of one
    frame as large as the largest: a system of size t joins at column n - t,
    the largest first, and ``stack(i)`` is called only then. At column j each
    system present has n - j rows and columns left, so one pass per column
    eliminates them all, each with exactly the arithmetic it gets alone. A
    stack that raises stops the test: the stacks after it are dropped, and
    its error is raised unless an earlier stack fails.
    """
    n = max(sizes, default=0)
    # Popped from the end: largest first, equal sizes in index order.
    joining = sorted(range(len(sizes)), key=lambda i: (sizes[i], -i))
    stop, stop_error = len(sizes), None
    # Per system, in the order they joined: its stack's index, the column it
    # joined at, whether it has a zero column, and its pivot floor.
    owner, start, zero_column, floor = [], [], [], []
    pivots = []  # per column, the pivots of the systems present

    def join(j: int) -> list[np.ndarray]:
        # The equilibrated systems that join at column j.
        nonlocal stop, stop_error
        joined = []
        while joining and sizes[joining[-1]] == n - j:
            i = joining.pop()
            if i > stop:
                continue
            try:
                a = stack(i)
            except ValueError as exc:
                stop, stop_error = i, exc
                continue
            col_maxima = np.abs(a).max(axis=1)
            a = np.ldexp(a, -_pow2_exponents(col_maxima)[:, None, :])
            a = np.ldexp(a, -_pow2_exponents(np.abs(a).max(axis=2))[:, :, None])
            owner.extend([i] * len(a))
            start.extend([j] * len(a))
            zero_column.append((col_maxima == 0.0).any(axis=1))
            floor.append(PIVOT_RTOL * np.abs(a).max(axis=(1, 2)))
            joined.append(a)
        return joined

    work = np.concatenate([np.empty((0, n, n)), *join(0)])
    # A failing system runs on into zero pivots and NaN; it is refused after
    # the loop by its first bad pivot, which it meets as it would alone.
    with np.errstate(invalid="ignore"):
        for j in range(n):
            systems = np.arange(len(work))
            p = np.abs(work[:, :, 0]).argmax(axis=1)
            pivot_rows = work[systems, p]
            work[systems, p] = work[:, 0]
            pivots.append(pivot_rows[:, 0].copy())
            factors = work[:, 1:, 0] / pivot_rows[:, 0, None]
            # The systems joining at the next column go below the updated ones.
            joined = join(j + 1)
            s = n - j - 1
            updated = np.empty((len(work) + sum(map(len, joined)), s, s))
            present = updated[: len(work)]
            np.multiply(factors[:, :, None], pivot_rows[:, None, 1:], out=present)
            np.subtract(work[:, 1:, 1:], present, out=present)
            if joined:
                updated[len(work) :] = np.concatenate(joined)
            work = updated
    if owner:
        # pivots[j] holds the pivots of the systems present at column j, the
        # first of them in joining order; the columns before a system joined
        # hold inf, which passes the test.
        start = np.array(start)
        table = np.full((n, start.size), np.inf)
        table[start <= np.arange(n)[:, None]] = np.concatenate(pivots)
        floor = np.concatenate(floor)
        zero_column = np.concatenate(zero_column)
        owner = np.array(owner)
        bad = (np.abs(table) < floor) | (table == 0.0)
        failed = np.flatnonzero((zero_column | bad.any(axis=0)) & (owner < stop))
        if failed.size:
            s = failed[owner[failed].argmin()]
            if zero_column[s]:
                raise SingularSystemError("zero column: matrix is singular")
            j = int(bad[:, s].argmax())
            raise SingularSystemError(
                f"pivot {table[j, s]:.3e} in column {j - start[s]} below threshold {floor[s]:.3e}"
            )
    if stop_error is not None:
        raise stop_error


def check(a) -> None:
    """Run only the pivot test of :func:`solve` on ``a``, one ``(t, t)``
    matrix or a ``(k, t, t)`` stack. Raises exactly the
    :class:`SingularSystemError` or ``ValueError`` that ``solve(a, rhs)``
    raises for any finite ``rhs`` of the right shape; returns nothing.
    """
    a = _checked_square(a, stack=True)
    a = a[None] if a.ndim == 2 else a
    _eliminate([a.shape[-1]], lambda _: a)


def check_stacks(sizes: Sequence[int], stack: Callable[[int], object]) -> None:
    """Run :func:`check` on ``stack(0), stack(1), ...`` as one elimination.

    ``stack(i)`` gives one matrix or a stack of ``sizes[i]`` unknowns; it is
    called only when its systems join the elimination, the largest first, so
    the stacks are never all held at once. Raises exactly what
    ``for i in range(len(sizes)): check(stack(i))`` raises; returns nothing.
    """
    if min(sizes, default=1) < 1:
        raise ValueError(f"every stack needs at least one unknown, got sizes {list(sizes)}")

    def validated(i: int) -> np.ndarray:
        a = _checked_square(stack(i), stack=True)
        if a.shape[-1] != sizes[i]:
            raise ValueError(f"stack {i} has {a.shape[-1]} unknowns, expected {sizes[i]}")
        return a[None] if a.ndim == 2 else a

    _eliminate(sizes, validated)


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
    _eliminate([a.shape[-1]], lambda _: a)
    # A trailing unit axis makes b a stack of columns under NumPy 1.x and 2.x alike.
    x = np.linalg.solve(a, b[..., None])[..., 0]
    return x[0] if single else x


def determinant(a) -> float:
    """Determinant of a square matrix (LAPACK LU); ~0.0 for singular input."""
    return float(np.linalg.det(_checked_square(a)))
