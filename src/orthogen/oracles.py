"""Brute-force reference constructions used by the test suite.

These deliberately avoid the coefficient-induction path: the Gram-Schmidt
oracle orthonormalizes the raw monomial family over the mirrored sample
points, the exact oracle runs the three-term recurrence in rational
arithmetic, the DCT oracle is the closed-form DCT-II, and the small-case
oracle solves the t=1 coefficient equations in closed form with exact
rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DegenerateFamilyError

# Post-projection norm below this fraction of the original row norm means the
# monomial family is linearly dependent (duplicate sample values).
COLLAPSE_RTOL = 1e-12


def gram_schmidt_matrix(values: Sequence[float]) -> np.ndarray:
    """Orthonormal rows spanning monomials of increasing degree on +/-values.

    Uses the same column layout as the generator (negated values in input
    order, then positive values reversed) so rows are directly comparable up
    to a per-row sign. Modified Gram-Schmidt with one reorthogonalization
    pass; values are pre-divided by their maximum, which cannot change the
    result (each monomial row is scaled by a positive constant) but keeps the
    family well conditioned.
    """
    vals = np.asarray(values, dtype=float)
    x = np.concatenate([-vals, vals[::-1]])
    x = x / np.abs(x).max()
    n = x.size
    rows: list[np.ndarray] = []
    for degree in range(n):
        row = x**degree
        original_norm = float(np.linalg.norm(row))
        for _ in range(2):
            for basis_row in rows:
                row = row - np.dot(row, basis_row) * basis_row
        norm = float(np.linalg.norm(row))
        if norm < COLLAPSE_RTOL * original_norm:
            raise DegenerateFamilyError(
                f"monomial of degree {degree} collapses under projection; "
                "sample values are not distinct"
            )
        rows.append(row / norm)
    return np.vstack(rows)


def exact_family(values: Sequence[float]) -> tuple[list[list[Fraction]], list[Fraction]]:
    """The monic orthogonal polynomials p_k at the mirrored points and their
    squared norms |p_k|^2, in exact rationals.

    On the mirrored points x (same column layout as the generator) they obey
    the three-term recurrence
    p_{k+1} = x p_k - (|p_k|^2 / |p_{k-1}|^2) p_{k-1}, with no constant term
    because the points are symmetric about zero. Each value is taken exactly
    as its binary64 number. The rationals grow quickly with n: n <= 16 takes
    well under a second.
    """
    vals = [Fraction(v) for v in np.asarray(values, dtype=float).tolist()]
    xs = [-v for v in vals] + vals[::-1]
    n = len(xs)
    rows = [[Fraction(1)] * n, xs]
    norms = [Fraction(n), sum(x * x for x in xs)]
    while len(rows) < n:
        ratio = norms[-1] / norms[-2]
        rows.append([x * p - ratio * q for x, p, q in zip(xs, rows[-1], rows[-2])])
        norms.append(sum(p * p for p in rows[-1]))
    return rows, norms


def exact_matrix(values: Sequence[float]) -> np.ndarray:
    """The matrix the values define, computed in exact rationals and rounded once.

    Row k is p_k / |p_k| at the points (see :func:`exact_family`), formed as
    sign(p) * sqrt(p^2 / |p_k|^2) so that only the final conversion and
    square root round.
    """
    rows, norms = exact_family(values)
    return np.array(
        [[math.copysign(math.sqrt(p * p / norm), p) for p in row] for row, norm in zip(rows, norms)]
    )


def dct_matrix(n: int) -> np.ndarray:
    """The closed-form orthonormal n x n DCT-II,
    C[k, j] = sqrt((2 - [k == 0]) / n) * cos(pi * k * (2j + 1) / (2n)).

    Its samples run from the largest point down, so the generator's ``dct``
    preset gives it with the odd rows negated.
    """
    k, j = np.ogrid[:n, :n]
    c = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * j + 1) / (2 * n))
    c[0] /= math.sqrt(2.0)
    return c


def small_case_coefficients(values: Sequence[float]) -> tuple[Fraction, ...]:
    """Exact trailing coefficients of the first nontrivial polynomials, m <= 2.

    For two values this solves the 1x1 systems directly: the degree-2 even
    polynomial x^2 + d has d = -(sum y^2)/m, and the degree-3 odd polynomial
    x^3 + d*x has d = -(sum y^4)/(sum y^2). Returns () for m = 1.
    """
    vals = [Fraction(v) for v in values]
    m = len(vals)
    if m > 2:
        raise ValueError(f"closed form implemented only for m <= 2, got m={m}")
    if m <= 1:
        return ()
    sum_sq = sum(v**2 for v in vals)
    sum_quad = sum(v**4 for v in vals)
    d_even = -sum_sq / m
    d_odd = -sum_quad / sum_sq
    return (d_even, d_odd)
