"""Orthogonal matrix generation from a set of distinct positive values.

Given m distinct values y_0..y_{m-1} > 0, the generator builds a family of
monic polynomials containing only even (respectively odd) powers, chosen so
that same-parity polynomials are orthogonal over the sample points, and
assembles a 2m x 2m orthonormal matrix sampled at +/-y_k. In the paper each
induction step solves one small dense moment system per parity for the
trailing coefficients of the next polynomial; here the systems of steps
1..m-1 run only through the solve's pivot test, in one elimination per build
(:func:`linsolve.check_steps`), which is where every preset refusal comes
from. On the mirrored points the monic orthogonal polynomials obey the
three-term recurrence p_g = x p_{g-1} - b p_{g-2}: y times the previous row
is monic of degree g, projecting the lower same-parity rows out of it leaves
p_g, and :func:`induct_basis` reads the coefficients off the same
recurrence. All of it runs in double.

Each row mirrors its half-row at +y, and the recurrence's own sums of squares
scale the half-rows to unit length, so :func:`fidelity` checks the matrix on
m x m blocks of the even and odd unit half-rows E and O: C = 2 E diag(y)
O^T, lower bidiagonal for the values' own matrix, and the Grams 2 E E^T - I
and 2 O O^T - I; :func:`assemble_matrix` forms the entries once they pass.

Matrix layout: column j < m holds the samples at -y_j (input order) and
column m + j holds the samples at +y_{m-1-j}, so the sample sequence runs
monotonically when the values are given in descending order. Consequently
every row satisfies the mirror relation row[k] == +/-row[n-1-k] (+ for even
rows, - for odd rows).
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple, Sequence

import numpy as np

from . import linsolve
from .errors import ConditioningWarning, DegenerateValuesError, FidelityError, ZeroRowError

# Relative gap below which two values are close enough to wreck conditioning.
NEAR_DUPLICATE_RTOL = 1e-6

# Bound on a generated matrix's estimated entry error and orthonormality
# residual; the 7-decimal tables and CSV output round at 5e-8.
FIDELITY_TOL = 5e-7
_EPS = np.finfo(float).eps


def _validated(values: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`validate_values`, also returning the ascending order of the
    values and the relative gaps between neighbours in that order."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DegenerateValuesError("expected a non-empty flat sequence of values")
    if not (arr.min() > 0.0 and arr.max() < np.inf):  # NaN fails both
        i = np.flatnonzero(~((arr > 0.0) & (arr < np.inf)))[0]
        if not np.isfinite(arr[i]):
            raise DegenerateValuesError(f"non-finite value {arr[i]} at index {i}")
        raise DegenerateValuesError(f"non-positive value {arr[i]:g} at index {i}")
    order = np.argsort(arr, kind="stable")
    ascending = arr[order]
    # Distinct doubles never differ by zero, nor by a relative gap that underflows.
    gaps = (ascending[1:] - ascending[:-1]) / ascending[1:]
    repeats = order[1:][gaps == 0.0]
    if repeats.size:
        # The repeat a scan in input order meets first.
        raise DegenerateValuesError(f"duplicate value {arr[repeats.min()]:g}")
    # Values between the members of a close pair are closer still to them,
    # so checking neighbours in sorted order warns for every close cluster.
    for k in np.flatnonzero(gaps < NEAR_DUPLICATE_RTOL):
        i, j = sorted(order[k : k + 2])
        warnings.warn(
            f"values {float(arr[i])!r} and {float(arr[j])!r} differ by a relative gap "
            f"of {gaps[k]:.2e}; the coefficient systems will be nearly singular",
            ConditioningWarning,
        )
    return arr, order, gaps


def validate_values(values: Sequence[float]) -> np.ndarray:
    """Check a value set and return it as a float array (order preserved).

    Values must be finite, strictly positive, and pairwise distinct.
    Neighbours (in sorted order) closer than ``NEAR_DUPLICATE_RTOL`` draw a
    :class:`ConditioningWarning`; whether a size is too large is decided
    afterwards, by the fidelity check in :func:`assemble_matrix`.
    """
    return _validated(values)[0]


class EquationSystem(NamedTuple):
    """One induction step: ``matrix @ coefficients = rhs`` (rhs already negated)."""

    matrix: np.ndarray
    rhs: np.ndarray


class ReducedBasis(NamedTuple):
    """Monic even/odd polynomial family evaluated on the generator values.

    ``even_evals[t][k]`` is the degree-2t monic polynomial at ``values[k]``;
    ``even_coefs[t]`` holds its trailing coefficients, highest power first
    (the leading coefficient is implicitly 1). Same layout for the odd family
    at degrees 2t+1.
    """

    values: np.ndarray
    even_evals: list[np.ndarray]
    odd_evals: list[np.ndarray]
    even_coefs: list[np.ndarray]
    odd_coefs: list[np.ndarray]

    @property
    def m(self) -> int:
        return self.values.size


class OrthoMatrix(NamedTuple):
    """An assembled 2m x 2m orthonormal matrix plus its provenance.

    ``norm_scales[i]`` is the positive factor that scaled row i's monic
    polynomial samples to unit length. It can leave the double range: it
    reads 0.0 below it (values near 1e11 at n = 32) and inf above it (values
    near 1e-11 at n = 32).
    """

    n: int
    entries: np.ndarray
    values: np.ndarray
    norm_scales: np.ndarray


def _basis_system(basis: ReducedBasis, evals: list[np.ndarray], t: int, g: int) -> EquationSystem:
    # The degree-g system of one family, on the basis's own values; the
    # unknowns multiply powers g-2, g-4, ... down to g % 2.
    if not 1 <= t <= basis.m - 1:
        raise ValueError(f"degree index t={t} outside 1..{basis.m - 1}")
    prior = np.asarray(evals[:t])
    powers = basis.values ** np.arange(g + 1)[:, None]
    return EquationSystem(prior @ powers[g - 2 :: -2].T, -(prior @ powers[g]))


def build_even_system(basis: ReducedBasis, t: int) -> EquationSystem:
    """System whose solution gives the trailing coefficients of the degree-2t
    even polynomial: matrix[i][p-1] = sum_k even_evals[i][k] * y_k^(2(t-p)),
    rhs[i] = -sum_k even_evals[i][k] * y_k^(2t)."""
    return _basis_system(basis, basis.even_evals, t, 2 * t)


def build_odd_system(basis: ReducedBasis, t: int) -> EquationSystem:
    """Odd-family counterpart of :func:`build_even_system` (degree 2t+1)."""
    return _basis_system(basis, basis.odd_evals, t, 2 * t + 1)


def _canonical(values: Sequence[float]) -> tuple:
    """``(values, order, unit, y, rows, energy, gap)``: the validated values,
    their ascending order and maximum, the points y = values[order] / unit,
    per degree g < 2m the monic polynomial's evaluations at y (row g) and
    their sum of squares (``energy[g]``), and the values' smallest relative
    gap (inf for one value). Row g starts as ``y * rows[g-1]``, monic of
    degree g; by the three-term recurrence it differs from p_g only by a
    multiple of row g-2, which the projections remove. Step t's even and odd
    moment systems, both of size t, are formed from the rows below degree 2t
    in one product, rounded as :func:`build_even_system` and its odd twin
    round each; the steps 1..m-1 are pivot-tested in one elimination once
    all the rows are built, the largest formed first."""
    raw, order, gaps = _validated(values)
    unit = raw[order[-1]]
    y = raw[order] / unit
    m = y.size
    powers = y ** np.arange(2 * m)[:, None]
    rows = powers.copy()  # rows 0 and 1 are already the monic 1 and y
    energy = np.empty(2 * m)
    # Rows past a step the pivot test refuses can be garbage, or inf and NaN;
    # they are built quietly and never published.
    with np.errstate(all="ignore"):
        energy[:2] = np.einsum("ij,ij->i", rows[:2], rows[:2])
        for g in range(2, 2 * m):
            # Project the prior evaluations out of the three-term start, twice
            # (the usual reorthogonalization safeguard).
            prior = rows[g % 2 : g : 2]
            prior_energy = energy[g % 2 : g : 2]
            v = y * rows[g - 1]
            for _ in range(2):
                v = v - ((prior @ v) / prior_energy) @ prior
            rows[g] = v
            energy[g] = np.einsum("j,j->", v, v)  # rounds as its row of a 2-D einsum
    # A row goes non-finite only when a lower row's sum of squares, which
    # divides its projection, underflows; the steps whose systems would hold
    # it are not tested.
    finite = np.isfinite(rows).all(axis=1)
    steps = m - 1 if finite.all() else min(m - 1, int(finite.argmin()) // 2)

    def moments(t: int) -> np.ndarray:
        # Entry (parity, i, p) is row 2i + parity times powers 2(t-1-p) + parity.
        evals = rows[: 2 * t].reshape(t, 2, m).transpose(1, 0, 2)
        return evals @ powers.reshape(m, 2, m)[t - 1 :: -1].transpose(1, 2, 0)

    linsolve.check_steps(moments, steps)
    return raw, order, unit, y, rows, energy, gaps.min(initial=np.inf)


def _in_value_units(x: np.ndarray, unit: float, k: np.ndarray) -> np.ndarray:
    """``x * unit**k`` for integer powers k: takes a quantity computed in
    units of the largest value back to the values' own units. unit**k can
    overflow or vanish, so split unit = frac * 2**exp (frac in [0.5, 1)),
    divide by frac**-k, which lies within a factor 2**|k| of 1, and apply the
    power of two exactly with ldexp. At the sizes the fidelity check passes,
    only results outside the double range overflow or underflow: they read
    +/-inf or 0.0, with no warning."""
    frac, exp = math.frexp(unit)
    scaled = x / frac**-k
    with np.errstate(over="ignore"):
        return np.ldexp(scaled, exp * k)


def induct_basis(values: Sequence[float]) -> ReducedBasis:
    """Build the full monic even/odd family for a value set.

    The induction runs on the values sorted ascending over their max, so every
    power lies in (0, 1] and a permuted input permutes the results bit for
    bit; they are scattered back to input order and units afterwards. An
    evaluation or coefficient outside the double range reads +/-inf or 0.0
    (values near 1e20 at n = 32 reach inf).
    """
    raw, order, unit, _, rows, energy, _ = _canonical(values)
    # As in _canonical, the last two rows enter no moment system.
    finite = np.isfinite(rows[:-2]).all(axis=1)
    if not finite.all():
        raise ZeroRowError(f"cannot build row {finite.argmin()}: a lower row's samples are all "
                           "zero or too small to square in double")
    # p_g = y p_{g-1} - (E_{g-1} / E_{g-2}) p_{g-2}, E the rows' sums of
    # squares: the trailing coefficients of y p_{g-1} (with a zero constant
    # term for even g) minus the ratio times p_{g-2}'s, leading 1 included.
    # The coefficients alternate in sign with the power, so the two terms agree
    # in sign and nothing cancels.
    coefs = [np.empty(0), np.empty(0)]
    for g in range(2, rows.shape[0]):
        lower = energy[g - 1] / energy[g - 2] * np.append(1.0, coefs[g - 2])
        coefs.append(np.append(coefs[g - 1], np.zeros(1 - g % 2)) - lower)
    # Undo the rescaling: a degree-g evaluation picks up unit**g, the trailing
    # coefficient at power g-2p picks up unit**(2p).
    evals = np.empty_like(rows)
    evals[:, order] = _in_value_units(rows, unit, np.arange(rows.shape[0])[:, None])
    coefs = [_in_value_units(d, unit, 2 * np.arange(1, d.size + 1)) for d in coefs]
    return ReducedBasis(
        values=raw,
        even_evals=list(evals[0::2]),
        odd_evals=list(evals[1::2]),
        even_coefs=coefs[0::2],
        odd_coefs=coefs[1::2],
    )


def normalize_row(evals) -> tuple[np.ndarray, np.ndarray]:
    """Scale half-row samples to unit row length.

    ``evals`` is one half-row or a ``(..., m)`` stack of them. Returns
    ``(c, c * evals)`` with one positive ``c = (2 * sum(evals**2)) ** -0.5``
    per row; the factor 2 accounts for the mirrored half of the row. Raises
    :class:`ZeroRowError`, naming the first row (its flat index in the
    stack), when a row's sum of squares is zero.
    """
    evals = np.asarray(evals, dtype=float)
    # Stacked matmul rounds each energy exactly as ``row @ row`` does.
    energy = (evals[..., None, :] @ evals[..., :, None])[..., 0, 0]
    zero = np.flatnonzero(energy == 0.0)
    if zero.size:
        raise ZeroRowError(
            f"cannot normalize row {zero[0]}: its samples are all zero or too small to square in double"
        )
    c = 1.0 / np.sqrt(2.0 * energy)
    return c, c[..., None] * evals


def fidelity(half: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """``(residual, estimate, ortho)`` for the 2m x 2m matrix M with unit half-rows ``half``.

    ``half[g]`` is row g of M at the points y (the values over their max, any
    column order), mirrored to -y with odd rows negated. With E and O the even
    and odd half-rows, J = M diag(x) M^T, x the mirrored points, is zero but
    for its even-odd block C = 2 E diag(y) O^T (J[2i, 2j+1] = C[i, j]) and its
    transpose; C is lower bidiagonal for the values' own matrix. The residual,
    C's largest off-band |C[i, j]|, sees only coupling between rows of
    opposite parity. If M = (I + S) P, P the values' matrix and S small and
    skew, row k+1 of S enters J's row k off the band times J[k, k+1]; the
    estimate is the largest quotient of such a row's largest entry by
    |J[k, k+1]|: for J's rows 2i and 2i+1, row i of C by |C[i, i]| and column
    i by |C[i+1, i]|. ``ortho``, max |M M^T - I|, is read off 2 E E^T - I and
    2 O O^T - I. NaN gives NaN.
    """
    m = y.size
    pairs = half.reshape(m, 2, m).transpose(1, 0, 2)  # E and O
    gram = 2.0 * (pairs @ pairs.transpose(0, 2, 1))
    gram.reshape(2, -1)[:, :: m + 1] -= 1.0
    off = np.abs((2.0 * pairs[0] * y) @ pairs[1].T)
    diagonal, subdiagonal = off.flat[:: m + 1], off.flat[m :: m + 1]
    off.flat[:: m + 1] = off.flat[m :: m + 1] = 0.0  # the band
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.concatenate([off.max(axis=1) / diagonal, off.max(axis=0)[:-1] / subdiagonal])
    return float(off.max()), float(ratios.max()), float(np.abs(gram).max())


def assemble_matrix(values: Sequence[float]) -> OrthoMatrix:
    """Generate the 2m x 2m orthonormal matrix for a value set.

    Row 2t samples the even polynomial of degree 2t, row 2t+1 the odd one of
    degree 2t+1, each scaled to unit length with positive normalization; the
    left half is evaluated at the negated values, the right half at the
    positive values in reversed column order (see module docstring).

    Past validation it refuses at two points only: the pivot test
    (:class:`SingularSystemError`) and the guard. The guard raises
    :class:`FidelityError`, before the entries are formed, when the
    :func:`fidelity` estimate (from C) or orthonormality residual (from the
    Grams) exceeds ``FIDELITY_TOL`` or is NaN, as the recurrence's rows lose
    precision on clustered or widely spread values; rows whose squares
    underflow (values spanning about 1e200 or more) read NaN there, and the
    message names the first row whose sum of squares is 0 or not finite.
    An orthonormal M with a constant first row and a tridiagonal J (a lower
    bidiagonal C) is the values' matrix up to row signs. Against exact
    references the estimate read 1 to 30 times the true entry error (the
    residual up to 110 times too little), but as little as 0.47 times it on
    tight clusters, which are ill-conditioned: no arithmetic on the rounded
    values beats eps over their smallest relative gap. So the estimate is at
    least 0.5 eps over that gap; the 0.5 is measured, not proven (on 7,199
    seeded clustered and spread sets the error never passed 0.24 eps over it).
    """
    raw, order, unit, y, rows, energy, gap = _canonical(values)
    m = raw.size
    n = 2 * m
    # Rows that underflow or could not be built go inf or NaN and fail the guard.
    with np.errstate(all="ignore"):
        norms = np.sqrt(2.0 * energy)
        half = rows / norms[:, None]
        residual, estimate, ortho = fidelity(half, y)
    estimate = max(estimate, 0.5 * _EPS / gap)
    if not (estimate <= FIDELITY_TOL and ortho <= FIDELITY_TOL):
        unusable = np.flatnonzero(~((energy > 0.0) & (energy < np.inf)))
        row = ""
        if unusable.size:
            i = unusable[0]
            row = f"; cannot normalize row {i}: its sum of squares is {energy[i]:g}"
        raise FidelityError(
            f"estimated entry error {estimate:.2e} (fidelity residual {residual:.2e}), "
            f"orthonormality residual {ortho:.2e}, bound {FIDELITY_TOL:.0e}: the rows built "
            f"for these {m} values lost too much precision{row}"
        )
    entries = np.empty((n, n))
    entries[:, order] = half
    entries[:, m:] = entries[:, m - 1 :: -1]
    entries[1::2, :m] *= -1.0
    # The rows were normalized in units of the largest value.
    scales = _in_value_units(1.0 / norms, unit, -np.arange(n))
    return OrthoMatrix(n=n, entries=entries, values=raw, norm_scales=scales)
