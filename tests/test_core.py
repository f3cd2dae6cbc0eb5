import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import half_rows, random_values, value_sets
from orthogen import core, linsolve
from orthogen.core import (
    FIDELITY_TOL,
    assemble_matrix,
    build_even_system,
    build_odd_system,
    fidelity,
    induct_basis,
    normalize_row,
    validate_values,
)
from orthogen.errors import (
    ConditioningWarning,
    DegenerateValuesError,
    FidelityError,
    SingularSystemError,
    ZeroRowError,
)
from orthogen.linsolve import determinant, solve
from orthogen.oracles import exact_family, exact_matrix
from orthogen.presets import PRESETS, preset_values
from reference_matrices import DCT_8, DTT_4


def test_even_system_two_values():
    basis = induct_basis([1.0, 2.0])
    system = build_even_system(basis, 1)
    np.testing.assert_allclose(system.matrix, [[2.0]], atol=1e-15)
    np.testing.assert_allclose(system.rhs, [-5.0], atol=1e-15)
    assert solve(system.matrix, system.rhs)[0] == pytest.approx(-2.5, abs=1e-14)
    # the resulting quadratic is orthogonal to the constant over the values
    assert (1.0 - 2.5) + (4.0 - 2.5) == pytest.approx(0.0)


def test_odd_system_two_values():
    basis = induct_basis([1.0, 2.0])
    system = build_odd_system(basis, 1)
    np.testing.assert_allclose(system.matrix, [[5.0]], atol=1e-15)
    np.testing.assert_allclose(system.rhs, [-17.0], atol=1e-15)
    assert solve(system.matrix, system.rhs)[0] == pytest.approx(-3.4, abs=1e-14)
    assert 1.0 * (1.0 - 3.4) + 2.0 * (8.0 - 6.8) == pytest.approx(0.0, abs=1e-12)


def test_degree_index_bounds():
    basis = induct_basis([1.0, 2.0])
    with pytest.raises(ValueError):
        build_even_system(basis, 0)
    with pytest.raises(ValueError):
        build_odd_system(basis, 2)


def test_two_value_coefficients():
    basis = induct_basis([1.0, 2.0])
    assert basis.even_coefs[1][0] == pytest.approx(-2.5, abs=1e-14)
    assert basis.odd_coefs[1][0] == pytest.approx(-3.4, abs=1e-14)


def test_single_value_basis():
    basis = induct_basis([3.0])
    np.testing.assert_allclose(basis.even_evals[0], [1.0])
    np.testing.assert_allclose(basis.odd_evals[0], [3.0])
    assert basis.even_coefs[0].size == 0
    assert basis.odd_coefs[0].size == 0


def test_base_case_evaluations():
    vals = [0.9, 0.5, 0.2]
    basis = induct_basis(vals)
    np.testing.assert_allclose(basis.even_evals[0], np.ones(3))
    np.testing.assert_allclose(basis.odd_evals[0], vals)


# Monic coefficients of the Chebyshev-rooted family, highest power first.
DCT_EVEN_COEFS = [[], [-0.5], [-1.0, 0.125], [-1.5, 0.5625, -0.03125]]
DCT_ODD_COEFS = [[], [-0.75], [-1.25, 0.3125], [-1.75, 0.875, -0.109375]]


def test_dct_coefficients():
    basis = induct_basis(preset_values("dct", 8))
    for t in range(4):
        np.testing.assert_allclose(basis.even_coefs[t], DCT_EVEN_COEFS[t], atol=1e-9)
        np.testing.assert_allclose(basis.odd_coefs[t], DCT_ODD_COEFS[t], atol=1e-9)


# Published 7-decimal coefficients of the arithmetic-sequence family on
# {1/8, 3/8, 5/8, 7/8}.
DTT8_EVEN_COEFS = [
    [],
    [-0.3281250],
    [-0.7991071, 0.0725098],
    [-1.1434659, 0.3055975, -0.0111580],
]
DTT8_ODD_COEFS = [
    [],
    [-0.5781250],
    [-0.9895833, 0.1826288],
    [-1.2536058, 0.4145900, -0.0312727],
]


def test_dtt_coefficients():
    basis = induct_basis(preset_values("dtt", 8))
    for t in range(4):
        np.testing.assert_allclose(basis.even_coefs[t], DTT8_EVEN_COEFS[t], atol=5e-8)
        np.testing.assert_allclose(basis.odd_coefs[t], DTT8_ODD_COEFS[t], atol=5e-8)


def _exact_coefficients(values):
    # The exact family's three-term recurrence expanded over the monomials in
    # rationals: per degree, the trailing coefficients, highest power first.
    _, norms = exact_family(values)
    polys = [[Fraction(1)], [Fraction(1), Fraction(0)]]
    for k in range(1, len(norms) - 1):
        ratio = norms[k] / norms[k - 1]
        shifted = polys[k] + [Fraction(0)]
        lower = [Fraction(0), Fraction(0)] + polys[k - 1]
        polys.append([p - ratio * q for p, q in zip(shifted, lower)])
    return [poly[2::2] for poly in polys]


@pytest.mark.parametrize(
    "kind, n",
    [("dct", 16), ("dtt", 16), ("dtt", 32), ("triangular", 24), ("triangular", 32),
     ("prime", 32), ("prime", 48), ("fibonacci", 28)],
)
def test_coefficients_match_exact_rationals(kind, n):
    # Solving the moment systems for them was 3e-4 off at triangular n = 24
    # and 9e16 off at fibonacci n = 28.
    values = preset_values(kind, n)
    basis = induct_basis(values)
    got = [None] * n
    got[0::2], got[1::2] = basis.even_coefs, basis.odd_coefs
    for g, (coefs, exact) in enumerate(zip(got, _exact_coefficients(values))):
        assert len(coefs) == len(exact)
        for c, e in zip(coefs.tolist(), exact):
            assert abs(Fraction(c) - e) <= 1e-13 * abs(e), (g, c, float(e))


@pytest.mark.parametrize("kind", PRESETS)
def test_moment_system_solves_reproduce_the_coefficients(kind):
    # The paper's route: solve each induction step's moment system. It loses
    # accuracy with the degree (4.6e-7 at fibonacci n = 16, 2.8e-9 or less for
    # the other presets), but agrees with the recurrence at these sizes.
    for n in range(4, 17, 2):
        basis = induct_basis(preset_values(kind, n))
        for t in range(1, n // 2):
            for build, coefs in ((build_even_system, basis.even_coefs),
                                 (build_odd_system, basis.odd_coefs)):
                np.testing.assert_allclose(solve(*build(basis, t)), coefs[t], rtol=2e-6, atol=0)


def test_same_parity_discrete_orthogonality():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = int(rng.integers(2, 9))
        basis = induct_basis(random_values(rng, m))
        for evals in (basis.even_evals, basis.odd_evals):
            stacked = np.vstack(evals)
            gram = stacked @ stacked.T
            scale = np.abs(np.diag(gram)).max()
            off = gram - np.diag(np.diag(gram))
            assert np.abs(off).max() <= 1e-8 * scale


def test_normalize_row_examples():
    c, unit = normalize_row([1.0, 1.0, 1.0, 1.0])
    assert c == pytest.approx(1 / np.sqrt(8))
    assert 2 * np.sum(unit**2) == pytest.approx(1.0, abs=1e-12)

    c, _ = normalize_row([1.0])
    assert c == pytest.approx(1 / np.sqrt(2))

    c, unit = normalize_row([0.75, 0.25])
    np.testing.assert_allclose(np.abs(unit), [0.6708204, 0.2236068], atol=5e-8)


def test_normalize_row_zero_raises():
    with pytest.raises(ZeroRowError, match="row 0:"):
        normalize_row([0.0, 0.0])
    with pytest.raises(ZeroRowError, match="row 1:"):
        normalize_row([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])


def test_validate_rejects_bad_values():
    with pytest.raises(DegenerateValuesError, match="duplicate value 1"):
        validate_values([1.0, 1.0, 2.0])
    with pytest.raises(DegenerateValuesError, match="non-positive value -3"):
        validate_values([1.0, -3.0])
    with pytest.raises(DegenerateValuesError, match="non-positive value 0"):
        validate_values([0.0, 1.0])
    with pytest.raises(DegenerateValuesError, match="non-finite"):
        validate_values([1.0, np.nan])
    with pytest.raises(DegenerateValuesError):
        validate_values([])


def test_validate_warns_on_near_duplicates():
    with pytest.warns(ConditioningWarning, match="relative gap"):
        validate_values([1.0, 1.0 + 1e-9])


@pytest.mark.parametrize(
    "values, message",
    [
        ([-1.0, np.nan], "non-positive value -1 at index 0"),
        ([np.nan, -1.0], "non-finite value nan at index 0"),
        ([2.0, -np.inf, 0.0], "non-finite value -inf at index 1"),
        ([2.0, 1.0, 0.0, np.inf], "non-positive value 0 at index 2"),
        ([1.0, 1.0, -1.0], "non-positive value -1 at index 2"),
        ([2.0, 1.0, 1.0, 2.0], "duplicate value 1"),
        ([3.0, 2.0, 3.0, 2.0], "duplicate value 3"),
        ([5.0, 0.5, 4.0, 0.5, 5.0], "duplicate value 0.5"),
    ],
)
def test_validate_error_precedence(values, message):
    # first bad index wins; at one index non-finite before non-positive;
    # duplicates only after every value passed, reported as a scan in input
    # order meets them
    with pytest.raises(DegenerateValuesError, match=f"^{re.escape(message)}$"):
        validate_values(values)


def test_validate_warns_once_per_neighbouring_pair():
    # three values within 1e-6 of each other: the two neighbouring pairs warn,
    # the outer pair does not
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        validate_values([1.0 + 4e-7, 3.0, 1.0, 1.0 + 2e-7])
    messages = [str(w.message) for w in caught if issubclass(w.category, ConditioningWarning)]
    assert len(messages) == 2
    assert messages[0].startswith("values 1.0 and 1.0000002 differ by a relative gap of 2.00e-07")
    assert messages[1].startswith("values 1.0000004 and 1.0000002 differ")
    assert all("nearly singular" in msg for msg in messages)


def test_validate_size_draws_no_warning(monkeypatch):
    # The former soft cap warned above m = 16 and read this variable; the
    # fidelity check in assemble_matrix now decides which sizes are too large.
    monkeypatch.setenv("ORTHOGEN_MAX_M", "4")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        validate_values(np.linspace(1.0, 2.0, 17))


def test_normalize_row_stack_matches_rows_bit_for_bit():
    rows = np.random.default_rng(5).normal(size=(2, 3, 7))
    scales, unit = normalize_row(rows)
    assert scales.shape == (2, 3) and unit.shape == rows.shape
    for index in np.ndindex(2, 3):
        row = rows[index]
        c = 1.0 / np.sqrt(2.0 * (row @ row))
        assert scales[index] == c
        np.testing.assert_array_equal(unit[index], c * row)


def test_induct_basis_large_values_overflow_only_where_the_double_range_ends():
    # unit**g overflowed before the multiply, so evaluations and coefficients
    # that fit in a double came out inf. Scaling the values by 2**-40 is
    # exact and leaves the induction bit for bit the same, so scaling that
    # basis back gives the exact reference.
    values = np.arange(1, 17) * 1e10
    small = induct_basis(values * 2.0**-40)
    with np.errstate(over="ignore"):
        basis = induct_basis(values)
        for family, reference, first in (
            (basis.even_evals, small.even_evals, 0),
            (basis.odd_evals, small.odd_evals, 1),
        ):
            for t, (got, want) in enumerate(zip(family, reference)):
                np.testing.assert_array_equal(got, np.ldexp(want, 40 * (2 * t + first)))
        for family, reference in (
            (basis.even_coefs, small.even_coefs),
            (basis.odd_coefs, small.odd_coefs),
        ):
            for got, want in zip(family, reference):
                np.testing.assert_array_equal(got, np.ldexp(want, 80 * np.arange(1, want.size + 1)))


def test_tiny_values_give_infinite_norm_scales_quietly():
    # c / unit**g passes the double range for the last rows; the matrix
    # itself is the one of the same values in other units
    values = np.arange(1, 17) * 1e-12
    matrix = assemble_matrix(values)
    np.testing.assert_array_equal(matrix.entries, assemble_matrix(values * 1e12).entries)
    assert np.isinf(matrix.norm_scales[28:]).all()
    assert np.isfinite(matrix.norm_scales[:28]).all() and (matrix.norm_scales > 0.0).all()


def test_induct_basis_overflows_to_inf_quietly():
    # No RuntimeWarning, which the test filter would raise; the last odd
    # evaluations (about 1e21**31) lie past the double range
    basis = induct_basis(np.arange(1, 17) * 1e20)
    assert np.isinf(basis.odd_evals[-1]).all() and np.isinf(basis.odd_coefs[-1][-1])
    assert np.isfinite(basis.even_evals[5]).all()


# Six valid values spread over 1e-84..1e287: in units of the largest, the
# samples of rows 6 and 7 are too small to square, so rows 8 and up cannot
# be built.
UNDERFLOWING = [2.450484912167885e-84, 4.8401458732187e-24, 1.8178375660884261e161,
                8.312703602746839e189, 7.677432889724853e281, 5.794813270203256e287]


@pytest.mark.parametrize("build", [assemble_matrix, induct_basis])
def test_rows_that_underflow_raise_zero_row_error(build):
    # assemble_matrix's guard refuses the NaN of the rows that cannot be
    # built and names row 6, the first whose squares underflow; induct_basis,
    # which has no guard, names the first row it cannot build
    if build is assemble_matrix:
        error, message = FidelityError, "estimated entry error .*; cannot normalize row 6: its sum of squares is 0$"
    else:
        error, message = ZeroRowError, "cannot build row 8: a lower row's samples"
    with pytest.raises(error, match=message):
        build(UNDERFLOWING)


def test_an_earlier_pivot_failure_wins_over_rows_that_underflow(monkeypatch):
    # The seventh value makes step 5's systems singular; rows 10 and up
    # cannot be built, so step 6's cannot be formed.
    values = UNDERFLOWING + [UNDERFLOWING[-1] * (1 + 1e-11)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        with pytest.raises(SingularSystemError, match="in column 2 "):
            assemble_matrix(values)
        monkeypatch.setattr(linsolve, "check_steps", lambda moments, last: None)
        with pytest.raises(FidelityError, match="estimated entry error "):
            assemble_matrix(values)
        with pytest.raises(ZeroRowError, match="cannot build row 10"):
            induct_basis(values)


@pytest.mark.parametrize("build", [assemble_matrix, induct_basis])
@pytest.mark.parametrize("kind, n", [("dct", 16), ("triangular", 64), ("fibonacci", 128)])
def test_a_build_runs_one_elimination(build, kind, n, monkeypatch):
    # One call, and in it every step's stack formed once, the largest first
    formed = []
    check_steps = linsolve.check_steps

    def recorded(moments, last):
        formed.append([])
        return check_steps(lambda t: formed[-1].append(t) or moments(t), last)

    monkeypatch.setattr(linsolve, "check_steps", recorded)
    if kind == "fibonacci":
        # Refused at step 18; row 59 is not finite, so the test stops
        # before step 30, whose systems would hold it
        with pytest.raises(SingularSystemError):
            build(preset_values(kind, n))
        assert formed == [list(range(29, 0, -1))]
    else:
        build(preset_values(kind, n))
        assert formed == [list(range(n // 2 - 1, 0, -1))]


def test_assemble_two_by_two():
    r = 1 / np.sqrt(2)
    for y in (1.0, 0.3, 42.0):
        matrix = assemble_matrix([y])
        np.testing.assert_allclose(matrix.entries, [[r, r], [-r, r]], atol=1e-15)


def test_assemble_dct_matches_reference():
    matrix = assemble_matrix(preset_values("dct", 8))
    np.testing.assert_allclose(matrix.entries, DCT_8, atol=5e-7)


def test_assemble_dtt4_matches_reference():
    matrix = assemble_matrix([0.75, 0.25])
    np.testing.assert_allclose(matrix.entries, DTT_4, atol=5e-7)


def test_dct_norm_scales():
    matrix = assemble_matrix(preset_values("dct", 8))
    expected = [1 / np.sqrt(8), 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    np.testing.assert_allclose(matrix.norm_scales, expected, rtol=1e-12)


def test_dtt_norm_scales():
    # published 7-decimal row scale factors of the n=8 arithmetic family
    matrix = assemble_matrix(preset_values("dtt", 8))
    expected = [
        1 / np.sqrt(8),
        0.6172134,
        1.2344268,
        2.6259518,
        6.0168115,
        15.3381041,
        46.2167518,
        190.4421354,
    ]
    np.testing.assert_allclose(matrix.norm_scales, expected, rtol=1e-6)


def test_orthonormality_random_sets():
    rng = np.random.default_rng(5)
    for _ in range(40):
        m = int(rng.integers(1, 9))
        matrix = assemble_matrix(random_values(rng, m))
        gram = matrix.entries @ matrix.entries.T
        assert np.abs(gram - np.eye(matrix.n)).max() <= 1e-9


def test_row_norms_unit():
    rng = np.random.default_rng(6)
    matrix = assemble_matrix(random_values(rng, 6))
    norms = np.linalg.norm(matrix.entries, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_mirror_parity_layout():
    rng = np.random.default_rng(8)
    matrix = assemble_matrix(random_values(rng, 5))
    n = matrix.n
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    np.testing.assert_allclose(
        matrix.entries, signs[:, None] * matrix.entries[:, ::-1], atol=1e-12
    )


def test_scale_invariance():
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = int(rng.integers(1, 9))
        vals = random_values(rng, m)
        base = assemble_matrix(vals).entries
        for lam in (1e-2, 0.5, 3.0, 1e2):
            scaled = assemble_matrix(lam * vals).entries
            assert np.abs(scaled - base).max() <= 1e-9


def test_permutation_equivariance():
    rng = np.random.default_rng(10)
    vals = random_values(rng, 6)
    m = vals.size
    base = assemble_matrix(vals).entries
    perm = rng.permutation(m)
    permuted = assemble_matrix(vals[perm]).entries
    # column of value perm[k] sits at k on the left and at n-1-k on the right
    for k in range(m):
        np.testing.assert_allclose(permuted[:, k], base[:, perm[k]], atol=1e-12)
        np.testing.assert_allclose(
            permuted[:, 2 * m - 1 - k], base[:, 2 * m - 1 - perm[k]], atol=1e-12
        )


@given(value_sets(), st.randoms(use_true_random=False))
def test_permutation_equivariance_bit_exact(values, rnd):
    perm = np.array(rnd.sample(range(values.size), values.size))
    try:
        base = assemble_matrix(values).entries
    except FidelityError:
        with pytest.raises(FidelityError):
            assemble_matrix(values[perm])
        return
    permuted = assemble_matrix(values[perm]).entries
    m = values.size
    np.testing.assert_array_equal(permuted[:, :m], base[:, :m][:, perm])
    np.testing.assert_array_equal(permuted[:, m:], base[:, m:][:, ::-1][:, perm][:, ::-1])


def test_fidelity_residual_separates_right_from_orthonormal():
    values = preset_values("dct", 8)
    entries = assemble_matrix(values).entries
    half, y = half_rows(entries, values)
    assert max(fidelity(half, y)) <= 1e-15
    # swapping two rows keeps the matrix orthonormal but makes it wrong
    rows = [0, 1, 4, 3, 2, 5, 6, 7]
    swapped = entries[rows]
    assert np.abs(swapped @ swapped.T - np.eye(8)).max() <= 1e-12
    assert fidelity(half[rows], y)[0] > 0.1
    # the half-rows are all the build mirrors into the entries
    broken = half.copy()
    broken[3, 3] = np.nan
    assert np.isnan(fidelity(broken, y)).all()


def _full_residuals(entries, values):
    # fidelity's residual and orthonormality residual from the n x n products
    n = len(entries)
    x = np.concatenate([-values, values[::-1]]) / values.max()
    off = np.abs(entries @ (x[:, None] * entries.T))
    off.flat[:: n + 1] = off.flat[1 :: n + 1] = off.flat[n :: n + 1] = 0.0
    return off.max(), np.abs(entries @ entries.T - np.eye(n)).max()


@pytest.mark.parametrize("name", PRESETS)
def test_half_size_residuals_match_the_full_products(name):
    # The blocks fidelity skips are zero only up to summation rounding; the
    # largest gap seen is 10 eps, for the orthonormality residual at dtt n = 110.
    for n in range(2, 129, 2):
        values = preset_values(name, n)
        try:
            entries = assemble_matrix(values).entries
        except ArithmeticError:
            continue
        residual, _, ortho = fidelity(*half_rows(entries, values))
        full_residual, full_ortho = _full_residuals(entries, values)
        assert abs(full_residual - residual) <= 16 * np.finfo(float).eps, n
        assert abs(full_ortho - ortho) <= 16 * np.finfo(float).eps, n


# Two values spread over 1e156 and 1e98, and four over 1e20: their matrices
# are right. J's same-parity blocks, which the guard skips, hold only rounding
# noise here, and a tiny band entry blows it up: the estimate read off the
# full n x n product is 0.177, 0.177 and 1.43e-6.
@pytest.mark.parametrize(
    "values",
    [
        [2.6654144359094713e-104, 3.2434418098572285e52],
        [9.5707950692485648e-04, 1.2397445253961273e95],
        [1.1888711969104026e12, 1.0529138717165297e-01, 2.8989463632281155e-08, 9.6735111442688666e00],
    ],
)
def test_graded_sets_the_half_size_guard_returns_are_exact(values):
    assert np.abs(assemble_matrix(values).entries - exact_matrix(values)).max() <= 1e-12


def test_assemble_refuses_a_wrong_matrix(monkeypatch):
    # Rotating rows 1 and 3 by 1e-3 rad within their plane keeps M
    # orthonormal but makes it wrong: row 3 now couples to row 0 in J.
    canonical = core._canonical

    def rotated(values):
        built = canonical(values)
        rows = built[4]
        norms = np.linalg.norm(rows[[1, 3]], axis=1)
        one, three = rows[[1, 3]] / norms[:, None]
        c, s = np.cos(1e-3), np.sin(1e-3)
        rows[1], rows[3] = norms[0] * (c * one - s * three), norms[1] * (s * one + c * three)
        return built

    monkeypatch.setattr(core, "_canonical", rotated)
    with pytest.raises(FidelityError) as info:
        assemble_matrix(preset_values("dct", 8))
    assert isinstance(info.value, ArithmeticError)
    found = re.search(
        r"estimated entry error (\S+) \(fidelity residual (\S+)\), orthonormality residual (\S+),",
        str(info.value),
    )
    assert found is not None
    estimate, residual, ortho = map(float, found.groups())
    assert estimate > FIDELITY_TOL
    assert residual > 0.0
    assert ortho <= 1e-14


def test_assemble_refuses_a_non_orthonormal_matrix(monkeypatch):
    # Row 2 + 1e-3 * row 0 couples two even rows, which the fidelity residual
    # cannot see (same-parity entries of M diag(x) M^T vanish for any M);
    # the orthonormality residual does.
    canonical = core._canonical

    def skewed(values):
        built = canonical(values)
        built[4][2] += 1e-3 * built[4][0]
        return built

    monkeypatch.setattr(core, "_canonical", skewed)
    with pytest.raises(FidelityError, match=r"estimated entry error \S+e-1\d .*orthonormality residual \S+e-03"):
        assemble_matrix(preset_values("dct", 8))


def test_determinant_recurrence():
    # Growing a system appends the previous moment column and a new row, so
    # expanding along that row gives det(A_t) = (-1)^(t+1) * det(A_{t-1}) *
    # sum_k P_{2(t-1)}(y_k)^2; the cofactor sign alternates because the
    # columns hold powers in descending order. Same for the odd family.
    rng = np.random.default_rng(12)
    for _ in range(10):
        basis = induct_basis(random_values(rng, 5))
        for t in (2, 3, 4):
            sign = (-1.0) ** (t + 1)
            even_t = determinant(build_even_system(basis, t).matrix)
            even_prev = determinant(build_even_system(basis, t - 1).matrix)
            growth = float(np.sum(basis.even_evals[t - 1] ** 2))
            assert even_t == pytest.approx(sign * even_prev * growth, rel=1e-6)

            odd_t = determinant(build_odd_system(basis, t).matrix)
            odd_prev = determinant(build_odd_system(basis, t - 1).matrix)
            growth = float(np.sum(basis.odd_evals[t - 1] ** 2))
            assert odd_t == pytest.approx(sign * odd_prev * growth, rel=1e-6)


def test_assemble_propagates_validation_errors():
    with pytest.raises(DegenerateValuesError):
        assemble_matrix([2.0, 2.0])


# Seven values within 1e-9 relative of each other. The moment systems' pivot
# test refuses them first. Built without that test, the rows are 6.1e-7 and
# 6.6e-7 off the exact matrix while the fidelity estimate reads 4.0e-7 and
# 3.3e-7, under FIDELITY_TOL; the guard's gap term, 0.5 eps over the smallest
# relative gap, reads 3.0e-5 and 3.9e-6 and would refuse them too.
TIGHT_CLUSTERS = [
    [9.551204844121232, 9.551204844462994, 9.55120484505394, 9.551204846883135,
     9.551204848603469, 9.55120484863884, 9.551204851626823],
    [8.215407661614776, 8.215407661851334, 8.215407663145893, 8.215407664206634,
     8.215407664548241, 8.215407665114851, 8.215407669083058],
]


@pytest.mark.parametrize("values", TIGHT_CLUSTERS)
def test_tight_clusters_are_refused(values):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        with pytest.raises(SingularSystemError):
            assemble_matrix(values)


def _cluster_sweep_sets():
    rng = np.random.default_rng(5)
    sets = [[1, 1.0000000000001, 1.0000000000002, 1.0000000000003]]
    for m in range(2, 9):
        for gap in (1e-3, 1e-5, 1e-7, 1e-9, 1e-11):
            for _ in range(4):
                base = rng.uniform(0.1, 10.0)
                sets.append(base * (1.0 + gap * np.sort(rng.uniform(0.0, 1.0, m))))
        sets += [np.exp(rng.uniform(-30.0, 30.0, m)) for _ in range(6)]
    return sets


def test_clustered_and_spread_sets_are_refused_or_exact():
    # Each set of this seeded sample comes back within FIDELITY_TOL of the
    # exact matrix or is refused with a typed error (94 and 89 of them; 104
    # and 79 before the guard's gap term). Other draws found sets that came
    # back wrong before it; see the two tight clusters below.
    returned = refused = 0
    for values in _cluster_sweep_sets():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            try:
                entries = assemble_matrix(values).entries
            except (SingularSystemError, FidelityError):
                refused += 1
                continue
        returned += 1
        assert np.abs(entries - exact_matrix(values)).max() <= FIDELITY_TOL, list(values)
    assert returned and refused


# Five and six values within 1e-9 relative pass the pivot test, and their rows
# are 6.3e-7 and 6.8e-7 off the exact matrix, past FIDELITY_TOL, while the
# fidelity estimate reads 3.0e-7 and 4.8e-7. The gap term (9.3e-6 and 2.3e-6)
# refuses them; without it the guard returned a wrong matrix.
@pytest.mark.parametrize(
    "values",
    [
        [0.6633407304158726, 0.6633407304366125, 0.663340730532332, 0.6633407306693816,
         0.6633407306773246],
        [0.35954842101471046, 0.3595484210321375, 0.35954842113043534, 0.35954842115598884,
         0.359548421239976, 0.35954842129743286],
    ],
)
def test_tight_clusters_the_pivot_test_passes_are_refused_or_exact(values):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        try:
            entries = assemble_matrix(values).entries
        except FidelityError:
            return
    assert np.abs(entries - exact_matrix(values)).max() <= FIDELITY_TOL


def _sequential_induction(values, solve_each=True):
    # The induction with every moment system formed and solved alone through
    # 2-D solve, where _canonical stacks the even and odd systems of each
    # step and runs only the pivot test: the comparison pins that the pivot
    # test refuses exactly what the full solve refuses. Each degree sums the
    # lower rows' squares afresh, and the sums and the smallest gap returned
    # are computed afresh, where _canonical keeps each row's sum and
    # _validated's gaps. Also returns the systems' matrices, per degree from 2.
    raw, order, _ = core._validated(values)
    unit = raw[order[-1]]
    y = raw[order] / unit
    m = y.size
    rows = y ** np.arange(2 * m)[:, None]
    # Each system formed alone by the public builders, from views of the rows
    basis = core.ReducedBasis(y, list(rows[0::2]), list(rows[1::2]), [], [])
    systems = []
    with np.errstate(all="ignore"):
        for g in range(2, 2 * m):
            prior = rows[g % 2 : g : 2]
            systems.append((build_even_system, build_odd_system)[g % 2](basis, g // 2))
            if g % 2 == 0 and not np.isfinite(rows[:g]).all():
                # As _canonical: no step whose systems would hold a non-finite row is solved.
                solve_each = False
            if solve_each:
                solve(*systems[-1])
            v = y * rows[g - 1]
            energy = np.einsum("ij,ij->i", prior, prior)
            for _ in range(2):
                v = v - ((prior @ v) / energy) @ prior
            rows[g] = v
        energy = np.einsum("ij,ij->i", rows, rows)
    ascending = raw[order]
    gap = ((ascending[1:] - ascending[:-1]) / ascending[1:]).min(initial=np.inf)
    return (raw, order, unit, y, rows, energy, gap), [system.matrix for system in systems]


def _sequential_canonical(values):
    return _sequential_induction(values)[0]


def _stacked_moments(values, monkeypatch):
    """Every step's stack of moment systems as _canonical forms it for the
    pivot test, smallest first."""
    stacks = []
    check_steps = linsolve.check_steps

    def record(moments, last):
        stacks.extend(moments(t) for t in range(1, last + 1))
        check_steps(moments, last)

    with monkeypatch.context() as patched, warnings.catch_warnings():
        patched.setattr(linsolve, "check_steps", record)
        warnings.simplefilter("ignore", ConditioningWarning)
        try:
            core._canonical(values)
        except ArithmeticError:
            pass
    return stacks


def _outputs(values):
    """Every bit assemble_matrix and induct_basis publish, or their errors,
    and the warnings they draw."""
    found = []
    for build in (assemble_matrix, induct_basis):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ConditioningWarning)
            try:
                result = build(values)
            except ArithmeticError as exc:
                result = exc
        found.append([str(w.message) for w in caught])
        if isinstance(result, ArithmeticError):
            found.append((type(result), str(result)))
            continue
        if build is assemble_matrix:
            arrays = [result.entries, result.norm_scales]
        else:
            arrays = result.even_evals + result.odd_evals + result.even_coefs + result.odd_coefs
        found.append([a.tobytes() for a in arrays])
    return found


def _bit_identity_sets(kind):
    if kind != "random":
        return [preset_values(kind, n) for n in (*range(2, 65, 2), 128)]
    rng = np.random.default_rng(77)
    edge = [[1, 1.0000000000001, 1.0000000000002, 1.0000000000003], [1e-200, 1e-100, 1], UNDERFLOWING]
    sets = [random_values(rng, int(rng.integers(1, 33))) for _ in range(50)] + edge
    sets += [rng.uniform(0.001, 1.0, m) for m in (40, 48, 56, 64)]
    # Clustered within relative spreads 1e-3..1e-11, and spread over e^+-300
    sets += [rng.uniform(0.1, 10.0) * (1.0 + spread * rng.uniform(0.0, 1.0, int(rng.integers(2, 10))))
             for spread in np.logspace(-3, -11, 9)]
    return sets + [np.exp(rng.uniform(-300.0, 300.0, int(rng.integers(2, 17)))) for _ in range(12)]


@pytest.mark.parametrize("kind", ["dct", "dtt", "triangular", "prime", "fibonacci", "random"])
def test_stacked_solves_match_the_sequential_induction_bit_for_bit(kind, monkeypatch):
    value_sets = _bit_identity_sets(kind)
    stacked = [_outputs(values) for values in value_sets]
    for values in value_sets:
        # Each step's two systems, formed in one product, as the builders form each alone
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            alone = _sequential_induction(values, solve_each=False)[1]
        for t, stack in enumerate(_stacked_moments(values, monkeypatch), 1):
            assert stack.tobytes() == np.array(alone[2 * t - 2 : 2 * t]).tobytes(), (values, t)
    monkeypatch.setattr(core, "_canonical", _sequential_canonical)
    for values, got in zip(value_sets, stacked):
        assert got == _outputs(values), values
