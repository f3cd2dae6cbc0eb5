from fractions import Fraction

import numpy as np
import pytest

from hypothesis import example, given

from conftest import random_values, value_sets
from orthogen.core import assemble_matrix, fidelity, induct_basis
from orthogen.errors import DegenerateFamilyError, FidelityError, SingularSystemError
from orthogen.oracles import dct_matrix, exact_matrix, gram_schmidt_matrix, small_case_coefficients
from orthogen.presets import PRESETS, preset_values
from reference_matrices import DCT_8, DTT_4


def test_oracle_rows_orthonormal():
    rng = np.random.default_rng(51)
    for _ in range(10):
        m = int(rng.integers(1, 9))
        rows = gram_schmidt_matrix(random_values(rng, m))
        gram = rows @ rows.T
        assert np.abs(gram - np.eye(2 * m)).max() <= 1e-8
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-10)


def test_oracle_single_value():
    rows = gram_schmidt_matrix([1.0])
    core = assemble_matrix([1.0]).entries
    for i in range(2):
        sign = np.sign(np.dot(rows[i], core[i]))
        np.testing.assert_allclose(rows[i], sign * core[i], atol=1e-12)


def test_oracle_prefix_projectors_match_core():
    # Span agreement degree by degree: both constructions must build the same
    # nested row spaces even though individual row signs may differ.
    core = assemble_matrix([1.0, 2.0]).entries
    rows = gram_schmidt_matrix([1.0, 2.0])
    for r in range(1, 5):
        proj_core = core[:r].T @ core[:r]
        proj_oracle = rows[:r].T @ rows[:r]
        assert np.abs(proj_core - proj_oracle).max() <= 1e-8
    assert np.abs(rows @ rows.T - np.eye(4)).max() <= 1e-10


def test_oracle_magnitudes_match_dct_reference():
    rows = gram_schmidt_matrix(preset_values("dct", 8))
    np.testing.assert_allclose(np.abs(rows), np.abs(np.array(DCT_8)), atol=5e-7)


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("n", [2, 4, 8])
def test_oracle_agrees_with_core_up_to_row_sign(name, n):
    values = preset_values(name, n)
    core = assemble_matrix(values).entries
    rows = gram_schmidt_matrix(values)
    for i in range(n):
        sign = np.sign(np.dot(rows[i], core[i]))
        assert sign != 0.0
        np.testing.assert_allclose(rows[i], sign * core[i], atol=1e-8)


def test_oracle_rejects_duplicates():
    with pytest.raises(DegenerateFamilyError):
        gram_schmidt_matrix([1.0, 1.0, 2.0])


def test_small_case_exact_values():
    d_even, d_odd = small_case_coefficients([1.0, 2.0])
    assert d_even == Fraction(-5, 2)
    assert d_odd == Fraction(-17, 5)


def test_small_case_single_value_empty():
    assert small_case_coefficients([7.0]) == ()


def test_small_case_quarters():
    d_even, _ = small_case_coefficients([0.75, 0.25])
    assert d_even == Fraction(-5, 16)
    # the resulting matrix row alternates +/- 0.5
    entries = assemble_matrix([0.75, 0.25]).entries
    np.testing.assert_allclose(entries[2], [0.5, -0.5, -0.5, 0.5], atol=5e-7)


def test_small_case_matches_solver_path():
    for values in ([1.0, 2.0], [0.75, 0.25], [0.9, 0.1]):
        basis = induct_basis(values)
        d_even, d_odd = small_case_coefficients(values)
        assert abs(basis.even_coefs[1][0] - float(d_even)) <= 1e-14
        assert abs(basis.odd_coefs[1][0] - float(d_odd)) <= 1e-14


def test_small_case_rejects_large_sets():
    with pytest.raises(ValueError):
        small_case_coefficients([1.0, 2.0, 3.0])


def _sign_aligned_error(entries, reference):
    signs = np.sign(np.sum(entries * reference, axis=1))
    signs[signs == 0.0] = 1.0
    return float(np.abs(entries - signs[:, None] * reference).max())


def test_exact_oracle_reference_tables():
    np.testing.assert_allclose(exact_matrix(preset_values("dct", 8)), DCT_8, atol=5e-8)
    np.testing.assert_allclose(exact_matrix([0.75, 0.25]), DTT_4, atol=5e-8)
    # closed-form DCT-II at a size the golden tables do not cover; its odd
    # rows run the other way round from the generator's
    n = 12
    dct = np.sqrt(2.0 / n) * np.cos(np.pi * np.outer(np.arange(n), 2 * np.arange(n) + 1) / (2 * n))
    dct[0] /= np.sqrt(2.0)
    assert _sign_aligned_error(exact_matrix(preset_values("dct", n)), dct) <= 1e-14


@pytest.mark.parametrize("name", PRESETS)
def test_presets_match_exact_oracle(name):
    for n in range(2, 17, 2):
        values = preset_values(name, n)
        assert _sign_aligned_error(assemble_matrix(values).entries, exact_matrix(values)) <= 1e-10


@given(value_sets())
@example(np.linspace(0.5, 0.506, 7))
@example(np.linspace(0.5, 0.507, 8))
def test_matches_exact_oracle_or_reports_why(values):
    # Well-spread sets agree within 1e-10. Tight clusters away from zero
    # defeat the moment systems: seven values 1e-3 apart in [0.5, 0.506] come
    # out 1.1e-9 off, and eight in [0.5, 0.507] are refused. What is returned
    # is within the guard's error estimate.
    try:
        entries = assemble_matrix(values).entries
    except FidelityError:
        return
    error = _sign_aligned_error(entries, exact_matrix(values))
    assert error <= max(1e-10, fidelity(entries, values)[1])


def test_dct_oracle_is_the_golden_table_with_odd_rows_negated():
    signs = np.where(np.arange(8) % 2, -1.0, 1.0)
    np.testing.assert_allclose(signs[:, None] * dct_matrix(8), DCT_8, atol=5e-8)
    c = dct_matrix(48)
    assert np.abs(c @ c.T - np.eye(48)).max() <= 1e-14


# dtt's exact rationals grow too large except at n = 32 and 64.
_ABOVE_16 = [
    (name, n)
    for name in PRESETS
    for n in (18, 24, 32, 40, 48, 64)
    if name != "dtt" or n in (32, 64)
]


@pytest.mark.filterwarnings("ignore::orthogen.errors.ConditioningWarning")
@pytest.mark.parametrize("name, n", _ABOVE_16)
def test_returned_matrices_above_16_match_their_reference(name, n):
    # Above n = 16 only closed-form or exact references can tell a wrong
    # matrix from the right one; refusing to return a matrix is allowed.
    values = preset_values(name, n)
    try:
        entries = assemble_matrix(values).entries
    except (FidelityError, SingularSystemError):
        return
    reference = dct_matrix(n) if name == "dct" else exact_matrix(values)
    assert _sign_aligned_error(entries, reference) <= 5e-7
