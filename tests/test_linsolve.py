import math

import numpy as np
import pytest

from orthogen import linsolve
from orthogen.errors import SingularSystemError
from orthogen.linsolve import determinant, solve


@pytest.mark.parametrize(
    "a, rhs, expected",
    [
        ([[1.0]], [5.0], [5.0]),
        ([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0], [1.0, 2.0]),
        ([[1.0, 1.0], [1.0, -1.0]], [3.0, 1.0], [2.0, 1.0]),
    ],
)
def test_solve_known_systems(a, rhs, expected):
    np.testing.assert_allclose(solve(a, rhs), expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "a, expected",
    [
        ([[3.0]], 3.0),
        ([[1.0, 0.0], [0.0, 1.0]], 1.0),
        ([[1.0, 2.0], [3.0, 4.0]], -2.0),
    ],
)
def test_determinant_known(a, expected):
    assert determinant(a) == pytest.approx(expected, abs=1e-14)


def test_solve_residual_random_small_systems():
    rng = np.random.default_rng(7)
    for _ in range(100):
        t = rng.integers(1, 9)
        # diagonally dominant, hence well conditioned
        a = rng.uniform(-1, 1, (t, t)) + t * np.eye(t)
        rhs = rng.uniform(-10, 10, t)
        x = solve(a, rhs)
        residual = np.abs(a @ x - rhs).max()
        assert residual <= 1e-10 * max(1.0, np.abs(rhs).max())


def test_determinant_times_inverse_determinant():
    rng = np.random.default_rng(11)
    for _ in range(25):
        t = rng.integers(1, 7)
        a = rng.uniform(-1, 1, (t, t)) + t * np.eye(t)
        inv = np.column_stack([solve(a, e) for e in np.eye(t)])
        assert determinant(a) * determinant(inv) == pytest.approx(1.0, abs=1e-8)


def test_solve_raises_on_rank_deficient():
    with pytest.raises(SingularSystemError):
        solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0])


def test_solve_raises_on_zero_matrix():
    with pytest.raises(SingularSystemError):
        solve([[0.0]], [1.0])


def test_determinant_of_singular_is_zero():
    assert determinant([[1.0, 2.0], [2.0, 4.0]]) == pytest.approx(0.0, abs=1e-15)


def test_shape_and_finiteness_validation():
    with pytest.raises(ValueError):
        solve([[1.0, 2.0]], [1.0])
    with pytest.raises(ValueError):
        solve([[1.0]], [1.0, 2.0])
    with pytest.raises(ValueError):
        solve([[np.nan]], [1.0])
    with pytest.raises(ValueError):
        solve([[1.0]], [np.inf])
    with pytest.raises(ValueError):
        determinant([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_inputs_not_mutated():
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    rhs = np.array([1.0, 2.0])
    a_copy, rhs_copy = a.copy(), rhs.copy()
    solve(a, rhs)
    determinant(a)
    np.testing.assert_array_equal(a, a_copy)
    np.testing.assert_array_equal(rhs, rhs_copy)


def test_pow2_scales_match_the_frexp_loop():
    # max/scale in [0.5, 1) for every positive maximum, 1.0 for a zero one,
    # as the per-entry math.frexp loop gave
    maxima = np.array([0.0, 5e-324, 2.2e-308, 0.5, 1.0, 3.0, 1e300, np.finfo(float).max / 2])
    want = [2.0 ** math.frexp(v)[1] if v > 0.0 else 1.0 for v in maxima]
    np.testing.assert_array_equal(linsolve._pow2_scales(maxima), want)
