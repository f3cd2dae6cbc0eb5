import math
import warnings

import numpy as np
import pytest

from conftest import random_values
from orthogen import linsolve
from orthogen.core import build_even_system, build_odd_system, induct_basis
from orthogen.errors import SingularSystemError
from orthogen.linsolve import check, check_stacks, determinant, solve


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
    with pytest.raises(ValueError, match="finite"):
        check([[np.nan]])
    with pytest.raises(ValueError):
        solve([[1.0]], [np.inf])
    with pytest.raises(ValueError):
        determinant([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_inputs_not_mutated():
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    rhs = np.array([1.0, 2.0])
    a_copy, rhs_copy = a.copy(), rhs.copy()
    solve(a, rhs)
    check(a)
    determinant(a)
    np.testing.assert_array_equal(a, a_copy)
    np.testing.assert_array_equal(rhs, rhs_copy)


def test_pow2_scales_match_the_frexp_loop():
    # max/scale in [0.5, 1) for every positive maximum, 1.0 for a zero one,
    # as the per-entry math.frexp loop gave
    maxima = np.array([0.0, 5e-324, 2.2e-308, 0.5, 1.0, 3.0, 1e300, np.finfo(float).max / 2])
    want = [2.0 ** math.frexp(v)[1] if v > 0.0 else 1.0 for v in maxima]
    np.testing.assert_array_equal(np.ldexp(1.0, linsolve._pow2_exponents(maxima)), want)


def test_solve_of_a_huge_entry_does_not_overflow():
    # 2**1024, the equilibration factor of 1.7e308, is beyond the double
    # range; applying the exponent instead gives the exact quotient
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve([[1.7e308]], [1.0])[0] == 1.0 / 1.7e308


def _graded_systems(rng, k, t):
    # Random systems with rows and columns graded over many decades, as the
    # moment systems are
    a = rng.uniform(-1.0, 1.0, (k, t, t)) + t * np.eye(t)
    a *= 10.0 ** rng.uniform(-30.0, 30.0, (k, t, 1)) * 10.0 ** rng.uniform(-30.0, 30.0, (k, 1, t))
    return a, rng.uniform(-10.0, 10.0, (k, t))


def _moment_systems(rng, t):
    # The even and odd systems of one induction step for a random value set
    basis = induct_basis(random_values(rng, int(rng.integers(t + 1, 12))))
    systems = [build_even_system(basis, t), build_odd_system(basis, t)]
    return np.array([s.matrix for s in systems]), np.array([s.rhs for s in systems])


def test_stack_matches_systems_solved_alone_bit_for_bit():
    rng = np.random.default_rng(19)
    stacks = [_graded_systems(rng, int(rng.integers(1, 5)), int(rng.integers(1, 12))) for _ in range(60)]
    stacks += [_moment_systems(rng, int(rng.integers(1, 8))) for _ in range(60)]
    for a, rhs in stacks:
        x = solve(a, rhs)
        assert x.shape == rhs.shape
        np.testing.assert_array_equal(x, [solve(ai, bi) for ai, bi in zip(a, rhs)])
        assert check(a) is None


def _error(a, rhs):
    # The pivot-only check raises what the solve raises, word for word.
    with pytest.raises(SingularSystemError) as info:
        solve(a, rhs)
    with pytest.raises(SingularSystemError) as checked:
        check(a)
    assert type(checked.value) is type(info.value)
    assert str(checked.value) == str(info.value)
    return str(info.value)


# Fails at column 2 and column 1, respectively; one with a zero column
FAILS_LATE = [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]
FAILS_EARLY = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
ZERO_COLUMN = [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [2.0, 0.0, 1.0]]
REGULAR = [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]]


@pytest.mark.parametrize(
    "stack, first_failing",
    [
        ([FAILS_LATE, FAILS_EARLY], FAILS_LATE),
        ([FAILS_EARLY, FAILS_LATE], FAILS_EARLY),
        ([REGULAR, ZERO_COLUMN], ZERO_COLUMN),
        ([FAILS_LATE, ZERO_COLUMN], FAILS_LATE),
        ([ZERO_COLUMN, FAILS_EARLY], ZERO_COLUMN),
        ([REGULAR, REGULAR, FAILS_EARLY], FAILS_EARLY),
    ],
)
def test_stack_raises_the_error_of_its_first_failing_system(stack, first_failing):
    rhs = np.ones((len(stack), 3))
    assert _error(stack, rhs) == _error(first_failing, rhs[0])


def test_stack_error_messages_name_the_failure():
    rhs = np.ones((2, 3))
    assert _error([FAILS_LATE, FAILS_EARLY], rhs).startswith("pivot 0.000e+00 in column 2 ")
    assert _error([REGULAR, ZERO_COLUMN], rhs) == "zero column: matrix is singular"


def test_two_dimensional_input_gives_a_single_solution():
    a = np.array(REGULAR)
    x = solve(a, [1.0, 2.0, 3.0])
    assert x.shape == (3,)
    np.testing.assert_array_equal(x, solve(a[None], [[1.0, 2.0, 3.0]])[0])
    # as before, any rhs with t entries is read as one vector
    np.testing.assert_array_equal(solve(a, [[1.0], [2.0], [3.0]]), x)
    np.testing.assert_allclose(a @ x, [1.0, 2.0, 3.0], rtol=0, atol=1e-15)


@pytest.mark.parametrize("rhs_shape", [(3,), (2, 2), (3, 3), (2, 3, 1), (1, 3)])
def test_stack_rhs_of_another_shape_rejected(rhs_shape):
    with pytest.raises(ValueError, match="right-hand side"):
        solve(np.stack([REGULAR, REGULAR]), np.ones(rhs_shape))


@pytest.mark.parametrize("shape", [(2, 3, 2), (0, 3, 3), (2, 0, 0), (2, 2, 2, 2)])
def test_stack_of_non_square_or_empty_matrices_rejected(shape):
    with pytest.raises(ValueError, match="square"):
        solve(np.ones(shape), np.ones(shape[:2]))
    with pytest.raises(ValueError, match="square"):
        check(np.ones(shape))


def _outcome(run):
    try:
        run()
    except (SingularSystemError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def _checked_together(stacks):
    # One elimination for every stack, each formed when it joins; records
    # which stacks were formed, in order.
    formed = []

    def stack(i):
        formed.append(i)
        return stacks[i]

    outcome = _outcome(lambda: check_stacks([np.shape(a)[-1] for a in stacks], stack))
    return outcome, formed


def _checked_one_by_one(stacks):
    def run():
        for a in stacks:
            check(a)

    return _outcome(run)


NON_FINITE = [[1.0, 0.0, 0.0], [0.0, np.nan, 0.0], [0.0, 0.0, 1.0]]


def test_mixed_sizes_raise_what_checking_one_by_one_raises():
    rng = np.random.default_rng(23)
    mixes = [[_graded_systems(rng, int(rng.integers(1, 4)), t)[0] for t in rng.integers(1, 12, 6)] for _ in range(40)]
    assert all(_checked_together(stacks)[0] is None for stacks in mixes)
    failing = [FAILS_LATE, FAILS_EARLY, ZERO_COLUMN, [[0.0]], [[1e-300, 1.0], [1e-300, 1.0]]]
    for stacks in mixes:
        for bad in failing:
            for at in (0, 3, 6):
                mixed = stacks[:at] + [bad] + stacks[at:]
                assert _checked_together(mixed)[0] == _checked_one_by_one(mixed) is not None
    # Two failures of different sizes: the first in order wins, whichever
    # joins first
    for pair in ([FAILS_LATE, [[0.0]]], [[[0.0]], FAILS_LATE], [ZERO_COLUMN, FAILS_EARLY]):
        mixed = [mixes[0][0], pair[0], mixes[0][1], pair[1]]
        assert _checked_together(mixed)[0] == _checked_one_by_one(mixed)


@pytest.mark.parametrize(
    "stacks",
    [
        [REGULAR, [[2.0]], FAILS_EARLY, NON_FINITE, [[1.0, 2.0], [2.0, 4.0]]],
        [REGULAR, NON_FINITE, FAILS_EARLY, [[0.0]]],
        [[[0.0]], np.eye(5), FAILS_LATE, NON_FINITE],
        [NON_FINITE, np.eye(4), FAILS_LATE],
        [np.eye(2), NON_FINITE[:2]],
    ],
)
def test_the_first_invalid_stack_stops_the_test(stacks):
    outcome, formed = _checked_together(stacks)
    assert outcome == _checked_one_by_one(stacks)
    stop = next((i for i, a in enumerate(stacks) if not np.isfinite(a).all() or np.shape(a)[0] != np.shape(a)[1]))
    # Largest first, and nothing smaller than the stop after it is formed
    sizes = [np.shape(a)[-1] for a in stacks]
    assert formed == sorted(formed, key=lambda i: -sizes[i])
    assert stop in formed
    assert all(i < stop or sizes[i] > sizes[stop] for i in formed if i != stop)


def test_equal_sizes_join_at_the_first_column_as_one_stack():
    rng = np.random.default_rng(29)
    for _ in range(20):
        a, _ = _graded_systems(rng, 4, int(rng.integers(1, 9)))
        a[rng.integers(4), :, 0] = 0.0
        assert _checked_together(list(a))[0] == _outcome(lambda: check(a)) == _checked_one_by_one(a)


def test_check_stacks_runs_one_elimination(monkeypatch):
    calls = []
    eliminate = linsolve._eliminate
    monkeypatch.setattr(linsolve, "_eliminate", lambda *args: calls.append(1) or eliminate(*args))
    check_stacks([3, 1, 2], lambda i: [REGULAR, [[1.0]], np.eye(2)][i])
    assert calls == [1]
    assert check_stacks([], None) is None


@pytest.mark.parametrize("sizes", [[2, 0], [-1]])
def test_check_stacks_rejects_sizes_below_one(sizes):
    with pytest.raises(ValueError, match="at least one unknown"):
        check_stacks(sizes, lambda i: np.eye(2))


def test_check_stacks_rejects_a_stack_of_another_size():
    with pytest.raises(ValueError, match="2 unknowns, expected 3"):
        check_stacks([3], lambda i: np.eye(2))
