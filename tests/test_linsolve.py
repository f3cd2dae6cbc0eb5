import math
import re
import warnings

import numpy as np
import pytest

from orthogen import core, linsolve
from orthogen.core import build_even_system, build_odd_system
from orthogen.errors import ConditioningWarning, SingularSystemError
from orthogen.linsolve import BATCHED_SIZE, PIVOT_RTOL, check_steps, determinant, solve
from orthogen.presets import preset_values
from test_core import TIGHT_CLUSTERS


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
        check_steps([np.full((1, 1, 1), np.nan)])
    with pytest.raises(ValueError):
        solve([[1.0]], [np.inf])
    with pytest.raises(ValueError):
        determinant([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_inputs_not_mutated():
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    rhs = np.array([1.0, 2.0])
    a_copy, rhs_copy = a.copy(), rhs.copy()
    solve(a, rhs)
    check_steps([a[None]])
    determinant(a)
    np.testing.assert_array_equal(a, a_copy)
    np.testing.assert_array_equal(rhs, rhs_copy)
    # Each stack a generator yields is equilibrated into the elimination's own array
    stacks = [_graded_systems(np.random.default_rng(43), 2, t)[0] for t in (3, 2, 1)]
    copies = [stack.copy() for stack in stacks]
    check_steps(stack for stack in stacks)
    assert [stack.tobytes() for stack in stacks] == [c.tobytes() for c in copies]


def test_pow2_scales_match_the_frexp_loop():
    # The equilibration's exponents: max/scale in [0.5, 1) for every positive
    # maximum, 1.0 for a zero one, as the per-entry math.frexp loop gave
    maxima = np.array([0.0, 5e-324, 2.2e-308, 0.5, 1.0, 3.0, 1e300, np.finfo(float).max / 2])
    want = [2.0 ** math.frexp(v)[1] if v > 0.0 else 1.0 for v in maxima]
    np.testing.assert_array_equal(np.ldexp(1.0, np.frexp(maxima)[1]), want)


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


def _error(run):
    with pytest.raises(SingularSystemError) as info:
        run()
    return str(info.value)


def _stack_error(stack):
    return _error(lambda: check_steps([np.array(stack)]))


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
    # The build tests a step's even and odd systems as one stack
    assert _stack_error(stack) == _error(lambda: solve(first_failing, np.ones(3)))


def test_stack_error_messages_name_the_failure():
    assert _stack_error([FAILS_LATE, FAILS_EARLY]).startswith("pivot 0.000e+00 in column 2 ")
    assert _stack_error([REGULAR, ZERO_COLUMN]) == "zero column: matrix is singular"


def test_two_dimensional_input_gives_a_single_solution():
    a = np.array(REGULAR)
    x = solve(a, [1.0, 2.0, 3.0])
    assert x.shape == (3,)
    np.testing.assert_array_equal(x, np.linalg.solve(a, [1.0, 2.0, 3.0]))
    # any rhs with t entries is read as one vector
    for rhs in ([[1.0], [2.0], [3.0]], [[1.0, 2.0, 3.0]], [[[1.0, 2.0, 3.0]]]):
        np.testing.assert_array_equal(solve(a, rhs), x)
    np.testing.assert_allclose(a @ x, [1.0, 2.0, 3.0], rtol=0, atol=1e-15)


@pytest.mark.parametrize("rhs_shape", [(2,), (4,), (0,), (2, 2), (3, 3), (1, 3, 2)])
def test_rhs_of_another_size_rejected(rhs_shape):
    message = f"right-hand side of shape {rhs_shape} does not match matrix shape (3, 3)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve(REGULAR, np.ones(rhs_shape))


@pytest.mark.parametrize("rhs_shape", [(3,), (2, 2), (3, 3), (2, 3, 1), (1, 3)])
def test_stack_rhs_of_another_shape_rejected(rhs_shape):
    # solve takes one system: a stack is refused before its right-hand side is read
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3, 3\)$"):
        solve(np.stack([REGULAR, REGULAR]), np.ones(rhs_shape))


@pytest.mark.parametrize("shape", [(2, 3, 2), (0, 3, 3), (2, 0, 0), (2, 2, 2, 2), (2, 3, 3), (1, 1, 1)])
def test_stack_of_non_square_or_empty_matrices_rejected(shape):
    # Any stack, square systems too, is refused as determinant refuses it
    message = f"^{re.escape(f'expected a square matrix, got shape {shape}')}$"
    with pytest.raises(ValueError, match=message):
        solve(np.ones(shape), np.ones(shape[:2]))
    with pytest.raises(ValueError, match=message):
        determinant(np.ones(shape))


def _outcome(run):
    try:
        run()
    except (SingularSystemError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def _checked_nested(stacks):
    # One elimination for the stacks of steps 1..s; records which stacks
    # were formed, in order, and fails if one more is asked for.
    formed = []

    def drawn():
        for t in range(len(stacks), 0, -1):
            formed.append(t)
            yield stacks[t]
        raise AssertionError("drawn past the stack of size 1")

    return _outcome(lambda: check_steps(drawn())), formed


def _solved_one_by_one(stacks):
    # Each system solved alone, the smallest step first
    def run():
        for t in range(1, len(stacks) + 1):
            for a in stacks[t]:
                solve(a, np.ones(t))

    return _outcome(run)


def _with(stack, at, bad):
    # The stack with ``bad`` as the bottom-right block of system ``at``,
    # decoupled from the rest of that system
    stack, d = stack.copy(), len(bad)
    stack[at, -d:], stack[at, :, -d:] = 0.0, 0.0
    stack[at, -d:, -d:] = bad
    return stack


NON_FINITE = [[1.0, 0.0, 0.0], [0.0, np.nan, 0.0], [0.0, 0.0, 1.0]]
FAILING = [FAILS_LATE, FAILS_EARLY, ZERO_COLUMN, [[0.0]], NON_FINITE]
B = BATCHED_SIZE  # steps of this size and below join the elimination as one batch


def test_nested_steps_raise_what_solving_one_by_one_raises():
    # Six steps, all joining as one batch, then a few more than BATCHED_SIZE,
    # which join one per column down to it: each failing matrix at each step
    # and in either system, above, at and below the bound
    rng = np.random.default_rng(23)
    pairs = {6: [((3, FAILS_LATE), (1, [[0.0]])), ((1, [[0.0]]), (4, FAILS_LATE)),
                 ((5, ZERO_COLUMN), (3, FAILS_EARLY)), ((4, NON_FINITE), (6, FAILS_EARLY))],
             B + 3: [((B + 3, FAILS_LATE), (3, [[0.0]])), ((B, FAILS_EARLY), (B + 1, NON_FINITE)),
                     ((B + 1, ZERO_COLUMN), (B + 2, FAILS_EARLY)), ((B - 1, NON_FINITE), (B + 2, FAILS_LATE))]}
    for s, rounds in ((6, 6), (B + 3, 2)):
        for _ in range(rounds):
            stacks = {t: _graded_systems(rng, 2, t)[0] for t in range(1, s + 1)}
            assert _checked_nested(stacks) == (None, list(range(s, 0, -1)))
            for bad in FAILING:
                for t in range(len(bad), s + 1):
                    for at in (0, 1):
                        failing = {**stacks, t: _with(stacks[t], at, bad)}
                        outcome, formed = _checked_nested(failing)
                        assert outcome == _solved_one_by_one(failing) is not None
                        assert formed == list(range(s, 0, -1))
        # Two failing steps: the smaller wins, although the larger joins first
        for (t, bad), (u, worse) in pairs[s]:
            failing = {**stacks, t: _with(stacks[t], 1, bad), u: _with(stacks[u], 0, worse)}
            assert _checked_nested(failing)[0] == _solved_one_by_one(failing) is not None
        # A failing system before a non-finite one in the same stack: the
        # stack is checked for finite entries as a whole, so ValueError wins
        for t in sorted({4, min(B, s), s}):
            failing = {**stacks, t: _with(_with(stacks[t], 0, FAILS_EARLY), 1, NON_FINITE)}
            assert _checked_nested(failing) == ((ValueError, "matrix entries must be finite"), list(range(s, 0, -1)))


def _eye_steps(s):
    return {t: np.stack([np.eye(t), np.eye(t)]) for t in range(1, s + 1)}


@pytest.mark.parametrize(
    "steps, stacks",
    [
        pytest.param(5, [(3, FAILS_EARLY), (4, NON_FINITE), (5, [[1.0, 2.0], [2.0, 4.0]])], id="stacks0"),
        pytest.param(5, [(3, NON_FINITE), (4, FAILS_EARLY), (5, [[0.0]])], id="stacks1"),
        pytest.param(5, [(1, [[0.0]]), (3, FAILS_LATE), (5, NON_FINITE)], id="stacks2"),
        pytest.param(5, [(3, NON_FINITE), (5, FAILS_LATE)], id="stacks3"),
        pytest.param(5, [(5, NON_FINITE)], id="stacks4"),
        pytest.param(B + 3, [(B - 2, FAILS_EARLY), (B, NON_FINITE), (B + 2, [[1.0, 2.0], [2.0, 4.0]])], id="bound0"),
        pytest.param(B + 3, [(B - 1, NON_FINITE), (B + 1, FAILS_EARLY), (B + 3, [[0.0]])], id="bound1"),
        pytest.param(B + 3, [(1, [[0.0]]), (B, FAILS_LATE), (B + 3, NON_FINITE)], id="bound2"),
        pytest.param(B + 3, [(B + 1, NON_FINITE), (B + 3, FAILS_LATE)], id="bound3"),
        pytest.param(B + 3, [(B, NON_FINITE)], id="bound4"),
    ],
)
def test_the_first_invalid_stack_stops_the_test(steps, stacks):
    # ``stacks`` places failing matrices at some of steps 1..steps, all in
    # the batch, or above, at and below BATCHED_SIZE. A non-finite stack
    # raises ValueError unless a smaller step fails the pivot test, as
    # solving the steps one by one, the smallest first, stops at the first
    # that raises; every stack is still formed once
    placed = _eye_steps(steps)
    for t, bad in stacks:
        placed[t] = _with(placed[t], 1, bad)
    outcome, formed = _checked_nested(placed)
    assert outcome == _solved_one_by_one(placed) is not None
    assert formed == list(range(steps, 0, -1))


def test_a_stack_that_is_not_double_joins_at_its_own_column():
    # A stack of another dtype ends the batch and joins one per column, where
    # ldexp rounds it in its own dtype, as when it is the only stack: the
    # refusal of the one failing step reads the same alone and among the
    # other steps, whatever their dtypes, in the batch or above it
    for s in (5, B + 3):
        for bad_at in (2, s):
            double = _eye_steps(s)
            double[bad_at] = _with(double[bad_at], 1, [[1.0, 2.0], [2.0, 4.0]])
            for t in range(1, s + 1):
                for dtype in (np.float16, np.float32, np.int64):
                    steps = {**double, t: double[t].astype(dtype)}
                    alone = _outcome(lambda: check_steps([steps[bad_at]]))
                    assert alone is not None
                    assert _checked_nested(steps) == (alone, list(range(s, 0, -1)))


def test_equal_sizes_join_at_the_first_column_as_one_stack():
    # A step's systems join together and raise what each raises alone, the
    # first failing one in order
    rng = np.random.default_rng(29)
    for _ in range(20):
        t = int(rng.integers(1, 9))
        a, _ = _graded_systems(rng, 4, t)
        a[rng.integers(4), :, 0] = 0.0
        one_by_one = _outcome(lambda: [solve(ai, np.ones(t)) for ai in a])
        assert _outcome(lambda: check_steps([a])) == one_by_one is not None


def test_check_steps_forms_every_stack_once_largest_first():
    # Three steps, all joining as one batch, then a few more than BATCHED_SIZE
    small = {1: np.ones((1, 1, 1)), 2: np.eye(2)[None], 3: np.array([REGULAR, REGULAR])}
    for stacks in (small, _eye_steps(B + 3)):
        s = len(stacks)
        assert _checked_nested(stacks) == (None, list(range(s, 0, -1)))

        def and_more():
            yield from (stacks[t] for t in range(s, 0, -1))
            raise AssertionError("drawn past the stack of size 1")

        check_steps(and_more())
        # Sizes may stop short of 1, in the batch or above it
        assert check_steps([stacks[t] for t in range(s, 1, -1)]) is None
        assert check_steps([stacks[s], stacks[s - 1]]) is None
    # No steps: nothing is formed
    assert check_steps([]) is None


def test_each_stack_is_used_before_the_next_is_drawn():
    # A generator may refill one buffer for every stack it yields: five
    # steps, all joining as one batch, then a few more than BATCHED_SIZE
    rng = np.random.default_rng(37)
    for s in (5, B + 3):
        stacks = {t: _graded_systems(rng, 2, t)[0] for t in range(1, s + 1)}
        stacks[4] = _with(stacks[4], 1, FAILS_LATE)
        buffer = np.empty((2, s, s))

        def refilled():
            for t in range(s, 0, -1):
                buffer[:, :t, :t] = stacks[t]
                yield buffer[:, :t, :t]

        assert _outcome(lambda: check_steps(refilled())) == _checked_nested(stacks)[0] is not None


@pytest.mark.parametrize(
    "shapes",
    [[(2, 3, 3), (2, 3, 3)], [(2, 3, 3), (2, 1, 1)], [(1, 2, 2), (1, 1, 2)], [(2, 2, 2), (2, 1)],
     [(3, 2, 2), (1, 1, 1, 1)]],
)
def test_a_stack_of_the_wrong_size_raises_value_error(shapes):
    # Each stack after the first must be one smaller than the one before
    with pytest.raises(ValueError, match="expected a stack of"):
        check_steps(np.ones(shape) for shape in shapes)


@pytest.mark.parametrize(
    "stacks, shape",
    [([np.ones((0, 3, 3))], (0, 3, 3)), ([np.ones((1, 0, 0))], (1, 0, 0)),
     ([np.ones((1, 3, 3)), np.ones((0, 2, 2))], (0, 2, 2)),
     ([np.eye(B + 1)[None], np.ones((0, B, B))], (0, B, B)), ([np.float64(1.0)], ())],
    ids=["no-systems", "empty-systems", "no-systems-joining", "no-systems-joining-the-batch", "scalar"],
)
def test_an_empty_stack_raises_value_error(stacks, shape):
    message = f"expected a non-empty stack of systems, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_steps(stacks)


def _plain_pivot_test(a):
    """The pivot test on one system, written out alone: power-of-two column,
    then row, scales by frexp and ldexp; partial pivoting; the zero-column
    check; and a floor of PIVOT_RTOL times the largest scaled entry."""
    a = np.array(a, dtype=float)
    t = len(a)
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    for j in range(t):
        top = max(abs(v) for v in a[:, j])
        if top == 0.0:
            raise SingularSystemError("zero column: matrix is singular")
        a[:, j] = [math.ldexp(v, -math.frexp(top)[1]) for v in a[:, j]]
    for i in range(t):
        a[i] = [math.ldexp(v, -math.frexp(max(abs(v) for v in a[i]))[1]) for v in a[i]]
    floor = PIVOT_RTOL * max(abs(v) for v in a.ravel())
    for j in range(t):
        p = max(range(j, t), key=lambda i: (abs(a[i, j]), -i))
        a[[j, p]] = a[[p, j]]
        pivot = a[j, j]
        if abs(pivot) < floor or pivot == 0.0:
            raise SingularSystemError(f"pivot {pivot:.3e} in column {j} below threshold {floor:.3e}")
        for i in range(j + 1, t):
            a[i, j + 1 :] -= a[i, j] / pivot * a[j, j + 1 :]


def _plain_outcome(steps):
    # The plain test on every system of the steps in turn, the smallest step first
    return _outcome(lambda: [_plain_pivot_test(a) for stack in steps for a in stack])


@pytest.mark.parametrize("bad", [FAILS_LATE, FAILS_EARLY, ZERO_COLUMN], ids=["late", "early", "zero-column"])
def test_pivot_test_raises_what_a_plain_elimination_raises(bad):
    # As they stand, then graded over many decades, which can fail REGULAR too
    rng = np.random.default_rng(31)
    stacks = [np.array([REGULAR, bad])]
    stacks += [stacks[0] * 10.0 ** rng.uniform(-30.0, 30.0, (2, 3, 1)) for _ in range(5)]
    stacks += [stacks[0] * 10.0 ** rng.uniform(-30.0, 30.0, (2, 1, 3)) for _ in range(5)]
    for stack in stacks:
        want = _plain_outcome([stack])
        assert want is not None
        assert _outcome(lambda: check_steps([stack])) == want
        assert _outcome(lambda: [solve(a, np.ones(3)) for a in stack]) == want


def _moment_steps(values, monkeypatch):
    # The rows come from _canonical with the pivot test switched off; each
    # step's systems are then formed alone by the public builders
    monkeypatch.setattr(linsolve, "check_steps", lambda stacks: None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        _, _, _, y, rows, _, _ = core._canonical(values)
    monkeypatch.undo()
    m = y.size
    basis = core.ReducedBasis(y, list(rows[0::2]), list(rows[1::2]), [], [])
    return [np.array([build_even_system(basis, t).matrix, build_odd_system(basis, t).matrix]) for t in range(1, m)]


# Four values packed within 3e-13, and the tight clusters only the pivot test
# refuses; every step joins as one batch, so the batch makes the refusal
@pytest.mark.parametrize("values", [[1, 1.0000000000001, 1.0000000000002, 1.0000000000003], *TIGHT_CLUSTERS])
def test_moment_systems_fail_as_a_plain_elimination_fails(values, monkeypatch):
    steps = _moment_steps(values, monkeypatch)
    assert len(steps) <= BATCHED_SIZE
    want = _plain_outcome(steps)
    assert want is not None
    assert _outcome(lambda: check_steps(steps[::-1])) == want
    assert _outcome(lambda: [solve(a, np.ones(len(a))) for step in steps for a in step]) == want
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        assert _outcome(lambda: core.assemble_matrix(values)) == want


# The largest sizes each preset returns, and the first it refuses
@pytest.mark.parametrize("name, n, refused", [("fibonacci", 36, False), ("fibonacci", 38, True),
                                              ("triangular", 94, False), ("triangular", 96, True)])
def test_preset_refusal_boundaries_match_a_plain_elimination(name, n, refused, monkeypatch):
    steps = _moment_steps(preset_values(name, n), monkeypatch)
    want = _plain_outcome(steps)
    assert (want is not None) == refused
    assert _outcome(lambda: check_steps(steps[::-1])) == want


# The refused presets and their smallest failing steps, all above BATCHED_SIZE,
# where the stacks join one per column
@pytest.mark.parametrize("name, n, failing", [("fibonacci", 38, 18), ("triangular", 96, 47), ("prime", 162, 79),
                                              ("dtt", 252, 125), ("dtt", 256, 126)])
def test_preset_refusals_come_from_steps_above_the_batch(name, n, failing, monkeypatch):
    steps = _moment_steps(preset_values(name, n), monkeypatch)
    assert failing > BATCHED_SIZE
    assert check_steps(steps[failing - 2 :: -1]) is None
    assert _outcome(lambda: check_steps(steps[::-1])) == _plain_outcome([steps[failing - 1]]) is not None


def test_signed_zeros_reach_the_pivots_as_in_a_plain_elimination():
    # Stacks of -1, -0.0, 0.0 and 1, mostly singular: each product is rounded
    # alone, so a -0.0 product stays -0.0 and the pivot's printed sign is the
    # plain elimination's (a product added to zeros would turn it into 0.0)
    rng = np.random.default_rng(47)
    outcomes = []
    for _ in range(400):
        t = int(rng.integers(2, 6))
        stack = rng.integers(-1, 2, (2, t, t)) * rng.choice([-1.0, 1.0], (2, t, t))
        outcomes.append(_plain_outcome([stack]))
        assert _outcome(lambda: check_steps([stack])) == outcomes[-1]
    assert sum(str(o).count("pivot -0.000e+00") for o in outcomes) > 0


def _plain_stackwise_outcome(steps):
    # _plain_outcome with each stack checked for finite entries as a whole,
    # as check_steps checks it, the smallest step first
    for stack in steps:
        outcome = _plain_outcome([stack])
        if not np.isfinite(stack).all():
            return ValueError, "matrix entries must be finite"
        if outcome is not None:
            return outcome
    return None


def _spoiled(rng, a):
    # The stack with one system spoiled by a seeded kind of failure
    a = a.copy()
    i, t = int(rng.integers(len(a))), a.shape[-1]
    kind = rng.integers(6)
    if kind == 0:  # -1, -0.0, 0.0 and 1, mostly singular; all zeros at t = 1 a third of the time
        a[i] = rng.integers(-1, 2, (t, t)) * rng.choice([-1.0, 1.0], (t, t))
    elif kind == 1:  # rows and columns graded over many decades
        a[i] *= 10.0 ** rng.uniform(-30.0, 30.0, (t, 1)) * 10.0 ** rng.uniform(-30.0, 30.0, (1, t))
    elif kind == 2:  # NaN or an infinity, which a 1 x 1 system carries into every pivot
        a[i, rng.integers(t), rng.integers(t)] = rng.choice([np.nan, np.inf, -np.inf])
    elif kind == 3:  # subnormal
        a[i] *= 1e-310
    elif kind == 4:  # a zero column, of either sign
        a[i, :, rng.integers(t)] = rng.choice([0.0, -0.0])
    else:  # a repeated row, up to its last bits: singular or nearly
        a[i, -1] = a[i, 0] * rng.choice([1.0, -1.0, 1.0 + 1e-15])
    return a


def test_the_verdict_names_the_smallest_failing_step_among_many():
    # Steps s..1 for s = 1..8, the stacks a build up to n = 16 forms, all in
    # one batch (of one to three systems each, so the batch also grows), with
    # failures seeded into several stacks at once: the refusal is the
    # smallest failing step's, as in the plain elimination
    rng = np.random.default_rng(53)
    outcomes, many = [], 0
    for _ in range(600):
        s = int(rng.integers(1, 9))
        stacks = {t: rng.standard_normal((int(rng.integers(1, 4)), t, t)) for t in range(1, s + 1)}
        stacks = {t: _spoiled(rng, a) if rng.random() < 0.5 else a for t, a in stacks.items()}
        steps = [stacks[t] for t in range(1, s + 1)]
        failing = sum(_plain_stackwise_outcome([step]) is not None for step in steps)
        many += failing > 1
        outcomes.append(_plain_stackwise_outcome(steps))
        assert _checked_nested(stacks) == (outcomes[-1], list(range(s, 0, -1)))
    assert many >= 100
    # Every kind of refusal is among them, and some pass
    kinds = {o if o is None else o[1].split(" ")[0] for o in outcomes}
    assert kinds == {None, "matrix", "zero", "pivot"}
