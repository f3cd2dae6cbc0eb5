import warnings

import numpy as np
import pytest

from orthogen.core import assemble_matrix
from orthogen.errors import SizeMismatchError
from orthogen.presets import preset_values
from orthogen.transform import compaction_report, forward_2d, inverse_2d


@pytest.fixture(scope="module")
def dct8():
    return assemble_matrix(preset_values("dct", 8))


@pytest.fixture(scope="module")
def dtt4():
    return assemble_matrix(preset_values("dtt", 4))


def test_zero_block_both_directions(dct8):
    zero = np.zeros((8, 8))
    np.testing.assert_array_equal(forward_2d(dct8, zero), zero)
    np.testing.assert_array_equal(inverse_2d(dct8, zero), zero)


def test_constant_block_compacts_to_dc(dct8):
    coeffs = forward_2d(dct8, np.ones((8, 8)))
    assert coeffs[0, 0] == pytest.approx(8.0, abs=1e-12)
    rest = coeffs.copy()
    rest[0, 0] = 0.0
    assert np.abs(rest).max() <= 1e-12


def test_dc_only_inverts_to_constant(dct8):
    coeffs = np.zeros((8, 8))
    coeffs[0, 0] = 8.0
    np.testing.assert_allclose(inverse_2d(dct8, coeffs), np.ones((8, 8)), atol=1e-12)


def test_round_trip_random_blocks(dct8, dtt4):
    rng = np.random.default_rng(31)
    for matrix, n in ((dct8, 8), (dtt4, 4)):
        for _ in range(50):
            block = rng.uniform(-1024, 1023, (n, n))
            restored = inverse_2d(matrix, forward_2d(matrix, block))
            assert np.abs(restored - block).max() <= 1e-9


def test_parseval_energy_conservation():
    rng = np.random.default_rng(32)
    for preset in ("dct", "dtt", "triangular", "prime", "fibonacci"):
        matrix = assemble_matrix(preset_values(preset, 8))
        block = rng.uniform(-1024, 1023, (8, 8))
        energy_in = np.sum(block**2)
        energy_out = np.sum(forward_2d(matrix, block) ** 2)
        assert abs(energy_out - energy_in) <= 1e-9 * energy_in


def test_size_mismatch_rejected(dct8):
    with pytest.raises(SizeMismatchError):
        forward_2d(dct8, np.zeros((4, 4)))
    with pytest.raises(SizeMismatchError):
        inverse_2d(dct8, np.zeros((4, 4)))


def test_non_finite_block_rejected(dct8):
    block = np.zeros((8, 8))
    block[3, 3] = np.nan
    with pytest.raises(ValueError):
        forward_2d(dct8, block)


def test_compaction_keep_all(dct8):
    rng = np.random.default_rng(33)
    block = rng.uniform(-512, 512, (8, 8))
    retained, mse = compaction_report(dct8, block, keep=64)
    assert retained == pytest.approx(1.0, abs=1e-12)
    assert mse == pytest.approx(0.0, abs=1e-18)


def test_compaction_keep_one_constant_block(dct8):
    retained, mse = compaction_report(dct8, 7.0 * np.ones((8, 8)), keep=1)
    assert retained == pytest.approx(1.0, abs=1e-12)
    assert mse == pytest.approx(0.0, abs=1e-18)


def test_compaction_monotone_in_keep(dct8):
    rng = np.random.default_rng(34)
    block = rng.uniform(-512, 512, (8, 8))
    fractions = [compaction_report(dct8, block, keep=k)[0] for k in range(1, 65)]
    assert all(b >= a - 1e-15 for a, b in zip(fractions, fractions[1:]))
    mses = [compaction_report(dct8, block, keep=k)[1] for k in (1, 8, 32, 64)]
    assert all(b <= a + 1e-15 for a, b in zip(mses, mses[1:]))


def test_compaction_on_ramp_block(dct8):
    dtt8 = assemble_matrix(preset_values("dtt", 8))
    ramp = np.add.outer(np.arange(8.0), np.arange(8.0))
    for matrix in (dct8, dtt8):
        retained, _ = compaction_report(matrix, ramp, keep=8)
        assert retained >= 0.99


def test_compaction_keep_bounds(dct8):
    block = np.ones((8, 8))
    with pytest.raises(ValueError):
        compaction_report(dct8, block, keep=0)
    with pytest.raises(ValueError):
        compaction_report(dct8, block, keep=65)
    # 2.5 used to escape as slicing's TypeError, and True counted as one
    for keep in (2.5, True, "4", None):
        with pytest.raises(ValueError, match="^keep must be an integer, got "):
            compaction_report(dct8, block, keep=keep)
    assert compaction_report(dct8, block, keep=np.int64(1)) == compaction_report(dct8, block, keep=1)


def _direct_compaction(matrix, block, keep):
    """Zero all but the ``keep`` largest coefficients and reconstruct."""
    m = matrix.entries
    flat = (m @ block @ m.T).ravel()
    order = np.argsort(-np.abs(flat), kind="stable")
    kept = np.zeros_like(flat)
    kept[order[:keep]] = flat[order[:keep]]
    retained = float(np.dot(kept, kept) / np.dot(flat, flat))
    mse = float(np.mean((block - m.T @ kept.reshape(block.shape) @ m) ** 2))
    return retained, mse


@pytest.mark.parametrize("preset, n", [("dct", 8), ("dtt", 16)])
def test_compaction_matches_direct_reconstruction(preset, n):
    matrix = assemble_matrix(preset_values(preset, n))
    rng = np.random.default_rng(35)
    for _ in range(3):
        block = rng.uniform(-512, 512, (n, n))
        for keep in range(1, n * n + 1):
            retained, mse = compaction_report(matrix, block, keep)
            want_retained, want_mse = _direct_compaction(matrix, block, keep)
            assert abs(retained - want_retained) <= 1e-12
            assert abs(mse - want_mse) <= 1e-12 * max(1.0, want_mse)
    zero = np.zeros((n, n))
    for keep in range(1, n * n + 1):
        assert compaction_report(matrix, zero, keep) == (1.0, 0.0)


def test_compaction_zero_block(dct8):
    retained, mse = compaction_report(dct8, np.zeros((8, 8)), keep=3)
    assert retained == 1.0
    assert mse == 0.0


def test_plain_array_matrix_accepted(dct8):
    block = np.arange(64.0).reshape(8, 8)
    via_object = forward_2d(dct8, block)
    via_array = forward_2d(dct8.entries, block)
    np.testing.assert_array_equal(via_object, via_array)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_rejected_everywhere(dct8, bad):
    block = np.ones((8, 8))
    block[5, 2] = bad
    for call in (forward_2d, inverse_2d):
        with pytest.raises(ValueError, match="finite"):
            call(dct8, block)
        with pytest.raises(ValueError, match="finite"):
            call(dct8, np.stack([np.ones((8, 8)), block]))
    with pytest.raises(ValueError, match="finite"):
        compaction_report(dct8, block, keep=4)


def test_huge_finite_block_accepted(dct8):
    # Its sum of squares overflows, so finiteness is decided sample by sample.
    block = np.full((8, 8), 1e200)
    assert not np.isfinite(np.vdot(block, block))
    coeffs = forward_2d(dct8, block)
    assert coeffs[0, 0] == pytest.approx(8e200)
    np.testing.assert_allclose(inverse_2d(dct8, coeffs), block)


def test_block_whose_transform_overflows_rejected_everywhere(dct8):
    # Finite samples, but the DC coefficient 8e308 is beyond the double range
    block = np.full((8, 8), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (forward_2d, inverse_2d):
            with pytest.raises(ValueError, match="overflows"):
                call(dct8, block)
            with pytest.raises(ValueError, match="overflows"):
                call(dct8, np.stack([np.ones((8, 8)), block]))
        with pytest.raises(ValueError, match="overflows"):
            compaction_report(dct8, block, keep=4)


def test_single_huge_sample_transforms_and_round_trips(dct8):
    # Its square overflows, but every coefficient is within the double range
    block = np.zeros((8, 8))
    block[3, 5] = 1e308
    coeffs = forward_2d(dct8, block)
    np.testing.assert_allclose(inverse_2d(dct8, coeffs), block, rtol=0, atol=1e308 * 1e-15)
    assert compaction_report(dct8, block, keep=64) == (1.0, 0.0)


def test_compaction_of_a_block_whose_energy_overflows(dct8):
    # The squared coefficients sum to inf; the retained fraction used to be NaN.
    retained, mse = compaction_report(dct8, np.full((8, 8), 1e200), keep=1)
    assert retained == pytest.approx(1.0)
    assert mse >= 0.0


@pytest.mark.parametrize("k", [-600, -20, 0, 20, 500])
def test_compaction_unchanged_by_power_of_two_scaling(dct8, k):
    # 2**k scales every coefficient exactly, so the fraction is bit for bit
    # the same, also where the plain energy of the scaled block overflows
    # (k = 500) or underflows (k = -600)
    block = np.random.default_rng(41).uniform(-1024, 1023, (8, 8))
    for keep in (1, 8, 63):
        retained, mse = compaction_report(dct8, block, keep)
        scaled_retained, scaled_mse = compaction_report(dct8, np.ldexp(block, k), keep)
        assert scaled_retained == retained
        assert scaled_mse == np.ldexp(mse, 2 * k)


@pytest.mark.parametrize("preset, n", [("dct", 8), ("dtt", 16), ("prime", 4)])
def test_stack_matches_per_block_results(preset, n):
    # Tiles are views of one 10-bit image, cut in raster order as a block
    # codec cuts them, so no single block is contiguous.
    matrix = assemble_matrix(preset_values(preset, n))
    m = matrix.entries
    image = np.random.default_rng(36).integers(0, 1024, (3 * n, 2 * n)).astype(float)
    corners = [(r, c) for r in range(0, 3 * n, n) for c in range(0, 2 * n, n)]
    views = [image[r : r + n, c : c + n] for r, c in corners]
    assert not any(view.flags.c_contiguous for view in views)
    coeffs = forward_2d(matrix, np.stack(views))
    plane = np.empty_like(image)
    for (r, c), coeff in zip(corners, coeffs):
        plane[r : r + n, c : c + n] = coeff
    restored = inverse_2d(matrix, coeffs)
    assert coeffs.shape == restored.shape == (len(views), n, n)
    for (r, c), view, coeff, back in zip(corners, views, coeffs, restored):
        single = forward_2d(matrix, view)
        np.testing.assert_array_equal(single, m @ view @ m.T)
        np.testing.assert_array_equal(single, coeff)
        coeff_view = plane[r : r + n, c : c + n]
        single_back = inverse_2d(matrix, coeff_view)
        np.testing.assert_array_equal(single_back, m.T @ coeff_view @ m)
        np.testing.assert_array_equal(single_back, back)
        for keep in (1, n, n * n):
            assert compaction_report(matrix, view, keep) == compaction_report(
                matrix, np.ascontiguousarray(view), keep
            )


@pytest.mark.parametrize("layout", ["transposed block", "fortran block", "matrix view", "transposed matrix"])
def test_single_block_matches_matmul_bit_for_bit_in_any_layout(layout):
    # At n = 32 BLAS rounds a product with a transposed operand differently
    # from one without, so a single block must reach BLAS as it does via @.
    m = assemble_matrix(preset_values("dct", 32)).entries
    image = np.random.default_rng(37).integers(0, 1024, (40, 48)).astype(float)
    x = image[4:36, 8:40]
    if layout == "transposed block":
        x = x.T
    elif layout == "fortran block":
        x = np.asfortranarray(x)
    else:
        m = np.pad(m, 3)[3:-3, 3:-3]
        m = m.T if layout == "transposed matrix" else m
    np.testing.assert_array_equal(forward_2d(m, x), m @ x @ m.T)
    np.testing.assert_array_equal(inverse_2d(m, x), m.T @ x @ m)


@pytest.mark.parametrize("shape", [(3, 8, 4), (3, 4, 8), (2, 3, 4, 4), (8,), ()])
def test_stack_with_wrong_trailing_shape_rejected(dct8, shape):
    for call in (forward_2d, inverse_2d):
        with pytest.raises(SizeMismatchError):
            call(dct8, np.zeros(shape))


def test_compaction_takes_exactly_one_block(dct8):
    with pytest.raises(SizeMismatchError):
        compaction_report(dct8, np.zeros((1, 8, 8)), keep=1)
    with pytest.raises(SizeMismatchError):
        compaction_report(dct8, np.zeros((3, 8, 8)), keep=1)


@pytest.mark.parametrize("shape", [(8,), (8, 4), (2, 8, 8)])
def test_matrix_that_is_not_square_2d_rejected(shape):
    matrix, block = np.ones(shape), np.ones((8, 8))
    for call in (forward_2d, inverse_2d):
        with pytest.raises(SizeMismatchError, match="not square"):
            call(matrix, block)
    with pytest.raises(SizeMismatchError, match="not square"):
        compaction_report(matrix, block, keep=1)
