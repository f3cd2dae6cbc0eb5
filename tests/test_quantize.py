import numpy as np
import pytest

from orthogen.core import OrthoMatrix, assemble_matrix
from orthogen.presets import preset_values
from orthogen.quantize import auto_scale, dequantize_error, quantize_matrix
from reference_matrices import DCT_8_INT, DTT_4_INT_128, DTT_8_INT


def test_auto_scale_values():
    assert auto_scale(8) == pytest.approx(64 * np.sqrt(8))
    assert auto_scale(4) == pytest.approx(128.0)


def test_dct8_integer_table():
    im = quantize_matrix(assemble_matrix(preset_values("dct", 8)))
    np.testing.assert_array_equal(im.entries, DCT_8_INT)
    assert im.scale == pytest.approx(64 * np.sqrt(8))


def test_dtt4_times_128():
    im = quantize_matrix(assemble_matrix(preset_values("dtt", 4)), scale=128)
    np.testing.assert_array_equal(im.entries, DTT_4_INT_128)


def test_dtt8_integer_table():
    im = quantize_matrix(assemble_matrix(preset_values("dtt", 8)))
    np.testing.assert_array_equal(im.entries, DTT_8_INT)


def test_trivial_sqrt2_scale():
    im = quantize_matrix(assemble_matrix([1.0]), scale=np.sqrt(2))
    np.testing.assert_array_equal(im.entries, [[1, 1], [-1, 1]])


def test_rounds_ties_away_from_zero():
    base = assemble_matrix([1.0])
    half = OrthoMatrix(n=2, entries=np.full((2, 2), 0.25), values=base.values, norm_scales=base.norm_scales)
    im = quantize_matrix(half, scale=2.0)
    np.testing.assert_array_equal(im.entries, np.ones((2, 2)))
    negated = OrthoMatrix(n=2, entries=np.full((2, 2), -0.25), values=base.values, norm_scales=base.norm_scales)
    np.testing.assert_array_equal(quantize_matrix(negated, scale=2.0).entries, -np.ones((2, 2)))


def test_quantize_is_odd_under_negation():
    matrix = assemble_matrix(preset_values("prime", 8))
    flipped = OrthoMatrix(
        n=matrix.n, entries=-matrix.entries, values=matrix.values, norm_scales=matrix.norm_scales
    )
    im = quantize_matrix(matrix)
    im_neg = quantize_matrix(flipped)
    np.testing.assert_array_equal(im_neg.entries, -im.entries)


def test_entries_bounded_by_scale():
    for preset in ("dct", "dtt", "fibonacci"):
        im = quantize_matrix(assemble_matrix(preset_values(preset, 8)))
        assert np.abs(im.entries).max() <= np.ceil(im.scale)


def test_dequantize_error_bounds():
    im = quantize_matrix(assemble_matrix(preset_values("dct", 8)))
    err = dequantize_error(im)
    assert err <= 0.5 / im.scale
    assert err <= 2.77e-3


def test_dequantize_error_shrinks_with_scale():
    matrix = assemble_matrix(preset_values("dtt", 8))
    errors = [dequantize_error(quantize_matrix(matrix, scale=s)) for s in (128, 1024, 8192)]
    for err, scale in zip(errors, (128, 1024, 8192)):
        assert err <= 0.5 / scale


def test_round_trip_orthogonality_bound():
    im = quantize_matrix(assemble_matrix(preset_values("dct", 8)))
    approx = im.entries / im.scale
    residual = np.abs(approx @ approx.T - np.eye(8)).max()
    assert residual <= 0.05


def test_bad_scale_rejected():
    matrix = assemble_matrix([1.0])
    with pytest.raises(ValueError):
        quantize_matrix(matrix, scale=0.0)
    with pytest.raises(ValueError):
        quantize_matrix(matrix, scale=-3.0)


@pytest.mark.parametrize("scale", [np.inf, np.nan, 1e300, 2.0**64])
def test_scale_beyond_int64_rejected(scale):
    # the rounded entries must stay below 2**63; inf and 1e300 used to give
    # a table of -2**63
    with pytest.raises(ValueError, match="scale"):
        quantize_matrix(assemble_matrix([1.0]), scale=scale)


def test_largest_entries_within_int64_accepted():
    # +-1/sqrt(2) times 2**63 is exact and about 0.71 * 2**63
    matrix = assemble_matrix([1.0])
    im = quantize_matrix(matrix, scale=2.0**63)
    np.testing.assert_array_equal(im.entries, (matrix.entries * 2.0**63).astype(np.int64))
