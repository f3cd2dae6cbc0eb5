import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from orthogen import io
from orthogen.core import assemble_matrix
from orthogen.presets import preset_values
from orthogen.quantize import quantize_matrix
from orthogen.transform import forward_2d


def _fixed_cell(value):
    # One cell as the fixed renderers must write it: 7 decimals, no negative zero
    text = f"{value:.7f}"
    return "0.0000000" if text == "-0.0000000" else text


def test_csv_round_trip():
    matrix = assemble_matrix([0.75, 0.25])
    text = io.matrix_to_csv(matrix.entries)
    parsed = io.parse_matrix_csv(text)
    np.testing.assert_allclose(parsed, matrix.entries, atol=5e-8)


def test_csv_rendering():
    matrix = assemble_matrix([1.0])
    assert io.matrix_to_csv(matrix.entries) == (
        "0.7071068,0.7071068\n-0.7071068,0.7071068\n"
    )


def test_pretty_rendering_aligns():
    matrix = assemble_matrix([1.0])
    assert io.matrix_to_pretty(matrix.entries) == (
        " 0.7071068  0.7071068\n-0.7071068  0.7071068\n"
    )


def test_negative_zero_scrubbed_in_first_middle_last_cell():
    entries = np.array([[-0.0, 1.0, -4e-8], [2.0, -1e-9, 3.0]])
    assert io.matrix_to_csv(entries) == (
        "0.0000000,1.0000000,0.0000000\n2.0000000,0.0000000,3.0000000\n"
    )
    assert io.matrix_to_pretty(entries) == (
        "0.0000000 1.0000000 0.0000000\n2.0000000 0.0000000 3.0000000\n"
    )


def test_negative_cells_beside_scrubbed_zero_keep_their_sign():
    entries = np.array([[-10.0, -1e-8, -0.05]])
    assert io.matrix_to_csv(entries) == "-10.0000000,0.0000000,-0.0500000\n"
    assert io.matrix_to_pretty(entries) == "-10.0000000   0.0000000  -0.0500000\n"


def test_pretty_alignment_mixed_signs():
    entries = np.array([[-123.5, 0.25], [7.0, -0.0]])
    assert io.matrix_to_pretty(entries) == (
        "-123.5000000    0.2500000\n   7.0000000    0.0000000\n"
    )
    assert io.int_matrix_to_pretty(np.array([[-100, 5], [12, -3]])) == (
        "-100    5\n  12   -3\n"
    )


def test_int_tables_from_float_arrays():
    entries = np.array([[64.0, -64.0], [83.0, -0.0]])
    assert io.int_matrix_to_csv(entries) == "64,-64\n83,0\n"
    assert io.int_matrix_to_pretty(entries) == " 64 -64\n 83   0\n"
    assert io.int_matrix_to_csv(entries.astype(np.int16)) == "64,-64\n83,0\n"


def _reference_table(cells, sep, align):
    width = max(len(c) for row in cells for c in row) if align else 0
    return "\n".join(sep.join(c.rjust(width) for c in row) for row in cells) + "\n"


# Finite tables of every magnitude: the whole double range, which from a
# 7-digit integer part on the fixed renderers format cell by cell; magnitude
# bands from 1e-9 to 1e6; the exact ties (2k+1)/256 * 10**j, whose 8th
# decimal is a 5 and which round half-even; multiples of 5e-8, whose product
# by 1e7 is often a half-integer though the double is not a tie; and signed
# zeros.
_float_tables = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, max_side=40),
    elements=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.builds(lambda x, j: x * 10.0**j, st.floats(-10.0, 10.0), st.integers(-9, 5)),
        st.builds(lambda k, j: (2 * k + 1) / 256 * 10.0**j, st.integers(-2**20, 2**20), st.integers(-7, 2)),
        st.builds(lambda k: k * 5e-8, st.integers(-2 * 10**13, 2 * 10**13)),
        st.sampled_from([0.0, -0.0]),
    ),
    # Most cells of a large table repeat one value, so it is drawn quickly.
    fill=st.floats(-1e6, 1e6),
)


def _dct_plane(bits=10):
    # The 8x8 DCT coefficients of a seeded 112x80 image, tile by tile
    image = np.random.default_rng(112).integers(0, 2**bits, (112, 80)).astype(float)
    tiles = image.reshape(14, 8, 10, 8).swapaxes(1, 2)
    coeffs = forward_2d(assemble_matrix(preset_values("dct", 8)).entries, tiles.reshape(-1, 8, 8))
    return coeffs.reshape(14, 10, 8, 8).swapaxes(1, 2).reshape(112, 80)


# Tables at the edges of the bulk path: a cell that is not finite, has 7 or
# more integer digits or rounds up to 7 (+-999999.99999995, whose product by
# 1e7 is a tie), which the fixed renderers format cell by cell, and cells of
# up to 6 integer digits (2e5, +-999999.9999999), which they render in bulk.
_EDGE_TABLES = [
    np.array([[1.5, cell], [-0.0, -2.25]])
    for cell in (
        np.inf, -np.inf, np.nan, 1e300, -1e300, 2e5, 2.0**40 / 1e7, -1234567.00000005,
        999999.9999999, -999999.9999999, 999999.99999995, -999999.99999995,
    )
]


@settings(max_examples=200, deadline=None)
@given(_float_tables)
def test_fixed_renderers_match_per_cell_format(entries):
    cells = [[_fixed_cell(v) for v in row] for row in entries]
    assert io.matrix_to_csv(entries) == _reference_table(cells, ",", align=False)
    assert io.matrix_to_pretty(entries) == _reference_table(cells, " ", align=True)


@pytest.mark.parametrize(
    "entries",
    [_dct_plane()]
    + [assemble_matrix(preset_values(p, 128)).entries for p in ("dct", "dtt", "prime")]
    + _EDGE_TABLES
    + [_dct_plane(16)],
)
def test_fixed_tables_match_per_cell_format_and_parse_back(entries):
    cells = [[_fixed_cell(v) for v in row] for row in entries]
    text = io.matrix_to_csv(entries)
    assert text == _reference_table(cells, ",", align=False)
    assert io.matrix_to_pretty(entries) == _reference_table(cells, " ", align=True)
    # inf and nan cells read back too
    np.testing.assert_array_equal(io.parse_matrix_csv(text), [[float(c) for c in row] for row in cells])


@pytest.mark.parametrize("entries", _EDGE_TABLES + [_dct_plane(16)])
def test_fixed_text_renders_in_bulk_every_table_of_at_most_6_integer_digits(entries):
    # 6 integer digits, the point and 7 decimals are 14 characters
    bulk = np.isfinite(entries).all() and max(len(f"{abs(v):.7f}") for v in entries.ravel()) <= 14
    assert (io._fixed_text(entries, ",") is not None) == bulk


@settings(max_examples=200, deadline=None)
@given(_float_tables.map(lambda a: np.trunc(np.clip(a, -1e12, 1e12))))
def test_int_renderers_match_per_cell_format(entries):
    cells = [[str(int(v)) for v in row] for row in entries]
    assert io.int_matrix_to_csv(entries) == _reference_table(cells, ",", align=False)
    assert io.int_matrix_to_pretty(entries) == _reference_table(cells, " ", align=True)


def test_json_round_trip_full_precision():
    matrix = assemble_matrix(preset_values("prime", 8))
    payload = json.loads(io.ortho_matrix_to_json(matrix))
    assert payload["n"] == 8
    np.testing.assert_array_equal(payload["values"], matrix.values)
    np.testing.assert_array_equal(np.array(payload["entries"]), matrix.entries)
    np.testing.assert_array_equal(payload["normScales"], matrix.norm_scales)


def test_int_matrix_json():
    im = quantize_matrix(assemble_matrix(preset_values("dtt", 4)), scale=128)
    payload = json.loads(io.int_matrix_to_json(im))
    assert payload["scale"] == 128.0
    assert payload["entries"][0] == [64, 64, 64, 64]


def test_c_header_plain():
    im = quantize_matrix(assemble_matrix([1.0]), scale=np.sqrt(2))
    text = io.int_matrix_to_c_header(im)
    assert text == (
        "static const int g_mat[2][2] =\n"
        "{\n"
        "  {  1,  1 },\n"
        "  { -1,  1 }\n"
        "};\n"
    )


def test_c_header_with_macro():
    im = quantize_matrix(assemble_matrix([1.0]), scale=np.sqrt(2))
    text = io.int_matrix_to_c_header(im, var_name="g_tiny", macro_name="DEFINE_TINY_MATRIX")
    assert text.startswith("#define DEFINE_TINY_MATRIX \\\n")
    assert "static const int g_tiny[2][2] = DEFINE_TINY_MATRIX;" in text


def test_parse_matrix_errors():
    with pytest.raises(ValueError):
        io.parse_matrix_csv("")
    with pytest.raises(ValueError):
        io.parse_matrix_csv("1,2\n3\n")
    with pytest.raises(ValueError):
        io.parse_matrix_csv("1,x\n")
    with pytest.raises(ValueError):
        io.parse_matrix_json('{"rows": []}')


@pytest.mark.parametrize(
    "text",
    [
        "1.5,-2\n3,4e-1\n",
        "\n1.5,-2\n\n\n3,4e-1\n\n",
        "1.5,-2\r\n3,4e-1\r\n",
        "  1.5 , -2\t\n 3,  4e-1  \n",
    ],
)
def test_parse_blank_lines_crlf_and_spaces(text):
    parsed = io.parse_matrix_csv(text)
    np.testing.assert_array_equal(parsed, [[1.5, -2.0], [3.0, 0.4]])
    assert parsed.dtype == np.float64


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty matrix file"),
        (" \n\r\n\t\n", "empty matrix file"),
        ("1,2\n3\n", "ragged rows in matrix file"),
        ("1,2\n3,4,5\n", "ragged rows in matrix file"),
        ("1,x\n", "could not parse CSV row '1,x'"),
        ("1,2\n 3,,4 \n", "could not parse CSV row '3,,4'"),
        # A bad cell is reported even when the rows are also ragged.
        ("1,2\n3\nx\n", "could not parse CSV row 'x'"),
        ("1,2,3\ny,4\n", "could not parse CSV row 'y,4'"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(ValueError) as info:
        io.parse_matrix_csv(text)
    assert str(info.value) == message


def test_read_matrix_sniffing(tmp_path):
    matrix = assemble_matrix([0.75, 0.25])
    csv_path = tmp_path / "m.csv"
    csv_path.write_text(io.matrix_to_csv(matrix.entries))
    json_path = tmp_path / "m.json"
    json_path.write_text(io.ortho_matrix_to_json(matrix))
    np.testing.assert_allclose(io.read_matrix(str(csv_path)), matrix.entries, atol=5e-8)
    np.testing.assert_array_equal(io.read_matrix(str(json_path)), matrix.entries)


@pytest.mark.parametrize("binary", [True, False])
@pytest.mark.parametrize("maxval", [255, 1023])
def test_pgm_round_trip(tmp_path, binary, maxval):
    rng = np.random.default_rng(41)
    samples = rng.integers(0, maxval + 1, (8, 8))
    path = tmp_path / "block.pgm"
    io.write_pgm(str(path), samples, maxval=maxval, binary=binary)
    np.testing.assert_array_equal(io.read_block(str(path)), samples)


@pytest.mark.parametrize(
    "maxval, samples, message",
    [(70000, [[0, 65536]], "maxval must be an integer in 1..65535, got 70000"),
     (0, [[0, 0]], "maxval must be an integer in 1..65535, got 0"),
     (255.0, [[0, 1]], "maxval must be an integer in 1..65535, got 255.0"),
     (True, [[0, 1]], "maxval must be an integer in 1..65535, got True"),
     (255, [[0, 1.7]], "samples must be finite integers"),
     (255, [[0, np.nan]], "samples must be finite integers"),
     (255, [[0, np.inf]], "samples must be finite integers")],
    ids=["maxval-above-16-bits", "maxval-zero", "maxval-float", "maxval-bool", "fraction", "nan", "inf"],
)
@pytest.mark.parametrize("binary", [True, False])
def test_write_pgm_refuses_what_read_block_refuses(tmp_path, binary, maxval, samples, message):
    # Each used to be written: 70000 wrapped the samples to 16 bits and 0 made
    # a header the reader refuses; True wrote maxval 1; 1.7 read back as 1 and NaN as 0
    path = tmp_path / "block.pgm"
    with pytest.raises(ValueError, match=f"^PGM {re.escape(message)}$"):
        io.write_pgm(str(path), np.array(samples), maxval=maxval, binary=binary)
    assert not path.exists()


def test_pgm_with_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P2\n# a comment\n2 2\n255\n0 1\n2 3\n")
    np.testing.assert_array_equal(io.read_block(str(path)), [[0, 1], [2, 3]])


# Comments touching width, height and maxval, as Netpbm allows them
_COMMENTED_HEADERS = [
    "{magic}\n{w}#w\n{h}#h\n{m}#m\n",
    "{magic}#c\n{w}#w\n {h}\t#h\n{m}#m\n#more\r\n",
    "{magic} {w}#w\n#c\n{h} {m}#m\n",
]


@pytest.mark.parametrize("header", _COMMENTED_HEADERS, ids=["touching", "comment-lines", "one-line"])
@pytest.mark.parametrize("maxval", [255, 1023])
@pytest.mark.parametrize("binary", [False, True])
def test_pgm_comments_end_header_tokens(tmp_path, binary, maxval, header):
    # "#" ends a header token, and a comment touching maxval belongs to the
    # header: the one whitespace byte before a P5 raster follows it
    samples = np.random.default_rng(43).integers(0, maxval + 1, (3, 2))
    path = tmp_path / "spaced.pgm"
    io.write_pgm(str(path), samples, maxval=maxval, binary=binary)
    spaced = path.read_bytes()
    magic = "P5" if binary else "P2"
    plain = f"{magic}\n2 3\n{maxval}\n".encode()
    assert spaced.startswith(plain)
    commented = header.format(magic=magic, w=2, h=3, m=maxval).encode() + b"\n" + spaced[len(plain):]
    path.write_bytes(commented)
    np.testing.assert_array_equal(io.read_block(str(path)), samples)


def test_pgm_errors(tmp_path):
    bad_magic = tmp_path / "bad.pgm"
    bad_magic.write_bytes(b"P7\n2 2\n255\n....")
    with pytest.raises(ValueError):
        io.read_block(str(bad_magic))
    truncated = tmp_path / "short.pgm"
    truncated.write_bytes(b"P5\n4 4\n255\nab")
    with pytest.raises(ValueError, match="^truncated PGM payload$"):
        io.read_block(str(truncated))
    truncated.write_bytes(b"P5\n4 4\n1023\n" + bytes(31))
    with pytest.raises(ValueError, match="^truncated PGM payload$"):
        io.read_block(str(truncated))


@pytest.mark.parametrize("magic", [b"P2", b"P5"])
@pytest.mark.parametrize(
    "size, message",
    [(b"-2 -2", "width must be a positive integer, got '-2'"),
     (b"0 4", "width must be a positive integer, got '0'"),
     (b"4 0", "height must be a positive integer, got '0'"),
     (b"2 2.5", "height must be a positive integer, got '2.5'")],
    ids=["negative", "zero-width", "zero-height", "fraction"],
)
def test_pgm_refuses_a_size_that_is_not_a_positive_integer(tmp_path, magic, size, message):
    # -2 -2 used to reach NumPy's reshape error; a zero size read as an empty block
    path = tmp_path / "size.pgm"
    path.write_bytes(magic + b"\n" + size + b"\n255\n0 0 0 0\n")
    with pytest.raises(ValueError, match=f"^PGM {re.escape(message)}$"):
        io.read_block(str(path))


def test_read_block_csv(tmp_path):
    path = tmp_path / "block.csv"
    path.write_text("1.5,2.5\n-3.0,4.0\n")
    np.testing.assert_array_equal(io.read_block(str(path)), [[1.5, 2.5], [-3.0, 4.0]])


@pytest.mark.parametrize(
    "text, message",
    [
        ("1_0,2\n", "could not parse CSV row '1_0,2'"),
        ("\uff11\uff12\n", "could not parse CSV row '\uff11\uff12'"),
        ("1,\u0661\n", "could not parse CSV row '1,\u0661'"),
    ],
    ids=["underscore", "fullwidth", "arabic-indic"],
)
def test_csv_cells_are_what_the_c_reader_reads(tmp_path, text, message):
    # Python's float() read these as 10, 12 and 1
    path = tmp_path / "m.csv"
    path.write_text(text, encoding="utf-8")
    for parse in (io.read_matrix, io.read_block):
        with pytest.raises(ValueError) as info:
            parse(str(path))
        assert str(info.value) == message


def test_csv_takes_unit_separator_padding_as_the_c_reader_does():
    np.testing.assert_array_equal(io.parse_matrix_csv("1\x1f,2\n"), [[1.0, 2.0]])


_ENTRIES_NOT_NUMBERS = "matrix JSON 'entries' must be a list of rows of numbers"


@pytest.mark.parametrize(
    "entries, message",
    [
        ("[[true, false], [false, true]]", _ENTRIES_NOT_NUMBERS),
        ('[["1", "0"], ["0", "1"]]', _ENTRIES_NOT_NUMBERS),
        ("[[NaN, 0], [0, 1]]", _ENTRIES_NOT_NUMBERS),
        ("[[1, -Infinity], [0, 1]]", _ENTRIES_NOT_NUMBERS),
        ("[1, 0]", _ENTRIES_NOT_NUMBERS),
        ("[[[1]]]", _ENTRIES_NOT_NUMBERS),
        ("[[1, 0], [0]]", "ragged rows in matrix JSON 'entries'"),
    ],
    ids=["booleans", "strings", "nan", "infinity", "flat", "nested", "ragged"],
)
def test_json_entries_are_rows_of_json_numbers(entries, message):
    with pytest.raises(ValueError) as info:
        io.parse_matrix_json('{"entries": %s}' % entries)
    assert str(info.value) == message


def test_json_integers_beyond_the_double_range_read_as_infinity():
    # as 1e400 does; NumPy's int-to-float cast raised OverflowError
    parsed = io.parse_matrix_json('{"entries": [[1%s, 1e400, -7]]}' % ("0" * 400))
    np.testing.assert_array_equal(parsed, [[np.inf, np.inf, -7.0]])


@pytest.mark.parametrize(
    "pgm, message",
    [
        (b"P2\n2 2\n255\n-5 1 2 3\n", "PGM P2 samples must be unsigned decimal integers, got b'-'"),
        (b"P2\n2 2\n255\n2.5 1 2 3\n", "PGM P2 samples must be unsigned decimal integers, got b'.'"),
        (b"P2\n2 2\n255\n1e2 1 2 3\n", "PGM P2 samples must be unsigned decimal integers, got b'e'"),
        (b"P2\n2 2\n255\nnan 1 2 3\n", "PGM P2 samples must be unsigned decimal integers, got b'n'"),
        (b"P2\n2 2\n255\n0 1 2 3 # c\n", "PGM P2 samples must be unsigned decimal integers, got b'#'"),
        (b"P2\n2 2\n1023\n4000 1 2 3\n", "PGM sample 4000 is above maxval 1023"),
        (b"P5\n2 2\n1023\n" + np.array([1, 4000, 2, 3], ">u2").tobytes(), "PGM sample 4000 is above maxval 1023"),
        (b"P5\n2 2\n200\n\x00\x01\xc9\x03", "PGM sample 201 is above maxval 200"),
        (b"P2\n2 2\n2.5\n1 2 3 4\n", "PGM maxval must be a positive integer, got '2.5'"),
        (b"P5\n2 2\n0\n\x00\x00\x00\x00", "PGM maxval must be a positive integer, got '0'"),
        (b"P2\n2 2\n-1\n1 2 3 4\n", "PGM maxval must be a positive integer, got '-1'"),
        (b"P2\n2 2\n65536\n1 2 3 4\n", "unsupported PGM maxval 65536"),
        (b"P2\n2 2\n255\n \n\t\n", "truncated PGM payload"),
    ],
    ids=["negative", "fraction", "exponent", "nan", "comment", "p2-above-maxval",
         "p5-16-bit-above-maxval", "p5-8-bit-above-maxval", "maxval-fraction", "maxval-zero",
         "maxval-negative", "maxval-too-large", "blank-payload"],
)
def test_pgm_refuses_what_netpbm_does_not_define(tmp_path, pgm, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(pgm)
    with pytest.raises(ValueError) as info:
        io.read_block(str(path))
    assert str(info.value) == message


def test_p2_sample_past_int64_is_refused(tmp_path):
    path = tmp_path / "big.pgm"
    path.write_bytes(b"P2\n2 2\n255\n1 2 3 99999999999999999999\n")
    with pytest.raises(ValueError, match=r"^PGM sample \d+ is above maxval 255$"):
        io.read_block(str(path))


_PADS = st.sampled_from(["", " ", "\t", "  "])


@settings(max_examples=200, deadline=None)
@given(_float_tables, st.data())
def test_csv_tables_read_back(entries, data):
    # What matrix_to_csv writes reads back as its cells' values, and repr
    # cells read back bit for bit, under padding, blank lines and any line ending.
    for text, expected in (
        (io.matrix_to_csv(entries), [[float(_fixed_cell(v)) for v in row] for row in entries]),
        ("\n".join(",".join(map(repr, row.tolist())) for row in entries), entries),
    ):
        # Up to 8 drawn pads, cycled over the cells, keep a 40x40 table quick to draw.
        pads = itertools.cycle(data.draw(st.lists(_PADS, min_size=1, max_size=8)))
        lines = []
        for line in text.splitlines():
            lines.append(",".join(next(pads) + c + next(pads) for c in line.split(",")))
            lines += [next(pads)] * data.draw(st.integers(0, 1))
        text = data.draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)
        parsed = io.parse_matrix_csv(text)
        assert parsed.dtype == np.float64
        assert parsed.tobytes() == np.asarray(expected, dtype=float).tobytes()


@st.composite
def _p2_images(draw):
    maxval = draw(st.sampled_from([255, 1023]))
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    samples = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, maxval)))
    separators = st.sampled_from([" ", "\n", "\t", "\r\n", "  ", " \n ", "\n\n", "\x0b", "\x0c"])
    header = draw(st.sampled_from(["P2 {w} {h} {m}", "P2\n# comment\n{w} {h}\n{m}", "P2\n{w}\n# w h\n{h} {m}"]))
    payload = "".join(draw(separators) + str(v) for v in samples.ravel())
    text = header.format(w=shape[1], h=shape[0], m=maxval) + payload + draw(st.sampled_from(["", "\n", " \n"]))
    return samples, text.encode("ascii")


@settings(max_examples=200, deadline=None)
@given(_p2_images())
def test_p2_images_read_back_in_any_layout(tmp_path_factory, image):
    samples, pgm = image
    path = tmp_path_factory.getbasetemp() / "layout.pgm"
    path.write_bytes(pgm)
    block = io.read_block(str(path))
    assert block.dtype == np.float64
    np.testing.assert_array_equal(block, samples)
