import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from orthogen import io
from orthogen.core import assemble_matrix
from orthogen.presets import preset_values
from orthogen.quantize import quantize_matrix


def test_format_fixed_scrubs_negative_zero():
    assert io.format_fixed(-1e-12) == "0.0000000"
    assert io.format_fixed(0.0) == "0.0000000"
    assert io.format_fixed(-0.5) == "-0.5000000"


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


_float_tables = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(_float_tables)
def test_fixed_renderers_match_per_cell_format(entries):
    cells = [[io.format_fixed(v) for v in row] for row in entries]
    assert io.matrix_to_csv(entries) == _reference_table(cells, ",", align=False)
    assert io.matrix_to_pretty(entries) == _reference_table(cells, " ", align=True)


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


def test_pgm_with_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P2\n# a comment\n2 2\n255\n0 1\n2 3\n")
    np.testing.assert_array_equal(io.read_block(str(path)), [[0, 1], [2, 3]])


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


# The token parsers the C-reader paths must agree with, kept as they were:
# NumPy's string cast on every comma-separated cell or whitespace-separated
# P2 token, and the errors that name the fault.
def _reference_parse_matrix_csv(text):
    lines = [line for line in map(str.strip, text.splitlines()) if line]
    if not lines:
        raise ValueError("empty matrix file")
    rows = [line.split(",") for line in lines]
    try:
        return np.array(rows, dtype=float)
    except ValueError:
        for line, row in zip(lines, rows):
            try:
                list(map(float, row))
            except ValueError as exc:
                raise ValueError(f"could not parse CSV row {line!r}") from exc
        raise ValueError("ragged rows in matrix file") from None


def _reference_p2(payload, width, height):
    for name, size in (("width", width), ("height", height)):
        if size < 1:
            raise ValueError(f"PGM {name} must be a positive integer, got '{size}'")
    samples = np.array(payload.split()[: width * height], dtype=float)
    if samples.size != width * height:
        raise ValueError("truncated PGM payload")
    return samples.reshape(height, width)


def _outcome(parse, *args):
    """The array's shape, dtype and bytes, or the error's type and message;
    a warning counts as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = parse(*args)
        except Exception as exc:
            return type(exc), str(exc)
    return result.shape, result.dtype, result.tobytes()


_NUMBERS = st.one_of(
    st.integers(0, 1023).map(str),
    st.floats().map(repr),
    st.sampled_from(["inf", "-Infinity", "nan", "-nan", "NaN", "1e309", "-1e309", "1e-400", "-0", "+.5", "007"]),
)
_ODD_CELLS = st.one_of(
    _NUMBERS,
    st.sampled_from(["", " ", "#", "#1", "1_0", "\uff11\uff12", "0x10", "1-2", "1e", "\x1f1", "1\xa0", "1 2"]),
    st.text("0123456789.-+eE_#, \t\x1f\uff15", max_size=5),
)
_PADS = st.sampled_from(["", " ", "\t", "  "])


@st.composite
def _csv_texts(draw):
    cells = _NUMBERS if draw(st.booleans()) else _ODD_CELLS
    width = draw(st.integers(1, 4))
    ragged = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        row = draw(st.lists(cells, min_size=1 if ragged else width, max_size=5 if ragged else width))
        lines.append(",".join(draw(_PADS) + cell + draw(_PADS) for cell in row))
        if draw(st.integers(0, 9)) == 0:
            lines[-1] += ","
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(_PADS))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


@st.composite
def _p2_files(draw):
    width, height = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    tokens = st.integers(0, 1023).map(str) if draw(st.booleans()) else _ODD_CELLS
    count = max(0, width * height + draw(st.integers(-2, 2)))
    separators = st.sampled_from([" ", "\n", "\t", "\r\n", "  ", " \n ", "\n\n"])
    payload = "".join(draw(separators) + draw(tokens) for _ in range(count))
    payload = (payload + draw(st.sampled_from(["", "\n", " \n"]))).encode("utf-8")
    return width, height, payload


@settings(max_examples=300, deadline=None)
@given(_csv_texts())
@example("1\x1f,2\n")
@example("1,\x1f2\r\n3,4")
def test_csv_parsers_match_the_token_parser(tmp_path_factory, text):
    expected = _outcome(_reference_parse_matrix_csv, text)
    assert _outcome(io.parse_matrix_csv, text) == expected
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(io.read_block, str(path)) == expected


@settings(max_examples=300, deadline=None)
@given(_p2_files())
def test_p2_reader_matches_the_token_parser(tmp_path_factory, p2):
    width, height, payload = p2
    path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
    path.write_bytes(b"P2\n%d %d\n1023" % (width, height) + payload)
    assert _outcome(io.read_block, str(path)) == _outcome(_reference_p2, payload, width, height)
