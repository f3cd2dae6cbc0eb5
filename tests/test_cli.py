import errno
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orthogen
from oracles import exact_matrix
from orthogen import cli, core, io
from orthogen.cli import main, verify_matrix
from orthogen.core import assemble_matrix
from orthogen.presets import preset_values
from reference_matrices import DCT_8, DCT_8_INT, DTT_4, DTT_4_INT_128, DTT_8_INT

DCT8_C_HEADER = """\
#define DEFINE_DCT2_P8_MATRIX \\
{ \\
  {  64,  64,  64,  64,  64,  64,  64,  64 }, \\
  { -89, -75, -50, -18,  18,  50,  75,  89 }, \\
  {  84,  35, -35, -84, -84, -35,  35,  84 }, \\
  { -75,  18,  89,  50, -50, -89, -18,  75 }, \\
  {  64, -64, -64,  64,  64, -64, -64,  64 }, \\
  { -50,  89, -18, -75,  75,  18, -89,  50 }, \\
  {  35, -84,  84, -35, -35,  84, -84,  35 }, \\
  { -18,  50, -75,  89, -89,  75, -50,  18 } \\
}

static const int g_dct2_p8[8][8] = DEFINE_DCT2_P8_MATRIX;
"""


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_generate_single_value_csv(capsys):
    status, out, _ = run(capsys, "generate", "--values", "1", "--format", "csv")
    assert status == 0
    assert out == "0.7071068,0.7071068\n-0.7071068,0.7071068\n"


def test_generate_dct_pretty_matches_reference(capsys):
    status, out, _ = run(capsys, "generate", "--preset", "dct", "--size", "8")
    assert status == 0
    parsed = np.array([[float(c) for c in line.split()] for line in out.splitlines()])
    np.testing.assert_allclose(parsed, DCT_8, atol=5e-7)


def test_generate_csv_matches_reference_digits(capsys):
    # computed entries sit well inside the 7-decimal rounding grid, so the
    # fixed-decimal rendering must agree with the published digits exactly
    status, out, _ = run(capsys, "generate", "--preset", "dct", "--size", "8", "--format", "csv")
    assert status == 0
    assert out == io.matrix_to_csv(np.array(DCT_8))


def test_generate_json_payload(capsys):
    status, out, _ = run(capsys, "generate", "--preset", "dtt", "--size", "4", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["n"] == 4
    np.testing.assert_array_equal(payload["values"], [0.75, 0.25])
    np.testing.assert_allclose(np.array(payload["entries"]), DTT_4, atol=5e-7)
    assert len(payload["normScales"]) == 4


def test_generate_deterministic_bytes(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        status, _, _ = run(
            capsys, "generate", "--preset", "prime", "--size", "16", "--format", "csv", "--out", str(path)
        )
        assert status == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_generate_duplicate_values_exit_2(capsys):
    status, _, err = run(capsys, "generate", "--values", "1,1,2")
    assert status == 2
    assert "duplicate value 1" in err


@pytest.mark.parametrize("values, named", [("0.1234567,0.12345671,0.1234567", "0.1234567"),
                                           ("1.0000001,2,1.0000001", "1.0000001")])
def test_duplicate_values_are_named_as_given(capsys, values, named):
    status, out, err = run(capsys, "generate", "--values", values)
    assert (status, out, err) == (2, "", f"error: duplicate value {named}\n")


def test_generate_non_positive_exit_2(capsys):
    status, _, err = run(capsys, "generate", "--values", "2,-3")
    assert status == 2
    assert "non-positive value -3" in err


def test_generate_preset_needs_size(capsys):
    status, _, err = run(capsys, "generate", "--preset", "dct")
    assert status == 2
    assert "--size" in err


def test_generate_bad_flag_exit_2(capsys):
    assert main(["generate", "--values", "1", "--format", "yaml"]) == 2
    capsys.readouterr()


def test_generate_singular_exit_3(capsys):
    # four distinct values packed within 3e-13: the induction system
    # degenerates numerically
    status, _, err = run(
        capsys, "generate", "--values",
        "1,1.0000000000001,1.0000000000002,1.0000000000003",
    )
    assert status == 3
    assert "pivot" in err


def test_warnings_follow_the_numeric_error_line(capsys):
    # The near-duplicate warnings explain the singular system; they come after
    # the error line, which stays the first line of stderr.
    status, out, err = run(
        capsys, "generate", "--values", "1,1.0000000000001,1.0000000000002,1.0000000000003"
    )
    lines = err.splitlines()
    assert status == 3 and out == ""
    assert lines[0].startswith("error:")
    assert len(lines) == 4
    assert all(line.startswith("warning:") and "relative gap" in line for line in lines[1:])


def test_warnings_follow_the_bad_input_error_line(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    status, out, err = run(
        capsys, "transform", "--values", "1,1.000000001,2", "--block", str(missing)
    )
    lines = err.splitlines()
    assert status == 2 and out == ""
    assert lines[0].startswith("error:") and "missing.csv" in lines[0]
    assert len(lines) == 2 and "relative gap" in lines[1]


def test_norm_scales_of_large_values_do_not_overflow(capsys):
    values = np.arange(1, 17) * 1e10
    status, out, err = run(
        capsys, "generate", "--values", ",".join(f"{v:g}" for v in values), "--format", "json"
    )
    assert status == 0
    assert err == ""
    scales = np.array(json.loads(out)["normScales"])
    # The former c / unit**g, with c the scales of the same values in units
    # of their largest: keep the rows where it neither overflowed nor vanished.
    unit = values.max()
    with np.errstate(over="ignore"):
        old = assemble_matrix(values / unit).norm_scales / unit ** np.arange(32.0)
    kept = np.isfinite(old) & (old != 0.0)
    assert kept.sum() == 28
    np.testing.assert_allclose(scales[kept], old[kept], rtol=1e-12)
    # Rows 28 and 29 are new; the last two fall below the double range.
    assert (scales[:30] > 0.0).all() and (scales[30:] == 0.0).all()


def test_norm_scales_beyond_the_double_range_are_json_null(capsys):
    values = ",".join(f"{k}e-12" for k in range(1, 17))
    status, out, err = run(capsys, "generate", "--values", values, "--format", "json")
    assert status == 0
    assert "warning:" not in err

    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    scales = json.loads(out, parse_constant=refuse)["normScales"]
    assert scales[28:] == [None] * 4
    assert all(isinstance(c, float) and c > 0.0 for c in scales[:28])


UNDERFLOWING = (
    "2.450484912167885e-84,4.8401458732187e-24,1.8178375660884261e+161,"
    "8.312703602746839e+189,7.677432889724853e+281,5.794813270203256e+287"
)


def test_generate_rows_that_underflow_exit_3(capsys):
    # The squares of rows 6 and 7 underflow and rows 8 and up cannot be
    # built; the guard refuses their NaN and names row 6
    status, out, err = run(capsys, "generate", "--values", UNDERFLOWING)
    assert status == 3 and out == ""
    assert err.startswith("error: estimated entry error ") and len(err.splitlines()) == 1
    assert err.rstrip().endswith("cannot normalize row 6: its sum of squares is 0")


def run_module(*argv, stdout=subprocess.PIPE, **kwargs):
    """``python -m orthogen.cli`` in a fresh process without PYTHONUNBUFFERED,
    so its stdout is block-buffered as in a plain shell."""
    env = dict(os.environ, PYTHONPATH=str(Path(orthogen.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "orthogen.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=60, **kwargs)


def test_module_entry_matches_in_process_main(capsys):
    argv = ["generate", "--preset", "dct", "--size", "8"]
    status, out, _ = run(capsys, *argv)
    proc = run_module(*argv)
    assert proc.returncode == status == 0
    assert proc.stdout == out.encode("utf-8")
    assert proc.stderr == b""


# run() flushes and ends the process itself: an output larger than the pipe
# and stdio buffers (dct n=128 CSV is about 170 KB), one written through
# --out, and the exits for invalid input and for a numeric failure.
@pytest.mark.parametrize(
    "argv, code",
    [
        (["generate", "--preset", "dct", "--size", "128", "--format", "csv"], 0),
        (["quantize", "--preset", "dtt", "--size", "8", "--format", "c-header", "--out", "{out}"], 0),
        (["generate", "--preset", "dct", "--size", "7"], 2),
        (["generate", "--values", UNDERFLOWING], 3),
    ],
)
def test_module_entry_exits_as_main_returns(tmp_path, capsys, argv, code):
    status, out, err = run(capsys, *(a.format(out=tmp_path / "main.h") for a in argv))
    proc = run_module(*(a.format(out=tmp_path / "module.h") for a in argv))
    assert proc.returncode == status == code
    assert proc.stdout == out.encode("utf-8")
    assert proc.stderr == err.encode("utf-8")
    assert (code == 0) == (err == "")
    if "--out" in argv:
        assert (tmp_path / "module.h").read_bytes() == (tmp_path / "main.h").read_bytes() != b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_module_entry_exits_2_when_stdout_cannot_be_flushed():
    # The CSV fits stdout's buffer, so the only write to fail is run()'s flush.
    with open("/dev/full", "wb") as full:
        proc = run_module("generate", "--preset", "dct", "--size", "2", "--format", "csv", stdout=full)
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines() == [f"error: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}"]


def test_module_entry_runs_with_stdout_closed(tmp_path):
    # Python then sets sys.stdout to None, and print() writes nothing.
    path = tmp_path / "dtt4.csv"
    assert main(["generate", "--preset", "dtt", "--size", "4", "--format", "csv", "--out", str(path)]) == 0
    proc = run_module("verify", str(path), "--tolerance", "5e-7", stdout=None, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_cli_import_loads_neither_dataclasses_nor_json():
    env = dict(os.environ, PYTHONPATH=str(Path(orthogen.__file__).parents[1]))
    code = "import sys; before = set(sys.modules); import orthogen.cli; print(*set(sys.modules) - before)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    loaded = proc.stdout.split()
    assert "orthogen.cli" in loaded
    # nor fractions or decimal, which exact text rendering could pull in
    assert not {"dataclasses", "json", "fractions", "decimal"} & set(loaded)


def test_main_leaves_the_gc_freeze_count_unchanged(capsys):
    before = gc.get_freeze_count()
    assert run(capsys, "generate", "--preset", "dct", "--size", "8")[0] == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("preset, size", [("fibonacci", 128)])
def test_generate_inaccurate_matrix_exit_3(capsys, preset, size):
    # fibonacci n=128's moment systems fail the pivot test; refused sets
    # exit 3 with nothing on stdout, never NaN
    status, out, err = run(capsys, "generate", "--preset", preset, "--size", str(size), "--format", "csv")
    assert status == 3
    assert out == ""
    assert "nan" not in err.lower()
    assert err.startswith("error:")


@pytest.mark.parametrize("values, row", [("1e-200,1e-100,1", 4), ("1e-300,1", 3), ("5e-324,1", 3)])
def test_generate_underflowing_row_exit_3(capsys, values, row):
    # Values spanning about 1e200 leave rows whose squares underflow to zero,
    # the first of them row `row`; such a row cannot be scaled to unit
    # length, and the guard refuses the set, naming that row
    energy = core._canonical([float(v) for v in values.split(",")])[5]
    assert np.flatnonzero(energy == 0.0)[0] == row
    status, out, err = run(capsys, "generate", "--values", values)
    assert status == 3
    assert out == ""
    assert err.startswith("error: estimated entry error ") and len(err.splitlines()) == 1
    assert err.rstrip().endswith(f"; cannot normalize row {row}: its sum of squares is 0")


@pytest.mark.parametrize("preset, size", [("fibonacci", 32), ("prime", 64)])
def test_generate_matches_the_exact_oracle(capsys, preset, size):
    # JSON carries full precision, so the printed matrix can be held to the
    # exact oracle
    status, out, err = run(capsys, "generate", "--preset", preset, "--size", str(size), "--format", "json")
    assert status == 0
    assert err == ""
    entries = np.array(json.loads(out)["entries"])
    reference = exact_matrix(preset_values(preset, size))
    assert np.abs(entries - reference).max() <= 1e-12


@pytest.mark.parametrize("size", [32, 34])
def test_generate_dct_beyond_16_passes_the_guard(capsys, size):
    # m = 17 at n = 34 drew the former soft-cap warning; sizes are now
    # judged only by the fidelity check, which these pass
    status, out, err = run(capsys, "generate", "--preset", "dct", "--size", str(size), "--format", "csv")
    assert status == 0
    assert len(out.splitlines()) == size
    assert err == ""


def test_soft_cap_warning_and_override(capsys, monkeypatch):
    # The former soft cap warned at m = 17 unless ORTHOGEN_MAX_M raised it;
    # the warning is gone and the variable no longer changes the output
    status, out, err = run(capsys, "generate", "--preset", "dct", "--size", "34", "--format", "csv")
    assert status == 0
    assert err == ""
    monkeypatch.setenv("ORTHOGEN_MAX_M", "4")
    status, capped, err = run(capsys, "generate", "--preset", "dct", "--size", "34", "--format", "csv")
    assert status == 0
    assert err == ""
    assert capped == out


def test_generate_near_duplicate_warning(capsys):
    status, out, err = run(capsys, "generate", "--values", "1,1.000000001,2", "--format", "csv")
    assert status == 0
    assert "warning:" in err and "relative gap" in err
    assert "warning" not in out


def test_verify_identity_passes(tmp_path, capsys):
    path = tmp_path / "id.csv"
    path.write_text(io.matrix_to_csv(np.eye(4)))
    status, out, _ = run(capsys, "verify", str(path))
    assert status == 0
    assert "PASS" in out
    assert "orthogonality residual: 0.000000e+00" in out


def test_verify_reference_table_passes_at_table_precision(tmp_path, capsys):
    path = tmp_path / "dct.csv"
    path.write_text(io.matrix_to_csv(np.array(DCT_8)))
    status, out, _ = run(capsys, "verify", str(path), "--tolerance", "5e-7")
    assert status == 0
    assert "mirrored parity layout: yes" in out


def test_verify_reference_table_fails_at_default_tolerance(tmp_path, capsys):
    path = tmp_path / "dct.csv"
    path.write_text(io.matrix_to_csv(np.array(DCT_8)))
    status, out, _ = run(capsys, "verify", str(path))
    assert status == 1
    assert "FAIL" in out
    assert "worst rows" in out


def test_verify_integer_table_fails(tmp_path, capsys):
    path = tmp_path / "int.csv"
    path.write_text(io.int_matrix_to_csv(np.array(DCT_8_INT)))
    status, out, _ = run(capsys, "verify", str(path))
    assert status == 1


def test_verify_parse_failure_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3\n")
    status, _, err = run(capsys, "verify", str(path))
    assert status == 2
    assert "error:" in err
    missing = tmp_path / "missing.csv"
    status, _, _ = run(capsys, "verify", str(missing))
    assert status == 2


def test_verify_non_square_exit_2(tmp_path, capsys):
    path = tmp_path / "rect.csv"
    path.write_text("1,0,0\n0,1,0\n")
    status, _, _ = run(capsys, "verify", str(path))
    assert status == 2


@pytest.mark.parametrize("payload", ['{"entries": {"a": 1}}', '{"entries": [[{}]]}'])
def test_json_entries_that_are_objects_exit_2(tmp_path, capsys, payload):
    # NumPy's TypeError used to escape as a traceback and exit 1, the code of
    # a failed check
    path = tmp_path / "m.json"
    path.write_text(payload)
    block = tmp_path / "b.csv"
    _write_block_csv(block, np.ones((2, 2)))
    for argv in (["verify", str(path)], ["transform", "--matrix", str(path), "--block", str(block)]):
        status, out, err = run(capsys, *argv)
        assert status == 2
        assert out == ""
        assert err == "error: matrix JSON 'entries' must be a list of rows of numbers\n"


@pytest.mark.parametrize(
    "name, payload, message",
    [("m.json", '{"entries": []}', "expected a square matrix, got shape (0,)"),
     ("m.csv", "1,0,0\n0,1,0\n", "expected a square matrix, got shape (2, 3)")],
    ids=["empty-json", "two-by-three-csv"],
)
def test_transform_matrix_file_that_is_not_square_exit_2(tmp_path, capsys, name, payload, message):
    path = tmp_path / name
    path.write_text(payload)
    block = tmp_path / "b.csv"
    _write_block_csv(block, np.ones((2, 2)))
    status, out, err = run(capsys, "transform", "--matrix", str(path), "--block", str(block))
    assert (status, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "name, payload, message",
    [
        ("m.json", '{"entries": [[true, false], [false, true]]}',
         "matrix JSON 'entries' must be a list of rows of numbers"),
        ("m.json", '{"entries": [["1", "0"], ["0", "1"]]}',
         "matrix JSON 'entries' must be a list of rows of numbers"),
        ("m.json", '{"entries": [[NaN, 0], [0, 1]]}',
         "matrix JSON 'entries' must be a list of rows of numbers"),
        ("m.json", '{"entries": [[1, 0], [0]]}', "ragged rows in matrix JSON 'entries'"),
        ("m.csv", "1_0,0\n0,1\n", "could not parse CSV row '1_0,0'"),
        ("m.csv", "\uff11,0\n0,1\n", "could not parse CSV row '\uff11,0'"),
        ("m.csv", "1,0\n0,\u0661\n", "could not parse CSV row '0,\u0661'"),
    ],
    ids=["json-booleans", "json-strings", "json-nan", "json-ragged", "csv-underscore",
         "csv-fullwidth", "csv-arabic-indic"],
)
def test_verify_refuses_what_csv_and_json_do_not_define(tmp_path, capsys, name, payload, message):
    # each of these but the ragged rows used to print PASS and exit 0
    path = tmp_path / name
    path.write_text(payload, encoding="utf-8")
    assert run(capsys, "verify", str(path)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "pgm, message",
    [
        (b"P2\n2 2\n255\n-5 1 2 3\n", "PGM P2 samples must be unsigned decimal integers, got b'-'"),
        (b"P2\n2 2\n255\n2.5 1 2 3\n", "PGM P2 samples must be unsigned decimal integers, got b'.'"),
        (b"P2\n2 2\n255\n1e2 1 2 3\n", "PGM P2 samples must be unsigned decimal integers, got b'e'"),
        (b"P2\n2 2\n255\nnan 1 2 3\n", "PGM P2 samples must be unsigned decimal integers, got b'n'"),
        (b"P2\n2 2\n1023\n0 4000 2 3\n", "PGM sample 4000 is above maxval 1023"),
        (b"P5\n2 2\n1023\n" + bytes([0, 0, 15, 160, 0, 2, 0, 3]), "PGM sample 4000 is above maxval 1023"),
        (b"P2\n2 2\n2.5\n1 2 3 4\n", "PGM maxval must be a positive integer, got '2.5'"),
    ],
    ids=["p2-negative", "p2-fraction", "p2-exponent", "p2-nan", "p2-above-maxval",
         "p5-above-maxval", "maxval-fraction"],
)
def test_transform_refuses_what_pgm_does_not_define(tmp_path, capsys, pgm, message):
    # the P2 samples and the P5 sample used to be read as they stood, and the
    # fractional maxval exited 2 with int()'s message
    path = tmp_path / "tile.pgm"
    path.write_bytes(pgm)
    argv = ("transform", "--preset", "dct", "--size", "2", "--block", str(path))
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_transform_reads_a_comment_touching_maxval(tmp_path, capsys):
    # "255#c" used to be refused as a maxval that is not a positive integer
    path = tmp_path / "tile.pgm"
    path.write_bytes(b"P2\n2 2\n255#c\n1 2 3 4\n")
    argv = ("transform", "--preset", "dct", "--size", "2", "--block", str(path))
    status, out, err = run(capsys, *argv)
    assert (status, err) == (0, "")
    path.write_bytes(b"P2\n2 2\n255\n1 2 3 4\n")
    assert run(capsys, *argv) == (0, out, "")


@pytest.mark.parametrize("tolerance", ["inf", "-inf", "nan", "-1", "-1e-300"])
def test_verify_refuses_a_tolerance_not_finite_and_non_negative(tmp_path, capsys, tolerance):
    # inf used to pass any finite matrix; nan and negative values printed FAIL
    # with exit 1, and nan also reported the mirrored layout as absent.
    path = tmp_path / "dct.csv"
    path.write_text(io.matrix_to_csv(np.array(DCT_8)))
    status, out, err = run(capsys, "verify", str(path), f"--tolerance={tolerance}")
    assert status == 2
    assert out == ""
    assert err.startswith("error: tolerance must be a finite number >= 0")
    with pytest.raises(ValueError, match="tolerance must be"):
        verify_matrix(np.array(DCT_8), float(tolerance))


def test_verify_refuses_an_empty_matrix():
    # NumPy's max of an empty residual used to leak its own message
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(0, 0\)$"):
        verify_matrix(np.zeros((0, 0)))


def test_verify_report_fields():
    report = verify_matrix(np.eye(4), tolerance=1e-9)
    assert report.orthogonality_residual == 0.0
    assert report.row_norm_max_dev == 0.0
    assert not report.parity_ok
    assert report.condition_warnings


def test_verify_round_trip_all_presets(tmp_path, capsys):
    for preset in ("dct", "dtt", "triangular", "prime", "fibonacci"):
        for size in (2, 4, 8, 16):
            csv_path = tmp_path / f"{preset}{size}.csv"
            status, _, _ = run(
                capsys, "generate", "--preset", preset, "--size", str(size),
                "--format", "csv", "--out", str(csv_path),
            )
            assert status == 0
            status, _, _ = run(capsys, "verify", str(csv_path), "--tolerance", "5e-7")
            assert status == 0
            json_path = tmp_path / f"{preset}{size}.json"
            status, _, _ = run(
                capsys, "generate", "--preset", preset, "--size", str(size),
                "--format", "json", "--out", str(json_path),
            )
            assert status == 0
            status, _, _ = run(capsys, "verify", str(json_path))
            assert status == 0


def test_quantize_dct_c_header_golden(capsys):
    status, out, _ = run(
        capsys, "quantize", "--preset", "dct", "--size", "8",
        "--scale", "auto", "--format", "c-header",
    )
    assert status == 0
    assert out == DCT8_C_HEADER


def test_quantize_dtt4_scale_128(capsys):
    status, out, _ = run(
        capsys, "quantize", "--preset", "dtt", "--size", "4", "--scale", "128", "--format", "csv"
    )
    assert status == 0
    parsed = np.array([[int(c) for c in line.split(",")] for line in out.splitlines()])
    np.testing.assert_array_equal(parsed, DTT_4_INT_128)


def test_quantize_dtt8_auto_json(capsys):
    status, out, _ = run(
        capsys, "quantize", "--preset", "dtt", "--size", "8", "--format", "json"
    )
    assert status == 0
    payload = json.loads(out)
    np.testing.assert_array_equal(np.array(payload["entries"]), DTT_8_INT)
    assert payload["scale"] == pytest.approx(64 * np.sqrt(8))


def test_quantize_custom_macro_and_var(capsys):
    status, out, _ = run(
        capsys, "quantize", "--values", "1", "--scale", "1.4142135623730951",
        "--format", "c-header", "--var-name", "g_x", "--macro-name", "DEFINE_X_MATRIX",
    )
    assert status == 0
    assert "#define DEFINE_X_MATRIX" in out
    assert "g_x[2][2]" in out


@pytest.mark.parametrize("flag", ["--var-name", "--macro-name"])
@pytest.mark.parametrize("name", ["bad name", "9lives", "g-x", "", "g_x\n", "int", "while", "bool"])
def test_quantize_refuses_a_c_name_that_is_not_an_identifier(capsys, flag, name):
    # A table so named would not compile; a keyword (bool since C23) is no identifier
    status, out, err = run(
        capsys, "quantize", "--preset", "dct", "--size", "4", "--format", "c-header", flag, name
    )
    assert status == 2
    assert out == ""
    assert err == f"error: {name!r} is not a C identifier\n"


def test_quantize_refuses_a_macro_named_as_the_table(capsys):
    status, out, err = run(
        capsys, "quantize", "--preset", "dct", "--size", "4", "--format", "c-header",
        "--var-name", "X", "--macro-name", "X",
    )
    assert status == 2
    assert out == ""
    assert err == "error: the macro and the table are both named 'X'\n"


@pytest.mark.parametrize("flag", ["--var-name", "--macro-name"])
@pytest.mark.parametrize("fmt", ["pretty", "csv", "json"])
def test_quantize_refuses_a_c_name_outside_c_header(capsys, flag, fmt):
    # The name would be ignored, so the request contradicts itself
    status, out, err = run(capsys, "quantize", "--preset", "dct", "--size", "4", "--format", fmt, flag, "g_x")
    assert status == 2
    assert out == ""
    assert err == f"error: {flag} only applies to --format c-header\n"


def test_quantize_values_without_macro(capsys):
    status, out, _ = run(capsys, "quantize", "--values", "1", "--format", "c-header")
    assert status == 0
    assert out.startswith("static const int g_mat[2][2]")


def test_quantize_bad_scale(capsys):
    assert run(capsys, "quantize", "--values", "1", "--scale", "0")[0] == 2
    assert run(capsys, "quantize", "--values", "1", "--scale", "abc")[0] == 2


@pytest.mark.parametrize("scale", ["inf", "nan", "1e300"])
def test_quantize_scale_beyond_int64_exit_2(capsys, scale):
    # inf and 1e300 used to exit 0 with a table of -9223372036854775808
    status, out, err = run(capsys, "quantize", "--preset", "dct", "--size", "4", "--scale", scale)
    assert status == 2
    assert out == ""
    assert err.startswith("error: ")


def _write_block_csv(path, block):
    path.write_text(io.matrix_to_csv(block))


def test_transform_round_trip_pgm(tmp_path, capsys):
    rng = np.random.default_rng(61)
    samples = rng.integers(0, 1024, (8, 8))
    pgm = tmp_path / "tile.pgm"
    io.write_pgm(str(pgm), samples, maxval=1023)
    fwd = tmp_path / "fwd.csv"
    status, _, _ = run(
        capsys, "transform", "--preset", "dct", "--size", "8",
        "--block", str(pgm), "--direction", "fwd", "--out", str(fwd),
    )
    assert status == 0
    back = tmp_path / "back.csv"
    status, _, _ = run(
        capsys, "transform", "--preset", "dct", "--size", "8",
        "--block", str(fwd), "--direction", "inv", "--out", str(back),
    )
    assert status == 0
    restored = io.parse_matrix_csv(back.read_text())
    assert np.abs(restored - samples).max() <= 1e-6


def test_transform_constant_block_dc(tmp_path, capsys):
    block = tmp_path / "flat.csv"
    _write_block_csv(block, np.ones((8, 8)))
    status, out, _ = run(
        capsys, "transform", "--preset", "dct", "--size", "8", "--block", str(block)
    )
    assert status == 0
    coeffs = io.parse_matrix_csv(out)
    assert coeffs[0, 0] == pytest.approx(8.0, abs=1e-6)
    coeffs[0, 0] = 0.0
    assert np.abs(coeffs).max() <= 1e-6


def test_transform_of_an_overflowing_block_exit_2(tmp_path, capsys):
    block = tmp_path / "huge.csv"
    _write_block_csv(block, np.full((8, 8), 1e308))
    for extra in ((), ("--keep", "4")):
        status, out, err = run(
            capsys, "transform", "--preset", "dct", "--size", "8", "--block", str(block), *extra
        )
        assert status == 2
        assert out == ""
        assert "overflows" in err


def test_transform_of_a_truncated_pgm_exit_2(tmp_path, capsys):
    block = tmp_path / "short.pgm"
    block.write_bytes(b"P5\n4 4\n255\nab")
    status, out, err = run(
        capsys, "transform", "--preset", "dct", "--size", "4", "--block", str(block)
    )
    assert status == 2
    assert out == ""
    assert err == "error: truncated PGM payload\n"


def test_transform_matrix_file_source(tmp_path, capsys):
    matrix_path = tmp_path / "m.csv"
    status, _, _ = run(
        capsys, "generate", "--preset", "dtt", "--size", "4",
        "--format", "csv", "--out", str(matrix_path),
    )
    assert status == 0
    block = tmp_path / "b.csv"
    _write_block_csv(block, np.arange(16.0).reshape(4, 4))
    out_path = tmp_path / "y.csv"
    status, _, _ = run(
        capsys, "transform", "--matrix", str(matrix_path), "--block", str(block),
        "--out", str(out_path),
    )
    assert status == 0
    assert out_path.exists()


def test_transform_matrix_file_must_be_orthonormal(tmp_path, capsys):
    matrix_path = tmp_path / "m.csv"
    matrix_path.write_text(io.matrix_to_csv(2.0 * np.eye(2)))
    block = tmp_path / "b.csv"
    _write_block_csv(block, np.array([[1.0, 2.0], [3.0, 4.0]]))
    status, out, err = run(
        capsys, "transform", "--matrix", str(matrix_path), "--block", str(block), "--keep", "4"
    )
    assert status == 2
    assert out == ""
    assert "not orthonormal" in err and "verify residual 3.000e+00" in err


def test_transform_keep_writes_report(tmp_path, capsys):
    block = tmp_path / "b.csv"
    _write_block_csv(block, np.add.outer(np.arange(8.0), np.arange(8.0)))
    out_path = tmp_path / "y.csv"
    status, out, _ = run(
        capsys, "transform", "--preset", "dct", "--size", "8",
        "--block", str(block), "--keep", "8", "--out", str(out_path),
    )
    assert status == 0
    report = json.loads(out)
    assert report["keep"] == 8
    assert report["retained_energy_fraction"] >= 0.99
    assert report["reconstruction_mse"] >= 0.0


def test_transform_keep_zero_rejected(tmp_path, capsys):
    block = tmp_path / "b.csv"
    _write_block_csv(block, np.ones((8, 8)))
    status, _, err = run(
        capsys, "transform", "--preset", "dct", "--size", "8",
        "--block", str(block), "--keep", "0",
    )
    assert status == 2
    assert "keep" in err


def test_transform_invalid_keep_writes_nothing(tmp_path, capsys):
    # --keep used to be checked after the coefficient table was written
    block = tmp_path / "b.csv"
    _write_block_csv(block, np.ones((8, 8)))
    out_path = tmp_path / "y.csv"
    for keep in ("0", "65"):
        for extra in ([], ["--out", str(out_path)]):
            status, out, err = run(
                capsys, "transform", "--preset", "dct", "--size", "8",
                "--block", str(block), "--keep", keep, *extra,
            )
            assert status == 2
            assert out == ""
            assert "keep must be in 1..64" in err
    assert not out_path.exists()


def test_transform_keep_with_inverse_rejected(tmp_path, capsys):
    block = tmp_path / "b.csv"
    _write_block_csv(block, np.ones((8, 8)))
    status, _, _ = run(
        capsys, "transform", "--preset", "dct", "--size", "8",
        "--block", str(block), "--direction", "inv", "--keep", "4",
    )
    assert status == 2


def test_transform_report_without_keep_rejected(tmp_path, capsys):
    # It used to exit 0 with the coefficients and no report
    block = tmp_path / "b.csv"
    _write_block_csv(block, np.ones((8, 8)))
    report = tmp_path / "r.json"
    status, out, err = run(
        capsys, "transform", "--preset", "dct", "--size", "8",
        "--block", str(block), "--report", str(report),
    )
    assert status == 2
    assert out == ""
    assert err == "error: --report needs --keep, the coefficient count the report is about\n"
    assert not report.exists()


def test_transform_report_that_cannot_be_written_leaves_stdout_empty(tmp_path, capsys):
    # The report file is written first, so its failure leaves stdout empty, as on every exit 2
    block = tmp_path / "b.csv"
    _write_block_csv(block, np.ones((4, 4)))
    report = tmp_path / "missing" / "r.json"
    status, out, err = run(
        capsys, "transform", "--preset", "dct", "--size", "4",
        "--block", str(block), "--keep", "2", "--report", str(report),
    )
    assert status == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _matrix_file(tmp_path, capsys):
    path = tmp_path / "m.csv"
    status, _, _ = run(capsys, "generate", "--preset", "dct", "--size", "4", "--format", "csv", "--out", str(path))
    assert status == 0
    return ["--matrix", str(path)]


@pytest.mark.parametrize(
    "command, source",
    [("generate", "values"), ("quantize", "values"), ("transform", "values"), ("transform", "matrix")],
)
def test_a_size_other_than_the_source_gives_exit_2(tmp_path, capsys, command, source):
    # --size is checked against the n the values or the matrix file give
    block = tmp_path / "b.csv"
    _write_block_csv(block, np.ones((4, 4)))
    given = ["--values", "1,2"] if source == "values" else _matrix_file(tmp_path, capsys)
    extra = ["--block", str(block)] if command == "transform" else []
    assert run(capsys, command, *given, "--size", "4", *extra)[0] == 0
    status, out, err = run(capsys, command, *given, "--size", "8", *extra)
    assert status == 2
    assert out == ""
    assert err.startswith("error: --size 8 does not match n = 4 of the ") and err.count("\n") == 1


def test_transform_size_mismatch_exit_2(tmp_path, capsys):
    block = tmp_path / "b.csv"
    _write_block_csv(block, np.ones((4, 4)))
    status, _, err = run(
        capsys, "transform", "--preset", "dct", "--size", "8", "--block", str(block)
    )
    assert status == 2
    assert "does not match" in err


# Each subcommand with arguments it parses, which leave an unknown option
# to the top level's error
COMMAND_ARGS = {
    None: [],
    "generate": ["--preset", "dct", "--size", "4"],
    "verify": ["m.csv"],
    "quantize": ["--preset", "dct", "--size", "4"],
    "transform": ["--preset", "dct", "--size", "4", "--block", "b.csv"],
}


@pytest.mark.parametrize("command", COMMAND_ARGS)
def test_a_command_line_parses_as_in_the_whole_tree(capsys, command):
    # main builds only the subcommand a command line names first; its help,
    # usage and errors read as the whole tree's, byte for byte
    lead = [] if command is None else [command]
    args = COMMAND_ARGS[command]
    for tail in (["--help"], ["--bogus"], [*args, "--bogus"], [*args, "--help"], []):
        with pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args(lead + tail)
        whole = (exc.value.code, *capsys.readouterr())
        assert run(capsys, *lead, *tail) == whole
        assert whole[0] == (0 if tail[-1:] == ["--help"] else 2)
        assert whole[1 if whole[0] == 0 else 2].startswith("usage: orthogen")
    assert set(COMMAND_ARGS) == {None, *cli._COMMANDS}
