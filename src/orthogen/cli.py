"""Command-line interface: generate, verify, quantize, and transform.

Exit codes: 0 success, 1 verification check failed, 2 invalid input
(values, files, sizes, flags, a transform matrix that is not orthonormal)
or output that cannot be written, 3 numeric failure (singular system, or a
generated matrix whose estimated entry error or orthonormality residual is
above 5e-7 or not finite).
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import warnings
from typing import NamedTuple

import numpy as np

from . import io
from .core import assemble_matrix
from .errors import FidelityError, SingularSystemError
from .presets import PRESETS, preset_values
from .quantize import quantize_matrix
from .transform import compaction_report, forward_2d, inverse_2d

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NUMERIC_FAILURE = 3

DEFAULT_TOLERANCE = 1e-9


class VerifyReport(NamedTuple):
    """Outcome of checking a matrix file for orthonormality and layout."""

    orthogonality_residual: float
    row_norm_max_dev: float
    parity_ok: bool
    condition_warnings: tuple[str, ...] = ()
    worst_pair: tuple[int, int] = (0, 0)


def verify_matrix(entries: np.ndarray, tolerance: float = DEFAULT_TOLERANCE) -> VerifyReport:
    """Measure how far a square matrix is from orthonormal.

    Also reports whether the mirrored half-row layout of generated matrices
    (row[k] == +/-row[n-1-k]) is present; its absence is informational, since
    orthonormal matrices from other sources are still valid. Raises
    ``ValueError`` for a tolerance that is not a finite number >= 0.
    """
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance!r}")
    entries = np.asarray(entries, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.size == 0:
        raise ValueError(f"expected a square matrix, got shape {entries.shape}")
    n = entries.shape[0]
    gram = entries @ entries.T - np.eye(n)
    residual = float(np.abs(gram).max())
    worst = np.unravel_index(int(np.argmax(np.abs(gram))), gram.shape)
    row_norms = np.linalg.norm(entries, axis=1)
    row_dev = float(np.abs(row_norms - 1.0).max())

    parity_ok = False
    if n % 2 == 0:
        signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        mirror_gap = np.abs(entries - signs[:, None] * entries[:, ::-1]).max()
        parity_ok = bool(mirror_gap <= max(tolerance, 1e-12))
    notes = () if parity_ok else (
        "matrix does not carry the mirrored half-row layout of generated matrices (informational)",
    )
    return VerifyReport(
        orthogonality_residual=residual,
        row_norm_max_dev=row_dev,
        parity_ok=parity_ok,
        condition_warnings=notes,
        worst_pair=(int(worst[0]), int(worst[1])),
    )


def _parse_values(text: str) -> list[float]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("no values given")
    try:
        return [float(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"could not parse values {text!r}") from exc


def _check_size(args, n: int, source: str) -> None:
    if args.size is not None and args.size != n:
        raise ValueError(f"--size {args.size} does not match n = {n} of {source}")


def _resolve_values(args) -> np.ndarray:
    if getattr(args, "values", None) is not None:
        values = np.array(_parse_values(args.values))
        _check_size(args, 2 * values.size, f"the {values.size} values given")
        return values
    if args.preset is not None:
        if args.size is None:
            raise ValueError("--preset requires --size")
        return preset_values(args.preset, args.size)
    raise ValueError("give either --values or --preset/--size")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _add_source_args(parser: argparse.ArgumentParser, with_matrix_file: bool = False) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--values", help="comma- or space-separated positive values")
    group.add_argument("--preset", choices=PRESETS, help="named value sequence")
    if with_matrix_file:
        group.add_argument("--matrix", help="matrix file (CSV or JSON) to use directly")
    parser.add_argument("--size", type=int, help="matrix size n (even), required with --preset")
    parser.add_argument("--out", help="output path (default: stdout)")


def _cmd_generate(args) -> int:
    matrix = assemble_matrix(_resolve_values(args))
    if args.format == "csv":
        text = io.matrix_to_csv(matrix.entries)
    elif args.format == "json":
        text = io.ortho_matrix_to_json(matrix)
    else:
        text = io.matrix_to_pretty(matrix.entries)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    entries = io.read_matrix(args.path)
    report = verify_matrix(entries, args.tolerance)
    print(f"orthogonality residual: {report.orthogonality_residual:.6e}")
    print(f"row norm max deviation: {report.row_norm_max_dev:.6e}")
    print(f"mirrored parity layout: {'yes' if report.parity_ok else 'no'}")
    for note in report.condition_warnings:
        print(f"note: {note}")
    if report.orthogonality_residual <= args.tolerance:
        print(f"PASS (tolerance {args.tolerance:g})")
        return EXIT_OK
    i, j = report.worst_pair
    print(
        f"FAIL (tolerance {args.tolerance:g}): worst rows ({i}, {j}) "
        f"residual {report.orthogonality_residual:.6e}"
    )
    return EXIT_CHECK_FAILED


def _default_macro_name(preset: str | None, n: int) -> str | None:
    if preset is None:
        return None
    stem = "DCT2" if preset == "dct" else preset.upper()
    return f"DEFINE_{stem}_P{n}_MATRIX"


def _cmd_quantize(args) -> int:
    for flag, name in (("--var-name", args.var_name), ("--macro-name", args.macro_name)):
        if name is not None and args.format != "c-header":
            raise ValueError(f"{flag} only applies to --format c-header")
    if args.scale != "auto":
        try:
            scale: float | str = float(args.scale)
        except ValueError as exc:
            raise ValueError(f"scale must be 'auto' or a positive number, got {args.scale!r}") from exc
    else:
        scale = "auto"
    matrix = assemble_matrix(_resolve_values(args))
    im = quantize_matrix(matrix, scale)
    if args.format == "csv":
        text = io.int_matrix_to_csv(im.entries)
    elif args.format == "json":
        text = io.int_matrix_to_json(im)
    elif args.format == "c-header":
        macro = _default_macro_name(args.preset, im.n) if args.macro_name is None else args.macro_name
        var = args.var_name
        if var is None:
            var = "g_" + macro.removeprefix("DEFINE_").removesuffix("_MATRIX").lower() if macro else "g_mat"
        text = io.int_matrix_to_c_header(im, var_name=var, macro_name=macro)
    else:
        text = io.int_matrix_to_pretty(im.entries)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_transform(args) -> int:
    if args.matrix is not None:
        entries = io.read_matrix(args.matrix)
        _check_size(args, entries.shape[0], f"the matrix in {args.matrix}")
        # The inverse is the transpose and the compaction report relies on
        # Parseval, so the file must hold an orthonormal matrix up to the
        # rounding of its digits. Rounding Q to 7 decimals adds E with
        # |E_ij| <= 5e-8, so each entry of M M^T - I = Q E^T + E Q^T + E E^T
        # is at most 2 * 5e-8 * sqrt(n) + n * (5e-8)^2; the 1e-9 covers the
        # second-order term and the rounding of the product up to n ~ 1e5.
        residual = verify_matrix(entries).orthogonality_residual
        bound = 1e-7 * math.sqrt(entries.shape[0]) + 1e-9
        if not residual <= bound:
            raise ValueError(
                f"transform matrix is not orthonormal: verify residual {residual:.3e} "
                f"exceeds {bound:.3e}"
            )
    else:
        entries = assemble_matrix(_resolve_values(args)).entries
    block = io.read_block(args.block)
    if args.keep is not None and args.direction != "fwd":
        raise ValueError("--keep only applies to the forward direction")
    if args.report is not None and args.keep is None:
        raise ValueError("--report needs --keep, the coefficient count the report is about")
    if args.direction == "fwd":
        result = forward_2d(entries, block)
    else:
        result = inverse_2d(entries, block)
    report = ""
    if args.keep is not None:
        import json  # as in io: only the calls that write JSON import it
        # Before any output, so an invalid --keep writes nothing.
        retained, mse = compaction_report(entries, block, args.keep)
        fields = {"n": int(entries.shape[0]), "keep": args.keep,
                  "retained_energy_fraction": retained, "reconstruction_mse": mse}
        report = json.dumps(fields, indent=2) + "\n"
    if args.report is not None:
        # A report file is written first, so a failed write leaves stdout empty.
        _emit(report, args.report)
    _emit(io.matrix_to_csv(result), args.out)
    if args.report is None:
        _emit(report, None)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthogen",
        description="Generate and apply discrete orthogonal transform matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate an orthogonal matrix")
    _add_source_args(gen)
    gen.add_argument("--format", choices=("pretty", "csv", "json"), default="pretty")
    gen.set_defaults(handler=_cmd_generate)

    ver = sub.add_parser("verify", help="check a matrix file for orthonormality")
    ver.add_argument("path", help="matrix file (CSV or JSON)")
    ver.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    ver.set_defaults(handler=_cmd_verify)

    qnt = sub.add_parser("quantize", help="emit an integer-scaled matrix")
    _add_source_args(qnt)
    qnt.add_argument("--scale", default="auto", help="positive factor or 'auto' (64*sqrt(n))")
    qnt.add_argument("--format", choices=("pretty", "csv", "json", "c-header"), default="pretty")
    qnt.add_argument("--var-name", help="C variable name (c-header format)")
    qnt.add_argument("--macro-name", help="C macro name (c-header format)")
    qnt.set_defaults(handler=_cmd_quantize)

    tra = sub.add_parser("transform", help="apply a matrix to a sample block")
    _add_source_args(tra, with_matrix_file=True)
    tra.add_argument("--block", required=True, help="block file (CSV or PGM)")
    tra.add_argument("--direction", choices=("fwd", "inv"), default="fwd")
    tra.add_argument("--keep", type=int, help="coefficients to keep for the compaction report")
    tra.add_argument("--report", help="path for the compaction report JSON (default: stdout)")
    tra.set_defaults(handler=_cmd_transform)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return args.handler(args)
        except (SingularSystemError, FidelityError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC_FAILURE
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
        finally:
            # A failure's error line comes first, then the warnings behind it.
            for caught_warning in caught:
                print(f"warning: {caught_warning.message}", file=sys.stderr)


def run() -> None:
    """Process entry (``python -m orthogen.cli`` and the ``orthogen`` script):
    :func:`main`, then flush and ``os._exit``, skipping the interpreter's
    teardown; output that cannot be flushed exits 2."""
    # Collections during main then skip the import-time objects, most of them
    # NumPy's. Not in main, which callers also run in process.
    gc.freeze()
    code = main()
    try:
        if sys.stdout:  # None when the process started with stdout closed
            sys.stdout.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_BAD_INPUT
    if sys.stderr:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
