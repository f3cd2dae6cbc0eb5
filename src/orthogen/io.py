"""File and text formats: fixed-decimal tables, JSON, C headers, PGM blocks.

Pretty and CSV renderings use a fixed 7 decimal places, matching the
precision of published transform tables; JSON carries full double precision
for lossless pipelines. Each input format has one parser, and input outside
its grammar raises a ValueError that names the fault. CSV: equal-length rows
of comma-separated numbers as NumPy's C reader (``loadtxt``) reads them, blank
lines skipped. JSON: ``entries`` is a list of equal-length lists of JSON
numbers. PGM: P2 or P5 with width, height and maxval (at most 65535) positive
decimal integers, which a touching "#" comment ends; P2 samples are unsigned
decimal integers in any whitespace layout, and every sample is at most maxval.
"""

from __future__ import annotations

import re

import numpy as np

from .core import OrthoMatrix
from .quantize import IntMatrix

DECIMALS = 7
_FIXED_CELL = f"%.{DECIMALS}f"
_NEGATIVE_ZERO = f"-0.{'0' * DECIMALS}"
_FIXED_SCALE = 10**DECIMALS
_FIXED_LIMIT = 10.0 ** (DECIMALS + 6)  # the sign and 6 integer digits fill a word
_P2_TEXT = b"0123456789 \t\n\r\x0b\x0c"  # digits and ASCII whitespace
# A header token and the comments touching it; as in Netpbm, "#" ends a token.
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n)*([^\s#]+)(?:#[^\n]*\n)*")
# The keywords of C11 and C23, which no table or macro may be named
_C_KEYWORDS = frozenset("""
    auto break case char const continue default do double else enum extern float for goto if inline
    int long register restrict return short signed sizeof static struct switch typedef union unsigned
    void volatile while _Alignas _Alignof _Atomic _Bool _Complex _Generic _Imaginary _Noreturn
    _Static_assert _Thread_local alignas alignof bool constexpr false nullptr static_assert
    thread_local true typeof typeof_unqual _BitInt _Decimal32 _Decimal64 _Decimal128
""".split())


def _digits8(v: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each uint64 v < 10**8, one per byte, the most
    significant in the lowest byte (first in a little-endian word).

    Each step splits every lane into quotient and remainder in half-width
    lanes, the quotient in the low half: (x << w) - q * (d << w) + q. The
    quotients by 100 and by 10 are multiplications and shifts, exact for
    lanes below 10**4 and 100.
    """
    hi = v // np.uint64(10**4)
    x = (v << np.uint64(32)) - hi * np.uint64((10**4 << 32) - 1)
    q = ((x * np.uint64(10486)) >> np.uint64(20)) & np.uint64(0x0000007F0000007F)
    x = (x << np.uint64(16)) - q * np.uint64((100 << 16) - 1)
    q = ((x * np.uint64(103)) >> np.uint64(10)) & np.uint64(0x000F000F000F000F)
    return (x << np.uint64(8)) - q * np.uint64((10 << 8) - 1)


def _fixed_text(arr: np.ndarray, sep: str) -> str | None:
    """The cells of a 2-D float table as ``_FIXED_CELL`` writes them, with no
    negative zero, ``sep`` (one ASCII character) between cells and a newline
    between rows; None when a cell is not finite or needs more than 6
    integer digits (|rint(x * 1e7)| reaches 10**13).

    Each cell is the exact x * 10**7 rounded half-even. The product x * 1e7
    rounds it to a double, monotonically, and every half-integer below 2**44
    (> 10**13) is a double, so the product lies on the same side of each
    half-integer as the exact one unless it is one: its rint is the cell,
    and the cells whose product is a half-integer take their integer from
    their own ``_FIXED_CELL`` text. Each cell is two little-endian words: the
    separator before it, NULs, the sign and up to 6 integer digits, then
    the point and the DECIMALS (7) fraction digits. Dropping the NULs leaves
    the text.
    """
    with np.errstate(over="ignore"):  # an infinite product fails the test below
        scaled = arr * _FIXED_SCALE
    q = np.rint(scaled)
    if not np.abs(q).max() < _FIXED_LIMIT:  # NaN fails too
        return None
    ties = np.flatnonzero(np.abs(scaled - q) == 0.5)
    if ties.size:
        q.flat[ties] = [int((_FIXED_CELL % x).replace(".", "")) for x in arr.flat[ties].tolist()]
    a = np.abs(q).astype(np.uint64)
    parts = np.empty((2,) + arr.shape, np.uint64)
    np.floor_divide(a, np.uint64(_FIXED_SCALE), out=parts[0])
    np.subtract(a, parts[0] * np.uint64(_FIXED_SCALE), out=parts[1])
    lead, frac = _digits8(parts)
    # The integer part starts at its first nonzero digit byte, or at the units.
    nonzero = ((lead + np.uint64(0x7F7F7F7F7F7F7F7F)) & np.uint64(0x8080808080808080)) | np.uint64(1 << 63)
    first = (nonzero & -nonzero) >> np.uint64(7)  # 1 << 8k, k that byte
    lead |= np.uint64(0x3030303030303030)
    lead &= -first
    lead |= (first >> np.uint64(8)) * ((q < 0) * np.uint64(ord("-")))
    lead[:, 1:] |= np.uint64(ord(sep))
    lead[1:, 0] |= np.uint64(ord("\n"))
    words = np.empty(arr.shape + (2,), "<u8")
    words[..., 0] = lead
    np.add(frac, np.uint64(0x303030303030302E), out=words[..., 1])  # ".0000000" plus the digits
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _table(entries: np.ndarray, cell_fmt: str, sep: str, align: bool) -> str:
    """Render a 2-D array one line per row, all cells by one %-format string.

    Fixed cells of a non-empty 2-D float array come from :func:`_fixed_text`;
    every other table, and one it declines, is formatted cell by cell.
    Scrubbing negative zero over the whole text is exact: a fixed cell has
    exactly DECIMALS decimals and a sign only in front. ``align``
    right-justifies every cell to the widest one.
    """
    arr = np.asarray(entries)
    nrows = len(arr)
    ncols = arr.shape[1] if nrows else 0

    def layout(fmt: str) -> str:
        return "\n".join([sep.join([fmt] * ncols)] * nrows)

    text = None
    if cell_fmt == _FIXED_CELL and arr.ndim == 2 and arr.size and arr.dtype.kind == "f":
        text = _fixed_text(arr.astype(float, copy=False), sep)
    if text is None:
        text = layout(cell_fmt) % tuple(arr.ravel().tolist())
        text = text.replace(_NEGATIVE_ZERO, _NEGATIVE_ZERO[1:])
    if align:
        cells = text.replace("\n", sep).split(sep)
        text = layout(f"%{max(map(len, cells))}s") % tuple(cells)
    return text + "\n"


def matrix_to_csv(entries: np.ndarray) -> str:
    """Comma-separated rows, one line per row, no header, 7 decimals."""
    return _table(entries, _FIXED_CELL, ",", align=False)


def int_matrix_to_csv(entries: np.ndarray) -> str:
    return _table(entries, "%d", ",", align=False)


def matrix_to_pretty(entries: np.ndarray) -> str:
    """Right-aligned fixed-decimal table for terminal display."""
    return _table(entries, _FIXED_CELL, " ", align=True)


def int_matrix_to_pretty(entries: np.ndarray) -> str:
    return _table(entries, "%d", " ", align=True)


def ortho_matrix_to_json(matrix: OrthoMatrix) -> str:
    # json is imported where JSON is read or written: a CLI call that neither
    # reads nor writes it does not pay for the import.
    import json
    payload = {
        "n": matrix.n,
        "values": list(matrix.values),
        "entries": [list(row) for row in matrix.entries],
        # JSON has no infinity; a scale beyond the double range is null.
        "normScales": [float(c) if np.isfinite(c) else None for c in matrix.norm_scales],
    }
    return json.dumps(payload, indent=2) + "\n"


def int_matrix_to_json(im: IntMatrix) -> str:
    import json
    payload = {
        "n": im.n,
        "values": list(im.source.values),
        "entries": [[int(v) for v in row] for row in im.entries],
        "scale": im.scale,
    }
    return json.dumps(payload, indent=2) + "\n"


def int_matrix_to_c_header(
    im: IntMatrix, var_name: str = "g_mat", macro_name: str | None = None
) -> str:
    """Render an integer matrix as a C table, optionally behind a macro.
    Raises ``ValueError`` for a name that is not a C identifier or is a C11
    or C23 keyword."""
    for name in (macro_name, var_name):
        if name is not None and (name in _C_KEYWORDS or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name)):
            raise ValueError(f"{name!r} is not a C identifier")
    n = im.n
    rows = ["{ " + r + " }" for r in _table(im.entries, "%d", ", ", align=True).splitlines()]
    if macro_name is None:
        body = ",\n".join("  " + r for r in rows)
        return f"static const int {var_name}[{n}][{n}] =\n{{\n{body}\n}};\n"
    body = ", \\\n".join("  " + r for r in rows)
    return (
        f"#define {macro_name} \\\n"
        f"{{ \\\n{body} \\\n}}\n\n"
        f"static const int {var_name}[{n}][{n}] = {macro_name};\n"
    )


def parse_matrix_csv(text: str) -> np.ndarray:
    lines = [line for line in map(str.strip, text.splitlines()) if line]
    if not lines:
        raise ValueError("empty matrix file")
    try:
        return np.loadtxt(lines, dtype=float, comments=None, delimiter=",", ndmin=2)
    except ValueError:
        # Name the first line the reader refuses alone; if none, the rows are ragged.
        for line in lines:
            try:
                np.loadtxt([line], dtype=float, comments=None, delimiter=",")
            except ValueError as exc:
                raise ValueError(f"could not parse CSV row {line!r}") from exc
        raise ValueError("ragged rows in matrix file") from None


def parse_matrix_json(text: str) -> np.ndarray:
    import json
    # Big integers read as inf, as 1e400 does; NaN and Infinity as strings, refused below.
    data = json.loads(text, parse_int=float, parse_constant=str)
    if not isinstance(data, dict) or "entries" not in data:
        raise ValueError("matrix JSON must be an object with an 'entries' key")
    rows = data["entries"]
    # Every JSON number is a float here; NumPy would also cast a bool or a numeric string.
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(type(v) is float for v in row) for row in rows
    ):
        raise ValueError("matrix JSON 'entries' must be a list of rows of numbers")
    if len({len(row) for row in rows}) > 1:
        raise ValueError("ragged rows in matrix JSON 'entries'")
    return np.array(rows, dtype=float)


def read_matrix(path: str) -> np.ndarray:
    """Load a matrix from a CSV or JSON file (sniffed by content)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return parse_matrix_json(text)
    return parse_matrix_csv(text)


def _read_pgm(data: bytes) -> np.ndarray:
    # Header: magic, width, height, maxval, separated by whitespace/comments.
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(data):
            raise ValueError("truncated PGM header")
        match = _PGM_TOKEN.match(data, pos)
        if match is None:
            raise ValueError("malformed PGM header")
        tokens.append(match.group(1))
        pos = match.end()
    for name, token in zip(("width", "height", "maxval"), tokens[1:]):
        if not token.isdigit() or int(token) == 0:
            raise ValueError(f"PGM {name} must be a positive integer, got {token.decode('latin-1')!r}")
    magic, width, height, maxval = tokens[0], int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval > 65535:
        raise ValueError(f"unsupported PGM maxval {maxval}")
    count = width * height
    if magic == b"P2":
        payload = data[pos:]
        bad = payload.translate(None, _P2_TEXT)
        if bad:
            raise ValueError(f"PGM P2 samples must be unsigned decimal integers, got {bad[:1]!r}")
        samples = np.empty(0, np.int64)
        # A blank payload reads as [0]; count= would leave a short one's tail unset.
        if payload.strip():
            samples = np.fromstring(payload, dtype=np.int64, sep=" ")
    elif magic == b"P5":
        pos += 1  # single whitespace byte after maxval and the comments touching it
        dtype = np.dtype(">u2" if maxval > 255 else "u1")
        if len(data) - pos < count * dtype.itemsize:
            raise ValueError("truncated PGM payload")
        samples = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
    else:
        raise ValueError(f"unsupported PGM magic {magic!r}")
    samples = samples[:count]
    if samples.size != count:
        raise ValueError("truncated PGM payload")
    if samples.max() > maxval:
        raise ValueError(f"PGM sample {samples.max()} is above maxval {maxval}")
    return samples.reshape(height, width).astype(float)


def write_pgm(path: str, samples: np.ndarray, maxval: int = 255, binary: bool = True) -> None:
    """Write an integer grayscale block as P5 (binary) or P2 (ASCII), in the
    grammar :func:`read_block` reads: ``maxval`` an integer in 1..65535 and
    every sample an integer in 0..maxval; anything else raises ValueError."""
    arr = np.asarray(samples)
    if arr.ndim != 2:
        raise ValueError("PGM payload must be 2-D")
    # A bool is an int to isinstance; True would be written as maxval 1.
    if isinstance(maxval, bool) or not (isinstance(maxval, (int, np.integer)) and 1 <= maxval <= 65535):
        raise ValueError(f"PGM maxval must be an integer in 1..65535, got {maxval!r}")
    if not (np.isfinite(arr).all() and (np.trunc(arr) == arr).all()):
        raise ValueError("PGM samples must be finite integers")
    if (arr < 0).any() or (arr > maxval).any():
        raise ValueError(f"samples outside 0..{maxval}")
    header = f"{'P5' if binary else 'P2'}\n{arr.shape[1]} {arr.shape[0]}\n{int(maxval)}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            dtype = ">u2" if maxval > 255 else "u1"
            fh.write(arr.astype(dtype).tobytes())
        else:
            fh.write("\n".join(" ".join(str(int(v)) for v in row) for row in arr).encode("ascii"))
            fh.write(b"\n")


def read_block(path: str) -> np.ndarray:
    """Load a sample block from CSV or PGM (sniffed by magic bytes)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] in (b"P2", b"P5"):
        return _read_pgm(data)
    return parse_matrix_csv(data.decode("utf-8"))
