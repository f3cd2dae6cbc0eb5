"""Output checks for generated matrices. None of this code is timed.

A check returns ``None`` when the output is right, or a ``(category, reason)``
pair: category ``nonfinite`` for NaN/inf entries, ``wrong`` for any other
failed check. References come from closed forms, from an exact rational
construction (``exact_matrix``), and from preset formulas written out again
here rather than taken from ``orthogen.presets``; nothing here imports the
program.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

ORTHO_TOL = 1e-9
# The 7-decimal precision of CSV output and of the golden tables.
FIDELITY_TOL = 5e-7
DCT_TOL = 5e-7
EXACT_TOL = 1e-8
# Exact rationals stay cheap (<= 0.2 s per value set) up to this size.
EXACT_MAX_N = 16

PRESET_NAMES = ("dct", "dtt", "triangular", "prime", "fibonacci")


def reference_preset_values(name: str, n: int) -> np.ndarray:
    """The documented preset sequences, descending, m = n/2 values."""
    m = n // 2
    if name == "dct":
        return np.cos((2 * np.arange(m) + 1) * np.pi / (2 * n))
    if name == "dtt":
        return (2 * np.arange(m - 1, -1, -1) + 1) / n
    if name == "triangular":
        j = np.arange(m, 0, -1)
        return j * (j + 1) / 2.0
    if name == "prime":
        primes = [p for p in range(2, 2000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
        return np.array(primes[:m][::-1], dtype=float)
    if name == "fibonacci":
        fibs = [1, 2]
        while len(fibs) < m:
            fibs.append(fibs[-1] + fibs[-2])
        return np.array(fibs[:m][::-1], dtype=float)
    raise ValueError(f"unknown preset {name!r}")


def dct_reference(n: int) -> np.ndarray:
    """Closed-form orthonormal DCT-II."""
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    table = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * j + 1) * k / (2 * n))
    table[0] /= np.sqrt(2.0)
    return table


def sign_aligned_error(entries: np.ndarray, reference: np.ndarray) -> float:
    """Largest entry gap after flipping each reference row to match the sign of ``entries``."""
    signs = np.sign(np.sum(entries * reference, axis=1))
    signs[signs == 0.0] = 1.0
    return float(np.abs(entries - signs[:, None] * reference).max())


def mirrored_points(values) -> np.ndarray:
    """Sample points in the generator's column order: -y_j, then +y reversed."""
    v = np.asarray(values, dtype=float)
    return np.concatenate([-v, v[::-1]])


def fidelity_residual(entries: np.ndarray, values) -> float:
    """Largest off-tridiagonal entry of M diag(x) M^T, x the mirrored values over their max.

    For the matrix the values define this is zero up to rounding (the rows are
    orthonormal polynomials, so x acts tridiagonally); a different orthonormal
    matrix shows up here even when M M^T = I holds.
    """
    x = mirrored_points(values)
    x = x / np.abs(x).max()
    n = x.size
    if n <= 2:
        return 0.0
    t = entries @ (x[:, None] * entries.T)
    i, j = np.indices((n, n))
    return float(np.abs(t[np.abs(i - j) > 1]).max())


def exact_matrix(values) -> np.ndarray:
    """The matrix the values define, computed in exact rationals, rounded once.

    On the mirrored points the monic orthogonal polynomials obey the
    three-term recurrence p_{k+1} = x p_k - (|p_k|^2 / |p_{k-1}|^2) p_{k-1}
    (no x-independent term, since the points are symmetric); row k is
    p_k / |p_k| sampled at the points. Unlike a double-precision
    Gram-Schmidt over monomials, which is off by 1.6e-8 on some random
    m = 8 sets, this is exact before the final rounding.
    """
    xs = [Fraction(float(x)) for x in mirrored_points(values)]
    n = len(xs)
    rows = [[Fraction(1)] * n, xs]
    norms = [Fraction(n), sum(x * x for x in xs)]
    while len(rows) < n:
        ratio = norms[-1] / norms[-2]
        rows.append([x * c - ratio * p for x, c, p in zip(xs, rows[-1], rows[-2])])
        norms.append(sum(p * p for p in rows[-1]))
    return np.array(
        [[math.copysign(math.sqrt(p * p / norm), p) for p in row] for row, norm in zip(rows[:n], norms)]
    )


def check_matrix(entries, values, preset: str | None, exact=None) -> tuple[tuple[str, str] | None, float]:
    """Run every matrix check; returns ``(failure or None, fidelity residual)``.

    ``exact`` is ``exact_matrix(values)``, required for n <= EXACT_MAX_N.
    The residual is ``inf`` for non-finite output.
    """
    entries = np.asarray(entries, dtype=float)
    n = 2 * len(values)
    if entries.shape != (n, n):
        return ("wrong", f"shape {entries.shape}, expected ({n}, {n})"), float("inf")
    if not np.isfinite(entries).all():
        return ("nonfinite", f"{int(np.size(entries) - np.isfinite(entries).sum())} non-finite entries"), float("inf")
    fidelity = fidelity_residual(entries, values)
    ortho = float(np.abs(entries @ entries.T - np.eye(n)).max())
    if ortho > ORTHO_TOL:
        return ("wrong", f"orthonormality residual {ortho:.2e} > {ORTHO_TOL:.0e}"), fidelity
    if not fidelity <= FIDELITY_TOL:
        return ("wrong", f"fidelity residual {fidelity:.2e} > {FIDELITY_TOL:.0e}"), fidelity
    if preset == "dct":
        err = sign_aligned_error(entries, dct_reference(n))
        if err > DCT_TOL:
            return ("wrong", f"closed-form DCT-II error {err:.2e} > {DCT_TOL:.0e}"), fidelity
    if n <= EXACT_MAX_N:
        err = sign_aligned_error(entries, exact)
        if err > EXACT_TOL:
            return ("wrong", f"exact-reference error {err:.2e} > {EXACT_TOL:.0e}"), fidelity
    return None, fidelity


def check_values(got, expected) -> tuple[str, str] | None:
    """Preset values must equal the documented sequence to rounding."""
    got = np.asarray(got, dtype=float)
    if got.shape != expected.shape or not np.allclose(got, expected, rtol=1e-14, atol=0.0):
        return ("wrong", "preset values differ from the documented sequence")
    return None


def n_bucket(n: int) -> int:
    """Smallest power of two >= n; the size class a fidelity residual is reported under."""
    return 1 << max(1, (n - 1).bit_length())
