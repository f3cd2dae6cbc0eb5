"""Seeded benchmark inputs: positive value sets and 10-bit PGM images.

Everything here is a pure function of a ``numpy.random.Generator``, so the
same seed always gives the same inputs. The images are encoded by this
module, not by ``orthogen.io``, so reading them back is an independent check
of ``io.read_block``.
"""

from __future__ import annotations

import numpy as np

# Value sets are drawn uniformly from [VALUE_LOW, 1], as the acceptance
# suite's random sets are (criterion 05), then pushed apart until each pair of
# neighbours differs by at least MIN_REL_GAP of the larger value.
VALUE_LOW = 1e-3
MIN_REL_GAP = 1e-3

MAXVAL_10BIT = 1023


def value_set(rng: np.random.Generator, m: int) -> np.ndarray:
    """m distinct positive values in shuffled order with a minimum relative gap."""
    values = np.sort(rng.uniform(VALUE_LOW, 1.0, m))[::-1].copy()
    for k in range(1, m):
        values[k] = min(values[k], values[k - 1] * (1.0 - MIN_REL_GAP))
    rng.shuffle(values)
    return values


def image_10bit(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    """Smooth texture plus noise, rounded and clipped to 0..1023 (int64)."""
    y, x = np.mgrid[0:height, 0:width] / float(max(height, width))
    image = np.full((height, width), MAXVAL_10BIT / 2.0)
    for _ in range(6):
        fy, fx = rng.uniform(0.0, 6.0, 2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        image += rng.uniform(20.0, 120.0) * np.cos(2.0 * np.pi * (fy * y + fx * x) + phase)
    image += rng.normal(0.0, 12.0, image.shape)
    return np.clip(np.rint(image), 0, MAXVAL_10BIT).astype(np.int64)


def pgm_bytes(samples: np.ndarray, binary: bool, maxval: int = MAXVAL_10BIT) -> bytes:
    """Encode a 2-D integer array as P5 (big-endian 16-bit) or P2 (ASCII)."""
    height, width = samples.shape
    header = f"{'P5' if binary else 'P2'}\n{width} {height}\n{maxval}\n".encode("ascii")
    if binary:
        return header + samples.astype(">u2" if maxval > 255 else "u1").tobytes()
    rows = "\n".join(" ".join(str(int(v)) for v in row) for row in samples)
    return header + rows.encode("ascii") + b"\n"
