"""Named value sequences for well-known and experimental transforms.

Every preset returns the m = n/2 positive generator values in descending
order, which lines the matrix columns up with the conventional published
table layouts.
"""

from __future__ import annotations

import numpy as np

from .errors import OddSizeError, UnknownPresetError

PRESETS = ("dct", "dtt", "triangular", "prime", "fibonacci")


def _first_primes(count: int) -> list[int]:
    # Trial division; count is m = n/2, small at every size the fidelity check passes.
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _first_fibonacci(count: int) -> list[int]:
    # Distinct values only: 1, 2, 3, 5, 8, ...
    fibs = [1, 2]
    while len(fibs) < count:
        fibs.append(fibs[-1] + fibs[-2])
    return fibs[:count]


def preset_values(name: str, size: int) -> np.ndarray:
    """Generator values for a named preset and an even matrix size.

    dct:        cos((2k+1)*pi/(2n)), the positive Chebyshev roots
    dtt:        the arithmetic sequence (2k+1)/n on (0, 1)
    triangular: 1, 3, 6, 10, ...
    prime:      2, 3, 5, 7, ...
    fibonacci:  1, 2, 3, 5, ...
    """
    if size < 2 or size % 2 != 0:
        raise OddSizeError(f"matrix size must be an even number >= 2, got {size}")
    m = size // 2
    if name == "dct":
        k = np.arange(m)
        return np.cos((2 * k + 1) * np.pi / (2 * size))
    if name == "dtt":
        return np.arange(size - 1, 0, -2) / size
    if name == "triangular":
        j = np.arange(m, 0, -1)
        return j * (j + 1) / 2.0
    if name == "prime":
        return np.array(_first_primes(m)[::-1], dtype=float)
    if name == "fibonacci":
        return np.array(_first_fibonacci(m)[::-1], dtype=float)
    raise UnknownPresetError(f"unknown preset {name!r}; expected one of {', '.join(PRESETS)}")
