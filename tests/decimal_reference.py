"""A certified reference matrix in stdlib ``decimal``, fast enough for n = 128.

``decimal_matrix`` runs the generator's recurrence on the m positive values:
row g is y times the unit row g-1, with its projections on the lower
same-parity unit rows taken out twice, then scaled to unit length. A row's
samples at -y equal its samples at +y up to the sign (-1)^g, so every inner
product over the 2m points is twice the sum over the m positive ones. Each
double enters exactly as ``Decimal(v)``. The run is made at 40 and at 80
digits, and the result is returned only if the two agree within 1e-30.

No Decimal is negated: unary minus rounds to the context precision, so a
negated exact value would no longer mirror its positive twin. The mirror is
applied to the doubles after rounding.
"""

from decimal import Decimal, localcontext
from operator import mul

import numpy as np

AGREEMENT = Decimal("1e-30")


def _unit_rows(values, digits):
    with localcontext() as ctx:
        ctx.prec = digits
        y = [Decimal(float(v)) for v in values]
        rows = []
        for g in range(2 * len(y)):
            v = list(map(mul, y, rows[g - 1])) if g else [Decimal(1)] * len(y)
            for _ in range(2):
                for q in rows[g % 2 :: 2]:
                    c = 2 * sum(map(mul, q, v))
                    v = [a - c * b for a, b in zip(v, q)]
            norm = (2 * sum(map(mul, v, v))).sqrt()
            rows.append([a / norm for a in v])
    return rows


def decimal_matrix(values) -> np.ndarray:
    """The 2m x 2m matrix of ``values`` in the generator's column layout,
    rounded to double; raises ArithmeticError when the 40- and 80-digit runs
    differ by more than 1e-30."""
    coarse, fine = _unit_rows(values, 40), _unit_rows(values, 80)
    with localcontext() as ctx:
        ctx.prec = 80
        gap = max(abs(a - b) for p, q in zip(coarse, fine) for a, b in zip(p, q))
    if gap > AGREEMENT:
        raise ArithmeticError(f"40- and 80-digit runs differ by {gap:.2e}")
    half = np.array([[float(a) for a in row] for row in fine])
    m = half.shape[1]
    entries = np.empty((2 * m, 2 * m))
    entries[:, :m] = half
    entries[1::2, :m] *= -1.0
    entries[:, m:] = half[:, ::-1]
    return entries
