"""Shared helpers for the test suite."""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

# Property tests that call the rational oracle take up to a few hundred ms
# per example: no per-example deadline and a fixed example count.
settings.register_profile("orthogen", deadline=None, max_examples=50)
settings.load_profile("orthogen")


def random_values(rng, m, min_gap=1e-3, low=0.001, high=1.0):
    """Draw m values in (0, 1] with pairwise relative spacing >= min_gap."""
    while True:
        vals = rng.uniform(low, high, m)
        if m == 1:
            return vals
        gaps = np.abs(vals[:, None] - vals[None, :]) + np.eye(m)
        if gaps.min() >= min_gap:
            return vals


@st.composite
def value_sets(draw, max_m=8, min_gap=1e-3):
    """Strategy: 1..max_m values in [min_gap, 1], neighbours at least min_gap
    apart (up to rounding), shifted anywhere in that range so that tight
    clusters far from zero occur, in arbitrary order."""
    m = draw(st.integers(1, max_m))
    steps = draw(st.lists(st.floats(min_gap, 1.0 / max_m), min_size=m, max_size=m))
    values = np.cumsum(steps)
    values = values + draw(st.floats(0.0, 1.0 - values[-1]))
    return values[draw(st.permutations(range(m)))]


def half_rows(entries, values):
    """A 2m x 2m matrix's rows at the positive values, and those values over
    their max, in its right half's column order: what ``fidelity`` reads."""
    values = np.asarray(values, dtype=float)
    return entries[:, values.size :], values[::-1] / values.max()
