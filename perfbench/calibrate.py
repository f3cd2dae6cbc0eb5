"""Host-speed calibration: a fixed kernel timed between ops.

The shared 2-vCPU host this benchmark was tuned on changes speed by up to
1.7x over seconds to minutes; thread CPU time slows alike, so the guest
cannot see it as descheduling. The same change slows a kernel that runs no
orthogen code, which no change to the program can move. A phase takes a
burst of kernel timings every ``INTERVAL_S`` of its time, and each op's
latency is scaled by the kernel's reference time over the median kernel
time of the ``NEAREST`` samples nearest to it in time: its latency at the
reference speed. On a host where the kernel takes its reference time, that
is the raw latency.

Two kernels, each tracking one kind of op (3 s windows over 100-120 s on
the tuning host):

- ``kernel`` mixes the work the in-process workloads spend their time on:
  exact Python sums over small NumPy vectors (``core``), a small
  partial-pivoting elimination (``linsolve``) and fixed-precision text
  rendering and parsing (``io``). A build-large op spread 1.54x raw and
  1.20x calibrated; a block-codec op 1.67x and 1.43x.
- ``spawn`` starts a bare interpreter, for the one-process-per-op CLI
  workload: a CLI op spread 1.50x raw and 1.25x calibrated, where ``kernel``
  tracked it worse than no calibration.
"""

from __future__ import annotations

import math
import subprocess
import sys
from time import perf_counter_ns

import numpy as np

# Reference times, round figures within the range each kernel takes on the
# tuning host (2 vCPUs, Python 3.11, NumPy 2.4, OpenBLAS on one thread):
# ``kernel`` 0.7-1.35 ms, ``spawn`` 10-19 ms between its fast and slow spells.
KERNEL_REF_MS = 1.0
SPAWN_REF_MS = 15.0
BURST = 3
INTERVAL_S = 0.25
NEAREST = 15

_rng = np.random.default_rng(20210114)
_VECTORS = [_rng.random(24) for _ in range(24)]
_MATRIX = _rng.random((24, 24)) + 24.0 * np.eye(24)
_FLOATS = _rng.random(64)


def kernel() -> float:
    total = 0.0
    for v in _VECTORS:
        for w in _VECTORS[:8]:
            total += math.fsum((v * w).tolist())
    a = _MATRIX.copy()
    for k in range(len(a) - 1):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        a[[k, p]] = a[[p, k]]
        factors = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k + 1 :] -= np.outer(factors, a[k, k + 1 :])
    text = ",".join(f"{v:.7f}" for v in _FLOATS)
    for _ in range(3):
        total += math.fsum(float(cell) for cell in text.split(","))
    return total + float(a[-1, -1])


def spawn() -> None:
    """Start a bare interpreter, without site imports, and wait for it."""
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)


class Calibration:
    """Kernel timings taken between the ops of one phase."""

    def __init__(self, run=kernel, ref_ms: float = KERNEL_REF_MS) -> None:
        self.run = run
        self.ref_ms = ref_ms
        self.at_ns: list[int] = []
        self.ms: list[float] = []
        self._due_ns = 0
        for _ in range(BURST):
            run()

    def between_ops(self) -> float:
        """Take a burst if one is due; return the seconds it took."""
        start = perf_counter_ns()
        if start < self._due_ns:
            return 0.0
        t1 = start
        for _ in range(BURST):
            t0 = perf_counter_ns()
            self.run()
            t1 = perf_counter_ns()
            self.at_ns.append((t0 + t1) // 2)
            self.ms.append((t1 - t0) / 1e6)
        self._due_ns = t1 + int(INTERVAL_S * 1e9)
        return (t1 - start) / 1e9

    def local_ms(self) -> np.ndarray:
        """Per calibration sample: the median of the NEAREST samples around it."""
        ms = np.array(self.ms)
        half = NEAREST // 2
        return np.array([np.median(ms[max(0, i - half) : i + half + 1]) for i in range(len(ms))])

    def factors(self, mid_ns: np.ndarray) -> np.ndarray:
        """The reference time over the local kernel time nearest to each time in ``mid_ns``."""
        at = np.array(self.at_ns)
        index = np.clip(np.searchsorted(at, mid_ns), 1, len(at) - 1)
        index -= (mid_ns - at[index - 1]) < (at[index] - mid_ns)
        return self.ref_ms / self.local_ms()[index]
