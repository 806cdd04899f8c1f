"""Machine-speed calibration for the benchmark's timings.

The machine the benchmark was built on is shared: over minutes its speed
drifts by 15-20 % and more within seconds, and CPU time drifts with wall
time, so the drift is the processor's speed and not waiting. A command's
time divided by the time of a fixed calibration kernel, taken just before
and just after it, is steadier; multiplied by CALIBRATION_REF_S it reads as
seconds on a machine where the kernel takes that long. The kernel is a fixed
mix of pure-Python arithmetic, LAPACK eigensolves of 16, 101 and 201 points
and the assembly of a 201-point Gaussian kernel from an outer product of
exponentials, the kinds of work entloc's commands do, and shares no code
with entloc. The assembly writes fresh 201 x 201 arrays, so the kernel feels
the machine's memory speed as the one-party map cells do.
"""

from __future__ import annotations

import time

import numpy as np

# Calibration seconds on the reference machine (2-core x86-64 VM, see README.md).
CALIBRATION_REF_S = 0.06


class Calibration:
    """The calibration kernel; build once, then time it with `seconds`."""

    def __init__(self):
        rng = np.random.default_rng(12345)

        def sym(n):
            a = rng.standard_normal((n, n))
            return a + a.T
        self.small = [sym(16) for _ in range(64)]
        self.medium = sym(101)
        self.large = sym(201)
        self.points = np.linspace(-4.0, 4.0, 201)

    def seconds(self) -> float:
        start = time.perf_counter()
        for _ in range(4):
            for a in self.small:
                np.linalg.eigvalsh(a)
            for _ in range(4):
                np.linalg.eigvalsh(self.medium)
            np.linalg.eigvalsh(self.large)
            x = self.points
            for _ in range(2):
                kernel = np.exp(-0.3 * (x[:, None] ** 2 + x[None, :] ** 2)
                                + 0.2 * x[:, None] * x[None, :])
                np.linalg.eigvalsh(kernel)
            total = 0.0
            for i in range(40000):
                total += (i % 7) * 0.5 - (i % 3)
        return time.perf_counter() - start


def scales(calibrations: list[float]) -> list[float]:
    """Factor for each span between consecutive calibrations: the reference
    time over the mean of the two calibrations around the span."""
    return [CALIBRATION_REF_S / (0.5 * (before + after))
            for before, after in zip(calibrations, calibrations[1:])]
