"""Host-speed calibration for the benchmark's end-to-end times.

On a shared host the speed of the same code drifts by up to a factor of
two over tens of seconds, which moves the median of a 20-second run by
20-35% from one run to the next. So every timed stretch is bracketed by
two measurements of fixed reference work of the same kind, and its wall
time is multiplied by `scale`: the reference work's nominal time over the
mean of the two measurements. A reported second is then a second on a
host where the reference work takes its nominal time.

* An iteration runs in this process and is bracketed by passes of
  `calibration_loop`, whose nominal time is CALIBRATION_REF_S.
* A set-up process mostly loads modules, which speeds up and slows down
  less than interpreter loops do. It is bracketed by fresh interpreters
  running REFERENCE_IMPORT, whose nominal time is REFERENCE_IMPORT_S.
"""

from __future__ import annotations

import time

CALIBRATION_REF_S = 0.010
REFERENCE_IMPORT = "import numpy, scipy.integrate, yaml"
REFERENCE_IMPORT_S = 0.75


def calibration_loop(steps: int = 12_000) -> int:
    """Fixed interpreter work: a small Euler loop through a closure, with
    tuple packing and float formatting like dithersim's own hot paths."""

    def rhs(s: tuple[float, float], t: float) -> tuple[float, float]:
        y, k = s
        return (-(1.0 + k) * y + 0.1 * t, y * y)

    s = (1.0, 0.0)
    rows = []
    for i in range(steps):
        t = (i & 63) * 0.015625
        dy, dk = rhs(s, t)
        s = (s[0] + 1e-4 * dy, s[1] + 1e-4 * dk)
        if not i & 7:
            rows.append(f"{t!r},{s[0]!r},{s[1]!r}")
    return len("\n".join(rows))


def calibrate() -> float:
    """Seconds one calibration_loop pass takes now."""
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


def scale(before: float, after: float, nominal: float = CALIBRATION_REF_S) -> float:
    """Factor that turns a wall time measured between two runs of reference
    work into seconds at the reference host speed."""
    return 2.0 * nominal / (before + after)


def timed(fn) -> tuple[object, float, float]:
    """Call fn(); return its result, its wall time and its scale."""
    before = calibrate()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, wall, scale(before, calibrate())
