"""Test-only reference for `chen_fliess_step`: the Fraction-evaluating path.

`chen_fliess_step` converts the exact rows to float once per run and takes
the factors a run holds fixed once. This module keeps the plain path: it
selects the exact rows with `rows_for_order` and converts every
monomial's Fraction fields to float on every step, so tests can assert
that the stepper reproduces it bit for bit, exceptions included.
"""

from __future__ import annotations

import math

from dithersim.cftable import Mono, rows_for_order
from dithersim.dynamics import PlantParams, State
from dithersim.integrate import _check_periods


def _mono_value(m: Mono, b: float, y: float, rho: float, T: float, wT: float) -> float:
    v = float(m.c) * b**m.eb * y**m.ey * rho**m.er * T ** float(m.eT)
    if m.e2pi:
        v *= wT ** float(m.e2pi)
    return v


def chen_fliess_step(
    p: PlantParams,
    s0: State,
    T: float,
    order: int,
    *,
    periods: int = 1,
) -> State:
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError("chen_fliess_step: T must be positive")
    _check_periods(periods)
    rows = rows_for_order(order)
    y0, k0 = s0.y, s0.k
    b = p.b
    rho = p.a - p.b * k0
    wT = math.tau * periods
    dy_parts: list[float] = []
    dk_parts: list[float] = []
    for term in rows:
        for m in term.y_terms:
            dy_parts.append(_mono_value(m, b, y0, rho, T, wT))
        for m in term.k_terms:
            dk_parts.append(_mono_value(m, b, y0, rho, T, wT))
    return State(y0 + math.fsum(dy_parts), k0 + math.fsum(dk_parts))
