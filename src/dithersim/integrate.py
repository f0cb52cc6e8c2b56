"""Fixed-step integration and the word-series one-step scheme.

Two explicit integrators are provided: first-order Euler (the "ode1"
stepping used for the dithered closed loops) and classical RK4 as the
reference solver. `simulate` drives either one at a constant step and
returns a Trajectory; the final step is shortened so the last sample
lands exactly on t_f. Numerical blow-up never raises out of the driver:
the trajectory is truncated at the last finite sample and the failure is
recorded on the Trajectory itself.

`chen_fliess_step` advances the closed-loop state over whole dither
periods using the precomputed series table in `cftable`, and
`chen_fliess_simulate` iterates it. At order 1 the step reproduces one
Euler step of the averaged system exactly; see `cftable` for the row
selection semantics.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .cftable import Mono, rows_for_order
from .dynamics import InputFn, PlantParams, Rhs2, State

__all__ = [
    "Method",
    "Trajectory",
    "euler_step",
    "rk4_step",
    "simulate",
    "chen_fliess_step",
    "chen_fliess_simulate",
]

class Method(enum.Enum):
    """Fixed-step integration method."""

    EULER = "euler"
    RK4 = "rk4"

    @classmethod
    def from_name(cls, name: str) -> "Method":
        """Resolve a method name; "ode1" is accepted as an Euler alias."""
        key = name.strip().lower()
        if key == "ode1":
            return cls.EULER
        try:
            return cls(key)
        except ValueError:
            raise ValueError(
                f"unknown method {name!r} (expected 'euler', 'ode1' or 'rk4')"
            ) from None


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of a two-state system.

    times, ys, ks are equal-length 1-D float arrays holding only finite
    values. us is the applied input at each sample, or None for systems
    without an explicit input (averaged dynamics, series stepping).

    Sampling is uniform: all interior steps equal the first step to
    1e-12 relative to the span, and only the final step may be shorter
    (the driver shortens it to land exactly on the requested end time).

    A run that blew up is truncated at the last finite sample and
    carries status "diverged" with failure_step set to the 1-based index
    of the step whose result was rejected.
    """

    times: np.ndarray
    ys: np.ndarray
    ks: np.ndarray
    us: np.ndarray | None = None
    meta: dict = field(default_factory=dict)
    status: str = "ok"
    failure_step: int | None = None

    def __post_init__(self) -> None:
        for name in ("times", "ys", "ks"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"Trajectory: {name} must be 1-D")
            object.__setattr__(self, name, arr)
        if self.us is not None:
            object.__setattr__(self, "us", np.asarray(self.us, dtype=float))
        n = len(self.times)
        if n == 0:
            raise ValueError("Trajectory: at least one sample required")
        for name in ("ys", "ks", "us"):
            arr = getattr(self, name)
            if arr is not None and len(arr) != n:
                raise ValueError(f"Trajectory: {name} length {len(arr)} != {n}")
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValueError(f"Trajectory: {name} contains non-finite values")
        if not np.all(np.isfinite(self.times)):
            raise ValueError("Trajectory: times contain non-finite values")
        self._check_spacing()
        if self.status not in ("ok", "diverged"):
            raise ValueError(f"Trajectory: unknown status {self.status!r}")
        if (self.failure_step is None) != (self.status == "ok"):
            raise ValueError("Trajectory: failure_step must be set iff diverged")

    def _check_spacing(self) -> None:
        d = np.diff(self.times)
        if d.size == 0:
            return
        if np.any(d <= 0.0):
            raise ValueError("Trajectory: times must be strictly increasing")
        step = float(d[0])
        # Samples are formed as t0 + i*h, so diffs wobble at the
        # rounding scale of the timestamp magnitude, not of the step.
        mag = max(abs(float(self.times[0])), abs(float(self.times[-1])))
        tol = 1e-12 * max(1.0, mag, step)
        if d.size >= 2 and np.max(np.abs(d[:-1] - step)) > tol:
            raise ValueError("Trajectory: interior step is not constant")
        if float(d[-1]) > step + tol:
            raise ValueError("Trajectory: final step exceeds the interior step")

    def __len__(self) -> int:
        return len(self.times)

    def state(self, i: int) -> State:
        return State(float(self.ys[i]), float(self.ks[i]))

    @property
    def final_state(self) -> State:
        return self.state(-1)

    @property
    def diverged(self) -> bool:
        return self.status == "diverged"

    def write_csv(self, path: str | Path) -> Path:
        """Write samples as CSV with header t,y,k,u.

        Floats are rendered with repr for exact round-trips; the u
        column is left empty when the run carries no input. Output is
        byte-deterministic for identical trajectories.
        """
        columns = [self.times, self.ys, self.ks]
        if self.us is not None:
            columns.append(self.us)
        return _write_csv(path, ("t", "y", "k", "u"), columns)

    @property
    def record(self) -> dict:
        """The run descriptor plus the outcome fields status, failure_step
        and n_samples."""
        return {
            **self.meta,
            "status": self.status,
            "failure_step": self.failure_step,
            "n_samples": len(self.times),
        }

    def write_meta(self, path: str | Path) -> Path:
        """Write `record` as JSON."""
        path = Path(path)
        path.write_text(json.dumps(self.record, sort_keys=True, indent=2) + "\n")
        return path

    def save(self, csv_path: str | Path) -> tuple[Path, Path]:
        """Write the CSV and its JSON sidecar (same stem, .json suffix)."""
        csv_path = Path(csv_path)
        meta_path = csv_path.with_suffix(".json")
        return self.write_csv(csv_path), self.write_meta(meta_path)


def _write_csv(path: str | Path, header: Sequence[str], columns: Sequence) -> Path:
    """Write equal-length float columns as CSV, one row per index.

    Floats are rendered with repr for exact round-trips. Header names past
    the given columns get empty cells, so each row then ends in commas.
    """
    pad = "," * (len(header) - len(columns))
    rows = zip(*[np.asarray(c, dtype=float).tolist() for c in columns])
    lines = [",".join(header), *(",".join(map(repr, row)) + pad for row in rows)]
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path


def _trajectory(
    times: list, ys: list, ks: list, meta: dict, failure_step: int | None, us: list | None = None
) -> Trajectory:
    """Assemble a stepper's samples; failure_step set marks the run diverged."""
    status = "ok" if failure_step is None else "diverged"
    return Trajectory(times, ys, ks, us, meta, status, failure_step)


# -- one-step integrators ------------------------------------------------------


def euler_step(
    rhs: Rhs2, s: tuple[float, float], t: float, h: float
) -> tuple[float, float]:
    """One explicit Euler step of size h from state s at time t."""
    dy, dk = rhs(s, t)
    return (s[0] + h * dy, s[1] + h * dk)


def rk4_step(
    rhs: Rhs2, s: tuple[float, float], t: float, h: float
) -> tuple[float, float]:
    """One classical Runge-Kutta step of size h from state s at time t."""
    y, k = s
    a1, b1 = rhs(s, t)
    h2 = 0.5 * h
    a2, b2 = rhs((y + h2 * a1, k + h2 * b1), t + h2)
    a3, b3 = rhs((y + h2 * a2, k + h2 * b2), t + h2)
    a4, b4 = rhs((y + h * a3, k + h * b3), t + h)
    sixth = h / 6.0
    return (
        y + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
        k + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
    )


_STEPPERS = {Method.EULER: euler_step, Method.RK4: rk4_step}


def _as_pair(s0: State | Sequence[float]) -> tuple[float, float]:
    if isinstance(s0, State):
        return s0.as_tuple()
    y, k = (float(v) for v in s0)
    if not (math.isfinite(y) and math.isfinite(k)):
        raise ValueError("initial state must be finite")
    return (y, k)


def simulate(
    rhs: Rhs2,
    s0: State | Sequence[float],
    t0: float,
    t_f: float,
    h: float,
    method: Method | str = Method.RK4,
    *,
    input_fn: InputFn | None = None,
    meta: Mapping[str, object] | None = None,
) -> Trajectory:
    """Integrate rhs from s0 over [t0, t_f] at constant step h.

    The last step is shortened so the final sample lands exactly on
    t_f. If a step produces a non-finite state the trajectory is
    truncated at the last finite sample, status is set to "diverged"
    and failure_step records the offending step (1-based); nothing is
    raised. When input_fn is given it is evaluated at every stored
    sample and recorded as the u column.

    t_f == t0 yields a single-sample trajectory.
    """
    if isinstance(method, str):
        method = Method.from_name(method)
    stepper = _STEPPERS[method]
    if not (math.isfinite(t0) and math.isfinite(t_f)):
        raise ValueError("simulate: t0 and t_f must be finite")
    if t_f < t0:
        raise ValueError("simulate: t_f must not precede t0")
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError("simulate: h must be positive")
    span = t_f - t0
    if span > 0.0 and h > span * (1.0 + 1e-12):
        raise ValueError("simulate: h must not exceed t_f - t0")

    s = _as_pair(s0)
    times = [t0]
    ys = [s[0]]
    ks = [s[1]]
    failure_step: int | None = None

    if span > 0.0:
        # Nudge before flooring so an exactly-divisible span is not
        # undercounted by one step through rounding in the division.
        n_full = int(math.floor(span / h * (1.0 + 1e-12)))
        rem = span - n_full * h
        has_partial = rem > 1e-9 * h
        total = n_full + (1 if has_partial else 0)
        for i in range(1, total + 1):
            if i <= n_full:
                t_prev = t0 + (i - 1) * h
                t_next = t_f if (i == n_full and not has_partial) else t0 + i * h
                s = stepper(rhs, s, t_prev, h)
            else:
                t_prev = t0 + n_full * h
                t_next = t_f
                s = stepper(rhs, s, t_prev, t_f - t_prev)
            if not (math.isfinite(s[0]) and math.isfinite(s[1])):
                failure_step = i
                break
            times.append(t_next)
            ys.append(s[0])
            ks.append(s[1])

    us = None
    if input_fn is not None:
        us = [input_fn((ys[i], ks[i]), times[i]) for i in range(len(times))]

    run_meta = dict(meta or {})
    run_meta.update({"method": method.value, "h": h, "t0": t0, "tf": t_f})
    return _trajectory(times, ys, ks, run_meta, failure_step, us)


# -- whole-period series stepping ----------------------------------------------


def _mono_value(m: Mono, b: float, y: float, rho: float, T: float, wT: float) -> float:
    v = float(m.c) * b**m.eb * y**m.ey * rho**m.er * T ** float(m.eT)
    if m.e2pi:
        v *= wT ** float(m.e2pi)
    return v


def _check_periods(periods: int) -> None:
    if isinstance(periods, bool) or not isinstance(periods, int) or periods < 1:
        raise ValueError("periods must be a positive integer")


def chen_fliess_step(
    p: PlantParams,
    s0: State,
    T: float,
    order: int,
    *,
    periods: int = 1,
    drift_taylor: bool = False,
) -> State:
    """Advance the dithered closed loop by T using the series table.

    T must span exactly `periods` whole dither cycles, i.e. the implied
    frequency is 2*pi*periods/T; the tabulated closed forms are only
    valid on whole periods, so sub-period steps are rejected by
    construction (there is no way to express one here). Contributions
    are summed with compensated summation per component.

    order selects rows by word length; drift_taylor additionally
    includes the pure-drift Taylor rows (see `cftable.rows_for_order`).
    """
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError("chen_fliess_step: T must be positive")
    _check_periods(periods)
    rows = rows_for_order(order, drift_taylor=drift_taylor)
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


def chen_fliess_simulate(
    p: PlantParams,
    s0: State,
    omega: float,
    periods_per_step: int,
    n_steps: int,
    order: int,
    *,
    drift_taylor: bool = False,
) -> Trajectory:
    """Iterate chen_fliess_step from t = 0 with T = 2*pi*periods_per_step/omega.

    Each step re-centers the closed forms at its own start, which is
    exact because the dithers are 2*pi-periodic and every step spans
    whole periods. States growing past 1e9 in either component (or
    overflowing) truncate the trajectory with a divergence record.

    n_steps = 0 yields a single-sample trajectory.
    """
    if not (math.isfinite(omega) and omega > 0.0):
        raise ValueError("chen_fliess_simulate: omega must be positive")
    _check_periods(periods_per_step)
    if isinstance(n_steps, bool) or not isinstance(n_steps, int) or n_steps < 0:
        raise ValueError("chen_fliess_simulate: n_steps must be a nonnegative integer")
    rows_for_order(order, drift_taylor=drift_taylor)  # validate order up front

    T = math.tau * periods_per_step / omega
    s = s0
    times = [0.0]
    ys = [s.y]
    ks = [s.k]
    failure_step: int | None = None
    for i in range(1, n_steps + 1):
        # Preconditions were validated above, so an in-loop ValueError
        # can only come from a non-finite result (State rejects it).
        try:
            s = chen_fliess_step(
                p, s, T, order, periods=periods_per_step, drift_taylor=drift_taylor
            )
        except (OverflowError, ValueError):
            failure_step = i
            break
        if max(abs(s.y), abs(s.k)) > 1e9:
            failure_step = i
            break
        times.append(i * T)
        ys.append(s.y)
        ks.append(s.k)

    meta = {
        "scheme": "series",
        "order": order,
        "omega": omega,
        "periods_per_step": periods_per_step,
        "n_steps": n_steps,
        "drift_taylor": drift_taylor,
        "a": p.a,
        "b": p.b,
        "y0": s0.y,
        "k0": s0.k,
        "h": T,
        "t0": 0.0,
        "tf": n_steps * T,
    }
    return _trajectory(times, ys, ks, meta, failure_step)
