"""Fixed-step integration and the word-series one-step scheme.

Two explicit integrators are provided: first-order Euler (the "ode1"
stepping used for the dithered closed loops) and classical RK4 as the
reference solver. `simulate` drives either one at a constant step and
returns a Trajectory; the final step is shortened so the last sample
lands exactly on t_f.

`chen_fliess_step` advances the closed-loop state over whole dither
periods using the precomputed series table in `cftable`, and
`chen_fliess_simulate` iterates it through the same loop as `simulate`.
At order 1 the step reproduces one Euler step of the averaged system
exactly; see `cftable` for the row selection semantics. Blow-up never
raises out of that loop: a step that overflows or leaves |y| or |k|
above 1e9 or non-finite ends the run, recorded on the truncated Trajectory.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .cftable import FloatMono, _float_terms
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

    A run that blew up -- a step raised OverflowError or left |y| or |k|
    above 1e9 or non-finite -- is truncated at the last accepted sample
    and carries status "diverged" with failure_step set to the 1-based
    index of the step whose result was rejected.
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
        return _write_json(self.record, path)

    def save(self, csv_path: str | Path) -> tuple[Path, Path]:
        """Write the CSV and its JSON sidecar (same stem, .json suffix)."""
        csv_path = Path(csv_path)
        meta_path = csv_path.with_suffix(".json")
        return self.write_csv(csv_path), self.write_meta(meta_path)


_CSV_BLOCK_ROWS = 4096  # rows formatted per write in `_write_csv`


def _write_csv(path: str | Path, header: Sequence[str], columns: Sequence) -> Path:
    """Write equal-length float columns as CSV, one row per index.

    Floats are rendered with repr for exact round-trips. Header names past
    the given columns get empty cells, so each row then ends in commas.
    """
    pad = "," * (len(header) - len(columns))
    columns = [np.asarray(c, dtype=float).tolist() for c in columns]
    n = min(map(len, columns), default=0)
    path = Path(path)
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        # Formatting a column at a time is cheaper than joining row tuples;
        # a block of rows at a time keeps the formatted cells few.
        for start in range(0, n, _CSV_BLOCK_ROWS):
            cells = [list(map(repr, c[start : start + _CSV_BLOCK_ROWS])) for c in columns]
            if pad:
                cells[-1] = [c + pad for c in cells[-1]]
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")
    return path


def _write_json(doc: dict, path: str | Path) -> Path:
    """Write doc as indented JSON with sorted keys."""
    path = Path(path)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


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


def _whole_steps(span: float, h: float) -> int:
    """Number of whole steps of size h in span. The nudge before flooring keeps
    an exactly divisible span from losing a step to rounding in the division."""
    return int(math.floor(span / h * (1.0 + 1e-12)))


def _march(
    step: Callable,
    rhs: Rhs2 | None,
    s: tuple[float, float],
    t0: float,
    t_f: float,
    h: float,
    meta: dict,
    input_fn: InputFn | None = None,
) -> Trajectory:
    """The fixed-step loop s = step(rhs, s, t, dt) of `simulate` and
    `chen_fliess_simulate`, with the rules `simulate` documents. The 1e9
    bound is a chained comparison, cheaper than abs() and false for NaN."""
    span = t_f - t0
    n_full = _whole_steps(span, h)
    total = n_full + (1 if span - n_full * h > 1e-9 * h else 0)
    times = [t0]
    ys = [s[0]]
    ks = [s[1]]
    failure_step: int | None = None
    for i in range(1, total + 1):
        t_prev = t0 + (i - 1) * h
        try:
            s = step(rhs, s, t_prev, h if i <= n_full else t_f - t_prev)
        except OverflowError:
            s = (math.nan, math.nan)
        y, k = s
        if not (-1e9 <= y <= 1e9 and -1e9 <= k <= 1e9):
            failure_step = i
            break
        times.append(t_f if i == total else t0 + i * h)
        ys.append(y)
        ks.append(k)

    us = None
    if input_fn is not None:
        us = [input_fn((ys[i], ks[i]), times[i]) for i in range(len(times))]
    meta = {**meta, "h": h, "t0": t0, "tf": t_f}
    status = "ok" if failure_step is None else "diverged"
    return Trajectory(times, ys, ks, us, meta, status, failure_step)


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
    t_f. A step that raises OverflowError, or whose new state has |y| or
    |k| above 1e9 or non-finite, ends the run: the trajectory is
    truncated at the last accepted sample, status is set to "diverged"
    and failure_step records the offending step (1-based); nothing is
    raised. When input_fn is given it is evaluated at every stored
    sample and recorded as the u column.

    t_f == t0 yields a single-sample trajectory.
    """
    if isinstance(method, str):
        method = Method.from_name(method)
    if not (math.isfinite(t0) and math.isfinite(t_f)):
        raise ValueError("simulate: t0 and t_f must be finite")
    if t_f < t0:
        raise ValueError("simulate: t_f must not precede t0")
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError("simulate: h must be positive")
    if t_f > t0 and h > (t_f - t0) * (1.0 + 1e-12):
        raise ValueError("simulate: h must not exceed t_f - t0")
    run_meta = {**(meta or {}), "method": method.value}
    return _march(_STEPPERS[method], rhs, _as_pair(s0), t0, t_f, h, run_meta, input_fn)


# -- whole-period series stepping ----------------------------------------------


def _monomial_values(
    monos: tuple[FloatMono, ...], b: float, y: float, rho: float, T: float, wT: float
) -> list[float]:
    """c * b^eb * y^ey * rho^er * T^eT per monomial, times (omega*T)^e2pi
    where e2pi is nonzero."""
    values = []
    for c, eb, ey, er, eT, e2pi in monos:
        v = c * b**eb * y**ey * rho**er * T**eT
        if e2pi:
            v *= wT**e2pi
        values.append(v)
    return values


def _check_periods(periods: int) -> None:
    if isinstance(periods, bool) or not isinstance(periods, int) or periods < 1:
        raise ValueError("periods must be a positive integer")


def chen_fliess_step(
    p: PlantParams,
    s0: State | Sequence[float],
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
    construction (there is no way to express one here). The monomials
    come from the float form of the table, derived once from the exact
    rows (see `cftable`); contributions are summed with compensated
    summation per component.

    s0 is a State or a finite (y, k) pair, as for `simulate`. order
    selects rows by word length; drift_taylor additionally includes the
    pure-drift Taylor rows (see `cftable.rows_for_order`).
    """
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError("chen_fliess_step: T must be positive")
    _check_periods(periods)
    y_monos, k_monos = _float_terms(order, drift_taylor)
    y0, k0 = _as_pair(s0)
    b = p.b
    rho = p.a - p.b * k0
    wT = math.tau * periods
    # Every power is taken before either sum, so an OverflowError from a
    # power wins over a failing sum of the other component.
    dy_parts = _monomial_values(y_monos, b, y0, rho, T, wT)
    dk_parts = _monomial_values(k_monos, b, y0, rho, T, wT)
    return State(y0 + math.fsum(dy_parts), k0 + math.fsum(dk_parts))


def chen_fliess_simulate(
    p: PlantParams,
    s0: State | Sequence[float],
    omega: float,
    periods_per_step: int,
    n_steps: int,
    order: int,
    *,
    drift_taylor: bool = False,
) -> Trajectory:
    """Iterate chen_fliess_step from t = 0 with T = 2*pi*periods_per_step/omega.

    s0 is a State or a finite (y, k) pair, as for `simulate`.

    Each step re-centers the closed forms at its own start, which is
    exact because the dithers are 2*pi-periodic and every step spans
    whole periods. Divergence follows `simulate`'s rule: a step that
    overflows, or leaves |y| or |k| above 1e9 or non-finite, truncates
    the trajectory with a divergence record.

    n_steps = 0 yields a single-sample trajectory.
    """
    if not (math.isfinite(omega) and omega > 0.0):
        raise ValueError("chen_fliess_simulate: omega must be positive")
    _check_periods(periods_per_step)
    if isinstance(n_steps, bool) or not isinstance(n_steps, int) or n_steps < 0:
        raise ValueError("chen_fliess_simulate: n_steps must be a nonnegative integer")
    _float_terms(order, drift_taylor)  # validate order up front
    y0, k0 = _as_pair(s0)

    T = math.tau * periods_per_step / omega

    def step(_, s: tuple[float, float], t: float, h: float) -> tuple[float, float]:
        # Preconditions were validated above, so a ValueError here can only
        # come from a non-finite result, which State rejects.
        try:
            nxt = chen_fliess_step(
                p, s, T, order, periods=periods_per_step, drift_taylor=drift_taylor
            )
        except ValueError:
            return (math.nan, math.nan)
        return nxt.as_tuple()

    meta = {
        "scheme": "series",
        "order": order,
        "omega": omega,
        "periods_per_step": periods_per_step,
        "n_steps": n_steps,
        "drift_taylor": drift_taylor,
        "a": p.a,
        "b": p.b,
        "y0": y0,
        "k0": k0,
    }
    # t_f is a whole number of steps, so the driver takes no shortened step.
    return _march(step, None, (y0, k0), 0.0, n_steps * T, T, meta)
