"""Fixed-step integration and the word-series one-step scheme.

Two explicit integrators are provided: first-order Euler (the "ode1"
stepping used for the dithered closed loops) and classical RK4 as the
reference solver. `simulate` drives either one at a constant step and
returns a Trajectory; the final step is shortened so the last sample
lands exactly on t_f. Both methods and the series stepper fill one
whole-run template, which holds the step loop and the divergence rule.
Its Euler and RK4 steps inline the arithmetic of `euler_step` and
`rk4_step`, equal a loop over them bit for bit, and are compiled once per
(method, field) on first use. A closure from `closed_loop` or
`lie_bracket_loop` carries the `FusedField` it was compiled from, which
the kernel inlines with the same compiler, so each step makes no Python
call into the field; when the u column asks for the control of the same
`closed_loop` call, the kernel keeps the u it computes at each step's
start. Any other callable, and so also a wrapper of such a closure, is
called at each stage. A kernel takes its start state and a range of global
step indices, so the driver calls it one block of steps at a time and packs
each block's samples into float64 arrays sized for the whole run; a long
run holds about 32 bytes per sample (t, y, k, u), not a Python float per
value.

`chen_fliess_step` advances the closed-loop state over whole dither
periods using the precomputed series table in `cftable`, through a
straight-line step compiled once per order, and
`chen_fliess_simulate` iterates it through the same template and driver as
`simulate`. At order 1 the step reproduces one Euler step of the averaged
system exactly; see `cftable` for the row selection semantics. Blow-up
never raises out of either: a step that overflows or leaves |y| or |k|
above 1e9 or non-finite ends the run, recorded on the truncated Trajectory.

`_fork_map` runs a command's independent runs in lanes, one per CPU the
process may use: this process runs one lane and a forked child each other.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import os
import pickle
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .cftable import Mono, _check_order, rows_for_order
from .dynamics import FusedField, InputFn, PlantParams, Rhs2, State, _define, _fill

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
        if not isinstance(name, str):
            raise ValueError(f"method name must be a str, not {type(name).__name__}")
        key = name.strip().lower()
        if key == "ode1":
            return cls.EULER
        try:
            return cls(key)
        except ValueError:
            raise ValueError(
                f"unknown method {name!r} (expected 'euler', 'ode1' or 'rk4')"
            ) from None


# A remainder of at most this fraction of a step after the whole steps is
# merged into the last step instead of taken as a step of its own.
_SLIVER = 1e-9


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of a two-state system.

    times, ys, ks and us are equal-length 1-D float arrays holding only
    finite values. us is the applied input at each sample, or None for
    systems without an explicit input (averaged dynamics, series stepping).

    Sampling is uniform: all interior steps equal the first step to
    16 ulps of the larger end time, and only the final step may differ. It
    may be shorter (the driver shortens it to land exactly on the
    requested end time) or longer by at most 1e-9 of a step (the driver
    merges a remainder that small into it).

    A run that blew up -- a step raised OverflowError or left |y| or |k|
    above 1e9 or non-finite -- is truncated at the last accepted sample
    and carries failure_step, the 1-based index of the step whose result
    was rejected, which is the sample count; a completed run carries None.
    status ("ok" or "diverged") and diverged follow from it.
    """

    times: np.ndarray
    ys: np.ndarray
    ks: np.ndarray
    us: np.ndarray | None = None
    meta: dict = field(default_factory=dict)
    failure_step: int | None = None

    def __post_init__(self) -> None:
        n = np.size(self.times)
        for name in ("times", "ys", "ks", "us"):
            if name == "us" and self.us is None:
                continue
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"Trajectory: {name} must be 1-D")
            if len(arr) != n:
                raise ValueError(f"Trajectory: {name} length {len(arr)} != {n}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"Trajectory: {name} contains non-finite values")
            object.__setattr__(self, name, arr)
        if n == 0:
            raise ValueError("Trajectory: at least one sample required")
        self._check_spacing()
        if self.failure_step not in (None, n):
            raise ValueError(f"Trajectory: failure_step must be None or the sample count {n}")

    def _check_spacing(self) -> None:
        d = np.diff(self.times)
        if d.size == 0:
            return
        if np.any(d <= 0.0):
            raise ValueError("Trajectory: times must be strictly increasing")
        step = float(d[0])
        # Samples are formed as t0 + i*h, which `_grid` bounds to 3 ulps of
        # max(|t0|, |t_f|) from the exact time, so two steps differ by at
        # most 12 such ulps; 16 also covers rounding in the differences.
        tol = 16.0 * math.ulp(max(abs(float(self.times[0])), abs(float(self.times[-1]))))
        # The largest |d_i - step| over the interior steps, from their extremes
        # and without a run-length temporary: subtracting step rounds
        # monotonically, so this is the same float.
        if d.size >= 2 and max(d[:-1].max() - step, step - d[:-1].min()) > tol:
            raise ValueError("Trajectory: interior step is not constant")
        if float(d[-1]) > step * (1.0 + _SLIVER) + tol:
            raise ValueError("Trajectory: final step exceeds the interior step")

    def __len__(self) -> int:
        return len(self.times)

    def state(self, i: int) -> State:
        return State(float(self.ys[i]), float(self.ks[i]))

    @property
    def final_state(self) -> State:
        return self.state(-1)

    @property
    def status(self) -> str:
        return "ok" if self.failure_step is None else "diverged"

    @property
    def diverged(self) -> bool:
        return self.failure_step is not None

    def write_csv(self, path: str | Path) -> Path:
        """Write samples as CSV with header t,y,k,u.

        Floats are rendered as `repr` renders them, for exact round-trips;
        the u column is left empty when the run carries no input. Output is
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

    Floats are rendered as `repr` renders them, for exact round-trips.
    Header names past the given columns get empty cells, so each row then
    ends in commas. Columns of unequal length raise ValueError.
    """
    pad = "," * (len(header) - len(columns))
    columns = [np.ascontiguousarray(c, dtype=float) for c in columns]
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"_write_csv: columns differ in length: {lengths}")
    n = lengths[0] if lengths else 0
    width = 2 * len(columns)  # a cell and the separator after it, per column
    path = Path(path)
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        # Formatting a column at a time is cheaper than joining row tuples;
        # a block of rows at a time keeps the formatted cells few. Each block
        # is one flat list of cells and separators, joined once.
        for start in range(0, n, _CSV_BLOCK_ROWS):
            rows = min(_CSV_BLOCK_ROWS, n - start)
            block = [","] * (width * rows)
            block[width - 1 :: width] = [pad + "\n"] * rows
            for j, c in enumerate(columns):
                block[2 * j :: width] = _repr_cells(c[start : start + rows])
            f.write("".join(block))
    return path


def _repr_cells(column: np.ndarray) -> list[str]:
    """The `repr` of each float of a contiguous 1-D float64 array.

    orjson writes the same shortest round-trip digits as `repr`, in C, and
    the same text at 0, for |x| < 1e-9 (two- and three-digit exponents) and
    for 1e-4 <= |x| < 1e16. Only the other cells are rewritten, each with
    the least work that gives repr's bytes:
    - 1e-9 <= |x| < 1e-5: a one-digit exponent (`2.5e-7`) gets its zero;
    - 1e-5 <= |x| < 1e-4: `0.0000d...` moves to `d....e-05`;
    - |x| >= 1e16, inf and nan (`1e16`, `null`): `repr` itself.
    A cell of the first two tiers that orjson spells otherwise (a newer
    orjson may pad the exponent or write the band with one) is left alone
    when it already reads as `repr` and otherwise also takes `repr`.
    """
    # Imported here, so runs that write no CSV (`check`, most library use)
    # pay neither its import time nor its memory.
    import orjson

    cells = orjson.dumps(column, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    a = np.abs(column)
    for i in np.flatnonzero((a >= 1e-9) & (a < 1e-5)).tolist():
        c = cells[i]
        if c[-2] == "-":  # 2.5e-7
            cells[i] = c.replace("e-", "e-0")
        elif c[-3] != "-":  # neither 2.5e-7 nor 2.5e-07
            cells[i] = repr(float(column[i]))
    for i in np.flatnonzero((a >= 1e-5) & (a < 1e-4)).tolist():
        # A cell with an exponent has no "0.0000" and so no digits here; it
        # and a single digit, which takes no point, fall back to repr.
        sign, _, digits = cells[i].partition("0.0000")
        if len(digits) > 1:
            cells[i] = f"{sign}{digits[0]}.{digits[1:]}e-05"
        else:
            cells[i] = repr(float(column[i]))
    for i in np.flatnonzero(~(a < 1e16)).tolist():  # nan compares false
        cells[i] = repr(float(column[i]))
    return cells


def _write_json(doc: dict, path: str | Path) -> Path:
    """Write doc as indented JSON with sorted keys. A non-finite float is
    written as null, since JSON (RFC 8259) has no Infinity or NaN."""
    path = Path(path)
    text = json.dumps(_null_non_finite(doc), sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n")
    return path


def _null_non_finite(node):
    """node with every non-finite float in its dicts, lists and tuples
    replaced by None."""
    if isinstance(node, float):
        return node if math.isfinite(node) else None
    if isinstance(node, dict):
        return {k: _null_non_finite(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_null_non_finite(v) for v in node]
    return node


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


def _as_pair(s0: State | Sequence[float]) -> tuple[float, float]:
    if isinstance(s0, State):
        return s0.as_tuple()
    y, k = map(float, s0)
    if not (math.isfinite(y) and math.isfinite(k)):
        raise ValueError("initial state must be finite")
    return (y, k)


def _start_record(p: PlantParams, y0: float, k0: float) -> dict:
    """The record keys every run shares: the plant and the start."""
    return {"a": p.a, "b": p.b, "y0": y0, "k0": k0}


def _whole_steps(span: float, h: float) -> int:
    """Number of whole steps of size h in span. The nudge before flooring keeps
    an exactly divisible span from losing a step to rounding in the division."""
    return int(math.floor(span / h * (1.0 + 1e-12)))


def _grid(t0: float, t_f: float, h: float) -> tuple[int, bool]:
    """The whole steps of size h from t0 toward t_f and whether a shortened
    step to t_f follows them. ValueError unless h is positive, finite, no
    longer than a positive t_f - t0 and, so that the sample times t0 + i*h
    strictly increase, at least 8 ulps of max(|t0|, |t_f|)."""
    span = t_f - t0
    if not 0.0 < h < math.inf:
        raise ValueError(f"step {h:.3g} is not positive and finite")
    if span > 0.0 and h > span * (1.0 + 1e-12):
        raise ValueError(f"step {h:.3g} exceeds the horizon t_f - t0 = {span:.3g}")
    # Rounding i*h, then t0 + i*h, moves a sample at most 3 of these ulps.
    least = 8.0 * math.ulp(max(abs(t0), abs(t_f)))
    if span > 0.0 and h < least:
        raise ValueError(f"step {h:.3g} is under 8 ulps of max(|t0|, |t_f|), {least:.3g}")
    n_full = _whole_steps(span, h)
    # A remainder that rounds away at t_f is merged into the last step, as a sliver is.
    return n_full, span - n_full * h > _SLIVER * h and t0 + n_full * h < t_f


# -- whole-run kernels ------------------------------------------------------------
#
# A kernel takes the steps i0 <= i < i1 of size h from the state (y, k),
# the i-th (0-based) starting at t0 + i*h, so a run split into blocks of
# steps gives every stage time the bits of one call over the whole run. It
# appends each accepted state to the lists ys and ks and returns whether a
# step was rejected: one that raised what its scheme catches or left |y| or
# |k| above _BOUND or non-finite. That test is a chained comparison with
# _BOUND as a literal, cheaper than abs() and false for NaN. Every kernel is
# `_RUN_TEMPLATE` with its scheme's step, filled by `_kernel`; a line
# holding only {name} stands for the lines of that part.
# The Euler and RK4 steps repeat the arithmetic of `euler_step` or
# `rk4_step` operation for operation, so they equal a loop over those bit
# for bit, and catch only OverflowError: a field's ValueError (the polar
# field at r = 0) reaches the caller. `bind` takes the field's constants,
# each `time` binds its stage's time ts (and, for a dithered field, sn and
# cs at ts), `field` sets dy and dk at (y, k), and `keep1` and `keep` keep
# the u of each accepted step's first stage in `us`. The field of a plain
# callable f is the call `dy, dk = f((y, k), ts)`; a `FusedField` supplies
# its own `bind`, `time` and `field`. The series step is a one-step map
# s -> f(s) that ignores t0 and h; it also catches the ValueError of a
# non-finite `chen_fliess_step`. `_march` packs the lists into float64
# arrays after each call and clears them.

_BOUND = 1e9  # a state with |y| or |k| above this, or non-finite, ends a run

_RUN_TEMPLATE = """\
def run(f, y, k, t0, h, i0, i1, ys, ks, us=None):
    {bind}
    sin, cos, y_append, k_append = _sin, _cos, ys.append, ks.append
    h2, sixth = 0.5 * h, h / 6.0
    for i in range(i0, i1):
        try:
            {step}
        except _caught:
            return True
        if not (-BOUND <= y <= BOUND and -BOUND <= k <= BOUND):
            return True
        y_append(y)
        k_append(k)
        {keep}
    return False
""".replace("BOUND", repr(_BOUND))

# scheme -> (what its step catches, its step)
_STEPS = {
    "euler": (OverflowError, """\
{time0}
{field}
{keep1}
y = y + h * dy
k = k + h * dk
"""),
    "rk4": (OverflowError, """\
t = t0 + i * h
yi, ki = y, k
{time1}
{field}
a1, b1 = dy, dk
{keep1}
y, k = yi + h2 * a1, ki + h2 * b1
{time2}
{field}
a2, b2 = dy, dk
y, k = yi + h2 * a2, ki + h2 * b2
{field}
a3, b3 = dy, dk
y, k = yi + h * a3, ki + h * b3
{time4}
{field}
a4, b4 = dy, dk
y = yi + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
k = ki + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
"""),
    "series": ((OverflowError, ValueError), "y, k = f((y, k))\n"),
}


def _kernel(scheme: str, fused: FusedField | None = None, keep_u: bool = False) -> Callable:
    """The kernel of `scheme` ("euler", "rk4" or "series") for a plain
    callable, or with the field of `fused` inlined, compiled once per filled
    source (see `dynamics._define`). A fused kernel takes the FusedField in
    place of rhs, and with keep_u appends the u at each accepted step's start."""
    if fused is None:
        bind, field = (), ("dy, dk = f((y, k), ts)",)

        def time(t: str) -> tuple[str, ...]:
            return (f"ts = {t}",)

    else:
        bind, field, time = fused.bind, fused.body, fused.time
    caught, step = _STEPS[scheme]
    source = _fill(
        _RUN_TEMPLATE,
        bind=bind,
        step=tuple(step.splitlines()),
        time0=time("t0 + i * h"),
        time1=time("t"),
        time2=time("t + h2"),
        time4=time("t + h"),
        field=field,
        keep1=("u1 = u",) if keep_u else (),
        keep=("us.append(u1)",) if keep_u else (),
    )
    return _define(source, "run", _sin=math.sin, _cos=math.cos, _caught=caught)


_MARCH_BLOCK_STEPS = 4096  # steps per kernel call in `_march`


def _march(
    kernel: Callable,
    rhs: Callable,
    s: tuple[float, float],
    t0: float,
    t_f: float,
    h: float,
    meta: dict,
    input_fn: InputFn | None = None,
    keep_u: bool = False,
) -> Trajectory:
    """Run kernel(rhs, ...) from s over [t0, t_f] with the rules `simulate`
    documents: whole steps of size h, then one shortened step to t_f, on a
    time grid `_grid` accepts. With keep_u, the kernel is a fused one that
    keeps input_fn's value at the start of each accepted step.

    The samples go into float64 arrays sized for the whole run: the kernel
    takes at most _MARCH_BLOCK_STEPS steps per call, and the lists it fills
    are packed into the arrays and cleared after each call, so a run never
    holds more than one block of samples as Python floats. A run that
    diverges keeps copies trimmed to its length, not the whole arrays."""
    n_full, shortened = _grid(t0, t_f, h)
    size = n_full + shortened + 1
    ys, ks = np.empty(size), np.empty(size)
    us = np.empty(size) if input_fn is not None else None
    y, k = s
    ys[0], ks[0] = y, k
    block = _MARCH_BLOCK_STEPS
    # (start time, step, i0, i1) of each kernel call; step i of a call
    # starts at its start time + i*step.
    calls = [(t0, h, i, min(i + block, n_full)) for i in range(0, n_full, block)]
    if shortened:
        t_last = t0 + n_full * h
        calls.append((t_last, t_f - t_last, 0, 1))
    y_block, k_block, u_block = [], [], [] if keep_u else None
    filled = 1  # samples packed so far
    rejected = False
    for start, step, i0, i1 in calls:
        rejected = kernel(rhs, y, k, start, step, i0, i1, y_block, k_block, u_block)
        m = len(y_block)
        ys[filled : filled + m] = y_block
        ks[filled : filled + m] = k_block
        if keep_u:
            # The u kept at a step's start is that of the sample before its result.
            us[filled - 1 : filled + m - 1] = u_block
            u_block.clear()
        filled += m
        if rejected:
            break
        # A call that rejects no step accepts at least one.
        y, k = y_block[-1], k_block[-1]
        y_block.clear()
        k_block.clear()
    if filled < size:
        ys, ks = ys[:filled].copy(), ks[:filled].copy()
        us = None if us is None else us[:filled].copy()
    # Sample i is at t0 + i*h. The ends are set outright: a completed run ends
    # exactly on t_f, and a start or end at -0.0 keeps its sign.
    times = t0 + np.arange(filled) * h
    times[0] = t0
    if not rejected and filled > 1:
        times[-1] = t_f

    if input_fn is not None:
        # A kept u is input_fn at its sample bit for bit, except at the first
        # sample, whose kernel time t0 + 0*h drops the sign of a t0 at -0.0;
        # the last sample starts no accepted step. Both are evaluated here,
        # and without kept u every sample is, a block at a time.
        if keep_u:
            spans = [(0, 1)] + ([(filled - 1, filled)] if filled > 1 else [])
        else:
            spans = [(j, min(j + block, filled)) for j in range(0, filled, block)]
        for j0, j1 in spans:
            states = zip(ys[j0:j1].tolist(), ks[j0:j1].tolist())
            us[j0:j1] = list(map(input_fn, states, times[j0:j1].tolist()))
    meta = {**meta, "h": h, "t0": t0, "tf": t_f}
    return Trajectory(times, ys, ks, us, meta, filled if rejected else None)


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

    The run template calls rhs at each stage, or inlines the field of a
    closure from `closed_loop` or `lie_bracket_loop` with the same results
    bit for bit; see the module docstring.

    t_f == t0 yields a single-sample trajectory. An h that is not positive
    and finite, exceeds a positive t_f - t0 or is too fine for the sample
    times to strictly increase (`_grid`) is a ValueError before any step.
    """
    if isinstance(method, str):
        method = Method.from_name(method)
    if not isinstance(method, Method):
        raise ValueError(f"simulate: method must be a Method or its name, not {method!r}")
    if not (math.isfinite(t0) and math.isfinite(t_f)):
        raise ValueError("simulate: t0 and t_f must be finite")
    if t_f < t0:
        raise ValueError("simulate: t_f must not precede t0")
    run_meta = {**(meta or {}), "method": method.value}
    fused = getattr(rhs, "fused", None)
    # The control of the same closed_loop call shares the descriptor; the
    # fused kernel then keeps the u it computes anyway.
    keep_u = fused is not None and getattr(input_fn, "fused", None) is fused
    kernel = _kernel(method.value, fused, keep_u)
    field = rhs if fused is None else fused
    return _march(kernel, field, _as_pair(s0), t0, t_f, h, run_meta, input_fn, keep_u)


# -- whole-period series stepping ----------------------------------------------


# The series step of one order, filled by `_bound_terms`: `bind` takes a
# run's constants as arguments and returns step(y0, rho) -> (dy, dk). The
# step takes every power py{e} = y0**e and pr{e} = rho**e that a monomial
# uses before either sum, so an OverflowError from a power wins over a
# failing sum of the other component; a power of y or rho overflows
# exactly when the largest one used does. Each sum is one `fsum` over its monomials in table order.
_SERIES_TEMPLATE = """\
{bind}
    def step(y0, rho):
        {powers}
        {sums}
    return step
"""


@functools.lru_cache(maxsize=32, typed=True)
def _bound_terms(b: float, T: float, periods: int, order: int) -> Callable:
    """The series step step(y0, rho) -> (dy, dk) of `rows_for_order(order)`,
    with the factors a run holds fixed bound: float(c) * b**eb per distinct
    (c, eb), T ** float(eT) per distinct eT and (omega*T) ** float(e2pi) per
    distinct nonzero e2pi.

    A monomial is c*b^eb * y^ey * rho^er * T^eT * (omega*T)^e2pi,
    multiplied left to right as written; a factor of exponent 0 is an exact
    1.0 and is left out. The source depends only on the order, so
    `dynamics._define` compiles it once per order. The constants are
    arguments, never literals, as a bound one may be inf.

    The arguments are refused as `chen_fliess_step` documents. An error is
    never memoised, so a key found in the memo was checked when first
    bound. typed=True keeps equal keys of different types apart: an int b
    from the equal float, whose powers may round differently, and an order
    True or 1.0 from 1, which `rows_for_order` refuses."""
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError("chen_fliess_step: T must be positive")
    _check_periods(periods)
    rows = rows_for_order(order)
    try:
        wT = math.tau * periods
    except OverflowError:  # an integer past the largest float
        raise ValueError("chen_fliess_step: periods is too large for a float") from None
    y_monos = [m for row in rows for m in row.y_terms]
    k_monos = [m for row in rows for m in row.k_terms]
    both = y_monos + k_monos
    cbs = list(dict.fromkeys((m.c, m.eb) for m in both))
    eTs = list(dict.fromkeys(m.eT for m in both))
    e2pis = list(dict.fromkeys(m.e2pi for m in both if m.e2pi))

    def product(m: Mono) -> str:
        factors = (
            f"c{cbs.index((m.c, m.eb))}",
            f"py{m.ey}" if m.ey else "",
            f"pr{m.er}" if m.er else "",
            f"t{eTs.index(m.eT)}",
            f"w{e2pis.index(m.e2pi)}" if m.e2pi else "",
        )
        return " * ".join(filter(None, factors))

    def total(monos: list[Mono]) -> str:
        return f"fsum(({', '.join(map(product, monos))},))" if monos else "0.0"

    names = [f"{x}{i}" for x, keys in zip("ctw", (cbs, eTs, e2pis)) for i in range(len(keys))]
    source = _fill(
        _SERIES_TEMPLATE,
        bind=(f"def bind({', '.join(names)}):",),
        powers=tuple(f"py{e} = y0 ** {e}" for e in sorted({m.ey for m in both} - {0}))
        + tuple(f"pr{e} = rho ** {e}" for e in sorted({m.er for m in both} - {0})),
        sums=(f"return {total(y_monos)}, {total(k_monos)}",),
    )
    return _define(source, "bind", fsum=math.fsum)(
        *[float(c) * b**eb for c, eb in cbs],
        *[T ** float(eT) for eT in eTs],
        *[wT ** float(e2pi) for e2pi in e2pis],
    )


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
) -> State:
    """Advance the dithered closed loop by T using the series table.

    T must span exactly `periods` whole dither cycles, i.e. the implied
    frequency is 2*pi*periods/T; the tabulated closed forms are only
    valid on whole periods, so sub-period steps are rejected by
    construction (there is no way to express one here). The monomials
    are the exact rows of `cftable.rows_for_order`. A monomial's value is
    c*b^eb * y^ey * rho^er * T^eT * (omega*T)^e2pi, multiplied left to
    right as written, and contributions are summed with compensated
    summation per component. The factors that stay fixed over a run,
    c*b^eb, T^eT and (omega*T)^e2pi, are converted to float and taken once
    per (b, T, periods, order) and memoised, bound into a straight-line
    step compiled once per order; each step takes every power of y and of
    rho that a monomial uses once, before either sum.

    T must be finite and positive and periods a positive integer that
    converts to a float; anything else raises ValueError. s0 is a State or
    a finite (y, k) pair, as for `simulate`. order selects rows by word
    length, without the pure-drift Taylor rows, so that order 1 is one
    Euler step of the averaged system (see `cftable.rows_for_order`).
    """
    y0, k0 = _as_pair(s0)
    dy, dk = _bound_terms(p.b, T, periods, order)(y0, p.a - p.b * k0)
    return State(y0 + dy, k0 + dk)


def chen_fliess_simulate(
    p: PlantParams,
    s0: State | Sequence[float],
    omega: float,
    periods_per_step: int,
    n_steps: int,
    order: int,
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
    _check_order(order)
    y0, k0 = _as_pair(s0)
    try:
        T = math.tau * periods_per_step / omega
        # 0 * inf is nan, so this also refuses an infinite T when n_steps is 0.
        finite = math.isfinite(n_steps * T)
    except OverflowError:  # an integer argument past the largest float
        finite = False
    if not finite:
        raise ValueError("chen_fliess_simulate: the step T and the span n_steps * T must be finite")

    def step(s: tuple[float, float]) -> tuple[float, float]:
        # Arguments were validated above: a ValueError means a non-finite result.
        return chen_fliess_step(p, s, T, order, periods=periods_per_step).as_tuple()

    meta = {
        "scheme": "series",
        "order": order,
        "omega": omega,
        "periods_per_step": periods_per_step,
        "n_steps": n_steps,
        "drift_taylor": False,  # no run adds the pure-drift Taylor rows
        **_start_record(p, y0, k0),
    }
    # t_f is a whole number of steps, so the driver takes no shortened step.
    return _march(_kernel("series"), step, (y0, k0), 0.0, n_steps * T, T, meta)


# -- independent runs in forked lanes -----------------------------------------------


def _cpu_count() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say
    (there is no os.sched_getaffinity on macOS or Windows)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return 1 if affinity is None else len(affinity(0))


def _lanes(costs: Sequence[float], n_lanes: int) -> list[list[int]]:
    """The indices of costs split into n_lanes nonempty lanes: longest cost
    first, each to the lane with the least cost so far (the fewer items on a
    tie), every lane in index order. n_lanes is at most len(costs)."""
    lanes: list[list[int]] = [[] for _ in range(n_lanes)]
    loads = [0.0] * n_lanes
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        j = min(range(n_lanes), key=lambda j: (loads[j], len(lanes[j])))
        lanes[j].append(i)
        loads[j] += costs[i]
    return [sorted(lane) for lane in lanes]


def _run_lane(fn: Callable, items: Sequence, lane: list[int]) -> tuple[int | None, object]:
    """(None, [fn(items[i]) for i in lane]), or (i, the exception) for the
    first i in lane whose call raises; the items after it are not run."""
    results = []
    for i in lane:
        try:
            results.append(fn(items[i]))
        except Exception as exc:
            return i, exc
    return None, results


def _pickled_outcome(outcome: tuple[int | None, object]) -> bytes:
    """A lane's outcome as pickle bytes. An exception that does not survive
    the round trip (a local class, or arguments its __init__ does not take)
    is sent as a RuntimeError that names its type. Results that do not
    pickle raise here."""
    failed, value = outcome
    if failed is None:
        return pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
    try:
        payload = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        pickle.loads(payload)
        return payload
    except Exception:
        error = RuntimeError(f"{type(value).__qualname__} in a forked lane: {value}")
        return pickle.dumps((failed, error), pickle.HIGHEST_PROTOCOL)


def _fork_map(fn: Callable, items: Sequence, costs: Sequence[float]) -> list:
    """[fn(x) for x in items], in input order, with the items spread over
    the CPUs this process may use.

    The items go to min(len(items), CPUs) lanes by `_lanes`, longest cost
    first. Lane 0 runs in this process and every other lane in a child of
    os.fork(), which sends its pickled results back over a pipe and leaves
    with os._exit. So fn need not pickle but its results must, and what a
    child's fn does besides returning (a file it writes) is all that
    remains of it. Each lane runs its items in input order and stops at the
    first that raises; the exception of the lowest-index failing item is
    raised, as the loop would raise it. Every child is reaped before this
    returns or raises, and killed first when its result was not read. With
    one CPU, or where os.sched_getaffinity does not exist, this is the loop.
    """
    lanes = _lanes(costs, min(len(items), _cpu_count()))
    if len(lanes) < 2:
        return [fn(x) for x in items]
    children: list[int] = []
    pipes: list[int] = []  # read ends, one per child
    outcomes = []
    try:
        for lane in lanes[1:]:
            r, w = os.pipe()
            pipes.append(r)
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns that forking a process with threads
                    # may deadlock the child, and numpy's OpenBLAS threads
                    # are alive. A child runs only the pure-Python kernels
                    # and elementwise numpy, never BLAS, so the warning is
                    # not shown.
                    warnings.filterwarnings(
                        "ignore", r"This process .* is multi-threaded", DeprecationWarning
                    )
                    pid = os.fork()
            except BaseException:
                os.close(w)
                raise
            if pid == 0:
                code = 1
                try:
                    payload = _pickled_outcome(_run_lane(fn, items, lane))
                    with open(w, "wb") as f:
                        f.write(payload)
                    code = 0
                finally:
                    # Never back into the caller's stack, its atexit hooks
                    # or the buffers this child inherited.
                    os._exit(code)
            os.close(w)
            children.append(pid)
        outcomes.append(_run_lane(fn, items, lanes[0]))
        for lane, r in zip(lanes[1:], pipes):
            with open(r, "rb", closefd=False) as f:
                payload = f.read()
            if not payload:
                error = RuntimeError("a forked lane ended without sending its results")
                outcomes.append((lane[0], error))
            else:
                outcomes.append(pickle.loads(payload))
    finally:
        for r in pipes:
            os.close(r)
        if len(outcomes) < len(lanes):
            import signal  # only an interrupted call kills its children

            for pid in children:
                os.kill(pid, signal.SIGKILL)
        for pid in children:
            os.waitpid(pid, 0)
    failures = [(i, exc) for i, exc in outcomes if i is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results: list = [None] * len(items)
    for lane, (_, values) in zip(lanes, outcomes):
        for i, value in zip(lane, values):
            results[i] = value
    return results
