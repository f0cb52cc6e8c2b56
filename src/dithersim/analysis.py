"""Quantitative diagnostics for the averaged dynamics and gain laws.

Covers four questions about a run or a design:

* Lyapunov bookkeeping for the family V_p(y, k) = y^2/2 + (k - c_p)^2/2
  with c_p = (a + p)/b, whose rate along the averaged flow is -p*y^2.
* Where an averaged trajectory ends up (`lbs_limit_point`), from the
  conserved circular orbit about (0, a/b).
* How fast the dithered loop approaches its average as the dither
  frequency grows (`approximation_sweep`).
* Whether a gain shape h is of Nussbaum type, via the running extrema
  of N(k) = (k - k0)^{-1} * integral of h(s)*s (`nussbaum_type_check`).
  Unbounded sup/inf is not machine-decidable, so the report states
  whether both excursions grow when the horizon doubles.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .averaging import _cumulative_simpson
from .dynamics import (
    DITHERED_VARIANTS,
    ControllerSpec,
    ControllerVariant,
    InputFn,
    PlantParams,
    Rhs2,
    State,
    closed_loop,
    lie_bracket_flow,
    lie_bracket_loop,
    lie_bracket_rhs,
)
from .integrate import (
    Method,
    Trajectory,
    _blocks,
    _fork_map,
    _method,
    _start_record,
    _write_csv,
)

__all__ = [
    "LyapunovParams",
    "ConvergenceReport",
    "NussbaumCheck",
    "lyapunov_value",
    "lyapunov_rate",
    "lbs_limit_point",
    "approximation_sweep",
    "sweep_to_csv",
    "nussbaum_type_check",
    "convergence_report",
]


@dataclass(frozen=True)
class LyapunovParams:
    """Member of the Lyapunov family: index p >= 0 and center gain c_p."""

    p: float
    c_p: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and self.p >= 0.0):
            raise ValueError("LyapunovParams: p must be finite and nonnegative")
        if not math.isfinite(self.c_p):
            raise ValueError("LyapunovParams: c_p must be finite")

    @classmethod
    def for_plant(cls, plant: PlantParams, p: float) -> "LyapunovParams":
        """Build the family member with c_p = (a + p)/b for this plant."""
        return cls(p, (plant.a + p) / plant.b)


def lyapunov_value(lp: LyapunovParams, s: State) -> float:
    """V_p(s) = y^2/2 + (k - c_p)^2/2. Nonnegative by construction."""
    dk = s.k - lp.c_p
    return 0.5 * s.y * s.y + 0.5 * dk * dk


def lyapunov_rate(lp: LyapunovParams, p_plant: PlantParams, s: State) -> float:
    """Rate of V_p along the averaged flow, as grad(V_p) . f(s).

    When lp was built for p_plant this equals -p*y^2 exactly; computing
    the dot product keeps the function meaningful for mismatched
    centers too.
    """
    dy, dk = lie_bracket_rhs(p_plant, s)
    return s.y * dy + (s.k - lp.c_p) * dk


def lbs_limit_point(p: PlantParams, s0: State) -> State:
    """Terminal state of the averaged system started at s0.

    The orbit is the circle about (0, a/b) through s0 with radius
    rho0 = sqrt(y0^2 + (k0 - a/b)^2); the gain moves monotonically in
    the direction of sign(b), so the trajectory settles at
    (0, a/b + sign(b)*rho0). Undefined for y0 = 0 (an equilibrium).
    """
    if s0.y == 0.0:
        raise ValueError("lbs_limit_point: y0 = 0 is an equilibrium, no motion")
    c0 = p.center
    rho0 = math.hypot(s0.y, s0.k - c0)
    return State(0.0, c0 + math.copysign(rho0, p.b))


STEPS_PER_PERIOD = 40  # paper steps per dither period


def _paper_step(spec: ControllerSpec | None) -> float:
    """Per-design reference step: a dither period over STEPS_PER_PERIOD
    for the dithered designs, 1e-4 for the dither-free ones and for the
    averaged system (None)."""
    if spec is not None and spec.variant in DITHERED_VARIANTS:
        return math.tau / (STEPS_PER_PERIOD * spec.omega)
    return 1e-4


def _loop(
    p: PlantParams, spec: ControllerSpec | None, s0: State
) -> tuple[Rhs2, InputFn | None, dict]:
    """What a fixed-step run from s0 integrates and records, as (rhs, control,
    meta): spec's closed loop, or for None the averaged system, which has no input."""
    start = _start_record(p, s0.y, s0.k)
    if spec is None:
        meta = {"variant": None, "system": "lbs", "omega": None, **start}
        return lie_bracket_loop(p), None, meta
    rhs, control = closed_loop(p, spec)
    return rhs, control, {"variant": spec.variant.value, "omega": spec.omega, **start}


def approximation_sweep(
    p: PlantParams,
    s0: State,
    t_f: float,
    omegas: Sequence[float],
    method: Method | str = Method.EULER,
) -> list[tuple[float, float]]:
    """Sup-norm gap between the dithered loop and its average, per omega.

    For each omega the primary dithered design's loop from `_loop` is
    integrated by `method` from the State s0 at step 2*pi/(40*omega)
    over [0, t_f] and compared with the exact averaged flow
    (`lie_bracket_flow`) evaluated at that run's own sample times, with
    no interpolation. The error is the maximum over those times of the
    Euclidean distance between the two states. A blown-up dithered run
    reports inf. A start that is not a State, or a method that is not a
    Method or its name, is refused before any run.

    Each run is compared a block at a time as `integrate._blocks` yields
    it, the start sample alone and then the samples of each kernel call,
    and its error is the largest of its blocks' gaps, so a run holds one
    block of samples, not the whole run.

    Results are returned in the order the omegas were given; any
    decrease with omega is observed, not assumed. At this step, h*omega
    is fixed, so Euler's own error does not shrink as omega grows and
    the Euler gap stalls; RK4 is converged there and shows the averaging
    gap alone. The runs are spread over the CPUs the process may use
    (`integrate._fork_map`), with the same results at any count.
    """
    if not isinstance(s0, State):
        raise ValueError(f"approximation_sweep: s0 must be a State, not {type(s0).__name__}")
    method = _method(method, "approximation_sweep")
    if len(omegas) == 0:
        raise ValueError("approximation_sweep: omegas must be nonempty")
    for w in omegas:
        if not (math.isfinite(w) and w > 0.0):
            raise ValueError("approximation_sweep: omegas must be positive")
    if not (math.isfinite(t_f) and t_f >= 0.0):
        raise ValueError("approximation_sweep: t_f must be nonnegative")

    if t_f == 0.0:
        return [(float(w), 0.0) for w in omegas]

    def gap(w: float) -> float:
        spec = ControllerSpec(ControllerVariant.PROPOSED, omega=float(w))
        rhs, _, _ = _loop(p, spec, s0)
        err = 0.0
        for times, ys, ks, _, rejected in _blocks(
            rhs, method.value, s0.as_tuple(), 0.0, t_f, _paper_step(spec)
        ):
            if rejected:
                return math.inf
            ref_y, ref_k = lie_bracket_flow(p, s0, 0.0, times)
            err = max(err, float(np.max(np.hypot(ys - ref_y, ks - ref_k))))
        return err

    # The runs are independent, and a run's step count grows with its omega.
    errors = _fork_map(gap, omegas, [float(w) for w in omegas])
    return [(float(w), err) for w, err in zip(omegas, errors)]


def sweep_to_csv(results: Sequence[tuple[float, float]], path: str | Path) -> None:
    """Write sweep results as CSV with header omega,error."""
    _write_csv(path, ("omega", "error"), [[w for w, _ in results], [e for _, e in results]])


@dataclass(frozen=True)
class NussbaumCheck:
    """Numerical evidence about a gain shape's Nussbaum property.

    running_sup/running_inf/crossings describe N(k) on the open grid
    over (k0, k_max]; sup_doubled/inf_doubled repeat the extrema with
    the horizon doubled at the same resolution. excursions_grow is the
    machine-checkable stand-in for the unbounded sup/inf requirement:
    both extrema must strictly extend on the doubled horizon.
    """

    running_sup: float
    running_inf: float
    crossings: int
    sup_doubled: float
    inf_doubled: float
    excursions_grow: bool

    def to_dict(self) -> dict:
        return asdict(self)


# Widest gain-shape panel `nussbaum_type_check` accepts: a thirty-second of
# the 2*pi period of s_cos_s. Wider panels undersample it, and the profile
# they give is finite but aliased.
NUSSBAUM_MAX_PANEL = math.pi / 16


class _AliasedProfile(ValueError):
    """The gain-shape panels are wider than NUSSBAUM_MAX_PANEL."""


def _n_profile(
    h: Callable[[np.ndarray], np.ndarray], k0: float, k_max: float, n_panels: int
) -> np.ndarray:
    """N(k) on the open grid k0 + j*dk, j = 1..n_panels; ValueError where
    it is not finite, or where h does not map the grid element-wise."""
    s = np.linspace(k0, k_max, n_panels + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            hs = h(s)
            if np.broadcast_shapes(np.shape(hs), s.shape) != s.shape:
                raise ValueError(f"h returned shape {np.shape(hs)}")
            g = np.asarray(hs * s, dtype=float)
        except (TypeError, ValueError) as e:
            raise ValueError(
                "nussbaum_type_check: h must map an array of k values element-wise "
                f"to real values that broadcast to it ({e})"
            ) from e
        integral = _cumulative_simpson(g, (k_max - k0) / n_panels)
        n = integral[1:] / (s[1:] - k0)
    if not np.isfinite(n).all():
        raise ValueError(f"nussbaum_type_check: N(k) is not finite on [{k0!r}, {k_max!r}]")
    return n


def nussbaum_type_check(
    h: Callable[[np.ndarray], np.ndarray], k0: float, k_max: float, grid: int
) -> NussbaumCheck:
    """Check the Nussbaum-type condition for gain shape h numerically.

    N(k) = (k - k0)^{-1} * integral_{k0}^{k} h(s)*s ds is built by
    cumulative Simpson quadrature on `grid` panels over [k0, k_max].
    The doubled-horizon pass reuses the same panel width. h is called
    once per horizon, on the array of its grid's k values, and must map
    it element-wise: it returns an array of that shape or a value that
    broadcasts to it (a constant), as numpy ufuncs do. Raises ValueError
    when h does not (a shape written for one Python float, such as
    lambda s: s * math.sin(s)), when N(k) is not finite on either
    horizon, and then when the panel width (k_max - k0)/grid exceeds
    NUSSBAUM_MAX_PANEL.
    """
    if not (math.isfinite(k0) and math.isfinite(k_max)) or k_max <= k0:
        raise ValueError("nussbaum_type_check: need k_max > k0")
    if isinstance(grid, bool) or not isinstance(grid, int) or grid < 1000:
        raise ValueError("nussbaum_type_check: grid must be an integer >= 1000")

    n = _n_profile(h, k0, k_max, grid)
    sup1 = float(np.max(n))
    inf1 = float(np.min(n))
    signs = np.sign(n)
    signs = signs[signs != 0.0]
    crossings = int(np.count_nonzero(np.diff(signs) != 0.0))

    n2 = _n_profile(h, k0, k0 + 2.0 * (k_max - k0), 2 * grid)
    panel = (k_max - k0) / grid
    if panel > NUSSBAUM_MAX_PANEL:
        raise _AliasedProfile(
            f"nussbaum_type_check: panel width (k_max - k0)/grid = {panel:.3g} "
            "exceeds pi/16, so the gain-shape profile is aliased"
        )
    sup2 = float(np.max(n2))
    inf2 = float(np.min(n2))
    return NussbaumCheck(
        running_sup=sup1,
        running_inf=inf1,
        crossings=crossings,
        sup_doubled=sup2,
        inf_doubled=inf2,
        excursions_grow=bool(sup2 > sup1 and inf2 < inf1),
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome summary for a single trajectory.

    time_to_band is elapsed time from the start of the run to the first
    sample from which |y| never leaves the band again; nan when that
    never happens. radius_drift is max |r(t) - r(0)| about (0, a/b) and
    is only computed for runs whose meta marks the averaged system
    (key "system" equal to "lbs", with "a" and "b" present); nan
    otherwise. predicted_limit_k is nan when no prediction was given.
    """

    converged: bool
    y_final: float
    k_final: float
    predicted_limit_k: float
    time_to_band: float
    radius_drift: float

    def to_dict(self) -> dict:
        return asdict(self)


def convergence_report(
    traj: Trajectory, band: float, predicted: State | None = None
) -> ConvergenceReport:
    """Judge convergence of a run: |y| must hold inside the band over
    the final 10% of samples, and the run must not have diverged.
    """
    if not (math.isfinite(band) and band > 0.0):
        raise ValueError("convergence_report: band must be positive")
    ys = traj.ys
    n = len(ys)
    inside = np.abs(ys) <= band

    tail = max(1, math.ceil(0.1 * n))
    converged = bool(np.all(inside[n - tail :])) and not traj.diverged

    outside_idx = np.flatnonzero(~inside)
    if len(outside_idx) == 0:
        first_hold = 0
    elif outside_idx[-1] == n - 1:
        first_hold = None
    else:
        first_hold = int(outside_idx[-1]) + 1
    if first_hold is None:
        time_to_band = math.nan
    else:
        time_to_band = float(traj.times[first_hold] - traj.times[0])

    radius_drift = math.nan
    meta = traj.meta
    if meta.get("system") == "lbs" and "a" in meta and "b" in meta:
        c0 = float(meta["a"]) / float(meta["b"])
        r = np.hypot(traj.ys, traj.ks - c0)
        radius_drift = float(np.max(np.abs(r - r[0])))

    return ConvergenceReport(
        converged=converged,
        y_final=float(traj.ys[-1]),
        k_final=float(traj.ks[-1]),
        predicted_limit_k=math.nan if predicted is None else predicted.k,
        time_to_band=time_to_band,
        radius_drift=radius_drift,
    )
