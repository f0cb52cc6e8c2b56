"""Config-driven command line front end.

Subcommands: simulate (one run per initial condition, optional averaged
companion), compare (several controllers from one initial condition,
one aligned CSV), sweep (dither-frequency sweep of the gap to the
averaged system), check (averaging prerequisites plus a gain-shape
check, JSON report) and chenfliess (series-scheme runs per order with
an Euler reference orbit).

Configuration is a YAML file with nested sections; ``--preset`` selects
a bundled config instead and writes it into the output directory so the
run can be edited and repeated. Exit code 0 means every requested
artifact was written (numerical blow-up is recorded in the output, not
signaled); config problems exit with 2 and a message naming the field.
A config that asks for more than WORK_BUDGET integration steps in one
command is such a problem, refused before any step is taken; `check`
bounds its audited samples, mesh and gain-shape evaluations the same way.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import yaml

from .analysis import (
    LBS_REFERENCE_STEP,
    STEPS_PER_PERIOD,
    _lbs_reference,
    _paper_step,
    approximation_sweep,
    nussbaum_type_check,
    sweep_to_csv,
)
from .averaging import (
    AffineSystem,
    DitherSignal,
    check_assumptions,
    proposed_design_system,
    swapped_design_system,
)
from .dynamics import (
    DITHERED_VARIANTS,
    ControllerSpec,
    ControllerVariant,
    PlantParams,
    State,
    closed_loop,
    s_cos_s,
)
from .integrate import (
    Method,
    Trajectory,
    _whole_steps,
    _write_csv,
    _write_json,
    chen_fliess_simulate,
    simulate,
)

__all__ = ["ConfigError", "PRESETS", "main"]

# Most integration steps (Euler, RK4 and series steps together) that one
# command may take. A command holds its trajectories in memory: a run peaks
# near 190 bytes per step while it is built and keeps about 32.
WORK_BUDGET = 2_000_000
NUSSBAUM_SHAPES: dict[str, Callable[[float], float]] = {
    "s_cos_s": s_cos_s,
    "const_1": lambda s: 1.0,
    "const_neg1": lambda s: -1.0,
}

_MISSING = object()


class ConfigError(Exception):
    """Invalid or missing configuration; `field` is the dotted path."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


# -- bundled configurations ----------------------------------------------------

_PLANT = {"a": 10.0, "b": -2.0}

PRESETS: dict[str, dict] = {
    # Phase-plane demo: primary design plus its averaged companion.
    "fig1": {
        "plant": dict(_PLANT),
        "controller": {"variant": "proposed", "omega": 400.0},
        "simulation": {
            "t0": 0.0,
            "t_f": 3.0,
            "method": "ode1",
            "step": "paper",
            "with_lbs": True,
        },
        "initial": {"y": 1.0, "k": 0.0},
    },
    # Trajectory comparison against the gain-reversal controller.
    "fig2": {
        "plant": dict(_PLANT),
        "controller": {"variant": "proposed", "omega": 400.0, "nussbaum": "s_cos_s"},
        "simulation": {"t0": 0.0, "t_f": 3.0, "method": "ode1", "step": "paper"},
        "initial": {"y": 1.0, "k": 0.0},
        "compare": {"variants": ["proposed", "nussbaum"], "with_lbs": True},
    },
    # Orbit comparison of the two dither designs sharing one average.
    "fig3": {
        "plant": dict(_PLANT),
        "controller": {"variant": "proposed", "omega": 400.0},
        "simulation": {"t0": 0.0, "t_f": 3.0, "method": "ode1", "step": "paper"},
        "initial": {"y": 1.0, "k": 0.0},
        "compare": {"variants": ["proposed", "swapped"], "with_lbs": True},
    },
    # Series-scheme orders against the Euler reference orbit.
    "fig4": {
        "plant": dict(_PLANT),
        "controller": {"variant": "proposed", "omega": 400.0},
        "simulation": {"t0": 0.0, "t_f": 2.0, "method": "ode1", "step": "paper"},
        "initial": {"y": 1.0, "k": 0.0},
        "chenfliess": {"orders": [0, 1, 2], "periods_per_step": 1},
    },
}


# -- config parsing -------------------------------------------------------------


def _section(cfg: dict, name: str, *, required: bool = True) -> dict:
    sec = cfg.get(name)
    if sec is None:
        if required:
            raise ConfigError(name, "missing required section")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(name, "expected a mapping")
    return sec


def _get(sec: dict, secname: str, key: str, default: object = _MISSING) -> object:
    if key not in sec or sec[key] is None:
        if default is _MISSING:
            raise ConfigError(f"{secname}.{key}", "missing required field")
        return default
    return sec[key]


def _not_a_number(v: object) -> str:
    """Why v is not a number, naming the YAML 1.1 exponent pitfall: PyYAML
    reads 4e2 or 1.0e2 as strings and only 4.0e+2 as a float."""
    if isinstance(v, str) and re.fullmatch(r"[-+]?(\d+\.?\d*|\.\d+)[eE][-+]?\d+", v):
        mantissa, exponent = v.lower().split("e")
        if "." not in mantissa:
            mantissa += ".0"
        if exponent[0] not in "+-":
            exponent = "+" + exponent
        return (
            f"expected a number, got the string {v!r}; YAML 1.1 reads an exponent float "
            f"as a string unless it has a dot and a signed exponent, so write "
            f"{mantissa}e{exponent}"
        )
    return f"expected a number, got {type(v).__name__}"


def _number(v: object, path: str, *, positive: bool = False) -> float:
    """v as a finite float, positive if asked; anything else is a config
    error at `path`."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(path, _not_a_number(v))
    v = float(v) if abs(v) <= sys.float_info.max else math.inf  # float() of a huge int overflows
    if not math.isfinite(v):
        raise ConfigError(path, "must be finite")
    if positive and v <= 0.0:
        raise ConfigError(path, "must be positive")
    return v


def _num(
    sec: dict,
    secname: str,
    key: str,
    default: object = _MISSING,
    *,
    positive: bool = False,
) -> float:
    return _number(_get(sec, secname, key, default), f"{secname}.{key}", positive=positive)


def _int(
    sec: dict, secname: str, key: str, default: object = _MISSING, *, least: float = -math.inf
) -> int:
    v = _get(sec, secname, key, default)
    path = f"{secname}.{key}"
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(path, f"expected an integer, got {type(v).__name__}")
    if v < least:
        raise ConfigError(path, f"must be at least {least}")
    return v


def _flag(sec: dict, secname: str, key: str) -> bool:
    """sec[key] as a YAML boolean, false when absent."""
    v = _get(sec, secname, key, False)
    if not isinstance(v, bool):
        raise ConfigError(f"{secname}.{key}", f"expected true or false, got {type(v).__name__}")
    return v


def _list(
    sec: dict, secname: str, key: str, item: Callable, *, distinct: bool = False
) -> list:
    """The nonempty list sec[key], each element read by item(value, path)."""
    v = _get(sec, secname, key)
    path = f"{secname}.{key}"
    if not isinstance(v, list) or not v:
        raise ConfigError(path, "expected a nonempty list")
    items = [item(x, f"{path}[{i}]") for i, x in enumerate(v)]
    if distinct and len(set(items)) != len(items):
        raise ConfigError(path, f"{key} must be distinct")
    return items


def _check_horizon(field: str, h: float, span: float) -> None:
    """Refuse, naming `field`, a step h longer than a positive horizon
    span, or an infinite h (the paper step of a subnormal omega)."""
    if h == math.inf or (span > 0.0 and h > span * (1.0 + 1e-12)):
        raise ConfigError(field, f"step {h:.3g} exceeds the horizon t_f - t0 = {span:.3g}")


def _parse_plant(cfg: dict) -> PlantParams:
    sec = _section(cfg, "plant")
    a = _num(sec, "plant", "a")
    b = _num(sec, "plant", "b")
    if b == 0.0:
        raise ConfigError("plant.b", "must be nonzero")
    return PlantParams(a, b)


def _controller_spec(cfg: dict, variant: ControllerVariant) -> ControllerSpec:
    """Build the spec for `variant`, reading that variant's extra
    parameters from the shared controller section."""
    sec = _section(cfg, "controller", required=False)
    omega = None
    nussbaum_fn = None
    sign_b = None
    if variant in DITHERED_VARIANTS:
        omega = _num(sec, "controller", "omega", positive=True)
    elif variant is ControllerVariant.NUSSBAUM:
        nussbaum_fn = NUSSBAUM_SHAPES[_nussbaum_shape(sec, "controller", "nussbaum")]
    elif variant is ControllerVariant.WILLEMS_BYRNES:
        sign_b = _int(sec, "controller", "sign_b")
        if sign_b not in (-1, 1):
            raise ConfigError("controller.sign_b", "must be -1 or 1")
    return ControllerSpec(variant, omega=omega, nussbaum_fn=nussbaum_fn, sign_b=sign_b)


def _configured_variant(cfg: dict, default: object = _MISSING) -> ControllerVariant:
    """The variant named by controller.variant, `default` when it is absent."""
    sec = _section(cfg, "controller", required=False)
    return _variant(_get(sec, "controller", "variant", default), "controller.variant")


def _variant(name: object, where: str) -> ControllerVariant:
    """The variant called `name`; an unknown name is a config error at `where`."""
    try:
        return ControllerVariant.from_name(str(name))
    except ValueError as e:
        raise ConfigError(where, str(e)) from None


def _series_order(v: object, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v <= 3:
        raise ConfigError(path, "expected an integer in 0..3")
    return v


def _nussbaum_shape(sec: dict, secname: str, key: str) -> str:
    """Name of a known gain shape read from sec[key], default s_cos_s."""
    shape = str(_get(sec, secname, key, "s_cos_s"))
    if shape not in NUSSBAUM_SHAPES:
        known = ", ".join(sorted(NUSSBAUM_SHAPES))
        raise ConfigError(
            f"{secname}.{key}", f"unknown shape {shape!r} (expected one of: {known})"
        )
    return shape


def _parse_simulation(cfg: dict) -> tuple[dict, float, float, Method]:
    """The simulation section and the horizon t0, t_f and method it sets."""
    sec = _section(cfg, "simulation")
    t0 = _num(sec, "simulation", "t0", 0.0)
    t_f = _num(sec, "simulation", "t_f")
    if t_f < t0:
        raise ConfigError("simulation.t_f", "must not precede t0")
    method_name = _get(sec, "simulation", "method", "ode1")
    try:
        method = Method.from_name(str(method_name))
    except ValueError as e:
        raise ConfigError("simulation.method", str(e)) from None
    return sec, t0, t_f, method


def _check_work(
    field: str,
    runs: int,
    run_steps: float,
    *,
    unit: str = "integration steps",
    budget: int | None = None,
) -> None:
    """Refuse, naming `field`, `runs` runs of about `run_steps` steps each,
    every run counting as at least one step, when together they would take
    more than `budget` steps (WORK_BUDGET by default); `unit` says what a
    step is. Each factor is compared before it multiplies, so no integer
    from a config is too large to check."""
    budget = WORK_BUDGET if budget is None else budget
    if runs > budget or run_steps > budget:
        steps = math.inf
    else:
        steps = runs * max(run_steps, 1.0)
    if steps > budget:
        about = f" (about {steps:.3g})" if math.isfinite(steps) else ""
        raise ConfigError(
            field,
            f"the command would take more {unit}{about} than the {budget:,} one command may take",
        )


def _state_from(entry: object, where: str) -> State:
    if not isinstance(entry, dict):
        raise ConfigError(where, "expected a mapping with keys y and k")
    return State(_num(entry, where, "y"), _num(entry, where, "k"))


def _parse_initial(cfg: dict, seed: int, run_steps: float) -> list[State]:
    """The initial states, one run each; a batch whose runs of about
    `run_steps` steps would exceed the work budget is refused before any
    state is drawn."""
    ini = cfg.get("initial")
    if ini is None:
        raise ConfigError("initial", "missing required section")
    if isinstance(ini, list):
        if not ini:
            raise ConfigError("initial", "list must be nonempty")
        _check_work("initial", len(ini), run_steps)
        return [_state_from(e, f"initial[{i}]") for i, e in enumerate(ini)]
    if isinstance(ini, dict) and "random" in ini:
        rnd = ini["random"]
        if not isinstance(rnd, dict):
            raise ConfigError("initial.random", "expected a mapping")
        count = _int(rnd, "initial.random", "count", least=1)
        _check_work("initial.random.count", count, run_steps)
        ranges = {}
        for key in ("y_range", "k_range"):
            pair = _list(rnd, "initial.random", key, _number)
            if len(pair) != 2 or not (pair[0] <= pair[1] and math.isfinite(pair[1] - pair[0])):
                raise ConfigError(
                    f"initial.random.{key}", "expected [lo, hi] with lo <= hi and a finite hi - lo"
                )
            ranges[key] = pair
        rng = np.random.default_rng(seed)
        ys = rng.uniform(*ranges["y_range"], size=count)
        ks = rng.uniform(*ranges["k_range"], size=count)
        return [State(float(y), float(k)) for y, k in zip(ys, ks)]
    return [_state_from(ini, "initial")]


def _single_initial(cfg: dict, seed: int, command: str, run_steps: float) -> State:
    initials = _parse_initial(cfg, seed, run_steps)
    if len(initials) != 1:
        raise ConfigError("initial", f"{command} needs exactly one initial condition")
    return initials[0]


# -- shared runners --------------------------------------------------------------


def _run_controller(
    plant: PlantParams,
    spec: ControllerSpec,
    s0: State,
    t0: float,
    t_f: float,
    h: float,
    method: Method,
) -> Trajectory:
    rhs, control = closed_loop(plant, spec)
    meta = {
        "variant": spec.variant.value,
        "omega": spec.omega,
        "a": plant.a,
        "b": plant.b,
        "y0": s0.y,
        "k0": s0.k,
    }
    return simulate(rhs, s0, t0, t_f, h, method, input_fn=control, meta=meta)


def _announce(path: Path) -> None:
    print(f"wrote {path}")


# -- subcommands -----------------------------------------------------------------


def cmd_simulate(cfg: dict, out: Path, args: argparse.Namespace) -> int:
    plant = _parse_plant(cfg)
    spec = _controller_spec(cfg, _configured_variant(cfg))
    sec, t0, t_f, method = _parse_simulation(cfg)
    span = t_f - t0
    step = _get(sec, "simulation", "step", "paper")
    h = _paper_step(spec) if step == "paper" else _number(step, "simulation.step", positive=True)
    _check_horizon("simulation.step", h, span)
    with_lbs = _flag(sec, "simulation", "with_lbs") or bool(getattr(args, "with_lbs", False))
    if with_lbs:
        _check_horizon("simulation.t_f", LBS_REFERENCE_STEP, span)
    run_steps = span / h + (span / LBS_REFERENCE_STEP if with_lbs else 0.0)
    _check_work("simulation.t_f", 1, run_steps)
    initials = _parse_initial(cfg, args.seed, run_steps)

    trajs = [_run_controller(plant, spec, s0, t0, t_f, h, method) for s0 in initials]
    lbs_trajs = [_lbs_reference(plant, s0, t0, t_f) for s0 in initials] if with_lbs else []

    multi = len(initials) > 1
    for stem, group in (("trajectory", trajs), ("lbs", lbs_trajs)):
        for i, traj in enumerate(group, 1):
            for path in traj.save(out / (f"{stem}_{i}.csv" if multi else f"{stem}.csv")):
                _announce(path)
    return 0


def _nearest_resample(traj: Trajectory, times: np.ndarray, t0: float, h: float) -> np.ndarray:
    """y at the requested times by nearest own-grid sample, clamped so a
    truncated run holds its last value."""
    idx = np.rint((times - t0) / h).astype(int)
    idx = np.clip(idx, 0, len(traj.ys) - 1)
    return traj.ys[idx]


def cmd_compare(cfg: dict, out: Path, args: argparse.Namespace) -> int:
    plant = _parse_plant(cfg)
    comp = _section(cfg, "compare")
    variants = _list(comp, "compare", "variants", _variant, distinct=True)
    with_lbs = _flag(comp, "compare", "with_lbs")
    specs = [_controller_spec(cfg, variant) for variant in variants]
    # Horizon and method are shared; each controller runs at its own paper
    # step, so simulation.step and simulation.with_lbs are not read.
    _, t0, t_f, method = _parse_simulation(cfg)
    steps = [_paper_step(spec) for spec in specs]
    span = t_f - t0
    for i, h in enumerate(steps):
        _check_horizon(f"compare.variants[{i}]", h, span)
    if with_lbs:
        _check_horizon("simulation.t_f", LBS_REFERENCE_STEP, span)
    run_steps = sum(span / h for h in steps) + (span / LBS_REFERENCE_STEP if with_lbs else 0.0)
    _check_work("simulation.t_f", 1, run_steps)
    s0 = _single_initial(cfg, args.seed, "compare", run_steps)

    trajs = [_run_controller(plant, spec, s0, t0, t_f, h, method) for spec, h in zip(specs, steps)]
    lbs = _lbs_reference(plant, s0, t0, t_f) if with_lbs else None

    base = trajs[int(np.argmax(steps))].times
    columns = [("t", base)]
    for variant, traj, h in zip(variants, trajs, steps):
        columns.append((f"y_{variant.value}", _nearest_resample(traj, base, t0, h)))
    if lbs is not None:
        columns.append(("y_lbs", _nearest_resample(lbs, base, t0, LBS_REFERENCE_STEP)))

    names, arrays = zip(*columns)
    _announce(_write_csv(out / "compare.csv", names, arrays))

    runs = [traj.record for traj in [*trajs, lbs] if traj is not None]
    _announce(_write_json({"t0": t0, "tf": t_f, "runs": runs}, out / "compare.json"))
    return 0


def cmd_sweep(cfg: dict, out: Path, args: argparse.Namespace) -> int:
    plant = _parse_plant(cfg)
    sec = _section(cfg, "sweep")
    vals = _list(sec, "sweep", "omegas", lambda w, path: _number(w, path, positive=True))
    sim = _section(cfg, "simulation")
    t_f = _num(sim, "simulation", "t_f", positive=True)
    for i, w in enumerate(vals):
        spec = ControllerSpec(ControllerVariant.PROPOSED, omega=w)
        _check_horizon(f"sweep.omegas[{i}]", _paper_step(spec), t_f)
    # One Euler run per omega at the paper step; the averaged flow is exact.
    run_steps = sum(t_f * STEPS_PER_PERIOD * w / math.tau for w in vals)
    _check_work("sweep.omegas", 1, run_steps)
    s0 = _single_initial(cfg, args.seed, "sweep", run_steps)

    results = approximation_sweep(plant, s0, t_f, vals)
    csv_path = out / "sweep.csv"
    sweep_to_csv(results, csv_path)
    _announce(csv_path)
    errs = [err for _, err in results]
    decreasing = all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    print(f"error strictly decreasing across the given omegas: {'yes' if decreasing else 'no'}")
    return 0


def _audited_system(cfg: dict, plant: PlantParams) -> AffineSystem:
    """Drift/dither split of the configured dithered design; proposed when
    the config names no controller."""
    variant = _configured_variant(cfg, "proposed")
    if variant is ControllerVariant.PROPOSED:
        return proposed_design_system(plant)
    if variant is ControllerVariant.SWAPPED:
        return swapped_design_system(plant)
    raise ConfigError("controller.variant", f"{variant.value!r} has no dither to audit")


def cmd_check(cfg: dict, out: Path, args: argparse.Namespace) -> int:
    plant = _parse_plant(cfg)
    sec = _section(cfg, "check", required=False)
    lo = _num(sec, "check", "region_min", -2.0)
    hi = _num(sec, "check", "region_max", 2.0)
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ConfigError("check.region_min", "must be below check.region_max by a finite amount")
    grid = _int(sec, "check", "grid", 50, least=1)
    time_samples = _int(sec, "check", "time_samples", 20, least=1)
    bias = _num(sec, "check", "bias", 0.0)
    system = _audited_system(cfg, plant)

    nsec = sec.get("nussbaum") or {}
    if not isinstance(nsec, dict):
        raise ConfigError("check.nussbaum", "expected a mapping")
    shape = _nussbaum_shape(nsec, "check.nussbaum", "h")
    k0 = _num(nsec, "check.nussbaum", "k0", 0.0)
    k_max = _num(nsec, "check.nussbaum", "k_max", 50.0)
    # The gain-shape check also runs on the horizon doubled from k0.
    if not (k0 < k_max and math.isfinite(k0 + 2.0 * (k_max - k0))):
        raise ConfigError("check.nussbaum.k_max", "must exceed k0 with k0 + 2*(k_max - k0) finite")
    ngrid = _int(nsec, "check.nussbaum", "grid", 20_000, least=1000)
    # The audit holds about 1.2 KB per mesh state, where a kept integration
    # step peaks near 190 bytes, so the mesh may take a sixth of the budget
    # (about 400 MB, as a full-budget run).
    _check_work("check.grid", grid, grid, unit="mesh states", budget=WORK_BUDGET // 6)
    _check_work("check.time_samples", time_samples, grid * grid, unit="audited samples")
    # Both gain-shape passes: grid panels, then 2 * grid on the doubled horizon.
    _check_work("check.nussbaum.grid", 3, ngrid, unit="gain-shape evaluations")

    if bias != 0.0:
        def biased(ph: np.ndarray) -> np.ndarray:
            return np.sin(ph) + bias

        system = AffineSystem(
            system.drift, system.fields, (DitherSignal(biased), system.dithers[1])
        )
    report = check_assumptions(
        system, ((lo, hi), (lo, hi)), grid=grid, time_samples=time_samples
    )
    ncheck = nussbaum_type_check(NUSSBAUM_SHAPES[shape], k0, k_max, ngrid)

    doc = {
        "assumptions": report.to_dict(),
        "nussbaum": {"shape": shape, **ncheck.to_dict()},
    }
    _announce(_write_json(doc, out / "check.json"))
    print(f"averaging assumptions: {'PASS' if report.passed else 'FAIL'}")
    grows = "grows" if ncheck.excursions_grow else "does not grow"
    print(
        f"gain shape {shape}: sup={ncheck.running_sup:.3g} inf={ncheck.running_inf:.3g} "
        f"crossings={ncheck.crossings}, excursion range {grows} on doubled horizon"
    )
    return 0


def cmd_chenfliess(cfg: dict, out: Path, args: argparse.Namespace) -> int:
    plant = _parse_plant(cfg)
    sec = _section(cfg, "chenfliess")
    orders = _list(sec, "chenfliess", "orders", _series_order, distinct=True)
    pps = _int(sec, "chenfliess", "periods_per_step", 1, least=1)
    # A series step costs one step per order and, in the Euler reference at
    # the paper step, STEPS_PER_PERIOD steps per dither period.
    step_cost = len(orders) + STEPS_PER_PERIOD * pps
    _check_work("chenfliess.periods_per_step", 1, step_cost)

    spec = _controller_spec(cfg, _configured_variant(cfg, "proposed"))
    if spec.variant is not ControllerVariant.PROPOSED:
        raise ConfigError("controller.variant", f"{spec.variant.value!r} has no series table")
    sim = _section(cfg, "simulation", required="n_steps" not in sec)
    t0 = _num(sim, "simulation", "t0", 0.0)
    if t0 != 0.0:
        raise ConfigError("simulation.t0", "series stepping starts at 0")

    T = math.tau * pps / spec.omega
    if "n_steps" in sec:
        n_steps = _int(sec, "chenfliess", "n_steps", least=0)
        _check_work("chenfliess.n_steps", n_steps, step_cost)
    else:
        t_f = _num(sim, "simulation", "t_f", positive=True)
        _check_work("simulation.t_f", 1, t_f / T * step_cost)
        n_steps = _whole_steps(t_f, T)
    if not math.isfinite(n_steps * T):
        raise ConfigError("controller.omega", "too small: the series run's end time overflows")
    s0 = _single_initial(cfg, args.seed, "chenfliess", n_steps * step_cost)

    for d in orders:
        traj = chen_fliess_simulate(plant, s0, spec.omega, pps, n_steps, d)
        for path in traj.save(out / f"chenfliess_order{d}.csv"):
            _announce(path)

    ref = _run_controller(plant, spec, s0, 0.0, n_steps * T, _paper_step(spec), Method.EULER)
    for path in ref.save(out / "reference.csv"):
        _announce(path)
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "check": cmd_check,
    "chenfliess": cmd_chenfliess,
}


# -- entry point -----------------------------------------------------------------


def _seed(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    source = shared.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=Path, help="YAML config file")
    source.add_argument(
        "--preset", choices=sorted(PRESETS), help="bundled config (written to --out)"
    )
    shared.add_argument("--out", type=Path, default=Path("."), help="output directory")
    shared.add_argument(
        "--seed", type=_seed, default=0, help="seed for random initial-condition batches"
    )

    parser = argparse.ArgumentParser(
        prog="dithersim",
        description="Simulation and diagnostics for dither-based adaptive stabilization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sim = sub.add_parser("simulate", parents=[shared], help="run the configured controller")
    p_sim.add_argument(
        "--with-lbs", action="store_true", help="also run the averaged system"
    )
    sub.add_parser("compare", parents=[shared], help="run several controllers, aligned CSV")
    sub.add_parser("sweep", parents=[shared], help="frequency sweep of the averaging gap")
    sub.add_parser("check", parents=[shared], help="audit averaging prerequisites")
    sub.add_parser("chenfliess", parents=[shared], help="series-scheme runs per order")
    return parser


def _resolve_config(args: argparse.Namespace, out: Path) -> dict:
    if args.preset is not None:
        cfg = PRESETS[args.preset]
        copy_path = out / "config.yaml"
        copy_path.write_text(yaml.safe_dump(cfg, sort_keys=True))
        _announce(copy_path)
        return cfg
    path = args.config
    if not path.is_file():
        raise ConfigError("config", f"file not found: {path}")
    try:
        cfg = yaml.safe_load(path.read_text())
    except yaml.YAMLError as e:
        raise ConfigError("config", f"invalid YAML: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be a mapping of sections")
    return cfg


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out = args.out
        out.mkdir(parents=True, exist_ok=True)
        cfg = _resolve_config(args, out)
        return _COMMANDS[args.command](cfg, out, args)
    except ConfigError as e:
        print(f"config error: {e.field}: {e.message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
