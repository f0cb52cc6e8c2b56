"""Config-driven command line front end.

Commands: simulate (one run per initial condition, optional averaged
companion), compare (several controllers from one initial condition,
one aligned CSV), sweep (dither-frequency sweep of the gap to the
averaged system), check (averaging prerequisites plus a gain-shape
check, JSON report) and chenfliess (series-scheme runs per order with
an Euler reference orbit).

Configuration is a YAML file with the nested sections and fields that
FIELDS declares; ``--preset`` selects a bundled config instead and writes
it into the output directory so the run can be edited and repeated. Exit
code 0 means every requested artifact was written (numerical blow-up is
recorded in the output, not signaled); config problems, an undeclared or
repeated key among them, exit with 2 and a message naming the field, as
does an --out that is a file or lies under one. A
config that asks for more than WORK_BUDGET integration steps in one
command is such a problem, refused before any step is taken; `check`
bounds its audited samples, mesh and gain-shape evaluations the same way.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import yaml

from .analysis import (
    LBS_REFERENCE_STEP,
    STEPS_PER_PERIOD,
    _AliasedProfile,
    _lbs_reference,
    _loop,
    _paper_step,
    approximation_sweep,
    nussbaum_type_check,
    sweep_to_csv,
)
from .averaging import (
    AffineSystem,
    check_assumptions,
    proposed_design_system,
    swapped_design_system,
)
from .cftable import _ORDERS
from .dynamics import (
    DITHERED_VARIANTS,
    ControllerSpec,
    ControllerVariant,
    PlantParams,
    State,
    s_cos_s,
)
from .integrate import (
    Method,
    Trajectory,
    _BOUND,
    _fork_map,
    _grid,
    _whole_steps,
    _write_csv,
    _write_json,
    chen_fliess_simulate,
    simulate,
)

__all__ = ["ConfigError", "PRESETS", "main"]

# Most integration steps (Euler, RK4 and series steps together) that one
# command may take. compare holds all its runs at once: a run with a u column
# peaks near 41 bytes per step while it is built (tracemalloc) and keeps 32,
# so a full-budget run peaks near 82 MB.
WORK_BUDGET = 2_000_000


class ConfigError(Exception):
    """Invalid or missing configuration; `field` is the dotted path."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


# -- bundled configurations ----------------------------------------------------


def _preset(*, controller: dict = {}, simulation: dict = {}, **sections: dict) -> dict:
    """A bundled config: the proposed design at omega = 400 on a = 10, b = -2
    from (1, 0), Euler at the paper step on [0, 3], plus the given fields."""
    return {
        "plant": {"a": 10.0, "b": -2.0},
        "controller": {"variant": "proposed", "omega": 400.0, **controller},
        "simulation": {"t0": 0.0, "t_f": 3.0, "method": "ode1", "step": "paper", **simulation},
        "initial": {"y": 1.0, "k": 0.0},
        **sections,
    }


PRESETS: dict[str, dict] = {
    # Phase-plane demo: primary design plus its averaged companion.
    "fig1": _preset(simulation={"with_lbs": True}),
    # Trajectory comparison against the gain-reversal controller.
    "fig2": _preset(
        controller={"nussbaum": "s_cos_s"},
        compare={"variants": ["proposed", "nussbaum"], "with_lbs": True},
    ),
    # Orbit comparison of the two dither designs sharing one average.
    "fig3": _preset(compare={"variants": ["proposed", "swapped"], "with_lbs": True}),
    # Series-scheme orders against the Euler reference orbit.
    "fig4": _preset(
        simulation={"t_f": 2.0}, chenfliess={"orders": [0, 1, 2], "periods_per_step": 1}
    ),
}


# -- config schema --------------------------------------------------------------


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


def _number(v: object, path: str, *, positive=False, nonzero=False, within=math.inf) -> float:
    """v as a finite float, positive, nonzero or at most `within` in size if
    asked; anything else is a config error at `path`."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(path, _not_a_number(v))
    v = float(v) if abs(v) <= sys.float_info.max else math.inf  # float() of a huge int overflows
    if not math.isfinite(v):
        raise ConfigError(path, "must be finite")
    if positive and v <= 0.0:
        raise ConfigError(path, "must be positive")
    if nonzero and v == 0.0:
        raise ConfigError(path, "must be nonzero")
    if abs(v) > within:
        raise ConfigError(path, f"must lie in [-{within:g}, {within:g}]")
    return v


def _integer(v: object, path: str, *, least: float = -math.inf, among: tuple = ()) -> int:
    """v as an integer, at least `least` and one of `among` if given."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(path, f"expected an integer, got {type(v).__name__}")
    if v < least:
        raise ConfigError(path, f"must be at least {least}")
    return _one_of(v, path, among=among) if among else v


def _one_of(v: object, path: str, *, among: tuple) -> object:
    """v, if it is one of `among`."""
    if v not in among:
        *rest, last = map(str, among)
        raise ConfigError(path, f"must be {', '.join(rest) + ' or ' if rest else ''}{last}")
    return v


def _flag(v: object, path: str) -> bool:
    """v as a YAML boolean; the string "false" is refused, not read as true."""
    if not isinstance(v, bool):
        raise ConfigError(path, f"expected true or false, got {type(v).__name__}")
    return v


def _list(v: object, path: str, *, item: Callable, distinct: bool = False) -> list:
    """The nonempty list v, each element read by item(value, path)."""
    if not isinstance(v, list) or not v:
        raise ConfigError(path, "expected a nonempty list")
    items = [item(x, f"{path}[{i}]") for i, x in enumerate(v)]
    if distinct and len(set(items)) != len(items):
        raise ConfigError(path, f"{path.rsplit('.', 1)[-1]} must be distinct")
    return items


def _named(v: object, path: str, *, lookup: Callable[[str], object]) -> object:
    """What `lookup` resolves the name v to; its ValueError is a config error."""
    try:
        return lookup(str(v))
    except ValueError as e:
        raise ConfigError(path, str(e)) from None


def _start_range(v: object, path: str) -> list:
    """v as a [lo, hi] pair within integrate's _BOUND: a run ends at the
    first state with |y| or |k| above it, so a start beyond is refused."""
    pair = _list(v, path, item=_number)
    if len(pair) != 2 or not -_BOUND <= pair[0] <= pair[1] <= _BOUND:
        raise ConfigError(path, f"expected [lo, hi] with {-_BOUND:g} <= lo <= hi <= {_BOUND:g}")
    return pair


def _step(v: object, path: str) -> object:
    """"paper" (the controller's reference step) or a positive step."""
    return v if v == "paper" else _number(v, path, positive=True)


_REQUIRED = object()
_variant = partial(_named, lookup=ControllerVariant.from_name)
_start = partial(_number, within=_BOUND)
_count = partial(_integer, least=1)
_order = partial(_integer, among=_ORDERS)

# Every config field, once: dotted path -> (reader, default), read through
# `_value`. A reader takes the value and its path, refuses a value outside the
# field's bounds and returns what the commands use; _REQUIRED marks a field
# with no default. These are the only keys a config may hold (`_check_known`);
# a command ignores the declared fields it does not read.
FIELDS: dict[str, tuple[Callable[..., object], object]] = {
    "plant.a": (_number, _REQUIRED),
    "plant.b": (partial(_number, nonzero=True), _REQUIRED),
    "controller.variant": (_variant, ControllerVariant.PROPOSED),
    "controller.omega": (partial(_number, positive=True), _REQUIRED),
    "controller.nussbaum": (partial(_one_of, among=("s_cos_s",)), "s_cos_s"),
    "controller.sign_b": (partial(_integer, among=(-1, 1)), _REQUIRED),
    "simulation.t0": (_number, 0.0),
    "simulation.t_f": (_number, _REQUIRED),
    "simulation.method": (partial(_named, lookup=Method.from_name), Method.EULER),
    "simulation.step": (_step, "paper"),
    "simulation.with_lbs": (_flag, False),
    "initial.y": (_start, _REQUIRED),
    "initial.k": (_start, _REQUIRED),
    "initial.random.count": (_count, _REQUIRED),
    "initial.random.y_range": (_start_range, _REQUIRED),
    "initial.random.k_range": (_start_range, _REQUIRED),
    "compare.variants": (partial(_list, item=_variant, distinct=True), _REQUIRED),
    "compare.with_lbs": (_flag, False),
    "sweep.omegas": (partial(_list, item=partial(_number, positive=True)), _REQUIRED),
    "check.region_min": (_number, -2.0),
    "check.region_max": (_number, 2.0),
    "check.grid": (_count, 50),
    "check.time_samples": (_count, 20),
    "check.nussbaum.k0": (_number, 0.0),
    "check.nussbaum.k_max": (_number, 50.0),
    "check.nussbaum.grid": (partial(_integer, least=1000), 20_000),
    "chenfliess.orders": (partial(_list, item=_order, distinct=True), _REQUIRED),
    "chenfliess.periods_per_step": (_count, 1),
    "chenfliess.n_steps": (partial(_integer, least=0), None),
}

_KNOWN_PATHS = {tuple(f.split("."))[:i] for f in FIELDS for i in range(1, f.count(".") + 2)}


def _value(cfg: dict, field: str, *, required: bool = False, at: str = "", **bounds) -> object:
    """Config field `field` read by its reader, with `bounds` added. Each
    section on the path must be a mapping. A field absent or null, or under
    an absent or null section, takes its default; without one, or if
    `required`, it is missing. With `at`, cfg is its section, named `at`."""
    reader, default = FIELDS[field]
    parts = field.split(".")
    steps = parts[-1:] if at else parts
    node = cfg
    for i, name in enumerate(steps, 1):
        where = f"{at}.{name}" if at else ".".join(parts[:i])
        node = node.get(name)
        if node is None:
            if required or default is _REQUIRED:
                kind = "field" if i == len(steps) else "section"
                raise ConfigError(where, f"missing required {kind}")
            return default
        if i < len(steps) and not isinstance(node, dict):
            raise ConfigError(where, "expected a mapping")
    return reader(node, where, **bounds)


def _check_known(node: dict, path: tuple = (), where: str = "", leaves: bool = False) -> None:
    """Refuse the first key of node (the config, or its section at `path`
    named `where`) that FIELDS does not declare there, or with leaves that
    names no field, listing those declared. Sections and `initial` list
    entries, which hold fields only, are walked, field values not."""
    known = sorted(
        p[-1] for p in _KNOWN_PATHS if p[:-1] == path and (not leaves or ".".join(p) in FIELDS)
    )
    for key, value in node.items():
        sub, at = (*path, key), f"{where}.{key}" if where else str(key)
        if key not in known:
            raise ConfigError(at, f"unknown field (known here: {', '.join(known)})")
        if isinstance(value, dict) and ".".join(sub) not in FIELDS:
            _check_known(value, sub, at)
        elif sub == ("initial",) and isinstance(value, list):
            for i, entry in enumerate(value):
                if isinstance(entry, dict):
                    _check_known(entry, sub, f"initial[{i}]", leaves=True)


if yaml.__with_libyaml__:

    class _SafeLoader(yaml.composer.Composer, yaml.CSafeLoader):
        """CSafeLoader whose nodes pyyaml's own composer builds from
        libyaml's events; as the first base, Composer's methods shadow
        CParser's. libyaml's composer recurses in C with no depth check
        and crashes the process on a config nested some 50,000 deep,
        where this one raises RecursionError."""

        def __init__(self, stream: bytes) -> None:
            yaml.CSafeLoader.__init__(self, stream)
            yaml.composer.Composer.__init__(self)

else:
    _SafeLoader = yaml.SafeLoader


class _UniqueKeyLoader(_SafeLoader):
    """Safe loader that refuses a key spelled twice in one mapping, where
    safe_load keeps the last without a word. It parses with libyaml where
    pyyaml was built with it."""

    def construct_mapping(self, node: yaml.Node, deep: bool = False) -> dict:
        seen = set()
        for key, _ in node.value if isinstance(node, yaml.MappingNode) else ():
            spelling = (key.tag, key.value) if isinstance(key, yaml.ScalarNode) else key
            if spelling in seen:
                line = key.start_mark.line + 1
                raise ConfigError("config", f"duplicate key {key.value!r} on line {line}")
            seen.add(spelling)
        return super().construct_mapping(node, deep)


def _check_steps(runs: Sequence[tuple[str, float]], t0: float, t_f: float) -> float:
    """The steps that runs over [t0, t_f] take, one run per (field, step h).
    A step `integrate._grid` refuses, such as the paper step 0.0 or inf of an
    extreme omega, is a config error naming its run's field."""
    for field, h in runs:
        try:
            _grid(t0, t_f, h)
        except ValueError as e:
            raise ConfigError(field, str(e)) from None
    return sum((t_f - t0) / h for _, h in runs)


def _parse_plant(cfg: dict) -> PlantParams:
    return PlantParams(_value(cfg, "plant.a"), _value(cfg, "plant.b"))


def _controller_spec(cfg: dict, variant: ControllerVariant) -> ControllerSpec:
    """Build the spec for `variant`, reading that variant's extra
    parameters from the shared controller section."""
    if variant in DITHERED_VARIANTS:
        return ControllerSpec(variant, omega=_value(cfg, "controller.omega"))
    if variant is ControllerVariant.NUSSBAUM:
        _value(cfg, "controller.nussbaum")  # s_cos_s, the spec's default
        return ControllerSpec(variant)
    return ControllerSpec(variant, sign_b=_value(cfg, "controller.sign_b"))


def _parse_simulation(cfg: dict) -> tuple[float, float, Method]:
    """The horizon t0, t_f and the method the simulation section sets."""
    t0 = _value(cfg, "simulation.t0")
    t_f = _value(cfg, "simulation.t_f")
    if t_f < t0:
        raise ConfigError("simulation.t_f", "must not precede t0")
    return t0, t_f, _value(cfg, "simulation.method")


def _check_zero_start(cfg: dict, command: str) -> None:
    """Refuse a nonzero simulation.t0 for a command whose runs start at 0."""
    if _value(cfg, "simulation.t0") != 0.0:
        raise ConfigError("simulation.t0", f"must be 0: {command} runs start at t = 0")


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
    return State(_value(entry, "initial.y", at=where), _value(entry, "initial.k", at=where))


def _parse_initial(cfg: dict, seed: int, run_steps: float) -> list[State]:
    """The initial states, one run each; a batch whose runs of about
    `run_steps` steps would exceed the work budget is refused before any
    state is drawn."""
    ini = cfg.get("initial")
    if isinstance(ini, list):
        if not ini:
            raise ConfigError("initial", "list must be nonempty")
        _check_work("initial", len(ini), run_steps)
        return [_state_from(e, f"initial[{i}]") for i, e in enumerate(ini)]
    if isinstance(ini, dict) and ini.get("random") is not None:
        if ini.get("y") is not None or ini.get("k") is not None:
            raise ConfigError("initial", "give either random or y and k, not both")
        count = _value(cfg, "initial.random.count")
        _check_work("initial.random.count", count, run_steps)
        rng = np.random.default_rng(seed)
        ys = rng.uniform(*_value(cfg, "initial.random.y_range"), size=count)
        ks = rng.uniform(*_value(cfg, "initial.random.k_range"), size=count)
        return [State(float(y), float(k)) for y, k in zip(ys, ks)]
    return [State(_value(cfg, "initial.y"), _value(cfg, "initial.k"))]


def _single_initial(cfg: dict, seed: int, command: str, run_steps: float) -> State:
    initials = _parse_initial(cfg, seed, run_steps)
    if len(initials) != 1:
        raise ConfigError("initial", f"{command} needs exactly one initial condition")
    return initials[0]


# Field evaluations per step of each method: a run's cost in `_fork_map`.
_STAGES = {Method.EULER: 1, Method.RK4: 4}


def _announce(path: Path) -> None:
    print(f"wrote {path}")


# -- commands --------------------------------------------------------------------


def cmd_simulate(cfg: dict, out: Path, args: argparse.Namespace) -> int:
    plant = _parse_plant(cfg)
    spec = _controller_spec(cfg, _value(cfg, "controller.variant", required=True))
    t0, t_f, method = _parse_simulation(cfg)
    step = _value(cfg, "simulation.step")
    h = _paper_step(spec) if step == "paper" else step
    with_lbs = _value(cfg, "simulation.with_lbs")
    runs = [("simulation.step", h)]
    if with_lbs:
        runs.append(("simulation.t_f", LBS_REFERENCE_STEP))
    run_steps = _check_steps(runs, t0, t_f)
    _check_work("simulation.t_f", 1, run_steps)
    initials = _parse_initial(cfg, args.seed, run_steps)

    def run(job: tuple[str, int, State]) -> tuple[Path, Path]:
        stem, i, s0 = job
        if stem == "lbs":
            traj = _lbs_reference(plant, s0, t0, t_f)
        else:
            rhs, control, meta = _loop(plant, spec, s0)
            traj = simulate(rhs, s0, t0, t_f, h, method, input_fn=control, meta=meta)
        return traj.save(out / (f"{stem}_{i}.csv" if len(initials) > 1 else f"{stem}.csv"))

    # The runs are independent and each writes its own two files.
    jobs = [("trajectory", i, s0) for i, s0 in enumerate(initials, 1)]
    costs = [(t_f - t0) / h * _STAGES[method]] * len(jobs)
    if with_lbs:
        jobs += [("lbs", i, s0) for i, s0 in enumerate(initials, 1)]
        costs += [(t_f - t0) / LBS_REFERENCE_STEP * _STAGES[Method.RK4]] * len(initials)
    for paths in _fork_map(run, jobs, costs):
        for path in paths:
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
    variants = _value(cfg, "compare.variants")
    with_lbs = _value(cfg, "compare.with_lbs")
    specs = [_controller_spec(cfg, variant) for variant in variants]
    # Horizon and method are shared; each controller runs at its own paper
    # step, so simulation.step and simulation.with_lbs are not read.
    t0, t_f, method = _parse_simulation(cfg)
    steps = [_paper_step(spec) for spec in specs]
    runs = [(f"compare.variants[{i}]", h) for i, h in enumerate(steps)]
    if with_lbs:
        runs.append(("simulation.t_f", LBS_REFERENCE_STEP))
    run_steps = _check_steps(runs, t0, t_f)
    _check_work("simulation.t_f", 1, run_steps)
    s0 = _single_initial(cfg, args.seed, "compare", run_steps)

    def run(job: tuple[ControllerSpec | None, float]) -> Trajectory:
        spec, h = job
        if spec is None:
            return _lbs_reference(plant, s0, t0, t_f)
        # compare.csv holds only y columns, so the runs record no input.
        rhs, _, meta = _loop(plant, spec, s0)
        return simulate(rhs, s0, t0, t_f, h, method, meta=meta)

    # The runs are independent; None stands for the averaged reference.
    jobs = list(zip(specs, steps))
    if with_lbs:
        jobs.append((None, LBS_REFERENCE_STEP))
    costs = [
        (t_f - t0) / h * _STAGES[Method.RK4 if spec is None else method] for spec, h in jobs
    ]
    trajs = _fork_map(run, jobs, costs)
    lbs = trajs.pop() if with_lbs else None

    # The coarsest completed run gives the time grid; when every run diverged,
    # the one that reached furthest does. A diverged run holds its last value.
    completed = [(h, traj) for traj, h in zip(trajs, steps) if traj.status == "ok"]
    if completed:
        base = max(completed, key=lambda pair: pair[0])[1].times
    else:
        base = max(trajs, key=lambda traj: traj.times[-1]).times
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
    # The exact averaged flow needs a finite orbit radius; with a start
    # within _BOUND, that holds exactly when the center a/b is finite.
    if not math.isfinite(plant.center):
        raise ConfigError("plant.b", "too small for plant.a: the averaged center a/b overflows")
    vals = _value(cfg, "sweep.omegas")
    _check_zero_start(cfg, "sweep")
    t_f = _value(cfg, "simulation.t_f", positive=True)
    method = _value(cfg, "simulation.method")
    # One run per omega at the paper step; the averaged flow is exact.
    specs = [ControllerSpec(ControllerVariant.PROPOSED, omega=w) for w in vals]
    runs = [(f"sweep.omegas[{i}]", _paper_step(spec)) for i, spec in enumerate(specs)]
    run_steps = _check_steps(runs, 0.0, t_f)
    _check_work("sweep.omegas", 1, run_steps)
    s0 = _single_initial(cfg, args.seed, "sweep", run_steps)

    results = approximation_sweep(plant, s0, t_f, vals, method)
    csv_path = out / "sweep.csv"
    sweep_to_csv(results, csv_path)
    _announce(csv_path)
    if len(results) == 1:
        print("error strictly decreasing across the given omegas: one omega, nothing to compare")
        return 0
    errs = [err for _, err in results]
    decreasing = all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    print(f"error strictly decreasing across the given omegas: {'yes' if decreasing else 'no'}")
    return 0


def _audited_system(cfg: dict, plant: PlantParams) -> AffineSystem:
    """Drift/dither split of the configured dithered design; proposed when
    the config names no controller."""
    variant = _value(cfg, "controller.variant")
    if variant is ControllerVariant.PROPOSED:
        return proposed_design_system(plant)
    if variant is ControllerVariant.SWAPPED:
        return swapped_design_system(plant)
    raise ConfigError("controller.variant", f"{variant.value!r} has no dither to audit")


def cmd_check(cfg: dict, out: Path, args: argparse.Namespace) -> int:
    plant = _parse_plant(cfg)
    lo = _value(cfg, "check.region_min")
    hi = _value(cfg, "check.region_max")
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ConfigError("check.region_min", "must be below check.region_max by a finite amount")
    grid = _value(cfg, "check.grid")
    time_samples = _value(cfg, "check.time_samples")
    system = _audited_system(cfg, plant)

    k0 = _value(cfg, "check.nussbaum.k0")
    k_max = _value(cfg, "check.nussbaum.k_max")
    # The gain-shape check also runs on the horizon doubled from k0.
    if not (k0 < k_max and math.isfinite(k0 + 2.0 * (k_max - k0))):
        raise ConfigError("check.nussbaum.k_max", "must exceed k0 with k0 + 2*(k_max - k0) finite")
    ngrid = _value(cfg, "check.nussbaum.grid")
    # The audit peaks near 165 bytes per mesh state at grid 120 and near 85
    # at grid 200, where an integration step with a u column peaks near 41
    # bytes, so the mesh may take a sixth of the budget (under 60 MB, about
    # two thirds of the 82 MB of a full-budget run).
    _check_work("check.grid", grid, grid, unit="mesh states", budget=WORK_BUDGET // 6)
    _check_work("check.time_samples", time_samples, grid * grid, unit="audited samples")
    # Both gain-shape passes: grid panels, then 2 * grid on the doubled horizon.
    _check_work("check.nussbaum.grid", 3, ngrid, unit="gain-shape evaluations")

    # The other arguments are validated above: a ValueError means N(k)
    # overflowed, or else that its panels are too wide for the gain shape.
    try:
        ncheck = nussbaum_type_check(s_cos_s, k0, k_max, ngrid)
    except _AliasedProfile as e:
        raise ConfigError("check.nussbaum.grid", str(e)) from None
    except ValueError as e:
        raise ConfigError("check.nussbaum.k_max", str(e)) from None
    report = check_assumptions(
        system, ((lo, hi), (lo, hi)), grid=grid, time_samples=time_samples
    )

    doc = {
        "assumptions": report.to_dict(),
        "nussbaum": {"shape": "s_cos_s", **ncheck.to_dict()},
    }
    _announce(_write_json(doc, out / "check.json"))
    print(f"averaging assumptions: {'PASS' if report.passed else 'FAIL'}")
    grows = "grows" if ncheck.excursions_grow else "does not grow"
    print(
        f"gain shape s_cos_s: sup={ncheck.running_sup:.3g} inf={ncheck.running_inf:.3g} "
        f"crossings={ncheck.crossings}, excursion range {grows} on doubled horizon"
    )
    return 0


def cmd_chenfliess(cfg: dict, out: Path, args: argparse.Namespace) -> int:
    plant = _parse_plant(cfg)
    orders = _value(cfg, "chenfliess.orders")
    pps = _value(cfg, "chenfliess.periods_per_step")
    # A series step costs one step per order and, in the Euler reference at
    # the paper step, STEPS_PER_PERIOD steps per dither period.
    step_cost = len(orders) + STEPS_PER_PERIOD * pps
    _check_work("chenfliess.periods_per_step", 1, step_cost)

    spec = _controller_spec(cfg, _value(cfg, "controller.variant"))
    if spec.variant is not ControllerVariant.PROPOSED:
        raise ConfigError("controller.variant", f"{spec.variant.value!r} has no series table")
    _check_zero_start(cfg, "chenfliess")

    T = math.tau * pps / spec.omega
    n_steps = _value(cfg, "chenfliess.n_steps")
    if n_steps is not None:
        _check_work("chenfliess.n_steps", n_steps, step_cost)
    else:
        t_f = _value(cfg, "simulation.t_f", positive=True)
        _check_work("simulation.t_f", 1, t_f / T * step_cost)
        n_steps = _whole_steps(t_f, T)
    if not math.isfinite(n_steps * T):
        raise ConfigError("controller.omega", "too small: the series run's end time overflows")
    h = _paper_step(spec)
    _check_steps([("controller.omega", h)], 0.0, n_steps * T)
    s0 = _single_initial(cfg, args.seed, "chenfliess", n_steps * step_cost)

    for d in orders:
        traj = chen_fliess_simulate(plant, s0, spec.omega, pps, n_steps, d)
        for path in traj.save(out / f"chenfliess_order{d}.csv"):
            _announce(path)

    rhs, control, meta = _loop(plant, spec, s0)
    ref = simulate(rhs, s0, 0.0, n_steps * T, h, Method.EULER, input_fn=control, meta=meta)
    for path in ref.save(out / "reference.csv"):
        _announce(path)
    return 0


# Each command with its help line.
_COMMANDS = {
    "simulate": (cmd_simulate, "run the configured controller"),
    "compare": (cmd_compare, "run several controllers, aligned CSV"),
    "sweep": (cmd_sweep, "frequency sweep of the averaging gap"),
    "check": (cmd_check, "audit averaging prerequisites"),
    "chenfliess": (cmd_chenfliess, "series-scheme runs per order"),
}


# -- entry point -----------------------------------------------------------------


def _seed(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dithersim",
        description="Simulation and diagnostics for dither-based adaptive stabilization.",
        epilog="commands:\n"
        + "\n".join(f"  {name:<12}{help_line}" for name, (_, help_line) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, help="what to run (listed below)")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=Path, help="YAML config file")
    source.add_argument(
        "--preset", choices=sorted(PRESETS), help="bundled config (written to --out)"
    )
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument(
        "--seed", type=_seed, default=0, help="seed for random initial-condition batches"
    )
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
        # Bytes, so that text that is not UTF-8 is a YAML ReaderError.
        cfg = yaml.load(path.read_bytes(), Loader=_UniqueKeyLoader)
    except yaml.YAMLError as e:
        raise ConfigError("config", f"invalid YAML: {e}") from None
    except RecursionError:
        raise ConfigError("config", "invalid YAML: nested too deeply") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be a mapping of sections")
    return cfg


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    out = args.out
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # a file at --out or on the way to it
        print(f"error: --out {out}: cannot make the directory: {e.strerror}", file=sys.stderr)
        return 2
    try:
        cfg = _resolve_config(args, out)
        _check_known(cfg)
        return _COMMANDS[args.command][0](cfg, out, args)
    except ConfigError as e:
        print(f"config error: {e.field}: {e.message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
