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
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import yaml

from .analysis import approximation_sweep, nussbaum_type_check, sweep_to_csv
from .averaging import (
    AffineSystem,
    DitherSignal,
    check_assumptions,
    proposed_design_system,
    swapped_design_system,
)
from .dynamics import (
    ControllerSpec,
    ControllerVariant,
    PlantParams,
    State,
    closed_loop,
    lie_bracket_loop,
    s_cos_s,
)
from .integrate import Method, Trajectory, _write_csv, chen_fliess_simulate, simulate

__all__ = ["ConfigError", "PRESETS", "main"]

LBS_REFERENCE_STEP = 1e-4
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


def _num(
    sec: dict,
    secname: str,
    key: str,
    default: object = _MISSING,
    *,
    positive: bool = False,
) -> float:
    v = _get(sec, secname, key, default)
    path = f"{secname}.{key}"
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(v).__name__}")
    v = float(v)
    if not math.isfinite(v):
        raise ConfigError(path, "must be finite")
    if positive and v <= 0.0:
        raise ConfigError(path, "must be positive")
    return v


def _int(sec: dict, secname: str, key: str, default: object = _MISSING) -> int:
    v = _get(sec, secname, key, default)
    path = f"{secname}.{key}"
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(path, f"expected an integer, got {type(v).__name__}")
    return v


def _parse_plant(cfg: dict) -> PlantParams:
    sec = _section(cfg, "plant")
    a = _num(sec, "plant", "a")
    b = _num(sec, "plant", "b")
    if b == 0.0:
        raise ConfigError("plant.b", "must be nonzero")
    return PlantParams(a, b)


def _controller_spec(cfg: dict, name: str, where: str) -> ControllerSpec:
    """Build the spec for variant `name`, reading that variant's extra
    parameters from the shared controller section. `where` names the
    config field the variant came from, for error messages.
    """
    sec = _section(cfg, "controller", required=False)
    try:
        variant = ControllerVariant.from_name(name)
    except ValueError as e:
        raise ConfigError(where, str(e)) from None
    omega = None
    nussbaum_fn = None
    sign_b = None
    if variant in (ControllerVariant.PROPOSED, ControllerVariant.SWAPPED):
        omega = _num(sec, "controller", "omega", positive=True)
    elif variant is ControllerVariant.NUSSBAUM:
        nussbaum_fn = NUSSBAUM_SHAPES[_nussbaum_shape(sec, "controller", "nussbaum")]
    elif variant is ControllerVariant.WILLEMS_BYRNES:
        sign_b = _int(sec, "controller", "sign_b")
        if sign_b not in (-1, 1):
            raise ConfigError("controller.sign_b", "must be -1 or 1")
    return ControllerSpec(variant, omega=omega, nussbaum_fn=nussbaum_fn, sign_b=sign_b)


def _nussbaum_shape(sec: dict, secname: str, key: str) -> str:
    """Name of a known gain shape read from sec[key], default s_cos_s."""
    shape = str(_get(sec, secname, key, "s_cos_s"))
    if shape not in NUSSBAUM_SHAPES:
        known = ", ".join(sorted(NUSSBAUM_SHAPES))
        raise ConfigError(
            f"{secname}.{key}", f"unknown shape {shape!r} (expected one of: {known})"
        )
    return shape


def _paper_step(spec: ControllerSpec) -> float:
    """Per-design reference step: a fortieth of the dither period for
    the dithered designs, 1e-4 for the dither-free ones."""
    if spec.omega is not None:
        return math.tau / (40.0 * spec.omega)
    return 1e-4


def _parse_simulation(
    cfg: dict, spec: ControllerSpec
) -> tuple[float, float, Method, float, bool]:
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
    step = _get(sec, "simulation", "step", "paper")
    if step == "paper":
        h = _paper_step(spec)
    elif isinstance(step, (int, float)) and not isinstance(step, bool):
        h = float(step)
        if not (math.isfinite(h) and h > 0.0):
            raise ConfigError("simulation.step", "must be positive")
    else:
        raise ConfigError("simulation.step", "expected a positive number or 'paper'")
    if t_f > t0 and h > (t_f - t0) * (1.0 + 1e-12):
        raise ConfigError("simulation.step", "step exceeds the horizon t_f - t0")
    with_lbs = bool(_get(sec, "simulation", "with_lbs", False))
    return t0, t_f, method, h, with_lbs


def _state_from(entry: object, where: str) -> State:
    if not isinstance(entry, dict):
        raise ConfigError(where, "expected a mapping with keys y and k")
    return State(_num(entry, where, "y"), _num(entry, where, "k"))


def _parse_initial(cfg: dict, seed: int) -> list[State]:
    ini = cfg.get("initial")
    if ini is None:
        raise ConfigError("initial", "missing required section")
    if isinstance(ini, list):
        if not ini:
            raise ConfigError("initial", "list must be nonempty")
        return [_state_from(e, f"initial[{i}]") for i, e in enumerate(ini)]
    if isinstance(ini, dict) and "random" in ini:
        rnd = ini["random"]
        if not isinstance(rnd, dict):
            raise ConfigError("initial.random", "expected a mapping")
        count = _int(rnd, "initial.random", "count")
        if count < 1:
            raise ConfigError("initial.random.count", "must be at least 1")
        ranges = {}
        for key in ("y_range", "k_range"):
            pair = _get(rnd, "initial.random", key)
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in pair)
                or float(pair[0]) > float(pair[1])
            ):
                raise ConfigError(f"initial.random.{key}", "expected [lo, hi] with lo <= hi")
            ranges[key] = (float(pair[0]), float(pair[1]))
        rng = np.random.default_rng(seed)
        ys = rng.uniform(*ranges["y_range"], size=count)
        ks = rng.uniform(*ranges["k_range"], size=count)
        return [State(float(y), float(k)) for y, k in zip(ys, ks)]
    return [_state_from(ini, "initial")]


def _single_initial(cfg: dict, seed: int, command: str) -> State:
    initials = _parse_initial(cfg, seed)
    if len(initials) != 1:
        raise ConfigError("initial", f"{command} needs exactly one initial condition")
    return initials[0]


# -- shared runners --------------------------------------------------------------


def _run_controller(
    plant: PlantParams,
    spec: ControllerSpec,
    name: str,
    s0: State,
    t0: float,
    t_f: float,
    h: float,
    method: Method,
) -> Trajectory:
    rhs, control = closed_loop(plant, spec)
    meta = {
        "variant": name,
        "omega": spec.omega,
        "a": plant.a,
        "b": plant.b,
        "y0": s0.y,
        "k0": s0.k,
    }
    return simulate(rhs, s0, t0, t_f, h, method, input_fn=control, meta=meta)


def _run_lbs(plant: PlantParams, s0: State, t0: float, t_f: float) -> Trajectory:
    meta = {
        "variant": None,
        "system": "lbs",
        "omega": None,
        "a": plant.a,
        "b": plant.b,
        "y0": s0.y,
        "k0": s0.k,
    }
    return simulate(
        lie_bracket_loop(plant), s0, t0, t_f, LBS_REFERENCE_STEP, Method.RK4, meta=meta
    )


def _announce(path: Path) -> None:
    print(f"wrote {path}")


def _jsonable(v: object) -> object:
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON-serializable: {type(v).__name__}")


def _write_json(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2, default=_jsonable) + "\n")


# -- subcommands -----------------------------------------------------------------


def cmd_simulate(cfg: dict, out: Path, args: argparse.Namespace) -> int:
    plant = _parse_plant(cfg)
    name = str(_get(_section(cfg, "controller"), "controller", "variant"))
    spec = _controller_spec(cfg, name, "controller.variant")
    t0, t_f, method, h, with_lbs_cfg = _parse_simulation(cfg, spec)
    with_lbs = with_lbs_cfg or bool(getattr(args, "with_lbs", False))
    initials = _parse_initial(cfg, args.seed)

    trajs = [_run_controller(plant, spec, name, s0, t0, t_f, h, method) for s0 in initials]
    lbs_trajs = [_run_lbs(plant, s0, t0, t_f) for s0 in initials] if with_lbs else []

    multi = len(initials) > 1
    for i, traj in enumerate(trajs):
        stem = f"trajectory_{i + 1}" if multi else "trajectory"
        for path in traj.save(out / f"{stem}.csv"):
            _announce(path)
    for i, traj in enumerate(lbs_trajs):
        stem = f"lbs_{i + 1}" if multi else "lbs"
        for path in traj.save(out / f"{stem}.csv"):
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
    variants = _get(comp, "compare", "variants")
    if not isinstance(variants, list) or not variants:
        raise ConfigError("compare.variants", "expected a nonempty list")
    if len(set(variants)) != len(variants):
        raise ConfigError("compare.variants", "variants must be distinct")
    with_lbs = bool(_get(comp, "compare", "with_lbs", False))
    specs = [
        _controller_spec(cfg, str(name), f"compare.variants[{i}]")
        for i, name in enumerate(variants)
    ]
    # Horizon and method are shared; each controller runs at its own
    # reference step regardless of simulation.step.
    t0, t_f, method, _, _ = _parse_simulation(cfg, specs[0])
    s0 = _single_initial(cfg, args.seed, "compare")

    steps = [_paper_step(spec) for spec in specs]
    trajs = [
        _run_controller(plant, spec, str(name), s0, t0, t_f, h, method)
        for spec, name, h in zip(specs, variants, steps)
    ]
    lbs = _run_lbs(plant, s0, t0, t_f) if with_lbs else None

    base = trajs[int(np.argmax(steps))].times
    columns = [("t", base)]
    for name, traj, h in zip(variants, trajs, steps):
        columns.append((f"y_{name}", _nearest_resample(traj, base, t0, h)))
    if lbs is not None:
        columns.append(("y_lbs", _nearest_resample(lbs, base, t0, LBS_REFERENCE_STEP)))

    names, arrays = zip(*columns)
    _announce(_write_csv(out / "compare.csv", names, arrays))

    runs = [traj.record for traj in [*trajs, lbs] if traj is not None]
    meta_path = out / "compare.json"
    _write_json({"t0": t0, "tf": t_f, "runs": runs}, meta_path)
    _announce(meta_path)
    return 0


def cmd_sweep(cfg: dict, out: Path, args: argparse.Namespace) -> int:
    plant = _parse_plant(cfg)
    sec = _section(cfg, "sweep")
    omegas = _get(sec, "sweep", "omegas")
    if not isinstance(omegas, list) or not omegas:
        raise ConfigError("sweep.omegas", "expected a nonempty list")
    vals = []
    for i, w in enumerate(omegas):
        if isinstance(w, bool) or not isinstance(w, (int, float)) or not w > 0:
            raise ConfigError(f"sweep.omegas[{i}]", "expected a positive number")
        vals.append(float(w))
    sim = _section(cfg, "simulation")
    t_f = _num(sim, "simulation", "t_f", positive=True)
    s0 = _single_initial(cfg, args.seed, "sweep")

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
    name = _get(_section(cfg, "controller", required=False), "controller", "variant", "proposed")
    try:
        variant = ControllerVariant.from_name(str(name))
    except ValueError as e:
        raise ConfigError("controller.variant", str(e)) from None
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
    if lo >= hi:
        raise ConfigError("check.region_min", "must be below check.region_max")
    grid = _int(sec, "check", "grid", 50)
    time_samples = _int(sec, "check", "time_samples", 20)
    bias = _num(sec, "check", "bias", 0.0)

    system = _audited_system(cfg, plant)
    if bias != 0.0:
        def biased(ph: np.ndarray) -> np.ndarray:
            return np.sin(ph) + bias

        system = AffineSystem(
            system.drift, system.fields, (DitherSignal(biased), system.dithers[1])
        )

    report = check_assumptions(
        system, ((lo, hi), (lo, hi)), grid=grid, time_samples=time_samples
    )

    nsec = sec.get("nussbaum") or {}
    if not isinstance(nsec, dict):
        raise ConfigError("check.nussbaum", "expected a mapping")
    shape = _nussbaum_shape(nsec, "check.nussbaum", "h")
    k0 = _num(nsec, "check.nussbaum", "k0", 0.0)
    k_max = _num(nsec, "check.nussbaum", "k_max", 50.0)
    if k_max <= k0:
        raise ConfigError("check.nussbaum.k_max", "must exceed k0")
    ngrid = _int(nsec, "check.nussbaum", "grid", 20_000)
    if ngrid < 1000:
        raise ConfigError("check.nussbaum.grid", "must be at least 1000")
    ncheck = nussbaum_type_check(NUSSBAUM_SHAPES[shape], k0, k_max, ngrid)

    doc = {
        "assumptions": report.to_dict(),
        "nussbaum": {"shape": shape, **ncheck.to_dict()},
    }
    path = out / "check.json"
    _write_json(doc, path)
    _announce(path)
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
    orders = _get(sec, "chenfliess", "orders")
    if not isinstance(orders, list) or not orders:
        raise ConfigError("chenfliess.orders", "expected a nonempty list")
    for i, d in enumerate(orders):
        if isinstance(d, bool) or not isinstance(d, int) or not 0 <= d <= 3:
            raise ConfigError(f"chenfliess.orders[{i}]", "expected an integer in 0..3")
    if len(set(orders)) != len(orders):
        raise ConfigError("chenfliess.orders", "orders must be distinct")
    pps = _int(sec, "chenfliess", "periods_per_step", 1)
    if pps < 1:
        raise ConfigError("chenfliess.periods_per_step", "must be at least 1")

    ctrl = _section(cfg, "controller")
    omega = _num(ctrl, "controller", "omega", positive=True)
    sim = _section(cfg, "simulation")
    t0 = _num(sim, "simulation", "t0", 0.0)
    if t0 != 0.0:
        raise ConfigError("simulation.t0", "series stepping starts at 0")
    s0 = _single_initial(cfg, args.seed, "chenfliess")

    T = math.tau * pps / omega
    if "n_steps" in sec:
        n_steps = _int(sec, "chenfliess", "n_steps")
        if n_steps < 0:
            raise ConfigError("chenfliess.n_steps", "must be nonnegative")
    else:
        t_f = _num(sim, "simulation", "t_f", positive=True)
        n_steps = int(math.floor(t_f / T * (1.0 + 1e-12)))

    for d in orders:
        traj = chen_fliess_simulate(plant, s0, omega, pps, n_steps, d)
        for path in traj.save(out / f"chenfliess_order{d}.csv"):
            _announce(path)

    spec = ControllerSpec(ControllerVariant.PROPOSED, omega=omega)
    ref = _run_controller(
        plant, spec, "proposed", s0, 0.0, n_steps * T, _paper_step(spec), Method.EULER
    )
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


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    source = shared.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=Path, help="YAML config file")
    source.add_argument(
        "--preset", choices=sorted(PRESETS), help="bundled config (written to --out)"
    )
    shared.add_argument("--out", type=Path, default=Path("."), help="output directory")
    shared.add_argument(
        "--seed", type=int, default=0, help="seed for random initial-condition batches"
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
