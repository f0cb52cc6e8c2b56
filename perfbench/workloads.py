"""The benchmark's workloads: what one iteration runs and how its output is checked.

Every workload drives dithersim through the entry points users call,
`cli.main` and the public library functions, from one caller in a closed
loop. The workload seed is a benchmark argument: dithersim receives only
the inputs generated from it (initial states, or the CLI's `--seed` for
the seeded batch of `figures`).

Each workload chooses its inputs to stress different layers:

* figures -- the paper-reproduction traffic. It is the only workload
  where writing files and the CLI's thread pool matter.
* sweep -- integrator and right-hand-side work with almost no I/O; a
  change to the write path should leave it flat.
* audit -- only `averaging` and `analysis` work here; the second system
  also triggers the A3 pair and triple sweeps that the shipped design
  skips.
* series -- the whole-period series stepper and `cftable`, which are
  under 3% of `figures`.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import yaml

import dithersim as ds
from dithersim import cli

PLANT = {"a": 10.0, "b": -2.0}
Y_RANGE = (0.5, 1.5)
K_RANGE = (-1.0, 1.0)
REGION = ((-2.0, 2.0), (-2.0, 2.0))
A2_BOUND = math.hypot(112.0, 16.0)
EXPECTED_HASHES = Path(__file__).with_name("expected_hashes.json")


def seeded_starts(seed: int, count: int) -> list[ds.State]:
    """Initial states drawn uniformly from Y_RANGE x K_RANGE."""
    rng = np.random.default_rng(seed)
    ys = rng.uniform(*Y_RANGE, size=count)
    ks = rng.uniform(*K_RANGE, size=count)
    return [ds.State(float(y), float(k)) for y, k in zip(ys, ks)]


def fixed_steps(span: float, h: float) -> int:
    """Steps `simulate` takes over `span` at step h, the last one shortened."""
    return math.ceil(span / h * (1.0 - 1e-12))


def sha256_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by its relative POSIX path."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _write_yaml(doc: dict, path: Path) -> Path:
    path.write_text(yaml.safe_dump(doc, sort_keys=True))
    return path


def _cli(argv: list[str]) -> int:
    """cli.main with its `wrote ...` lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _fig1_config() -> dict:
    return copy.deepcopy(cli.PRESETS["fig1"])


class Workload:
    """One benchmark workload.

    `build` makes the inputs from the seed (set-up), `run` is one timed
    iteration writing into `out`, `check` returns the problems found in
    that iteration's output (empty when correct) and `work` counts the
    units of work it did. `tiny` shrinks the inputs for the self-test.
    """

    name = ""
    work_unit = ""

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def build(self, inputs: Path) -> None:
        raise NotImplementedError

    def run(self, out: Path) -> object:
        raise NotImplementedError

    def check(self, out: Path, result: object) -> list[str]:
        raise NotImplementedError

    def work(self, out: Path, result: object) -> int:
        raise NotImplementedError


class Figures(Workload):
    """fig1-fig4 presets plus one seeded batch of fig1, all through cli.main."""

    name = "figures"
    work_unit = "steps"
    PRESET_RUNS = (
        ("fig1", ["simulate", "--preset", "fig1"]),
        ("fig2", ["compare", "--preset", "fig2"]),
        ("fig3", ["compare", "--preset", "fig3"]),
        ("fig4", ["chenfliess", "--preset", "fig4"]),
    )

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.expected = json.loads(EXPECTED_HASHES.read_text())
        self.batch_hashes: dict[str, str] | None = None

    def build(self, inputs: Path) -> None:
        cfg = _fig1_config()
        cfg["initial"] = {
            "random": {"count": 2, "y_range": list(Y_RANGE), "k_range": list(K_RANGE)}
        }
        batch = _write_yaml(cfg, inputs / "figures_batch.yaml")
        self.runs = [
            *self.PRESET_RUNS,
            ("batch", ["simulate", "--config", str(batch), "--seed", str(self.seed)]),
        ]

    def run(self, out: Path) -> list[int]:
        return [_cli([*argv, "--out", str(out / sub)]) for sub, argv in self.runs]

    def check(self, out: Path, codes: list[int]) -> list[str]:
        problems = []
        if any(codes):
            problems.append(f"exit codes {codes}")
        hashes = sha256_tree(out)
        presets = {k: v for k, v in hashes.items() if not k.startswith("batch/")}
        for name in sorted(set(presets) | set(self.expected)):
            if presets.get(name) != self.expected.get(name):
                problems.append(f"{name}: sha256 differs from the recorded artifact")
        batch = {k: v for k, v in hashes.items() if k.startswith("batch/")}
        if not batch:
            problems.append("batch: no artifacts")
        if self.batch_hashes is None:
            self.batch_hashes = batch
        elif batch != self.batch_hashes:
            problems.append("batch: artifacts differ from the first iteration")
        for path in sorted((out / "batch").glob("*.json")):
            status = json.loads(path.read_text()).get("status")
            if status != "ok":
                problems.append(f"batch/{path.name}: status {status!r}")
        return problems

    def work(self, out: Path, codes: list[int]) -> int:
        """Euler, RK4 and series steps, read from the runs' JSON sidecars."""
        steps = 0
        for path in out.rglob("*.json"):
            doc = json.loads(path.read_text())
            for run in doc.get("runs", [doc]):
                steps += run["n_samples"] - 1 + (run["status"] == "diverged")
        return steps


class Sweep(Workload):
    """One `cli sweep` of the fig1 plant from one seeded start."""

    name = "sweep"
    work_unit = "steps"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.omegas = [100.0, 400.0] if tiny else [100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0]
        self.t_f = 0.5 if tiny else 3.0

    def build(self, inputs: Path) -> None:
        (s0,) = seeded_starts(self.seed, 1)
        cfg = {
            "plant": dict(PLANT),
            "simulation": {"t_f": self.t_f},
            "initial": {"y": s0.y, "k": s0.k},
            "sweep": {"omegas": list(self.omegas)},
        }
        self.config = _write_yaml(cfg, inputs / "sweep.yaml")

    def run(self, out: Path) -> int:
        return _cli(["sweep", "--config", str(self.config), "--out", str(out)])

    def check(self, out: Path, code: int) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        with (out / "sweep.csv").open(newline="") as f:
            rows = list(csv.DictReader(f))
        omegas = [float(r["omega"]) for r in rows]
        errs = [float(r["error"]) for r in rows]
        problems = []
        if omegas != self.omegas:
            problems.append(f"omegas {omegas} != {self.omegas}")
        if not all(math.isfinite(e) for e in errs):
            problems.append(f"non-finite error in {errs}")
        if not all(e2 < e1 for e1, e2 in zip(errs, errs[1:])):
            problems.append(f"errors not strictly decreasing in omega: {errs}")
        return problems

    def work(self, out: Path, code: int) -> int:
        """Euler steps per omega plus the shared RK4 reference run."""
        euler = sum(fixed_steps(self.t_f, math.tau / (40.0 * w)) for w in self.omegas)
        return euler + fixed_steps(self.t_f, 1e-4)


class Audit(Workload):
    """`cli check` on the fig1 plant plus one public check_assumptions call."""

    name = "audit"
    work_unit = "samples"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.check_grid, self.check_times = (4, 3) if tiny else (20, 20)
        self.second_grid, self.second_times = (3, 2) if tiny else (10, 20)
        self.nussbaum_grid = 1000 if tiny else 20_000

    def build(self, inputs: Path) -> None:
        cfg = _fig1_config()
        cfg["check"] = {
            "grid": self.check_grid,
            "time_samples": self.check_times,
            "nussbaum": {"grid": self.nussbaum_grid},
        }
        self.config = _write_yaml(cfg, inputs / "audit.yaml")

    def run(self, out: Path) -> tuple[int, ds.AssumptionReport]:
        code = _cli(["check", "--config", str(self.config), "--out", str(out)])
        base = ds.proposed_design_system(ds.PlantParams(**PLANT))
        system = ds.AffineSystem(
            base.drift,
            base.fields,
            (ds.DitherSignal.sine(exponent=0.75), ds.DitherSignal.cosine(exponent=0.75)),
        )
        report = ds.check_assumptions(
            system, REGION, grid=self.second_grid, time_samples=self.second_times
        )
        return code, report

    def check(self, out: Path, result: tuple[int, ds.AssumptionReport]) -> list[str]:
        code, report = result
        if code != 0:
            return [f"exit code {code}"]
        doc = json.loads((out / "check.json").read_text())
        problems = []
        bound = doc["assumptions"]["a2_bound"]
        if not abs(bound - A2_BOUND) <= 1e-6 * A2_BOUND:
            problems.append(f"a2_bound {bound!r} != sqrt(112^2 + 16^2)")
        if doc["assumptions"]["passed"] is not True:
            problems.append("proposed design does not PASS")
        if doc["nussbaum"]["excursions_grow"] is not True:
            problems.append("s_cos_s excursions do not grow")
        if report.a3_passed is not False:
            problems.append("exponent-0.75 system passes A3")
        return problems

    def work(self, out: Path, result: object) -> int:
        """Audited (x, t) samples of both audits."""
        return (
            self.check_grid**2 * self.check_times + self.second_grid**2 * self.second_times
        )


class Series(Workload):
    """chen_fliess_simulate at orders 0-3 from two seeded starts, no files."""

    name = "series"
    work_unit = "steps"
    OMEGA = 400.0
    ORDERS = (0, 1, 2, 3)

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.n_steps = 20 if tiny else 600
        self.plant = ds.PlantParams(**PLANT)

    def build(self, inputs: Path) -> None:
        self.starts = seeded_starts(self.seed, 2)

    def run(self, out: Path) -> list[tuple[int, ds.Trajectory]]:
        return [
            (order, ds.chen_fliess_simulate(self.plant, s0, self.OMEGA, 1, self.n_steps, order))
            for s0 in self.starts
            for order in self.ORDERS
        ]

    def check(self, out: Path, runs: list[tuple[int, ds.Trajectory]]) -> list[str]:
        problems = []
        T = math.tau / self.OMEGA
        average = ds.lie_bracket_loop(self.plant)
        for order, traj in runs:
            where = f"order {order} from ({traj.ys[0]!r}, {traj.ks[0]!r})"
            if order == 0:
                problems += self._check_order0(traj, T, where)
                continue
            if traj.status != "ok" or len(traj) != self.n_steps + 1:
                problems.append(f"{where}: status {traj.status}, {len(traj)} samples")
                continue
            if order == 1:
                for i in range(self.n_steps):
                    want = ds.euler_step(average, (traj.ys[i], traj.ks[i]), 0.0, T)
                    got = (traj.ys[i + 1], traj.ks[i + 1])
                    if any(abs(g - w) > 1e-12 * max(1.0, abs(w)) for g, w in zip(got, want)):
                        problems.append(f"{where}: step {i + 1} is not an Euler step")
                        break
        return problems

    def _check_order0(self, traj: ds.Trajectory, T: float, where: str) -> list[str]:
        """Order 0 keeps only the drift word: k stays put and y grows by
        (1 + rho*T) per step, so the run must be truncated at the first step
        that takes |y| past the 1e9 divergence limit, or run to the end.
        """
        k0 = float(traj.ks[0])
        growth = 1.0 + (self.plant.a - self.plant.b * k0) * T
        if np.any(traj.ks != k0):
            return [f"{where}: gain moved"]
        ys = traj.ys
        if np.any(np.abs(ys[1:] - ys[:-1] * growth) > 1e-12 * np.maximum(1.0, np.abs(ys[1:]))):
            return [f"{where}: a step is not y*(1 + rho*T)"]
        y_next = abs(float(ys[-1]) * growth)
        if traj.status == "ok":
            ended = len(traj) == self.n_steps + 1
        else:
            ended = traj.failure_step == len(traj) and y_next > 1e9
        if not ended or np.any(np.abs(ys) > 1e9):
            return [f"{where}: {traj.status} after {len(traj)} samples"]
        return []

    def work(self, out: Path, runs: list[tuple[int, ds.Trajectory]]) -> int:
        """Series steps attempted, including the one a divergence rejected."""
        return sum(len(traj) - 1 + traj.diverged for _, traj in runs)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Figures, Sweep, Audit, Series)
}
