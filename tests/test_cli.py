"""End-to-end tests for the config-driven command line."""

from __future__ import annotations

import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dithersim import (
    AffineSystem,
    DitherSignal,
    Method,
    PlantParams,
    State,
    approximation_sweep,
    check_assumptions,
    lie_bracket_loop,
    proposed_design_system,
    simulate,
    swapped_design_system,
)
from dithersim import cli, integrate
from dithersim.cli import PRESETS, main

FAST_SIM = {
    "plant": {"a": 10.0, "b": -2.0},
    "controller": {"variant": "proposed", "omega": 50.0},
    "simulation": {"t0": 0.0, "t_f": 0.5, "method": "ode1", "step": "paper"},
    "initial": {"y": 1.0, "k": 0.0},
}


def _write_cfg(tmp_path, cfg, name="config.yaml"):
    """cfg dumped as YAML, or written as is when it is already YAML text."""
    path = tmp_path / name
    path.write_text(cfg if isinstance(cfg, str) else yaml.safe_dump(cfg))
    return path


def _run(command, cfg_path, out, *extra):
    return main([command, "--config", str(cfg_path), "--out", str(out), *extra])


def _read_csv_columns(path):
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    return lines[0], rows


# -- config errors exit with 2 and name the field --------------------------------


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda c: c["plant"].pop("b"), "plant.b"),
        (lambda c: c["plant"].update(b=0.0), "plant.b"),
        (lambda c: c["controller"].update(variant="wat"), "controller.variant"),
        (lambda c: c["controller"].pop("omega"), "controller.omega"),
        (lambda c: c["simulation"].update(step=10.0), "simulation.step"),
        (lambda c: c["simulation"].update(t_f=-1.0), "simulation.t_f"),
        (lambda c: c["simulation"].update(method="rk5"), "simulation.method"),
        (lambda c: c.pop("initial"), "initial"),
    ],
)
def test_simulate_config_errors(tmp_path, capsys, mutate, field):
    cfg = yaml.safe_load(yaml.safe_dump(FAST_SIM))
    mutate(cfg)
    assert _run("simulate", _write_cfg(tmp_path, cfg), tmp_path) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


def test_exponent_float_without_dot_names_the_yaml_cause(tmp_path, capsys):
    """YAML 1.1 loads `omega: 4e2` as the string '4e2'; the message says so
    and gives the spelling that loads as a float."""
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(FAST_SIM).replace("omega: 50.0", "omega: 4e2"))
    assert yaml.safe_load(path.read_text())["controller"]["omega"] == "4e2"
    assert _run("simulate", path, tmp_path) == 2
    err = capsys.readouterr().err
    assert "config error: controller.omega:" in err
    assert "YAML 1.1" in err and "4.0e+2" in err
    assert yaml.safe_load("omega: 4.0e+2")["omega"] == 400.0


def test_missing_config_file(tmp_path, capsys):
    assert _run("simulate", tmp_path / "nope.yaml", tmp_path) == 2
    assert "config error: config:" in capsys.readouterr().err


def test_invalid_yaml(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("plant: [unclosed\n")
    assert _run("simulate", path, tmp_path) == 2
    assert "invalid YAML" in capsys.readouterr().err


def test_config_that_is_not_utf8_is_invalid_yaml(tmp_path, capsys):
    """Bytes that do not decode are a config error with exit 2, not a
    UnicodeDecodeError traceback."""
    path = tmp_path / "latin1.yaml"
    path.write_bytes(yaml.safe_dump(FAST_SIM).encode() + "# gr\xfc\xdfe\n".encode("latin-1"))
    assert _run("simulate", path, tmp_path) == 2
    assert "config error: config: invalid YAML" in capsys.readouterr().err


@pytest.mark.parametrize("under", ["", "sub"])
def test_out_at_a_file_is_a_one_line_error(tmp_path, capsys, under):
    """--out naming a file, or a path under one, exits with 2 and one line
    naming --out, not a FileExistsError or NotADirectoryError traceback."""
    (tmp_path / "taken").write_text("")
    out = tmp_path / "taken" / under
    assert main(["simulate", "--preset", "fig1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out ") and err.count("\n") == 1


def test_non_mapping_config(tmp_path, capsys):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n")
    assert _run("simulate", path, tmp_path) == 2
    assert "top level" in capsys.readouterr().err


def test_willems_byrnes_needs_valid_sign(tmp_path, capsys):
    cfg = yaml.safe_load(yaml.safe_dump(FAST_SIM))
    cfg["controller"] = {"variant": "willems_byrnes", "sign_b": 0}
    assert _run("simulate", _write_cfg(tmp_path, cfg), tmp_path) == 2
    assert "config error: controller.sign_b:" in capsys.readouterr().err


def test_config_and_preset_are_exclusive(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", "x.yaml", "--preset", "fig1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["simulate", "--out", str(tmp_path)])


def test_with_lbs_must_be_a_boolean(tmp_path, capsys):
    """The string "false" is refused, not read as a true flag."""
    cfg = yaml.safe_load(yaml.safe_dump(FAST_SIM))
    cfg["simulation"]["with_lbs"] = "false"
    out = tmp_path / "out"
    assert _run("simulate", _write_cfg(tmp_path, cfg), out) == 2
    assert "config error: simulation.with_lbs: expected true or false" in capsys.readouterr().err
    assert not (out / "lbs.csv").exists()


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    cfg = yaml.safe_load(yaml.safe_dump(FAST_SIM))
    cfg["initial"] = {"random": {"count": 1, "y_range": [0, 1], "k_range": [0, 1]}}
    with pytest.raises(SystemExit) as exc:
        _run("simulate", _write_cfg(tmp_path, cfg), tmp_path / "out", "--seed", "-1")
    assert exc.value.code == 2
    assert "argument --seed: must be a nonnegative integer" in capsys.readouterr().err


# -- simulate ----------------------------------------------------------------------


def test_simulate_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("simulate", _write_cfg(tmp_path, FAST_SIM), out) == 0
    stdout = capsys.readouterr().out
    assert "trajectory.csv" in stdout

    header, rows = _read_csv_columns(out / "trajectory.csv")
    assert header == "t,y,k,u"
    meta = json.loads((out / "trajectory.json").read_text())
    assert meta["variant"] == "proposed"
    assert meta["status"] == "ok"
    assert meta["omega"] == 50.0
    assert meta["tf"] == 0.5
    assert meta["n_samples"] == len(rows)
    assert not (out / "lbs.csv").exists()


def test_simulate_with_lbs_flag(tmp_path, capsys):
    """simulation.with_lbs adds the averaged run; the config field is the
    only way to ask for it, so a --with-lbs option is an argument error."""
    cfg = yaml.safe_load(yaml.safe_dump(FAST_SIM))
    cfg["simulation"]["with_lbs"] = True
    out = tmp_path / "out"
    assert _run("simulate", _write_cfg(tmp_path, cfg), out) == 0
    meta = json.loads((out / "lbs.json").read_text())
    assert meta["system"] == "lbs"
    assert meta["variant"] is None

    with pytest.raises(SystemExit) as exc:
        _run("simulate", _write_cfg(tmp_path, FAST_SIM), tmp_path / "flag", "--with-lbs")
    assert exc.value.code == 2
    assert "unrecognized arguments: --with-lbs" in capsys.readouterr().err


def test_simulate_multiple_initials(tmp_path):
    cfg = yaml.safe_load(yaml.safe_dump(FAST_SIM))
    cfg["initial"] = [{"y": 1.0, "k": 0.0}, {"y": 2.0, "k": 1.0}]
    cfg["simulation"]["with_lbs"] = True
    out = tmp_path / "out"
    assert _run("simulate", _write_cfg(tmp_path, cfg), out) == 0
    for stem in ("trajectory_1", "trajectory_2", "lbs_1", "lbs_2"):
        assert (out / f"{stem}.csv").exists()
    m1 = json.loads((out / "trajectory_1.json").read_text())
    m2 = json.loads((out / "trajectory_2.json").read_text())
    assert (m1["y0"], m2["y0"]) == (1.0, 2.0)


def test_simulate_random_initials_respect_seed(tmp_path):
    cfg = yaml.safe_load(yaml.safe_dump(FAST_SIM))
    cfg["simulation"]["t_f"] = 0.05
    cfg["initial"] = {
        "random": {"count": 2, "y_range": [-1.0, 1.0], "k_range": [0.0, 1.0]}
    }
    cfg_path = _write_cfg(tmp_path, cfg)

    outs = [tmp_path / f"run{i}" for i in range(3)]
    assert _run("simulate", cfg_path, outs[0], "--seed", "7") == 0
    assert _run("simulate", cfg_path, outs[1], "--seed", "7") == 0
    assert _run("simulate", cfg_path, outs[2], "--seed", "8") == 0

    same = (outs[0] / "trajectory_1.csv").read_bytes()
    assert same == (outs[1] / "trajectory_1.csv").read_bytes()
    assert same != (outs[2] / "trajectory_1.csv").read_bytes()


def test_null_random_beside_y_and_k_is_read_as_absent(tmp_path):
    """A null field is absent everywhere in a config: `random: null` next to
    y and k runs the one start y, k, byte for byte as without the key."""
    cfg = yaml.safe_load(yaml.safe_dump(FAST_SIM))
    cfg["initial"]["random"] = None
    outs = [tmp_path / "with_null", tmp_path / "without"]
    assert _run("simulate", _write_cfg(tmp_path, cfg, "null.yaml"), outs[0]) == 0
    assert _run("simulate", _write_cfg(tmp_path, FAST_SIM), outs[1]) == 0
    with_null, without = ((out / "trajectory.csv").read_bytes() for out in outs)
    assert with_null == without


def test_simulate_random_initials_validation(tmp_path, capsys):
    cfg = yaml.safe_load(yaml.safe_dump(FAST_SIM))
    cfg["initial"] = {"random": {"count": 0, "y_range": [0, 1], "k_range": [0, 1]}}
    assert _run("simulate", _write_cfg(tmp_path, cfg), tmp_path) == 2
    assert "initial.random.count" in capsys.readouterr().err


def test_simulate_zero_span(tmp_path):
    cfg = yaml.safe_load(yaml.safe_dump(FAST_SIM))
    cfg["simulation"]["t_f"] = 0.0
    out = tmp_path / "out"
    assert _run("simulate", _write_cfg(tmp_path, cfg), out) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 2


# -- compare ------------------------------------------------------------------------


def test_compare_single_variant(tmp_path):
    cfg = yaml.safe_load(yaml.safe_dump(FAST_SIM))
    cfg["compare"] = {"variants": ["proposed"]}
    out = tmp_path / "out"
    assert _run("compare", _write_cfg(tmp_path, cfg), out) == 0
    header, rows = _read_csv_columns(out / "compare.csv")
    assert header == "t,y_proposed"
    assert float(rows[0][0]) == 0.0
    assert float(rows[-1][0]) == 0.5
    doc = json.loads((out / "compare.json").read_text())
    assert doc["tf"] == 0.5
    assert [r["variant"] for r in doc["runs"]] == ["proposed"]


def test_compare_reads_only_the_horizon_and_method(tmp_path):
    """compare runs each variant at its own paper step and takes with_lbs from
    its own section, so simulation.step and simulation.with_lbs are not read:
    a step longer than the horizon and a non-boolean flag there do not stop it."""
    cfg = copy.deepcopy(FAST_SIM)
    cfg["simulation"].update(step=10.0, with_lbs="yes")
    cfg["compare"] = {"variants": ["proposed"]}
    assert _run("compare", _write_cfg(tmp_path, cfg), tmp_path) == 0
    header, rows = _read_csv_columns(tmp_path / "compare.csv")
    assert header == "t,y_proposed"
    assert float(rows[-1][0]) == 0.5


def test_compare_runs_take_no_input_fn(tmp_path, monkeypatch):
    """compare.csv holds only y columns, so compare evaluates no control
    column; simulate still records its u column."""
    seen = []

    def spy(*args, input_fn=None, **kwargs):
        seen.append(input_fn)
        return simulate(*args, input_fn=input_fn, **kwargs)

    monkeypatch.setattr(cli, "simulate", spy)
    # One lane, so that every run calls the spy in this process.
    monkeypatch.setattr(integrate, "_cpu_count", lambda: 1)
    cfg = copy.deepcopy(FAST_SIM)
    cfg["compare"] = {"variants": ["proposed", "nussbaum"]}
    assert _run("compare", _write_cfg(tmp_path, cfg), tmp_path / "compare") == 0
    assert seen == [None, None]
    seen.clear()
    assert _run("simulate", _write_cfg(tmp_path, FAST_SIM), tmp_path / "simulate") == 0
    assert len(seen) == 1 and seen[0] is not None


def test_compare_duplicate_variants(tmp_path, capsys):
    cfg = yaml.safe_load(yaml.safe_dump(FAST_SIM))
    cfg["compare"] = {"variants": ["proposed", "proposed"]}
    assert _run("compare", _write_cfg(tmp_path, cfg), tmp_path) == 2
    assert "compare.variants" in capsys.readouterr().err


def test_compare_rejects_non_name_variant(tmp_path, capsys):
    cfg = yaml.safe_load(yaml.safe_dump(FAST_SIM))
    cfg["compare"] = {"variants": [[1]]}
    assert _run("compare", _write_cfg(tmp_path, cfg), tmp_path) == 2
    assert "config error: compare.variants[0]:" in capsys.readouterr().err


def test_compare_needs_single_initial(tmp_path, capsys):
    cfg = yaml.safe_load(yaml.safe_dump(FAST_SIM))
    cfg["compare"] = {"variants": ["proposed"]}
    cfg["initial"] = [{"y": 1.0, "k": 0.0}, {"y": 2.0, "k": 0.0}]
    assert _run("compare", _write_cfg(tmp_path, cfg), tmp_path) == 2
    assert "exactly one initial condition" in capsys.readouterr().err


@pytest.mark.parametrize(
    "variants, with_lbs, rows_expected",
    # At omega = 1 the dithered laws take the step 2*pi/40 and diverge
    # (proposed at step 7, swapped at step 6); nussbaum and the averaged
    # reference take 1e-4 to t = 3.
    [
        (["proposed", "nussbaum"], False, 30_001),
        (["swapped", "proposed"], False, 7),
        (["swapped", "proposed"], True, 7),
    ],
    ids=["coarsest-diverged", "all-diverged", "all-diverged-with-lbs"],
)
def test_compare_grid_follows_the_coarsest_completed_run(
    tmp_path, variants, with_lbs, rows_expected
):
    """compare.csv runs on the grid of the coarsest controller run that
    completed, or of the one that got furthest when none did; a diverged run
    holds its last value. The averaged reference, which completes, never sets
    the grid. The coarsest step's grid used to end where that run diverged."""
    cfg = _budget_case({"controller": {"omega": 1.0}, "simulation": {"t_f": 3.0}})
    cfg["compare"] = {"variants": variants, "with_lbs": with_lbs}
    out = tmp_path / "out"
    assert _run("compare", _write_cfg(tmp_path, cfg), out) == 0
    runs = json.loads((out / "compare.json").read_text())["runs"]
    ok = [v == "nussbaum" for v in variants] + [True] * with_lbs
    assert [run["status"] == "ok" for run in runs] == ok
    _, rows = _read_csv_columns(out / "compare.csv")
    assert len(rows) == rows_expected
    if rows_expected == 30_001:
        assert float(rows[-1][0]) == 3.0
    # The first variant diverges before the grid ends and holds its last value.
    assert rows[-2][1] == rows[-1][1]


# -- sweep --------------------------------------------------------------------------


def test_sweep_end_to_end(tmp_path, capsys):
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "simulation": {"t_f": 0.3},
        "initial": {"y": 1.0, "k": 0.0},
        "sweep": {"omegas": [50.0, 200.0]},
    }
    out = tmp_path / "out"
    assert _run("sweep", _write_cfg(tmp_path, cfg), out) == 0
    assert "strictly decreasing across the given omegas: yes" in capsys.readouterr().out
    header, rows = _read_csv_columns(out / "sweep.csv")
    assert header == "omega,error"
    assert [float(r[0]) for r in rows] == [50.0, 200.0]
    assert float(rows[1][1]) < float(rows[0][1])


@pytest.mark.parametrize("b", [-2.0, 1.0e300])
def test_one_omega_sweep_has_nothing_to_compare(tmp_path, capsys, b):
    """With b = 1e300 the one run diverges and sweep.csv holds inf; either
    way a single omega gives no trend to report."""
    cfg = {
        "plant": {"a": 10.0, "b": b},
        "simulation": {"t_f": 0.3},
        "initial": {"y": 1.0, "k": 0.0},
        "sweep": {"omegas": [400.0]},
    }
    out = tmp_path / "out"
    assert _run("sweep", _write_cfg(tmp_path, cfg), out) == 0
    stdout = capsys.readouterr().out
    assert "across the given omegas: one omega, nothing to compare" in stdout
    assert ": yes" not in stdout and ": no" not in stdout
    _, rows = _read_csv_columns(out / "sweep.csv")
    assert math.isfinite(float(rows[0][1])) == (b == -2.0)


@pytest.mark.parametrize("method", [None, "ode1", "rk4"])
def test_sweep_honours_simulation_method(tmp_path, method):
    sim = {"t_f": 0.3} if method is None else {"t_f": 0.3, "method": method}
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "simulation": sim,
        "initial": {"y": 1.0, "k": 0.0},
        "sweep": {"omegas": [50.0, 200.0]},
    }
    out = tmp_path / "out"
    assert _run("sweep", _write_cfg(tmp_path, cfg), out) == 0
    _, rows = _read_csv_columns(out / "sweep.csv")
    want = approximation_sweep(
        PlantParams(10.0, -2.0), State(1.0, 0.0), 0.3, [50.0, 200.0], method or "ode1"
    )
    assert [(float(w), float(e)) for w, e in rows] == want


def test_sweep_rejects_unknown_method(tmp_path, capsys):
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "simulation": {"t_f": 0.3, "method": "rk45"},
        "initial": {"y": 1.0, "k": 0.0},
        "sweep": {"omegas": [50.0]},
    }
    assert _run("sweep", _write_cfg(tmp_path, cfg), tmp_path) == 2
    assert "config error: simulation.method:" in capsys.readouterr().err


def test_sweep_rejects_empty_omegas(tmp_path, capsys):
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "simulation": {"t_f": 0.3},
        "initial": {"y": 1.0, "k": 0.0},
        "sweep": {"omegas": []},
    }
    assert _run("sweep", _write_cfg(tmp_path, cfg), tmp_path) == 2
    assert "sweep.omegas" in capsys.readouterr().err


def test_sweep_rejects_infinite_omega(tmp_path, capsys):
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "simulation": {"t_f": 0.3},
        "initial": {"y": 1.0, "k": 0.0},
        "sweep": {"omegas": [math.inf]},
    }
    path = _write_cfg(tmp_path, cfg)
    assert ".inf" in path.read_text()
    assert _run("sweep", path, tmp_path) == 2
    assert "config error: sweep.omegas[0]:" in capsys.readouterr().err


def test_sweep_rejects_zero_horizon(tmp_path, capsys):
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "simulation": {"t_f": 0.0},
        "initial": {"y": 1.0, "k": 0.0},
        "sweep": {"omegas": [100.0]},
    }
    assert _run("sweep", _write_cfg(tmp_path, cfg), tmp_path) == 2
    assert "simulation.t_f" in capsys.readouterr().err


# -- check --------------------------------------------------------------------------


def test_check_passes_for_clean_design(tmp_path, capsys):
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "check": {"grid": 8, "time_samples": 4, "nussbaum": {"grid": 2000}},
    }
    out = tmp_path / "out"
    assert _run("check", _write_cfg(tmp_path, cfg), out) == 0
    stdout = capsys.readouterr().out
    assert "averaging assumptions: PASS" in stdout
    doc = json.loads((out / "check.json").read_text())
    assert set(doc) == {"assumptions", "nussbaum"}
    assert doc["assumptions"]["passed"] is True
    assert doc["nussbaum"]["shape"] == "s_cos_s"
    assert doc["nussbaum"]["excursions_grow"] is True


def test_check_preset_fig1_writes_the_recorded_bytes(tmp_path):
    """`check --preset fig1` writes the check.json whose sha256 is recorded
    in tests/check_fig1.sha256 (in `sha256sum -c` form, which CI runs on
    its own output too)."""
    want, name = (Path(__file__).parent / "check_fig1.sha256").read_text().split()
    assert main(["check", "--preset", "fig1", "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want


# CI's sweep: the fig1 plant and start at three frequencies.
SWEEP_FIG1 = {
    "plant": {"a": 10.0, "b": -2.0},
    "simulation": {"t_f": 3.0},
    "initial": {"y": 1.0, "k": 0.0},
    "sweep": {"omegas": [100.0, 400.0, 1600.0]},
}


def test_sweep_of_the_fig1_plant_writes_the_recorded_bytes(tmp_path):
    """CI's sweep writes the sweep.csv whose sha256 is recorded in
    tests/sweep_fig1.sha256 (in `sha256sum -c` form, which CI runs on its
    own output too)."""
    want, name = (Path(__file__).parent / "sweep_fig1.sha256").read_text().split()
    out = tmp_path / "out"
    assert _run("sweep", _write_cfg(tmp_path, SWEEP_FIG1), out) == 0
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want


def _fig1_batch(count):
    cfg = copy.deepcopy(PRESETS["fig1"])
    cfg["initial"] = {"random": {"count": count, "y_range": [0.5, 1.5], "k_range": [-1.0, 1.0]}}
    return cfg


@pytest.mark.parametrize("case", ["sweep", "simulate-batch", "compare-fig2"])
def test_artifacts_and_stdout_do_not_depend_on_the_lane_count(
    tmp_path, capsys, monkeypatch, case
):
    """sweep, simulate and compare spread their runs over forked lanes. At
    one lane and at two, CI's fig1 sweep, a 3-start fig1 batch and the fig2
    comparison write the same bytes and print the same lines in the same
    order, and every child is reaped. The sweep keeps its recorded sha256."""
    if case == "sweep":
        argv = ["sweep", "--config", str(_write_cfg(tmp_path, SWEEP_FIG1))]
    elif case == "simulate-batch":
        argv = ["simulate", "--config", str(_write_cfg(tmp_path, _fig1_batch(3))), "--seed", "5"]
    else:
        argv = ["compare", "--preset", "fig2"]
    runs = []
    for n_lanes in (1, 2):
        monkeypatch.setattr(integrate, "_cpu_count", lambda: n_lanes)
        out = tmp_path / f"lanes{n_lanes}"
        assert main([*argv, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out.replace(str(out), "<out>")
        files = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((stdout, files))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert runs[0] == runs[1]
    stdout, files = runs[0]
    if case == "simulate-batch":
        stems = [f"{stem}_{i}" for stem in ("trajectory", "lbs") for i in (1, 2, 3)]
        assert stdout.splitlines() == [
            f"wrote <out>/{stem}{suffix}" for stem in stems for suffix in (".csv", ".json")
        ]
    if case == "sweep":
        want, name = (Path(__file__).parent / "sweep_fig1.sha256").read_text().split()
        assert hashlib.sha256(files[name]).hexdigest() == want


def test_check_of_the_swapped_design_writes_the_recorded_bytes(tmp_path):
    """`check` of the swapped design on the fig1 plant, at the default grid
    and time samples, writes the check.json whose sha256 is recorded in
    tests/check_swapped.sha256 (in `sha256sum -c` form, which CI runs on
    its own output too)."""
    want, name = (Path(__file__).parent / "check_swapped.sha256").read_text().split()
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "controller": {"variant": "swapped", "omega": 400.0},
    }
    out = tmp_path / "out"
    assert _run("check", _write_cfg(tmp_path, cfg), out) == 0
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want


def _refuse_constant(name):
    raise ValueError(f"not JSON: {name}")


def test_check_of_an_overflowing_box_warns_nothing_and_writes_strict_json(tmp_path, capsys):
    """On a box at +-1e300 the audit's norms overflow. The report says so
    (a2_bound null, with its witness) and the run emits no numpy warning;
    check.json holds no Infinity or NaN token, which JSON does not allow."""
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "check": {"region_min": -1.0e300, "region_max": 1.0e300, "grid": 1, "time_samples": 1},
    }
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run("check", _write_cfg(tmp_path, cfg), out) == 0
    assert "averaging assumptions: FAIL" in capsys.readouterr().out
    doc = json.loads((out / "check.json").read_text(), parse_constant=_refuse_constant)
    assert doc["assumptions"]["a2_bound"] is None
    assert doc["assumptions"]["a2_passed"] is False
    assert doc["assumptions"]["a2_witness"]["x"] == [-1.0e300, -1.0e300]


def test_write_json_keeps_finite_bytes_and_nulls_non_finite_floats(tmp_path):
    """A document with no non-finite float is written as json.dumps writes
    it; otherwise each inf or nan, in dicts, lists and tuples, becomes null."""
    finite = {"b": [1.0, -0.0, 1e-310], "a": {"t": (2.5, None, "x")}}
    text = integrate._write_json(finite, tmp_path / "finite.json").read_text()
    assert text == json.dumps(finite, sort_keys=True, indent=2) + "\n"
    doc = {"b": [math.inf, 1.5], "a": {"t": (-math.inf, math.nan)}, "c": np.float64(math.nan)}
    text = integrate._write_json(doc, tmp_path / "doc.json").read_text()
    got = json.loads(text, parse_constant=_refuse_constant)
    assert got == {"a": {"t": [None, None]}, "b": [None, 1.5], "c": None}


def test_check_audits_configured_design(tmp_path):
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "controller": {"variant": "swapped", "omega": 400.0},
        "check": {"grid": 4, "time_samples": 3, "nussbaum": {"grid": 2000}},
    }
    out = tmp_path / "out"
    assert _run("check", _write_cfg(tmp_path, cfg), out) == 0
    doc = json.loads((out / "check.json").read_text())
    want = check_assumptions(
        swapped_design_system(PlantParams(10.0, -2.0)),
        ((-2.0, 2.0), (-2.0, 2.0)),
        grid=4,
        time_samples=3,
    )
    assert doc["assumptions"] == json.loads(json.dumps(want.to_dict()))


@pytest.mark.parametrize("variant", ["nussbaum", "willems_byrnes"])
def test_check_rejects_dither_free_design(tmp_path, capsys, variant):
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "controller": {"variant": variant, "sign_b": -1},
        "check": {"grid": 4, "time_samples": 3},
    }
    assert _run("check", _write_cfg(tmp_path, cfg), tmp_path) == 2
    assert "config error: controller.variant:" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["grid", "time_samples"])
def test_check_rejects_empty_sample_set(tmp_path, capsys, field):
    """An empty grid or time sampling must not pass the audit vacuously."""
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "check": {"grid": 4, "time_samples": 3, field: 0},
    }
    assert _run("check", _write_cfg(tmp_path, cfg), tmp_path) == 2
    assert f"config error: check.{field}:" in capsys.readouterr().err
    assert not (tmp_path / "check.json").exists()


def test_check_rejects_inverted_region(tmp_path, capsys):
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "check": {"region_min": 2.0, "region_max": -2.0},
    }
    assert _run("check", _write_cfg(tmp_path, cfg), tmp_path) == 2
    assert "check.region_min" in capsys.readouterr().err


def test_check_reads_its_whole_config_before_auditing(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the audit ran before the config was read")

    monkeypatch.setattr(cli, "check_assumptions", never)
    cfg = {"plant": {"a": 10.0, "b": -2.0}, "check": {"nussbaum": {"k_max": -1.0}}}
    assert _run("check", _write_cfg(tmp_path, cfg), tmp_path) == 2
    assert "config error: check.nussbaum.k_max:" in capsys.readouterr().err


# -- chenfliess ----------------------------------------------------------------------


def test_chenfliess_order1_matches_euler_on_average(tmp_path):
    plant = PlantParams(10.0, -2.0)
    omega = 400.0
    cfg = {
        "plant": {"a": plant.a, "b": plant.b},
        "controller": {"variant": "proposed", "omega": omega},
        "simulation": {"t0": 0.0, "t_f": 0.2},
        "chenfliess": {"orders": [1], "periods_per_step": 1},
    }
    cfg["initial"] = {"y": 1.0, "k": 0.0}
    out = tmp_path / "out"
    assert _run("chenfliess", _write_cfg(tmp_path, cfg), out) == 0
    assert (out / "reference.csv").exists()

    T = math.tau / omega
    n_steps = int(math.floor(0.2 / T * (1.0 + 1e-12)))
    ref = simulate(
        lie_bracket_loop(plant), State(1.0, 0.0), 0.0, n_steps * T, T, Method.EULER
    )
    _, rows = _read_csv_columns(out / "chenfliess_order1.csv")
    assert len(rows) == n_steps + 1
    got_y = np.array([float(r[1]) for r in rows])
    got_k = np.array([float(r[2]) for r in rows])
    np.testing.assert_allclose(got_y, ref.ys, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(got_k, ref.ks, rtol=1e-10, atol=1e-12)
    meta = json.loads((out / "chenfliess_order1.json").read_text())
    assert meta["scheme"] == "series"
    assert meta["order"] == 1


def test_chenfliess_rejects_nonzero_t0(tmp_path, capsys):
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "controller": {"variant": "proposed", "omega": 400.0},
        "simulation": {"t0": 0.5, "t_f": 1.0},
        "initial": {"y": 1.0, "k": 0.0},
        "chenfliess": {"orders": [0]},
    }
    assert _run("chenfliess", _write_cfg(tmp_path, cfg), tmp_path) == 2
    assert "simulation.t0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "orders, field",
    [([0, 4], "chenfliess.orders[1]"), ([1, 1], "chenfliess.orders")],
)
def test_chenfliess_rejects_bad_orders(tmp_path, capsys, orders, field):
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "controller": {"variant": "proposed", "omega": 400.0},
        "simulation": {"t0": 0.0, "t_f": 0.1},
        "initial": {"y": 1.0, "k": 0.0},
        "chenfliess": {"orders": orders},
    }
    assert _run("chenfliess", _write_cfg(tmp_path, cfg), tmp_path) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "controller",
    [
        {"variant": "swapped", "omega": 400.0},
        {"variant": "nussbaum"},
        {"variant": "willems_byrnes", "sign_b": -1},
        {"variant": "wat", "omega": 400.0},
    ],
    ids=lambda c: c["variant"],
)
def test_chenfliess_rejects_other_variants(tmp_path, capsys, controller):
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "controller": controller,
        "simulation": {"t0": 0.0, "t_f": 2 * math.tau / 400},
        "initial": {"y": 1.0, "k": 0.0},
        "chenfliess": {"orders": [0]},
    }
    out = tmp_path / "out"
    assert _run("chenfliess", _write_cfg(tmp_path, cfg), out) == 2
    assert "config error: controller.variant:" in capsys.readouterr().err
    assert not (out / "reference.json").exists()


def test_chenfliess_without_variant_runs_proposed(tmp_path):
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "controller": {"omega": 400.0},
        "simulation": {"t0": 0.0, "t_f": 2 * math.tau / 400},
        "initial": {"y": 1.0, "k": 0.0},
        "chenfliess": {"orders": [0]},
    }
    out = tmp_path / "out"
    assert _run("chenfliess", _write_cfg(tmp_path, cfg), out) == 0
    assert json.loads((out / "reference.json").read_text())["variant"] == "proposed"


def test_chenfliess_step_count_is_an_unknown_field(tmp_path, capsys):
    """The series horizon comes from simulation.t_f alone: a step count in
    the chenfliess section is refused as an undeclared key."""
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "controller": {"variant": "proposed", "omega": 400.0},
        "simulation": {"t0": 0.0, "t_f": 2 * math.tau / 400},
        "initial": {"y": 1.0, "k": 0.0},
        "chenfliess": {"orders": [0], "n_steps": 5},
    }
    out = tmp_path / "out"
    assert _run("chenfliess", _write_cfg(tmp_path, cfg), out) == 2
    assert capsys.readouterr().err == (
        "config error: chenfliess.n_steps: unknown field (known here: orders, periods_per_step)\n"
    )
    assert not any(out.iterdir())


def test_chenfliess_horizon_is_whole_periods_of_simulation_t_f(tmp_path, capsys):
    """Two dither periods of t_f give two series steps and a reference run
    that ends at 2T; without a simulation section there is no horizon."""
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "controller": {"variant": "proposed", "omega": 400.0},
        "simulation": {"t_f": 2 * math.tau / 400},
        "initial": {"y": 1.0, "k": 0.0},
        "chenfliess": {"orders": [0]},
    }
    out = tmp_path / "out"
    assert _run("chenfliess", _write_cfg(tmp_path, cfg), out) == 0
    _, rows = _read_csv_columns(out / "chenfliess_order0.csv")
    assert len(rows) == 3
    assert json.loads((out / "reference.json").read_text())["tf"] == 2 * math.tau / 400.0

    del cfg["simulation"]
    assert _run("chenfliess", _write_cfg(tmp_path, cfg), out) == 2
    assert "config error: simulation: missing required section" in capsys.readouterr().err


# -- work budget --------------------------------------------------------------------


def _budget_case(section_updates, initial=None):
    """FAST_SIM with the given fields set per section and, if given, another
    initial section."""
    cfg = yaml.safe_load(yaml.safe_dump(FAST_SIM))
    for section, values in section_updates.items():
        cfg.setdefault(section, {}).update(values)
    if initial is not None:
        cfg["initial"] = initial
    return cfg


_SERIES = {"chenfliess": {"orders": [0, 1, 2, 3]}}


@pytest.mark.parametrize(
    "command, cfg, field",
    [
        # 10**30 runs: refused before a single initial state is drawn.
        (
            "simulate",
            _budget_case(
                {}, {"random": {"count": 10**30, "y_range": [0, 1], "k_range": [0, 1]}}
            ),
            "initial.random.count",
        ),
        # 1e4 s at the paper step 2*pi/(40*50) plus the 1e-4 RK4 reference: ~1e8 steps.
        (
            "simulate",
            _budget_case({"simulation": {"t_f": 1e4, "with_lbs": True}}),
            "simulation.t_f",
        ),
        ("simulate", _budget_case({"simulation": {"step": 1e-7}}), "simulation.t_f"),
        # Ten runs of 0.5 s at step 2e-6: 2.5e6 steps, each run alone under budget.
        (
            "simulate",
            _budget_case({"simulation": {"step": 2e-6}}, [{"y": 1.0, "k": 0.0}] * 10),
            "initial",
        ),
        (
            "compare",
            _budget_case(
                {
                    "simulation": {"t_f": 300.0},
                    "compare": {"variants": ["proposed"], "with_lbs": True},
                }
            ),
            "simulation.t_f",
        ),
        ("sweep", _budget_case({"sweep": {"omegas": [100.0, 1e6]}}), "sweep.omegas"),
        ("chenfliess", _budget_case({**_SERIES, "simulation": {"t_f": 1e4}}), "simulation.t_f"),
        # t_f / T overflows to inf; the step count is never formed.
        (
            "chenfliess",
            _budget_case(
                {**_SERIES, "controller": {"omega": 1e300}, "simulation": {"t_f": 1e300}}
            ),
            "simulation.t_f",
        ),
        (
            "chenfliess",
            _budget_case({"chenfliess": {"orders": [0], "periods_per_step": 10**400}}),
            "chenfliess.periods_per_step",
        ),
    ],
    ids=[
        "count",
        "t_f",
        "step",
        "initial-list",
        "compare",
        "sweep",
        "series-t_f",
        "series-omega",
        "periods",
    ],
)
def test_over_budget_config_is_refused_before_running(
    tmp_path, capsys, monkeypatch, command, cfg, field
):
    def never(*args, **kwargs):
        raise AssertionError("an over-budget command started to integrate")

    for name in ("simulate", "approximation_sweep", "chen_fliess_simulate"):
        monkeypatch.setattr(cli, name, never)
    out = tmp_path / "out"
    assert _run(command, _write_cfg(tmp_path, cfg), out) == 2
    err = capsys.readouterr().err
    assert f"config error: {field}: the command would take more integration steps" in err
    assert f"than the {cli.WORK_BUDGET:,} one command may take" in err
    assert not any(out.glob("*.csv"))


def _check_case(check):
    return {"plant": PLANT, "check": check}


@pytest.mark.parametrize(
    "check, field, unit",
    [
        ({"grid": 10**30}, "check.grid", "mesh states"),
        # 578^2 = 334,084 mesh states, over WORK_BUDGET // 6 = 333,333.
        ({"grid": 578, "time_samples": 1}, "check.grid", "mesh states"),
        ({"nussbaum": {"grid": 10**30}}, "check.nussbaum.grid", "gain-shape evaluations"),
        # 3 * 666,667 = 2,000,001 evaluations.
        ({"nussbaum": {"grid": 666_667}}, "check.nussbaum.grid", "gain-shape evaluations"),
    ],
    ids=["grid-huge", "grid-mesh", "nussbaum-huge", "nussbaum"],
)
def test_oversized_check_is_refused_before_auditing(
    tmp_path, capsys, monkeypatch, check, field, unit
):
    def never(*args, **kwargs):
        raise AssertionError("an over-budget check started to audit")

    for name in ("check_assumptions", "nussbaum_type_check"):
        monkeypatch.setattr(cli, name, never)
    out = tmp_path / "out"
    assert _run("check", _write_cfg(tmp_path, _check_case(check)), out) == 2
    err = capsys.readouterr().err
    assert f"config error: {field}: the command would take more {unit}" in err
    assert not (out / "check.json").exists()


def test_check_audits_any_time_sample_count_at_one_time_sample(tmp_path):
    """Both audited designs are blind to time, so the audit scans one time
    sample whatever check.time_samples is: the fig1 check at 10**30 of them
    runs and writes the check.json recorded in tests/check_fig1.sha256."""
    want, name = (Path(__file__).parent / "check_fig1.sha256").read_text().split()
    cfg = copy.deepcopy(PRESETS["fig1"])
    cfg.setdefault("check", {})["time_samples"] = 10**30
    out = tmp_path / "out"
    assert _run("check", _write_cfg(tmp_path, cfg), out) == 0
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want


@pytest.mark.parametrize(
    "check",
    [
        # 577^2 = 332,929 mesh states; 332,929 * 6 = 1,997,574 samples.
        {"grid": 577, "time_samples": 6},
        # 3 * 666,666 = 1,999,998 evaluations.
        {"nussbaum": {"grid": 666_666}},
    ],
    ids=["mesh-and-samples", "nussbaum"],
)
def test_check_at_its_bounds_reaches_the_audit(tmp_path, monkeypatch, check):
    for name in ("check_assumptions", "nussbaum_type_check"):
        monkeypatch.setattr(cli, name, _reached)
    with pytest.raises(_Reached):
        _run("check", _write_cfg(tmp_path, _check_case(check)), tmp_path / "out")


@pytest.mark.parametrize(
    "check, field, rule",
    [
        ({"region_min": 1.0, "region_max": 1.0}, "check.region_min", "must be below"),
        ({"nussbaum": {"k0": 5.0, "k_max": 5.0}}, "check.nussbaum.k_max", "must exceed k0"),
        # k0 - 2*(k_max - k0) is finite, but the doubled horizon's end is not.
        ({"nussbaum": {"k0": 1e308, "k_max": 1.5e308}}, "check.nussbaum.k_max", "must exceed k0"),
    ],
    ids=["empty-region", "empty-horizon", "doubled-horizon-overflows"],
)
def test_check_refuses_a_degenerate_box_or_horizon_before_auditing(
    tmp_path, capsys, monkeypatch, check, field, rule
):
    def never(*args, **kwargs):
        raise AssertionError("a degenerate check started to audit")

    for name in ("check_assumptions", "nussbaum_type_check"):
        monkeypatch.setattr(cli, name, never)
    assert _run("check", _write_cfg(tmp_path, _check_case(check)), tmp_path) == 2
    assert f"config error: {field}: {rule}" in capsys.readouterr().err


@pytest.mark.parametrize("budget, code", [(11, 2), (12, 0)])
def test_work_budget_counts_runs_times_steps(tmp_path, capsys, monkeypatch, budget, code):
    """Three runs of 0.5 / 0.125 = 4 steps each take 12 steps."""
    monkeypatch.setattr(cli, "WORK_BUDGET", budget)
    cfg = _budget_case(
        {"simulation": {"step": 0.125}},
        {"random": {"count": 3, "y_range": [0, 1], "k_range": [0, 1]}},
    )
    assert _run("simulate", _write_cfg(tmp_path, cfg), tmp_path / "out") == code
    if code:
        assert "config error: initial.random.count: " in capsys.readouterr().err


@pytest.mark.parametrize("budget, code", [(83, 2), (84, 0)])
def test_work_budget_counts_series_steps_and_reference(
    tmp_path, capsys, monkeypatch, budget, code
):
    """Two series steps at two orders, plus 2 * 40 Euler reference steps: 84."""
    monkeypatch.setattr(cli, "WORK_BUDGET", budget)
    cfg = _budget_case(
        {"simulation": {"t_f": 2 * math.tau / 50}, "chenfliess": {"orders": [0, 1]}}
    )
    assert _run("chenfliess", _write_cfg(tmp_path, cfg), tmp_path / "out") == code
    if code:
        assert "config error: simulation.t_f: " in capsys.readouterr().err


# -- inputs that once ended in a traceback ------------------------------------------


PLANT = {"a": 10.0, "b": -2.0}
SIMULATE_TYPOS = _budget_case(
    {"controller": {"nussbam": "exp"}, "simulation": {"with_lsb": True}, "plots": {"dpi": 300}}
)
CHECK_TYPOS = {"plant": PLANT, "check": {"time_sample": 3, "nussbaum": {"grdi": 1000}}}
DUPLICATE_T_F = yaml.safe_dump(FAST_SIM).replace("t_f: 0.5", "t_f: 0.05\n  t_f: 0.01")


def _preset_case(name, **simulation):
    """The bundled config `name` with the given simulation fields set."""
    cfg = copy.deepcopy(PRESETS[name])
    cfg["simulation"].update(simulation)
    return cfg


@pytest.mark.parametrize(
    "command, cfg, field",
    [
        (
            "simulate",
            _budget_case(
                {}, {"random": {"count": 1, "y_range": [math.nan, 1.0], "k_range": [0, 1]}}
            ),
            "initial.random.y_range[0]",
        ),
        (
            "simulate",
            _budget_case(
                {}, {"random": {"count": 1, "y_range": [-1e308, 1e308], "k_range": [0, 1]}}
            ),
            "initial.random.y_range",
        ),
        ("simulate", _budget_case({"controller": {"omega": 10**400}}), "controller.omega"),
        # The paper step of a subnormal omega overflows to inf.
        (
            "simulate",
            _budget_case({"controller": {"omega": 5e-324}, "simulation": {"t_f": 0.0}}),
            "simulation.step",
        ),
        # The paper step 2*pi/(40*50) ~ 3.1e-3 is longer than the 1e-3 horizon.
        (
            "compare",
            _budget_case(
                {"simulation": {"t_f": 1e-3, "step": 1e-5}, "compare": {"variants": ["proposed"]}}
            ),
            "compare.variants[0]",
        ),
        (
            "sweep",
            _budget_case({"simulation": {"t_f": 3.0}, "sweep": {"omegas": [0.01, 100.0]}}),
            "sweep.omegas[0]",
        ),
        (
            "check",
            {"plant": PLANT, "check": {"region_min": -1e308, "region_max": 1e308}},
            "check.region_min",
        ),
        (
            "check",
            {"plant": PLANT, "check": {"nussbaum": {"k0": -1e308, "k_max": 1e308}}},
            "check.nussbaum.k_max",
        ),
        # The averaged reference steps 1e-4, longer than a 5e-5 horizon.
        (
            "simulate",
            _budget_case({"simulation": {"t_f": 5e-5, "step": 1e-5, "with_lbs": True}}),
            "simulation.t_f",
        ),
        (
            "compare",
            _budget_case(
                {
                    "controller": {"omega": 1e6},
                    "simulation": {"t_f": 5e-5},
                    "compare": {"variants": ["proposed"], "with_lbs": True},
                }
            ),
            "simulation.t_f",
        ),
        # The series step 2*pi*1000/1e-306 overflows to inf.
        (
            "chenfliess",
            _budget_case(
                {
                    "controller": {"omega": 1e-306},
                    "simulation": {"t_f": 1.0},
                    "chenfliess": {"orders": [0], "periods_per_step": 1000},
                }
            ),
            "controller.omega",
        ),
        # The sweep runs from t = 0 with Euler; it used to ignore t0 and method.
        (
            "sweep",
            _budget_case(
                {
                    "simulation": {"t0": 2.0, "t_f": 1.0, "method": "rk4"},
                    "sweep": {"omegas": [100.0]},
                }
            ),
            "simulation.t0",
        ),
        # The paper step 2*pi/(40*1e308) underflows to 0.0.
        ("simulate", _budget_case({"controller": {"omega": 1e308}}), "simulation.step"),
        (
            "compare",
            _budget_case({"controller": {"omega": 1e308}, "compare": {"variants": ["proposed"]}}),
            "compare.variants[0]",
        ),
        # The series step is 6.3e-308, but the Euler reference's step is 0.0.
        (
            "chenfliess",
            _budget_case(
                {
                    "controller": {"omega": 1e308},
                    "simulation": {"t_f": math.tau / 1e308},
                    "chenfliess": {"orders": [0]},
                }
            ),
            "controller.omega",
        ),
        # A start past the 1e9 divergence bound: the first sample's input
        # overflows, and chenfliess failed after writing its series runs.
        ("simulate", _budget_case({}, {"y": 1e300, "k": 1e300}), "initial.y"),
        (
            "simulate",
            _budget_case(
                {}, {"random": {"count": 2, "y_range": [0.0, 1.0], "k_range": [1e300, 1e300]}}
            ),
            "initial.random.k_range",
        ),
        (
            "chenfliess",
            _budget_case({"chenfliess": {"orders": [0, 1, 2]}}, {"y": 1e300, "k": 1e300}),
            "initial.y",
        ),
        # Just past the bound, in a list entry and at a range end.
        (
            "simulate",
            _budget_case(
                {}, [{"y": 0.5, "k": 0.0}, {"y": 0.5, "k": -math.nextafter(1e9, math.inf)}]
            ),
            "initial[1].k",
        ),
        (
            "simulate",
            _budget_case(
                {}, {"random": {"count": 1, "y_range": [-2e9, 0.0], "k_range": [0.0, 1.0]}}
            ),
            "initial.random.y_range",
        ),
        # A non-mapping nussbaum section used to run with the defaults.
        *(
            ("check", {"plant": PLANT, "check": {"nussbaum": value}}, "check.nussbaum")
            for value in ([], 0, False, "")
        ),
        # y and k next to random used to be dropped silently.
        (
            "simulate",
            _budget_case(
                {}, {"random": {"count": 2, "y_range": [0.0, 1.0], "k_range": [0.0, 1.0]}, "y": 5.0}
            ),
            "initial",
        ),
        # Misspelt and undeclared keys used to run with the defaults.
        ("simulate", SIMULATE_TYPOS, "controller.nussbam"),
        ("check", CHECK_TYPOS, "check.nussbaum.grdi"),
        (
            "simulate",
            _budget_case({}, [{"y": 1.0, "k": 0.0}, {"y": 0.5, "k": 0.0, "z": 1.0}]),
            "initial[1].z",
        ),
        # A list entry is read for y and k only; a random section in one
        # used to be ignored, and the entry ran as one start.
        (
            "simulate",
            _budget_case(
                {},
                [
                    {
                        "y": 1.0,
                        "k": 0.0,
                        "random": {"count": 3, "y_range": [0, 1], "k_range": [0, 1]},
                    }
                ],
            ),
            "initial[0].random",
        ),
        # A repeated key used to keep its last value.
        ("simulate", DUPLICATE_T_F, "config"),
        # The floats near 1e12 are 1.2e-4 apart, too coarse for the paper
        # step 3.9e-4 and the 1e-4 lbs step: the runs ran, then their
        # Trajectory refused repeated times with a traceback.
        ("simulate", _preset_case("fig1", t0=1.0e12, t_f=1e12 + 0.01), "simulation.step"),
        (
            "simulate",
            _preset_case("fig1", t0=1.0e12, t_f=1e12 + 0.01, step=0.002),
            "simulation.t_f",
        ),
        ("compare", _preset_case("fig2", t0=1.0e13, t_f=1e13 + 1.0), "compare.variants[0]"),
        # N(k) overflows to NaN; the check used to report it as a result.
        ("check", _check_case({"grid": 4, "nussbaum": {"k_max": 1e150}}), "check.nussbaum.k_max"),
        # Panels 5e95 wide against the 2*pi period of s_cos_s gave a finite,
        # aliased profile and a wrong "does not grow" verdict with exit 0.
        ("check", _check_case({"grid": 4, "nussbaum": {"k_max": 1e100}}), "check.nussbaum.grid"),
        # Settings only tests set, now gone: a biased dither and the
        # constant gain shapes.
        ("check", _check_case({"bias": 0.5}), "check.bias"),
        ("check", _check_case({"nussbaum": {"h": "s_cos_s"}}), "check.nussbaum.h"),
        (
            "simulate",
            _budget_case({"controller": {"variant": "nussbaum", "nussbaum": "const_1"}}),
            "controller.nussbaum",
        ),
        # The center a/b overflows: the exact averaged flow raised a
        # ValueError after the dithered run.
        (
            "sweep",
            _budget_case({"plant": {"b": 1e-320}, "sweep": {"omegas": [100.0, 400.0]}}),
            "plant.b",
        ),
    ],
    ids=[
        "nan-range",
        "overflowing-range",
        "huge-int",
        "subnormal-omega",
        "compare-step",
        "sweep-step",
        "check-region",
        "nussbaum-range",
        "simulate-lbs-horizon",
        "compare-lbs-horizon",
        "series-overflow",
        "sweep-t0",
        "simulate-step-underflow",
        "compare-step-underflow",
        "chenfliess-step-underflow",
        "simulate-huge-start",
        "simulate-huge-random-range",
        "chenfliess-huge-start",
        "start-list-just-past",
        "random-range-past",
        "check-nussbaum-list",
        "check-nussbaum-zero",
        "check-nussbaum-false",
        "check-nussbaum-empty-string",
        "random-and-y",
        "simulate-typos",
        "check-typos",
        "initial-entry-unknown-key",
        "initial-entry-random",
        "duplicate-key",
        "simulate-step-unresolved",
        "simulate-lbs-unresolved",
        "compare-step-unresolved",
        "check-nussbaum-not-finite",
        "check-nussbaum-aliased",
        "check-bias",
        "check-nussbaum-h",
        "controller-nussbaum-constant",
        "sweep-center-overflow",
    ],
)
def test_refused_inputs_exit_two(tmp_path, capsys, command, cfg, field):
    out = tmp_path / "out"
    assert _run(command, _write_cfg(tmp_path, cfg), out) == 2
    assert f"config error: {field}: " in capsys.readouterr().err
    assert not any(out.glob("*.csv"))


def test_check_reports_an_overflowing_dither_mean_without_a_warning(tmp_path):
    """A bias of 1e308 overflows the A1 mean: the audit reports it as
    non-finite and FAILs, no numpy warning escapes, and the written report
    holds null. The A1 checks used to run outside the audit's errstate."""
    base = proposed_design_system(PlantParams(10.0, -2.0))
    biased = DitherSignal(lambda ph: np.sin(ph) + 1e308)
    system = AffineSystem(base.drift, base.fields, (biased, base.dithers[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_assumptions(system, ((-2.0, 2.0), (-2.0, 2.0)), grid=4, time_samples=2)
    assert not math.isfinite(report.a1[0].mean)
    assert (report.a1_passed, report.passed) == (False, False)
    path = integrate._write_json(report.to_dict(), tmp_path / "check.json")
    doc = json.loads(path.read_text(), parse_constant=_refuse_constant)
    assert doc["a1"][0]["mean"] is None


def test_non_finite_gain_shape_is_refused_before_auditing(tmp_path, capsys, monkeypatch):
    """A gain-shape profile that overflows exits 2 naming k_max, before the
    audit runs and without writing check.json."""
    monkeypatch.setattr(cli, "check_assumptions", lambda *a, **k: pytest.fail("audit ran"))
    out = tmp_path / "out"
    cfg = _check_case({"nussbaum": {"k_max": 1e160}})
    assert _run("check", _write_cfg(tmp_path, cfg), out) == 2
    assert capsys.readouterr().err.startswith("config error: check.nussbaum.k_max: ")
    assert not any(out.iterdir())


def test_unknown_key_is_refused_before_the_command_runs(tmp_path, capsys, monkeypatch):
    """A misspelt field exits 2 naming its dotted path and the keys declared
    beside it, and the command neither runs nor writes anything."""
    monkeypatch.setattr(cli, "simulate", lambda *a, **k: pytest.fail("simulate ran"))
    out = tmp_path / "out"
    assert _run("simulate", _write_cfg(tmp_path, SIMULATE_TYPOS), out) == 2
    assert capsys.readouterr().err == (
        "config error: controller.nussbam: unknown field "
        "(known here: nussbaum, omega, sign_b, variant)\n"
    )
    assert not any(out.iterdir())


def test_duplicate_key_names_the_key_and_its_line(tmp_path, capsys):
    line = DUPLICATE_T_F.splitlines().index("  t_f: 0.01") + 1
    out = tmp_path / "out"
    assert _run("simulate", _write_cfg(tmp_path, DUPLICATE_T_F), out) == 2
    assert capsys.readouterr().err == f"config error: config: duplicate key 't_f' on line {line}\n"
    assert not any(out.iterdir())


def _nested(depth):
    """YAML text of a config whose plant.a is a list nested depth deep."""
    return "plant: {a: " + "[" * depth + "]" * depth + "}\n"


NESTED_TOO_DEEPLY = "config error: config: invalid YAML: nested too deeply\n"


def test_config_nested_too_deeply_is_invalid_yaml(tmp_path, capsys):
    """A config nested 2,000 deep exits 2 with a config error, not a
    RecursionError traceback."""
    out = tmp_path / "out"
    assert _run("check", _write_cfg(tmp_path, _nested(2_000)), out) == 2
    assert capsys.readouterr().err == NESTED_TOO_DEEPLY
    assert not any(out.iterdir())


def test_config_nested_past_the_c_stack_exits_2(tmp_path):
    """Nested 100,000 deep, a config would overflow the C stack of
    libyaml's composer and kill the process; the CLI composes its nodes in
    Python and exits 2. A fresh interpreter, so that a crash fails this
    test alone."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH", "")]))
    cfg = _write_cfg(tmp_path, _nested(100_000))
    argv = ["check", "--config", str(cfg), "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-m", "dithersim.cli", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (2, NESTED_TOO_DEEPLY)


def _cli_copy(libyaml, monkeypatch):
    """A copy of the cli module imported with pyyaml's libyaml flag set to
    libyaml, so that its loader takes that base."""
    if libyaml and not yaml.__with_libyaml__:
        pytest.skip("pyyaml was built without libyaml")
    monkeypatch.setattr(yaml, "__with_libyaml__", libyaml)
    spec = importlib.util.spec_from_file_location("dithersim._cli_copy", cli.__file__)
    copy_ = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, copy_)
    spec.loader.exec_module(copy_)
    return copy_


LIBYAML_IDS = ["CSafeLoader", "SafeLoader"]


@pytest.mark.parametrize("libyaml", [True, False], ids=LIBYAML_IDS)
def test_config_refusals_hold_with_either_yaml_loader(libyaml, tmp_path, capsys, monkeypatch):
    """The CLI's loader derives from CSafeLoader where pyyaml has libyaml
    and from SafeLoader otherwise, picked when the module is imported. A
    copy of the module imported under each setting refuses a repeated key
    with its line, and a config nested too deeply, with the same errors."""
    copy_ = _cli_copy(libyaml, monkeypatch)
    assert issubclass(copy_._UniqueKeyLoader, yaml.CSafeLoader if libyaml else yaml.SafeLoader)
    if hasattr(yaml, "CSafeLoader"):
        assert issubclass(copy_._UniqueKeyLoader, yaml.CSafeLoader) == libyaml

    line = DUPLICATE_T_F.splitlines().index("  t_f: 0.01") + 1
    for text, err in (
        (DUPLICATE_T_F, f"config error: config: duplicate key 't_f' on line {line}\n"),
        (_nested(2_000), NESTED_TOO_DEEPLY),
    ):
        argv = ["check", "--config", str(_write_cfg(tmp_path, text)), "--out", str(tmp_path)]
        assert copy_.main(argv) == 2
        assert capsys.readouterr().err == err


UNCLOSED_LIST = "plant:\n  a: [1, 2\n  b: 3\n"

INVALID_YAML_MESSAGES = {
    # libyaml's marks carry no source text: positions only.
    True: "config error: config: invalid YAML: while parsing a flow sequence\n"
    '  in "<byte string>", line 2, column 6\n'
    "did not find expected ',' or ']'\n"
    '  in "<byte string>", line 3, column 4\n',
    # The pure parser quotes each line under its position, with a caret.
    False: "config error: config: invalid YAML: while parsing a flow sequence\n"
    '  in "<byte string>", line 2, column 6:\n'
    "      a: [1, 2\n"
    "         ^\n"
    "expected ',' or ']', but got ':'\n"
    '  in "<byte string>", line 3, column 4:\n'
    "      b: 3\n"
    "       ^\n",
}


@pytest.mark.parametrize("libyaml", [True, False], ids=LIBYAML_IDS)
def test_invalid_yaml_message_of_either_loader(libyaml, tmp_path, capsys, monkeypatch):
    """The text of an invalid-YAML error is the parser's own, so it differs
    between libyaml and the pure parser; pin each."""
    copy_ = _cli_copy(libyaml, monkeypatch)
    argv = ["check", "--config", str(_write_cfg(tmp_path, UNCLOSED_LIST)), "--out", str(tmp_path)]
    assert copy_.main(argv) == 2
    assert capsys.readouterr().err == INVALID_YAML_MESSAGES[libyaml]


def test_yaml_1_3_directive_is_invalid_yaml_under_libyaml(tmp_path, capsys):
    """libyaml refuses a `%YAML 1.3` directive, which pyyaml's pure parser
    accepts; where the CLI parses with libyaml, such a config exits 2."""
    if not yaml.__with_libyaml__:
        pytest.skip("pyyaml was built without libyaml")
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, "%YAML 1.3\n---\n" + yaml.safe_dump(FAST_SIM))
    assert _run("simulate", cfg, out) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config: invalid YAML: found incompatible YAML document")


def test_declared_fields_a_command_does_not_read_are_allowed(tmp_path):
    """One file may carry the sections of other commands: simulate runs with
    compare, sweep, check and chenfliess sections beside its own."""
    cfg = {
        **FAST_SIM,
        "compare": PRESETS["fig2"]["compare"],
        "sweep": {"omegas": [50.0]},
        "check": {"grid": 4, "nussbaum": {"k_max": 25.0}},
        "chenfliess": PRESETS["fig4"]["chenfliess"],
    }
    out = tmp_path / "out"
    assert _run("simulate", _write_cfg(tmp_path, cfg), out) == 0
    assert (out / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "initial, runs",
    [
        ({"y": 1e9, "k": -1e9}, 1),
        ({"random": {"count": 2, "y_range": [-1e9, 1e9], "k_range": [1e9, 1e9]}}, 2),
    ],
    ids=["y-k-at-bound", "range-at-bound"],
)
def test_starts_at_the_divergence_bound_run(tmp_path, initial, runs):
    """A start with |y| and |k| at most 1e9 is accepted; it records a
    divergence at its first step."""
    out = tmp_path / "out"
    assert _run("simulate", _write_cfg(tmp_path, _budget_case({}, initial)), out) == 0
    metas = sorted(out.glob("trajectory*.json"))
    assert len(metas) == runs
    for meta in metas:
        run = json.loads(meta.read_text())
        assert (run["status"], run["failure_step"]) == ("diverged", 1)


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_nussbaum_gain_overflowing_in_an_rk4_stage_records_a_divergence(tmp_path, command):
    """An RK4 stage's gain overflows to inf, where s_cos_s used to let
    math.cos raise a ValueError out of the CLI. The run now records a
    divergence at its first step, as under Euler, and warns nothing."""
    cfg = {
        "plant": {"a": 0.0, "b": -1.0e300},
        "controller": {"variant": "nussbaum"},
        "simulation": {"t_f": 0.01, "method": "rk4"},
        "initial": {"y": -2.0, "k": 1.0e9},
        "compare": {"variants": ["nussbaum"]},
    }
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(command, _write_cfg(tmp_path, cfg), out) == 0
    if command == "simulate":
        run = json.loads((out / "trajectory.json").read_text())
    else:
        (run,) = json.loads((out / "compare.json").read_text())["runs"]
    assert (run["status"], run["failure_step"]) == ("diverged", 1)


def test_sweep_runs_on_a_horizon_shorter_than_the_rk4_reference_step(tmp_path):
    """The sweep's averaged reference is the exact flow, so a horizon below
    the 1e-4 RK4 step that `simulate` and `compare` use is no error there."""
    out = tmp_path / "out"
    cfg = _budget_case({"simulation": {"t_f": 5e-5}, "sweep": {"omegas": [1e6]}})
    assert _run("sweep", _write_cfg(tmp_path, cfg), out) == 0
    header, rows = _read_csv_columns(out / "sweep.csv")
    assert header == "omega,error"
    assert [float(r[0]) for r in rows] == [1e6]
    assert math.isfinite(float(rows[0][1]))


README = Path(__file__).resolve().parents[1] / "README.md"


def _field_paths(node, prefix=""):
    """Dotted paths of the fields in node: every key, descending into the
    mappings that are sections rather than declared fields."""
    for key, value in node.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict) and path not in cli.FIELDS:
            yield from _field_paths(value, path)
        else:
            yield path


def test_readme_config_example_names_exactly_the_declared_fields():
    """The README's full config example names every declared field and no
    other key; its commented alternative (initial.random.*) counts as
    named."""
    example = README.read_text().split("```yaml\n", 1)[1].split("```", 1)[0]
    uncommented = re.sub(r"^(\s*)# (\s*\w+:)", r"\1\2", example, flags=re.MULTILINE)
    named = {path for text in (example, uncommented) for path in _field_paths(yaml.safe_load(text))}
    assert named == set(cli.FIELDS)


# -- config fuzzing ------------------------------------------------------------------


FUZZ_BASES = {
    "simulate": {
        "plant": {"a": 10.0, "b": -2.0},
        "controller": {"variant": "proposed", "omega": 50.0},
        "simulation": {
            "t0": 0.0,
            "t_f": 0.5,
            "method": "ode1",
            "step": "paper",
            "with_lbs": True,
        },
        "initial": {"random": {"count": 2, "y_range": [-1.0, 1.0], "k_range": [0.0, 1.0]}},
    },
    "compare": {
        "plant": {"a": 10.0, "b": -2.0},
        "controller": {"variant": "proposed", "omega": 50.0, "nussbaum": "s_cos_s", "sign_b": -1},
        "simulation": {"t0": 0.0, "t_f": 0.5, "method": "rk4", "step": 0.01},
        "initial": {"y": 1.0, "k": 0.0},
        "compare": {"variants": ["proposed", "nussbaum", "willems_byrnes"], "with_lbs": False},
    },
    "sweep": {
        "plant": {"a": 10.0, "b": -2.0},
        "simulation": {"t_f": 0.3},
        "initial": [{"y": 1.0, "k": 0.0}],
        "sweep": {"omegas": [50.0, 200.0]},
    },
    "check": {
        "plant": {"a": 10.0, "b": -2.0},
        "controller": {"variant": "swapped"},
        "check": {
            "region_min": -2.0,
            "region_max": 2.0,
            "grid": 4,
            "time_samples": 3,
            "nussbaum": {"k0": 0.0, "k_max": 50.0, "grid": 2000},
        },
    },
    "chenfliess": {
        "plant": {"a": 10.0, "b": -2.0},
        "controller": {"variant": "proposed", "omega": 400.0},
        "simulation": {"t0": 0.0, "t_f": 3 * math.tau / 400},
        "initial": {"y": 1.0, "k": 0.0},
        "chenfliess": {"orders": [0, 1], "periods_per_step": 1},
    },
}


def _node_paths(node, prefix=()):
    """Key/index paths of every value below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield (*prefix, key)
        if isinstance(value, (dict, list)):
            yield from _node_paths(value, (*prefix, key))


# Every value of each base, and every declared field under each command, so
# a field no base sets is mutated too.
_FUZZ_TARGETS = list(
    dict.fromkeys(
        [(command, path) for command, base in FUZZ_BASES.items() for path in _node_paths(base)]
        + [(command, tuple(field.split("."))) for command in FUZZ_BASES for field in cli.FIELDS]
    )
)
_DELETE = object()
_UNKNOWN = object()  # add an undeclared key to the innermost mapping on the path
_UNKNOWN_KEY = "not_a_field"
_FUZZ_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0]),
    st.text(max_size=4),
)
_FUZZ_VALUES = st.recursive(
    _FUZZ_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


_FUZZ_STUBBED = ("simulate", "approximation_sweep", "chen_fliess_simulate", "check_assumptions")


class _Reached(Exception):
    """A stubbed integrator or audit was called: the config was accepted."""


def _reached(*args, **kwargs):
    raise _Reached


def _mutated(command, path, value):
    """FUZZ_BASES[command] with the value at path set, deleted or given an
    undeclared neighbour; sections a declared field needs are made."""
    cfg = copy.deepcopy(FUZZ_BASES[command])
    parent = mapping = cfg
    for key, child in zip(path, path[1:]):
        if isinstance(parent, dict) and isinstance(child, str):
            parent[key] = parent[key] if isinstance(parent.get(key), dict) else {}
        parent = parent[key]
        if isinstance(parent, dict):
            mapping = parent
    if value is _UNKNOWN:
        mapping[_UNKNOWN_KEY] = 1.0
    elif value is not _DELETE:
        parent[path[-1]] = value
    elif isinstance(parent, list) or path[-1] in parent:
        del parent[path[-1]]
    return cfg


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300)
@given(
    target=st.sampled_from(_FUZZ_TARGETS),
    value=st.just(_DELETE) | st.just(_UNKNOWN) | _FUZZ_VALUES,
)
@example(target=("simulate", ("initial", "random", "y_range", 0)), value=math.nan)
@example(target=("simulate", ("initial", "random", "y_range")), value=[-1e308, 1e308])
def test_config_mutations_end_in_config_error_or_run(fuzz_dir, target, value):
    """One leaf, list element, section or declared field of a valid config
    replaced or deleted: the command either refuses it with exit 2 and a
    config error, or accepts it and reaches its integrator or audit (stubbed
    here). An undeclared key added to a mapping is always refused."""
    command, path = target
    cfg_path = _write_cfg(fuzz_dir, _mutated(command, path, value))
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        for name in _FUZZ_STUBBED:
            mp.setattr(cli, name, _reached)
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = _run(command, cfg_path, fuzz_dir / "out")
        except _Reached:
            assert value is not _UNKNOWN, "a config with an undeclared key reached the command"
            return
    assert code == 2
    assert err.getvalue().startswith("config error: ")
    if value is _UNKNOWN:
        assert f"{_UNKNOWN_KEY}: unknown field" in err.getvalue()


# -- presets -------------------------------------------------------------------------


PRESET_RUNS = {
    "fig1": ("simulate", ["trajectory.csv", "lbs.csv"]),
    "fig2": ("compare", ["compare.csv", "compare.json"]),
    "fig3": ("compare", ["compare.csv", "compare.json"]),
    "fig4": (
        "chenfliess",
        [
            "chenfliess_order0.csv",
            "chenfliess_order1.csv",
            "chenfliess_order2.csv",
            "reference.csv",
        ],
    ),
}


def test_presets_cover_all_bundled_configs():
    assert set(PRESET_RUNS) == set(PRESETS)


@pytest.mark.parametrize("preset", sorted(PRESET_RUNS))
def test_preset_runs_end_to_end(tmp_path, preset):
    """A preset writes its artifacts and its config as config.yaml, which
    is itself a runnable config: run with --config, it writes every other
    artifact of the preset byte for byte."""
    command, files = PRESET_RUNS[preset]
    first, again = tmp_path / "preset", tmp_path / "again"
    assert main([command, "--preset", preset, "--out", str(first)]) == 0
    for name in files:
        assert (first / name).exists(), name
    assert yaml.safe_load((first / "config.yaml").read_text()) == PRESETS[preset]
    assert _run(command, first / "config.yaml", again) == 0
    written = {p.name: p.read_bytes() for p in first.iterdir() if p.name != "config.yaml"}
    assert {p.name: p.read_bytes() for p in again.iterdir()} == written


EXPECTED_HASHES = Path(__file__).resolve().parents[1] / "perfbench" / "expected_hashes.json"


def test_preset_artifacts_match_recorded_hashes(tmp_path):
    """Every file the fig1-fig4 presets write has the sha256 recorded in the
    benchmark's expected_hashes.json, and no file is missing or extra."""
    for preset, (command, _) in sorted(PRESET_RUNS.items()):
        assert main([command, "--preset", preset, "--out", str(tmp_path / preset)]) == 0
    got = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*")
        if path.is_file()
    }
    assert got == json.loads(EXPECTED_HASHES.read_text())


# One fresh interpreter writes the artifacts of simulate fig1, compare fig3,
# check fig1 and the sweep of the config file argv[2] under out_dir (argv[1]),
# then prints numpy's dispatched SIMD features that are still enabled, as JSON.
_KERNEL_GUARD_RUN = """
import json, sys
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from dithersim.cli import main
out = Path(sys.argv[1])
for command, source, name in (
    ("simulate", ["--preset", "fig1"], "fig1"),
    ("compare", ["--preset", "fig3"], "fig3"),
    ("check", ["--preset", "fig1"], "check"),
    ("sweep", ["--config", sys.argv[2]], "sweep"),
):
    assert main([command, *source, "--out", str(out / name)]) == 0
print(json.dumps([f for f in __cpu_dispatch__ if __cpu_features__.get(f)]))
"""


def _host_simd_features() -> list[str]:
    """numpy's dispatched SIMD features that this CPU has; the baseline
    features are not among them and cannot be disabled."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]


@pytest.mark.parametrize("setting", ["baseline-simd", "sandybridge-blas"])
def test_artifact_bytes_do_not_depend_on_simd_or_blas_kernels(setting, tmp_path):
    """simulate fig1, compare fig3, check fig1 and CI's sweep write their
    recorded bytes with numpy held to its baseline SIMD paths, and with
    OpenBLAS forced to its Sandybridge kernels (no FMA; x86-64 only). Both
    variables are read when a process loads numpy, so each setting runs in
    a fresh interpreter."""
    if setting == "baseline-simd":
        env = {"NPY_DISABLE_CPU_FEATURES": " ".join(_host_simd_features())}
    elif platform.machine().lower() in ("x86_64", "amd64"):
        env = {"OPENBLAS_CORETYPE": "Sandybridge"}
    else:
        pytest.skip("OpenBLAS's Sandybridge kernels exist on x86-64 only")
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH", "")]))
    sweep_cfg = _write_cfg(tmp_path, SWEEP_FIG1, "sweep.yaml")
    out = subprocess.run(
        [sys.executable, "-c", _KERNEL_GUARD_RUN, str(tmp_path), str(sweep_cfg)],
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    if setting == "baseline-simd":
        assert json.loads(out.stdout.splitlines()[-1]) == []
    for record, d in (("check_fig1.sha256", "check"), ("sweep_fig1.sha256", "sweep")):
        want_hash, name = (Path(__file__).parent / record).read_text().split()
        assert hashlib.sha256((tmp_path / d / name).read_bytes()).hexdigest() == want_hash
    want = {
        k: v
        for k, v in json.loads(EXPECTED_HASHES.read_text()).items()
        if k.startswith(("fig1/", "fig3/"))
    }
    got = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for d in ("fig1", "fig3")
        for path in (tmp_path / d).iterdir()
    }
    assert got == want


def test_presets_run_the_fused_kernels(tmp_path, monkeypatch):
    """Every Euler and RK4 run of fig1-fig4 inlines its field: with the
    call fill of their kernels refused, the presets still complete. The
    series kernel calls its one-step map, so it is let through."""
    kernel = integrate._kernel

    def fused_only(scheme, fused=None, keep_u=False):
        if fused is None and scheme != "series":
            raise AssertionError(f"a preset called its field from the {scheme} kernel")
        return kernel(scheme, fused, keep_u)

    monkeypatch.setattr(integrate, "_kernel", fused_only)
    for preset, (command, _) in sorted(PRESET_RUNS.items()):
        assert main([command, "--preset", preset, "--out", str(tmp_path / preset)]) == 0


def test_fig2_compare_columns(tmp_path):
    assert main(["compare", "--preset", "fig2", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv_columns(tmp_path / "compare.csv")
    assert header == "t,y_proposed,y_nussbaum,y_lbs"
    assert float(rows[-1][0]) == 3.0
    final = [abs(float(v)) for v in rows[-1][1:]]
    assert all(v < 0.1 for v in final)
