"""End-to-end tests for the config-driven command line."""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dithersim import (
    Method,
    PlantParams,
    State,
    check_assumptions,
    lie_bracket_loop,
    simulate,
    swapped_design_system,
)
from dithersim import cli
from dithersim.cli import PRESETS, main

FAST_SIM = {
    "plant": {"a": 10.0, "b": -2.0},
    "controller": {"variant": "proposed", "omega": 50.0},
    "simulation": {"t0": 0.0, "t_f": 0.5, "method": "ode1", "step": "paper"},
    "initial": {"y": 1.0, "k": 0.0},
}


def _write_cfg(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
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


def test_simulate_with_lbs_flag(tmp_path):
    out = tmp_path / "out"
    assert _run("simulate", _write_cfg(tmp_path, FAST_SIM), out, "--with-lbs") == 0
    meta = json.loads((out / "lbs.json").read_text())
    assert meta["system"] == "lbs"
    assert meta["variant"] is None


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


def test_check_biased_dither_fails_but_exits_zero(tmp_path, capsys):
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "check": {"grid": 5, "time_samples": 3, "bias": 0.5},
    }
    out = tmp_path / "out"
    assert _run("check", _write_cfg(tmp_path, cfg), out) == 0
    assert "averaging assumptions: FAIL" in capsys.readouterr().out
    doc = json.loads((out / "check.json").read_text())
    assert doc["assumptions"]["a1_passed"] is False
    assert doc["assumptions"]["passed"] is False


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


def test_check_rejects_unknown_shape(tmp_path, capsys):
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "check": {"grid": 5, "time_samples": 3, "nussbaum": {"h": "wat"}},
    }
    assert _run("check", _write_cfg(tmp_path, cfg), tmp_path) == 2
    assert "check.nussbaum.h" in capsys.readouterr().err


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
        "simulation": {"t0": 0.0},
        "initial": {"y": 1.0, "k": 0.0},
        "chenfliess": {"orders": [0], "n_steps": 2},
    }
    out = tmp_path / "out"
    assert _run("chenfliess", _write_cfg(tmp_path, cfg), out) == 2
    assert "config error: controller.variant:" in capsys.readouterr().err
    assert not (out / "reference.json").exists()


def test_chenfliess_without_variant_runs_proposed(tmp_path):
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "controller": {"omega": 400.0},
        "simulation": {"t0": 0.0},
        "initial": {"y": 1.0, "k": 0.0},
        "chenfliess": {"orders": [0], "n_steps": 2},
    }
    out = tmp_path / "out"
    assert _run("chenfliess", _write_cfg(tmp_path, cfg), out) == 0
    assert json.loads((out / "reference.json").read_text())["variant"] == "proposed"


def test_chenfliess_explicit_step_count(tmp_path):
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "controller": {"variant": "proposed", "omega": 400.0},
        "simulation": {"t0": 0.0},
        "initial": {"y": 1.0, "k": 0.0},
        "chenfliess": {"orders": [0], "n_steps": 5},
    }
    out = tmp_path / "out"
    assert _run("chenfliess", _write_cfg(tmp_path, cfg), out) == 0
    _, rows = _read_csv_columns(out / "chenfliess_order0.csv")
    assert len(rows) == 6


def test_chenfliess_step_count_needs_no_simulation_section(tmp_path, capsys):
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "controller": {"variant": "proposed", "omega": 400.0},
        "initial": {"y": 1.0, "k": 0.0},
        "chenfliess": {"orders": [0], "n_steps": 2},
    }
    out = tmp_path / "out"
    assert _run("chenfliess", _write_cfg(tmp_path, cfg), out) == 0
    _, rows = _read_csv_columns(out / "chenfliess_order0.csv")
    assert len(rows) == 3
    assert json.loads((out / "reference.json").read_text())["tf"] == 2 * math.tau / 400.0

    del cfg["chenfliess"]["n_steps"]
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
        (
            "chenfliess",
            _budget_case({"chenfliess": {"orders": [0], "n_steps": 10**400}}),
            "chenfliess.n_steps",
        ),
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
        "n_steps",
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
        ({"time_samples": 10**30}, "check.time_samples", "audited samples"),
        # 400^2 * 13 = 2,080,000 samples.
        ({"grid": 400, "time_samples": 13}, "check.time_samples", "audited samples"),
        ({"nussbaum": {"grid": 10**30}}, "check.nussbaum.grid", "gain-shape evaluations"),
        # 3 * 666,667 = 2,000,001 evaluations.
        ({"nussbaum": {"grid": 666_667}}, "check.nussbaum.grid", "gain-shape evaluations"),
    ],
    ids=["grid-huge", "grid-mesh", "samples-huge", "samples", "nussbaum-huge", "nussbaum"],
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
    cfg = _budget_case({"chenfliess": {"orders": [0, 1], "n_steps": 2}})
    assert _run("chenfliess", _write_cfg(tmp_path, cfg), tmp_path / "out") == code
    if code:
        assert "config error: chenfliess.n_steps: " in capsys.readouterr().err


# -- inputs that once ended in a traceback ------------------------------------------


PLANT = {"a": 10.0, "b": -2.0}


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
    ],
)
def test_refused_inputs_exit_two(tmp_path, capsys, command, cfg, field):
    out = tmp_path / "out"
    assert _run(command, _write_cfg(tmp_path, cfg), out) == 2
    assert f"config error: {field}: " in capsys.readouterr().err
    assert not any(out.glob("*.csv"))


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
            "bias": 0.0,
            "nussbaum": {"h": "s_cos_s", "k0": 0.0, "k_max": 50.0, "grid": 2000},
        },
    },
    "chenfliess": {
        "plant": {"a": 10.0, "b": -2.0},
        "controller": {"variant": "proposed", "omega": 400.0},
        "simulation": {"t0": 0.0, "t_f": 0.1},
        "initial": {"y": 1.0, "k": 0.0},
        "chenfliess": {"orders": [0, 1], "periods_per_step": 1, "n_steps": 3},
    },
}


def _node_paths(node, prefix=()):
    """Key/index paths of every value below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield (*prefix, key)
        if isinstance(value, (dict, list)):
            yield from _node_paths(value, (*prefix, key))


_FUZZ_TARGETS = [
    (command, path) for command, base in FUZZ_BASES.items() for path in _node_paths(base)
]
_DELETE = object()
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
    cfg = copy.deepcopy(FUZZ_BASES[command])
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return cfg


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300)
@given(target=st.sampled_from(_FUZZ_TARGETS), value=st.just(_DELETE) | _FUZZ_VALUES)
@example(target=("simulate", ("initial", "random", "y_range", 0)), value=math.nan)
@example(target=("simulate", ("initial", "random", "y_range")), value=[-1e308, 1e308])
def test_config_mutations_end_in_config_error_or_run(fuzz_dir, target, value):
    """One leaf, list element or section of a valid config replaced or
    deleted: the command either refuses it with exit 2 and a config error,
    or accepts it and reaches its integrator or audit (stubbed here)."""
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
            return
    assert code == 2
    assert err.getvalue().startswith("config error: ")


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
    command, files = PRESET_RUNS[preset]
    assert main([command, "--preset", preset, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "config.yaml").exists()
    for name in files:
        assert (tmp_path / name).exists(), name
    # The written copy must itself be a runnable config.
    assert yaml.safe_load((tmp_path / "config.yaml").read_text()) == PRESETS[preset]


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


def test_fig2_compare_columns(tmp_path):
    assert main(["compare", "--preset", "fig2", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv_columns(tmp_path / "compare.csv")
    assert header == "t,y_proposed,y_nussbaum,y_lbs"
    assert float(rows[-1][0]) == 3.0
    final = [abs(float(v)) for v in rows[-1][1:]]
    assert all(v < 0.1 for v in final)
