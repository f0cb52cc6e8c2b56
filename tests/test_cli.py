"""End-to-end tests for the config-driven command line."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
import yaml

from dithersim import (
    Method,
    PlantParams,
    State,
    check_assumptions,
    lie_bracket_loop,
    simulate,
    swapped_design_system,
)
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


def test_compare_duplicate_variants(tmp_path, capsys):
    cfg = yaml.safe_load(yaml.safe_dump(FAST_SIM))
    cfg["compare"] = {"variants": ["proposed", "proposed"]}
    assert _run("compare", _write_cfg(tmp_path, cfg), tmp_path) == 2
    assert "compare.variants" in capsys.readouterr().err


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


def test_check_rejects_inverted_region(tmp_path, capsys):
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "check": {"region_min": 2.0, "region_max": -2.0},
    }
    assert _run("check", _write_cfg(tmp_path, cfg), tmp_path) == 2
    assert "check.region_min" in capsys.readouterr().err


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


def test_fig2_compare_columns(tmp_path):
    assert main(["compare", "--preset", "fig2", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv_columns(tmp_path / "compare.csv")
    assert header == "t,y_proposed,y_nussbaum,y_lbs"
    assert float(rows[-1][0]) == 3.0
    final = [abs(float(v)) for v in rows[-1][1:]]
    assert all(v < 0.1 for v in final)
