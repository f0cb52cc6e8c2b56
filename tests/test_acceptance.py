"""Acceptance gate: one test per release criterion.

Each test carries the `acceptance` marker; the terminal summary prints
one PASS/FAIL line per criterion. Tolerances and parameters here are
fixed and must not be loosened to make a failing build green.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
import yaml

from dithersim import (
    AffineSystem,
    ControllerSpec,
    ControllerVariant,
    DitherSignal,
    LyapunovParams,
    Method,
    PlantParams,
    State,
    approximation_sweep,
    build_averaged_rhs,
    chen_fliess_simulate,
    chen_fliess_step,
    check_assumptions,
    closed_loop,
    euler_step,
    gamma_coefficient,
    lbs_limit_point,
    lie_bracket_loop,
    lie_bracket_rhs,
    nussbaum_type_check,
    proposed_design_system,
    s_cos_s,
    simulate,
    swapped_design_system,
)
from dithersim.cli import main


@pytest.mark.acceptance(1, "interaction coefficient is -1/2 at both probe frequencies")
def test_gamma_quadrature():
    start = time.perf_counter()
    for omega in (1.0, 400.0):
        g = gamma_coefficient(DitherSignal.sine(), DitherSignal.cosine(), omega)
        assert abs(g - (-0.5)) <= 1e-8
    assert time.perf_counter() - start < 1.0


@pytest.mark.acceptance(2, "finite-difference bracket oracle matches the closed form")
def test_bracket_oracle(plant):
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    states = rng.uniform(-5.0, 5.0, size=(100, 2))
    for system in (proposed_design_system(plant), swapped_design_system(plant)):
        avg = build_averaged_rhs(system)
        for y, k in states:
            got = avg(np.array([y, k]), 0.0)
            want = np.asarray(lie_bracket_rhs(plant, State(float(y), float(k))))
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)
    assert time.perf_counter() - start < 5.0


@pytest.mark.acceptance(3, "orbit radius is conserved along the averaged flow")
def test_radius_conservation(plant, lbs_run_from_1_0):
    r = np.hypot(lbs_run_from_1_0.ys, lbs_run_from_1_0.ks - plant.center)
    r0 = float(r[0])
    assert float(np.max(np.abs(r - r0))) <= 1e-6 * (1.0 + r0)


@pytest.mark.acceptance(4, "averaged trajectories settle at the predicted gain")
def test_limit_point(plant, lbs_run_from_1_m5):
    assert abs(float(lbs_run_from_1_m5.ys[-1])) <= 1e-3
    assert abs(float(lbs_run_from_1_m5.ks[-1]) - (-6.0)) <= 1e-3

    rng = np.random.default_rng(4)
    for _ in range(20):
        a = float(rng.uniform(-3.0, 3.0))
        b = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0))
        p = PlantParams(a, b)
        rho0 = float(rng.uniform(1.5, 4.0))
        # keep the start away from both poles of the orbit circle
        while True:
            phi = float(rng.uniform(-math.pi, math.pi))
            if abs(math.cos(phi)) >= 0.2:
                break
        s0 = State(rho0 * math.cos(phi), p.center + rho0 * math.sin(phi))
        t_f = min(45.0, max(5.0, 30.0 / (abs(b) * rho0)))
        run = simulate(lie_bracket_loop(p), s0, 0.0, t_f, 1e-3, Method.RK4)
        assert run.status == "ok"
        want = lbs_limit_point(p, s0)
        assert abs(float(run.ys[-1])) <= 1e-3
        assert abs(float(run.ks[-1]) - want.k) <= 1e-3


@pytest.mark.acceptance(5, "strict Lyapunov member decays, boundary member is conserved")
def test_lyapunov_monotonicity(plant, lbs_run_from_1_0):
    ys, ks = lbs_run_from_1_0.ys, lbs_run_from_1_0.ks
    c1 = LyapunovParams.for_plant(plant, 1.0).c_p
    v1 = 0.5 * ys * ys + 0.5 * (ks - c1) ** 2
    assert float(np.max(np.diff(v1))) <= 1e-9

    c0 = LyapunovParams.for_plant(plant, 0.0).c_p
    v0 = 0.5 * ys * ys + 0.5 * (ks - c0) ** 2
    assert float(np.max(np.abs(v0 - v0[0]))) <= 1e-6 * float(v0[0])


@pytest.mark.acceptance(6, "gap to the averaged system shrinks as frequency grows")
def test_approximation_sweep(plant):
    start = time.perf_counter()
    results = approximation_sweep(plant, State(1.0, 0.0), 2.0, [100.0, 400.0, 1600.0])
    errs = [err for _, err in results]
    assert all(math.isfinite(err) for err in errs)
    assert errs[0] > errs[1] > errs[2]
    assert time.perf_counter() - start < 60.0


@pytest.mark.acceptance(7, "order-1 series step is an Euler step of the average")
def test_series_euler_identity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, k0, y0 = rng.uniform(-3.0, 3.0, size=3)
        b = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0))
        p = PlantParams(float(a), b)
        s0 = State(float(y0), float(k0))
        T = math.tau / float(rng.uniform(50.0, 1000.0))
        got = chen_fliess_step(p, s0, T, 1)
        want = euler_step(lie_bracket_loop(p), s0.as_tuple(), 0.0, T)
        assert abs(got.y - want[0]) <= 1e-12 * max(1.0, abs(want[0]))
        assert abs(got.k - want[1]) <= 1e-12 * max(1.0, abs(want[1]))


@pytest.mark.acceptance(8, "order-2 series tracks the dithered orbit better than order-0")
def test_series_order_comparison(plant):
    omega = 400.0
    T = math.tau / omega
    n_steps = int(math.floor(2.0 / T * (1.0 + 1e-12)))

    spec = ControllerSpec(ControllerVariant.PROPOSED, omega=omega)
    rhs, control = closed_loop(plant, spec)
    ref = simulate(
        rhs,
        State(1.0, 0.0),
        0.0,
        n_steps * T,
        math.tau / (40.0 * omega),
        Method.EULER,
        input_fn=control,
    )
    assert ref.status == "ok"
    idx = 40 * np.arange(n_steps + 1)

    def gap(order: int) -> float:
        run = chen_fliess_simulate(plant, State(1.0, 0.0), omega, 1, n_steps, order)
        assert run.status == "ok"
        return float(np.max(np.hypot(run.ys - ref.ys[idx], run.ks - ref.ks[idx])))

    assert gap(2) < gap(0)


@pytest.mark.acceptance(9, "all three gain laws stabilize the benchmark, bit-reproducibly")
def test_controller_comparison(tmp_path):
    cfg = {
        "plant": {"a": 10.0, "b": -2.0},
        "controller": {
            "variant": "proposed",
            "omega": 400.0,
            "nussbaum": "s_cos_s",
            "sign_b": -1,
        },
        "simulation": {"t0": 0.0, "t_f": 3.0, "method": "ode1", "step": "paper"},
        "initial": {"y": 1.0, "k": 0.0},
        "compare": {"variants": ["proposed", "nussbaum", "willems_byrnes"]},
    }
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))

    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        code = main(["compare", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0

    first = (outs[0] / "compare.csv").read_bytes()
    assert first == (outs[1] / "compare.csv").read_bytes()

    lines = first.decode().splitlines()
    assert lines[0] == "t,y_proposed,y_nussbaum,y_willems_byrnes"
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == 3.0
    assert all(abs(v) < 0.1 for v in last[1:])


@pytest.mark.acceptance(10, "oscillating gain shape shows growing two-sided excursions")
def test_nussbaum_property():
    check = nussbaum_type_check(s_cos_s, 0.0, 50.0, 20000)
    assert check.running_sup > 10.0
    assert check.running_inf < -10.0
    assert check.excursions_grow

    flat = nussbaum_type_check(lambda s: 1.0, 0.0, 50.0, 20000)
    assert flat.running_inf > 0.0
    assert not flat.excursions_grow


@pytest.mark.acceptance(11, "assumption audit passes the design and flags a biased dither")
def test_assumption_suite(plant, proposed_assumption_report):
    assert proposed_assumption_report.passed

    base = proposed_design_system(plant)

    def biased(ph: np.ndarray) -> np.ndarray:
        return np.sin(ph) + 0.5

    bad = AffineSystem(base.drift, base.fields, (DitherSignal(biased), base.dithers[1]))
    report = check_assumptions(bad, ((-2.0, 2.0), (-2.0, 2.0)), grid=5, time_samples=3)
    assert not report.a1_passed
    assert not report.passed
