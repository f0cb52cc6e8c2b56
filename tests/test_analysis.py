"""Unit tests for the trajectory and gain-shape diagnostics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dithersim import analysis
from dithersim import (
    LyapunovParams,
    Method,
    PlantParams,
    State,
    Trajectory,
    approximation_sweep,
    convergence_report,
    lbs_limit_point,
    lyapunov_rate,
    lyapunov_value,
    nussbaum_type_check,
    s_cos_s,
    sweep_to_csv,
)

PLANT = PlantParams(10.0, -2.0)


# -- Lyapunov family -------------------------------------------------------------


def test_lyapunov_params_validation():
    with pytest.raises(ValueError):
        LyapunovParams(-0.5, 0.0)
    with pytest.raises(ValueError):
        LyapunovParams(1.0, math.inf)
    assert LyapunovParams.for_plant(PLANT, 1.0).c_p == -5.5


def test_lyapunov_center_is_flat():
    lp = LyapunovParams.for_plant(PLANT, 2.0)
    center = State(0.0, lp.c_p)
    assert lyapunov_value(lp, center) == 0.0
    assert lyapunov_rate(lp, PLANT, center) == 0.0


def test_lyapunov_frozen_example():
    lp = LyapunovParams.for_plant(PLANT, 1.0)
    s = State(1.0, 0.0)
    # 1/2 + (5.5)^2/2 = 15.625
    assert math.isclose(lyapunov_value(lp, s), 15.625, rel_tol=1e-15)
    assert math.isclose(lyapunov_rate(lp, PLANT, s), -1.0, rel_tol=1e-12)


def test_lyapunov_rate_matches_closed_form():
    """The gradient-dot-field route must reproduce -p*y^2."""
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = float(rng.uniform(0.0, 3.0))
        y, k = rng.uniform(-5.0, 5.0, size=2)
        lp = LyapunovParams.for_plant(PLANT, p)
        s = State(float(y), float(k))
        got = lyapunov_rate(lp, PLANT, s)
        want = -p * y * y
        scale = 1.0 + abs(y * y * (PLANT.a - PLANT.b * k)) + abs(
            (k - lp.c_p) * PLANT.b * y * y
        )
        assert abs(got - want) <= 1e-10 * scale


def test_lyapunov_conserved_at_p_zero():
    lp = LyapunovParams.for_plant(PLANT, 0.0)
    rng = np.random.default_rng(21)
    for _ in range(30):
        y, k = rng.uniform(-5.0, 5.0, size=2)
        rate = lyapunov_rate(lp, PLANT, State(float(y), float(k)))
        assert abs(rate) <= 1e-10 * (1.0 + y * y * abs(PLANT.a - PLANT.b * k))


# -- limit point ------------------------------------------------------------------


def test_lbs_limit_point_examples():
    assert lbs_limit_point(PLANT, State(1.0, -5.0)) == State(0.0, -6.0)
    assert lbs_limit_point(PlantParams(0.0, 1.0), State(1.0, 0.0)) == State(0.0, 1.0)
    # starting on the line k = a/b the radius is |y0|
    assert lbs_limit_point(PLANT, State(-3.0, -5.0)) == State(0.0, -8.0)


def test_lbs_limit_point_rejects_equilibrium():
    with pytest.raises(ValueError):
        lbs_limit_point(PLANT, State(0.0, 2.0))


def test_lbs_limit_point_agrees_with_long_run(lbs_run_from_1_m5):
    predicted = lbs_limit_point(PLANT, State(1.0, -5.0))
    assert abs(lbs_run_from_1_m5.ys[-1]) <= 1e-3
    assert abs(lbs_run_from_1_m5.ks[-1] - predicted.k) <= 1e-3


# -- approximation sweep -------------------------------------------------------------


def test_sweep_validation():
    with pytest.raises(ValueError):
        approximation_sweep(PLANT, State(1.0, 0.0), 1.0, [])
    with pytest.raises(ValueError):
        approximation_sweep(PLANT, State(1.0, 0.0), 1.0, [100.0, -5.0])


def test_sweep_zero_horizon_gives_zero_errors():
    results = approximation_sweep(PLANT, State(1.0, 0.0), 0.0, [100.0, 400.0])
    assert results == [(100.0, 0.0), (400.0, 0.0)]


def test_sweep_preserves_input_order():
    results = approximation_sweep(PLANT, State(1.0, 0.0), 0.5, [400.0, 100.0])
    assert [w for w, _ in results] == [400.0, 100.0]
    assert results[0][1] < results[1][1]
    assert all(math.isfinite(err) and err >= 0.0 for _, err in results)


# Starts drawn as the benchmark's sweep workload draws them (y in [0.5, 1.5],
# k in [-1, 1] from numpy's default_rng(seed)), with the errors the sweep
# reported while its reference was a 1e-4 RK4 run interpolated linearly
# onto the dithered sample times.
SWEEP_OMEGAS = [100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0]
SWEEP_RK4_ERRORS = {
    0: (
        State(1.1369616873214543, -0.4604265724722594),
        [3.2970984052302126, 2.3488178210770227, 1.556148388442684,
         1.0252721089067094, 0.6658192966564166, 0.422458056912692],
    ),
    5: (
        State(1.3050029237453802, 0.6158815794729875),
        [5.386349322450763, 3.456274648718162, 2.3084136164128077,
         1.5391214868606478, 1.018646044469082, 0.6615441339367643],
    ),
    211: (
        State(0.9467108550385872, -0.244760418741913),
        [3.6954921807129404, 2.4016305762629004, 1.6252005205019209,
         1.0684386364619112, 0.690936145961572, 0.43528909598843557],
    ),
    301: (
        State(0.9007406614807659, -0.5994282224447915),
        [3.2752441539257573, 2.127651065573366, 1.4028055708556235,
         0.9163649904337715, 0.5875183873880238, 0.36610355610029116],
    ),
}


@pytest.mark.parametrize("seed", sorted(SWEEP_RK4_ERRORS))
def test_sweep_against_exact_flow_keeps_the_rk4_errors(seed):
    """Measured against the exact averaged flow, the sweep errors move by
    no more than the old interpolation error (1e-6 absolute) and still
    fall strictly with omega."""
    s0, old = SWEEP_RK4_ERRORS[seed]
    results = approximation_sweep(PLANT, s0, 3.0, SWEEP_OMEGAS)
    assert [w for w, _ in results] == SWEEP_OMEGAS
    errs = [e for _, e in results]
    assert np.max(np.abs(np.subtract(errs, old))) <= 1e-6
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))


def test_sweep_takes_no_rk4_step(monkeypatch):
    """Every run the sweep integrates is a dithered Euler run; the averaged
    reference is evaluated in closed form."""
    methods = []
    simulate = analysis.simulate

    def recording(rhs, s0, t0, t_f, h, method=Method.RK4, **kwargs):
        methods.append(method)
        return simulate(rhs, s0, t0, t_f, h, method, **kwargs)

    monkeypatch.setattr(analysis, "simulate", recording)
    approximation_sweep(PLANT, State(1.0, 0.0), 0.5, [100.0, 400.0])
    assert methods == [Method.EULER, Method.EULER]


def test_sweep_to_csv(tmp_path):
    path = tmp_path / "sweep.csv"
    sweep_to_csv([(100.0, 0.25), (400.0, 0.125)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "omega,error"
    w, err = lines[1].split(",")
    assert float(w) == 100.0
    assert float(err) == 0.25


# -- Nussbaum-type check ---------------------------------------------------------------


def test_nussbaum_check_validation():
    with pytest.raises(ValueError):
        nussbaum_type_check(s_cos_s, 0.0, 0.0, 2000)
    with pytest.raises(ValueError):
        nussbaum_type_check(s_cos_s, 0.0, 50.0, 999)
    with pytest.raises(ValueError):
        nussbaum_type_check(s_cos_s, 0.0, 50.0, True)


def test_nussbaum_check_against_closed_form():
    """For h(s) = s*cos(s), N(k) = k*sin k + 2*cos k - 2*sin(k)/k exactly."""
    check = nussbaum_type_check(s_cos_s, 0.0, 50.0, 20000)
    k = np.linspace(0.0, 50.0, 20001)[1:]
    n_exact = k * np.sin(k) + 2.0 * np.cos(k) - 2.0 * np.sin(k) / k
    assert math.isclose(check.running_sup, float(np.max(n_exact)), rel_tol=1e-6)
    assert math.isclose(check.running_inf, float(np.min(n_exact)), rel_tol=1e-6)
    signs = np.sign(n_exact)
    signs = signs[signs != 0.0]
    assert check.crossings == int(np.count_nonzero(np.diff(signs) != 0.0))


def test_nussbaum_check_constant_one_fails():
    # N(k) = (k + k0)/2: one-signed, no negative excursion
    check = nussbaum_type_check(lambda s: 1.0, 2.0, 12.0, 1000)
    assert math.isclose(check.running_sup, 7.0, rel_tol=1e-9)
    assert math.isclose(check.running_inf, (2.0 + 0.01 + 2.0) / 2.0, rel_tol=1e-9)
    assert check.crossings == 0
    assert not check.excursions_grow


def test_nussbaum_check_constant_minus_one_fails():
    check = nussbaum_type_check(lambda s: -1.0, 2.0, 12.0, 1000)
    assert check.running_sup < 0.0
    assert not check.excursions_grow


def test_nussbaum_check_serializes():
    check = nussbaum_type_check(lambda s: 1.0, 0.0, 10.0, 1000)
    d = check.to_dict()
    assert set(d) == {
        "running_sup",
        "running_inf",
        "crossings",
        "sup_doubled",
        "inf_doubled",
        "excursions_grow",
    }


# -- convergence report -------------------------------------------------------------------


def _flat_trajectory(ys, times=None, **kw):
    ys = np.asarray(ys, dtype=float)
    if times is None:
        times = np.arange(len(ys), dtype=float)
    return Trajectory(times, ys, np.zeros_like(ys), **kw)


def test_convergence_report_all_zero():
    report = convergence_report(_flat_trajectory([0.0, 0.0, 0.0]), band=1e-3)
    assert report.converged
    assert report.time_to_band == 0.0
    assert report.y_final == 0.0
    assert math.isnan(report.radius_drift)
    assert math.isnan(report.predicted_limit_k)


def test_convergence_report_rejects_bad_band():
    with pytest.raises(ValueError):
        convergence_report(_flat_trajectory([0.0]), band=0.0)


def test_convergence_report_diverged_run_never_converges():
    traj = _flat_trajectory([0.0, 0.0, 0.0], status="diverged", failure_step=3)
    report = convergence_report(traj, band=1.0)
    assert not report.converged


def test_convergence_report_band_never_reached():
    report = convergence_report(_flat_trajectory([0.0, 0.0, 5.0]), band=1.0)
    assert not report.converged
    assert math.isnan(report.time_to_band)


def test_convergence_report_time_to_band_is_elapsed():
    traj = _flat_trajectory([5.0, 0.0, 0.0, 0.0], times=[10.0, 11.0, 12.0, 13.0])
    report = convergence_report(traj, band=1.0)
    assert report.time_to_band == 1.0


def test_convergence_report_on_reference_run(lbs_run_from_1_m5):
    predicted = lbs_limit_point(PLANT, State(1.0, -5.0))
    report = convergence_report(lbs_run_from_1_m5, band=1e-3, predicted=predicted)
    assert report.converged
    assert abs(report.k_final - (-6.0)) <= 1e-3
    assert report.radius_drift <= 1e-6
    assert report.predicted_limit_k == -6.0
    span = lbs_run_from_1_m5.times[-1] - lbs_run_from_1_m5.times[0]
    assert 0.0 <= report.time_to_band <= span
    assert report.to_dict()["converged"] is True
