"""Unit tests for the trajectory and gain-shape diagnostics."""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dithersim import analysis, integrate
from dithersim import (
    ControllerSpec,
    ControllerVariant,
    LyapunovParams,
    Method,
    PlantParams,
    State,
    Trajectory,
    approximation_sweep,
    closed_loop,
    convergence_report,
    lbs_limit_point,
    lie_bracket_flow,
    lyapunov_rate,
    lyapunov_value,
    nussbaum_type_check,
    s_cos_s,
    simulate,
    sweep_to_csv,
)
from dithersim.cli import FIELDS
from dithersim.dynamics import DITHERED_VARIANTS

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
    with pytest.raises(ValueError, match="approximation_sweep: omegas must be positive"):
        approximation_sweep(PLANT, State(1.0, 0.0), 1.0, [100.0, 0.0])
    with pytest.raises(ValueError, match="approximation_sweep: method must be a Method or its name"):
        approximation_sweep(PLANT, State(1.0, 0.0), 1.0, [100.0], 4)
    with pytest.raises(ValueError, match="t_f must be nonnegative"):
        approximation_sweep(PLANT, State(1.0, 0.0), -1.0, [100.0])


def test_sweep_refuses_a_pair_start_before_any_run(monkeypatch):
    """A (y, k) pair used to run the first omega's whole simulation and then
    fail in the averaged flow."""
    calls = []
    monkeypatch.setattr(analysis, "_blocks", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="approximation_sweep: s0 must be a State, not tuple"):
        approximation_sweep(PLANT, (1.0, 0.0), 0.5, [100.0, 400.0])
    assert calls == []


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
    """By default every run the sweep integrates is a dithered Euler run; the
    averaged reference is evaluated in closed form. Recorded at the scheme
    each run's kernel is compiled for."""
    schemes = []
    kernel = integrate._kernel

    def recording(scheme, *args, **kwargs):
        schemes.append(scheme)
        return kernel(scheme, *args, **kwargs)

    monkeypatch.setattr(integrate, "_kernel", recording)
    # One lane, so that every run calls the recorder in this process.
    monkeypatch.setattr(integrate, "_cpu_count", lambda: 1)
    approximation_sweep(PLANT, State(1.0, 0.0), 0.5, [100.0, 400.0])
    assert schemes == [Method.EULER.value, Method.EULER.value]


def _whole_run_gap(p, s0, t_f, w, method):
    """One omega's sweep error by the whole-run formula: the run from
    `simulate`, then the exact flow over all of its times at once."""
    spec = ControllerSpec(ControllerVariant.PROPOSED, omega=w)
    rhs, _ = closed_loop(p, spec)
    full = simulate(rhs, s0, 0.0, t_f, analysis._paper_step(spec), method)
    if full.diverged:
        return math.inf
    ref_y, ref_k = lie_bracket_flow(p, s0, 0.0, full.times)
    return float(np.max(np.hypot(full.ys - ref_y, full.ks - ref_k)))


def _signed(lo: float, hi: float):
    """Floats of either sign with log10 magnitude in [lo, hi]."""
    return st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(lo, hi)).map(
        lambda t: t[0] * 10.0 ** t[1]
    )


@pytest.mark.parametrize("block", [7, 8, 4096])
@settings(max_examples=40)
@given(
    method=st.sampled_from(list(Method)),
    a=st.floats(-10.0, 10.0),
    b=_signed(-1.0, 1.0),
    y0=_signed(-2.0, 2.0),
    k0=st.floats(-5.0, 5.0),
    w=st.floats(20.0, 2000.0),
    n=st.integers(1, 6000),
    frac=st.one_of(st.just(0.0), st.floats(0.0, 0.999)),
)
# Whole steps only, and a shortened last step, on the fig1 plant from (1, 0)
# across one and two blocks of 4096; runs that diverge at step 13 (Euler), in
# the second block of 7 and of 8, and at step 8 (RK4), the first step of the
# second block of 7 and the last of the first block of 8.
@example(Method.EULER, 10.0, -2.0, 1.0, 0.0, 400.0, 4096, 0.0)
@example(Method.EULER, 10.0, -2.0, 1.0, 0.0, 400.0, 4097, 0.5)
@example(Method.RK4, 10.0, -2.0, 1.0, 0.0, 400.0, 5000, 0.25)
@example(Method.EULER, 10.0, -2.0, 20.0, 0.0, 50.0, 100, 0.5)
@example(Method.RK4, 10.0, -2.0, 20.0, 0.0, 50.0, 100, 0.0)
def test_sweep_in_blocks_equals_the_whole_run_formula(block, method, a, b, y0, k0, w, n, frac):
    """With the kernel called 7, 8 or 4096 steps at a time, the sweep's
    block-by-block error is the whole-run formula's bit for bit, inf for a
    run that diverges included."""
    p, s0 = PlantParams(a, b), State(y0, k0)
    t_f = (n + frac) * analysis._paper_step(ControllerSpec(ControllerVariant.PROPOSED, omega=w))
    want = _whole_run_gap(p, s0, t_f, w, method)
    with mock.patch.object(integrate, "_MARCH_BLOCK_STEPS", block):
        with mock.patch.object(integrate, "_cpu_count", lambda: 1):
            got = approximation_sweep(p, s0, t_f, [w], method)
    assert repr(got) == repr([(w, want)])


def test_a_sweep_peaks_under_one_bound_at_any_run_length():
    """A one-omega sweep holds one block of samples at a time: at about
    100,000 and 400,000 Euler steps its tracemalloc peak stays under the
    same 1 MB. Holding each whole run peaked at 6.5 and 26 MB."""
    approximation_sweep(PLANT, State(1.0, 0.0), 0.01, [1e4])  # compile first
    for t_f in (1.6, 6.4):  # 101,859 and 407,436 steps of 2*pi/4e5
        tracemalloc.start()
        try:
            approximation_sweep(PLANT, State(1.0, 0.0), t_f, [1e4])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, (t_f, peak)


SLOPE_OMEGAS = [400.0, 800.0, 1600.0, 3200.0]


def _log_log_slope(results) -> float:
    w, err = zip(*results)
    return float(np.polyfit(np.log(w), np.log(err), 1)[0])


@pytest.mark.parametrize("s0", [State(1.0, 0.0), State(0.5, -3.0)])
def test_rk4_sweep_decays_at_the_averaging_rate(s0):
    """RK4 at the paper step is converged, so its gap to the averaged flow
    shows the O(omega^-1/2) rate of Lie-bracket approximations (Duerr et
    al., Automatica 49(6), 2013) from both starts."""
    results = approximation_sweep(PLANT, s0, 1.0, SLOPE_OMEGAS, Method.RK4)
    assert -0.60 <= _log_log_slope(results) <= -0.45


def test_euler_sweep_stalls_at_the_paper_step():
    """A documented limit, not a goal: at 40 steps per period h*omega is
    fixed, so Euler's own error does not shrink with omega. From (0.5, -3)
    its gap stops falling between omega = 1600 and 3200, and the default
    method's slope is far from the averaging rate."""
    results = approximation_sweep(PLANT, State(0.5, -3.0), 1.0, SLOPE_OMEGAS)
    errs = [e for _, e in results]
    assert errs[3] >= 0.9 * errs[2]
    assert _log_log_slope(results) > -0.3


@pytest.mark.parametrize("omega", [0.5, 400.0, 1e6])
@pytest.mark.parametrize("variant", list(ControllerVariant))
def test_paper_step_follows_the_variant_not_omega(variant, omega):
    """A dithered design steps a fortieth of its dither period; a dither-free
    law steps 1e-4 even when its spec carries an omega, which it ignores."""
    spec = ControllerSpec(variant, omega=omega, sign_b=1)
    want = math.tau / (40 * omega) if variant in DITHERED_VARIANTS else 1e-4
    assert analysis._paper_step(spec) == want


def test_sweep_to_csv(tmp_path):
    """A diverged run's error is inf, written as repr writes it."""
    path = tmp_path / "sweep.csv"
    sweep_to_csv([(100.0, 0.25), (400.0, 0.125), (1600.0, math.inf)], path)
    lines = path.read_text().splitlines()
    assert lines == ["omega,error", "100.0,0.25", "400.0,0.125", "1600.0,inf"]


# -- Nussbaum-type check ---------------------------------------------------------------


def test_nussbaum_check_validation():
    with pytest.raises(ValueError, match="need k_max > k0"):
        nussbaum_type_check(s_cos_s, 0.0, 0.0, 2000)
    with pytest.raises(ValueError):
        nussbaum_type_check(s_cos_s, 0.0, 50.0, 999)
    with pytest.raises(ValueError):
        nussbaum_type_check(s_cos_s, 0.0, 50.0, True)


@pytest.mark.parametrize("k_max", [1e150, 1e160])
def test_nussbaum_check_refuses_a_non_finite_profile(k_max):
    """Where h(s)*s or its integral overflows, N(k) is inf or NaN: an error,
    not a sup, inf and sign-flip count of NaNs."""
    with pytest.raises(ValueError, match="N\\(k\\) is not finite"):
        nussbaum_type_check(s_cos_s, 0.0, k_max, 1000)


def test_nussbaum_check_refuses_aliased_panels():
    """Panels 5e95 wide against the 2*pi period of s_cos_s give a finite
    profile, which used to return a wrong "does not grow" verdict."""
    with pytest.raises(ValueError, match="aliased"):
        nussbaum_type_check(s_cos_s, 0.0, 1e100, 20000)
    # Panels just under pi/16 are still accepted.
    assert 190.0 / 1000 < analysis.NUSSBAUM_MAX_PANEL
    assert nussbaum_type_check(s_cos_s, 0.0, 190.0, 1000).crossings > 0


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


def test_nussbaum_check_doubles_the_horizon_from_k0():
    """For h = 1, N(k) = (k + k0)/2 exactly. The doubled pass runs on
    [k0, k0 + 2*(k_max - k0)] at the first pass's panel width, so its sup is
    k_max and its inf sits one panel past k0; and the panels of (k_max - k0)/
    grid = 0.05 pass the aliasing limit that (k_max + k0)/grid would not."""
    k0, k_max, grid = 100.0, 150.0, 1000
    check = nussbaum_type_check(lambda s: 1.0, k0, k_max, grid)
    panel = (k_max - k0) / grid
    assert math.isclose(check.running_sup, (k_max + k0) / 2.0, rel_tol=1e-12)
    assert math.isclose(check.sup_doubled, k_max, rel_tol=1e-12)
    assert math.isclose(check.running_inf, k0 + panel / 2.0, rel_tol=1e-12)
    assert math.isclose(check.inf_doubled, k0 + panel / 2.0, rel_tol=1e-12)


def test_nussbaum_check_refuses_panels_just_past_the_limit():
    """NUSSBAUM_MAX_PANEL is pi/16: a panel of exactly pi/16 is accepted and
    the next float up is refused. With 1024 panels both widths are exact."""
    assert analysis.NUSSBAUM_MAX_PANEL == math.pi / 16
    grid = 1024
    k_max = grid * analysis.NUSSBAUM_MAX_PANEL
    assert (k_max - 0.0) / grid == math.pi / 16
    assert nussbaum_type_check(s_cos_s, 0.0, k_max, grid).crossings > 0
    wider = math.nextafter(k_max, math.inf)
    assert (wider - 0.0) / grid > math.pi / 16
    with pytest.raises(analysis._AliasedProfile, match="exceeds pi/16"):
        nussbaum_type_check(s_cos_s, 0.0, wider, grid)


def test_nussbaum_check_constant_minus_one_fails():
    check = nussbaum_type_check(lambda s: -1.0, 2.0, 12.0, 1000)
    assert check.running_sup < 0.0
    assert not check.excursions_grow


@pytest.mark.parametrize(
    "h",
    [s_cos_s, lambda s: 1.0, lambda s: -1.0],
    ids=["s_cos_s", "const_1", "const_neg1"],
)
@pytest.mark.parametrize(
    "k0, k_max, n_panels", [(0.0, 50.0, 20000), (0.0, 100.0, 40000), (-7.25, 31.0, 3001)]
)
def test_nussbaum_profile_equals_the_numpy_scalar_products(h, k0, k_max, n_panels):
    """The profile takes h(s)*s on the whole grid in one array expression;
    it is byte-identical to the profile built from h of each grid value as
    a Python float times that value as a numpy scalar, on the CLI's
    default horizon, its doubled horizon and an off-centre one."""
    s = np.linspace(k0, k_max, n_panels + 1)
    g = np.array([h(float(v)) * v for v in s])
    want = analysis._cumulative_simpson(g, (k_max - k0) / n_panels)[1:] / (s[1:] - k0)
    assert analysis._n_profile(h, k0, k_max, n_panels).tobytes() == want.tobytes()


@pytest.mark.parametrize("span", [1, 2], ids=["horizon", "doubled-horizon"])
def test_s_cos_s_on_an_array_has_the_bytes_of_float_calls(span):
    """On the CLI's default gain-shape grid and on its doubled horizon, the
    array form of s_cos_s gives the bytes of one float call per element."""
    k0, k_max, grid = (FIELDS[f"check.nussbaum.{key}"][1] for key in ("k0", "k_max", "grid"))
    s = np.linspace(k0, k0 + span * (k_max - k0), span * grid + 1)
    want = np.array([s_cos_s(v) for v in s.tolist()])
    assert s_cos_s(s).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "h",
    [lambda s: s * math.sin(s), lambda s: np.ones(3), lambda s: s[:, None]],
    ids=["float-only", "wrong-length", "grows-the-grid"],
)
def test_nussbaum_check_refuses_a_gain_shape_not_mapping_arrays(h):
    """h is called on the whole grid; a shape written for one float, or one
    whose result does not broadcast to the grid, is refused by name."""
    with pytest.raises(ValueError, match="nussbaum_type_check: h must map an array"):
        nussbaum_type_check(h, 0.0, 50.0, 2000)


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
    traj = _flat_trajectory([0.0, 0.0, 0.0], failure_step=3)
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


@pytest.mark.parametrize(
    "tail, converged",
    [([5.0, 0.0], False), ([0.0, 0.0], True), ([1.0, -1.0], True)],
    ids=["one", "two", "two-on-the-band"],
)
def test_convergence_report_holds_the_band_over_the_last_tenth(tail, converged):
    """Over 15 samples the last tenth is ceil(1.5) = 2 samples: the run
    converges only when both hold the band, which includes its edge."""
    report = convergence_report(_flat_trajectory([5.0] * 13 + tail), band=1.0)
    assert report.converged is converged


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
