"""Unit tests for the fixed-step integrators and the series stepper.

Order-of-accuracy ratios are measured against an RK4 reference run, and
the order-1 series step is compared with an explicit Euler step of the
averaged system, which it must reproduce to rounding.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dithersim import (
    ControllerSpec,
    ControllerVariant,
    Method,
    PlantParams,
    State,
    Trajectory,
    chen_fliess_simulate,
    chen_fliess_step,
    closed_loop,
    euler_step,
    lie_bracket_loop,
    rk4_step,
    simulate,
)
from dithersim import integrate
from dithersim.cftable import rows_for_order
from dithersim.integrate import _write_csv
from series_reference import chen_fliess_step as reference_chen_fliess_step

PLANT = PlantParams(10.0, -2.0)


@pytest.fixture(scope="module")
def lbs_oracle_0_1():
    """RK4 h=1e-5 reference for the averaged system on [0, 1] from (1, 0)."""
    return simulate(lie_bracket_loop(PLANT), State(1.0, 0.0), 0.0, 1.0, 1e-5, Method.RK4)


def _final_error(traj, oracle) -> float:
    return math.hypot(traj.ys[-1] - oracle.ys[-1], traj.ks[-1] - oracle.ks[-1])


# -- single steps ---------------------------------------------------------------


def test_euler_step_zero_rhs():
    s = euler_step(lambda s, t: (0.0, 0.0), (1.0, 2.0), 0.0, 0.5)
    assert s == (1.0, 2.0)


def test_euler_step_lbs_example():
    rhs = lie_bracket_loop(PlantParams(1.0, 1.0))
    assert euler_step(rhs, (1.0, 0.0), 0.0, 0.1) == (1.1, 0.1)


def test_rk4_step_zero_rhs():
    s = rk4_step(lambda s, t: (0.0, 0.0), (3.0, -1.0), 0.0, 0.2)
    assert s == (3.0, -1.0)


def test_rk4_step_exponential():
    y1, _ = rk4_step(lambda s, t: (s[0], 0.0), (1.0, 0.0), 0.0, 0.1)
    assert abs(y1 - math.exp(0.1)) <= 1e-7


def test_method_names():
    assert Method.from_name("ode1") is Method.EULER
    assert Method.from_name("euler") is Method.EULER
    assert Method.from_name("RK4") is Method.RK4
    with pytest.raises(ValueError, match="unknown method"):
        Method.from_name("rk45")


# -- convergence orders -----------------------------------------------------------


def test_euler_halving_halves_error(lbs_oracle_0_1):
    rhs = lie_bracket_loop(PLANT)
    err_h = _final_error(
        simulate(rhs, State(1.0, 0.0), 0.0, 1.0, 1e-3, Method.EULER), lbs_oracle_0_1
    )
    err_h2 = _final_error(
        simulate(rhs, State(1.0, 0.0), 0.0, 1.0, 5e-4, Method.EULER), lbs_oracle_0_1
    )
    assert 1.8 <= err_h / err_h2 <= 2.2


def test_rk4_order_four():
    # Short horizon: over [0, 1] this trajectory enters a contracting
    # phase where the endpoint's leading error term cancels and the
    # observed rate overshoots 4.
    rhs = lie_bracket_loop(PLANT)
    ref = simulate(rhs, State(1.0, 0.0), 0.0, 0.3, 1e-5, Method.RK4)
    err_h = _final_error(simulate(rhs, State(1.0, 0.0), 0.0, 0.3, 0.02, Method.RK4), ref)
    err_h2 = _final_error(simulate(rhs, State(1.0, 0.0), 0.0, 0.3, 0.01, Method.RK4), ref)
    assert 3.5 <= math.log2(err_h / err_h2) <= 4.5


def test_rk4_self_convergence():
    rhs = lie_bracket_loop(PLANT)
    a = simulate(rhs, State(1.0, 0.0), 0.0, 5.0, 1e-4, Method.RK4)
    b = simulate(rhs, State(1.0, 0.0), 0.0, 5.0, 5e-5, Method.RK4)
    assert _final_error(a, b) <= 1e-8


# -- the driver -----------------------------------------------------------------


def test_simulate_single_sample_when_span_zero():
    traj = simulate(lie_bracket_loop(PLANT), State(1.0, 0.0), 2.0, 2.0, 0.1)
    assert len(traj) == 1
    assert traj.times[0] == 2.0
    assert traj.final_state == State(1.0, 0.0)


def test_simulate_lands_exactly_on_tf():
    traj = simulate(lambda s, t: (0.0, 0.0), (0.0, 0.0), 0.0, 1.0, 0.3)
    assert len(traj) == 5
    assert traj.times[-1] == 1.0
    np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0], rtol=0, atol=1e-12)


def test_simulate_times_are_not_accumulated():
    # binary-exact step: every timestamp must be exactly t0 + i*h
    traj = simulate(lambda s, t: (0.0, 0.0), (1.0, 1.0), 5.0, 6.0, 0.125)
    np.testing.assert_array_equal(traj.times, 5.0 + 0.125 * np.arange(9))


def test_simulate_validates_inputs():
    rhs = lie_bracket_loop(PLANT)
    with pytest.raises(ValueError):
        simulate(rhs, State(1.0, 0.0), 0.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        simulate(rhs, State(1.0, 0.0), 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        simulate(rhs, State(1.0, 0.0), 0.0, 1.0, 2.0)


def test_simulate_determinism():
    rhs, control = closed_loop(PLANT, ControllerSpec(ControllerVariant.PROPOSED, omega=400.0))
    h = math.tau / (40.0 * 400.0)
    a = simulate(rhs, State(1.0, 0.0), 0.0, 0.5, h, Method.EULER, input_fn=control)
    b = simulate(rhs, State(1.0, 0.0), 0.0, 0.5, h, Method.EULER, input_fn=control)
    assert a.times.tobytes() == b.times.tobytes()
    assert a.ys.tobytes() == b.ys.tobytes()
    assert a.ks.tobytes() == b.ks.tobytes()
    assert a.us.tobytes() == b.us.tobytes()


def test_simulate_records_inputs_at_samples():
    rhs, control = closed_loop(PLANT, ControllerSpec(ControllerVariant.PROPOSED, omega=40.0))
    traj = simulate(rhs, State(1.0, 0.0), 0.0, 0.1, 0.01, Method.EULER, input_fn=control)
    for i in (0, 3, len(traj) - 1):
        s = (traj.ys[i], traj.ks[i])
        assert traj.us[i] == control(s, traj.times[i])


def test_simulate_equilibrium_preserved():
    rhs = lie_bracket_loop(PLANT)
    for method in (Method.EULER, Method.RK4):
        traj = simulate(rhs, State(0.0, 3.0), 0.0, 1.0, 0.01, method)
        assert np.all(traj.ys == 0.0)
        assert np.all(traj.ks == 3.0)


def test_simulate_truncates_on_blow_up():
    """5 -> 130 -> 2197130 -> ~1.06e19: step 3 is the first past 1e9. From
    1e200 the float power raises OverflowError, which must not escape."""
    for blow in (lambda s, t: (s[0] * s[0] * s[0], 0.0), lambda s, t: (s[0] ** 3, 0.0)):
        traj = simulate(blow, (5.0, 0.0), 0.0, 10.0, 1.0, Method.EULER, meta={"tag": 1})
        assert traj.status == "diverged"
        assert traj.diverged
        assert traj.failure_step == 3
        assert len(traj) == traj.failure_step
        assert np.all(np.isfinite(traj.ys))
        assert traj.meta["tag"] == 1
    traj = simulate(lambda s, t: (s[0] ** 3, 0.0), (1e200, 0.0), 0.0, 1.0, 1.0, Method.EULER)
    assert (traj.status, traj.failure_step, len(traj)) == ("diverged", 1, 1)


def test_simulate_meta_records_solver_facts():
    traj = simulate(lie_bracket_loop(PLANT), State(1.0, 0.0), 0.0, 1.0, 0.1,
                    Method.RK4, meta={"variant": None})
    assert traj.meta["method"] == "rk4"
    assert traj.meta["h"] == 0.1
    assert traj.meta["t0"] == 0.0
    assert traj.meta["tf"] == 1.0


def test_proposed_run_reaches_small_output():
    """Endpoint frozen on first validated run (regression constant)."""
    rhs, control = closed_loop(PLANT, ControllerSpec(ControllerVariant.PROPOSED, omega=400.0))
    h = math.tau / (40.0 * 400.0)
    traj = simulate(rhs, State(1.0, 0.0), 0.0, 3.0, h, Method.EULER, input_fn=control)
    assert traj.status == "ok"
    assert abs(traj.ys[-1]) < 0.1
    assert abs(traj.ys[-1]) < 1e-10
    assert math.isclose(traj.ks[-1], -9.986544127432667, rel_tol=1e-9)


def test_nussbaum_run_converges():
    rhs, _ = closed_loop(PLANT, ControllerSpec(ControllerVariant.NUSSBAUM))
    traj = simulate(rhs, State(1.0, 0.0), 0.0, 3.0, 1e-4, Method.EULER)
    assert traj.status == "ok"
    assert abs(traj.ys[-1]) < 0.1
    i = round(2.9 / 1e-4)
    assert abs(traj.ks[-1] - traj.ks[i]) < 1e-3


# -- Trajectory record ------------------------------------------------------------


def test_trajectory_validation():
    t = np.array([0.0, 0.1, 0.2])
    ok = np.zeros(3)
    with pytest.raises(ValueError, match="length"):
        Trajectory(t, ok, np.zeros(2))
    with pytest.raises(ValueError, match="non-finite"):
        Trajectory(t, np.array([0.0, math.inf, 0.0]), ok)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.2, 0.1]), ok, ok)
    with pytest.raises(ValueError, match="status"):
        Trajectory(t, ok, ok, status="weird")
    with pytest.raises(ValueError, match="failure_step"):
        Trajectory(t, ok, ok, status="diverged")
    with pytest.raises(ValueError, match="failure_step"):
        Trajectory(t, ok, ok, failure_step=2)


def test_trajectory_rejects_uneven_spacing():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.1, 0.3]), np.zeros(3), np.zeros(3))
    # a shorter final step is the one allowed irregularity
    Trajectory(np.array([0.0, 0.1, 0.15]), np.zeros(3), np.zeros(3))


def test_trajectory_state_access():
    traj = simulate(lie_bracket_loop(PLANT), State(1.0, 0.0), 0.0, 0.5, 0.1)
    assert traj.state(0) == State(1.0, 0.0)
    assert isinstance(traj.final_state, State)


def test_trajectory_csv_and_meta_round_trip(tmp_path):
    rhs, control = closed_loop(PLANT, ControllerSpec(ControllerVariant.PROPOSED, omega=40.0))
    traj = simulate(rhs, State(1.0, 0.0), 0.0, 0.05, 0.01, Method.EULER,
                    input_fn=control, meta={"variant": "proposed", "omega": 40.0})
    path = tmp_path / "run.csv"
    traj.save(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,y,k,u"
    assert len(lines) == 1 + len(traj)
    t, y, k, u = lines[2].split(",")
    assert float(t) == traj.times[1]
    assert float(y) == traj.ys[1]
    assert float(k) == traj.ks[1]
    assert float(u) == traj.us[1]
    meta = json.loads((tmp_path / "run.json").read_text())
    assert meta["variant"] == "proposed"
    assert meta["status"] == "ok"
    assert meta["n_samples"] == len(traj)


def test_trajectory_csv_blank_input_column(tmp_path):
    traj = simulate(lie_bracket_loop(PLANT), State(1.0, 0.0), 0.0, 0.2, 0.1)
    path = tmp_path / "lbs.csv"
    traj.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,y,k,u"
    assert all(line.endswith(",") for line in lines[1:])


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


@settings(max_examples=200)
@given(
    values=st.integers(1, 12).flatmap(
        lambda n: st.lists(st.lists(_FINITE, min_size=n, max_size=n), min_size=3, max_size=3)
    ),
    h=st.floats(min_value=5e-324, max_value=1e6),
    with_u=st.booleans(),
)
@example(
    values=[[5e-324, -0.0], [0.0, -2.2250738585072014e-308], [1e-310, -5e-324]],
    h=5e-324,
    with_u=True,
)
@example(values=[[-0.0], [0.0], [1.7976931348623157e308]], h=1.0, with_u=False)
def test_trajectory_csv_reads_back_bit_for_bit(tmp_path_factory, values, h, with_u):
    """Every CSV cell parses back to the very float written, subnormals and
    signed zeros included; without an input the u cells are empty."""
    ys, ks, us = values
    times = h * np.arange(len(ys))
    traj = Trajectory(times, ys, ks, us if with_u else None)
    path = traj.write_csv(tmp_path_factory.mktemp("csv") / "run.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "t,y,k,u"
    cells = list(zip(*(line.split(",") for line in lines[1:])))
    assert len(cells) == 4
    for name, written, column in zip("tyk", (times, ys, ks), cells):
        assert np.array_equal(_bits([float(c) for c in column]), _bits(written)), name
    if with_u:
        assert np.array_equal(_bits([float(c) for c in cells[3]]), _bits(us))
    else:
        assert set(cells[3]) == {""}


def _row_wise_csv(header, columns) -> bytes:
    """The CSV bytes of the row-at-a-time formatting the writer once used."""
    pad = "," * (len(header) - len(columns))
    rows = zip(*[np.asarray(c, dtype=float).tolist() for c in columns])
    lines = [",".join(header), *(",".join(map(repr, row)) + pad for row in rows)]
    return ("\n".join(lines) + "\n").encode()


_CSV_EDGES = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 9999999999999998.0,
     1e-5, 1e-4, 0.0001, 9.999999999999999e-05, math.inf, -math.inf, math.nan]
)


@settings(max_examples=200)
@given(
    columns=st.tuples(st.integers(1, 4), st.integers(0, 8)).flatmap(
        lambda shape: st.lists(
            st.lists(st.floats() | _CSV_EDGES, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )
)
@example(columns=[[-0.0, 5e-324, 1e16, 1e-5]])
@example(columns=[[], [], []])
def test_csv_writer_matches_row_wise_formatting(tmp_path_factory, columns):
    """Formatting a column at a time writes the same bytes as formatting a
    row at a time, for 1 to 4 columns under a 4-name header."""
    header = ("t", "y", "k", "u")
    path = _write_csv(tmp_path_factory.mktemp("csv") / "cols.csv", header, columns)
    assert path.read_bytes() == _row_wise_csv(header, columns)


@pytest.mark.parametrize("n_columns", [1, 3, 4])
def test_csv_writer_matches_row_wise_formatting_across_blocks(tmp_path, n_columns):
    """Rows past the writer's block size, with the edge values mixed in."""
    rng = np.random.default_rng(7)
    n = 2 * integrate._CSV_BLOCK_ROWS + 5
    columns = []
    for _ in range(n_columns):
        column = rng.normal(scale=1e10, size=n) * 10.0 ** rng.integers(-330, 10, size=n)
        column[rng.integers(0, n, size=50)] = [-0.0, 5e-324, 1e16, 1e-5, math.inf] * 10
        columns.append(column)
    header = ("t", "y", "k", "u")
    path = _write_csv(tmp_path / "cols.csv", header, columns)
    assert path.read_bytes() == _row_wise_csv(header, columns)


# -- series stepping ---------------------------------------------------------------


def test_chen_fliess_step_order0_example():
    s = chen_fliess_step(PlantParams(1.0, 1.0), State(1.0, 0.0), 0.01, 0)
    assert math.isclose(s.y, 1.01, rel_tol=1e-15)
    assert s.k == 0.0


def test_chen_fliess_step_validation():
    with pytest.raises(ValueError):
        chen_fliess_step(PLANT, State(1.0, 0.0), 0.0, 1)
    with pytest.raises(ValueError):
        chen_fliess_step(PLANT, State(1.0, 0.0), -0.1, 1)
    with pytest.raises(ValueError, match="order"):
        chen_fliess_step(PLANT, State(1.0, 0.0), 0.1, 4)
    for periods in (0, -1, 1.5, True):
        with pytest.raises(ValueError):
            chen_fliess_step(PLANT, State(1.0, 0.0), 0.1, 1, periods=periods)


def test_chen_fliess_step_takes_a_pair():
    """A (y, k) pair starts the step as the equal State does; a non-finite
    pair is refused, as `simulate` refuses it."""
    for order in (0, 1, 2, 3):
        want = chen_fliess_step(PLANT, State(1.0, 0.0), 0.01, order)
        assert chen_fliess_step(PLANT, (1.0, 0.0), 0.01, order) == want
    with pytest.raises(ValueError, match="finite"):
        chen_fliess_step(PLANT, (math.nan, 0.0), 0.01, 1)


def test_chen_fliess_step_fixes_equilibria():
    for order in (0, 1, 2, 3):
        for drift_taylor in (False, True):
            s = chen_fliess_step(
                PLANT, State(0.0, 2.5), 0.05, order, drift_taylor=drift_taylor
            )
            assert s == State(0.0, 2.5)


def test_chen_fliess_order1_equals_euler_on_average():
    """Transcription gate: the order-1 step must be an Euler step of the
    averaged system, up to rounding."""
    rng = np.random.default_rng(2)
    for _ in range(30):
        a, k0, y0 = rng.uniform(-3.0, 3.0, size=3)
        b = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0))
        omega = float(rng.uniform(50.0, 1000.0))
        p = PlantParams(float(a), b)
        s0 = State(float(y0), float(k0))
        T = math.tau / omega
        got = chen_fliess_step(p, s0, T, 1)
        want = euler_step(lie_bracket_loop(p), s0.as_tuple(), 0.0, T)
        assert abs(got.y - want[0]) <= 1e-12 * max(1.0, abs(want[0]))
        assert abs(got.k - want[1]) <= 1e-12 * max(1.0, abs(want[1]))


def test_chen_fliess_drift_taylor_adds_second_order_drift():
    p = PlantParams(3.0, -1.5)
    s0 = State(0.7, -0.4)
    T = 0.02
    rho = p.a - p.b * s0.k
    base = chen_fliess_step(p, s0, T, 1)
    full = chen_fliess_step(p, s0, T, 1, drift_taylor=True)
    extra = 0.5 * s0.y * rho * rho * T * T
    assert math.isclose(full.y - base.y, extra, rel_tol=1e-12, abs_tol=1e-15)
    assert full.k == base.k


def test_chen_fliess_simulate_zero_steps():
    traj = chen_fliess_simulate(PLANT, State(1.0, 0.0), 400.0, 1, 0, 2)
    assert len(traj) == 1
    assert traj.times[0] == 0.0


def test_chen_fliess_simulate_matches_euler_trajectory():
    p = PlantParams(2.0, 1.0)
    omega = 200.0
    T = math.tau / omega
    n = 40
    series = chen_fliess_simulate(p, State(0.5, -1.0), omega, 1, n, 1)
    euler = simulate(lie_bracket_loop(p), State(0.5, -1.0), 0.0, n * T, T, Method.EULER)
    assert len(series) == len(euler)
    np.testing.assert_allclose(series.ys, euler.ys, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(series.ks, euler.ks, rtol=1e-12, atol=1e-14)


def _signed_decades(lo: float, hi: float):
    """Floats of either sign with log10 magnitude uniform-ish in [lo, hi]."""
    return st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(lo, hi)).map(
        lambda t: t[0] * 10.0 ** t[1]
    )


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(
    a=st.floats(-5.0, 5.0),
    b=_signed_decades(-1.0, 0.7),
    y0=_signed_decades(-3.0, 14.0),
    k0=_signed_decades(-3.0, 12.0),
    omega=st.floats(10.0, 2000.0),
    n=st.integers(0, 120),
)
def test_chen_fliess_order1_run_equals_euler_run_on_average(a, b, y0, k0, omega, n):
    """Sample for sample, and in where and whether the run diverges, the
    order-1 series run is an Euler run of the averaged system. Starts reach
    1e14, five decades past the 1e9 divergence limit."""
    p = PlantParams(a, b)
    T = math.tau / omega
    series = chen_fliess_simulate(p, State(y0, k0), omega, 1, n, 1)
    euler = simulate(lie_bracket_loop(p), State(y0, k0), 0.0, n * T, T, Method.EULER)
    assert (series.status, series.failure_step) == (euler.status, euler.failure_step)
    np.testing.assert_array_equal(series.times, euler.times)
    np.testing.assert_allclose(series.ys, euler.ys, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(series.ks, euler.ks, rtol=1e-12, atol=0.0)


def _step_outcome(step, *args, **kwargs):
    """The new state as exact hex floats, or the type of what was raised."""
    try:
        s = step(*args, **kwargs)
    except Exception as e:  # the exception type is the outcome
        return type(e)
    return (s.y.hex(), s.k.hex())


@settings(max_examples=400)
@given(
    a=st.floats(-5.0, 5.0),
    b=_signed_decades(-1.0, 0.7),
    y0=_signed_decades(-3.0, 80.0),
    k0=_signed_decades(-3.0, 80.0),
    omega=st.floats(10.0, 3000.0),
    periods=st.integers(1, 3),
    order=st.integers(0, 3),
    drift_taylor=st.booleans(),
)
# A power overflows: y**5 at order 3.
@example(10.0, -2.0, 1e70, 0.5, 400.0, 1, 3, False)
# A monomial is infinite, so the new state is not finite.
@example(10.0, -2.0, 1e50, 1e70, 400.0, 1, 3, False)
# The y sum fails ("-inf + inf") and a k power overflows: every power is
# taken before either sum, so OverflowError is what is raised.
@example(
    -0.9184956268595643, -0.35180115078460816, -2.1401178526322307e78,
    -1.106289012141867e77, 2973.682025412213, 3, 2, False,
)
def test_chen_fliess_step_equals_fraction_reference(
    a, b, y0, k0, omega, periods, order, drift_taylor
):
    """The float form of the table gives the state the Fraction-evaluating
    reference gives, bit for bit, or raises the same exception type. Starts
    reach 1e80 so that powers overflow and sums fail."""
    args = (PlantParams(a, b), State(y0, k0), math.tau * periods / omega, order)
    kwargs = {"periods": periods, "drift_taylor": drift_taylor}
    assert _step_outcome(chen_fliess_step, *args, **kwargs) == _step_outcome(
        reference_chen_fliess_step, *args, **kwargs
    )


def test_chen_fliess_simulate_accepts_a_pair():
    """A (y, k) start runs exactly like the same State start."""
    from_pair = chen_fliess_simulate(PLANT, (1.0, 0.0), 400.0, 1, 20, 2)
    from_state = chen_fliess_simulate(PLANT, State(1.0, 0.0), 400.0, 1, 20, 2)
    for name in ("times", "ys", "ks"):
        assert getattr(from_pair, name).tobytes() == getattr(from_state, name).tobytes()
    assert json.dumps(from_pair.record, sort_keys=True) == json.dumps(
        from_state.record, sort_keys=True
    )


def test_chen_fliess_simulate_rejects_non_finite_pair():
    with pytest.raises(ValueError, match="finite"):
        chen_fliess_simulate(PLANT, (math.nan, 0.0), 400.0, 1, 5, 1)


@pytest.mark.parametrize("order", [True, False, 1.0, 3.0])
def test_series_refuses_non_integer_orders(order):
    """bool and float orders are refused, not read as 1, 0, 1 or 3."""
    message = r"order must be 0, 1, 2, or 3 \(got "
    with pytest.raises(ValueError, match=message):
        rows_for_order(order)
    with pytest.raises(ValueError, match=message):
        chen_fliess_step(PLANT, State(1.0, 0.0), 0.1, order)
    with pytest.raises(ValueError, match=message):
        chen_fliess_simulate(PLANT, State(1.0, 0.0), 400.0, 1, 5, order)


def test_chen_fliess_simulate_meta():
    traj = chen_fliess_simulate(PLANT, State(1.0, 0.0), 400.0, 2, 5, 3)
    m = traj.meta
    assert m["scheme"] == "series"
    assert m["order"] == 3
    assert m["omega"] == 400.0
    assert m["periods_per_step"] == 2
    assert math.isclose(m["h"], 2.0 * math.tau / 400.0, rel_tol=1e-15)


def test_chen_fliess_simulate_divergence_guard():
    traj = chen_fliess_simulate(PLANT, State(1e8, 0.0), 400.0, 1, 50, 0)
    assert traj.status == "diverged"
    assert traj.failure_step is not None
    assert len(traj) == traj.failure_step
    assert np.all(np.isfinite(traj.ys))


def test_chen_fliess_simulate_validation():
    with pytest.raises(ValueError):
        chen_fliess_simulate(PLANT, State(1.0, 0.0), 0.0, 1, 5, 1)
    with pytest.raises(ValueError):
        chen_fliess_simulate(PLANT, State(1.0, 0.0), 400.0, 0, 5, 1)
    with pytest.raises(ValueError):
        chen_fliess_simulate(PLANT, State(1.0, 0.0), 400.0, 1, -1, 1)
    with pytest.raises(ValueError, match="order"):
        chen_fliess_simulate(PLANT, State(1.0, 0.0), 400.0, 1, 5, 5)
