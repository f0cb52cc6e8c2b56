"""Unit tests for the closed-loop vector fields and polar transforms.

Hand-evaluated right-hand-side values are frozen here; each was derived
independently (symbolic substitution) before the module was written.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dithersim import (
    ControllerSpec,
    ControllerVariant,
    Method,
    PlantParams,
    PolarState,
    State,
    closed_loop,
    control,
    from_polar,
    lbs_limit_point,
    lie_bracket_flow,
    lie_bracket_loop,
    lie_bracket_rhs,
    polar_closed_loop,
    polar_lbs_rhs,
    proposed_design_system,
    rhs,
    s_cos_s,
    simulate,
    swapped_design_system,
    to_polar,
)

PLANT = PlantParams(10.0, -2.0)
PROPOSED, SWAPPED, NUSSBAUM, WILLEMS_BYRNES = ControllerVariant


def _rates(p, spec, s, t):
    """(dy, dk, u) of spec's law closing the loop on plant p at s and t."""
    dy, dk = rhs(p, spec, s, t)
    return dy, dk, control(spec, s, t)[0]


# -- domain types --------------------------------------------------------------


def test_plant_params_validation():
    with pytest.raises(ValueError):
        PlantParams(1.0, 0.0)
    with pytest.raises(ValueError):
        PlantParams(math.nan, 1.0)
    assert PlantParams(10.0, -2.0).center == -5.0


def test_state_rejects_non_finite():
    with pytest.raises(ValueError):
        State(math.inf, 0.0)
    with pytest.raises(ValueError):
        State(0.0, math.nan)
    assert State(1.0, 2.0).as_tuple() == (1.0, 2.0)


def test_state_behaves_as_a_frozen_dataclass():
    """The written-out __init__ keeps the generated one's contract: the same
    refusal by keyword and through `replace`, no assignment, and the
    generated eq, hash and repr over (y, k)."""
    s = State(y=1.0, k=-2.0)
    assert [f.name for f in dataclasses.fields(State)] == ["y", "k"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.y = 3.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del s.k
    assert dataclasses.replace(s, k=0.5) == State(1.0, 0.5)
    with pytest.raises(ValueError, match=r"^State: y and k must be finite$"):
        dataclasses.replace(s, y=math.inf)
    with pytest.raises(ValueError, match=r"^State: y and k must be finite$"):
        State(k=math.nan, y=0.0)
    with pytest.raises(TypeError):
        State(1.0)
    assert s == State(1.0, -2.0) and s != State(1.0, 2.0) and s != (1.0, -2.0)
    assert hash(s) == hash(State(1.0, -2.0)) and len({s, State(1.0, -2.0)}) == 1
    assert repr(s) == "State(y=1.0, k=-2.0)"
    assert dataclasses.astuple(s) == s.as_tuple() == (1.0, -2.0)


def test_polar_state_rejects_negative_radius():
    with pytest.raises(ValueError, match="r must be nonnegative"):
        PolarState(-0.1, 0.0)
    with pytest.raises(ValueError, match="r and phi must be finite"):
        PolarState(math.nan, 0.0)


def test_polar_state_refuses_degenerate_off_the_center():
    """Only the center r = phi = 0, where `to_polar` sets it, may be flagged."""
    for r, phi in [(2.0, 0.3), (0.0, 0.3), (2.0, 0.0)]:
        with pytest.raises(ValueError, match="degenerate"):
            PolarState(r, phi, degenerate=True)
    assert PolarState(0.0, 0.0, degenerate=True) == to_polar(PLANT, State(0.0, PLANT.center))


def test_controller_variant_from_name():
    assert ControllerVariant.from_name("proposed") is ControllerVariant.PROPOSED
    assert (
        ControllerVariant.from_name("willems_byrnes")
        is ControllerVariant.WILLEMS_BYRNES
    )
    with pytest.raises(ValueError, match="unknown controller variant"):
        ControllerVariant.from_name("bogus")


def test_controller_spec_validation():
    with pytest.raises(ValueError, match="omega"):
        ControllerSpec(ControllerVariant.PROPOSED)
    with pytest.raises(ValueError, match="omega"):
        ControllerSpec(ControllerVariant.SWAPPED, omega=-1.0)
    with pytest.raises(ValueError, match="sign_b"):
        ControllerSpec(ControllerVariant.WILLEMS_BYRNES, sign_b=0)
    spec = ControllerSpec(ControllerVariant.NUSSBAUM)
    assert spec.nussbaum_fn is s_cos_s


@pytest.mark.parametrize("flag", [True, False, np.True_])
def test_controller_spec_refuses_bools(flag):
    """True == 1, so a bool would otherwise pass as omega or as sign_b."""
    with pytest.raises(ValueError, match="bool"):
        ControllerSpec(PROPOSED, omega=flag)
    with pytest.raises(ValueError, match="bool"):
        ControllerSpec(WILLEMS_BYRNES, sign_b=flag)
    with pytest.raises(ValueError, match="bool"):
        ControllerSpec(NUSSBAUM, omega=flag)


@pytest.mark.parametrize("variant", ["proposed", None])
def test_controller_spec_refuses_a_variant_of_another_type(variant):
    """A variant name or None would otherwise construct and fail only when
    the loop is built, as a KeyError."""
    with pytest.raises(ValueError, match=f"ControllerVariant, not {type(variant).__name__}"):
        ControllerSpec(variant, omega=400.0)


def test_control_laws_are_plant_blind():
    """The control law's signature admits no plant parameters."""
    assert list(inspect.signature(control).parameters) == ["spec", "s", "t"]


# -- dithered designs ----------------------------------------------------------


def test_proposed_rhs_zero_output_annihilates():
    dy, dk, u = _rates(PLANT, ControllerSpec(PROPOSED, omega=400.0), State(0.0, 3.0), 1.7)
    assert (dy, dk, u) == (0.0, 0.0, 0.0)


def test_proposed_rhs_at_phase_zero():
    # sin 0 = 0, cos 0 = 1, sqrt(4) = 2
    spec = ControllerSpec(PROPOSED, omega=4.0)
    dy, dk, u = _rates(PlantParams(1.0, 1.0), spec, State(1.0, 0.0), 0.0)
    assert dy == 1.0
    assert dk == 2.0
    assert u == 0.0


def test_proposed_rhs_at_quarter_phase():
    # omega*t = pi/2: u = -1 - 20 = -21, dy = 10 + (-2)(-21) = 52, dk ~ 0
    t = math.pi / (2.0 * 400.0)
    dy, dk, u = _rates(PLANT, ControllerSpec(PROPOSED, omega=400.0), State(1.0, 1.0), t)
    assert u == -21.0
    assert dy == 52.0
    assert abs(dk) < 1e-13


def test_swapped_rhs_values():
    assert rhs(PLANT, ControllerSpec(SWAPPED, omega=400.0), State(0.0, 5.0), 2.2) == (0.0, 0.0)
    spec = ControllerSpec(SWAPPED, omega=4.0)
    dy, dk, u = _rates(PlantParams(1.0, 1.0), spec, State(1.0, 0.0), 0.0)
    assert dy == 1.0
    assert dk == 2.0
    assert u == 0.0


def test_s_cos_s_keeps_a_python_float():
    """The fused Nussbaum kernels do float arithmetic on its result."""
    assert type(s_cos_s(1.25)) is float
    assert s_cos_s(1.25) == 1.25 * math.cos(1.25)


def test_nussbaum_rhs_values():
    spec = ControllerSpec(NUSSBAUM)
    assert rhs(PLANT, spec, State(0.0, 1.0), 0.0) == (0.0, 0.0)
    dy, dk, u = _rates(PlantParams(1.0, 1.0), spec, State(2.0, 0.0), 0.0)
    assert (dy, dk, u) == (2.0, 4.0, 0.0)
    # h(pi) = pi*cos(pi) = -pi, so dy = 10 + 2*pi^2
    dy, dk = rhs(PLANT, spec, State(1.0, math.pi), 0.0)
    assert math.isclose(dy, 10.0 + 2.0 * math.pi**2, rel_tol=1e-12)
    assert dk == 1.0


def test_willems_byrnes_rhs_values():
    spec = ControllerSpec(WILLEMS_BYRNES, sign_b=-1)
    assert rhs(PLANT, spec, State(0.0, 4.0), 0.0) == (0.0, 0.0)
    dy, dk, u = _rates(PLANT, spec, State(1.0, 0.0), 0.0)
    assert (dy, dk, u) == (10.0, -1.0, 0.0)


def test_willems_byrnes_long_run_converges():
    """With the correct sign the classical law stabilizes the test plant."""
    spec = ControllerSpec(ControllerVariant.WILLEMS_BYRNES, sign_b=-1)
    rhs, _ = closed_loop(PLANT, spec)
    traj = simulate(rhs, State(1.0, 0.0), 0.0, 10.0, 1e-4, Method.RK4)
    assert traj.status == "ok"
    assert abs(traj.ys[-1]) < 1e-3
    i9 = int(round(9.0 / 1e-4))
    assert abs(traj.ks[-1] - traj.ks[i9]) < 1e-4


def _law_by_hand(spec, y, k, t):
    """(u, dk) of spec's law, written out here apart from the package's law table."""
    if spec.variant is NUSSBAUM:
        return spec.nussbaum_fn(k) * k * y, y * y
    if spec.variant is WILLEMS_BYRNES:
        return -k * y, spec.sign_b * y * y
    sw, sn, cs = math.sqrt(spec.omega), math.sin(spec.omega * t), math.cos(spec.omega * t)
    if spec.variant is PROPOSED:
        return -k * y - y * sw * sn, y * y * sw * cs
    return -k * y - 2.0 * y * y * sw * sn, y * sw * cs


def test_closed_loop_matches_rhs_functions():
    """`rhs` and `control` agree with the four laws written out by hand,
    with dy = a*y + b*u, and bit for bit with the `closed_loop` closures."""
    rng = np.random.default_rng(7)
    specs = [
        ControllerSpec(PROPOSED, omega=400.0),
        ControllerSpec(SWAPPED, omega=37.0),
        ControllerSpec(NUSSBAUM),
        ControllerSpec(WILLEMS_BYRNES, sign_b=-1),
    ]
    for spec in specs:
        loop_rhs, loop_control = closed_loop(PLANT, spec)
        for _ in range(25):
            y, k = (float(v) for v in rng.uniform(-4.0, 4.0, size=2))
            t = float(rng.uniform(0.0, 2.0))
            s = State(y, k)
            u_ref, dk_ref = _law_by_hand(spec, y, k, t)
            dy_ref = PLANT.a * y + PLANT.b * u_ref
            (dy, dk), (u, dk_law) = rhs(PLANT, spec, s, t), control(spec, s, t)
            for got, ref in [(dy, dy_ref), (dk, dk_ref), (u, u_ref)]:
                assert math.isclose(got, ref, rel_tol=1e-13, abs_tol=1e-13), (spec, y, k, t)
            assert dk_law == dk
            assert loop_rhs((y, k), t) == (dy, dk)
            assert loop_control((y, k), t) == u


def test_state_typed_entries_keep_the_sign_of_a_zero_plant_constant():
    """Equal plants that differ in the sign of a zero give dy of opposite
    signs at y = -1, k = 0, t = 0: `rhs` matches `closed_loop` bit for bit
    for each, in either order, so no call form is shared across them."""
    spec = ControllerSpec(PROPOSED, omega=400.0)
    plus, minus = PlantParams(0.0, -2.0), PlantParams(-0.0, -2.0)
    assert plus == minus
    for order in ((plus, minus), (minus, plus)):
        for p in order:
            got = rhs(p, spec, State(-1.0, 0.0), 0.0)
            want = closed_loop(p, spec)[0]((-1.0, 0.0), 0.0)
            assert [v.hex() for v in got] == [v.hex() for v in want]
        assert rhs(plus, spec, State(-1.0, 0.0), 0.0)[0].hex() == "-0x0.0p+0"
        assert rhs(minus, spec, State(-1.0, 0.0), 0.0)[0].hex() == "0x0.0p+0"


@pytest.mark.parametrize(
    "variant, design",
    [
        (ControllerVariant.PROPOSED, proposed_design_system),
        (ControllerVariant.SWAPPED, swapped_design_system),
    ],
)
@pytest.mark.parametrize("p", [PLANT, PlantParams(1.3, 0.7)])
def test_closed_loop_matches_drift_dither_split(variant, design, p):
    """The integrators' closed loop equals drift + sqrt(w)*(sin(wt)*f1 + cos(wt)*f2)."""
    rng = np.random.default_rng(13)
    system = design(p)
    f_drift, (f_sin, f_cos) = system.drift, system.fields
    for _ in range(50):
        y, k = (float(v) for v in rng.uniform(-4.0, 4.0, size=2))
        t = float(rng.uniform(0.0, 2.0))
        omega = float(rng.uniform(1.0, 2000.0))
        rhs, _ = closed_loop(p, ControllerSpec(variant, omega=omega))
        x = np.array([y, k])
        sw = math.sqrt(omega)
        terms = [
            np.asarray(f_drift(x, t)),
            sw * math.sin(omega * t) * np.asarray(f_sin(x, t)),
            sw * math.cos(omega * t) * np.asarray(f_cos(x, t)),
        ]
        want = sum(terms)
        scale = sum(np.abs(v) for v in terms)
        got = np.asarray(rhs((y, k), t))
        assert np.all(np.abs(got - want) <= 1e-13 * scale), (y, k, t, omega)


# -- averaged system -----------------------------------------------------------


def test_lie_bracket_rhs_equilibrium_set():
    for k in (-7.0, 0.0, 3.5, 1e6):
        assert lie_bracket_rhs(PLANT, State(0.0, k)) == (0.0, 0.0)


def test_lie_bracket_rhs_values():
    # k = a/b zeroes the y-drift
    assert lie_bracket_rhs(PLANT, State(1.0, -5.0)) == (0.0, -2.0)
    assert lie_bracket_rhs(PlantParams(1.0, 1.0), State(2.0, 0.0)) == (2.0, 4.0)


def test_lie_bracket_rhs_odd_in_y():
    rng = np.random.default_rng(11)
    for _ in range(50):
        y, k = rng.uniform(-5.0, 5.0, size=2)
        dy, dk = lie_bracket_rhs(PLANT, State(float(y), float(k)))
        ndy, ndk = lie_bracket_rhs(PLANT, State(float(-y), float(k)))
        assert ndy == -dy
        assert ndk == dk


def test_lie_bracket_loop_matches_dataclass_route():
    rhs = lie_bracket_loop(PLANT)
    rng = np.random.default_rng(3)
    for _ in range(20):
        y, k = rng.uniform(-5.0, 5.0, size=2)
        assert rhs((y, k), 0.0) == lie_bracket_rhs(PLANT, State(float(y), float(k)))


# -- exact averaged flow -------------------------------------------------------


def _plant_and_start(a, b, y0, z0):
    """The plant (a, b) and the start at offset (y0, z0) from (0, a/b)."""
    p = PlantParams(a, b)
    return p, State(y0, p.center + z0)


_PLANT_A = st.floats(-5.0, 5.0)
_PLANT_B = st.floats(0.1, 4.0) | st.floats(-4.0, -0.1)
_OFFSET = st.floats(-3.0, 3.0)


@settings(max_examples=40)
@given(a=_PLANT_A, b=_PLANT_B, y0=_OFFSET, z0=_OFFSET, t0=st.floats(-1.0, 1.0),
       span=st.floats(0.01, 0.5))
@example(a=5.0, b=4.0, y0=3.0, z0=-3.0, t0=0.0, span=0.5)
@example(a=10.0, b=-2.0, y0=1e-6, z0=1.0, t0=0.0, span=0.5)
def test_lie_bracket_flow_matches_rk4(a, b, y0, z0, t0, span):
    """The closed form agrees with the 1e-4 RK4 run of the averaged
    system to 1e-10 absolute at every RK4 sample."""
    p, s0 = _plant_and_start(a, b, y0, z0)
    ref = simulate(lie_bracket_loop(p), s0, t0, t0 + span, 1e-4, Method.RK4)
    ys, ks = lie_bracket_flow(p, s0, t0, ref.times)
    assert np.max(np.abs(ys - ref.ys)) <= 1e-10
    assert np.max(np.abs(ks - ref.ks)) <= 1e-10


def test_lie_bracket_flow_equilibrium_is_constant():
    times = np.array([-1.0, 0.0, 2.5, 1e6])
    for y0 in (0.0, -0.0):
        ys, ks = lie_bracket_flow(PLANT, State(y0, 3.0), 0.0, times)
        assert np.array_equal(ys, np.zeros(4))
        assert np.all(np.signbit(ys) == np.signbit(y0))
        assert np.array_equal(ks, np.full(4, 3.0))


def test_lie_bracket_flow_refuses_nan_and_infinite_start_times():
    """A NaN start or sample time, or an infinite start, would give NaN."""
    for s0 in (State(1.0, 0.0), State(0.0, 3.0)):
        for t0, times in [(math.nan, [0.0, 1.0]), (math.inf, [1.0]), (0.0, [0.0, math.nan])]:
            with pytest.raises(ValueError, match="t0"):
                lie_bracket_flow(PLANT, s0, t0, np.array(times))


def test_lie_bracket_flow_at_infinite_times():
    """t = +inf is the limit point; t = -inf the other end of the orbit."""
    s0 = State(1.0, 0.0)
    ys, ks = lie_bracket_flow(PLANT, s0, 0.0, np.array([math.inf, -math.inf]))
    assert State(float(ys[0]), float(ks[0])) == lbs_limit_point(PLANT, s0)
    r = math.hypot(s0.y, s0.k - PLANT.center)
    assert ys[1] == 0.0 and math.isclose(ks[1], PLANT.center + r, rel_tol=1e-15)


def test_lie_bracket_flow_refuses_an_overflowing_radius():
    """k0 - a/b overflows to inf for these finite inputs."""
    with pytest.raises(ValueError, match="radius"):
        lie_bracket_flow(PlantParams(1e308, -1.0), State(1.0, 1e308), 0.0, np.array([1.0]))


@settings(max_examples=200)
@given(a=_PLANT_A, b=_PLANT_B, y0=_OFFSET, z0=_OFFSET, t=st.floats(-2.0, 2.0))
def test_lie_bracket_flow_conserves_radius(a, b, y0, z0, t):
    """hypot(y, k - a/b) stays at its start value to 1e-14 relative."""
    p, s0 = _plant_and_start(a, b, y0, z0)
    r0 = math.hypot(s0.y, s0.k - p.center)
    # k carries the rounding of a/b itself, so a radius far below |a/b|
    # cannot be conserved to 1e-14 of itself.
    assume(r0 >= 0.1 * max(1.0, abs(p.center)))
    ys, ks = lie_bracket_flow(p, s0, 0.0, np.array([t]))
    assert abs(math.hypot(ys[0], ks[0] - p.center) - r0) <= 1e-14 * r0


@pytest.mark.parametrize(
    "p, s0",
    [
        (PLANT, State(1.0, 0.0)),
        (PLANT, State(-1e-300, -4.0)),
        (PlantParams(1.3, 0.7), State(-2.0, 5.0)),
        (PlantParams(-3.0, 0.1), State(0.5, -40.0)),
    ],
)
def test_lie_bracket_flow_settles_on_the_limit_point(p, s0):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ys, ks = lie_bracket_flow(p, s0, 0.0, np.array([1e6]))
    assert State(float(ys[0]), float(ks[0])) == lbs_limit_point(p, s0)


@given(a=_PLANT_A, b=_PLANT_B, y0=_OFFSET.filter(bool), z0=_OFFSET)
def test_lie_bracket_flow_settles_on_the_limit_point_for_any_plant(a, b, y0, z0):
    """From any start off the equilibrium line with an orbit radius r of at
    least 1e-3, the flow at t = 1e9 is the limit point exactly: |b*r*t| is
    at least 1e5, far past the |u0| + 745 (at most about 1491 here) where
    exp(-|u|) underflows to 0 and tanh(u) rounds to +-1."""
    p, s0 = _plant_and_start(a, b, y0, z0)
    assume(math.hypot(s0.y, s0.k - p.center) >= 1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ys, ks = lie_bracket_flow(p, s0, 0.0, np.array([1e9]))
    assert State(float(ys[0]), float(ks[0])) == lbs_limit_point(p, s0)


@settings(max_examples=200)
@given(a=_PLANT_A, b=_PLANT_B, y0=_OFFSET, z0=_OFFSET, t1=st.floats(0.0, 2.0),
       t2=st.floats(0.0, 2.0))
def test_lie_bracket_flow_semigroup(a, b, y0, z0, t1, t2):
    """Flowing t1 and then t2 lands where flowing t1 + t2 does, to 1e-12."""
    p, s0 = _plant_and_start(a, b, y0, z0)
    _check_semigroup(p, s0, t1, t2)


def _check_semigroup(p, s0, t1, t2):
    ys, ks = lie_bracket_flow(p, s0, 0.0, np.array([t1, t1 + t2]))
    mid = State(float(ys[0]), float(ks[0]))
    ys2, ks2 = lie_bracket_flow(p, mid, t1, np.array([t1 + t2]))
    assert abs(ys2[0] - ys[1]) <= 1e-12
    assert abs(ks2[0] - ks[1]) <= 1e-12


@pytest.mark.parametrize("y0", [1e-300, 5e-324, -5e-324])
def test_lie_bracket_flow_from_tiny_output(y0):
    """A start a hair off the equilibrium line still moves: z0/|y0|
    overflows for the subnormal start, and the log form of asinh places
    it at u0 = log(2*z0/|y0|) instead of freezing it at u = inf. Once
    u = b*r*t + u0 crosses 0 the output swings out to |y| = r."""
    s0 = State(y0, PLANT.center + 1.0)  # r = 1, u0 > 0, b*r = -2
    crossing = (math.log(2.0) - math.log(abs(y0))) / 2.0
    ys, ks = lie_bracket_flow(PLANT, s0, 0.0, np.array([0.0, crossing]))
    assert abs(ys[0]) <= 4.0 * abs(y0)
    assert math.isclose(ys[1], math.copysign(1.0, y0), rel_tol=1e-12)
    assert abs(ks[1] - PLANT.center) <= 1e-12
    for t1, t2 in [(0.5 * crossing, 0.5 * crossing), (100.0, crossing), (crossing, 3.0)]:
        _check_semigroup(PLANT, s0, t1, t2)


# -- polar transforms ----------------------------------------------------------


def test_to_polar_branch_examples():
    c0 = PLANT.center
    ps = to_polar(PLANT, State(1.0, c0))
    assert (ps.r, ps.phi, ps.degenerate) == (1.0, 0.0, False)
    ps = to_polar(PLANT, State(0.0, c0 + 2.0))
    assert ps.r == 2.0
    assert math.isclose(ps.phi, math.pi / 2.0, rel_tol=1e-15)
    ps = to_polar(PLANT, State(-1.0, c0))
    assert ps.r == 1.0
    assert math.isclose(ps.phi, math.pi, rel_tol=1e-15)
    # generic points on both branches
    ps = to_polar(PLANT, State(3.0, c0 + 4.0))
    assert math.isclose(ps.r, 5.0, rel_tol=1e-15)
    assert math.isclose(ps.phi, math.asin(0.8), rel_tol=1e-15)
    ps = to_polar(PLANT, State(-3.0, c0 + 4.0))
    assert math.isclose(ps.phi, math.pi - math.asin(0.8), rel_tol=1e-15)


def test_to_polar_degenerate_center():
    ps = to_polar(PLANT, State(0.0, PLANT.center))
    assert ps.r == 0.0
    assert ps.phi == 0.0
    assert ps.degenerate


def test_from_polar_example():
    s = from_polar(PLANT, PolarState(2.0, math.pi / 2.0))
    assert abs(s.y) <= 1e-12
    assert math.isclose(s.k, PLANT.center + 2.0, rel_tol=1e-15)


@settings(max_examples=1000)
@given(y=st.floats(-10.0, 10.0), k=st.floats(-10.0, 10.0))
@example(y=0.001953125, k=0.0)  # asin(dk/r) once lost half the digits of y here
@example(y=1e-7, k=0.0)
@example(y=-0.0, k=PLANT.center)
def test_polar_round_trip_random(y, k):
    """from_polar(to_polar(s)) = s to 1e-12 relative, also near phi = +-pi/2
    and at the center."""
    s = State(y, k)
    back = from_polar(PLANT, to_polar(PLANT, s))
    err = math.hypot(back.y - s.y, back.k - s.k)
    assert err <= 1e-12 * (1.0 + math.hypot(s.y, s.k))


def test_polar_closed_loop_rhs_frozen_example():
    # sin/cos collapse at t = 0, phi = 0: radial rate vanishes, angle
    # advances at rate r*sqrt(omega)*... = 1 for these inputs
    dr, dphi = polar_closed_loop(PlantParams(1.0, 1.0), 1.0)(PolarState(1.0, 0.0).as_tuple(), 0.0)
    assert (dr, dphi) == (0.0, 1.0)


def test_polar_closed_loop_rhs_vanishes_at_half_pi():
    dr, dphi = polar_closed_loop(PLANT, 400.0)(PolarState(2.0, math.pi / 2.0).as_tuple(), 0.3)
    assert abs(dr) <= 1e-12
    assert abs(dphi) <= 1e-12


def test_polar_closed_loop_consistency_with_cartesian():
    """Transported polar rates match the Cartesian closed loop to 1e-9."""
    rng = np.random.default_rng(99)
    for omega in (1.0, 400.0):
        for _ in range(50):
            r = float(rng.uniform(0.3, 5.0))
            phi = float(rng.uniform(-math.pi / 2 + 0.15, math.pi / 2 - 0.15))
            if rng.uniform() < 0.5:
                phi = math.pi - phi
            t = float(rng.uniform(0.0, 1.0))
            ps = PolarState(r, phi)
            s = from_polar(PLANT, ps)
            dy, dk = rhs(PLANT, ControllerSpec(PROPOSED, omega=omega), s, t)
            cp, sp = math.cos(phi), math.sin(phi)
            dr_ref = cp * dy + sp * dk
            dphi_ref = (cp * dk - sp * dy) / r
            dr, dphi = polar_closed_loop(PLANT, omega)(ps.as_tuple(), t)
            assert abs(dr - dr_ref) <= 1e-9 * max(1.0, abs(dr_ref))
            assert abs(dphi - dphi_ref) <= 1e-9 * max(1.0, abs(dphi_ref))


def test_polar_closed_loop_refuses_the_center():
    """At r = 0 the angle is undefined: the transport divides by r, so it
    raises a ValueError naming the center instead of ZeroDivisionError."""
    with pytest.raises(ValueError, match=r"undefined at the center \(0, a/b\)"):
        polar_closed_loop(PLANT, 400.0)((0.0, 0.7), 0.3)
    with pytest.raises(ValueError, match="center"):
        polar_closed_loop(PLANT, 400.0)(to_polar(PLANT, State(0.0, PLANT.center)).as_tuple(), 0.3)
    # Just off the center the rates are finite.
    assert all(map(math.isfinite, polar_closed_loop(PLANT, 400.0)((1e-12, 0.7), 0.3)))


def test_polar_lbs_rhs_values():
    dr, dphi = polar_lbs_rhs(PLANT, PolarState(1.0, 0.0))
    assert (dr, dphi) == (0.0, -2.0)
    dr, dphi = polar_lbs_rhs(PLANT, PolarState(2.0, math.pi / 2.0))
    assert dr == 0.0
    assert abs(dphi) <= 1e-12
    rng = np.random.default_rng(5)
    for _ in range(20):
        ps = PolarState(float(rng.uniform(0.0, 8.0)), float(rng.uniform(-4.0, 4.0)))
        assert polar_lbs_rhs(PLANT, ps)[0] == 0.0
