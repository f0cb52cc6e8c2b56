"""Unit tests for the closed-loop vector fields and polar transforms.

Hand-evaluated right-hand-side values are frozen here; each was derived
independently (symbolic substitution) before the module was written.
"""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest

from dithersim import (
    ControllerSpec,
    ControllerVariant,
    Method,
    PlantParams,
    PolarState,
    State,
    closed_loop,
    from_polar,
    lie_bracket_loop,
    lie_bracket_rhs,
    nussbaum_control,
    nussbaum_rhs,
    polar_closed_loop_rhs,
    polar_lbs_rhs,
    proposed_control,
    proposed_design_system,
    proposed_rhs,
    s_cos_s,
    simulate,
    swapped_control,
    swapped_design_system,
    swapped_rhs,
    to_polar,
    willems_byrnes_control,
    willems_byrnes_rhs,
)

PLANT = PlantParams(10.0, -2.0)


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


def test_polar_state_rejects_negative_radius():
    with pytest.raises(ValueError):
        PolarState(-0.1, 0.0)


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


def test_control_laws_are_plant_blind():
    """No control law signature admits plant parameters."""
    assert list(inspect.signature(proposed_control).parameters) == ["s", "t", "omega"]
    assert list(inspect.signature(swapped_control).parameters) == ["s", "t", "omega"]
    assert list(inspect.signature(nussbaum_control).parameters) == ["s", "t", "h"]
    assert list(inspect.signature(willems_byrnes_control).parameters) == [
        "s",
        "sign_b",
    ]


# -- dithered designs ----------------------------------------------------------


def test_proposed_rhs_zero_output_annihilates():
    dy, dk, u = proposed_rhs(PLANT, State(0.0, 3.0), 1.7, 400.0)
    assert (dy, dk, u) == (0.0, 0.0, 0.0)


def test_proposed_rhs_at_phase_zero():
    # sin 0 = 0, cos 0 = 1, sqrt(4) = 2
    dy, dk, u = proposed_rhs(PlantParams(1.0, 1.0), State(1.0, 0.0), 0.0, 4.0)
    assert dy == 1.0
    assert dk == 2.0
    assert u == 0.0


def test_proposed_rhs_at_quarter_phase():
    # omega*t = pi/2: u = -1 - 20 = -21, dy = 10 + (-2)(-21) = 52, dk ~ 0
    t = math.pi / (2.0 * 400.0)
    dy, dk, u = proposed_rhs(PLANT, State(1.0, 1.0), t, 400.0)
    assert u == -21.0
    assert dy == 52.0
    assert abs(dk) < 1e-13


def test_swapped_rhs_values():
    assert swapped_rhs(PLANT, State(0.0, 5.0), 2.2, 400.0)[:2] == (0.0, 0.0)
    dy, dk, u = swapped_rhs(PlantParams(1.0, 1.0), State(1.0, 0.0), 0.0, 4.0)
    assert dy == 1.0
    assert dk == 2.0
    assert u == 0.0


def test_nussbaum_rhs_values():
    assert nussbaum_rhs(PLANT, State(0.0, 1.0), 0.0)[:2] == (0.0, 0.0)
    dy, dk, u = nussbaum_rhs(PlantParams(1.0, 1.0), State(2.0, 0.0), 0.0)
    assert (dy, dk, u) == (2.0, 4.0, 0.0)
    # h(pi) = pi*cos(pi) = -pi, so dy = 10 + 2*pi^2
    dy, dk, _ = nussbaum_rhs(PLANT, State(1.0, math.pi), 0.0)
    assert math.isclose(dy, 10.0 + 2.0 * math.pi**2, rel_tol=1e-12)
    assert dk == 1.0


def test_willems_byrnes_rhs_values():
    assert willems_byrnes_rhs(PLANT, State(0.0, 4.0), 0.0, -1)[:2] == (0.0, 0.0)
    dy, dk, u = willems_byrnes_rhs(PLANT, State(1.0, 0.0), 0.0, -1)
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


def test_closed_loop_matches_rhs_functions():
    rng = np.random.default_rng(7)
    specs = [
        ControllerSpec(ControllerVariant.PROPOSED, omega=400.0),
        ControllerSpec(ControllerVariant.SWAPPED, omega=37.0),
        ControllerSpec(ControllerVariant.NUSSBAUM),
        ControllerSpec(ControllerVariant.WILLEMS_BYRNES, sign_b=-1),
    ]
    for spec in specs:
        rhs, control = closed_loop(PLANT, spec)
        for _ in range(25):
            y, k = rng.uniform(-4.0, 4.0, size=2)
            t = float(rng.uniform(0.0, 2.0))
            s = State(float(y), float(k))
            if spec.variant is ControllerVariant.PROPOSED:
                ref = proposed_rhs(PLANT, s, t, spec.omega)
            elif spec.variant is ControllerVariant.SWAPPED:
                ref = swapped_rhs(PLANT, s, t, spec.omega)
            elif spec.variant is ControllerVariant.NUSSBAUM:
                ref = nussbaum_rhs(PLANT, s, t)
            else:
                ref = willems_byrnes_rhs(PLANT, s, t, spec.sign_b)
            got = rhs((s.y, s.k), t)
            assert math.isclose(got[0], ref.dy, rel_tol=1e-13, abs_tol=1e-13)
            assert math.isclose(got[1], ref.dk, rel_tol=1e-13, abs_tol=1e-13)
            assert math.isclose(
                control((s.y, s.k), t), ref.u, rel_tol=1e-13, abs_tol=1e-13
            )


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


def test_polar_round_trip_random():
    """from_polar(to_polar(s)) = s to 1e-12 relative, 1000 draws."""
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        y, k = rng.uniform(-10.0, 10.0, size=2)
        s = State(float(y), float(k))
        ps = to_polar(PLANT, s)
        if ps.r <= 1e-6:
            continue
        back = from_polar(PLANT, ps)
        err = math.hypot(back.y - s.y, back.k - s.k)
        assert err <= 1e-12 * (1.0 + math.hypot(s.y, s.k))


def test_polar_closed_loop_rhs_frozen_example():
    # sin/cos collapse at t = 0, phi = 0: radial rate vanishes, angle
    # advances at rate r*sqrt(omega)*... = 1 for these inputs
    dr, dphi = polar_closed_loop_rhs(
        PlantParams(1.0, 1.0), PolarState(1.0, 0.0), 0.0, 1.0
    )
    assert (dr, dphi) == (0.0, 1.0)


def test_polar_closed_loop_rhs_vanishes_at_half_pi():
    dr, dphi = polar_closed_loop_rhs(PLANT, PolarState(2.0, math.pi / 2.0), 0.3, 400.0)
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
            dy, dk, _ = proposed_rhs(PLANT, s, t, omega)
            cp, sp = math.cos(phi), math.sin(phi)
            dr_ref = cp * dy + sp * dk
            dphi_ref = (cp * dk - sp * dy) / r
            dr, dphi = polar_closed_loop_rhs(PLANT, ps, t, omega)
            assert abs(dr - dr_ref) <= 1e-9 * max(1.0, abs(dr_ref))
            assert abs(dphi - dphi_ref) <= 1e-9 * max(1.0, abs(dphi_ref))


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
