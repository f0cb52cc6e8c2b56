"""Unit tests for the fixed-step integrators and the series stepper.

Order-of-accuracy ratios are measured against an RK4 reference run, and
the order-1 series step is compared with an explicit Euler step of the
averaged system, which it must reproduce to rounding.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import time
import tracemalloc
from unittest import mock

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
    polar_closed_loop,
    proposed_design_system,
    rk4_step,
    simulate,
    swapped_design_system,
)
from dithersim import dynamics, integrate
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


def _signed_decades(lo: float, hi: float):
    """Floats of either sign with log10 magnitude uniform-ish in [lo, hi]."""
    return st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(lo, hi)).map(
        lambda t: t[0] * 10.0 ** t[1]
    )


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
    for name in (5, None):
        with pytest.raises(ValueError, match=f"must be a str, not {type(name).__name__}"):
            Method.from_name(name)


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


def _reference_simulate(rhs, s0, t0, t_f, h, method, input_fn=None):
    """simulate's documented rules as a plain loop over the public one-step
    functions: (times, ys, ks, us, failure_step)."""
    step = euler_step if method is Method.EULER else rk4_step
    span = t_f - t0
    n_full = math.floor(span / h * (1.0 + 1e-12))
    total = n_full + (1 if span - n_full * h > 1e-9 * h and t0 + n_full * h < t_f else 0)
    s, times, ys, ks, failure = s0, [t0], [s0[0]], [s0[1]], None
    for i in range(1, total + 1):
        t_prev = t0 + (i - 1) * h
        try:
            s = step(rhs, s, t_prev, h if i <= n_full else t_f - t_prev)
        except OverflowError:
            failure = i
            break
        if not all(math.isfinite(v) and abs(v) <= 1e9 for v in s):
            failure = i
            break
        times.append(t_f if i == total else t0 + i * h)
        ys.append(s[0])
        ks.append(s[1])
    us = None
    if input_fn is not None:
        us = [input_fn((y, k), t) for y, k, t in zip(ys, ks, times)]
    return times, ys, ks, us, failure


def _property_rhs(kind: str, g: float):
    """(rhs, input_fn) for the whole-run property test. "linear" leaves the
    1e9 bound from large starts, "power" raises OverflowError from its float
    power, "late" blows up once t reaches g and "loop" is the dithered loop."""
    if kind == "linear":
        return (lambda s, t: (g * s[0] + math.sin(t), -g * s[1] * t)), None
    if kind == "power":
        return (lambda s, t: (g * s[0] ** 3, s[1] + t)), None
    if kind == "late":
        return (lambda s, t: (1e12 if t >= g else s[1], -s[0])), None
    return closed_loop(PLANT, ControllerSpec(ControllerVariant.PROPOSED, omega=40.0))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    method=st.sampled_from(list(Method)),
    kind=st.sampled_from(["linear", "power", "late", "loop"]),
    g=st.floats(-40.0, 40.0),
    y0=_signed_decades(-3.0, 9.5),
    k0=_signed_decades(-3.0, 9.5),
    t0=st.floats(-10.0, 10.0),
    h=st.floats(1e-3, 0.5),
    n=st.integers(0, 60),
    frac=st.floats(0.0, 0.999),
)
@example(Method.EULER, "loop", 0.0, 1.0, 0.0, 0.0, 0.3, 3, 0.5)  # shortened final step
@example(Method.RK4, "loop", 0.0, 1.0, 0.0, 2.0, 0.1, 0, 0.5)  # t_f == t0
@example(Method.EULER, "loop", 0.0, 1.0, 0.0, -0.0, 0.1, 0, 0.0)  # t_f == t0 == -0.0
@example(Method.EULER, "power", 1.0, 1e200, 0.0, 0.0, 0.3, 3, 0.5)  # OverflowError at step 1
# "late" with g = 0.85 first blows up on the shortened step from t = 0.9.
@example(Method.EULER, "late", 0.85, 1.0, 0.0, 0.0, 0.3, 3, 0.5)
@example(Method.RK4, "late", 1.0, 1.0, 0.0, 0.0, 0.3, 3, 0.5)
@example(Method.RK4, "power", 1.0, 1e200, 0.0, 0.0, 0.3, 3, 0.5)  # OverflowError at step 1
@example(Method.EULER, "linear", 10.0, 1e8, 1.0, 0.0, 0.1, 5, 0.0)  # leaves 1e9 at step 4
def test_simulate_equals_loop_over_public_steps(method, kind, g, y0, k0, t0, h, n, frac):
    """simulate with Euler and RK4 equals a plain loop over euler_step and
    rk4_step bit for bit: times, ys, ks, us, status and failure_step, with
    and without a shortened final step, for t_f == t0 and for runs that
    leave the 1e9 bound, overflow, or diverge on the shortened step."""
    rhs, control = _property_rhs(kind, g)
    t_f = t0 + (n + frac) * h if n else t0
    traj = simulate(rhs, (y0, k0), t0, t_f, h, method, input_fn=control)
    times, ys, ks, us, failure = _reference_simulate(rhs, (y0, k0), t0, t_f, h, method, control)
    assert (traj.status, traj.failure_step) == ("ok" if failure is None else "diverged", failure)
    for got, want in ((traj.times, times), (traj.ys, ys), (traj.ks, ks)):
        assert got.tobytes() == np.asarray(want, dtype=float).tobytes()
    if control is None:
        assert traj.us is None
    else:
        assert traj.us.tobytes() == np.asarray(us, dtype=float).tobytes()


def _refusing(rhs):
    """A callable carrying rhs's FusedField that refuses to be called, so
    a run of it succeeds only with the field inlined."""

    def refuse(s, t):
        raise AssertionError("the kernel called rhs")

    refuse.fused = rhs.fused
    return refuse


def _fused_field(kind: str, a: float, b: float, omega: float, gain: str):
    """(rhs, control) of a law from `closed_loop`, or the averaged field
    from `lie_bracket_loop` with no control. The "exp" gain shape of the
    Nussbaum law raises OverflowError once k passes about 709."""
    p = PlantParams(a, b)
    if kind == "averaged":
        return lie_bracket_loop(p), None
    variant = ControllerVariant(kind)
    if variant is ControllerVariant.NUSSBAUM:
        spec = ControllerSpec(variant, nussbaum_fn=math.exp if gain == "exp" else None)
    elif variant is ControllerVariant.WILLEMS_BYRNES:
        spec = ControllerSpec(variant, sign_b=1 if b > 0 else -1)
    else:
        spec = ControllerSpec(variant, omega=omega)
    return closed_loop(p, spec)


def _outcome(run):
    """run()'s result, or the type of the exception it raised; a failed
    assertion propagates."""
    try:
        return run()
    except AssertionError:
        raise
    except Exception as e:  # a gain shape may raise, e.g. cos(inf)
        return type(e)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(
    method=st.sampled_from(list(Method)),
    kind=st.sampled_from([v.value for v in ControllerVariant] + ["averaged"]),
    a=st.floats(-20.0, 20.0),
    b=_signed_decades(-1.0, 1.0),
    omega=st.floats(1.0, 2000.0),
    gain=st.sampled_from(["s_cos_s", "exp"]),
    y0=_signed_decades(-3.0, 9.5),
    k0=_signed_decades(-3.0, 9.5),
    t0=st.one_of(st.just(-0.0), st.floats(-10.0, 10.0)),
    h=st.floats(1e-3, 0.5),
    n=st.integers(0, 60),
    frac=st.floats(0.0, 0.999),
    with_u=st.booleans(),
)
# A start at -0.0: the kernel's first time is +0.0, which flips the sign of
# u = -0.0 - 1*c*sin(-0.0) = +0.0, so the first u is evaluated at -0.0.
@example(Method.EULER, "proposed", 10.0, -2.0, 400.0, "s_cos_s", 1.0, 0.0, -0.0, 0.01, 5, 0.0, True)
@example(Method.RK4, "proposed", 10.0, -2.0, 400.0, "s_cos_s", 1.0, 0.0, -0.0, 0.01, 5, 0.5, True)
# t_f == t0, then OverflowError from exp(k) once k passes about 709
@example(Method.EULER, "swapped", 10.0, -2.0, 40.0, "s_cos_s", 1.0, 0.0, 0.0, 0.3, 0, 0.5, True)
@example(Method.RK4, "nussbaum", 1.0, 1.0, 1.0, "exp", 1.0, 700.0, 0.0, 0.3, 3, 0.5, True)
@example(Method.EULER, "averaged", 10.0, -2.0, 1.0, "s_cos_s", 1e8, 0.0, 1.0, 0.1, 5, 0.0, False)
@example(Method.RK4, "willems_byrnes", 10.0, -2.0, 1.0, "s_cos_s", 1e4, 0.0, 2.0, 0.4, 5, 0.7, True)
def test_fused_kernels_equal_loop_over_public_steps(
    method, kind, a, b, omega, gain, y0, k0, t0, h, n, frac, with_u
):
    """For every gain law and the averaged field, simulate inlines the
    field, so the closure itself is never called, and its times, states, u
    column, status and failure_step equal a plain loop over
    euler_step/rk4_step bit for bit: with and without a shortened final
    step, from a start at -0.0, for t_f == t0 and for runs that leave the
    1e9 bound or raise OverflowError. A gain shape that raises anything
    else fails both the same way."""
    rhs, control = _fused_field(kind, a, b, omega, gain)
    input_fn = control if with_u else None
    t_f = t0 + (n + frac) * h if n else t0
    _assert_run_equals_loop(_refusing(rhs), rhs, (y0, k0), t0, t_f, h, method, input_fn)


def _assert_run_equals_loop(run_rhs, rhs, s0, t0, t_f, h, method, input_fn):
    """simulate of run_rhs equals `_reference_simulate` of rhs bit for bit,
    or both raise the same exception type. A diverged run holds arrays of
    its own, not views of a buffer sized for the whole run."""
    got = _outcome(lambda: simulate(run_rhs, s0, t0, t_f, h, method, input_fn=input_fn))
    want = _outcome(lambda: _reference_simulate(rhs, s0, t0, t_f, h, method, input_fn))
    if isinstance(want, type):
        assert got is want
        return
    times, ys, ks, us, failure = want
    assert (got.status, got.failure_step) == ("ok" if failure is None else "diverged", failure)
    for column, ref in ((got.times, times), (got.ys, ys), (got.ks, ks)):
        assert column.tobytes() == np.asarray(ref, dtype=float).tobytes()
    if input_fn is None:
        assert got.us is None
    else:
        assert got.us.tobytes() == np.asarray(us, dtype=float).tobytes()
    if got.diverged:
        columns = (got.times, got.ys, got.ks) + (() if got.us is None else (got.us,))
        assert all(column.base is None for column in columns)


# -- block packing ----------------------------------------------------------------
#
# `_march` runs a kernel at most _MARCH_BLOCK_STEPS steps per call; at 7 the
# runs below cross block boundaries, which the default of 4096 never does.

_SMALL_BLOCK = 7


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    method=st.sampled_from(list(Method)),
    kind=st.sampled_from([v.value for v in ControllerVariant] + ["averaged"]),
    plain=st.booleans(),
    b=_signed_decades(-1.0, 1.0),
    y0=_signed_decades(-3.0, 9.5),
    k0=_signed_decades(-3.0, 9.5),
    t0=st.one_of(st.just(-0.0), st.floats(-10.0, 10.0)),
    h=st.floats(1e-3, 0.5),
    n=st.integers(0, 4 * _SMALL_BLOCK),
    frac=st.floats(0.0, 0.999),
    with_u=st.booleans(),
)
# Exactly one block, and one block and one step, through the fused and the
# plain-callable kernel of both methods; two blocks and a shortened step
# from a start at -0.0, through each kernel with and without a u column.
@example(Method.EULER, "proposed", False, -2.0, 1.0, 0.0, 0.0, 0.01, 7, 0.0, True)
@example(Method.EULER, "proposed", True, -2.0, 1.0, 0.0, 0.0, 0.01, 7, 0.0, True)
@example(Method.RK4, "proposed", False, -2.0, 1.0, 0.0, 0.0, 0.01, 7, 0.0, True)
@example(Method.RK4, "proposed", True, -2.0, 1.0, 0.0, 0.0, 0.01, 7, 0.0, True)
@example(Method.EULER, "swapped", False, -2.0, 1.0, 0.0, 0.0, 0.01, 8, 0.0, True)
@example(Method.EULER, "swapped", True, -2.0, 1.0, 0.0, 0.0, 0.01, 8, 0.0, True)
@example(Method.RK4, "swapped", False, -2.0, 1.0, 0.0, 0.0, 0.01, 8, 0.0, True)
@example(Method.RK4, "swapped", True, -2.0, 1.0, 0.0, 0.0, 0.01, 8, 0.0, True)
@example(Method.EULER, "averaged", False, -2.0, 1.0, 0.0, -0.0, 0.01, 14, 0.5, False)
@example(Method.EULER, "nussbaum", True, -2.0, 1.0, 0.0, -0.0, 0.01, 14, 0.5, True)
@example(Method.RK4, "averaged", False, -2.0, 1.0, 0.0, -0.0, 0.01, 14, 0.5, False)
@example(Method.RK4, "willems_byrnes", True, -2.0, 1.0, 0.0, -0.0, 0.01, 14, 0.5, True)
def test_runs_across_blocks_equal_loop_over_public_steps(
    method, kind, plain, b, y0, k0, t0, h, n, frac, with_u
):
    """With blocks of 7 steps, a fused kernel (which keeps u when the
    control is its own) and a plain-callable kernel (which evaluates every
    u after the run) give the times, states, u column, status and
    failure_step of a plain loop over euler_step/rk4_step bit for bit."""
    rhs, control = _fused_field(kind, 10.0, b, 400.0, "s_cos_s")
    input_fn = control if with_u else None
    run_rhs = (lambda s, t: rhs(s, t)) if plain else _refusing(rhs)
    t_f = t0 + (n + frac) * h if n else t0
    with mock.patch.object(integrate, "_MARCH_BLOCK_STEPS", _SMALL_BLOCK):
        _assert_run_equals_loop(run_rhs, rhs, (y0, k0), t0, t_f, h, method, input_fn)


@pytest.mark.parametrize("plain", [False, True], ids=["fused", "plain"])
@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
@pytest.mark.parametrize(
    "t_f, failure_step",
    [(20.0, _SMALL_BLOCK + 1), (2 * _SMALL_BLOCK + 0.5, 2 * _SMALL_BLOCK + 1)],
    ids=["first-step-of-a-block", "shortened-final-step"],
)
def test_divergence_at_a_block_boundary(t_f, failure_step, method, plain):
    """Under y' = y with unit steps from t = 0, a start sized to leave the
    1e9 bound on the first step of the second block, or on the shortened
    step after two blocks, diverges there with the loop's samples bit for
    bit. The fused averaged field of a plant with a negligible b grows the
    same way; the plain callable also carries a u column."""
    growth = 2.0 if method is Method.EULER else 65.0 / 24.0  # one step of y' = y
    accepted = failure_step - 1  # whole steps before the rejected one
    y0 = 1e9 / growth ** (accepted + 0.5) if t_f == 20.0 else 1e9 / (1.2 * growth**accepted)
    if plain:
        rhs = lambda s, t: (s[0], 0.0)  # noqa: E731
        run_rhs, input_fn = rhs, (lambda s, t: s[0] * t - s[1])
    else:
        rhs = lie_bracket_loop(PlantParams(1.0, 1e-30))
        run_rhs, input_fn = _refusing(rhs), None
    with mock.patch.object(integrate, "_MARCH_BLOCK_STEPS", _SMALL_BLOCK):
        traj = simulate(run_rhs, (y0, 0.0), 0.0, t_f, 1.0, method, input_fn=input_fn)
        assert traj.failure_step == failure_step
        _assert_run_equals_loop(run_rhs, rhs, (y0, 0.0), 0.0, t_f, 1.0, method, input_fn)


def test_a_long_run_peaks_under_80_bytes_per_sample():
    """A 100,000-step Euler run of the dithered loop with its u column packs
    its samples into float64 arrays a block at a time: with 32 bytes kept
    per sample (t, y, k and u), tracemalloc's peak stays under 80 bytes per
    sample, where holding every sample as a Python float in lists peaked
    near 153. (Euler, as tracing RK4's allocations takes several seconds.)"""
    rhs, control = closed_loop(PLANT, ControllerSpec(ControllerVariant.PROPOSED, omega=400.0))
    h = 1e-5
    simulate(rhs, (1.0, 0.0), 0.0, 10 * h, h, Method.EULER, input_fn=control)  # compile first
    tracemalloc.start()
    try:
        traj = simulate(rhs, (1.0, 0.0), 0.0, 100_000 * h, h, Method.EULER, input_fn=control)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (traj.status, len(traj)) == ("ok", 100_001)
    assert peak / len(traj) < 80.0


def test_simulate_calls_other_callables_at_each_stage():
    """A wrapper of a fused closure carries no descriptor, so the kernel
    calls it at each stage, with the same result. Next to a control from
    another closed_loop call, a fused rhs keeps no u and evaluates that
    control."""
    spec = ControllerSpec(ControllerVariant.PROPOSED, omega=40.0)
    rhs, control = closed_loop(PLANT, spec)
    _, other_control = closed_loop(PLANT, spec)
    fused = simulate(rhs, (1.0, 0.0), 0.0, 0.5, 0.01, Method.RK4, input_fn=control)
    calls = []

    def wrapped(s, t):
        calls.append(t)
        return rhs(s, t)

    def counted_control(s, t):
        calls.append(t)
        return other_control(s, t)

    plain = simulate(wrapped, (1.0, 0.0), 0.0, 0.5, 0.01, Method.RK4, input_fn=other_control)
    assert len(calls) == 4 * (len(plain) - 1)
    calls.clear()
    other = simulate(rhs, (1.0, 0.0), 0.0, 0.5, 0.01, Method.RK4, input_fn=counted_control)
    assert len(calls) == len(other)
    for traj in (plain, other):
        for column in ("times", "ys", "ks", "us"):
            assert getattr(traj, column).tobytes() == getattr(fused, column).tobytes()


def test_every_compiled_source_fits_the_source_caches():
    """The call forms of every law, of the averaged field and of the audit's
    dither coefficients, every (scheme, field, keep_u) kernel and the series
    step of every order, fit the caches of `dynamics._fill` and
    `dynamics._define` together: a second round of the same builds, which
    binds every series step anew, fills and compiles nothing."""
    specs = [
        ControllerSpec(ControllerVariant.PROPOSED, omega=40.0),
        ControllerSpec(ControllerVariant.SWAPPED, omega=40.0),
        ControllerSpec(ControllerVariant.NUSSBAUM),
        ControllerSpec(ControllerVariant.WILLEMS_BYRNES, sign_b=-1),
    ]

    def build():
        laws = [closed_loop(PLANT, spec)[0].fused for spec in specs]
        for spec in specs:
            dynamics.control(spec, State(1.0, 0.5), 0.25)
            dynamics.rhs(PLANT, spec, State(1.0, 0.5), 0.25)
        proposed_design_system(PLANT)
        swapped_design_system(PLANT)
        dynamics.lie_bracket_rhs(PLANT, State(1.0, 0.5))
        for scheme in ("euler", "rk4"):
            integrate._kernel(scheme)
            integrate._kernel(scheme, lie_bracket_loop(PLANT).fused)
            for law, keep_u in itertools.product(laws, (False, True)):
                integrate._kernel(scheme, law, keep_u)
        integrate._kernel("series")
        # More (b, T) keys than the series memo holds: each binding reuses
        # the step compiled for its order.
        for order, (b, T) in itertools.product(
            range(4), itertools.product((-2.0, 0.5, 3e10), (0.1, 1e-3))
        ):
            chen_fliess_step(PlantParams(1.0, b), (1.0, 0.5), T, order)

    caches = (dynamics._fill, dynamics._define)
    for cache in (*caches, integrate._bound_terms):
        cache.cache_clear()
    build()
    first = [cache.cache_info() for cache in caches]
    assert all(info.currsize < info.maxsize for info in first)
    integrate._bound_terms.cache_clear()
    build()
    assert [cache.cache_info().misses for cache in caches] == [info.misses for info in first]


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
    with pytest.raises(ValueError, match="failure_step"):
        Trajectory(t, ok, ok, failure_step=2)


def test_trajectory_rejects_empty_arrays():
    with pytest.raises(ValueError, match="at least one sample required"):
        Trajectory(np.array([]), np.array([]), np.array([]))


def test_trajectory_rejects_a_2d_input_column():
    t = np.array([0.0, 0.1, 0.2])
    with pytest.raises(ValueError, match="us must be 1-D"):
        Trajectory(t, np.zeros(3), np.zeros(3), us=np.ones((3, 2)))


def test_trajectory_rejects_uneven_spacing():
    with pytest.raises(ValueError, match="final step exceeds the interior step"):
        Trajectory(np.array([0.0, 0.1, 0.3]), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="interior step is not constant"):
        Trajectory(np.array([0.0, 0.1, 0.3, 0.4]), np.zeros(4), np.zeros(4))
    # Near 1e12 the floats are 1.2e-4 apart, so steps of 1 and 0.5 differ
    # by thousands of their ulps.
    with pytest.raises(ValueError, match="interior step is not constant"):
        Trajectory(1e12 + np.array([0.0, 1.0, 1.5, 2.5, 3.0]), np.zeros(5), np.zeros(5))
    # a shorter final step is the one allowed irregularity
    Trajectory(np.array([0.0, 0.1, 0.15]), np.zeros(3), np.zeros(3))


def _elementwise_spacing_verdict(times: np.ndarray) -> str | None:
    """What `Trajectory` said of these times when it took the largest
    interior deviation as max(|d[:-1] - step|): None to accept, or the
    refusal's message."""
    d = np.diff(times)
    if d.size == 0:
        return None
    if np.any(d <= 0.0):
        return "Trajectory: times must be strictly increasing"
    step = float(d[0])
    tol = 16.0 * math.ulp(max(abs(float(times[0])), abs(float(times[-1]))))
    if d.size >= 2 and np.max(np.abs(d[:-1] - step)) > tol:
        return "Trajectory: interior step is not constant"
    if float(d[-1]) > step * (1.0 + integrate._SLIVER) + tol:
        return "Trajectory: final step exceeds the interior step"
    return None


_UNEVEN_CASES = [
    [0.0, 0.1, 0.3],
    [0.0, 0.1, 0.3, 0.4],
    list(1e12 + np.array([0.0, 1.0, 1.5, 2.5, 3.0])),
    [0.0, 0.1, 0.15],
    [0.0, 0.2, 0.1],
]


@settings(max_examples=300)
@given(
    t0=st.floats(-1e6, 1e6),
    h=st.floats(1e-6, 10.0),
    nudges=st.lists(st.integers(-30, 30), min_size=1, max_size=12),
)
def test_spacing_verdicts_equal_the_elementwise_form(t0, h, nudges):
    """`_check_spacing` takes the largest interior deviation from the
    extremes of the steps, which rounds as the elementwise form does: on
    grids t0 + i*h with each sample moved by up to 30 ulps, and on the
    uneven cases above, both accept or refuse alike, with the same message."""
    times = t0 + np.arange(len(nudges) + 1) * h
    ulp = math.ulp(max(abs(float(times[0])), abs(float(times[-1]))))
    times[1:] += np.array(nudges) * ulp
    _assert_spacing_verdict(times)


@pytest.mark.parametrize("times", _UNEVEN_CASES)
def test_spacing_verdicts_on_the_uneven_cases_equal_the_elementwise_form(times):
    _assert_spacing_verdict(np.array(times))


def _assert_spacing_verdict(times: np.ndarray) -> None:
    want = _elementwise_spacing_verdict(times)
    zeros = np.zeros(len(times))
    if want is None:
        Trajectory(times, zeros, zeros)
    else:
        with pytest.raises(ValueError, match=re.escape(want)):
            Trajectory(times, zeros, zeros)


@pytest.mark.parametrize("failure_step", [None, 3])
def test_trajectory_status_follows_failure_step(failure_step):
    """A diverged run's failure_step is the index of its rejected step, one
    past the last accepted sample, so it equals the sample count; status
    and diverged are read from it."""
    t, ok = np.array([0.0, 0.1, 0.2]), np.zeros(3)
    traj = Trajectory(t, ok, ok, failure_step=failure_step)
    diverged = failure_step is not None
    assert (traj.status, traj.diverged) == ("diverged" if diverged else "ok", diverged)
    assert traj.record["status"] == traj.status
    for wrong in (1, 4):
        with pytest.raises(ValueError, match="failure_step must be None or the sample count 3"):
            Trajectory(t, ok, ok, failure_step=wrong)


@pytest.mark.parametrize("fused", [True, False])
def test_simulate_merges_a_sliver_remainder_into_the_last_step(fused):
    """A remainder of under 1e-9 of a step is no step of its own: the last
    whole step ends on t_f, 7.4e-11 later than t0 + 2*h. The trajectory
    used to refuse that final step as longer than the interior one."""
    spec = ControllerSpec(ControllerVariant.PROPOSED, omega=1.0)
    rhs, _ = closed_loop(PlantParams(0.0, -1.0), spec)
    h = 0.07421875
    t_f = (2 + 1e-9) * h
    run = rhs if fused else (lambda s, t: rhs(s, t))
    traj = simulate(run, (-1.0, -1.0), 0.0, t_f, h, Method.EULER)
    times, ys, ks, _, failure = _reference_simulate(run, (-1.0, -1.0), 0.0, t_f, h, Method.EULER)
    assert (traj.status, failure) == ("ok", None)
    assert traj.times.tolist() == times == [0.0, h, t_f]
    assert (traj.ys.tolist(), traj.ks.tolist()) == (ys, ks)
    with pytest.raises(ValueError, match="final step"):
        Trajectory(np.array([0.0, 0.1, 0.2 + 1e-9]), np.zeros(3), np.zeros(3))


def test_simulate_merges_a_remainder_that_rounds_away_at_t_f():
    """Near 1e12 the floats are 1.2e-4 apart. Ten steps of 1 - 1e-9 leave
    1e-8 to t_f, more than a sliver, but t0 + 10*h rounds onto t_f, so the
    remainder is merged into the last step as a sliver is. The run used to
    take a step of length 0 and then fail to build its Trajectory."""
    t0, h = 1e12, 1.0 - 1e-9
    traj = simulate(lambda s, t: (0.0, 1.0), (0.0, 0.0), t0, t0 + 10.0, h, Method.EULER)
    assert traj.status == "ok"
    assert traj.times.tolist() == [t0 + i * h for i in range(11)]
    assert traj.times[-1] == t0 + 10.0


@pytest.mark.parametrize("t0", [3.0, 1e16, -1e16, -4.5e15])
def test_simulate_refuses_a_step_under_8_ulps_of_its_times(t0):
    """Rounding i*h and then t0 + i*h moves a sample at most 3 ulps of the
    larger end: a step of 8 ulps runs with strictly increasing times, and
    one just under it is refused before the field is called."""
    calls = []

    def rhs(s, t):
        calls.append(t)
        return (0.0, 0.0)

    t_f = t0 + 64 * math.ulp(t0)
    least = 8.0 * math.ulp(max(abs(t0), abs(t_f)))
    traj = simulate(rhs, (1.0, 0.0), t0, t_f, least, Method.EULER)
    assert traj.status == "ok" and traj.times[-1] == t_f
    assert np.all(np.diff(traj.times) > 0.0)
    calls.clear()
    with pytest.raises(ValueError, match="under 8 ulps"):
        simulate(rhs, (1.0, 0.0), t0, t_f, math.nextafter(least, 0.0), Method.EULER)
    assert calls == []


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    method=st.sampled_from(list(Method)),
    t0=st.one_of(st.just(0.0), _signed_decades(-3.0, 17.0)),
    span=st.one_of(st.just(0.0), st.floats(-20.0, 17.0).map(lambda e: 10.0**e)),
    n=st.integers(1, 300),
    frac=st.floats(0.0, 1.0, exclude_max=True),
)
# h = 1 where the floats are 2 apart: t0 + h rounds back onto t0
@example(Method.EULER, 1e16, 4.0, 4, 0.0)
# the last whole step rounds onto t_f with 1e-8 still to go
@example(Method.EULER, 1e12, 10.0, 10, 1e-8)
def test_simulate_times_strictly_increase_or_the_step_is_refused(method, t0, span, n, frac):
    """From any start up to 1e17 in size, over any span, at about n + frac
    steps per span: simulate raises ValueError before the field is called
    once, or returns times that strictly increase from t0 to t_f."""
    calls = []

    def rhs(s, t):
        calls.append(t)
        return (0.0, 0.0)

    t_f = t0 + span
    h = span / (n + frac) if span else 1.0
    try:
        traj = simulate(rhs, (1.0, 0.0), t0, t_f, h, method)
    except ValueError:
        assert calls == []
        return
    assert traj.status == "ok"
    assert (traj.times[0], traj.times[-1]) == (t0, t_f)
    assert np.all(np.diff(traj.times) > 0.0)


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
     1e-5, 1e-4, 0.0001, 9.999999999999999e-05, 1e-9, -1e-9, 9.999999999999999e-10,
     1.0000000000000003e-09, math.inf, -math.inf, math.nan]
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


def test_csv_writer_copies_non_contiguous_columns(tmp_path):
    """orjson refuses a strided array, so a column view is copied first."""
    table = np.arange(24.0).reshape(8, 3) * 1e-5
    columns = [table[:, 0], table[::-1, 1], table[:, 2]]
    assert not columns[0].flags.c_contiguous
    header = ("t", "y", "k", "u")
    path = _write_csv(tmp_path / "cols.csv", header, columns)
    assert path.read_bytes() == _row_wise_csv(header, columns)


def test_csv_writer_refuses_unequal_columns(tmp_path):
    """Columns of unequal length used to be cut silently to the shortest."""
    with pytest.raises(ValueError, match=r"differ in length: \[3, 2\]"):
        _write_csv(tmp_path / "cols.csv", ("t", "y"), [[0.0, 1.0, 2.0], [0.0, 1.0]])
    assert not (tmp_path / "cols.csv").exists()


@settings(max_examples=500)
@given(st.lists(st.floats(), min_size=1, max_size=40))
@example([0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e16, math.inf, -math.inf, math.nan])
def test_csv_cells_equal_repr(values):
    """Subnormals, signed zeros, infinities and nan included."""
    assert integrate._repr_cells(np.array(values)) == list(map(repr, values))


def test_csv_cells_at_the_tier_bounds_equal_repr(tmp_path):
    """`_repr_cells` rewrites orjson's cells in tiers bounded at 1e-9, 1e-5,
    1e-4 and 1e16. A cell exactly at a bound of either sign, and at the float
    on either side of it, is written byte for byte as `repr` writes it."""
    values = [
        v
        for bound in (1e-9, 1e-5, 1e-4, 1e16)
        for x in (bound, -bound)
        for v in (math.nextafter(x, 0.0), x, math.nextafter(x, math.copysign(math.inf, x)))
    ]
    path = _write_csv(tmp_path / "bounds.csv", ("x",), [values])
    assert path.read_bytes() == ("x\n" + "".join(f"{v!r}\n" for v in values)).encode()


@pytest.mark.parametrize(
    "cell, want",
    [
        ("2.5e-7", "2.5e-07"),
        ("1e16", "1e+16"),
        ("-5e-324", "-5e-324"),
        ("0.000012345", "1.2345e-05"),
        ("-0.00001", "-1e-05"),
        ("null", "nan"),
        # Spellings a newer orjson could write come out the same.
        ("2.5e-07", "2.5e-07"),
        ("0.00000025", "2.5e-07"),
        ("1.2345e-5", "1.2345e-05"),
        ("-1.2345e-05", "-1.2345e-05"),
        ("1e+16", "1e+16"),
    ],
)
def test_exponent_form(monkeypatch, cell, want):
    """A cell orjson writes as `cell` comes out of `_repr_cells` as `repr`
    writes its float, `want`."""
    import orjson

    monkeypatch.setattr(orjson, "dumps", lambda column, option: f"[{cell}]".encode())
    assert integrate._repr_cells(np.array([float(want)])) == [want]


# Where repr switches between positional and exponent layout, where the
# cells orjson already writes as repr begin (1e-9), and the extremes.
_REPR_BOUNDARIES = np.array(
    [9.999999999999999e-05, 1e-4, 1e-5, -1e-5, 1e-9, -1e-9, 9.999999999999999e-10,
     1.0000000000000003e-09, 5e-324, 9.999999999999999e15, 1e16,
     1.7976931348623157e308, -1.7976931348623157e308]
)


def test_csv_cells_equal_repr_on_random_bit_patterns():
    """About 10**6 random float64 bit patterns, which reach every exponent,
    subnormals and nan payloads, plus the boundaries and their neighbours."""
    bits = np.random.default_rng(18).integers(0, 2**64, size=10**6, dtype=np.uint64)
    # Stepping away from zero past the largest float gives inf, one more cell.
    with np.errstate(over="ignore"):
        outward = np.nextafter(_REPR_BOUNDARIES, np.copysign(np.inf, _REPR_BOUNDARIES))
    column = np.concatenate(
        [bits.view(np.float64), _REPR_BOUNDARIES, np.nextafter(_REPR_BOUNDARIES, 0.0), outward]
    )
    assert integrate._repr_cells(column) == list(map(repr, column.tolist()))


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
        assert chen_fliess_step(PLANT, State(0.0, 2.5), 0.05, order) == State(0.0, 2.5)


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
)
# A power overflows: y**5 at order 3.
@example(10.0, -2.0, 1e70, 0.5, 400.0, 1, 3)
# A monomial is infinite, so the new state is not finite.
@example(10.0, -2.0, 1e50, 1e70, 400.0, 1, 3)
# The y sum fails ("-inf + inf") and a k power overflows: every power is
# taken before either sum, so OverflowError is what is raised.
@example(
    -0.9184956268595643, -0.35180115078460816, -2.1401178526322307e78,
    -1.106289012141867e77, 2973.682025412213, 3, 2,
)
# A bound constant, -3/2 * b**2, is -inf: the new state is not finite.
@example(10.0, 1.2742749857031426e154, 1e-200, 0.0, math.tau / 0.1, 1, 2)
def test_chen_fliess_step_equals_fraction_reference(a, b, y0, k0, omega, periods, order):
    """The float form of the table gives the state the Fraction-evaluating
    reference gives, bit for bit, or raises the same exception type. Starts
    reach 1e80 so that powers overflow and sums fail."""
    args = (PlantParams(a, b), State(y0, k0), math.tau * periods / omega, order)
    assert _step_outcome(chen_fliess_step, *args, periods=periods) == _step_outcome(
        reference_chen_fliess_step, *args, periods=periods
    )


def _reference_run(p, s0, omega, periods, n, order):
    """A loop over the reference step with the series divergence rule: a
    step that raises, or leaves |y| or |k| above 1e9, ends the run."""
    T = math.tau * periods / omega
    ys, ks = [s0.y], [s0.k]
    for i in range(n):
        try:
            s = reference_chen_fliess_step(p, State(ys[-1], ks[-1]), T, order, periods=periods)
        except (OverflowError, ValueError):
            return ys, ks, "diverged", i + 1
        if not (abs(s.y) <= 1e9 and abs(s.k) <= 1e9):
            return ys, ks, "diverged", i + 1
        ys.append(s.y)
        ks.append(s.k)
    return ys, ks, "ok", None


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(-5.0, 5.0),
    b=st.one_of(_signed_decades(-1.0, 0.7), _signed_decades(0.7, 200.0)),
    y0=_signed_decades(-3.0, 10.0),
    k0=_signed_decades(-3.0, 10.0),
    omega=st.floats(10.0, 3000.0),
    periods=st.integers(1, 3),
    n=st.integers(0, 60),
    order=st.integers(0, 3),
)
# b**2 overflows while the run's constants are bound: step 1 is rejected.
@example(1.0, 1e200, 0.5, 0.5, 400.0, 1, 5, 3)
# A bound constant, -3/2 * b**2, is -inf: step 1 is rejected.
@example(10.0, 1.2742749857031426e154, 1e-200, 0.0, math.tau / 0.1, 1, 5, 2)
def test_chen_fliess_simulate_equals_a_loop_over_the_reference_step(
    a, b, y0, k0, omega, periods, n, order
):
    """Sample for sample, bit for bit, and in where and whether it diverges,
    a series run is a loop over the Fraction-evaluating reference step. b
    reaches 1e200, where binding the run's constants overflows."""
    p = PlantParams(a, b)
    traj = chen_fliess_simulate(p, State(y0, k0), omega, periods, n, order)
    ys, ks, status, failure_step = _reference_run(p, State(y0, k0), omega, periods, n, order)
    assert (traj.status, traj.failure_step) == (status, failure_step)
    assert traj.ys.tobytes() == np.array(ys).tobytes()
    assert traj.ks.tobytes() == np.array(ks).tobytes()


@pytest.mark.parametrize(
    "s0, n",
    [
        (State(1.0, 0.0), 7),  # exactly one block
        (State(1.0, 0.0), 8),  # one block and one step
        (State(1.0, 0.0), 15),  # two blocks and one step
        (State(1.0, -160.0), 50),  # diverges at step 9; see the block sizes below
    ],
)
def test_series_runs_across_blocks_equal_a_loop_over_the_reference_step(s0, n):
    """With blocks of 7 steps, and for a diverging run also with blocks one
    step shorter than its accepted steps, so that the rejected step is the
    first of the second block, a series run is the reference loop bit for
    bit; a diverged run holds arrays of its own."""
    ys, ks, status, failure_step = _reference_run(PLANT, s0, 400.0, 1, n, 2)
    blocks = [_SMALL_BLOCK] if failure_step is None else [_SMALL_BLOCK, failure_step - 1]
    for block in blocks:
        with mock.patch.object(integrate, "_MARCH_BLOCK_STEPS", block):
            traj = chen_fliess_simulate(PLANT, s0, 400.0, 1, n, 2)
        assert (traj.status, traj.failure_step) == (status, failure_step)
        assert traj.ys.tobytes() == np.array(ys).tobytes()
        assert traj.ks.tobytes() == np.array(ks).tobytes()
        if traj.diverged:
            assert traj.ys.base is None and traj.ks.base is None and traj.times.base is None


@pytest.mark.parametrize("order", [True, 1.0])
def test_series_memo_keeps_equal_orders_of_other_types_apart(order):
    """True == 1 and 1.0 == 1 hash alike; with order 1 already bound for the
    same run constants, they are still refused."""
    T = 0.1
    chen_fliess_step(PLANT, State(1.0, 0.0), T, 1)
    chen_fliess_simulate(PLANT, State(1.0, 0.0), math.tau / T, 1, 5, 1)
    message = r"order must be 0, 1, 2, or 3 \(got "
    with pytest.raises(ValueError, match=message):
        chen_fliess_step(PLANT, State(1.0, 0.0), T, order)
    with pytest.raises(ValueError, match=message):
        chen_fliess_simulate(PLANT, State(1.0, 0.0), math.tau / T, 1, 5, order)
    with pytest.raises(ValueError, match=message):
        integrate._bound_terms(PLANT.b, T, 1, order)


@pytest.mark.parametrize(
    "s0, order, n_calls",
    [((1e8, 0.0), 0, 16), ((1e70, 0.5), 3, 1), ((0.7, -0.3), 3, 50)],
    ids=["order0-past-bound", "order3-raises", "order3-ok"],
)
def test_chen_fliess_simulate_calls_the_module_step_once_per_attempted_step(
    monkeypatch, s0, order, n_calls
):
    """A series run calls the module global `integrate.chen_fliess_step`
    once per attempted step, the rejected step included, with the order
    as its fourth argument, so a wrapper of that global sees every step."""
    orders = []
    step = integrate.chen_fliess_step

    def counting(*args, **kwargs):
        orders.append(args[3])
        return step(*args, **kwargs)

    monkeypatch.setattr(integrate, "chen_fliess_step", counting)
    traj = chen_fliess_simulate(PLANT, s0, 400.0, 1, 50, order)
    assert orders == [order] * n_calls
    assert len(traj) - 1 + traj.diverged == n_calls


def test_chen_fliess_step_refuses_periods_past_the_largest_float():
    """2*pi*periods is refused before binding, not left to overflow."""
    with pytest.raises(ValueError, match="chen_fliess_step: periods is too large"):
        chen_fliess_step(PLANT, (1.0, 0.0), 0.1, 1, periods=10**400)


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


@pytest.mark.parametrize(
    "s0",
    [(1e50, 1e70), (1e70, 0.5)],
    ids=["non-finite-sum", "power-overflow"],
)
def test_chen_fliess_simulate_rejects_a_step_that_raises(s0):
    """A step whose sum is not finite (ValueError) or whose power overflows
    (OverflowError) is the first rejected step, not an escaping error."""
    traj = chen_fliess_simulate(PlantParams(10.0, -2.0), s0, 400.0, 1, 5, 3)
    assert traj.status == "diverged"
    assert traj.failure_step == 1
    assert len(traj) == 1


@pytest.mark.parametrize(
    "omega, periods, n_steps",
    [
        (1e-320, 1, 3),
        (1e-320, 1, 0),
        (1e-300, 1, 10**10),
        (400.0, 10**400, 3),
        (400.0, 1, 10**400),
    ],
    ids=[
        "infinite-step",
        "infinite-step-no-steps",
        "infinite-span",
        "periods-past-float",
        "steps-past-float",
    ],
)
def test_chen_fliess_simulate_refuses_a_non_finite_span(omega, periods, n_steps):
    """A step T = 2*pi*periods/omega or a span n_steps * T past the largest
    float is refused before the first step, also where an integer argument
    is itself too large to convert to a float."""
    with pytest.raises(ValueError, match="chen_fliess_simulate: .* must be finite"):
        chen_fliess_simulate(PLANT, (1.0, 0.0), omega, periods, n_steps, 1)


def test_value_error_from_a_field_reaches_the_caller():
    """Euler and RK4 catch only OverflowError, so a field's ValueError
    reaches the caller, from a plain callable (the polar field at r = 0)
    and from an inlined field (a gain shape refusing k < 0). A series step
    that raises ValueError ends its run instead; see
    test_chen_fliess_simulate_rejects_a_step_that_raises."""
    polar = polar_closed_loop(PLANT, 40.0)
    spec = ControllerSpec(ControllerVariant.NUSSBAUM, nussbaum_fn=math.sqrt)
    sqrt_gain, _ = closed_loop(PLANT, spec)
    for rhs, s0 in ((polar, (0.0, 1.0)), (_refusing(sqrt_gain), (1.0, -1.0))):
        for method in Method:
            with pytest.raises(ValueError, match="undefined|domain"):
                simulate(rhs, s0, 0.0, 1.0, 0.1, method)


@pytest.mark.parametrize("t0, t_f", [(math.inf, 1.0), (0.0, math.nan)])
def test_simulate_refuses_a_non_finite_horizon(t0, t_f):
    with pytest.raises(ValueError, match="simulate: t0 and t_f must be finite"):
        simulate(lie_bracket_loop(PLANT), (1.0, 0.0), t0, t_f, 0.1)


def test_simulate_refuses_a_method_of_another_type():
    with pytest.raises(ValueError, match="simulate: method must be a Method or its name"):
        simulate(lie_bracket_loop(PLANT), (1.0, 0.0), 0.0, 1.0, 0.1, 3)


def test_chen_fliess_simulate_validation():
    with pytest.raises(ValueError):
        chen_fliess_simulate(PLANT, State(1.0, 0.0), 0.0, 1, 5, 1)
    with pytest.raises(ValueError):
        chen_fliess_simulate(PLANT, State(1.0, 0.0), 400.0, 0, 5, 1)
    with pytest.raises(ValueError):
        chen_fliess_simulate(PLANT, State(1.0, 0.0), 400.0, 1, -1, 1)
    with pytest.raises(ValueError, match="order"):
        chen_fliess_simulate(PLANT, State(1.0, 0.0), 400.0, 1, 5, 5)


# -- forked lanes -------------------------------------------------------------------


def _assert_no_child_left():
    """Every child this process made has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def lanes(monkeypatch):
    """Set the CPU count `_fork_map` reads, and so its lane count."""

    def pin(n: int) -> None:
        monkeypatch.setattr(integrate, "_cpu_count", lambda: n)

    return pin


class _TwoArgError(Exception):
    """Pickles by its one message, which its __init__ does not take alone."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")


@pytest.mark.parametrize(
    "costs, n_lanes, want",
    [
        ([1.0, 2.0, 3.0, 4.0], 1, [[0, 1, 2, 3]]),
        # 6 and 5 open the lanes, then each item joins the lighter one.
        ([6.0, 1.0, 5.0, 2.0, 3.0], 2, [[0, 1, 3], [2, 4]]),
        ([1.0, 1.0, 1.0, 1.0, 10.0], 2, [[4], [0, 1, 2, 3]]),
        # Zero costs still give every lane an item.
        ([0.0, 0.0, 0.0], 3, [[0], [1], [2]]),
    ],
)
def test_lanes_take_the_longest_cost_first(costs, n_lanes, want):
    assert integrate._lanes(costs, n_lanes) == want


@pytest.mark.parametrize("n_lanes", [1, 2, 3])
def test_fork_map_returns_the_loop_results_in_input_order(lanes, n_lanes):
    """fn is a closure, which need not pickle; its results come back in
    input order whatever lane ran them."""
    lanes(n_lanes)
    items = [3.0, -1.5, 0.25, 7.0, 2.0]
    offset = 0.5
    got = integrate._fork_map(lambda x: (x, x * x + offset), items, [1.0, 9.0, 4.0, 2.0, 5.0])
    assert got == [(x, x * x + offset) for x in items]
    _assert_no_child_left()


@pytest.mark.parametrize("n_lanes", [2, 3])
@pytest.mark.parametrize("failing", [{3, 4}, {4}, {2, 3}, {1, 4}])
def test_fork_map_raises_the_exception_of_the_lowest_failing_index(lanes, n_lanes, failing):
    """With costs that put item 4 in this process's lane and items 0-3 in
    the forked ones, the exception raised is the one the loop raises."""
    lanes(n_lanes)

    def fn(i):
        if i in failing:
            raise ValueError(f"item {i}")
        return i

    items, costs = list(range(5)), [1.0, 1.0, 1.0, 1.0, 10.0]
    assert integrate._lanes(costs, n_lanes)[0] == [4]
    with pytest.raises(ValueError) as serial:
        [fn(i) for i in items]
    with pytest.raises(ValueError) as forked:
        integrate._fork_map(fn, items, costs)
    assert str(forked.value) == str(serial.value) == f"item {min(failing)}"
    _assert_no_child_left()


def test_fork_map_sends_an_exception_that_does_not_pickle_as_a_runtime_error(lanes):
    lanes(2)

    class LocalError(Exception):
        pass

    def fn(x):
        if x == "local":
            raise LocalError("no pickling a local class")
        if x == "two-arg":
            raise _TwoArgError("plant.b", "must be nonzero")
        return x

    for item in ("local", "two-arg"):
        # The failing item is the cheap one, so a forked lane runs it.
        with pytest.raises(RuntimeError) as caught:
            integrate._fork_map(fn, ["here", item], [2.0, 1.0])
        name = "LocalError" if item == "local" else "_TwoArgError"
        assert re.search(rf"\b{name} in a forked lane: ", str(caught.value))
        _assert_no_child_left()


def test_fork_map_reports_a_lane_that_sends_no_results(lanes):
    """A child that dies before writing its results (here it exits at once)
    is an error, not an empty result."""
    lanes(2)

    def fn(x):
        if x == "die":
            os._exit(3)
        return x

    with pytest.raises(RuntimeError, match="a forked lane ended without sending its results"):
        integrate._fork_map(fn, ["here", "die"], [2.0, 1.0])
    _assert_no_child_left()


def test_fork_map_kills_and_reaps_its_children_when_interrupted(lanes):
    """An interrupt in this process's lane does not wait for a child that is
    still running: the child is killed and reaped."""
    lanes(2)

    def fn(x):
        if x == "interrupt":
            raise KeyboardInterrupt
        time.sleep(60.0)
        return x

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        integrate._fork_map(fn, ["sleep", "interrupt"], [1.0, 2.0])
    assert time.monotonic() - start < 30.0
    _assert_no_child_left()


def test_fork_map_with_one_lane_is_the_loop(lanes):
    """One lane forks nothing: fn's effects stay in this process."""
    lanes(1)
    seen = []
    assert integrate._fork_map(seen.append, [1, 2, 3], [3.0, 2.0, 1.0]) == [None] * 3
    assert seen == [1, 2, 3]
