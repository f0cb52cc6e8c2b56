"""Unit tests for the averaging machinery.

The interaction-coefficient value -1/2 for the (sin, cos) pair at unit
exponent sum is the analytic anchor; everything else is checked against
finite-difference oracles or deliberately broken inputs.
"""

from __future__ import annotations

import json
import math
import operator
import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import cumulative_simpson, simpson

from dithersim import (
    AffineSystem,
    DitherSignal,
    PlantParams,
    QuadratureError,
    State,
    build_averaged_rhs,
    fd_jacobian,
    gamma_coefficient,
    lie_bracket,
    lie_bracket_rhs,
    proposed_design_system,
    swapped_design_system,
    check_assumptions,
)
from dithersim import averaging, dynamics
from dithersim.averaging import _cumulative_simpson, _matvec, _norm, _simpson
from dithersim.dynamics import _LAW_SOURCE, ControllerVariant, FusedField

from audit_reference import reference_check_assumptions

PLANT = PlantParams(10.0, -2.0)
SINE = DitherSignal.sine()
COSINE = DitherSignal.cosine()


# -- interaction coefficients ----------------------------------------------------


def test_gamma_sin_cos_is_minus_half():
    for omega in (1.0, 400.0):
        assert abs(gamma_coefficient(SINE, COSINE, omega) - (-0.5)) <= 1e-8


def test_gamma_swapped_order_is_plus_half():
    assert abs(gamma_coefficient(COSINE, SINE, 1.0) - 0.5) <= 1e-8


def test_gamma_antisymmetry():
    g12 = gamma_coefficient(SINE, COSINE, 1.0)
    g21 = gamma_coefficient(COSINE, SINE, 1.0)
    assert abs(g12 + g21) <= 1e-8


def test_gamma_equal_signals_vanish():
    g1 = gamma_coefficient(SINE, SINE, 1.0)
    g400 = gamma_coefficient(SINE, SINE, 400.0)
    assert abs(g1) <= 1e-8
    assert abs(g1 - g400) <= 1e-8


def test_gamma_rejects_bad_omega():
    with pytest.raises(ValueError):
        gamma_coefficient(SINE, COSINE, 0.0)
    with pytest.raises(ValueError):
        gamma_coefficient(SINE, COSINE, -3.0)


@pytest.mark.parametrize("omega", [1e308, 1e-300])
def test_gamma_refuses_a_non_finite_integral(omega):
    """At these frequencies the period or the integrand's scale leaves the
    floats; the coefficient is refused, not returned as NaN."""
    with pytest.raises(QuadratureError, match="not finite"):
        gamma_coefficient(SINE, COSINE, omega)


def test_gamma_refuses_a_scale_that_overflows():
    """Exponents summing to 1.9 take omega**1.9 past the floats at 1e308,
    though the period and the integral stay finite."""
    loud_sine = DitherSignal.sine(exponent=0.95)
    loud_cosine = DitherSignal.cosine(exponent=0.95)
    with pytest.raises(QuadratureError, match="not finite"):
        gamma_coefficient(loud_sine, loud_cosine, 1e308)


def test_gamma_reports_non_convergent_quadrature():
    """A square-wave outer dither is discontinuous, so Simpson's rule loses
    its fourth order and the error estimate, 1.364e-04, must be refused
    loudly."""
    square = DitherSignal(lambda ph: np.sign(np.sin(ph)))
    with pytest.raises(QuadratureError, match="estimated relative error 1.364e-04"):
        gamma_coefficient(SINE, square, 1.0)


def test_gamma_rational_frequency_multiplier():
    """A freq-2 channel against freq-1 shares the period of the slower one."""
    fast = DitherSignal(np.sin, freq=2)
    g = gamma_coefficient(fast, COSINE, 1.0)
    assert math.isfinite(g)


# -- Simpson rules ------------------------------------------------------------------

_SAMPLES = arrays(
    np.float64,
    st.integers(3, 400),
    elements=st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False),
)
_STEPS = st.floats(1e-6, 1e6)
_SIGNED_ZEROS = np.array([-0.0, -0.0, 0.0, -0.0, -0.0, 0.0, -0.0])


@settings(max_examples=300)
@given(_SAMPLES, _STEPS)
@example(_SIGNED_ZEROS, 0.5)
@example(-np.abs(_SIGNED_ZEROS), 1.0)
def test_simpson_rules_equal_scipy_bit_for_bit(y, dx):
    """Both numpy rules repeat scipy's equal-spacing arithmetic exactly,
    signed zeros included; `_simpson` takes the odd-count prefix."""
    odd = y[: len(y) - 1 + len(y) % 2]
    got = np.float64(_simpson(odd, dx))
    assert got.tobytes() == np.float64(simpson(odd, dx=dx)).tobytes()
    got = _cumulative_simpson(y, dx)
    assert got.tobytes() == cumulative_simpson(y, dx=dx, initial=0.0).tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 4, 10])
def test_simpson_rules_refuse_short_or_even_input(n):
    y = np.ones(n)
    with pytest.raises(ValueError, match="odd number of samples"):
        _simpson(y, 1.0)
    if n < 3:
        with pytest.raises(ValueError, match="at least 3 samples"):
            _cumulative_simpson(y, 1.0)


# -- dither-signal validation ----------------------------------------------------


def test_dither_signal_validation():
    with pytest.raises(ValueError):
        DitherSignal(np.sin, freq=0)
    with pytest.raises(ValueError):
        DitherSignal(np.sin, exponent=0.0)
    with pytest.raises(ValueError):
        DitherSignal(np.sin, exponent=1.0)


@pytest.mark.parametrize("freq", [0, -1, 0.5, 2.0, 1.0001, Fraction(1, 2), True, "2"], ids=repr)
def test_non_integer_or_non_positive_freq_is_refused(freq):
    """A multiplier must be a positive integer; anything else is refused at
    construction, before a quadrature grid is allocated. 1.0001 as the
    rational 10001/10000 once made each gamma quadrature span 40,960,000
    panels."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="freq must be a positive integer"):
            DitherSignal(np.sin, freq=freq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert DitherSignal(np.sin, freq=2).freq == 2


def test_affine_system_requires_matching_counts():
    sys = proposed_design_system(PLANT)
    with pytest.raises(ValueError):
        AffineSystem(sys.drift, sys.fields, (SINE,))


# -- finite-difference geometry ----------------------------------------------------


def test_fd_jacobian_on_polynomial_map():
    def f(x, t):
        return np.array([x[0] * x[0] * x[1], x[0] + 3.0 * x[1] * x[1]])

    x = np.array([1.5, -2.0])
    got = fd_jacobian(f, x, 0.0)
    expected = np.array([[2.0 * 1.5 * -2.0, 1.5**2], [1.0, 6.0 * -2.0]])
    np.testing.assert_allclose(got, expected, rtol=1e-8, atol=1e-8)


def test_lie_bracket_frozen_value():
    # [f1, f2] = (0, -2*b*x0^2) for these fields; b=-2, x0=3 gives 36
    b = -2.0

    def f1(x, t):
        return np.array([-b * x[0], 0.0])

    def f2(x, t):
        return np.array([0.0, x[0] * x[0]])

    got = lie_bracket(f1, f2, np.array([3.0, 7.0]), 0.0)
    np.testing.assert_allclose(got, [0.0, 36.0], rtol=1e-7, atol=1e-7)


def test_lie_bracket_self_vanishes():
    sys = proposed_design_system(PLANT)
    rng = np.random.default_rng(17)
    for f in (sys.drift, *sys.fields):
        x = rng.uniform(-3.0, 3.0, size=2)
        np.testing.assert_allclose(lie_bracket(f, f, x, 0.0), [0.0, 0.0], atol=1e-8)


def test_lie_bracket_bilinearity():
    sys = proposed_design_system(PLANT)
    f1, f2 = sys.fields
    rng = np.random.default_rng(29)
    for alpha in (2.0, -3.0):

        def scaled(x, t, a=alpha):
            return a * f1(x, t)

        for _ in range(5):
            x = rng.uniform(-3.0, 3.0, size=2)
            lhs = lie_bracket(scaled, f2, x, 0.0)
            rhs = alpha * lie_bracket(f1, f2, x, 0.0)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-5)


_ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)


@st.composite
def _matrix_and_vector(draw):
    """m (..., dim, dim) and v (..., dim) with dim 2 or 3 and up to two
    batch axes, entries including inf, NaN and signed zeros."""
    dim = draw(st.sampled_from([2, 3]))
    batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    m = draw(arrays(np.float64, batch + (dim, dim), elements=_ENTRIES))
    v = draw(arrays(np.float64, batch + (dim,), elements=_ENTRIES))
    return m, v


def _left_sum(terms):
    """Sum of Python floats from the first term on, left to right."""
    return reduce(operator.add, terms)


def _assert_same_bits(got, want):
    """Equal bytes wherever want is a number (signed zeros and infinities
    included) and NaN exactly where want is NaN; a NaN's payload is not a
    value and is not compared."""
    got = np.asarray(got)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()


@given(_matrix_and_vector())
@example((np.full((2, 2), -0.0), np.array([1.0, -0.0])))
@example((np.array([[math.inf, 1.0], [0.0, -0.0]]), np.array([0.0, -math.inf])))
def test_products_and_norms_are_left_to_right_float_sums(mv):
    """`_matvec` and `_norm` give, bit for bit, the left-to-right sums of
    Python floats, on 2x2 and 3x3 blocks with any leading batch shape."""
    m, v = mv
    batch = m.shape[:-2]
    want_mv = np.empty(batch + m.shape[-1:])
    want_m = np.empty(batch)
    want_v = np.empty(batch)
    for idx in np.ndindex(*batch):
        rows, vec = m[idx].tolist(), v[idx].tolist()
        want_mv[idx] = [_left_sum(map(operator.mul, row, vec)) for row in rows]
        want_m[idx] = math.sqrt(_left_sum(c * c for row in rows for c in row))
        want_v[idx] = math.sqrt(_left_sum(c * c for c in vec))
    with np.errstate(all="ignore"):
        _assert_same_bits(_matvec(m, v), want_mv)
        _assert_same_bits(_norm(m, 2), want_m)
        _assert_same_bits(_norm(v), want_v)


# -- averaged right-hand side -------------------------------------------------------


def test_averaged_rhs_matches_closed_form_both_designs():
    """The numeric average reproduces (a-bk)y, by^2 for either design."""
    rng = np.random.default_rng(41)
    for build in (proposed_design_system, swapped_design_system):
        avg = build_averaged_rhs(build(PLANT))
        for _ in range(10):
            y, k = rng.uniform(-5.0, 5.0, size=2)
            want = lie_bracket_rhs(PLANT, State(float(y), float(k)))
            got = avg(np.array([y, k]), 0.0)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(-10.0, 10.0),
    b=st.floats(0.1, 4.0) | st.floats(-4.0, -0.1),
    states=arrays(float, st.tuples(st.integers(1, 8), st.just(2)), elements=st.floats(-5.0, 5.0)),
    t=st.floats(-5.0, 5.0),
)
@example(a=10.0, b=-2.0, states=np.array([[-3.0, -3.0], [0.5, 3.0], [3.0, 0.0]]), t=0.3)
def test_averaged_rhs_same_for_both_designs_on_a_grid(a, b, states, t):
    """Both dither designs share one average: for any plant, their numeric
    averaged fields agree at any states and time to finite-difference
    accuracy. On 3,000 random plants drawn as here, the gap stayed below
    4e-11 of 1 + |field|."""
    p = PlantParams(a, b)
    proposed = build_averaged_rhs(proposed_design_system(p))(states, t)
    swapped = build_averaged_rhs(swapped_design_system(p))(states, t)
    np.testing.assert_allclose(proposed, swapped, rtol=1e-10, atol=1e-10)


def test_averaged_rhs_single_field_is_drift():
    sys = proposed_design_system(PLANT)
    single = AffineSystem(sys.drift, (sys.fields[0],), (SINE,))
    avg = build_averaged_rhs(single)
    x = np.array([1.2, -0.7])
    np.testing.assert_allclose(avg(x, 0.0), sys.drift(x, 0.0), rtol=0, atol=0)


def test_averaged_rhs_identical_fields_cancel():
    def zero_drift(x, t):
        return np.zeros(2)

    def f(x, t):
        return np.array([x[0], x[0] * x[1]])

    sys = AffineSystem(zero_drift, (f, f), (SINE, COSINE))
    avg = build_averaged_rhs(sys)
    np.testing.assert_allclose(avg(np.array([2.0, 3.0]), 0.0), [0.0, 0.0], atol=1e-8)


def test_averaged_rhs_refuses_frequency_dependent_pairs():
    sys = proposed_design_system(PLANT)
    bad = AffineSystem(
        sys.drift,
        sys.fields,
        (DitherSignal(np.sin, exponent=0.3), COSINE),
    )
    with pytest.raises(ValueError, match="frequency-dependent"):
        build_averaged_rhs(bad)


# -- assumption checks ----------------------------------------------------------------


def test_assumption_report_passes_for_proposed_design(proposed_assumption_report):
    report = proposed_assumption_report
    assert report.passed
    assert report.a1_passed and report.a2_passed and report.a3_passed
    for check in report.a1:
        assert check.sup <= 1.0 + 1e-9
        assert check.period_defect <= 1e-12
        assert abs(check.mean) <= 1e-9


def test_assumption_bound_regression_value(proposed_assumption_report):
    """Frozen at first validated run; analytically sqrt(112^2 + 16^2)."""
    report = proposed_assumption_report
    assert math.isclose(report.a2_bound, 113.13708638639062, rel_tol=1e-6)
    assert report.a2_witness["norm"] == "dx_lie"
    assert set(report.a2_witness) == {"norm", "i", "j", "x", "t"}


def test_assumption_a3_vacuous_for_unit_exponent_sum(proposed_assumption_report):
    for entry in proposed_assumption_report.a3_pairs:
        assert not entry["triggered"]
        assert entry["satisfied"]
        assert entry["reason"] == "vacuous"
    for entry in proposed_assumption_report.a3_triples:
        assert not entry["triggered"]
        assert entry["satisfied"]


def test_assumption_report_serializes(proposed_assumption_report):
    import json

    blob = json.dumps(proposed_assumption_report.to_dict())
    assert "a2_bound" in blob


def test_biased_dither_fails_zero_mean():
    sys = proposed_design_system(PLANT)
    biased = AffineSystem(
        sys.drift,
        sys.fields,
        (DitherSignal(lambda ph: np.sin(ph) + 0.5), COSINE),
    )
    report = check_assumptions(biased, ((-2.0, 2.0), (-2.0, 2.0)), grid=5, time_samples=3)
    assert not report.a1_passed
    assert not report.passed
    assert not report.a1[0].zero_mean
    assert math.isclose(report.a1[0].mean, 0.5, abs_tol=1e-3)


def test_oversized_dither_fails_bound():
    sys = proposed_design_system(PLANT)
    loud = AffineSystem(
        sys.drift,
        sys.fields,
        (DitherSignal(lambda ph: 1.5 * np.sin(ph)), COSINE),
    )
    report = check_assumptions(loud, ((-1.0, 1.0), (-1.0, 1.0)), grid=4, time_samples=2)
    assert not report.a1[0].bounded
    assert math.isclose(report.a1[0].sup, 1.5, rel_tol=1e-6)


def test_aperiodic_dither_fails_period_check():
    sys = proposed_design_system(PLANT)
    drifting = AffineSystem(
        sys.drift,
        sys.fields,
        (DitherSignal(lambda ph: np.sin(ph) + 1e-3 * ph), COSINE),
    )
    report = check_assumptions(drifting, ((-1.0, 1.0), (-1.0, 1.0)), grid=4, time_samples=2)
    assert not report.a1[0].periodic


def test_high_exponents_trigger_and_fail_a3():
    """Exponents 0.7 make the pair and triple conditions bite; the shipped
    fields violate both, and the report must say so."""
    sys = proposed_design_system(PLANT)
    hot = AffineSystem(
        sys.drift,
        sys.fields,
        (
            DitherSignal(np.sin, exponent=0.7),
            DitherSignal(np.cos, exponent=0.7),
        ),
    )
    report = check_assumptions(hot, ((-1.0, 1.0), (-1.0, 1.0)), grid=4, time_samples=2)
    assert not report.a3_passed
    assert any(e["triggered"] and not e["satisfied"] for e in report.a3_pairs)
    assert any(e["triggered"] and not e["satisfied"] for e in report.a3_triples)
    assert report.a1_passed


def test_a3_calls_each_field_once_per_role_and_triple_pair(monkeypatch):
    """With exponent-0.75 dithers both pairs and all 8 triples trigger.
    The two orders of the pair share one `lie_bracket` call. Each field is
    called 26 times on the 2-D states: 5 times in that bracket, once as
    the direction f_q of the triples, and in each of the two (i, j) whose
    triples share one moved point set, twice as f_i and 8 times as f_j (its
    Jacobian's four moves, at the two moved sets)."""
    base = proposed_design_system(PLANT)
    calls = [0, 0]
    brackets = []

    def counted_bracket(f, g, x, t):
        brackets.append((f, g))
        return lie_bracket(f, g, x, t)

    monkeypatch.setattr(averaging, "lie_bracket", counted_bracket)

    def counted(n, f):
        def field(x, t):
            calls[n] += 1
            return f(x, t)

        return field

    sys = AffineSystem(
        base.drift,
        [counted(n, f) for n, f in enumerate(base.fields)],
        (DitherSignal.sine(exponent=0.75), DitherSignal.cosine(exponent=0.75)),
    )
    coarse = np.array([[-1.0, 0.5], [0.25, -2.0], [1.5, 1.0]])
    pairs, triples = averaging._a3_checks(sys, coarse)
    assert len(triples) == 8
    assert all(e["triggered"] for e in pairs + triples)
    assert pairs[0]["bracket_sup"] == pairs[1]["bracket_sup"]
    assert len(brackets) == 1
    assert calls == [26, 26]


@pytest.mark.parametrize("cos_freq, reason", [(2, "integral"), (1, "violated")])
def test_a3_pair_of_distinct_multipliers_is_satisfied_by_its_integral(cos_freq, reason):
    """Exponents 0.6 + 0.7 trigger the pair condition. A sine at the base
    frequency against a cosine at twice it has a vanishing raw interaction
    integral in either order, so the pair holds by its integral although
    the design's bracket does not vanish; at equal multipliers it fails."""
    base = proposed_design_system(PLANT)
    dithers = (DitherSignal(np.sin, 1, 0.6), DitherSignal(np.cos, cos_freq, 0.7))
    sys = AffineSystem(base.drift, base.fields, dithers)
    report = check_assumptions(sys, ((-1.0, 1.0), (-1.0, 1.0)), grid=4, time_samples=2)
    assert [e["triggered"] for e in report.a3_pairs] == [True, True]
    assert [e["reason"] for e in report.a3_pairs] == [reason, reason]
    assert all(e["satisfied"] == (reason == "integral") for e in report.a3_pairs)
    if reason == "integral":
        assert all(abs(e["raw_integral"]) <= 1e-9 for e in report.a3_pairs)


@pytest.mark.parametrize("kwargs", [{"grid": 0}, {"time_samples": 0}, {"grid": -3}])
def test_empty_sample_set_is_refused(kwargs):
    """With no grid point or no time sample there is nothing to audit; the
    report must not PASS vacuously."""
    with pytest.raises(ValueError, match="at least 1"):
        check_assumptions(proposed_design_system(PLANT), ((-1.0, 1.0), (-1.0, 1.0)), **kwargs)


@pytest.mark.parametrize(
    "region",
    [
        (),
        ((-1.0, math.nan), (-1.0, 1.0)),
        ((-1.0, 1.0), (-math.inf, 1.0)),
        ((-1.0, math.inf),),
        ((-1e308, 1e308),) * 2,
    ],
    ids=["empty", "nan", "-inf", "inf", "infinite-width"],
)
def test_empty_or_non_finite_region_is_refused(region):
    """An empty box has no mesh to stack, and a NaN or infinite bound would
    report FAIL as if the field were unbounded; both are refused. So is a
    box of finite bounds whose width hi - lo overflows: its mesh was NaN,
    after a numpy warning."""
    with pytest.raises(ValueError, match="check_assumptions: region must be a nonempty box"):
        check_assumptions(proposed_design_system(PLANT), region)


@pytest.mark.parametrize("name", ["grid", "time_samples"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "3"])
def test_non_integer_sample_count_is_refused(name, value):
    """A fractional, bool or string count is refused, not truncated by
    linspace or taken as a 1-point mesh that passes."""
    with pytest.raises(ValueError, match=f"{name} must be an integer, at least 1"):
        check_assumptions(
            proposed_design_system(PLANT), ((-1.0, 1.0), (-1.0, 1.0)), **{name: value}
        )


def test_point_only_fields_are_refused():
    """Fields must return one row per mesh state; point-only fields fail
    loudly and name the offending field."""
    sys = proposed_design_system(PLANT)
    b = PLANT.b

    def point_field(x, t):
        return np.array([-b * x[0], 0.0])

    def zero_drift(x, t):
        return np.zeros(2)

    box = ((-1.0, 1.0), (-1.0, 1.0))
    with pytest.raises(ValueError, match=r"fields\[0\]"):
        check_assumptions(
            AffineSystem(sys.drift, (point_field, sys.fields[1]), sys.dithers), box, grid=3
        )
    with pytest.raises(ValueError, match="drift"):
        check_assumptions(AffineSystem(zero_drift, sys.fields, sys.dithers), box, grid=3)


def _with_dithers(sys, exponent):
    return AffineSystem(
        sys.drift,
        sys.fields,
        (DitherSignal(np.sin, exponent=exponent), DitherSignal(np.cos, exponent=exponent)),
    )


def _pole_drift_system():
    """Proposed fields with a drift that has a pole on the grid line y = 0.5."""
    sys = proposed_design_system(PLANT)

    def drift(x, t):
        y = x[..., 0]
        return np.stack((1.0 / (y - 0.5), np.zeros_like(y)), axis=-1)

    return AffineSystem(drift, sys.fields, sys.dithers)


def _three_channel_system():
    """A 3-D state under three dither channels (nf = 4, dim = 3).

    Exponents 0.6/0.7/0.7 and a sine at twice the base frequency on the
    third channel make every A3 pair and some triples trigger.
    """

    def drift(x, t):
        y, z, w = x[..., 0], x[..., 1], x[..., 2]
        return np.stack((-y + np.sin(t) * z, w**2 - z, np.cos(y) * t), axis=-1)

    def f1(x, t):
        y, z, w = x[..., 0], x[..., 1], x[..., 2]
        return np.stack((z * w, np.ones_like(y), y**2), axis=-1)

    def f2(x, t):
        y, z = x[..., 0], x[..., 1]
        return np.stack((np.zeros_like(y), y * np.cos(t), z**3), axis=-1)

    def f3(x, t):
        y, z, w = x[..., 0], x[..., 1], x[..., 2]
        return np.stack((np.sin(w), y * z, -w), axis=-1)

    dithers = (
        DitherSignal(np.sin, exponent=0.6),
        DitherSignal(np.cos, exponent=0.7),
        DitherSignal(np.sin, 2, 0.7),
    )
    return AffineSystem(drift, (f1, f2, f3), dithers)


def _dithered_array_field(p):
    """The proposed closed loop at omega = 400 as an array call, a compiled
    field that reads t through its dither."""
    law = FusedField((*_LAW_SOURCE[ControllerVariant.PROPOSED], "dy = a * y + b * u"), p.a, p.b)
    return dynamics._array_call(law._replace(c=20.0, w=400.0))


def _dithered_array_system():
    """The proposed design with the compiled closed loop of
    `_dithered_array_field` as its sine field: a compiled field that reads
    t takes the per-sample path."""
    base = proposed_design_system(PLANT)
    return AffineSystem(base.drift, (_dithered_array_field(PLANT), base.fields[1]), base.dithers)


_REFERENCE_SYSTEMS = pytest.mark.parametrize(
    "build, region",
    [
        (lambda: proposed_design_system(PLANT), ((-2.0, 2.0), (-2.0, 2.0))),
        (lambda: swapped_design_system(PLANT), ((-2.0, 2.0), (-2.0, 2.0))),
        (lambda: _with_dithers(proposed_design_system(PLANT), 0.7), ((-1.0, 1.0), (-1.0, 1.0))),
        (lambda: proposed_design_system(PlantParams(1.3, 0.7)), ((-3.0, 1.5), (-0.5, 2.5))),
        (_pole_drift_system, ((-1.5, 2.5), (-1.0, 1.0))),
        (_three_channel_system, ((-1.0, 1.0), (-0.5, 1.5), (-1.0, 2.0))),
        (_dithered_array_system, ((-2.0, 2.0), (-2.0, 2.0))),
    ],
    ids=[
        "proposed",
        "swapped",
        "exponents-0.7",
        "plant-1.3-0.7",
        "pole",
        "three-channels",
        "dithered-array",
    ],
)


@_REFERENCE_SYSTEMS
def test_batched_audit_matches_point_wise_reference(build, region):
    """The mesh-at-once scan reproduces the per-point scan byte for byte:
    bound, witness (first maximiser, or first non-finite value) and A3."""
    sys = build()
    # a coarser grid keeps the point-wise reference quick on a 3-D box
    grid = 5 if len(region) == 2 else 4
    with np.errstate(divide="ignore", invalid="ignore"):
        got = check_assumptions(sys, region, grid=grid, time_samples=3)
        want = reference_check_assumptions(sys, region, grid=grid, time_samples=3)
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


def _report_json(sys, region, grid, time_samples=3):
    with np.errstate(divide="ignore", invalid="ignore"):
        report = check_assumptions(sys, region, grid=grid, time_samples=time_samples)
    return json.dumps(report.to_dict())


@_REFERENCE_SYSTEMS
def test_audit_report_does_not_depend_on_block_size(build, region, monkeypatch):
    """The A2 scan takes the mesh in blocks; seven-state blocks, which
    split every mesh here, give the report of the default block size."""
    sys = build()
    grid = 5 if len(region) == 2 else 4
    want = _report_json(sys, region, grid)
    monkeypatch.setattr(averaging, "_A2_BLOCK_ROWS", 7)
    assert _report_json(sys, region, grid) == want


def test_audit_report_does_not_depend_on_block_size_beyond_one_block(monkeypatch):
    """A mesh larger than the default block gives the same report in
    seven-state blocks as in default ones."""
    sys = proposed_design_system(PLANT)
    box = ((-2.0, 2.0), (-2.0, 2.0))
    grid = math.isqrt(averaging._A2_BLOCK_ROWS) + 2
    assert grid * grid > averaging._A2_BLOCK_ROWS
    want = _report_json(sys, box, grid, time_samples=2)
    monkeypatch.setattr(averaging, "_A2_BLOCK_ROWS", 7)
    assert _report_json(sys, box, grid, time_samples=2) == want


def _half_time_dependent_system():
    """The proposed design with its sine field scaled by sin(t) where y > 0:
    on the states y < 0 and their moves the fields ignore t."""
    base = proposed_design_system(PLANT)

    def f_sin(x, t):
        return np.where(x[..., :1] > 0.0, np.sin(t), 1.0) * base.fields[0](x, t)

    return AffineSystem(base.drift, (f_sin, base.fields[1]), base.dithers)


def test_audit_norms_fields_that_read_t_at_every_time_sample_and_block(monkeypatch):
    """Fields that may read t take the per-sample path even where their
    values repeat: in seven-state blocks of a 5 x 5 mesh ordered by y, the
    first block (y = -2 and y = -1) ignores t, yet every one of the four
    blocks computes its norms at each of the three time samples. The
    report is the point-wise scan's byte for byte."""
    sys, box = _half_time_dependent_system(), ((-2.0, 2.0), (-2.0, 2.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        want = reference_check_assumptions(sys, box, grid=5, time_samples=3)
    monkeypatch.setattr(averaging, "_A2_BLOCK_ROWS", 7)
    norms = averaging._a2_norms
    calls = 0

    def counted_norms(*args):
        nonlocal calls
        calls += 1
        return norms(*args)

    monkeypatch.setattr(averaging, "_a2_norms", counted_norms)
    assert _report_json(sys, box, 5) == json.dumps(want.to_dict())
    assert calls == 4 * 3


# keyed by each seven-state block's first state on the 5 x 5 mesh over
# [-2, 2]^2 ordered by y
_BLOCK_FIRSTS = [(-2.0, -2.0), (-1.0, 0.0), (0.0, 2.0), (2.0, -1.0)]


@pytest.mark.parametrize(
    "late, witness, block_calls",
    [
        # infinite at t > 3 where y < 0 and at t > 1 elsewhere: the first
        # block (all y < 0) turns non-finite at the third time sample, every
        # later block at the second. The witness is in the second block at
        # the second sample; the first block ran the third sample before the
        # second block met its non-finite norm, the blocks after the second
        # run the first sample only.
        (
            lambda x, t: np.where(x[..., :1] < 0.0, t > 3.0, t > 1.0),
            ([0.0, -2.0], 2.0 * math.pi / 3.0),
            [1 + 3 * 3, 3 * 2, 3, 3],
        ),
        # infinite at every t where y < -1.5, only in the first block: no
        # later block calls a field at all
        (
            lambda x, t: x[..., :1] < -1.5,
            ([-2.0, -2.0], 0.0),
            [1 + 3, 0, 0, 0],
        ),
    ],
    ids=["staggered", "first_block_only"],
)
def test_audit_witness_is_the_time_major_first_non_finite_norm(
    late, witness, block_calls, monkeypatch
):
    """The witness of a scan whose blocks turn non-finite at different
    times is the time-major first non-finite norm, as in the point-wise
    scan. Each block stops at its own first non-finite norm, and runs no
    time sample at or after the earliest one where an earlier block met
    one: the per-block field calls pin that stop rule."""
    base = proposed_design_system(PLANT)
    calls: dict = {}

    def f_sin(x, t):
        first = tuple(np.reshape(x, (-1, 2))[0].tolist())
        calls[first] = calls.get(first, 0) + 1
        return np.where(late(x, t), np.inf, 1.0) * base.fields[0](x, t)

    sys = AffineSystem(base.drift, (f_sin, base.fields[1]), base.dithers)
    box = ((-2.0, 2.0), (-2.0, 2.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        want = reference_check_assumptions(sys, box, grid=5, time_samples=4)
    assert want.a2_bound == math.inf
    assert (want.a2_witness["x"], want.a2_witness["t"]) == witness
    monkeypatch.setattr(averaging, "_A2_BLOCK_ROWS", 7)
    calls.clear()
    assert _report_json(sys, box, 5, time_samples=4) == json.dumps(want.to_dict())
    # one mesh-shape probe (on the whole mesh, which starts with the first
    # block), then 3 calls per time sample a block runs
    assert calls == {first: n for first, n in zip(_BLOCK_FIRSTS, block_calls) if n}


def test_audit_witness_of_a_tie_across_blocks_is_the_earlier_time(monkeypatch):
    """Equal largest norms at a later time in an earlier block and at an
    earlier time in a later block: the witness is the earlier time, as in
    the point-wise scan's time-major order. On the 5 x 5 mesh over [-2, 2]^2
    in seven-state blocks, the sine field reads 1e3 at time index 2 where
    y = -2 (the first block) and at time index 0 where y = 1 (the third);
    it is constant in x near every state, so every derivative norm is 0."""
    base = proposed_design_system(PLANT)

    def zero(x, t):
        return np.zeros_like(np.asarray(x, float))

    def f_sin(x, t):
        y = np.asarray(x, float)[..., :1]
        big = ((y < -1.5) & (3.0 < t < 5.0)) | ((0.5 < y) & (y < 1.5) & (t < 1.0))
        return np.concatenate((np.where(big, 1e3, 1.0), np.zeros_like(y)), axis=-1)

    sys = AffineSystem(zero, (f_sin, zero), base.dithers)
    box = ((-2.0, 2.0), (-2.0, 2.0))
    want = reference_check_assumptions(sys, box, grid=5, time_samples=4)
    assert want.a2_bound == 1e3
    assert want.a2_witness == {"norm": "field", "i": 1, "j": None, "x": [1.0, -2.0], "t": 0.0}
    assert _report_json(sys, box, 5, time_samples=4) == json.dumps(want.to_dict())
    monkeypatch.setattr(averaging, "_A2_BLOCK_ROWS", 7)
    assert _report_json(sys, box, 5, time_samples=4) == json.dumps(want.to_dict())


@pytest.mark.parametrize("block_rows", [None, 7])
def test_audit_calls_each_field_three_times_per_time_sample_and_block(block_rows, monkeypatch):
    """Beyond one mesh-shape probe, each field is called once at t and once
    at each of t +- the time step per time sample and mesh block, so a scan
    that calls fields per offset or per Jacobian column shows up here."""
    if block_rows is not None:
        monkeypatch.setattr(averaging, "_A2_BLOCK_ROWS", block_rows)
    base = proposed_design_system(PLANT)
    calls = dict.fromkeys(("drift", "sin", "cos"), 0)

    def counted(name, f):
        def field(x, t):
            calls[name] += 1
            return f(x, t)

        return field

    sys = AffineSystem(
        counted("drift", base.drift),
        (counted("sin", base.fields[0]), counted("cos", base.fields[1])),
        base.dithers,
    )
    grid, time_samples = 5, 4
    blocks = -(-grid * grid // averaging._A2_BLOCK_ROWS)
    # the design's A3 conditions are vacuous, so A2 makes every call
    box = ((-2.0, 2.0), (-2.0, 2.0))
    report = check_assumptions(sys, box, grid=grid, time_samples=time_samples)
    assert all(e["reason"] == "vacuous" for e in report.a3_pairs + report.a3_triples)
    assert calls == dict.fromkeys(calls, 1 + 3 * time_samples * blocks)


def _counted_like(calls, name, f):
    """f behind a call counter that keeps f's `.fused`, as the audit reads it."""

    def field(x, t):
        calls[name] += 1
        return f(x, t)

    field.fused = f.fused
    return field


@pytest.mark.parametrize("block_rows", [None, 7])
@pytest.mark.parametrize("time_samples", [1, 4])
@pytest.mark.parametrize("build", [proposed_design_system, swapped_design_system])
def test_audit_calls_time_blind_fields_once_per_block(build, time_samples, block_rows, monkeypatch):
    """The design split's compiled fields bind no dither frequency, so they
    never read t: beyond the mesh-shape probe each is called once per mesh
    block, and each block's norms are computed once. A compiled field that
    reads t (w != 0) keeps the three calls per time sample and block."""
    if block_rows is not None:
        monkeypatch.setattr(averaging, "_A2_BLOCK_ROWS", block_rows)
    norms = averaging._a2_norms
    calls = dict.fromkeys(("drift", "sin", "cos", "norms"), 0)

    def counted_norms(*args):
        calls["norms"] += 1
        return norms(*args)

    monkeypatch.setattr(averaging, "_a2_norms", counted_norms)
    base = build(PLANT)
    drift = _counted_like(calls, "drift", base.drift)
    f_cos = _counted_like(calls, "cos", base.fields[1])
    grid, box = 5, ((-2.0, 2.0), (-2.0, 2.0))
    blocks = -(-grid * grid // averaging._A2_BLOCK_ROWS)

    def audit(f_sin):
        calls.update(dict.fromkeys(calls, 0))
        sys = AffineSystem(drift, (_counted_like(calls, "sin", f_sin), f_cos), base.dithers)
        check_assumptions(sys, box, grid=grid, time_samples=time_samples)
        return calls

    field_calls = dict.fromkeys(("drift", "sin", "cos"), 1 + blocks)
    assert audit(base.fields[0]) == {**field_calls, "norms": blocks}
    field_calls = dict.fromkeys(("drift", "sin", "cos"), 1 + 3 * time_samples * blocks)
    assert audit(_dithered_array_field(PLANT)).items() >= field_calls.items()


def test_time_blind_audit_stops_at_the_first_block_that_overflows(monkeypatch):
    """On a box reaching y = -1e200 the design's gain dither y**2
    overflows in the first seven-state block at the first time sample: the
    time-blind scan calls no field on a later block, and its report is the
    point-wise scan's byte for byte."""
    base = proposed_design_system(PLANT)
    box = ((-1e200, 2.0), (-2.0, 2.0))
    with np.errstate(over="ignore", invalid="ignore"):
        want = reference_check_assumptions(base, box, grid=5, time_samples=4)
    assert want.a2_bound == math.inf
    assert (want.a2_witness["x"], want.a2_witness["t"]) == ([-1e200, -2.0], 0.0)
    calls: dict = {}

    def counted(f):
        def field(x, t):
            first = tuple(np.reshape(x, (-1, 2))[0].tolist())
            calls[first] = calls.get(first, 0) + 1
            return f(x, t)

        field.fused = f.fused
        return field

    sys = AffineSystem(counted(base.drift), tuple(map(counted, base.fields)), base.dithers)
    monkeypatch.setattr(averaging, "_A2_BLOCK_ROWS", 7)
    assert _report_json(sys, box, 5, time_samples=4) == json.dumps(want.to_dict())
    # each of the three fields: the mesh-shape probe and one call on the first block
    assert calls == {(-1e200, -2.0): 3 * 2}


def test_audit_memory_per_mesh_state_is_bounded():
    """`cli.cmd_check` caps the mesh at a sixth of WORK_BUDGET on the
    strength of the audit's peak memory per mesh state; pin that figure."""
    grid = 120
    tracemalloc.start()
    try:
        check_assumptions(
            proposed_design_system(PLANT),
            ((-2.0, 2.0), (-2.0, 2.0)),
            grid=grid,
            time_samples=1,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / grid**2 <= 400


def _equal_channel_system(exponents):
    """One field and one waveform on every channel, so that the channels
    differ only in their amplitude exponents."""

    def drift(x, t):
        return -x

    def field(x, t):
        return x**2

    dithers = tuple(DitherSignal(np.sin, exponent=e) for e in exponents)
    return AffineSystem(drift, (field,) * len(exponents), dithers)


_EXPONENTS = st.one_of(
    st.sampled_from((0.1, 0.2, 0.3, 0.6, 0.7, 0.9, 1 / 3, 2 / 3)), st.floats(0.01, 0.99)
)


@settings(max_examples=60, deadline=None)
@given(exponents=st.lists(_EXPONENTS, min_size=2, max_size=3))
@example(exponents=[0.6, 0.7, 0.7])
def test_a3_exponent_sums_do_not_depend_on_channel_order(exponents):
    """Every ordering of the same pair or triple of channels gets the same
    exponent_sum and the same verdict. With exponents 0.6/0.7/0.7 a sum
    taken left to right gives 1.9999999999999998 for (1, 2, 2) but 2.0 for
    (2, 2, 1)."""
    report = check_assumptions(
        _equal_channel_system(exponents), ((-1.0, 1.0),), grid=2, time_samples=1
    )
    by_channels: dict = {}
    for entry in report.a3_pairs + report.a3_triples:
        channels = tuple(sorted(entry[key] for key in ("i", "j", "m") if key in entry))
        verdict = {k: entry[k] for k in ("exponent_sum", "triggered", "satisfied", "reason")}
        by_channels.setdefault(channels, []).append(verdict)
    for verdicts in by_channels.values():
        assert all(v == verdicts[0] for v in verdicts)
