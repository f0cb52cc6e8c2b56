"""Closed-loop vector fields for scalar adaptive stabilization.

The plant is dy/dt = a*y + b*u with a, b unknown to the controller and the
sign of b possibly unknown as well. Every controller here adapts a scalar
gain k online, so the closed-loop state is (y, k). The dithered designs
("proposed" and "swapped") inject a zero-mean oscillation whose amplitude
grows like sqrt(omega); their behavior for large omega is captured by the
averaged system exposed as `lie_bracket_rhs` and solved in closed form
by `lie_bracket_flow`.

Each gain law is written once, in the private table `_LAWS`, as plain
arithmetic on (y, k) that works on floats and numpy arrays alike.
Controller blindness is structural: the laws never receive plant
parameters. `closed_loop` binds a law to the plant for the integrators;
the State-typed `*_control` and `*_rhs` functions and the drift/dither
split audited in `averaging` derive from the same table.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "PlantParams",
    "State",
    "PolarState",
    "ControllerVariant",
    "ControllerSpec",
    "RhsEval",
    "s_cos_s",
    "proposed_control",
    "swapped_control",
    "nussbaum_control",
    "willems_byrnes_control",
    "proposed_rhs",
    "swapped_rhs",
    "nussbaum_rhs",
    "willems_byrnes_rhs",
    "lie_bracket_rhs",
    "to_polar",
    "from_polar",
    "polar_closed_loop_rhs",
    "polar_lbs_rhs",
    "closed_loop",
    "lie_bracket_loop",
    "lie_bracket_flow",
    "polar_closed_loop",
]


@dataclass(frozen=True)
class PlantParams:
    """Scalar plant dy/dt = a*y + b*u.

    Parameters
    ----------
    a : float
        Open-loop pole. Positive values make the plant unstable.
    b : float
        Input gain. Must be nonzero; its sign is what the adaptive
        designs do not get to know.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("PlantParams: a and b must be finite")
        if self.b == 0.0:
            raise ValueError("PlantParams: b must be nonzero")

    @property
    def center(self) -> float:
        """Gain value a/b at which the averaged feedback cancels the pole."""
        return self.a / self.b


@dataclass(frozen=True)
class State:
    """Closed-loop state: plant output y and adaptive gain k."""

    y: float
    k: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.y) and math.isfinite(self.k)):
            raise ValueError("State: y and k must be finite")

    def as_tuple(self) -> tuple[float, float]:
        return (self.y, self.k)


@dataclass(frozen=True)
class PolarState:
    """State in polar coordinates about the point (y, k) = (0, a/b).

    r is the distance to that point and phi the angle measured so that
    y = r*cos(phi), k = a/b + r*sin(phi). `degenerate` marks the exact
    center, where the angle is not defined and is reported as 0.
    """

    r: float
    phi: float
    degenerate: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and math.isfinite(self.phi)):
            raise ValueError("PolarState: r and phi must be finite")
        if self.r < 0.0:
            raise ValueError("PolarState: r must be nonnegative")

    def as_tuple(self) -> tuple[float, float]:
        return (self.r, self.phi)


class ControllerVariant(enum.Enum):
    PROPOSED = "proposed"
    SWAPPED = "swapped"
    NUSSBAUM = "nussbaum"
    WILLEMS_BYRNES = "willems_byrnes"

    @classmethod
    def from_name(cls, name: str) -> "ControllerVariant":
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(v.value for v in cls)
            raise ValueError(
                f"unknown controller variant {name!r} (expected one of: {valid})"
            ) from None


# The variants that inject a dither and so need omega.
DITHERED_VARIANTS = frozenset({ControllerVariant.PROPOSED, ControllerVariant.SWAPPED})


def s_cos_s(s: float) -> float:
    """Default Nussbaum-type gain shape h(s) = s*cos(s)."""
    return s * math.cos(s)


@dataclass(frozen=True)
class ControllerSpec:
    """Controller selection plus the parameters that variant needs.

    omega is required (positive) for the dithered variants. nussbaum_fn
    defaults to `s_cos_s` and is read only by the Nussbaum variant.
    sign_b must be -1 or +1 and is read only by the Willems-Byrnes
    variant; no other controller gets access to it.
    """

    variant: ControllerVariant
    omega: float | None = None
    nussbaum_fn: Callable[[float], float] | None = None
    sign_b: int | None = None

    def __post_init__(self) -> None:
        if self.variant in DITHERED_VARIANTS:
            if self.omega is None or not math.isfinite(self.omega) or self.omega <= 0:
                raise ValueError(
                    f"ControllerSpec: variant {self.variant.value!r} requires omega > 0"
                )
        if self.variant is ControllerVariant.NUSSBAUM and self.nussbaum_fn is None:
            object.__setattr__(self, "nussbaum_fn", s_cos_s)
        if self.variant is ControllerVariant.WILLEMS_BYRNES:
            if self.sign_b not in (-1, 1):
                raise ValueError(
                    "ControllerSpec: variant 'willems_byrnes' requires sign_b in {-1, +1}"
                )


class RhsEval(NamedTuple):
    """Closed-loop derivative plus the control value used to produce it."""

    dy: float
    dk: float
    u: float


# -- gain laws (plant-blind) --------------------------------------------------
#
# Each law maps (y, k) to the input u and the gain rate dk, given its
# constant c (sqrt(omega), the gain shape h, or sign(b)) and the dither
# values sn = sin(omega*t), cs = cos(omega*t), which the dither-free laws
# ignore. Evaluated at unit dither, a dithered law gives its dither
# coefficients (see averaging._design_system).

_LAWS = {
    ControllerVariant.PROPOSED: lambda y, k, sw, sn, cs: (-k * y - y * sw * sn, y * y * sw * cs),
    ControllerVariant.SWAPPED: lambda y, k, sw, sn, cs: (
        -k * y - 2.0 * y * y * sw * sn, y * sw * cs
    ),
    ControllerVariant.NUSSBAUM: lambda y, k, h, sn, cs: (h(k) * k * y, y * y),
    ControllerVariant.WILLEMS_BYRNES: lambda y, k, sign_b, sn, cs: (-k * y, float(sign_b) * y * y),
}


def _averaged_loop(a: float, b: float) -> Rhs2:
    """Averaged system of both dithered designs: dy = (a - b*k)*y, dk = b*y^2."""

    def rhs(s: tuple[float, float], t: float) -> tuple[float, float]:
        y, k = s
        return ((a - b * k) * y, b * y * y)

    return rhs


def _bind(spec: ControllerSpec):
    """The table law of spec's variant, its constant c and its dither frequency."""
    v = spec.variant
    if v in DITHERED_VARIANTS:
        return _LAWS[v], math.sqrt(spec.omega), spec.omega
    return _LAWS[v], spec.nussbaum_fn if v is ControllerVariant.NUSSBAUM else spec.sign_b, 0.0


# -- State-typed laws and closed-loop right-hand sides -----------------------


def _control(spec: ControllerSpec, s: State, t: float) -> tuple[float, float]:
    law, c, w = _bind(spec)
    return law(s.y, s.k, c, math.sin(w * t), math.cos(w * t))


def proposed_control(s: State, t: float, omega: float) -> tuple[float, float]:
    """Primary dither design: u = -k*y - y*sqrt(w)*sin(wt), dk = y^2*sqrt(w)*cos(wt)."""
    return _control(ControllerSpec(ControllerVariant.PROPOSED, omega=omega), s, t)


def swapped_control(s: State, t: float, omega: float) -> tuple[float, float]:
    """Role-swapped dither design with the same averaged behavior.

    The quadratic term moves from the gain law into the input:
    u = -k*y - 2*y^2*sqrt(w)*sin(wt), dk = y*sqrt(w)*cos(wt).
    """
    return _control(ControllerSpec(ControllerVariant.SWAPPED, omega=omega), s, t)


def nussbaum_control(
    s: State, t: float, h: Callable[[float], float] = s_cos_s
) -> tuple[float, float]:
    """Classical Nussbaum-gain law: u = h(k)*k*y, dk = y^2."""
    return _control(ControllerSpec(ControllerVariant.NUSSBAUM, nussbaum_fn=h), s, t)


def willems_byrnes_control(s: State, sign_b: int) -> tuple[float, float]:
    """Known-direction adaptive law: u = -k*y, dk = sign(b)*y^2.

    The only controller here that is allowed to read the sign of b.
    """
    return _control(ControllerSpec(ControllerVariant.WILLEMS_BYRNES, sign_b=sign_b), s, 0.0)


def _rhs_eval(p: PlantParams, spec: ControllerSpec, s: State, t: float) -> RhsEval:
    rhs, control = closed_loop(p, spec)
    dy, dk = rhs(s.as_tuple(), t)
    return RhsEval(dy, dk, control(s.as_tuple(), t))


def proposed_rhs(p: PlantParams, s: State, t: float, omega: float) -> RhsEval:
    return _rhs_eval(p, ControllerSpec(ControllerVariant.PROPOSED, omega=omega), s, t)


def swapped_rhs(p: PlantParams, s: State, t: float, omega: float) -> RhsEval:
    return _rhs_eval(p, ControllerSpec(ControllerVariant.SWAPPED, omega=omega), s, t)


def nussbaum_rhs(
    p: PlantParams, s: State, t: float, h: Callable[[float], float] = s_cos_s
) -> RhsEval:
    return _rhs_eval(p, ControllerSpec(ControllerVariant.NUSSBAUM, nussbaum_fn=h), s, t)


def willems_byrnes_rhs(p: PlantParams, s: State, t: float, sign_b: int) -> RhsEval:
    return _rhs_eval(p, ControllerSpec(ControllerVariant.WILLEMS_BYRNES, sign_b=sign_b), s, t)


def lie_bracket_rhs(p: PlantParams, s: State) -> tuple[float, float]:
    """Averaged system for both dithered designs.

    dy = (a - b*k)*y, dk = b*y^2. Time-invariant; all points with y = 0
    are equilibria, and trajectories with y != 0 move along circular arcs
    centered at (0, a/b).
    """
    return _averaged_loop(p.a, p.b)(s.as_tuple(), 0.0)


# -- polar coordinates about (0, a/b) ----------------------------------------


def to_polar(p: PlantParams, s: State) -> PolarState:
    """Polar coordinates of s about the averaged-orbit center (0, a/b).

    Exactly at the center the angle is undefined; that case returns
    r = 0, phi = 0 with the degenerate flag set.
    """
    dy = s.y
    dk = s.k - p.center
    r = math.hypot(dy, dk)
    if r == 0.0:
        return PolarState(0.0, 0.0, degenerate=True)
    # atan2 stays exact near phi = +-pi/2, where asin(dk/r) loses half the
    # digits of y; the angle is reported in [-pi/2, 3*pi/2).
    phi = math.atan2(dk, dy)
    if phi < -0.5 * math.pi:
        phi += 2.0 * math.pi
    return PolarState(r, phi)


def from_polar(p: PlantParams, ps: PolarState) -> State:
    return State(ps.r * math.cos(ps.phi), ps.r * math.sin(ps.phi) + p.center)


def polar_closed_loop_rhs(
    p: PlantParams, ps: PolarState, t: float, omega: float
) -> tuple[float, float]:
    """Closed loop of the primary dither design in polar coordinates;
    see `polar_closed_loop`."""
    return polar_closed_loop(p, omega)(ps.as_tuple(), t)


def polar_lbs_rhs(p: PlantParams, ps: PolarState) -> tuple[float, float]:
    """Averaged system in polar coordinates: dr = 0, dphi = b*r*cos(phi).

    The zero radial rate is the conservation law behind the circular
    averaged orbits.
    """
    return (0.0, p.b * ps.r * math.cos(ps.phi))


# -- tuple-state closures for the integrators --------------------------------

Rhs2 = Callable[[tuple[float, float], float], tuple[float, float]]
InputFn = Callable[[tuple[float, float], float], float]


def closed_loop(p: PlantParams, spec: ControllerSpec) -> tuple[Rhs2, InputFn]:
    """Bind plant and controller into plain-tuple callables.

    Returns (rhs, control) where rhs((y, k), t) -> (dy, dk) and
    control((y, k), t) -> u. These avoid per-step dataclass construction
    and are what the fixed-step integrators consume.
    """
    a, b = p.a, p.b
    law, c, w = _bind(spec)

    def control(s: tuple[float, float], t: float) -> float:
        y, k = s
        return law(y, k, c, math.sin(w * t), math.cos(w * t))[0]

    def rhs(s: tuple[float, float], t: float) -> tuple[float, float]:
        y, k = s
        u, dk = law(y, k, c, math.sin(w * t), math.cos(w * t))
        return (a * y + b * u, dk)

    return rhs, control


def lie_bracket_loop(p: PlantParams) -> Rhs2:
    """Averaged system as a plain-tuple callable for the integrators."""
    return _averaged_loop(p.a, p.b)


def lie_bracket_flow(
    p: PlantParams, s0: State, t0: float, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact solution of the averaged system from s0 at time t0, as
    (ys, ks) arrays sampled at `times`.

    With z = k - a/b the orbit is the circle of radius r = hypot(y0, z0)
    about (0, a/b), run through the Gudermannian:
    u = b*r*(t - t0) + asinh(z0/|y0|), y = sign(y0)*r*sech(u),
    k = a/b + r*tanh(u). sech is evaluated from exp(-|u|), so long
    horizons underflow to 0 instead of overflowing cosh, and asinh takes
    its log form where z0/|y0| overflows (subnormal y0). A start with
    y0 = 0 is an equilibrium and stays put.
    """
    times = np.asarray(times, dtype=float)
    y0, k0 = s0.y, s0.k
    if y0 == 0.0:
        return np.full(times.shape, y0), np.full(times.shape, k0)
    z0 = k0 - p.center
    r = math.hypot(y0, z0)
    if not math.isfinite(r):
        raise ValueError("lie_bracket_flow: orbit radius overflows")
    x = z0 / abs(y0)
    if math.isfinite(x):
        u0 = math.asinh(x)
    else:
        u0 = math.copysign(math.log(2.0) + math.log(abs(z0)) - math.log(abs(y0)), z0)
    u = p.b * r * (times - t0) + u0
    e = np.exp(-np.abs(u))
    return math.copysign(r, y0) * (2.0 * e / (1.0 + e * e)), p.center + r * np.tanh(u)


def polar_closed_loop(p: PlantParams, omega: float) -> Rhs2:
    """Closed loop of the primary dither design in polar coordinates
    about (0, a/b), as a plain-tuple callable.

    Equivalent to transporting `proposed_rhs` through `to_polar`, which is
    how the tests cross-check it. Unlike `polar_closed_loop_rhs` this skips
    PolarState validation, so an integrator that momentarily steps r below
    zero is not rejected.
    """
    b = p.b
    sw = math.sqrt(omega)

    def rhs(s: tuple[float, float], t: float) -> tuple[float, float]:
        r, phi = s
        sp, cp = math.sin(phi), math.cos(phi)
        swt, cwt = math.sin(omega * t), math.cos(omega * t)
        dr = (
            -b * r * r * sp * cp * cp
            - b * r * cp * cp * sw * swt
            + r * r * sp * cp * cp * sw * cwt
        )
        dphi = (
            b * r * sp * sp * cp
            + b * sp * cp * sw * swt
            + r * cp * cp * cp * sw * cwt
        )
        return (dr, dphi)

    return rhs
