"""Closed-loop vector fields for scalar adaptive stabilization.

The plant is dy/dt = a*y + b*u with a, b unknown to the controller and the
sign of b possibly unknown as well. Every controller here adapts a scalar
gain k online, so the closed-loop state is (y, k). The dithered designs
("proposed" and "swapped") inject a zero-mean oscillation whose amplitude
grows like sqrt(omega); their behavior for large omega is captured by the
averaged system exposed as `lie_bracket_rhs` and solved in closed form
by `lie_bracket_flow`.

Each gain law is written once, in the private table `_LAW_SOURCE`, as
Python statements that set the input u and the gain rate dk from (y, k),
its constant c and the dither values sn, cs; the averaged field is written
once the same way, in `_AVERAGED_SOURCE`, over (y, k, a, b). The
arithmetic works on floats and numpy arrays alike. Controller blindness
is structural: the laws never receive plant parameters. One compiler
serves every use. A `FusedField` holds a field's statements, its bound
constants and the lines that bind them and evaluate the dither;
`_compile` fills them into a call (y, k), t -> values, or, for the
drift/dither split that `averaging` audits, into an array call
x (..., 2), t -> (..., 2); `integrate` fills the same lines into its
whole-run kernels. The closures of `closed_loop` and `lie_bracket_loop`,
the State-typed `control`, `rhs` and `lie_bracket_rhs`, and that split
are all such calls, so they run the kernels' arithmetic by construction.
The split binds no dither frequency, so the audit knows its fields never
read t.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "PlantParams",
    "State",
    "PolarState",
    "ControllerVariant",
    "ControllerSpec",
    "s_cos_s",
    "control",
    "rhs",
    "lie_bracket_rhs",
    "to_polar",
    "from_polar",
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
        if self.degenerate and (self.r != 0.0 or self.phi != 0.0):
            raise ValueError("PolarState: degenerate marks only the center, r = phi = 0")

    def as_tuple(self) -> tuple[float, float]:
        return (self.r, self.phi)


class ControllerVariant(enum.Enum):
    """The four gain laws of `_LAW_SOURCE`, with dither frequency w:
    PROPOSED (primary): u = -k*y - y*sqrt(w)*sin(wt), dk = y^2*sqrt(w)*cos(wt).
    SWAPPED (quadratic term moved into the input, same averaged behavior):
    u = -k*y - 2*y^2*sqrt(w)*sin(wt), dk = y*sqrt(w)*cos(wt).
    NUSSBAUM (classical Nussbaum gain h): u = h(k)*k*y, dk = y^2.
    WILLEMS_BYRNES (known direction, the only law that reads sign(b)):
    u = -k*y, dk = sign(b)*y^2.
    """

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


def s_cos_s(s: float | np.ndarray) -> float | np.ndarray:
    """Default Nussbaum-type gain shape h(s) = s*cos(s).

    A Python float goes through math.cos and gives a Python float, as the
    fused Nussbaum kernels need; an array (or numpy scalar) is mapped
    element-wise with np.cos. The two agree bit for bit on the gain-shape
    grids of `check`; the tests pin it. A non-finite float, such as the gain
    of an RK4 stage that overflowed, gives nan, so that the run records a
    divergence instead of math.cos raising.
    """
    if type(s) is float:
        return s * math.cos(s) if math.isfinite(s) else math.nan
    return s * np.cos(s)


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
        if not isinstance(self.variant, ControllerVariant):
            kind = type(self.variant).__name__
            raise ValueError(f"ControllerSpec: variant must be a ControllerVariant, not {kind}")
        if any(isinstance(v, (bool, np.bool_)) for v in (self.omega, self.sign_b)):
            raise ValueError("ControllerSpec: omega and sign_b must be numbers, not bools")
        if self.variant in DITHERED_VARIANTS:
            if self.omega is None or not math.isfinite(self.omega) or self.omega <= 0:
                raise ValueError(f"ControllerSpec: variant {self.variant.value!r} needs omega > 0")
        if self.variant is ControllerVariant.NUSSBAUM and self.nussbaum_fn is None:
            object.__setattr__(self, "nussbaum_fn", s_cos_s)
        if self.variant is ControllerVariant.WILLEMS_BYRNES and self.sign_b not in (-1, 1):
            raise ValueError("ControllerSpec: variant 'willems_byrnes' needs sign_b in {-1, +1}")


# -- gain laws (plant-blind) --------------------------------------------------
#
# Each law maps (y, k) to the input u and the gain rate dk, given its
# constant c (sqrt(omega), the gain shape h, or sign(b)) and the dither
# values sn = sin(omega*t), cs = cos(omega*t), which the dither-free laws
# ignore. Evaluated at unit dither, a dithered law gives its dither
# coefficients (see `_design_split`). The statements setting u
# and dk are the one definition of each law; all else is compiled from it.

_LAW_SOURCE = {
    ControllerVariant.PROPOSED: ("u = -k * y - y * c * sn", "dk = y * y * c * cs"),
    ControllerVariant.SWAPPED: ("u = -k * y - 2.0 * y * y * c * sn", "dk = y * c * cs"),
    ControllerVariant.NUSSBAUM: ("u = c(k) * k * y", "dk = y * y"),
    ControllerVariant.WILLEMS_BYRNES: ("u = -k * y", "dk = float(c) * y * y"),
}

# dy and dk of the averaged system of both dithered designs.
_AVERAGED_SOURCE = ("dy = (a - b * k) * y", "dk = b * y * y")


@functools.lru_cache(maxsize=64)
def _define(source: str, name: str, **env):
    """The function `name` that `source` defines, with `env` as its globals,
    compiled once per source on first use. Callers pass only source built
    from this package's own constants."""
    namespace = dict(env)
    exec(source, namespace)
    return namespace[name]


@functools.lru_cache(maxsize=64)
def _fill(template: str, **parts: tuple[str, ...]) -> str:
    """template with each line holding only {name} replaced by the lines
    parts[name], filled in turn, at that line's indentation; memoised."""

    def fill(lines: Sequence[str], indent: str):
        for line in lines:
            name = line.strip()
            if name.startswith("{"):
                yield from fill(parts[name[1:-1]], indent + line[: line.index("{")])
            else:
                yield indent + line

    return "\n".join(fill(template.splitlines(), "")) + "\n"


class FusedField(NamedTuple):
    """A field as source, compiled to its call form by `_compile` and into
    the whole-run kernels of `integrate`. `body` holds statements over y, k,
    the constants a, b, c (which `bind` binds from a FusedField named f)
    and, where w != 0, sn = sin(w*t) and cs = cos(w*t). Run in order,
    they set dy and dk, or u and dk for a gain law, whose a and b are None.
    A body reads t only through sn and cs, so a field with w == 0 never
    reads t: the assumption audit evaluates such fields once per state,
    not at every time sample.
    """

    body: tuple[str, ...]
    a: float | None = None
    b: float | None = None
    c: object = None
    w: float = 0.0

    bind = ("a, b, c, w = f.a, f.b, f.c, f.w",)

    def time(self, t: str) -> tuple[str, ...]:
        """The lines that set the stage time ts to t and the dither values
        at ts, for a dithered field (w != 0); a field blind to time needs none."""
        dither = ("wt = w * ts", "sn = sin(wt)", "cs = cos(wt)")
        return (f"ts = {t}", *dither) if self.w != 0.0 else ()


# The call form of a FusedField: s, t -> the `out` values of its body.
_CALL = """\
def bind(f):
    {bind}
    def field(s, t):
        {unpack}
        {time}
        {body}
        {out}
    return field
"""


def _compile(fused: FusedField, out: str, unpack: str = "y, k = s") -> Callable:
    """The call form s, t -> out of fused, with its constants bound and
    `fused` attached as `.fused` for `integrate.simulate` and the audit;
    `unpack` sets y and k from s, by default a (y, k) tuple."""
    time, ret = fused.time("t"), (f"return {out}",)
    source = _fill(_CALL, bind=fused.bind, unpack=(unpack,), time=time, body=fused.body, out=ret)
    env = dict(sin=math.sin, cos=math.cos, stack=np.stack, zeros_like=np.zeros_like)
    field = _define(source, "bind", **env)(fused)
    field.fused = fused
    return field


def _array_call(fused: FusedField) -> Callable:
    """The call form x (..., 2), t -> (..., 2) of fused, whose body sets
    dy and dk, row by row as on one state."""
    unpack = "y, k = s[..., 0], s[..., 1]"
    return _compile(fused, "stack((dy, dk), axis=-1)", unpack)


def _law_field(spec: ControllerSpec, p: PlantParams | None = None) -> FusedField:
    """spec's table law with its constant c and dither frequency w bound;
    given a plant p, the closed loop, which also binds p's a and b."""
    v = spec.variant
    if v in DITHERED_VARIANTS:
        c, w = math.sqrt(spec.omega), spec.omega
    else:
        c, w = (spec.nussbaum_fn if v is ControllerVariant.NUSSBAUM else spec.sign_b), 0.0
    law = FusedField(_LAW_SOURCE[v], c=c, w=w)
    if p is not None:
        law = law._replace(body=(*law.body, "dy = a * y + b * u"), a=p.a, b=p.b)
    return law


def _design_split(p: PlantParams, variant: ControllerVariant) -> tuple[Callable, ...]:
    """The closed loop of a dithered table law split into drift, sine and
    cosine dither fields, as array calls x (..., 2), t -> (..., 2).

    The drift is the y-rate of the averaged field, the plant under the
    dither-free input -k*y. The fields are the law's input at unit sine
    dither, fed through b, and its gain rate at unit cosine dither; these
    dither coefficients depend on y only, so they are taken at k = 0. No
    body binds a dither frequency (w = 0), so none of them reads t.
    """
    law = _LAW_SOURCE[variant]
    bodies = (
        (_AVERAGED_SOURCE[0], "dk = zeros_like(y)"),
        ("k = 0.0", "sn, cs = 1.0, 0.0", *law, "dy = b * u", "dk = zeros_like(y)"),
        ("k = 0.0", "sn, cs = 0.0, 1.0", *law, "dy = zeros_like(y)"),
    )
    return tuple(_array_call(FusedField(body, p.a, p.b, 1.0)) for body in bodies)


# -- State-typed law and closed-loop right-hand side ------------------------


def control(spec: ControllerSpec, s: State, t: float) -> tuple[float, float]:
    """Input u and gain rate dk of spec's law at state s and time t.
    Plant-blind: it reads nothing but the ControllerSpec."""
    return _compile(_law_field(spec), "u, dk")(s.as_tuple(), t)


def rhs(p: PlantParams, spec: ControllerSpec, s: State, t: float) -> tuple[float, float]:
    """Closed-loop rates (dy, dk) of plant p under spec's law, with
    dy = a*y + b*u: the `closed_loop` field at s and t."""
    return closed_loop(p, spec)[0](s.as_tuple(), t)


def lie_bracket_rhs(p: PlantParams, s: State) -> tuple[float, float]:
    """Averaged system for both dithered designs.

    dy = (a - b*k)*y, dk = b*y^2. Time-invariant; all points with y = 0
    are equilibria, and trajectories with y != 0 move along circular arcs
    centered at (0, a/b).
    """
    return lie_bracket_loop(p)(s.as_tuple(), 0.0)


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


def polar_lbs_rhs(p: PlantParams, ps: PolarState) -> tuple[float, float]:
    """Averaged system in polar coordinates: dr = 0, dphi = b*r*cos(phi).

    The zero radial rate is the conservation law behind the circular
    averaged orbits.
    """
    return (0.0, p.b * ps.r * math.cos(ps.phi))


# -- tuple-state callables for the integrators -------------------------------

Rhs2 = Callable[[tuple[float, float], float], tuple[float, float]]
InputFn = Callable[[tuple[float, float], float], float]


def closed_loop(p: PlantParams, spec: ControllerSpec) -> tuple[Rhs2, InputFn]:
    """Bind plant and controller into plain-tuple callables.

    Returns (rhs, control) where rhs((y, k), t) -> (dy, dk) and
    control((y, k), t) -> u, both compiled from one FusedField. These
    avoid per-step dataclass construction and are what the fixed-step
    integrators consume.
    """
    fused = _law_field(spec, p)
    return _compile(fused, "dy, dk"), _compile(fused, "u")


def lie_bracket_loop(p: PlantParams) -> Rhs2:
    """Averaged system as a plain-tuple callable for the integrators."""
    return _compile(FusedField(_AVERAGED_SOURCE, p.a, p.b), "dy, dk")


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
    y0 = 0 is an equilibrium and stays put. An infinite time gives the
    limit point; a non-finite t0 or a NaN time is a ValueError.
    """
    times = np.asarray(times, dtype=float)
    if not math.isfinite(t0) or np.isnan(times).any():
        raise ValueError("lie_bracket_flow: t0 must be finite and no time may be NaN")
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
    about (0, a/b), as a plain-tuple callable: the `closed_loop` field
    through `_polar_transport`. It takes (r, phi) tuples, not PolarState,
    so an integrator that momentarily steps r below zero is not rejected;
    call it as polar_closed_loop(p, omega)(ps.as_tuple(), t) for a
    PolarState ps. At r = 0 the angle is undefined: ValueError."""
    rhs, _ = closed_loop(p, ControllerSpec(ControllerVariant.PROPOSED, omega=omega))
    return _polar_transport(p, rhs)


def _polar_transport(p: PlantParams, field: Rhs2) -> Rhs2:
    """A field of (y, k) as rates of (r, phi) about (0, a/b), where
    y = r*cos(phi) and k = a/b + r*sin(phi)."""
    center = p.center

    def rhs(s: tuple[float, float], t: float) -> tuple[float, float]:
        r, phi = s
        if r == 0.0:
            raise ValueError("polar field: the angle is undefined at the center (0, a/b), r = 0")
        cp, sp = math.cos(phi), math.sin(phi)
        dy, dk = field((r * cp, r * sp + center), t)
        return (cp * dy + sp * dk, (cp * dk - sp * dy) / r)

    return rhs
