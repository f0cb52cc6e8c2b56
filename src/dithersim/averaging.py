"""Averaging machinery for oscillatory control-affine systems.

A system here is dx/dt = f0(x,t) + sum_i fi(x,t) * w^{p_i} * u_i(k_i*w*t)
with bounded zero-mean 2*pi-periodic dithers u_i, rational frequency
multipliers k_i, and amplitude exponents p_i in (0, 1). For w -> inf the
trajectories approach those of the averaged system

    dx/dt = f0(x,t) + sum_{i<j} gamma_ij * [fi, fj](x,t),

where gamma_ij is an interaction coefficient of the dither pair and
[.,.] is the Lie bracket. `build_averaged_rhs` assembles that right-hand
side numerically, with no knowledge of any closed form, which makes it an
independent check of hand-derived averaged dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import cumulative_simpson, simpson

from .dynamics import _LAWS, ControllerVariant, _averaged_loop

__all__ = [
    "DitherSignal",
    "AffineSystem",
    "QuadratureError",
    "gamma_coefficient",
    "fd_jacobian",
    "lie_bracket",
    "build_averaged_rhs",
    "proposed_design_system",
    "swapped_design_system",
    "DitherCheck",
    "AssumptionReport",
    "check_assumptions",
]

Field2 = Callable[[np.ndarray, float], np.ndarray]


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested accuracy on its panel budget."""


@dataclass(frozen=True)
class DitherSignal:
    """One dither channel: waveform, frequency multiplier, amplitude exponent.

    fn is expected to be 2*pi-periodic with |fn| <= 1 and zero mean; those
    properties are *checked* by `check_assumptions`, not enforced here, so
    that deliberately broken signals can be constructed and diagnosed.
    fn should accept numpy arrays (compose it from numpy ufuncs).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    freq: Fraction = Fraction(1)
    exponent: float = 0.5

    def __post_init__(self) -> None:
        freq = Fraction(self.freq)
        object.__setattr__(self, "freq", freq)
        if freq <= 0:
            raise ValueError("DitherSignal: freq must be a positive rational")
        if not (0.0 < self.exponent < 1.0):
            raise ValueError("DitherSignal: exponent must lie in (0, 1)")

    @staticmethod
    def sine(freq: Fraction = Fraction(1), exponent: float = 0.5) -> "DitherSignal":
        return DitherSignal(np.sin, freq, exponent)

    @staticmethod
    def cosine(freq: Fraction = Fraction(1), exponent: float = 0.5) -> "DitherSignal":
        return DitherSignal(np.cos, freq, exponent)


@dataclass(frozen=True)
class AffineSystem:
    """Drift plus dither-modulated fields; fields map (x, t) -> dx."""

    drift: Field2
    fields: tuple[Field2, ...]
    dithers: tuple[DitherSignal, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "fields", tuple(self.fields))
        object.__setattr__(self, "dithers", tuple(self.dithers))
        if len(self.fields) != len(self.dithers):
            raise ValueError(
                "AffineSystem: need exactly one dither per field "
                f"(got {len(self.fields)} fields, {len(self.dithers)} dithers)"
            )


def _design_system(p, law) -> AffineSystem:
    """Split the closed loop of a dithered table law into drift and fields.

    The drift is the y-rate of the averaged field, the plant under the
    dither-free input -k*y. The fields are the law's input at unit sine
    dither, fed through b, and its gain rate at unit cosine dither; these
    dither coefficients depend on y only, so they are taken at k = 0. The
    fields evaluate on Python floats, where the arithmetic is the same as
    on numpy scalars but several times faster.
    """
    b = p.b
    averaged = _averaged_loop(p.a, b)

    def drift(x: np.ndarray, t: float) -> np.ndarray:
        return np.array([averaged(x.tolist(), t)[0], 0.0])

    def f_sin(x: np.ndarray, t: float) -> np.ndarray:
        return np.array([b * law(x.item(0), 0.0, 1.0, 1.0, 0.0)[0], 0.0])

    def f_cos(x: np.ndarray, t: float) -> np.ndarray:
        return np.array([0.0, law(x.item(0), 0.0, 1.0, 0.0, 1.0)[1]])

    return AffineSystem(drift, (f_sin, f_cos), (DitherSignal.sine(), DitherSignal.cosine()))


def proposed_design_system(p) -> AffineSystem:
    """Primary dither design rearranged into drift + dither-modulated fields.

    Channel 1 (sine) carries the input dither, channel 2 (cosine) the gain
    dither. Both amplitude exponents are 1/2, so the pair's interaction
    coefficient is frequency-independent.
    """
    return _design_system(p, _LAWS[ControllerVariant.PROPOSED])


def swapped_design_system(p) -> AffineSystem:
    """Role-swapped design: quadratic field on the input channel, linear on the gain."""
    return _design_system(p, _LAWS[ControllerVariant.SWAPPED])


# -- interaction coefficients -------------------------------------------------


def _common_period_multiple(freqs: Sequence[Fraction]) -> Fraction:
    """Smallest L making L*k integral for every frequency multiplier k.

    The common observation window is then T = (2*pi/omega) * L.
    """
    inv = [Fraction(1, 1) / Fraction(f) for f in freqs]
    num = 1
    den = None
    for q in inv:
        num = math.lcm(num, q.numerator)
        den = q.denominator if den is None else math.gcd(den, q.denominator)
    return Fraction(num, den)


def gamma_coefficient(
    ui: DitherSignal,
    uj: DitherSignal,
    omega: float,
    *,
    panels_per_period: int = 4096,
    tol: float = 1e-8,
) -> float:
    """Interaction coefficient of the ordered dither pair (inner ui, outer uj).

    gamma = (w^{p_i+p_j} / T) * int_0^T uj(k_j*w*th) int_0^th ui(k_i*w*ta) dta dth
    over the common period T of the two channels. Computed by a cumulative
    Simpson inner pass and a composite Simpson outer pass; a half-resolution
    repeat bounds the error (the pair is fourth-order, so the Richardson
    factor is 15) and failing the bound raises QuadratureError rather than
    returning a silently inaccurate value.
    """
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError("gamma_coefficient: omega must be a positive real")
    T, full = _interaction_integral(ui, uj, omega, panels_per_period)
    _, half = _interaction_integral(ui, uj, omega, panels_per_period, coarsen=2)
    err = abs(full - half) / 15.0
    if err > tol * max(1.0, abs(full)):
        raise QuadratureError(
            f"gamma_coefficient: estimated relative error {err:.3e} exceeds {tol:.1e}"
        )
    return omega ** (ui.exponent + uj.exponent) / T * full


def _interaction_integral(
    ui: DitherSignal, uj: DitherSignal, omega: float, panels_per_period: int, coarsen: int = 1
) -> tuple[float, float]:
    """Common period T of the pair at frequency omega and the raw integral
    int_0^T uj(k_j*w*th) int_0^th ui(k_i*w*ta) dta dth over it.

    The panel count is panels_per_period per common period, rounded up to
    a multiple of 4 and then divided by coarsen.
    """
    L = _common_period_multiple([ui.freq, uj.freq])
    T = 2.0 * math.pi * float(L) / omega
    n = panels_per_period * max(1, math.ceil(L))
    if n % 4:
        n += 4 - n % 4
    n //= coarsen
    theta = np.linspace(0.0, T, n + 1)
    inner = np.asarray(ui.fn(float(ui.freq) * omega * theta), dtype=float)
    anti = cumulative_simpson(inner, dx=T / n, initial=0.0)
    outer = np.asarray(uj.fn(float(uj.freq) * omega * theta), dtype=float)
    return T, float(simpson(outer * anti, dx=T / n))


# -- finite-difference geometry ----------------------------------------------


def fd_jacobian(f: Field2, x: np.ndarray, t: float, step: float | None = None) -> np.ndarray:
    """Central-difference Jacobian of f(., t) at x. Default step 1e-6*(1+||x||)."""
    x = np.asarray(x, dtype=float)
    h = step if step is not None else 1e-6 * (1.0 + float(np.linalg.norm(x)))
    n = x.size
    cols = []
    for d in range(n):
        e = np.zeros(n)
        e[d] = h
        cols.append((np.asarray(f(x + e, t), float) - np.asarray(f(x - e, t), float)) / (2.0 * h))
    return np.column_stack(cols)


def lie_bracket(
    f: Field2, g: Field2, x: np.ndarray, t: float, step: float | None = None
) -> np.ndarray:
    """[f, g](x, t) = Dg(x,t) f(x,t) - Df(x,t) g(x,t) by central differences."""
    x = np.asarray(x, dtype=float)
    jf = fd_jacobian(f, x, t, step)
    jg = fd_jacobian(g, x, t, step)
    return jg @ np.asarray(f(x, t), float) - jf @ np.asarray(g(x, t), float)


def build_averaged_rhs(sys: AffineSystem) -> Field2:
    """Assemble the averaged right-hand side of an oscillatory system.

    The interaction coefficients are evaluated at two well-separated
    frequencies; disagreement means the averaged system is not
    frequency-independent (exponent pair not summing to 1) and is refused.
    Brackets are evaluated by finite differences at call time, so the
    result is an oracle independent of any closed-form derivation.
    """
    pairs = []
    m = len(sys.fields)
    for i in range(m):
        for j in range(i + 1, m):
            g1 = gamma_coefficient(sys.dithers[i], sys.dithers[j], 1.0)
            g2 = gamma_coefficient(sys.dithers[i], sys.dithers[j], 400.0)
            if abs(g1 - g2) > 1e-8 * max(1.0, abs(g1)):
                raise ValueError(
                    "build_averaged_rhs: interaction coefficient of pair "
                    f"({i}, {j}) is frequency-dependent ({g1!r} vs {g2!r})"
                )
            pairs.append((i, j, g1))

    def rhs(x: np.ndarray, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.asarray(sys.drift(x, t), dtype=float).copy()
        for i, j, gamma in pairs:
            if gamma != 0.0:
                out += gamma * lie_bracket(sys.fields[i], sys.fields[j], x, t)
        return out

    return rhs


# -- assumption checking -------------------------------------------------------


@dataclass
class DitherCheck:
    """Numeric audit of one dither waveform on a dense phase grid."""

    sup: float
    bounded: bool
    period_defect: float
    periodic: bool
    mean: float
    zero_mean: bool

    @property
    def passed(self) -> bool:
        return self.bounded and self.periodic and self.zero_mean

    def to_dict(self) -> dict:
        return {
            "sup": self.sup,
            "bounded": self.bounded,
            "period_defect": self.period_defect,
            "periodic": self.periodic,
            "mean": self.mean,
            "zero_mean": self.zero_mean,
            "passed": self.passed,
        }


@dataclass
class AssumptionReport:
    """Grid-based verdict on the three averaging prerequisites.

    a2_bound is the largest of the five field/derivative norms over the
    sampled region (the constant the frequency thresholds scale with);
    a2_witness records where and for which norm it was attained.
    """

    a1: list[DitherCheck]
    a2_bound: float
    a2_witness: dict
    a3_pairs: list[dict] = field(default_factory=list)
    a3_triples: list[dict] = field(default_factory=list)

    @property
    def a1_passed(self) -> bool:
        return all(c.passed for c in self.a1)

    @property
    def a2_passed(self) -> bool:
        return math.isfinite(self.a2_bound)

    @property
    def a3_passed(self) -> bool:
        return all(e["satisfied"] for e in self.a3_pairs) and all(
            e["satisfied"] for e in self.a3_triples
        )

    @property
    def passed(self) -> bool:
        return self.a1_passed and self.a2_passed and self.a3_passed

    def to_dict(self) -> dict:
        return {
            "a1": [c.to_dict() for c in self.a1],
            "a1_passed": self.a1_passed,
            "a2_bound": self.a2_bound,
            "a2_witness": self.a2_witness,
            "a2_passed": self.a2_passed,
            "a3_pairs": self.a3_pairs,
            "a3_triples": self.a3_triples,
            "a3_passed": self.a3_passed,
            "passed": self.passed,
        }


def _check_dither(d: DitherSignal, phase_points: int) -> DitherCheck:
    phase = np.linspace(0.0, 2.0 * math.pi, phase_points, endpoint=False)
    vals = np.asarray(d.fn(phase), dtype=float)
    sup = float(np.max(np.abs(vals)))
    shifted = np.asarray(d.fn(phase + 2.0 * math.pi), dtype=float)
    period_defect = float(np.max(np.abs(shifted - vals)))
    # closed grid for Simpson; mean over one period
    phase_c = np.linspace(0.0, 2.0 * math.pi, phase_points + 1)
    vals_c = np.asarray(d.fn(phase_c), dtype=float)
    mean = float(simpson(vals_c, dx=2.0 * math.pi / phase_points) / (2.0 * math.pi))
    return DitherCheck(
        sup=sup,
        bounded=sup <= 1.0 + 1e-9,
        period_defect=period_defect,
        periodic=period_defect <= 1e-12,
        mean=mean,
        zero_mean=abs(mean) <= 1e-9,
    )


def _directional_derivative(
    f: Field2, direction: Field2, x: np.ndarray, t: float, step: float
) -> np.ndarray:
    """(Df)(x,t) applied to direction(x,t), by central differences."""
    v = np.asarray(direction(x, t), float)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return np.zeros_like(np.asarray(f(x, t), float))
    e = (step / nv) * v
    return (np.asarray(f(x + e, t), float) - np.asarray(f(x - e, t), float)) * (nv / (2.0 * step))


def check_assumptions(
    sys: AffineSystem,
    region: Sequence[tuple[float, float]],
    *,
    grid: int = 50,
    time_samples: int = 20,
    phase_points: int = 10_000,
) -> AssumptionReport:
    """Audit the averaging prerequisites on a compact box.

    A1: each dither is bounded by 1, 2*pi-periodic, and zero-mean on a
    dense phase grid. A2: the five norm families (fields, their time and
    state derivatives, and the same derivatives of the directional
    derivatives L_{f_i} f_j) are finite over a grid x time product; the
    max is reported with its witness. A3: for channel pairs whose
    exponents sum above 1 the pair's raw interaction integral must vanish
    or the pair's bracket must vanish on the grid; triples whose exponents
    sum to at least 2 need the second-level directional derivative to
    vanish. Pairs/triples below the thresholds are recorded as vacuous.
    """
    a1 = [_check_dither(d, phase_points) for d in sys.dithers]

    lo_hi = [(float(lo), float(hi)) for lo, hi in region]
    axes = [np.linspace(lo, hi, grid) for lo, hi in lo_hi]
    times = np.linspace(0.0, 2.0 * math.pi, time_samples)
    all_fields: list[Field2] = [sys.drift, *sys.fields]
    nf = len(all_fields)

    best = -math.inf
    witness: dict = {}
    t_step = 1e-6

    def _consider(val: float, norm: str, i: int, j: int | None, x: np.ndarray, t: float) -> None:
        nonlocal best, witness
        if not math.isfinite(val):
            best = math.inf
            witness = {"norm": norm, "i": i, "j": j, "x": [float(v) for v in x], "t": float(t)}
            raise _NonFinite
        if val > best:
            best = val
            witness = {"norm": norm, "i": i, "j": j, "x": [float(v) for v in x], "t": float(t)}

    class _NonFinite(Exception):
        pass

    mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    dim = mesh.shape[1]
    try:
        for t in times:
            t = float(t)
            for x in mesh:
                nx = float(np.linalg.norm(x))
                h = 1e-6 * (1.0 + nx)
                houter = 1e-4 * (1.0 + nx)
                fvals = [np.asarray(f(x, t), float) for f in all_fields]
                jacs = [fd_jacobian(f, x, t, h) for f in all_fields]
                f_tp = [np.asarray(f(x, t + t_step), float) for f in all_fields]
                f_tm = [np.asarray(f(x, t - t_step), float) for f in all_fields]
                # x-offsets reused by every L_{f_i} f_j outer Jacobian
                x_off = []
                for d in range(dim):
                    e = np.zeros(dim)
                    e[d] = houter
                    x_off.append((x + e, x - e))
                fi_off = [
                    [(np.asarray(f(xp, t), float), np.asarray(f(xm, t), float)) for xp, xm in x_off]
                    for f in all_fields
                ]
                for i in range(nf):
                    _consider(float(np.linalg.norm(fvals[i])), "field", i, None, x, t)
                    dt_f = (f_tp[i] - f_tm[i]) / (2.0 * t_step)
                    _consider(float(np.linalg.norm(dt_f)), "dt_field", i, None, x, t)
                    _consider(float(np.linalg.norm(jacs[i])), "dx_field", i, None, x, t)
                # L_{f_i} f_j = (Df_j) f_i for every field i and dither field j;
                # the j-indexed Jacobians are shared across i
                for j in range(1, nf):
                    fj = all_fields[j]
                    jj_tp = fd_jacobian(fj, x, t + t_step, h)
                    jj_tm = fd_jacobian(fj, x, t - t_step, h)
                    jj_off = [
                        (fd_jacobian(fj, xp, t, h), fd_jacobian(fj, xm, t, h))
                        for xp, xm in x_off
                    ]
                    for i in range(nf):
                        dt_l = (jj_tp @ f_tp[i] - jj_tm @ f_tm[i]) / (2.0 * t_step)
                        _consider(float(np.linalg.norm(dt_l)), "dt_lie", i, j, x, t)
                        cols = [
                            (jj_off[d][0] @ fi_off[i][d][0] - jj_off[d][1] @ fi_off[i][d][1])
                            / (2.0 * houter)
                            for d in range(dim)
                        ]
                        _consider(
                            float(np.linalg.norm(np.column_stack(cols))), "dx_lie", i, j, x, t
                        )
    except _NonFinite:
        pass

    a2_bound = best if best > -math.inf else 0.0

    # A3 on a coarser grid; these conditions are vacuous for the shipped
    # designs but must trigger for exponent choices that break scaling.
    coarse = mesh[:: max(1, len(mesh) // 100)]
    a3_pairs: list[dict] = []
    a3_triples: list[dict] = []
    m = len(sys.fields)
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            psum = sys.dithers[i].exponent + sys.dithers[j].exponent
            entry = {"i": i + 1, "j": j + 1, "exponent_sum": psum, "triggered": psum > 1.0}
            if not entry["triggered"]:
                entry["satisfied"] = True
                entry["reason"] = "vacuous"
            else:
                _, raw = _interaction_integral(sys.dithers[i], sys.dithers[j], 1.0, 4096)
                bracket_sup = max(
                    float(np.linalg.norm(lie_bracket(sys.fields[i], sys.fields[j], x, 0.0)))
                    for x in coarse
                )
                entry["raw_integral"] = raw
                entry["bracket_sup"] = bracket_sup
                entry["satisfied"] = abs(raw) <= 1e-9 or bracket_sup <= 1e-9
                entry["reason"] = "integral" if abs(raw) <= 1e-9 else (
                    "bracket" if bracket_sup <= 1e-9 else "violated"
                )
            a3_pairs.append(entry)
    for i in range(m):
        for j in range(m):
            for q in range(m):
                psum = (
                    sys.dithers[i].exponent
                    + sys.dithers[j].exponent
                    + sys.dithers[q].exponent
                )
                entry = {
                    "i": i + 1,
                    "j": j + 1,
                    "m": q + 1,
                    "exponent_sum": psum,
                    "triggered": psum >= 2.0,
                }
                if not entry["triggered"]:
                    entry["satisfied"] = True
                    entry["reason"] = "vacuous"
                else:
                    fi, fj, fq = sys.fields[i], sys.fields[j], sys.fields[q]

                    def second(xx: np.ndarray, tt: float) -> np.ndarray:
                        def lf(zz: np.ndarray, uu: float) -> np.ndarray:
                            return fd_jacobian(fj, zz, uu, 1e-6) @ np.asarray(fi(zz, uu), float)

                        return _directional_derivative(lf, fq, xx, tt, 1e-4)

                    sup = max(float(np.linalg.norm(second(x, 0.0))) for x in coarse)
                    entry["second_level_sup"] = sup
                    entry["satisfied"] = sup <= 1e-9
                    entry["reason"] = "vanishes" if entry["satisfied"] else "violated"
                a3_triples.append(entry)

    return AssumptionReport(
        a1=a1,
        a2_bound=a2_bound,
        a2_witness=witness,
        a3_pairs=a3_pairs,
        a3_triples=a3_triples,
    )
