"""Averaging machinery for oscillatory control-affine systems.

A system here is dx/dt = f0(x,t) + sum_i fi(x,t) * w^{p_i} * u_i(k_i*w*t)
with bounded zero-mean 2*pi-periodic dithers u_i, positive integer
frequency multipliers k_i of the base frequency w, and amplitude exponents
p_i in (0, 1). Rational multipliers n_i/q are the integers n_i over the
base frequency w/q, with the factor q^{p_i} of w^{p_i} folded into fi.
For w -> inf the trajectories approach those of the averaged system

    dx/dt = f0(x,t) + sum_{i<j} gamma_ij * [fi, fj](x,t),

where gamma_ij is an interaction coefficient of the dither pair and
[.,.] is the Lie bracket. `build_averaged_rhs` assembles that right-hand
side numerically, with no knowledge of any closed form, which makes it an
independent check of hand-derived averaged dynamics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dynamics import ControllerVariant, _design_split

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
    """Quadrature failed to reach its accuracy bound on its panel budget."""


@dataclass(frozen=True)
class DitherSignal:
    """One dither channel: waveform, frequency multiplier, amplitude exponent.

    fn is expected to be 2*pi-periodic with |fn| <= 1 and zero mean; those
    properties are *checked* by `check_assumptions`, not enforced here, so
    that deliberately broken signals can be constructed and diagnosed.
    fn should accept numpy arrays (compose it from numpy ufuncs).
    freq is a positive integer: the channel's phase at time t is freq*w*t.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    freq: int = 1
    exponent: float = 0.5

    def __post_init__(self) -> None:
        if isinstance(self.freq, bool) or not isinstance(self.freq, int) or self.freq < 1:
            raise ValueError("DitherSignal: freq must be a positive integer")
        if not (0.0 < self.exponent < 1.0):
            raise ValueError("DitherSignal: exponent must lie in (0, 1)")

    @staticmethod
    def sine(freq: int = 1, exponent: float = 0.5) -> "DitherSignal":
        return DitherSignal(np.sin, freq, exponent)

    @staticmethod
    def cosine(freq: int = 1, exponent: float = 0.5) -> "DitherSignal":
        return DitherSignal(np.cos, freq, exponent)


@dataclass(frozen=True)
class AffineSystem:
    """Drift plus dither-modulated fields; fields map (x, t) -> dx.

    Each field takes states x of shape (..., dim) and a scalar time t and
    returns an array of the same shape, one row per state, computed row by
    row: `check_assumptions` calls it on stacked point sets (the state
    mesh, its offsets and their finite-difference moves) and takes each
    row to depend on that row's state alone.
    Point-wise calls (x of shape (dim,)) of `fd_jacobian`, `lie_bracket`
    and `build_averaged_rhs` also work with fields written for one point.
    """

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


def _design_system(p, variant: ControllerVariant) -> AffineSystem:
    """Split the closed loop of a dithered table law into drift and fields
    (see `dynamics._design_split`): the drift, the input dither on the sine
    channel and the gain dither on the cosine channel."""
    drift, *fields = _design_split(p, variant)
    return AffineSystem(drift, fields, (DitherSignal.sine(), DitherSignal.cosine()))


def proposed_design_system(p) -> AffineSystem:
    """Primary dither design rearranged into drift + dither-modulated fields.

    Channel 1 (sine) carries the input dither, channel 2 (cosine) the gain
    dither. Both amplitude exponents are 1/2, so the pair's interaction
    coefficient is frequency-independent.
    """
    return _design_system(p, ControllerVariant.PROPOSED)


def swapped_design_system(p) -> AffineSystem:
    """Role-swapped design: quadratic field on the input channel, linear on the gain."""
    return _design_system(p, ControllerVariant.SWAPPED)


# -- equal-spacing Simpson rules ----------------------------------------------
# Both copy the equal-spacing arithmetic of scipy.integrate's `simpson` and
# `cumulative_simpson` operation for operation, so results match bit for bit.


def _simpson(y: np.ndarray, dx: float) -> float:
    """Composite Simpson integral of samples y spaced dx apart (odd count >= 3)."""
    if len(y) < 3 or len(y) % 2 == 0:
        raise ValueError("_simpson: need an odd number of samples, at least 3")
    r = np.sum(y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    r *= dx / 3.0
    return r


def _cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Running Simpson integral from y[0] of samples y spaced dx apart (count >= 3).

    Each panel is integrated under the parabola through three neighbouring
    samples: the panel and the sample after it for even panels, the panel
    and the sample before it for odd panels and the last one. So even panel
    k and odd panel k + 1 share the samples k, k + 1, k + 2, and only the
    panels kept are computed. The result has one entry per sample and
    starts at 0.0.
    """
    n = len(y)
    if n < 3:
        raise ValueError("_cumulative_simpson: need at least 3 samples")
    c = dx / 3
    lo, mid, hi = y[0 : n - 2 : 2], y[1 : n - 1 : 2], y[2::2]
    sub = np.empty(n - 1)
    sub[:-1:2] = c * (5 * lo / 4 + 2 * mid - hi / 4)
    sub[1::2] = c * (5 * hi / 4 + 2 * mid - lo / 4)
    if n % 2 == 0:
        # the last panel, n - 2, is even but takes the parabola through the
        # sample before it
        sub[-1:] = c * (5 * y[-1:] / 4 + 2 * y[-2:-1] - y[-3:-2] / 4)
    res = np.cumsum(sub)
    # scipy adds its `initial` of 0.0 here, which turns a -0.0 into 0.0
    res += 0.0
    return np.concatenate(([0.0], res))


# -- interaction coefficients -------------------------------------------------


def gamma_coefficient(ui: DitherSignal, uj: DitherSignal, omega: float) -> float:
    """Interaction coefficient of the ordered dither pair (inner ui, outer uj).

    gamma = (w^{p_i+p_j} / T) * int_0^T uj(k_j*w*th) int_0^th ui(k_i*w*ta) dta dth
    over the common period T = 2*pi/(g*w), g the gcd of the multipliers
    (the base period 2*pi/w when one of them is 1). Computed on 4096
    panels per common period by a cumulative Simpson inner pass
    (`_cumulative_simpson`) and a composite Simpson outer pass
    (`_simpson`); a half-resolution repeat bounds the error (the pair is
    fourth-order, so the Richardson factor is 15) and an estimated
    relative error above 1e-8 raises QuadratureError rather than returning
    a silently inaccurate value, as does a non-finite integral or result
    (an omega so large or small that the period or the integrand's scale
    leaves the floats).
    """
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError("gamma_coefficient: omega must be a positive real")
    with np.errstate(all="ignore"):  # a non-finite value is refused below
        T, full = _interaction_integral(ui, uj, omega)
        _, half = _interaction_integral(ui, uj, omega, coarsen=2)
    try:
        gamma = omega ** (ui.exponent + uj.exponent) / T * full
    except OverflowError:
        gamma = math.inf
    if not (math.isfinite(full) and math.isfinite(half) and math.isfinite(gamma)):
        raise QuadratureError(f"gamma_coefficient: not finite at omega={omega!r}")
    err = abs(full - half) / 15.0
    if err > 1e-8 * max(1.0, abs(full)):
        raise QuadratureError(
            f"gamma_coefficient: estimated relative error {err:.3e} exceeds 1.0e-08"
        )
    return gamma


def _interaction_integral(
    ui: DitherSignal, uj: DitherSignal, omega: float, coarsen: int = 1
) -> tuple[float, float]:
    """Common period T = 2*pi * (1/g) / omega of the pair, g the gcd of the
    multipliers, and the raw integral int_0^T uj(k_j*w*th) int_0^th
    ui(k_i*w*ta) dta dth over it on 4096 // coarsen panels, an even count
    for the outer Simpson pass."""
    T = 2.0 * math.pi * (1 / math.gcd(ui.freq, uj.freq)) / omega
    n = 4096 // coarsen
    theta = np.linspace(0.0, T, n + 1)
    inner = np.asarray(ui.fn(ui.freq * omega * theta), dtype=float)
    anti = _cumulative_simpson(inner, T / n)
    outer = np.asarray(uj.fn(uj.freq * omega * theta), dtype=float)
    return T, float(_simpson(outer * anti, T / n))


# -- finite-difference geometry ----------------------------------------------


# Products and norms are element-wise numpy ops summed left to right, not
# BLAS or reduction calls, whose summation order depends on the host's
# kernel: each value is then the left-to-right sum of Python floats, on every
# host and for every batch shape.


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector products over the trailing axes, m (..., k, dim) and
    v (..., dim): m[..., 0] * v[..., None, 0] + m[..., 1] * v[..., None, 1]
    + ..., summed left to right."""
    out = m[..., 0] * v[..., None, 0]
    for d in range(1, m.shape[-1]):
        out += m[..., d] * v[..., None, d]
    return out


def _norm(v: np.ndarray, axes: int = 1) -> np.ndarray:
    """Euclidean norm over the trailing `axes` axes (Frobenius for matrices).

    The squares are summed left to right over the C-order flattening and
    the sum's square root is taken, so batched and point-wise norms agree
    bit for bit.
    """
    v = np.asarray(v, dtype=float)
    flat = v.reshape(v.shape[: v.ndim - axes] + (-1,))
    out = flat[..., 0] * flat[..., 0]
    for c in range(1, flat.shape[-1]):
        out += flat[..., c] * flat[..., c]
    return np.sqrt(out)


def _axis_moves(h: np.ndarray, dim: int) -> np.ndarray:
    """The central-difference offsets (2*dim, ..., dim) +h*e_0, -h*e_0,
    +h*e_1, ... of the steps h (...): adding -h*e_d is subtracting it, so
    x plus these offsets gives x +- h*e_d bit for bit."""
    e = np.zeros((dim, *np.shape(h), dim))
    e[np.arange(dim), ..., np.arange(dim)] = h
    return np.stack((e, -e), axis=1).reshape(-1, *e.shape[1:])


def _jacobian(moved: np.ndarray, step2: np.ndarray) -> np.ndarray:
    """`fd_jacobian` of a field from its values at the `_axis_moves` of a
    point set, with step2 = 2*step broadcasting against (..., N, dim_out).

    moved has shape (2*dim, ..., N, dim_out) in `_axis_moves` order; the
    result is C-ordered with shape (..., N, dim_out, dim). The quotients are
    written into their columns in place; a step of the full shape keeps
    numpy's loops flat.
    """
    v = moved.reshape((-1, 2) + moved.shape[1:])
    out = np.empty(moved.shape[1:] + (len(v),))
    np.divide(v[:, 0] - v[:, 1], step2, out=out.transpose(-1, *range(out.ndim - 1)))
    return out


def fd_jacobian(
    f: Field2, x: np.ndarray, t: float, step: float | np.ndarray | None = None
) -> np.ndarray:
    """Central-difference Jacobian of f(., t) at x of shape (..., dim).

    Returns shape (..., dim_out, dim). step is a scalar or one step per
    point; the default is 1e-6*(1+||x||) per point.
    """
    x = np.asarray(x, dtype=float)
    h = np.asarray(step if step is not None else 1e-6 * (1.0 + _norm(x)), dtype=float)
    moved = [np.asarray(f(x + move, t), float) for move in _axis_moves(h, x.shape[-1])]
    return _jacobian(np.stack(moved), (2.0 * h)[..., None])


def lie_bracket(f: Field2, g: Field2, x: np.ndarray, t: float) -> np.ndarray:
    """[f, g](x, t) = Dg(x,t) f(x,t) - Df(x,t) g(x,t) by central differences.

    x has shape (..., dim); the Jacobians take `fd_jacobian`'s default
    steps. Both products are summed left to right over the Jacobian
    columns (`_matvec`).
    """
    x = np.asarray(x, dtype=float)
    jf = fd_jacobian(f, x, t)
    jg = fd_jacobian(g, x, t)
    return _matvec(jg, np.asarray(f(x, t), float)) - _matvec(jf, np.asarray(g(x, t), float))


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
        return {**asdict(self), "passed": self.passed}


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
            **asdict(self),
            "a1": [c.to_dict() for c in self.a1],
            "a1_passed": self.a1_passed,
            "a2_passed": self.a2_passed,
            "a3_passed": self.a3_passed,
            "passed": self.passed,
        }


_A1_PHASE_POINTS = 10_000  # A1 phase samples per period; even, for Simpson's rule


def _check_dither(d: DitherSignal) -> DitherCheck:
    # the closed grid for Simpson's mean; its first _A1_PHASE_POINTS phases
    # give sup and, shifted by 2*pi, the period defect
    phase = np.linspace(0.0, 2.0 * math.pi, _A1_PHASE_POINTS + 1)
    vals = np.asarray(d.fn(phase), dtype=float)
    sup = float(np.max(np.abs(vals[:-1])))
    shifted = np.asarray(d.fn(phase[:-1] + 2.0 * math.pi), dtype=float)
    period_defect = float(np.max(np.abs(shifted - vals[:-1])))
    mean = float(_simpson(vals, 2.0 * math.pi / _A1_PHASE_POINTS) / (2.0 * math.pi))
    return DitherCheck(
        sup=sup,
        bounded=sup <= 1.0 + 1e-9,
        period_defect=period_defect,
        periodic=period_defect <= 1e-12,
        mean=mean,
        zero_mean=abs(mean) <= 1e-9,
    )


def _directional_derivative(
    f: Field2, v: np.ndarray, x: np.ndarray, t: float, step: float
) -> np.ndarray:
    """(Df)(x,t) applied to the direction values v, by central differences.

    x and v have shape (..., dim), one direction per state; states whose
    direction vanishes get zero.
    """
    nv = _norm(v)
    still = nv == 0.0
    scale = np.where(still, 1.0, nv)
    e = (step / scale)[..., None] * v
    diff = np.asarray(f(x + e, t), float) - np.asarray(f(x - e, t), float)
    return np.where(still[..., None], 0.0, diff * (scale / (2.0 * step))[..., None])


def _require_mesh_shape(f: Field2, name: str, mesh: np.ndarray, t: float) -> None:
    """Refuse a field that does not map the (N, dim) mesh to shape (N, dim)."""
    try:
        shape = np.shape(f(mesh, t))
    except (ValueError, TypeError, IndexError) as e:
        raise ValueError(
            f"check_assumptions: {name} cannot evaluate the state mesh of shape "
            f"{mesh.shape}; fields must take x of shape (..., dim)"
        ) from e
    if shape != mesh.shape:
        raise ValueError(
            f"check_assumptions: {name} maps the state mesh of shape {mesh.shape} to "
            f"shape {shape}; fields must return one row per state"
        )


_A2_BLOCK_ROWS = 512  # mesh states per block of the A2 scan; bounds its memory
_A2_TIME_STEP = 1e-6  # central-difference step of the A2 time derivatives


def _a2_block(x: np.ndarray, h: np.ndarray, houter: np.ndarray) -> tuple[np.ndarray, ...]:
    """What the A2 scan of the states x (N, dim) needs at every time: the
    point sets (S, N, dim) and the doubled steps 2*h and 2*houter broadcast
    to (N, dim), which keeps numpy's loops flat in `_jacobian`.

    The point sets are x, its h-moves, its outer offsets x +- houter*e_d
    and their h-moves, the last move-major so that each move spans every
    offset.
    """
    n, dim = x.shape
    moves = _axis_moves(h, dim)
    off = x + _axis_moves(houter, dim)
    pts = np.concatenate((x[None], x + moves, off, (off + moves[:, None]).reshape(-1, n, dim)))
    h2, houter2 = (np.repeat(2.0 * s[:, None], dim, axis=1) for s in (h, houter))
    return pts, h2, houter2


def _time_blind(fields: Sequence[Field2]) -> bool:
    """Whether every field is a compiled `FusedField` call that binds no
    dither frequency (w == 0) and so never reads t."""
    return all(getattr(getattr(f, "fused", None), "w", None) == 0.0 for f in fields)


def _a2_values(
    fields: Sequence[Field2], pts: np.ndarray, t: float, blind: bool
) -> list[list[np.ndarray]]:
    """The field values one time sample of the A2 scan needs on the
    `_a2_block` point sets pts (S, N, dim): [now, ahead, behind], each a
    list of one (sets, N, dim) array per field, fields[0] the drift.

    At t the norms need every point set; at t +- the time step only the
    states and their h-moves, a prefix of pts. Each field is called once
    per time value on the prefix it needs; fields `_time_blind` are
    called at t only, their values at t +- the time step being the
    prefixes of those at t.
    """
    _, n, dim = pts.shape
    n0, n1 = 1 + 2 * dim, 1 + 4 * dim
    flat = pts.reshape(-1, dim)

    def at(f: Field2, t: float, sets: int) -> np.ndarray:
        return np.asarray(f(flat[: sets * n], t), float).reshape(sets, n, dim)

    # the drift enters no Lie derivative as f_j, so it needs no moved offsets
    # and at t +- step only the states themselves
    now = [at(f, t, len(pts) if i else n1) for i, f in enumerate(fields)]
    if blind:
        near = [v[: n0 if i else 1] for i, v in enumerate(now)]
        return [now, near, near]
    return [
        now,
        [at(f, t + _A2_TIME_STEP, n0 if i else 1) for i, f in enumerate(fields)],
        [at(f, t - _A2_TIME_STEP, n0 if i else 1) for i, f in enumerate(fields)],
    ]


def _a2_norms(values: list[list[np.ndarray]], h2: np.ndarray, houter2: np.ndarray) -> np.ndarray:
    """The A2 norms (N, K) of one time sample on an `_a2_block` of N states
    from its `_a2_values`, columns in `check_assumptions`' label order.

    Every norm is a slice, difference quotient or left-to-right product
    (`_matvec`) of the values, with the arithmetic of `fd_jacobian` and
    `lie_bracket`.
    """
    now, ahead, behind = values
    nf = len(now)
    _, n, dim = now[0].shape
    n0, n1 = 1 + 2 * dim, 1 + 4 * dim
    out = np.empty((n, nf * (2 * nf + 1)))
    f_t, f_tp, f_tm = (np.stack([v[0] for v in vals]) for vals in values)
    f_off = np.stack([v[n0:n1] for v in now], axis=1)
    # (nf, N, k) views of out: (i, norm) columns, then (j, i, norm)
    field_cols = out[:, : 3 * nf].reshape(n, nf, 3).swapaxes(0, 1)
    lie_cols = out[:, 3 * nf :].reshape(n, nf - 1, nf, 2).transpose(1, 2, 0, 3)
    dt_field = (f_tp - f_tm) / (2.0 * _A2_TIME_STEP)
    dx_field = _jacobian(np.stack([v[1:n0] for v in now], axis=1), h2)
    np.stack((_norm(f_t), _norm(dt_field), _norm(dx_field, 2)), axis=-1, out=field_cols)

    def lie(moved: np.ndarray, fx: np.ndarray) -> np.ndarray:
        """L_{f_i} f_j = (Df_j) f_i for every f_i in fx."""
        return _matvec(_jacobian(moved, h2)[..., None, :, :, :], fx)

    for j in range(1, nf):
        dt_lie = (lie(ahead[j][1:], f_tp) - lie(behind[j][1:], f_tm)) / (2.0 * _A2_TIME_STEP)
        dx_lie = _jacobian(lie(now[j][n1:].reshape(2 * dim, 2 * dim, n, dim), f_off), houter2)
        np.stack((_norm(dt_lie), _norm(dx_lie, 2)), axis=-1, out=lie_cols[j - 1])
    return out


def _a2_scan(
    fields: Sequence[Field2], mesh: np.ndarray, times: np.ndarray, blind: bool
) -> tuple[float, dict]:
    """The A2 bound and witness of `check_assumptions` over the state mesh
    (N, dim) at the given times; fields[0] is the drift, and `blind` says
    that every field is `_time_blind`."""
    nf = len(fields)
    nx = _norm(mesh)
    h = 1e-6 * (1.0 + nx)
    houter = 1e-4 * (1.0 + nx)
    # (norm, i, j) of each column of a time sample's (N, K) norm table
    labels = [(norm, i, None) for i in range(nf) for norm in ("field", "dt_field", "dx_field")]
    labels += [
        (norm, i, j) for j in range(1, nf) for i in range(nf) for norm in ("dt_lie", "dx_lie")
    ]
    ncols = len(labels)

    def report(value: float, t: float, k: int) -> tuple[float, dict]:
        """value with the witness at time t and flat index k of the (N, K) table."""
        norm, i, j = labels[k % ncols]
        return value, {"norm": norm, "i": i, "j": j, "x": mesh[k // ncols].tolist(), "t": t}

    best = (-math.inf, 0.0, 0)
    for t in times.tolist():
        for lo in range(0, len(mesh), _A2_BLOCK_ROWS):
            b = slice(lo, lo + _A2_BLOCK_ROWS)
            pts, h2, houter2 = _a2_block(mesh[b], h[b], houter[b])
            norms = _a2_norms(_a2_values(fields, pts, t, blind), h2, houter2).ravel()
            bad = ~np.isfinite(norms)
            if bad.any():
                return report(math.inf, t, lo * ncols + int(np.argmax(bad)))
            k = int(np.argmax(norms))
            if norms[k] > best[0]:
                best = (float(norms[k]), t, lo * ncols + k)
    return report(*best)


def _a3_checks(sys: AffineSystem, coarse: np.ndarray) -> tuple[list[dict], list[dict]]:
    """The A3 pair and triple entries of `check_assumptions` on the states
    coarse. These conditions are vacuous for the shipped designs but must
    trigger for exponent choices that break scaling. Exponent sums are
    correctly rounded (fsum), so they and their verdict do not depend on
    the order of the channels."""
    a3_pairs: list[dict] = []
    a3_triples: list[dict] = []
    m = len(sys.fields)
    # [f_j, f_i] is -[f_i, f_j] term for term, so both orders of a pair have
    # the same bracket sup bit for bit; it is taken once per unordered pair.
    bracket_sups: dict[tuple[int, int], float] = {}
    for i, j in itertools.permutations(range(m), 2):
        psum = math.fsum(sys.dithers[n].exponent for n in (i, j))
        entry = {"i": i + 1, "j": j + 1, "exponent_sum": psum, "triggered": psum > 1.0}
        if not entry["triggered"]:
            entry.update(satisfied=True, reason="vacuous")
        else:
            _, raw = _interaction_integral(sys.dithers[i], sys.dithers[j], 1.0)
            pair = (min(i, j), max(i, j))
            if pair not in bracket_sups:
                bracket = lie_bracket(sys.fields[i], sys.fields[j], coarse, 0.0)
                bracket_sups[pair] = max(_norm(bracket).tolist())
            bracket_sup = bracket_sups[pair]
            reason = "integral" if abs(raw) <= 1e-9 else (
                "bracket" if bracket_sup <= 1e-9 else "violated"
            )
            entry.update(
                raw_integral=raw,
                bracket_sup=bracket_sup,
                satisfied=reason != "violated",
                reason=reason,
            )
        a3_pairs.append(entry)
    # each field that is the direction f_q of a triggered triple, at the states
    values: dict[int, np.ndarray] = {}
    for i, j in itertools.product(range(m), repeat=2):
        sums = [math.fsum(sys.dithers[n].exponent for n in (i, j, q)) for q in range(m)]
        hit = [q for q in range(m) if sums[q] >= 2.0]
        sups: dict[int, float] = {}
        if hit:
            fi, fj = sys.fields[i], sys.fields[j]

            def lf(zz: np.ndarray, uu: float) -> np.ndarray:
                return _matvec(fd_jacobian(fj, zz, uu, 1e-6), np.asarray(fi(zz, uu), float))

            for q in hit:
                if q not in values:
                    values[q] = np.asarray(sys.fields[q](coarse, 0.0), float)
            # the states once per triggered q, each copy moved along that f_q
            moved = _directional_derivative(
                lf,
                np.concatenate([values[q] for q in hit]),
                np.concatenate([coarse] * len(hit)),
                0.0,
                1e-4,
            )
            rows = _norm(moved).reshape(len(hit), len(coarse)).tolist()
            sups = {q: max(r) for q, r in zip(hit, rows)}
        for q, psum in enumerate(sums):
            entry = {"i": i + 1, "j": j + 1, "m": q + 1, "exponent_sum": psum}
            if q not in sups:
                entry.update(triggered=False, satisfied=True, reason="vacuous")
            else:
                sup = sups[q]
                entry.update(
                    triggered=True,
                    second_level_sup=sup,
                    satisfied=sup <= 1e-9,
                    reason="vanishes" if sup <= 1e-9 else "violated",
                )
            a3_triples.append(entry)
    return a3_pairs, a3_triples


def check_assumptions(
    sys: AffineSystem,
    region: Sequence[tuple[float, float]],
    *,
    grid: int = 50,
    time_samples: int = 20,
) -> AssumptionReport:
    """Audit the averaging prerequisites on a compact box.

    A1: each dither is bounded by 1, 2*pi-periodic, and zero-mean on a
    grid of 10,000 phases per period, from two calls: on the closed grid
    of 10,001 phases, whose first 10,000 give the bound, and on those
    shifted by 2*pi. A2: the five norm families (fields, their time and
    state derivatives, and the same derivatives of the directional
    derivatives L_{f_i} f_j) are finite over the grid of states times
    `time_samples` times on linspace(0, 2*pi, time_samples); the max is
    reported with its witness. That window is the same whatever the
    dither frequency or the period of a field's own t-dependence, so a
    field that reads t is bounded on [0, 2*pi] only. A3: for channel
    pairs whose exponents sum above 1 the pair's raw interaction integral
    must vanish or the pair's bracket must vanish on the grid; triples
    whose exponents sum to at least 2 need the second-level directional
    derivative to vanish. Pairs/triples below the thresholds are recorded
    as vacuous.
    A3 runs at t = 0 on every max(1, N // 100)-th of the N mesh states. Each
    triggered unordered pair is one `lie_bracket` call, whose sup both
    orders report; the raw integral is taken per order. The triggered triples
    (i, j, q) of one (i, j) are one `_directional_derivative` call: each
    field that is a triggered triple's direction f_q is evaluated once on
    the states, which are stacked once per such q and moved along the
    stacked values of f_q, so each row, and so each sup, is what a call
    on that q alone gives.

    The A2 scan runs time-major: at each time sample it takes the state
    mesh one block of `_A2_BLOCK_ROWS` states at a time. Per block it
    stacks the point sets the time sample needs: the states, their outer
    offsets x +- 1e-4*(1+|x|)*e_d, and all of those moved by
    +-1e-6*(1+|x|)*e_d for the Jacobians. Every field is called once at t
    on those sets and once at each of t +- 1e-6 on the states and their
    moves, 3 calls per field. Every norm is then a slice, difference
    quotient or product of those values with the arithmetic of
    `fd_jacobian` and `lie_bracket`, so it equals a point-wise scan's bit
    for bit. When every field is a compiled `FusedField` call with no
    dither frequency (w == 0), which never reads t, as the design splits
    of `proposed_design_system` and `swapped_design_system` are, only
    t = 0 is scanned: each block calls each field once, at t, takes the
    values at t +- 1e-6 as those at t and computes its norms once. Any
    other field, a closure wrapping such a call included, is called and
    normed at every time sample.
    Products and norms are sums of element-wise numpy ops in a fixed
    left-to-right order, with no BLAS call, so the report's bytes do not
    depend on the host's BLAS kernel. Fields must take x of shape
    (M, dim) and return shape (M, dim), row by row.

    The witness is the first maximiser in time-major, then point-major,
    then per-point order. The scan stops at the first non-finite norm in
    that order and reports the bound inf with that norm as the witness;
    no field is called at a later time sample or block.
    A region whose width hi - lo is not finite is refused (ValueError).
    Overflow and invalid values in the A1, A2 and A3 arithmetic raise no
    numpy warning; they show as non-finite checks and norms.
    """
    for name, n in (("grid", grid), ("time_samples", time_samples)):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"check_assumptions: {name} must be an integer, at least 1")
    lo_hi = [(float(lo), float(hi)) for lo, hi in region]
    if not lo_hi or not all(math.isfinite(hi - lo) for lo, hi in lo_hi):
        raise ValueError("check_assumptions: region must be a nonempty box of finite width")
    axes = [np.linspace(lo, hi, grid) for lo, hi in lo_hi]
    all_fields: list[Field2] = [sys.drift, *sys.fields]
    # fields that never read t have the same norms at every time sample, and a
    # later sample's equal maximum is no new witness: only t = 0 is scanned
    blind = _time_blind(all_fields)
    times = np.linspace(0.0, 2.0 * math.pi, 1 if blind else time_samples)

    mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    # overflow and invalid values show as non-finite results, not as warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a1 = [_check_dither(d) for d in sys.dithers]
        for i, f in enumerate(all_fields):
            name = "drift" if i == 0 else f"fields[{i - 1}]"
            _require_mesh_shape(f, name, mesh, float(times[0]))
        best, witness = _a2_scan(all_fields, mesh, times, blind)
        # A3 on a coarser grid
        a3_pairs, a3_triples = _a3_checks(sys, mesh[:: max(1, len(mesh) // 100)])

    return AssumptionReport(
        a1=a1,
        a2_bound=best,
        a2_witness=witness,
        a3_pairs=a3_pairs,
        a3_triples=a3_triples,
    )
