"""Test-only reference for `check_assumptions`: the original per-point scan.

`check_assumptions` evaluates every norm family on the whole state mesh at
once. This module keeps the scan it replaced, one (time, grid point) pair
at a time with point-wise finite differences, so tests can assert that the
batched audit reproduces it byte for byte. It is deliberately slow and is
only run on small grids.

Products and norms are written here as left-to-right sums of Python
floats (`_matvec`, `_norm`), independently of the package's element-wise
numpy sums. numpy's `@` and `np.linalg.norm` go through BLAS, whose
kernels sum in an order of their own and can move the last bits.
"""

from __future__ import annotations

import math
import operator
from functools import reduce
from typing import Sequence

import numpy as np

from dithersim.averaging import (
    AffineSystem,
    AssumptionReport,
    _check_dither,
    _interaction_integral,
)


def _norm(v) -> float:
    """Euclidean (Frobenius) norm: squares summed left to right, then sqrt."""
    return math.sqrt(sum(c * c for c in np.asarray(v, float).ravel().tolist()))


def _matvec(m, v) -> np.ndarray:
    """m times v, each row's products summed left to right."""
    vs = np.asarray(v, float).tolist()
    return np.array([reduce(operator.add, map(operator.mul, row, vs)) for row in m.tolist()])


def fd_jacobian(f, x, t, step=None):
    x = np.asarray(x, dtype=float)
    h = step if step is not None else 1e-6 * (1.0 + _norm(x))
    n = x.size
    cols = []
    for d in range(n):
        e = np.zeros(n)
        e[d] = h
        cols.append((np.asarray(f(x + e, t), float) - np.asarray(f(x - e, t), float)) / (2.0 * h))
    return np.column_stack(cols)


def lie_bracket(f, g, x, t, step=None):
    x = np.asarray(x, dtype=float)
    jf = fd_jacobian(f, x, t, step)
    jg = fd_jacobian(g, x, t, step)
    return _matvec(jg, f(x, t)) - _matvec(jf, g(x, t))


def _directional_derivative(f, direction, x, t, step):
    v = np.asarray(direction(x, t), float)
    nv = _norm(v)
    if nv == 0.0:
        return np.zeros_like(np.asarray(f(x, t), float))
    e = (step / nv) * v
    return (np.asarray(f(x + e, t), float) - np.asarray(f(x - e, t), float)) * (nv / (2.0 * step))


class _NonFinite(Exception):
    pass


def reference_check_assumptions(
    sys: AffineSystem,
    region: Sequence[tuple[float, float]],
    *,
    grid: int = 50,
    time_samples: int = 20,
) -> AssumptionReport:
    a1 = [_check_dither(d) for d in sys.dithers]

    lo_hi = [(float(lo), float(hi)) for lo, hi in region]
    axes = [np.linspace(lo, hi, grid) for lo, hi in lo_hi]
    times = np.linspace(0.0, 2.0 * math.pi, time_samples)
    all_fields = [sys.drift, *sys.fields]
    nf = len(all_fields)

    best = -math.inf
    witness: dict = {}
    t_step = 1e-6

    def _consider(val, norm, i, j, x, t):
        nonlocal best, witness
        if not math.isfinite(val):
            best = math.inf
            witness = {"norm": norm, "i": i, "j": j, "x": [float(v) for v in x], "t": float(t)}
            raise _NonFinite
        if val > best:
            best = val
            witness = {"norm": norm, "i": i, "j": j, "x": [float(v) for v in x], "t": float(t)}

    mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    dim = mesh.shape[1]
    try:
        for t in times:
            t = float(t)
            for x in mesh:
                nx = _norm(x)
                h = 1e-6 * (1.0 + nx)
                houter = 1e-4 * (1.0 + nx)
                fvals = [np.asarray(f(x, t), float) for f in all_fields]
                jacs = [fd_jacobian(f, x, t, h) for f in all_fields]
                f_tp = [np.asarray(f(x, t + t_step), float) for f in all_fields]
                f_tm = [np.asarray(f(x, t - t_step), float) for f in all_fields]
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
                    _consider(_norm(fvals[i]), "field", i, None, x, t)
                    dt_f = (f_tp[i] - f_tm[i]) / (2.0 * t_step)
                    _consider(_norm(dt_f), "dt_field", i, None, x, t)
                    _consider(_norm(jacs[i]), "dx_field", i, None, x, t)
                for j in range(1, nf):
                    fj = all_fields[j]
                    jj_tp = fd_jacobian(fj, x, t + t_step, h)
                    jj_tm = fd_jacobian(fj, x, t - t_step, h)
                    jj_off = [
                        (fd_jacobian(fj, xp, t, h), fd_jacobian(fj, xm, t, h))
                        for xp, xm in x_off
                    ]
                    for i in range(nf):
                        dt_l = (_matvec(jj_tp, f_tp[i]) - _matvec(jj_tm, f_tm[i])) / (2.0 * t_step)
                        _consider(_norm(dt_l), "dt_lie", i, j, x, t)
                        cols = [
                            (
                                _matvec(jj_off[d][0], fi_off[i][d][0])
                                - _matvec(jj_off[d][1], fi_off[i][d][1])
                            )
                            / (2.0 * houter)
                            for d in range(dim)
                        ]
                        _consider(_norm(np.column_stack(cols)), "dx_lie", i, j, x, t)
    except _NonFinite:
        pass

    a2_bound = best if best > -math.inf else 0.0

    coarse = mesh[:: max(1, len(mesh) // 100)]
    a3_pairs: list[dict] = []
    a3_triples: list[dict] = []
    m = len(sys.fields)
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            psum = math.fsum((sys.dithers[i].exponent, sys.dithers[j].exponent))
            entry = {"i": i + 1, "j": j + 1, "exponent_sum": psum, "triggered": psum > 1.0}
            if not entry["triggered"]:
                entry["satisfied"] = True
                entry["reason"] = "vacuous"
            else:
                _, raw = _interaction_integral(sys.dithers[i], sys.dithers[j], 1.0)
                bracket_sup = max(
                    _norm(lie_bracket(sys.fields[i], sys.fields[j], x, 0.0))
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
                psum = math.fsum(
                    (sys.dithers[i].exponent, sys.dithers[j].exponent, sys.dithers[q].exponent)
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

                    def second(xx, tt):
                        def lf(zz, uu):
                            return _matvec(fd_jacobian(fj, zz, uu, 1e-6), fi(zz, uu))

                        return _directional_derivative(lf, fq, xx, tt, 1e-4)

                    sup = max(_norm(second(x, 0.0)) for x in coarse)
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
