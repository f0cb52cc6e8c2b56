"""Whole-period functional-series stencil for the primary dither design.

The closed loop of the primary design can be written as a control-affine
system with three channels: 0 (drift, unit input), 1 (the sqrt(w)*sin(wt)
input dither), 2 (the sqrt(w)*cos(wt) gain dither). Iterating Picard style
over words in those channels gives, for a step spanning n whole dither
periods (duration T with omega*T = 2*pi*n), an exact update of the form

    x(T) = x(0) + sum_w V_w(x(0)) * I_w(T)

where V_w is the word's directional-derivative field and I_w its iterated
dither integral. Every product V_w * I_w with |w| <= 4 reduces to a short
sum of monomials

    c * b^eb * y^ey * rho^er * T^eT * (omega*T)^e2pi,

with rho = a - b*k evaluated at the step start. This module stores that
table. Words whose field or integral vanishes identically are kept as
explicit empty rows so the table can be audited one row at a time; the
audit (symbolic fields times grid-quadrature integrals, recomputed from
scratch) lives in the test suite.

The powers of (omega*T) equal (2*pi*n)^e2pi exactly for whole-period
steps, which is why one table covers any whole number of periods.

The exact (Fraction) rows are the single source of truth. The series
stepper evaluates a float form of them instead, derived once at import
for each of the eight (order, drift_taylor) selections: the y and k
monomials of the selected rows, in table order, as tuples
(c, eb, ey, er, eT, e2pi) with c, eT and e2pi converted to float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Union

__all__ = [
    "Mono",
    "ChenFliessTerm",
    "TABLE",
    "rows_for_order",
]

_Frac = Union[int, str, Fraction]


class Mono(NamedTuple):
    """One monomial c * b^eb * y^ey * rho^er * T^eT * (omega*T)^e2pi."""

    c: Fraction
    eb: int
    ey: int
    er: int
    eT: Fraction
    e2pi: Fraction


@dataclass(frozen=True)
class ChenFliessTerm:
    """Table row: word over {0,1,2} and its update monomials per component.

    For this design every word moves exactly one state component, so one
    of the tuples is always empty; rows whose update vanishes identically
    have both empty.
    """

    word: str
    y_terms: tuple[Mono, ...] = ()
    k_terms: tuple[Mono, ...] = ()


def _m(c: _Frac, eb: int, ey: int, er: int, eT: _Frac, e2pi: _Frac = 0) -> Mono:
    return Mono(Fraction(c), eb, ey, er, Fraction(eT), Fraction(e2pi))


def _y(word: str, *monos: Mono) -> ChenFliessTerm:
    return ChenFliessTerm(word, y_terms=tuple(monos))


def _k(word: str, *monos: Mono) -> ChenFliessTerm:
    return ChenFliessTerm(word, k_terms=tuple(monos))


def _zero(*words: str) -> tuple[ChenFliessTerm, ...]:
    return tuple(ChenFliessTerm(w) for w in words)


# Pure powers of the drift letter: the Taylor tail of the averaged flow.
# Excluded from default truncations so that order 1 reproduces an explicit
# Euler step of the averaged system exactly; see rows_for_order.
DRIFT_TAYLOR_WORDS = frozenset({"00", "000", "0000"})

TABLE: tuple[ChenFliessTerm, ...] = (
    # ---- length 1 ------------------------------------------------------
    _y("0", _m(1, 0, 1, 1, 1)),
    *_zero("1", "2"),
    # ---- length 2 ------------------------------------------------------
    _y("00", _m("1/2", 0, 1, 2, 2)),
    _y("01", _m(-1, 1, 1, 1, "3/2", "-1/2")),
    *_zero("02"),
    _y("10", _m(1, 1, 1, 1, "3/2", "-1/2")),
    *_zero("11", "12"),
    *_zero("20"),
    _k("21", _m(1, 1, 2, 0, 1)),
    *_zero("22"),
    # ---- length 3, leading letter 0 or 1 (y component) ------------------
    _y("000", _m("1/6", 0, 1, 3, 3)),
    _y("001", _m("-1/2", 1, 1, 2, "5/2", "-1/2")),
    _y("002", _m(-2, 1, 3, 1, "5/2", "-3/2")),
    *_zero("010"),
    _y("011", _m("3/4", 2, 1, 1, 2, -1)),
    _y("012", _m("1/4", 2, 3, 0, 2)),
    _y("020", _m(6, 1, 3, 1, "5/2", "-3/2")),
    _y("021", _m("-3/4", 2, 3, 0, 2)),
    *_zero("022"),
    _y("100", _m("1/2", 1, 1, 2, "5/2", "-1/2")),
    _y("101", _m("-3/2", 2, 1, 1, 2, -1)),
    *_zero("102"),
    _y("110", _m("3/4", 2, 1, 1, 2, -1)),
    *_zero("111", "112", "120", "121", "122"),
    # ---- length 3, leading letter 2 (k component) ------------------------
    _k("200", _m(4, 0, 2, 2, "5/2", "-3/2")),
    *_zero("201"),
    _k("202", _m(1, 1, 4, 0, 2, -1)),
    _k("210", _m(1, 1, 2, 1, 2)),
    _k("211", _m(-2, 2, 2, 0, "3/2", "-1/2")),
    *_zero("212", "220", "221", "222"),
    # ---- length 4, leading letter 0 (y component) ------------------------
    _y("0000", _m("1/24", 0, 1, 4, 4)),
    _y("0001", _m("-1/6", 1, 1, 3, "7/2", "-1/2"), _m(1, 1, 1, 3, "7/2", "-5/2")),
    _y("0002", _m("-3/2", 1, 3, 2, "7/2", "-3/2")),
    _y("0010", _m(-3, 1, 1, 3, "7/2", "-5/2")),
    _y("0011", _m("3/8", 2, 1, 2, 3, -1)),
    _y("0012", _m("-1/4", 2, 3, 1, 3, -2), _m("1/6", 2, 3, 1, 3)),
    _y("0020", _m(3, 1, 3, 2, "7/2", "-3/2")),
    _y("0021", _m("-1/2", 2, 3, 1, 3), _m("21/4", 2, 3, 1, 3, -2)),
    _y("0022", _m("1/4", 2, 5, 0, 3, -1)),
    _y("0100", _m(3, 1, 1, 3, "7/2", "-5/2")),
    _y("0101", _m("-1/4", 2, 1, 2, 3, -1)),
    _y("0102", _m("3/2", 2, 3, 1, 3, -2)),
    _y("0110", _m("1/4", 2, 1, 2, 3, -1)),
    _y("0111", _m("-5/12", 3, 1, 1, "5/2", "-3/2")),
    *_zero("0112"),
    _y("0120", _m("1/4", 2, 3, 1, 3), _m("-3/2", 2, 3, 1, 3, -2)),
    _y("0121", _m("-3/4", 3, 3, 0, "5/2", "-1/2")),
    *_zero("0122"),
    _y("0200", _m("9/2", 1, 3, 2, "7/2", "-3/2")),
    _y("0201", _m("-81/4", 2, 3, 1, 3, -2)),
    _y("0202", _m("-3/4", 2, 5, 0, 3, -1)),
    _y("0210", _m("-3/4", 2, 3, 1, 3), _m("9/2", 2, 3, 1, 3, -2)),
    _y("0211", _m("9/4", 3, 3, 0, "5/2", "-1/2")),
    *_zero("0212", "0220", "0221", "0222"),
    # ---- length 4, leading letter 1 (y component) ------------------------
    _y("1000", _m("1/6", 1, 1, 3, "7/2", "-1/2"), _m(-1, 1, 1, 3, "7/2", "-5/2")),
    _y("1001", _m("-1/2", 2, 1, 2, 3, -1)),
    _y("1002", _m(-3, 2, 3, 1, 3, -2)),
    _y("1010", _m("-1/4", 2, 1, 2, 3, -1)),
    _y("1011", _m("5/4", 3, 1, 1, "5/2", "-3/2")),
    _y("1012", _m("1/4", 3, 3, 0, "5/2", "-1/2")),
    _y("1020", _m("27/4", 2, 3, 1, 3, -2)),
    _y("1021", _m("-3/4", 3, 3, 0, "5/2", "-1/2")),
    *_zero("1022"),
    _y("1100", _m("3/8", 2, 1, 2, 3, -1)),
    _y("1101", _m("-5/4", 3, 1, 1, "5/2", "-3/2")),
    *_zero("1102"),
    _y("1110", _m("5/12", 3, 1, 1, "5/2", "-3/2")),
    *_zero("1111", "1112", "1120", "1121", "1122"),
    *_zero("1200", "1201", "1202", "1210", "1211", "1212", "1220", "1221", "1222"),
    # ---- length 4, leading letter 2 (k component) -------------------------
    _k("2000", _m(4, 0, 2, 3, "7/2", "-3/2")),
    _k("2001", _m(-12, 1, 2, 2, 3, -2)),
    *_zero("2002"),
    _k("2010", _m(6, 1, 2, 2, 3, -2)),
    *_zero("2011"),
    _k("2012", _m(2, 2, 4, 0, "5/2", "-3/2")),
    _k("2020", _m(2, 1, 4, 1, 3, -1)),
    _k("2021", _m(-8, 2, 4, 0, "5/2", "-3/2")),
    *_zero("2022"),
    _k("2100", _m("2/3", 1, 2, 2, 3), _m(-1, 1, 2, 2, 3, -2)),
    _k("2101", _m(-2, 2, 2, 1, "5/2", "-1/2")),
    _k("2102", _m(-2, 2, 4, 0, "5/2", "-3/2")),
    *_zero("2110"),
    _k("2111", _m("5/2", 3, 2, 0, 2, -1)),
    *_zero("2112", "2120", "2121", "2122"),
    *_zero("2200", "2201", "2202", "2210", "2211", "2212", "2220", "2221", "2222"),
)

if len({row.word for row in TABLE}) != 120 or len(TABLE) != 120:  # every word of length 1..4, once
    raise AssertionError("stencil table must hold exactly the 120 words of length 1..4")


def _check_order(order: int) -> None:
    if isinstance(order, bool) or not isinstance(order, int) or order not in (0, 1, 2, 3):
        raise ValueError(f"order must be 0, 1, 2, or 3 (got {order!r})")


def rows_for_order(order: int, drift_taylor: bool = False) -> tuple[ChenFliessTerm, ...]:
    """Rows participating in a truncation of the given order.

    Order d keeps words of length <= d+1. The pure-drift words of length
    >= 2 are excluded by default: with them the truncation would append
    Taylor terms of the averaged flow, and order 1 is then no longer an
    exact Euler step of the averaged system. Pass drift_taylor=True to
    include them (the literal full truncation).
    """
    _check_order(order)
    return tuple(
        row
        for row in TABLE
        if len(row.word) <= order + 1
        and (drift_taylor or row.word not in DRIFT_TAYLOR_WORDS)
    )


FloatMono = tuple[float, int, int, int, float, float]
FloatTerms = tuple[tuple[FloatMono, ...], tuple[FloatMono, ...]]


def _float_monos(monos: Iterable[Mono]) -> tuple[FloatMono, ...]:
    return tuple((float(m.c), m.eb, m.ey, m.er, float(m.eT), float(m.e2pi)) for m in monos)


def _float_form(order: int, drift_taylor: bool) -> FloatTerms:
    rows = rows_for_order(order, drift_taylor=drift_taylor)
    return (
        _float_monos(m for row in rows for m in row.y_terms),
        _float_monos(m for row in rows for m in row.k_terms),
    )


_FLOAT_TERMS = {
    (order, taylor): _float_form(order, taylor)
    for order in (0, 1, 2, 3)
    for taylor in (False, True)
}


def _float_terms(order: int, drift_taylor: bool = False) -> FloatTerms:
    """The y and the k monomials of rows_for_order(order, drift_taylor), in
    table order and in float form (see the module docstring)."""
    _check_order(order)
    return _FLOAT_TERMS[order, bool(drift_taylor)]
