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

with rho = a - b*k evaluated at the step start. This module stores the
monomials of the 61 words whose update does not vanish. TABLE holds a
row for each of the 120 words of length 1..4: a word led by 2 moves k,
any other word moves y, and the words not stored get empty rows. The
row-by-row audit (symbolic fields times grid-quadrature integrals,
recomputed from scratch) lives in the test suite.

The powers of (omega*T) equal (2*pi*n)^e2pi exactly for whole-period
steps, which is why one table covers any whole number of periods.

The series stepper binds a run's monomials straight from these exact
(Fraction) rows, converting them to float once per run; see
`integrate.chen_fliess_step`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "Mono",
    "ChenFliessTerm",
    "TABLE",
    "rows_for_order",
]


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


def _m(c: int | str, eb: int, ey: int, er: int, eT: int | str, e2pi: int | str = 0) -> Mono:
    return Mono(Fraction(c), eb, ey, er, Fraction(eT), Fraction(e2pi))


# Every word of length 1..4 over the three channels, in table order.
_WORDS = tuple(
    "".join(letters) for n in (1, 2, 3, 4) for letters in itertools.product("012", repeat=n)
)

# Pure powers of the drift letter: the Taylor tail of the averaged flow.
# Excluded from default truncations so that order 1 reproduces an explicit
# Euler step of the averaged system exactly; see rows_for_order.
DRIFT_TAYLOR_WORDS = frozenset(w for w in _WORDS if len(w) >= 2 and set(w) == {"0"})

# The update monomials of every word whose update does not vanish.
_UPDATES: dict[str, tuple[Mono, ...]] = {
    "0": (_m(1, 0, 1, 1, 1),),
    "00": (_m("1/2", 0, 1, 2, 2),),
    "01": (_m(-1, 1, 1, 1, "3/2", "-1/2"),),
    "10": (_m(1, 1, 1, 1, "3/2", "-1/2"),),
    "21": (_m(1, 1, 2, 0, 1),),
    "000": (_m("1/6", 0, 1, 3, 3),),
    "001": (_m("-1/2", 1, 1, 2, "5/2", "-1/2"),),
    "002": (_m(-2, 1, 3, 1, "5/2", "-3/2"),),
    "011": (_m("3/4", 2, 1, 1, 2, -1),),
    "012": (_m("1/4", 2, 3, 0, 2),),
    "020": (_m(6, 1, 3, 1, "5/2", "-3/2"),),
    "021": (_m("-3/4", 2, 3, 0, 2),),
    "100": (_m("1/2", 1, 1, 2, "5/2", "-1/2"),),
    "101": (_m("-3/2", 2, 1, 1, 2, -1),),
    "110": (_m("3/4", 2, 1, 1, 2, -1),),
    "200": (_m(4, 0, 2, 2, "5/2", "-3/2"),),
    "202": (_m(1, 1, 4, 0, 2, -1),),
    "210": (_m(1, 1, 2, 1, 2),),
    "211": (_m(-2, 2, 2, 0, "3/2", "-1/2"),),
    "0000": (_m("1/24", 0, 1, 4, 4),),
    "0001": (_m("-1/6", 1, 1, 3, "7/2", "-1/2"), _m(1, 1, 1, 3, "7/2", "-5/2")),
    "0002": (_m("-3/2", 1, 3, 2, "7/2", "-3/2"),),
    "0010": (_m(-3, 1, 1, 3, "7/2", "-5/2"),),
    "0011": (_m("3/8", 2, 1, 2, 3, -1),),
    "0012": (_m("-1/4", 2, 3, 1, 3, -2), _m("1/6", 2, 3, 1, 3)),
    "0020": (_m(3, 1, 3, 2, "7/2", "-3/2"),),
    "0021": (_m("-1/2", 2, 3, 1, 3), _m("21/4", 2, 3, 1, 3, -2)),
    "0022": (_m("1/4", 2, 5, 0, 3, -1),),
    "0100": (_m(3, 1, 1, 3, "7/2", "-5/2"),),
    "0101": (_m("-1/4", 2, 1, 2, 3, -1),),
    "0102": (_m("3/2", 2, 3, 1, 3, -2),),
    "0110": (_m("1/4", 2, 1, 2, 3, -1),),
    "0111": (_m("-5/12", 3, 1, 1, "5/2", "-3/2"),),
    "0120": (_m("1/4", 2, 3, 1, 3), _m("-3/2", 2, 3, 1, 3, -2)),
    "0121": (_m("-3/4", 3, 3, 0, "5/2", "-1/2"),),
    "0200": (_m("9/2", 1, 3, 2, "7/2", "-3/2"),),
    "0201": (_m("-81/4", 2, 3, 1, 3, -2),),
    "0202": (_m("-3/4", 2, 5, 0, 3, -1),),
    "0210": (_m("-3/4", 2, 3, 1, 3), _m("9/2", 2, 3, 1, 3, -2)),
    "0211": (_m("9/4", 3, 3, 0, "5/2", "-1/2"),),
    "1000": (_m("1/6", 1, 1, 3, "7/2", "-1/2"), _m(-1, 1, 1, 3, "7/2", "-5/2")),
    "1001": (_m("-1/2", 2, 1, 2, 3, -1),),
    "1002": (_m(-3, 2, 3, 1, 3, -2),),
    "1010": (_m("-1/4", 2, 1, 2, 3, -1),),
    "1011": (_m("5/4", 3, 1, 1, "5/2", "-3/2"),),
    "1012": (_m("1/4", 3, 3, 0, "5/2", "-1/2"),),
    "1020": (_m("27/4", 2, 3, 1, 3, -2),),
    "1021": (_m("-3/4", 3, 3, 0, "5/2", "-1/2"),),
    "1100": (_m("3/8", 2, 1, 2, 3, -1),),
    "1101": (_m("-5/4", 3, 1, 1, "5/2", "-3/2"),),
    "1110": (_m("5/12", 3, 1, 1, "5/2", "-3/2"),),
    "2000": (_m(4, 0, 2, 3, "7/2", "-3/2"),),
    "2001": (_m(-12, 1, 2, 2, 3, -2),),
    "2010": (_m(6, 1, 2, 2, 3, -2),),
    "2012": (_m(2, 2, 4, 0, "5/2", "-3/2"),),
    "2020": (_m(2, 1, 4, 1, 3, -1),),
    "2021": (_m(-8, 2, 4, 0, "5/2", "-3/2"),),
    "2100": (_m("2/3", 1, 2, 2, 3), _m(-1, 1, 2, 2, 3, -2)),
    "2101": (_m(-2, 2, 2, 1, "5/2", "-1/2"),),
    "2102": (_m(-2, 2, 4, 0, "5/2", "-3/2"),),
    "2111": (_m("5/2", 3, 2, 0, 2, -1),),
}

if not _UPDATES.keys() <= set(_WORDS):
    raise AssertionError("stored words must have length 1..4 over the letters 0, 1, 2")

TABLE: tuple[ChenFliessTerm, ...] = tuple(
    ChenFliessTerm(w, **{"k_terms" if w[0] == "2" else "y_terms": _UPDATES.get(w, ())})
    for w in _WORDS
)

# The truncation orders: order d keeps the words of length <= d+1.
_ORDERS = (0, 1, 2, 3)


def _check_order(order: int) -> None:
    if isinstance(order, bool) or not isinstance(order, int) or order not in _ORDERS:
        listed = ", ".join(map(str, _ORDERS[:-1]))
        raise ValueError(f"order must be {listed}, or {_ORDERS[-1]} (got {order!r})")


def rows_for_order(order: int, drift_taylor: bool = False) -> tuple[ChenFliessTerm, ...]:
    """Rows participating in a truncation of the given order.

    Order d keeps words of length <= d+1. The pure-drift words of length
    >= 2 are excluded by default: with them the truncation would append
    Taylor terms of the averaged flow, and order 1 is then no longer an
    exact Euler step of the averaged system. Pass drift_taylor=True to
    include them (the literal full truncation) when counting the table's
    words; the series stepper never does.
    """
    _check_order(order)
    return tuple(
        row
        for row in TABLE
        if len(row.word) <= order + 1
        and (drift_taylor or row.word not in DRIFT_TAYLOR_WORDS)
    )

