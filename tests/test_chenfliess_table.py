"""From-scratch audit of the whole-period series table.

Every stored row is re-derived independently: the word's field is built
symbolically (sympy jacobian chain over the three channel fields) and its
iterated dither integral by cumulative Simpson quadrature on a dense
grid. The product must match the stored monomials at two whole-period
configurations and three parameter draws. No closed form from the module
under test is reused here.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
import sympy as sp
from scipy.integrate import cumulative_simpson

from dithersim.cftable import DRIFT_TAYLOR_WORDS, TABLE, rows_for_order

Y, K, A, B = sp.symbols("y k a b", real=True)
FIELDS = {
    "0": sp.Matrix([(A - B * K) * Y, 0]),
    "1": sp.Matrix([-B * Y, 0]),
    "2": sp.Matrix([0, Y**2]),
}
STATE = sp.Matrix([Y, K])

OMEGA = 4.0
PANELS_PER_PERIOD = 1 << 13

DRAWS = [
    {A: 1.3, B: -0.7, Y: 0.9, K: 0.4},
    {A: -0.5, B: 1.9, Y: -1.1, K: 0.8},
    {A: 2.0, B: 0.6, Y: 0.3, K: -1.5},
]


def _word_field(word: str) -> sp.Matrix:
    v = FIELDS[word[0]]
    for letter in word[1:]:
        v = v.jacobian(STATE) * FIELDS[letter]
    return sp.expand(v)


def _iterated_integrals(n_periods: int) -> tuple[float, dict[str, float]]:
    """End values of every word's iterated dither integral over n periods."""
    T = 2.0 * math.pi * n_periods / OMEGA
    npan = PANELS_PER_PERIOD * n_periods
    tau = np.linspace(0.0, T, npan + 1)
    dtau = T / npan
    sw = math.sqrt(OMEGA)
    u = {
        "0": np.ones_like(tau),
        "1": sw * np.sin(OMEGA * tau),
        "2": sw * np.cos(OMEGA * tau),
    }
    integrals: dict[str, np.ndarray] = {"": np.ones_like(tau)}
    for length in (1, 2, 3, 4):
        for row in TABLE:
            w = row.word
            if len(w) == length:
                integrals[w] = cumulative_simpson(
                    u[w[0]] * integrals[w[1:]], dx=dtau, initial=0.0
                )
    return T, {w: float(vals[-1]) for w, vals in integrals.items()}


def _stored_value(row, draw, T: float, wT: float) -> tuple[float, float]:
    out = [0.0, 0.0]
    for comp, monos in ((0, row.y_terms), (1, row.k_terms)):
        tot = 0.0
        for m in monos:
            tot += (
                float(m.c)
                * float(draw[B]) ** m.eb
                * float(draw[Y]) ** m.ey
                * float(draw[A] - draw[B] * draw[K]) ** m.er
                * T ** float(m.eT)
                * wT ** float(m.e2pi)
            )
        out[comp] = tot
    return out[0], out[1]


@pytest.fixture(scope="module")
def integral_configs():
    return [_iterated_integrals(1), _iterated_integrals(3)]


def test_every_row_matches_independent_derivation(integral_configs):
    mismatches = []
    for row in TABLE:
        w = row.word
        vf = sp.lambdify((A, B, Y, K), list(_word_field(w)), "math")
        dither_letters = sum(1 for ch in w if ch != "0")
        t_dim = len(w) - dither_letters / 2.0
        for T, integrals in integral_configs:
            wT = OMEGA * T
            for draw in DRAWS:
                vy, vk = vf(draw[A], draw[B], draw[Y], draw[K])
                oracle_y = vy * integrals[w]
                oracle_k = vk * integrals[w]
                got_y, got_k = _stored_value(row, draw, T, wT)
                # a vanishing integral leaves only quadrature residue, so
                # the comparison scale is dimensional, never the residue
                scale = max(1e-9, abs(vy), abs(vk)) * T**t_dim
                scale = max(scale, abs(oracle_y), abs(oracle_k), abs(got_y), abs(got_k))
                if (
                    abs(got_y - oracle_y) > 1e-7 * scale
                    or abs(got_k - oracle_k) > 1e-7 * scale
                ):
                    mismatches.append(w)
    assert sorted(set(mismatches)) == []


def test_table_enumerates_all_words_once():
    words = [row.word for row in TABLE]
    assert len(words) == 120
    assert len(set(words)) == 120
    expected = set()
    for length in (1, 2, 3, 4):
        frontier = [""]
        for _ in range(length):
            frontier = [w + ch for w in frontier for ch in "012"]
        expected.update(frontier)
    assert set(words) == expected


def test_table_equals_the_hand_written_rows():
    """The sha256 of repr(TABLE) recorded when every row, empty ones
    included, was still written out by hand."""
    digest = hashlib.sha256(repr(TABLE).encode()).hexdigest()
    assert digest == "2b5df2350751437adaf5c027a10b25a30b39842c2e971f5e5906282dc120edb8"


def test_drift_taylor_words_are_the_pure_drift_words():
    assert DRIFT_TAYLOR_WORDS == {"00", "000", "0000"}


def test_rows_move_exactly_one_component():
    for row in TABLE:
        assert not (row.y_terms and row.k_terms)
        if row.word[0] == "2":
            assert not row.y_terms
        else:
            assert not row.k_terms


def test_every_monomial_carries_output_factor():
    """p_y >= 1 everywhere is what preserves the y = 0 equilibria."""
    for row in TABLE:
        for m in (*row.y_terms, *row.k_terms):
            assert m.ey >= 1


def test_rows_for_order_selection():
    assert len(rows_for_order(0)) == 3
    assert len(rows_for_order(1)) == 11
    assert len(rows_for_order(2)) == 37
    assert len(rows_for_order(3)) == 117
    assert len(rows_for_order(1, drift_taylor=True)) == 12
    assert len(rows_for_order(3, drift_taylor=True)) == 120
    selected = {row.word for row in rows_for_order(3)}
    assert selected.isdisjoint(DRIFT_TAYLOR_WORDS)
    with pytest.raises(ValueError, match="order"):
        rows_for_order(4)
    with pytest.raises(ValueError, match="order"):
        rows_for_order(-1)
