"""Scalars, t-polynomials, and the t-calculus of weighted q-series.

A q-series of weight w stands for sum_k c_k q^k t^(k-w) (see laxflow).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlax import (
    MatrixAlgebra,
    QSeries,
    RatMatrix,
    TPoly,
    ValuationError,
    dt_series,
    eval_tq,
    integrate_series,
    rational,
)
from qlax.algebra import rational_parts

from conftest import matrices, small_fractions

M1 = MatrixAlgebra(1)  # the rationals, as 1x1 matrices
M2 = MatrixAlgebra(2)


def test_rational_invariants():
    x = rational("6/4")
    assert (x.numerator, x.denominator) == (3, 2)
    y = rational("-3/6")
    assert (y.numerator, y.denominator) == (-1, 2)
    assert rational(5) == Fraction(5)
    assert rational("7") == 7


def test_rational_rejects_inexact():
    with pytest.raises(TypeError):
        rational(0.5)
    with pytest.raises(ValueError):
        rational("1.5")
    with pytest.raises(ValueError):
        rational("3/0")  # not a positive-denominator literal


def test_rational_parts_are_integers():
    assert rational_parts(" -6/4 ") == (-6, 4)  # RatMatrix.of reduces once per matrix
    assert rational_parts("7") == (7, 1) and rational_parts(5) == (5, 1)
    assert rational_parts(Fraction(-6, 4)) == (-3, 2)
    for bad, error in ((0.5, TypeError), (True, TypeError), (None, TypeError), ("2.5", ValueError), ("1/0", ValueError), ("1/-2", ValueError)):
        with pytest.raises(error):
            rational_parts(bad)
        with pytest.raises(error):
            rational(bad)


def scalar(c) -> RatMatrix:
    return RatMatrix.of([[c]])


def rat_poly(*coeffs) -> TPoly:
    return TPoly.of(M1, [scalar(c) for c in coeffs])


def test_canonical_strips_trailing_zeros():
    assert TPoly.of(M1, [M1.one, M1.zero, M1.zero]) == rat_poly(1)
    assert TPoly.of(M1, [M1.zero]) == TPoly.of(M1, [])
    assert rat_poly().degree == -1


def test_mul_identity_and_single_term():
    a = RatMatrix.of([[0, 1], [0, 0]])
    b = RatMatrix.of([[0, 0], [1, 0]])
    p = TPoly.of(M2, [M2.one, a])  # 1 + t*a
    assert p * TPoly.const(M2, M2.one) == p
    ta = TPoly.t_power(M2, a, 1)
    tb = TPoly.t_power(M2, b, 1)
    assert ta * tb == TPoly.t_power(M2, a * b, 2)
    # order preserved even though a*b != b*a
    assert a * b != b * a
    assert tb * ta == TPoly.t_power(M2, b * a, 2)


def test_mul_commutative_sanity():
    assert rat_poly(1, 1) * rat_poly(1, -1) == rat_poly(1, 0, -1)


def test_dt_examples():
    # weight 0 in, weight 1 out: the q^k coefficient goes from t^k to t^(k-1)
    a = RatMatrix.of([[1, 2], [3, 4]])
    b = RatMatrix.of([[0, 1], [1, 0]])
    assert dt_series(QSeries.constant(M2, 2, a)) == QSeries.zero(M2, 2)  # a
    assert dt_series(QSeries.term(M2, 2, a, 2)) == QSeries.term(M2, 2, a.scale(2), 2)  # a q^2 t^2
    p = QSeries.of(M2, [M2.one, a, b])  # 1 + a q t + b q^2 t^2
    assert dt_series(p) == QSeries.of(M2, [M2.zero, a, b.scale(2)])


def test_integrate_examples():
    # weight 1 in, weight 0 out: the integral from 0 to t
    a = RatMatrix.of([[1, 2], [3, 4]])
    assert integrate_series(QSeries.zero(M2, 2)) == QSeries.zero(M2, 2)
    assert integrate_series(QSeries.term(M2, 2, a, 1)) == QSeries.term(M2, 2, a, 1)  # a q -> a q t
    assert integrate_series(QSeries.term(M2, 2, a, 2)) == QSeries.term(  # a q^2 t -> a q^2 t^2 / 2
        M2, 2, a.scale(Fraction(1, 2)), 2
    )
    with pytest.raises(ValuationError):
        integrate_series(QSeries.constant(M2, 2, a))  # a / t has no polynomial integral


def test_eval_examples():
    a = RatMatrix.of([[1, 2], [3, 4]])
    b = RatMatrix.of([[0, 1], [1, 0]])
    assert eval_tq(QSeries.of(M2, [M2.one, a]), 0, 1) == M2.one
    assert eval_tq(QSeries.term(M2, 2, a, 2), 2, 1) == a.scale(4)
    assert eval_tq(QSeries.of(M2, [a, b]), Fraction(1, 2), 1) == a + b.scale(Fraction(1, 2))
    # a weight-0 series depends on q*t only
    assert eval_tq(QSeries.of(M2, [a, b]), 3, Fraction(1, 6)) == a + b.scale(Fraction(1, 2))


rat_polys = st.lists(small_fractions, max_size=5).map(lambda cs: rat_poly(*cs))


@given(rat_polys, rat_polys, rat_polys)
def test_mul_associative_rational(p, r, s):
    assert p * (r * s) == (p * r) * s


@settings(max_examples=30, deadline=None)
@given(
    st.lists(matrices(), max_size=3),
    st.lists(matrices(), max_size=3),
    st.lists(matrices(), max_size=3),
)
def test_mul_associative_matrix(ca, cb, cc):
    p, r, s = (TPoly.of(M2, cs) for cs in (ca, cb, cc))
    assert p * (r * s) == (p * r) * s


@given(st.lists(small_fractions, min_size=1, max_size=5))
def test_fundamental_theorem(cs):
    s = QSeries.of(M1, [scalar(c) for c in [0] + cs])  # weight 1
    assert dt_series(integrate_series(s)) == s
    p = QSeries.of(M1, [scalar(c) for c in cs])  # weight 0
    assert integrate_series(dt_series(p)) == p - QSeries.constant(M1, p.trunc, eval_tq(p, 0, 1))


def padded(cs, n):
    return QSeries.of(M2, list(cs) + [M2.zero] * (n + 1 - len(cs)))


@settings(max_examples=30, deadline=None)
@given(st.lists(matrices(), max_size=4), st.lists(matrices(), max_size=4), small_fractions)
def test_eval_multiplicative_noncommutative(ca, cb, t0):
    # at truncation order 6 the product of two series of length <= 4 is exact
    p, r = padded(ca, 6), padded(cb, 6)
    assert eval_tq(p * r, t0, 1) == eval_tq(p, t0, 1) * eval_tq(r, t0, 1)


def test_element_protocol_nests():
    from qlax import DiffPoly, PsdoSymbol
    from qlax.render import json_value
    from reference import series_json

    a = RatMatrix.of([[1, "-7/2"], [0, 3]])
    dp = DiffPoly.u(1).scale(Fraction(-5))
    sym = PsdoSymbol.from_dp(dp)
    series = QSeries.of(M2, [M2.one, a])
    third = scalar("-1/3")
    assert json_value(third) == [["-1/3"]]
    assert json_value(dp) == "-5*u_1"
    assert json_value(sym) == {"terms": [{"order": 0, "coeff": "-5*u_1"}], "floor": "exact"}
    # only render spells out the powers of t: 1 + a*q*t
    assert series_json(series) == {
        "trunc": 1,
        "coeffs": [{"t_coeffs": [M2.one.to_json()]}, {"t_coeffs": [[["0", "0"], ["0", "0"]], a.to_json()]}],
    }
    assert [x.max_abs() for x in (third, dp, sym, a)] == [Fraction(1, 3), 5, 5, Fraction(7, 2)]
