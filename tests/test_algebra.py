"""Scalars and t-polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlax import MatrixAlgebra, RatMatrix, RationalAlgebra, TPoly, TPolyAlgebra, rational

from conftest import matrices, small_fractions

RAT = RationalAlgebra()
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


def rat_poly(*coeffs) -> TPoly:
    return TPoly.of(RAT, [Fraction(c) for c in coeffs])


def test_canonical_strips_trailing_zeros():
    assert TPoly.of(RAT, [Fraction(1), Fraction(0), Fraction(0)]) == rat_poly(1)
    assert TPoly.of(RAT, [Fraction(0)]) == TPolyAlgebra(RAT).zero
    assert rat_poly().degree == -1


def test_mul_identity_and_single_term():
    a = RatMatrix.of([[0, 1], [0, 0]])
    b = RatMatrix.of([[0, 0], [1, 0]])
    p = TPoly.of(M2, [M2.one, a])  # 1 + t*a
    assert p * TPolyAlgebra(M2).one == p
    ta = TPoly.t_power(M2, a, 1)
    tb = TPoly.t_power(M2, b, 1)
    assert ta * tb == TPoly.t_power(M2, a * b, 2)
    # order preserved even though a*b != b*a
    assert a * b != b * a
    assert tb * ta == TPoly.t_power(M2, b * a, 2)


def test_mul_commutative_sanity():
    assert rat_poly(1, 1) * rat_poly(1, -1) == rat_poly(1, 0, -1)


def test_dt_examples():
    a = RatMatrix.of([[1, 2], [3, 4]])
    b = RatMatrix.of([[0, 1], [1, 0]])
    assert TPoly.const(M2, a).dt() == TPolyAlgebra(M2).zero
    assert TPoly.t_power(M2, a, 2).dt() == TPoly.t_power(M2, a.scale(2), 1)
    p = TPoly.of(M2, [M2.one, a, b])
    assert p.dt() == TPoly.of(M2, [a, b.scale(2)])


def test_integrate_examples():
    a = RatMatrix.of([[1, 2], [3, 4]])
    assert TPolyAlgebra(M2).zero.integrate() == TPolyAlgebra(M2).zero
    assert TPoly.const(M2, a).integrate() == TPoly.t_power(M2, a, 1)
    assert TPoly.t_power(M2, a, 1).integrate() == TPoly.t_power(
        M2, a.scale(Fraction(1, 2)), 2
    )


def test_eval_examples():
    a = RatMatrix.of([[1, 2], [3, 4]])
    b = RatMatrix.of([[0, 1], [1, 0]])
    assert TPoly.of(M2, [M2.one, a]).eval_at(0) == M2.one
    assert TPoly.t_power(M2, a, 2).eval_at(2) == a.scale(4)
    assert TPoly.of(M2, [a, b]).eval_at(Fraction(1, 2)) == a + b.scale(Fraction(1, 2))


rat_polys = st.lists(small_fractions, max_size=5).map(lambda cs: TPoly.of(RAT, cs))


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


@given(rat_polys)
def test_fundamental_theorem(p):
    assert p.integrate().dt() == p
    assert p.dt().integrate() == p - TPoly.const(RAT, p.eval_at(0))


@settings(max_examples=30, deadline=None)
@given(st.lists(matrices(), max_size=4), st.lists(matrices(), max_size=4), small_fractions)
def test_eval_multiplicative_noncommutative(ca, cb, t0):
    p, r = TPoly.of(M2, ca), TPoly.of(M2, cb)
    assert (p * r).eval_at(t0) == p.eval_at(t0) * r.eval_at(t0)


def test_element_protocol_nests():
    from qlax import BiOp, DiffPoly, PsdoSymbol, QSeries
    from qlax.algebra import json_value, max_abs

    a = RatMatrix.of([[1, "-7/2"], [0, 3]])
    dp = DiffPoly.u(1).scale(Fraction(-5))
    sym = PsdoSymbol.from_dp(dp)
    tp = TPoly.of(M2, [M2.zero, a])
    series = QSeries.of(TPolyAlgebra(M2), [TPoly.const(M2, M2.one), tp])
    pair = BiOp.of(M2, [(a, M2.one)])
    assert json_value(Fraction(-1, 3)) == "-1/3"
    assert json_value(dp) == "-5*u_1"
    assert json_value(sym) == {"terms": [{"order": 0, "coeff": "-5*u_1"}], "floor": "exact"}
    assert json_value(tp) == {"t_coeffs": [[["0", "0"], ["0", "0"]], a.to_json()]}
    assert json_value(series) == {"trunc": 1, "coeffs": [{"t_coeffs": [M2.one.to_json()]}, json_value(tp)]}
    assert json_value(pair) == [{"left": a.to_json(), "right": M2.one.to_json()}]
    assert [max_abs(x) for x in (Fraction(-1, 3), dp, sym, a, tp, series, pair)] == [
        Fraction(1, 3), 5, 5, Fraction(7, 2), Fraction(7, 2), Fraction(7, 2), Fraction(7, 2),
    ]
    assert max_abs(TPoly.of(M2, [])) == 0 and max_abs(BiOp.zero(M2)) == 0
