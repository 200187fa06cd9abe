"""Operator symbol calculus.

The independent oracle here composes differential operators using nothing
but the one-step rule  d o (b d^m) = b' d^m + b d^(m+1),  folded k times.
No falling factorials, no symbol formula: if the two agree on random
operators, the symbol product is doing Leibniz correctly.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlax import (
    DiffPoly,
    psdo,
    PrecisionExhausted,
    PsdoSymbol,
    commutator,
    compose,
    kdv_pair,
)

from conftest import diffops, diffpolys, rand_diffop, int_stream, rint, small_fractions
from reference import coeff, order

U = DiffPoly.u(0)
U1 = DiffPoly.u(1)
U2 = DiffPoly.u(2)
U3 = DiffPoly.u(3)
D = PsdoSymbol.xi(1)


# -- independent composition model ------------------------------------------

def _acc(table: dict, order: int, dp: DiffPoly) -> None:
    table[order] = table.get(order, DiffPoly.zero()) + dp


def model_compose(a: PsdoSymbol, b: PsdoSymbol) -> PsdoSymbol:
    """Compose differential operators by repeated first-order Leibniz."""
    assert a.floor is None and b.floor is None
    assert all(k >= 0 for k, _ in a.terms) and all(k >= 0 for k, _ in b.terms)
    out: dict[int, DiffPoly] = {}
    for k, ak in a.terms:
        cur = {m: dp for m, dp in b.terms}
        for _ in range(k):
            nxt: dict[int, DiffPoly] = {}
            for m, dp in cur.items():
                _acc(nxt, m, dp.dx())
                _acc(nxt, m + 1, dp)
            cur = nxt
        for m, dp in cur.items():
            _acc(out, m, ak * dp)
    return PsdoSymbol.of(out.items())


def symbol_rule_compose(a: PsdoSymbol, b: PsdoSymbol, floor: int) -> dict:
    """The stored terms of a and b composed down to order ``floor`` straight
    from the symbol rule: each pair a_k xi^k, b_m xi^m contributes
    k(k-1)...(k-j+1)/j! * a_k * D_x^j(b_m) at order k + m - j."""
    out: dict[int, DiffPoly] = {}
    for k, ak in a.terms:
        for m, bm in b.terms:
            bj, j = bm, 0
            while k + m - j >= floor and not bj.is_zero():
                falling = math.prod(range(k - j + 1, k + 1))
                _acc(out, k + m - j, (ak * bj).scale(Fraction(falling, math.factorial(j))))
                bj, j = bj.dx(), j + 1
    return out


def test_model_agrees_on_seeded_operators():
    stream = int_stream(7)
    for _ in range(40):
        a = rand_diffop(stream)
        b = rand_diffop(stream)
        assert compose(a, b) == model_compose(a, b)


# -- compose ----------------------------------------------------------------

def test_compose_leibniz_example():
    assert compose(D, PsdoSymbol.from_dp(U)) == PsdoSymbol.of({1: U, 0: U1}.items())


def test_compose_identity():
    stream = int_stream(11)
    for _ in range(10):
        b = rand_diffop(stream)
        assert compose(PsdoSymbol.one(), b) == b
        assert compose(b, PsdoSymbol.one()) == b


def test_compose_second_order():
    # oracle: expanding the second derivative of a product by hand gives
    # u*f'' + 2*u_1*f' + u_2*f
    expected = PsdoSymbol.of({2: U, 1: U1.scale(2), 0: U2}.items())
    assert compose(PsdoSymbol.xi(2), PsdoSymbol.from_dp(U)) == expected
    assert model_compose(PsdoSymbol.xi(2), PsdoSymbol.from_dp(U)) == expected


@settings(max_examples=25, deadline=None)
@given(diffops(), diffops(), diffops())
def test_compose_associative(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@settings(max_examples=40, deadline=None)
@given(diffops(), diffops())
def test_order_subadditive(a, b):
    prod = compose(a, b)
    assert order(prod) <= order(a) + order(b)
    if a.terms and b.terms:
        # leading coefficients live in an integral domain, so the top
        # order is always realized
        assert order(prod) == order(a) + order(b)


@settings(max_examples=40, deadline=None)
@given(diffops(), diffops())
def test_commutator_drops_order(a, b):
    if not a.terms or not b.terms:
        return
    assert order(commutator(a, b)) <= order(a) + order(b) - 1


@settings(max_examples=15, deadline=None)
@given(diffops(max_order=2), diffops(max_order=2), diffops(max_order=2))
def test_jacobi_identity(a, b, c):
    lhs = (
        commutator(a, commutator(b, c))
        + commutator(b, commutator(c, a))
        + commutator(c, commutator(a, b))
    )
    assert lhs.is_zero()


def test_commutator_examples():
    stream = int_stream(3)
    a = rand_diffop(stream)
    assert commutator(a, a).is_zero()
    assert commutator(D, PsdoSymbol.from_dp(U)) == PsdoSymbol.from_dp(U1)


# -- the KdV pair -------------------------------------------------------------

def test_kdv_pair_shapes():
    l_op, p_op = kdv_pair()
    assert order(l_op) == 2
    assert coeff(l_op, 2) == DiffPoly.const(-1)
    assert coeff(l_op, 0) == U
    assert order(p_op) == 3


def test_kdv_p_matches_unexpanded_form():
    _, p_op = kdv_pair()
    built = PsdoSymbol.xi(3).scale(Fraction(-4)) + (
        compose(D, PsdoSymbol.from_dp(U)) + compose(PsdoSymbol.from_dp(U), D)
    ).scale(Fraction(3))
    assert built == p_op


def test_kdv_flow_identity():
    l_op, p_op = kdv_pair()
    rhs = PsdoSymbol.from_dp((U * U1).scale(6) - U3)
    assert commutator(p_op, l_op) == rhs
    # cross-check through the independent first-order model
    model = model_compose(p_op, l_op) - model_compose(l_op, p_op)
    assert model == rhs


# -- order bookkeeping ---------------------------------------------------------

def test_order_examples():
    assert order(PsdoSymbol.zero()) == -math.inf
    assert order(kdv_pair().L) == 2
    assert order(PsdoSymbol.from_dp(U)) == 0


# -- precision floors -----------------------------------------------------------

def test_negative_order_times_constant_is_exact():
    assert compose(PsdoSymbol.xi(-1), PsdoSymbol.xi(1)) == PsdoSymbol.one()
    assert compose(PsdoSymbol.xi(-2), PsdoSymbol.const(3)) == PsdoSymbol.xi(-2, 3)
    assert compose(PsdoSymbol.one(), PsdoSymbol.xi(-1)) == PsdoSymbol.xi(-1)
    trunc = compose(PsdoSymbol.xi(-1), PsdoSymbol.from_dp(U), floor=-2)
    assert compose(trunc, PsdoSymbol.one()) == trunc
    assert compose(PsdoSymbol.one(), trunc) == trunc


def test_infinite_expansion_needs_floor():
    with pytest.raises(PrecisionExhausted):
        compose(PsdoSymbol.xi(-1), PsdoSymbol.from_dp(U))


def test_truncated_expansion_values():
    # 1/d o u expands as u/d - u_1/d^2 + u_2/d^3 - ...
    got = compose(PsdoSymbol.xi(-1), PsdoSymbol.from_dp(U), floor=-3)
    assert got.floor == -3
    assert coeff(got, -1) == U
    assert coeff(got, -2) == -U1
    assert coeff(got, -3) == U2
    with pytest.raises(PrecisionExhausted):
        coeff(got, -4)


def test_floor_propagates_through_compose():
    trunc = compose(PsdoSymbol.xi(-1), PsdoSymbol.from_dp(U), floor=-2)
    lifted = compose(PsdoSymbol.xi(2), trunc)
    # unknown orders of the right factor (< -2) reach up to order(A) - 3,
    # so the result knows orders >= 2 + (-2) = 0
    assert lifted.floor == 0
    deep = compose(trunc, PsdoSymbol.xi(2))
    assert deep.floor == -2 + 2
    exact = compose(PsdoSymbol.xi(2), PsdoSymbol.from_dp(U))
    assert exact.floor is None


def test_floor_combines_under_addition():
    trunc = compose(PsdoSymbol.xi(-1), PsdoSymbol.from_dp(U), floor=-2)
    mixed = trunc + PsdoSymbol.xi(-5)  # the exact deep term is swallowed
    assert mixed.floor == -2
    assert all(k >= -2 for k, _ in mixed.terms)
    assert (-trunc).floor == -2
    assert trunc.scale(Fraction(1, 2)).floor == -2


def test_exact_subalgebra_stays_exact():
    stream = int_stream(19)
    for _ in range(20):
        a, b = rand_diffop(stream), rand_diffop(stream)
        prod = compose(a, b)
        assert prod.floor is None
        assert all(k >= 0 for k, _ in prod.terms)


def test_floors_never_store_wrong_coefficients():
    """Everything a floored composition stores must agree with the exact
    composition of the untruncated inputs, including when both sides carry
    floors."""
    stream = int_stream(37)
    for _ in range(25):
        a = rand_diffop(stream)
        b = rand_diffop(stream)
        if not a.terms or not b.terms:
            continue
        exact = compose(a, b)
        # nonpositive floors keep every stored order of a differential operator
        fa = rint(stream, -3, 0)
        fb = rint(stream, -3, 0)
        a_cut = PsdoSymbol.of(a.terms, floor=fa)
        b_cut = PsdoSymbol.of(b.terms, floor=fb)
        got = compose(a_cut, b_cut)
        assert got.floor == max(fa + b.terms[0][0], a.terms[0][0] + fb)
        for k, dp in got.terms:
            assert dp == coeff(exact, k)


symbol_terms = st.dictionaries(st.integers(-3, 2), diffpolys(max_terms=2), max_size=3)
floors = st.none() | st.integers(-5, 0)


@settings(max_examples=150, deadline=None)
@given(symbol_terms, symbol_terms, floors, floors, st.integers(-6, -1))
def test_compose_matches_symbol_rule_reference(ta, tb, fa, fb, work):
    """Pseudo-differential inputs, negative orders and floors included."""
    a, b = PsdoSymbol.of(ta.items(), fa), PsdoSymbol.of(tb.items(), fb)
    got = compose(a, b, floor=work)
    known = [fa + order(b)] if fa is not None and b.terms else []
    known += [order(a) + fb] if fb is not None and a.terms else []
    infinite = any(k < 0 for k, _ in a.terms) and not all(dp.is_constant() for _, dp in b.terms)
    assert got.floor == (max(known + [work]) if known else work if infinite else None)
    lowest = -10 if got.floor is None else got.floor  # an exact result has no order below -6
    ref = symbol_rule_compose(a, b, lowest)
    assert got.terms == tuple((n, ref[n]) for n in sorted(ref, reverse=True) if not ref[n].is_zero())


def general_compose(a: PsdoSymbol, b: PsdoSymbol, floor=None) -> PsdoSymbol:
    """compose without its constant-symbol shortcut: the symbol rule."""
    return psdo._sum_of_products(((a, b, 1),), psdo._result_floor(a, b, floor), 0)


@settings(max_examples=200, deadline=None)
@given(symbol_terms, floors, st.just(Fraction(1)) | small_fractions.filter(bool), floors,
       st.none() | st.integers(-6, -1))
def test_compose_with_a_constant_matches_the_symbol_rule(ts, fs, c, fc, work):
    """A constant side, floored or not, on either side of any symbol,
    negative orders and floors included, with and without a working floor."""
    s = PsdoSymbol.of(ts.items(), fs)
    const = PsdoSymbol.of([(0, DiffPoly.const(c))], fc)
    for x, y in ((const, s), (s, const)):
        assert compose(x, y, floor=work) == general_compose(x, y, work)
    if fc is None and work is None and c == 1 and s != const:
        assert compose(const, s) is s and compose(s, const) is s


def test_constant_sides_skip_the_symbol_rule(monkeypatch):
    l_op = kdv_pair().L
    cut = PsdoSymbol.of(l_op.terms, floor=-2)
    two = PsdoSymbol.const(2)
    expected = {(a, b): general_compose(a, b) for a in (two, l_op, cut) for b in (two, l_op, cut)}
    monkeypatch.setattr(psdo, "_sum_of_products", None)
    for x in (l_op, cut, two):
        assert compose(PsdoSymbol.one(), x) is x and compose(x, PsdoSymbol.one()) is x
        assert compose(two, x) == expected[two, x] and compose(x, two) == expected[x, two]
        assert compose(two, x).floor == x.floor
    with pytest.raises(TypeError):  # an explicit floor takes the general path
        compose(two, l_op, floor=-1)
    with pytest.raises(TypeError):  # so does a non-constant pair
        compose(l_op, cut)


def bracket_or_error(f):
    try:
        return f()
    except PrecisionExhausted:
        return PrecisionExhausted


@settings(max_examples=200, deadline=None)
@given(symbol_terms, symbol_terms, floors, floors, st.none() | st.integers(-6, -1))
def test_bracket_matches_compose(ta, tb, fa, fb, work):
    """[A, B] equals A o B - B o A, floor included, and raises exactly when
    one of the two compositions does: negative orders, input floors, and a
    left side that carries the working floor of an earlier composition."""
    a, b = PsdoSymbol.of(ta.items(), fa), PsdoSymbol.of(tb.items(), fb)
    if work is not None:
        a = compose(a, b, floor=work)
    for x, y in ((a, b), (b, a)):
        expected = bracket_or_error(lambda: compose(x, y) - compose(y, x))
        assert bracket_or_error(lambda: x.bracket(y)) == expected
        assert bracket_or_error(lambda: commutator(x, y)) == expected


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(symbol_terms, floors, symbol_terms, floors), min_size=1, max_size=3),
    st.booleans(),
    st.integers(1, 12),
)
def test_dot_matches_the_pairwise_sum(rows, bracket, divisor):
    """dot equals the sum of the compositions or brackets of its pairs,
    scaled, floor included, and raises exactly when one of them does."""
    pairs = [(PsdoSymbol.of(ta.items(), fa), PsdoSymbol.of(tb.items(), fb)) for ta, fa, tb, fb in rows]
    step = (lambda x, y: x.bracket(y)) if bracket else compose

    def reference():
        return sum((step(x, y) for x, y in pairs), PsdoSymbol.zero()).scale(Fraction(1, divisor))

    expected = bracket_or_error(reference)
    assert bracket_or_error(lambda: PsdoSymbol.dot(pairs, bracket, divisor)) == expected
    if expected is not PrecisionExhausted and all(x.floor is None and y.floor is None for x, y in pairs):
        negated = pairs + [(-x, y) for x, y in pairs]
        assert PsdoSymbol.dot(negated, bracket, divisor) == PsdoSymbol.zero()


def test_bracket_raises_when_either_composition_does():
    # xi^-1 o u has infinitely many orders, u o xi^-1 has one
    inv = PsdoSymbol.xi(-1)
    u = PsdoSymbol.from_dp(U)
    compose(u, inv)
    for x, y in ((inv, u), (u, inv)):
        with pytest.raises(PrecisionExhausted):
            x.bracket(y)
    # with a floor on one side both compositions are defined
    cut = PsdoSymbol.of(inv.terms, floor=-4)
    assert cut.bracket(u) == compose(cut, u) - compose(u, cut)
    assert cut.bracket(u).floor == -4 and cut.bracket(u).terms
