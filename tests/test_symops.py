"""Tensor-pair operators, inner derivations, and symmetry transport.

A BiOp's pair list is not canonical, so BiOp equality is either the exact
zero test of its tensor (``tensor_is_zero``) or extensional, on probes.
Checks that land back in matrices or symbols are exact structural
equalities.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlax import (
    BiOp,
    BiOpAlgebra,
    DiffPoly,
    LaxProblem,
    MatrixAlgebra,
    PsdoAlgebra,
    PrecisionExhausted,
    PsdoSymbol,
    QSeries,
    RatMatrix,
    TPoly,
    ad,
    apply_series,
    apply_to_probe,
    compose,
    deform,
    exp_ad,
    kdv_pair,
    lax_residual,
    lax_solve,
    mat_random,
    parse_operator,
    residual_vanishes,
    symmetry3_residual,
    texp,
    transport,
    transported_solution_check,
)
from qlax.symops import symmetry_defects

from conftest import diffops, int_stream, matrices, rint, small_fractions
from reference import apply_pairwise, apply_series_pairwise, det, extensionally_equal, invert, symmetry2_residual, tensor_norm

M2 = MatrixAlgebra(2)
UNITS2 = M2.probes()


def rand_biop(alg, stream, pairs=2, bound=2):
    terms = [
        (mat_random(alg.n, next(stream), bound), mat_random(alg.n, next(stream), bound))
        for _ in range(pairs)
    ]
    return BiOp.of(alg, terms)


def rand_problem(seed, n, nn, deg=0):
    alg = MatrixAlgebra(nn)
    stream = int_stream(seed)
    while True:
        coeffs = [mat_random(nn, next(stream), 2) for _ in range(deg + 1)]
        if not coeffs[0].is_zero():
            break
    return LaxProblem(p=TPoly.of(alg, coeffs), l0=mat_random(nn, next(stream), 2), n=n)


# -- the action -------------------------------------------------------------

def test_apply_examples():
    x = RatMatrix.of([[1, 2], [3, 4]])
    p = RatMatrix.of([[0, 1], [1, 0]])
    assert BiOp.identity(M2).apply(x) == x
    assert ad(p, M2).apply(x) == p * x - x * p
    a, b = RatMatrix.of([[1, 1], [0, 1]]), RatMatrix.of([[2, 0], [0, 1]])
    assert BiOp.of(M2, [(a, b)]).apply(M2.one) == a * b


def test_apply_is_a_representation():
    stream = int_stream(41)
    for _ in range(15):
        s = rand_biop(M2, stream)
        t = rand_biop(M2, stream)
        x = mat_random(2, next(stream), 3)
        assert (s * t).apply(x) == s.apply(t.apply(x))


@st.composite
def action_cases(draw):
    # one backend per example: 1x1..3x3 matrices with fractional entries, or
    # symbols, some of them below a precision floor; unit sides, empty BiOps
    # and zero coefficients at random q-orders
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        alg = MatrixAlgebra(n)
        element = st.lists(st.lists(small_fractions, min_size=n, max_size=n), min_size=n, max_size=n).map(RatMatrix.of)
    else:
        alg = PsdoAlgebra()
        floored = st.tuples(diffops(max_order=1), st.integers(-3, -1)).map(
            lambda t: compose(PsdoSymbol.xi(-1), t[0], floor=t[1])
        )
        element = st.one_of(diffops(max_order=2), floored, st.just(PsdoSymbol.xi(-1)))
    side = st.one_of(st.just(alg.one), element)
    biop = st.lists(st.tuples(side, side), max_size=2).map(lambda pairs: BiOp.of(alg, pairs))
    n = draw(st.integers(0, 3))
    ops = draw(st.lists(st.one_of(st.just(BiOp.zero(alg)), biop), min_size=n + 1, max_size=n + 1))
    xs = draw(st.lists(st.one_of(st.just(alg.zero), element), min_size=n + 1, max_size=n + 1))
    return QSeries.of(BiOpAlgebra(alg), ops), QSeries.of(alg, xs)


def outcome(f, *args):
    try:
        return f(*args)
    except PrecisionExhausted:
        return PrecisionExhausted


@settings(max_examples=50, deadline=None)
@given(action_cases())
def test_action_matches_the_pairwise_reference(case):
    # one dot over (left*x, right) sums what the pairwise loop sums, with
    # the same precision floor and the same failures
    sq, xq = case
    assert outcome(apply_series, sq, xq) == outcome(apply_series_pairwise, sq, xq)
    for bop in sq.coeffs:
        for x in xq.coeffs:
            assert outcome(bop.apply, x) == outcome(apply_pairwise, bop, x)


# -- ad ----------------------------------------------------------------------

def test_ad_examples():
    p = RatMatrix.of([[1, 2], [0, -1]])
    assert ad(M2.zero, M2).is_zero()
    assert ad(p, M2).apply(p) == M2.zero
    l_op, p_op = kdv_pair()
    from qlax import parse_diffpoly

    assert ad(p_op, PsdoAlgebra()).apply(l_op) == PsdoSymbol.from_dp(parse_diffpoly("6*u*u_1 - u_3"))


def test_ad_of_identity_simplifies_to_zero():
    assert ad(PsdoSymbol.one(), PsdoAlgebra()).is_zero()
    assert ad(M2.one, M2).is_zero()


def test_simplification_merges_shared_factors():
    a = RatMatrix.of([[1, 0], [0, 2]])
    b = RatMatrix.of([[0, 1], [1, 0]])
    c = RatMatrix.of([[1, 1], [0, 1]])
    merged = BiOp.of(M2, [(a, b), (a, c)])
    assert merged == BiOp.of(M2, [(a, b + c)])
    cancelled = BiOp.of(M2, [(a, b), (-a, b)])
    assert cancelled.is_zero()


def test_simplification_pins_the_pair_order():
    # pairs merge by left factor in first-seen order, then by right factor
    # in the order the left merge left them; a zero side drops its pair
    a = RatMatrix.of([[1, 0], [0, 2]])
    b = RatMatrix.of([[0, 1], [1, 0]])
    c = RatMatrix.of([[1, 1], [0, 1]])
    assert BiOp.of(M2, [(a, b), (c, b), (a, c), (M2.zero, a), (b, M2.zero)]).terms == ((a, b + c), (c, b))
    assert BiOp.of(M2, [(c, a), (a, b), (b, b)]).terms == ((c, a), (a + b, b))
    assert BiOp.of(M2, [(a, b), (c, a), (-a, b)]).terms == ((c, a),)


def test_simplification_preserves_the_denoted_map():
    stream = int_stream(53)
    for _ in range(20):
        pairs = [
            (mat_random(2, next(stream), 2), mat_random(2, next(stream), 2))
            for _ in range(rint(stream, 1, 4))
        ]
        simplified = BiOp.of(M2, pairs)
        for x in UNITS2:
            naive = M2.zero
            for left, right in pairs:
                naive = naive + left * x * right
            assert simplified.apply(x) == naive


def test_ad_is_a_lie_homomorphism():
    stream = int_stream(43)
    for _ in range(10):
        p = mat_random(2, next(stream), 3)
        r = mat_random(2, next(stream), 3)
        lhs = ad(p * r - r * p, M2)
        rhs = ad(p, M2) * ad(r, M2) - ad(r, M2) * ad(p, M2)
        assert extensionally_equal(lhs, rhs, UNITS2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(1, 3))
def test_biop_bracket_matches_products(seed, pairs_x, pairs_y):
    stream = int_stream(seed)
    x, y = rand_biop(M2, stream, pairs=pairs_x), rand_biop(M2, stream, pairs=pairs_y)
    bracket = BiOp.dot(((x, y),), True)
    assert bracket == x * y - y * x
    for probe in UNITS2:
        assert bracket.apply(probe) == x.apply(y.apply(probe)) - y.apply(x.apply(probe))


biops = st.lists(st.tuples(matrices(n=2), matrices(n=2)), max_size=2).map(lambda t: BiOp.of(M2, t))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(biops, biops), min_size=1, max_size=3), st.booleans(), st.integers(1, 12))
def test_biop_dot_matches_the_pairwise_sum(pairs, bracket, divisor):
    # BiOp.of merges only structurally, so the sums agree as maps: on the
    # spanning unit probes and as a tensor
    step = (lambda x, y: x * y - y * x) if bracket else (lambda x, y: x * y)
    expected = sum((step(x, y) for x, y in pairs), BiOp.zero(M2)).scale(Fraction(1, divisor))
    got = BiOp.dot(pairs, bracket, divisor)
    assert (got - expected).tensor_is_zero()
    for probe in UNITS2:
        assert got.apply(probe) == expected.apply(probe)
    assert BiOp.dot(pairs + [(-x, y) for x, y in pairs], bracket, divisor).tensor_is_zero()


def test_ad_is_a_derivation():
    stream = int_stream(47)
    for _ in range(10):
        p = mat_random(2, next(stream), 3)
        x = mat_random(2, next(stream), 3)
        y = mat_random(2, next(stream), 3)
        assert ad(p, M2).apply(x * y) == ad(p, M2).apply(x) * y + x * ad(p, M2).apply(y)


# -- exp_ad ---------------------------------------------------------------------

def test_exp_ad_of_zero_is_identity():
    e = exp_ad(QSeries.zero(M2, 3))
    balg = BiOpAlgebra(M2)
    assert e == QSeries.one(balg, 3)


def test_exp_ad_matches_conjugation():
    # oracle: the flow solver's conjugation, computed independently
    for seed in (1, 4, 9):
        prob = rand_problem(seed, n=3, nn=2, deg=1 if seed != 1 else 0)
        pq = deform(prob.p, prob.n)
        e = exp_ad(pq)
        w = texp(pq)
        winv = w.invert_unipotent()
        for x in UNITS2:
            conj = w * QSeries.constant(M2, prob.n, x) * winv
            assert apply_to_probe(e, x) == conj


def test_exp_ad_time_independent_coefficient():
    a = RatMatrix.of([[1, 1], [0, -1]])
    pq = deform(TPoly.const(M2, a), 2)
    e = exp_ad(pq)
    x = RatMatrix.of([[0, 1], [1, 0]])
    # q^2 t^2 coefficient applied to x is ad_a(ad_a(x))/2
    coeff = e.coeffs[2]
    ada = lambda m: a * m - m * a
    assert coeff.apply(x) == ada(ada(x)).scale(Fraction(1, 2))


# -- transport -------------------------------------------------------------------

def test_transport_identity_is_constant():
    # exactly the constant series, not just extensionally: W 1 W^-1 = 1
    # needs no products
    balg = BiOpAlgebra(M2)
    for n in (1, 3):
        pq = deform(rand_problem(2, n=n, nn=2).p, n)
        sq = transport(BiOp.identity(M2), pq)
        assert sq == QSeries.one(balg, n)


def test_transport_of_ad_l0_solves_symmetry_equation():
    prob = rand_problem(3, n=3, nn=2)
    pq = deform(prob.p, prob.n)
    sq = transport(ad(prob.l0, prob.alg), pq)
    assert residual_vanishes(symmetry3_residual(sq, pq), UNITS2)


def test_transport_conjugation_matches_conjugated_flow():
    g = RatMatrix.of([[1, 1], [0, 1]])
    ginv = invert(g)
    s0 = BiOp.of(M2, [(g, ginv)])
    prob = rand_problem(6, n=3, nn=2)
    sol = lax_solve(prob)
    sq = transport(s0, sol.pq)
    mq = apply_series(sq, sol.lq)
    expected = lax_solve(LaxProblem(p=prob.p, l0=g * prob.l0 * ginv, n=prob.n))
    assert mq == expected.lq


def exp_ad_transport(s0, pq):
    """The construction transport replaces, kept as a reference:
    exp_ad(Pq) o S0 o exp_ad(Pq)^-1 as BiOp series products."""
    e = exp_ad(pq)
    s0_series = QSeries.constant(e.alg, pq.trunc, s0)
    return e * s0_series * e.invert_unipotent()


def assert_closed_form(s0, pq, probes):
    """transport equals the exp_ad construction on the probes and stays
    within len(S0.terms) * (k+1) pairs at q^k; returns the transport."""
    sq = transport(s0, pq)
    reference = exp_ad_transport(s0, pq)
    for x in probes:
        assert apply_to_probe(sq, x) == apply_to_probe(reference, x)
    for k, bop in enumerate(sq.coeffs):
        assert len(bop.terms) <= len(s0.terms) * (k + 1)
    return sq


def test_transport_closed_form_matches_exp_ad_on_matrices():
    # matrix units span, so agreement on them is equality of the maps
    for nn in (2, 3):
        alg = MatrixAlgebra(nn)
        for n in range(1, 5):
            prob = rand_problem(100 * nn + n, n=n, nn=nn, deg=min(n - 1, 1))
            pq = deform(prob.p, prob.n)
            stream = int_stream(200 * nn + n)
            s0 = rand_biop(alg, stream)
            while len(s0.terms) != 2:  # skip draws whose pairs merge
                s0 = rand_biop(alg, stream)
            assert_closed_form(s0, pq, alg.probes())


def test_transport_closed_form_matches_exp_ad_on_kdv():
    l_op, p_op = kdv_pair()
    palg = PsdoAlgebra()
    one = PsdoSymbol.one()
    probes = palg.probes() + [l_op, p_op]
    for n in (1, 2, 3):
        pq = deform(TPoly.const(palg, p_op), n)
        for s0 in (BiOp.identity(palg), BiOp.of(palg, [(l_op, one)]), BiOp.of(palg, [(one, l_op)])):
            sq = assert_closed_form(s0, pq, probes)
            # one side is 1, so every nonzero coefficient is a single pair
            assert {len(b.terms) for b in sq.coeffs if b.terms} == {1}


def assert_group_law(s0, s1, prob, probes):
    """transport(S0 o S1) = transport(S0) o transport(S1) on the probes.

    The left side flows the products of sides, the right side multiplies
    the flows of the sides, so they agree only because the bracket with Pq
    is a derivation.  The right side also reuses the solved Lq for a side
    equal to L0.
    """
    sol = lax_solve(prob)
    lhs = transport(s0 * s1, sol.pq)
    rhs = transport(s0, sol.pq, sol.lq) * transport(s1, sol.pq, sol.lq)
    for x in probes:
        assert apply_to_probe(lhs, x) == apply_to_probe(rhs, x)


def test_transport_group_law_on_matrices():
    # the deformed symmetries form a group: transport is multiplicative
    for nn in (2, 3):
        alg = MatrixAlgebra(nn)
        for n in range(1, 5):
            prob = rand_problem(300 * nn + n, n=n, nn=nn, deg=min(n - 1, 1))
            stream = int_stream(400 * nn + n)
            s0, s1 = rand_biop(alg, stream), rand_biop(alg, stream)
            assert_group_law(s0, s1, prob, alg.probes())
            assert_group_law(BiOp.of(alg, [(prob.l0, alg.one)]), s1, prob, alg.probes())


def test_transport_group_law_on_kdv():
    l_op, p_op = kdv_pair()
    palg = PsdoAlgebra()
    one = PsdoSymbol.one()
    probes = palg.probes() + [l_op, p_op]
    u = parse_operator("u")
    left, right = BiOp.of(palg, [(l_op, one)]), BiOp.of(palg, [(one, l_op)])
    mixed = BiOp.of(palg, [(u, one), (one, u)])
    for n in (1, 2, 3):
        prob = LaxProblem(p=TPoly.const(palg, p_op), l0=l_op, n=n)
        for s0, s1 in ((left, left), (left, right), (right, left), (right, right), (left, mixed), (mixed, right)):
            assert_group_law(s0, s1, prob, probes)


def test_transport_of_inverse_is_inverse():
    # S0 = (a, b) with invertible sides has the inverse (a^-1, b^-1)
    for nn in (2, 3):
        alg = MatrixAlgebra(nn)
        for n in range(1, 5):
            prob = rand_problem(500 * nn + n, n=n, nn=nn, deg=min(n - 1, 1))
            pq = deform(prob.p, prob.n)
            stream = int_stream(600 * nn + n)
            a, b = (mat_random(nn, next(stream), 2) for _ in range(2))
            while det(a) == 0 or det(b) == 0:
                a, b = (mat_random(nn, next(stream), 2) for _ in range(2))
            s0 = BiOp.of(alg, [(a, b)])
            s0_inv = BiOp.of(alg, [(invert(a), invert(b))])
            composed = transport(s0_inv, pq) * transport(s0, pq)
            for x in alg.probes():
                assert apply_to_probe(composed, x) == QSeries.constant(alg, n, x)


# -- residuals ----------------------------------------------------------------------

def test_symmetry3_residual_zero_for_transport():
    for seed in (11, 12, 13):
        prob = rand_problem(seed, n=2 + seed % 3, nn=2)
        pq = deform(prob.p, prob.n)
        stream = int_stream(seed * 7)
        s0 = rand_biop(M2, stream)
        sq = transport(s0, pq)
        assert residual_vanishes(symmetry3_residual(sq, pq), UNITS2)


def test_symmetry3_residual_detects_frozen_symmetry():
    prob = rand_problem(17, n=2, nn=2)
    pq = deform(prob.p, prob.n)
    s0 = BiOp.of(M2, [(RatMatrix.of([[0, 1], [0, 0]]), M2.one)])
    balg = BiOpAlgebra(M2)
    frozen = QSeries.constant(balg, prob.n, s0)
    res = symmetry3_residual(frozen, pq)
    assert not residual_vanishes(res, UNITS2)


def test_symmetry3_residual_detects_perturbation():
    # a bump b*q^k*t^k with k >= 1 leaves S(t=0) as it was, so only the
    # equation itself can reject it; try the lowest and the top q-order
    prob = rand_problem(19, n=3, nn=2)
    pq = deform(prob.p, prob.n)
    stream = int_stream(71)
    sq = transport(rand_biop(M2, stream), pq)
    bump = rand_biop(M2, stream, pairs=1)
    balg = BiOpAlgebra(M2)
    for k in (1, prob.n):
        perturbed = sq + QSeries.term(balg, prob.n, bump, k)
        assert perturbed.coeffs[0] == sq.coeffs[0]
        assert not residual_vanishes(symmetry3_residual(perturbed, pq), UNITS2)


def test_symmetry2_residual_zero_for_transport_and_identity():
    prob = rand_problem(23, n=3, nn=2)
    sol = lax_solve(prob)
    stream = int_stream(73)
    sq = transport(rand_biop(M2, stream), sol.pq)
    assert symmetry2_residual(sq, sol.pq, sol.lq).is_zero()
    balg = BiOpAlgebra(M2)
    ident = QSeries.one(balg, prob.n)
    assert symmetry2_residual(ident, sol.pq, sol.lq).is_zero()


def test_symmetry2_is_strictly_weaker():
    """Search the unit-pair family for an operator annihilating L0: it
    violates the operator-level equation but not the applied one."""
    l0 = RatMatrix.of([[1, 2], [0, -1]])
    p = RatMatrix.of([[0, 1], [1, 0]])
    prob = LaxProblem(p=TPoly.const(M2, p), l0=l0, n=1)
    sol = lax_solve(prob)

    witness = None
    for left in UNITS2:
        for right in UNITS2:
            if (left * l0 * right) == M2.zero:
                candidate = BiOp.of(M2, [(left, right)])
                if any(candidate.apply(x) != M2.zero for x in UNITS2):
                    witness = candidate
                    break
        if witness is not None:
            break
    assert witness is not None

    sq = QSeries.of(BiOpAlgebra(M2), (BiOp.identity(M2), witness))  # 1 + q*t*witness
    assert not residual_vanishes(symmetry3_residual(sq, sol.pq), UNITS2)
    assert symmetry2_residual(sq, sol.pq, sol.lq).is_zero()


# -- the tensor form -------------------------------------------------------------

def test_coords_spell_out_each_backend_value():
    m = RatMatrix.of([["1/2", 0], [-3, "1/4"]])
    nums, den = m.coords()
    assert den == 4 and nums == {(0, 0): 2, (1, 0): -12, (1, 1): 1}
    assert M2.zero.coords() == ({}, 1)
    u = DiffPoly.u(0)
    sym = PsdoSymbol.of([(2, DiffPoly.const("-1/3")), (0, u.scale(Fraction(1, 2)) + DiffPoly.one())])
    nums, den = sym.coords()
    assert den == 6 and nums == {(2, 0): -2, (0, 1): 3, (0, 0): 6}
    assert PsdoSymbol.of(sym.terms, floor=-2).coords() is None


nonzero_scalars = small_fractions.filter(bool)


@st.composite
def tensor_sums(draw, elements):
    """Raw pair lists (no structural simplification) in which some pairs are
    cancelled by bilinearity: (l, r) against ((l - x)c, -r/c) and (-x, r)."""
    pairs = draw(st.lists(st.tuples(elements, elements), max_size=3))
    terms = list(pairs)
    for left, right in pairs:
        if draw(st.booleans()):
            x, c = draw(elements), draw(nonzero_scalars)
            terms += [((left - x).scale(c), (-right).scale(1 / c)), (-x, right)]
    return terms


@settings(max_examples=120, deadline=None)
@given(tensor_sums(matrices(2, bound=2)))
def test_matrix_tensor_is_zero_exactly_when_every_unit_vanishes(terms):
    # M_n (x) M_n^op is End(M_n), and the matrix units span M_n
    bop = BiOp(M2, tuple(terms))
    assert bop.tensor_is_zero() == all(bop.apply(x).is_zero() for x in UNITS2)


@settings(max_examples=80, deadline=None)
@given(tensor_sums(diffops(max_order=2)), st.lists(diffops(max_order=2), max_size=2))
def test_zero_tensor_maps_every_probe_to_zero(terms, extra):
    palg = PsdoAlgebra()
    bop = BiOp(palg, tuple(terms))
    if bop.tensor_is_zero():
        assert all(bop.apply(x).is_zero() for x in palg.probes() + extra)
    if all(left.is_zero() or right.is_zero() for left, right in BiOp.of(palg, terms).terms):
        assert bop.tensor_is_zero()


def counting_probe_loop(monkeypatch):
    from qlax import symops

    calls = []
    real = symops.apply_to_probe
    monkeypatch.setattr(symops, "apply_to_probe", lambda sq, x: calls.append(x) or real(sq, x))
    return calls


def test_unknown_coordinates_leave_the_verdict_to_the_probes(monkeypatch):
    # below a floor the coordinates are unknown, so even a pair and its
    # negative are not a zero tensor; the probes decide
    palg = PsdoAlgebra()
    cut = PsdoSymbol.of(kdv_pair().L.terms, floor=-1)
    bop = BiOp(palg, ((cut, PsdoSymbol.one()), (-cut, PsdoSymbol.one())))
    assert not bop.tensor_is_zero()
    series = QSeries.term(BiOpAlgebra(palg), 1, bop, 1)
    calls = counting_probe_loop(monkeypatch)
    expected = all(apply_to_probe(series, x).is_zero() for x in palg.probes())
    assert residual_vanishes(series, palg.probes()) == expected and calls


def bump_first_pair(r3):
    """r3 with the left side of its first pair doubled."""
    k = next(k for k, bop in enumerate(r3.coeffs) if bop.terms)
    (left, right), *rest = r3.coeffs[k].terms
    bumped = BiOp(r3.coeffs[k].alg, ((left.scale(2), right), *rest))
    return QSeries(r3.alg, r3.coeffs[:k] + (bumped,) + r3.coeffs[k + 1:])


def test_perturbed_r3_coefficient_fails_through_the_probes(monkeypatch):
    l_op, p_op = kdv_pair()
    palg = PsdoAlgebra()
    kdv = LaxProblem(p=TPoly.const(palg, p_op), l0=l_op, n=3)
    matrix = rand_problem(83, n=3, nn=2, deg=1)
    cases = (
        (kdv, BiOp.of(palg, [(PsdoSymbol.one(), l_op)]), palg.probes() + [l_op, p_op]),
        (kdv, BiOp.of(palg, [(PsdoSymbol.xi(1), PsdoSymbol.from_dp(DiffPoly.u(0)))]), palg.probes() + [l_op, p_op]),
        (matrix, rand_biop(M2, int_stream(89)), UNITS2 + [matrix.l0]),
    )
    for prob, s0, probes in cases:
        sol = lax_solve(prob)
        r3 = symmetry3_residual(transport(s0, sol.pq, sol.lq), sol.pq)
        calls = counting_probe_loop(monkeypatch)
        assert any(bop.terms for bop in r3.coeffs)  # not decided by an empty BiOp
        assert residual_vanishes(r3, probes) and not calls
        assert not residual_vanishes(bump_first_pair(r3), probes) and calls


# -- the per-order symmetry check --------------------------------------------------

def residual_norms(sq, pq):
    """{k: norm} of the BiOp residual, collected by basis pair."""
    norms = ((k, tensor_norm(bop)) for k, bop in enumerate(symmetry3_residual(sq, pq).coeffs))
    return {k: norm for k, norm in norms if norm is not None}


def symmetry_cases():
    l_op, p_op = kdv_pair()
    palg = PsdoAlgebra()
    kdv = LaxProblem(p=TPoly.const(palg, p_op), l0=l_op, n=3)
    d, u = PsdoSymbol.xi(1), PsdoSymbol.from_dp(DiffPoly.u(0))
    yield kdv, BiOp.of(palg, [(l_op, PsdoSymbol.one())])
    yield kdv, BiOp.of(palg, [(d, u), (PsdoSymbol.one(), l_op)])
    for seed in (83, 97):
        prob = rand_problem(seed, n=4, nn=3, deg=1)
        yield prob, rand_biop(prob.alg, int_stream(seed + 1))


def test_symmetry_defects_match_the_residual_tensor():
    # a transport has an empty map; a bump b at q^k adds k*b there and
    # [ad p_i, b] above it, and the map reads the orders and the norms of
    # the BiOp residual, which it never builds
    for prob, s0 in symmetry_cases():
        sol = lax_solve(prob)
        sq = transport(s0, sol.pq, sol.lq)
        assert symmetry_defects(sq, sol.pq) == {} == residual_norms(sq, sol.pq)
        balg = BiOpAlgebra(prob.alg)
        for bump in (BiOp.identity(prob.alg), s0):
            for k in (1, prob.n - 1):
                bumped = sq + QSeries.term(balg, prob.n, bump, k)
                found = symmetry_defects(bumped, sol.pq)
                assert found == residual_norms(bumped, sol.pq) and min(found) == k


def test_an_extra_unit_pair_is_located_at_its_order():
    # (1, 1) commutes with every ad p_i, so an extra unit pair at q^2 shows
    # at q^2 only, with norm 2
    for prob, s0 in symmetry_cases():
        sol = lax_solve(prob)
        sq = transport(s0, sol.pq, sol.lq)
        extra = QSeries.term(BiOpAlgebra(prob.alg), prob.n, BiOp.identity(prob.alg), 2)
        assert symmetry_defects(sq + extra, sol.pq) == {2: 2}


def test_symmetry_defects_need_known_coordinates():
    palg = PsdoAlgebra()
    l_op, p_op = kdv_pair()
    pq = deform(TPoly.const(palg, p_op), 2)
    cut = PsdoSymbol.of(l_op.terms, floor=-1)
    sq = QSeries.constant(BiOpAlgebra(palg), 2, BiOp.of(palg, [(cut, PsdoSymbol.one())]))
    assert symmetry_defects(sq, pq) is None


@settings(max_examples=80, deadline=None)
@given(tensor_sums(matrices(2, bound=2)), tensor_sums(diffops(max_order=2)))
def test_packed_tensor_norm_matches_the_basis_pair_sum(matrix_terms, symbol_terms):
    # the packed rows decode to the coordinates collected by basis pair
    from qlax import symops

    for alg, terms in ((M2, matrix_terms), (PsdoAlgebra(), symbol_terms)):
        bop = BiOp(alg, tuple(terms))
        packed = symops._tensor_defect([(1, left.coords(), right.coords()) for left, right in terms])
        assert packed == tensor_norm(bop)
        assert bop.tensor_is_zero() == (packed is None)


# -- transported solutions -------------------------------------------------------

def carries_solutions(s0, prob):
    """The symmetry command's check: one solve, one transport."""
    sol = lax_solve(prob)
    return transported_solution_check(s0, prob, sol, transport(s0, sol.pq))


def test_transported_solution_identity():
    prob = rand_problem(29, n=2, nn=2)
    assert carries_solutions(BiOp.identity(M2), prob)


def test_transported_solution_random_matrix():
    for seed in (31, 37):
        prob = rand_problem(seed, n=3, nn=2)
        stream = int_stream(seed + 1000)
        s0 = rand_biop(M2, stream)
        assert carries_solutions(s0, prob)


def test_transported_solution_kdv():
    l_op, p_op = kdv_pair()
    palg = PsdoAlgebra()
    prob = LaxProblem(p=TPoly.const(palg, p_op), l0=l_op, n=2)
    degenerate = ad(PsdoSymbol.one(), palg) + BiOp.identity(palg)
    assert extensionally_equal(degenerate, BiOp.identity(palg), palg.probes())
    assert carries_solutions(degenerate, prob)
    left_mult = BiOp.of(palg, [(l_op, PsdoSymbol.one())])
    assert carries_solutions(left_mult, prob)


def test_transported_solution_rejects_wrong_start():
    # transported from S0' with S0'(L0) != S0(L0): a solution, but not the
    # one that starts at S0(L0)
    prob = rand_problem(59, n=3, nn=2)
    sol = lax_solve(prob)
    stream = int_stream(61)
    s0, other = rand_biop(M2, stream), rand_biop(M2, stream)
    assert other.apply(prob.l0) != s0.apply(prob.l0)
    sq = transport(other, sol.pq)
    assert lax_residual(apply_series(sq, sol.lq), sol.pq).is_zero()
    assert transported_solution_check(other, prob, sol, sq)
    assert not transported_solution_check(s0, prob, sol, sq)

    l_op, p_op = kdv_pair()
    palg = PsdoAlgebra()
    kdv = LaxProblem(p=TPoly.const(palg, p_op), l0=l_op, n=2)
    sol = lax_solve(kdv)
    left_mult = BiOp.of(palg, [(l_op, PsdoSymbol.one())])
    sq = transport(left_mult, sol.pq)
    assert not transported_solution_check(BiOp.identity(palg), kdv, sol, sq)


def test_transported_solution_rejects_perturbed_coefficient():
    # a bump q^k*t^k with k >= 1 leaves M(t=0) as it was, so only the flow
    # equation can reject it
    prob = rand_problem(67, n=3, nn=2)
    sol = lax_solve(prob)
    s0 = rand_biop(M2, int_stream(71))
    sq = transport(s0, sol.pq)
    assert transported_solution_check(s0, prob, sol, sq)
    balg = BiOpAlgebra(M2)
    for k in (1, prob.n):
        perturbed = sq + QSeries.term(balg, prob.n, BiOp.identity(M2), k)
        start = lambda s: apply_series(s, sol.lq).coeffs[0]
        assert start(perturbed) == start(sq)
        assert not transported_solution_check(s0, prob, sol, perturbed)


def test_transported_solution_rejects_wrong_lq():
    # S0 = 0 carries every Lq to M = 0, so only the checks on Lq itself can
    # reject a frozen Lq (wrong equation) or a shifted one (wrong start)
    from qlax import LaxSolution

    prob = rand_problem(79, n=3, nn=2)
    sol = lax_solve(prob)
    zero = BiOp.zero(M2)
    sq = transport(zero, sol.pq)
    assert transported_solution_check(zero, prob, sol, sq)
    frozen = QSeries.constant(M2, prob.n, prob.l0)
    shifted = sol.lq + QSeries.one(M2, prob.n)
    for lq in (frozen, shifted):
        assert not transported_solution_check(zero, prob, LaxSolution(lq=lq, pq=sol.pq), sq)


def test_default_probes_shapes():
    assert len(MatrixAlgebra(3).probes()) == 9
    assert MatrixAlgebra(2).probes()[1] == RatMatrix.of([[0, 1], [0, 0]])
    psdo_probes = PsdoAlgebra().probes()
    assert PsdoSymbol.one() in psdo_probes
    assert len(psdo_probes) == 5
    with pytest.raises(TypeError):
        BiOpAlgebra(M2).probes()  # no backend, no default probe set
