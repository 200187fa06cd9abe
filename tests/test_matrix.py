"""Exact matrices, deterministic randomness, convergence study."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlax import (
    LaxProblem,
    MatrixAlgebra,
    RatMatrix,
    ShapeMismatch,
    TPoly,
    convergence_study,
    eval_tq,
    lax_solve,
    lcg,
    mat_random,
)

from conftest import matrices
from reference import Singular, det, invert

M2 = MatrixAlgebra(2)


def test_invert_examples():
    assert invert(M2.one) == M2.one
    assert invert(RatMatrix.of([[1, 1], [0, 1]])) == RatMatrix.of([[1, -1], [0, 1]])


@settings(max_examples=40, deadline=None)
@given(matrices(n=3))
def test_invert_property(m):
    if det(m) == 0:
        with pytest.raises(Singular):
            invert(m)
    else:
        assert m * invert(m) == RatMatrix.identity(3)
        assert invert(m) * m == RatMatrix.identity(3)


# -- the integer-numerator kernel against a Fraction-entry reference ------------

def ref_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def ref_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def ref_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols) for row in a)


def ref_scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def ref_json(a):
    return [[str(x) for x in row] for row in a]


def ref_str(a):
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in a) + "]"


def ref_max_abs(a):
    return max(abs(x) for row in a for x in row)


def assert_canonical(m):
    assert m.den > 0
    assert gcd(m.den, *(x for row in m.num for x in row)) == 1
    assert all(type(x) is int for row in m.num for x in row)


# Mixed denominators, so sums and products need a common denominator and a
# reduction; zero is common enough to hit all-zero matrices.
mixed_fractions = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
)


@st.composite
def fraction_rows(draw, n):
    return tuple(tuple(draw(mixed_fractions) for _ in range(n)) for _ in range(n))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(fraction_rows(n), fraction_rows(n))), mixed_fractions)
def test_kernel_matches_fraction_reference(rows, c):
    ra, rb = rows
    a, b = RatMatrix.of(ra), RatMatrix.of(rb)
    for m, ref in (
        (a, ra),
        (a + b, ref_add(ra, rb)),
        (-a, ref_neg(ra)),
        (a - b, ref_add(ra, ref_neg(rb))),
        (a * b, ref_mul(ra, rb)),
        (b * a, ref_mul(rb, ra)),
        (a.scale(c), ref_scale(c, ra)),
    ):
        assert_canonical(m)
        assert m.entries == ref
        assert m == RatMatrix.of(ref) and hash(m) == hash(RatMatrix.of(ref))
        assert m.to_json() == ref_json(ref)
        assert str(m) == ref_str(ref)
        assert m.max_abs() == ref_max_abs(ref)
    assert (a == b) == (ra == rb)
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    assert (a - a).is_zero() and (a - a) == RatMatrix.zeros(a.n)
    assert a.is_zero() == all(x == 0 for row in ra for x in row)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(fraction_rows(n), fraction_rows(n))))
def test_bracket_matches_products(rows):
    ra, rb = rows
    a, b = RatMatrix.of(ra), RatMatrix.of(rb)
    ab = a.bracket(b)
    assert_canonical(ab)
    assert ab == a * b - b * a and hash(ab) == hash(a * b - b * a)
    assert ab.entries == ref_add(ref_mul(ra, rb), ref_neg(ref_mul(rb, ra)))
    assert b.bracket(a) == -ab and a.bracket(a).is_zero()


def ref_dot(rows, bracket, divisor):
    n = len(rows[0][0])
    acc = tuple((Fraction(0),) * n for _ in range(n))
    for ra, rb in rows:
        term = ref_mul(ra, rb)
        acc = ref_add(acc, ref_add(term, ref_neg(ref_mul(rb, ra))) if bracket else term)
    return ref_scale(Fraction(1, divisor), acc)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda n: st.lists(st.tuples(fraction_rows(n), fraction_rows(n)), min_size=1, max_size=3)),
    st.booleans(),
    st.integers(1, 12),
)
def test_dot_matches_the_pairwise_sum(rows, bracket, divisor):
    # mixed denominators across the pairs, a divisor folded into the result
    pairs = [(RatMatrix.of(ra), RatMatrix.of(rb)) for ra, rb in rows]
    got = RatMatrix.dot(pairs, bracket, divisor)
    assert_canonical(got)
    assert got.entries == ref_dot(rows, bracket, divisor)
    assert got == RatMatrix.of(ref_dot(rows, bracket, divisor))
    # each pair against its negative cancels to the canonical zero
    cancelled = RatMatrix.dot(pairs + [(-a, b) for a, b in pairs], bracket, divisor)
    assert cancelled == RatMatrix.zeros(len(rows[0][0])) and cancelled.den == 1
    # dot_defect measures k*target minus the same sum without calling dot:
    # none at the sum itself, divisor*|c| off a multiple c of the identity,
    # and the sum's largest entry against zero
    n = len(rows[0][0])
    assert RatMatrix.dot_defect(pairs, bracket, divisor, got) is None
    c = Fraction(-3, 7)
    assert RatMatrix.dot_defect(pairs, bracket, divisor, got + RatMatrix.identity(n).scale(c)) == divisor * abs(c)
    norm = ref_max_abs(ref_dot(rows, bracket, 1))
    assert RatMatrix.dot_defect(pairs, bracket, divisor, RatMatrix.zeros(n)) == (norm or None)


def test_dot_rejects_mixed_sizes():
    a, b = RatMatrix.identity(2), RatMatrix.identity(3)
    for pairs in ([(a, b)], [(b, a)], [(a, a), (a, b)], [(a, a), (b, a)], [(a, a), (b, b)]):
        for bracket in (False, True):
            with pytest.raises(ShapeMismatch):
                RatMatrix.dot(pairs, bracket)


def test_kernel_examples():
    m = RatMatrix.of([["1/2", "1/3"], ["0", "-5/6"]])
    assert (m.num, m.den) == (((3, 2), (0, -5)), 6)
    assert m.to_json() == [["1/2", "1/3"], ["0", "-5/6"]]
    assert str(m) == "[[1/2, 1/3], [0, -5/6]]"
    assert m.max_abs() == Fraction(5, 6)
    assert m.trace() == Fraction(-1, 3)
    # a product whose denominators cancel comes back with den 1
    assert (m.scale(6) * M2.one).den == 1
    assert RatMatrix.of([["2/4", "-4/8"], ["0", "0"]]) == RatMatrix.of([["1/2", "-1/2"], [0, 0]])


def test_shape_mismatch():
    a, b = RatMatrix.identity(2), RatMatrix.identity(3)
    for op in (lambda: a * b, lambda: b * a, lambda: a + b, lambda: b - a, lambda: a.bracket(b), lambda: b.bracket(a)):
        with pytest.raises(ShapeMismatch):
            op()


def test_lcg_golden_values():
    # frozen so any constant drift shows up on every platform
    stream = lcg(0)
    assert next(stream) == 1442695040888963407
    assert next(stream) == 1876011003808476466


def test_mat_random_determinism():
    a = mat_random(3, 42, 5)
    b = mat_random(3, 42, 5)
    assert a == b
    assert mat_random(3, 43, 5) != a
    assert mat_random(1, 7, 0) == RatMatrix.zeros(1)
    assert all(abs(x) <= 5 for row in a.entries for x in row)


def test_mat_random_validation():
    with pytest.raises(ValueError):
        mat_random(0, 1, 1)
    with pytest.raises(ValueError):
        mat_random(2, 1, -1)


def nilpotent_problem(n=2):
    return LaxProblem(
        p=TPoly.const(M2, RatMatrix.of([[0, 1], [0, 0]])),
        l0=RatMatrix.of([[1, 0], [0, -1]]),
        n=n,
    )


def test_convergence_nilpotent_is_exact():
    report = convergence_study(nilpotent_problem(2), [Fraction(1, 8), Fraction(1, 16)], 8)
    assert all(p.error == 0 for p in report.points)
    assert all(p.ratio_to_prev is None for p in report.points)


def test_convergence_at_zero():
    prob = LaxProblem(
        p=TPoly.const(M2, RatMatrix.of([[1, 1], [1, 0]])),
        l0=RatMatrix.of([[1, 2], [3, 4]]),
        n=2,
    )
    report = convergence_study(prob, [0], 5)
    assert report.points[0].error == 0


def test_convergence_random_3x3_ratio_near_eight():
    alg = MatrixAlgebra(3)
    prob = LaxProblem(
        p=TPoly.const(alg, mat_random(3, 11, 2)),
        l0=mat_random(3, 12, 2),
        n=2,
    )
    report = convergence_study(prob, ["1/8", "1/16"], 8)
    ratio = report.points[1].ratio_to_prev
    assert ratio is not None
    assert Fraction(7, 10) * 8 <= ratio <= Fraction(13, 10) * 8


def test_convergence_solves_once_and_matches_two_solves(monkeypatch):
    # the order-n solution is the reference's first n+1 coefficients, so the
    # study solves only at the reference order
    from qlax import matrix

    alg = MatrixAlgebra(3)
    p = TPoly.of(alg, [mat_random(3, 21, 2), mat_random(3, 22, 2)])
    prob = LaxProblem(p=p, l0=mat_random(3, 23, 2), n=3)
    solves = []
    monkeypatch.setattr(matrix, "lax_solve", lambda pr: solves.append(pr.n) or lax_solve(pr))
    qs = [Fraction(1, 8), Fraction(-1, 3), 2]
    report = convergence_study(prob, qs, 9)
    assert solves == [9]
    lq, ref = lax_solve(prob).lq, lax_solve(LaxProblem(p=p, l0=prob.l0, n=9)).lq
    assert lq.coeffs == ref.coeffs[:4]
    for q0, point in zip(qs, report.points):
        assert point.error == (eval_tq(lq, 1, q0) - eval_tq(ref, 1, q0)).max_abs() != 0


def test_convergence_requires_headroom():
    with pytest.raises(ValueError):
        convergence_study(nilpotent_problem(2), [Fraction(1, 2)], 3)


def test_nilpotent_evaluation_preserves_trace_and_det():
    sol = lax_solve(nilpotent_problem(3))
    for t0, q0 in ((1, Fraction(1, 2)), (Fraction(2, 3), Fraction(1, 5))):
        m = eval_tq(sol.lq, t0, q0)
        assert m.trace() == Fraction(0)
        assert det(m) == Fraction(-1)


def test_trace_constant_modulo_truncation():
    alg = MatrixAlgebra(3)
    prob = LaxProblem(
        p=TPoly.const(alg, mat_random(3, 21, 2)),
        l0=mat_random(3, 22, 2),
        n=4,
    )
    sol = lax_solve(prob)
    traces = [c.trace() for c in sol.lq.coeffs]
    assert traces[0] == prob.l0.trace()
    for c in traces[1:]:
        assert c == 0
