"""The differential polynomial ring."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlax import DegreeOverflow, DiffPoly, PsdoSymbol, UnboundIdentifier, compose, parse_diffpoly
from qlax.diffpoly import MAX_DEGREE

from conftest import diffpolys
from reference import max_jet, weight

U = DiffPoly.u(0)
U1 = DiffPoly.u(1)
U2 = DiffPoly.u(2)
U3 = DiffPoly.u(3)


def test_mul_examples():
    assert U * U == U ** 2
    assert (U + U1) * (U - U1) == U ** 2 - U1 ** 2
    p = U2 * U + DiffPoly.const(Fraction(5, 3))
    assert DiffPoly.one() * p == p


def test_dx_examples():
    assert U.dx() == U1
    assert (U ** 2).dx() == (U * U1).scale(2)
    assert (U * U1).dx() == U1 ** 2 + U * U2


@given(diffpolys(), diffpolys())
def test_dx_is_a_derivation(a, b):
    assert (a * b).dx() == a.dx() * b + a * b.dx()


def test_dx_raises_weight_by_one_on_homogeneous_inputs():
    # u*u_2 and u_1^2 both have weight 2
    for p in (U * U2, U1 ** 2, (U * U2 + U1 ** 2).scale(3)):
        assert weight(p.dx()) == weight(p) + 1


def test_weight_and_degree():
    assert weight(U * U2) == 2
    assert (U * U2).degree() == 2
    assert weight(DiffPoly.zero()) == -1
    assert weight(DiffPoly.const(4)) == 0


def test_parse_examples():
    assert parse_diffpoly("6*u*u_1 - u_3") == (U * U1).scale(6) - U3
    assert parse_diffpoly("u^2") == U ** 2
    assert parse_diffpoly("u_0 + 0") == U  # zero term absorbed
    assert parse_diffpoly("3/7*u") == U.scale(Fraction(3, 7))


def test_parse_rejects_derivative_symbol():
    with pytest.raises(UnboundIdentifier):
        parse_diffpoly("d*u")


@given(diffpolys())
def test_parse_print_roundtrip(p):
    assert parse_diffpoly(p.text()) == p


def test_text_deterministic_order():
    p = (U * U1).scale(6) - U3
    assert p.text() == "6*u*u_1 - u_3"
    assert str(U ** 2 - U1 ** 2) == "u^2 - u_1^2"
    assert DiffPoly.zero().text() == "0"


def test_products_stop_at_the_packed_degree_limit():
    half = U ** (MAX_DEGREE // 2)
    top = half * half  # degrees sum to exactly the limit
    assert top.degree() == MAX_DEGREE
    assert top.terms == ((((0, MAX_DEGREE),), Fraction(1)),)
    assert top.dx() == (U ** (MAX_DEGREE - 1) * U1).scale(MAX_DEGREE)
    for a, b in ((half, half * U), (top, U), (top, U1 + DiffPoly.one())):  # one past it
        with pytest.raises(DegreeOverflow):
            a * b
    with pytest.raises(DegreeOverflow):
        compose(PsdoSymbol.from_dp(top), PsdoSymbol.from_dp(U1))
    with pytest.raises(DegreeOverflow):
        DiffPoly.from_terms([(((0, MAX_DEGREE), (1, 1)), 1)])


# -- reference: the tuple/Fraction representation --------------------------------

def ref_key(m):
    # total degree, then the dense exponent vector read from u_0 upward
    vec = [0] * (m[-1][0] + 1) if m else []
    for j, e in m:
        vec[j] = e
    return (sum(e for _, e in m), vec)


class RefPoly:
    """Monomials as sorted (jet, exponent) tuples, Fraction coefficients,
    terms in descending graded order."""

    def __init__(self, items):
        merged = {}
        for m, c in items:
            merged[m] = merged.get(m, Fraction(0)) + c
        self.terms = tuple(sorted(((m, c) for m, c in merged.items() if c), key=lambda t: ref_key(t[0]), reverse=True))

    def __add__(self, other):
        return RefPoly(self.terms + other.terms)

    def __neg__(self):
        return RefPoly((m, -c) for m, c in self.terms)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = []
        for ma, ca in self.terms:
            for mb, cb in other.terms:
                exps = dict(ma)
                for j, e in mb:
                    exps[j] = exps.get(j, 0) + e
                out.append((tuple(sorted(exps.items())), ca * cb))
        return RefPoly(out)

    def dx(self):
        out = []
        for m, c in self.terms:
            for j, e in m:
                exps = dict(m)
                exps[j] -= 1
                exps[j + 1] = exps.get(j + 1, 0) + 1
                out.append((tuple(sorted((i, f) for i, f in exps.items() if f)), c * e))
        return RefPoly(out)

    def scale(self, c):
        return RefPoly((m, c * k) for m, k in self.terms)

    def max_abs(self):
        return max((abs(c) for _, c in self.terms), default=Fraction(0))

    def degree(self):
        return max((sum(e for _, e in m) for m, _ in self.terms), default=-1)

    def weight(self):
        return max((sum(j * e for j, e in m) for m, _ in self.terms), default=-1)

    def max_jet(self):
        return max((m[-1][0] for m, _ in self.terms if m), default=-1)

    def text(self):
        def name(m):
            return "*".join(("u" if j == 0 else f"u_{j}") + ("" if e == 1 else f"^{e}") for j, e in m)

        chunks = []
        for m, c in self.terms:
            mag = abs(c)
            body = str(mag) if not m else name(m) if mag == 1 else f"{mag}*{name(m)}"
            sign = ("" if c > 0 else "-") if not chunks else (" + " if c > 0 else " - ")
            chunks.append(sign + body)
        return "".join(chunks) or "0"


wide_monomials = st.lists(st.tuples(st.integers(0, 5), st.integers(1, 4)), max_size=3).map(
    lambda pairs: tuple(sorted(dict(pairs).items()))
)
rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)
term_lists = st.lists(st.tuples(wide_monomials, rationals), max_size=5)


def canonical(p: DiffPoly) -> bool:
    return p.den > 0 and all(p.nums.values()) and math.gcd(p.den, *p.nums.values()) == 1


@settings(max_examples=300, deadline=None)
@given(term_lists, term_lists, rationals)
def test_kernel_matches_fraction_reference(ta, tb, c):
    a, b = DiffPoly.from_terms(ta), DiffPoly.from_terms(tb)
    ra, rb = RefPoly(ta), RefPoly(tb)
    assert a.terms == ra.terms and b.terms == rb.terms
    for got, ref in ((a + b, ra + rb), (a - b, ra - rb), (-a, -ra), (a * b, ra * rb), (a.dx(), ra.dx()),
                     (a.scale(c), ra.scale(c)), (b.dx().dx(), rb.dx().dx())):
        assert canonical(got)
        assert got.terms == ref.terms
        assert got.text() == ref.text()
        assert (got.max_abs(), got.degree(), weight(got), max_jet(got)) == (
            ref.max_abs(), ref.degree(), ref.weight(), ref.max_jet())
    assert (a == b) == (ra.terms == rb.terms)
    rebuilt = DiffPoly.from_terms(reversed(ra.terms))
    assert rebuilt == a and hash(rebuilt) == hash(a)
    assert (a + b - b) == a and hash(a + b - b) == hash(a)
