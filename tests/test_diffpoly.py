"""The differential polynomial ring."""

from fractions import Fraction

import pytest
from hypothesis import given

from qlax import DiffPoly, UnboundIdentifier, parse_diffpoly

from conftest import diffpolys

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
        assert p.dx().weight() == p.weight() + 1


def test_weight_and_degree():
    assert (U * U2).weight() == 2
    assert (U * U2).degree() == 2
    assert DiffPoly.zero().weight() == -1
    assert DiffPoly.const(4).weight() == 0


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
