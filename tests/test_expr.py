"""The operator DSL: grammar, positions, elaboration, round trips."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlax import (
    DiffPoly,
    ParseError,
    PsdoSymbol,
    UnboundIdentifier,
    commutator,
    compose,
    kdv_pair,
    parse_operator,
    render_operator,
)

from conftest import diffops
from reference import tokenize_by_characters

U = DiffPoly.u(0)
U1 = DiffPoly.u(1)


def test_parse_kdv_operators():
    assert parse_operator("-d^2 + u") == kdv_pair().L
    assert parse_operator("-4*d^3 + 3*(d*u + u*d)") == kdv_pair().P


def test_parse_noncommutative_product():
    assert parse_operator("d*u") == PsdoSymbol.of({1: U, 0: U1}.items())
    assert parse_operator("u*d") == PsdoSymbol.of({1: U}.items())


def test_parse_rationals_and_powers():
    assert parse_operator("3/7") == PsdoSymbol.const(Fraction(3, 7))
    assert parse_operator("2^3") == PsdoSymbol.const(8)
    assert parse_operator("(1/2 + 1/2)*d") == PsdoSymbol.xi(1)
    assert parse_operator("-d^2") == PsdoSymbol.xi(2, -1)
    assert parse_operator("d^0") == PsdoSymbol.one()


def test_nested_powers_are_bounded():
    from qlax import parse_diffpoly
    from qlax.expr import MAX_POWER

    assert MAX_POWER == 24
    for parse, atom in ((parse_operator, "d"), (parse_diffpoly, "u")):
        # the exponents on a path multiply, and an exponent 0 counts as 1;
        # the degree adds over a product and is bounded by the same number
        for text in (f"{atom}^24", f"(({atom}^2)^3)^4", f"({atom}^0)^24", f"{atom}^12*{atom}^12"):
            parse(text)
        for text, column in (
            (f"{atom}^24*{atom}^24", 5),
            (f"({atom}*{atom})^13", 7),
            (f"{atom}*({atom}^12*{atom}^12*{atom})", 13),
            (f"{atom}^25", 3),
            (f"({atom}^5)^5", 4),
            (f"(({atom}^2)^3)^5", 5),
            (f"(({atom}^0)^5)^5", 8),
            (f"(1 + ({atom}^99999999 - u))^1", 9),
        ):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.column == column, text
            assert repr(text) in str(err.value)
    assert parse_operator("d^24") == PsdoSymbol.xi(24)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_operator("u + ")
    assert err.value.column == 5
    with pytest.raises(ParseError) as err:
        parse_operator("(u + d")
    assert err.value.column == 7
    with pytest.raises(ParseError) as err:
        parse_operator("u ^ x")
    assert err.value.column == 5
    with pytest.raises(ParseError) as err:
        parse_operator("u +\n* d")
    assert (err.value.line, err.value.column) == (2, 1)


def test_unbound_identifiers():
    with pytest.raises(UnboundIdentifier) as err:
        parse_operator("2*v + u")
    assert err.value.column == 3
    with pytest.raises(UnboundIdentifier):
        parse_operator("u_x")
    with pytest.raises(UnboundIdentifier):
        parse_operator("du")


# ASCII lexemes, pieces of them and characters no lexeme takes.  Joined with
# nothing between them they also make longer words ("uu", "u_12d") and runs.
PIECES = ("u", "d", "u_", "u_00001", "u_1000", "u_1001", "_", "x", "0", "7", "12", "+", "-", "*", "^", "(", ")",
          "/", " ", "\t", "\n", "\r", "\x1c", ".", "!")


def lexed(tokenize, text):
    try:
        return [(t.kind, t.text, t.line, t.column) for t in tokenize(text)]
    except ParseError as e:
        return type(e), str(e), e.line, e.column


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["", " "]).flatmap(lambda sep: st.lists(st.sampled_from(PIECES), max_size=12).map(sep.join))
       | st.text("ud_x0129+-*^()/ \n.", max_size=12))
@example("u_1000 + u_00001*u\n\t d^12 - 7/0")
@example("u_1001")
@example("u_")
def test_lexer_matches_the_character_loop_on_ascii(text):
    from qlax.expr import _tokenize

    assert lexed(_tokenize, text) == lexed(tokenize_by_characters, text)


def test_long_blank_runs_lex_quickly():
    # blanks at the end of the text are one match, not retried from each position
    import time
    from qlax.expr import _tokenize

    blanks = " \t" * 25_000
    for text in (f"u{blanks}", f"u{blanks}\n", f"{blanks}u", f"u{blanks}!"):
        start = time.monotonic()
        tokens = lexed(_tokenize, text)
        assert time.monotonic() - start < 1.0, repr(text[-3:])
        assert tokens == lexed(tokenize_by_characters, text)


def test_digits_are_ascii_and_bounded():
    # a non-ASCII digit starts a word that names no identifier, and a digit
    # run that int() would refuse is an error at its token
    for text, column in (("²", 1), ("u_²", 1), ("2*٣", 3), ("u + u_١", 5)):
        with pytest.raises(UnboundIdentifier) as err:
            parse_operator(text)
        assert err.value.column == column, text
    long = "1" * 4301
    for text, column in ((long, 1), (f"1/{long}", 3), (f"u^{long}", 3), (f"d*u_{long}", 3), ("u_" + "0" * 4301, 1)):
        with pytest.raises(ParseError, match="number too long: 4301 digits") as err:
            parse_operator(text)
        assert err.value.column == column, text
    assert parse_operator("u_" + "0" * 4299 + "1") == parse_operator("u_1")


def test_parse_rejects_zero_denominator():
    with pytest.raises(ParseError):
        parse_operator("1/0")


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_operator("u u")
    with pytest.raises(ParseError):
        parse_operator("")


def test_elaboration_yields_exact_nonnegative_orders():
    sym = parse_operator("(u + d)^3 - 2*d*u*d")
    assert sym.floor is None
    assert all(k >= 0 for k, _ in sym.terms)


def test_render_examples():
    l_op, p_op = kdv_pair()
    assert render_operator(l_op) == "-d^2 + u"
    assert render_operator(p_op) == "-4*d^3 + 6*u*d + 3*u_1"
    assert render_operator(commutator(p_op, l_op)) == "6*u*u_1 - u_3"
    assert render_operator(PsdoSymbol.zero()) == "0"
    assert render_operator(PsdoSymbol.xi(1)) == "d"


@settings(max_examples=60, deadline=None)
@given(diffops())
def test_render_parse_roundtrip(sym):
    assert parse_operator(render_operator(sym)) == sym


def test_roundtrip_with_multiterm_coefficients():
    sym = compose(parse_operator("u + u_1"), parse_operator("d^2 - u"))
    assert parse_operator(render_operator(sym)) == sym
