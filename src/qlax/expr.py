"""The operator expression DSL: parsing and elaboration.

Grammar (EBNF):

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' nat)? | '-' factor
    atom     := rational | 'u' ('_' nat)? | 'd' | '(' expr ')'
    rational := integer ('/' positive-integer)?

``u``, ``u_1``, ``u_2``, ... are the jet variables, ``d`` is the derivative
symbol (order-1 symbol xi).  ``*`` is noncommutative and elaborates through
symbol composition, so ``d*u`` denotes u*d + u_1 as an operator.  Only
nonnegative powers of ``d`` are denotable: every well-formed expression
elaborates to an exact differential-operator symbol.

Digits are ASCII ``0-9``: a non-ASCII digit starts a word that names no
identifier, and a digit run longer than ``int`` reads is a ``ParseError``.

The parser elaborates as it goes, into a symbol or into a plain
differential polynomial (used for coefficients), where ``d`` is rejected
as unbound.  Sums and products are parsed by loops, so a long flat sum
does not recurse; only nesting depth is limited.
"""

from __future__ import annotations

import operator
import re
import sys
from fractions import Fraction
from typing import List, NoReturn

from .diffpoly import MAX_JET, DiffPoly
from .errors import ParseError, UnboundIdentifier
from .psdo import PsdoSymbol, compose


# -- tokens ------------------------------------------------------------

# Blanks other than a line break, then one alternative per lexeme, in order:
# ASCII digits, a word (not starting with an ASCII digit or "_"),
# punctuation, line break, any other visible character (an error), or the
# end of the text, so that blanks at the end are one match and not retried
# from each position.
_LEXEME = re.compile(r"[^\S\n]*(?:(?P<int>[0-9]+)|(?P<word>[^\W0-9_]\w*)|(?P<punct>[-+*^()/])"
                     r"|(?P<newline>\n)|(?P<other>\S)|\Z)")
_JET = re.compile(r"u(?:_([0-9]+))?")


class Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        # kind is 'int', 'jet', 'd', one of + - * ^ ( ) /, or 'eof'
        self.kind, self.text, self.line, self.column = kind, text, line, column


def _tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    line, line_start = 1, 0
    for m in _LEXEME.finditer(source):
        if not (kind := m.lastgroup):  # the end of the text
            break
        text, column = m[kind], m.start(kind) - line_start + 1
        jet = kind == "word" and _JET.fullmatch(text)
        digits = jet[1] if jet else m["int"]
        if digits and len(digits) > sys.get_int_max_str_digits() > 0:  # then int() raises; 0 is no limit
            raise ParseError(f"number too long: {len(digits)} digits, above {sys.get_int_max_str_digits()}", line, column)
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "other":
            raise ParseError(f"unexpected character {text!r}", line, column)
        elif jet:
            if int(jet[1] or 0) > MAX_JET:
                raise ParseError(f"jet index too large in {text!r}: above {MAX_JET}", line, column)
            tokens.append(Token("jet", jet[1] or "0", line, column))
        elif kind == "word" and text != "d":
            raise UnboundIdentifier(f"unknown identifier {text!r}", line, column)
        else:
            tokens.append(Token("int" if kind == "int" else text, text, line, column))
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens


# -- parsing and elaboration ------------------------------------------------

class _Parser:
    """Recursive descent that returns each rule's value in ``target`` (see _OPERATOR)."""

    def __init__(self, tokens: List[Token], target: tuple):
        self.tokens = tokens
        self.pos = 0
        self.lit, self.jet, self.d, self.add, self.sub, self.neg, self.mul, self.pow = target

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        return self.next()

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column)
        return value

    def expr(self):
        value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.add if self.next().kind == "+" else self.sub
            value = op(value, self.term())
        return value

    def term(self):
        value = self.factor()
        while self.peek().kind == "*":
            tok = self.next()
            value = self.mul(value, self.factor(), tok)
        return value

    def factor(self):
        if self.peek().kind == "-":
            self.next()
            return self.neg(self.factor())
        value = self.atom()
        if self.peek().kind == "^":
            self.next()
            value = self.pow(value, self.expect("int"))
        return value

    def atom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            value = Fraction(int(tok.text))
            if self.peek().kind == "/":
                self.next()
                den = self.expect("int")
                if int(den.text) == 0:
                    raise ParseError("denominator must be positive", den.line, den.column)
                value = Fraction(int(tok.text), int(den.text))
            return self.lit(value)
        if tok.kind == "jet":
            self.next()
            return self.jet(int(tok.text))
        if tok.kind == "d":
            self.next()
            return self.d(tok)
        if tok.kind == "(":
            self.next()
            value = self.expr()
            self.expect(")")
            return value
        raise ParseError(
            f"expected a value, found {tok.text or 'end of input'!r}",
            tok.line,
            tok.column,
        )


# Elaborating x^n takes n products, and the terms of (d+u)^n grow so fast
# that (d+u)^16 takes about 0.4 s, (d+u)^24 about 2 s and (d+u)^32 about
# 15 s.  So the exponents on any path through nested powers (a zero
# exponent counts as 1) may multiply to at most 24, and so may the degree
# the expression elaborates to, where a literal has degree 0, u_j and d
# degree 1, a product adds, a sum takes the max and a power multiplies.
MAX_POWER = 24


def _records(*parts: list) -> list:
    # (product, token) pairs in pre-order.  Any enclosing power scales a
    # power and the ones before it alike, so one whose product does not beat
    # every earlier one is never the first above MAX_POWER.  Keeping only the
    # records up to that first one (at most 25) keeps the pass linear.
    kept: list = []
    for part in parts:
        for power in part:
            if not kept or kept[-1][0] < power[0] and kept[-1][0] <= MAX_POWER:
                kept.append(power)
    return kept


def _degree(degree: int, records: list, where, tok: Token) -> tuple:
    # Past MAX_POWER only "too large" matters, so the count stays small;
    # ``where`` is the token at which the degree first passed it.
    if degree > MAX_POWER and where is None:
        where = tok
    return min(degree, MAX_POWER + 1), records, where


def _sum(a: tuple, b: tuple) -> tuple:
    return max(a[0], b[0]), _records(a[1], b[1]), a[2] or b[2]


def _product(a: tuple, b: tuple, tok: Token) -> tuple:
    return _degree(a[0] + b[0], _records(a[1], b[1]), a[2] or b[2], tok)


def _scaled(base: tuple, tok: Token) -> tuple:
    n = int(tok.text)
    m = max(n, 1)
    return _degree(base[0] * n, _records([(m, tok)], [(product * m, t) for product, t in base[1]]), base[2], tok)


def _power(base, tok: Token):
    return base ** int(tok.text)


def _unbound_d(tok: Token) -> NoReturn:
    raise UnboundIdentifier("'d' does not denote a differential polynomial", tok.line, tok.column)


# How each target denotes a literal, a jet variable, d, a sum, a
# difference, a negation, a product and a power; d, a product and a power
# receive their token, so errors keep line and column.  A _POWERS value is
# the degree, the powers in pre-order with the product of the exponents on
# their paths, and the token where the degree first passed MAX_POWER.
_OPERATOR = (
    PsdoSymbol.const, lambda j: PsdoSymbol.from_dp(DiffPoly.u(j)), lambda _: PsdoSymbol.xi(1),
    operator.add, operator.sub, operator.neg, lambda a, b, _: compose(a, b), _power,
)
_DIFFPOLY = (
    DiffPoly.const, DiffPoly.u, _unbound_d, operator.add, operator.sub, operator.neg, lambda a, b, _: a * b, _power,
)
_POWERS = (lambda _: (0, [], None), lambda _: (1, [], None), lambda _: (1, [], None), _sum, _sum, lambda p: p,
           _product, _scaled)


def parse_operator(text: str) -> PsdoSymbol:
    """DSL text as an exact differential-operator symbol."""
    return _elaborate(text, _OPERATOR)


def parse_diffpoly(text: str) -> DiffPoly:
    """DSL text as a differential polynomial; rejects ``d``."""
    return _elaborate(text, _DIFFPOLY)


def _elaborate(text: str, target: tuple):
    # Powers and degree are bounded before anything is elaborated.  Sums
    # and products are loops, so only nesting recurses: deep brackets end here.
    try:
        tokens = _tokenize(text)
        _, powers, where = _Parser(tokens, _POWERS).parse()
        for product, tok in powers:
            if product > MAX_POWER:
                raise ParseError(
                    f"power too large in {text!r}: nested exponents multiply to {product}, above {MAX_POWER}",
                    tok.line,
                    tok.column,
                )
        if where is not None:
            raise ParseError(f"degree too large in {text!r}: above {MAX_POWER}", where.line, where.column)
        return _Parser(tokens, target).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", 1, 1) from None
