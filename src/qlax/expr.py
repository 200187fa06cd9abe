"""The operator expression DSL: parsing, elaboration, rendering.

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

The same syntax trees also elaborate into plain differential polynomials
(used for coefficients); there ``d`` is rejected as unbound.

``render_operator`` produces text that reparses to an equal symbol while its
powers stay within MAX_POWER, e.g. ``-d^2 + u`` or ``(6*u*u_1 - u_3)*d^2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, NoReturn, Tuple, Union

from .diffpoly import DiffPoly, mono_text
from .errors import ParseError, UnboundIdentifier
from .psdo import PsdoSymbol, compose


# -- tokens ------------------------------------------------------------

_PUNCT = "+-*^()/"


@dataclass(frozen=True)
class Token:
    kind: str  # 'int', 'jet', 'd', one of + - * ^ ( ) /, or 'eof'
    text: str
    line: int
    column: int


def _tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    line, col = 1, 1
    i = 0
    while i < len(source):
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < len(source) and source[j].isdigit():
                j += 1
            tokens.append(Token("int", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(source) and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            if word == "d":
                tokens.append(Token("d", word, line, start_col))
            elif word == "u":
                tokens.append(Token("jet", "0", line, start_col))
            elif word.startswith("u_") and word[2:].isdigit():
                tokens.append(Token("jet", word[2:], line, start_col))
            else:
                raise UnboundIdentifier(f"unknown identifier {word!r}", line, start_col)
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(Token(ch, ch, line, start_col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# -- syntax trees --------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: Fraction
    line: int
    column: int


@dataclass(frozen=True)
class Jet:
    index: int
    line: int
    column: int


@dataclass(frozen=True)
class Deriv:
    line: int
    column: int


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int
    line: int
    column: int


Node = Union[Lit, Jet, Deriv, Neg, Add, Sub, Mul, Pow]


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

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

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next()
            rhs = self.term()
            node = Add(node, rhs) if op.kind == "+" else Sub(node, rhs)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind == "*":
            self.next()
            node = Mul(node, self.factor())
        return node

    def factor(self) -> Node:
        if self.peek().kind == "-":
            self.next()
            return Neg(self.factor())
        node = self.atom()
        if self.peek().kind == "^":
            self.next()
            tok = self.expect("int")
            node = Pow(node, int(tok.text), tok.line, tok.column)
        return node

    def atom(self) -> Node:
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
            return Lit(value, tok.line, tok.column)
        if tok.kind == "jet":
            self.next()
            return Jet(int(tok.text), tok.line, tok.column)
        if tok.kind == "d":
            self.next()
            return Deriv(tok.line, tok.column)
        if tok.kind == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(
            f"expected a value, found {tok.text or 'end of input'!r}",
            tok.line,
            tok.column,
        )


def parse_expr(text: str) -> Node:
    """Parse DSL text into a syntax tree; errors carry line and column."""
    return _Parser(_tokenize(text)).parse()


# -- elaboration ---------------------------------------------------------

# Elaborating x^n takes n products, and the terms of (d+u)^n grow so fast
# that (d+u)^16 takes about 0.4 s, (d+u)^24 about 2 s and (d+u)^32 about
# 15 s.  So the exponents on any path through nested powers (a zero
# exponent counts as 1) may multiply to at most 24.
MAX_POWER = 24


def _check_powers(node: Node, text: str, outer: int = 1) -> None:
    if isinstance(node, Pow):
        outer *= max(node.exponent, 1)
        if outer > MAX_POWER:
            raise ParseError(
                f"power too large in {text!r}: nested exponents multiply to {outer}, above {MAX_POWER}",
                node.line,
                node.column,
            )
    for child in vars(node).values():
        if isinstance(child, (Neg, Add, Sub, Mul, Pow)):
            _check_powers(child, text, outer)


def _unbound_d(node: Deriv) -> NoReturn:
    raise UnboundIdentifier("'d' does not denote a differential polynomial", node.line, node.column)


# How each target denotes a literal, a jet variable, d and a product.
_OPERATOR = (PsdoSymbol.const, lambda j: PsdoSymbol.from_dp(DiffPoly.u(j)), lambda _: PsdoSymbol.xi(1), compose)
_DIFFPOLY = (DiffPoly.const, DiffPoly.u, _unbound_d, lambda a, b: a * b)


def _value(node: Node, target: tuple):
    lit, jet, deriv, mul = target
    if isinstance(node, Lit):
        return lit(node.value)
    if isinstance(node, Jet):
        return jet(node.index)
    if isinstance(node, Deriv):
        return deriv(node)
    if isinstance(node, Neg):
        return -_value(node.arg, target)
    if isinstance(node, Pow):
        return _value(node.base, target) ** node.exponent
    left, right = _value(node.left, target), _value(node.right, target)
    if isinstance(node, Add):
        return left + right
    if isinstance(node, Sub):
        return left - right
    return mul(left, right)


def parse_operator(text: str) -> PsdoSymbol:
    """DSL text as an exact differential-operator symbol."""
    return _elaborate(text, _OPERATOR)


def parse_diffpoly(text: str) -> DiffPoly:
    """DSL text as a differential polynomial; rejects ``d``."""
    return _elaborate(text, _DIFFPOLY)


def _elaborate(text: str, target: tuple):
    # Parsing and elaboration recurse once per nesting level and once per
    # binary operator, so deep brackets and long flat sums both end here.
    try:
        node = parse_expr(text)
        _check_powers(node, text)
        return _value(node, target)
    except RecursionError:
        raise ParseError("expression nested too deeply", 1, 1) from None


# -- rendering -------------------------------------------------------------

def _coeff_chunk(dp: DiffPoly, dpow: str) -> Tuple[bool, str]:
    # Returns (negative, body) for one symbol order; body has no sign.
    if not dpow:
        if len(dp.terms) == 1:
            mono, c = dp.terms[0]
            return c < 0, (-dp if c < 0 else dp).text()
        return False, f"({dp.text()})"
    if len(dp.terms) == 1:
        mono, c = dp.terms[0]
        mag = abs(c)
        if mono == ():
            body = dpow if mag == 1 else f"{mag}*{dpow}"
        else:
            factor = mono_text(mono) if mag == 1 else f"{mag}*{mono_text(mono)}"
            body = f"{factor}*{dpow}"
        return c < 0, body
    return False, f"({dp.text()})*{dpow}"


def render_operator(sym: PsdoSymbol) -> str:
    """Deterministic text for a symbol, reparsable when the symbol is an
    exact differential operator."""
    if not sym.terms:
        return "0"
    if len(sym.terms) == 1 and sym.terms[0][0] == 0:
        return sym.terms[0][1].text()
    chunks = []
    for k, dp in sym.terms:
        if k == 1:
            dpow = "d"
        elif k != 0:
            dpow = f"d^{k}"
        else:
            dpow = ""
        chunks.append(_coeff_chunk(dp, dpow))
    out = []
    for i, (negative, body) in enumerate(chunks):
        if i == 0:
            out.append(f"-{body}" if negative else body)
        else:
            out.append(f" - {body}" if negative else f" + {body}")
    return "".join(out)
