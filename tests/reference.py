"""Reference maps, the pairwise BiOp action, the tensor norm of a BiOp
collected by basis pair, t-monomial paths, truncated series, exact matrix
trace, determinant and inverse, symbol and jet-polynomial accessors, the
tree form of a series report and the character-loop DSL lexer, that only
the tests use.

Each one restates a definition from the paper, or a report format, on top
of the library's public operations, so a test can compare a command's
shortcut with it.
"""

import math
from fractions import Fraction
from typing import Any, List, Sequence

from qlax import (
    BiOp,
    DiffPoly,
    ParseError,
    PrecisionExhausted,
    PsdoSymbol,
    QlaxError,
    QSeries,
    RatMatrix,
    TPoly,
    UnboundIdentifier,
    apply_series,
    symmetry3_residual,
)
from qlax.diffpoly import MAX_JET
from qlax.expr import Token


def series_json(series: QSeries) -> dict:
    """The JSON tree of a weight-0 series such as W or Lq: per q-order, the
    t-coefficients of c_k * t^k, which are k zeros followed by c_k, or no
    entries when c_k is zero."""
    pad = series.alg.zero.to_json()
    return {
        "trunc": series.trunc,
        "coeffs": [
            {"t_coeffs": [] if c.is_zero() else [pad] * k + [c.to_json()]}
            for k, c in enumerate(series.coeffs)
        ],
    }


def extensionally_equal(x: BiOp, y: BiOp, probes: Sequence[Any]) -> bool:
    """Equality of the denoted maps on a probe set."""
    return all(x.apply(p) == y.apply(p) for p in probes)


def apply_pairwise(bop: BiOp, x: Any) -> Any:
    """The BiOp action summed one pair at a time, as (left*x)*right."""
    acc = bop.alg.zero
    for left, right in bop.terms:
        acc = acc + left * x * right
    return acc


def apply_series_pairwise(sq: QSeries, xq: QSeries) -> QSeries:
    """``apply_series`` as a Cauchy product summed one action at a time."""
    out = [xq.alg.zero] * (sq.trunc + 1)
    for i, bop in enumerate(sq.coeffs):
        for j, x in enumerate(xq.coeffs[: sq.trunc + 1 - i]):
            if not (bop.is_zero() or x.is_zero()):
                out[i + j] = out[i + j] + apply_pairwise(bop, x)
    return QSeries(xq.alg, tuple(out))


def coeff(symbol: PsdoSymbol, k: int) -> DiffPoly:
    """The coefficient of xi^k; raises PrecisionExhausted below the floor."""
    if symbol.floor is not None and k < symbol.floor:
        raise PrecisionExhausted(f"coefficient of order {k} lies below the precision floor {symbol.floor}")
    return dict(symbol.terms).get(k, DiffPoly.zero())


def order(symbol: PsdoSymbol) -> int | float:
    """Largest order with a nonzero coefficient; -inf for zero."""
    return symbol.terms[0][0] if symbol.terms else -math.inf


def symmetry2_residual(sq: QSeries, pq: QSeries, lq: QSeries) -> QSeries:
    """The weaker residual (dS/dt - [ad(Pq), S]) applied to Lq.

    Vanishing here is necessary and sufficient for S to be a symmetry in
    the restricted linear sense; it is strictly weaker than the BiOp-level
    equation, since a nonzero operator can still annihilate Lq.
    """
    return apply_series(symmetry3_residual(sq, pq), lq)


def tensor_norm(bop: BiOp) -> Fraction | None:
    """The largest coordinate magnitude of the tensor sum_i l_i (x) r_i,
    collected by basis pair in Fractions; None for the zero tensor."""
    table: dict = {}
    for left, right in bop.terms:
        (lnum, lden), (rnum, rden) = left.coords(), right.coords()
        for kl, a in lnum.items():
            for kr, b in rnum.items():
                table[kl, kr] = table.get((kl, kr), 0) + Fraction(a * b, lden * rden)
    top = max(map(abs, table.values()), default=0)
    return top or None


def t_power(alg: Any, a: Any, k: int) -> TPoly:
    """The path a * t**k."""
    return TPoly(alg, (alg.zero,) * k + (a,))


def truncated(series: QSeries, m: int) -> QSeries:
    """The series modulo q^(m+1), for m <= N."""
    return QSeries(series.alg, series.coeffs[: m + 1])


def weight(dp: DiffPoly) -> int:
    """Largest differential weight sum(j * e) among the terms; -1 if zero."""
    return max((sum(j * e for j, e in mono) for mono, _ in dp.terms), default=-1)


def max_jet(dp: DiffPoly) -> int:
    """Largest jet index that occurs; -1 if none."""
    return max((j for mono, _ in dp.terms for j, _ in mono), default=-1)


def trace(m: RatMatrix) -> Fraction:
    return Fraction(sum(m.num[i][i] for i in range(len(m.num))), m.den)


class Singular(QlaxError):
    """Attempt to invert a singular matrix."""


def det(m: RatMatrix) -> Fraction:
    """Exact determinant by fraction-preserving elimination."""
    n = m.n
    rows = [list(r) for r in m.entries]
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            result = -result
        result *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            if factor == 0:
                continue
            for c in range(col, n):
                rows[r][c] -= factor * rows[col][c]
    return result


def invert(m: RatMatrix) -> RatMatrix:
    """Exact inverse by Gauss-Jordan elimination; raises Singular."""
    n = m.n
    unit = RatMatrix.identity(n).entries
    aug = [list(row) + list(unit[i]) for i, row in enumerate(m.entries)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise Singular("matrix has no inverse")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r == col or aug[r][col] == 0:
                continue
            factor = aug[r][col]
            aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return RatMatrix.of(row[n:] for row in aug)


def tokenize_by_characters(source: str) -> List[Token]:
    """The DSL lexer as a loop over characters, read with ``str`` predicates
    (on ASCII text they agree with the one-pattern lexer)."""
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
                if int(word[2:]) > MAX_JET:
                    raise ParseError(f"jet index too large in {word!r}: above {MAX_JET}", line, start_col)
                tokens.append(Token("jet", word[2:], line, start_col))
            else:
                raise UnboundIdentifier(f"unknown identifier {word!r}", line, start_col)
            col += j - i
            i = j
            continue
        if ch in "+-*^()/":
            tokens.append(Token(ch, ch, line, start_col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(Token("eof", "", line, col))
    return tokens
