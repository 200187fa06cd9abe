"""The differential polynomial ring Q[u, u_1, u_2, ...].

A jet monomial is a finite product of jet variables u_j, where u_0 = u and
u_{j+1} stands for the x-derivative of u_j.  It is stored as a tuple of
(jet index, exponent) pairs, sorted by jet index, with all exponents > 0;
the empty tuple is the monomial 1.

A :class:`DiffPoly` maps jet monomials to nonzero rational coefficients.
Zero coefficients are never stored and terms are kept in a fixed graded
ordering (total degree first, then the exponent vector read from u_0
upward), so structural equality is mathematical equality and printing is
deterministic.

This ring is commutative; it is the coefficient ring for operator symbols.
The maximum jet index is unbounded and grows as needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Tuple

from .algebra import rational

Monomial = Tuple[Tuple[int, int], ...]

MONO_ONE: Monomial = ()


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    exps = dict(a)
    for j, e in b:
        exps[j] = exps.get(j, 0) + e
    return tuple(sorted(exps.items()))


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_weight(m: Monomial) -> int:
    """Differential weight: each u_j counts j."""
    return sum(j * e for j, e in m)


def _mono_expvec(m: Monomial) -> Tuple[int, ...]:
    # Dense exponent vector (e_0, e_1, ..., e_maxj); unique per monomial.
    if not m:
        return ()
    out = [0] * (m[-1][0] + 1)
    for j, e in m:
        out[j] = e
    return tuple(out)


def _mono_key(m: Monomial):
    return (mono_degree(m), _mono_expvec(m))


def mono_text(m: Monomial) -> str:
    if not m:
        return "1"
    factors = []
    for j, e in m:
        name = "u" if j == 0 else f"u_{j}"
        factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors)


@dataclass(frozen=True)
class DiffPoly:
    """A polynomial in the jet variables with exact rational coefficients."""

    terms: Tuple[Tuple[Monomial, Fraction], ...]

    @staticmethod
    def of(items: Mapping[Monomial, Fraction] | Iterable[Tuple[Monomial, Fraction]]) -> "DiffPoly":
        merged: dict[Monomial, Fraction] = {}
        pairs = items.items() if isinstance(items, Mapping) else items
        for mono, c in pairs:
            prev = merged.get(mono)
            merged[mono] = c if prev is None else prev + c
        cleaned = [(m, c) for m, c in merged.items() if c != 0]
        cleaned.sort(key=lambda t: _mono_key(t[0]), reverse=True)
        return DiffPoly(tuple(cleaned))

    @staticmethod
    def zero() -> "DiffPoly":
        return DiffPoly(())

    @staticmethod
    def one() -> "DiffPoly":
        return DiffPoly.const(1)

    @staticmethod
    def const(c: int | str | Fraction) -> "DiffPoly":
        c = rational(c)
        return DiffPoly(((MONO_ONE, c),) if c != 0 else ())

    @staticmethod
    def u(j: int = 0) -> "DiffPoly":
        """The jet variable u_j (u itself for j = 0)."""
        if j < 0:
            raise ValueError("jet index must be >= 0")
        return DiffPoly(((((j, 1),), Fraction(1)),))

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == MONO_ONE)

    def degree(self) -> int:
        """Largest total degree; -1 for the zero polynomial."""
        return max((mono_degree(m) for m, _ in self.terms), default=-1)

    def weight(self) -> int:
        """Largest differential weight among the terms; -1 if zero."""
        return max((mono_weight(m) for m, _ in self.terms), default=-1)

    def max_jet(self) -> int:
        """Largest jet index that occurs; -1 if none."""
        return max((m[-1][0] for m, _ in self.terms if m), default=-1)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        if not other.terms:
            return self
        if not self.terms:
            return other
        return DiffPoly.of(list(self.terms) + list(other.terms))

    def __neg__(self) -> "DiffPoly":
        return DiffPoly(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        return self + (-other)

    def __mul__(self, other: "DiffPoly") -> "DiffPoly":
        if not self.terms or not other.terms:
            return DiffPoly(())
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms:
            for mb, cb in other.terms:
                m = mono_mul(ma, mb)
                prev = out.get(m)
                value = ca * cb
                out[m] = value if prev is None else prev + value
        return DiffPoly.of(out)

    def __pow__(self, n: int) -> "DiffPoly":
        if n < 0:
            raise ValueError("negative powers are not defined in this ring")
        acc = DiffPoly.one()
        for _ in range(n):
            acc = acc * self
        return acc

    def scale(self, c: Fraction) -> "DiffPoly":
        c = rational(c)
        if c == 0:
            return DiffPoly(())
        return DiffPoly(tuple((m, c * k) for m, k in self.terms))

    # -- calculus -----------------------------------------------------

    def dx(self) -> "DiffPoly":
        """Total x-derivative: u_j goes to u_{j+1} by the Leibniz rule."""
        out: dict[Monomial, Fraction] = {}
        for mono, c in self.terms:
            for j, e in mono:
                exps = dict(mono)
                if e == 1:
                    del exps[j]
                else:
                    exps[j] = e - 1
                exps[j + 1] = exps.get(j + 1, 0) + 1
                m = tuple(sorted(exps.items()))
                prev = out.get(m)
                value = c * e
                out[m] = value if prev is None else prev + value
        return DiffPoly.of(out)

    def max_abs(self) -> Fraction:
        return max((abs(c) for _, c in self.terms), default=Fraction(0))

    # -- text ----------------------------------------------------------

    def text(self) -> str:
        """Canonical rendering, e.g. ``6*u*u_1 - u_3``; reparses to self."""
        if not self.terms:
            return "0"
        chunks = []
        for i, (mono, c) in enumerate(self.terms):
            mag = abs(c)
            if mono == MONO_ONE:
                body = str(mag)
            elif mag == 1:
                body = mono_text(mono)
            else:
                body = f"{mag}*{mono_text(mono)}"
            if i == 0:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(chunks)

    def to_json(self) -> str:
        return self.text()

    def __str__(self) -> str:
        return self.text()
