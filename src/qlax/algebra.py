"""Exact scalars, the coefficient-algebra contract, and input paths in t.

Every scalar in the kernel is a ``fractions.Fraction``: arbitrary precision,
stored in lowest terms with a positive denominator, so nothing ever rounds.

An :class:`Algebra` value describes a unital associative algebra over the
rationals.  It only has to supply ``zero``, ``one`` and ``probes()``.  The
element values themselves implement ``+``, ``-``, ``*`` (possibly
noncommutative), ``scale(c)`` by an exact rational, ``is_zero()`` and
structural ``==`` on canonical forms.  A backend value (a matrix or a
symbol, and a symbol's coefficient) renders itself with ``to_json()`` and
``max_abs()``; a matrix or symbol also has ``bracket(y)`` = x*y - y*x and
its coordinates ``coords()``: a dict from basis key to nonzero integer
numerator over one positive denominator ``den``, or None when some
coordinate is unknown (a symbol below its precision floor), which the
exact zero test of a ``BiOp`` reads.  A coefficient type also has one
static multiply-accumulate kernel, ``dot(pairs, bracket=False,
divisor=1)``: over a nonempty sequence of (a, b) pairs it returns (sum of
a*b) / divisor, or (sum of [a, b]) / divisor when ``bracket`` is set, for
a positive integer divisor, reducing once at the end.  Every series
product, bracket, Taylor step and ``BiOp`` action is one ``dot`` call per
q-order, found through ``type(alg.zero)``, over the pairs that
``convolution`` lists.  A matrix or symbol type has a second static
method, ``dot_defect(pairs, bracket, k, target)``: None when that sum
(without a divisor) equals k*target, else the largest magnitude of
k*target minus the sum.  ``laxflow.defects`` checks the flow equations
with it, and the matrix version computes in plain integers and never
calls ``dot``, so those checks share no arithmetic with the kernel that
built the series they check.  The generic container ``BiOp``
works over any such algebra and its values are elements in the same
sense, so a q-series of BiOps over matrices is one more instance of the
same contract; a ``QSeries`` has the same ring operations but is never
itself a coefficient.

A path P(t) is given as a :class:`TPoly`, an exact polynomial in t.  Once
deformed it becomes a q-series whose q^k coefficient carries a single,
fixed power of t (see ``laxflow``), so the kernel never multiplies
t-polynomials.
"""

from __future__ import annotations

import re
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable

RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?$")  # a literal like -3/7, in ASCII digits


def rational_parts(value: int | str | Fraction) -> tuple[int, int]:
    """An int, Fraction, or a string like ``-3/7`` as integer (numerator,
    denominator) parts, the denominator positive but not always in lowest
    terms (``"2/4"`` gives (2, 4)).

    Floats are rejected: they would smuggle rounding into the kernel, and
    so are booleans, which Python counts as integers.
    """
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    if isinstance(value, str):
        text = value.strip()
        if not RATIONAL.match(text):
            raise ValueError(f"not an exact rational literal: {value!r}")
        num, _, den = text.partition("/")
        n, d = int_literal(num), int_literal(den or "1")
        if not d:
            raise ValueError(f"denominator must be positive: {value!r}")
        return n, d
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


def int_literal(text: str) -> int:
    """``int`` of an ASCII integer literal, with a ValueError in qlax's
    words for one past the interpreter's digit limit (0 means no limit)."""
    digits, limit = len(text.lstrip("-")), sys.get_int_max_str_digits()
    if digits > limit > 0:
        raise ValueError(f"number too long: {digits} digits, above {limit}")
    return int(text)


def rational(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or a string like ``-3/7`` to a Fraction,
    rejecting what ``rational_parts`` rejects."""
    return value if isinstance(value, Fraction) else Fraction(*rational_parts(value))


class Algebra(ABC):
    """Descriptor of a coefficient algebra.

    Algebra descriptors are small immutable values (safe to compare, hash and
    share); all the arithmetic lives on the elements.
    """

    @property
    @abstractmethod
    def zero(self) -> Any:
        """The canonical zero element."""

    @property
    @abstractmethod
    def one(self) -> Any:
        """The canonical multiplicative identity."""

    def probes(self) -> list:
        """The standard probe set for extensional checks of linear maps on
        this algebra; each backend defines its own."""
        raise TypeError(f"no default probe set for {type(self).__name__}")


@dataclass(frozen=True)
class TPoly:
    """Polynomial in the time variable t with coefficients in ``alg``.

    ``coeffs[k]`` is the coefficient of t**k.  Trailing zero coefficients are
    stripped on construction, so the zero polynomial has an empty tuple and
    structural equality coincides with mathematical equality whenever the
    coefficient algebra is canonical.
    """

    alg: Algebra
    coeffs: tuple

    def __post_init__(self):
        cs = list(self.coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(alg: Algebra, coeffs: Iterable[Any]) -> "TPoly":
        return TPoly(alg, tuple(coeffs))

    @staticmethod
    def const(alg: Algebra, a: Any) -> "TPoly":
        return TPoly(alg, (a,))

    @staticmethod
    def t_power(alg: Algebra, a: Any, k: int) -> "TPoly":
        """The monomial a * t**k."""
        if k < 0:
            raise ValueError("t-exponent must be >= 0")
        return TPoly(alg, (alg.zero,) * k + (a,))

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """t-degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "TPoly") -> "TPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            if c.is_zero():
                continue
            out[k] = c if out[k].is_zero() else out[k] + c
        return TPoly(self.alg, tuple(out))

    def __mul__(self, other: "TPoly") -> "TPoly":
        """Cauchy product; the left factor of every coefficient product
        comes from self, so noncommutative coefficients keep their order."""
        if not self.coeffs or not other.coeffs:
            return TPoly(self.alg, ())
        zero = self.alg.zero
        left, right = nonzero(self.coeffs), holes(other.coeffs) + [None] * self.degree
        sums = (convolution(left, right, k) for k in range(len(right)))
        return TPoly(self.alg, tuple(type(zero).dot(pairs) if pairs else zero for pairs in sums))


def nonzero(coeffs: Iterable[Any]) -> list:
    """The (index, coefficient) pairs of the nonzero coefficients."""
    return [(i, c) for i, c in enumerate(coeffs) if not c.is_zero()]


def holes(coeffs: Iterable[Any]) -> list:
    """The coefficients, with None in place of each zero."""
    return [None if c.is_zero() else c for c in coeffs]


def convolution(left: list, right: list, k: int) -> list:
    """The order-k pairs (a_i, b_(k-i)) of a Cauchy product with both
    factors nonzero, from ``nonzero`` of the left factor and ``holes`` of
    the right; a recurrence passes the prefix it has built as ``right``."""
    return [(a, right[k - i]) for i, a in left if i <= k and right[k - i] is not None]
