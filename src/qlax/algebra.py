"""Exact scalars, the coefficient-algebra contract, and input paths in t.

Every scalar in the kernel is a ``fractions.Fraction``: arbitrary precision,
stored in lowest terms with a positive denominator, so nothing ever rounds.

An :class:`Algebra` value describes a unital associative algebra over the
rationals.  It only has to supply ``zero``, ``one`` and rational scaling,
and a backend also supplies its probe set.  The element values themselves
implement ``+``, unary ``-``, ``*`` (possibly noncommutative), structural
``==`` on canonical forms, ``to_json()`` and ``max_abs()``.  The generic
containers ``QSeries`` and ``BiOp`` work over any such algebra and are
themselves algebras, so a q-series of BiOps over matrices is one more
instance of the same contract.

A path P(t) is given as a :class:`TPoly`, an exact polynomial in t.  Once
deformed it becomes a q-series whose q^k coefficient carries a single,
fixed power of t (see ``laxflow``), so the kernel never multiplies
t-polynomials.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable

Rational = Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


def rational(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or a string like ``-3/7`` to a Fraction.

    Floats are rejected: they would smuggle rounding into the kernel, and
    so are booleans, which Python counts as integers.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise ValueError(f"not an exact rational literal: {value!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"denominator must be positive: {value!r}") from None
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


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

    def scale(self, c: int | Fraction, a: Any) -> Any:
        """Multiply an element by an exact rational."""
        return a.scale(rational(c))

    def is_zero(self, a: Any) -> bool:
        return a == self.zero

    def probes(self) -> list:
        """The standard probe set for extensional checks of linear maps on
        this algebra; each backend defines its own."""
        raise TypeError(f"no default probe set for {type(self).__name__}")


@dataclass(frozen=True)
class RationalAlgebra(Algebra):
    """The rationals themselves, as the simplest (commutative) backend."""

    @property
    def zero(self) -> Fraction:
        return _F0

    @property
    def one(self) -> Fraction:
        return _F1

    def scale(self, c: int | Fraction, a: Fraction) -> Fraction:
        return rational(c) * a

    def is_zero(self, a: Fraction) -> bool:
        return a == 0


def json_value(x: Any) -> Any:
    """Render any kernel value as JSON-compatible data; rationals as strings."""
    return str(x) if isinstance(x, Fraction) else x.to_json()


def max_abs(x: Any) -> Fraction:
    """A crude exact magnitude: the largest |rational| inside the value.
    Zero exactly when the value is zero (for canonical backends)."""
    return abs(x) if isinstance(x, Fraction) else x.max_abs()


def algebra_of(x: Any) -> Algebra:
    """Recover the algebra descriptor an element belongs to."""
    if isinstance(x, Fraction):
        return RationalAlgebra()
    algebra = getattr(x, "algebra", None)
    if algebra is None:
        raise TypeError(f"{type(x).__name__} does not expose its algebra")
    return algebra()


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
        while cs and self.alg.is_zero(cs[-1]):
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
        is_zero = self.alg.is_zero
        out = list(a)
        for k, c in enumerate(b):
            if is_zero(c):
                continue
            out[k] = c if is_zero(out[k]) else out[k] + c
        return TPoly(self.alg, tuple(out))

    def __mul__(self, other: "TPoly") -> "TPoly":
        """Cauchy product; the left factor of every coefficient product
        comes from self, so noncommutative coefficients keep their order."""
        if not self.coeffs or not other.coeffs:
            return TPoly(self.alg, ())
        is_zero = self.alg.is_zero
        out: list = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if is_zero(ci):
                continue
            for j, dj in enumerate(other.coeffs):
                if is_zero(dj):
                    continue
                prod = ci * dj
                out[i + j] = prod if out[i + j] is None else out[i + j] + prod
        zero = self.alg.zero
        return TPoly(self.alg, tuple(zero if c is None else c for c in out))
