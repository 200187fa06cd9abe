"""Truncated formal power series in the deformation parameter q.

A :class:`QSeries` over an algebra A holds coefficients c_0..c_N of q^0..q^N
and computes modulo q^(N+1).  The truncation order N is part of the value:
all N+1 slots are stored (zeros included) and combining series with
different N raises :class:`~qlax.errors.TruncationMismatch` instead of
silently re-truncating.

The kernel's series over A are functions of q*t: each q-order carries one
fixed power of t, set by the series' role.  So a coefficient c_k is an
element of A, and the q^k term stands for c_k * q^k * t^(k-w) for the
weight w of the series (0 for W and Lq, 1 for Pq and the residuals; see
``laxflow``).  Nothing here depends on w: products add weights, and the
Cauchy product below is the same for every weight; ``bracket`` is that
product with each c_i*d_j replaced by the coefficient bracket [c_i, d_j].
The q-order index arithmetic lives in ``algebra.convolution``: from the
nonzero (i, c_i) of the left factor and the right coefficients with a
hole for each zero, it lists the pairs (c_i, d_{k-i}) of q^k with both
factors nonzero.  Each output order is one call of the coefficient type's
kernel ``dot`` (see ``algebra``) over those pairs, so a coefficient is
reduced once, not once per product and per sum.  The recurrences (the
unipotent inverse here, the Taylor steps in ``laxflow``) pass the prefix
they have built as the right factor.

The grading is what makes the group theory finite: a product of series with
valuations n and m has valuation at least n + m, so for any s with
valuation >= 1 the sums below terminate after N steps and are exact:

    exp(s)  = sum_{i<=N} s**i / i!          (c_0 becomes 1)
    log(s)  = sum_{1<=i<=N} (-1)**(i+1) (s-1)**i / i   (needs c_0 = 1)

exp and log are mutually inverse bijections between {val >= 1} and
{c_0 = 1} at every truncation order.  The inverse of a unipotent s
(c_0 = 1) is read off s * v = 1 order by order,

    v_0 = 1,   v_k = sum_{j=1..k} (-c_j) * v_{k-j},

one ``dot`` per order with the tail negated once; it is a two-sided
inverse, since a right inverse of a unit is its inverse.

Coefficients must form a Q-algebra (every backend here does): the i! and
1/i denominators are exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable

from .algebra import Algebra, convolution, holes, nonzero, rational
from .errors import TruncationMismatch, ValuationError


@dataclass(frozen=True)
class QSeries:
    """Coefficients c_0..c_N over ``alg``; arithmetic is modulo q^(N+1)."""

    alg: Algebra
    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a q-series stores at least the q^0 coefficient")

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(alg: Algebra, coeffs: Iterable[Any]) -> "QSeries":
        return QSeries(alg, tuple(coeffs))

    @staticmethod
    def zero(alg: Algebra, n: int) -> "QSeries":
        return QSeries(alg, (alg.zero,) * (n + 1))

    @staticmethod
    def one(alg: Algebra, n: int) -> "QSeries":
        return QSeries(alg, (alg.one,) + (alg.zero,) * n)

    @staticmethod
    def constant(alg: Algebra, n: int, a: Any) -> "QSeries":
        """The element a placed at q^0."""
        return QSeries(alg, (a,) + (alg.zero,) * n)

    @staticmethod
    def term(alg: Algebra, n: int, a: Any, k: int) -> "QSeries":
        """The monomial a * q^k; requires k <= n."""
        if not 0 <= k <= n:
            raise ValueError(f"q-power {k} outside truncation order {n}")
        cs = [alg.zero] * (n + 1)
        cs[k] = a
        return QSeries(alg, tuple(cs))

    # -- structure ----------------------------------------------------

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1

    def val(self) -> int | float:
        """q-valuation: smallest order with a nonzero coefficient,
        +inf for the zero series."""
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                return k
        return math.inf

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def _check(self, other: "QSeries") -> None:
        if self.trunc != other.trunc:
            raise TruncationMismatch(
                f"truncation orders differ: {self.trunc} vs {other.trunc}"
            )

    def map_coeffs(self, f: Callable[[Any], Any], alg: Algebra) -> "QSeries":
        """Apply f to every coefficient, giving a series over ``alg`` (same
        truncation order)."""
        return QSeries(alg, tuple(f(c) for c in self.coeffs))

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        self._check(other)
        out = tuple(
            b if a.is_zero() else (a if b.is_zero() else a + b)
            for a, b in zip(self.coeffs, other.coeffs)
        )
        return QSeries(self.alg, out)

    def __neg__(self) -> "QSeries":
        return QSeries(self.alg, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "QSeries") -> "QSeries":
        self._check(other)
        pairs = zip(self.coeffs, other.coeffs)
        return QSeries(self.alg, tuple(a if b.is_zero() else (-b if a.is_zero() else a - b) for a, b in pairs))

    def __mul__(self, other: "QSeries") -> "QSeries":
        """Cauchy product cut at q^N; factor order preserved."""
        return self._cauchy(other, False)

    def bracket(self, other: "QSeries") -> "QSeries":
        """self*other - other*self as one Cauchy product of coefficient
        brackets, [c_i, d_j] at q^(i+j)."""
        return self._cauchy(other, True)

    def _cauchy(self, other: "QSeries", bracket: bool) -> "QSeries":
        self._check(other)
        zero = self.alg.zero
        left, right = nonzero(self.coeffs), holes(other.coeffs)
        sums = (convolution(left, right, k) for k in range(self.trunc + 1))
        return QSeries(self.alg, tuple(type(zero).dot(pairs, bracket) if pairs else zero for pairs in sums))

    def scale(self, c: Fraction) -> "QSeries":
        c = rational(c)
        return QSeries(self.alg, tuple(x.scale(c) for x in self.coeffs))

    # -- the group operations ------------------------------------------

    def _accumulate_powers(self, base: "QSeries", weight: Callable[[int], Fraction]) -> "QSeries":
        # self + sum_i weight(i) * base**i for i = 1..N.
        out = self
        power = QSeries.one(self.alg, self.trunc)
        for i in range(1, self.trunc + 1):
            power = power * base
            out = out + power.scale(weight(i))
        return out

    def exp(self) -> "QSeries":
        """Truncated exponential; requires valuation >= 1."""
        if not self.coeffs[0].is_zero():
            raise ValuationError("exp needs q-valuation >= 1 (zero q^0 coefficient)")
        one = QSeries.one(self.alg, self.trunc)
        return one._accumulate_powers(self, lambda i: Fraction(1, math.factorial(i)))

    def log(self) -> "QSeries":
        """Truncated logarithm; requires c_0 = 1."""
        if self.coeffs[0] != self.alg.one:
            raise ValuationError("log needs q^0 coefficient equal to 1")
        x = self - QSeries.one(self.alg, self.trunc)
        zero = QSeries.zero(self.alg, self.trunc)
        return zero._accumulate_powers(x, lambda i: Fraction((-1) ** (i + 1), i))

    def invert_unipotent(self) -> "QSeries":
        """Inverse of 1 + (valuation >= 1) by the recurrence
        v_k = sum_{j=1..k} (-c_j) * v_{k-j}."""
        zero = self.alg.zero
        if self.coeffs[0] != self.alg.one:
            raise ValuationError("unipotent inversion needs q^0 coefficient equal to 1")
        tail, v = [(j, -c) for j, c in nonzero(self.coeffs) if j], [self.alg.one]
        for k in range(1, self.trunc + 1):
            pairs = convolution(tail, v, k)
            v += holes([type(zero).dot(pairs)]) if pairs else [None]
        return QSeries(self.alg, tuple(zero if c is None else c for c in v))
