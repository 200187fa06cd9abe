"""The differential polynomial ring Q[u, u_1, u_2, ...].

A jet monomial is a finite product of jet variables u_j, where u_0 = u and
u_{j+1} stands for the x-derivative of u_j.  It is packed into one int by
Kronecker substitution: the exponent of u_j fills the FIELD = 8 bit field
at bit 8*j, so the int's little-endian bytes are the exponent vector, the
monomial 1 is 0, the product of two monomials is the sum of their ints,
and the x-derivative moves one unit from field j to field j+1.

No field overflows silently.  Every total degree, and so every exponent,
stays at most MAX_DEGREE = 2**8 - 2 = 254, which also lets the degree be
read as the int modulo 2**8 - 1.  A product whose factors' degrees sum past
it raises :class:`~qlax.errors.DegreeOverflow` (exit 2 at the command line)
before any field is touched, and the x-derivative keeps the degree.  The
DSL bounds its input far below that (degree at most ``expr.MAX_POWER``,
jet index at most MAX_JET), so no packed int grows with a number the input
merely names.

A :class:`DiffPoly` maps packed monomials to nonzero integer numerators
over one positive denominator ``den`` with gcd(den, *numerators) == 1, so
structural equality is mathematical equality.  ``terms`` spells the same
data out as (tuple monomial, Fraction) pairs in a fixed graded ordering
(total degree first, then the exponent vector read from u_0 upward), which
is what printing follows; a tuple monomial lists (jet index, exponent)
pairs by jet index, with all exponents > 0.

This ring is commutative; it is the coefficient ring for operator symbols.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Tuple

from .algebra import rational
from .errors import DegreeOverflow

Monomial = Tuple[Tuple[int, int], ...]

FIELD = 8  # one byte per jet index, which _exponents relies on
_MASK = (1 << FIELD) - 1
MAX_DEGREE = _MASK - 1
MAX_JET = 1000


def check_degree(degree: int) -> None:
    """Refuse a product whose factors' degrees sum to ``degree``."""
    if degree > MAX_DEGREE:
        raise DegreeOverflow(
            f"a product of degree {degree} is above {MAX_DEGREE}, "
            f"the most a {FIELD}-bit packed monomial holds"
        )


def _exponents(m: int) -> bytes:
    # (e_0, e_1, ..., e_maxj): with 8-bit fields, the little-endian bytes.
    return m.to_bytes((m.bit_length() + 7) // 8, "little")


def _mono_text(exps: bytes) -> str:
    return "*".join([("u" if j == 0 else f"u_{j}") + ("" if e == 1 else f"^{e}") for j, e in enumerate(exps) if e])


def signed_sum(terms: Iterable[Tuple[bool, str]]) -> str:
    """(negative, unsigned body) pairs as one sum, e.g. ``-a + b - c``:
    the first term keeps a bare minus, each later one gets `` + `` or `` - ``;
    no terms is ``0``."""
    text = "".join((" - " if negative else " + ") + body for negative, body in terms)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _reduced(nums: dict, den: int) -> "DiffPoly":
    # nums holds no zero; divide out the common factor with den.
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {m: c // g for m, c in nums.items()}
            den //= g
    return DiffPoly(nums, den)


class DiffPoly:
    """A polynomial in the jet variables with exact rational coefficients:
    ``nums`` maps packed monomials to integer numerators over ``den``."""

    # _hash, _dx and _degree are filled on first use; the value is immutable.
    __slots__ = ("nums", "den", "_hash", "_dx", "_degree")

    def __init__(self, nums: dict, den: int = 1):
        self.nums = nums
        self.den = den
        self._hash = self._dx = self._degree = None

    @staticmethod
    def of(pairs: Iterable[Tuple[int, int]], den: int = 1) -> "DiffPoly":
        """Sum (packed monomial, numerator) pairs over ``den`` > 0."""
        nums: dict[int, int] = {}
        get = nums.get
        for m, c in pairs:
            nums[m] = get(m, 0) + c
        if 0 in nums.values():
            nums = {m: c for m, c in nums.items() if c}
        return _reduced(nums, den) if nums else _ZERO

    @staticmethod
    def from_terms(terms: Iterable[Tuple[Monomial, Fraction]]) -> "DiffPoly":
        """Sum (tuple monomial, rational) pairs, the inverse of ``terms``."""
        packed = []
        for mono, c in terms:
            check_degree(sum(e for _, e in mono))
            packed.append((sum(e << FIELD * j for j, e in mono), rational(c)))
        den = lcm(*(c.denominator for _, c in packed))
        return DiffPoly.of(((m, c.numerator * (den // c.denominator)) for m, c in packed), den)

    @staticmethod
    def zero() -> "DiffPoly":
        return _ZERO

    @staticmethod
    def one() -> "DiffPoly":
        return DiffPoly.const(1)

    @staticmethod
    def const(c: int | str | Fraction) -> "DiffPoly":
        c = rational(c)
        return DiffPoly({0: c.numerator}, c.denominator) if c != 0 else _ZERO

    @staticmethod
    def u(j: int = 0) -> "DiffPoly":
        """The jet variable u_j (u itself for j = 0)."""
        if not 0 <= j <= MAX_JET:
            raise ValueError(f"jet index must be between 0 and {MAX_JET}")
        return DiffPoly({1 << FIELD * j: 1})

    # -- structure ----------------------------------------------------

    def _graded(self) -> list:
        # (exponents, numerator) pairs in the graded order.
        keyed = sorted(((m % _MASK, _exponents(m), c) for m, c in self.nums.items()), reverse=True)
        return [(exps, c) for _, exps, c in keyed]

    @property
    def terms(self) -> Tuple[Tuple[Monomial, Fraction], ...]:
        """(tuple monomial, Fraction) pairs in the graded order."""
        return tuple(
            (tuple((j, e) for j, e in enumerate(exps) if e), Fraction(c, self.den)) for exps, c in self._graded()
        )

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return not self.nums or (len(self.nums) == 1 and 0 in self.nums)

    def degree(self) -> int:
        """Largest total degree; -1 for the zero polynomial."""
        if self._degree is None:
            self._degree = max((m % _MASK for m in self.nums), default=-1)
        return self._degree

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DiffPoly) and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.den, frozenset(self.nums.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"DiffPoly({self.text()!r})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        if not other.nums:
            return self
        if not self.nums:
            return other
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        scaled_a = ((m, c * fa) for m, c in self.nums.items())
        scaled_b = ((m, c * fb) for m, c in other.nums.items())
        return DiffPoly.of(chain(scaled_a, scaled_b), den)

    def __neg__(self) -> "DiffPoly":
        return DiffPoly({m: -c for m, c in self.nums.items()}, self.den)

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        return self + (-other)

    def __mul__(self, other: "DiffPoly") -> "DiffPoly":
        if not self.nums or not other.nums:
            return _ZERO
        check_degree(self.degree() + other.degree())
        out: dict[int, int] = {}
        get = out.get
        b_items = other.nums.items()
        for ma, ca in self.nums.items():
            for mb, cb in b_items:
                m = ma + mb
                out[m] = get(m, 0) + ca * cb
        return DiffPoly.of(out.items(), self.den * other.den)

    def __pow__(self, n: int) -> "DiffPoly":
        if n < 0:
            raise ValueError("negative powers are not defined in this ring")
        acc = DiffPoly.one()
        for _ in range(n):
            acc = acc * self
        return acc

    def scale(self, c: Fraction) -> "DiffPoly":
        c = rational(c)
        if c == 0 or not self.nums:
            return _ZERO
        p = c.numerator
        return _reduced({m: p * k for m, k in self.nums.items()}, self.den * c.denominator)

    # -- calculus -----------------------------------------------------

    def dx(self) -> "DiffPoly":
        """Total x-derivative: u_j goes to u_{j+1} by the Leibniz rule.

        Moving one unit from field j to field j+1 adds _MASK << FIELD*j.
        A constant's derivative is _ZERO without a call to ``of``, so no
        command's work depends on the memo of a module constant (the unit).
        """
        if self._dx is None:
            out: dict[int, int] = {}
            get = out.get
            for m, c in self.nums.items():
                for j, e in enumerate(_exponents(m)):
                    if e:
                        key = m + (_MASK << FIELD * j)
                        out[key] = get(key, 0) + c * e
            self._dx = DiffPoly.of(out.items(), self.den) if out else _ZERO
        return self._dx

    def max_abs(self) -> Fraction:
        return Fraction(max((abs(c) for c in self.nums.values()), default=0), self.den)

    # -- text ----------------------------------------------------------

    def text(self) -> str:
        """Canonical rendering, e.g. ``6*u*u_1 - u_3``; reparses to self."""
        chunks = []
        den = self.den
        for exps, c in self._graded():
            a = abs(c)
            g = gcd(a, den)
            mag = str(a // g) if g == den else f"{a // g}/{den // g}"
            if not exps:
                body = mag
            elif a == den:
                body = _mono_text(exps)
            else:
                body = f"{mag}*{_mono_text(exps)}"
            chunks.append((c < 0, body))
        return signed_sum(chunks)

    def to_json(self) -> str:
        return self.text()

    def __str__(self) -> str:
        return self.text()


_ZERO = DiffPoly({})
