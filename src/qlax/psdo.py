"""Formal pseudo-differential symbols over the differential polynomial ring.

A symbol is a finite sum over integer orders k of a_k(u) * xi**k, with each
a_k a :class:`~qlax.diffpoly.DiffPoly`.  Composition follows the symbol rule

    sigma(A o B) = sum_{j >= 0} (1/j!) d_xi^j sigma(A) * D_x^j sigma(B)

where d_xi^j xi**k = k(k-1)...(k-j+1) xi**(k-j).  The falling factorial is
computed in exact integers and is valid for negative k as well, which is
what makes xi**(-1) symbols compose correctly.

Composing genuinely pseudo-differential symbols (negative orders against
nonconstant coefficients) produces infinitely many orders.  Instead of
expanding silently, a symbol carries a precision ``floor``: ``None`` means
exact (every coefficient is known), an integer f means coefficients of
order < f are unknown.  Requesting data below the floor raises
:class:`~qlax.errors.PrecisionExhausted`, so truncation loss is loud.

Symbols with floor ``None`` and only nonnegative orders are ordinary
differential operators and form a subalgebra on which everything stays
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import Algebra, rational
from .diffpoly import DiffPoly, check_degree, signed_sum
from .errors import PrecisionExhausted


@dataclass(frozen=True)
class PsdoSymbol:
    """A formal symbol: ordered (order, coefficient) terms plus a floor.

    ``terms`` is sorted by descending order and never stores zero
    coefficients or orders below the floor, so equality is structural.
    """

    terms: Tuple[Tuple[int, DiffPoly], ...]
    floor: Optional[int] = None

    @staticmethod
    def of(pairs: Iterable[Tuple[int, DiffPoly]], floor: Optional[int] = None) -> "PsdoSymbol":
        merged: dict[int, DiffPoly] = {}
        for k, dp in pairs:
            merged[k] = merged.get(k, DiffPoly.zero()) + dp
        cleaned = [
            (k, dp)
            for k, dp in merged.items()
            if not dp.is_zero() and (floor is None or k >= floor)
        ]
        cleaned.sort(key=lambda t: t[0], reverse=True)
        return PsdoSymbol(tuple(cleaned), floor)

    @staticmethod
    def zero() -> "PsdoSymbol":
        return PsdoSymbol((), None)

    @staticmethod
    def one() -> "PsdoSymbol":
        return PsdoSymbol.const(1)

    @staticmethod
    def const(c: int | str | Fraction) -> "PsdoSymbol":
        dp = DiffPoly.const(c)
        return PsdoSymbol(((0, dp),) if not dp.is_zero() else (), None)

    @staticmethod
    def xi(k: int = 1, c: int | str | Fraction = 1) -> "PsdoSymbol":
        """The monomial c * xi**k.  Negative k is allowed."""
        dp = DiffPoly.const(c)
        return PsdoSymbol(((k, dp),) if not dp.is_zero() else (), None)

    @staticmethod
    def from_dp(dp: DiffPoly) -> "PsdoSymbol":
        """A multiplication operator (order 0)."""
        return PsdoSymbol(((0, dp),) if not dp.is_zero() else (), None)

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms and self.floor is None

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _combine_floor(a: Optional[int], b: Optional[int]) -> Optional[int]:
        if a is None:
            return b
        if b is None:
            return a
        return max(a, b)

    def __add__(self, other: "PsdoSymbol") -> "PsdoSymbol":
        fl = self._combine_floor(self.floor, other.floor)
        return PsdoSymbol.of(list(self.terms) + list(other.terms), fl)

    def __neg__(self) -> "PsdoSymbol":
        return PsdoSymbol(tuple((k, -dp) for k, dp in self.terms), self.floor)

    def __sub__(self, other: "PsdoSymbol") -> "PsdoSymbol":
        return self + (-other)

    def __mul__(self, other: "PsdoSymbol") -> "PsdoSymbol":
        return compose(self, other)

    def bracket(self, other: "PsdoSymbol") -> "PsdoSymbol":
        """compose(self, other) - compose(other, self), raising what either
        would raise."""
        return PsdoSymbol.dot(((self, other),), True)

    @staticmethod
    def dot(pairs: Sequence[Tuple["PsdoSymbol", "PsdoSymbol"]], bracket: bool = False, divisor: int = 1) -> "PsdoSymbol":
        """(sum of compose(a, b)) / divisor over the (a, b) pairs, or the sum
        of the brackets [a, b] when ``bracket`` is set, raising what any
        composition would raise.  The floor combines the floors of the
        compositions as ``+`` does, and ``divisor`` (a positive integer)
        joins the denominator of every coefficient.  In a bracket the j = 0
        terms a_k*b_m and b_m*a_k cancel, as the coefficients commute, so
        both sides start at j = 1; in a product a constant factor goes on
        the left, where the rule adds the other factor scaled by it."""
        floor, products = None, []
        for a, b in pairs:
            floor = PsdoSymbol._combine_floor(floor, _result_floor(a, b, None))
            if bracket:
                floor = PsdoSymbol._combine_floor(floor, _result_floor(b, a, None))
                products += ((a, b, 1), (b, a, -1))
            else:  # x*c = c*x, where the rule keeps one term per term of x
                products.append((b, a, 1) if _constant(b) is not None else (a, b, 1))
        return _sum_of_products(products, floor, int(bracket), divisor)

    @staticmethod
    def dot_defect(pairs: Sequence[Tuple["PsdoSymbol", "PsdoSymbol"]], bracket: bool, k: int, target: "PsdoSymbol") -> Optional[Fraction]:
        """None when ``dot(pairs, bracket)`` equals k*target, else the
        largest coefficient magnitude of their difference.  A sum that
        carries a precision floor equals nothing, as its difference from
        any symbol has unknown orders."""
        total, goal = PsdoSymbol.dot(pairs, bracket), target.scale(k)
        return None if total.floor is None and total == goal else (goal - total).max_abs()

    @staticmethod
    def bracket_coords(p: "PsdoSymbol", x: "PsdoSymbol") -> Optional[Tuple[dict, int]]:
        """``coords()`` of compose(p, x) - compose(x, p), never through ``dot``."""
        return (compose(p, x) - compose(x, p)).coords()

    def __pow__(self, n: int) -> "PsdoSymbol":
        if n < 0:
            raise ValueError("negative operator powers are not defined")
        acc = PsdoSymbol.one()
        for _ in range(n):
            acc = compose(acc, self)
        return acc

    def scale(self, c: Fraction) -> "PsdoSymbol":
        c = rational(c)
        if c == 0:
            return PsdoSymbol((), self.floor)
        return PsdoSymbol(tuple((k, dp.scale(c)) for k, dp in self.terms), self.floor)

    def max_abs(self) -> Fraction:
        return max((dp.max_abs() for _, dp in self.terms), default=Fraction(0))

    def coords(self) -> Optional[Tuple[dict, int]]:
        """({(order, packed monomial): numerator}, den) over the lcm of the
        coefficient denominators; None below a floor, where they are unknown."""
        if self.floor is not None:
            return None
        den = math.lcm(*(dp.den for _, dp in self.terms))
        return {(k, m): c * (den // dp.den) for k, dp in self.terms for m, c in dp.nums.items()}, den

    # -- text / JSON ----------------------------------------------------

    def __str__(self) -> str:
        """Deterministic DSL text, e.g. ``-d^2 + u`` or ``(6*u*u_1 - u_3)*d^2``.
        For an exact differential operator it reparses to an equal symbol
        while its powers stay within ``expr.MAX_POWER``."""
        if len(self.terms) == 1 and self.terms[0][0] == 0:
            return self.terms[0][1].text()
        return signed_sum(_coeff_chunk(dp, "d" if k == 1 else f"d^{k}" if k else "") for k, dp in self.terms)

    def to_json(self) -> dict:
        return {
            "terms": [{"order": k, "coeff": dp.text()} for k, dp in self.terms],
            "floor": "exact" if self.floor is None else self.floor,
        }


def _coeff_chunk(dp: DiffPoly, dpow: str) -> Tuple[bool, str]:
    # Returns (negative, body) for one symbol order; body has no sign.
    if len(dp.nums) != 1:
        return False, f"({dp.text()})*{dpow}" if dpow else f"({dp.text()})"
    negative = next(iter(dp.nums.values())) < 0
    body = (-dp if negative else dp).text()
    if not dpow:
        return negative, body
    return negative, dpow if body == "1" else f"{body}*{dpow}"


_PS_ZERO = PsdoSymbol((), None)
_PS_ONE = PsdoSymbol(((0, DiffPoly.one()),), None)


@dataclass(frozen=True)
class PsdoAlgebra(Algebra):
    @property
    def zero(self) -> PsdoSymbol:
        return _PS_ZERO

    @property
    def one(self) -> PsdoSymbol:
        return _PS_ONE

    def probes(self) -> List[PsdoSymbol]:
        """A small cross-section of orders and coefficients; symmetry
        commands extend it with the problem's own L0 and P coefficients."""
        u = DiffPoly.u(0)
        return [self.one, PsdoSymbol.from_dp(u), PsdoSymbol.xi(1), PsdoSymbol.of([(1, u)]), PsdoSymbol.xi(2)]


def compose(a: PsdoSymbol, b: PsdoSymbol, floor: Optional[int] = None) -> PsdoSymbol:
    """Symbol composition sigma(A o B).

    The result is exact whenever the expansion is finite: A a differential
    operator, or every coefficient of B killed by finitely many D_x (i.e.
    constant).  When A has negative orders against nonconstant coefficients
    of B the expansion has infinitely many orders; then a working ``floor``
    must be supplied (orders >= floor are computed, the rest recorded as
    unknown) or PrecisionExhausted is raised.

    If either input already carries a floor, the unknown coefficients limit
    what the result can know: unknown orders of A (< floor_A) reach up to
    floor_A - 1 + ord(B), and symmetrically for B, so the result floor is
    the tightest bound max(floor_A + ord(B), ord(A) + floor_B) intersected
    with any explicit ``floor``.

    Without a working ``floor``, a constant symbol c on either side gives
    the other side scaled by c, floor kept, and the other side itself when
    c = 1: the rule keeps only its j = 0 term, as c has order 0 and
    D_x c = 0.
    """
    if floor is None:
        ca, cb = _constant(a), _constant(b)
        if cb == 1:
            return a
        if ca is not None:
            return b if ca == 1 else b.scale(ca)
        if cb is not None:
            return a.scale(cb)
    return _sum_of_products(((a, b, 1),), _result_floor(a, b, floor), 0)


def _constant(s: PsdoSymbol) -> Optional[Fraction]:
    # The value c of a constant symbol c * xi^0 with no floor; else None.
    if s.floor is None and len(s.terms) == 1 and s.terms[0][0] == 0 and s.terms[0][1].is_constant():
        dp = s.terms[0][1]
        return Fraction(dp.nums[0], dp.den)
    return None


def _result_floor(a: PsdoSymbol, b: PsdoSymbol, floor: Optional[int]) -> Optional[int]:
    # The floor of compose(a, b, floor), after its precision and degree checks.
    constraints = []
    if a.floor is not None and b.terms:
        constraints.append(a.floor + b.terms[0][0])
    if b.floor is not None and a.terms:
        constraints.append(a.terms[0][0] + b.floor)
    infinite = any(k < 0 for k, _ in a.terms) and any(
        not dp.is_constant() for _, dp in b.terms
    )
    if constraints:
        if floor is not None:
            constraints.append(floor)
        result_floor: Optional[int] = max(constraints)
    elif infinite:
        if floor is None:
            raise PrecisionExhausted(
                "composition has infinitely many orders; pass a working floor"
            )
        result_floor = floor
    else:
        result_floor = None

    if a.terms and b.terms:
        check_degree(max(dp.degree() for _, dp in a.terms) + max(dp.degree() for _, dp in b.terms))
    return result_floor


def _sum_of_products(products: Sequence, result_floor: Optional[int], first: int, divisor: int = 1) -> PsdoSymbol:
    # Sum sign times the terms j >= first of sigma(A o B) over the
    # (A, B, sign) products, divided by divisor.  Accumulate integer tables
    # per output order, each over one common denominator that grows to the
    # lcm of what it receives, and reduce once per order at the end.  The
    # coefficient of d_xi^j / j! is the binomial C(k, j), an integer for
    # negative k too.  The D_x chains of the right factor are shared across
    # left terms.
    out: dict[int, list] = {}  # order -> [{packed monomial: numerator}, denominator]
    for a, b, sign in products:
        for m, bm in b.terms:
            chain = [bm]
            for k, ak in a.terms:
                a_items = ak.nums.items()
                j = 0
                cj = sign  # sign * k(k-1)...(k-j+1) / j!
                while True:
                    n = k + m - j
                    if result_floor is not None and n < result_floor:
                        break
                    if j >= first:
                        bj = chain[j]
                        d = ak.den * bj.den
                        acc = out.get(n)
                        if acc is None:
                            acc = out[n] = [{}, d]
                        elif acc[1] % d:
                            grow = d // math.gcd(acc[1], d)
                            acc[0] = {mono: c * grow for mono, c in acc[0].items()}
                            acc[1] *= grow
                        table, den = acc
                        get = table.get
                        b_items = bj.nums.items()
                        scale = cj * (den // d)
                        for ma, ca in a_items:
                            cac = scale * ca
                            for mb, cb in b_items:
                                mono = ma + mb
                                table[mono] = get(mono, 0) + cac * cb
                    if k >= 0 and j >= k:
                        break
                    j += 1
                    cj = cj * (k - j + 1) // j
                    if j == len(chain):
                        chain.append(chain[-1].dx())
                    if chain[j].is_zero():
                        break
    return PsdoSymbol.of(
        ((n, DiffPoly.of(table.items(), den * divisor)) for n, (table, den) in out.items()), result_floor
    )


commutator = PsdoSymbol.bracket  # [A, B] = A o B - B o A


class KdvPair(NamedTuple):
    L: PsdoSymbol
    P: PsdoSymbol


def kdv_pair() -> KdvPair:
    """The KdV operators: L of order 2 and P of order 3.

    P is stored pre-expanded as -4*d^3 + 6*u*d + 3*u_1; a test checks that
    this agrees with composing -4*d^3 + 3*(d*u + u*d) symbol by symbol.
    """
    u = DiffPoly.u(0)
    l_op = PsdoSymbol.of([(2, DiffPoly.const(-1)), (0, u)])
    p_op = PsdoSymbol.of(
        [(3, DiffPoly.const(-4)), (1, u.scale(Fraction(6))), (0, u.dx().scale(Fraction(3)))]
    )
    return KdvPair(l_op, p_op)
