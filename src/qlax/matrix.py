"""Exact-rational square matrices: the finite-dimensional backend.

This is the workhorse for brute-force oracles and randomized checks: every
generic identity in the kernel can be instantiated here and verified by
honest matrix arithmetic.

A matrix is stored as integer numerators over one positive common
denominator, reduced so that no prime divides the denominator and every
numerator.  Every product goes through ``RatMatrix.dot``: a sum of
products or brackets is one integer matrix product followed by one gcd
reduction, instead of one ``Fraction`` normalisation per entry operation;
``entries`` gives the ``Fraction`` view.  Combining matrices of different
sizes raises :class:`~qlax.errors.ShapeMismatch`.

Randomness is a linear congruential generator with fixed 64-bit constants
(Knuth's MMIX multiplier 6364136223846793005 and increment
1442695040888963407), so a seed produces the same matrices on every
platform and golden reports stay reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import Algebra, rational, rational_parts
from .errors import ShapeMismatch
from .laxflow import MAX_ORDER, LaxProblem, eval_tq, lax_solve
from .qseries import QSeries

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def lcg(seed: int) -> Iterator[int]:
    """Deterministic stream of 64-bit states from a seed."""
    state = seed & _LCG_MASK
    while True:
        state = (state * _LCG_MULT + _LCG_INC) & _LCG_MASK
        yield state


def _canonical(num: Tuple[Tuple[int, ...], ...], den: int) -> "RatMatrix":
    # Divide out the common factor of den and every numerator; den > 0.
    if den == 1:
        return RatMatrix(num, 1)
    g = gcd(den, *chain.from_iterable(num))
    if g == 1:
        return RatMatrix(num, den)
    return RatMatrix(tuple(tuple(x // g for x in row) for row in num), den // g)


def _rational_str(x: int, den: int) -> str:
    # str(Fraction(x, den)) without building the Fraction.
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


@dataclass(frozen=True)
class RatMatrix:
    """An n x n matrix of exact rationals: entry (i, j) is num[i][j] / den.

    The form is canonical (den > 0 and gcd(den, *num) == 1), so the
    dataclass ``==`` and ``hash`` are exact equality.  Build matrices with
    ``of``, ``identity``, ``zeros`` or the ring operations, which keep it.
    """

    num: Tuple[Tuple[int, ...], ...]
    den: int = 1

    @staticmethod
    def of(rows: Iterable[Sequence[int | str | Fraction]]) -> "RatMatrix":
        data = [[rational_parts(x) for x in row] for row in rows]
        if not data or any(len(row) != len(data) for row in data):
            raise ValueError("matrix must be square and nonempty")
        den = lcm(*(d for row in data for _, d in row))
        return _canonical(tuple(tuple(p * (den // d) for p, d in row) for row in data), den)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(n: int) -> "RatMatrix":
        return RatMatrix(tuple((0,) * n for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.num)

    @property
    def entries(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """The entries as Fraction rows (read-only, built on demand)."""
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.num)

    def _check(self, other: "RatMatrix") -> None:
        if len(self.num) != len(other.num):
            raise ShapeMismatch(f"matrix sizes differ: {self.n} vs {other.n}")

    # -- ring operations ----------------------------------------------

    def _combine(self, other: "RatMatrix", op, sign: int) -> "RatMatrix":
        # self + sign*other, entrywise op over the common denominator.
        self._check(other)
        da, db = self.den, other.den
        if da == db:
            num = tuple(tuple(map(op, ra, rb)) for ra, rb in zip(self.num, other.num))
            return _canonical(num, da)
        g = gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        num = tuple(
            tuple(x * fa + y * fb for x, y in zip(ra, rb)) for ra, rb in zip(self.num, other.num)
        )
        return _canonical(num, da * fa)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return self._combine(other, add, 1)

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(tuple(tuple(-x for x in row) for row in self.num), self.den)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self._combine(other, sub, -1)

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix.dot(((self, other),))

    def bracket(self, other: "RatMatrix") -> "RatMatrix":
        """self*other - other*self."""
        return RatMatrix.dot(((self, other),), True)

    @staticmethod
    def dot(pairs: Sequence[Tuple["RatMatrix", "RatMatrix"]], bracket: bool = False, divisor: int = 1) -> "RatMatrix":
        """(sum of a*b) / divisor over a nonempty sequence of (a, b) pairs, or
        (sum of [a, b]) / divisor when ``bracket`` is set.

        Sum_p A_p B_p is one product of the row of blocks [A_1 .. A_P] with
        the column of blocks [B_1; ..; B_P], and [A, B] adds the blocks -B
        and A; each left block carries its pair's factor to the lcm of the
        pair denominators, and the sum is reduced once, over that lcm times
        ``divisor`` (a positive integer).
        """
        n = len(pairs[0][0].num)
        den = lcm(*(a.den * b.den for a, b in pairs))
        rows: List[list] = [[] for _ in range(n)]
        right: list = []
        for a, b in pairs:
            if len(a.num) != n or len(b.num) != n:
                other = len(b.num) if len(a.num) == n else len(a.num)
                raise ShapeMismatch(f"matrix sizes differ: {n} vs {other}")
            f = den // (a.den * b.den)
            for x, y, c in ((a, b, f), (b, a, -f)) if bracket else ((a, b, f),):
                for row, xr in zip(rows, x.num):
                    row += xr if c == 1 else [c * v for v in xr]
                right += y.num
        cols = tuple(zip(*right))
        return _canonical(tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in rows), den * divisor)

    @staticmethod
    def dot_defect(pairs: Sequence[Tuple["RatMatrix", "RatMatrix"]], bracket: bool, k: int, target: "RatMatrix") -> Optional[Fraction]:
        """None when the sum of a*b (or of [a, b] when ``bracket`` is set)
        over a possibly empty sequence of pairs equals k*target, else the
        largest entry magnitude of k*target minus that sum, in plain integers.

        The pairs are laid out in the block form of ``dot`` over the lcm
        ``den`` of the pair denominators, and each entry s/den of the sum is
        cross-multiplied against t/target.den: k*den*t - target.den*s.
        Nothing is reduced, no ``RatMatrix`` is built and ``dot`` is never
        called, so a check made with this shares no arithmetic with the
        kernel that built the series it checks.
        """
        n = len(target.num)
        den = lcm(*(a.den * b.den for a, b in pairs))
        rows: List[list] = [[] for _ in range(n)]
        right: list = []
        for a, b in pairs:
            if len(a.num) != n or len(b.num) != n:
                other = len(b.num) if len(a.num) == n else len(a.num)
                raise ShapeMismatch(f"matrix sizes differ: {n} vs {other}")
            f = den // (a.den * b.den)
            for x, y, c in ((a, b, f), (b, a, -f)) if bracket else ((a, b, f),):
                for row, xr in zip(rows, x.num):
                    row += xr if c == 1 else [c * v for v in xr]
                right += y.num
        cols = tuple(zip(*right)) or ((),) * n  # no pairs: each entry of the sum is 0
        td, kd = target.den, k * den
        top = max(abs(kd * t - td * sum(map(mul, row, col))) for row, trow in zip(rows, target.num) for col, t in zip(cols, trow))
        return Fraction(top, td * den) if top else None

    @staticmethod
    def bracket_coords(p: "RatMatrix", x: "RatMatrix") -> Tuple[dict, int]:
        """``coords()`` of p*x - x*p over p.den * x.den, unreduced: two integer
        products of the numerators per entry, written apart from ``dot``."""
        p._check(x)
        n, pcols, xcols = len(p.num), list(zip(*p.num)), list(zip(*x.num))
        entries = (((i, j), sum(map(mul, p.num[i], xcols[j])) - sum(map(mul, x.num[i], pcols[j]))) for i in range(n) for j in range(n))
        return {key: v for key, v in entries if v}, p.den * x.den

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def scale(self, c: Fraction) -> "RatMatrix":
        p, d = rational_parts(c)
        return _canonical(tuple(tuple(p * x for x in row) for row in self.num), self.den * d)

    def max_abs(self) -> Fraction:
        return Fraction(max(abs(x) for row in self.num for x in row), self.den)

    def coords(self) -> Tuple[dict, int]:
        """({(i, j): numerator} over the nonzero entries, den)."""
        return {(i, j): x for i, row in enumerate(self.num) for j, x in enumerate(row) if x}, self.den

    def to_json(self) -> List[List[str]]:
        den = self.den
        if den == 1:
            return [[str(x) for x in row] for row in self.num]
        return [[_rational_str(x, den) for x in row] for row in self.num]

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(row) + "]" for row in self.to_json()) + "]"


@dataclass(frozen=True)
class MatrixAlgebra(Algebra):
    n: int

    @cached_property
    def zero(self) -> RatMatrix:
        return RatMatrix.zeros(self.n)

    @cached_property
    def one(self) -> RatMatrix:
        return RatMatrix.identity(self.n)

    def probes(self) -> List[RatMatrix]:
        """All n*n matrix units, row by row: a spanning set, so extensional
        equality on them is true equality."""
        n = self.n
        return [
            RatMatrix(tuple(tuple(int((r, c) == (i, j)) for c in range(n)) for r in range(n)))
            for i in range(n)
            for j in range(n)
        ]


def mat_random(n: int, seed: int, bound: int) -> RatMatrix:
    """Deterministic pseudo-random integer matrix with entries in
    [-bound, bound]."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if bound < 0:
        raise ValueError("bound must be >= 0")
    stream = lcg(seed)
    span = 2 * bound + 1
    return RatMatrix(
        tuple(tuple(-bound + ((next(stream) >> 33) % span) for _ in range(n)) for _ in range(n))
    )


class ConvergencePoint(NamedTuple):
    q: Fraction
    error: Fraction
    ratio_to_prev: Optional[Fraction]  # previous error / this error


@dataclass(frozen=True)
class ConvergenceReport:
    n: int
    ref_n: int
    points: Tuple[ConvergencePoint, ...]


def convergence_study(
    prob: LaxProblem, qs: Iterable[int | str | Fraction], ref_n: int
) -> ConvergenceReport:
    """Compare the order-n solution against a deeper truncation.

    The recurrence runs order by order, so the order-n solution is the
    first n+1 coefficients of the reference, and their difference is the
    reference's tail c_(n+1)..c_refN.  The tail is evaluated exactly at
    (t=1, q=q0) for each q0; the error is its max entry and ratio_to_prev
    divides the previous point's error by the current one.  Halving q
    should scale the error by about 2^(n+1), since the tail starts at the
    q^(n+1) coefficient.  The reference is a deeper exact truncation, not
    a float exponential, so the ratios stay clean.
    """
    if ref_n < prob.n + 2:
        raise ValueError(f"reference order {ref_n} must be >= n + 2 = {prob.n + 2}")
    if ref_n > MAX_ORDER:
        raise ValueError(f"reference order {ref_n} must be at most {MAX_ORDER}")
    ref = lax_solve(LaxProblem(p=prob.p, l0=prob.l0, n=ref_n)).lq
    tail = QSeries(ref.alg, (ref.alg.zero,) * (prob.n + 1) + ref.coeffs[prob.n + 1:])
    points: List[ConvergencePoint] = []
    prev: Optional[Fraction] = None
    for q_raw in qs:
        q0 = rational(q_raw)
        err = eval_tq(tail, 1, q0).max_abs()
        ratio = None
        if prev is not None and err != 0:
            ratio = prev / err
        points.append(ConvergencePoint(q=q0, error=err, ratio_to_prev=ratio))
        prev = err
    return ConvergenceReport(n=prob.n, ref_n=ref_n, points=tuple(points))
