"""Exact-rational square matrices: the finite-dimensional backend.

This is the workhorse for brute-force oracles and randomized checks: every
generic identity in the kernel can be instantiated here and verified by
honest matrix arithmetic, including exact inversion.

Randomness is a linear congruential generator with fixed 64-bit constants
(Knuth's MMIX multiplier 6364136223846793005 and increment
1442695040888963407), so a seed produces the same matrices on every
platform and golden reports stay reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import Algebra, rational
from .errors import Singular
from .laxflow import LaxProblem, eval_tq, lax_solve

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def lcg(seed: int) -> Iterator[int]:
    """Deterministic stream of 64-bit states from a seed."""
    state = seed & _LCG_MASK
    while True:
        state = (state * _LCG_MULT + _LCG_INC) & _LCG_MASK
        yield state


@dataclass(frozen=True)
class RatMatrix:
    """An n x n matrix of exact rationals."""

    entries: Tuple[Tuple[Fraction, ...], ...]

    @staticmethod
    def of(rows: Sequence[Sequence[int | str | Fraction]]) -> "RatMatrix":
        data = tuple(tuple(rational(x) for x in row) for row in rows)
        if not data or any(len(row) != len(data) for row in data):
            raise ValueError("matrix must be square and nonempty")
        return RatMatrix(data)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix(
            tuple(
                tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
                for i in range(n)
            )
        )

    @staticmethod
    def zeros(n: int) -> "RatMatrix":
        return RatMatrix(tuple((Fraction(0),) * n for _ in range(n)))

    def algebra(self) -> "MatrixAlgebra":
        return MatrixAlgebra(self.n)

    @property
    def n(self) -> int:
        return len(self.entries)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(tuple(tuple(-a for a in row) for row in self.entries))

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + (-other)

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        cols = tuple(zip(*other.entries))
        zero = Fraction(0)
        rows = []
        for row in self.entries:
            out_row = []
            for col in cols:
                acc = None
                for a, b in zip(row, col):
                    if a and b:
                        term = a * b
                        acc = term if acc is None else acc + term
                out_row.append(zero if acc is None else acc)
            rows.append(tuple(out_row))
        return RatMatrix(tuple(rows))

    def scale(self, c: Fraction) -> "RatMatrix":
        c = rational(c)
        return RatMatrix(tuple(tuple(c * a for a in row) for row in self.entries))

    # -- linear algebra -------------------------------------------------

    def trace(self) -> Fraction:
        return sum((self.entries[i][i] for i in range(self.n)), Fraction(0))

    def det(self) -> Fraction:
        """Exact determinant by fraction-preserving elimination."""
        n = self.n
        rows = [list(r) for r in self.entries]
        det = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                rows[col], rows[pivot] = rows[pivot], rows[col]
                det = -det
            det *= rows[col][col]
            inv = 1 / rows[col][col]
            for r in range(col + 1, n):
                factor = rows[r][col] * inv
                if factor == 0:
                    continue
                for c in range(col, n):
                    rows[r][c] -= factor * rows[col][c]
        return det

    def invert(self) -> "RatMatrix":
        """Exact inverse by Gauss-Jordan elimination; raises Singular."""
        n = self.n
        aug = [list(row) + list(RatMatrix.identity(n).entries[i]) for i, row in enumerate(self.entries)]
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
        return RatMatrix(tuple(tuple(row[n:]) for row in aug))

    def max_abs(self) -> Fraction:
        return max((abs(a) for row in self.entries for a in row), default=Fraction(0))

    def to_json(self) -> list:
        return [[str(a) for a in row] for row in self.entries]

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(str(a) for a in row) + "]" for row in self.entries) + "]"


@dataclass(frozen=True)
class MatrixAlgebra(Algebra):
    n: int

    @cached_property
    def zero(self) -> RatMatrix:
        return RatMatrix.zeros(self.n)

    @cached_property
    def one(self) -> RatMatrix:
        return RatMatrix.identity(self.n)

    def is_zero(self, a: RatMatrix) -> bool:
        return a.entries == self.zero.entries

    def probes(self) -> List[RatMatrix]:
        """All n*n matrix units, row by row: a spanning set, so extensional
        equality on them is true equality."""
        n, one, zero = self.n, Fraction(1), Fraction(0)
        return [
            RatMatrix(tuple(tuple(one if (r, c) == (i, j) else zero for c in range(n)) for r in range(n)))
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
        tuple(
            tuple(Fraction(-bound + ((next(stream) >> 33) % span)) for _ in range(n))
            for _ in range(n)
        )
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

    Both solutions are evaluated exactly at (t=1, q=q0) for each q0; the
    error is the max-entry difference and ratio_to_prev divides the
    previous point's error by the current one.  Halving q should scale the
    error by about 2^(n+1), since the difference starts at the q^(n+1)
    coefficient.  The reference is a deeper exact truncation, not a float
    exponential, so the ratios stay clean.
    """
    if ref_n < prob.n + 2:
        raise ValueError(f"reference order {ref_n} must be >= n + 2 = {prob.n + 2}")
    sol = lax_solve(prob)
    ref = lax_solve(LaxProblem(p=prob.p, l0=prob.l0, n=ref_n))
    points: List[ConvergencePoint] = []
    prev: Optional[Fraction] = None
    for q_raw in qs:
        q0 = rational(q_raw)
        approx = eval_tq(sol.lq, 1, q0)
        exact = eval_tq(ref.lq, 1, q0)
        err = (approx - exact).max_abs()
        ratio = None
        if prev is not None and err != 0:
            ratio = prev / err
        points.append(ConvergencePoint(q=q0, error=err, ratio_to_prev=ratio))
        prev = err
    return ConvergenceReport(n=prob.n, ref_n=ref_n, points=tuple(points))
