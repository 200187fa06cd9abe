"""Deformation by time scaling and the resulting integrable flow.

Scaling time by q turns a path P(t) = sum_k p_k t^k into
Pq(t) = q*P(qt) = sum_k p_k q^(k+1) t^k.  Every q-order of Pq carries a
single power of t, and so does every series the flow builds from it: the
time-ordered exponential W and the flow Lq are functions of q*t, and Pq and
dLq/dt are such a function times q.  A series therefore stores one
coefficient c_k in A per q-order, and its role fixes an implicit weight w:
the q^k coefficient stands for c_k * t^(k-w).

    weight 0:  W, Lq, exp_ad, a transported symmetry S(t), M = S.Lq
    weight 1:  Pq, lift_ad(Pq), every residual

Weights add under products, ``dt_series`` takes weight 0 to 1
(c_k -> k*c_k) and ``integrate_series`` takes weight 1 back to 0
(c_k -> c_k/k, the integral from 0 to t).  A weight-1 series has no q^0
term, which is the valuation val(Pq) >= 1 that makes everything below
finite.  Only ``render`` expands a coefficient back into its powers of t.

W solves dW/dt = Pq*W with W(0) = 1.  Read off order by order in q, that
equation is the Taylor-series recurrence

    w_0 = 1,   k * w_k = sum_{m=1..k} pq_m * w_{k-m},

which ``texp`` evaluates: about deg_t(P) * N products, since pq_m vanishes
for m > deg_t(P) + 1.  The same W is the sum of the iterated integrals

    a_0 = 1,   a_i(t) = integral_0^t Pq(s) * a_{i-1}(s) ds,

with val(a_i) >= i, so a_0..a_N are exhaustive modulo q^(N+1).
``iterated_integrals`` keeps that ordered-simplex form, folded one
integral at a time, as the reference the tests compare ``texp`` against.

The flow with initial value L0 is then the conjugation Lq = W * L0 * W^-1,
which solves dLq/dt = [Pq, Lq] exactly modulo q^(N+1); ``lax_residual``
recomputes that defining equation from scratch so solutions can be checked
rather than trusted.

Everything here is generic over the coefficient algebra A (matrices,
operator symbols, or tensor pairs of either).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, List, NamedTuple

from .algebra import Algebra, TPoly, rational
from .errors import TruncationMismatch, ValuationError
from .qseries import QSeries


@dataclass(frozen=True)
class LaxProblem:
    """A path P (t-polynomial over A), an initial value L0 in A, and the
    q-truncation order n.

    deg_t(P) <= n - 1 is required so the time scaling loses no term.
    """

    p: TPoly
    l0: Any
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"truncation order must be >= 1, got {self.n}")
        if self.p.degree > self.n - 1:
            raise ValueError(
                f"deg_t(P) = {self.p.degree} exceeds n - 1 = {self.n - 1}; "
                "raise n or drop high-degree terms explicitly"
            )

    @property
    def alg(self) -> Algebra:
        return self.p.alg


class DeformResult(NamedTuple):
    series: QSeries  # weight 1
    lossy: bool


def deform(p: TPoly, n: int) -> DeformResult:
    """Time scaling: the t^k coefficient of P lands at q^(k+1).

    Terms with k + 1 > n do not fit in the truncation; they are dropped and
    reported through the lossy flag (problem objects rule this out up
    front, the flag covers direct library use).
    """
    base = p.alg
    coeffs = [base.zero] * (n + 1)
    lossy = False
    for k, c in enumerate(p.coeffs):
        if base.is_zero(c):
            continue
        if k + 1 > n:
            lossy = True
            continue
        coeffs[k + 1] = c
    return DeformResult(QSeries(base, tuple(coeffs)), lossy)


def dt_series(s: QSeries) -> QSeries:
    """The exact time derivative of a weight-0 series, as a weight-1
    series: c_k t^k maps to k c_k t^(k-1)."""
    alg = s.alg
    return QSeries(alg, tuple(alg.scale(k, c) for k, c in enumerate(s.coeffs)))


def integrate_series(s: QSeries) -> QSeries:
    """The exact integral from 0 to t of a weight-1 series, as a weight-0
    series: c_k t^(k-1) maps to (c_k / k) t^k."""
    alg = s.alg
    if not alg.is_zero(s.coeffs[0]):
        raise ValuationError("a weight-1 series has no q^0 term")
    tail = (alg.scale(Fraction(1, k), c) for k, c in enumerate(s.coeffs[1:], 1))
    return QSeries(alg, (alg.zero, *tail))


def iterated_integrals(pq: QSeries) -> List[QSeries]:
    """The terms a_0..a_N of the time-ordered exponential of pq.

    Requires q-valuation >= 1; the grading val(a_i) >= i is what makes the
    list exhaustive modulo q^(N+1).
    """
    terms = [QSeries.one(pq.alg, pq.trunc)]
    for _ in range(pq.trunc):
        terms.append(integrate_series(pq * terms[-1]))
    return terms


def texp(pq: QSeries) -> QSeries:
    """Time-ordered exponential W with dW/dt = pq * W and W(0) = 1, by the
    recurrence w_k = (1/k) * sum_{m=1..k} pq_m * w_{k-m}."""
    if pq.val() < 1:
        raise ValuationError("time-ordered exponential needs q-valuation >= 1")
    alg = pq.alg
    is_zero = alg.is_zero
    p = pq.coeffs
    w = [alg.one]
    for k in range(1, pq.trunc + 1):
        acc = None
        for m in range(1, k + 1):
            if not (is_zero(p[m]) or is_zero(w[k - m])):
                prod = p[m] * w[k - m]
                acc = prod if acc is None else acc + prod
        w.append(alg.zero if acc is None else alg.scale(Fraction(1, k), acc))
    return QSeries(alg, tuple(w))


@dataclass(frozen=True)
class LaxSolution:
    w: QSeries  # the time-ordered exponential
    lq: QSeries  # the conjugated flow W * L0 * W^-1
    pq: QSeries  # the deformed path


def lax_solve(prob: LaxProblem) -> LaxSolution:
    """Solve the deformed flow by conjugation."""
    pq = deform(prob.p, prob.n).series
    w = texp(pq)
    lq = w * QSeries.constant(prob.alg, prob.n, prob.l0) * w.invert_unipotent()
    return LaxSolution(w=w, lq=lq, pq=pq)


def lax_residual(lq: QSeries, pq: QSeries) -> QSeries:
    """dLq/dt - [Pq, Lq]; identically zero exactly for lax_solve output."""
    if lq.trunc != pq.trunc:
        raise TruncationMismatch(
            f"truncation orders differ: {lq.trunc} vs {pq.trunc}"
        )
    if pq.val() < 1:
        raise ValuationError("the path of a flow needs q-valuation >= 1")
    return dt_series(lq) - (pq * lq - lq * pq)


def eval_tq(s: QSeries, t0: int | Fraction, q0: int | Fraction) -> Any:
    """Evaluate a weight-0 series at exact rationals (t0, q0): Horner's
    rule at t0 * q0."""
    alg = s.alg
    x = rational(t0) * rational(q0)
    acc = alg.zero
    for c in reversed(s.coeffs):
        acc = alg.scale(x, acc) + c
    return acc
