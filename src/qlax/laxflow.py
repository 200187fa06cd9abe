"""Deformation by time scaling and the resulting integrable flow.

Scaling time by q turns a path P(t) into Pq(t) = q*P(qt): the coefficient
of t^k lands at q^(k+1), so Pq has q-valuation >= 1 (exactly 1 when
P(0) != 0).  That valuation is the whole point: the time-ordered
exponential W, the solution of dW/dt = Pq*W with W(0) = 1, is an exact
q-truncated t-polynomial.  Read off order by order in q, that equation is

    w_0 = 1,   w_k(t) = integral_0^t sum_{m=1..k} pq_m(s) * w_{k-m}(s) ds,

which ``texp`` evaluates: about deg_t(P) * N t-polynomial products, since
pq_m vanishes for m > deg_t(P) + 1.  It needs only val(Pq) >= 1, no
homogeneity in t.  The same W is the sum of the iterated integrals

    a_0 = 1,   a_i(t) = integral_0^t Pq(s) * a_{i-1}(s) ds,

with val(a_i) >= i, so a_0..a_N are exhaustive modulo q^(N+1).
``iterated_integrals`` keeps that ordered-simplex form, folded one
integral at a time, as the reference the tests compare ``texp`` against.

The flow with initial value L0 is then the conjugation Lq = W * L0 * W^-1,
which solves dLq/dt = [Pq, Lq] exactly modulo q^(N+1); ``lax_residual``
recomputes that defining equation from scratch so solutions can be checked
rather than trusted.

Everything here is generic over the coefficient algebra: the working
algebra is q-series over t-polynomials over A, for A any backend (matrices,
operator symbols, or tensor pairs of either).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, List, NamedTuple

from .algebra import Algebra, TPoly, TPolyAlgebra, rational
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
    series: QSeries  # over TPolyAlgebra(A)
    lossy: bool


def deform(p: TPoly, n: int) -> DeformResult:
    """Time scaling: the t^k coefficient of P contributes q^(k+1) * t^k.

    Terms with k + 1 > n do not fit in the truncation; they are dropped and
    reported through the lossy flag (problem objects rule this out up
    front, the flag covers direct library use).
    """
    base = p.alg
    talg = TPolyAlgebra(base)
    coeffs: List[TPoly] = [talg.zero for _ in range(n + 1)]
    lossy = False
    for k in range(p.degree + 1):
        c = p.coeff(k)
        if base.is_zero(c):
            continue
        if k + 1 > n:
            lossy = True
            continue
        coeffs[k + 1] = TPoly.t_power(base, c, k)
    return DeformResult(QSeries(talg, tuple(coeffs)), lossy)


def dt_series(s: QSeries) -> QSeries:
    """Lift the exact time derivative through the q-coefficients."""
    return s.map_coeffs(lambda c: c.dt())


def integrate_series(s: QSeries) -> QSeries:
    """Lift the exact integral from 0 to t through the q-coefficients."""
    return s.map_coeffs(lambda c: c.integrate())


def _check_texp_input(pq: QSeries) -> TPolyAlgebra:
    if pq.val() < 1:
        raise ValuationError("time-ordered exponential needs q-valuation >= 1")
    talg = pq.alg
    if not isinstance(talg, TPolyAlgebra):
        raise TypeError("time-ordered exponentials need q-series over t-polynomials")
    return talg


def iterated_integrals(pq: QSeries) -> List[QSeries]:
    """The terms a_0..a_N of the time-ordered exponential of pq.

    Requires q-valuation >= 1; the grading val(a_i) >= i is what makes the
    list exhaustive modulo q^(N+1).
    """
    talg = _check_texp_input(pq)
    terms = [QSeries.one(talg, pq.trunc)]
    for _ in range(pq.trunc):
        terms.append(integrate_series(pq * terms[-1]))
    return terms


def texp(pq: QSeries) -> QSeries:
    """Time-ordered exponential W with dW/dt = pq * W and W(0) = 1, by the
    q-order recurrence w_k = integral_0^t sum_{m=1..k} pq_m * w_{k-m}."""
    talg = _check_texp_input(pq)
    is_zero = talg.is_zero
    p = pq.coeffs
    w = [talg.one]
    for k in range(1, pq.trunc + 1):
        acc = talg.zero
        for m in range(1, k + 1):
            if not (is_zero(p[m]) or is_zero(w[k - m])):
                acc = acc + p[m] * w[k - m]
        w.append(acc.integrate())
    return QSeries(talg, tuple(w))


@dataclass(frozen=True)
class LaxSolution:
    w: QSeries  # the time-ordered exponential
    lq: QSeries  # the conjugated flow W * L0 * W^-1
    pq: QSeries  # the deformed path
    lossy: bool


def lax_solve(prob: LaxProblem) -> LaxSolution:
    """Solve the deformed flow by conjugation."""
    pq, lossy = deform(prob.p, prob.n)
    w = texp(pq)
    l0_series = QSeries.constant(pq.alg, prob.n, TPoly.const(prob.alg, prob.l0))
    lq = w * l0_series * w.invert_unipotent()
    return LaxSolution(w=w, lq=lq, pq=pq, lossy=lossy)


def lax_residual(lq: QSeries, pq: QSeries) -> QSeries:
    """dLq/dt - [Pq, Lq]; identically zero exactly for lax_solve output."""
    if lq.trunc != pq.trunc:
        raise TruncationMismatch(
            f"truncation orders differ: {lq.trunc} vs {pq.trunc}"
        )
    return dt_series(lq) - (pq * lq - lq * pq)


def eval_tq(s: QSeries, t0: int | Fraction, q0: int | Fraction) -> Any:
    """Evaluate a q-series of t-polynomials at exact rationals (t0, q0)."""
    talg = s.alg
    if not isinstance(talg, TPolyAlgebra):
        raise TypeError("eval_tq needs a q-series over t-polynomials")
    base = talg.base
    t0, q0 = rational(t0), rational(q0)
    acc = base.zero
    for c in reversed(s.coeffs):
        acc = base.scale(q0, acc) + c.eval_at(t0)
    return acc
