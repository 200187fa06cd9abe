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

W solves dW/dt = Pq*W with W(0) = 1 and the flow Lq solves
dLq/dt = [Pq, Lq] with Lq(0) = L0.  Read order by order in q, both are one
Taylor recurrence (the Jorba-Zou method), which ``_taylor`` runs:

    x_0 given,   x_k = (1/k) sum_{m=1..min(k, d+1)} step(pq_m, x_{k-m})

for d = deg_t(P), with step(p, x) = p*x in ``texp`` and the bracket
p*x - x*p in ``flow``.  Each x_k is one call of the coefficient type's
kernel, dot(pairs, bracket, divisor=k) (see ``algebra``), which sums the
steps and divides by k with one reduction.  The truncated solution from
x_0 is unique, so flow(x) is the conjugation W x W^-1; only the tests build
W^-1 to check that.  W is also the sum of the iterated integrals a_0 = 1,
a_i = integral_0^t Pq a_{i-1} (val(a_i) >= i), which ``iterated_integrals``
keeps as a test reference.

``first_defect`` checks either equation order by order, apart from the
recurrence: at each q^k it compares k*x_k with the sum of the steps over
the pairs ``convolution`` lists, with one static ``dot_equals`` of the
coefficient type, and names the first order where they differ.  On
matrices that comparison is integer cross-multiplication that never calls
``dot``, so the check shares no arithmetic with the solver's kernel.
``lax_residual`` builds the whole residual dt_series(Lq) - Pq.bracket(Lq)
through the kernel: the symmetry residual is one, and a failed check
reports its per-order norms.

Everything here is generic over the coefficient algebra A (matrices,
operator symbols, or tensor pairs of either).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, List, Optional

from .algebra import Algebra, TPoly, convolution, holes, nonzero, rational
from .errors import ValuationError
from .qseries import QSeries


# A truncation order N sets the length of every series (N + 1 coefficients).
# Input may ask for at most this order: far above any N the tests, the
# shipped problems or the benchmark use (the largest is 16), and still cheap
# on matrices (a 3x3 degree-1 lax-solve at N = 256 takes about 0.4 s on a
# 2-vCPU host), while a huge N is rejected before anything is allocated
# instead of hanging or running out of memory.  This bounds matrices only:
# a symbol flow such as KdV roughly doubles its work with each q-order, so
# a psdo problem well below this N can still run for hours.
MAX_ORDER = 256


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


def deform(p: TPoly, n: int) -> QSeries:
    """Time scaling: the t^k coefficient of P lands at q^(k+1), giving a
    weight-1 series.

    A nonzero term with k + 1 > n does not fit in the truncation and raises
    ValueError rather than being dropped.
    """
    coeffs = [p.alg.zero] * (n + 1)
    for k, c in enumerate(p.coeffs):
        if c.is_zero():
            continue
        if k + 1 > n:
            raise ValueError(f"the t^{k} term of P lands at q^{k + 1}, past truncation order {n}")
        coeffs[k + 1] = c
    return QSeries(p.alg, tuple(coeffs))


def dt_series(s: QSeries) -> QSeries:
    """The exact time derivative of a weight-0 series, as a weight-1
    series: c_k t^k maps to k c_k t^(k-1)."""
    return QSeries(s.alg, tuple(c.scale(k) for k, c in enumerate(s.coeffs)))


def integrate_series(s: QSeries) -> QSeries:
    """The exact integral from 0 to t of a weight-1 series, as a weight-0
    series: c_k t^(k-1) maps to (c_k / k) t^k."""
    if not s.coeffs[0].is_zero():
        raise ValuationError("a weight-1 series has no q^0 term")
    tail = (c.scale(Fraction(1, k)) for k, c in enumerate(s.coeffs[1:], 1))
    return QSeries(s.alg, (s.alg.zero, *tail))


def iterated_integrals(pq: QSeries) -> List[QSeries]:
    """The terms a_0..a_N of the time-ordered exponential of pq.

    Requires q-valuation >= 1; the grading val(a_i) >= i is what makes the
    list exhaustive modulo q^(N+1).
    """
    terms = [QSeries.one(pq.alg, pq.trunc)]
    for _ in range(pq.trunc):
        terms.append(integrate_series(pq * terms[-1]))
    return terms


def _taylor(x0: Any, pq: QSeries, bracket: bool) -> QSeries:
    """The solution of dX/dt = Pq*X, or of dX/dt = [Pq, X] when ``bracket``
    is set, with X(0) = x0: one kernel call per q-order."""
    if pq.val() < 1:
        raise ValuationError("the path of a flow needs q-valuation >= 1")
    zero = pq.alg.zero
    path, x = nonzero(pq.coeffs), holes([x0])
    for k in range(1, pq.trunc + 1):
        pairs = convolution(path, x, k)
        x += holes([type(zero).dot(pairs, bracket, k)]) if pairs else [None]
    return QSeries(pq.alg, tuple(zero if c is None else c for c in x))


def texp(pq: QSeries) -> QSeries:
    """Time-ordered exponential W with dW/dt = pq * W and W(0) = 1."""
    return _taylor(pq.alg.one, pq, False)


def flow(x0: Any, pq: QSeries) -> QSeries:
    """The Lax flow dX/dt = [pq, X] started at X(0) = x0."""
    return _taylor(x0, pq, True)


@dataclass(frozen=True)
class LaxSolution:
    lq: QSeries  # the flow from L0
    pq: QSeries  # the deformed path

    @cached_property
    def w(self) -> QSeries:  # computed when first read; symmetry never does
        return texp(self.pq)


def lax_solve(prob: LaxProblem) -> LaxSolution:
    """Solve the deformed flow by its Taylor recurrence from L0."""
    pq = deform(prob.p, prob.n)
    return LaxSolution(lq=flow(prob.l0, pq), pq=pq)


def lax_residual(lq: QSeries, pq: QSeries) -> QSeries:
    """dLq/dt - [Pq, Lq]; identically zero exactly for lax_solve output."""
    if pq.val() < 1:
        raise ValuationError("the path of a flow needs q-valuation >= 1")
    return dt_series(lq) - pq.bracket(lq)


def first_defect(x: QSeries, pq: QSeries, bracket: bool) -> Optional[int]:
    """The first q-order k at which k*x_k differs from the sum of
    step(pq_i, x_(k-i)), or None when x solves dX/dt = [Pq, X] (``bracket``
    set) or dX/dt = Pq*X exactly; it raises what ``lax_residual`` raises.

    One ``dot_equals`` comparison per q-order, stopping at the first that
    fails.  The target is k*x_k, never a kernel call with divisor k, so a
    kernel that drops its divisor is caught too."""
    if pq.val() < 1:
        raise ValuationError("the path of a flow needs q-valuation >= 1")
    pq._check(x)
    equals = type(pq.alg.zero).dot_equals
    path, xs = nonzero(pq.coeffs), holes(x.coeffs)
    for k, target in enumerate(x.coeffs):
        pairs = convolution(path, xs, k)
        if not (equals(pairs, bracket, k, target) if pairs else target.scale(k).is_zero()):
            return k
    return None


def eval_tq(s: QSeries, t0: int | Fraction, q0: int | Fraction) -> Any:
    """Evaluate a weight-0 series at exact rationals (t0, q0): Horner's
    rule at t0 * q0."""
    x = rational(t0) * rational(q0)
    acc = s.alg.zero
    for c in reversed(s.coeffs):
        acc = acc.scale(x) + c
    return acc
