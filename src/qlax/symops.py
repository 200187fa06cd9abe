"""Inner derivations, conjugation operators, and symmetry transport.

A :class:`BiOp` over an algebra A is a finite sum of (left, right) pairs
denoting the linear map X -> sum_i left_i * X * right_i.  Composition is
(a, b) o (c, d) = (a*c, d*b) extended bilinearly, the identity is the
single pair (1, 1), and ad(p) = (p, 1) + (-1, p) is the inner derivation
X -> pX - Xp.  The action is one call of the coefficient type's kernel
``dot`` over the pairs (l_i*X, r_i), per element in ``BiOp.apply`` and per
q-order in ``apply_series``; it keeps the association (l_i*X)*r_i, and so
the precision floor of a symbol.

A BiOp sum_i (l_i, r_i) is the tensor sum_i l_i (x) r_i in A (x) A^op, and
that tensor has a canonical form: expand each side in its backend's basis
(``coords()``: matrix entries, or (symbol order, jet monomial) pairs) and
collect the integer coefficients by basis pair over one common
denominator, as ``_tensor_defect`` does.  ``BiOp.of`` still simplifies
only structurally (pairs sharing a left or a right factor are merged, zero
pairs pruned), so equality of BiOps is not structural.  A zero tensor is a
zero map, so ``residual_vanishes`` first tries that exact test
(``BiOp.tensor_is_zero``); when a tensor is not zero, or a side has
unknown coordinates, it applies the residual to a probe set and compares
in A, where equality is canonical (``probes_vanish``).  On matrices the
two tests agree, as A (x) A^op is End(A) and the unit probes span A.
Each backend's descriptor supplies its standard probe set through
``Algebra.probes()`` and callers may extend it; this module works over any
algebra and imports no backend.

Symmetries of the deformed flow obey the same kind of equation as the flow
itself, dS/dt = [ad(Pq), S], inside the algebra of BiOps; series of BiOps
follow the weight convention of ``laxflow`` (S has weight 0, lift_ad(Pq)
and the residuals weight 1).  The bracket with Pq is a derivation, so the
flow of a product is the product of the flows, and for S0 = sum_i (l_i, r_i)

    S(t) = sum_i (flow(l_i), flow(r_i)),

which ``transport`` builds with one ``laxflow.flow`` per distinct side; a
side equal to 1 stays 1 and a side equal to L0 reuses Lq.  As flow(x) is
W x W^-1 for W = texp(Pq), S(t) = sum_i (W l_i W^-1, W r_i W^-1); the
tests check that identity and the group law of the deformed symmetries.
``exp_ad``, the time-ordered exponential of the lifted path ad(Pq) (the
parallel transport of the connection d/dt + ad_Pq), stays as the library
form of the Ad-exp identity exp_ad(Pq)(X) = W X W^-1.  The residual
dS/dt - [ad(Pq), S] is checked per q-order in tensor coordinates by
``symmetry_defects``; ``symmetry3_residual`` builds it as a BiOp series,
dt_series(S) - lift_ad(Pq).bracket(S), for the probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from .algebra import Algebra, convolution, holes, nonzero, rational
from .laxflow import LaxProblem, LaxSolution, defects, flow, lax_residual, texp
from .qseries import QSeries


@dataclass(frozen=True)
class BiOp:
    """A finite sum of left/right multiplication pairs over ``alg``."""

    alg: Algebra
    terms: Tuple[Tuple[Any, Any], ...]

    @staticmethod
    def of(alg: Algebra, pairs: Iterable[Tuple[Any, Any]]) -> "BiOp":
        return BiOp(alg, _simplify(tuple(pairs)))

    @staticmethod
    def identity(alg: Algebra) -> "BiOp":
        return BiOp(alg, ((alg.one, alg.one),))

    @staticmethod
    def zero(alg: Algebra) -> "BiOp":
        return BiOp(alg, ())

    # -- the action -----------------------------------------------------

    def apply(self, x: Any) -> Any:
        """The linear map this operator denotes, evaluated at x: one ``dot``
        over the pairs (left*x, right)."""
        zero = self.alg.zero
        pairs = [(left * x, right) for left, right in self.terms]
        return type(zero).dot(pairs) if pairs else zero

    def is_zero(self) -> bool:
        return not self.terms

    def tensor_is_zero(self) -> bool:
        """Whether sum_i l_i (x) r_i is the zero tensor, which denotes the
        zero map; False when some side's coordinates are unknown."""
        terms = [(1, left.coords(), right.coords()) for left, right in self.terms]
        return all(cl and cr for _, cl, cr in terms) and _tensor_defect(terms) is None

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "BiOp") -> "BiOp":
        return BiOp.of(self.alg, self.terms + other.terms)

    def __neg__(self) -> "BiOp":
        return BiOp(self.alg, tuple((-l, r) for l, r in self.terms))

    def __sub__(self, other: "BiOp") -> "BiOp":
        return self + (-other)

    def __mul__(self, other: "BiOp") -> "BiOp":
        """Composition of the denoted maps: (a,b) o (c,d) = (a*c, d*b)."""
        return BiOp.dot(((self, other),))

    @staticmethod
    def dot(pairs: Sequence[Tuple["BiOp", "BiOp"]], bracket: bool = False, divisor: int = 1) -> "BiOp":
        """(sum of x*y) / divisor over a nonempty sequence of (x, y) pairs,
        or (sum of x*y - y*x) / divisor when ``bracket`` is set: one
        ``BiOp.of`` over every composed pair."""
        composed = []
        for x, y in pairs:
            composed += [(a * c, d * b) for a, b in x.terms for c, d in y.terms]
            if bracket:
                composed += [(-(c * a), b * d) for c, d in y.terms for a, b in x.terms]
        out = BiOp.of(pairs[0][0].alg, composed)
        return out if divisor == 1 else out.scale(Fraction(1, divisor))

    def scale(self, c: Fraction) -> "BiOp":
        c = rational(c)
        if c == 0:
            return BiOp(self.alg, ())
        return BiOp(self.alg, tuple((l.scale(c), r) for l, r in self.terms))


def _tensor_defect(terms: Sequence[Tuple[int, Tuple[dict, int], Tuple[dict, int]]]) -> Optional[Fraction]:
    """None when sum_t c_t * l_t (x) r_t is the zero tensor, else its largest
    coordinate magnitude, for terms (integer c_t, coords of l_t, coords of
    r_t).  Each right side packs into one integer, a field per basis key,
    added into the row of each left key; no field can reach 2^(width-1) in
    magnitude, so a row is 0 exactly when its fields are."""
    den = lcm(*(ld * rd for _, (_, ld), (_, rd) in terms))
    terms = [(c * (den // (ld * rd)), lnum, rnum) for c, (lnum, ld), (rnum, rd) in terms]
    bound = sum(abs(c) * max(map(abs, lnum.values()), default=0) * max(map(abs, rnum.values()), default=0) for c, lnum, rnum in terms)
    width, offsets, rows = bound.bit_length() + 1, {}, {}  # right key -> field offset, left key -> row
    for c, lnum, rnum in terms:
        packed = sum(b << offsets.setdefault(kr, width * len(offsets)) for kr, b in rnum.items())
        for kl, a in lnum.items():
            rows[kl] = rows.get(kl, 0) + c * a * packed
    top, half, mask = 0, 1 << (width - 1), (1 << width) - 1
    for row in rows.values():
        while row:  # the signed fields, lowest first
            digit = ((row & mask) ^ half) - half
            top, row = max(top, abs(digit)), (row - digit) >> width
    return Fraction(top, den) if top else None


def _merge(pairs: Iterable[Tuple[Any, Any]]) -> dict:
    # Sum the values that share a key, skipping pairs with a zero side.
    out: dict[Any, Any] = {}
    for key, value in pairs:
        if not (key.is_zero() or value.is_zero()):
            out[key] = out[key] + value if key in out else value
    return out


def _simplify(pairs: Tuple[Tuple[Any, Any], ...]) -> Tuple[Tuple[Any, Any], ...]:
    # Merge pairs sharing a left factor, then pairs sharing a right factor;
    # prune pairs with a zero side.  Purely structural compression: it never
    # changes the denoted map and keeps term lists from ballooning.
    by_right = _merge((right, left) for left, right in _merge(pairs).items())
    return tuple((left, right) for right, left in by_right.items() if not left.is_zero())


@dataclass(frozen=True)
class BiOpAlgebra(Algebra):
    base: Algebra

    @cached_property
    def zero(self) -> BiOp:
        return BiOp(self.base, ())

    @cached_property
    def one(self) -> BiOp:
        return BiOp.identity(self.base)


def ad(p: Any, alg: Algebra) -> BiOp:
    """The inner derivation X -> p*X - X*p on ``alg`` as a two-term BiOp."""
    return BiOp.of(alg, ((p, alg.one), (-alg.one, p)))


def lift_ad(pq: QSeries) -> QSeries:
    """Map every coefficient of a q-series over A to its inner derivation,
    giving a q-series of BiOps of the same weight."""
    base, balg = pq.alg, BiOpAlgebra(pq.alg)
    return pq.map_coeffs(lambda c: balg.zero if c.is_zero() else ad(c, base), balg)


def exp_ad(pq: QSeries) -> QSeries:
    """Time-ordered exponential of ad(Pq): the parallel-transport operator.

    Applied to any X it agrees with W * X * W^-1 for W = texp(pq), which is
    the Ad-exp identity the tests pin down.
    """
    return texp(lift_ad(pq))


def transport(s0: BiOp, pq: QSeries, lq: Optional[QSeries] = None) -> QSeries:
    """Carry an initial symmetry along time in closed form.

    S(t) = sum_i (flow(l_i), flow(r_i)) for S0 = sum_i (l_i, r_i): the
    unique solution of dS/dt = [ad(Pq), S] with S(0) = s0, modulo q^(N+1).
    ``lq``, if given, is the flow of ``pq`` from L0 = lq(0) and serves a
    side equal to L0.  The q^k coefficient is ``BiOp.of`` over the
    convolution of each term's flowed left side with its flowed right side,
    so it has at most len(s0.terms) * (k+1) pairs.
    """
    base = s0.alg
    n = pq.trunc
    flows = {} if lq is None else {lq.coeffs[0]: lq}
    flows[base.one] = QSeries.one(base, n)
    for x in (x for pair in s0.terms for x in pair):
        if x not in flows:
            flows[x] = flow(x, pq)
    sides = [(nonzero(flows[left].coeffs), holes(flows[right].coeffs)) for left, right in s0.terms]
    out = (BiOp.of(base, [p for ls, rs in sides for p in convolution(ls, rs, k)]) for k in range(n + 1))
    return QSeries(BiOpAlgebra(base), tuple(out))


def symmetry_defects(sq: QSeries, pq: QSeries) -> Optional[Dict[int, Fraction]]:
    """{q-order k: largest coordinate magnitude} where dS/dt - [ad(Pq), S] is
    not the zero tensor, or None when a side has unknown coordinates.  At q^k
    that is k*S_k - sum_i sum_((l, r) in S_(k-i)) ([p_i, l] (x) r + l (x) [p_i, r]),
    from the pairs of S and ``bracket_coords``; no BiOp is built."""
    pq._check(sq)
    one, bracket_coords = pq.alg.one, type(pq.alg.zero).bracket_coords
    sides = [[(left, right, left.coords(), right.coords()) for left, right in bop.terms] for bop in sq.coeffs]
    out = {}
    for k in range(1, sq.trunc + 1):
        terms = [(k, cl, cr) for _, _, cl, cr in sides[k]]
        for i, p in nonzero(pq.coeffs[: k + 1]):
            for left, right, cl, cr in sides[k - i]:  # a bracket with 1 is zero
                if left != one:
                    terms.append((-1, bracket_coords(p, left), cr))
                if right != one:
                    terms.append((-1, cl, bracket_coords(p, right)))
        if not all(cl and cr for _, cl, cr in terms):
            return None
        if (norm := _tensor_defect(terms)) is not None:
            out[k] = norm
    return out


def symmetry3_residual(sq: QSeries, pq: QSeries) -> QSeries:
    """dS/dt - [ad(Pq), S]: the defining equation of transported symmetries,
    recomputed from scratch.  BiOp-valued; test it with ``residual_vanishes``."""
    return lax_residual(sq, lift_ad(pq))


def apply_series(sq: QSeries, xq: QSeries) -> QSeries:
    """Apply a q-series of BiOps to a q-series of A-elements: the Cauchy
    product with the BiOp action as multiplication (the weights add): at
    q^k, one ``dot`` over the pairs (l*x_j, r) for (l, r) in S_i, i + j = k."""
    sq._check(xq)
    zero = xq.alg.zero
    ops, xs = nonzero(sq.coeffs), holes(xq.coeffs)
    out = []
    for k in range(sq.trunc + 1):
        pairs = [(left * x, right) for bop, x in convolution(ops, xs, k) for left, right in bop.terms]
        out.append(type(zero).dot(pairs) if pairs else zero)
    return QSeries(xq.alg, tuple(out))


def apply_to_probe(sq: QSeries, x: Any) -> QSeries:
    """Apply every BiOp coefficient of a q-series to a fixed probe."""
    return sq.map_coeffs(lambda bop: bop.apply(x), sq.alg.base)


def probes_vanish(residual: QSeries, probes: Sequence[Any]) -> bool:
    """Whether a BiOp-valued series maps every probe to zero."""
    return all(apply_to_probe(residual, x).is_zero() for x in probes)


def residual_vanishes(residual: QSeries, probes: Sequence[Any]) -> bool:
    """Zero test for a BiOp-valued residual series: exact when every
    coefficient is a zero tensor, which every probe would confirm;
    otherwise extensional, on the probes."""
    return all(bop.tensor_is_zero() for bop in residual.coeffs) or probes_vanish(residual, probes)


def transported_solution_check(s0: BiOp, prob: LaxProblem, sol: LaxSolution, sq: QSeries) -> bool:
    """Transported symmetries map solutions to solutions.

    ``sol`` solves ``prob`` and ``sq`` is the transport of ``s0`` along
    ``sol.pq``.  Checks that Lq solves the deformed flow from L0, and that
    M = S(t).Lq(t) satisfies the same equation with M(t=0), the q^0
    coefficient of the weight-0 series M, equal to S0(L0).  Modulo
    q^(N+1) the flow from a given initial value is unique (each q-order is
    the integral from 0 of lower orders), so this says M is the solution
    started at S0(L0), without solving for it.
    """
    if defects(sol.lq, sol.pq, True) or sol.lq.coeffs[0] != prob.l0:
        return False
    mq = apply_series(sq, sol.lq)
    start = [(left * prob.l0, right) for left, right in s0.terms]
    # M(0) = S0(L0) through ``dot_defect``, which on matrices shares no arithmetic with ``dot``
    return not defects(mq, sol.pq, True) and type(prob.l0).dot_defect(start, False, 1, mq.coeffs[0]) is None
