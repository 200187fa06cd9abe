"""Shared deterministic generators and hypothesis strategies.

Non-hypothesis randomness goes through the package's own LCG so every run
and every platform sees the same instances.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from qlax import (
    DiffPoly,
    MatrixAlgebra,
    PsdoSymbol,
    QSeries,
    RatMatrix,
    TPoly,
    lcg,
    mat_random,
)


# -- deterministic streams ------------------------------------------------

def int_stream(seed: int):
    """Stream of small nonnegative ints derived from the LCG."""
    for state in lcg(seed):
        yield state >> 33


def rint(stream, lo: int, hi: int) -> int:
    """Uniform-ish integer in [lo, hi] from a stream."""
    return lo + next(stream) % (hi - lo + 1)


def rand_fraction(stream, bound: int = 3, max_den: int = 2) -> Fraction:
    num = rint(stream, -bound, bound)
    den = rint(stream, 1, max_den)
    return Fraction(num, den)


def rand_diffpoly(stream, max_terms: int = 3, max_jet: int = 3, max_exp: int = 2) -> DiffPoly:
    terms = {}
    for _ in range(rint(stream, 0, max_terms)):
        mono = []
        for _ in range(rint(stream, 0, 2)):
            mono.append((rint(stream, 0, max_jet), rint(stream, 1, max_exp)))
        key = tuple(sorted({j: e for j, e in mono}.items()))
        terms[key] = terms.get(key, Fraction(0)) + rand_fraction(stream)
    return DiffPoly.from_terms(terms.items())


def rand_diffop(
    stream, max_order: int = 3, max_terms: int = 2, max_jet: int = 2, max_exp: int = 2
) -> PsdoSymbol:
    """Random exact differential operator with small coefficients."""
    coeffs = {}
    for k in range(max_order + 1):
        if rint(stream, 0, 1):
            dp = rand_diffpoly(stream, max_terms=max_terms, max_jet=max_jet, max_exp=max_exp)
            if not dp.is_zero():
                coeffs[k] = dp
    return PsdoSymbol.of(coeffs.items())


def rand_matrix_tpoly(alg: MatrixAlgebra, stream, degree: int, bound: int = 2) -> TPoly:
    coeffs = [mat_random(alg.n, next(stream), bound) for _ in range(degree + 1)]
    return TPoly.of(alg, coeffs)


def rand_matrix_qseries(alg: MatrixAlgebra, stream, n: int, val_min: int = 0, bound: int = 3) -> QSeries:
    coeffs = []
    for k in range(n + 1):
        if k < val_min:
            coeffs.append(alg.zero)
        else:
            coeffs.append(mat_random(alg.n, next(stream), bound))
    return QSeries.of(alg, coeffs)


def rand_psdo_qseries(
    stream, n: int, val_min: int = 0, max_jet: int = 2, max_exp: int = 2
) -> QSeries:
    from qlax import PsdoAlgebra

    alg = PsdoAlgebra()
    coeffs = []
    for k in range(n + 1):
        if k < val_min:
            coeffs.append(alg.zero)
        else:
            coeffs.append(
                rand_diffop(stream, max_order=1, max_terms=1, max_jet=max_jet, max_exp=max_exp)
            )
    return QSeries.of(alg, coeffs)


# -- hypothesis strategies -------------------------------------------------

small_fractions = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
)

jet_monomials = st.lists(
    st.tuples(st.integers(0, 3), st.integers(1, 2)), min_size=0, max_size=2
).map(lambda pairs: tuple(sorted({j: e for j, e in pairs}.items())))


@st.composite
def diffpolys(draw, max_terms: int = 4) -> DiffPoly:
    terms = draw(
        st.dictionaries(jet_monomials, small_fractions, min_size=0, max_size=max_terms)
    )
    return DiffPoly.from_terms(terms.items())


@st.composite
def diffops(draw, max_order: int = 3) -> PsdoSymbol:
    coeffs = draw(
        st.dictionaries(
            st.integers(0, max_order), diffpolys(max_terms=2), min_size=0, max_size=2
        )
    )
    return PsdoSymbol.of(coeffs.items())


@st.composite
def matrices(draw, n: int = 2, bound: int = 4) -> RatMatrix:
    entries = draw(
        st.lists(
            st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    return RatMatrix.of(entries)
