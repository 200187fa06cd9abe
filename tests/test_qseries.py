"""Truncated q-series: grading, exponential bijection, inversion."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlax import (
    MatrixAlgebra,
    QSeries,
    RatMatrix,
    TruncationMismatch,
    ValuationError,
)

from conftest import int_stream, rand_matrix_qseries, rand_psdo_qseries
from reference import truncated

M1 = MatrixAlgebra(1)  # the rationals, as 1x1 matrices
M2 = MatrixAlgebra(2)

A = RatMatrix.of([[1, 2], [3, 4]])
B = RatMatrix.of([[0, 1], [1, 0]])
E12 = RatMatrix.of([[0, 1], [0, 0]])
E21 = RatMatrix.of([[0, 0], [1, 0]])


def test_val_examples():
    assert QSeries.zero(M2, 3).val() == math.inf
    assert QSeries.term(M2, 3, A, 1).val() == 1
    assert QSeries.constant(M2, 3, A).val() == 0


def test_mul_examples():
    s = QSeries.of(M2, (A, B, A))
    assert s * QSeries.one(M2, 2) == s
    qa = QSeries.term(M2, 1, A, 1)
    qb = QSeries.term(M2, 1, B, 1)
    assert (qa * qb).is_zero()  # the q^2 term is cut at N=1
    assert QSeries.one(M2, 3).scale(2) == QSeries.constant(M2, 3, M2.one.scale(2))
    qa2 = QSeries.term(M2, 2, A, 1)
    qb2 = QSeries.term(M2, 2, B, 1)
    assert qa2 * qb2 == QSeries.term(M2, 2, A * B, 2)


def test_mul_mismatch():
    with pytest.raises(TruncationMismatch):
        QSeries.one(M2, 1) * QSeries.one(M2, 2)
    with pytest.raises(TruncationMismatch):
        QSeries.one(M2, 1) + QSeries.one(M2, 3)
    with pytest.raises(TruncationMismatch):
        QSeries.one(M2, 1) - QSeries.one(M2, 3)
    with pytest.raises(TruncationMismatch):
        QSeries.one(M2, 1).bracket(QSeries.one(M2, 2))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 5))
def test_bracket_and_difference_match_products(seed, n):
    stream = int_stream(seed)
    pairs = (
        (rand_matrix_qseries(M2, stream, n), rand_matrix_qseries(M2, stream, n, val_min=1)),
        (rand_psdo_qseries(stream, n), rand_psdo_qseries(stream, n, val_min=1)),
    )
    for x, y in pairs:
        assert x.bracket(y) == x * y - y * x
        assert x - y == x + (-y) and y - x == y + (-x)


def test_exp_examples():
    assert QSeries.zero(M2, 3).exp() == QSeries.one(M2, 3)
    got = QSeries.term(M2, 2, A, 1).exp()
    expected = QSeries.of(M2, (M2.one, A, (A * A).scale(Fraction(1, 2))))
    assert got == expected
    assert got.coeffs[0] == M2.one


def test_exp_requires_valuation():
    with pytest.raises(ValuationError):
        QSeries.constant(M2, 2, A).exp()
    with pytest.raises(ValuationError):
        QSeries.of(M2, (A, B, B)).log()
    with pytest.raises(ValuationError):
        QSeries.of(M2, (A, B, B)).invert_unipotent()


def test_log_examples():
    assert QSeries.one(M2, 3).log().is_zero()
    got = (QSeries.one(M2, 2) + QSeries.term(M2, 2, A, 1)).log()
    expected = QSeries.of(M2, (M2.zero, A, (A * A).scale(Fraction(-1, 2))))
    assert got == expected


def test_invert_unipotent_examples():
    assert QSeries.one(M2, 3).invert_unipotent() == QSeries.one(M2, 3)
    s = QSeries.one(M2, 2) + QSeries.term(M2, 2, A, 1)
    expected = QSeries.of(M2, (M2.one, -A, A * A))
    assert s.invert_unipotent() == expected


def test_grading_seeded():
    stream = int_stream(23)
    for _ in range(30):
        s = rand_matrix_qseries(M2, stream, 4, val_min=next(stream) % 3)
        r = rand_matrix_qseries(M2, stream, 4, val_min=next(stream) % 3)
        assert (s * r).val() >= s.val() + r.val()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 6))
def test_exp_log_bijection_matrix(seed, n):
    stream = int_stream(seed)
    s = rand_matrix_qseries(M2, stream, n, val_min=1)
    g = rand_matrix_qseries(M2, stream, n, val_min=1) + QSeries.one(M2, n)
    assert s.exp().log() == s
    assert g.log().exp() == g


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 5))
def test_exp_log_bijection_psdo(seed, n):
    stream = int_stream(seed)
    s = rand_psdo_qseries(stream, n, val_min=1)
    assert s.exp().log() == s


def test_exp_inverse_pairing():
    stream = int_stream(5)
    for _ in range(10):
        s = rand_matrix_qseries(M2, stream, 4, val_min=1)
        assert s.exp() * (-s).exp() == QSeries.one(M2, 4)


def test_invert_unipotent_property():
    # two-sided, up to N = 8, on 2x2 and 3x3 matrices and on symbols
    stream = int_stream(29)
    for n in range(1, 9):
        for alg in (M2, MatrixAlgebra(3)):
            s = QSeries.one(alg, n) + rand_matrix_qseries(alg, stream, n, val_min=1)
            assert s * s.invert_unipotent() == QSeries.one(alg, n)
            assert s.invert_unipotent() * s == QSeries.one(alg, n)
    for n in range(1, 6):
        s = rand_psdo_qseries(stream, n, val_min=1)
        g = QSeries.one(s.alg, n) + s
        assert g * g.invert_unipotent() == QSeries.one(s.alg, n)
        assert g.invert_unipotent() * g == QSeries.one(s.alg, n)


def test_exp_additive_for_commuting_scalars():
    def scalar_term(c, k):
        return QSeries.term(M1, 3, RatMatrix.of([[c]]), k)

    a = scalar_term("2/3", 1)
    b = scalar_term("-1/2", 1) + scalar_term("1/5", 2)
    assert (a + b).exp() == a.exp() * b.exp()


def test_exp_not_additive_for_noncommuting_matrices():
    """Guards against an accidentally commutative implementation."""
    a = QSeries.term(M2, 2, E12, 1)
    b = QSeries.term(M2, 2, E21, 1)
    lhs = (a + b).exp()
    rhs = a.exp() * b.exp()
    assert lhs != rhs
    # the defect sits exactly at q^2 and equals (ba - ab)/2
    diff = lhs - rhs
    assert diff.coeffs[1] == M2.zero
    assert diff.coeffs[2] == (E21 * E12 - E12 * E21).scale(Fraction(1, 2))


def test_retruncation_consistency():
    stream = int_stream(31)
    for _ in range(10):
        wide = rand_matrix_qseries(M2, stream, 6, val_min=1)
        narrow = truncated(wide, 4)
        assert truncated(wide.exp(), 4) == narrow.exp()
        assert truncated((QSeries.one(M2, 6) + wide).log(), 4) == (
            QSeries.one(M2, 4) + narrow
        ).log()
