"""Error paths and input validation across the kernel."""

import pytest

from qlax import (
    DiffPoly,
    MatrixAlgebra,
    QSeries,
    RatMatrix,
    TPoly,
    TruncationMismatch,
    deform,
    lax_residual,
)
from qlax.symops import BiOpAlgebra, apply_series

M2 = MatrixAlgebra(2)


def test_qseries_term_rejects_out_of_range_power():
    with pytest.raises(ValueError):
        QSeries.term(M2, 2, M2.one, 3)
    with pytest.raises(ValueError):
        QSeries.term(M2, 2, M2.one, -1)


def test_matrix_of_rejects_non_square():
    with pytest.raises(ValueError):
        RatMatrix.of([[1, 2], [3]])
    with pytest.raises(ValueError):
        RatMatrix.of([])
    with pytest.raises(TypeError):
        RatMatrix.of([[0.5]])


def test_jet_index_must_be_nonnegative():
    with pytest.raises(ValueError):
        DiffPoly.u(-1)


def test_series_mismatch_surfaces_in_flows():
    pq2 = deform(TPoly.const(M2, RatMatrix.of([[0, 1], [0, 0]])), 2)
    pq3 = deform(TPoly.const(M2, RatMatrix.of([[0, 1], [0, 0]])), 3)
    lq = QSeries.constant(M2, 3, M2.one)
    with pytest.raises(TruncationMismatch):
        lax_residual(lq, pq2)
    balg = BiOpAlgebra(M2)
    sq = QSeries.one(balg, 2)
    with pytest.raises(TruncationMismatch):
        apply_series(sq, lq)
