"""Reference maps that only the tests use.

Each one restates a definition from the paper on top of the library's
public operations, so a test can compare a command's shortcut with it.
"""

from qlax import QSeries, apply_series, symmetry3_residual


def symmetry2_residual(sq: QSeries, pq: QSeries, lq: QSeries) -> QSeries:
    """The weaker residual (dS/dt - [ad(Pq), S]) applied to Lq.

    Vanishing here is necessary and sufficient for S to be a symmetry in
    the restricted linear sense; it is strictly weaker than the BiOp-level
    equation, since a nonzero operator can still annihilate Lq.
    """
    return apply_series(symmetry3_residual(sq, pq), lq)
