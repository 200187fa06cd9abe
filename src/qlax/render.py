"""JSON reports shared by the CLI.

Exact values are rendered as strings ("3/7", never floats); floats appear
only where a report explicitly formats them (the convergence study).
"""

from __future__ import annotations

import json
from typing import Any

from .algebra import json_value, max_abs  # json_value: the CLI renders through this module
from .qseries import QSeries


def residual_report(residual: QSeries, lossy: bool = False) -> dict:
    """Per q-order, per t-degree magnitudes of a residual series."""
    orders = []
    for k, tp in enumerate(residual.coeffs):
        norms = [str(max_abs(c)) for c in tp.coeffs]
        orders.append({"q_order": k, "max_norm": str(max_abs(tp)), "t_norms": norms})
    return {
        "schema": "qlax/residual/1",
        "zero": residual.is_zero(),
        "lossy": lossy,
        "orders": orders,
    }


def convergence_json(report) -> dict:
    """The JSON form of a ``matrix.ConvergenceReport``."""
    points = []
    for p in report.points:
        points.append(
            {
                "q": str(p.q),
                "error": float(p.error),
                "ratio_to_prev": None if p.ratio_to_prev is None else float(p.ratio_to_prev),
            }
        )
    return {
        "schema": "qlax/convergence/1",
        "N": report.n,
        "refN": report.ref_n,
        "points": points,
    }


def dumps(obj: Any) -> str:
    """Deterministic JSON text: fixed key order, two-space indent."""
    return json.dumps(obj, indent=2) + "\n"
