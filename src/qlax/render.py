"""JSON and text reports shared by the CLI.

Exact values are rendered as strings ("3/7", never floats); floats appear
only where a report explicitly formats them (the convergence study).

This is the one place where powers of t appear.  A kernel series stores
one coefficient c_k per q-order and its role fixes a weight w (0 for W and
Lq, 1 for residuals; see ``laxflow``): the q^k coefficient stands for
c_k * t^(k-w), and the reports spell it out as t-coefficients.
"""

from __future__ import annotations

import json
from typing import Any, List

from .qseries import QSeries


def json_value(x: Any) -> Any:
    """Any kernel value as JSON-compatible data; the CLI renders every
    element through this one function."""
    return x.to_json()


def t_coeffs(series: QSeries, weight: int) -> List[list]:
    """Per q-order, the t-coefficients of c_k * t^(k-weight): k - weight
    zeros followed by c_k, or no entries when c_k is zero."""
    zero = series.alg.zero
    return [
        [] if c.is_zero() else [zero] * (k - weight) + [c]
        for k, c in enumerate(series.coeffs)
    ]


def series_json(series: QSeries) -> dict:
    """The JSON form of a weight-0 series such as W or Lq."""
    rows = t_coeffs(series, 0)
    return {"trunc": series.trunc, "coeffs": [{"t_coeffs": [json_value(c) for c in row]} for row in rows]}


def series_lines(label: str, series: QSeries) -> List[str]:
    """One text line per q-order of a weight-0 series: "(c)*t^k" or 0."""
    lines = [f"{label}:"]
    for k, row in enumerate(t_coeffs(series, 0)):
        tpow = "" if k == 0 else ("*t" if k == 1 else f"*t^{k}")
        lines.append(f"  q^{k}: " + (f"({row[-1]}){tpow}" if row else "0"))
    return lines


def residual_report(residual: QSeries) -> dict:
    """Per q-order, per t-degree magnitudes of a residual series (weight 1)."""
    orders = []
    for k, row in enumerate(t_coeffs(residual, 1)):
        norms = [c.max_abs() for c in row]
        orders.append(
            {"q_order": k, "max_norm": str(max(norms, default=0)), "t_norms": [str(x) for x in norms]}
        )
    return {
        "schema": "qlax/residual/1",
        "zero": residual.is_zero(),
        "lossy": False,  # kept for the schema: deform never drops a term
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
