"""JSON and text reports shared by the CLI.

Exact values are rendered as strings ("3/7", never floats); floats appear
only where a report explicitly formats them (the convergence study).

This is the one place where powers of t appear.  A kernel series stores
one coefficient c_k per q-order and its role fixes a weight w (0 for W and
Lq, 1 for residuals; see ``laxflow``): the q^k coefficient stands for
c_k * t^(k-w), and the reports spell it out as t-coefficients, k-w zeros
followed by c_k.  No pad list is built: ``dumps`` writes a weight-0 series
straight to text with the zero's text repeated, and the residual readers
work from the per-order norms that ``laxflow.defects`` maps.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Dict, List, Optional, Tuple

from .errors import QlaxError
from .qseries import QSeries


def json_value(x: Any) -> Any:
    """Any kernel value as JSON-compatible data; the CLI renders every
    element through this one function."""
    return x.to_json()


def series_lines(label: str, series: QSeries) -> List[str]:
    """One text line per q-order of a weight-0 series: "(c)*t^k" or 0."""
    lines = [f"{label}:"]
    for k, c in enumerate(series.coeffs):
        tpow = "" if k == 0 else ("*t" if k == 1 else f"*t^{k}")
        lines.append(f"  q^{k}: " + ("0" if c.is_zero() else f"({c}){tpow}"))
    return lines


def residual_report(defects: Dict[int, Fraction], n: int) -> dict:
    """Per q-order, per t-degree magnitudes of a residual modulo q^(n+1)
    from its {q-order: norm} map (``laxflow.defects``).  A residual has
    weight 1, so its q^k term sits at t^(k-1), after k-1 zero norms."""
    orders = []
    for k in range(n + 1):
        norm = str(defects[k]) if k in defects else "0"
        orders.append({"q_order": k, "max_norm": norm, "t_norms": ["0"] * (k - 1) + [norm] if k in defects else []})
    return {
        "schema": "qlax/residual/1",
        "zero": not defects,
        "lossy": False,  # kept for the schema: deform never drops a term
        "orders": orders,
    }


def first_nonzero(defects: Dict[int, Fraction]) -> Optional[Tuple[int, int]]:
    """The first (q-order, t-degree) where a residual with these defects
    is nonzero, or None when it vanishes."""
    k = min(defects, default=None)
    return None if k is None else (k, k - 1)


def _float(x, q, what: str) -> float:
    try:
        return float(x)
    except OverflowError:
        raise QlaxError(f"--q {q}: the {what} is too large for a float") from None


def convergence_points(report) -> List[dict]:
    """The points of a ``matrix.ConvergenceReport`` with the error and the
    ratio to the previous point as floats; a value past the float range
    exits 2 naming its ``--q``."""
    return [
        {
            "q": str(p.q),
            "error": _float(p.error, p.q, "truncation error"),
            "ratio_to_prev": None if p.ratio_to_prev is None
            else _float(p.ratio_to_prev, p.q, "ratio to the previous error"),
        }
        for p in report.points
    ]


def convergence_json(report) -> dict:
    """The JSON form of a ``matrix.ConvergenceReport``."""
    return {
        "schema": "qlax/convergence/1",
        "N": report.n,
        "refN": report.ref_n,
        "points": convergence_points(report),
    }


def dumps(obj: Any) -> str:
    """Deterministic JSON text: fixed key order, two-space indent.

    Equal to ``json.dumps(obj, indent=2) + "\\n"`` on dicts with string
    keys, lists, strings and scalars, without the stdlib's pure-Python
    indent encoder.  A ``QSeries`` is written as the weight-0 report form
    ``{"trunc", "coeffs": [{"t_coeffs": [...]}]}``, in which the q^k
    coefficient c_k is k zero pads followed by c_k.
    """
    return _encode(obj, 0) + "\n"


def _encode(x: Any, depth: int) -> str:
    if isinstance(x, str):
        return _quote(x)
    if isinstance(x, (list, dict)):
        if not x:
            return "{}" if isinstance(x, dict) else "[]"
        inner = "\n" + "  " * (depth + 1)
        sep = "," + inner
        end = "\n" + "  " * depth
        if isinstance(x, dict):
            items = (_quote(k) + ": " + _encode(v, depth + 1) for k, v in x.items())
            return "{" + inner + sep.join(items) + end + "}"
        if all(isinstance(v, str) for v in x):  # a matrix row: one join
            return "[" + inner + sep.join(map(_quote, x)) + end + "]"
        if all(isinstance(v, list) and v and all(isinstance(s, str) for s in v) for v in x):
            # a matrix: one nested join
            row_inner = inner + "  "
            row_sep = "," + row_inner
            rows = ("[" + row_inner + row_sep.join(map(_quote, v)) + inner + "]" for v in x)
            return "[" + inner + sep.join(rows) + end + "]"
        return "[" + inner + sep.join(_encode(v, depth + 1) for v in x) + end + "]"
    if isinstance(x, QSeries):
        return _series(x, depth)
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return json.dumps(x)


def _series(series: QSeries, depth: int) -> str:
    """A weight-0 series at ``depth``.  The pad and each nonzero coefficient
    are encoded once, at the depth where they sit, and row k repeats the
    pad text k times."""
    nl = ["\n" + "  " * (depth + i) for i in range(5)]
    pad = _encode(json_value(series.alg.zero), depth + 4) + "," + nl[4]
    head = "{" + nl[3] + '"t_coeffs": [' + nl[4]
    tail = nl[3] + "]" + nl[2] + "}"
    empty = "{" + nl[3] + '"t_coeffs": []' + nl[2] + "}"
    rows = (
        empty if c.is_zero() else head + pad * k + _encode(json_value(c), depth + 4) + tail
        for k, c in enumerate(series.coeffs)
    )
    return (
        "{" + nl[1] + f'"trunc": {series.trunc},' + nl[1] + '"coeffs": [' + nl[2]
        + ("," + nl[2]).join(rows) + nl[1] + "]" + nl[0] + "}"
    )
