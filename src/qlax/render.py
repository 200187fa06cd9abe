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
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, List, Optional, Tuple

from .errors import QlaxError
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
    """The JSON form of a weight-0 series such as W or Lq.  Every zero pad
    is one shared object, which ``dumps`` writes once."""
    pad = json_value(series.alg.zero)
    rows = [[pad if c.is_zero() else json_value(c) for c in row] for row in t_coeffs(series, 0)]
    return {"trunc": series.trunc, "coeffs": [{"t_coeffs": row} for row in rows]}


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


def first_nonzero(residual: QSeries) -> Optional[Tuple[int, int]]:
    """The first (q-order, t-degree) where a residual series (weight 1) is
    nonzero, or None when it vanishes."""
    for k, row in enumerate(t_coeffs(residual, 1)):
        if row:
            return k, len(row) - 1
    return None


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
    indent encoder.  A list or dict met again at the same depth (the zero
    pads of ``series_json``) is written once and its pieces copied; object
    ids are unique keys while the whole tree is alive in this call.
    """
    out: List[str] = []
    memo: dict = {}

    def write(x: Any, depth: int) -> None:
        if isinstance(x, str):
            out.append(_quote(x))
        elif not isinstance(x, (list, dict)):
            out.append(json.dumps(x))
        elif not x:
            out.append("{}" if isinstance(x, dict) else "[]")
        elif (id(x), depth) in memo:
            start, stop = memo[id(x), depth]
            out.extend(out[start:stop])
        else:
            start = len(out)
            inner = "\n" + "  " * (depth + 1)
            sep = "," + inner
            end = "\n" + "  " * depth
            if isinstance(x, dict):
                lead = "{" + inner
                for k, v in x.items():
                    out.append(lead + _quote(k) + ": ")
                    lead = sep
                    write(v, depth + 1)
                out.append(end + "}")
            elif all(isinstance(v, str) for v in x):  # a matrix row: one join
                out.append("[" + inner + sep.join(map(_quote, x)) + end + "]")
            elif all(isinstance(v, list) and v and all(isinstance(s, str) for s in v) for v in x):
                # a matrix: one nested join
                row_inner = inner + "  "
                row_sep = "," + row_inner
                rows = ("[" + row_inner + row_sep.join(map(_quote, v)) + inner + "]" for v in x)
                out.append("[" + inner + sep.join(rows) + end + "]")
            else:
                lead = "[" + inner
                for v in x:
                    out.append(lead)
                    lead = sep
                    write(v, depth + 1)
                out.append(end + "]")
            memo[id(x), depth] = start, len(out)

    write(obj, 0)
    out.append("\n")
    return "".join(out)
