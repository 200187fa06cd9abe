"""Problem files: one JSON document describing a flow to solve or check.

Example (matrix backend):

    {
      "schema": "qlax/problem/1",
      "backend": "matrix",
      "L0": [["1", "0"], ["0", "-1"]],
      "P": [[0, [["0", "1"], ["0", "0"]]]],
      "N": 2,
      "S0": [[[["0", "1"], ["1", "0"]], [["0", "1"], ["1", "0"]]]]
    }

``P`` lists (t-degree, entry) pairs.  On the psdo backend entries are DSL
expressions like "-d^2 + u".  Matrix literals are arrays of arrays of
strings parsed as exact rationals, so exactness survives serialization
(plain JSON integers are accepted too; floats are not).  ``S0`` is either
the string "identity" or a list of [left, right] pairs in the backend's
literal syntax.  ``schema`` is optional but must name this format when
present, and any other key is rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

from .algebra import Algebra, TPoly, int_literal
from .errors import ProblemFileError, QlaxError
from .laxflow import MAX_ORDER, LaxProblem
from .matrix import MatrixAlgebra, RatMatrix
from .psdo import PsdoAlgebra
from .symops import BiOp

from . import expr

PROBLEM_SCHEMA = "qlax/problem/1"
_PROBLEM_KEYS = ("schema", "backend", "L0", "P", "N", "S0")
PROBES_SCHEMA = "qlax/probes/1"
_PROBES_KEYS = ("schema", "probes")


@dataclass(frozen=True)
class ProblemFile:
    backend: str
    alg: Algebra
    l0: Any
    p: TPoly
    n: int
    s0: Optional[BiOp]

    def lax_problem(self) -> LaxProblem:
        try:
            return LaxProblem(p=self.p, l0=self.l0, n=self.n)
        except ValueError as e:
            raise ProblemFileError("P", str(e)) from e


def _entry_value(backend: str, raw: Any, field: str, parsed: dict, alg: Optional[Algebra] = None) -> Any:
    """One backend element; a matrix must have the size of ``alg`` if given.
    ``parsed`` maps each DSL text already parsed from the file to its value."""
    if backend == "psdo":
        if not isinstance(raw, str):
            raise ProblemFileError(field, "psdo entries are DSL expression strings")
        if raw not in parsed:
            try:
                parsed[raw] = expr.parse_operator(raw)
            except QlaxError as e:
                raise ProblemFileError(field, str(e)) from e
        return parsed[raw]
    if not isinstance(raw, list) or not raw:
        raise ProblemFileError(field, "matrix entries are arrays of arrays of rationals")
    try:
        value = RatMatrix.of(raw)
    except (ValueError, TypeError) as e:
        raise ProblemFileError(field, str(e)) from e
    if alg is not None and value.n != alg.n:
        raise ProblemFileError(field, f"dimension {value.n} does not match L0 ({alg.n})")
    return value


def _is_int(value: Any) -> bool:
    # JSON true/false arrive as bool, a subclass of int.
    return isinstance(value, int) and not isinstance(value, bool)


def _check_header(doc: dict, schema: str, keys: tuple) -> None:
    """An optional ``schema`` must name the format; no key outside ``keys``."""
    if doc.get("schema", schema) != schema:
        raise ProblemFileError("schema", f"must be {schema!r}, got {doc['schema']!r}")
    for key in doc:
        if key not in keys:
            raise ProblemFileError(key, "unknown key")


def load_problem(doc: dict, default_n: Optional[int] = None) -> ProblemFile:
    """Validate and elaborate a problem document."""
    if not isinstance(doc, dict):
        raise ProblemFileError("$", "problem file must be a JSON object")
    _check_header(doc, PROBLEM_SCHEMA, _PROBLEM_KEYS)
    backend = doc.get("backend")
    if backend not in ("psdo", "matrix"):
        raise ProblemFileError("backend", "must be \"psdo\" or \"matrix\"")

    if "L0" not in doc:
        raise ProblemFileError("L0", "missing")
    parsed: dict = {}
    l0 = _entry_value(backend, doc["L0"], "L0", parsed)
    if backend == "psdo":
        alg: Algebra = PsdoAlgebra()
    else:
        alg = MatrixAlgebra(l0.n)

    raw_p = doc.get("P")
    if not isinstance(raw_p, list) or not raw_p:
        raise ProblemFileError("P", "must be a nonempty list of [t-degree, entry] pairs")
    seen = set()
    top = -1
    by_degree = {}
    for item in raw_p:
        if not isinstance(item, list) or len(item) != 2:
            raise ProblemFileError("P", "each item must be a [t-degree, entry] pair")
        degree, raw_entry = item
        if not _is_int(degree):
            raise ProblemFileError("P", f"t-degree must be an integer, got {degree!r}")
        if degree < 0:
            raise ProblemFileError("P", f"negative t-degree {degree}")
        if degree in seen:
            raise ProblemFileError("P", f"duplicate t-degree {degree}")
        seen.add(degree)
        by_degree[degree] = _entry_value(backend, raw_entry, "P", parsed, alg)
        top = max(top, degree)
    coeffs = [by_degree.get(k, alg.zero) for k in range(top + 1)]
    p = TPoly.of(alg, coeffs)

    n = doc.get("N", default_n)
    if n is None:
        raise ProblemFileError("N", "missing (set N in the file or pass --qorder)")
    if not _is_int(n) or n < 1:
        raise ProblemFileError("N", f"must be an integer >= 1, got {n!r}")
    if n > MAX_ORDER:
        raise ProblemFileError("N", f"must be at most {MAX_ORDER}, got {n}")

    s0 = None
    if "S0" in doc:
        raw_s0 = doc["S0"]
        if raw_s0 == "identity":
            s0 = BiOp.identity(alg)
        elif isinstance(raw_s0, list):
            pairs = []
            for pair in raw_s0:
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ProblemFileError("S0", "must be \"identity\" or a list of [left, right] pairs")
                pairs.append(tuple(_entry_value(backend, side, "S0", parsed, alg) for side in pair))
            s0 = BiOp.of(alg, pairs)
        else:
            raise ProblemFileError("S0", "must be \"identity\" or a list of [left, right] pairs")

    return ProblemFile(backend=backend, alg=alg, l0=l0, p=p, n=n, s0=s0)


def _read_json(path: str, field: str) -> Any:
    """Parse a JSON file; malformed content is an input error naming ``field``."""

    def parse_int(text: str) -> int:
        try:
            return int_literal(text)
        except ValueError as e:  # an integer longer than int() reads
            raise ProblemFileError(field, str(e)) from None

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=parse_int)
    except UnicodeDecodeError as e:
        raise ProblemFileError(field, f"not UTF-8 text: {e}") from e
    except ValueError as e:
        raise ProblemFileError(field, f"invalid JSON: {e}") from e
    except RecursionError:
        raise ProblemFileError(field, "JSON nested too deeply") from None


def load_problem_file(path: str, default_n: Optional[int] = None) -> ProblemFile:
    return load_problem(_read_json(path, "$"), default_n)


def load_probes(path: str, backend: str, alg: Algebra) -> list:
    """Extra probe elements from a JSON file: {"probes": [entry, ...]}.

    ``schema`` is optional but must be "qlax/probes/1" when present, and any
    other key is rejected.  Matrix probes must have the size of ``alg``, the
    problem's algebra.
    """
    doc = _read_json(path, "probes")
    if isinstance(doc, dict):
        _check_header(doc, PROBES_SCHEMA, _PROBES_KEYS)
    raw = doc.get("probes") if isinstance(doc, dict) else None
    if not isinstance(raw, list):
        raise ProblemFileError("probes", "file must contain a \"probes\" list")
    parsed: dict = {}
    return [_entry_value(backend, item, "probes", parsed, alg) for item in raw]
