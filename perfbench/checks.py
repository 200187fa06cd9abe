"""Output checks, run outside the timed region.

Every command is checked against its known exit code; an output is also
checked against the JSON schemas shipped in ``src/qlax/schemas/``, against
exact facts the benchmark knows independently of qlax (hand-derived
brackets, the q^0 coefficients of W and Lq, trace invariance of a
conjugation flow) and, where digests were recorded, byte for byte.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import re
from fractions import Fraction
from typing import Dict, List, Optional

from workloads import Command

DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests(workload: str) -> Dict[str, str]:
    try:
        with open(DIGESTS_FILE, encoding="utf-8") as fh:
            return json.load(fh).get(workload, {})
    except FileNotFoundError:
        return {}


# -- parsing qlax's renderings ---------------------------------------------------

_FACTOR = re.compile(r"u(?:_(\d+))?(?:\^(\d+))?")
_MAGNITUDE = re.compile(r"\d+(?:/\d+)?")


def parse_diffpoly(text: str) -> Dict[tuple, Fraction]:
    """Parse DiffPoly.text() output, e.g. ``6*u*u_1 - 3/2*u_3^2``, into
    {monomial: coefficient} with monomials as sorted (jet, exponent) tuples."""
    if text == "0":
        return {}
    parts = re.split(r" ([+-]) ", text)
    out: Dict[tuple, Fraction] = {}
    for sign, body in zip(["+"] + parts[1::2], parts[0::2]):
        negative = sign == "-"
        if body.startswith("-"):
            negative, body = not negative, body[1:]
        factors = body.split("*")
        coeff = Fraction(1)
        if _MAGNITUDE.fullmatch(factors[0]):
            coeff = Fraction(factors.pop(0))
        mono: Dict[int, int] = {}
        for f in factors:
            m = _FACTOR.fullmatch(f)
            if m is None:
                raise ValueError(f"unexpected factor {f!r} in {text!r}")
            j = int(m.group(1) or 0)
            mono[j] = mono.get(j, 0) + int(m.group(2) or 1)
        key = tuple(sorted(mono.items()))
        out[key] = out.get(key, Fraction(0)) + (-coeff if negative else coeff)
    return {k: v for k, v in out.items() if v}


def parse_symbol(doc: dict) -> Dict[tuple, Fraction]:
    """A symbol's JSON rendering as {(order, monomial): coefficient}."""
    if doc["floor"] != "exact":
        raise ValueError(f"inexact symbol (floor {doc['floor']})")
    return {
        (term["order"], mono): c
        for term in doc["terms"]
        for mono, c in parse_diffpoly(term["coeff"]).items()
    }


def _matrix(rows: List[List[str]]) -> List[List[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def _identity(n: int) -> List[List[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


# -- semantic checks by command kind -------------------------------------------------

def _check_laxsolve(doc: Optional[dict], text: str, info: dict) -> List[str]:
    big_n, backend = info["N"], info["backend"]
    if doc is None:
        lines = text.splitlines()
        problems = []
        if lines[0] != f"backend: {backend}, N = {big_n}":
            problems.append(f"unexpected header {lines[0]!r}")
        if lines[-2] != "residual: zero (exact)" or lines[-1] != "PASS":
            problems.append("text verdict is not a zero residual and PASS")
        return problems
    problems = []
    if doc["backend"] != backend or doc["N"] != big_n:
        problems.append(f"backend/N {doc['backend']}/{doc['N']}, expected {backend}/{big_n}")
    residual = doc["residual"]
    if residual["zero"] is not True or residual["lossy"] is not False:
        problems.append("residual not reported as exactly zero")
    w, lq = doc["W"], doc["Lq"]
    if not (w["trunc"] == lq["trunc"] == big_n and len(w["coeffs"]) == len(lq["coeffs"]) == big_n + 1):
        problems.append("W/Lq truncation does not match N")
        return problems
    if backend == "psdo":
        one = {(0, ()): Fraction(1)}
        if [parse_symbol(s) for s in w["coeffs"][0]["t_coeffs"]] != [one]:
            problems.append("W at q^0 is not 1")
        if "L0" in info and [parse_symbol(s) for s in lq["coeffs"][0]["t_coeffs"]] != [info["L0"]]:
            problems.append("Lq at q^0 is not L0")
        return problems
    l0 = _matrix(info["L0"])
    n = len(l0)
    if [_matrix(m) for m in w["coeffs"][0]["t_coeffs"]] != [_identity(n)]:
        problems.append("W at q^0 is not the identity")
    if [_matrix(m) for m in lq["coeffs"][0]["t_coeffs"]] != [l0]:
        problems.append("Lq at q^0 is not L0")
    zero = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, big_n + 1):
        w_t = w["coeffs"][k]["t_coeffs"]
        if w_t and _matrix(w_t[0]) != zero:
            problems.append(f"W(t=0) has a q^{k} term")
        # Lq = W L0 W^-1 is a conjugation, so its trace is L0's at every t:
        # every coefficient above q^0 is traceless.
        for j, m in enumerate(lq["coeffs"][k]["t_coeffs"]):
            if sum(_matrix(m)[i][i] for i in range(n)) != 0:
                problems.append(f"Lq coefficient q^{k} t^{j} is not traceless")
    return problems


def _check_symmetry(doc: Optional[dict], text: str, info: dict) -> List[str]:
    if doc is None:
        lines = text.splitlines()
        ok = len(lines) == 4 and all(": PASS" in line for line in lines[:3]) and lines[3] == "PASS"
        return [] if ok else ["text verdict is not three PASS lines and PASS"]
    checks = ("pass", "symmetry3_zero", "symmetry2_zero", "transported_solution")
    failed = [c for c in checks if doc[c] is not True]
    return [f"symmetry checks failed: {', '.join(failed)}"] if failed else []


def _check_convergence(doc: Optional[dict], text: str, info: dict) -> List[str]:
    big_n, ref_n, qs = info["N"], info["refN"], info["qs"]
    if doc is None:
        lines = text.splitlines()
        ok = lines[0] == f"N = {big_n}, refN = {ref_n}" and len(lines) == 1 + len(qs)
        return [] if ok else ["unexpected text report"]
    problems = []
    if doc["N"] != big_n or doc["refN"] != ref_n:
        problems.append("N/refN do not match the request")
    points = doc["points"]
    if [p["q"] for p in points] != qs:
        problems.append("evaluation points do not match the request")
    if any(p["error"] < 0 for p in points):
        problems.append("negative error")
    return problems


def _check_commutator(doc: Optional[dict], text: str, info: dict) -> List[str]:
    if doc is None:
        return [] if text == "[d, u] = u_1\n" else [f"unexpected text {text!r}"]
    got = parse_symbol(doc["commutator"])
    return [] if got == info["expected"] else ["commutator differs from the hand-derived bracket"]


KDV_FLOW = {(0, ((0, 1), (1, 1))): Fraction(6), (0, ((3, 1),)): Fraction(-1)}


def _check_kdv_verify(doc: Optional[dict], text: str, info: dict) -> List[str]:
    eps = info["eps"]
    if doc is None:
        last = text.splitlines()[-1]
        ok = last.startswith("PASS:") if eps == 0 else last.startswith("FAIL:")
        return [] if ok else [f"unexpected verdict line {last!r}"]
    # P + eps*u gives [P + eps*u, L] - (6 u u_1 - u_3) = eps*(2 u_1 d + u_2).
    difference = {k: v for k, v in {(1, ((1, 1),)): 2 * eps, (0, ((2, 1),)): eps}.items() if v}
    problems = []
    if doc["pass"] is not (eps == 0):
        problems.append("pass flag does not match the perturbation")
    if parse_symbol(doc["expected"]) != KDV_FLOW:
        problems.append("expected right-hand side is not 6*u*u_1 - u_3")
    if parse_symbol(doc["difference"]) != difference:
        problems.append("difference is not eps*(2*u_1*d + u_2)")
    return problems


SEMANTIC = {
    "laxsolve": _check_laxsolve,
    "symmetry": _check_symmetry,
    "convergence": _check_convergence,
    "commutator": _check_commutator,
    "kdv_verify": _check_kdv_verify,
}


class Checker:
    """Checks command results; builds the schema validators once."""

    def __init__(self, root: str, digests: Dict[str, str]):
        import jsonschema

        self.validators = {}
        for path in glob.glob(os.path.join(root, "src", "qlax", "schemas", "*.json")):
            with open(path, encoding="utf-8") as fh:
                schema = json.load(fh)
            self.validators[schema["$id"]] = jsonschema.validators.validator_for(schema)(schema)
        self.digests = digests

    def check(self, cmd: Command, code: Optional[int], stdout: str, stderr: str) -> List[str]:
        """Problems with one command's result; empty when it is correct."""
        if code is None:
            return [f"raised: {stderr.strip().splitlines()[-1] if stderr.strip() else '?'}"]
        problems = []
        if code != cmd.expect:
            problems.append(f"exit code {code}, expected {cmd.expect}")
        if "Traceback" in stderr:
            problems.append("traceback on stderr")
        expected_digest = self.digests.get(cmd.key)
        if expected_digest is not None and sha256(stdout) != expected_digest:
            problems.append("stdout differs from the recorded digest")
        if problems:
            return problems
        if cmd.check == "input_error":
            if stdout or not stderr.startswith("error: "):
                problems.append("input error not reported as 'error: ...' on stderr alone")
            return problems
        doc = None
        if cmd.info.get("format", "json") == "json":
            try:
                doc = json.loads(stdout)
            except ValueError as e:
                return [f"stdout is not JSON: {e}"]
            validator = self.validators.get(doc.get("schema"))
            if validator is None:
                return [f"unknown schema {doc.get('schema')!r}"]
            errors = [e.message for e in validator.iter_errors(doc)]
            if errors:
                return [f"schema: {errors[0]}"]
        try:
            return SEMANTIC[cmd.check](doc, stdout, cmd.info)
        except (KeyError, IndexError, TypeError, ValueError) as e:
            return [f"malformed output: {type(e).__name__}: {e}"]
