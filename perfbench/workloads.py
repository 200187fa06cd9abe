"""The benchmark's workloads: seeded qlax commands, each with its known answer.

A workload is a list of rounds.  A round is a fixed mix of command classes
(one command per class), so every round costs about the same and any run
made of whole rounds has the same mix of sizes.  Round ``i`` of a workload
depends only on (workload, seed, i): it is drawn from its own
``random.Random`` seeded with a string, which is stable across processes
and Python hash seeds.  The program under test receives only the generated
problem files and argument lists.

Known answers (the exit-code contract of the CLI):

* 0 for every generated problem: the residuals of a conjugation solution
  vanish and a transported symmetry is a symmetry, for any input;
* 1 for ``kdv-verify --perturb EPS`` with EPS != 0;
* 2 for the invalid-input controls (``symmetry`` on a file without S0,
  ``convergence`` on a psdo file, deg_t(P) > N - 1).
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

WORKLOADS = ("matrix_flow", "matrix_symmetry", "kdv_symmetry", "cli_cold")

# Rounds replayed by a traced run (the counts of a traced run come from
# exactly these commands, so they repeat across runs with the same seed).
TRACE_ROUNDS = {"matrix_flow": 6, "matrix_symmetry": 3, "kdv_symmetry": 3, "cli_cold": 2}

# Rough seconds per round on a 2-core host, used only to size the pool of
# distinct problem files written during set-up.
ROUND_SECONDS = {"matrix_flow": 0.6, "matrix_symmetry": 1.5, "kdv_symmetry": 1.1, "cli_cold": 4.5}

# Rounds whose output digests are recorded for the default seed.
DIGEST_ROUNDS = 6
DEFAULT_SEED = 0

SCHEMA = "qlax/problem/1"


@dataclass
class Command:
    """One qlax invocation with its known answer.

    ``key`` names the command stably (it indexes the recorded digests),
    ``argv`` is what follows ``qlax`` on the command line, with paths
    relative to the repository root, ``expect`` is the known exit code and
    ``check``/``info`` select and parameterise the output check.
    """

    key: str
    argv: Tuple[str, ...]
    expect: int
    check: str
    info: dict = field(default_factory=dict)


@dataclass
class Round:
    commands: List[Command]
    files: Dict[str, dict]  # path -> problem document to write in set-up


# -- matrix problems -----------------------------------------------------------

# Dense integer entries: no zero entry skips products.  The cost of a class
# still depends on the drawn matrices (a 3x3, N=4 symmetry run took from
# 0.16 to 0.86 s), which many rounds per run average out.
ENTRIES = ("-2", "-1", "1", "2")
S0_ENTRIES = ("-1", "1")


def _matrix(rng: random.Random, n: int, entries=ENTRIES) -> List[List[str]]:
    return [[rng.choice(entries) for _ in range(n)] for _ in range(n)]


def _matrix_doc(rng: random.Random, n: int, big_n: int, deg: int) -> dict:
    return {
        "schema": SCHEMA,
        "backend": "matrix",
        "L0": _matrix(rng, n),
        "P": [[k, _matrix(rng, n)] for k in range(deg + 1)],
        "N": big_n,
    }


# The classes of a round, cheapest first.  Each round repeats the class that
# holds the median and the one that holds p90 of a run's latencies, so the
# percentiles fall inside a class rather than on the step between two.
# ("solve", n, N, deg_t P) runs lax-solve; ("convergence", n, N, deg_t P,
# evaluation points, refN or None for the default N + 6); ("control", ...)
# has deg_t P = N, which the CLI must reject.
FLOW_ROUND = (
    ("control", 3, 3, 3),
    ("convergence", 2, 3, 0, ("1/4", "1/8", "1/16"), 8),
    ("solve", 3, 6, 2), ("solve", 3, 6, 0), ("solve", 3, 7, 1),
    ("solve", 3, 8, 1), ("solve", 3, 8, 1), ("solve", 3, 8, 1), ("solve", 4, 6, 2),
    ("convergence", 3, 4, 1, ("1/8", "1/16"), None),
    ("solve", 3, 10, 2), ("solve", 4, 8, 0),
    ("solve", 4, 10, 1), ("solve", 4, 10, 1), ("solve", 4, 10, 1),
)

# (n, N, deg_t P) of the symmetry commands; None is the control without S0.
SYMMETRY_ROUND = (
    None, (2, 1, 0), (2, 2, 1), (3, 1, 0), (2, 3, 0),
    (3, 2, 1), (3, 2, 1), (3, 2, 1),
    (2, 4, 1), (3, 3, 1), (3, 4, 0), (3, 4, 0),
)


class _RoundBuilder:
    """Collects a round's commands and the problem files they read."""

    def __init__(self, i: int, workdir: str):
        self.i, self.workdir = i, workdir
        self.commands: List[Command] = []
        self.files: Dict[str, dict] = {}

    def file(self, doc: dict) -> str:
        path = f"{self.workdir}/r{self.i:03d}_{len(self.commands):02d}.json"
        self.files[path] = doc
        return path

    def add(self, argv: Tuple[str, ...], expect: int, check: str, info: dict) -> None:
        key = f"r{self.i}.{len(self.commands)}"
        self.commands.append(Command(key, argv + ("--format", "json"), expect, check, info))

    def round(self) -> Round:
        return Round(self.commands, self.files)


def matrix_flow_round(rng: random.Random, i: int, workdir: str) -> Round:
    b = _RoundBuilder(i, workdir)
    for kind, n, big_n, deg, *rest in FLOW_ROUND:
        doc = _matrix_doc(rng, n, big_n, deg)
        path = b.file(doc)
        if kind == "solve":
            b.add(("lax-solve", path), 0, "laxsolve", {"backend": "matrix", "N": big_n, "L0": doc["L0"]})
        elif kind == "convergence":
            qs, ref_n = rest
            argv = ("convergence", path) + tuple(a for q in qs for a in ("--q", q))
            if ref_n is not None:
                argv += ("--refN", str(ref_n))
            info = {"N": big_n, "refN": ref_n if ref_n is not None else big_n + 6, "qs": list(qs)}
            b.add(argv, 0, "convergence", info)
        else:
            b.add(("lax-solve", path), 2, "input_error", {})
    return b.round()


def matrix_symmetry_round(rng: random.Random, i: int, workdir: str) -> Round:
    b = _RoundBuilder(i, workdir)
    for spec in SYMMETRY_ROUND:
        if spec is None:
            b.add(("symmetry", b.file(_matrix_doc(rng, 2, 2, 1))), 2, "input_error", {})
            continue
        n, big_n, deg = spec
        doc = _matrix_doc(rng, n, big_n, deg)
        doc["S0"] = [[_matrix(rng, n, S0_ENTRIES), _matrix(rng, n, S0_ENTRIES)] for _ in range(2)]
        b.add(("symmetry", b.file(doc)), 0, "symmetry", {})
    return b.round()


# -- KdV-type operator problems -------------------------------------------------

MAGNITUDES = ("1", "2", "3", "1/2", "3/2", "2/3")


def _coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(MAGNITUDES)) * rng.choice((1, -1))


def _lit(c: Fraction) -> str:
    return f"({c})"


def kdv_texts(a: Fraction, b: Fraction, c: Fraction, e: Fraction) -> Tuple[str, str]:
    """The rescaled pair L0 = a*d^2 + b*u, P = c*d^3 + e*(d*u + u*d)."""
    return f"{_lit(a)}*d^2 + {_lit(b)}*u", f"{_lit(c)}*d^3 + {_lit(e)}*(d*u + u*d)"


# The classes of a round, cheapest first, built like FLOW_ROUND.
# ("symmetry", N, S0) with S0 "identity", "left" ([[L0, "1"]]) or "right"
# ([["1", L0]]); ("solve", N); ("commutator", swapped); ("kdv-verify",
# perturbed); ("control",) runs convergence on a psdo file.
KDV_ROUND = (
    ("control",), ("kdv-verify", False), ("kdv-verify", True),
    ("commutator", False), ("commutator", True), ("solve", 1), ("solve", 2),
    ("symmetry", 1, "identity"),
    ("symmetry", 1, "left"), ("symmetry", 1, "right"), ("symmetry", 1, "left"),
    ("symmetry", 1, "right"), ("symmetry", 1, "left"),
    ("solve", 3), ("symmetry", 2, "identity"), ("symmetry", 2, "left"), ("solve", 4),
    ("symmetry", 2, "right"),
    ("symmetry", 3, "identity"), ("symmetry", 3, "identity"), ("symmetry", 3, "left"),
)


def kdv_symmetry_round(rng: random.Random, i: int, workdir: str) -> Round:
    b = _RoundBuilder(i, workdir)

    def problem(big_n: int, s0=None) -> Tuple[str, dict]:
        a, bb, c, e = (_coefficient(rng) for _ in range(4))
        l0, p = kdv_texts(a, bb, c, e)
        doc = {"schema": SCHEMA, "backend": "psdo", "L0": l0, "P": [[0, p]], "N": big_n}
        if s0 is not None:
            doc["S0"] = {"identity": "identity", "left": [[l0, "1"]], "right": [["1", l0]]}[s0]
        return b.file(doc), {"backend": "psdo", "N": big_n, "L0": {(2, ()): a, (0, ((0, 1),)): bb}}

    for kind, *spec in KDV_ROUND:
        if kind == "symmetry":
            path, _ = problem(*spec)
            b.add(("symmetry", path), 0, "symmetry", {})
        elif kind == "solve":
            path, info = problem(*spec)
            b.add(("lax-solve", path), 0, "laxsolve", info)
        elif kind == "commutator":
            a, bb, c, e = (_coefficient(rng) for _ in range(4))
            l0, p = kdv_texts(a, bb, c, e)
            swapped = spec[0]
            argv = ("commutator", l0, p) if swapped else ("commutator", p, l0)
            b.add(argv, 0, "commutator", {"expected": kdv_bracket(a, bb, c, e, -1 if swapped else 1)})
        elif kind == "kdv-verify":
            if spec[0]:
                eps = _coefficient(rng) / 10
                # "--perturb=EPS": a separate "-1/10" would be read as an option.
                b.add(("kdv-verify", f"--perturb={eps}"), 1, "kdv_verify", {"eps": eps})
            else:
                b.add(("kdv-verify",), 0, "kdv_verify", {"eps": Fraction(0)})
        else:
            path, _ = problem(2)
            b.add(("convergence", path), 2, "input_error", {})
    return b.round()


def kdv_bracket(a: Fraction, b: Fraction, c: Fraction, e: Fraction, sign: int = 1) -> dict:
    """[P, L0] for the rescaled pair, worked out by hand, times ``sign``.

    With d*u + u*d = 2*u*d + u_1 the symbol rule gives
    [P, L0] = (3cb - 4ea) u_1 d^2 + (3cb - 4ea) u_2 d + (cb - ea) u_3 + 2eb u u_1.
    Returned as {(order, monomial): coefficient}; a monomial is a sorted
    tuple of (jet index, exponent).
    """
    out = {
        (2, ((1, 1),)): 3 * c * b - 4 * e * a,
        (1, ((2, 1),)): 3 * c * b - 4 * e * a,
        (0, ((3, 1),)): c * b - e * a,
        (0, ((0, 1), (1, 1))): 2 * e * b,
    }
    return {k: sign * v for k, v in out.items() if v}


# -- the shipped problem files, cold ------------------------------------------------

def _shipped_commands(control_path: str) -> List[Command]:
    def load(name: str) -> dict:
        with open(os.path.join("problems", name), encoding="utf-8") as fh:
            return json.load(fh)

    def solve_info(name: str) -> dict:
        doc = load(name)
        info = {"backend": doc["backend"], "N": doc["N"]}
        if doc["backend"] == "matrix":
            info["L0"] = doc["L0"]
        return info

    base = [
        ("lax-solve kdv_n2", ("lax-solve", "problems/kdv_n2.json"), 0, "laxsolve", solve_info("kdv_n2.json")),
        ("lax-solve matrix3x3_n2", ("lax-solve", "problems/matrix3x3_n2.json"), 0, "laxsolve", solve_info("matrix3x3_n2.json")),
        ("lax-solve nilpotent2x2_n2", ("lax-solve", "problems/nilpotent2x2_n2.json"), 0, "laxsolve", solve_info("nilpotent2x2_n2.json")),
        ("lax-solve matrix_symmetry_n3", ("lax-solve", "problems/matrix_symmetry_n3.json"), 0, "laxsolve", solve_info("matrix_symmetry_n3.json")),
        ("lax-solve kdv_symmetry_n2", ("lax-solve", "problems/kdv_symmetry_n2.json"), 0, "laxsolve", solve_info("kdv_symmetry_n2.json")),
        ("symmetry matrix_symmetry_n3", ("symmetry", "problems/matrix_symmetry_n3.json"), 0, "symmetry", {}),
        ("symmetry kdv_symmetry_n2", ("symmetry", "problems/kdv_symmetry_n2.json"), 0, "symmetry", {}),
        (
            "convergence matrix3x3_n2",
            ("convergence", "problems/matrix3x3_n2.json", "--q", "1/8", "--q", "1/16", "--refN", "8"),
            0, "convergence", {"N": 2, "refN": 8, "qs": ["1/8", "1/16"]},
        ),
        (
            "convergence nilpotent2x2_n2",
            ("convergence", "problems/nilpotent2x2_n2.json"),
            0, "convergence", {"N": 2, "refN": 8, "qs": ["1/8", "1/16"]},
        ),
        ("commutator d u", ("commutator", "d", "u"), 0, "commutator", {"expected": {(0, ((1, 1),)): Fraction(1)}}),
        ("kdv-verify", ("kdv-verify",), 0, "kdv_verify", {"eps": Fraction(0)}),
        ("kdv-verify perturbed", ("kdv-verify", "--perturb", "1/10"), 1, "kdv_verify", {"eps": Fraction(1, 10)}),
        ("symmetry without S0", ("symmetry", "problems/kdv_n2.json"), 2, "input_error", {}),
        ("convergence on psdo", ("convergence", "problems/kdv_n2.json"), 2, "input_error", {}),
        ("lax-solve deg_t(P) > N - 1", ("lax-solve", control_path), 2, "input_error", {}),
    ]
    commands = []
    for label, argv, expect, check, info in base:
        for fmt in ("text", "json"):
            commands.append(Command(f"{label} [{fmt}]", argv + ("--format", fmt), expect, check, dict(info, format=fmt)))
    return commands


def cli_cold_round(rng: random.Random, i: int, workdir: str) -> Round:
    # The seed only orders the commands; the control file is the same for all.
    control = f"{workdir}/deg_exceeds_n.json"
    doc = {"schema": SCHEMA, "backend": "matrix", "L0": [["1", "0"], ["0", "-1"]],
           "P": [[0, [["0", "1"], ["0", "0"]]], [2, [["1", "0"], ["0", "1"]]]], "N": 2}
    commands = _shipped_commands(control)
    rng.shuffle(commands)
    return Round(commands, {control: doc})


ROUND_BUILDERS = {
    "matrix_flow": matrix_flow_round,
    "matrix_symmetry": matrix_symmetry_round,
    "kdv_symmetry": kdv_symmetry_round,
    "cli_cold": cli_cold_round,
}


def build_rounds(workload: str, seed: int, count: int, workdir: str) -> List[Round]:
    """Rounds 0..count-1 of a workload; round i depends only on (workload, seed, i)."""
    build = ROUND_BUILDERS[workload]
    return [build(random.Random(f"{workload}:{seed}:{i}"), i, workdir) for i in range(count)]


def pool_rounds(workload: str, seconds: float) -> int:
    """Distinct rounds to build in set-up: enough for about 1.2x the expected run."""
    return max(TRACE_ROUNDS[workload], DIGEST_ROUNDS, int(1.2 * seconds / ROUND_SECONDS[workload]) + 1)


def write_files(rounds: List[Round]) -> int:
    """Write every problem file of the rounds; returns the number written."""
    written = set()
    for rnd in rounds:
        for path, doc in rnd.files.items():
            if path in written:
                continue
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            written.add(path)
    return len(written)


WORK_DIR = ".perfbench_work"


def remove_workdir(workdir: str) -> None:
    """Delete a run's files, and the shared parent once it is empty."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(WORK_DIR)
    except OSError:
        pass


def outputs_depend_on_seed(workload: str) -> bool:
    return workload != "cli_cold"
