"""CLI fuzzing: any argv and any problem-file bytes end in exit 0, 1 or 2.

Exit 2 is an input error, and 1 means "checks ran and failed", so it must
come with a failed verdict on stdout.  No input may end in a traceback.
Truncation orders stay at most 3 and DSL exponents and jet indices at most
4, which keeps every run small, except for powers whose nested exponents
multiply past the DSL's bound, non-ASCII digits and a digit run too long
for int(): those must exit 2.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qlax.cli import main

# Problem files hold single atoms: a symmetry check on products like
# d^4*u_4 already takes seconds at N = 3.  Commutator arguments may join two.
ATOMS = ("d", "d^2", "d^4", "u", "u_1", "u_4", "u^2", "1", "1/2", "-3")
TOO_BIG = ("d^25", "u^99999999", "(u^5)^5", "((d + u)^16)^16")
# Digits are ASCII, and int() reads at most 4,300 of them.
UNREAD = ("²", "٣", "1" * 5000)
atom = st.sampled_from(ATOMS * 4 + TOO_BIG + UNREAD)
soup = st.lists(st.sampled_from(ATOMS + ("+", "-", "*", "^", "(", ")", "u_", "/0")), max_size=5).map(" ".join)
dsl = atom | st.tuples(atom, st.sampled_from([" + ", " - ", "*"]), atom).map("".join) | soup

junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
entry = st.integers(-3, 3) | st.sampled_from(["1/2", "-3", "0", "2/0", "x", "0.5", True]) | junk


def matrix_of(n: int, entries=st.integers(-3, 3)):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


def pick(*strategies):
    """One of the strategies, each as likely (``st.one_of`` favours the first)."""
    return st.sampled_from(strategies).flatmap(lambda strategy: strategy)


def sometimes(good, bad):
    """Mostly ``good``, now and then ``bad``."""
    return pick(good, good, good, good, bad)


@st.composite
def problem_doc(draw, backends=("matrix", "psdo")) -> dict:
    """A well-formed problem, or one with a single field broken."""
    backend = draw(st.sampled_from(backends))
    element = matrix_of(draw(st.integers(1, 3))) if backend == "matrix" else atom
    n = draw(st.integers(1, 3))
    degrees = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    doc = {"backend": backend, "L0": draw(element), "P": [[k, draw(element)] for k in degrees], "N": n}
    pairs = st.lists(st.tuples(element, element).map(list), min_size=1, max_size=2)
    if draw(sometimes(st.just(True), st.just(False))):
        doc["S0"] = draw(st.just("identity") | pairs)
    if draw(st.booleans()):
        doc["schema"] = "qlax/problem/1"
    if draw(sometimes(st.just(False), st.just(True))):
        key = draw(st.sampled_from(["backend", "L0", "P", "N", "S0", "schema", "extra"]))
        broken = st.one_of(junk, matrix_of(2, entry), dsl, st.lists(st.tuples(junk, junk).map(list), max_size=2))
        doc[key] = draw(st.sampled_from(["other", "qlax/problem/2"]) | st.integers(-1, 0) | broken)
        if draw(st.booleans()):
            del doc[key]
    return doc


@st.composite
def probes_doc(draw) -> dict:
    element = st.one_of(matrix_of(2), matrix_of(3), atom, junk)
    doc = {"probes": draw(sometimes(st.lists(element, max_size=3), junk))}
    if draw(st.booleans()):
        doc["schema"] = draw(st.sampled_from(["qlax/probes/1", "qlax/problem/1"]))
    return doc


def as_bytes(docs):
    return sometimes(docs.map(lambda d: json.dumps(d).encode()), st.binary(max_size=40))


RATIONALS = ("1", "-1/10", "1/3", "0", "-3", "0.5", "2/0", "x")
COMMON = (st.tuples(st.just("--format"), st.sampled_from(["text", "json", "yaml"])),)
QORDER = st.tuples(st.just("--qorder"), st.sampled_from(["-1", "0", "1", "2", "3", "x"]))
PROBE_SET = st.tuples(st.just("--probe-set"), st.just("PROBES"))
OWN = {
    "kdv-verify": (st.tuples(st.just("--perturb"), st.sampled_from(RATIONALS)),),
    "lax-solve": (QORDER,),
    "symmetry": (QORDER, PROBE_SET),
    "convergence": (
        QORDER,
        st.tuples(st.just("--refN"), st.sampled_from(["-5", "0", "3", "4", "6", "x"])),
        st.tuples(st.just("--q"), st.sampled_from(RATIONALS)),
    ),
}
ANY_OPTION = pick(*COMMON, QORDER, PROBE_SET, *OWN["kdv-verify"], *OWN["convergence"][1:])


@st.composite
def cli_case(draw):
    """An argument list and the bytes of the files it names."""
    command = draw(st.sampled_from(["commutator", "kdv-verify", "lax-solve", "symmetry", "convergence"]))
    args = [command]
    if command == "commutator":
        args += [draw(dsl), draw(dsl)]
    elif command != "kdv-verify":
        args.append("PROBLEM")
    own = OWN.get(command, ())
    options = draw(st.lists(pick(*COMMON, *own, *own), max_size=3))
    options += draw(sometimes(st.just([]), st.lists(ANY_OPTION, max_size=1)))
    for flag, value in options:
        args += [flag, value]
    matrix_only = command == "convergence" and draw(sometimes(st.just(True), st.just(False)))
    problem = problem_doc(("matrix",) if matrix_only else ("matrix", "psdo"))
    return args, draw(as_bytes(problem)), draw(as_bytes(probes_doc()))


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cli_case())
def test_cli_exit_codes_and_no_traceback(case):
    args, problem, probes = case
    with tempfile.TemporaryDirectory() as tmp:
        files = {"PROBLEM": Path(tmp, "problem.json"), "PROBES": Path(tmp, "probes.json")}
        files["PROBLEM"].write_bytes(problem)
        files["PROBES"].write_bytes(probes)
        code, out, err = run([str(files[a]) if a in files else a for a in args])
    assert code in (0, 1, 2), (args, code, err)
    assert "Traceback" not in err
    read = args[1:3] if args[0] == "commutator" else [problem.decode("latin-1")] * (args[0] != "kdv-verify")
    # a problem file escapes non-ASCII text, as json.dumps does
    if any(big in text or json.dumps(big)[1:-1] in text for big in TOO_BIG + UNREAD for text in read):
        assert code == 2, (args, code, err)
    if code == 1:
        assert "FAIL" in out or '"pass": false' in out, (args, out)
