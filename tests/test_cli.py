"""End-to-end CLI checks: outputs, exit codes, schemas, determinism."""

import importlib.resources
import json
import re
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from qlax import laxflow
from qlax.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def load_schema(name: str) -> dict:
    text = (importlib.resources.files("qlax") / "schemas" / name).read_text()
    return json.loads(text)


def validate(instance: dict, schema_name: str) -> None:
    jsonschema.validate(instance, load_schema(schema_name))


# -- kdv-verify ----------------------------------------------------------------

def test_kdv_verify_passes(capsys):
    code, out, _ = run(capsys, "kdv-verify")
    assert code == 0
    assert "PASS" in out
    assert "6*u*u_1 - u_3" in out


def test_kdv_verify_json(capsys):
    code, doc, _ = run_json(capsys, "kdv-verify")
    assert code == 0
    validate(doc, "kdv_verify.schema.json")
    assert doc["pass"] is True
    assert doc["commutator"]["terms"] == [{"order": 0, "coeff": "6*u*u_1 - u_3"}]


def test_kdv_verify_perturbed_fails(capsys):
    code, out, _ = run(capsys, "kdv-verify", "--perturb", "1")
    assert code == 1
    assert "FAIL" in out
    assert "difference" in out
    code, doc, _ = run_json(capsys, "kdv-verify", "--perturb", "1/3")
    assert code == 1
    validate(doc, "kdv_verify.schema.json")
    assert doc["pass"] is False
    assert doc["difference"]["terms"]


def test_kdv_verify_negative_fraction_perturb(capsys):
    # "-1/10" after the flag is its value, as in "--perturb=-1/10"
    code, out, err = run(capsys, "kdv-verify", "--perturb", "-1/10")
    assert code == 1
    assert "FAIL" in out and not err
    _, joined, _ = run(capsys, "kdv-verify", "--perturb=-1/10")
    assert out == joined
    code, doc, _ = run_json(capsys, "kdv-verify", "--perturb", "-1/10")
    assert code == 1
    assert doc["pass"] is False


def test_rational_options_reject_floats(capsys):
    for argv in (
        ["kdv-verify", "--perturb", "0.1"],
        ["convergence", str(PROBLEMS / "matrix3x3_n2.json"), "--q", "0.5"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid rational value" in capsys.readouterr().err


# -- commutator ------------------------------------------------------------------

def test_commutator_text(capsys):
    code, out, _ = run(capsys, "commutator", "d", "u")
    assert code == 0
    assert out.strip().endswith("= u_1")
    code, out, _ = run(capsys, "commutator", "d + u", "d + u")
    assert code == 0
    assert out.strip().endswith("= 0")


def test_commutator_json_schema(capsys):
    code, doc, _ = run_json(capsys, "commutator", "-4*d^3 + 3*(d*u + u*d)", "-d^2 + u")
    assert code == 0
    validate(doc, "commutator.schema.json")
    assert doc["commutator"]["terms"][0]["coeff"] == "6*u*u_1 - u_3"


def test_commutator_parse_error(capsys):
    code, out, err = run(capsys, "commutator", "d +", "u")
    assert code == 2
    assert "error" in err
    code, out, err = run(capsys, "commutator", "v", "u")
    assert code == 2
    assert "v" in err


# -- lax-solve ---------------------------------------------------------------------

def test_lax_solve_kdv(capsys):
    code, doc, _ = run_json(capsys, "lax-solve", str(PROBLEMS / "kdv_n2.json"))
    assert code == 0
    validate(doc, "laxsolve.schema.json")
    assert doc["residual"]["zero"] is True
    # q^1 coefficient of Lq is t * (6*u*u_1 - u_3)
    q1 = doc["Lq"]["coeffs"][1]["t_coeffs"]
    assert q1[0] == {"terms": [], "floor": "exact"}
    assert q1[1]["terms"] == [{"order": 0, "coeff": "6*u*u_1 - u_3"}]


def test_lax_solve_nilpotent(capsys):
    code, doc, _ = run_json(capsys, "lax-solve", str(PROBLEMS / "nilpotent2x2_n2.json"))
    assert code == 0
    validate(doc, "laxsolve.schema.json")
    assert doc["Lq"]["coeffs"][1]["t_coeffs"][1] == [["0", "-2"], ["0", "0"]]
    assert doc["Lq"]["coeffs"][2] == {"t_coeffs": []}


def test_lax_solve_text_verdict(capsys):
    code, out, _ = run(capsys, "lax-solve", str(PROBLEMS / "nilpotent2x2_n2.json"))
    assert code == 0
    assert "zero (exact)" in out
    assert out.strip().endswith("PASS")


def bumped_texp(k):
    """texp with the identity added to the q^k coefficient of W."""
    from qlax import QSeries

    real = laxflow.texp

    def texp(pq):
        w = real(pq)
        return w + QSeries.term(w.alg, w.trunc, w.alg.one, k)

    return texp


def test_lax_solve_checks_w_apart_from_the_recurrence(monkeypatch, capsys):
    # W is printed but not used for Lq, so only its own equation can catch
    # a wrong coefficient; q^N is the last order that equation sees
    for name in ("nilpotent2x2_n2.json", "matrix3x3_n2.json", "kdv_n2.json"):
        path = str(PROBLEMS / name)
        n = json.loads((PROBLEMS / name).read_text())["N"]
        for fmt in ("text", "json"):
            code, good, err = run(capsys, "lax-solve", path, "--format", fmt)
            assert (code, err) == (0, "")
            for k in (1, n):
                with monkeypatch.context() as m:
                    m.setattr(laxflow, "texp", bumped_texp(k))
                    code, out, err = run(capsys, "lax-solve", path, "--format", fmt)
                assert code == 1
                assert err == f"failed check: dW/dt = Pq*W (first nonzero at q^{k}, t^{k - 1})\n"
                if fmt == "text":
                    assert out.splitlines()[:-1] != good.splitlines()[:-1]
                    assert len(out.splitlines()) == len(good.splitlines())
                    assert good.endswith("PASS\n") and out.endswith("FAIL\n")
                else:
                    validate(json.loads(out), "laxsolve.schema.json")
                    assert json.loads(out).keys() == json.loads(good).keys()


def test_lax_solve_names_each_failed_check(monkeypatch, capsys):
    from qlax import QSeries

    real = laxflow.flow
    shifted = lambda x0, pq: real(x0, pq) + QSeries.constant(pq.alg, pq.trunc, pq.alg.one)
    monkeypatch.setattr(laxflow, "flow", shifted)
    code, out, err = run(capsys, "lax-solve", str(PROBLEMS / "nilpotent2x2_n2.json"))
    assert code == 1 and out.endswith("residual: zero (exact)\nFAIL\n")
    assert err == "failed check: Lq(0) = L0\n"
    monkeypatch.setattr(laxflow, "flow", lambda x0, pq: QSeries.constant(pq.alg, pq.trunc, x0))
    code, out, err = run(capsys, "lax-solve", str(PROBLEMS / "nilpotent2x2_n2.json"))
    # a constant Lq leaves -[p_0, L0] at q^1, t^0 of the residual
    assert code == 1 and out.endswith("residual: NONZERO (first nonzero at q^1, t^0)\nFAIL\n")
    assert err == "failed check: dLq/dt = [Pq, Lq] (first nonzero at q^1, t^0)\n"


def first_order_terms(a, b):
    """The j = 1 terms of the symbol bracket [A, B] of two differential
    operators: k a_k D_x(b_m) - m b_m D_x(a_k) at order k + m - 1."""
    from qlax import PsdoSymbol

    return PsdoSymbol.of(
        (k + m - 1, (ak * bm.dx()).scale(k) - (bm * ak.dx()).scale(m)) for k, ak in a.terms for m, bm in b.terms
    )


def test_flow_with_a_wrong_bracket_fails_the_checks(monkeypatch, capsys):
    # The flow and every residual go through the same element kernel, so a
    # flow run with a wrong kernel must be caught by the residual, which
    # keeps the real one.
    from functools import reduce
    from operator import add

    from qlax import symops

    def swapped(real):
        return lambda pairs, bracket=False, divisor=1: real([(x, p) for p, x in pairs], bracket, divisor)

    def no_j1(real):
        def dot(pairs, bracket=False, divisor=1):
            j1 = reduce(add, (first_order_terms(p, x) for p, x in pairs))
            return real(pairs, bracket, divisor) - j1.scale(Fraction(1, divisor))
        return dot

    real_flow = laxflow.flow

    def flow_with(kernel):
        def wrong(x0, pq):
            cls = type(pq.alg.zero)
            with monkeypatch.context() as m:
                m.setattr(cls, "dot", staticmethod(kernel(cls.dot)))
                return real_flow(x0, pq)
        return wrong

    for kernel, names in (
        (swapped, ("nilpotent2x2_n2.json", "matrix3x3_n2.json", "kdv_n2.json", "kdv_symmetry_n2.json", "matrix_symmetry_n3.json")),
        (no_j1, ("kdv_n2.json", "kdv_symmetry_n2.json")),
    ):
        wrong = flow_with(kernel)
        for name in names:
            path = str(PROBLEMS / name)
            commands = ("lax-solve", "symmetry") if "symmetry" in name else ("lax-solve",)
            for command in commands:
                assert run(capsys, command, path)[0] == 0
                with monkeypatch.context() as m:
                    m.setattr(laxflow, "flow", wrong)
                    m.setattr(symops, "flow", wrong)
                    code, out, err = run(capsys, command, path)
                assert code == 1 and out.endswith("FAIL\n"), (name, command)
                if command == "lax-solve":
                    assert err.startswith("failed check: dLq/dt = [Pq, Lq] (first nonzero at q^")
                else:
                    assert "transported solution: FAIL" in out


# Faults of an element kernel ``dot``, each built around the real one.

def bracket_swapped(real):
    return lambda pairs, bracket=False, divisor=1: real([(b, a) for a, b in pairs] if bracket else pairs, bracket, divisor)


def product_swapped(real):
    return lambda pairs, bracket=False, divisor=1: real(pairs if bracket else [(b, a) for a, b in pairs], bracket, divisor)


def last_pair_dropped(real):
    return lambda pairs, bracket=False, divisor=1: real(pairs[:-1] or pairs, bracket, divisor)


def divisor_ignored(real):
    return lambda pairs, bracket=False, divisor=1: real(pairs, bracket)


DOT_FAULTS = (bracket_swapped, product_swapped, last_pair_dropped, divisor_ignored)


def assert_faults_change_nothing_silently(monkeypatch, capsys, command, paths, *options):
    # under each fault installed for the whole command, a changed stdout
    # must come with exit 1; exit 2 and a crash fail too.  Exit 1 names the
    # failed checks on one stderr line, and exit 0 writes nothing there.
    # Returns the (code, stdout, stderr) runs by file name, in the order of
    # DOT_FAULTS
    from qlax import PsdoSymbol, RatMatrix

    runs = {}
    for path in paths:
        clean = run(capsys, command, str(path), *options)
        assert clean[0] == 0 and clean[2] == "", path.name
        for fault in DOT_FAULTS:
            with monkeypatch.context() as m:
                for cls in (RatMatrix, PsdoSymbol):
                    m.setattr(cls, "dot", staticmethod(fault(cls.dot)))
                code, out, err = run(capsys, command, str(path), *options)
            assert code in (0, 1), (path.name, fault.__name__)
            assert code == 1 or out == clean[1], (path.name, fault.__name__)
            if code:
                assert err.startswith("failed check: ") and err.count("\n") == 1 and err.endswith("\n"), (path.name, err)
            else:
                assert err == "", (path.name, fault.__name__)
            runs.setdefault(path.name, []).append((code, out, err))
    return runs


def first_failing_order(err, check):
    # the q-order that a failed flow check names on stderr, with its
    # t-degree one less; None when the check passed
    if check not in err:
        return None
    found = re.search(re.escape(check) + r" \(first nonzero at q\^(\d+), t\^(\d+)\)", err)
    assert found and int(found[2]) == int(found[1]) - 1, err
    return int(found[1])


def test_symmetry_catches_a_faulty_kernel(monkeypatch, capsys, tmp_path):
    # M = S.Lq and the symmetry2 residual sum through the same dot as the
    # flow: a faulty dot may leave a verdict unchanged, but any change to
    # the output must come with exit 1, and nothing may crash or exit 2
    deep = tmp_path / "kdv_d_u_n5.json"
    doc = json.loads((PROBLEMS / "kdv_symmetry_n2.json").read_text())
    deep.write_text(json.dumps({**doc, "N": 5, "S0": [["d", "u"]]}))
    paths = (PROBLEMS / "matrix_symmetry_n3.json", PROBLEMS / "kdv_symmetry_n2.json", deep)
    assert_faults_change_nothing_silently(monkeypatch, capsys, "symmetry", paths)


def test_matrix_lax_solve_catches_a_faulty_kernel(monkeypatch, capsys, tmp_path):
    # the matrix checks compare in integers and never call dot, so a fault
    # that changes W or Lq cannot confirm itself, and the JSON norms come
    # from the same comparison as the verdict.  KdV stays out: its check
    # still sums through PsdoSymbol.dot
    import random

    rng = random.Random(1)
    entries = [[[str(rng.choice((-2, -1, 1, 2))) for _ in range(4)] for _ in range(4)] for _ in range(3)]
    deep = tmp_path / "matrix4x4_n10.json"
    deep.write_text(json.dumps({"backend": "matrix", "L0": entries[0], "P": [[0, entries[1]], [1, entries[2]]], "N": 10}))
    w_failed = 0
    for fmt in ("text", "json"):
        runs = assert_faults_change_nothing_silently(
            monkeypatch, capsys, "lax-solve", (PROBLEMS / "matrix3x3_n2.json", deep), "--format", fmt
        )
        # at N = 2 the products of W's recurrence are p_1*1 and p_0*p_0, so
        # a swapped product leaves W unchanged
        codes = {name: [code for code, _, _ in found] for name, found in runs.items()}
        assert codes == {"matrix3x3_n2.json": [1, 0, 1, 1], "matrix4x4_n10.json": [1, 1, 1, 1]}, fmt
        for code, out, err in (r for found in runs.values() for r in found):
            k = first_failing_order(err, "dLq/dt = [Pq, Lq]")
            w_failed += first_failing_order(err, "dW/dt = Pq*W") is not None
            if fmt == "json":
                report = json.loads(out)["residual"]
                norms = [order["max_norm"] for order in report["orders"]]
                if k is None:
                    assert report["zero"] and set(norms) == {"0"}, norms
                else:
                    assert not report["zero"] and norms[:k] == ["0"] * k and norms[k] != "0", (k, norms)
    assert w_failed


def test_commands_never_invert_or_sum_iterated_integrals(monkeypatch):
    # invert_unipotent and iterated_integrals are test references only, and
    # symmetry never computes W: every golden run is unchanged without them
    from qlax import QSeries
    from test_golden import GOLDEN, ROOT, cases, digest, run_all

    def refuse(*args):
        raise AssertionError("called on the command path")

    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("QLAX_FORMAT", raising=False)
    monkeypatch.setattr(QSeries, "invert_unipotent", refuse)
    monkeypatch.setattr(laxflow, "iterated_integrals", refuse)
    assert run_all() == GOLDEN
    monkeypatch.setattr(laxflow, "texp", refuse)
    for argv in cases():
        if argv[0] == "symmetry":
            for fmt in ("text", "json"):
                key = argv + ("--format", fmt)
                assert digest(key) == GOLDEN[" ".join(key)]


def test_passing_lax_solve_never_builds_the_residual(monkeypatch, capsys, tmp_path):
    # the verdicts, the failure location and the JSON norms all come from
    # laxflow.defects: lax-solve builds no residual series, passing or
    # failing
    from test_golden import DEEP, GOLDEN, ROOT, cases, digest, run_deep

    def refuse(*args):
        raise AssertionError("called by lax-solve")

    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("QLAX_FORMAT", raising=False)
    monkeypatch.setattr(laxflow, "lax_residual", refuse)
    solved = 0
    for argv in cases():
        if argv[0] == "lax-solve":
            for fmt in ("text", "json"):
                key = argv + ("--format", fmt)
                assert digest(key) == GOLDEN[" ".join(key)]
                solved += 1
    assert solved == 10
    assert run_deep(tmp_path) == DEEP
    from qlax import PsdoSymbol, RatMatrix

    failed = 0
    for name in ("nilpotent2x2_n2.json", "matrix3x3_n2.json", "kdv_n2.json"):
        for fault, fmt in ((fault, fmt) for fault in DOT_FAULTS for fmt in ("text", "json")):
            with monkeypatch.context() as m:
                for cls in (RatMatrix, PsdoSymbol):
                    m.setattr(cls, "dot", staticmethod(fault(cls.dot)))
                code = run(capsys, "lax-solve", str(PROBLEMS / name), "--format", fmt)[0]
            assert code in (0, 1), (name, fault.__name__, fmt)
            failed += code
    assert failed


def test_lax_solve_rejects_bad_n(tmp_path, capsys):
    doc = json.loads((PROBLEMS / "nilpotent2x2_n2.json").read_text())
    doc["N"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "lax-solve", str(bad))
    assert code == 2
    assert "N" in err


def test_lax_solve_missing_file(capsys):
    code, _, err = run(capsys, "lax-solve", "no_such_file.json")
    assert code == 2
    assert "error" in err


def test_qorder_supplies_missing_n(tmp_path, capsys):
    doc = json.loads((PROBLEMS / "nilpotent2x2_n2.json").read_text())
    del doc["N"]
    path = tmp_path / "no_n.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_json(capsys, "lax-solve", str(path), "--qorder", "3")
    assert code == 0
    assert out["N"] == 3
    code, out, _ = run_json(capsys, "lax-solve", str(path))
    assert code == 0
    assert out["N"] == 2  # the --qorder default


def test_problem_file_validation_messages(tmp_path, capsys):
    cases = [
        ({"backend": "matrix", "P": [[0, [["1"]]]], "N": 1}, "L0"),
        ({"backend": "other", "L0": [["1"]], "P": [[0, [["1"]]]], "N": 1}, "backend"),
        ({"backend": "matrix", "L0": [["1"]], "N": 1}, "P"),
        ({"backend": "matrix", "L0": [["1"]], "P": [[0, [["1"]]], [0, [["2"]]]], "N": 1}, "P"),
        ({"backend": "psdo", "L0": "-d^2 + u", "P": [[0, "w"]], "N": 1}, "P"),
    ]
    for doc, field in cases:
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "lax-solve", str(path))
        assert code == 2
        assert field in err


def test_p_past_the_truncation_is_a_load_error(tmp_path, capsys):
    # deg_t(P) <= N - 1 is checked while the file loads, before a command
    # looks at S0 or the backend, so the P error comes first for every command
    doc = json.loads((PROBLEMS / "matrix_symmetry_n3.json").read_text())
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps({**doc, "N": 1}))  # deg_t P = 1 = N
    two_faults = tmp_path / "two_faults.json"  # no S0, psdo backend, and deg_t P = 3 > N - 1
    two_faults.write_text('{"backend": "psdo", "L0": "-d^2 + u", "P": [[0, "d"], [3, "u"]], "N": 2}')
    for path, degree, n in ((deep, 1, 1), (two_faults, 3, 2)):
        for command in ("lax-solve", "symmetry", "convergence"):
            code, out, err = run(capsys, command, str(path))
            assert (code, out) == (2, ""), (command, path)
            assert err.startswith(f"error: field 'P': deg_t(P) = {degree} exceeds n - 1 = {n - 1}; ")
            assert err.count("\n") == 1 and err.endswith("\n")


def test_problem_file_parses_each_text_once(monkeypatch):
    # the memo lives for one load: a side equal to L0 is L0's own value, and
    # a text that fails names the first field it appears in
    from qlax import BiOp, PsdoSymbol, ProblemFileError, expr
    from qlax.problemfile import load_problem

    calls = []
    real = expr.parse_operator
    monkeypatch.setattr(expr, "parse_operator", lambda text: calls.append(text) or real(text))
    l0, p = "-d^2 + u", "-4*d^3 + 3*(d*u + u*d)"
    doc = {"backend": "psdo", "L0": l0, "P": [[0, p], [1, l0]], "N": 2, "S0": [[l0, "1"], ["1", l0]]}
    for loads in (1, 2):
        pf = load_problem(doc)
        assert sorted(calls) == sorted([l0, p, "1"] * loads)
    one = PsdoSymbol.one()
    assert pf.s0 == BiOp.of(pf.alg, [(pf.l0, one), (one, pf.l0)])
    assert pf.p.coeffs[1] is pf.l0 and pf.s0.terms[0][0] is pf.l0
    for bad, field in ((dict(doc, S0=[[l0, "w"]]), "S0"), (dict(doc, L0="w", S0=[["w", "1"]]), "L0")):
        with pytest.raises(ProblemFileError) as info:
            load_problem(bad)
        assert info.value.field == field and str(info.value) == f"field '{field}': unknown identifier 'w' (line 1, column 1)"


def test_problem_file_schema_and_keys(tmp_path, capsys):
    base = json.loads((PROBLEMS / "nilpotent2x2_n2.json").read_text())
    path = tmp_path / "case.json"
    for doc, field in (({**base, "schema": "qlax/problem/9"}, "'schema'"), ({**base, "Q": 1}, "'Q'")):
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "lax-solve", str(path))
        assert code == 2
        assert not out
        assert field in err
    del base["schema"]
    path.write_text(json.dumps(base))
    assert run(capsys, "lax-solve", str(path))[0] == 0


LONG = "1" * 5000  # past the 4,300 digits int() reads from text
MATRIX_1X1 = '{"backend": "matrix", "L0": [[%s]], "P": [[0, [["1"]]]], "N": %s}'


@pytest.mark.parametrize("argv, files", [
    pytest.param(["commutator", "²", "u"], {}, id="superscript-digit"),
    pytest.param(["commutator", "u_²", "u"], {}, id="superscript-jet-index"),
    pytest.param(["commutator", "٣", "u"], {}, id="arabic-indic-digit"),
    pytest.param(["commutator", LONG, "u"], {}, id="long-integer"),
    pytest.param(["commutator", "u", f"1/{LONG}"], {}, id="long-denominator"),
    pytest.param(["commutator", f"u^{LONG}", "u"], {}, id="long-exponent"),
    pytest.param(["commutator", "u", f"u_{LONG}"], {}, id="long-jet-index"),
    pytest.param(["lax-solve", "P"], {"P": json.dumps({"backend": "psdo", "L0": "u_²", "P": [[0, "d"]], "N": 1})},
                 id="problem-superscript-jet-index"),
    pytest.param(["lax-solve", "P"], {"P": MATRIX_1X1 % ('"1"', LONG)}, id="problem-long-json-n"),
    pytest.param(["lax-solve", "P"], {"P": MATRIX_1X1 % (LONG, 1)}, id="problem-long-json-entry"),
    pytest.param(["lax-solve", "P"], {"P": MATRIX_1X1 % ('"٣"', 1)}, id="problem-arabic-indic-entry"),
    pytest.param(["symmetry", str(PROBLEMS / "matrix_symmetry_n3.json"), "--probe-set", "P"],
                 {"P": '{"probes": [[[%s]]]}' % LONG}, id="probe-set-long-json-entry"),
    pytest.param(["kdv-verify", "--perturb=-٣/٢"], {}, id="perturb-arabic-indic"),
    pytest.param(["kdv-verify", "--perturb", "-٣/٢"], {}, id="perturb-arabic-indic-apart"),
    pytest.param(["convergence", str(PROBLEMS / "matrix3x3_n2.json"), "--q", "١/٨"], {}, id="q-arabic-indic"),
])
def test_input_literals_exit_2_with_one_error_line(tmp_path, capsys, argv, files):
    # non-ASCII digits and digit runs past int()'s limit, in every place a literal is read
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    try:
        code = main([str(tmp_path / arg) if arg in files else arg for arg in argv])
    except SystemExit as exc:  # argparse rejects the option value
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("entry, field", [
    pytest.param(f'"{LONG}"', "L0", id="string-entry"),
    pytest.param(LONG, "$", id="json-integer"),
])
def test_long_numbers_are_reported_in_qlax_words(tmp_path, capsys, entry, field):
    # the DSL's wording, not Python's advice to raise the interpreter limit;
    # a limit of 0 means no limit
    import sys

    path = tmp_path / "long.json"
    path.write_text(MATRIX_1X1 % (entry, 1))
    code, out, err = run(capsys, "lax-solve", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: field '{field}': number too long: 5000 digits, above {sys.get_int_max_str_digits()}\n"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert run(capsys, "lax-solve", str(path))[0] == 0
    finally:
        sys.set_int_max_str_digits(limit)


def test_malformed_input_exits_2_without_traceback(tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"backend": "matrix", "L0": [["\xff"]]}')
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    deep = "(" * 5000 + "u" + ")" * 5000
    psdo = tmp_path / "deep.json"
    psdo.write_text(json.dumps({"backend": "psdo", "L0": deep, "P": [[0, "d"]], "N": 1}))
    sym = str(PROBLEMS / "matrix_symmetry_n3.json")
    mat = str(PROBLEMS / "matrix3x3_n2.json")
    cases = [
        (("lax-solve", str(latin1)), "'$'"),
        (("lax-solve", str(nested)), "'$'"),
        (("symmetry", sym, "--probe-set", str(latin1)), "'probes'"),
        (("symmetry", sym, "--probe-set", str(nested)), "'probes'"),
        (("commutator", deep, "u"), "nested too deeply"),
        (("commutator", "u", deep), "nested too deeply"),
        (("lax-solve", str(psdo)), "'L0'"),
        (("convergence", mat, "--refN", "3"), "refN"),
        (("convergence", mat, "--refN", "-5"), "refN"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert not out
        assert message in err
        assert "Traceback" not in err


def test_long_flat_sums_elaborate(tmp_path, capsys):
    # sums are parsed by a loop, so only nesting depth is limited
    from qlax import parse_diffpoly, parse_operator

    flat = "+".join(["u"] * 3000)
    assert parse_operator(flat) == parse_operator("3000*u")
    psdo = tmp_path / "flat.json"
    psdo.write_text(json.dumps({"backend": "psdo", "L0": flat, "P": [[0, "d"]], "N": 1}))
    assert run(capsys, "lax-solve", str(psdo))[0] == 0
    assert parse_diffpoly("+".join(["u^2"] * 20_000)) == parse_diffpoly("20000*u^2")


def test_large_powers_exit_2_quickly(tmp_path, capsys):
    import time

    big = tmp_path / "big.json"
    big.write_text(json.dumps({"backend": "psdo", "L0": "u^99999999", "P": [[0, "d"]], "N": 1}))
    for argv, message in (
        (("commutator", "d^99999999", "u"), "'d^99999999'"),
        (("commutator", "u", "((d+u)^16)^16"), "'((d+u)^16)^16'"),
        (("lax-solve", str(big)), "field 'L0': power too large in 'u^99999999'"),
    ):
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - start < 1.0
        assert (code, out) == (2, "")
        assert message in err


def test_packed_monomials_never_overflow_silently(tmp_path, capsys):
    # A large jet index would build a huge packed int and a long flat
    # product would fill a field: both exit 2, naming the expression,
    # before any monomial is built.
    import time

    from qlax.diffpoly import FIELD

    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"backend": "psdo", "L0": "*".join(["u"] * (1 << FIELD)), "P": [[0, "d"]], "N": 1}))
    for argv, message in (
        (("commutator", "u_99999999", "u"), "jet index too large in 'u_99999999'"),
        (("lax-solve", str(flat)), "field 'L0': degree too large in 'u*u*u"),
    ):
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - start < 1.0
        assert (code, out) == (2, "")
        assert message in err


def test_long_products_of_bounded_powers_exit_2_quickly(capsys):
    import time

    from qlax.expr import MAX_POWER

    long = "*".join(["(d+u)^24"] * 2000)
    nested = "((d+u)^16)^16*" + long
    for argv, message in (
        (("commutator", long, "u"), "degree too large in '(d+u)^24*(d+u)^24*"),
        (("commutator", "u", nested), "power too large in '((d+u)^16)^16*"),  # the nested rule reports first
        (("commutator", "*".join(["u"] * (MAX_POWER + 1)), "d"), "degree too large"),
    ):
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - start < 1.0
        assert (code, out) == (2, "")
        assert message in err
    code, out, _ = run(capsys, "commutator", "*".join(["u"] * MAX_POWER), "d")
    assert (code, out) == (0, f"[{'*'.join(['u'] * MAX_POWER)}, d] = -{MAX_POWER}*u^{MAX_POWER - 1}*u_1\n")


def test_huge_truncation_order_exits_2_quickly(tmp_path, capsys):
    import time

    base = json.loads((PROBLEMS / "nilpotent2x2_n2.json").read_text())
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({**base, "N": 10 ** 9}))
    unset = tmp_path / "unset.json"
    unset.write_text(json.dumps({k: v for k, v in base.items() if k != "N"}))
    mat = str(PROBLEMS / "matrix3x3_n2.json")
    for argv, message in (
        (("lax-solve", str(huge)), "field 'N'"),
        (("lax-solve", str(unset), "--qorder", str(10 ** 9)), "field 'N'"),
        (("convergence", mat, "--refN", str(10 ** 9)), "refN"),
    ):
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - start < 1.0
        assert (code, out) == (2, "")
        assert message in err


def test_options_belong_to_the_commands_that_read_them(tmp_path, capsys):
    # --qorder is read only where a problem file is solved, --probe-set only by symmetry
    probes = tmp_path / "missing.json"
    nil = str(PROBLEMS / "nilpotent2x2_n2.json")
    for argv in (
        ("commutator", "d", "u", "--qorder", "3"),
        ("kdv-verify", "--qorder", "3"),
        ("commutator", "d", "u", "--probe-set", str(probes)),
        ("kdv-verify", "--probe-set", str(probes)),
        ("lax-solve", nil, "--probe-set", str(probes)),
        ("convergence", nil, "--probe-set", str(probes)),
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        assert exit_info.value.code == 2, argv
        assert argv[-2] in capsys.readouterr().err
    for command in ("lax-solve", "symmetry", "convergence"):
        assert run(capsys, command, str(PROBLEMS / "matrix_symmetry_n3.json"), "--qorder", "3")[0] == 0


def test_depth_and_seed_are_not_options(capsys):
    for option in ("--depth", "--seed"):
        with pytest.raises(SystemExit) as exit_info:
            main(["kdv-verify", option, "1"])
        assert exit_info.value.code == 2
        assert option in capsys.readouterr().err


# -- symmetry -----------------------------------------------------------------------

def test_symmetry_matrix(capsys):
    code, doc, _ = run_json(capsys, "symmetry", str(PROBLEMS / "matrix_symmetry_n3.json"))
    assert code == 0
    validate(doc, "symmetry.schema.json")
    assert doc["pass"] is True
    assert doc["symmetry3_zero"] and doc["symmetry2_zero"] and doc["transported_solution"]


def test_symmetry_kdv(capsys):
    code, out, _ = run(capsys, "symmetry", str(PROBLEMS / "kdv_symmetry_n2.json"))
    assert code == 0
    assert out.count("PASS") == 4


def test_symmetry_decides_r3_from_the_tensor_form(monkeypatch, capsys):
    # the shipped symmetries have a zero r3 tensor, so no probe is applied,
    # and the report still names the probe count
    from qlax import symops

    monkeypatch.setattr(symops, "apply_to_probe", None)
    for name in ("matrix_symmetry_n3.json", "kdv_symmetry_n2.json"):
        code, out, _ = run(capsys, "symmetry", str(PROBLEMS / name))
        assert code == 0 and "symmetry3 residual: PASS (checked on 7 probes)" in out


def test_symmetry_skips_r2_when_the_r3_tensor_vanishes(monkeypatch, capsys):
    # a zero r3 tensor maps Lq to zero, so the symmetry2 line is exact
    # without applying r3 to Lq; the report does not change
    from qlax import cli

    calls = []
    real = cli.apply_series
    monkeypatch.setattr(cli, "apply_series", lambda sq, xq: calls.append(sq) or real(sq, xq))
    for name in ("matrix_symmetry_n3.json", "kdv_symmetry_n2.json"):
        code, out, _ = run(capsys, "symmetry", str(PROBLEMS / name))
        assert code == 0 and "symmetry2 residual: PASS (exact)\n" in out
        assert calls == []


def test_symmetry_with_a_broken_transport_fails_both_residuals(monkeypatch, capsys):
    # S + q*1 adds the identity to r3 at q^1, which maps Lq(0) = L0 != 0 to
    # r2 at q^1: not a zero tensor, so r3 goes to the probes and r2 is
    # computed, and both fail
    from qlax import BiOp, BiOpAlgebra, QSeries, cli

    real = cli.transport

    def broken(s0, pq, lq=None):
        sq = real(s0, pq, lq)
        return sq + QSeries.term(BiOpAlgebra(s0.alg), pq.trunc, BiOp.identity(s0.alg), 1)

    calls = []
    real_apply = cli.apply_series
    monkeypatch.setattr(cli, "transport", broken)
    monkeypatch.setattr(cli, "apply_series", lambda sq, xq: calls.append(sq) or real_apply(sq, xq))
    for name in ("matrix_symmetry_n3.json", "kdv_symmetry_n2.json"):
        code, out, _ = run(capsys, "symmetry", str(PROBLEMS / name))
        assert code == 1, name
        assert "symmetry3 residual: FAIL" in out and "symmetry2 residual: FAIL (exact)" in out, name
    assert len(calls) == 2


def test_symmetry_unit_probes_catch_what_the_problem_probes_miss(monkeypatch, capsys):
    # X -> tr(X) E_00 = (E_00, E_00) + (E_01, E_10) kills L0 and both P
    # coefficients of the shipped matrix problem (all traceless) and every
    # Lq coefficient, so only the probe fallback on a unit matrix sees it
    from qlax import BiOp, BiOpAlgebra, QSeries, cli, residual_vanishes, symops
    from qlax.problemfile import load_problem_file

    path = str(PROBLEMS / "matrix_symmetry_n3.json")
    pf = load_problem_file(path)
    e00, e01, e10, _ = units = pf.alg.probes()
    trace_map = BiOp.of(pf.alg, [(e00, e00), (e01, e10)])
    real = symops.symmetry3_residual
    bumped = lambda sq, pq: real(sq, pq) + QSeries.term(BiOpAlgebra(pf.alg), pq.trunc, trace_map, 1)
    sol = cli.lax_solve(pf)
    r3 = bumped(symops.transport(pf.s0, sol.pq, sol.lq), sol.pq)
    assert not r3.coeffs[1].tensor_is_zero()
    assert residual_vanishes(r3, [pf.l0, *pf.p.coeffs]) and not residual_vanishes(r3, units)
    monkeypatch.setattr(cli, "symmetry3_residual", bumped)
    code, out, _ = run(capsys, "symmetry", path)
    assert code == 1
    assert out == (
        "symmetry3 residual: FAIL (checked on 7 probes)\n"
        "symmetry2 residual: PASS (exact)\n"
        "transported solution: PASS\n"
        "FAIL\n"
    )


def test_symmetry_identity_s0(tmp_path, capsys):
    doc = json.loads((PROBLEMS / "matrix_symmetry_n3.json").read_text())
    doc["S0"] = "identity"
    path = tmp_path / "ident.json"
    path.write_text(json.dumps(doc))
    code, doc_out, _ = run_json(capsys, "symmetry", str(path))
    assert code == 0
    assert doc_out["pass"] is True


def test_symmetry_requires_s0(tmp_path, capsys):
    doc = json.loads((PROBLEMS / "matrix_symmetry_n3.json").read_text())
    del doc["S0"]
    path = tmp_path / "nos0.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "symmetry", str(path))
    assert code == 2
    assert "S0" in err


def test_symmetry_probe_set_extension(tmp_path, capsys):
    probes = tmp_path / "probes.json"
    probes.write_text(json.dumps({"probes": [[["1", "1"], ["0", "1"]]]}))
    code, doc, _ = run_json(
        capsys,
        "symmetry",
        str(PROBLEMS / "matrix_symmetry_n3.json"),
        "--probe-set",
        str(probes),
    )
    assert code == 0
    assert doc["probes"] == 8  # 4 units + L0 + two P coefficients + 1 extra


def test_symmetry_rejects_missized_probe(tmp_path, capsys):
    probes = tmp_path / "probes.json"
    probes.write_text(json.dumps({"probes": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]]}))
    code, out, err = run(
        capsys, "symmetry", str(PROBLEMS / "matrix_symmetry_n3.json"), "--probe-set", str(probes)
    )
    assert code == 2
    assert not out
    assert "probes" in err and "dimension 3" in err


def test_probe_set_schema_and_keys(tmp_path, capsys):
    probes = tmp_path / "probes.json"
    sym = str(PROBLEMS / "matrix_symmetry_n3.json")
    for doc, field in (
        ({"probes": [], "extra": 1, "schema": "qlax/probes/9"}, "'schema'"),
        ({"probes": [], "extra": 1}, "'extra'"),
        ({"schema": "qlax/problem/1", "probes": []}, "'schema'"),
    ):
        probes.write_text(json.dumps(doc))
        code, out, err = run(capsys, "symmetry", sym, "--probe-set", str(probes))
        assert code == 2
        assert not out
        assert field in err
    probes.write_text(json.dumps({"schema": "qlax/probes/1", "probes": []}))
    assert run(capsys, "symmetry", sym, "--probe-set", str(probes))[0] == 0


def test_symmetry_rejects_missized_s0(tmp_path, capsys):
    doc = json.loads((PROBLEMS / "matrix_symmetry_n3.json").read_text())
    doc["S0"] = [[[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], [["1", "0"], ["0", "1"]]]]
    path = tmp_path / "s0.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "symmetry", str(path))
    assert code == 2
    assert "S0" in err


# -- convergence ---------------------------------------------------------------------

def test_convergence_matrix(capsys):
    code, doc, _ = run_json(capsys, "convergence", str(PROBLEMS / "matrix3x3_n2.json"))
    assert code == 0
    validate(doc, "convergence.schema.json")
    assert doc["N"] == 2 and doc["refN"] == 8
    ratio = doc["points"][1]["ratio_to_prev"]
    assert 0.7 * 8 <= ratio <= 1.3 * 8


def test_convergence_nilpotent_zero_error(capsys):
    code, doc, _ = run_json(
        capsys, "convergence", str(PROBLEMS / "nilpotent2x2_n2.json"), "--q", "1/8"
    )
    assert code == 0
    assert doc["points"][0]["error"] == 0.0


def test_convergence_default_reference_order_stays_bounded(tmp_path, capsys):
    # the default refN is N + 6 capped at MAX_ORDER; below N + 2 the error names N
    path = tmp_path / "scalar.json"
    for n, code in ((laxflow.MAX_ORDER - 4, 0), (laxflow.MAX_ORDER - 1, 2)):
        path.write_text(json.dumps({"backend": "matrix", "L0": [["1"]], "P": [[0, [["1"]]]], "N": n}))
        status, doc, err = run(capsys, "convergence", str(path), "--format", "json")
        assert status == code, err
        if code == 0:
            assert json.loads(doc)["refN"] == laxflow.MAX_ORDER
        else:
            assert "field 'N'" in err and "refN" not in err


def test_convergence_values_past_the_float_range_exit_2(capsys):
    # a huge q overflows the error, a tiny one after 1/8 the ratio to it
    big = "1" + "0" * 200
    path = str(PROBLEMS / "matrix3x3_n2.json")
    for qs, what in (((big,), "truncation error"), (("1/8", "1/" + big), "ratio")):
        argv = ["convergence", path] + [arg for q in qs for arg in ("--q", q)]
        for fmt in ("text", "json"):
            code, out, err = run(capsys, *argv, "--format", fmt)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: --q {qs[-1]}: the ") and what in err
            assert "Traceback" not in err


def test_problem_schema_bounds_n_like_the_loader():
    assert load_schema("problem.schema.json")["properties"]["N"]["maximum"] == laxflow.MAX_ORDER


def test_convergence_rejects_psdo(capsys):
    code, _, err = run(capsys, "convergence", str(PROBLEMS / "kdv_n2.json"))
    assert code == 2
    assert "matrix" in err


# -- cross-cutting ----------------------------------------------------------------------

def test_outputs_are_deterministic(capsys):
    _, out1, _ = run(capsys, "lax-solve", str(PROBLEMS / "kdv_n2.json"), "--format", "json")
    _, out2, _ = run(capsys, "lax-solve", str(PROBLEMS / "kdv_n2.json"), "--format", "json")
    assert out1 == out2


def test_env_var_overrides_format(monkeypatch, capsys):
    monkeypatch.setenv("QLAX_FORMAT", "json")
    code, out, _ = run(capsys, "kdv-verify", "--format", "text")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    monkeypatch.setenv("QLAX_FORMAT", "xml")  # neither json nor text: ignored
    code, out, _ = run(capsys, "kdv-verify", "--format", "json")
    assert code == 0 and json.loads(out)["pass"] is True
    code, out, _ = run(capsys, "kdv-verify")
    assert (code, out.splitlines()[-1]) == (0, "PASS: [P, L] equals the flow right-hand side exactly")


def test_consecutive_calls_share_no_state(capsys):
    # the parser is built once per process; nothing parsed may outlive its call
    from qlax.cli import build_parser

    nil = str(PROBLEMS / "nilpotent2x2_n2.json")
    assert build_parser() is build_parser()
    code, doc, _ = run_json(capsys, "convergence", nil, "--q", "1/3", "--q", "1/5")
    assert code == 0 and [p["q"] for p in doc["points"]] == ["1/3", "1/5"]
    code, doc, _ = run_json(capsys, "convergence", nil)
    assert code == 0 and [p["q"] for p in doc["points"]] == ["1/8", "1/16"]
    assert run(capsys, "kdv-verify", "--perturb", "1")[0] == 1
    assert run(capsys, "kdv-verify")[0] == 0
    assert run_json(capsys, "kdv-verify")[1]["pass"] is True
    code, out, _ = run(capsys, "kdv-verify")
    assert code == 0 and out.startswith("L = ") and out.endswith("exactly\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["lax-solve", nil, "--qorder", "x"])
    assert exit_info.value.code == 2
    capsys.readouterr()
    code, out, err = run(capsys, "lax-solve", nil)
    assert (code, err) == (0, "") and out.endswith("PASS\n")


def test_problem_files_match_schema():
    schema = load_schema("problem.schema.json")
    for path in PROBLEMS.glob("*.json"):
        jsonschema.validate(json.loads(path.read_text()), schema)


def test_value_renderings_match_component_schemas():
    from qlax import MatrixAlgebra, QSeries, kdv_pair
    from qlax.render import dumps, json_value

    validate(json_value(kdv_pair().L), "symbol.schema.json")
    # a report writes a series in its weight-0 form, through dumps
    validate(json.loads(dumps(QSeries.one(MatrixAlgebra(2), 3))), "qseries.schema.json")
    validate({"probes": ["u", [["1", "0"], ["0", "1"]]]}, "probes.schema.json")


def test_rejects_float_entries(tmp_path, capsys):
    doc = {"backend": "matrix", "L0": [[0.5]], "P": [[0, [["1"]]]], "N": 1}
    path = tmp_path / "float.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "lax-solve", str(path))
    assert code == 2
    assert "L0" in err


def test_matrix_literal_rejections_name_the_field_and_the_text(tmp_path, capsys):
    base = json.loads((PROBLEMS / "nilpotent2x2_n2.json").read_text())
    cases = [
        ([[0.5, "0"], ["0", "1"]], "cannot interpret float as an exact rational"),
        ([[True, "0"], ["0", "1"]], "cannot interpret bool as an exact rational"),
        ([["2.5", "0"], ["0", "1"]], "not an exact rational literal: '2.5'"),
        ([["1/0", "0"], ["0", "1"]], "denominator must be positive: '1/0'"),
        ([["1", "0"], ["0"]], "matrix must be square and nonempty"),
    ]
    for l0, message in cases:
        for field, change in (("L0", {"L0": l0}), ("P", {"P": [[0, l0]]})):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps({**base, **change}))
            code, out, err = run(capsys, "lax-solve", str(path))
            assert (code, out, err) == (2, "", f"error: field '{field}': {message}\n")


def test_rejects_booleans_as_integers(tmp_path, capsys):
    base = json.loads((PROBLEMS / "nilpotent2x2_n2.json").read_text())
    cases = [
        ({"N": True}, "'N'"),
        ({"P": [[True, [["0", "1"], ["0", "0"]]]]}, "'P'"),
        ({"L0": [[True, "0"], ["0", "1"]]}, "'L0'"),
    ]
    for change, field in cases:
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({**base, **change}))
        code, out, err = run(capsys, "lax-solve", str(path))
        assert code == 2
        assert not out
        assert field in err


def test_module_entry_point_subprocess():
    import subprocess
    import sys

    done = subprocess.run(
        [sys.executable, "-m", "qlax", "kdv-verify", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0
    assert json.loads(done.stdout)["pass"] is True
    usage = subprocess.run(
        [sys.executable, "-m", "qlax", "no-such-command"],
        capture_output=True,
        text=True,
    )
    assert usage.returncode == 2
