"""Report rendering: the JSON writer against the stdlib, and failure location."""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qlax import (
    LaxProblem,
    MatrixAlgebra,
    PsdoAlgebra,
    PsdoSymbol,
    QSeries,
    RatMatrix,
    TPoly,
    defects,
    lax_solve,
    mat_random,
)
from qlax import cli, render

from conftest import diffops
from reference import series_json

texts = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "\U0001f600"]),
    ),
    max_size=6,
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1e-300, 1e300]),
    texts,
)
trees = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(texts, inner, max_size=4),
    ),
    max_leaves=12,
)
# one nonempty object per example, so its text depends on the depth it sits at
shared = st.one_of(st.lists(texts, min_size=1, max_size=3), st.dictionaries(texts, trees, min_size=1, max_size=2))
# nonempty rows of strings, which dumps writes in one step
text_matrices = st.lists(st.lists(texts, min_size=1, max_size=3), min_size=1, max_size=3)


def stdlib(x) -> str:
    return json.dumps(x, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(trees, shared, text_matrices)
def test_dumps_matches_the_stdlib(tree, pad, matrix):
    assert render.dumps(tree) == stdlib(tree)
    doc = {
        "twice at one depth": [pad, pad],
        "two depths": [pad, [pad, {"": pad}]],
        "empty": [[], {}, [[]], {"": {}}],
        "tree": tree,
    }
    assert render.dumps(doc) == stdlib(doc)
    assert render.dumps([pad, tree, pad]) == stdlib([pad, tree, pad])
    # a matrix shared at several depths and next to its own rows, and
    # matrices with an empty row, which take the general path
    doc = {
        "matrices": [matrix, matrix, [matrix, {"": matrix}], [[matrix]]],
        "rows": [matrix[0], [matrix[-1], matrix[0]], matrix],
        "empty row": [matrix + [[]], [[]] + matrix],
        "pad": [pad, matrix, pad],
    }
    assert render.dumps(doc) == stdlib(doc)
    assert render.dumps(matrix) == stdlib(matrix)


# series as lax-solve reports them: zero coefficients at random q-orders
# and up to twelve zero pads per row
fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def matrix_series(draw):
    alg = MatrixAlgebra(draw(st.integers(1, 4)))
    entry = st.lists(st.lists(fractions, min_size=alg.n, max_size=alg.n), min_size=alg.n, max_size=alg.n)
    coeffs = draw(st.lists(st.none() | entry, min_size=1, max_size=13))
    return QSeries.of(alg, [alg.zero if c is None else RatMatrix.of(c) for c in coeffs])


symbols = st.builds(lambda s, floor: PsdoSymbol.of(s.terms, floor), diffops(), st.none() | st.integers(-5, 0))
psdo_series = st.lists(st.none() | symbols, min_size=1, max_size=13).map(
    lambda cs: QSeries.of(PsdoAlgebra(), [PsdoSymbol.zero() if c is None else c for c in cs])
)


def nest(x, shape):
    for kind in reversed(shape):
        x = [x] if kind == "list" else {"s": x}
    return x


@settings(max_examples=100, deadline=None)
@given(matrix_series() | psdo_series, st.lists(st.sampled_from(["list", "dict"]), max_size=3))
def test_dumps_writes_a_series_as_its_reference_tree(series, shape):
    tree = series_json(series)
    assert render.dumps(nest(series, shape)) == stdlib(nest(tree, shape))
    doc = {"first": nest(series, shape), "again": [series, "after", 0]}
    assert render.dumps(doc) == stdlib({"first": nest(tree, shape), "again": [tree, "after", 0]})


def solve_problem(tmp_path):
    """A 4x4 problem at N = 10: every q^k coefficient of W and Lq is
    nonzero, so the report pads it with k zeros."""
    path = tmp_path / "m4.json"
    path.write_text(json.dumps({
        "backend": "matrix",
        "L0": mat_random(4, 7, 3).scale(Fraction(2, 3)).to_json(),
        "P": [[0, mat_random(4, 11, 2).to_json()], [1, mat_random(4, 13, 2).to_json()]],
        "N": 10,
    }))
    return str(path)


def test_dumps_matches_the_stdlib_on_a_solve_report(tmp_path, monkeypatch, capsys):
    docs = []
    monkeypatch.setattr(cli, "dumps", lambda obj: docs.append(obj) or render.dumps(obj))
    assert cli.main(["lax-solve", solve_problem(tmp_path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    (doc,) = docs
    reference = {key: series_json(v) if isinstance(v, QSeries) else v for key, v in doc.items()}
    assert reference["W"]["coeffs"][10]["t_coeffs"][:10] == [MatrixAlgebra(4).zero.to_json()] * 10
    assert out == stdlib(reference)


def test_solve_report_encodes_each_coefficient_once(tmp_path, monkeypatch, capsys):
    docs, encoded = [], []
    json_value = render.json_value
    monkeypatch.setattr(cli, "dumps", lambda obj: docs.append(obj) or render.dumps(obj))
    monkeypatch.setattr(render, "json_value", lambda x: encoded.append(x) or json_value(x))
    assert cli.main(["lax-solve", solve_problem(tmp_path), "--format", "json"]) == 0
    capsys.readouterr()
    (doc,) = docs
    # the pad once per series, then each nonzero coefficient in q-order
    expected = []
    for series in (doc["W"], doc["Lq"]):
        expected += [series.alg.zero] + [c for c in series.coeffs if not c.is_zero()]
    assert len(encoded) == 2 + 11 + 11
    assert encoded == expected


def test_first_nonzero_names_a_perturbed_coefficient():
    # a term c*q^j added to Lq adds j*c*t^(j-1) to dLq/dt at q^j, while
    # [Pq, Lq] moves only from q^(j+1) on, as Pq has no q^0 coefficient
    alg = MatrixAlgebra(3)
    prob = LaxProblem(p=TPoly.of(alg, [mat_random(3, 5, 2), mat_random(3, 6, 2)]), l0=mat_random(3, 8, 2), n=4)
    sol = lax_solve(prob)
    assert render.first_nonzero(defects(sol.lq, sol.pq, True)) is None
    bump = mat_random(3, 9, 2)
    assert not bump.is_zero()
    for j in range(1, prob.n + 1):
        lq = sol.lq + QSeries.term(alg, prob.n, bump, j)
        assert render.first_nonzero(defects(lq, sol.pq, True)) == (j, j - 1)
