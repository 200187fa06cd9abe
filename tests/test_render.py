"""Report rendering: the JSON writer against the stdlib, and failure location."""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qlax import LaxProblem, MatrixAlgebra, QSeries, TPoly, lax_residual, lax_solve, mat_random
from qlax import cli, render

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


def test_dumps_matches_the_stdlib_on_a_solve_report(tmp_path, monkeypatch, capsys):
    # a 4x4 solve at N = 10 pads every q^k coefficient with k shared zeros
    alg = MatrixAlgebra(4)
    path = tmp_path / "m4.json"
    path.write_text(json.dumps({
        "backend": "matrix",
        "L0": mat_random(4, 7, 3).scale(Fraction(2, 3)).to_json(),
        "P": [[0, mat_random(4, 11, 2).to_json()], [1, mat_random(4, 13, 2).to_json()]],
        "N": 10,
    }))
    docs = []
    monkeypatch.setattr(cli, "dumps", lambda obj: docs.append(obj) or render.dumps(obj))
    assert cli.main(["lax-solve", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    (doc,) = docs
    pads = doc["W"]["coeffs"][10]["t_coeffs"][:10]
    assert len({id(x) for x in pads}) == 1 and pads[0] == alg.zero.to_json()
    assert out == stdlib(doc)


def test_first_nonzero_names_a_perturbed_coefficient():
    # a term c*q^j added to Lq adds j*c*t^(j-1) to dLq/dt at q^j, while
    # [Pq, Lq] moves only from q^(j+1) on, as Pq has no q^0 coefficient
    alg = MatrixAlgebra(3)
    prob = LaxProblem(p=TPoly.of(alg, [mat_random(3, 5, 2), mat_random(3, 6, 2)]), l0=mat_random(3, 8, 2), n=4)
    sol = lax_solve(prob)
    assert render.first_nonzero(lax_residual(sol.lq, sol.pq)) is None
    bump = mat_random(3, 9, 2)
    assert not bump.is_zero()
    for j in range(1, prob.n + 1):
        lq = sol.lq + QSeries.term(alg, prob.n, bump, j)
        assert render.first_nonzero(lax_residual(lq, sol.pq)) == (j, j - 1)
