"""Deformation, time-ordered exponentials, and the Lax flow."""

from fractions import Fraction

import pytest

from qlax import (
    LaxProblem,
    MatrixAlgebra,
    PsdoAlgebra,
    QSeries,
    RatMatrix,
    TPoly,
    ValuationError,
    commutator,
    defects,
    deform,
    dt_series,
    eval_tq,
    iterated_integrals,
    kdv_pair,
    lax_residual,
    lax_solve,
    mat_random,
    parse_operator,
    texp,
)

from qlax.laxflow import flow

from conftest import int_stream, rint
from reference import t_power, trace, truncated

M2 = MatrixAlgebra(2)
NILP = RatMatrix.of([[0, 1], [0, 0]])
DIAG = RatMatrix.of([[1, 0], [0, -1]])


def nilpotent_problem(n: int = 2) -> LaxProblem:
    return LaxProblem(p=TPoly.const(M2, NILP), l0=DIAG, n=n)


def rand_problem(seed: int, n: int, nn: int, deg: int) -> LaxProblem:
    """Random matrix problem with a nonzero t-constant coefficient."""
    alg = MatrixAlgebra(nn)
    stream = int_stream(seed)
    while True:
        coeffs = [mat_random(nn, next(stream), 2) for _ in range(deg + 1)]
        if not coeffs[0].is_zero():
            break
    return LaxProblem(p=TPoly.of(alg, coeffs), l0=mat_random(nn, next(stream), 2), n=n)


# -- problem validation ------------------------------------------------------

def test_problem_validation():
    with pytest.raises(ValueError):
        LaxProblem(p=TPoly.const(M2, NILP), l0=DIAG, n=0)
    with pytest.raises(ValueError):
        LaxProblem(p=t_power(M2, NILP, 3), l0=DIAG, n=2)


# -- deform ------------------------------------------------------------------

def test_deform_constant():
    pq = deform(TPoly.const(M2, NILP), 3)
    assert pq.val() == 1
    assert pq.coeffs[1] == NILP
    assert pq.coeffs[2].is_zero()


def test_deform_linear_term_lands_at_q2():
    a, b = DIAG, NILP
    p = TPoly.of(M2, [a, b])  # a + t*b
    pq = deform(p, 2)
    assert pq.coeffs[1] == a  # a at q^1 t^0
    assert pq.coeffs[2] == b  # b at q^2 t^1


def test_deform_truncation_boundary_raises():
    with pytest.raises(ValueError):  # t^1 lands at q^2, one past N = 1
        deform(t_power(M2, NILP, 1), 1)


# -- texp ---------------------------------------------------------------------

def test_texp_of_zero():
    assert texp(QSeries.zero(M2, 3)) == QSeries.one(M2, 3)


def test_texp_time_independent_is_ordinary_exponential():
    a = RatMatrix.of([[1, 1], [0, 1]])
    pq = deform(TPoly.const(M2, a), 4)
    w = texp(pq)
    # q^i coefficient is t^i a^i / i!
    fact = 1
    power = M2.one
    for i in range(5):
        assert w.coeffs[i] == power.scale(Fraction(1, fact))
        power = power * a
        fact *= i + 1


def test_texp_nilpotent_matches_matrix_exponential():
    # oracle: exp of the nilpotent path q*t*P is 1 + q*t*P, exactly
    pq = deform(TPoly.const(M2, NILP), 3)
    w = texp(pq)
    expected = QSeries.one(M2, 3) + QSeries.term(M2, 3, NILP, 1)
    assert w == expected


def test_texp_rejects_valuation_zero():
    bad = QSeries.constant(M2, 2, NILP)
    with pytest.raises(ValuationError):
        texp(bad)
    with pytest.raises(ValuationError):
        lax_residual(QSeries.one(M2, 2), bad)


def test_texp_defining_ode():
    for seed in range(6):
        prob = rand_problem(seed, n=3 + seed % 3, nn=2 + seed % 2, deg=seed % 2)
        pq = deform(prob.p, prob.n)
        w = texp(pq)
        assert dt_series(w) == pq * w
        # W starts at the identity
        assert eval_tq(w, 0, Fraction(1, 3)) == w.alg.one


def sum_of_iterated_integrals(pq: QSeries) -> QSeries:
    """The reference W: a_0 + ... + a_N."""
    terms = iterated_integrals(pq)
    acc = terms[0]
    for a in terms[1:]:
        acc = acc + a
    return acc


def test_texp_matches_iterated_integrals_on_matrix_problems():
    stream = int_stream(31)
    for n in range(1, 9):
        for _ in range(2):
            deg = rint(stream, 0, n - 1)
            prob = rand_problem(next(stream), n=n, nn=rint(stream, 2, 3), deg=deg)
            pq = deform(prob.p, prob.n)
            assert texp(pq) == sum_of_iterated_integrals(pq)


def test_texp_matches_iterated_integrals_without_homogeneity():
    # the recurrence needs only val(pq) >= 1: any coefficients at q^1..q^N,
    # zeros among them, not only the paths deform builds
    stream = int_stream(37)
    for n in range(1, 7):
        coeffs = [M2.zero] + [
            mat_random(2, next(stream), 2) if rint(stream, 0, 3) else M2.zero
            for _ in range(n)
        ]
        pq = QSeries.of(M2, coeffs)
        assert texp(pq) == sum_of_iterated_integrals(pq)


def test_texp_matches_iterated_integrals_on_kdv_pairs():
    l0, p = kdv_pair()
    palg = PsdoAlgebra()
    rescaled = parse_operator("(-1/3)*d^3 + (5/4)*(d*u + u*d)")
    for path, n in (
        (TPoly.const(palg, p), 3),
        (TPoly.const(palg, rescaled), 3),
        (TPoly.of(palg, [rescaled, l0]), 4),
    ):
        pq = deform(path, n)
        assert texp(pq) == sum_of_iterated_integrals(pq)


def test_lax_solve_matrix_product_count(monkeypatch):
    """Operation-count guard for one 3x3 lax_solve at N = 10, deg_t P = d = 2,
    with W read as well.

    Every q^k coefficient of Pq, W and Lq is a single matrix, and pq_m
    vanishes for m > d + 1, so one Taylor recurrence costs
    sum_{k=1..N} min(k, d+1) = (d+1)N - d(d+1)/2 = 27 steps: one product
    each for W = texp(Pq) and two (the bracket) for Lq = flow(L0), 81 in
    all.  Every matrix product goes through ``RatMatrix.dot``, so the count
    is over the pairs it receives, a bracket pair counting as its two
    products.  Conjugating L0 by W with a unipotent inverse took 159.
    """
    n, d = 10, 2
    bound = 3 * ((d + 1) * n - d * (d + 1) // 2)
    calls = []
    dot = RatMatrix.dot

    def counting(pairs, bracket=False, divisor=1):
        calls.extend([1] * (len(pairs) * (2 if bracket else 1)))
        return dot(pairs, bracket, divisor)

    prob = rand_problem(1, n=n, nn=3, deg=d)
    monkeypatch.setattr(RatMatrix, "dot", staticmethod(counting))
    sol = lax_solve(prob)
    sol.w
    assert 0 < len(calls) <= bound == 81
    calls.clear()
    prob.l0 * prob.l0, prob.l0.bracket(prob.l0)
    assert len(calls) == 3  # the one-pair product and bracket are counted too


def test_lax_solve_command_product_count(monkeypatch, tmp_path, capsys):
    """The whole ``lax-solve`` command on the problem above passes no more
    pairs to ``RatMatrix.dot`` than solving for Lq and W takes: its checks
    compare in integers, and a passing run builds no residual series."""
    import json

    from qlax.cli import main

    prob = rand_problem(1, n=10, nn=3, deg=2)
    path = tmp_path / "matrix3x3_n10.json"
    path.write_text(json.dumps({
        "backend": "matrix",
        "L0": prob.l0.to_json(),
        "P": [[k, c.to_json()] for k, c in enumerate(prob.p.coeffs)],
        "N": prob.n,
    }))
    calls = []
    dot = RatMatrix.dot

    def counting(pairs, bracket=False, divisor=1):
        calls.extend([1] * (len(pairs) * (2 if bracket else 1)))
        return dot(pairs, bracket, divisor)

    monkeypatch.setattr(RatMatrix, "dot", staticmethod(counting))
    for fmt in ("text", "json"):
        calls.clear()
        assert main(["lax-solve", str(path), "--format", fmt]) == 0
        assert 0 < len(calls) <= 81, fmt
    capsys.readouterr()


def test_defects_match_the_residual_series():
    """defects maps each q-order where the residual series of either
    equation is nonzero to that coefficient's max_abs, on solutions and
    with one coefficient bumped at a random order; the old residual
    expressions are the reference, floors of symbols included."""
    import random

    from qlax import DiffPoly, PsdoSymbol

    def reference(r):
        return {k: c.max_abs() for k, c in enumerate(r.coeffs) if not c.is_zero()}

    rng = random.Random(3)
    cases = []
    for seed in range(12):
        n, nn = 2 + seed % 5, 2 + seed % 3
        prob = rand_problem(seed + 300, n=n, nn=nn, deg=min(seed % 3, n - 1))
        bumps = [mat_random(nn, seed, 2), mat_random(nn, seed + 50, 3).scale(Fraction(2, 3))]
        cases.append((prob, bumps))
    l_op, p_op = kdv_pair()
    palg = PsdoAlgebra()
    u = DiffPoly.u(0)
    kdv_bumps = [PsdoSymbol.from_dp(u.dx()), parse_operator("d + u").scale(Fraction(1, 2)), PsdoSymbol.of([(0, u)], floor=-1)]
    for n in (1, 2, 3):
        cases.append((LaxProblem(p=TPoly.const(palg, p_op), l0=l_op, n=n), kdv_bumps))
        if n > 1:
            cases.append((LaxProblem(p=TPoly.of(palg, [p_op, l_op]), l0=l_op, n=n), kdv_bumps))
    bumped = 0
    for prob, bumps in cases:
        sol = lax_solve(prob)
        pq, alg = sol.pq, sol.pq.alg
        assert defects(sol.lq, pq, True) == {} == reference(lax_residual(sol.lq, pq))
        assert defects(sol.w, pq, False) == {} == reference(dt_series(sol.w) - pq * sol.w)
        for bump in bumps:
            k = rng.randrange(prob.n + 1)
            lq = sol.lq + QSeries.term(alg, prob.n, bump, k)
            w = sol.w + QSeries.term(alg, prob.n, bump, k)
            found = defects(lq, pq, True)
            assert found == reference(lax_residual(lq, pq)), (prob.n, k)
            assert defects(w, pq, False) == reference(dt_series(w) - pq * w), (prob.n, k)
            bumped += len(found) > 1
    assert bumped  # a bump below q^N moves later orders too


def test_defects_raise_what_the_residual_raises():
    from qlax import TruncationMismatch

    bad = QSeries.constant(M2, 2, NILP)
    with pytest.raises(ValuationError):
        defects(QSeries.one(M2, 2), bad, True)
    pq = deform(TPoly.const(M2, NILP), 3)
    for bracket in (True, False):
        with pytest.raises(TruncationMismatch):
            defects(QSeries.one(M2, 2), pq, bracket)


def test_dot_defect_of_no_pairs_measures_k_times_the_target():
    # an order with no step pairs compares k*x_k with the empty sum 0: None
    # exactly when k*target is 0, else the largest magnitude of k*target
    from qlax import PsdoSymbol

    targets = (
        RatMatrix.zeros(2), NILP, DIAG.scale(Fraction(-3, 7)),
        PsdoSymbol.zero(), kdv_pair().L, parse_operator("d + u").scale(Fraction(1, 2)),
    )
    for target in targets:
        for bracket in (False, True):
            for k in (0, 1, 3):
                expected = None if k == 0 or target.is_zero() else k * target.max_abs()
                assert type(target).dot_defect([], bracket, k, target) == expected, (target, bracket, k)


def test_lax_solve_computes_w_only_when_read(monkeypatch):
    import qlax.laxflow

    calls = []
    monkeypatch.setattr(qlax.laxflow, "texp", lambda pq: calls.append(pq) or texp(pq))
    sol = lax_solve(nilpotent_problem(3))
    assert calls == []
    assert sol.w is sol.w and sol.w == texp(sol.pq)
    assert calls == [sol.pq]


def conjugation(w: QSeries, x) -> QSeries:
    """The reference flow W x W^-1, with the unipotent inverse."""
    return w * QSeries.constant(w.alg, w.trunc, x) * w.invert_unipotent()


def test_flow_is_the_conjugation_on_matrix_problems():
    stream = int_stream(41)
    for n in range(1, 7):
        for nn in (2, 3):
            prob = rand_problem(next(stream), n=n, nn=nn, deg=rint(stream, 0, n - 1))
            sol = lax_solve(prob)
            assert sol.lq == conjugation(sol.w, prob.l0)
            x = mat_random(nn, next(stream), 2)
            assert flow(x, sol.pq) == conjugation(sol.w, x)


def test_flow_is_the_conjugation_on_kdv_pairs():
    l0, p = kdv_pair()
    palg = PsdoAlgebra()
    rescaled = parse_operator("(-1/3)*d^3 + (5/4)*(d*u + u*d)")
    for path, n in ((TPoly.const(palg, p), 3), (TPoly.of(palg, [rescaled, l0]), 3)):
        sol = lax_solve(LaxProblem(p=path, l0=l0, n=n))
        assert sol.lq == conjugation(sol.w, l0)
        assert flow(p, sol.pq) == conjugation(sol.w, p)


def test_flow_rejects_valuation_zero():
    with pytest.raises(ValuationError):
        flow(DIAG, QSeries.constant(M2, 2, NILP))


def test_iterated_integral_valuations():
    for seed in (1, 2, 3):
        prob = rand_problem(seed, n=5, nn=3, deg=1)
        pq = deform(prob.p, prob.n)
        for i, a_i in enumerate(iterated_integrals(pq)):
            assert a_i.val() >= i


def test_second_iterated_integral_hand_oracle():
    """Ground truth by nested symbolic integration of P(t) = A + t*B:

        Pq = q*A + q^2*t*B
        a_1 = q*t*A + q^2*(t^2/2)*B
        a_2 = q^2*(t^2/2)*A^2 + q^3*(t^3/3)*(A*B/2 + B*A) + q^4*(t^4/8)*B^2

    The asymmetric q^3 weights (B*A twice A*B) pin the time ordering: the
    later-time factor multiplies on the left.
    """
    a = RatMatrix.of([[0, 1], [0, 0]])
    b = RatMatrix.of([[0, 0], [1, 0]])
    pq = deform(TPoly.of(M2, [a, b]), 4)
    a_2 = iterated_integrals(pq)[2]
    assert a_2.coeffs[0].is_zero() and a_2.coeffs[1].is_zero()
    assert a_2.coeffs[2] == (a * a).scale(Fraction(1, 2))
    expected_q3 = (a * b).scale(Fraction(1, 6)) + (b * a).scale(Fraction(1, 3))
    assert a_2.coeffs[3] == expected_q3
    assert a_2.coeffs[4] == (b * b).scale(Fraction(1, 8))


# -- lax_solve ------------------------------------------------------------------

def test_solve_zero_path():
    prob = LaxProblem(p=TPoly.of(M2, []), l0=DIAG, n=3)
    sol = lax_solve(prob)
    assert sol.lq == QSeries.constant(M2, 3, DIAG)
    assert lax_residual(sol.lq, sol.pq).is_zero()


def test_solve_nilpotent_frozen_values():
    # oracle: conjugating by 1 + qtP kills everything above q^1:
    # Lq = [[1, -2qt], [0, -1]] on the nose
    sol = lax_solve(nilpotent_problem(2))
    assert sol.lq.coeffs[0] == DIAG
    assert sol.lq.coeffs[1] == RatMatrix.of([[0, -2], [0, 0]])
    assert sol.lq.coeffs[2].is_zero()
    assert lax_residual(sol.lq, sol.pq).is_zero()


def test_solve_kdv_matches_adjoint_series():
    # oracle: for a t-constant path, the q^k t^k coefficient is ad^k(L0)/k!
    from qlax import PsdoSymbol, parse_diffpoly

    l0, p = kdv_pair()
    palg = PsdoAlgebra()
    prob = LaxProblem(p=TPoly.const(palg, p), l0=l0, n=2)
    sol = lax_solve(prob)
    ad1 = commutator(p, l0)
    ad2 = commutator(p, ad1)
    assert sol.lq.coeffs[0] == l0
    assert sol.lq.coeffs[1] == ad1
    assert sol.lq.coeffs[2] == ad2.scale(Fraction(1, 2))
    # and the q^1 coefficient is the flow right-hand side
    assert ad1 == PsdoSymbol.from_dp(parse_diffpoly("6*u*u_1 - u_3"))


def test_solve_time_independent_matches_adjoint_series():
    # q^k t^k coefficient of Lq is ad_P^k(L0)/k! for a t-constant path
    p = mat_random(3, 77, 2)
    l0 = mat_random(3, 78, 2)
    alg = MatrixAlgebra(3)
    sol = lax_solve(LaxProblem(p=TPoly.const(alg, p), l0=l0, n=4))
    acc = l0
    fact = 1
    for k in range(5):
        assert sol.lq.coeffs[k] == acc.scale(Fraction(1, fact))
        acc = p * acc - acc * p
        fact *= k + 1


def test_residual_zero_for_solutions():
    for seed in range(8):
        prob = rand_problem(seed + 100, n=2 + seed % 4, nn=2 + seed % 3, deg=min(1, (2 + seed % 4) - 1))
        sol = lax_solve(prob)
        assert lax_residual(sol.lq, sol.pq).is_zero()


def test_residual_detects_non_solution():
    prob = nilpotent_problem(2)
    pq = deform(prob.p, prob.n)
    frozen = QSeries.constant(M2, 2, DIAG)
    res = lax_residual(frozen, pq)
    assert not res.is_zero()
    bracket = NILP * DIAG - DIAG * NILP
    assert res.coeffs[1] == -bracket


def test_residual_report_pins_t_degrees():
    # the q^k coefficient of a residual carries t^(k-1): a frozen Lq = L0
    # against P = A + t*B + t^2*C leaves -[A, L0], -t*[B, L0], -t^2*[C, L0]
    from qlax.render import residual_report

    p = TPoly.of(M2, [NILP, RatMatrix.of([[0, 0], [2, 0]]), DIAG])
    sol = lax_solve(LaxProblem(p=p, l0=RatMatrix.of([["1", "1/2"], [3, 0]]), n=3))
    frozen = QSeries.constant(sol.lq.alg, 3, sol.lq.coeffs[0])
    assert residual_report(defects(frozen, sol.pq, True), 3) == {
        "schema": "qlax/residual/1",
        "zero": False,
        "lossy": False,
        "orders": [
            {"q_order": 0, "max_norm": "0", "t_norms": []},
            {"q_order": 1, "max_norm": "3", "t_norms": ["3"]},
            {"q_order": 2, "max_norm": "2", "t_norms": ["0", "2"]},
            {"q_order": 3, "max_norm": "6", "t_norms": ["0", "0", "6"]},
        ],
    }


def test_residual_kdv_n3():
    l0, p = kdv_pair()
    palg = PsdoAlgebra()
    prob = LaxProblem(p=TPoly.const(palg, p), l0=l0, n=3)
    sol = lax_solve(prob)
    assert lax_residual(sol.lq, sol.pq).is_zero()


def test_isospectral_traces():
    for seed in (0, 5):
        prob = rand_problem(seed + 40, n=3, nn=3, deg=1)
        sol = lax_solve(prob)
        power = sol.lq
        for m in (1, 2, 3):
            traces = [trace(c) for c in power.coeffs]
            # constant in t: the q^k coefficient carries t^k, so it must
            # vanish for every k >= 1
            for c in traces[1:]:
                assert c == 0
            if m < 3:
                power = power * sol.lq


def test_truncation_consistency():
    for seed in (7, 9):
        deep = lax_solve(rand_problem(seed, n=5, nn=2, deg=1))
        shallow = lax_solve(rand_problem(seed, n=3, nn=2, deg=1))
        assert truncated(deep.lq, 3) == shallow.lq
        assert truncated(deep.w, 3) == shallow.w


def test_eval_tq():
    sol = lax_solve(nilpotent_problem(2))
    value = eval_tq(sol.lq, Fraction(1, 2), Fraction(1, 4))
    assert value == RatMatrix.of([["1", "-1/4"], ["0", "-1"]])
