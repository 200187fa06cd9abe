"""Acceptance suite: every shipped guarantee, one verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  All
checks are exact identities (the convergence study asserts a ratio band on
exact errors); the stated time budgets are asserted too.

Criteria 3, 4 and 5 share one batch of 100 seeded matrix instances; the
batch is solved once and cached, and the solve time is charged to
criterion 3.
"""

import time
from fractions import Fraction

from qlax import (
    BiOp,
    BiOpAlgebra,
    LaxProblem,
    MatrixAlgebra,
    PsdoAlgebra,
    PsdoSymbol,
    QSeries,
    TPoly,
    commutator,
    convergence_study,
    deform,
    exp_ad,
    iterated_integrals,
    kdv_pair,
    lax_residual,
    lax_solve,
    mat_random,
    parse_diffpoly,
    residual_vanishes,
    symmetry3_residual,
    transport,
    transported_solution_check,
)
from qlax.cli import main as cli_main

from conftest import int_stream, rand_matrix_qseries, rand_psdo_qseries


def report(num: int, ok: bool, detail: str) -> None:
    print(f"acceptance criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


# -- shared instance batch (criteria 3, 4, 5) --------------------------------

def make_instance(i: int) -> LaxProblem:
    """Deterministic instance i: n <= 4, N <= 6, deg_t(P) <= N - 1,
    P(0) != 0 and L0 != 0 so both deformed valuations are on the nose."""
    nn = 1 + i % 4
    n = 1 + (i // 4) % 6
    deg = min(n - 1, i % 3)
    alg = MatrixAlgebra(nn)
    stream = int_stream(1000 + i)
    while True:
        coeffs = [mat_random(nn, next(stream), 2) for _ in range(deg + 1)]
        if not coeffs[0].is_zero():
            break
    while True:
        l0 = mat_random(nn, next(stream), 2)
        if not l0.is_zero():
            break
    return LaxProblem(p=TPoly.of(alg, coeffs), l0=l0, n=n)


_batch = {}


def solved_batch():
    if "runs" not in _batch:
        problems = [make_instance(i) for i in range(100)]
        start = time.monotonic()
        runs = []
        for prob in problems:
            sol = lax_solve(prob)
            res = lax_residual(sol.lq, sol.pq)
            runs.append((prob, sol, res))
        _batch["elapsed"] = time.monotonic() - start
        _batch["runs"] = runs
    return _batch["runs"], _batch["elapsed"]


# -- criterion 1 ---------------------------------------------------------------

def test_criterion_1_kdv_pair_identity():
    start = time.monotonic()
    l_op, p_op = kdv_pair()
    bracket = commutator(p_op, l_op)
    expected = PsdoSymbol.from_dp(parse_diffpoly("6*u*u_1 - u_3"))
    exact = bracket == expected
    cli_ok = cli_main(["kdv-verify"]) == 0
    elapsed = time.monotonic() - start
    report(1, exact and cli_ok and elapsed < 1.0,
           f"exact symbol identity, cli exit 0, {elapsed:.2f}s < 1s")


# -- criterion 2 ---------------------------------------------------------------

def test_criterion_2_exponential_bijection():
    start = time.monotonic()
    failures = 0
    m2 = MatrixAlgebra(2)
    for n in range(1, 7):
        for i in range(100):
            stream = int_stream(2000 + 97 * n + i)
            s = rand_matrix_qseries(m2, stream, n, val_min=1, bound=2)
            g = QSeries.one(m2, n) + s
            if s.exp().log() != s or g.log().exp() != g:
                failures += 1
    for n in range(1, 7):
        for i in range(100):
            stream = int_stream(3000 + 97 * n + i)
            s = rand_psdo_qseries(stream, n, val_min=1, max_jet=1, max_exp=1)
            g = QSeries.one(PsdoAlgebra(), n) + s
            if s.exp().log() != s or g.log().exp() != g:
                failures += 1
    elapsed = time.monotonic() - start
    report(2, failures == 0 and elapsed < 10.0,
           f"1200 round trips x2 directions, {failures} failures, {elapsed:.1f}s < 10s")


# -- criterion 3 ---------------------------------------------------------------

def test_criterion_3_deformed_solution_residual():
    runs, elapsed = solved_batch()
    start = time.monotonic()
    matrix_bad = sum(1 for _, _, res in runs if not res.is_zero())
    kdv_bad = 0
    l_op, p_op = kdv_pair()
    palg = PsdoAlgebra()
    for n in (1, 2, 3):
        sol = lax_solve(LaxProblem(p=TPoly.const(palg, p_op), l0=l_op, n=n))
        if not lax_residual(sol.lq, sol.pq).is_zero():
            kdv_bad += 1
    total = elapsed + (time.monotonic() - start)
    report(3, matrix_bad == 0 and kdv_bad == 0 and total < 60.0,
           f"100 matrix + KdV N<=3 residuals all zero, {total:.1f}s < 60s")


# -- criterion 4 ---------------------------------------------------------------

def test_criterion_4_valuation_grading():
    runs, _ = solved_batch()
    bad = 0
    for _, sol, _ in runs:
        if sol.pq.val() != 1 or sol.lq.val() != 0:
            bad += 1
        for i, a_i in enumerate(iterated_integrals(sol.pq)):
            if a_i.val() < i:
                bad += 1
    report(4, bad == 0, "val(Pq) = 1, val(Lq) = 0, val(a_i) >= i on all 100 runs")


# -- criterion 5 ---------------------------------------------------------------

def test_criterion_5_ad_exp_identity():
    runs, _ = solved_batch()
    bad = 0
    from qlax import apply_to_probe

    for prob, sol, _ in runs:
        e = exp_ad(sol.pq)
        winv = sol.w.invert_unipotent()
        for x in prob.alg.probes():
            conj = sol.w * QSeries.constant(prob.alg, prob.n, x) * winv
            if apply_to_probe(e, x) != conj:
                bad += 1
    report(5, bad == 0, "exp_ad action equals W X W^-1 on all probes, all 100 runs")


# -- criterion 6 ---------------------------------------------------------------

def test_criterion_6_symmetry_transport():
    bad = []
    for i in range(50):
        nn = 2 + i % 2
        n = 1 + i % 5
        alg = MatrixAlgebra(nn)
        stream = int_stream(6000 + i)
        while True:
            deg = min(n - 1, i % 2)
            coeffs = [mat_random(nn, next(stream), 2) for _ in range(deg + 1)]
            if not coeffs[0].is_zero():
                break
        prob = LaxProblem(p=TPoly.of(alg, coeffs), l0=mat_random(nn, next(stream), 2), n=n)
        s0 = BiOp.of(
            alg,
            [
                (mat_random(nn, next(stream), 2), mat_random(nn, next(stream), 2)),
                (mat_random(nn, next(stream), 2), mat_random(nn, next(stream), 2)),
            ],
        )
        sol = lax_solve(prob)
        sq = transport(s0, sol.pq)
        if not residual_vanishes(symmetry3_residual(sq, sol.pq), alg.probes()):
            bad.append((i, "symmetry3"))
        if not transported_solution_check(s0, prob, sol, sq):
            bad.append((i, "transported"))

    l_op, p_op = kdv_pair()
    palg = PsdoAlgebra()
    probes = palg.probes() + [l_op, p_op]
    for n in (1, 2):
        prob = LaxProblem(p=TPoly.const(palg, p_op), l0=l_op, n=n)
        sol = lax_solve(prob)
        for s0 in (BiOp.identity(palg), BiOp.of(palg, [(l_op, PsdoSymbol.one())])):
            sq = transport(s0, sol.pq)
            if not residual_vanishes(symmetry3_residual(sq, sol.pq), probes):
                bad.append(("kdv", n, "symmetry3"))
            if not transported_solution_check(s0, prob, sol, sq):
                bad.append(("kdv", n, "transported"))
    report(6, not bad, f"50 matrix + 4 KdV transports, failures: {bad or 'none'}")


# -- criterion 7 ---------------------------------------------------------------

def test_criterion_7_truncation_error_order():
    start = time.monotonic()
    lo, hi = Fraction(7, 10) * 8, Fraction(13, 10) * 8
    bad = []
    for i in range(10):
        alg = MatrixAlgebra(3)
        stream = int_stream(7000 + i)
        while True:
            coeffs = [mat_random(3, next(stream), 2) for _ in range(1 + i % 2)]
            if not coeffs[0].is_zero():
                break
        prob = LaxProblem(p=TPoly.of(alg, coeffs), l0=mat_random(3, next(stream), 2), n=2)
        rep = convergence_study(prob, [Fraction(1, 8), Fraction(1, 16)], ref_n=8)
        ratio = rep.points[1].ratio_to_prev
        if ratio is None or not (lo <= ratio <= hi):
            bad.append((i, None if ratio is None else float(ratio)))
    elapsed = time.monotonic() - start
    report(7, not bad and elapsed < 30.0,
           f"10 problems, ratios within [0.7, 1.3]*8, {elapsed:.1f}s < 30s; off: {bad or 'none'}")


# -- criterion 8 ---------------------------------------------------------------

def test_criterion_8_negative_controls():
    print("criterion 8 negative control: the FAIL lines below are expected")
    perturbed_fails = cli_main(["kdv-verify", "--perturb", "1"]) == 1

    m2 = MatrixAlgebra(2)
    from qlax import RatMatrix

    p = RatMatrix.of([[0, 1], [1, 0]])
    prob = LaxProblem(p=TPoly.const(m2, p), l0=RatMatrix.of([[1, 2], [0, -1]]), n=2)
    pq = deform(prob.p, prob.n)
    s0 = BiOp.of(m2, [(RatMatrix.of([[0, 1], [0, 0]]), m2.one)])
    balg = BiOpAlgebra(m2)
    frozen = QSeries.constant(balg, prob.n, s0)
    frozen_detected = not residual_vanishes(
        symmetry3_residual(frozen, pq), m2.probes()
    )

    e12 = RatMatrix.of([[0, 1], [0, 0]])
    e21 = RatMatrix.of([[0, 0], [1, 0]])
    a = QSeries.term(m2, 2, e12, 1)
    b = QSeries.term(m2, 2, e21, 1)
    noncommutative_detected = (a + b).exp() != a.exp() * b.exp()
    expected_defect = (e21 * e12 - e12 * e21).scale(Fraction(1, 2))
    defect_is_half_bracket = ((a + b).exp() - a.exp() * b.exp()).coeffs[2] == expected_defect

    report(
        8,
        perturbed_fails and frozen_detected and noncommutative_detected and defect_is_half_bracket,
        "perturbed pair fails, frozen symmetry detected, noncommutativity detected",
    )
