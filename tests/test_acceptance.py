"""Acceptance criteria, one test per criterion.

Each criterion gets exactly one test function, so a verbose pytest run
prints exactly one pass/fail line per criterion.  Timing budgets are
asserted with wall-clock measurements around the relevant suite.
"""

import math
import random
import time

from dlforge.expressions import en_level_witness, format_expression, min_en_level, parse_expression
from dlforge.formal_groups import appendix_pipeline, check_associativity, preset
from dlforge.homology import (
    check_dl_compatibility,
    dual_steenrod,
    indecomposable_dimension,
    indeterminacy_scan,
    map_p,
    mu_homology,
)
from dlforge.hopf_ring import verify_gotcha_chain
from dlforge.polynomial import binomial_mod2
from dlforge.relations import (
    SIGMA_R_IMAGE,
    big_relation_expression,
    big_relation_residual,
    juggling_residual,
    suspended_relation,
    verify_auxiliary_identities,
    y_context,
)
from dlforge.rewriting import normalize_word
from dlforge.series import TruncatedSeries, signature
from dlforge.polynomial import QQ, PolynomialRing
from dlforge.relations import x_context
from dlforge.suites import (
    PRIDDY_IDENTITIES,
    PRIDDY_VALUES,
    STEINBERGER_IDENTITIES,
    STEINBERGER_VALUES,
    run_suite,
    statement_sides,
)


def announce(number, label, ok):
    print("criterion %02d %s: %s" % (number, label, "PASS" if ok else "FAIL"))
    assert ok, label


def test_criterion_01_big_relation_normalizes_to_zero():
    start = time.perf_counter()
    relation_ok = big_relation_residual().is_zero()
    identities_ok = all(holds for _, _, holds, _ in verify_auxiliary_identities())
    elapsed = time.perf_counter() - start
    announce(1, "big relation + auxiliary identities", relation_ok and identities_ok and elapsed < 5.0)


def test_criterion_02_en_level_is_twelve():
    expr = big_relation_expression()
    level_ok = min_en_level(expr, y_context()) == 12
    witness_ok = en_level_witness(expr, y_context()) == (20, 10)
    announce(2, "operadic level 12 forced by Q^20 on degree 10", level_ok and witness_ok)


def test_criterion_03_priddy_table():
    M = mu_homology()
    table_ok = len(PRIDDY_VALUES) == 7 and len(PRIDDY_IDENTITIES) == 4
    sides_ok = all(
        got == want for got, want in (statement_sides(M, st) for st in PRIDDY_VALUES + PRIDDY_IDENTITIES)
    )
    announce(3, "seven operation values and four identities on b-classes", table_ok and sides_ok)


def test_criterion_04_steinberger_table():
    start = time.perf_counter()
    A = dual_steenrod()
    table_ok = len(STEINBERGER_VALUES) == 5 and len(STEINBERGER_IDENTITIES) == 3
    sides_ok = all(
        got == want
        for got, want in (
            statement_sides(A, st) for st in STEINBERGER_VALUES + STEINBERGER_IDENTITIES
        )
    )
    elapsed = time.perf_counter() - start
    announce(4, "five conjugate values incl. degree 31, three square identities", table_ok and sides_ok and elapsed < 10.0)


def test_criterion_05_model_compatibility():
    ok, _ = check_dl_compatibility(24, 14)
    A = dual_steenrod()
    M = mu_homology()
    spot = map_p(M.q(4, M.b(1)), M, A) == A.q_xi1(2) ** 2
    announce(5, "squaring map commutes with operations; spot value agrees", ok and spot)


def test_criterion_06_juggling_identity():
    composite_ok = juggling_residual().is_zero()
    sus = suspended_relation()
    want = parse_expression(SIGMA_R_IMAGE, sus.target)
    sigma_ok = format_expression(sus.image("z'31")) == format_expression(want)
    announce(6, "two substitution routes agree; suspension matches displayed form", composite_ok and sigma_ok)


def test_criterion_07_appendix_pipeline():
    start = time.perf_counter()
    r = appendix_pipeline(2, preset("appendix-z-v3"))
    ring = r.f_n.ring
    v3 = ring.gen("v3")
    ok = (
        r.bracket2.coefficient({"alpha": 0}) == ring.scalar(2)
        and r.bracket2.coefficient({"alpha": 7}) == v3.scale(-127)
        and r.g.coefficient({"x": 3, "alpha": 6}) == v3.scale(-14)
        and r.kinv.coefficient({"y": 2, "alpha": 0}) == ring.scalar(-1)
        and r.kinv.coefficient({"y": 2, "alpha": 7}) == v3.scale(4)
        and r.kinv.coefficient({"y": 3, "alpha": 0}) == ring.scalar(2)
        and r.kinv.coefficient({"y": 3, "alpha": 7}) == v3.scale(-2)
        and r.f_n.coefficient({"alpha": 0}) == ring.scalar(6)
        and r.f_n.coefficient({"alpha": 7}) == v3.scale(-6)
        and r.h_n == TruncatedSeries.constant(r.h_n.sig, ring, ring.scalar(3))
        and r.raw.coefficient({"alpha": 3}) == v3.scale(375)
        and r.reduced.coefficient({"alpha": 3}) == v3
        and all(flag for _, flag in r.checks)
    )
    elapsed = time.perf_counter() - start
    announce(7, "pipeline intermediates match the table", ok and elapsed < 1.0)


def test_criterion_08_hopf_chain_endpoints():
    k5 = verify_gotcha_chain(k=5)
    k4 = verify_gotcha_chain(k=4)
    ok = str(k5["endpoint"]) == "sigma x7" and all(s["ok"] for s in k5["steps"]) and k4["endpoint"].is_zero()
    announce(8, "composed chain ends at sigma x7 for k=5 and at 0 for k=4", ok)


def test_criterion_09_indecomposability_scans():
    A = dual_steenrod()
    dims_ok = all(indecomposable_dimension(A, d) == 0 for d in (5, 11, 13, 14))
    dims_ok = dims_ok and indecomposable_dimension(A, 31) == 1
    scan = indeterminacy_scan(suspended_relation(), A, {"x": A.xi(1) * A.xi(1)})
    report = run_suite("indeterminacy", {"scrub_timing": True})
    announce(
        9,
        "no indecomposables in low degrees; degree-31 scan all decomposable",
        dims_ok and scan["all_decomposable"] and report["overall"] == "pass",
    )


def test_criterion_10_property_suites_and_full_run():
    # rewriting confluence corpus
    ctx = x_context()
    rng = random.Random(20260815)
    confluent = True
    for _ in range(500):
        word = [rng.randint(1, 20) for _ in range(rng.randint(1, 4))]
        a = normalize_word(word, "x", ctx, strategy="bottom-up")
        b = normalize_word(word, "x", ctx, strategy="top-down")
        c = normalize_word(word, "x", ctx, strategy="rightmost")
        confluent = confluent and a == b == c

    # series round-trips
    sig = signature(("t",), (10,))
    ring = PolynomialRing(QQ, [])
    t = TruncatedSeries.variable(sig, ring, "t")
    f = TruncatedSeries.constant(sig, ring, ring.one()) + t + (t ** 2).scale(ring.scalar(3))
    series_ok = f * f.invert() == TruncatedSeries.constant(sig, ring, ring.one())
    g = t + (t ** 3).scale(ring.scalar(2))
    series_ok = series_ok and g.substitute({"t": g.compositional_inverse("t")}) == t

    fgl_ok = check_associativity(preset("appendix-z-v3"), order=10)

    binom_ok = all(
        binomial_mod2(n, k) == (math.comb(n, k) % 2 if k <= n else 0)
        for n in range(65)
        for k in range(65)
    )

    start = time.perf_counter()
    report = run_suite("all", {"scrub_timing": True})
    elapsed = time.perf_counter() - start
    full_ok = report["overall"] == "pass" and elapsed < 60.0

    announce(10, "property corpora, round-trips, and the full run", confluent and series_ok and fgl_ok and binom_ok and full_ok)
