"""Formal group laws, the two-series, and the power-operation pipeline.

The additive law is the oracle: every quantity has a closed form there, so
the pipeline is checked end to end on it before trusting the deformed ring.
"""

from fractions import Fraction

import pytest

from dlforge import formal_groups
from dlforge.formal_groups import (
    appendix_pipeline,
    bracket2_series,
    check_associativity,
    fgl_from_log,
    isogeny_g,
    n_series,
    preset,
    reduce_mod_two_series,
    verify_isogeny_derivative,
)
from dlforge.polynomial import GradedPolynomial
from dlforge.series import TruncatedSeries, signature


def coeff(series, **powers):
    c = series.coefficient(powers)
    return c


def test_additive_log_gives_additive_law():
    p = preset("additive")
    F = fgl_from_log(p, x_order=8, y_order=8)
    ring = F.ring
    assert F.coefficient({"x": 1, "y": 0}) == ring.one()
    assert F.coefficient({"x": 0, "y": 1}) == ring.one()
    for i in range(2, 8):
        for j in range(0, 8 - i):
            if i and j:
                assert F.coefficient({"x": i, "y": j}).is_zero(), (i, j)


def test_additive_n_series_is_multiplication():
    p = preset("additive")
    for n in (0, 1, 2, 3, -1):
        series = n_series(p, n, order=6)
        assert series == TruncatedSeries.variable(series.sig, series.ring, "t").scale(
            series.ring.scalar(n)
        )


def test_n_series_is_formally_additive():
    # [m+n](t) = F([m](t), [n](t)) on the deformed ring
    p = preset("appendix-z-v3")
    order = 10
    F = fgl_from_log(p, x_order=order, y_order=order)
    for m, n in ((1, 1), (2, 1), (2, 2), (3, 1)):
        lhs = n_series(p, m + n, order=order)
        images = {"x": n_series(p, m, order=order), "y": n_series(p, n, order=order)}
        assert F.substitute(images) == lhs, (m, n)


@pytest.mark.parametrize("name", ["additive", "appendix-z-v3"])
def test_a_truncated_n_series_equals_a_fresh_build(name):
    # the higher order is asked for first, so the lower ones are truncations
    p = preset(name)
    clear_memos()
    try:
        for var, n in (("alpha", 2), ("t", 3)):
            top = n_series(p, n, 25, var)
            assert formal_groups._TOP_N_SERIES[p, n, var] is top
            for order in (24, 19, 15, 2):
                series = n_series(p, n, order, var)
                assert series.sig == signature((var,), (order,))
                assert series == formal_groups._build_n_series(p, n, order, var), (var, n, order)
                assert n_series(p, n, order, var) is series
            # below order 2 no series has a linear term: a build raises, and
            # so does a truncation, whatever was built before
            for order in (1, 0):
                with pytest.raises(ValueError, match="no linear term"):
                    n_series(p, n, order, var)
            # a higher order builds again and becomes the one truncated
            assert n_series(p, n, 30, var).retruncate(top.sig) == top
            assert formal_groups._TOP_N_SERIES[p, n, var].sig.orders == (30,)
    finally:
        clear_memos()


def test_two_series_on_the_appendix_ring():
    p = preset("appendix-z-v3")
    two = bracket2_series(p, order=10)
    ring = two.ring
    v3 = ring.gen("v3")
    assert coeff(two, alpha=0) == ring.scalar(2)
    assert coeff(two, alpha=7) == v3.scale(-127)
    for e in (1, 2, 3, 4, 5, 6, 8, 9):
        assert coeff(two, alpha=e).is_zero(), e


def test_two_series_is_integral():
    for name in ("additive", "appendix-z-v3"):
        assert bracket2_series(preset(name), order=12).is_integral()


def test_isogeny_source_has_displayed_coefficients():
    p = preset("appendix-z-v3")
    g = isogeny_g(p, x_order=6, alpha_order=10)
    ring = g.ring
    v3 = ring.gen("v3")
    assert coeff(g, x=1, alpha=1) == ring.one()
    assert coeff(g, x=2, alpha=0) == ring.one()
    assert coeff(g, x=2, alpha=7) == v3.scale(-4)
    assert coeff(g, x=3, alpha=6) == v3.scale(-14)
    assert coeff(g, x=4, alpha=5) == v3.scale(-28)


def test_associativity_on_both_rings():
    assert check_associativity(preset("additive"), order=8)
    assert check_associativity(preset("appendix-z-v3"), order=12)


def test_commutativity_of_the_law():
    p = preset("appendix-z-v3")
    F = fgl_from_log(p, x_order=9, y_order=9)
    for vec, c in F.terms.items():
        swapped = dict(zip(F.sig.variables, vec))
        swapped["x"], swapped["y"] = swapped["y"], swapped["x"]
        assert F.coefficient(swapped) == c


def test_additive_pipeline_oracle():
    r = appendix_pipeline(1, preset("additive"))
    ring = r.f_n.ring
    assert r.f_n == TruncatedSeries.constant(r.f_n.sig, ring, ring.scalar(-2))
    assert r.h_n == TruncatedSeries.constant(r.h_n.sig, ring, ring.scalar(-1))
    assert r.raw.is_zero()
    assert r.reduced.is_zero()
    assert all(ok for _, ok in r.checks)


def test_appendix_pipeline_reproduces_the_table():
    r = appendix_pipeline(2, preset("appendix-z-v3"))
    ring = r.f_n.ring
    v3 = ring.gen("v3")
    assert coeff(r.f_n, alpha=0) == ring.scalar(6)
    assert coeff(r.f_n, alpha=7) == v3.scale(-6)
    assert r.h_n == TruncatedSeries.constant(r.h_n.sig, ring, ring.scalar(3))
    assert coeff(r.raw, alpha=3) == v3.scale(375)
    assert sum(1 for c in r.raw.terms.values() if not c.is_zero()) == 1
    assert coeff(r.reduced, alpha=3) == v3
    assert all(ok for label, ok in r.checks), [label for label, ok in r.checks if not ok]


def test_pipeline_k_inverse_coefficients():
    r = appendix_pipeline(2, preset("appendix-z-v3"))
    ring = r.kinv.ring
    v3 = ring.gen("v3")
    y1 = r.kinv.coefficient_series("y", 1)
    y2 = r.kinv.coefficient_series("y", 2)
    y3 = r.kinv.coefficient_series("y", 3)
    assert y1.constant_coefficient() == ring.one()
    assert y2.coefficient({"alpha": 0}) == ring.scalar(-1)
    assert y2.coefficient({"alpha": 7}) == v3.scale(4)
    assert y3.coefficient({"alpha": 0}) == ring.scalar(2)
    assert y3.coefficient({"alpha": 7}) == v3.scale(-2)


def test_reduction_is_a_congruence_and_idempotent():
    p = preset("appendix-z-v3")
    r = appendix_pipeline(2, p)
    red = r.reduction
    assert red.congruence_holds(r.raw)
    again = reduce_mod_two_series(r.reduced, p)
    assert again.reduced == r.reduced
    assert again.multiplier.is_zero()


def test_reduction_handles_plain_integers():
    p = preset("appendix-z-v3")
    sig = signature(("alpha",), (10,), total_order=None)
    ring = bracket2_series(p, order=10).ring
    t = TruncatedSeries.variable(sig, ring, "alpha")
    series = t.scale(ring.scalar(8))
    red = reduce_mod_two_series(series, p)
    assert red.congruence_holds(series)
    # 8 alpha = 4<2>alpha + 508 v3 alpha^8, and the remainder dies at v3^2
    assert red.reduced.is_zero()
    assert str(red.multiplier) == "4 alpha + (254 v3) alpha^8"


def test_reduction_rejects_non_integral_input():
    p = preset("appendix-z-v3")
    sig = signature(("alpha",), (10,), total_order=None)
    ring = bracket2_series(p, order=10).ring
    t = TruncatedSeries.variable(sig, ring, "alpha")
    with pytest.raises(ArithmeticError):
        reduce_mod_two_series(t.scale(ring.scalar(Fraction(1, 2))), p)


def test_isogeny_derivative_correction_is_integral():
    ok, h = verify_isogeny_derivative(preset("appendix-z-v3"))
    assert ok
    assert h.is_integral()


def test_isogeny_derivative_additive_case_is_exactly_x():
    ok, h = verify_isogeny_derivative(preset("additive"))
    assert ok
    x = TruncatedSeries.variable(h.sig, h.ring, "x")
    assert h == x


def test_pipeline_raw_value_is_integral_and_projective():
    for n in (1, 2, 3):
        r = appendix_pipeline(n, preset("appendix-z-v3"))
        assert r.raw.is_integral(), n
        assert all(ok for _, ok in r.checks), n


def test_unknown_preset_rejected():
    with pytest.raises(KeyError):
        preset("mystery")


def test_pipeline_is_memoized_after_filling_in_defaults():
    default = appendix_pipeline(2)
    explicit = appendix_pipeline(2, preset("appendix-z-v3"), alpha_order=20)
    assert default is explicit
    assert appendix_pipeline(2, alpha_order=21) is not default


def clear_memos():
    # the pipeline, exponential, n-series, <2> and isogeny memos together, so
    # that the counts below do not depend on which tests ran first
    formal_groups._appendix_pipeline.cache_clear()
    formal_groups.LogarithmPreset.exp_series.cache_clear()
    n_series.cache_clear()
    formal_groups._TOP_N_SERIES.clear()
    bracket2_series.cache_clear()
    isogeny_g.cache_clear()


def test_pipeline_does_a_pinned_number_of_series_products(monkeypatch):
    # an exact work count, so waste in the series layer fails here even on a
    # machine too noisy to time it; each lower order of the 2-series is a
    # truncation, not a fresh exp(2 log)
    calls = []
    mul = TruncatedSeries.__mul__

    def counted(a, b):
        calls.append(None)
        return mul(a, b)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    clear_memos()
    assert all(ok for _, ok in appendix_pipeline(2).checks)
    assert len(calls) == 30


def test_pipeline_does_a_pinned_number_of_kernel_products(monkeypatch):
    # each of the 30 series products is one kernel product; the rest
    # substitute series (one product per power of an image of more than one
    # term and per such factor of a term), scale by non-constant
    # coefficients, invert series in their series ring, or multiply in the
    # coefficient ring
    calls = []
    mul = GradedPolynomial.__mul__

    def counted(a, b):
        calls.append(None)
        return mul(a, b)

    monkeypatch.setattr(GradedPolynomial, "__mul__", counted)
    clear_memos()
    assert all(ok for _, ok in appendix_pipeline(2).checks)
    assert len(calls) == 67


def test_reduction_raises_when_its_pass_budget_runs_out(monkeypatch):
    # 8 alpha needs a pass that trades 4 <2> alpha and one that finds nothing
    # left to reduce
    clear_memos()
    p = preset("appendix-z-v3")
    sig = signature(("alpha",), (10,))
    ring = bracket2_series(p, order=10).ring
    series = TruncatedSeries.variable(sig, ring, "alpha").scale(ring.scalar(8))
    monkeypatch.setattr(formal_groups, "REDUCTION_PASS_BUDGET", 1)
    with pytest.raises(ArithmeticError, match="did not terminate"):
        reduce_mod_two_series(series, p)
