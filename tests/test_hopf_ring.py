"""The indecomposable Hopf-ring quotient and the composed operation chain."""

from fractions import Fraction

import pytest

from dlforge.formal_groups import PowerOpResult, appendix_pipeline, preset
from dlforge.hopf_ring import (
    RW_MAIN_RELATION,
    STABILITY_RULE,
    TRANSLATION_RULE,
    IdentificationError,
    format_quotient_class,
    import_pseries,
    qhat_b1,
    qhat_on_hurewicz,
    suspend_to_dual,
    verify_gotcha_chain,
)
from dlforge.polynomial import QQ, Generator, PolynomialRing
from dlforge.series import TruncatedSeries, signature
from dlforge.suites import run_suite

# a coefficient ring with two generators in degree 14 and one in degree 12
COEFFS = PolynomialRing(QQ, [Generator("u", 14), Generator("w", 14), Generator("a", 12)])


def result_with(terms):
    """A pipeline result for the source x2 whose reduced series is
    sum c_i alpha^i, from an ``{i: c_i}`` mapping over ``COEFFS``."""
    sig = signature(("alpha",), (8,))
    reduced = TruncatedSeries.from_terms(sig, COEFFS, {(i,): c for i, c in terms.items()})
    return PowerOpResult(n=2, reduced=reduced)


def appendix_series():
    return import_pseries(appendix_pipeline(2, preset("appendix-z-v3")), {"v3": 7})


# -- coefficient classes ----------------------------------------------------


def test_coeff_class_degrees():
    # the symbols [x1] .. [x7], up to the largest identified one, have degree 2n
    ring = appendix_series().ring
    assert [g.name for g in ring.generators] == ["[x%d]" % n for n in range(1, 8)] + ["alpha"]
    assert [g.degree for g in ring.generators] == [2 * n for n in range(1, 8)] + [0]


def test_coeff_class_validation():
    # there is no symbol [x0]: its degree 0 is never that of a coefficient
    with pytest.raises(ValueError):
        import_pseries(appendix_pipeline(2, preset("appendix-z-v3")), {"v3": 0})


def test_hopf_class_drops_zero_coefficients():
    p = appendix_series()
    assert qhat_on_hurewicz(2, 2, p).is_zero()  # the alpha^0 coefficient is zero
    h = qhat_on_hurewicz(5, 2, p)
    assert not h.is_zero() and (h + h).is_zero()


def test_hopf_class_string_form():
    h = qhat_on_hurewicz(5, 2, appendix_series())
    assert format_quotient_class(h) == "[x7] o b1^o7"
    ring = h.ring
    mixed = h + ring.gen("[x2]") * ring.gen("b1") + ring.gen("b1", 2)
    assert format_quotient_class(mixed) == "[1] o b1^o2 + [x2] o b1 + [x7] o b1^o7"
    assert format_quotient_class(ring.gen("[x3]")) == "[x3]"
    assert format_quotient_class(ring.zero()) == "0"
    assert str(appendix_series()) == "[x7] alpha^3"
    assert str(suspend_to_dual(h)) == "sigma x7"


# -- coefficient series -------------------------------------------------------


def test_pseries_degree_discipline():
    # the alpha^i coefficient of P(x2) has degree 2 * 4 + 2i; [x3] in degree
    # 6 at alpha^3 is rejected whichever generator it comes from
    result = result_with({3: COEFFS.gen("u") + COEFFS.gen("w")})
    for identification in ({"u": 7, "w": 3}, {"u": 3, "w": 7}):
        with pytest.raises(ValueError):
            import_pseries(result, identification)
    result = result_with({2: COEFFS.gen("a"), 3: COEFFS.gen("u")})
    assert str(import_pseries(result, {"a": 6, "u": 7})) == "[x6] alpha^2 + [x7] alpha^3"
    with pytest.raises(ValueError):
        import_pseries(result, {"a": 7, "u": 7})


# -- importing pipeline output --------------------------------------------------


def test_import_pseries_identifies_the_generator():
    p = appendix_series()
    assert p == p.ring.monomial({"[x7]": 1, "alpha": 3})
    # two generators with one image cancel mod 2
    result = result_with({3: COEFFS.gen("u") + COEFFS.gen("w")})
    assert import_pseries(result, {"u": 7, "w": 7}).is_zero()


def test_import_pseries_drops_even_scalars():
    assert import_pseries(appendix_pipeline(1, preset("additive"))).is_zero()
    doubled = result_with({3: COEFFS.gen("u").scale(2), 2: COEFFS.gen("a").scale(-6)})
    assert import_pseries(doubled).is_zero()


def test_import_pseries_rejects_unidentified_generators():
    result = appendix_pipeline(2, preset("appendix-z-v3"))
    with pytest.raises(IdentificationError):
        import_pseries(result, identification={})
    with pytest.raises(IdentificationError):
        import_pseries(result_with({3: COEFFS.scalar(1)}), {"u": 7})


def test_import_pseries_rejects_a_non_integral_coefficient():
    # 3/2 v3 alpha^3 has no class mod 2; truncating it would give [x7] alpha^3
    result = appendix_pipeline(2, preset("appendix-z-v3"))
    halved = PowerOpResult(n=2, reduced=result.reduced.scale(Fraction(3, 2)))
    with pytest.raises(ArithmeticError):
        import_pseries(halved, identification={"v3": 7})


# -- operations in the quotient ---------------------------------------------------


def test_qhat_on_hurewicz_shifts_the_coefficient():
    p = import_pseries(result_with({2: COEFFS.gen("a"), 3: COEFFS.gen("u")}), {"a": 6, "u": 7})
    k5 = qhat_on_hurewicz(5, 2, p)
    assert k5 == k5.ring.monomial({"[x7]": 1, "b1": 7})
    assert format_quotient_class(qhat_on_hurewicz(4, 2, p)) == "[x6] o b1^o6"
    assert qhat_on_hurewicz(1, 2, p).is_zero()  # k below the Hurewicz weight
    assert qhat_on_hurewicz(2, 2, p).is_zero()  # no alpha^0 coefficient


def test_qhat_b1_rules():
    assert format_quotient_class(qhat_b1(2)) == "[1] o b1^o2"
    for s in (4, 6, 8, 12):
        assert qhat_b1(s).is_zero(), s
    for s in (1, 3, 5):
        with pytest.raises(ValueError):
            qhat_b1(s)
    with pytest.raises(ValueError):
        qhat_b1(0)


def test_suspension_to_dual_kills_unit_multiples():
    gen = qhat_on_hurewicz(5, 2, appendix_series())
    unit = gen.ring.gen("b1", 3)
    assert str(suspend_to_dual(gen)) == "sigma x7"
    assert suspend_to_dual(unit).is_zero()
    assert suspend_to_dual(gen + unit) == suspend_to_dual(gen)
    assert suspend_to_dual(qhat_b1(2)).is_zero()


def test_suspension_image_addition():
    ring = qhat_on_hurewicz(5, 2, appendix_series()).ring
    a = suspend_to_dual(ring.gen("[x7]") * ring.gen("b1", 7))
    b = suspend_to_dual(ring.gen("[x7]") + ring.gen("[x2]") * ring.gen("b1"))
    assert str(b) == "sigma x2 + sigma x7"
    assert (a + a).is_zero()
    assert str(a + b) == "sigma x2"


# -- the composed chain ---------------------------------------------------------------


def test_chain_reaches_the_suspension_class():
    chain = verify_gotcha_chain(k=5)
    assert str(chain["endpoint"]) == "sigma x7"
    assert all(step["ok"] for step in chain["steps"])
    ids = [step["id"] for step in chain["steps"]]
    assert ids == ["pipeline-n2", "identification", "hash-translation", "qhat-k5", "suspension"]
    values = {step["id"]: step["value"] for step in chain["steps"]}
    assert values["identification"] == "P(x2) = [x7] alpha^3"
    assert values["qhat-k5"] == "[x7] o b1^o7"


def test_chain_marks_imported_steps():
    chain = verify_gotcha_chain(k=5)
    imported = {step["id"] for step in chain["steps"] if step["imported"]}
    assert imported  # identification and stability are borrowed facts
    for step in chain["steps"]:
        assert isinstance(step["statement"], str) and step["statement"]


def test_chain_k4_dies_on_decomposable_coefficient():
    chain = verify_gotcha_chain(k=4)
    assert chain["endpoint"].is_zero()


def test_chain_without_identification_surfaces_raw_series():
    chain = verify_gotcha_chain(identify=False)
    assert chain["endpoint"] is None
    raw = chain["raw"]
    assert dict(raw.terms) == {(3,): raw.ring.gen("v3").scale(375)}
    assert chain["steps"][-1]["value"] == "disabled; raw series %s" % raw


# -- imported rules --------------------------------------------------------------------


def test_imported_rules_have_statements():
    for rule in (TRANSLATION_RULE, STABILITY_RULE, RW_MAIN_RELATION):
        assert rule.statement
        assert rule.name


def test_main_relation_additive_consequence():
    assert RW_MAIN_RELATION.consequence_check()


def test_main_relation_consequence_catches_a_wrong_binomial(monkeypatch):
    import dlforge.hopf_ring as hopf_ring

    monkeypatch.setattr(hopf_ring, "binomial_mod2", lambda n, k: 1)
    assert not RW_MAIN_RELATION.consequence_check()
    rows = {row["id"]: row for row in run_suite("hopf-chain")["checks"]}
    assert rows["05-rw-additive"]["status"] == "fail"


def test_rules_without_checks_return_none():
    assert TRANSLATION_RULE.consequence_check() is None
    assert STABILITY_RULE.consequence_check() is None
