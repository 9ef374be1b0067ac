"""The indecomposable Hopf-ring quotient and the composed operation chain."""

from fractions import Fraction

import pytest

from dlforge.formal_groups import PowerOpResult, appendix_pipeline, preset
from dlforge.hopf_ring import (
    RW_MAIN_RELATION,
    STABILITY_RULE,
    TRANSLATION_RULE,
    CoeffClass,
    HopfClass,
    IdentificationError,
    PSeries,
    SuspensionImage,
    import_pseries,
    qhat_b1,
    qhat_on_hurewicz,
    suspend_to_dual,
    verify_gotcha_chain,
)
from dlforge.suites import run_suite


# -- coefficient classes ----------------------------------------------------


def test_coeff_class_degrees():
    assert CoeffClass.zero().degree == 0
    assert CoeffClass.one().degree == 0
    assert CoeffClass.x(7).degree == 14


def test_coeff_class_validation():
    with pytest.raises(ValueError):
        CoeffClass.x(0)


def test_hopf_class_drops_zero_coefficients():
    h = HopfClass.single(CoeffClass.zero(), 4)
    assert h.is_zero()


def test_hopf_class_string_form():
    h = HopfClass.single(CoeffClass.x(7), 7)
    assert str(h) == "[x7] o b1^o7"


# -- coefficient series -------------------------------------------------------


def test_pseries_degree_discipline():
    # c_i must have degree 2 * source_degree + 2i
    cs = {0: CoeffClass.x(2), 1: CoeffClass.x(3), 2: CoeffClass.x(4)}
    series = PSeries("x2", 2, cs)
    assert series.coefficient(1) == CoeffClass.x(3)
    assert series.coefficient(9) == CoeffClass.zero()
    with pytest.raises(ValueError):
        PSeries("x2", 2, {0: CoeffClass.x(5)})
    with pytest.raises(ValueError):
        PSeries("x3", 3, {})


# -- importing pipeline output --------------------------------------------------


def test_import_pseries_identifies_the_generator():
    result = appendix_pipeline(2, preset("appendix-z-v3"))
    series = import_pseries(result, identification={"v3": CoeffClass.x(7)})
    assert series.source_degree == 4  # the n = 2 source is a degree-4 sphere class
    assert series.coefficient(3) == CoeffClass.x(7)
    assert series.coefficient(0) == CoeffClass.zero()


def test_import_pseries_drops_even_scalars():
    result = appendix_pipeline(1, preset("additive"))
    series = import_pseries(result)
    assert not series.coefficients


def test_import_pseries_rejects_unidentified_generators():
    result = appendix_pipeline(2, preset("appendix-z-v3"))
    with pytest.raises(IdentificationError):
        import_pseries(result, identification={})


def test_import_pseries_rejects_a_non_integral_coefficient():
    # 3/2 v3 alpha^3 has no class mod 2; truncating it would give [x7] alpha^3
    result = appendix_pipeline(2, preset("appendix-z-v3"))
    halved = PowerOpResult(n=2, reduced=result.reduced.scale(Fraction(3, 2)))
    with pytest.raises(ArithmeticError):
        import_pseries(halved, identification={"v3": CoeffClass.x(7)})


# -- operations in the quotient ---------------------------------------------------


def test_qhat_on_hurewicz_shifts_the_coefficient():
    p = PSeries("x2", 4, {3: CoeffClass.x(7), 2: CoeffClass.x(6)})
    assert qhat_on_hurewicz(5, p) == HopfClass.single(CoeffClass.x(7), 7)
    assert qhat_on_hurewicz(4, p) == HopfClass.single(CoeffClass.x(6), 6)
    assert qhat_on_hurewicz(1, p).is_zero()  # k below the Hurewicz weight
    assert qhat_on_hurewicz(2, p) == HopfClass.single(p.coefficient(0), 4)


def test_qhat_b1_rules():
    assert str(qhat_b1(2)) == "[1] o b1^o2"
    for s in (4, 6, 8, 12):
        assert qhat_b1(s).is_zero(), s
    for s in (1, 3, 5):
        with pytest.raises(ValueError):
            qhat_b1(s)
    with pytest.raises(ValueError):
        qhat_b1(0)


def test_suspension_to_dual_kills_unit_multiples():
    gen = HopfClass.single(CoeffClass.x(7), 7)
    unit = HopfClass.single(CoeffClass.one(), 3)
    both = HopfClass(gen.parts | unit.parts)
    assert str(suspend_to_dual(gen)) == "sigma x7"
    assert suspend_to_dual(unit).is_zero()
    assert suspend_to_dual(both) == suspend_to_dual(gen)


def test_suspension_image_addition():
    a = SuspensionImage(frozenset({7}))
    b = SuspensionImage(frozenset({7, 2}))
    assert (a + a).is_zero()
    assert str(a + b) == "sigma x2"


# -- the composed chain ---------------------------------------------------------------


def test_chain_reaches_the_suspension_class():
    chain = verify_gotcha_chain(k=5)
    assert str(chain["endpoint"]) == "sigma x7"
    assert all(step["ok"] for step in chain["steps"])
    ids = [step["id"] for step in chain["steps"]]
    assert ids == ["pipeline-n2", "identification", "hash-translation", "qhat-k5", "suspension"]


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
    assert any("375 v3" in step["value"] for step in chain["steps"])


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
