"""Rewriting to the admissible basis: oracles, goldens, and a confluence corpus."""

import gc
import math
import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dlforge import expressions, rewriting, substitutions
from dlforge.expressions import (
    GeneratorContext,
    GenRef,
    Power,
    Product,
    QOp,
    Sum,
    UnknownGeneratorError,
    en_level_witness,
    expression_degrees,
    format_expression,
    homogeneous_degree,
    min_en_level,
    parse_context,
    parse_expression,
)
from dlforge.homology import MUHomology, evaluate_in_model
from dlforge.relations import (
    AUXILIARY_IDENTITIES,
    BETA_ALPHA_SYMBOLIC,
    MU_R_NORMALIZED,
    MU_R_SYMBOLIC,
    QBAR_NU_SYMBOLIC,
    RELATION_TERMS,
    SIGMA_R_IMAGE,
    alpha,
    beta,
    big_relation_expression,
    big_relation_residual,
    definitions_map,
    juggling_residual,
    mu,
    nu,
    qbar,
    relation_map,
    suspended_relation,
    verify_auxiliary_identities,
    x_context,
    y4_context,
    y_context,
)
from dlforge.rewriting import DLPolynomial, adem_step, normalize, normalize_word, verify_identity
from dlforge.substitutions import SubstitutionMap, _flatten_terms, compose_maps, suspend


# -- Adem oracle ---------------------------------------------------------


def adem_oracle(r, s):
    """Brute-force expansion of Q^r Q^s with big-integer binomials."""
    out = set()
    for i in range((r + 1) // 2, r - s):
        low, high = i - s - 1, 2 * i - r
        if low < 0 or high < 0 or high > low:
            continue
        if math.comb(low, high) % 2:
            out.add((r + s - i, i))
    return out


def test_adem_step_matches_binomial_oracle():
    for s in range(0, 16):
        for r in range(2 * s + 1, 2 * s + 24):
            got = {pair for pair, bit in adem_step(r, s) if bit}
            assert got == adem_oracle(r, s), (r, s)


def test_the_stability_window_keeps_exactly_the_stable_adem_terms():
    # the rewrite routes' enumeration against adem_step's whole window,
    # filtered by instability on a class of degree ``below``
    for r in range(200):
        for s in range((r + 1) // 2):  # r > 2s
            full = [pair for pair, _ in adem_step(r, s)]
            want = [[(t, i) for t, i in full if i >= below and t >= below + i] for below in range(64)]
            assert [rewriting._adem_terms(r, s, below) for below in range(64)] == want, (r, s)


def test_adem_step_rejects_admissible_pairs():
    with pytest.raises(ValueError):
        adem_step(4, 2)
    with pytest.raises(ValueError):
        adem_step(3, 5)


def test_adem_output_pairs_are_admissible():
    for s in range(0, 12):
        for r in range(2 * s + 1, 2 * s + 20):
            for (top, inner), _ in adem_step(r, s):
                assert top <= 2 * inner
                assert top + inner == r + s


# -- parser and formatter -------------------------------------------------


def test_parse_format_round_trip_on_goldens():
    cases = [
        (MU_R_SYMBOLIC, y4_context()),
        (MU_R_NORMALIZED, y4_context()),
        (QBAR_NU_SYMBOLIC, y4_context()),
        (BETA_ALPHA_SYMBOLIC, y4_context()),
        (" + ".join(RELATION_TERMS), y_context()),
    ]
    for text, ctx in cases:
        node = parse_expression(text, ctx)
        again = parse_expression(format_expression(node), ctx)
        assert format_expression(node) == format_expression(again)


def test_operation_binds_one_factor():
    ctx = x_context()
    a = parse_expression("Q5 x Q3 x", ctx)
    b = parse_expression("(Q5 x) (Q3 x)", ctx)
    assert format_expression(a) == format_expression(b)
    assert normalize(a, ctx) == normalize(b, ctx)


def test_random_round_trips():
    ctx = x_context()
    rng = random.Random(41)

    def rand_expr(depth):
        kind = rng.randint(0, 3 if depth else 1)
        if kind == 0:
            return "x^%d" % rng.randint(1, 4) if rng.random() < 0.4 else "x"
        if kind == 1:
            return "Q%d %s" % (rng.randint(1, 20), rand_expr(depth - 1) if depth else "x")
        if kind == 2:
            return "(%s) (%s)" % (rand_expr(depth - 1), rand_expr(depth - 1))
        return "%s + %s" % (rand_expr(depth - 1), rand_expr(depth - 1))

    for _ in range(150):
        text = rand_expr(3)
        node = parse_expression(text, ctx)
        printed = format_expression(node)
        assert format_expression(parse_expression(printed, ctx)) == printed


def test_parse_errors():
    ctx = x_context()
    from dlforge.expressions import ExpressionSyntaxError, UnknownGeneratorError

    # a bare Q reads as a generator name, which the context rejects
    with pytest.raises(UnknownGeneratorError):
        parse_expression("Q x", ctx)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x +", ctx)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("(x", ctx)
    with pytest.raises(UnknownGeneratorError):
        parse_expression("Q3 w", ctx)


# characters that Unicode calls digits but that are not ASCII digits:
# superscript two and Arabic-Indic three
@pytest.mark.parametrize("text, position", [("x^\u00b2", 2), ("Q\u00b2 x", 1), ("Q\u0663 x", 1), ("x\u0663", 1)])
def test_only_ascii_digits_are_read_as_digits(text, position):
    from dlforge.expressions import ExpressionSyntaxError

    with pytest.raises(ExpressionSyntaxError) as raised:
        parse_expression(text, x_context())
    assert str(raised.value) == "unexpected character %r (at position %d)" % (text[position], position)
    assert raised.value.position == position


@pytest.mark.parametrize(
    "name, message",
    [
        ("Q\u0663", "bad generator name"),
        ("x\u00b2", "bad generator name"),
        ("Q7", "collides with the operation syntax"),
    ],
)
def test_a_generator_name_takes_only_ascii_digits(name, message):
    with pytest.raises(ValueError, match=message):
        parse_context("gen %s deg 2\n" % name)


# -- instability and small goldens ----------------------------------------


def test_instability_rules_on_the_degree2_generator():
    ctx = x_context()
    assert normalize("Q1 x", ctx).is_zero()
    assert normalize("Q2 x", ctx) == normalize("x^2", ctx)
    assert normalize("Q4 x^2", ctx) == normalize("x^4", ctx)
    assert normalize("Q3 x^2", ctx).is_zero()
    assert not normalize("Q3 x", ctx).is_zero()


def test_squares_halve_under_even_operations():
    # Q^{2s}(a^2) = (Q^s a)^2 and odd operations kill squares
    ctx = x_context()
    for s in range(2, 12):
        doubled = normalize("Q%d (Q3 x)^2" % (2 * s), ctx)
        halved = normalize("(Q%d Q3 x)^2" % s, ctx)
        assert doubled == halved, s
        assert normalize("Q%d (Q3 x)^2" % (2 * s + 1), ctx).is_zero()


def test_golden_normalization_of_the_composite_word():
    ctx = y4_context()
    assert normalize(MU_R_SYMBOLIC, ctx) == normalize(MU_R_NORMALIZED, ctx)
    # and the normalized form is already in normal form
    fixed = normalize(MU_R_NORMALIZED, ctx)
    assert normalize(str(fixed), ctx) == fixed


# -- the displayed relation ------------------------------------------------


def test_big_relation_normalizes_to_zero():
    assert big_relation_residual().is_zero()


def test_relation_has_ten_displayed_terms():
    assert len(RELATION_TERMS) == 10


def test_each_auxiliary_identity_holds():
    rows = verify_auxiliary_identities()
    assert len(rows) == len(AUXILIARY_IDENTITIES) == 7
    for lhs, rhs, holds, witness in rows:
        assert holds, (lhs, rhs, str(witness))


def test_negative_control_dropping_one_term_breaks_the_relation():
    ctx_y, ctx_x = y_context(), x_context()
    defs = definitions_map()
    for drop in range(len(RELATION_TERMS)):
        kept = [t for i, t in enumerate(RELATION_TERMS) if i != drop]
        node = defs._subst(parse_expression(" + ".join(kept), ctx_y))
        assert not normalize(node, ctx_x).is_zero(), "term %d is redundant" % drop


def test_negative_control_perturbed_identity_fails():
    # Q5 on a degree-5 class squares it, so the word is a nonzero square
    holds, witness = verify_identity("Q5 Q3 x", "0", x_context())
    assert not holds
    assert not witness.is_zero()
    # while a genuinely inadmissible rewrite is caught as an equality
    holds, _ = verify_identity("Q8 Q3 x", "Q7 Q4 x", x_context())
    assert holds


def test_en_level_of_the_relation():
    expr = big_relation_expression()
    assert min_en_level(expr, y_context()) == 12
    assert en_level_witness(expr, y_context()) == (20, 10)


def test_en_level_survives_substitution():
    node = definitions_map()._subst(big_relation_expression())
    assert min_en_level(node, x_context()) == 12


def test_en_level_simple_cases():
    ctx = x_context()
    # Q^r needs level r - deg + 2 when that exceeds 1
    assert min_en_level(parse_expression("Q3 x", ctx), ctx) == 3
    assert min_en_level(parse_expression("x^2", ctx), ctx) == 1
    assert min_en_level(parse_expression("Q2 x", ctx), ctx) == 2


# -- confluence corpus ------------------------------------------------------


def test_word_strategies_agree_on_corpus():
    """Three rewrite orders agree on 520 random words (confluence)."""
    ctx = x_context()
    rng = random.Random(20260815)
    for trial in range(520):
        length = rng.randint(1, 4)
        word = [rng.randint(1, 20) for _ in range(length)]
        bottom = normalize_word(word, "x", ctx, strategy="bottom-up")
        top = normalize_word(word, "x", ctx, strategy="top-down")
        right = normalize_word(word, "x", ctx, strategy="rightmost")
        assert bottom == top == right, word


STRATEGIES = ("bottom-up", "top-down", "rightmost")


def bare_reduction_oracle(superscripts, generator, context):
    """Oracle: Adem-reduce the bare superscript sequence to admissible ones,
    leftmost pair first and with no instability pruning, then evaluate each
    admissible sequence on the generator and add the results."""
    pending, admissible = {tuple(superscripts)}, set()
    while pending:
        seq = pending.pop()
        spot = next((i for i in range(len(seq) - 1) if seq[i] > 2 * seq[i + 1]), None)
        if spot is None:
            admissible ^= {seq}
            continue
        for (top, inner), _ in adem_step(seq[spot], seq[spot + 1]):
            pending ^= {seq[:spot] + (top, inner) + seq[spot + 2 :]}
    out = DLPolynomial(context, frozenset())
    for seq in admissible:
        node = GenRef(generator)
        for s in reversed(seq):
            node = QOp(s, node)
        out = out + normalize(node, context)
    return out


@st.composite
def generator_words(draw):
    """A generator degree 0..6 and a word of 1..4 superscripts, outermost first.

    Half the words take any superscripts 0..60, so most apply some operation
    below its argument's degree.  The other half put each superscript 0..12
    above its argument's degree, so the input survives instability and the
    Adem terms dropped inside the reduction are reached.
    """
    degree = draw(st.integers(0, 6))
    length = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return degree, draw(st.lists(st.integers(0, 60), min_size=length, max_size=length))
    word, below = [], degree
    for _ in range(length):
        word.append(below + draw(st.integers(0, 12)))
        below += word[-1]
    return degree, word[::-1]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(generator_words())
def test_strategies_agree_with_the_bare_reduction(degree_and_word):
    degree, word = degree_and_word
    context = parse_context("gen x deg %d\n" % degree)
    want = bare_reduction_oracle(word, "x", context)
    for strategy in STRATEGIES:
        assert normalize_word(word, "x", context, strategy) == want, strategy


# Stable words of the rewrite corpus's shape: each superscript at least its
# argument's degree and every adjacent pair inadmissible.
LONG_STABLE_WORDS = ((116, 54, 22, 6), (140, 67, 28, 10), (158, 76, 35, 12), (169, 79, 34, 12))


@pytest.mark.parametrize("word", LONG_STABLE_WORDS, ids=lambda w: "Q%d-Q%d-Q%d-Q%d" % w)
def test_long_stable_words_match_the_bare_reduction(word):
    context = parse_context("gen x deg 2\n")
    want = bare_reduction_oracle(word, "x", context)
    assert not want.is_zero()
    for strategy in STRATEGIES:
        assert normalize_word(word, "x", context, strategy) == want, strategy


# Adem steps for Q116 Q54 Q22 Q6 x on fresh caches: each step asks the Adem
# enumerator for its stable terms once.
PINNED_ADEM_STEPS = {"bottom-up": 25, "top-down": 58, "rightmost": 29}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_adem_steps_on_a_long_word_are_pinned(strategy, monkeypatch):
    calls = []
    adem_terms = rewriting._adem_terms

    def counted_adem_terms(r, s, below=None):
        calls.append((r, s))
        return adem_terms(r, s, below)

    monkeypatch.setattr(rewriting, "_adem_terms", counted_adem_terms)
    normalize_word(LONG_STABLE_WORDS[0], "x", parse_context("gen x deg 2\n"), strategy)
    assert len(calls) == PINNED_ADEM_STEPS[strategy]


# Words whose normal forms have a square factor, (Q17 Q13 x)^2 and
# (Q51 Q29 Q18 x)^2: their reductions reach admissible sequences with an
# entry equal to the degree below it.
SQUARE_WORDS = ((40, 16, 6), LONG_STABLE_WORDS[0])


@pytest.mark.parametrize("word", SQUARE_WORDS, ids=lambda w: "-".join("Q%d" % s for s in w))
def test_strategies_agree_on_words_with_square_terms(word):
    # a fresh context per strategy, so no route reads another's cached values
    values = [normalize_word(word, "x", parse_context("gen x deg 2\n"), s) for s in STRATEGIES]
    assert values[0] == values[1] == values[2]
    assert any(e == 2 for mono in values[0].monomials for _, e in mono)


# _Engine.apply_poly calls for Q116 Q54 Q22 Q6 x on fresh caches: the
# sequence routes evaluate only their square sequences in the engine.
PINNED_APPLY_POLY_CALLS = {"top-down": 4, "rightmost": 4}


@pytest.mark.parametrize("strategy", sorted(PINNED_APPLY_POLY_CALLS))
def test_apply_poly_calls_on_a_long_word_are_pinned(strategy, monkeypatch):
    calls = []
    apply_poly = rewriting._Engine.apply_poly

    def counted_apply_poly(self, s, p):
        calls.append(s)
        return apply_poly(self, s, p)

    monkeypatch.setattr(rewriting._Engine, "apply_poly", counted_apply_poly)
    normalize_word(LONG_STABLE_WORDS[0], "x", parse_context("gen x deg 2\n"), strategy)
    assert len(calls) == PINNED_APPLY_POLY_CALLS[strategy]


# _Engine instances one sequence-route call builds on a fresh context: none
# for a word that reduces to basis words alone, one when the reduction
# reaches a square sequence (Q2 x is x^2).
PINNED_ENGINES = {(5,): 0, (30, 7): 0, (2,): 1, LONG_STABLE_WORDS[0]: 1}


@pytest.mark.parametrize("strategy", sorted(PINNED_APPLY_POLY_CALLS))
@pytest.mark.parametrize("word", sorted(PINNED_ENGINES), ids=lambda w: "-".join("Q%d" % s for s in w))
def test_the_sequence_routes_build_an_engine_only_for_a_square_sequence(word, strategy, monkeypatch):
    built = []
    init = rewriting._Engine.__init__

    def counted_init(self, context):
        built.append(context)
        init(self, context)

    monkeypatch.setattr(rewriting._Engine, "__init__", counted_init)
    value = normalize_word(word, "x", parse_context("gen x deg 2\n"), strategy)
    assert len(built) == PINNED_ENGINES[word]
    assert value == normalize_word(word, "x", parse_context("gen x deg 2\n"))


# -- the engine's products, memo reads and generator values ----------------------


def dict_merge_product(m1, m2):
    """``_Engine.mul_mono`` as a dict merge, the routine the one sort replaced;
    kept as the oracle."""
    have = dict(m1)
    for w, e in m2:
        have[w] = have.get(w, 0) + e
    return tuple(sorted(have.items()))


# few words, so that factors share a word and the empty monomial occur often
MONOMIAL_WORDS = (((), "x"), ((), "y"), ((3,), "x"), ((5, 2), "x"))
monomials = st.dictionaries(st.sampled_from(MONOMIAL_WORDS), st.integers(1, 4), max_size=3).map(
    lambda factors: tuple(sorted(factors.items()))
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(monomials, monomials)
def test_the_monomial_product_matches_the_dict_merge(m1, m2):
    assert rewriting._Engine.mul_mono(m1, m2) == dict_merge_product(m1, m2)


def test_an_unknown_generator_raises_each_time_it_is_valued():
    ctx = x_context()
    for _ in range(2):
        with pytest.raises(UnknownGeneratorError):
            normalize(GenRef("y"), ctx)
    assert "y" not in ctx._generator_values


def test_the_monomial_memo_is_the_engines_only_memo():
    # a word's action is memoized under its one-word monomial, Adem terms
    # included, so the context's word memo stays empty
    ctx = x_context()
    normalize("Q40 Q16 Q6 x + Q9 (x Q5 x) + (Q3 x)^3", ctx)
    assert ctx._word_cache == {}
    assert ctx._mono_cache
    for s, mono in ctx._mono_cache:
        assert isinstance(s, int) and isinstance(mono, tuple) and mono
        assert list(mono) == sorted(mono)
        for (ops, g), e in mono:
            assert isinstance(ops, tuple) and g == "x" and isinstance(e, int) and e > 0


def engine_items(rng, count):
    """Seeded corpus-like texts on x (degree 2): an inadmissible word of two or
    three operations, and every third item Q^s of a product of two words."""

    def word(length):
        ops, below = [], 2
        for _ in range(length):
            ops.append(max(below, 2 * ops[-1] + 1 if ops else 0) + rng.randint(0, 6))
            below += ops[-1]
        return " ".join(["Q%d" % s for s in reversed(ops)] + ["x"]), below

    items = []
    for k in range(count):
        if k % 3 == 2:
            (u, du), (v, dv) = word(rng.randint(0, 1)), word(rng.randint(1, 2))
            items.append("Q%d (%s %s)" % (du + dv + rng.randint(0, 6), u, v))
        else:
            items.append(word(rng.randint(2, 3))[0])
    return items


# Work of normalizing ENGINE_ITEMS, then each printed normal form, on one
# fresh context; the same under every hash seed.  A memo read that finds a
# value, zero included, is the lookup's only read: no caller enters
# apply_mono for a key it has just read.  The generator's value is built once.
# The memo entries are those of both of the context's memos after the items.
ENGINE_ITEMS = engine_items(random.Random(2903), 60)
PINNED_ENGINE_WORK = {
    "monomial products": 138,
    "apply_mono entries": 193,
    "generator values": 1,
    "zero-memo re-entries": 0,
    "memo entries": 151,
}


def test_the_engine_work_on_a_seeded_corpus_is_pinned(monkeypatch):
    work = dict.fromkeys(PINNED_ENGINE_WORK, 0)
    last_read = []

    class ReadLog(dict):
        def get(self, key, default=None):
            last_read[:] = [key]
            return dict.get(self, key, default)

    mul_mono, apply_mono, generator_value = (
        rewriting._Engine.mul_mono, rewriting._Engine.apply_mono, rewriting._generator_value
    )

    def counted_mul_mono(m1, m2):
        work["monomial products"] += 1
        return mul_mono(m1, m2)

    def counted_apply_mono(self, s, mono):
        work["apply_mono entries"] += 1
        # the caller read this key's memoized value and entered anyway
        work["zero-memo re-entries"] += last_read == [(s, mono)] and (s, mono) in self._mono_cache
        return apply_mono(self, s, mono)

    def counted_generator_value(name):
        work["generator values"] += 1
        return generator_value(name)

    monkeypatch.setattr(rewriting._Engine, "mul_mono", staticmethod(counted_mul_mono))
    monkeypatch.setattr(rewriting._Engine, "apply_mono", counted_apply_mono)
    monkeypatch.setattr(rewriting, "_generator_value", counted_generator_value)
    ctx = parse_context("gen x deg 2\n")
    ctx._mono_cache = ReadLog()
    for item in ENGINE_ITEMS:
        value = normalize(item, ctx)
        if not value.is_zero():
            assert normalize(str(value), ctx) == value
    work["memo entries"] = len(ctx._word_cache) + len(ctx._mono_cache)
    assert work == PINNED_ENGINE_WORK


# -- printing ---------------------------------------------------------------


# Q^s of a square-free product loops over every split of s, so its monomial
# products grow linearly in s; summing them must too.  "terms summed" counts
# the terms each sum copies: both of a fresh xor, the added one of an in-place
# ixor, the two set operations an accumulator can go through.
PINNED_CARTAN_SUMS = {"monomial products": 4492, "terms summed": 8978}


def test_summing_a_cartan_expansion_is_linear_in_its_products(monkeypatch):
    work = dict.fromkeys(PINNED_CARTAN_SUMS, 0)
    mul_mono, xor, ixor = rewriting._Engine.mul_mono, operator.xor, operator.ixor

    def counted_mul_mono(m1, m2):
        work["monomial products"] += 1
        return mul_mono(m1, m2)

    def counted_xor(a, b):
        work["terms summed"] += len(a) + len(b)
        return xor(a, b)

    def counted_ixor(a, b):
        work["terms summed"] += len(b)
        return ixor(a, b)

    monkeypatch.setattr(rewriting._Engine, "mul_mono", staticmethod(counted_mul_mono))
    monkeypatch.setattr(operator, "xor", counted_xor)
    monkeypatch.setattr(operator, "ixor", counted_ixor)
    value = normalize("Q4001 (x Q5 x)", parse_context("gen x deg 2\n"))  # a fresh memo
    monkeypatch.undo()
    assert len(value.monomials) == 4491
    assert work == PINNED_CARTAN_SUMS
    assert work["terms summed"] <= 2 * work["monomial products"]


@st.composite
def expression_texts(draw):
    """A sum of 1..3 products of 1..3 factors on x, each factor a word of
    0..3 superscripts 0..40 with an exponent 1..3."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = []
        for _ in range(draw(st.integers(1, 3))):
            ops = draw(st.lists(st.integers(0, 40), max_size=3))
            word = " ".join(["Q%d" % s for s in ops] + ["x"])
            exp = draw(st.integers(1, 3))
            factors.append(word if exp == 1 else "(%s)^%d" % (word, exp))
        terms.append(" ".join(factors))
    return " + ".join(terms)


PRINTING_GOLDENS = {
    "Q40 Q16 Q6 x": "(Q17 Q13 x)^2 + (Q18 Q12 x)^2 + Q33 Q17 Q12 x + Q33 Q19 Q10 x"
    " + Q34 Q17 Q11 x + Q34 Q18 Q10 x",
    "x x x": "x^3",
    "Q5 x Q2 x": "x^2 Q5 x",
    "Q1 x": "0",
    "x + x": "0",
    "(Q17 Q13 x)^2": "(Q17 Q13 x)^2",
}


def printed_from_the_tree(p):
    """The printer's oracle: the canonical tree, formatted ("0" when there is none)."""
    node = p.to_expression()
    return "0" if node is None else format_expression(node)


@pytest.mark.parametrize("text", sorted(PRINTING_GOLDENS))
def test_printing_goldens(text):
    p = normalize(text, x_context())
    assert str(p) == PRINTING_GOLDENS[text]
    assert str(p) == printed_from_the_tree(p)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(expression_texts())
def test_printing_matches_formatting_the_expression_tree(text):
    p = normalize(text, x_context())
    assert str(p) == printed_from_the_tree(p)


def two_key_sort(p):
    """Oracle: the canonical order as two sorts, the monomials by a key that
    sorts their factors and then each monomial's factors by their own key."""

    def factor_key(factor):
        (ops, g), e = factor
        return (sum(ops), ops, g, e)

    def mono_key(mono):
        degree = sum((p.context.degree(g) + sum(ops)) * e for (ops, g), e in mono)
        return degree, tuple(sorted(map(factor_key, mono)))

    return [sorted(m, key=factor_key) for m in sorted(p.monomials, key=mono_key)]


# the generators y, x and z, of degrees 1, 2 and 3, and operation words on
# them, several to a degree; a generator's key sorts before any word's
GENERATOR_WORDS = (((), "y"), ((), "x"), ((), "z"))
OPERATION_WORDS = (((1,), "y"), ((1,), "x"), ((2,), "y"), ((0,), "z"), ((2,), "x"))


@st.composite
def monomial_sets(draw):
    """2..12 monomials, each an optional power of a generator times powers of
    1..3 operation words, with exponents 1..2.  So monomials of one degree
    and one leading factor, which only their later factors order, are
    common."""
    lead = st.none() | st.tuples(st.sampled_from(GENERATOR_WORDS), st.integers(1, 2))
    rest = st.dictionaries(st.sampled_from(OPERATION_WORDS), st.integers(1, 2), min_size=1, max_size=3)
    monomials = draw(st.lists(st.tuples(lead, rest), min_size=2, max_size=12))
    return frozenset(tuple(sorted([*([first] if first else []), *rest.items()])) for first, rest in monomials)


# y Q1 y times each of Q2 x, Q3 y and Q1 z, whose keys sort after Q1 y's: one
# degree and two equal leading factors
TIED_MONOMIALS = frozenset(
    ((((), "y"), 1), (((1,), "y"), 1), (word, 1)) for word in (((2,), "x"), ((3,), "y"), ((1,), "z"))
)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@example(TIED_MONOMIALS)
@given(monomial_sets())
def test_canonical_order_matches_the_two_key_sort(monomials):
    p = DLPolynomial(parse_context("gen x deg 2\ngen y deg 1\ngen z deg 3\n"), monomials)
    assert p.sorted_monomials() == two_key_sort(p)


def test_printing_builds_no_expression_nodes(monkeypatch):
    ctx = x_context()
    polys = [normalize(text, ctx) for text in PRINTING_GOLDENS]
    built = []
    for cls in (GenRef, QOp, Product, Power, Sum):
        init = cls.__init__

        def counted_init(self, *args, _init=init):
            built.append(type(self).__name__)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted_init)
    texts = [str(p) for p in polys]
    assert built == []
    assert texts == [PRINTING_GOLDENS[text] for text in PRINTING_GOLDENS]
    polys[0].to_expression()  # the counter does see the tree route
    assert {"GenRef", "QOp", "Power", "Sum"} <= set(built)


# -- robustness ---------------------------------------------------------------


DEEP = 20_000  # nesting depth of the code-built chains; the parser stops at 100

DEEP_CHAINS = {  # each wraps the tree so far as the first child, DEEP times
    "sum": lambda node: Sum((node, GenRef("x"))),
    "product": lambda node: Product((node, GenRef("x"))),
    "q": lambda node: QOp(4, node),
    "power": lambda node: Power(node, 1),
}
DEEP_DEGREES = {"sum": 2, "product": 2 * DEEP + 2, "q": 4 * DEEP + 2, "power": 2}
DEEP_TEXTS = {
    "sum": "(" * (DEEP - 1) + "x + x" + ") + x" * (DEEP - 1),
    "product": "(" * (DEEP - 1) + "x x" + ") x" * (DEEP - 1),
    "q": "Q4 " * DEEP + "x",
    "power": "(" * (DEEP - 1) + "x^1" + ")^1" * (DEEP - 1),
}
# Q4 x is a basis word of degree 6, and Q4 of a class of degree 6 vanishes
DEEP_NORMAL_FORMS = {"sum": "x", "product": "x^%d" % (DEEP + 1), "q": "0", "power": "x"}


def build_deep_chain(kind, leaf=GenRef("x")):
    node = leaf
    for _ in range(DEEP):
        node = DEEP_CHAINS[kind](node)
    return node


@pytest.fixture(scope="module")
def deep_chain():
    """``build_deep_chain`` for every kind and both leaves, built once for
    this module's tests only, so that later tests do not carry the chains
    through every collection.  While they live, ``gc.freeze`` keeps them,
    and everything else built so far, out of the collector's generations."""
    leaves = GenRef("x"), "x"
    chains = {(kind, leaf): build_deep_chain(kind, leaf) for kind in DEEP_CHAINS for leaf in leaves}
    gc.freeze()
    yield lambda kind, leaf=GenRef("x"): chains[kind, leaf]
    gc.unfreeze()


def deep_map(node, kind):
    """The map sending one generator g, of the chain's degree, to ``node``
    over a module generator x (x_context makes x a scalar)."""
    source = GeneratorContext([("g", DEEP_DEGREES[kind])])
    return SubstitutionMap(source, GeneratorContext([("x", 2)]), {"g": node})


def composed(m):
    """The image of g under the identity of m's target after m."""
    return compose_maps(SubstitutionMap(m.target, m.target, {"x": "x"}), m).image_polynomial("g")


def test_deeply_nested_code_built_trees_raise_a_one_line_value_error():
    # The name is kept so that test ids stay stable: every walk is one
    # iterative fold, so a deep tree built in code gets its value.
    node = GenRef("x")
    for _ in range(3000):
        node = Sum((node, GenRef("x")))
    assert format_expression(node) == "(" * 2999 + "x + x" + ") + x" * 2999
    assert str(normalize(node, x_context())) == "x"  # 3,001 copies of x


MU_40 = MUHomology(40)

# route -> (the route on a deep chain of one kind, its value for each kind)
DEEP_TREE_ROUTES = {
    "format_expression": (lambda node, kind: format_expression(node), DEEP_TEXTS),
    "normalize": (lambda node, kind: str(normalize(node, x_context())), DEEP_NORMAL_FORMS),
    "min_en_level": (
        lambda node, kind: min_en_level(node, x_context()),
        {"sum": 1, "product": 1, "q": 4, "power": 1},
    ),
    "en_level_witness": (  # Q4 on x, the innermost operation
        lambda node, kind: en_level_witness(node, x_context()),
        {"sum": None, "product": None, "q": (4, 2), "power": None},
    ),
    "verify_identity-left": (
        lambda node, kind: verify_identity(node, DEEP_NORMAL_FORMS[kind], x_context())[0],
        dict.fromkeys(DEEP_CHAINS, True),
    ),
    "verify_identity-right": (
        lambda node, kind: verify_identity(DEEP_NORMAL_FORMS[kind], node, x_context())[0],
        dict.fromkeys(DEEP_CHAINS, True),
    ),
    "_flatten_terms": (
        lambda node, kind: [format_expression(t) for t in _flatten_terms(node)],
        {
            "sum": ["x"] * (DEEP + 1),
            "product": [" ".join(["x"] * (DEEP + 1))],
            "q": [DEEP_TEXTS["q"]],
            "power": [DEEP_TEXTS["power"]],
        },
    ),
    "expression_degrees": (
        lambda node, kind: expression_degrees(node, x_context()),
        {kind: {degree} for kind, degree in DEEP_DEGREES.items()},
    ),
    "homogeneous_degree": (lambda node, kind: homogeneous_degree(node, x_context()), DEEP_DEGREES),
    "SubstitutionMap._subst": (
        lambda node, kind: format_expression(
            SubstitutionMap(x_context(), x_context(), {"x": "x"})._subst(node)
        ),
        DEEP_TEXTS,
    ),
    "evaluate_in_model": (  # x -> b1 in H_*MU; Q4 b1 has degree 6
        lambda node, kind: str(evaluate_in_model(node, {"x": MU_40.b(1)}, MU_40)),
        {"sum": "b1", "product": "b1^%d" % (DEEP + 1), "q": "0", "power": "b1"},
    ),
    "suspend": (  # the product of module factors dies; Q4 x' is of degree 7
        lambda node, kind: str(suspend(deep_map(node, kind)).image_polynomial("g'")),
        {"sum": "x'", "product": "0", "q": "0", "power": "x'"},
    ),
    "compose_maps": (lambda node, kind: str(composed(deep_map(node, kind))), DEEP_NORMAL_FORMS),
}


@pytest.mark.parametrize("route", sorted(DEEP_TREE_ROUTES))
def test_deep_trees_give_a_value_error_on_every_entry_point(route, deep_chain):
    # The name is kept so that test ids stay stable: every route gives its
    # value on each chain.
    walk, values = DEEP_TREE_ROUTES[route]
    for kind in DEEP_CHAINS:
        assert walk(deep_chain(kind), kind) == values[kind], kind


@pytest.mark.parametrize("route", sorted(DEEP_TREE_ROUTES))
def test_a_non_node_deep_in_a_tree_raises_a_type_error_on_every_route(route, deep_chain):
    walk, _ = DEEP_TREE_ROUTES[route]
    for kind in DEEP_CHAINS:
        with pytest.raises(TypeError, match="not an expression node: 'x'"):
            walk(deep_chain(kind, "x"), kind)


# Each chain nested on the right, wrapping the tree so far as the last child;
# with the left-nested chains of DEEP_CHAINS, "nested either way".
RIGHT_NESTED = {
    "sum": lambda node: Sum((GenRef("x"), node)),
    "product": lambda node: Product((GenRef("x"), node)),
}
RIGHT_NESTED_TEXTS = {
    "sum": "x + (" * (DEEP - 1) + "x + x" + ")" * (DEEP - 1),
    "product": "x (" * (DEEP - 1) + "x x" + ")" * (DEEP - 1),
}


def right_nested_chain(kind):
    node = GenRef("x")
    for _ in range(DEEP):
        node = RIGHT_NESTED[kind](node)
    return node


def printing_work(node, monkeypatch):
    """format_expression(node), and the summed size of what each level of the
    printing fold builds: the characters of a string, the entries of a list."""
    sizes = []

    def counted(handler):
        def counted_handler(*args):
            value = handler(*args)
            sizes.append(len(value[0]))
            return value

        return counted_handler

    monkeypatch.setattr(expressions, "_PRINT", tuple(map(counted, expressions._PRINT)))
    text = format_expression(node)
    monkeypatch.undo()
    return text, sum(sizes)


@pytest.mark.parametrize("kind", sorted(DEEP_CHAINS))
def test_printing_builds_work_linear_in_the_node_count(kind, deep_chain, monkeypatch):
    nodes = {"sum": 2 * DEEP + 1, "product": 2 * DEEP + 1, "q": DEEP + 1, "power": DEEP + 1}[kind]
    text, work = printing_work(deep_chain(kind), monkeypatch)
    assert text == DEEP_TEXTS[kind]
    assert work <= 2 * nodes
    if kind in RIGHT_NESTED:
        text, right_work = printing_work(right_nested_chain(kind), monkeypatch)
        assert text == RIGHT_NESTED_TEXTS[kind]
        assert right_work <= 2 * nodes


def flattening_work(node, monkeypatch):
    """_flatten_terms(node) as text, and the entries its concatenations copied:
    those of every list but the one a concatenation returns, grown in place."""
    copied = []
    chained = substitutions._chained

    def counted_chained(lists):
        out = chained(lists)
        copied.append(sum(len(entries) for entries in lists if entries is not out))
        return out

    monkeypatch.setattr(substitutions, "_chained", counted_chained)
    terms = [format_expression(t) for t in _flatten_terms(node)]
    monkeypatch.undo()
    return terms, sum(copied)


@pytest.mark.parametrize("kind", sorted(RIGHT_NESTED))
def test_flattening_a_right_nested_chain_copies_at_most_twice_its_left_twin(kind, deep_chain, monkeypatch):
    want = DEEP_TREE_ROUTES["_flatten_terms"][1][kind]
    left, left_work = flattening_work(deep_chain(kind), monkeypatch)
    right, right_work = flattening_work(right_nested_chain(kind), monkeypatch)
    assert left == right == want
    assert left_work <= 2 * DEEP + 2
    assert right_work <= 2 * left_work


def test_en_level_routes_keep_the_first_maximal_pair():
    ctx = x_context()
    # Q5 on x and Q9 on Q4 x both need E_5; the witness is the first scanned
    for text, witness in (("Q9 Q4 x + Q5 x", (9, 6)), ("Q5 x + Q9 Q4 x", (5, 2))):
        node = parse_expression(text, ctx)
        assert min_en_level(node, ctx) == 5
        assert en_level_witness(node, ctx) == witness
    assert min_en_level(parse_expression("x^2", ctx), ctx) == 1
    assert en_level_witness(parse_expression("x^2", ctx), ctx) is None


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_normalize_word_rejects_an_unknown_generator(strategy):
    with pytest.raises(UnknownGeneratorError):
        normalize_word((5, 2), "y", x_context(), strategy)


def test_normalization_is_idempotent_on_corpus():
    ctx = x_context()
    rng = random.Random(97)
    for trial in range(120):
        word = [rng.randint(1, 18) for _ in range(rng.randint(1, 3))]
        text = " ".join("Q%d" % s for s in word) + " x"
        once = normalize(text, ctx)
        if once.is_zero():
            continue
        again = normalize(str(once), ctx)
        assert once == again, text


class FirstGeneratorEngine(rewriting._Engine):
    """``_Engine.peel`` before it split off the square part: one copy of the
    first generator of every monomial.  Kept as an oracle."""

    def peel(self, mono):
        w, e = mono[0]
        rest = mono[1:] if e == 1 else ((w, e - 1),) + mono[1:]
        return ((w, 1),), self.generator_degree(w), rest


def powered_products(rng, count):
    """Seeded Q^s of a product of one to three powers of words on x (degree 2)
    and y (degree 1), with s at or above the product's degree."""
    degrees = {"x": 2, "y": 1}
    items = []
    for _ in range(count):
        factors, total = [], 0
        for _ in range(rng.randint(1, 3)):
            g = rng.choice("xy")
            below, ops = degrees[g], []
            for _ in range(rng.randint(0, 2)):
                ops.append(below + rng.randint(0, 4))
                below += ops[-1]
            e = rng.randint(1, 5)
            word = " ".join(["Q%d" % s for s in reversed(ops)] + [g])
            factors.append(("(%s)^%d" if ops else "%s^%d") % (word, e))
            total += below * e
        items.append("Q%d (%s)" % (total + rng.randint(0, 8), " ".join(factors)))
    return items


def test_the_square_part_peel_matches_the_first_generator_peel():
    # each engine on a fresh context, so neither reads the other's cached values
    text = "gen x deg 2\ngen y deg 1\n"
    new, old = parse_context(text), parse_context(text)
    engine = FirstGeneratorEngine(old)
    nonzero = 0
    for item in powered_products(random.Random(2317), 150):
        got = normalize(item, new)
        assert got.monomials == engine.evaluate(parse_expression(item, old)), item
        nonzero += not got.is_zero()
    assert nonzero > 90
    # the square rule takes each square part, so fewer values are memoized
    assert len(new._mono_cache) < len(old._mono_cache)


def test_normalize_is_additive():
    ctx = x_context()
    rng = random.Random(301)
    for trial in range(60):
        a = "Q%d Q%d x" % (rng.randint(1, 16), rng.randint(1, 16))
        b = "Q%d x^2" % rng.randint(1, 16)
        combined = normalize("%s + %s" % (a, b), ctx)
        assert combined == normalize(a, ctx) + normalize(b, ctx)


# -- substitution calculus ---------------------------------------------------


def test_juggling_composites_agree():
    assert juggling_residual().is_zero()


def test_composition_matches_pointwise_application():
    f, g = mu(), relation_map()
    composite = compose_maps(f, g)
    direct = f.apply(g.image_polynomial("z30"))
    assert composite.image_polynomial("z30") == direct


def test_suspension_is_functorial_on_the_juggling_maps():
    for f, g in ((mu(), relation_map()), (qbar(), nu()), (beta(), alpha())):
        left = suspend(compose_maps(f, g))
        right = compose_maps(suspend(f), suspend(g))
        assert left.equal_normalized(right), (f.name, g.name)


def test_suspension_kills_products_and_keeps_operations():
    sus = suspend(relation_map())
    image = sus.image("z'31")
    # the suspended image is the displayed six-term indeterminacy form
    want = parse_expression(SIGMA_R_IMAGE, sus.target)
    assert format_expression(image) == format_expression(want)


def test_suspended_relation_matches_displayed_form():
    sus = suspended_relation()
    want = parse_expression(SIGMA_R_IMAGE, sus.target)
    assert format_expression(sus.image("z'31")) == format_expression(want)


def test_suspension_renames_by_degree_shift():
    sus = suspend(qbar())
    # module generators pick up a prime and a degree shift; the base class stays
    assert "z'15" in sus.source.order and "x" in sus.source.order
    assert format_expression(sus.image("z'15")) == "Q10 y'5 + x^2 Q6 y'5"


def test_substitution_degree_mismatch_is_rejected():
    ctx_a = parse_context("gen u deg 4\n")
    ctx_b = parse_context("gen v deg 2\n")
    from dlforge.substitutions import SubstitutionMap

    with pytest.raises(Exception):
        SubstitutionMap(ctx_a, ctx_b, {"u": "v"})


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_rewriting_raises_when_its_step_budget_runs_out(strategy, monkeypatch):
    # a fresh context, since the word caches live on it
    monkeypatch.setattr(rewriting, "STEP_BUDGET", 3)
    with pytest.raises(rewriting.RewriteBudgetExceeded):
        normalize_word(LONG_STABLE_WORDS[0], "x", parse_context("gen x deg 2\n"), strategy)
