"""Operation actions in the two homology models, checked against the defining
recursions and the published value tables."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlforge import homology, suites
from dlforge.expressions import parse_context
from dlforge.homology import (
    DualSteenrodAlgebra,
    MUHomology,
    check_dl_compatibility,
    dual_steenrod,
    evaluate_in_model,
    indecomposable_dimension,
    indeterminacy_scan,
    map_p,
    mu_homology,
)
from dlforge.polynomial import FIELD_BITS, GradedPolynomial, PolynomialRing
from dlforge.relations import Y_DEFINITIONS, qbar, suspended_relation, y_context
from dlforge.rewriting import adem_step, normalize
from dlforge.suites import PRIDDY_VALUES, STEINBERGER_VALUES, run_suite, statement_sides
from dlforge.substitutions import suspend


# -- dual algebra: antipode and action --------------------------------------


def test_antipode_base_cases():
    A = dual_steenrod()
    assert A.antipode_xi(1) == A.xi(1)
    assert str(A.antipode_xi(2)) == "xi2 + xi1^3"
    assert str(A.antipode_xi(3)) == "xi3 + xi1 xi2^2 + xi1^4 xi2 + xi1^7"


def test_antipode_satisfies_milnor_recursion():
    # sum_{j <= i} xi_{i-j}^{2^j} xibar_j = 0 for every i >= 1
    A = dual_steenrod()
    for i in range(1, A.top_index + 1):
        total = A.ring.zero()
        for j in range(0, i + 1):
            total = total + A.xi(i - j) ** (2 ** j) * A.antipode_xi(j)
        assert total.is_zero(), i


def test_antipode_degrees():
    A = dual_steenrod()
    for i in range(1, 6):
        assert A.antipode_xi(i).degree() == 2 ** i - 1


def test_action_value_table_on_the_conjugates():
    A = dual_steenrod()
    for statement in STEINBERGER_VALUES:
        got, want = statement_sides(A, statement)
        assert got == want, statement


def test_conjugate_ladder():
    # Q^{2^i} xibar_i = xibar_{i+1}
    A = dual_steenrod()
    for i in range(1, 4):
        assert A.q_conjugate(2 ** i, i) == A.antipode_xi(i + 1), i


def test_generating_function_inverts_the_total_series():
    A = dual_steenrod()
    total = A.ring.one()
    for i in range(1, A.top_index + 1):
        total = total + A.xi(i)
    claimed = A.ring.one() + A.xi(1)
    for s in range(1, 32):
        claimed = claimed + A.q_xi1(s)
    residual = total * claimed + A.ring.one()
    assert all(d > 32 for d in residual.degrees_present())


def test_q0_on_xi1_vanishes():
    A = dual_steenrod()
    assert A.q_xi1(0).is_zero()
    assert A.q(0, A.xi(1)).is_zero()


def test_xi1_squared_identities():
    A = dual_steenrod()
    sq = A.xi(1) * A.xi(1)
    assert A.q(6, sq) == A.xi(1, 8)
    assert A.q(8, sq) == A.xi(1, 4) * A.q(4, sq)
    assert A.q(10, sq) == A.q(4, sq) * A.q(4, sq)
    assert A.q(3, A.xi(2)) == A.xi(2) ** 2


def test_case_rule_agrees_with_cartan_route():
    # the closed form for Q^s xibar_i against expanding the polynomial
    A = dual_steenrod()
    for i in (1, 2, 3):
        for s in range(0, 12):
            assert A.conjugate_action(s, i) == A.q(s, A.antipode_xi(i)), (s, i)


def test_self_check_is_clean():
    A = dual_steenrod()
    checked, failures = A.self_check()
    assert not failures
    assert len(checked) >= 40


def shared_bit_inverse(ring, d, memo):
    # graded_inverse with a fault: one bit may hold two distinct generators
    choices = sorted(ring.gen_keys) + [g + h for g, h in combinations(sorted(ring.gen_keys), 2)]

    def rest(k, r):
        if r == 0:
            return [0]
        if 1 << k > r:
            return []
        out = list(rest(k + 1, r))
        for c in choices:
            deg = ring.monomial_degree(c) << k
            if deg <= r:
                out += [(c << k) + m for m in rest(k + 1, r - deg)]
        return out

    return GradedPolynomial(ring, dict.fromkeys(rest(0, d), 1))


def test_self_check_fails_when_two_generators_share_a_bit(monkeypatch):
    # negative control for the inverse: the model and its suite row must see
    # it, and each failure names what disagrees
    monkeypatch.setattr(homology, "graded_inverse", shared_bit_inverse)
    _, failures = DualSteenrodAlgebra(40).self_check()
    assert failures == [
        ("inverse-matches-conjugate-4", "degree 15"),
        ("inverse-matches-conjugate-5", "degree 31"),
        ("conjugate-ladder-3", "Q^{2^3} xibar_3"),
        ("conjugate-square-2", "Q^3 xibar_2"),
        ("conjugate-square-3", "Q^7 xibar_3"),
        ("conjugate-square-4", "Q^15 xibar_4"),
    ]
    monkeypatch.setattr(suites, "dual_steenrod", DualSteenrodAlgebra)  # not the cached model
    rows = {row["id"]: row for row in run_suite("steinberger")["checks"]}
    assert rows["10-self-check"]["status"] == "fail"
    assert rows["10-self-check"]["witness"] == (
        "inverse-matches-conjugate-4: degree 15; inverse-matches-conjugate-5: degree 31;"
        " conjugate-ladder-3: Q^{2^3} xibar_3"
    )
    # a wrong Cartan route shows both sides of the comparison
    monkeypatch.undo()
    right = DualSteenrodAlgebra.q_conjugate

    def wrong(self, s, i):
        value = right(self, s, i)
        return value + self.xi(1) ** 3 if (s, i) == (2, 1) else value

    monkeypatch.setattr(DualSteenrodAlgebra, "q_conjugate", wrong)
    _, failures = DualSteenrodAlgebra(40).self_check()
    assert failures == [("case-vs-cartan-1-2", "Q^2 xibar_1: xi2 + xi1^3 vs xi2")]


def test_a_passing_self_check_prints_no_element(monkeypatch):
    # the detail of a comparison is text for a failure only
    printed = []
    real = GradedPolynomial.__str__
    monkeypatch.setattr(GradedPolynomial, "__str__", lambda p: printed.append(p) or real(p))
    checked, failures = DualSteenrodAlgebra(40).self_check()
    assert (len(checked), failures, len(printed)) == (53, [], 0)


def test_top_conjugate_is_indecomposable_mod_decomposables():
    A = dual_steenrod()
    assert A.q(16, A.xi(4)).indecomposable_part() == A.xi(5)


def test_instability_in_the_dual_algebra():
    A = dual_steenrod()
    assert A.q(0, A.xi(2)).is_zero()
    assert A.q(2, A.xi(2)).is_zero()
    assert A.q(7, A.xi(3)) == A.xi(3) ** 2


# -- complex bordism homology ------------------------------------------------


def test_priddy_value_table():
    M = mu_homology()
    b = M.b
    assert M.q(2, b(1)) == b(1) ** 2
    assert M.q(4, b(1)) == b(3) + b(1) * b(2) + b(1) ** 3
    assert M.q(6, b(1)) == b(1) ** 4
    assert M.q(8, b(1)) == (
        b(5) + b(1) * b(4) + b(2) * b(3) + b(1) ** 2 * b(3) + b(1) * b(2) ** 2 + b(1) ** 3 * b(2) + b(1) ** 5
    )
    assert M.q(10, b(1)) == b(3) ** 2 + b(1) ** 2 * b(2) ** 2 + b(1) ** 6
    assert M.q(6, b(2)) == b(5) + b(1) * b(4) + b(2) * b(3) + b(1) * b(2) ** 2
    assert M.q(10, b(2)) == (
        b(1) ** 2 * b(5) + b(1) ** 3 * b(4) + b(1) ** 2 * b(2) * b(3) + b(1) ** 3 * b(2) ** 2
    )


def test_priddy_derived_identities():
    M = mu_homology()
    b = M.b
    assert M.q(6, b(1)) + b(1) ** 4 == M.ring.zero()
    assert M.q(10, b(1)) == M.q(4, b(1)) * M.q(4, b(1))
    assert M.q(6, b(2)) == M.q(8, b(1)) + b(1) ** 2 * M.q(4, b(1))
    assert (M.q(10, b(2)) + b(1) ** 2 * M.q(6, b(2))).is_zero()


def test_odd_operations_vanish_on_generators():
    M = mu_homology()
    for k in (1, 2, 3):
        for s in range(1, 13, 2):
            assert M.q(s, M.b(k)).is_zero(), (s, k)


def test_top_operations_square_generators():
    M = mu_homology()
    for k in range(1, 9):
        assert M.q(2 * k, M.b(k)) == M.b(k) ** 2, k


def test_operations_below_degree_vanish():
    M = mu_homology()
    for k in (2, 3, 4):
        for s in range(0, 2 * k):
            value = M.q(s, M.b(k))
            if s % 2 or s < 2 * k:
                assert value.is_zero() or s == 2 * k, (s, k)


@pytest.mark.parametrize("model", [dual_steenrod, mu_homology])
def test_generator_actions_below_the_generator_degree_vanish(model):
    # instability on generators: the Cartan extension starts its sum at |g|
    M = model()
    for index, d in enumerate(M.ring.degrees):
        for p in range(min(d, M.max_degree - d + 1)):
            assert M.generator_action(p, index).is_zero(), (p, M.ring.generators[index].name)


def test_adem_coherence_spot_checks():
    # evaluating an inadmissible composite matches its Adem expansion
    M = mu_homology()
    for r, s, k in ((9, 4, 1), (12, 4, 1), (10, 4, 2), (14, 6, 1)):
        direct = M.q(r, M.q(s, M.b(k)))
        expanded = M.ring.zero()
        for (top, inner), _ in adem_step(r, s):
            expanded = expanded + M.q(top, M.q(inner, M.b(k)))
        assert direct == expanded, (r, s, k)


def test_cartan_formula_on_products():
    M = mu_homology()
    for s in (4, 6, 8):
        assert M.cartan_check(s, M.b(1), M.b(2)), s
    A = dual_steenrod()
    assert A.cartan_check(6, A.xi(1), A.xi(1) * A.xi(1))


def test_action_is_additive():
    M = mu_homology()
    x = M.b(1) * M.b(2)
    y = M.b(3)
    for s in (2, 4, 6):
        assert M.q(s, x + y) == M.q(s, x) + M.q(s, y)


def test_odd_degree_actions_come_back_zero():
    # the generating function never produces an odd-degree class; the
    # ModelInconsistencyError guard inside generator_action is a safety net
    M = mu_homology()
    for j in (1, 3, 5, 7):
        assert M.generator_action(j, 0).is_zero(), j


def test_degree_cap_is_enforced():
    M = mu_homology(max_degree=12)
    with pytest.raises(ValueError):
        M.q(20, M.b(1))


# -- the squaring map ---------------------------------------------------------


def test_map_p_sends_spheres_to_conjugate_squares():
    A = dual_steenrod()
    M = mu_homology()
    assert map_p(M.b(1), M, A) == A.xi(1) * A.xi(1)
    assert map_p(M.b(3), M, A) == A.xi(2) * A.xi(2)
    assert map_p(M.b(7), M, A) == A.xi(3) * A.xi(3)
    for k in (2, 4, 5, 6):
        assert map_p(M.b(k), M, A).is_zero(), k


def test_model_factories_share_one_model_per_cap():
    # the default cap and the cap spelled either way give the same model, so
    # map_p's default target is the model the caller built
    for factory in (dual_steenrod, mu_homology):
        assert factory() is factory(40) is factory(max_degree=40), factory
    A, M = dual_steenrod(40), mu_homology(40)
    assert map_p(M.b(1)) == A.xi(1) ** 2
    assert (dual_steenrod().xi(1) + A.xi(1)).is_zero()


def test_map_p_is_a_ring_map():
    A = dual_steenrod()
    M = mu_homology()
    x = M.b(1) + M.b(2)
    y = M.b(1) * M.b(3)
    assert map_p(x * y, M, A) == map_p(x, M, A) * map_p(y, M, A)
    assert map_p(x + y, M, A) == map_p(x, M, A) + map_p(y, M, A)


def test_map_p_commutes_with_operations():
    ok, failures = check_dl_compatibility(24, 14)
    assert ok, failures[:3]


def count_kernel_products(monkeypatch):
    # every GF2 product, a direct ``*`` or a term of a sum, is one pair that
    # the one mod-2 product loop, ``PolynomialRing.sum_products``, receives;
    # each pair is recorded as the number of monomial pairs it visits
    sizes = []
    kernel = PolynomialRing.sum_products

    def counted(ring, pairs):
        pairs = list(pairs)
        sizes.extend(len(a.terms) * len(b.terms) for a, b in pairs)
        return kernel(ring, pairs)

    monkeypatch.setattr(PolynomialRing, "sum_products", counted)
    return sizes


def test_commute_sweep_does_a_pinned_number_of_products(monkeypatch):
    # an exact work count, so a change in the amount of work fails here even
    # on a machine too noisy to time it
    calls = count_kernel_products(monkeypatch)
    ok, failures = check_dl_compatibility(24, 14, MUHomology(40), DualSteenrodAlgebra(40))
    assert ok, failures[:3]
    # no product builds an inverse component: graded_inverse enumerates them
    assert len(calls) == 1393


def test_commute_sweep_does_a_pinned_amount_of_work(monkeypatch):
    # the monomial pairs the products visit, and one map_p of u and one of
    # the sum of its Q^s u per swept monomial u
    maps = []
    count_map = homology.map_p

    def counted_map(*args):
        maps.append(None)
        return count_map(*args)

    pairs = count_kernel_products(monkeypatch)
    monkeypatch.setattr(homology, "map_p", counted_map)
    M = MUHomology(40)
    ok, failures = check_dl_compatibility(24, 14, M, DualSteenrodAlgebra(40))
    assert ok, failures[:3]
    assert sum(pairs) == 19080
    assert len(maps) == 2 * len(M.monomials_up_to(14)) == 88


def per_s_sweep(s_range, degree_range, source, target):
    # the commute sweep with one map_p per (s, u), as it ran before it
    # compared the sums over s; kept as an oracle for the failures list
    failures = []
    for u in source.monomials_up_to(degree_range):
        image = map_p(u, source, target)
        for s in range(s_range + 1):
            lhs = map_p(source.q(s, u), source, target)
            rhs = target.q(s, image)
            if lhs != rhs:
                failures.append((s, u, lhs, rhs))
    return failures


def test_commute_sweep_names_the_first_faulty_operation(monkeypatch):
    # negative control: Q^4 b1 gains b3, which p sends to xi2^2.  b1 is the
    # first swept monomial; through the Cartan and square rules the fault
    # reaches 12 monomials, several of them at more than one s.
    action = MUHomology.generator_action

    def faulty(self, j, index):
        value = action(self, j, index)
        return value + self.b(3) if (j, index) == (4, 0) else value

    monkeypatch.setattr(MUHomology, "generator_action", faulty)
    M, A = MUHomology(40), DualSteenrodAlgebra(40)
    ok, failures = check_dl_compatibility(24, 14, M, A)
    assert not ok
    assert failures[0][:2] == (4, M.b(1))
    assert len(failures) == 50
    assert failures == per_s_sweep(24, 14, M, A)


def test_commute_sweep_fails_on_a_wrong_image(monkeypatch):
    # negative control: b3 sent to xi2^2 + xi1^6 instead of xi2^2
    images = homology._p_images

    def wrong_images(source, target):
        out = dict(images(source, target))
        out["b3"] = target.xi(2, 2) + target.xi(1, 6)
        return out

    monkeypatch.setattr(homology, "_p_images", wrong_images)
    ok, failures = check_dl_compatibility(24, 14, MUHomology(40), DualSteenrodAlgebra(40))
    assert not ok and failures
    rows = {row["id"]: row for row in run_suite("model-compat", {"scrub_timing": True})["checks"]}
    assert rows["01-commute-sweep"]["status"] == "fail"


def test_map_p_spot_value_both_routes():
    A = dual_steenrod()
    M = mu_homology()
    lhs = map_p(M.q(4, M.b(1)), M, A)
    rhs = A.q(4, A.xi(1) * A.xi(1))
    want = A.xi(2) ** 2 + A.xi(1) ** 6
    assert lhs == rhs == want
    # (Q^2 xi1)^2 is the same class, through the conjugate value
    assert A.q_xi1(2) ** 2 == want


# -- evaluation of symbolic expressions ----------------------------------------


def test_evaluate_symbolic_expression_in_model():
    A = dual_steenrod()
    sq = A.xi(1) * A.xi(1)
    got = evaluate_in_model("Q8 u + u^3", {"u": sq}, A)
    assert got == A.q(8, sq) + sq ** 3


def test_evaluate_validates_degrees_against_context():
    from dlforge.expressions import parse_context

    A = dual_steenrod()
    ctx = parse_context("gen u deg 3\n")
    with pytest.raises(Exception):
        evaluate_in_model("Q4 u", {"u": A.xi(1) * A.xi(1)}, A, ctx)


@st.composite
def words_on_x(draw, max_degree):
    """Text and degree of Q^{s_1} .. Q^{s_k} x (k <= 3) with |x| = 2.

    Each superscript is at least one below the degree it acts on, so some
    operations vanish by instability and most pairs are inadmissible.  Odd
    operations on the images of x vanish in both models, so three
    superscripts in four are even.
    """
    ops = []
    degree = 2
    for _ in range(draw(st.integers(0, 3))):
        if 2 * degree - 1 > max_degree:
            break
        s = draw(st.integers(degree - 1, max_degree - degree))
        if s % 2 and s > degree and draw(st.integers(0, 3)):
            s -= 1
        ops.append("Q%d" % s)
        degree += s
    return " ".join(ops[::-1] + ["x"]), degree


@st.composite
def oracle_expressions(draw, max_degree=40):
    """A word on x, or Q^s of a product of two words, or Q^s of a sum of two
    words of different degrees, of degree <= max_degree."""
    kind = draw(st.sampled_from(("word", "product", "sum")))
    if kind == "word":
        return draw(words_on_x(max_degree))[0]
    if kind == "product":
        u, du = draw(words_on_x(max_degree // 4))
        v, dv = draw(words_on_x(max_degree // 4))
        s = draw(st.integers(du + dv - 1, max_degree - du - dv))
        return "Q%d (%s %s)" % (s, u, v)
    u, du = draw(words_on_x(max_degree // 2))
    v, dv = draw(words_on_x(max_degree // 2).filter(lambda word: word[1] != du))
    s = draw(st.integers(min(du, dv) - 1, max_degree - max(du, dv)))
    return "Q%d (%s + %s)" % (s, u, v)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(oracle_expressions())
def test_normal_form_evaluates_like_the_expression(text):
    # the free-algebra rewriter against both model actions (Priddy, Steinberger)
    context = parse_context("gen x deg 2\n")
    normal_form = normalize(text, context)
    M = mu_homology()
    A = dual_steenrod()
    for model, image in ((M, M.b(1)), (A, A.xi(1) ** 2)):
        assignment = {"x": image}
        want = evaluate_in_model(text, assignment, model, context)
        assert evaluate_in_model(normal_form, assignment, model) == want, (model.name, text)


def test_y_definitions_vanish_at_xi1_squared():
    A = dual_steenrod()
    assign = {"x": A.xi(1) * A.xi(1)}
    for name, expr in Y_DEFINITIONS.items():
        value = evaluate_in_model(expr, assign, A, y_context())
        assert value.is_zero(), name


# -- indecomposables and indeterminacy ------------------------------------------


def test_indecomposable_dimensions():
    A = dual_steenrod()
    for d in (5, 11, 13, 14):
        assert indecomposable_dimension(A, d) == 0, d
    assert indecomposable_dimension(A, 31) == 1
    for i in range(1, 6):
        assert indecomposable_dimension(A, 2 ** i - 1) == 1, i


def test_relation_indeterminacy_scan_is_all_decomposable():
    A = dual_steenrod()
    scan = indeterminacy_scan(suspended_relation(), A, {"x": A.xi(1) * A.xi(1)})
    assert scan["all_decomposable"]
    assert len(scan["terms"]) == 6
    for row in scan["terms"]:
        assert row["decomposable"], row["term"]


def test_firstjuggle_indeterminacy_scan():
    A = dual_steenrod()
    scan = indeterminacy_scan(suspend(qbar()), A, {"x": A.xi(1) * A.xi(1)})
    assert scan["all_decomposable"]
    degrees = {row["source_degree"] for row in scan["terms"]}
    assert degrees == {5}


def test_random_monomials_have_consistent_degrees():
    A = dual_steenrod()
    rng = random.Random(4)
    for d in rng.sample(range(2, 20), 8):
        for mono in A.monomials_of_degree(d):
            assert mono.degree() == d


# -- cost follows the request, not the cap ------------------------------------


def test_mu_inverse_grows_only_to_the_requested_degree():
    M = MUHomology(256)
    for statement in PRIDDY_VALUES:
        got, want = statement_sides(M, statement)
        assert got == want, statement
    # the highest degree asked for is 14 (Q10 b2), far below the cap; the
    # memo is keyed by (bit, remaining degree)
    assert max(r for _, r in M._inverse) <= 14


def test_dual_inverse_grows_only_to_the_requested_degree():
    A = DualSteenrodAlgebra(256)
    assert A.q_xi1(5).terms == dual_steenrod().q_xi1(5).terms
    assert max(r for _, r in A._inverse) == 6


def test_inverse_components_match_across_caps():
    small, large = mu_homology(), MUHomology(256)
    for d in (0, 2, 14, 40, 22, 8):
        assert large._inverse_component(d).terms == small._inverse_component(d).terms
    with pytest.raises(ValueError):
        small._inverse_component(42)


# -- the Cartan recursion on packed keys ----------------------------------------


class TupleRecursion:
    """DLModel's recursion before it worked on packed keys: unpack each
    monomial and run the Cartan and square rules on sorted
    (generator index, exponent) tuples.  Kept as an oracle; ``q`` is
    replaced, so generator actions that call ``q`` use this route too."""

    def __init__(self, max_degree):
        super().__init__(max_degree)
        self._tuple_cache = {}

    def q(self, s, element):
        return self.ring.sum(self.tuple_mono(s, self.ring.unpack(m)) for m in element.terms)

    def tuple_mono(self, s, mono):
        if not mono:
            return self.one if s == 0 else self.zero
        key = (s, mono)
        if key in self._tuple_cache:
            return self._tuple_cache[key]
        degrees = self.ring.degrees
        if len(mono) == 1 and mono[0][1] == 1:
            result = self.generator_action(s, mono[0][0])
        elif all(e % 2 == 0 for _, e in mono):
            if s % 2:
                result = self.zero
            else:
                half = self.tuple_mono(s // 2, tuple((g, e // 2) for g, e in mono))
                result = half * half
        else:
            g, e = mono[0]
            rest = tuple(m for m in ((g, e - 1),) + mono[1:] if m[1] > 0)
            rest_degree = sum(degrees[h] * f for h, f in rest)
            pairs = []
            for i in range(degrees[g], s - rest_degree + 1):
                left = self.tuple_mono(i, ((g, 1),))
                if left.is_zero():
                    continue
                right = self.tuple_mono(s - i, rest)
                if not right.is_zero():
                    pairs.append((left, right))
            result = self.ring.sum_products(pairs)
        self._tuple_cache[key] = result
        return result


class TupleMU(TupleRecursion, MUHomology):
    pass


class TupleDual(TupleRecursion, DualSteenrodAlgebra):
    pass


ORACLES = [(MUHomology, TupleMU), (DualSteenrodAlgebra, TupleDual)]


def packed_mismatches(model, oracle, pairs):
    """The (s, u) whose packed Q^s u differs from the tuple route's."""
    bad = []
    for s, u in pairs:
        try:
            got = model.q(s, u).terms
        except RecursionError:  # a recursion that never bottoms out
            got = None
        if got != oracle.q(s, u).terms:
            bad.append((s, u))
    return bad


@pytest.mark.parametrize("cls, oracle", ORACLES, ids=["h-mu", "dual-steenrod"])
def test_packed_recursion_matches_the_tuple_recursion(cls, oracle):
    model, tuples = cls(40), oracle(40)
    pairs = [(s, u) for u in model.monomials_up_to(14) for s in range(25)]
    assert packed_mismatches(model, tuples, pairs) == []
    # The sweep holds every (s, u) below its bounds, and the recursion never
    # leaves it, so each cache holds exactly the requested pairs; a route
    # that skipped its cache or wandered outside the sweep would fail here.
    requested = {(s, mono) for s, u in pairs for mono in u.terms}
    assert set(model._mono_cache) == requested
    assert {(s, model.ring.pack(mono)) for s, mono in tuples._tuple_cache} == requested


@pytest.mark.parametrize("cls, oracle", ORACLES, ids=["h-mu", "dual-steenrod"])
def test_packed_recursion_matches_the_tuple_recursion_at_cap_128(cls, oracle):
    model = cls(128)
    rng = random.Random(128)
    basis = model.monomials_up_to(24)
    pairs = [(s, u) for u in rng.sample(basis, 12) for s in rng.sample(range(60), 5)]
    assert packed_mismatches(model, oracle(128), pairs) == []


class FirstGeneratorPeel:
    """``DLModel.peel`` before it split off the square part: one copy of the
    first generator of every monomial.  Kept as an oracle; generator actions
    that call ``q`` use it too."""

    def peel(self, mono):
        rest = mono >> FIELD_BITS
        index = ((rest & -rest).bit_length() - 1) // FIELD_BITS
        first = (1 << FIELD_BITS * (index + 1)) + self.ring.degrees[index]
        return first, self.ring.degrees[index], mono - first


def recorded_pairs(model):
    """The monomial pairs of each product ``model``'s own ``sum_products``
    makes from now on, one size per product."""
    sizes, kernel = [], model.sum_products

    def counted(pairs):
        pairs = list(pairs)
        sizes.extend(len(a.terms) * len(b.terms) for a, b in pairs)
        return kernel(pairs)

    model.sum_products = counted
    return sizes


@pytest.mark.parametrize("cls", [MUHomology, DualSteenrodAlgebra], ids=["h-mu", "dual-steenrod"])
def test_the_square_part_peel_matches_the_first_generator_peel(cls):
    model = cls(48)
    old = type("FirstGenerator" + cls.__name__, (FirstGeneratorPeel, cls), {})(48)
    visited, old_visited = recorded_pairs(model), recorded_pairs(old)
    basis = model.monomials_up_to(24)
    pairs = [(s, u) for u in basis for s in range(25)]
    assert packed_mismatches(model, old, pairs) == []
    # the sweep reaches monomials with a square part and a square-free part,
    # and there the square rule visits fewer monomial pairs
    keys = [next(iter(u.terms)) for u in basis]
    assert sum(model.peel(k) != old.peel(k) for k in keys if model.halve(k) is None) > 50
    assert sum(visited) < sum(old_visited)


def test_packed_recursion_fails_with_a_wrong_half(monkeypatch):
    # negative control: halve returns the key unshifted
    monkeypatch.setattr(homology.DLModel, "halve", lambda self, mono: None if mono & self._low_bits else mono)
    model = MUHomology(40)
    pairs = [(s, u) for u in model.monomials_up_to(8) for s in range(13)]
    assert packed_mismatches(model, TupleMU(40), pairs)


@pytest.mark.parametrize("model", [mu_homology(), dual_steenrod()], ids=["h-mu", "dual-steenrod"])
def test_packed_primitives_match_their_tuple_forms(model):
    ring = model.ring
    for element in model.monomials_up_to(40):
        (mono,) = element.terms
        pairs = ring.unpack(mono)
        assert model.mono_degree(mono) == sum(ring.degrees[i] * e for i, e in pairs)
        lone = pairs[0][0] if len(pairs) == 1 and pairs[0][1] == 1 else None
        assert model.lone_generator(mono) == lone
        even = all(e % 2 == 0 for _, e in pairs)
        assert model.halve(mono) == (ring.pack((i, e // 2) for i, e in pairs) if even else None)
        if even or lone is not None:
            continue
        if all(e == 1 for _, e in pairs):  # square-free: the first generator
            i = pairs[0][0]
            assert model.peel(mono) == (ring.pack(((i, 1),)), ring.degrees[i], ring.pack(pairs[1:]))
        else:  # the square part and the square-free part
            square = [(i, e & -2) for i, e in pairs if e > 1]
            assert model.peel(mono) == (
                ring.pack(square),
                sum(ring.degrees[i] * e for i, e in square),
                ring.pack((i, 1) for i, e in pairs if e & 1),
            )


@pytest.mark.parametrize("model", [mu_homology(), dual_steenrod()], ids=["h-mu", "dual-steenrod"])
def test_frobenius_square_matches_the_product(model):
    rng = random.Random(2)
    basis = model.monomials_up_to(18)
    for _ in range(40):
        p = model.ring.sum(rng.sample(basis, rng.randint(0, 12)))
        # a copy, so the product takes the XOR pair loop
        copy = GradedPolynomial(p.ring, dict(p.terms))
        assert model.square(p) == copy * copy
    # the largest exponent Frobenius doubles: the square fills its field
    top = dual_steenrod().xi(1, (1 << FIELD_BITS - 2) - 1)
    assert dual_steenrod().square(top) == top * top


def test_frobenius_square_overflows_like_the_product():
    # an exponent field (xi1^(2^30)) or the degree field (b1^(2^29), of
    # degree 2^30) at 2^(FIELD_BITS - 2) would double into its guard bit
    A, M = dual_steenrod(), mu_homology()
    big = 1 << FIELD_BITS - 2
    for model, element in ((A, A.xi(1, big)), (M, M.ring.gen("b1", big // 2))):
        with pytest.raises(OverflowError):
            model.square(element)
