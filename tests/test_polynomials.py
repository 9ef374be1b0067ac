"""Graded polynomial arithmetic against independent oracles."""

import math
import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlforge import formal_groups, polynomial
from dlforge.homology import DualSteenrodAlgebra, MUHomology
from dlforge.polynomial import (
    FIELD_LIMIT,
    GF2,
    QQ,
    Generator,
    GradedPolynomial,
    PolynomialRing,
    binomial_mod2,
    graded_inverse,
)
from dlforge.series import series_ring, signature
from dlforge.suites import run_suite


def small_ring():
    return PolynomialRing(GF2, [Generator("a", 1), Generator("b", 2), Generator("c", 3)])


def rational_ring():
    return PolynomialRing(QQ, [Generator("u", 2), Generator("v", 4)])


def random_element(ring, rng, max_terms=4, max_exp=3):
    out = ring.zero()
    for _ in range(rng.randint(0, max_terms)):
        term = ring.one()
        for g in ring.generators:
            term = term * ring.gen(g.name, rng.randint(0, max_exp))
        if ring.scalars is QQ:
            term = term.scale(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
        out = out + term
    return out


def test_binomial_mod2_matches_big_integer_oracle():
    for n in range(65):
        for k in range(65):
            want = math.comb(n, k) % 2 if k <= n else 0
            assert binomial_mod2(n, k) == want, (n, k)


def test_binomial_mod2_out_of_range_is_zero():
    assert binomial_mod2(-1, 0) == 0
    assert binomial_mod2(3, -2) == 0
    assert binomial_mod2(2, 5) == 0


def test_ring_axioms_on_random_elements():
    rng = random.Random(20260815)
    for ring in (small_ring(), rational_ring()):
        for _ in range(40):
            x = random_element(ring, rng)
            y = random_element(ring, rng)
            z = random_element(ring, rng)
            assert x + y == y + x
            assert (x + y) + z == x + (y + z)
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + ring.zero() == x
            assert x * ring.one() == x
            assert x * ring.zero() == ring.zero()


def test_gf2_addition_is_involutive():
    rng = random.Random(11)
    ring = small_ring()
    for _ in range(30):
        x = random_element(ring, rng)
        assert (x + x).is_zero()


def test_degree_of_homogeneous_products():
    ring = small_ring()
    x = ring.gen("a", 2) * ring.gen("b")
    y = ring.gen("c")
    assert x.degree() == 4
    assert (x * y).degree() == 7


def test_degree_raises_on_inhomogeneous():
    ring = small_ring()
    mixed = ring.gen("a") + ring.gen("b")
    with pytest.raises(ValueError):
        mixed.degree()
    assert mixed.degrees_present() == [1, 2]


def test_frobenius_on_gf2_is_additive():
    # (x + y)^2 = x^2 + y^2 in characteristic 2
    rng = random.Random(5)
    ring = small_ring()
    for _ in range(25):
        x = random_element(ring, rng)
        y = random_element(ring, rng)
        assert (x + y) ** 2 == x ** 2 + y ** 2


def quotient_ring():
    # two nilpotent generators: a^3 = b^2 = 0
    return PolynomialRing(GF2, [Generator("a", 1), Generator("b", 2)], orders=(3, 2))


@pytest.mark.parametrize("ring", [small_ring(), rational_ring(), quotient_ring()], ids=repr)
def test_power_equals_the_repeated_product(ring):
    rng = random.Random(8)
    for _ in range(10):
        x = random_element(ring, rng)
        product = ring.one()
        for n in range(9):
            assert x ** n == product, n
            product = product * x


def reference_gf2_product(x, y):
    """Term-by-term product: count each product monomial, keep odd counts.

    Exponents are added on unpacked monomials, so the reference does not
    share the packed arithmetic it checks.
    """
    ring = x.ring
    counts = Counter()
    for m1 in x.terms:
        for m2 in y.terms:
            exponents = Counter(dict(ring.unpack(m1)))
            exponents.update(dict(ring.unpack(m2)))
            counts[tuple(sorted(exponents.items()))] += 1
    return {ring.pack(m): 1 for m, c in counts.items() if c % 2}


def test_gf2_product_matches_term_by_term_reference():
    M = MUHomology(40)
    basis = M.monomials_up_to(10)
    rng = random.Random(4)
    for _ in range(60):
        x = M.ring.zero()
        y = M.ring.zero()
        for _ in range(rng.randint(0, 12)):
            x = x + rng.choice(basis)
        for _ in range(rng.randint(0, 12)):
            y = y + rng.choice(basis)
        product = x * y
        assert product.terms == reference_gf2_product(x, y)
        assert (x + y) * (x + y) == x * x + y * y  # the cross terms cancel


def test_quotient_normal_form_is_idempotent():
    ring = PolynomialRing(GF2, [Generator("a", 1), Generator("b", 2)], orders=(2, None))
    squared = ring.gen("a", 2)
    assert squared.is_zero()
    survivor = ring.gen("a") * ring.gen("b", 3)
    assert survivor * ring.gen("a") == ring.zero()
    assert survivor + survivor == ring.zero()


def test_quotient_with_rewrite_rhs():
    # v3^2 = 0 over the rationals, the Appendix coefficient ring
    ring = PolynomialRing(QQ, [Generator("v3", 14)], orders=(2,))
    v3 = ring.gen("v3")
    assert (v3 * v3).is_zero()
    assert (ring.scalar(2) + v3) * (ring.scalar(3) + v3) == ring.scalar(6) + v3.scale(5)


def recurrence_inverse(ring, bound):
    """Oracle: components 0..bound of (1 + sum of the generators)^{-1} over GF2,
    by the product recurrence inv[d] = sum_g g * inv[d - |g|]."""
    inv = [ring.one()]
    for d in range(1, bound + 1):
        inv.append(
            ring.sum_products(
                (ring.gen(g.name), inv[d - g.degree]) for g in ring.generators if g.degree <= d
            )
        )
    return inv


INVERSE_MODELS = (DualSteenrodAlgebra(127), MUHomology(60))


@pytest.mark.parametrize("model", INVERSE_MODELS, ids=["dual-steenrod", "h-mu"])
def test_graded_inverse_matches_the_product_recurrence(model):
    ring, memo = model.ring, {}
    oracle = recurrence_inverse(ring, model.max_degree)
    # descending, so the first call fills the memo that the others read
    for d in range(model.max_degree, -1, -1):
        assert graded_inverse(ring, d, memo) == oracle[d], d
    assert graded_inverse(ring, model.max_degree, {}) == oracle[-1]


def test_graded_inverse_multiplies_back_to_one():
    for model in INVERSE_MODELS:
        ring, memo, bound = model.ring, {}, model.max_degree
        inverse = ring.sum(graded_inverse(ring, d, memo) for d in range(bound + 1))
        total = ring.sum([ring.one()] + [ring.gen(g.name) for g in ring.generators])
        residual = total * inverse + ring.one()
        assert all(d > bound for d in residual.degrees_present()), model


def test_graded_inverse_components_are_homogeneous():
    ring, memo = DualSteenrodAlgebra(64).ring, {}
    for d in range(65):
        component = graded_inverse(ring, d, memo)
        assert component.degrees_present() == [d]


def test_graded_inverse_rejects_rings_it_cannot_invert():
    with pytest.raises(ValueError):
        graded_inverse(rational_ring(), 4, {})
    with pytest.raises(ValueError):
        graded_inverse(PolynomialRing(GF2, [Generator("e", 0), Generator("a", 1)]), 2, {})


def test_indecomposable_part_keeps_only_linear_generator_terms():
    ring = small_ring()
    p = ring.gen("c") + ring.gen("a") * ring.gen("b") + ring.gen("a", 3)
    assert p.indecomposable_part() == ring.gen("c")


def test_map_generators_respects_products():
    source = small_ring()
    target = PolynomialRing(GF2, [Generator(n, d) for n, d in (("a", 1), ("b", 2), ("c", 3), ("d", 4))])
    images = {
        "a": target.gen("a"),
        "b": target.gen("b") + target.gen("a", 2),
        "c": target.gen("c"),
    }
    rng = random.Random(3)
    for _ in range(20):
        x = random_element(source, rng)
        y = random_element(source, rng)
        fx = x.map_generators(target, images)
        fy = y.map_generators(target, images)
        assert (x * y).map_generators(target, images) == fx * fy
        assert (x + y).map_generators(target, images) == fx + fy


def test_map_generators_needs_an_image_for_every_generator():
    source = small_ring()
    target = small_ring()
    term = source.gen("a") * source.gen("b")
    # the other factor maps to zero, but the missing image is still an error
    with pytest.raises(KeyError):
        term.map_generators(target, {"a": target.zero()})
    with pytest.raises(KeyError):
        term.map_generators(target, {"b": target.zero()})
    assert term.map_generators(target, {"a": target.zero(), "b": target.gen("b")}).is_zero()


def test_map_generators_rejects_images_in_another_ring():
    source = small_ring()
    target = small_ring()
    other = small_ring()
    x = source.gen("a")
    with pytest.raises(ValueError):
        x.map_generators(target, {"a": other.gen("b")})
    # also when the stray image is zero, so the term would be skipped
    with pytest.raises(ValueError):
        (x * source.gen("b")).map_generators(target, {"a": other.zero(), "b": target.gen("b")})


def count_products(monkeypatch):
    calls = []
    product = GradedPolynomial.__mul__

    def counted(a, b):
        calls.append(None)
        return product(a, b)

    monkeypatch.setattr(GradedPolynomial, "__mul__", counted)
    return calls


def test_map_generators_spends_no_product_on_a_term_that_maps_to_zero(monkeypatch):
    source = small_ring()
    target = small_ring()
    a, b, c = (source.gen(n) for n in "abc")
    dead = a * b + a * a * c  # every term has the factor a, which maps to zero
    live = dead + b * c
    images = {"a": target.zero(), "b": target.gen("b"), "c": target.gen("c")}
    want = target.gen("b") * target.gen("c")
    calls = count_products(monkeypatch)
    assert dead.map_generators(target, images).is_zero()
    assert calls == []
    # b and c map to one term each, so b c costs no product either
    assert live.map_generators(target, images) == want
    assert calls == []
    # the skipped terms still need an image in the target for every generator
    with pytest.raises(KeyError):
        dead.map_generators(target, {"a": target.zero(), "b": target.gen("b")})
    with pytest.raises(ValueError):
        dead.map_generators(target, dict(images, c=small_ring().gen("c")))
    assert calls == []


def test_map_generators_spends_no_product_on_a_unit_image(monkeypatch):
    source = small_ring()
    target = small_ring()
    a, b, c = (source.gen(n) for n in "abc")
    x = a**7 * c + a**3 * b + a**5
    images = {"a": target.one(), "b": target.gen("b"), "c": target.gen("c")}
    want = target.gen("c") + target.gen("b") + target.one()
    xb, want_b = x * b, want * target.gen("b")
    q = rational_ring()
    u, v = q.gen("u"), q.gen("v")
    y = (u**4 * v).scale(3) + u.scale(Fraction(1, 2))
    calls = count_products(monkeypatch)
    # a maps to 1: no power of it is built and no term is multiplied by it
    assert x.map_generators(target, images) == want
    assert calls == []
    # a^7 b c, a^3 b^2 and a^5 b: b and c map to one term each, so their
    # powers and products are key sums
    assert xb.map_generators(target, images) == want_b
    assert calls == []
    # over Q a unit factor is dropped too, and the coefficient still scales the term
    assert y.map_generators(q, {"u": q.one(), "v": v}) == v.scale(3) + q.scalar(Fraction(1, 2))
    assert calls == []
    # the images are still checked before any term is skipped
    with pytest.raises(KeyError):
        x.map_generators(target, {"a": target.one(), "b": target.gen("b")})
    with pytest.raises(ValueError):
        x.map_generators(target, dict(images, a=small_ring().one()))


def test_map_generators_builds_each_image_power_once(monkeypatch):
    source = small_ring()
    target = PolynomialRing(GF2, [Generator(n, d) for n, d in (("a", 1), ("b", 2), ("c", 1), ("d", 1))])
    a4, a2b = source.gen("a", 4), source.monomial({"a": 2, "b": 1})
    x = a4 + a4 * source.gen("b") + a2b
    images = {"a": target.gen("c") + target.gen("d"), "b": target.gen("b")}
    # (c + d)^2 = c^2 + d^2 over GF2
    m = target.monomial
    want = target.sum(
        m({"c": e, "b": f}) + m({"d": e, "b": f}) for e, f in ((4, 0), (4, 1), (2, 1))
    )
    calls = count_products(monkeypatch)
    assert x.map_generators(target, images) == want
    # (c + d)^2 and its square (c + d)^4, kept for all three terms; b maps
    # to one term, so the two terms that have it shift their keys by b's
    assert len(calls) == 2


def sum_test_ring(which):
    if which == "GF2 H_*MU":
        return MUHomology(40).ring
    if which == "GF2 with orders":
        return PolynomialRing(GF2, [Generator("a", 1), Generator("b", 2), Generator("c", 3)], orders=(2, None, 3))
    v3 = PolynomialRing(QQ, [Generator("v3", 14)], orders=(2,))
    if which == "Q[v3]/(v3^2)":
        return v3
    return series_ring(v3, signature(("x", "y"), (4, 3), (1, 2), total_order=6))


@st.composite
def made_elements(draw, ring):
    """An element built through ``make``, so neither ``+`` nor ``*`` shapes it."""
    count = min(len(ring.generators), 4)
    terms = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 3), min_size=count, max_size=count),
                st.integers(-3, 3),
                st.integers(1, 3),
            ),
            max_size=5,
        )
    )
    out = {}
    for vector, num, den in terms:
        mono = ring.pack((i, e) for i, e in enumerate(vector) if e)
        c = ring.scalars.coerce(Fraction(num, den) if ring.scalars is QQ else num)
        out[mono] = ring.scalars.add(out.get(mono, ring.scalars.zero), c)
    return ring.make(out)


@pytest.mark.parametrize("which", ["GF2 H_*MU", "GF2 with orders", "Q[v3]/(v3^2)", "series ring"])
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.data())
def test_ring_sum_matches_a_fold_of_additions_and_products(which, data):
    ring = sum_test_ring(which)
    sc = ring.scalars
    xs = data.draw(st.lists(made_elements(ring), max_size=6))
    ys = [data.draw(made_elements(ring)) for _ in xs]
    total = ring.sum(xs)
    assert total == reduce(add, xs, ring.zero())
    # an independent reference: every coefficient added up, then normalized
    merged = {}
    for x in xs:
        for m, c in x.terms.items():
            merged[m] = sc.add(merged.get(m, sc.zero), c)
    assert total.terms == ring.make(merged).terms
    assert ring.sum_products(zip(xs, ys)) == reduce(add, map(mul, xs, ys), ring.zero())
    # full cancellation; over GF2 the negative of x is x itself
    assert ring.sum(xs + [x.scale(-1) for x in reversed(xs)]).terms == {}
    negated = [(x, y.scale(-1)) for x, y in zip(xs, ys)]
    assert ring.sum_products(list(zip(xs, ys)) + negated).terms == {}
    other = sum_test_ring(which)
    assert other is not ring
    with pytest.raises(ValueError):
        ring.sum(xs + [other.one()])
    with pytest.raises(ValueError):
        ring.sum_products([(ring.one(), other.one())])


def map_test_rings(which):
    """A source ring and a target ring over the same scalars."""
    scalars = QQ if which in ("Q", "series ring") else GF2
    source = PolynomialRing(scalars, [Generator("p", 1), Generator("q", 2), Generator("r", 5)])
    if which == "GF2":
        return source, small_ring()
    if which == "Q":
        return source, rational_ring()
    return source, sum_test_ring("GF2 with orders" if which == "GF2 with orders" else "series ring")


def map_fold(x, target, images):
    """``map_generators`` by its definition: each term is its coefficient
    times the ``**`` of each factor's image, folded with ``*`` in generator
    order, and a term with a factor that maps to zero is skipped."""
    out = target.zero()
    for mono, coeff in x.terms.items():
        factors = [(images[x.ring.generators[i].name], e) for i, e in x.ring.unpack(mono)]
        if any(image.is_zero() for image, _ in factors):
            continue
        term = target.scalar(coeff)
        for image, e in factors:
            term = term * image**e
        out = out + term
    return out


@st.composite
def generator_images(draw, target):
    """Zero, one, one term (a monomial of exponents 0..3 times a scalar, over
    Q one of 3, 1/2 and -1), or an element of up to five terms."""
    kind = draw(st.sampled_from(["zero", "one", "term", "term", "element"]))
    if kind == "zero":
        return target.zero()
    if kind == "one":
        return target.one()
    if kind == "element":
        return draw(made_elements(target))
    vector = draw(st.lists(st.integers(0, 3), min_size=len(target.generators), max_size=len(target.generators)))
    scalar = draw(st.sampled_from([3, Fraction(1, 2), -1])) if target.scalars is QQ else 1
    return target.make({target.pack((i, e) for i, e in enumerate(vector) if e): scalar})


@pytest.mark.parametrize("which", ["GF2", "GF2 with orders", "Q", "series ring"])
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.data())
def test_map_generators_matches_a_fold_of_powers_and_products(which, data):
    # one-term images go by key arithmetic, the others by products; the
    # targets' orders and total order kill some powers and products
    source, target = map_test_rings(which)
    x = data.draw(made_elements(source))
    images = {g.name: data.draw(generator_images(target)) for g in source.generators}
    assert x.map_generators(target, images).terms == map_fold(x, target, images).terms


def test_map_generators_scales_by_the_powers_of_one_term_scalars():
    source, target = map_test_rings("Q")
    p, q = source.gen("p"), source.gen("q")
    x = (p * p * q).scale(5) + p + q.scale(Fraction(-1, 3))
    u, v = target.gen("u"), target.gen("v")
    images = {"p": v.scale(3), "q": u.scale(Fraction(1, 2)), "r": target.zero()}
    want = (u * v * v).scale(Fraction(45, 2)) + v.scale(3) + u.scale(Fraction(-1, 6))
    assert x.map_generators(target, images) == want == map_fold(x, target, images)


@pytest.mark.parametrize("which", ["GF2", "GF2 with orders", "Q", "series ring"])
def test_a_mapped_power_that_reaches_the_field_limit_overflows(which):
    # p^(2^30) with p -> g^2 (a one-term image) has an exponent field of
    # 2^31; a limit that kills g^4 first gives zero, as the products do.
    # Over GF2 the image g^2 + 1 too, whose powers stay two terms.
    source, target = map_test_rings(which)
    big = source.gen("p", FIELD_LIMIT // 2)
    g = target.generators[-1].name
    killed = which in ("GF2 with orders", "series ring")
    two_terms = [target.gen(g, 2) + target.one()] if target.scalars is GF2 else []
    for image in [target.gen(g, 2)] + two_terms:
        images = {"p": image, "q": target.one(), "r": target.zero()}
        for x in (big, big * source.gen("q", 3), big + source.gen("r")):
            if killed:
                assert x.map_generators(target, images) == map_fold(x, target, images)
                continue
            with pytest.raises(OverflowError):
                map_fold(x, target, images)
            with pytest.raises(OverflowError):
                x.map_generators(target, images)


def test_string_form_is_deterministic_and_sorted():
    ring = small_ring()
    p = ring.gen("b") + ring.gen("a", 2) + ring.gen("c") * ring.gen("a")
    assert str(p) == str(ring.gen("a", 2) + ring.gen("c") * ring.gen("a") + ring.gen("b"))


def packing_ring():
    # degree 0 lets an exponent grow without the degree field growing
    degrees = (0, 1, 2, 7, 14, 30)
    gens = [Generator("g%d" % i, d) for i, d in enumerate(degrees)]
    return PolynomialRing(GF2, gens, orders=(None, 2, None, None, None, None))


exponent_vectors = st.lists(st.integers(0, 40), min_size=6, max_size=6)


def pairs_of(vector):
    return tuple((i, e) for i, e in enumerate(vector) if e)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(exponent_vectors)
def test_pack_round_trips_and_packs_the_weighted_degree(vector):
    ring = packing_ring()
    pairs = pairs_of(vector)
    mono = ring.pack(pairs)
    assert ring.unpack(mono) == pairs
    assert ring.monomial_degree(mono) == sum(d * e for d, e in zip(ring.degrees, vector))


def test_an_exponent_at_the_field_limit_overflows():
    ring = PolynomialRing(QQ, [Generator("z", 0), Generator("d", 2)])
    with pytest.raises(OverflowError):
        ring.gen("z", FIELD_LIMIT)
    with pytest.raises(OverflowError):
        ring.monomial({"z": FIELD_LIMIT})
    with pytest.raises(OverflowError):  # the exponent fits, the degree does not
        ring.gen("d", FIELD_LIMIT // 2)
    top = ring.gen("z", FIELD_LIMIT - 1)
    assert ring.unpack(next(iter(top.terms))) == ((0, FIELD_LIMIT - 1),)
    kill = (None, None, 2)
    for scalars, orders in ((QQ, None), (GF2, None), (QQ, kill), (GF2, kill)):
        r = PolynomialRing(scalars, [Generator("z", 0), Generator("d", 2), Generator("k", 1)], orders)
        with pytest.raises(OverflowError):
            r.gen("z", FIELD_LIMIT - 1) * r.gen("z")
        with pytest.raises(OverflowError):
            r.gen("d", FIELD_LIMIT // 4) * r.gen("d", FIELD_LIMIT // 4)


def test_a_negative_generator_degree_is_rejected():
    with pytest.raises(ValueError):
        PolynomialRing(GF2, [Generator("a", 1), Generator("n", -2)])


@pytest.mark.parametrize(
    "scalars, degrees, heads",
    [(QQ, {"v3": 14}, {"v3": 2}), (GF2, {"a": 1, "b": 2}, {"a": 2})],
    ids=["Q[v3]/(v3^2)", "GF2[a,b]/(a^2)"],
)
def test_kill_only_products_are_free_products_without_the_killed_monomials(scalars, degrees, heads):
    gens = [Generator(n, d) for n, d in degrees.items()]
    quotient = PolynomialRing(scalars, gens, [heads.get(g.name) for g in gens])
    free = PolynomialRing(scalars, gens)
    head = {free.index[n]: e for n, e in heads.items()}

    def killed(mono):
        have = dict(free.unpack(mono))
        return all(have.get(i, 0) >= e for i, e in head.items())

    rng = random.Random(12)
    for _ in range(40):
        x = random_element(quotient, rng, max_terms=5)
        y = random_element(quotient, rng, max_terms=5)
        product = free.make(x.terms) * free.make(y.terms)
        want = {m: c for m, c in product.terms.items() if not killed(m)}
        assert (x * y).terms == want


def test_gf2_products_check_overflow_only_near_the_field_limit():
    ring = PolynomialRing(GF2, [Generator("z", 0), Generator("d", 1)])
    high = ring.gen("z", FIELD_LIMIT // 2)  # a field at 2^30 sets its second-highest bit
    assert high * ring.gen("z") == ring.gen("z", FIELD_LIMIT // 2 + 1)
    with pytest.raises(OverflowError):
        high * high


def kernel_ring():
    # z has degree 0, so its exponent reaches the 2^30 boundary alone
    return PolynomialRing(GF2, [Generator("z", 0), Generator("a", 1), Generator("b", 2)])


# exponents of z on either side of 2^30, where a field sets its second-highest bit
BOUNDARY = (FIELD_LIMIT // 2 - 1, FIELD_LIMIT // 2, FIELD_LIMIT // 2 + 1)


@st.composite
def kernel_elements(draw, ring):
    # one element in four may reach the boundary, so most sums do not overflow
    z = (0, 1, 2) + (BOUNDARY if draw(st.integers(0, 3)) == 0 else ())
    vectors = draw(
        st.lists(
            st.tuples(
                st.sampled_from(z),
                st.integers(0, 2),
                st.integers(0, 2),
            ),
            max_size=5,
        )
    )
    return ring.make({ring.pack(pairs_of(v)): 1 for v in vectors})


def odd_product_monomials(ring, pairs):
    """Oracle: every monomial of every product, counted, kept when its count
    is odd.  ``pack`` of the summed exponents raises ``OverflowError`` when an
    exponent or the degree reaches ``FIELD_LIMIT``."""
    counts = Counter()
    for a, b in pairs:
        for m1 in a.terms:
            for m2 in b.terms:
                exps = Counter(dict(ring.unpack(m1))) + Counter(dict(ring.unpack(m2)))
                counts[ring.pack(sorted(exps.items()))] += 1
    return {m: 1 for m, c in counts.items() if c % 2}


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.data())
def test_gf2_sum_products_keeps_exactly_the_odd_product_monomials(data):
    ring = kernel_ring()
    xs = data.draw(st.lists(kernel_elements(ring), max_size=5))
    pairs = [(x, data.draw(kernel_elements(ring))) for x in xs]
    for x, y in pairs:
        try:
            want = odd_product_monomials(ring, [(x, y)])
        except OverflowError:
            with pytest.raises(OverflowError):
                x * y
        else:
            assert (x * y).terms == want
    try:
        want = odd_product_monomials(ring, pairs)
    except OverflowError:
        with pytest.raises(OverflowError):
            ring.sum_products(iter(pairs))
        return
    total = ring.sum_products(iter(pairs))
    assert total.ring is ring
    assert total.terms == want
    # full cancellation: every product twice, in either order
    assert ring.sum_products(pairs + pairs[::-1]).terms == {}
    assert ring.sum_products(pairs + [(y, x) for x, y in pairs]).terms == {}


def test_gf2_sum_products_edge_cases():
    ring, other = kernel_ring(), kernel_ring()
    x = ring.gen("a") + ring.gen("b")
    empty = ring.sum_products([])
    assert empty.ring is ring and empty.terms == {}
    # a foreign operand is rejected in either place, also when the other is zero
    for pair in ((x, other.gen("a")), (other.gen("a"), x), (ring.zero(), other.zero())):
        with pytest.raises(ValueError):
            ring.sum_products([pair])
        with pytest.raises(ValueError):
            pair[0] * pair[1]
    with pytest.raises(ValueError):
        ring.sum_products([(other.one(), other.one())])
    # a field at 2^30 takes the checked path: it fits next to a small field
    # and overflows next to another one at 2^30
    high = ring.gen("z", FIELD_LIMIT // 2)
    assert ring.sum_products([(high, x), (x, high)]).terms == {}
    assert ring.sum_products([(high, ring.gen("z"))]) == ring.gen("z", FIELD_LIMIT // 2 + 1)
    with pytest.raises(OverflowError):
        ring.sum_products([(x, x), (high, high)])


@pytest.mark.parametrize("which", ["Q[v3]/(v3^2)", "GF2 H_*MU"])
def test_sums_and_scalings_match_the_make_route(which):
    if which == "GF2 H_*MU":
        ring = MUHomology(40).ring
        scalars = (0, 1)
    else:
        ring = PolynomialRing(QQ, [Generator("v3", 14), Generator("w", 2)], orders=(2, None))
        scalars = (0, 1, -3, Fraction(5, 2))
    sc = ring.scalars
    rng = random.Random(31)
    for _ in range(40):
        x = random_element(ring, rng, max_terms=6)
        y = random_element(ring, rng, max_terms=6)
        merged = dict(x.terms)
        for m, c in y.terms.items():
            merged[m] = sc.add(merged.get(m, sc.zero), c)
        assert (x + y).terms == ring.make(merged).terms
        assert (x - x).terms == {}
        for c in scalars:
            c = sc.coerce(c)
            assert x.scale(c).terms == ring.make({m: sc.mul(v, c) for m, v in x.terms.items()}).terms
            assert ring.scalar(c).terms == ring.make({0: c}).terms


def test_an_integral_rational_is_an_int():
    half = Fraction(1, 2)
    assert type(QQ.add(half, half)) is int and QQ.add(half, half) == 1
    assert type(QQ.mul(half, 4)) is int and QQ.mul(half, 4) == 2
    assert QQ.inv(3) == Fraction(1, 3)
    assert type(QQ.inv(1)) is int and QQ.inv(1) == 1
    assert type(QQ.inv(half)) is int and QQ.inv(half) == 2
    assert type(QQ.coerce(Fraction(6, 3))) is int and QQ.coerce(0.5) == half
    ring = rational_ring()
    one = ring.scalar(half) + ring.scalar(half)
    assert one == ring.one() and type(one.constant_term()) is int
    assert str(ring.make({ring.pack(((0, 1),)): Fraction(-6, 2)})) == "-3 u"


def denormal_coefficients_of_a_cold_run(monkeypatch):
    """The coefficients of every QQ element built by a cold ``run_suite("all")``
    (the series and pipeline memos emptied) that are a float or a Fraction
    with denominator 1, and the number of QQ elements built."""
    memos = (
        formal_groups._appendix_pipeline,
        formal_groups.n_series,
        formal_groups.bracket2_series,
        formal_groups.isogeny_g,
        formal_groups.LogarithmPreset.exp_series,
    )
    built = []
    init = GradedPolynomial.__init__

    def recording(self, ring, terms):
        init(self, ring, terms)
        if ring.scalars is QQ:
            built.append(self)

    for memo in memos:
        memo.cache_clear()
    formal_groups._TOP_N_SERIES.clear()
    monkeypatch.setattr(GradedPolynomial, "__init__", recording)
    try:
        run_suite("all", {"scrub_timing": True})
    finally:
        monkeypatch.setattr(GradedPolynomial, "__init__", init)
        for memo in memos:
            memo.cache_clear()  # keep no value built under a monkeypatch
        formal_groups._TOP_N_SERIES.clear()
    bad = [
        c
        for p in built
        for c in p.terms.values()
        if isinstance(c, float) or (isinstance(c, Fraction) and c.denominator == 1)
    ]
    return bad, len(built)


def test_a_cold_run_builds_every_rational_in_normal_form(monkeypatch):
    bad, built = denormal_coefficients_of_a_cold_run(monkeypatch)
    assert built > 1000 and bad == []


def test_the_normal_form_check_sees_a_missing_normalization(monkeypatch):
    # negative control: integral results stay Fractions
    monkeypatch.setattr(polynomial, "_rational", lambda v: v)
    bad, _ = denormal_coefficients_of_a_cold_run(monkeypatch)
    assert bad


def test_the_limit_word_rejects_negative_or_misplaced_orders():
    with pytest.raises(ValueError):
        PolynomialRing(QQ, [Generator("x", 1)], orders=(-1,))
    with pytest.raises(ValueError):  # a limit past the last field
        PolynomialRing(QQ, [Generator("x", 1)], orders=(3, 3))
    with pytest.raises(ValueError):
        PolynomialRing(QQ, [Generator("x", 1)], degree_order=-1)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(exponent_vectors, st.lists(st.none() | st.integers(0, 41), min_size=6, max_size=6), st.none() | st.integers(0, 400))
def test_the_limit_word_kills_exactly_the_monomials_past_a_limit(vector, orders, degree_order):
    # orders and the degree order of a truncated series ring, together with
    # the packing ring's order 2 of g1
    limits = list(orders)
    limits[1] = 2 if limits[1] is None else min(limits[1], 2)
    ring = PolynomialRing(GF2, packing_ring().generators, limits, degree_order)
    degree = sum(d * e for d, e in zip(ring.degrees, vector))
    want = any(o is not None and e >= o for e, o in zip(vector, limits))
    want = want or (degree_order is not None and degree >= degree_order)
    mono = ring.pack(pairs_of(vector))
    assert ring.kills(mono) == want
    assert ring.make({mono: 1}).is_zero() == want
