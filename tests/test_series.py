"""Truncated power series against brute-force coefficient oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlforge.polynomial import QQ, Generator, PolynomialRing
from dlforge.series import TruncatedSeries, series_ring, signature


def scalar_ring():
    return PolynomialRing(QQ, [])


def one_var(order=10):
    sig = signature(("t",), (order,))
    ring = scalar_ring()
    return sig, ring


def random_series(sig, ring, rng, var="t"):
    t = TruncatedSeries.variable(sig, ring, var)
    out = TruncatedSeries.zero(sig, ring)
    for e in range(sig.orders[sig.index(var)]):
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if c:
            out = out + (t ** e).scale(ring.scalar(c))
    return out


def dense(series, var, order):
    """Coefficient list [c_0, ..., c_{order-1}] as Fractions."""
    out = []
    for e in range(order):
        c = series.coefficient({var: e})
        out.append(Fraction(0) if c.is_zero() else c.constant_term())
    return out


def convolve(a, b):
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < len(out):
                out[i + j] += x * y
    return out


def test_product_matches_convolution_oracle():
    sig, ring = one_var(9)
    rng = random.Random(2)
    for _ in range(25):
        f = random_series(sig, ring, rng)
        g = random_series(sig, ring, rng)
        assert dense(f * g, "t", 9) == convolve(dense(f, "t", 9), dense(g, "t", 9))


def test_truncation_drops_high_order_terms():
    sig, ring = one_var(4)
    t = TruncatedSeries.variable(sig, ring, "t")
    assert (t ** 3) * t == TruncatedSeries.zero(sig, ring)
    assert (t ** 2) * (t ** 2) == TruncatedSeries.zero(sig, ring)


def test_power_equals_the_repeated_product():
    sig = signature(("x", "alpha"), (6, 6), weights=(1, 2), total_order=9)
    ring = scalar_ring()
    rng = random.Random(29)
    x = TruncatedSeries.variable(sig, ring, "x")
    for _ in range(5):
        f = random_series(sig, ring, rng, "alpha") + x
        product = TruncatedSeries.constant(sig, ring, ring.one())
        for n in range(9):
            assert f ** n == product, n
            product = product * f


def test_weighted_truncation_counts_degree_not_exponent():
    # alpha carries weight 2, so alpha^3 already exceeds a total order of 6
    sig = signature(("x", "alpha"), (10, 10), weights=(1, 2), total_order=6)
    ring = scalar_ring()
    x = TruncatedSeries.variable(sig, ring, "x")
    a = TruncatedSeries.variable(sig, ring, "alpha")
    assert not (x * a * a).is_zero()
    assert (a ** 3).is_zero()
    assert (x ** 2 * a ** 2).is_zero()


def test_invert_round_trip():
    sig, ring = one_var(12)
    rng = random.Random(7)
    for _ in range(15):
        f = random_series(sig, ring, rng)
        f = f + TruncatedSeries.constant(sig, ring, ring.scalar(1)) - TruncatedSeries.constant(
            sig, ring, f.constant_coefficient()
        )
        g = f.invert()
        assert f * g == TruncatedSeries.constant(sig, ring, ring.scalar(1))


def test_invert_requires_unit_constant_term():
    sig, ring = one_var(6)
    t = TruncatedSeries.variable(sig, ring, "t")
    with pytest.raises(ArithmeticError):
        t.invert()


def test_compositional_inverse_round_trip():
    sig, ring = one_var(10)
    rng = random.Random(13)
    for _ in range(10):
        t = TruncatedSeries.variable(sig, ring, "t")
        f = t
        for e in range(2, 10):
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            if c:
                f = f + (t ** e).scale(ring.scalar(c))
        g = f.compositional_inverse("t")
        assert f.substitute({"t": g}) == t


def test_compositional_inverse_of_geometric_series():
    # f = t/(1-t) has inverse t/(1+t)
    sig, ring = one_var(9)
    t = TruncatedSeries.variable(sig, ring, "t")
    f = TruncatedSeries.zero(sig, ring)
    for e in range(1, 9):
        f = f + t ** e
    g = f.compositional_inverse("t")
    want = TruncatedSeries.zero(sig, ring)
    for e in range(1, 9):
        want = want + (t ** e).scale(ring.scalar(Fraction((-1) ** (e + 1))))
    assert g == want


def test_derivative_matches_power_rule():
    sig, ring = one_var(8)
    rng = random.Random(19)
    f = random_series(sig, ring, rng)
    df = f.derivative("t")
    coeffs = dense(f, "t", 8)
    want = [coeffs[e] * e for e in range(1, 8)]
    assert dense(df, "t", 7) == want


def test_substitute_is_a_ring_map():
    sig, ring = one_var(8)
    rng = random.Random(23)
    t = TruncatedSeries.variable(sig, ring, "t")
    image = t + (t ** 2).scale(ring.scalar(3))
    for _ in range(10):
        f = random_series(sig, ring, rng)
        g = random_series(sig, ring, rng)
        sub = {"t": image}
        assert (f * g).substitute(sub) == f.substitute(sub) * g.substitute(sub)
        assert (f + g).substitute(sub) == f.substitute(sub) + g.substitute(sub)


def test_divide_exact_shifts_exponents():
    sig, ring = one_var(10)
    t = TruncatedSeries.variable(sig, ring, "t")
    f = (t ** 3).scale(ring.scalar(5)) + (t ** 6).scale(ring.scalar(-2))
    g = f.divide_exact("t", 3)
    assert g == TruncatedSeries.constant(sig, ring, ring.scalar(5)) + (t ** 3).scale(ring.scalar(-2))


def test_divide_exact_rejects_low_order_terms():
    sig, ring = one_var(6)
    t = TruncatedSeries.variable(sig, ring, "t")
    with pytest.raises(ArithmeticError):
        (t + t ** 3).divide_exact("t", 2)


def test_coefficient_series_drops_the_variable():
    sig = signature(("x", "y"), (5, 5))
    ring = PolynomialRing(QQ, [Generator("v", 2)])
    x = TruncatedSeries.variable(sig, ring, "x")
    y = TruncatedSeries.variable(sig, ring, "y")
    f = x * y ** 2 + (y ** 2).scale(ring.gen("v"))
    row = f.coefficient_series("y", 2)
    assert row.sig.variables == ("x",)
    assert row.coefficient({"x": 1}) == ring.one()
    assert row.coefficient({"x": 0}) == ring.gen("v")


def test_integrality_check():
    sig, ring = one_var(5)
    t = TruncatedSeries.variable(sig, ring, "t")
    assert (t.scale(ring.scalar(3))).is_integral()
    halved = t.scale(ring.scalar(Fraction(1, 2)))
    assert not halved.is_integral()
    with pytest.raises(ArithmeticError):
        halved.assert_integral("test series")


def test_string_form_is_deterministic():
    sig = signature(("x", "y"), (4, 4))
    ring = scalar_ring()
    x = TruncatedSeries.variable(sig, ring, "x")
    y = TruncatedSeries.variable(sig, ring, "y")
    f = y ** 2 + x * y + x
    assert str(f) == str(x + x * y + y ** 2)


def test_a_negative_order_weight_or_total_order_is_rejected():
    # a negative bound would borrow across the fields of the limit word
    with pytest.raises(ValueError):
        signature(("t",), (-1,))
    with pytest.raises(ValueError):
        signature(("t",), (3,), weights=(-1,))
    with pytest.raises(ValueError):
        signature(("t",), (3,), total_order=-1)


def test_divide_exact_clamps_the_order_at_zero():
    sig, ring = one_var(3)
    quotient = TruncatedSeries.zero(sig, ring).divide_exact("t", 5)
    assert quotient.is_zero()
    assert quotient.sig.orders == (0,)


def test_series_outlive_an_evicted_series_ring():
    sig, ring = one_var(6)
    t = TruncatedSeries.variable(sig, ring, "t")
    series_ring.cache_clear()
    u = TruncatedSeries.variable(sig, ring, "t")
    assert t.poly.ring is not u.poly.ring
    assert t * u == u * u
    assert t + u == u.scale(2)


# -- reference: the dict-of-exponent-tuples algorithm ---------------------------
#
# A reference series is {exponent tuple: {v3 exponent: Fraction}} over
# Q[v3]/(v3^2).  It has its own truncation test and coefficient arithmetic,
# so it shares no arithmetic with the packed kernel it checks.

V3_RING = PolynomialRing(QQ, [Generator("v3", 14)], orders=(2,))
NAMES = ("x", "y", "z")


def ref_keeps(sig, vec):
    if any(e >= o for e, o in zip(vec, sig.orders)):
        return False
    if sig.total_order is not None:
        return sum(e * w for e, w in zip(vec, sig.weights)) < sig.total_order
    return True


def ref_clean(terms):
    out = {}
    for vec, coeff in terms.items():
        coeff = {k: c for k, c in coeff.items() if c}
        if coeff:
            out[vec] = coeff
    return out


def ref_truncate(sig, terms):
    return {vec: c for vec, c in terms.items() if ref_keeps(sig, vec)}


def ref_coeff_mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            if i + j < 2:  # v3^2 = 0
                out[i + j] = out.get(i + j, 0) + x * y
    return out


def ref_add(sig, a, b):
    out = {vec: dict(c) for vec, c in ref_truncate(sig, a).items()}
    for vec, c in ref_truncate(sig, b).items():
        acc = out.setdefault(vec, {})
        for k, x in c.items():
            acc[k] = acc.get(k, 0) + x
    return ref_clean(out)


def ref_mul(sig, a, b):
    out = {}
    for v1, c1 in ref_truncate(sig, a).items():
        for v2, c2 in ref_truncate(sig, b).items():
            vec = tuple(x + y for x, y in zip(v1, v2))
            if not ref_keeps(sig, vec):
                continue
            acc = out.setdefault(vec, {})
            for k, x in ref_coeff_mul(c1, c2).items():
                acc[k] = acc.get(k, 0) + x
    return ref_clean(out)


def ref_scale(terms, coeff):
    return ref_clean({vec: ref_coeff_mul(c, coeff) for vec, c in terms.items()})


def ref_substitute(terms, images, sig):
    acc = {}
    for vec, coeff in terms.items():
        term = ref_truncate(sig, {(0,) * len(sig.variables): {0: Fraction(1)}})
        for image, e in zip(images, vec):
            for _ in range(e):
                term = ref_mul(sig, term, image)
        acc = ref_add(sig, acc, ref_scale(term, coeff))
    return acc


def ref_shift(terms, i, k, scale_by_exponent):
    out = {}
    for vec, coeff in terms.items():
        if vec[i] < k:
            raise ArithmeticError("not divisible")
        if scale_by_exponent:
            coeff = {j: c * vec[i] for j, c in coeff.items()}
        out[vec[:i] + (vec[i] - k,) + vec[i + 1 :]] = coeff
    return ref_clean(out)


def ref_of(series):
    """The reference form of a series, read through its ``terms`` view."""
    return {
        vec: {dict(V3_RING.unpack(m)).get(0, 0): c for m, c in coeff.terms.items()}
        for vec, coeff in series.terms.items()
    }


def coefficient_of(coeff):
    out = V3_RING.zero()
    for k, c in coeff.items():
        out = out + V3_RING.monomial({"v3": k}, c)
    return out


def series_of(sig, terms):
    return TruncatedSeries.from_terms(
        sig, V3_RING, {vec: coefficient_of(c) for vec, c in terms.items()}
    )


scalars = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
coefficients = st.dictionaries(st.integers(0, 1), scalars, min_size=1, max_size=2)


triples = st.tuples(*(st.integers(0, 5) for _ in NAMES))
totals = st.none() | st.integers(0, 10)
signatures = st.builds(
    lambda n, w, o, t: signature(NAMES[:n], o[:n], w[:n], t),
    st.integers(1, len(NAMES)),
    st.tuples(*(st.integers(0, 3) for _ in NAMES)),
    triples,
    totals,
)
raw_terms = st.dictionaries(triples, coefficients, max_size=6)


def reference_terms(sig, raw):
    """Drawn terms cut down to the signature's variables and truncation."""
    n = len(sig.variables)
    return ref_clean(ref_truncate(sig, {vec[:n]: c for vec, c in raw.items()}))


@st.composite
def series_pairs(draw):
    a = draw(signatures)
    b = signature(a.variables, draw(triples)[: len(a.variables)], a.weights, draw(totals))
    return a, reference_terms(a, draw(raw_terms)), b, reference_terms(b, draw(raw_terms))


DIFFERENTIAL = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@DIFFERENTIAL
@given(series_pairs(), coefficients, scalars)
def test_ring_operations_match_the_reference(pair, coeff, scalar):
    sa, ta, sb, tb = pair
    a, b = series_of(sa, ta), series_of(sb, tb)
    meet = sa.meet(sb)
    assert ref_of(a) == ta and ref_of(b) == tb
    for got, want in (
        (a * b, ref_mul(meet, ta, tb)),
        (a + b, ref_add(meet, ta, tb)),
        (a - b, ref_add(meet, ta, ref_scale(tb, {0: Fraction(-1)}))),
    ):
        assert got.sig == meet
        assert ref_of(got) == want
    assert ref_of(a.scale(coefficient_of(coeff))) == ref_scale(ta, coeff)
    assert ref_of(a.scale(scalar)) == ref_scale(ta, {0: scalar})
    assert ref_of(a.retruncate(sb)) == ref_truncate(sb, ta)
    assert ref_of(a.retruncate(meet)) == ref_truncate(meet, ta)


@st.composite
def substitutions(draw):
    source = draw(signatures)
    target = draw(signatures)
    images = [reference_terms(target, draw(raw_terms)) for _ in source.variables]
    return source, reference_terms(source, draw(raw_terms)), target, images


@DIFFERENTIAL
@given(substitutions())
def test_substitute_matches_the_reference(case):
    source, terms, target, images = case
    got = series_of(source, terms).substitute(
        {v: series_of(target, image) for v, image in zip(source.variables, images)}
    )
    assert got.sig == target
    assert ref_of(got) == ref_substitute(terms, images, target)


@DIFFERENTIAL
@given(signatures, raw_terms, st.integers(0, len(NAMES) - 1), st.integers(0, 3))
def test_derivative_and_divide_exact_match_the_reference(sig, raw, i, k):
    terms = reference_terms(sig, raw)
    i %= len(sig.variables)
    var = sig.variables[i]
    series = series_of(sig, terms)

    def order_dropped_by(k):
        orders = sig.orders[:i] + (max(sig.orders[i] - k, 0),) + sig.orders[i + 1 :]
        return signature(sig.variables, orders, sig.weights, sig.total_order)

    got = series.derivative(var)
    assert got.sig == order_dropped_by(1)
    assert ref_of(got) == ref_shift({v: c for v, c in terms.items() if v[i]}, i, 1, True)
    try:
        want = ref_shift(terms, i, k, False)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            series.divide_exact(var, k)
        return
    got = series.divide_exact(var, k)
    assert got.sig == order_dropped_by(k)
    assert ref_of(got) == want


# every order and the total order at least 1, so the constant term survives
unit_signatures = st.builds(
    lambda n, w, o, t: signature(NAMES[:n], o[:n], w[:n], t),
    st.integers(1, len(NAMES)),
    st.tuples(*(st.integers(0, 3) for _ in NAMES)),
    st.tuples(*(st.integers(1, 5) for _ in NAMES)),
    st.none() | st.integers(1, 10),
)
nonzero_scalars = scalars.filter(bool)


@DIFFERENTIAL
@given(unit_signatures, raw_terms, nonzero_scalars, nonzero_scalars)
def test_invert_round_trips_over_the_v3_coefficients(sig, raw, a, b):
    terms = reference_terms(sig, raw)
    constant = (0,) * len(sig.variables)
    one = TruncatedSeries.constant(sig, V3_RING, 1)
    f = series_of(sig, {**terms, constant: {0: a, 1: b}})  # a + b v3 is a unit
    assert f * f.invert() == one
    # v3 alone is nilpotent, not a unit
    with pytest.raises(ArithmeticError):
        series_of(sig, {**terms, constant: {1: Fraction(1)}}).invert()


def test_invert_raises_when_its_step_budget_runs_out(monkeypatch):
    # 1 - t needs one product per power of t below the order
    sig, ring = one_var(8)
    f = TruncatedSeries.constant(sig, ring, ring.scalar(1)) - TruncatedSeries.variable(sig, ring, "t")
    monkeypatch.setattr("dlforge.series.INVERSE_STEP_BUDGET", 3)
    with pytest.raises(ArithmeticError, match="not unit \\+ nilpotent"):
        f.invert()


def test_compositional_inverse_raises_when_its_step_budget_runs_out(monkeypatch):
    sig, ring = one_var(8)
    t = TruncatedSeries.variable(sig, ring, "t")
    monkeypatch.setattr("dlforge.series.COMPOSITIONAL_STEP_BUDGET", 1)
    with pytest.raises(ArithmeticError, match="did not converge"):
        (t + t ** 2).compositional_inverse("t")
