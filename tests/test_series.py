"""Truncated power series against brute-force coefficient oracles."""

import random
from fractions import Fraction

import pytest

from dlforge.polynomial import QQ, Generator, PolynomialRing
from dlforge.series import TruncatedSeries, signature


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
