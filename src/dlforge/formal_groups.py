"""Power operations on formal group laws with exact coefficients.

Everything here works in truncated power series over a rational
coefficient ring, checking integrality at each step that is supposed to
land back in the integral lattice.  The centerpiece is the pipeline that
computes the total power operation on the coefficient [CP^n]: build the
isogeny g(x, alpha) = x (x +_F alpha), change variables to k(y, alpha) =
g(alpha y, alpha) / alpha^2, invert it, read off the y^n coefficient
f_n(alpha) of l'(alpha k^{-1}) (k^{-1})', split off a polynomial multiple
h_n of the cofactor <2> so that the remainder is divisible by alpha^{2n},
and divide.  The quotient is the operation's value; dividing exactly is
the step with actual content.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .polynomial import QQ, Generator, PolynomialRing
from .series import TruncatedSeries, signature

__all__ = [
    "LogarithmPreset",
    "preset",
    "fgl_from_log",
    "n_series",
    "bracket2_series",
    "isogeny_g",
    "appendix_pipeline",
    "reduce_mod_two_series",
    "verify_isogeny_derivative",
    "check_associativity",
    "PowerOpResult",
    "ReductionResult",
]

# Watchdog: upper bound on the passes of one mod-2 series reduction.
REDUCTION_PASS_BUDGET = 10_000


class LogarithmPreset:
    """A coefficient ring together with an exact logarithm.

    ``log_powers`` maps exponents to coefficients of the log series; the
    linear coefficient must be 1.  The ring's scalars must be rational so
    the log can be composition-inverted; integrality of downstream output
    is a separate check, not an assumption.
    """

    def __init__(self, name, ring, log_powers):
        self.name = name
        self.ring = ring
        self.log_powers = dict(log_powers)
        lin = self.log_powers.get(1)
        if lin is None or lin != ring.one():
            raise ValueError("logarithms here must start with the identity term")

    def log_series(self, sig, var):
        t = TruncatedSeries.variable(sig, self.ring, var)
        out = TruncatedSeries.zero(sig, self.ring)
        for e in sorted(self.log_powers):
            out = out + (t**e).scale(self.log_powers[e])
        return out

    @lru_cache(maxsize=64)
    def exp_series(self, sig, var):
        """Composition inverse of the log in the same variable (memoized)."""
        return self.log_series(sig, var).compositional_inverse(var)

    def log_derivative(self, sig, var):
        return self.log_series(sig, var).derivative(var)

    def projective_coefficient(self, n):
        """Coefficient of x^n in l'(x); the image of the n-th projective
        space class under the classifying map for this preset."""
        c = self.log_powers.get(n + 1)
        if c is None:
            return self.ring.zero()
        return c.scale(n + 1)

    def __repr__(self):
        return "<preset %s>" % self.name


_ADDITIVE = PolynomialRing(QQ, [])
_APPENDIX = PolynomialRing(QQ, [Generator("v3", 14)], orders=(2,))
# "additive": the additive law over the integers, an independent cross-check.
# "appendix-z-v3": Z[v3]/(v3^2) with logarithm x + (v3/2) x^8.
_PRESETS = {
    p.name: p
    for p in (
        LogarithmPreset("additive", _ADDITIVE, {1: _ADDITIVE.one()}),
        LogarithmPreset(
            "appendix-z-v3",
            _APPENDIX,
            {1: _APPENDIX.one(), 8: _APPENDIX.gen("v3").scale(Fraction(1, 2))},
        ),
    )
}


def preset(name):
    try:
        return _PRESETS[name]
    except KeyError:
        raise KeyError("unknown formal group preset %r" % name) from None


def fgl_from_log(p, x_order, y_order, check=True):
    """The formal group law F(x, y) = exp(log x + log y) for a preset.

    With ``check`` on, verifies integrality, F(x, 0) = x, symmetry, and
    that log F = log x + log y under the truncation.
    """
    sig = signature(("x", "y"), (x_order, y_order))
    lx = p.log_series(sig, "x")
    ly = p.log_series(sig, "y")
    onevar = signature(("t",), (max(x_order, y_order),))
    exp = p.exp_series(onevar, "t")
    F = exp.substitute({"t": lx + ly})
    if check:
        F.assert_integral("formal group law")
        x = TruncatedSeries.variable(sig, p.ring, "x")
        zero = TruncatedSeries.zero(sig, p.ring)
        at_zero = F.substitute({"x": x, "y": zero})
        if at_zero != x:
            raise ArithmeticError("F(x, 0) != x for preset %s" % p.name)
        y = TruncatedSeries.variable(sig, p.ring, "y")
        if F.substitute({"x": y, "y": x}) != F:
            raise ArithmeticError("F is not symmetric for preset %s" % p.name)
        logf = p.log_series(onevar, "t").substitute({"t": F})
        if logf != lx + ly:
            raise ArithmeticError("log F != log x + log y for preset %s" % p.name)
    return F


# (preset, n, variable) -> the highest-order n-series built so far
_TOP_N_SERIES = {}


@lru_cache(maxsize=64)
def n_series(p, n, order, var="t"):
    """The n-series [n](t) = exp(n log t), checked to be integral (memoized).

    A lower order is a truncation of a higher one, so each (preset, n,
    variable) builds again only for an order above the highest built so
    far, and truncates that one for any lower order.  Below order 2 the
    variable itself is truncated away and exp has no compositional inverse,
    so such an order is always built, and raises.
    """
    top = _TOP_N_SERIES.get((p, n, var))
    if top is None or top.sig.orders[0] < order or order < 2:
        top = _TOP_N_SERIES[p, n, var] = _build_n_series(p, n, order, var)
    if top.sig.orders[0] == order:
        return top
    return top.retruncate(signature((var,), (order,)))


def _build_n_series(p, n, order, var):
    sig = signature((var,), (order,))
    log = p.log_series(sig, var)
    series = p.exp_series(sig, var).substitute({var: log.scale(n)})
    series.assert_integral("%d-series" % n)
    return series


@lru_cache(maxsize=64)
def bracket2_series(p, order):
    """The cofactor <2> with [2](alpha) = alpha <2>(alpha) (memoized)."""
    two = n_series(p, 2, order + 1, "alpha")
    return two.divide_exact("alpha", 1)


@lru_cache(maxsize=64)
def isogeny_g(p, x_order, alpha_order):
    """g(x, alpha) = x (x +_F alpha) over the (x, alpha) signature (memoized)."""
    F = fgl_from_log(p, x_order + 1, alpha_order, check=False)
    sig = signature(("x", "alpha"), (x_order + 1, alpha_order))
    x = TruncatedSeries.variable(sig, p.ring, "x")
    alpha = TruncatedSeries.variable(sig, p.ring, "alpha")
    return x * F.substitute({"x": x, "y": alpha})


class ReductionResult:
    """Outcome of reducing a series modulo the two-series ideal.

    ``reduced + bracket2 * multiplier`` recovers the input exactly, and
    ``multiplier`` only involves positive powers of the series variable,
    so the difference lies in the ideal generated by the two-series.
    """

    def __init__(self, reduced, multiplier, bracket2):
        self.reduced = reduced
        self.multiplier = multiplier
        self.bracket2 = bracket2

    def congruence_holds(self, original):
        return self.reduced + self.bracket2 * self.multiplier == original

    def __repr__(self):
        return "<reduction %s>" % self.reduced


def reduce_mod_two_series(series, p):
    """Reduce coefficients of positive powers of alpha modulo 2.

    Each scalar 2q + r on a positive power of alpha is replaced by r,
    trading the even part for (2 - <2>) times the same monomial; constant
    terms in alpha are untouched.  A pass trades every such term at once.
    Terminates because the traded terms climb in degree until truncation or
    nilpotence kills them.  The result does not depend on the order of the
    trades: two reductions of one series differ by <2> m, whose lowest
    alpha term is twice that of m, while reduced coefficients differ by
    -1, 0 or 1; so m is zero.
    """
    sig = series.sig
    i = sig.index("alpha")
    ring = series.ring
    bracket2 = bracket2_series(p, sig.orders[i]).substitute(
        {"alpha": TruncatedSeries.variable(sig, ring, "alpha")}
    )
    work = series
    multiplier = TruncatedSeries.zero(sig, ring)
    for _ in range(REDUCTION_PASS_BUDGET):
        excess = {}
        for m, c in work.poly.terms.items():
            if work._exponent(m, i):
                if c.denominator != 1:
                    raise ArithmeticError("cannot reduce a non-integral coefficient: %s" % c)
                if c // 2:
                    excess[m] = c // 2
        if not excess:
            return ReductionResult(work, multiplier, bracket2)
        excess = TruncatedSeries(work.sig, ring, work.poly.ring.make(excess))
        work = work - excess * bracket2
        multiplier = multiplier + excess
    raise ArithmeticError("mod-2 series reduction did not terminate")


class PowerOpResult:
    """All intermediates of one run of the power-operation pipeline."""

    def __init__(self, **fields):
        self.__dict__.update(fields)


def appendix_pipeline(n, p=None, alpha_order=None):
    """Value of the total power operation on the n-th projective class.

    Returns a ``PowerOpResult`` carrying every intermediate series and a
    tuple of (label, ok) rows for the checks performed along the way.
    Results are memoized per (n, preset, alpha_order) after the defaults
    are filled in, so callers share one result and must not modify it.
    """
    if n < 1:
        raise ValueError("the pipeline needs n >= 1")
    if p is None:
        p = preset("appendix-z-v3")
    if alpha_order is None:
        alpha_order = 2 * n + 16
    return _appendix_pipeline(n, p, alpha_order)


@lru_cache(maxsize=None)
def _appendix_pipeline(n, p, alpha_order):
    checks = []
    y_order = n + 2

    bracket2 = bracket2_series(p, alpha_order)
    bracket2.assert_integral("<2>")
    two = n_series(p, 2, alpha_order + 1, "alpha")
    alpha1 = TruncatedSeries.variable(signature(("alpha",), (alpha_order + 1,)), p.ring, "alpha")
    checks.append(("two-series factors as alpha <2>", alpha1 * _lift(bracket2, alpha_order + 1) == two))

    g = isogeny_g(p, max(y_order, 9), alpha_order)
    ysig = signature(("y", "alpha"), (y_order, alpha_order))
    yvar = TruncatedSeries.variable(ysig, p.ring, "y")
    avar = TruncatedSeries.variable(ysig, p.ring, "alpha")
    k = g.substitute({"x": avar * yvar, "alpha": avar}).divide_exact("alpha", 2)
    kinv = k.compositional_inverse("y")
    checks.append(("k has linear term y", k.coefficient({"y": 1}) == p.ring.one()))

    ksig = kinv.sig
    lprime = p.log_derivative(signature(("t",), (8 * (y_order + 1),)), "t")
    integrand = lprime.substitute(
        {"t": TruncatedSeries.variable(ksig, p.ring, "alpha") * kinv}
    ) * kinv.derivative("y")
    f_n = integrand.coefficient_series("y", n)

    asig = f_n.sig
    ap = TruncatedSeries.variable(asig, p.ring, "alpha")
    cp = p.projective_coefficient(n)
    cp_sq = TruncatedSeries.constant(asig, p.ring, cp * cp) * ap ** (2 * n)
    b2 = _lift(bracket2, asig.orders[0]) if asig.orders[0] != bracket2.sig.orders[0] else bracket2
    h_n = _truncate_var((f_n - cp_sq) * b2.invert(), "alpha", 2 * n + 1)
    h_n.assert_integral("h_n")
    checks.append(
        ("h_n is a polynomial of degree <= 2n", (h_n.max_exponent("alpha") or 0) <= 2 * n)
    )

    raw = (f_n - h_n * b2).divide_exact("alpha", 2 * n)
    raw.assert_integral("power operation value")
    checks.append(("value squares to cp^2 at alpha = 0", raw.constant_coefficient() == cp * cp))

    reduction = reduce_mod_two_series(raw, p)
    checks.append(("reduction is a congruence", reduction.congruence_holds(raw)))
    second = reduce_mod_two_series(reduction.reduced, p)
    checks.append(("reduction is idempotent", second.reduced == reduction.reduced))

    return PowerOpResult(
        n=n,
        preset=p.name,
        two_series=two,
        bracket2=bracket2,
        g=g,
        k=k,
        kinv=kinv,
        integrand=integrand,
        f_n=f_n,
        cp=cp,
        h_n=h_n,
        raw=raw,
        reduced=reduction.reduced,
        reduction=reduction,
        checks=tuple(checks),
    )


def _lift(series, order):
    """Re-embed a univariate series into a larger truncation order."""
    return series.retruncate(signature(series.sig.variables, (order,), series.sig.weights))


def _truncate_var(series, var, bound):
    """Drop the terms with ``var`` at or past ``bound``; the signature stays."""
    sig = series.sig
    i = sig.index(var)
    orders = sig.orders[:i] + (min(sig.orders[i], bound),) + sig.orders[i + 1 :]
    cut = signature(sig.variables, orders, sig.weights, sig.total_order)
    return series.retruncate(cut).retruncate(sig)


def verify_isogeny_derivative(p):
    """Check the derivative form of the isogeny equation.

    g'(x, a) l'_{target}(g(x, a), a) - a l'(x) must be <2> times an
    integral series, where the target log derivative has the pipeline's
    computed operation values as coefficients.  Returns (ok, h).
    """
    x_order, alpha_order = 5, 24
    g = isogeny_g(p, x_order, alpha_order)
    sig = g.sig
    images = [
        appendix_pipeline(m, p, alpha_order=alpha_order).raw for m in range(1, x_order)
    ]
    target_lprime = TruncatedSeries.constant(sig, p.ring, p.ring.one())
    avar = TruncatedSeries.variable(sig, p.ring, "alpha")
    for m, value in enumerate(images, start=1):
        lifted = value.substitute({"alpha": avar})
        target_lprime = target_lprime + lifted * g**m
    lprime = p.log_derivative(signature(("t",), (x_order,)), "t").substitute(
        {"t": TruncatedSeries.variable(sig, p.ring, "x")}
    )
    bracket2 = bracket2_series(p, alpha_order).substitute({"alpha": avar})
    h = (g.derivative("x") * target_lprime - avar * lprime) * bracket2.invert()
    return h.is_integral(), h


def check_associativity(p, order):
    """F(F(x, y), z) = F(x, F(y, z)) under a total-degree truncation."""
    big = max(3 * order, 12)
    F = fgl_from_log(p, big, big, check=False)
    sig = signature(("x", "y", "z"), (big, big, big), total_order=order + 1)
    x = TruncatedSeries.variable(sig, p.ring, "x")
    y = TruncatedSeries.variable(sig, p.ring, "y")
    z = TruncatedSeries.variable(sig, p.ring, "z")
    xy = F.substitute({"x": x, "y": y})
    yz = F.substitute({"x": y, "y": z})
    left = F.substitute({"x": xy, "y": z})
    right = F.substitute({"x": x, "y": yz})
    return left == right
