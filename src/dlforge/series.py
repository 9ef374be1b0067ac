"""Truncated multivariate power series over a graded polynomial ring.

A series has an ordered tuple of named variables, each with an integer
weight, per-variable truncation orders (exponents >= order are dropped) and
an optional weighted total-degree order.  Coefficients lie in a fixed
coefficient ring, so its generator orders (a square-zero generator, say)
are applied on every operation.

Orders are exclusive: ``order=4`` in x keeps x^0 .. x^3.

A series is one ``GradedPolynomial`` in a *series ring*, built once per
(coefficient ring, signature) by ``series_ring``.  Its generators are the
coefficient ring's k generators at degree 0, then the series variables at
their weights.  So a packed monomial (see ``polynomial``) holds the
weighted series degree in its degree field, the exponents of a coefficient
monomial in fields 1..k, and the series exponents in the fields after them.
The coefficient part of a key (fields 1..k, degree 0) is the same in every
series ring over one coefficient ring.

Every truncation is the series ring's limit word: each variable's order,
the coefficient generators' orders (2 for v3 in Q[v3]/(v3^2)) and
``total_order`` on the degree field.  A product monomial survives exactly
when no field reaches its limit, which the kernel tests with one OR, one
subtraction and one AND.  So series products, sums and scalings are the
kernel's; retruncating is a change of ring plus a filter on the new limit
word; ``derivative`` and ``divide_exact`` subtract from the keys.
Substitution is the kernel's ring map: ``substitute`` is one
``map_generators`` call that sends each coefficient generator to itself and
each variable to its image.
``TruncatedSeries.terms`` converts back to ``{exponent tuple: coefficient}``
for display and for readers outside the arithmetic.
"""

from __future__ import annotations

from functools import lru_cache

from .expressions import Value, _set
from .polynomial import (
    FIELD_BITS,
    Generator,
    GradedPolynomial,
    PolynomialRing,
    _power,
)

__all__ = ["SeriesSignature", "TruncatedSeries", "series_ring", "signature"]

_FIELD_MASK = (1 << FIELD_BITS) - 1

# Watchdog: upper bound on the products of one ``invert``.
INVERSE_STEP_BUDGET = 2048
# Watchdog: upper bound on the fixed-point iterations of one ``compositional_inverse``.
COMPOSITIONAL_STEP_BUDGET = 256


class SeriesSignature(Value):
    """Variable layout and truncation discipline shared by compatible series."""

    __slots__ = ("variables", "weights", "orders", "total_order")

    def __init__(self, variables, weights, orders, total_order=None):
        if len({*variables}) != len(variables):
            raise ValueError("duplicate series variables")
        if len(weights) != len(variables) or len(orders) != len(variables):
            raise ValueError("weights/orders must match the variable tuple")
        # a negative bound would borrow across the fields of the limit word
        if any(o < 0 for o in orders) or any(w < 0 for w in weights):
            raise ValueError("series orders and weights must be nonnegative")
        if total_order is not None and total_order < 0:
            raise ValueError("total_order must be nonnegative")
        _set(self, "variables", variables)
        _set(self, "weights", weights)
        _set(self, "orders", orders)
        _set(self, "total_order", total_order)

    def index(self, var):
        try:
            return self.variables.index(var)
        except ValueError:
            raise KeyError("no series variable named %r" % var) from None

    def meet(self, other):
        """Common refinement: elementwise minimum of the truncation orders."""
        if self.variables != other.variables or self.weights != other.weights:
            raise ValueError("incompatible series variables")
        totals = [t for t in (self.total_order, other.total_order) if t is not None]
        return SeriesSignature(
            self.variables,
            self.weights,
            tuple(min(a, b) for a, b in zip(self.orders, other.orders)),
            min(totals) if totals else None,
        )

    def drop(self, var):
        i = self.index(var)
        cut = lambda t: t[:i] + t[i + 1 :]
        return SeriesSignature(cut(self.variables), cut(self.weights), cut(self.orders), self.total_order)


def signature(variables, orders, weights=None, total_order=None):
    variables = tuple(variables)
    if weights is None:
        weights = (1,) * len(variables)
    return SeriesSignature(variables, tuple(weights), tuple(orders), total_order)


@lru_cache(maxsize=128)
def series_ring(ring, sig):
    """The polynomial ring that holds the series over ``ring`` with ``sig``.

    Built on first use and cached, so that series of one signature share one
    ring.  The cache is bounded so that it does not keep every coefficient
    ring alive for the life of the process; a series whose ring was evicted
    still works, and meets the rebuilt ring through ``retruncate``.
    """
    gens = [Generator(g.name, 0) for g in ring.generators]
    gens += [Generator(v, w) for v, w in zip(sig.variables, sig.weights)]
    return PolynomialRing(ring.scalars, gens, ring.orders + sig.orders, sig.total_order)


def _coefficient_keys(sring, ring, coeff):
    """``{coefficient key: scalar}`` of a coefficient-ring element in ``sring``."""
    if coeff.ring is not ring:
        raise ValueError("elements of different rings")
    return {sring.pack(ring.unpack(m)): c for m, c in coeff.terms.items()}


def _rehome(poly, ring):
    """``poly`` as an element of the series ring ``ring`` of the same layout."""
    if poly.ring is ring:
        return poly
    return GradedPolynomial(ring, {m: c for m, c in poly.terms.items() if not ring.kills(m)})


class TruncatedSeries:
    """A truncated power series.  Treat as immutable.

    ``ring`` is the coefficient ring and ``poly`` the series as an element
    of ``series_ring(ring, sig)``.
    """

    __slots__ = ("sig", "ring", "poly")

    def __init__(self, sig, ring, poly):
        self.sig = sig
        self.ring = ring
        self.poly = poly

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, sig, ring):
        return cls(sig, ring, series_ring(ring, sig).zero())

    @classmethod
    def constant(cls, sig, ring, coeff):
        if not isinstance(coeff, GradedPolynomial):
            coeff = ring.scalar(coeff)
        return cls.from_terms(sig, ring, {(0,) * len(sig.variables): coeff})

    @classmethod
    def variable(cls, sig, ring, var):
        sig.index(var)  # a KeyError that names the series variable
        return cls(sig, ring, series_ring(ring, sig).gen(var))

    @classmethod
    def from_terms(cls, sig, ring, terms):
        """The series of an ``{exponent tuple: coefficient}`` mapping."""
        sring = series_ring(ring, sig)
        k = len(ring.generators)
        out = {}
        for vec, coeff in terms.items():
            key = sring.pack((k + j, e) for j, e in enumerate(vec))
            for m, c in _coefficient_keys(sring, ring, coeff).items():
                out[key + m] = c
        return cls(sig, ring, sring.make(out))

    # -- packed layout --------------------------------------------------------

    def _shift(self, i):
        """Bit offset of the field of series variable ``i``."""
        return FIELD_BITS * (len(self.ring.generators) + 1 + i)

    def _unit(self, i):
        """The key of series variable ``i`` to the first power."""
        return (1 << self._shift(i)) + self.sig.weights[i]

    def _exponent(self, mono, i):
        return (mono >> self._shift(i)) & _FIELD_MASK

    def _coefficient_mask(self):
        return ((1 << FIELD_BITS * len(self.ring.generators)) - 1) << FIELD_BITS

    def _by_exponents(self):
        """``{series key: {coefficient key: scalar}}``; a series key holds the
        series exponents and degree, a coefficient key the coefficient ring's
        fields."""
        mask = self._coefficient_mask()
        out = {}
        for m, c in self.poly.terms.items():
            cm = m & mask
            out.setdefault(m - cm, {})[cm] = c
        return out

    def _coefficient(self, coefficient_terms):
        """The coefficient-ring element of ``{coefficient key: scalar}``."""
        ring, unpack = self.ring, self.poly.ring.unpack
        return GradedPolynomial(ring, {ring.pack(unpack(m)): c for m, c in coefficient_terms.items()})

    # -- ring operations ----------------------------------------------------

    def _align(self, other):
        a, b = self.poly, other.poly
        if a.ring is b.ring:
            return self.sig, a, b
        if self.ring is not other.ring:
            raise ValueError("series over different coefficient rings")
        sig = self.sig.meet(other.sig)
        ring = series_ring(self.ring, sig)
        return sig, _rehome(a, ring), _rehome(b, ring)

    def __add__(self, other):
        sig, a, b = self._align(other)
        return TruncatedSeries(sig, self.ring, a + b)

    def __sub__(self, other):
        return self + other.scale(self.ring.scalars.neg(self.ring.scalars.one))

    def __mul__(self, other):
        sig, a, b = self._align(other)
        return TruncatedSeries(sig, self.ring, a * b)

    def scale(self, c):
        """Multiply by a scalar or by an element of the coefficient ring."""
        if not isinstance(c, GradedPolynomial):
            return TruncatedSeries(self.sig, self.ring, self.poly.scale(c))
        sring = self.poly.ring
        coefficient_terms = _coefficient_keys(sring, self.ring, c)
        if coefficient_terms.keys() == {0}:
            return TruncatedSeries(self.sig, self.ring, self.poly.scale(coefficient_terms[0]))
        return TruncatedSeries(self.sig, self.ring, self.poly * sring.make(coefficient_terms))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return TruncatedSeries.constant(self.sig, self.ring, self.ring.one())
        return _power({(0, 1): self}, 0, n)

    def __eq__(self, other):
        # keys carry the weighted degree, so series of other weights differ
        return (
            isinstance(other, TruncatedSeries)
            and self.ring is other.ring
            and self.sig.variables == other.sig.variables
            and self.sig.weights == other.sig.weights
            and self.poly.terms == other.poly.terms
        )

    def __hash__(self):
        return hash((self.sig.variables, frozenset(self.poly.terms)))

    # -- queries ------------------------------------------------------------

    @property
    def terms(self):
        """The ``{exponent tuple: coefficient}`` view, built on each access."""
        n = len(self.sig.variables)
        return {
            tuple(self._exponent(key, j) for j in range(n)): self._coefficient(coeffs)
            for key, coeffs in self._by_exponents().items()
        }

    def is_zero(self):
        return not self.poly.terms

    def coefficient(self, powers):
        """Coefficient of the monomial given by a {var: exp} mapping."""
        vec = [0] * len(self.sig.variables)
        for var, e in powers.items():
            vec[self.sig.index(var)] = e
        return self.terms.get(tuple(vec), self.ring.zero())

    def coefficient_series(self, var, e):
        """Coefficient of var^e as a series in the remaining variables."""
        i = self.sig.index(var)
        out = {vec[:i] + vec[i + 1 :]: c for vec, c in self.terms.items() if vec[i] == e}
        return TruncatedSeries.from_terms(self.sig.drop(var), self.ring, out)

    def constant_coefficient(self):
        mask = self._coefficient_mask()
        return self._coefficient({m: c for m, c in self.poly.terms.items() if m & mask == m})

    def max_exponent(self, var):
        i = self.sig.index(var)
        if not self.poly.terms:
            return None
        return max(self._exponent(m, i) for m in self.poly.terms)

    def is_integral(self):
        return self.poly.is_integral()

    def assert_integral(self, what):
        if self.poly.is_integral():
            return self
        for vec, c in sorted(self.terms.items()):
            if not c.is_integral():
                raise ArithmeticError(
                    "%s left the integral lattice at %s: %s" % (what, vec, c)
                )

    # -- reshaping ------------------------------------------------------------

    def retruncate(self, sig):
        if sig.variables != self.sig.variables or sig.weights != self.sig.weights:
            raise ValueError("retruncate cannot change variables or weights")
        return TruncatedSeries(sig, self.ring, _rehome(self.poly, series_ring(self.ring, sig)))

    def substitute(self, images):
        """Substitute series for every variable.

        ``images`` maps each variable of ``self`` to a ``TruncatedSeries``;
        all images must share one signature and ring, which becomes the
        signature of the result.
        """
        imgs = [images[v] for v in self.sig.variables]
        if not imgs:
            raise ValueError("series has no variables")
        target = imgs[0]
        for s in imgs[1:]:
            if s.sig != target.sig or s.ring is not target.ring:
                raise ValueError("substitution images must share a signature")
        if target.ring is not self.ring:
            raise ValueError("series over different coefficient rings")
        sring = series_ring(target.ring, target.sig)
        # the coefficient generators map to themselves
        gens = {g.name: sring.gen(g.name) for g in self.ring.generators}
        gens.update((v, _rehome(img.poly, sring)) for v, img in zip(self.sig.variables, imgs))
        return TruncatedSeries(target.sig, target.ring, self.poly.map_generators(sring, gens))

    def identity_images(self):
        """The {var: var-as-series} mapping for this signature."""
        return {
            v: TruncatedSeries.variable(self.sig, self.ring, v) for v in self.sig.variables
        }

    # -- series calculus -------------------------------------------------------

    def invert(self):
        """Multiplicative inverse; the constant coefficient must be a unit.

        Every non-constant monomial of a series ring is nilpotent, the
        coefficient generators' part of the constant coefficient too, so the
        kernel's geometric series finds the (unique) inverse.
        """
        return TruncatedSeries(self.sig, self.ring, self.poly.inverse(INVERSE_STEP_BUDGET))

    def compositional_inverse(self, var):
        """Inverse under composition in ``var`` (parameters ride along).

        Requires every term to involve ``var`` (so the series vanishes at
        ``var = 0`` for all parameter values) and a unit pure-linear
        coefficient.  Solved by fixed-point iteration; the result is checked
        by composing back.
        """
        i = self.sig.index(var)
        unit = self._unit(i)
        mask = self._coefficient_mask()
        lin = {}
        higher = {}
        for m, c in self.poly.terms.items():
            if not self._exponent(m, i):
                raise ValueError("series does not vanish at %s = 0" % var)
            if m - (m & mask) == unit:
                lin[m - unit] = c
            else:
                higher[m] = c
        if not lin:
            raise ValueError("series has no linear term in %s" % var)
        lininv = self._coefficient(lin).inverse()
        t = TruncatedSeries.variable(self.sig, self.ring, var)
        higher = TruncatedSeries(self.sig, self.ring, GradedPolynomial(self.poly.ring, higher))
        ids = self.identity_images()
        w = t
        for _ in range(COMPOSITIONAL_STEP_BUDGET):
            images = dict(ids)
            images[var] = w
            w_next = (t - higher.substitute(images)).scale(lininv)
            if w_next == w:
                break
            w = w_next
        images = dict(ids)
        images[var] = w
        if self.substitute(images) != t:
            raise ArithmeticError("compositional inverse did not converge under truncation")
        return w

    def _shifted(self, var, k, out):
        """The series of keys ``out`` after var's order dropped by ``k``."""
        i = self.sig.index(var)
        orders = list(self.sig.orders)
        orders[i] = max(orders[i] - k, 0)
        sig = SeriesSignature(self.sig.variables, self.sig.weights, tuple(orders), self.sig.total_order)
        return TruncatedSeries(sig, self.ring, GradedPolynomial(series_ring(self.ring, sig), out))

    def derivative(self, var):
        """Formal derivative; the truncation order in ``var`` drops by one."""
        i = self.sig.index(var)
        unit = self._unit(i)
        sc = self.ring.scalars
        out = {}
        for m, c in self.poly.terms.items():
            e = self._exponent(m, i)
            if e:
                d = sc.mul(c, sc.coerce(e))
                if d != sc.zero:
                    out[m - unit] = d
        return self._shifted(var, 1, out)

    def divide_exact(self, var, k):
        """Exact division by var^k; raises if any term has a lower exponent."""
        i = self.sig.index(var)
        step = k * self._unit(i)
        out = {}
        for m, c in self.poly.terms.items():
            if self._exponent(m, i) < k:
                vec = tuple(self._exponent(m, j) for j in range(len(self.sig.variables)))
                raise ArithmeticError(
                    "series is not divisible by %s^%d (term %s)" % (var, k, (vec,))
                )
            out[m - step] = c
        return self._shifted(var, k, out)

    # -- display -----------------------------------------------------------------

    def __str__(self):
        terms = self.terms
        if not terms:
            return "0"
        names = self.sig.variables

        def fmt(vec):
            parts = []
            for n, e in zip(names, vec):
                if e == 1:
                    parts.append(n)
                elif e > 1:
                    parts.append("%s^%d" % (n, e))
            return " ".join(parts)

        def key(vec):
            return (sum(e * w for e, w in zip(vec, self.sig.weights)), vec)

        chunks = []
        for vec in sorted(terms, key=key):
            c = terms[vec]
            body = fmt(vec)
            ctext = str(c)
            neg = ctext.startswith("-") and "+" not in ctext and "- " not in ctext[1:]
            if neg:
                ctext = ctext[1:]
            if body:
                if ctext == "1":
                    text = body
                elif " " in ctext or "+" in ctext or "- " in ctext:
                    text = "(%s) %s" % (ctext, body)
                else:
                    text = "%s %s" % (ctext, body)
            else:
                text = "(%s)" % ctext if ("+" in ctext or "- " in ctext) else ctext
            if not chunks:
                chunks.append("-" + text if neg else text)
            else:
                chunks.append(("- " if neg else "+ ") + text)
        return " ".join(chunks)

    def __repr__(self):
        return "<series %s>" % self

