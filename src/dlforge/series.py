"""Truncated multivariate power series over a graded polynomial ring.

A series has an ordered tuple of named variables, each with an integer
weight, per-variable truncation orders (exponents >= order are dropped) and
an optional weighted total-degree order.  Coefficients are
``GradedPolynomial`` elements of a fixed coefficient ring, so quotient
relations in the coefficients (a square-zero generator, say) are applied on
every operation.

Orders are exclusive: ``order=4`` in x keeps x^0 .. x^3.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polynomial import GradedPolynomial, positive_power

__all__ = ["SeriesSignature", "TruncatedSeries", "signature"]


@dataclass(frozen=True)
class SeriesSignature:
    """Variable layout and truncation discipline shared by compatible series."""

    variables: tuple
    weights: tuple
    orders: tuple
    total_order: int | None = None

    def __post_init__(self):
        if len({*self.variables}) != len(self.variables):
            raise ValueError("duplicate series variables")
        if len(self.weights) != len(self.variables) or len(self.orders) != len(self.variables):
            raise ValueError("weights/orders must match the variable tuple")

    def index(self, var):
        try:
            return self.variables.index(var)
        except ValueError:
            raise KeyError("no series variable named %r" % var) from None

    def keeps(self, expvec):
        if any(e >= o for e, o in zip(expvec, self.orders)):
            return False
        if self.total_order is not None:
            if sum(e * w for e, w in zip(expvec, self.weights)) >= self.total_order:
                return False
        return True

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


class TruncatedSeries:
    """A truncated power series.  Treat as immutable."""

    __slots__ = ("sig", "ring", "terms")

    def __init__(self, sig, ring, terms):
        self.sig = sig
        self.ring = ring
        self.terms = terms

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, sig, ring):
        return cls(sig, ring, {})

    @classmethod
    def constant(cls, sig, ring, coeff):
        if isinstance(coeff, GradedPolynomial):
            c = coeff
        else:
            c = ring.scalar(coeff)
        zerovec = (0,) * len(sig.variables)
        return cls(sig, ring, {zerovec: c} if not c.is_zero() and sig.keeps(zerovec) else {})

    @classmethod
    def variable(cls, sig, ring, var):
        i = sig.index(var)
        vec = tuple(1 if j == i else 0 for j in range(len(sig.variables)))
        if not sig.keeps(vec):
            return cls.zero(sig, ring)
        return cls(sig, ring, {vec: ring.one()})

    def _make(self, terms):
        return TruncatedSeries(
            self.sig, self.ring, {v: c for v, c in terms.items() if not c.is_zero()}
        )

    # -- ring operations ----------------------------------------------------

    def _align(self, other):
        if self.ring is not other.ring:
            raise ValueError("series over different coefficient rings")
        sig = self.sig.meet(other.sig)
        return sig, self.retruncate(sig), other.retruncate(sig)

    def __add__(self, other):
        sig, a, b = self._align(other)
        out = dict(a.terms)
        for v, c in b.terms.items():
            s = out.get(v)
            out[v] = c if s is None else s + c
        return TruncatedSeries(sig, self.ring, {v: c for v, c in out.items() if not c.is_zero()})

    def __sub__(self, other):
        return self + other.scale(self.ring.scalars.neg(self.ring.scalars.one))

    def __mul__(self, other):
        sig, a, b = self._align(other)
        out = {}
        for v1, c1 in a.terms.items():
            for v2, c2 in b.terms.items():
                v = tuple(x + y for x, y in zip(v1, v2))
                if not sig.keeps(v):
                    continue
                c = c1 * c2
                s = out.get(v)
                out[v] = c if s is None else s + c
        return TruncatedSeries(sig, self.ring, {v: c for v, c in out.items() if not c.is_zero()})

    def scale(self, c):
        if not isinstance(c, GradedPolynomial):
            c = self.ring.scalar(c)
        return self._make({v: k * c for v, k in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return TruncatedSeries.constant(self.sig, self.ring, self.ring.one())
        return positive_power(self, n)

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.ring is other.ring
            and self.sig.variables == other.sig.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.sig.variables, tuple(sorted(self.terms))))

    # -- queries ------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def coefficient(self, powers):
        """Coefficient of the monomial given by a {var: exp} mapping."""
        vec = [0] * len(self.sig.variables)
        for var, e in powers.items():
            vec[self.sig.index(var)] = e
        return self.terms.get(tuple(vec), self.ring.zero())

    def coefficient_series(self, var, e):
        """Coefficient of var^e as a series in the remaining variables."""
        i = self.sig.index(var)
        out = {}
        for vec, c in self.terms.items():
            if vec[i] == e:
                out[vec[:i] + vec[i + 1 :]] = c
        return TruncatedSeries(self.sig.drop(var), self.ring, out)

    def constant_coefficient(self):
        return self.terms.get((0,) * len(self.sig.variables), self.ring.zero())

    def max_exponent(self, var):
        i = self.sig.index(var)
        if not self.terms:
            return None
        return max(vec[i] for vec in self.terms)

    def is_integral(self):
        return all(c.is_integral() for c in self.terms.values())

    def assert_integral(self, what="series"):
        for vec, c in sorted(self.terms.items()):
            if not c.is_integral():
                raise ArithmeticError(
                    "%s left the integral lattice at %s: %s" % (what, vec, c)
                )
        return self

    # -- reshaping ------------------------------------------------------------

    def retruncate(self, sig):
        if sig.variables != self.sig.variables:
            raise ValueError("retruncate cannot change variables")
        return TruncatedSeries(sig, self.ring, {v: c for v, c in self.terms.items() if sig.keeps(v)})

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
        sig, ring = target.sig, target.ring
        powers = [[img] for img in imgs]  # powers[i][e - 1] is imgs[i] ** e

        def power(i, e):
            cache = powers[i]
            while len(cache) < e:
                cache.append(cache[-1] * imgs[i])
            return cache[e - 1]

        acc = TruncatedSeries.zero(sig, ring)
        for vec, coeff in self.terms.items():
            term = None
            for i, e in enumerate(vec):
                if e:
                    term = power(i, e) if term is None else term * power(i, e)
            if term is None:
                acc = acc + TruncatedSeries.constant(sig, ring, coeff)
            else:
                acc = acc + term.scale(coeff)
        return acc

    def identity_images(self):
        """The {var: var-as-series} mapping for this signature."""
        return {
            v: TruncatedSeries.variable(self.sig, self.ring, v) for v in self.sig.variables
        }

    # -- series calculus -------------------------------------------------------

    def invert(self, max_steps=2048):
        """Multiplicative inverse; the constant coefficient must be a unit."""
        c0 = self.constant_coefficient()
        c0inv = c0.inverse()
        u = (self.scale(c0inv) - TruncatedSeries.constant(self.sig, self.ring, self.ring.one())).scale(
            self.ring.scalars.neg(self.ring.scalars.one)
        )
        acc = TruncatedSeries.constant(self.sig, self.ring, self.ring.one())
        p = acc
        for _ in range(max_steps):
            p = p * u
            if p.is_zero():
                return acc.scale(c0inv)
            acc = acc + p
        raise ArithmeticError("series inversion did not terminate under truncation")

    def compositional_inverse(self, var, max_steps=256):
        """Inverse under composition in ``var`` (parameters ride along).

        Requires every term to involve ``var`` (so the series vanishes at
        ``var = 0`` for all parameter values) and a unit pure-linear
        coefficient.  Solved by fixed-point iteration; the result is checked
        by composing back.
        """
        i = self.sig.index(var)
        lin = None
        for vec, c in self.terms.items():
            if vec[i] == 0:
                raise ValueError("series does not vanish at %s = 0" % var)
            if vec[i] == 1 and sum(vec) == 1:
                lin = c
        if lin is None:
            raise ValueError("series has no linear term in %s" % var)
        lininv = lin.inverse()
        t = TruncatedSeries.variable(self.sig, self.ring, var)
        higher = self._make(
            {vec: c for vec, c in self.terms.items() if not (vec[i] == 1 and sum(vec) == 1)}
        )
        ids = self.identity_images()
        w = t
        for _ in range(max_steps):
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

    def derivative(self, var):
        """Formal derivative; the truncation order in ``var`` drops by one."""
        i = self.sig.index(var)
        out = {}
        for vec, c in self.terms.items():
            if vec[i] == 0:
                continue
            nv = vec[:i] + (vec[i] - 1,) + vec[i + 1 :]
            out[nv] = c.scale(vec[i])
        orders = list(self.sig.orders)
        orders[i] = max(orders[i] - 1, 0)
        sig = SeriesSignature(self.sig.variables, self.sig.weights, tuple(orders), self.sig.total_order)
        return TruncatedSeries(sig, self.ring, {v: c for v, c in out.items() if not c.is_zero()})

    def divide_exact(self, var, k):
        """Exact division by var^k; raises if any term has a lower exponent."""
        i = self.sig.index(var)
        out = {}
        for vec, c in self.terms.items():
            if vec[i] < k:
                raise ArithmeticError(
                    "series is not divisible by %s^%d (term %s)" % (var, k, (vec,))
                )
            out[vec[:i] + (vec[i] - k,) + vec[i + 1 :]] = c
        orders = list(self.sig.orders)
        orders[i] = orders[i] - k
        sig = SeriesSignature(self.sig.variables, self.sig.weights, tuple(orders), self.sig.total_order)
        return TruncatedSeries(sig, self.ring, out)

    # -- display -----------------------------------------------------------------

    def __str__(self):
        if not self.terms:
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
        for vec in sorted(self.terms, key=key):
            c = self.terms[vec]
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
