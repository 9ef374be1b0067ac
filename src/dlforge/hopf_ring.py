"""A small quotient of the Ravenel-Wilson Hopf ring.

Classes have the shape [c] o b1^{o m} where c is a coefficient symbol
from the homotopy of MU taken mod decomposables.  Everything is reduced
modulo additive decomposables, circle decomposables, and the ideal
(b_2, b_3, ...), which is exactly the quotient where the multiplicative
operations on Hurewicz images have the closed form

    Qhat^{2k}([1] # ([x] o b1^{o n})) = [c_{k-n}] o b1^{o (k+n)},

the c_i being the coefficients of the power operation P(x) = sum c_i a^i
computed by the formal-group pipeline.  The composite of those rules
with the suspension to the dual Steenrod algebra is the chain checked by
``verify_gotcha_chain``.

Every class of the chain is an F2-sum of monomials, so each is a GF2
``GradedPolynomial``, in a ring built from the symbols [x1], ..., [xN]
of degree 2n that the identification reaches:

- an imported series P(x) is a polynomial in the symbols and ``alpha``
- a quotient class [c] o b1^{o m} is the monomial c b1^m (b1^m alone for
  the unit coefficient [1])
- a suspension class is a sum of generators ``sigma x<n>``
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .expressions import binomial_mod2
from .formal_groups import PowerOpResult, appendix_pipeline
from .polynomial import GF2, Generator, PolynomialRing

__all__ = [
    "IdentificationError",
    "import_pseries",
    "qhat_on_hurewicz",
    "qhat_b1",
    "suspend_to_dual",
    "format_quotient_class",
    "verify_gotcha_chain",
    "TRANSLATION_RULE",
    "STABILITY_RULE",
    "RW_MAIN_RELATION",
    "ImportedRule",
]


class IdentificationError(KeyError):
    """A series coefficient has no assigned image among the symbols."""


@lru_cache(maxsize=None)
def _ring(generators):
    """The GF2 ring on a tuple of generators, built once per tuple so that
    classes from separate calls compare and add; the chain needs three."""
    return PolynomialRing(GF2, generators)


def _quotient_ring(symbols):
    """The ring of the classes [c] o b1^{o m}: the symbols, then b1."""
    return _ring(tuple(symbols) + (Generator("b1", 2),))


def import_pseries(result, identification=None):
    """The reduced series P(x_n) = sum c_i alpha^i of a pipeline result, as
    a GF2 polynomial in the symbols and ``alpha``.

    The source is x_n for the pipeline's n.  ``identification`` maps
    coefficient-ring generator names to the m of their symbol [x_m], and
    the ring holds [x1] up to the largest m.  A surviving generator without
    an image is an ``IdentificationError``.  An image of the wrong degree is
    a ``ValueError``: the alpha^i coefficient has degree 2 |x_n| + 2i, that
    is 4n + 2i.  Monomials with two or more positive-degree factors (or
    proper powers) drop as decomposables, and even scalars drop mod 2; a
    non-integral scalar is an ``ArithmeticError``.
    """
    if not isinstance(result, PowerOpResult):
        raise TypeError("import_pseries expects a PowerOpResult")
    identification = identification or {}
    top = max(identification.values(), default=0)
    symbols = tuple(Generator("[x%d]" % m, 2 * m) for m in range(1, top + 1))
    out = _ring(symbols + (Generator("alpha", 0),))
    ring = result.reduced.ring
    terms = []
    for (i,), poly in result.reduced.terms.items():
        for mono, scalar in poly.terms.items():
            if scalar.denominator != 1:
                raise ArithmeticError(
                    "cannot reduce a non-integral coefficient: %s alpha^%d" % (scalar, i)
                )
            if scalar.numerator % 2 == 0:
                continue
            pairs = ring.unpack(mono)
            if len(pairs) == 0:
                raise IdentificationError(
                    "unit-multiple coefficient %s alpha^%d is outside the"
                    " identification's domain" % (scalar, i)
                )
            if len(pairs) > 1 or pairs[0][1] > 1:
                continue  # decomposable
            name = ring.generators[pairs[0][0]].name
            if name not in identification:
                raise IdentificationError(
                    "no identification provided for coefficient generator %r" % name
                )
            m = identification[name]
            if m != 2 * result.n + i:
                raise ValueError(
                    "coefficient [x%d] of alpha^%d has degree %d, expected %d"
                    % (m, i, 2 * m, 4 * result.n + 2 * i)
                )
            terms.append(out.monomial({"[x%d]" % m: 1, "alpha": i}))
    return out.sum(terms)


def qhat_on_hurewicz(k, n, p):
    """Qhat^{2k} on [1] # ([x_n] o b1^{o n}) in the quotient, read off the
    imported series ``p`` of P(x_n): the class [c_{k-n}] o b1^{o (k+n)},
    zero when k < n."""
    ring = p.ring
    symbols = [g for g in ring.generators if g.name != "alpha"]
    quotient = _quotient_ring(symbols)
    alpha = ring.index["alpha"]
    part = ring.make({m: 1 for m in p.terms if dict(ring.unpack(m)).get(alpha, 0) == k - n})
    images = {g.name: quotient.gen(g.name) for g in symbols}
    images["alpha"] = quotient.gen("b1")
    return part.map_generators(quotient, images) * quotient.gen("b1", 2 * n)


def qhat_b1(s):
    """Qhat^s b1 = b1 o b_{s/2}; in the quotient only s = 2 survives, as
    [1] o b1^{o 2}."""
    if s % 2:
        raise ValueError("Qhat^%d b1 is not determined by the even series" % s)
    if s < 2:
        raise ValueError("the series for Qhat on b1 starts at s = 2")
    quotient = _quotient_ring(())
    # b_{s/2} with s/2 >= 2 dies in the quotient
    return quotient.gen("b1", 2) if s == 2 else quotient.zero()


def suspend_to_dual(h):
    """Suspension to the dual algebra: [x_n] o b1^{o m} goes to sigma x_n.

    b1 maps to 1, so a unit coefficient leaves a constant, which drops
    with the decomposables.
    """
    symbols = [g for g in h.ring.generators if g.name != "b1"]
    target = _ring(tuple(Generator("sigma x%d" % (g.degree // 2), g.degree + 1) for g in symbols))
    images = {g.name: target.gen(t.name) for g, t in zip(symbols, target.generators)}
    images["b1"] = target.one()
    return h.map_generators(target, images).indecomposable_part()


def format_quotient_class(h):
    """The text of a quotient class: [c] o b1^o<m> per term, [1] for the
    unit coefficient."""
    ring = h.ring
    b1 = ring.index["b1"]
    bits = []
    for mono in sorted(h.terms, key=lambda m: (ring.monomial_degree(m), m)):
        powers = dict(ring.unpack(mono))
        m = powers.pop(b1, 0)
        c = " ".join(
            ring.generators[i].name + ("^%d" % e if e > 1 else "") for i, e in powers.items()
        )
        bits.append((c or "[1]") + ("" if m == 0 else " o b1" if m == 1 else " o b1^o%d" % m))
    return " + ".join(bits) or "0"


class ImportedRule:
    """A statement used as a rule without derivation, flagged for reports."""

    def __init__(self, name, statement, check=None):
        self.name = name
        self.statement = statement
        self.imported = True
        self._check = check

    def consequence_check(self):
        """Run the rule's single executable consequence, if it has one."""
        if self._check is None:
            return None
        return self._check()

    def __repr__(self):
        return "<imported rule %s>" % self.name


def _rw_additive_check():
    # At the additive law the relation collapses to b(s+t) = b(s) # b(t)
    # in a divided-power algebra: binom(a+b, a) gamma_{a+b} = gamma_a gamma_b.
    # The structure constant (a+b)! / (a! b!) is computed from factorials and
    # must agree mod 2 with the Lucas-theorem binomial used elsewhere, for
    # a + b < 12.
    for a in range(12):
        for b in range(12 - a):
            constant = Fraction(factorial(a + b), factorial(a) * factorial(b))
            if constant.denominator != 1 or binomial_mod2(a + b, a) != constant.numerator % 2:
                return False
    return True


TRANSLATION_RULE = ImportedRule(
    "hash-translation",
    "Qhat^s([1] # x) = Qhat^s(x) mod #-decomposables and o-decomposables",
)

STABILITY_RULE = ImportedRule(
    "suspension-stability",
    "the suspension to the dual algebra commutes with Dyer-Lashof operations",
)

RW_MAIN_RELATION = ImportedRule(
    "main-relation",
    "b(s+t) = sum [a_ij] o b(s)^{o i} o b(t)^{o j} over the group law"
    " coefficients a_ij",
    check=_rw_additive_check,
)


def verify_gotcha_chain(k=5, identify=True):
    """Run the full chain on the appendix preset: pipeline, identification,
    Qhat, suspension.

    Returns a dict of ordered step records, each with a value string, an
    ok flag where something is asserted, and an ``imported`` flag on the
    rules used without derivation.  With ``identify`` off the chain stops
    at the raw series and returns it under ``raw`` in place of an endpoint.
    """
    steps = []
    result = appendix_pipeline(2)
    steps.append(
        {
            "id": "pipeline-n2",
            "value": str(result.reduced),
            "ok": all(ok for _label, ok in result.checks),
            "imported": False,
            "statement": "power operation value on the degree-4 source, reduced mod the two-series",
        }
    )
    if not identify:
        steps.append(
            {
                "id": "identification",
                "value": "disabled; raw series %s" % result.raw,
                "ok": True,
                "imported": False,
                "statement": "identification v3 -> x7 disabled; surfacing the raw series",
            }
        )
        return {"steps": steps, "endpoint": None, "raw": result.raw}
    pseries = import_pseries(result, {"v3": 7})
    steps.append(
        {
            "id": "identification",
            "value": "P(x%d) = %s" % (result.n, pseries),
            "ok": pseries == pseries.ring.monomial({"[x7]": 1, "alpha": 3}),
            "imported": True,
            "statement": "v3 and x7 agree mod decomposables up to an odd scalar,"
            " which is 1 over F2",
        }
    )
    steps.append(
        {
            "id": "hash-translation",
            "value": TRANSLATION_RULE.statement,
            "ok": True,
            "imported": True,
            "statement": TRANSLATION_RULE.statement,
        }
    )
    qhat = qhat_on_hurewicz(k, result.n, pseries)
    steps.append(
        {
            "id": "qhat-k%d" % k,
            "value": format_quotient_class(qhat),
            "ok": True,
            "imported": False,
            "statement": "Qhat^{2k} reads off the alpha^{k-n} coefficient"
            " against b1^{o (k+n)}",
        }
    )
    endpoint = suspend_to_dual(qhat)
    steps.append(
        {
            "id": "suspension",
            "value": str(endpoint),
            "ok": True,
            "imported": True,
            "statement": STABILITY_RULE.statement,
        }
    )
    return {"steps": steps, "endpoint": endpoint}
