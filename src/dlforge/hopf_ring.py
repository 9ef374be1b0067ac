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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .formal_groups import PowerOpResult, appendix_pipeline
from .polynomial import binomial_mod2

__all__ = [
    "CoeffClass",
    "HopfClass",
    "PSeries",
    "SuspensionImage",
    "IdentificationError",
    "import_pseries",
    "qhat_on_hurewicz",
    "qhat_b1",
    "suspend_to_dual",
    "verify_gotcha_chain",
    "TRANSLATION_RULE",
    "STABILITY_RULE",
    "RW_MAIN_RELATION",
    "ImportedRule",
]


class IdentificationError(KeyError):
    """A series coefficient has no assigned image among the symbols."""


@dataclass(frozen=True)
class CoeffClass:
    """A coefficient symbol: zero, the unit, or a generator x_n mod
    decomposables.  A product of positive-degree symbols is decomposable,
    so ``import_pseries`` drops it."""

    kind: str
    n: int = 0

    @classmethod
    def zero(cls):
        return cls("zero")

    @classmethod
    def one(cls):
        return cls("one")

    @classmethod
    def x(cls, n):
        if n < 1:
            raise ValueError("generators x_n need n >= 1")
        return cls("gen", n)

    @property
    def degree(self):
        if self.kind == "gen":
            return 2 * self.n
        return 0

    def is_zero(self):
        return self.kind == "zero"

    def __str__(self):
        if self.kind == "zero":
            return "0"
        if self.kind == "one":
            return "[1]"
        return "[x%d]" % self.n


class HopfClass:
    """An F2-sum of classes [c] o b1^{o m}; zero coefficients collapse."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        self.parts = frozenset((c, m) for c, m in parts if not c.is_zero())

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def single(cls, coeff, m):
        if m < 0:
            raise ValueError("b1 exponents are nonnegative")
        return cls(((coeff, m),))

    def __eq__(self, other):
        return isinstance(other, HopfClass) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def is_zero(self):
        return not self.parts

    def __str__(self):
        if not self.parts:
            return "0"
        bits = []
        for c, m in sorted(self.parts, key=lambda cm: (cm[0].degree + 2 * cm[1], str(cm[0]))):
            if m == 0:
                bits.append(str(c))
            elif m == 1:
                bits.append("%s o b1" % c)
            else:
                bits.append("%s o b1^o%d" % (c, m))
        return " + ".join(bits)

    def __repr__(self):
        return "<hopf %s>" % self


class PSeries:
    """Coefficients of a power-operation expansion P(x) = sum c_i alpha^i
    for a source symbol of even degree, all taken mod decomposables."""

    __slots__ = ("source_name", "source_degree", "coefficients")

    def __init__(self, source_name, source_degree, coefficients):
        if source_degree % 2:
            raise ValueError("sources here have even degree")
        self.source_name = source_name
        self.source_degree = source_degree
        clean = {}
        for i, c in dict(coefficients).items():
            if c.is_zero():
                continue
            want = 2 * source_degree + 2 * i
            if c.degree != want:
                raise ValueError(
                    "coefficient %s of alpha^%d has degree %d, expected %d"
                    % (c, i, c.degree, want)
                )
            clean[i] = c
        self.coefficients = clean

    def coefficient(self, i):
        return self.coefficients.get(i, CoeffClass.zero())

    def __str__(self):
        if not self.coefficients:
            return "P(%s) = 0" % self.source_name
        bits = []
        for i in sorted(self.coefficients):
            c = self.coefficients[i]
            bits.append("%s alpha^%d" % (c, i) if i else str(c))
        return "P(%s) = %s" % (self.source_name, " + ".join(bits))


class SuspensionImage:
    """An F2-sum of suspension classes sigma x_n in the dual algebra."""

    __slots__ = ("generators",)

    def __init__(self, generators=()):
        self.generators = frozenset(generators)

    def __add__(self, other):
        return SuspensionImage(self.generators ^ other.generators)

    def __eq__(self, other):
        return isinstance(other, SuspensionImage) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def is_zero(self):
        return not self.generators

    def __str__(self):
        if not self.generators:
            return "0"
        return " + ".join("sigma x%d" % n for n in sorted(self.generators))

    def __repr__(self):
        return "<suspension %s>" % self


def import_pseries(result, identification=None):
    """Convert a pipeline result into a PSeries of coefficient symbols.

    The source symbol is x<n> for the pipeline's n.  ``identification``
    maps coefficient-ring generator names to ``CoeffClass`` symbols; a
    surviving generator without an image is an ``IdentificationError``.
    Monomials with two or more positive-degree factors (or proper powers)
    drop as decomposables, and even scalars drop mod 2; a non-integral
    scalar is an ``ArithmeticError``.
    """
    if isinstance(result, PowerOpResult):
        series = result.reduced
        n = result.n
    else:
        raise TypeError("import_pseries expects a PowerOpResult")
    identification = identification or {}
    ring = series.ring
    coefficients = {}
    for vec, poly in series.terms.items():
        (i,) = vec
        total = CoeffClass.zero()
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
            image = identification[name]
            total = CoeffClass.zero() if total == image else (image if total.is_zero() else total)
        if not total.is_zero():
            coefficients[i] = total
    return PSeries("x%d" % n, 2 * n, coefficients)


def qhat_on_hurewicz(k, p):
    """Qhat^{2k} on [1] # ([x] o b1^{o n}) in the quotient: the class
    [c_{k-n}] o b1^{o (k+n)}, or zero when k < n."""
    n = p.source_degree // 2
    if k < n:
        return HopfClass.zero()
    return HopfClass.single(p.coefficient(k - n), k + n)


def qhat_b1(s):
    """Qhat^s b1 = b1 o b_{s/2}; in the quotient only s = 2 survives."""
    if s % 2:
        raise ValueError("Qhat^%d b1 is not determined by the even series" % s)
    if s < 2:
        raise ValueError("the series for Qhat on b1 starts at s = 2")
    if s == 2:
        return HopfClass.single(CoeffClass.one(), 2)
    return HopfClass.zero()  # b_{s/2} with s/2 >= 2 dies in the quotient


def suspend_to_dual(h):
    """Suspension to the dual algebra: [x_n] o b1^{o m} goes to sigma x_n;
    unit and zero coefficients die."""
    out = SuspensionImage()
    for c, m in h.parts:
        if c.kind == "gen":
            out = out + SuspensionImage({c.n})
    return out


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
    at the raw series, surfacing it instead of the endpoint.
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
        return {"steps": steps, "endpoint": None}
    identification = {"v3": CoeffClass.x(7)}
    pseries = import_pseries(result, identification)
    steps.append(
        {
            "id": "identification",
            "value": str(pseries),
            "ok": pseries.coefficient(3) == CoeffClass.x(7),
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
    qhat = qhat_on_hurewicz(k, pseries)
    steps.append(
        {
            "id": "qhat-k%d" % k,
            "value": str(qhat),
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
