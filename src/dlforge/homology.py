"""Concrete operation modules: the dual Steenrod algebra and H_*MU.

Both carry Dyer-Lashof actions given by closed formulas on generators
(Steinberger's generating function and case rule; Priddy's quotient of
generating functions) and extended to all polynomials by additivity, the
Cartan formula, and the square rule.  The two defining routes for the
dual Steenrod action overlap; ``self_check`` compares them and reports any
disagreement, an implementation bug, instead of papering over it.
"""

from __future__ import annotations

import operator
from functools import lru_cache, reduce

from .expressions import UnknownGeneratorError, binomial_mod2, fold, parse_expression
from .polynomial import (
    FIELD_BITS,
    GF2,
    Generator,
    GradedPolynomial,
    PolynomialRing,
    graded_inverse,
)
from .rewriting import CartanExtension, DLPolynomial

__all__ = [
    "DLModel",
    "DualSteenrodAlgebra",
    "MUHomology",
    "ModelInconsistencyError",
    "dual_steenrod",
    "mu_homology",
    "map_p",
    "check_dl_compatibility",
    "evaluate_in_model",
    "indeterminacy_scan",
    "indecomposable_dimension",
]


# The degree cap of a model when the caller names none.
DEFAULT_MAX_DEGREE = 40


class ModelInconsistencyError(RuntimeError):
    """Two defining routes for an action disagree (an implementation bug)."""


class DLModel(CartanExtension):
    """A graded F2-algebra with a Dyer-Lashof action defined on generators.

    Subclasses provide ``generator_action(s, index)``; the extension to all
    elements is additivity over terms plus ``CartanExtension`` on each
    monomial, which works on the ring's packed keys directly.  Values are
    memoized per (s, key); the tables are append-only and deterministic.
    Both models read their actions off the inverse of 1 plus the sum of all
    ring generators, whose components ``graded_inverse`` enumerates into the
    memo ``_inverse``; ``_components`` keeps each component as an element,
    so every read shares one element and its key span.
    """

    is_zero = staticmethod(GradedPolynomial.is_zero)
    degrees = staticmethod(GradedPolynomial.degrees_present)
    mono_degree = staticmethod(PolynomialRing.monomial_degree)

    def __init__(self, name, ring, max_degree):
        self.name = name
        self.ring = ring
        self.max_degree = max_degree
        self.zero = ring.zero()
        self.one = ring.one()
        self._mono_cache = {}
        self._inverse = {}
        self._components = {}
        self.sum_products = ring.sum_products
        # the lowest bit of every field of a key, and of every exponent field
        self._low_bits = ring.guard >> (FIELD_BITS - 1)
        self._odd_bits = self._low_bits - 1

    def generator_action(self, s, index):
        raise NotImplementedError

    # -- the Cartan primitives on packed keys (see ``polynomial``) -------------

    def lone_generator(self, mono):
        return self.ring.gen_keys.get(mono)

    def halve(self, mono):
        # every field even: shifting right halves each one and crosses none
        return None if mono & self._low_bits else mono >> 1

    def peel(self, mono):
        odd = mono & self._odd_bits  # one copy of each generator of odd exponent
        rest = mono >> FIELD_BITS
        if odd >> FIELD_BITS == rest:  # square-free: peel the first generator
            index = ((rest & -rest).bit_length() - 1) // FIELD_BITS
            first = (1 << FIELD_BITS * (index + 1)) + self.ring.degrees[index]
            return first, self.ring.degrees[index], mono - first
        degree, bits = 0, odd
        while bits:
            low = bits & -bits
            degree += self.ring.degrees[low.bit_length() // FIELD_BITS - 1]
            bits ^= low
        return mono - odd - degree, self.mono_degree(mono) - degree, odd + degree

    def square(self, p):
        """p^2 by Frobenius: doubling a key squares its monomial, and distinct
        keys double to distinct keys.  A field at or above 2^(FIELD_BITS - 2)
        goes through the product, which raises ``OverflowError``."""
        ring = self.ring
        if ring.limited or p.span() & ring.top_bits:
            return p * p
        return GradedPolynomial(ring, dict.fromkeys([m << 1 for m in p.terms], 1))

    def q(self, s, element):
        """Q^s extended to an arbitrary element, homogeneous or not."""
        if s < 0:
            raise ValueError("operations have non-negative superscripts")
        terms = element.terms
        # the span's degree field bounds the top degree from above
        if (
            s + self.mono_degree(element.span()) > self.max_degree
            and terms
            and s + max(map(self.mono_degree, terms)) > self.max_degree
        ):
            raise ValueError(
                "Q%d lands beyond the model's degree cap %d" % (s, self.max_degree)
            )
        if len(terms) == 1:
            # the memoized value itself: elements are immutable
            (mono,) = terms
            return self.apply_mono(s, mono)
        return self.ring.sum(self.apply_mono(s, mono) for mono in terms)

    def _inverse_component(self, d):
        """Degree-d component of (1 + sum of the ring generators)^{-1}, one
        element per degree."""
        component = self._components.get(d)
        if component is None:
            if d > self.max_degree:
                raise ValueError(
                    "degree %d is beyond the model's degree cap %d" % (d, self.max_degree)
                )
            component = self._components[d] = graded_inverse(self.ring, d, self._inverse)
        return component

    # -- basis enumeration and decomposability --------------------------------

    def monomials_of_degree(self, d):
        """All monomials of the given degree, as ring elements."""
        # (index, exponent) tuples by the degree still to fill, extended by
        # one generator of degree <= d at a time
        partial = {d: [()]}
        for i, gd in enumerate(self.ring.degrees):
            if not 0 < gd <= d:
                continue
            grown = {}
            for remaining, monos in partial.items():
                for e in range(remaining // gd + 1):
                    grown.setdefault(remaining - gd * e, []).extend(
                        m + ((i, e),) if e else m for m in monos
                    )
            partial = grown
        return [self.ring.make({self.ring.pack(m): 1}) for m in sorted(partial.get(0, []))]

    def monomials_up_to(self, d):
        out = []
        for k in range(1, d + 1):
            out.extend(self.monomials_of_degree(k))
        return out

    def is_decomposable(self, element):
        return element.indecomposable_part().is_zero()

    # -- structural spot checks ------------------------------------------------

    def cartan_check(self, s, u, v):
        """Direct Q^s(uv) against the explicit Cartan convolution."""
        direct = self.q(s, u * v)
        return direct == self.sum_products((self.q(p, u), self.q(s - p, v)) for p in range(s + 1))

    def __repr__(self):
        return "<%s up to degree %d>" % (self.name, self.max_degree)


class DualSteenrodAlgebra(DLModel):
    """F2[xi_1, xi_2, ...] with |xi_i| = 2^i - 1 and Steinberger's action.

    Two defining routes coexist: the generating function
    1 + xi_1 + Q^1 xi_1 + Q^2 xi_1 + ... = (1 + xi_1 + xi_2 + ...)^{-1}
    pins every Q^s xi_1, and the case rule
    Q^s xibar_i = Q^{s + 2^i - 2} xi_1 for s = 0, -1 mod 2^i (else 0)
    pins the conjugates.  Actions on the xi_i themselves come from the
    conjugate rule plus the Milnor recursion for xibar_i.
    """

    def __init__(self, max_degree):
        count = 1
        while 2 ** (count + 1) - 1 <= max_degree:
            count += 1
        gens = [Generator("xi%d" % i, 2**i - 1) for i in range(1, count + 1)]
        super().__init__("dual-steenrod", PolynomialRing(GF2, gens), max_degree)
        self.top_index = count
        self._antipodes = {0: self.ring.one()}

    def xi(self, i, exp=1):
        if i == 0:
            return self.ring.one()
        return self.ring.gen("xi%d" % i, exp)

    def antipode_xi(self, i):
        """The conjugate xibar_i from the Milnor recursion
        xibar_i = sum_{j<i} xi_{i-j}^{2^j} xibar_j, with xibar_0 = 1."""
        if i < 0:
            raise ValueError("conjugates are indexed from 0")
        if i not in self._antipodes:
            self._antipodes[i] = self.sum_products(
                (self.xi(i - j, 2**j), self.antipode_xi(j)) for j in range(i)
            )
        return self._antipodes[i]

    def q_xi1(self, s):
        """Q^s xi_1, read off the generating-function identity."""
        if s == 0:
            return self.ring.zero()
        return self._inverse_component(s + 1)

    def conjugate_action(self, s, i):
        """Q^s xibar_i by the case rule (s = 0 falls to instability)."""
        if i < 1:
            raise ValueError("the case rule starts at xibar_1")
        if s == 0:
            return self.ring.zero()
        block = 2**i
        if s % block in (0, block - 1):
            return self.q_xi1(s + block - 2)
        return self.ring.zero()

    def generator_action(self, s, index):
        i = index + 1
        if i == 1:
            return self.q_xi1(s)
        # xi_i = xibar_i + correction, with the correction in lower xi's.
        correction = self.antipode_xi(i) + self.xi(i)
        return self.conjugate_action(s, i) + self.q(s, correction)

    def q_conjugate(self, s, i):
        """Q^s xibar_i via the full Cartan route (for cross-checking)."""
        return self.q(s, self.antipode_xi(i))

    def self_check(self):
        """Cross-check every pair of defining routes that overlap.

        Returns (checked, failures): the labels compared and the
        (label, detail) pairs that disagree.
        """
        failures = []
        checked = []

        def record(label, ok, detail, *args):
            # the detail is formatted only for a failing comparison
            checked.append(label)
            if not ok:
                failures.append((label, detail % args))

        for i in range(1, self.top_index + 1):
            residual = self.sum_products(
                (self.xi(i - j, 2**j), self.antipode_xi(j)) for j in range(i + 1)
            )
            record("milnor-recursion-%d" % i, residual.is_zero(), "%s", residual)
        for i in range(1, self.top_index + 1):
            record(
                "inverse-matches-conjugate-%d" % i,
                self._inverse_component(2**i - 1) == self.antipode_xi(i),
                "degree %d", 2**i - 1,
            )
        for i in range(1, self.top_index):
            target = 2 ** (i + 1)
            if 2**i + (2 ** (i + 1) - 1) - 1 > self.max_degree:
                continue
            record(
                "conjugate-ladder-%d" % i,
                self.conjugate_action(2**i, i) == self.antipode_xi(i + 1),
                "Q^{2^%d} xibar_%d", i, i,
            )
        for i in range(1, self.top_index + 1):
            d = 2**i - 1
            if 2 * d > self.max_degree:
                continue
            bar = self.antipode_xi(i)
            record(
                "conjugate-square-%d" % i,
                self.conjugate_action(d, i) == bar * bar,
                "Q^%d xibar_%d", d, i,
            )
        for i in range(1, min(3, self.top_index) + 1):
            for s in range(0, min(12, self.max_degree - (2**i - 1))):
                case = self.conjugate_action(s, i)
                cartan = self.q_conjugate(s, i)
                record(
                    "case-vs-cartan-%d-%d" % (i, s),
                    case == cartan,
                    "Q^%d xibar_%d: %s vs %s", s, i, case, cartan,
                )
        return checked, failures


class MUHomology(DLModel):
    """F2[b_1, b_2, ...] with |b_k| = 2k and the Priddy action.

    Q^j b_k is the degree-(2k + j) component of
    (sum_{n>=k} sum_{u=0}^{k} binom(n-k+u-1, u) b_{n+u} b_{k-u}) (sum b_n)^{-1}
    with b_0 = 1; the u = 0 binomial is 1 by convention (it has top n-k-1,
    which is -1 when n = k).  Odd-degree components vanish identically, so
    every odd operation on the even algebra is zero.
    """

    def __init__(self, max_degree):
        count = max_degree // 2
        gens = [Generator("b%d" % k, 2 * k) for k in range(1, count + 1)]
        super().__init__("h-mu", PolynomialRing(GF2, gens), max_degree)
        self.top_index = count
        self._numerators = {}

    def b(self, k):
        if k == 0:
            return self.ring.one()
        return self.ring.gen("b%d" % k)

    @staticmethod
    def _priddy_binom(n, k, u):
        if u == 0:
            return 1
        return binomial_mod2(n - k + u - 1, u)

    def _numerator(self, n, k):
        """sum_u binom(n-k+u-1, u) b_{n+u} b_{k-u}, of degree 2(n + k); kept
        per (n, k), since every Q^j b_k with 2k + j >= 2(n + k) reads it."""
        part = self._numerators.get((n, k))
        if part is None:
            # b_i is generator i - 1, b_0 = 1, and distinct u give distinct monomials
            pack = self.ring.pack
            part = self._numerators[n, k] = GradedPolynomial(self.ring, {
                pack(((n + u - 1, 1), (k - u - 1, 1)) if u < k else ((n + k - 1, 1),)): 1
                for u in range(k + 1)
                if self._priddy_binom(n, k, u)
            })
        return part

    def generator_action(self, j, index):
        k = index + 1
        d = 2 * k + j
        if d > self.max_degree:
            raise ValueError("Q%d b%d lands beyond the degree cap" % (j, k))
        value = self.ring.sum_products(
            (self._numerator(n, k), self._inverse_component(d - 2 * (n + k)))
            for n in range(k, d // 2 - k + 1)
        )
        if d % 2 == 1 and not value.is_zero():
            raise ModelInconsistencyError(
                "odd-degree operation Q%d b%d is nonzero: %s" % (j, k, value)
            )
        return value


def dual_steenrod(max_degree=DEFAULT_MAX_DEGREE):
    return _model(DualSteenrodAlgebra, max_degree)


def mu_homology(max_degree=DEFAULT_MAX_DEGREE):
    return _model(MUHomology, max_degree)


@lru_cache(maxsize=None)
def _model(cls, max_degree):
    """One shared model per class and cap, however the caller spells the cap."""
    return cls(max_degree)


def map_p(element, source=None, target=None):
    """The ring map sending b_{2^m - 1} to xi_m^2 and other b_k to zero."""
    source = source or mu_homology()
    target = target or dual_steenrod()
    return element.map_generators(target.ring, _p_images(source, target))


@lru_cache(maxsize=16)
def _p_images(source, target):
    """Generator images of ``map_p``, built once per pair of models.

    The bound of 16 keeps this cache from holding every directly
    constructed model alive; it frees no model built by ``dual_steenrod``
    or ``mu_homology``, which ``_model`` keeps for the life of the process.
    """
    images = {}
    for k in range(1, source.top_index + 1):
        m = (k + 1).bit_length() - 1
        if (k + 1) & k == 0 and 2 * (2**m - 1) <= target.max_degree:  # k + 1 = 2^m
            images["b%d" % k] = target.xi(m, 2)
        else:
            images["b%d" % k] = target.ring.zero()
    return images


def check_dl_compatibility(s_range, degree_range, source=None, target=None):
    """Does map_p commute with every Q^s over the given ranges?

    Returns (ok, failures) with failing triples (s, monomial, lhs, rhs).
    Q^s u has degree |u| + s and p keeps degrees, so the sums over s agree
    exactly when every s does: one map_p per monomial, split by s on a
    mismatch.
    """
    source = source or mu_homology()
    target = target or dual_steenrod()
    failures = []
    for u in source.monomials_up_to(degree_range):
        image = map_p(u, source, target)
        values = [source.q(s, u) for s in range(s_range + 1)]
        images = [target.q(s, image) for s in range(s_range + 1)]
        if map_p(source.ring.sum(values), source, target) == target.ring.sum(images):
            continue
        for s, (value, rhs) in enumerate(zip(values, images)):
            lhs = map_p(value, source, target)
            if lhs != rhs:
                failures.append((s, u, lhs, rhs))
    return not failures, failures


def evaluate_in_model(expr, assignment, model, context=None):
    """Evaluate an operation expression in a model under an assignment.

    ``assignment`` maps generator names to model elements; degrees are
    validated against ``context`` when one is supplied.
    """
    if isinstance(expr, DLPolynomial):
        if context is None:
            context = expr.context
        expr = expr.to_expression()
        if expr is None:
            return model.ring.zero()
    if isinstance(expr, str):
        expr = parse_expression(expr, context)
    if context is not None:
        for name, value in assignment.items():
            if value.is_zero():
                continue
            want = context.degree(name)
            if value.degrees_present() != [want]:
                raise ValueError(
                    "assignment for %r has degrees %s, expected %d"
                    % (name, value.degrees_present(), want)
                )

    def assigned(name):
        try:
            return assignment[name]
        except KeyError:
            raise UnknownGeneratorError(name) from None

    return fold(
        expr,
        assigned,
        model.q,
        operator.pow,
        lambda factors: reduce(operator.mul, factors),
        model.ring.sum,
    )


def indecomposable_dimension(model, degree):
    """Dimension of the indecomposable quotient in one degree (free case:
    the number of polynomial generators living there)."""
    return sum(1 for g in model.ring.generators if g.degree == degree)


def indeterminacy_scan(suspended_map, model, base_assignment):
    """Feed every model basis class through each term of a suspended image.

    The map's source has a single module generator.  For each term of its
    image (one module generator each, by construction) and each monomial
    basis element of the model in that generator's degree, evaluates the
    term and records whether the value is decomposable.  Returns a dict
    with per-term rows and the overall verdict; a row also lists the
    degrees in which its nonzero values live.
    """
    from .substitutions import _flatten_terms, _module_refs
    from .expressions import format_expression

    source = suspended_map.source
    targets = suspended_map.target
    module_gens = [g for g in source.order if not source.is_base(g)]
    if len(module_gens) != 1:
        raise ValueError("scan needs a single module source generator")
    generator_name = module_gens[0]
    image = suspended_map.image(generator_name)
    rows = []
    all_ok = True
    if image is not None:
        for term in _flatten_terms(image):
            refs = _module_refs(term, targets)
            if len(refs) != 1:
                raise ValueError("suspended term with module count != 1")
            (slot,) = refs
            degree = targets.degree(slot)
            basis = model.monomials_of_degree(degree)
            bad = []
            value_degrees = set()
            for element in basis:
                value = evaluate_in_model(
                    term, dict(base_assignment, **{slot: element}), model
                )
                value_degrees.update(value.degrees_present())
                if not model.is_decomposable(value):
                    bad.append((element, value))
            ok = not bad
            all_ok = all_ok and ok
            rows.append(
                {
                    "term": format_expression(term),
                    "source_degree": degree,
                    "basis_size": len(basis),
                    "value_degrees": sorted(value_degrees),
                    "decomposable": ok,
                    "witness": "" if ok else "%s -> %s" % bad[0],
                }
            )
    return {
        "generator": generator_name,
        "terms": rows,
        "all_decomposable": all_ok,
        "closure_note": (
            "operations, sums, products, and scalar multiples preserve"
            " decomposables, so checking the listed generators suffices"
        ),
    }

