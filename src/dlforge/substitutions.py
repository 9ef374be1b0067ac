"""Substitution maps between free operation algebras, and their suspension.

A map is determined by an image expression for each module generator of the
source; base generators are scalars and map to themselves unless overridden.
Composition substitutes symbolically.  The suspension raises every module
generator's degree by one, keeps operations and scalar factors, and sends
any product of two or more module factors to zero.
"""

from __future__ import annotations

import itertools
import operator
import re
from collections import deque

from .expressions import (
    GenRef,
    Power,
    Product,
    QOp,
    Sum,
    _joined,
    expression_degrees,
    fold,
    format_expression,
    parse_expression,
)
from .rewriting import DLPolynomial, normalize

__all__ = ["SubstitutionMap", "compose_maps", "suspend", "suspend_name"]


def _compatible(a, b):
    return a is b or a.fingerprint() == b.fingerprint()


class SubstitutionMap:
    """Algebra map out of a free context, given by generator images.

    ``images`` maps generator names to expressions over the target (text or
    AST); ``None`` is the zero image.  Module generators without an entry are
    an error unless ``missing="zero"``.  Base generators default to the
    same-named target generator.
    """

    def __init__(self, source, target, images, name="", missing="error"):
        self.source = source
        self.target = target
        self.name = name
        self.images = {}
        for g, expr in images.items():
            source.degree(g)  # raises on unknown names
            if isinstance(expr, str):
                expr = parse_expression(expr, target)
            self.images[g] = expr
        for g in source.order:
            if g in self.images:
                continue
            if source.is_base(g):
                if g not in target.degrees:
                    raise ValueError("base generator %r missing from target" % g)
                self.images[g] = GenRef(g)
            elif missing == "zero":
                self.images[g] = None
            else:
                raise ValueError("no image for generator %r" % g)
        for g, expr in self.images.items():
            if expr is None:
                continue
            degs = expression_degrees(expr, target)
            if degs not in (set(), {source.degree(g)}):
                raise ValueError(
                    "image of %r has degrees %s, expected %d"
                    % (g, sorted(degs), source.degree(g))
                )

    def image(self, gen):
        """The raw image AST of a generator (None for zero)."""
        if gen not in self.images:
            self.source.degree(gen)
        return self.images.get(gen)

    def image_polynomial(self, gen):
        node = self.image(gen)
        if node is None:
            return DLPolynomial(self.target, frozenset())
        return normalize(node, self.target)

    def _subst(self, node):
        """Substitute images through an AST; None propagates as zero."""
        return None if node is None else _substituted(node, self.image)

    def apply(self, value):
        """Image of a polynomial, expression, or source-context text."""
        if isinstance(value, DLPolynomial):
            value = value.to_expression()
        elif isinstance(value, str):
            value = parse_expression(value, self.source)
        node = self._subst(value)
        if node is None:
            return DLPolynomial(self.target, frozenset())
        return normalize(node, self.target)

    def equal_normalized(self, other):
        """Agreement of normalized generator images (same source shape)."""
        if not _compatible(self.source, other.source):
            return False
        if not _compatible(self.target, other.target):
            return False
        return all(
            self.image_polynomial(g) == other.image_polynomial(g)
            for g in self.source.order
        )

    def __repr__(self):
        parts = []
        for g in self.source.order:
            node = self.images.get(g)
            parts.append("%s -> %s" % (g, "0" if node is None else format_expression(node)))
        label = self.name or "map"
        return "<%s: %s>" % (label, "; ".join(parts))


def _substituted(node, image):
    """``node`` with each generator replaced by ``image(name)``; None is zero and propagates."""
    return fold(
        node,
        image,
        lambda s, arg: None if arg is None else QOp(s, arg),
        lambda base, exp: None if base is None else Power(base, exp),
        lambda factors: None if any(f is None for f in factors) else Product(tuple(factors)),
        lambda terms: _sum_of([t for t in terms if t is not None]),
    )


def _sum_of(terms):
    """The sum of a list of terms: None if empty, the term itself if one."""
    if not terms:
        return None
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


def compose_maps(f, g):
    """The composite f after g, by symbolic substitution."""
    if not _compatible(g.target, f.source):
        raise ValueError("codomain of %r does not match domain of %r" % (g.name, f.name))
    images = {a: f._subst(g.image(a)) for a in g.source.order}
    name = "%s%s" % (f.name, g.name) if f.name and g.name else ""
    return SubstitutionMap(g.source, f.target, images, name=name)


def suspend_name(name):
    """Shifted name: trailing degree label bumped by one, prime inserted."""
    m = re.fullmatch(r"(.*?)(\d+)", name)
    if m:
        return "%s'%d" % (m.group(1), int(m.group(2)) + 1)
    return name + "'"


def _suspend_context(context):
    from .expressions import GeneratorContext

    gens = []
    rename = {}
    for g in context.order:
        if g in context.base:
            gens.append((g, context.degrees[g]))
            rename[g] = g
        else:
            g2 = suspend_name(g)
            gens.append((g2, context.degrees[g] + 1))
            rename[g] = g2
    return GeneratorContext(gens, base=context.base), rename


def _flatten_terms(node):
    """Expand into product terms, distributing sums (operations are additive)."""
    terms = fold(
        node,
        lambda name: [[GenRef(name)]],
        lambda s, terms: [[QOp(s, _joined(Product, t))] for t in terms],
        _expanded_power,
        _distributed,
        _chained,
    )
    return [_joined(Product, t) for t in terms]


# While flattening, a term is the list of its factors.  Each list a fold
# handler returns belongs to that node's value only, so a parent may grow its
# longest child's list in place; then a chain nested on either side flattens
# in linear time.


def _chained(lists):
    """The concatenation of ``lists``, in order, as a deque grown from the
    longest of them: the lists before it are added on the left, the lists
    after it on the right, and its own entries are not copied again."""
    longest = max(range(len(lists)), key=lambda i: len(lists[i]))
    out = lists[longest]
    if out.__class__ is not deque:
        out = deque(out)
    for before in reversed(lists[:longest]):
        out.extendleft(reversed(before))
    for after in lists[longest + 1 :]:
        out.extend(after)
    return out


def _distributed(factors):
    """Each product of one term from every factor's list of terms."""
    if all(len(terms) == 1 for terms in factors):
        return [_chained([terms[0] for terms in factors])]
    return [[f for t in choice for f in t] for choice in itertools.product(*factors)]


def _expanded_power(terms, exp):
    if len(terms) == 1:
        return [[Power(_joined(Product, terms[0]), exp)]]
    return _distributed([terms] * exp)


def _module_refs(term, context):
    """The module generators of a flattened term, one entry per factor."""
    return fold(
        term,
        lambda name: [] if context.is_base(name) else [name],
        lambda s, refs: refs,
        operator.mul,
        _chained,
        _chained,
    )


def _suspend_expression(node, rename, context):
    terms = [t for t in _flatten_terms(node) if len(_module_refs(t, context)) == 1]
    return _sum_of([_substituted(t, lambda g: GenRef(rename.get(g, g))) for t in terms])


def suspend(m):
    """The suspended map: module degrees shift by one, products of module
    factors die, operations and base scalars pass through untouched.

    The image expressions are transformed symbolically, term by term, with
    no renormalization; a term survives exactly when it carries a single
    module-generator factor.
    """
    for g in m.source.base:
        img = m.image(g)
        if not (isinstance(img, GenRef) and img.name == g):
            raise ValueError("suspension needs base generators fixed, got %r" % g)
    new_source, source_rename = _suspend_context(m.source)
    new_target, target_rename = _suspend_context(m.target)
    images = {}
    for g in m.source.order:
        if g in m.source.base:
            continue
        node = m.image(g)
        images[source_rename[g]] = (
            None if node is None else _suspend_expression(node, target_rename, m.target)
        )
    name = ("s " + m.name) if m.name else "s"
    return SubstitutionMap(new_source, new_target, images, name=name)
