"""Substitution maps between free operation algebras, and their suspension.

A map is determined by an image expression for each module generator of the
source; base generators are scalars and map to themselves unless overridden.
Composition substitutes symbolically.  The suspension raises every module
generator's degree by one, keeps operations and scalar factors, and sends
any product of two or more module factors to zero.
"""

from __future__ import annotations

import re

from .expressions import (
    GenRef,
    Power,
    Product,
    QOp,
    Sum,
    expression_degrees,
    format_expression,
    guarded,
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
        return guarded("substitute", self._substitute, node)

    def _substitute(self, node):
        if node is None:
            return None
        if isinstance(node, GenRef):
            return self.image(node.name)
        if isinstance(node, QOp):
            arg = self._substitute(node.arg)
            return None if arg is None else QOp(node.s, arg)
        if isinstance(node, Power):
            if node.exp == 0:
                raise ValueError("zeroth powers are not substitutable")
            base = self._substitute(node.base)
            return None if base is None else Power(base, node.exp)
        if isinstance(node, Product):
            factors = []
            for f in node.factors:
                f = self._substitute(f)
                if f is None:
                    return None
                factors.append(f)
            return Product(tuple(factors))
        if isinstance(node, Sum):
            terms = [t for t in (self._substitute(t) for t in node.terms) if t is not None]
            if not terms:
                return None
            return terms[0] if len(terms) == 1 else Sum(tuple(terms))
        raise TypeError("not an expression node: %r" % (node,))

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
    return guarded("expand", _flatten, node)


def _flatten(node):
    if isinstance(node, GenRef):
        return [node]
    if isinstance(node, QOp):
        terms = _flatten(node.arg)
        if len(terms) == 1:
            return [QOp(node.s, terms[0])]
        return [QOp(node.s, t) for t in terms]
    if isinstance(node, Sum):
        out = []
        for t in node.terms:
            out.extend(_flatten(t))
        return out
    if isinstance(node, Product):
        out = [None]
        for f in node.factors:
            parts = _flatten(f)
            new = []
            for acc in out:
                for p in parts:
                    new.append(p if acc is None else Product(
                        (acc.factors if isinstance(acc, Product) else (acc,))
                        + (p.factors if isinstance(p, Product) else (p,))
                    ))
            out = new
        return out
    if isinstance(node, Power):
        if node.exp == 0:
            raise ValueError("zeroth powers are not suspendable")
        terms = _flatten(node.base)
        if len(terms) == 1:
            return [Power(terms[0], node.exp)]
        expanded = terms
        for _ in range(node.exp - 1):
            expanded = [
                Product(
                    (a.factors if isinstance(a, Product) else (a,))
                    + (b.factors if isinstance(b, Product) else (b,))
                )
                for a in expanded
                for b in terms
            ]
        return expanded
    raise TypeError("not an expression node: %r" % (node,))


def _module_refs(node, context):
    """The module generators of a flattened term, one entry per factor."""
    if isinstance(node, GenRef):
        return [] if context.is_base(node.name) else [node.name]
    if isinstance(node, QOp):
        return _module_refs(node.arg, context)
    if isinstance(node, Power):
        return node.exp * _module_refs(node.base, context)
    if isinstance(node, Product):
        return [ref for f in node.factors for ref in _module_refs(f, context)]
    raise TypeError("unexpected node in a flattened term: %r" % (node,))


def _rename_refs(node, rename):
    if isinstance(node, GenRef):
        return GenRef(rename.get(node.name, node.name))
    if isinstance(node, QOp):
        return QOp(node.s, _rename_refs(node.arg, rename))
    if isinstance(node, Power):
        return Power(_rename_refs(node.base, rename), node.exp)
    if isinstance(node, Product):
        return Product(tuple(_rename_refs(f, rename) for f in node.factors))
    raise TypeError("unexpected node in a flattened term: %r" % (node,))


def _suspend_expression(node, rename, context):
    terms = []
    for term in _flatten_terms(node):
        if len(_module_refs(term, context)) != 1:
            continue
        terms.append(_rename_refs(term, rename))
    if not terms:
        return None
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


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
