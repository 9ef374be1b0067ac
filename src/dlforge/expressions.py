"""Operation expressions: grammar, AST, and canonical printing.

The surface syntax::

    expr   := term ('+' term)*
    term   := factor+                 (juxtaposition is multiplication)
    factor := primary ('^' INT)?
    primary:= NAME | 'Q' INT factor | '(' expr ')'

``Q`` immediately followed by digits is an operation token, so generator
names must not match ``Q[0-9]+``.  Generators are declared in a context,
one per line::

    gen x deg 2
    gen z30 deg 30
    base x deg 2        # alternative spelling marking a scalar generator

A ``base`` generator is a scalar from the ground algebra: substitution maps
fix it and suspension neither shifts nor kills it.

Every dlforge process loads this module, so it also holds the two helpers
that every layer shares: ``Value``, the base of the immutable value classes,
and ``binomial_mod2``.  A process that only rewrites then never loads the
polynomial kernel or ``fractions``.
"""

from __future__ import annotations

__all__ = [
    "ExpressionSyntaxError",
    "UnknownGeneratorError",
    "DegreeMismatchError",
    "GeneratorContext",
    "GenRef",
    "QOp",
    "Product",
    "Power",
    "Sum",
    "parse_expression",
    "parse_context",
    "expression_degrees",
    "min_en_level",
    "en_level_witness",
]


_set = object.__setattr__


class Value:
    """An immutable value: its ``__slots__`` are its fields, compared and hashed as a tuple.
    Each subclass's ``__init__`` sets them through ``_set``, since ``__setattr__`` raises."""

    __slots__ = ()

    def _key(self):
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, *value):
        raise AttributeError("cannot assign to or delete field %r" % name)

    __delattr__ = __setattr__

    def __repr__(self):
        pairs = map("%s=%r".__mod__, zip(self.__slots__, self._key()))
        return "%s(%s)" % (type(self).__qualname__, ", ".join(pairs))


def binomial_mod2(n, k):
    """Binomial coefficient mod 2 via the bitmask form of Lucas' theorem.

    Out-of-range arguments (negative, or k > n) give 0.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    return 1 if (n - k) & k == 0 else 0


class ExpressionSyntaxError(ValueError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class UnknownGeneratorError(KeyError):
    pass


class DegreeMismatchError(ValueError):
    pass


class GeneratorContext:
    """Declared generators with degrees, plus the rewriting caches.

    ``base`` names the scalar generators (elements of the ground algebra
    that maps and suspension leave alone); everything else is a module
    generator.
    """

    def __init__(self, generators, base=()):
        self.degrees = {}
        self.order = []
        for name, deg in generators:
            if name in self.degrees:
                raise ValueError("duplicate generator %r" % name)
            _check_gen_name(name)
            if deg < 0:
                raise ValueError("generator %r has negative degree %d" % (name, deg))
            self.degrees[name] = deg
            self.order.append(name)
        self.base = frozenset(base)
        for b in self.base:
            if b not in self.degrees:
                raise ValueError("base generator %r is not declared" % b)
        # the engine memoizes Q^s of words and monomials alike in
        # ``_mono_cache``; ``_word_cache`` stays, empty, because the
        # benchmark's tracer reads both by name
        self._word_cache = {}
        self._mono_cache = {}
        self._generator_values = {}

    def degree(self, name):
        try:
            return self.degrees[name]
        except KeyError:
            raise UnknownGeneratorError(name) from None

    def is_base(self, name):
        return name in self.base

    def fingerprint(self):
        """Content identity: two contexts with equal fingerprints are
        interchangeable (same names, degrees, and base markings)."""
        return tuple(
            (n, self.degrees[n], n in self.base) for n in sorted(self.order)
        )

    def __repr__(self):
        decls = ", ".join(
            "%s:%d%s" % (n, self.degrees[n], "*" if n in self.base else "")
            for n in self.order
        )
        return "GeneratorContext(%s)" % decls


# Digits are the ASCII digits only, in operation superscripts, exponents and
# generator names alike; any other character that Unicode calls a digit is
# an unexpected character.
_DIGITS = "0123456789"
_NAME_MARKS = _DIGITS + "_'"  # what may follow the first letter of a name, besides letters


def read_int(text):
    """The integer ``text`` writes in ASCII digits after an optional ``-``.

    Every integer read from outside the program goes through here: other
    Unicode digits, ``_`` separators and a leading ``+`` or blank, which
    ``int()`` would take, raise ValueError, as the tokenizer reads only the
    digits of ``_DIGITS``.
    """
    digits = text[1:] if text[:1] == "-" else text
    if not digits or digits.strip(_DIGITS):
        raise ValueError("invalid integer %r" % text)
    return int(text)


def _check_gen_name(name):
    if not name or not name[0].isalpha():
        raise ValueError("bad generator name %r" % name)
    if not all(c.isalpha() or c in _NAME_MARKS for c in name[1:]):
        raise ValueError("bad generator name %r" % name)
    if name[0] == "Q" and len(name) > 1 and not name[1:].strip(_DIGITS):
        raise ValueError("generator name %r collides with the operation syntax" % name)


# -- AST ------------------------------------------------------------------

# Each node class takes only the shapes the grammar can write: a power's
# exponent is at least 1, and a product or sum has at least one child.


class GenRef(Value):
    __slots__ = ("name",)

    def __init__(self, name):
        _set(self, "name", name)


class QOp(Value):
    __slots__ = ("s", "arg")

    def __init__(self, s, arg):
        _set(self, "s", s)
        _set(self, "arg", arg)


class Product(Value):
    __slots__ = ("factors",)

    def __init__(self, factors):
        if not factors:
            raise ValueError("a product needs at least one factor")
        _set(self, "factors", factors)


class Power(Value):
    __slots__ = ("base", "exp")

    def __init__(self, base, exp):
        if exp < 1:
            raise ValueError("powers must be positive")
        _set(self, "base", base)
        _set(self, "exp", exp)


class Sum(Value):
    __slots__ = ("terms",)

    def __init__(self, terms):
        if not terms:
            raise ValueError("a sum needs at least one term")
        _set(self, "terms", terms)


def _joined(cls, nodes):
    """One ``Product`` or ``Sum`` of ``nodes``; a node of class ``cls`` adds its own children."""
    if len(nodes) == 1 and not isinstance(nodes[0], cls):
        return nodes[0]
    flat = [child for node in nodes for child in (node._key()[0] if isinstance(node, cls) else (node,))]
    return flat[0] if len(flat) == 1 else cls(tuple(flat))


# -- lexer / parser ---------------------------------------------------------


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+^()":
            tokens.append((c, c, i))
            i += 1
            continue
        if c in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("INT", int(text[i:j]), i))
            i = j
            continue
        if c == "Q" and i + 1 < n and text[i + 1] in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("Q", int(text[i + 1 : j]), i))
            i = j
            continue
        if c.isalpha():
            j = i + 1
            while j < n and (text[j].isalpha() or text[j] in _NAME_MARKS):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        raise ExpressionSyntaxError("unexpected character %r" % c, i)
    tokens.append(("EOF", None, n))
    return tokens


class _Parser:
    # Bound on open parentheses plus pending Q-operations, so that this
    # recursive-descent parser stays far below the interpreter's recursion
    # limit on text input.
    MAX_NESTING = 100

    def __init__(self, tokens, context):
        self.tokens = tokens
        self.pos = 0
        self.context = context
        self.depth = 0

    def take(self, kind):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ExpressionSyntaxError("expected %s, found %r" % (kind, tok[1]), tok[2])
        self.pos += 1
        return tok

    def parse_expr(self):
        terms = [self.parse_term()]
        tokens = self.tokens
        while tokens[self.pos][0] == "+":
            self.pos += 1
            terms.append(self.parse_term())
        return _joined(Sum, terms)

    def parse_term(self):
        factors = [self.parse_factor()]
        tokens = self.tokens
        while tokens[self.pos][0] in ("NAME", "Q", "("):
            factors.append(self.parse_factor())
        return _joined(Product, factors)

    def parse_factor(self):
        node = self.parse_primary()
        if self.tokens[self.pos][0] == "^":
            self.pos += 1
            tok = self.take("INT")
            if tok[1] < 1:
                raise ExpressionSyntaxError("powers must be positive", tok[2])
            node = node if tok[1] == 1 else Power(node, tok[1])
        return node

    def parse_primary(self):
        kind, value, pos = self.tokens[self.pos]
        self.pos += 1
        if kind == "NAME":
            if self.context is not None and value not in self.context.degrees:
                raise UnknownGeneratorError(value)
            return GenRef(value)
        if kind not in ("Q", "("):
            raise ExpressionSyntaxError("expected a generator, Q-operation or '('", pos)
        self.depth += 1
        if self.depth > self.MAX_NESTING:
            raise ExpressionSyntaxError(
                "expression nested deeper than %d levels" % self.MAX_NESTING, pos
            )
        if kind == "Q":
            node = QOp(value, self.parse_factor())
        else:
            node = self.parse_expr()
            self.take(")")
        self.depth -= 1
        return node


def parse_expression(text, context=None):
    """Parse ``text`` into an AST, resolving names against ``context``."""
    parser = _Parser(_tokenize(text), context)
    node = parser.parse_expr()
    parser.take("EOF")
    return node


def parse_context(text):
    """Parse generator declarations (``gen``/``base`` lines) into a context."""
    gens = []
    base = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4 or parts[0] not in ("gen", "base") or parts[2] != "deg":
            raise ValueError("line %d: expected 'gen NAME deg INT', got %r" % (lineno, raw))
        try:
            deg = read_int(parts[3])
        except ValueError:
            raise ValueError("line %d: bad degree %r" % (lineno, parts[3])) from None
        gens.append((parts[1], deg))
        if parts[0] == "base":
            base.append(parts[1])
    return GeneratorContext(gens, base=base)


# -- the one tree walk ----------------------------------------------------------


_DONE = object()  # what ``next`` gives once a node's children are used up


def fold(node, gen, q, power, product, total):
    """Fold an expression tree bottom-up: the value of each node from its children's.

    ``gen(name)`` values a generator, ``q(s, arg)`` an operation, ``power(base,
    exp)`` a power, and ``product(factors)`` and ``total(terms)`` take the
    nonempty list of their children's values.  Children are folded left to
    right.  The stack is explicit, so the tree's depth is bounded by memory,
    not by the interpreter's recursion limit.  A lone generator is answered
    before the stack is built.  This is the only place that dispatches on
    node class; anything else in the tree raises TypeError.
    """
    if node.__class__ is GenRef:
        return gen(node.name)
    # The nodes above ``node``, innermost last: an operation or power as
    # itself, a product or sum as (handler, children left, values so far).
    waiting = []
    push, pop = waiting.append, waiting.pop
    while True:
        cls = node.__class__
        if cls is GenRef:
            value = gen(node.name)
        elif cls is QOp:
            push(node)
            node = node.arg
            continue
        elif cls is Power:
            push(node)
            node = node.base
            continue
        elif cls is Product or cls is Sum:
            children = iter(node.factors if cls is Product else node.terms)
            push((product if cls is Product else total, children, []))
            node = next(children)
            continue
        else:
            raise TypeError("not an expression node: %r" % (node,))
        while waiting:  # climb while the node above has all its children's values
            above = pop()
            cls = above.__class__
            if cls is QOp:
                value = q(above.s, value)
            elif cls is Power:
                value = power(value, above.exp)
            else:
                handler, children, values = above
                values.append(value)
                node = next(children, _DONE)
                if node is not _DONE:
                    push(above)
                    break
                value = handler(values)
        else:
            return value


# -- printing -----------------------------------------------------------------


# Each node prints to (pieces, rank): its text as a list of strings and of
# its children's lists, so that no level copies its children's text; the
# root's pieces are joined once.  A node is parenthesized at every precedence
# level from its rank up.  Levels: 0 sum, 1 product, 2 factor (powers and
# operation applications), 3 primary.  An operation application is itself a
# factor, so chains like Q12 Q8 x print flat; only a power forces parentheses
# around its base.


def _wrapped(pieces, rank, level):
    return pieces if rank > level else ["(", pieces, ")"]


def _between(separator, pieces):
    out = [separator] * (2 * len(pieces) - 1)
    out[::2] = pieces
    return out


_PRINT = (
    lambda name: (name, 4),
    lambda s, arg: (["Q%d " % s, _wrapped(*arg, 2)], 3),
    lambda base, exp: ([_wrapped(*base, 3), "^%d" % exp], 3),
    lambda factors: (_between(" ", [_wrapped(t, r, 2) for t, r in factors]), 2),
    lambda terms: (_between(" + ", [_wrapped(t, r, 1) for t, r in terms]), 1),
)


def format_expression(node):
    """Canonical textual form; parses back to an equal AST."""
    text = []
    stack = [fold(node, *_PRINT)[0]]
    while stack:  # the pieces in order, each string once
        pieces = stack.pop()
        if pieces.__class__ is str:
            text.append(pieces)
        else:
            stack.extend(reversed(pieces))
    return "".join(text)


# -- degree and E_n bookkeeping -----------------------------------------------


def _graded(node, context):
    """(degrees, witness) of ``node``: the set of degrees of its homogeneous
    components, and the first (r, argument degree) pair, outermost first, with
    the largest r - argument degree over its operation nodes (None if none)."""

    def first_max(pairs):
        return max([p for p in pairs if p], key=lambda p: p[0] - p[1], default=None)

    def q(s, arg):
        degs, witness = arg
        return {s + d for d in degs}, first_max([degs and (s, min(degs)), witness])

    def product(factors):
        degs = {0}
        for f, _ in factors:
            degs = {a + b for a in degs for b in f}
        return degs, first_max(w for _, w in factors)

    return fold(
        node,
        lambda name: ({context.degree(name)}, None),
        q,
        lambda base, exp: ({exp * d for d in base[0]}, base[1]),
        product,
        lambda terms: (set().union(*[t for t, _ in terms]), first_max(w for _, w in terms)),
    )


def expression_degrees(node, context):
    """Set of degrees of the homogeneous components of ``node``."""
    return _graded(node, context)[0]


def homogeneous_degree(node, context):
    degs = expression_degrees(node, context)
    if len(degs) != 1:
        raise DegreeMismatchError("expression is not homogeneous: degrees %s" % sorted(degs))
    return degs.pop()


def min_en_level(node, context):
    """Least n so that every operation taken lives in an E_n-algebra.

    Applying Q^r to a class of degree s needs n >= r - s + 2.  The answer is
    the maximum of that bound over all operation nodes (1 if there are none).
    """
    witness = en_level_witness(node, context)
    return 1 if witness is None else max(1, witness[0] - witness[1] + 2)


def en_level_witness(node, context):
    """The first (r, argument degree) pair realizing min_en_level, or None."""
    return _graded(node, context)[1]
