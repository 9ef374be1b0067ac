"""Normalization of operation expressions in free unstable algebras.

Classes live in the free graded-commutative algebra, over the field with
two elements, on admissible operation words.  A word Q^{s_1}..Q^{s_k} g is
kept as a basis symbol when consecutive entries satisfy s_i <= 2 s_{i+1}
and the excess s_1 - (s_2 + .. + s_k) exceeds |g| (for admissible words the
per-level slack only grows downward, so strictness at the top gives
strictness everywhere).  Everything else is rewritten:

  * additivity        Q^s (a + b)  ->  Q^s a + Q^s b
  * instability       Q^s a = 0 for s < |a|,   Q^s a = a^2 for s = |a|
  * Cartan            Q^s (a b)    ->  sum Q^p a Q^q b over p + q = s
  * Adem, for r > 2s  Q^r Q^s      ->  sum binom(i-s-1, 2i-r) Q^{r+s-i} Q^i

One enumerator, ``_adem_terms``, lists the Adem terms.  ``adem_step`` asks
it for the whole window ceil(r/2) <= i <= r - s - 1; every rewrite route
asks for the stability window instead, the i for which instability keeps
Q^{r+s-i} Q^i on the class below (i at least its degree, r + s - i at least
its degree plus i), so a term that instability kills is never built.

Polynomials are frozensets of monomials (coefficients are bits); a monomial
is a sorted tuple of (word, exponent) pairs and a word is (superscripts,
generator name).
"""

from __future__ import annotations

import operator
from functools import reduce

from .expressions import (
    DegreeMismatchError,
    GenRef,
    Power,
    Product,
    QOp,
    Sum,
    fold,
    homogeneous_degree,
    parse_expression,
)

__all__ = [
    "DLPolynomial",
    "RewriteBudgetExceeded",
    "adem_step",
    "normalize",
    "normalize_word",
    "verify_identity",
]

# Watchdog: upper bound on Adem steps inside one top-level normalization.
STEP_BUDGET = 1_000_000


class RewriteBudgetExceeded(RuntimeError):
    pass


def adem_step(r, s):
    """Expansion of Q^r Q^s for r > 2s as [(superscript pair, bit), ...].

    The window is ceil(r/2) <= i <= r - s - 1; each surviving i contributes
    Q^{r+s-i} Q^i with coefficient binom(i-s-1, 2i-r) mod 2.
    """
    if r <= 2 * s:
        raise ValueError("Q%d Q%d is already admissible" % (r, s))
    return [(pair, 1) for pair in _adem_terms(r, s)]


def _adem_terms(r, s, below=None):
    """The terms (top, inner) = (r + s - i, i) of Q^r Q^s, r > 2s, whose
    coefficient binom(i-s-1, 2i-r) is odd, with i in the window
    ceil(r/2) <= i <= r - s - 1.

    Given ``below``, the degree of the class that Q^s is applied to, only
    the terms that instability keeps are enumerated: inner >= below and
    top >= below + inner, that is i up to floor((r + s - below)/2).  Inside
    the window both binomial arguments are in range, so Lucas' theorem reads
    the coefficient as a bitmask test.
    """
    low, high = (r + 1) // 2, r - s - 1
    if below is not None:
        low, high = max(low, below), min(high, (r + s - below) // 2)
    return [(r + s - i, i) for i in range(low, high + 1) if (i - s - 1) & (2 * i - r) == 2 * i - r]


_ZERO = frozenset()
_ONE = frozenset({()})


class CartanExtension:
    """Q^s on monomials from Q^s on single generators.

    The recursion follows Cohen-Lada-May (LNM 533, III.1): Q^s 1 is 1 for
    s = 0 and 0 otherwise; a lone generator goes to ``generator_action``; an
    all-even monomial m^2 takes the square rule Q^{2s}(m^2) = (Q^s m)^2, with
    the odd operations zero; any other monomial is split as u v by ``peel``
    and takes the Cartan formula Q^s(u v) = sum Q^i u Q^{s-i} v, where
    instability makes Q^i u vanish below i = |u|.  A square-free monomial
    peels one copy of its first generator; any other peels its square part
    u = m^2 off its square-free part v, so each Q^i(m^2) takes the square
    rule, and the pairs Q^i x Q^j x + Q^j x Q^i x that cancel mod 2 are
    never built.  Values are memoized per (s, monomial) in ``_mono_cache``,
    which is read before each recursion.  A memoized zero is a hit like any
    other value: a miss is ``None``, never a false value, so each lookup
    reads the memo once.

    Only the empty monomial is false; subclasses read the rest through four
    primitives: ``mono_degree``, ``lone_generator`` (the generator when the
    monomial is one generator to the first power, else None), ``halve`` (the
    half of an all-even monomial, else None) and ``peel`` (u, its degree,
    v).  They also supply ``zero``, ``one``, ``is_zero``, ``sum_products``
    of ``(left, right)`` pairs, ``square``, ``degrees`` (the sorted degrees
    present in a value) and ``generator_action``: ``_Engine`` on sorted
    (word, exponent) tuples and ``homology.DLModel`` on packed keys.
    """

    def apply_mono(self, s, mono):
        if not mono:
            return self.one if s == 0 else self.zero
        key = (s, mono)
        result = self._mono_cache.get(key)
        if result is not None:
            return result
        generator = self.lone_generator(mono)
        if generator is not None:
            result = self.generator_action(s, generator)
        elif (half := self.halve(mono)) is not None:
            result = self.zero if s % 2 else self.square(self.apply_mono(s // 2, half))
        else:
            first, first_degree, rest = self.peel(mono)
            cached = self._mono_cache.get
            pairs = []
            for i in range(first_degree, s - self.mono_degree(rest) + 1):
                left = cached((i, first))
                if left is None:
                    left = self.apply_mono(i, first)
                if self.is_zero(left):
                    continue
                right = cached((s - i, rest))
                if right is None:
                    right = self.apply_mono(s - i, rest)
                if not self.is_zero(right):
                    pairs.append((left, right))
            result = self.sum_products(pairs)
        if __debug__ and not self.is_zero(result):
            assert self.degrees(result) == [s + self.mono_degree(mono)], "degree drift"
        self._mono_cache[key] = result
        return result


class _Engine(CartanExtension):
    """Normalization engine bound to one generator context.

    The polynomial generators of the free algebra are the admissible words.
    """

    zero = _ZERO
    one = _ONE
    is_zero = staticmethod(operator.not_)

    def __init__(self, context):
        self.ctx = context
        # every name the engine meets was checked against the context on the way in
        self.generator_degrees = context.degrees
        self.generator_values = context._generator_values
        self._mono_cache = context._mono_cache
        self.steps = 0

    def generator_degree(self, word):
        ops, g = word
        return self.generator_degrees[g] + sum(ops)

    # -- the Cartan primitives on sorted (word, exponent) tuples ----------------

    def mono_degree(self, mono):
        degrees = self.generator_degrees
        total = 0
        for (ops, g), e in mono:
            total += (degrees[g] + sum(ops)) * e
        return total

    @staticmethod
    def lone_generator(mono):
        return mono[0][0] if len(mono) == 1 and mono[0][1] == 1 else None

    @staticmethod
    def halve(mono):
        return None if any(e % 2 for _, e in mono) else tuple((w, e // 2) for w, e in mono)

    def peel(self, mono):
        for _, e in mono:
            if e > 1:
                break
        else:  # square-free
            w = mono[0][0]
            return ((w, 1),), self.generator_degree(w), mono[1:]
        square = tuple((w, e & -2) for w, e in mono if e > 1)
        return square, self.mono_degree(square), tuple((w, 1) for w, e in mono if e & 1)

    def degrees(self, p):
        return sorted(set(map(self.mono_degree, p)))

    # -- polynomial helpers (frozensets of monomials) --------------------------

    def sum_products(self, pairs):
        return reduce(operator.xor, (self.mul(p, q) for p, q in pairs), _ZERO)

    @staticmethod
    def mul_mono(m1, m2):
        """The product of two monomials: one sort of their factors together,
        then one pass from the end that adds the exponents of adjacent equal
        words."""
        m = sorted(m1 + m2)
        for i in range(len(m) - 1, 0, -1):
            if m[i][0] == m[i - 1][0]:
                m[i - 1] = (m[i][0], m[i - 1][1] + m.pop(i)[1])
        return tuple(m)

    @staticmethod
    def mul(p, q):
        out = set()
        mul_mono = _Engine.mul_mono
        for m1 in p:
            for m2 in q:
                m = mul_mono(m1, m2)
                if m in out:
                    out.remove(m)
                else:
                    out.add(m)
        return frozenset(out)

    @staticmethod
    def square(p):
        # Frobenius in characteristic two: square each monomial.
        return frozenset(tuple((w, 2 * e) for w, e in m) for m in p)

    # -- the operation --------------------------------------------------------

    def apply_poly(self, s, p):
        if len(p) == 1:  # the memoized value itself, not a copy
            (mono,) = p
            result = self._mono_cache.get((s, mono))
            return self.apply_mono(s, mono) if result is None else result
        out = set()
        for m in p:
            out ^= self.apply_mono(s, m)
        return frozenset(out)

    def apply_word(self, superscripts, p):
        """Q^{s_1} .. Q^{s_k} p, the innermost operation first."""
        for s in reversed(superscripts):
            p = self.apply_poly(s, p)
        return p

    def generator_action(self, s, word):
        cache = self.ctx._word_cache
        key = (s, word)
        result = cache.get(key)
        if result is not None:
            return result
        d = self.generator_degree(word)
        if s < d:
            result = _ZERO
        elif s == d:
            result = frozenset({((word, 2),)})
        else:
            ops, g = word
            if not ops or s <= 2 * ops[0]:
                result = frozenset({((((s,) + ops, g), 1),)})
            else:
                self.steps += 1
                if self.steps > STEP_BUDGET:
                    raise RewriteBudgetExceeded("rewrite budget exhausted")
                rest = (ops[1:], g)
                acc = set()
                for top, inner in _adem_terms(s, ops[0], d - ops[0]):
                    acc ^= self.apply_poly(top, self.generator_action(inner, rest))
                result = frozenset(acc)
        cache[key] = result
        return result

    # -- expression evaluation ---------------------------------------------------

    def word(self, name):
        """The value of the generator ``name``: the monomial of its empty word,
        built once per name and context and kept in the context's
        ``_generator_values``; an unknown name raises each time it is asked for."""
        value = self.generator_values.get(name)
        if value is None:
            self.ctx.degree(name)  # raises on unknown names
            value = self.generator_values[name] = _generator_value(name)
        return value

    def power(self, p, n):
        """p^n, n >= 1: the product of the squares p^(2^k) over the set bits k
        of n, begun at the lowest one; nothing is squared past the highest."""
        out = None
        while True:
            if n & 1:
                out = p if out is None else self.mul(out, p)
            n >>= 1
            if not n:
                return out
            p = self.square(p)  # Frobenius: (a+b)^2 = a^2 + b^2

    def product(self, factors):
        return reduce(self.mul, factors)

    @staticmethod
    def total(terms):
        return frozenset(reduce(operator.ixor, terms, set()))

    def evaluate(self, node):
        return fold(node, self.word, self.apply_poly, self.power, self.product, self.total)


class DLPolynomial:
    """A normalized polynomial in admissible words, over the two-element field."""

    __slots__ = ("context", "monomials")

    def __init__(self, context, monomials):
        self.context = context
        self.monomials = frozenset(monomials)

    def __eq__(self, other):
        return (
            isinstance(other, DLPolynomial)
            and (
                self.context is other.context
                or self.context.fingerprint() == other.context.fingerprint()
            )
            and self.monomials == other.monomials
        )

    def __hash__(self):
        return hash(self.monomials)

    def __add__(self, other):
        self._check(other)
        return DLPolynomial(self.context, self.monomials ^ other.monomials)

    def __mul__(self, other):
        self._check(other)
        return DLPolynomial(self.context, _Engine.mul(self.monomials, other.monomials))

    def _check(self, other):
        if (
            self.context is not other.context
            and self.context.fingerprint() != other.context.fingerprint()
        ):
            raise ValueError("polynomials over different contexts")

    def is_zero(self):
        return not self.monomials

    # -- canonical form ------------------------------------------------------

    def _canonical(self):
        """The canonical order: one (total degree, factor keys) pair per
        monomial, sorted.

        A factor's key is (operation degree, superscripts, generator,
        exponent), and a monomial's factor keys are sorted once; the key
        determines the factor, so readers take the factors from it.
        """
        degrees = self.context.degrees  # every name here came through the context
        keyed = []
        for mono in self.monomials:
            keys = sorted([(sum(ops), ops, g, e) for (ops, g), e in mono])
            keyed.append((sum([(degrees[g] + weight) * e for weight, _, g, e in keys]), keys))
        keyed.sort()
        return keyed

    def sorted_monomials(self):
        """The monomials in canonical order, each as its (word, exponent)
        factors in canonical order."""
        return [[((ops, g), e) for _, ops, g, e in keys] for _, keys in self._canonical()]

    def to_expression(self):
        """Rebuild a canonical AST (None stands for the zero polynomial)."""
        if not self.monomials:
            return None
        terms = []
        for factors in self.sorted_monomials():
            nodes = []
            for (ops, g), e in factors:
                node = GenRef(g)
                for s in reversed(ops):
                    node = QOp(s, node)
                nodes.append(Power(node, e) if e > 1 else node)
            terms.append(nodes[0] if len(nodes) == 1 else Product(tuple(nodes)))
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def __str__(self):
        """Canonical text, formatted from the sort keys without building a tree;
        ``format_expression(self.to_expression())`` is its test oracle."""
        terms = []
        for _, keys in self._canonical():
            texts = []
            for _, ops, g, e in keys:
                word = "Q%d " * len(ops) % ops + g
                texts.append(word if e == 1 else ("(%s)^%d" if ops else "%s^%d") % (word, e))
            terms.append(" ".join(texts))
        return " + ".join(terms) or "0"

    def __repr__(self):
        return "<DL %s>" % self


def normalize(expr, context):
    """Normal form of an expression (or source text) over ``context``."""
    if isinstance(expr, str):
        expr = parse_expression(expr, context)
    return DLPolynomial(context, _Engine(context).evaluate(expr))


def normalize_word(superscripts, generator, context, strategy="bottom-up"):
    """Normalize Q^{s_1} .. Q^{s_k} applied to a generator.

    ``bottom-up`` resolves instability and inadmissibility from the inner
    end outward (the canonical route).  ``top-down`` reduces the superscript
    sequence with Adem steps, always picking the leftmost inadmissible pair,
    and then evaluates each admissible sequence on the generator;
    ``rightmost`` does the same but always picks the rightmost pair.  Both
    drop a sequence as soon as it applies some Q^s to an argument of degree
    above s (instability): the input when it already does, found in one pass
    from the inner end, and each Adem term whose two new entries would,
    which the Adem enumerator leaves out by enumerating only the stability
    window of the pair.  Adem keeps the sum of the pair, so no other entry's
    argument degree changes.  Only an admissible sequence with an entry
    equal to the degree below it (a square) goes through the engine; the
    others are basis words.  Confluence means all three answers agree.

    ``bottom-up`` always builds the engine (an ``_Engine`` on ``context``
    and the generator's monomial).  The sequence routes build it once, after
    the reduction, and only when some admissible sequence has a square
    entry; a word that reduces to basis words alone builds none.
    """
    superscripts = tuple(superscripts)
    degree = context.degree(generator)  # raises on unknown names
    if strategy == "bottom-up":
        engine = _Engine(context)
        return DLPolynomial(context, engine.apply_word(superscripts, engine.word(generator)))
    if strategy not in ("top-down", "rightmost"):
        raise ValueError("unknown strategy %r" % strategy)
    below = degree
    for s in reversed(superscripts):
        if s < below:
            return DLPolynomial(context, _ZERO)
        below += s
    spots = range(len(superscripts) - 1)[:: 1 if strategy == "top-down" else -1]
    pending = {superscripts}
    admissible = set()
    steps = 0
    while pending:
        seq = pending.pop()
        for spot in spots:
            if seq[spot] > 2 * seq[spot + 1]:
                break
        else:
            if seq in admissible:
                admissible.remove(seq)
            else:
                admissible.add(seq)
            continue
        steps += 1
        if steps > STEP_BUDGET:
            raise RewriteBudgetExceeded("rewrite budget exhausted")
        head, tail = seq[:spot], seq[spot + 2 :]
        for pair in _adem_terms(seq[spot], seq[spot + 1], degree + sum(tail)):
            new = head + pair + tail
            if new in pending:
                pending.remove(new)
            else:
                pending.add(new)
    out = set()
    squares = []
    for seq in admissible:
        below = degree
        for s in reversed(seq):
            if s == below:
                squares.append(seq)
                break
            below += s
        else:
            out.add((((seq, generator), 1),))  # one basis word per sequence
    if squares:
        engine = _Engine(context)
        base = engine.word(generator)
        for seq in squares:
            out ^= engine.apply_word(seq, base)
    return DLPolynomial(context, out)


def _generator_value(name):
    """The monomial of the empty word on ``name``, as a polynomial."""
    return frozenset({((((), name), 1),)})


def _coerce_side(value, context):
    if value is None or value == "0":
        return None
    if isinstance(value, str):
        return parse_expression(value, context)
    return value


def verify_identity(lhs, rhs, context):
    """Check lhs = rhs in the free algebra.

    Returns (holds, witness) where the witness is the normalized difference.
    Both sides must be homogeneous of the same degree; ``None`` or ``"0"``
    stands for the zero class (any degree).
    """
    lhs = _coerce_side(lhs, context)
    rhs = _coerce_side(rhs, context)
    degs = [homogeneous_degree(side, context) for side in (lhs, rhs) if side is not None]
    if len(degs) == 2 and degs[0] != degs[1]:
        raise DegreeMismatchError("sides have degrees %d and %d" % (degs[0], degs[1]))
    zero = DLPolynomial(context, frozenset())
    left = normalize(lhs, context) if lhs is not None else zero
    right = normalize(rhs, context) if rhs is not None else zero
    diff = left + right
    return diff.is_zero(), diff
