"""Exact graded-commutative polynomial arithmetic over F2 and Q.

Supports weighted gradings, generator orders (nilpotent generators such as
v3 with v3^2 = 0), and the indecomposable-projection bookkeeping used by
the homology models.  All arithmetic is exact: scalars are either bits
(the field with two elements) or rationals, kept as an ``int`` when
integral and as a ``fractions.Fraction`` otherwise.  No floating point
appears anywhere in this package.

A polynomial is a mapping from monomials to nonzero scalars.  A monomial
is one packed ``int``: fields of ``FIELD_BITS`` bits each, the lowest holding
the monomial's weighted degree and field ``i + 1`` the exponent of generator
``i``.  Generator ``i`` packs to ``1 << FIELD_BITS * (i + 1)`` plus its
degree, so multiplying monomials is adding their keys, the degree of a
monomial is its lowest field, and a monomial has the same key in every ring
whose generators start with the same ones.  The top bit of every field is a
guard bit that no valid monomial sets.  Two valid fields add up to less
than ``2 * FIELD_LIMIT`` and never carry into their neighbour, so a product
whose exponent or degree reaches ``FIELD_LIMIT`` sets a guard bit and raises
``OverflowError`` instead of wrapping.

The guard bits also kill monomials.  A ring keeps its generator ``orders``
and its ``degree_order`` (the truncated series rings) in one packed *limit
word* ``limit``: field ``f`` of it holds the first value field ``f`` may not
reach.  Subtracting it borrows exactly the guard bits of the fields that
stay under their limits, so ``mono`` is killed exactly when
``((mono | guard) - limit) & limited`` is nonzero, where ``limited`` holds
the guard bits of the bounded fields.  That is one OR, one subtraction and
one AND per product monomial.

``PolynomialRing.sum`` (and ``sum_products``) adds many elements into one
accumulator instead of copying a partial sum per term: over GF2 each
monomial toggles in or out (XOR), over Q a coefficient that cancels is popped.
Over GF2 ``sum_products`` toggles each product monomial straight into the
accumulator, so it builds no product on its own.

An element keeps the OR of its keys, its *key span*, once something asks
for it (``GradedPolynomial.span``).  The span has a nonzero field for each
generator that occurs, and each of its fields is at least the largest value
that field takes in a monomial.  So one AND with it tells whether a product
with the element can come near a guard bit, and its degree field bounds the
element's top degree from above.

``GradedPolynomial.map_generators`` maps a factor whose image is one term
c m by key arithmetic: x^e adds e times the key of m to the term's key and
multiplies its scalar by c^e.  A term whose factors all have one-term
images costs no product.

Only ``PolynomialRing``, the series rings of ``series`` and the Cartan
primitives of ``homology.DLModel`` know this layout;
``PolynomialRing.pack`` and ``PolynomialRing.unpack`` convert from and to
sorted ``(generator_index, exponent)`` tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import or_

from .expressions import Value, _set, binomial_mod2

__all__ = [
    "FIELD_BITS",
    "FIELD_LIMIT",
    "GF2",
    "QQ",
    "Generator",
    "PolynomialRing",
    "GradedPolynomial",
    "binomial_mod2",
]


class _F2:
    """Scalar arithmetic for the field with two elements (bits 0/1)."""

    name = "F2"
    zero = 0
    one = 1

    def coerce(self, v):
        if isinstance(v, Fraction):
            if v.denominator != 1:
                raise ValueError("cannot reduce a non-integer mod 2: %r" % (v,))
            v = v.numerator
        return int(v) & 1

    def add(self, a, b):
        return a ^ b

    def mul(self, a, b):
        return a & b

    def neg(self, a):
        return a

    def is_unit(self, a):
        return a == 1

    def inv(self, a):
        if a != 1:
            raise ZeroDivisionError("0 is not invertible")
        return 1

    def is_integral(self, a):
        return True

    def fmt(self, a):
        return str(a)


def _rational(v):
    """A rational result as an ``int`` when it is integral, else as a ``Fraction``."""
    return v.numerator if v.__class__ is Fraction and v.denominator == 1 else v


class _QQ:
    """Scalar arithmetic for exact rationals: an ``int`` when integral, else a ``Fraction``."""

    name = "Q"
    zero = 0
    one = 1

    def coerce(self, v):
        return v if v.__class__ is int else _rational(Fraction(v))

    def add(self, a, b):
        return _rational(a + b)

    def mul(self, a, b):
        return _rational(a * b)

    def neg(self, a):
        return -a

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        return _rational(Fraction(1) / a)

    def is_integral(self, a):
        return a.denominator == 1

    def fmt(self, a):
        return str(a)


GF2 = _F2()
QQ = _QQ()

FIELD_BITS = 32
FIELD_LIMIT = 1 << (FIELD_BITS - 1)  # the first exponent or degree a field cannot hold
_FIELD_MASK = (1 << FIELD_BITS) - 1


class Generator(Value):
    """A named algebra generator with an integer degree."""

    __slots__ = ("name", "degree")

    def __init__(self, name, degree):
        if not name:
            raise ValueError("generator needs a name")
        _set(self, "name", name)
        _set(self, "degree", degree)


class PolynomialRing:
    """A graded polynomial ring with named generators.

    ``orders`` gives each generator an exclusive exponent bound (None for no
    bound), so a generator of order 2 squares to zero, and ``degree_order``
    an exclusive bound on the degree: monomials past a bound are zero.
    Elements drop them on construction, so every ``GradedPolynomial`` is in
    normal form.
    """

    def __init__(self, scalars, generators, orders=None, degree_order=None):
        self.scalars = scalars
        self.generators = tuple(generators)
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        if any(g.degree < 0 for g in self.generators):
            raise ValueError("generator degrees must be nonnegative")
        self.index = {g.name: i for i, g in enumerate(self.generators)}
        self.degrees = tuple(g.degree for g in self.generators)
        # the key of each generator to the first power -> its index
        self.gen_keys = {(1 << FIELD_BITS * (i + 1)) + d: i for i, d in enumerate(self.degrees)}
        self.guard = sum(FIELD_LIMIT << FIELD_BITS * k for k in range(len(self.generators) + 1))
        # a key with no field at or above 2^(FIELD_BITS - 2) adds to any other
        # such key without reaching a guard bit
        self.top_bits = self.guard | self.guard >> 1
        self.orders = (None,) * len(self.generators) if orders is None else tuple(orders)
        if len(self.orders) != len(self.generators):
            raise ValueError("orders must match the generators")
        # field index -> the first value the field may not reach
        limits = {i + 1: o for i, o in enumerate(self.orders) if o is not None}
        if degree_order is not None:
            limits[0] = degree_order
        if any(v < 0 for v in limits.values()):
            raise ValueError("orders must be nonnegative")
        # a limit of FIELD_LIMIT bounds nothing a field can hold
        self.limit = sum(min(v, FIELD_LIMIT) << FIELD_BITS * f for f, v in limits.items())
        self.limited = sum(FIELD_LIMIT << FIELD_BITS * f for f in limits)

    # -- packed monomials ---------------------------------------------------

    def pack(self, pairs):
        """The packed monomial of ``(generator_index, exponent)`` pairs."""
        mono = degree = 0
        for i, e in pairs:
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            if e >= FIELD_LIMIT:
                raise OverflowError("exponent %d does not fit a monomial field" % e)
            mono += e << FIELD_BITS * (i + 1)
            degree += e * self.degrees[i]
        if degree >= FIELD_LIMIT or mono & self.guard:
            raise OverflowError("monomial does not fit its packed fields")
        return mono + degree

    @staticmethod
    def unpack(mono):
        """The sorted ``((generator_index, exponent), ...)`` tuple of a monomial."""
        pairs = []
        rest = mono >> FIELD_BITS
        while rest:
            field = ((rest & -rest).bit_length() - 1) // FIELD_BITS
            e = (rest >> FIELD_BITS * field) & _FIELD_MASK
            pairs.append((field, e))
            rest ^= e << FIELD_BITS * field
        return tuple(pairs)

    @staticmethod
    def monomial_degree(mono):
        return mono & _FIELD_MASK

    def kills(self, mono):
        """True when a field of ``mono`` reaches its limit, so it is zero here."""
        return bool(((mono | self.guard) - self.limit) & self.limited)

    # -- element constructors -------------------------------------------

    def make(self, terms):
        """Normalize a {monomial: scalar} mapping into an element."""
        zero = self.scalars.zero
        if self.scalars is not GF2:
            coerce = self.scalars.coerce
            terms = {m: coerce(c) for m, c in terms.items()}
        if self.limited:
            return GradedPolynomial(
                self, {m: c for m, c in terms.items() if c != zero and not self.kills(m)}
            )
        return GradedPolynomial(self, {m: c for m, c in terms.items() if c != zero})

    def zero(self):
        return GradedPolynomial(self, {})

    def sum(self, elements):
        """The sum of ``elements`` of this ring, accumulated in place.

        No monomial of a sum of normal forms reaches a limit, so the sum is a
        normal form without a pass through ``make``.
        """
        if self.scalars is GF2:
            out = set()
            for p in elements:
                if p.ring is not self:
                    raise ValueError("elements of different rings")
                out.symmetric_difference_update(p.terms)
            return GradedPolynomial(self, dict.fromkeys(out, 1))
        add = self.scalars.add
        out = {}
        for p in elements:
            if p.ring is not self:
                raise ValueError("elements of different rings")
            if not out:
                out.update(p.terms)
                continue
            for m, c in p.terms.items():
                s = out.get(m)
                if s is not None:
                    c = add(s, c)
                if c:
                    out[m] = c
                else:
                    del out[m]
        return GradedPolynomial(self, out)

    def sum_products(self, pairs):
        """The sum of ``a * b`` over the ``(a, b)`` in ``pairs``.  Over GF2 without
        limits, the one mod-2 product loop (``a * b`` is its one-pair case): no
        field below 2^(FIELD_BITS - 2) lets a sum of two keys reach a guard bit,
        so only a pair with a field at or above it takes the checked product."""
        if self.scalars is not GF2 or self.limited:
            return self.sum(a * b for a, b in pairs)
        out = {}
        pop, top = out.pop, self.top_bits
        for a, b in pairs:
            if a.ring is not self or b.ring is not self:
                raise ValueError("elements of different rings")
            left, right = a.terms, b.terms
            if (a.span() | b.span()) & top:
                left, right = a._checked_mul(b), (0,)  # its monomials, times 1
            for m1 in left:
                for m2 in right:
                    m = m1 + m2
                    if pop(m, None) is None:
                        out[m] = 1
        return GradedPolynomial(self, out)

    def one(self):
        return self.scalar(self.scalars.one)

    def scalar(self, c):
        c = self.scalars.coerce(c)
        keep = c != self.scalars.zero and not self.kills(0)
        return GradedPolynomial(self, {0: c} if keep else {})

    def gen(self, name, exp=1):
        if name not in self.index:
            raise KeyError("no generator named %r" % name)
        if exp < 0:
            raise ValueError("exponents must be nonnegative")
        return self.make({self.pack(((self.index[name], exp),)): self.scalars.one})

    def monomial(self, powers, coeff=1):
        """Element c * prod(name^exp) from a {name: exp} mapping."""
        mono = self.pack((self.index[n], e) for n, e in powers.items())
        return self.make({mono: self.scalars.coerce(coeff)})

    def __repr__(self):
        # a generator order is a relation: Q[v3] with v3^2 = 0 is a quotient
        rel = " with relations" if any(o is not None for o in self.orders) else ""
        return "PolynomialRing(%s[%s]%s)" % (
            self.scalars.name,
            ", ".join(g.name for g in self.generators),
            rel,
        )


class GradedPolynomial:
    """An element of a ``PolynomialRing``.  Treat as immutable."""

    __slots__ = ("ring", "terms", "_hash", "_span")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._hash = None
        self._span = None

    # -- ring structure ---------------------------------------------------

    def __add__(self, other):
        return self.ring.sum((self, other))

    def __sub__(self, other):
        return self + other.scale(self.ring.scalars.neg(self.ring.scalars.one))

    def __mul__(self, other):
        ring = self.ring
        if ring.scalars is GF2 and not ring.limited:
            return ring.sum_products(((self, other),))
        return GradedPolynomial(ring, self._checked_mul(other))

    def _checked_mul(self, other):
        """The terms of ``self * other``, each sum checked against the guard
        bits (``OverflowError``) and the ring's limits."""
        ring = self.ring
        if ring is not other.ring:
            raise ValueError("elements of different rings")
        sc = ring.scalars
        out = {}
        guard, limit, limited = ring.guard, ring.limit, ring.limited
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 + m2
                if m & guard:
                    raise OverflowError("a product exponent or degree overflows its packed field")
                if limited and ((m | guard) - limit) & limited:
                    continue
                s = out.get(m)
                if s is None:
                    # the scalars are a field, so the product is nonzero
                    out[m] = sc.mul(c1, c2)
                    continue
                s = sc.add(s, sc.mul(c1, c2))
                if s == sc.zero:
                    del out[m]
                else:
                    out[m] = s
        # limited monomials were dropped above
        return out

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return self.ring.one()
        return _power({(0, 1): self}, 0, n)

    def scale(self, c):
        sc = self.ring.scalars
        c = sc.coerce(c)
        if c == sc.zero:
            return self.ring.zero()
        # the scalars are a field, so no coefficient becomes zero
        return GradedPolynomial(self.ring, {m: sc.mul(v, c) for m, v in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, GradedPolynomial)
            and self.ring is other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.ring), tuple(sorted(self.terms.items()))))
        return self._hash

    def span(self):
        """The OR of the keys (see the module notes), kept once computed."""
        if self._span is None:
            self._span = reduce(or_, self.terms, 0)
        return self._span

    # -- grading ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Degree of a homogeneous element (0 for the zero element)."""
        degs = self.degrees_present()
        if len(degs) > 1:
            raise ValueError("not homogeneous: degrees %s" % degs)
        return degs[0] if degs else 0

    def degrees_present(self):
        return sorted({m & _FIELD_MASK for m in self.terms})

    # -- structure queries --------------------------------------------------

    def constant_term(self):
        return self.terms.get(0, self.ring.scalars.zero)

    def indecomposable_part(self):
        """Image under projection to the span of single generators.

        Keeps terms that are a lone generator to the first power; constants
        and products (including proper powers) are decomposable and drop.
        """
        gens = self.ring.gen_keys
        return self.ring.make({m: c for m, c in self.terms.items() if m in gens})

    def is_integral(self):
        sc = self.ring.scalars
        return all(sc.is_integral(c) for c in self.terms.values())

    def inverse(self, max_steps=64):
        """Inverse of unit-scalar + nilpotent elements.

        Works whenever the non-constant part is nilpotent in the ring (for
        example under generator orders, such as a square-zero generator, or
        in a truncated series ring); raises if the geometric series fails to
        terminate.
        """
        sc = self.ring.scalars
        c = self.constant_term()
        if not sc.is_unit(c):
            raise ZeroDivisionError("constant term %r is not a unit" % (c,))
        cinv = sc.inv(c)
        n = (self - self.ring.scalar(c)).scale(sc.neg(cinv))
        acc = self.ring.one() + n
        p = n
        for _ in range(max_steps):
            if p.is_zero():
                return acc.scale(cinv)
            p = p * n
            acc = acc + p
        raise ArithmeticError("element is not unit + nilpotent: %s" % self)

    def map_generators(self, target_ring, images):
        """Ring map determined by generator images.

        ``images`` maps each generator name appearing in ``self`` to an
        element of ``target_ring``; scalars map along the identity.  A term
        with a factor that maps to zero is skipped before any product.  A
        factor whose image is one term c m costs no product: x^e adds e times
        the key of m to the term's key and multiplies its scalar by c^e (an
        image of one is the case of key 0).  The powers of the other images
        are each built once per call, from a smaller one, and shared by every
        term that needs them; their product is shifted by the term's key.
        A term whose key arithmetic would reach a guard bit is multiplied out
        instead, so that ``OverflowError`` and the target's limits act as the
        products have them act.
        """
        sc = target_ring.scalars
        guard, limit, limited = target_ring.guard, target_ring.limit, target_ring.limited
        dead = 0  # the fields of the generators that map to zero
        keyed = []  # (field shift, key, scalar, largest exponent) of each one-term image
        multiplied = []  # (index, field shift) of each image of more terms
        powers = {}  # (generator index, exponent) -> power of its image
        for i, _ in self.ring.unpack(self.span()):
            name = self.ring.generators[i].name
            if name not in images:
                raise KeyError("no image for generator %r" % name)
            image = powers[i, 1] = images[name]
            if image.ring is not target_ring:
                raise ValueError("elements of different rings")
            shift = FIELD_BITS * (i + 1)
            if image.is_zero():
                dead |= _FIELD_MASK << shift
            elif len(image.terms) == 1:
                ((key, c),) = image.terms.items()
                # e times the key has every field below FIELD_LIMIT, so no carry
                widest = max([key & _FIELD_MASK] + [e for _, e in target_ring.unpack(key)])
                keyed.append((shift, key, c, (FIELD_LIMIT - 1) // widest if widest else FIELD_LIMIT))
            else:
                multiplied.append((i, shift))

        def keyed_term(mono, coeff):
            # the (key, scalar) pairs of one term, or None at a guard bit
            key = 0
            for shift, m, c, most in keyed:
                e = mono >> shift & _FIELD_MASK
                if e:
                    if e > most or (key := key + e * m) & guard:
                        return None
                    if c != sc.one:
                        coeff = sc.mul(coeff, c**e)
            product = None
            for i, shift in multiplied:
                e = mono >> shift & _FIELD_MASK
                if e:
                    p = _power(powers, i, e)
                    product = p if product is None else product * p
            if product is None:
                return ((key, coeff),)
            out = [(m + key, sc.mul(c, coeff)) for m, c in product.terms.items()]
            return None if any(m & guard for m, _ in out) else out

        out = {}
        for mono, coeff in self.terms.items():
            if mono & dead:
                continue
            found = keyed_term(mono, coeff)
            if found is None:
                term = None
                for i, e in self.ring.unpack(mono):
                    p = _power(powers, i, e)
                    term = p if term is None else term * p
                found = [(m, sc.mul(c, coeff)) for m, c in term.terms.items()]
            for m, c in found:
                if limited and ((m | guard) - limit) & limited:
                    continue
                s = out.get(m)
                if s is not None:
                    c = sc.add(s, c)
                if c != sc.zero:
                    out[m] = c
                else:
                    del out[m]
        return GradedPolynomial(target_ring, out)

    # -- display ------------------------------------------------------------

    def _mono_sort_key(self, mono):
        vec = [0] * len(self.ring.generators)
        for i, e in self.ring.unpack(mono):
            vec[i] = e
        return (self.ring.monomial_degree(mono), [-v for v in reversed(vec)])

    def _fmt_mono(self, mono):
        parts = []
        for i, e in self.ring.unpack(mono):
            name = self.ring.generators[i].name
            parts.append(name if e == 1 else "%s^%d" % (name, e))
        return " ".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        sc = self.ring.scalars
        chunks = []
        for mono in sorted(self.terms, key=self._mono_sort_key):
            c = self.terms[mono]
            body = self._fmt_mono(mono)
            negative = sc is QQ and c < 0
            mag = -c if negative else c
            if not body:
                text = sc.fmt(mag)
            elif mag == sc.one:
                text = body
            else:
                text = "%s %s" % (sc.fmt(mag), body)
            if not chunks:
                chunks.append("-" + text if negative else text)
            else:
                chunks.append(("- " if negative else "+ ") + text)
        return " ".join(chunks)

    def __repr__(self):
        return "<%s>" % self


def _power(powers, i, e):
    """``powers[i, 1] ** e`` for e >= 1, kept in ``powers`` under ``(i, e)``.

    Binary powering: an odd power is one product with the power below it and
    an even one the square of its half, so a fresh power costs
    floor(log2 e) + popcount(e) - 1 products, less those of the smaller
    powers already kept.  Any type with ``*`` works.
    """
    p = powers.get((i, e))
    if p is None:
        if e & 1:
            p = _power(powers, i, e - 1) * powers[i, 1]
        else:
            p = _power(powers, i, e >> 1)
            p = p * p
        powers[i, e] = p
    return p


def graded_inverse(ring, d, memo):
    """Degree-d component of (1 + the sum of ``ring``'s generators)^{-1} over GF2.

    In characteristic 2, 1/(1 + x) is the product of the 1 + x^{2^k} and
    x^{2^k} is the sum of the g^{2^k}, so the component is the sum of the
    monomials prod_k g_k^{2^k} with at most one generator g_k for each bit k:
    those whose exponents have pairwise disjoint binary digits.  Distinct
    choices give distinct monomials, so no term cancels.  Shifting a
    generator's key left by k doubles both its fields k times, giving the key
    of g^{2^k}.  ``memo`` keeps the monomials for each (bit, remaining degree)
    and may be shared by every call on one ring.
    """
    if ring.scalars is not GF2:
        raise ValueError("graded_inverse works over GF2, not %s" % ring.scalars.name)
    if (0, d) not in memo:
        if 0 in ring.degrees:
            raise ValueError("1 + a degree-0 generator has no graded inverse")
        gens = sorted((g & _FIELD_MASK, g) for g in ring.gen_keys if g & _FIELD_MASK <= d)

        def rest(k, r):
            # the monomials prod_{j >= k} g_j^{2^j} of degree r
            monos = memo.get((k, r))
            if monos is None:
                monos = [] if r else [0]
                if 1 << k <= r:
                    monos = list(rest(k + 1, r))
                    for deg, key in gens:
                        if deg << k > r:
                            break
                        monos += [(key << k) + m for m in rest(k + 1, r - (deg << k))]
                memo[k, r] = monos
            return monos

        rest(0, d)
    return GradedPolynomial(ring, dict.fromkeys(memo[0, d], 1))
