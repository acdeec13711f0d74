"""Exact arithmetic in finitely generated free nilpotent groups.

A free nilpotent group of rank n and class s is coordinatized by the Hall
basis of basic commutators of weight at most s.  Every element has a unique
collected normal form b_1^{e_1} ... b_K^{e_K} with the b_i in basis order;
its exponent vector (e_1, ..., e_K) of arbitrary-precision integers is the
boundary format, used for input and text.

Conventions, fixed once and used by every module in this package:

  * commutator: [g, h] = g^-1 h^-1 g h; left-normed [a, b, c] = [[a, b], c]
  * Hall basis order: weight ascending, then lexicographically on shape
  * the weight filtration N = N_1 >= N_2 >= ... >= N_s: an element lies in
    N_m exactly when its exponents vanish on all basis elements of weight
    less than m; the identity gets the sentinel weight s + 1

Multiplication, inversion, powers and word collection are computed through
an exact truncated-series embedding (generators map to 1 + X_i in the free
associative ring over the X_i, truncated above degree s), which is faithful
and keeps all arithmetic in integers, at every class.  Powers, inverses and
the factor b_i^e of a basis element are one binomial expansion of
(1 + u)^e, and both coordinate conversions build their ordered products
of such factors with one routine.  `collect` multiplies the series of the
word's letters.  An element is its series: one built from exponents
computes it at construction, and `_from_series` is the one place a result
becomes an element.  Coordinates are read off a result only at its first
`.exponents`, so a chain of operations converts between the two formats
only for its inputs and for what it hands out.  The read-off goes weight
by weight through the integer inverse of the Hall polynomials' minor at
the Lyndon words (det +-1), and checks that the coordinates reproduce the
series.  Equality, hashing, the weight, the identity test, the
abelianization and the class projection read the series alone.  That is
exact: the embedding is faithful, and g lies in N_m exactly when its
series minus 1 starts in degree m, because the dimension subgroups of a
free group are the terms of its lower central series (Magnus; Witt).
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

from .errors import InputError, InternalError
from .glz import IntMatrix

__all__ = [
    "HallBasisElement",
    "GroupContext",
    "GroupElement",
    "identity",
    "generator",
    "basis_element",
    "from_exponents",
    "multiply",
    "invert",
    "power",
    "commutator",
    "weight",
    "abelianization",
    "project_to_class",
    "collect",
    "parse_element",
    "format_element",
]


@dataclass(frozen=True)
class HallBasisElement:
    """One basic commutator: a generator or a bracket of earlier entries."""

    index: int
    weight: int
    shape: object  # generator position, or a pair (left, right) of indices
    name: str


def _build_basis(rank: int, cls: int):
    elems = []  # (weight, shape)
    for j in range(rank):
        elems.append((1, j))
    for w in range(2, cls + 1):
        cands = []
        for li in range(len(elems)):
            wl = elems[li][0]
            wr = w - wl
            if wr < 1:
                continue
            for ri in range(len(elems)):
                if elems[ri][0] != wr or li <= ri:
                    continue
                shl = elems[li][1]
                if isinstance(shl, tuple) and shl[1] > ri:
                    continue
                cands.append((li, ri))
        cands.sort()
        for pair in cands:
            elems.append((w, pair))
    out = []
    for idx, (w, shape) in enumerate(elems):
        if isinstance(shape, tuple):
            name = "[%s,%s]" % (out[shape[0]].name, out[shape[1]].name)
        else:
            name = "x%d" % (shape + 1)
        out.append(HallBasisElement(idx, w, shape, name))
    return out


# A series holds sum(rank**d, d <= s) integers; larger contexts are refused.
# Set-up is the basis series and one checked Hermite inverse per Lyndon
# minor.  Median of three fresh processes on a 2-core VM (Python 3.11):
# (3,6), 1,093 entries, 0.10 s; (4,5), 1,365, 0.18 s; (10,3), 1,111,
# 0.19 s; (36,2), 1,333, 0.49 s (a 630-row minor); beyond the cap, (6,4),
# 1,555, 0.29 s; (3,7), 3,280, 0.70 s, 41 MB peak RSS.
MAX_SERIES_ENTRIES = 1400


def _lyndon_positions(rank: int, w: int):
    """Indices, within a degree-w block, of the monomials whose word is Lyndon.

    Index i of a block holds the monomial whose letters are the w base-rank
    digits of i, most significant first, so `itertools.product` lists the
    words in index order.  A word is Lyndon when it is strictly smaller than
    each of its proper rotations.
    """
    return [
        i
        for i, word in enumerate(itertools.product(range(rank), repeat=w))
        if all(word < word[k:] + word[:k] for k in range(1, w))
    ]


def _binom(e: int, k: int) -> int:
    num = 1
    for j in range(k):
        num *= e - j
    return num // math.factorial(k)


class GroupContext:
    """Rank, class, Hall basis and the precomputed truncated-series tables."""

    _cache: dict = {}

    def __init__(self, rank: int, nilpotency_class: int):
        if rank < 2:
            raise InputError("rank must be at least 2, got %r" % (rank,))
        if nilpotency_class < 1:
            raise InputError(
                "nilpotency class must be at least 1, got %r" % (nilpotency_class,)
            )
        # sum the sizes one degree at a time, so a huge input stops at once
        size = 0
        for d in range(nilpotency_class + 1):
            size += rank**d
            if size > MAX_SERIES_ENTRIES:
                raise InputError(
                    "rank %d, class %d needs series of more than %d entries"
                    % (rank, nilpotency_class, MAX_SERIES_ENTRIES)
                )
        self.rank = rank
        self.nilpotency_class = nilpotency_class
        self.basis = tuple(_build_basis(rank, nilpotency_class))
        self.dim = len(self.basis)
        self._shape_index = {b.shape: b.index for b in self.basis}
        starts = {}
        for b in self.basis:
            starts.setdefault(b.weight, b.index)
        self._weight_ranges = {}
        for w in range(1, nilpotency_class + 1):
            lo = starts[w]
            hi = starts.get(w + 1, self.dim)
            self._weight_ranges[w] = (lo, hi)
        s = nilpotency_class
        self._deg_sizes = [rank**d for d in range(s + 1)]
        # where each degree's block starts when the series is laid out flat,
        # degree by degree; the last entry is the flat length.  The product
        # of monomials at flat positions p and q (q of degree d) sits at
        # p * rank**d + q, since offsets[d1 + d] = offsets[d1] * rank**d +
        # offsets[d]
        self._deg_offsets = [0]
        for size in self._deg_sizes:
            self._deg_offsets.append(self._deg_offsets[-1] + size)
        # each basis factor b as the sparse triples of the nonzero powers of
        # b - 1; a light factor (2 * weight > s) keeps b - 1 alone.  A bracket
        # [u, v] is (u^-1 v^-1)(u v), its inverses scattered from those triples
        basis_series = []
        self._bterms = []
        for b in self.basis:
            if isinstance(b.shape, tuple):
                u, v = (basis_series[i] for i in b.shape)
                inv_u, inv_v = (_binomial_series(self, self._bterms[i], -1) for i in b.shape)
                ser = _series_mul(self, _series_mul(self, inv_u, inv_v), _series_mul(self, u, v))
            else:
                ser = _unit_series(self)
                ser[1][b.shape] = 1
            basis_series.append(ser)
            self._bterms.append(_unit_powers(self, ser))
        # the degree-w block of a weight-w basis series is its Hall
        # polynomial; restricted to the Lyndon-word entries these form a
        # square integer matrix of det +-1 (Chen-Fox-Lyndon; Reutenauer,
        # Free Lie Algebras, 1993), so one integer inverse per weight reads
        # the coordinates off without division
        self._solvers = {}
        for w in range(1, s + 1):
            lo, hi = self._weight_ranges[w]
            lyndon = _lyndon_positions(rank, w)
            blocks = [basis_series[i][w] for i in range(lo, hi)]
            minor = IntMatrix._trusted(tuple(tuple(blk[p] for blk in blocks) for p in lyndon))
            polys = [[(p, v) for p, v in enumerate(blk) if v] for blk in blocks]
            self._solvers[w] = (lyndon, minor.inverse_unimodular().rows, polys)

    @classmethod
    def get(cls, rank: int, nilpotency_class: int) -> "GroupContext":
        key = (rank, nilpotency_class)
        ctx = cls._cache.get(key)
        if ctx is None:
            ctx = cls(rank, nilpotency_class)
            cls._cache[key] = ctx
        return ctx

    def weight_range(self, w: int):
        if w not in self._weight_ranges:
            raise InputError("weight %r out of range 1..%d" % (w, self.nilpotency_class))
        return self._weight_ranges[w]

    def __eq__(self, other):
        return (
            isinstance(other, GroupContext)
            and self.rank == other.rank
            and self.nilpotency_class == other.nilpotency_class
        )

    def __hash__(self):
        return hash((self.rank, self.nilpotency_class))

    def __repr__(self):
        return "GroupContext(rank=%d, class=%d)" % (self.rank, self.nilpotency_class)


# ---------------------------------------------------------------------------
# truncated-series arithmetic (internal)
# ---------------------------------------------------------------------------


def _zero_series(ctx):
    return [[0] * size for size in ctx._deg_sizes]


def _unit_series(ctx):
    ser = _zero_series(ctx)
    ser[0][0] = 1
    return ser


def _series_mul(ctx, a, b):
    s = ctx.nilpotency_class
    sizes = ctx._deg_sizes
    out = [[0] * size for size in sizes]
    for d1 in range(s + 1):
        ad = a[d1]
        if not any(ad):
            continue
        for d2 in range(s + 1 - d1):
            bd = b[d2]
            if not any(bd):
                continue
            od = out[d1 + d2]
            if d1 == 0:
                c = ad[0]
                for j, y in enumerate(bd):
                    if y:
                        od[j] += c * y
            elif d2 == 0:
                c = bd[0]
                for i, x in enumerate(ad):
                    if x:
                        od[i] += x * c
            else:
                width = sizes[d2]
                for i, x in enumerate(ad):
                    if x:
                        base = i * width
                        for j, y in enumerate(bd):
                            if y:
                                od[base + j] += x * y
    return out


def _scatter_terms(acc, terms, c):
    for d, i, v in terms:
        acc[d][i] += c * v


def _unit_powers(ctx, ser):
    """The nonzero powers u, u^2, ... of u = ser - 1, each as its sparse
    (degree, index, value) triples.

    If u starts in degree w, u^k starts in degree k * w (the free associative
    ring has no zero divisors), so exactly s // w powers survive truncation:
    one alone when 2 * w > s, with no product formed."""
    s = ctx.nilpotency_class
    u = [list(blk) for blk in ser]
    u[0][0] = 0
    low = next((d for d in range(1, s + 1) if any(u[d])), s + 1)
    powers = []
    cur = u
    for k in range(s // low):
        if k:
            cur = _series_mul(ctx, cur, u)
        powers.append([(d, i, v) for d, blk in enumerate(cur) for i, v in enumerate(blk) if v])
    return powers


def _binomial_series(ctx, powers, e):
    """(1 + u)^e = sum of binom(e, k) u^k for any integer e, from the powers
    of u; the sum is finite because u^k vanishes beyond k = s."""
    out = _unit_series(ctx)
    for k, terms in enumerate(powers, start=1):
        c = _binom(e, k)
        if c:
            _scatter_terms(out, terms, c)
    return out


def _series_comm(ctx, a, b):
    ab = _series_mul(ctx, a, b)
    ba = _series_mul(ctx, b, a)
    return _series_mul(ctx, _binomial_series(ctx, _unit_powers(ctx, ba), -1), ab)


def _ordered_product(ctx, factors):
    """The series of the ordered product of b_i^e over the (i, e) pairs.

    Light basis factors (2 * weight > s) keep only b_i - 1: they have no
    surviving squares or cross terms, so their ordered product collapses to
    1 + sum of e * (b_i - 1) exactly.  They must come after every other
    factor, and only the ones before them need genuine series
    multiplications.
    """
    out = None
    tail = None
    for i, e in factors:
        if not e:
            continue
        powers = ctx._bterms[i]
        if len(powers) == 1:
            if tail is None:
                tail = _unit_series(ctx)
            _scatter_terms(tail, powers[0], e)
        else:
            f = _binomial_series(ctx, powers, e)
            out = f if out is None else _series_mul(ctx, out, f)
    if tail is not None:
        out = tail if out is None else _series_mul(ctx, out, tail)
    return out if out is not None else _unit_series(ctx)


def _series_of_coords(ctx, exps):
    return _ordered_product(ctx, enumerate(exps))


def _series_to_coords(ctx, ser):
    """Collected exponent vector of a series that represents a group element;
    `InternalError` if no exponent vector reproduces the series."""
    s = ctx.nilpotency_class
    exps = [0] * ctx.dim
    r = ser
    for w in range(1, s + 1):
        lo, hi = ctx._weight_ranges[w]
        lyndon, inv, polys = ctx._solvers[w]
        block = r[w]
        entries = [block[p] for p in lyndon]
        coords = [sum(a * x for a, x in zip(row, entries) if a and x) for row in inv]
        # the weight-w block of a group image is the sum of c_k times the
        # Hall polynomials P_k; a nonzero residual means it is not one
        residual = list(block)
        for c, poly in zip(coords, polys):
            if c:
                for p, v in poly:
                    residual[p] -= c * v
        if any(residual):
            raise InternalError("series is not a group image at weight %d" % w)
        exps[lo:hi] = coords
        if any(coords) and w < s:
            # left-divide by the weight-w prefix: its inverse is the product
            # of the negated-exponent factors in reverse order
            pairs = [(lo + k, -c) for k, c in enumerate(coords)]
            r = _series_mul(ctx, _ordered_product(ctx, reversed(pairs)), r)
    return tuple(exps)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


class GroupElement:
    """A group element, held as its truncated Magnus series.

    The series is the element: products, powers, equality, hashing, the
    weight, the identity test, the abelianization and the class projection
    all read it.  The Hall exponents are the boundary format, cached in
    `_exponents`: elements built from exponents keep the ones they were
    given, and results read them off at the first `.exponents`, checked
    weight by weight to reproduce the series, so every exponent vector that
    leaves the engine went through that check.  A stored series is shared
    and never mutated in place.
    """

    __slots__ = ("context", "_exponents", "_series")

    def __init__(self, context: GroupContext, exponents):
        self.context = context
        self._exponents = tuple(exponents)
        self._series = _series_of_coords(context, self._exponents)

    @property
    def exponents(self):
        if self._exponents is None:
            self._exponents = _series_to_coords(self.context, self._series)
        return self._exponents

    def is_identity(self) -> bool:
        return not any(any(blk) for blk in self._series[1:])

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.context == other.context
            and self._series == other._series
        )

    def __hash__(self):
        ctx = self.context
        return hash((ctx.rank, ctx.nilpotency_class, tuple(map(tuple, self._series))))

    def __mul__(self, other):
        return multiply(self, other)

    def __pow__(self, k):
        return power(self, k)

    def __repr__(self):
        return "<%s>" % format_element(self)


def _from_series(ctx: GroupContext, ser) -> GroupElement:
    # the only place a series becomes an element: keep the series and read
    # the coordinates off only when something asks for them
    if ser[0][0] != 1:
        raise InternalError("series is not a group image")
    g = GroupElement.__new__(GroupElement)
    g.context = ctx
    g._exponents = None
    g._series = ser
    return g


def identity(ctx: GroupContext) -> GroupElement:
    return GroupElement(ctx, (0,) * ctx.dim)


def generator(ctx: GroupContext, i: int) -> GroupElement:
    """The i-th free generator, 1-based as in the text grammar."""
    if not 1 <= i <= ctx.rank:
        raise InputError("generator index %r out of range 1..%d" % (i, ctx.rank))
    exps = [0] * ctx.dim
    exps[i - 1] = 1
    return GroupElement(ctx, exps)


def basis_element(ctx: GroupContext, index: int) -> GroupElement:
    if not 0 <= index < ctx.dim:
        raise InputError("basis index %r out of range" % (index,))
    exps = [0] * ctx.dim
    exps[index] = 1
    return GroupElement(ctx, exps)


def from_exponents(ctx: GroupContext, exps) -> GroupElement:
    exps = tuple(int(e) for e in exps)
    if len(exps) != ctx.dim:
        raise InputError(
            "expected %d exponents for %r, got %d" % (ctx.dim, ctx, len(exps))
        )
    return GroupElement(ctx, exps)


def _same_context(g: GroupElement, h: GroupElement) -> GroupContext:
    if g.context != h.context:
        raise InputError("context mismatch: %r vs %r" % (g.context, h.context))
    return g.context


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    """Collected product g * h."""
    ctx = _same_context(g, h)
    return _from_series(ctx, _series_mul(ctx, g._series, h._series))


def invert(g: GroupElement) -> GroupElement:
    return power(g, -1)


def power(g: GroupElement, k: int) -> GroupElement:
    """k-th power for any integer k, exact and independent of |k|."""
    ctx = g.context
    return _from_series(ctx, _binomial_series(ctx, _unit_powers(ctx, g._series), int(k)))


def commutator(g: GroupElement, h: GroupElement) -> GroupElement:
    """[g, h] = g^-1 h^-1 g h."""
    ctx = _same_context(g, h)
    return _from_series(ctx, _series_comm(ctx, g._series, h._series))


def weight(g: GroupElement) -> int:
    """Largest m with g in N_m; the identity returns the sentinel s + 1."""
    s = g.context.nilpotency_class
    for w in range(1, s + 1):
        if any(g._series[w]):
            return w
    return s + 1


def abelianization(g: GroupElement) -> tuple:
    """Image of g in Z^rank: its weight-1 exponents, the degree-1 block of
    its series."""
    return tuple(g._series[1])


def project_to_class(g: GroupElement, m: int) -> GroupElement:
    """Image of g in the class-m quotient context (a group homomorphism):
    the series truncated above degree m."""
    ctx = g.context
    if not 1 <= m <= ctx.nilpotency_class:
        raise InputError("class %r out of range 1..%d" % (m, ctx.nilpotency_class))
    if m == ctx.nilpotency_class:
        return g
    return _from_series(GroupContext.get(ctx.rank, m), g._series[: m + 1])


# ---------------------------------------------------------------------------
# words and collection
# ---------------------------------------------------------------------------


def collect(ctx: GroupContext, word) -> GroupElement:
    """Collected normal form of a word in the free generators.

    The word is any iterable of (generator index, sign) pairs with 1-based
    indices and signs in {+1, -1}.  Concatenation of words maps to
    multiplication of the collected elements.
    """
    ser = _unit_series(ctx)
    factors = {}
    for i, s in word:
        f = factors.get((i, s))
        if f is None:
            if not 1 <= i <= ctx.rank:
                raise InputError("generator index %r out of range 1..%d" % (i, ctx.rank))
            if s not in (1, -1):
                raise InputError("letter sign must be +1 or -1, got %r" % (s,))
            f = factors[i, s] = _binomial_series(ctx, ctx._bterms[i - 1], s)
        ser = _series_mul(ctx, ser, f)
    return _from_series(ctx, ser)


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

_GEN_RE = re.compile(r"x(\d+)")
_INT_RE = re.compile(r"[+-]?\d+")


def _parse_atom(ctx, text, pos):
    if text[pos] == "x":
        m = _GEN_RE.match(text, pos)
        if not m:
            raise InputError("malformed generator at position %d in %r" % (pos, text))
        j = int(m.group(1))
        if not 1 <= j <= ctx.rank:
            raise InputError("generator x%d out of range for rank %d" % (j, ctx.rank))
        return j - 1, m.end()
    if text[pos] == "[":
        left, pos = _parse_atom(ctx, text, pos + 1)
        if pos >= len(text) or text[pos] != ",":
            raise InputError("expected ',' in bracket of %r" % (text,))
        right, pos = _parse_atom(ctx, text, pos + 1)
        if pos >= len(text) or text[pos] != "]":
            raise InputError("expected ']' in bracket of %r" % (text,))
        idx = ctx._shape_index.get((left, right))
        if idx is None:
            raise InputError(
                "bracket [%s,%s] is not a basic commutator of this context"
                % (ctx.basis[left].name, ctx.basis[right].name)
            )
        return idx, pos + 1
    raise InputError("unexpected character %r at position %d" % (text[pos], pos))


def parse_element(ctx: GroupContext, text: str) -> GroupElement:
    """Parse the element grammar: products of x<i>^<k> and bracket factors."""
    s = text.strip()
    if s == "1":
        return identity(ctx)
    if not s:
        raise InputError("empty element text")
    pos = 0
    result = identity(ctx)
    while pos < len(s):
        if s[pos].isspace():
            pos += 1
            continue
        idx, pos = _parse_atom(ctx, s, pos)
        exp = 1
        if pos < len(s) and s[pos] == "^":
            m = _INT_RE.match(s, pos + 1)
            if not m:
                raise InputError("malformed exponent in %r" % (text,))
            exp = int(m.group(0))
            pos = m.end()
        result = multiply(result, power(basis_element(ctx, idx), exp))
    return result


def format_element(g: GroupElement) -> str:
    """Canonical text: factors in basis order, zero exponents omitted."""
    parts = []
    for b, e in zip(g.context.basis, g.exponents):
        if e == 1:
            parts.append(b.name)
        elif e:
            parts.append("%s^%d" % (b.name, e))
    return " ".join(parts) if parts else "1"

