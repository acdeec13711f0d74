"""Endomorphisms and automorphisms of a free nilpotent group.

An endomorphism is determined by the images of the free generators; it
extends uniquely to the whole group by freeness.  This module hosts the
kernel filtration K_m (automorphisms acting trivially on the class-m
quotient), symmetries, inner automorphisms and matrix lifting.

Composition order is (f o g)(x) = f(g(x)); products of automorphisms
written multiplicatively mean composition in this order.  Conjugation by a
group element x is g -> x g x^-1.
"""

from __future__ import annotations

from operator import add, mul, sub

from .errors import DomainError, InputError, InternalError
from .glz import IntMatrix
from .nilgroup import (
    GroupContext,
    GroupElement,
    _from_series,
    abelianization,
    format_element,
    from_exponents,
    generator,
    invert,
    multiply,
)

__all__ = [
    "Endomorphism",
    "identity_endomorphism",
    "apply",
    "compose",
    "conjugate",
    "abelianization_matrix",
    "is_automorphism",
    "invert_automorphism",
    "in_K",
    "agree_modulo_K",
    "k_depth",
    "inner",
    "canonical_symmetry",
    "lift_matrix",
    "endomorphism_to_json",
]


_UNIT_IMAGE = ((0, 1),)


class Endomorphism:
    """Map of generators to group elements, extended by freeness.

    `apply` substitutes f(x_j) - 1 for X_j in the series of its input, so it
    needs the image of every monomial.  Series are laid out flat, degree by
    degree (`GroupContext._deg_offsets`), and `_mon_images` maps the flat
    position of a monomial to the nonzero entries of its image, as
    (flat position, value) pairs in position order.  Only monomials of
    degree below s have images: valuations add, so the top block of an
    image is A^(x)s applied to the input's, for A the abelianized matrix,
    and `apply` forms it one tensor factor at a time, as
    `invert_automorphism` does for A^-1.  `_depth` caches `k_depth(f)`,
    read off the series of the images of f on first need.  When f lies in
    K_d, every monomial of degree above s - d maps to itself, so no image
    is stored for it: those blocks, and for d >= 1 the top degree, are
    added as they are.  `invert_automorphism` scatters through the same
    images.  `_cols` holds the rows of A once `apply` first needs them at
    depth 0; when A is -I, as for every symmetry and its conjugates, it
    holds the sign (-1)^s instead, and the top block of an image is (-1)^s
    times the input's, added as one slice.
    """

    __slots__ = ("context", "images", "_mon_images", "_cols", "_depth", "_inverse")

    def __init__(self, context: GroupContext, images):
        images = tuple(images)
        if len(images) != context.rank:
            raise InputError(
                "expected %d generator images, got %d" % (context.rank, len(images))
            )
        for img in images:
            if not isinstance(img, GroupElement) or img.context != context:
                raise InputError("generator image in the wrong context")
        self.context = context
        self.images = images
        # the empty monomial maps to 1, the root of every image below
        self._mon_images = {0: _UNIT_IMAGE}
        self._cols = None
        self._depth = None
        self._inverse = None

    def _monomial_image(self, pos):
        # pairs of the image of the monomial w x_j at flat position pos, of
        # degree below s: those of w, at (pos - 1) // rank, times the series
        # of f(x_j) minus its constant
        ctx = self.context
        rank = ctx.rank
        sizes = ctx._deg_sizes
        offsets = ctx._deg_offsets
        end = offsets[-1]
        parent = self._mon_images.get((pos - 1) // rank)
        if parent is None:
            parent = self._monomial_image((pos - 1) // rank)
        ser = self.images[(pos - 1) % rank]._series
        hit = []
        if parent:
            # every product lies at or after the first parent pair times X_1
            lo = parent[0][0] * rank + 1
            span = end - lo
            acc = [0] * span
            for d in range(1, len(sizes)):
                scale = sizes[d]
                off = offsets[d] - lo
                if parent[0][0] * scale + off >= span:
                    break
                terms = [(i, b) for i, b in enumerate(ser[d]) if b]
                for p, a in parent:
                    base = p * scale + off
                    if base >= span:
                        break
                    for i, b in terms:
                        acc[base + i] += a * b
            hit = [(lo + i, v) for i, v in enumerate(acc) if v]
        self._mon_images[pos] = hit
        return hit

    def _scatter(self, out, k, blk):
        # out += blk[i] times the image of the i-th monomial of degree k; in
        # K_d one of degree above s - d is its own image
        ctx = self.context
        lo = ctx._deg_offsets[k]
        if k > ctx.nilpotency_class - _filtration_depth(self):
            hi = lo + len(blk)
            out[lo:hi] = map(add, out[lo:hi], blk)
            return
        for idx, c in enumerate(blk):
            if c:
                img = self._mon_images.get(lo + idx)
                if img is None:
                    img = self._monomial_image(lo + idx)
                for p, v in img:
                    out[p] += c * v

    def __eq__(self, other):
        return (
            isinstance(other, Endomorphism)
            and self.context == other.context
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.context, self.images))

    def __call__(self, g: GroupElement) -> GroupElement:
        return apply(self, g)

    def __repr__(self):
        body = ", ".join(
            "x%d->%s" % (j + 1, format_element(img)) for j, img in enumerate(self.images)
        )
        return "Endomorphism(%s)" % body


def identity_endomorphism(ctx: GroupContext) -> Endomorphism:
    """The identity map, built once per context; it stores no monomial image."""
    if ctx._identity is None:
        ctx._identity = lift_matrix(ctx, IntMatrix.identity(ctx.rank))
    return ctx._identity


def apply(f: Endomorphism, g: GroupElement) -> GroupElement:
    """Image of g: substitute generator images into any word for g.

    Computed by pushing the series of g through the substitution
    homomorphism, which agrees with word substitution plus collection and
    does not depend on the representing word.  Each monomial of degree
    below s scatters its cached image pairs into one flat series, except
    that for f in K_d the blocks of degree above s - d are added as they
    are.  For d >= 1 so is the top degree.  At depth 0 the top block is
    A^(x)s applied to the input's, for A the abelianized matrix: one
    tensor factor at a time, or for A = -I the input's top block times
    (-1)^s, added as one slice.
    """
    ctx = f.context
    if g.context != ctx:
        raise InputError("element context does not match endomorphism context")
    src = g._series
    s = ctx.nilpotency_class
    offsets = ctx._deg_offsets
    out = [0] * offsets[-1]
    out[0] = 1
    for deg in range(1, s):
        f._scatter(out, deg, src[deg])
    top_lo = offsets[s]
    if _filtration_depth(f):
        # in K_1 the abelianized matrix is the identity
        f._scatter(out, s, src[s])
    else:
        if f._cols is None:
            mat = abelianization_matrix(f)
            # A = -I (A = I would put f in K_1) makes A^(x)s the scalar (-1)^s
            f._cols = (-1) ** s if (-mat).is_identity() else mat.rows
        rows = f._cols
        if type(rows) is int:
            out[top_lo:] = map(add if rows > 0 else sub, out[top_lo:], src[s])
        else:
            out[top_lo:] = map(add, out[top_lo:], _tensor_power(rows, src[s], s))
    return _from_series(ctx, [out[offsets[d] : offsets[d + 1]] for d in range(s + 1)])


def compose(f: Endomorphism, g: Endomorphism) -> Endomorphism:
    """(f o g)(x) = f(g(x)); the abelianized matrix is the product."""
    if f.context != g.context:
        raise InputError("context mismatch in composition")
    return Endomorphism(f.context, tuple(apply(f, img) for img in g.images))


def conjugate(c: Endomorphism, f: Endomorphism) -> Endomorphism:
    """The conjugate c f c^-1 of f by the automorphism c."""
    # right-associated, so the maps applied are c and f, whose monomial
    # images stay cached across calls, not the fresh composite c o f
    return compose(c, compose(f, invert_automorphism(c)))


def abelianization_matrix(f: Endomorphism) -> IntMatrix:
    """Column j is the abelianized image of x_j."""
    return IntMatrix(zip(*map(abelianization, f.images)))


def is_automorphism(f: Endomorphism) -> bool:
    """Invertible iff the abelianization is unimodular."""
    return abelianization_matrix(f).det() in (1, -1)


def _defect_weight(f: Endomorphism, j: int) -> int:
    # the weight of the defect D = x_j^-1 f(x_j), read off the series of
    # f(x_j): that series is (1 + X_j)(1 + (D - 1)), and X_j (D - 1) starts
    # one degree above D - 1, so the lowest degree where it differs from
    # 1 + X_j is the weight of D, with the block of D - 1 there
    ser = f.images[j]._series
    if any(v != (i == j) for i, v in enumerate(ser[1])):
        return 1
    s = f.context.nilpotency_class
    for d in range(2, s + 1):
        if any(ser[d]):
            return d
    return s + 1


def _filtration_depth(f: Endomorphism) -> int:
    # k_depth(f), read off the series of f's own images on first need
    depth = f._depth
    if depth is None:
        s = f.context.nilpotency_class
        depth = s + 1
        for j in range(f.context.rank):
            depth = min(depth, _defect_weight(f, j) - 1)
            if depth == 0:
                break
        # depth == s would force every defect to be trivial, i.e. the identity
        if depth == s:
            depth = s + 1
        f._depth = depth
    return depth


def _is_identity(f: Endomorphism) -> bool:
    # every defect weight is the sentinel s + 1
    return _filtration_depth(f) > f.context.nilpotency_class


def k_depth(f: Endomorphism) -> int:
    """Largest m with f in K_m; 0 when f moves the abelianization, and the
    sentinel s + 1 for the identity automorphism."""
    return _filtration_depth(f)


def in_K(f: Endomorphism, m: int) -> bool:
    """Membership in the kernel of Aut N -> Aut(N / N_{m+1}).

    in_K(f, 1) is the IA test and in_K(f, s) tests triviality.
    """
    ctx = f.context
    if not 1 <= m <= ctx.nilpotency_class:
        raise InputError("filtration index %r out of range 1..%d" % (m, ctx.nilpotency_class))
    # depth >= 1 already shows the abelianization is the identity
    depth = _filtration_depth(f)
    if not depth and not is_automorphism(f):
        raise DomainError("filtration membership is defined for automorphisms")
    return depth >= m


def agree_modulo_K(f: Endomorphism, g: Endomorphism, m: int) -> bool:
    """Whether g^-1 f lies in K_m, for automorphisms f and g; no inverse is
    formed.

    g^-1 f is in K_m iff f(x_j) and g(x_j) agree modulo N_{m+1} for every
    j (apply g; N_{m+1} is characteristic), and since valuations add, iff
    the series of f(x_j) and g(x_j) agree in every degree up to m.  For
    m > s that is every degree, so agree_modulo_K(f, g, s + 1) is f == g.
    """
    if f.context != g.context:
        raise InputError("context mismatch in filtration agreement")
    if m < 1:
        raise InputError("filtration index %r out of range" % (m,))
    top = min(m, f.context.nilpotency_class) + 1
    return all(a._series[:top] == b._series[:top] for a, b in zip(f.images, g.images))


def _tensor_power(rows, vec, k):
    # rows^(x)k applied to vec, whose flat index has k digits in base n:
    # act on the leading digit, then rotate it to the end, k times
    m = len(vec) // len(rows)
    for _ in range(k):
        vec = [sum(map(mul, row, col)) for col in [vec[lo::m] for lo in range(m)] for row in rows]
    return vec


def invert_automorphism(f: Endomorphism) -> Endomorphism:
    """Inverse automorphism by one block-triangular solve.

    The substitution F of f is block lower-triangular by degree, with
    degree-k diagonal block A^(x)k for A the abelianized matrix.  So the
    degree-k block of f^-1(x_j) = F^-1(1 + X_j) is (A^-1)^(x)k, one tensor
    factor at a time, on that of 1 + X_j minus F of the blocks below, which
    scatter through the monomial images of f below degree s.  For f in
    K_d with d >= 1, A is the identity, so the solve applies no tensor
    power, and the blocks of degree above s - d are added as they are.

    The result h is checked by h o f == id alone.  That check applies h's
    own monomial images, not the scatter of f that built h.  f is bijective
    (its abelianization is unimodular, so f is onto, and a finitely
    generated nilpotent group is Hopfian), so h o f == id gives h == f^-1,
    and f o h == id follows.  The check applies a throwaway map over the
    solved images; callers only compose with an inverse, never apply it, so
    the cached one is fresh and holds no monomial image but the unit.

    This is the only writer of the inverse cache: the result is cached on
    f, so inverting f again is a lookup.  f is not cached on the result:
    that back-pointer would make every inverted pair a reference cycle,
    freed only by the cyclic collector.
    """
    if f._inverse is not None:
        return f._inverse
    ctx = f.context
    s = ctx.nilpotency_class
    offsets = ctx._deg_offsets
    # in K_1, A^-1 is the identity; at depth 0 the solve for A^-1 is the
    # unimodularity test
    binv = None
    if not _filtration_depth(f):
        try:
            binv = abelianization_matrix(f).inverse_unimodular().rows
        except DomainError as exc:
            raise DomainError("endomorphism is not an automorphism") from exc
    images = []
    for j in range(ctx.rank):
        # F of the blocks solved so far minus 1 + X_j, laid out flat
        acc = [0] * offsets[-1]
        acc[offsets[1] + j] = -1
        ser = [[1]]
        for k in range(1, s + 1):
            blk = [-v for v in acc[offsets[k] : offsets[k + 1]]]
            ser.append(blk if binv is None else _tensor_power(binv, blk, k))
            if k < s:
                f._scatter(acc, k, ser[k])
        images.append(_from_series(ctx, ser))
    if not _is_identity(compose(Endomorphism(ctx, images), f)):
        raise InternalError("the computed inverse is not a left inverse")
    f._inverse = Endomorphism(ctx, images)
    return f._inverse


def inner(x: GroupElement) -> Endomorphism:
    """Conjugation g -> x g x^-1; a homomorphism from N with kernel the center."""
    ctx = x.context
    xinv = invert(x)
    images = [
        multiply(multiply(x, generator(ctx, j)), xinv) for j in range(1, ctx.rank + 1)
    ]
    return Endomorphism(ctx, images)


def canonical_symmetry(ctx: GroupContext) -> Endomorphism:
    """The symmetry inverting the standard generators."""
    return lift_matrix(ctx, -IntMatrix.identity(ctx.rank))


def lift_matrix(ctx: GroupContext, mat: IntMatrix) -> Endomorphism:
    """The automorphism x_j -> x_1^{M_1j} ... x_n^{M_nj}.

    Requires det(M) in {1, -1}; the abelianized matrix of the result is M.
    """
    if not (mat.is_square and mat.nrows == ctx.rank):
        raise InputError("matrix shape does not match the context rank")
    if mat.det() not in (1, -1):
        raise DomainError("lift requires a unimodular matrix")
    # ascending products of generator powers are already collected
    pad = (0,) * (ctx.dim - ctx.rank)
    return Endomorphism(ctx, [from_exponents(ctx, col + pad) for col in zip(*mat.rows)])


def endomorphism_to_json(f: Endomorphism) -> dict:
    return {
        "x%d" % (j + 1): format_element(img) for j, img in enumerate(f.images)
    }

