"""Endomorphisms and automorphisms of a free nilpotent group.

An endomorphism is determined by the images of the free generators; it
extends uniquely to the whole group by freeness.  This module hosts the
kernel filtration K_m (automorphisms acting trivially on the class-m
quotient), symmetries, inner automorphisms, matrix lifting, and the class
reduction homomorphism.

Composition order is (f o g)(x) = f(g(x)); products of automorphisms
written multiplicatively mean composition in this order.  Conjugation by a
group element x is g -> x g x^-1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InputError, InternalError
from .glz import IntMatrix
from .nilgroup import (
    GroupContext,
    GroupElement,
    _from_series,
    _series_mul,
    _zero_series,
    format_element,
    invert,
    multiply,
    parse_element,
    project_to_class,
    weight,
)

__all__ = [
    "Endomorphism",
    "AutomorphismCertificate",
    "identity_endomorphism",
    "apply",
    "compose",
    "conjugate",
    "abelianization_matrix",
    "is_automorphism",
    "invert_automorphism",
    "in_K",
    "k_depth",
    "inner",
    "canonical_symmetry",
    "symmetry_from_automorphism",
    "lift_matrix",
    "reduce_class",
    "endomorphism_to_json",
    "endomorphism_from_json",
]


@dataclass(frozen=True)
class AutomorphismCertificate:
    abelianized: IntMatrix
    det: int


class Endomorphism:
    """Map of generators to group elements, extended by freeness."""

    __slots__ = ("context", "images", "_mon_images", "_inverse")

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
        self._mon_images = {}
        self._inverse = None

    def _monomial_image(self, deg, idx):
        # image of a degree-deg monomial in the X_i; at degree 1 it is the
        # series of the generator's image minus 1, the substitution target
        key = (deg, idx)
        hit = self._mon_images.get(key)
        if hit is None:
            ctx = self.context
            if deg == 1:
                hit = [list(blk) for blk in self.images[idx]._magnus()]
                hit[0][0] -= 1
            else:
                parent = self._monomial_image(deg - 1, idx // ctx.rank)
                hit = _series_mul(ctx, parent, self._monomial_image(1, idx % ctx.rank))
            self._mon_images[key] = hit
        return hit

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
    images = []
    for j in range(ctx.rank):
        exps = [0] * ctx.dim
        exps[j] = 1
        images.append(GroupElement(ctx, exps))
    return Endomorphism(ctx, images)


def apply(f: Endomorphism, g: GroupElement) -> GroupElement:
    """Image of g: substitute generator images into any word for g.

    Computed by pushing the series of g through the substitution
    homomorphism, which agrees with word substitution plus collection and
    does not depend on the representing word.
    """
    ctx = f.context
    if g.context != ctx:
        raise InputError("element context does not match endomorphism context")
    src = g._magnus()
    s = ctx.nilpotency_class
    out = _zero_series(ctx)
    out[0][0] = 1
    for deg in range(1, s + 1):
        blk = src[deg]
        for idx, c in enumerate(blk):
            if c:
                img = f._monomial_image(deg, idx)
                # the image of a degree-d monomial has valuation at least d
                for dd in range(deg, s + 1):
                    ob = out[dd]
                    for i, v in enumerate(img[dd]):
                        if v:
                            ob[i] += c * v
    return _from_series(ctx, out)


def compose(f: Endomorphism, g: Endomorphism) -> Endomorphism:
    """(f o g)(x) = f(g(x)); the abelianized matrix is the product."""
    if f.context != g.context:
        raise InputError("context mismatch in composition")
    return Endomorphism(f.context, tuple(apply(f, img) for img in g.images))


def conjugate(c: Endomorphism, f: Endomorphism) -> Endomorphism:
    """The conjugate c f c^-1 of f by the automorphism c."""
    return compose(compose(c, f), invert_automorphism(c))


def abelianization_matrix(f: Endomorphism) -> IntMatrix:
    """Column j is the abelianized image of x_j."""
    n = f.context.rank
    return IntMatrix(
        [[f.images[j].exponents[i] for j in range(n)] for i in range(n)]
    )


def is_automorphism(f: Endomorphism):
    """(flag, certificate): invertible iff the abelianization is unimodular."""
    mat = abelianization_matrix(f)
    d = mat.det()
    if d in (1, -1):
        return True, AutomorphismCertificate(mat, d)
    return False, None


def _defect(f: Endomorphism, j: int) -> GroupElement:
    # x_j^-1 f(x_j), the deviation of f from the identity at generator j
    ctx = f.context
    exps = [0] * ctx.dim
    exps[j] = -1
    return multiply(GroupElement(ctx, exps), f.images[j])


def k_depth(f: Endomorphism) -> int:
    """Largest m with f in K_m; 0 when f moves the abelianization, and the
    sentinel s + 1 for the identity automorphism."""
    ctx = f.context
    s = ctx.nilpotency_class
    depth = s + 1
    for j in range(ctx.rank):
        depth = min(depth, weight(_defect(f, j)) - 1)
        if depth == 0:
            return 0
    # depth == s would force every defect to be trivial, i.e. the identity
    return depth if depth < s else s + 1


def in_K(f: Endomorphism, m: int) -> bool:
    """Membership in the kernel of Aut N -> Aut(N / N_{m+1}).

    in_K(f, 1) is the IA test and in_K(f, s) tests triviality.
    """
    ctx = f.context
    if not 1 <= m <= ctx.nilpotency_class:
        raise InputError("filtration index %r out of range 1..%d" % (m, ctx.nilpotency_class))
    ok, _ = is_automorphism(f)
    if not ok:
        raise DomainError("filtration membership is defined for automorphisms")
    return all(weight(_defect(f, j)) >= m + 1 for j in range(ctx.rank))


def invert_automorphism(f: Endomorphism) -> Endomorphism:
    """Inverse automorphism via abelianized lift plus filtration refinement.

    Start from the lift of the inverse abelianized matrix; each round
    multiplies by an approximate inverse of the residual, which at least
    doubles its filtration depth, so at most s rounds are needed.

    This is the only writer of the inverse cache: the result is cached on
    f and f is cached on the result, so inverting either one again is a
    lookup.
    """
    if f._inverse is not None:
        return f._inverse
    ok, cert = is_automorphism(f)
    if not ok:
        raise DomainError("endomorphism is not an automorphism")
    ctx = f.context
    ident = identity_endomorphism(ctx)
    h = lift_matrix(ctx, cert.abelianized.inverse_unimodular())
    for _ in range(ctx.nilpotency_class + 1):
        rho = compose(f, h)
        if rho == ident:
            break
        # rho(x_j) = x_j d_j with d_j deep in the filtration; composing with
        # x_j -> x_j d_j^-1 pushes the residual at least twice as deep
        images = []
        for j in range(ctx.rank):
            gen_exps = [0] * ctx.dim
            gen_exps[j] = 1
            gen = GroupElement(ctx, gen_exps)
            images.append(multiply(gen, invert(_defect(rho, j))))
        h = compose(h, Endomorphism(ctx, images))
    else:
        raise InternalError("automorphism inversion failed to converge")
    if compose(h, f) != ident:
        raise InternalError("the computed inverse is only a right inverse")
    f._inverse = h
    h._inverse = f
    return h


def inner(x: GroupElement) -> Endomorphism:
    """Conjugation g -> x g x^-1; a homomorphism from N with kernel the center."""
    ctx = x.context
    xinv = invert(x)
    images = []
    for j in range(ctx.rank):
        exps = [0] * ctx.dim
        exps[j] = 1
        images.append(multiply(multiply(x, GroupElement(ctx, exps)), xinv))
    return Endomorphism(ctx, images)


def canonical_symmetry(ctx: GroupContext) -> Endomorphism:
    """The symmetry inverting the standard generators."""
    images = []
    for j in range(ctx.rank):
        exps = [0] * ctx.dim
        exps[j] = -1
        images.append(GroupElement(ctx, exps))
    return Endomorphism(ctx, images)


def symmetry_from_automorphism(b: Endomorphism) -> Endomorphism:
    """The symmetry inverting the basis {b(x_1), ..., b(x_n)}."""
    ok, _ = is_automorphism(b)
    if not ok:
        raise DomainError("a symmetry needs an automorphism carrying its basis")
    return conjugate(b, canonical_symmetry(b.context))


def lift_matrix(ctx: GroupContext, mat: IntMatrix) -> Endomorphism:
    """The automorphism x_j -> x_1^{M_1j} ... x_n^{M_nj}.

    Requires det(M) in {1, -1}; the abelianized matrix of the result is M.
    """
    if not (mat.is_square and mat.nrows == ctx.rank):
        raise InputError("matrix shape does not match the context rank")
    if mat.det() not in (1, -1):
        raise DomainError("lift requires a unimodular matrix")
    images = []
    for j in range(ctx.rank):
        exps = [0] * ctx.dim
        for i in range(ctx.rank):
            exps[i] = mat.rows[i][j]
        # ascending products of generator powers are already collected
        images.append(GroupElement(ctx, exps))
    return Endomorphism(ctx, images)


def reduce_class(f: Endomorphism) -> Endomorphism:
    """Truncation to the class-(s-1) quotient; a surjective homomorphism
    with kernel {f : in_K(f, s-1)}."""
    ctx = f.context
    if ctx.nilpotency_class < 2:
        raise DomainError("class reduction needs class at least 2")
    ok, _ = is_automorphism(f)
    if not ok:
        raise DomainError("class reduction is defined for automorphisms")
    tgt = GroupContext.get(ctx.rank, ctx.nilpotency_class - 1)
    return Endomorphism(tgt, tuple(project_to_class(img, tgt.nilpotency_class) for img in f.images))


def endomorphism_to_json(f: Endomorphism) -> dict:
    return {
        "x%d" % (j + 1): format_element(img) for j, img in enumerate(f.images)
    }


def endomorphism_from_json(ctx: GroupContext, data: dict) -> Endomorphism:
    images = []
    for j in range(ctx.rank):
        key = "x%d" % (j + 1)
        if key not in data:
            raise InputError("missing image for %s" % key)
        images.append(parse_element(ctx, data[key]))
    return Endomorphism(ctx, images)
