"""Seeded sampling of elements, automorphisms, and symmetry families.

Everything takes an explicit random.Random so callers own determinism.
"""

from __future__ import annotations

from .automorphisms import (
    Endomorphism,
    canonical_symmetry,
    compose,
    conjugate,
    identity_endomorphism,
    inner,
    lift_matrix,
)
from .errors import InternalError
from .glz import random_unimodular
from .nilgroup import GroupContext, GroupElement, from_exponents, generator

__all__ = [
    "random_element",
    "random_element_of_weight",
    "random_ia",
    "random_k_member",
    "random_automorphism",
    "conjugated_symmetry",
    "ia_perturbed_symmetry",
    "symmetry_sample",
]


def random_element(ctx: GroupContext, rng, bound: int = 4) -> GroupElement:
    return from_exponents(ctx, [rng.randint(-bound, bound) for _ in range(ctx.dim)])


def random_element_of_weight(ctx: GroupContext, rng, m: int, bound: int = 4) -> GroupElement:
    """An element of N_m but not N_{m+1} (weight exactly m)."""
    lo, hi = ctx.weight_range(m)
    exps = [0] * ctx.dim
    for i in range(lo, ctx.dim):
        exps[i] = rng.randint(-bound, bound)
    while not any(exps[lo:hi]):
        exps[rng.randrange(lo, hi)] = rng.choice([x for x in range(-bound, bound + 1) if x])
    return from_exponents(ctx, exps)


def _random_tail(ctx, rng, min_weight, bound):
    lo = ctx.weight_range(min_weight)[0]
    exps = [0] * ctx.dim
    for i in range(lo, ctx.dim):
        exps[i] = rng.randint(-bound, bound)
    return from_exponents(ctx, exps)


def random_ia(ctx: GroupContext, rng, bound: int = 3) -> Endomorphism:
    """x_j -> x_j t_j with t_j in N_2: exactly the IA automorphisms."""
    return random_k_member(ctx, rng, 1, bound)


def random_k_member(ctx: GroupContext, rng, m: int, bound: int = 3, nontrivial: bool = False) -> Endomorphism:
    """A member of K_m: x_j -> x_j t_j with every t_j in N_{m+1}."""
    if not 1 <= m <= ctx.nilpotency_class:
        raise ValueError("filtration index out of range")
    if m == ctx.nilpotency_class:
        if nontrivial:
            raise ValueError("K_s is trivial; no nontrivial member exists")
        return identity_endomorphism(ctx)
    while True:
        images = []
        moved = False
        for j in range(ctx.rank):
            tail = _random_tail(ctx, rng, m + 1, bound)
            if not tail.is_identity():
                moved = True
            exps = list(tail.exponents)
            exps[j] += 1
            images.append(from_exponents(ctx, exps))
        if moved or not nontrivial:
            return Endomorphism(ctx, images)


def random_automorphism(ctx: GroupContext, rng) -> Endomorphism:
    mat = random_unimodular(rng, ctx.rank)
    return compose(lift_matrix(ctx, mat), random_ia(ctx, rng))


def conjugated_symmetry(ctx: GroupContext, rng) -> Endomorphism:
    c = random_automorphism(ctx, rng)
    return conjugate(c, canonical_symmetry(ctx))


def ia_perturbed_symmetry(ctx: GroupContext, rng) -> Endomorphism:
    """An involution in the IA coset of a symmetry that is not built as a
    plain conjugate: a conjugate of inner(x_j) o theta."""
    j = rng.randint(1, ctx.rank)
    base = compose(inner(generator(ctx, j)), canonical_symmetry(ctx))
    c = random_automorphism(ctx, rng)
    return conjugate(c, base)


def symmetry_sample(ctx: GroupContext, rng, conjugates: int = 20, perturbed: int = 10):
    """Stratified involution sample: the canonical symmetry, conjugated
    symmetries, and IA-composed members of the same coset family.

    Returns (label, involution) pairs; every entry squares to the identity.
    """
    ident = identity_endomorphism(ctx)
    out = [("canonical", canonical_symmetry(ctx))]
    for _ in range(conjugates):
        out.append(("conjugated", conjugated_symmetry(ctx, rng)))
    for _ in range(perturbed):
        out.append(("ia_perturbed", ia_perturbed_symmetry(ctx, rng)))
    for label, theta in out:
        if compose(theta, theta) != ident:
            raise InternalError("sampled %s member is not an involution" % label)
    return out
