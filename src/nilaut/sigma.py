"""The alternating conjugation recursion on automorphisms.

For an automorphism sigma and involutions phi_1, phi_2, ... the sequence

    sigma_0 = sigma
    sigma_{m+1} = phi_{m+1} sigma_m phi_{m+1} sigma_m^-1   (m even)
    sigma_{m+1} = phi_{m+1} sigma_m phi_{m+1} sigma_m      (m odd)

drops one level deeper into the kernel filtration at every step when the
phi_i are conjugates of an involution that agrees with a symmetry up to an
IA factor; after s steps it reaches the identity.  For involutions outside
that family a non-terminating instance can be built at the abelianized
level and lifted, which yields a concrete refutation witness, certified on
its abelianized recursion (abelianization is a homomorphism to GL(n, Z)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InputError, InternalError
from .automorphisms import (
    Endomorphism,
    _is_identity,
    abelianization_matrix,
    compose,
    conjugate,
    identity_endomorphism,
    invert_automorphism,
    is_automorphism,
    k_depth,
    lift_matrix,
)
from .glz import (
    DIAG_REP,
    IntMatrix,
    InvolutionClass,
    _family_matrix,
    classify_involution2,
    invariant_splitting,
    noncentral_sigma_walk,
)

__all__ = [
    "SigmaTrace",
    "Witness",
    "sigma_sequence",
    "matrix_sigma_sequence",
    "check_involution",
    "necessity_check",
    "find_nontrivial_witness",
]


@dataclass
class SigmaTrace:
    """The s + 1 terms of the recursion and their filtration depths.

    The descent passes when term m lies in K_m for every m up to the class
    s; the violations list the failing m.  K_s is trivial, so term s in K_s
    is the identity: k_depth is s + 1 for the identity and never s.
    """

    terms: list  # Endomorphism, terms[0] is the input
    depths: list  # per-term filtration depth, 0 .. s-1 or the sentinel s+1

    @property
    def violations(self):
        return [m for m, depth in enumerate(self.depths) if depth < m]

    @property
    def passed(self):
        return not self.violations


@dataclass
class Witness:
    sigma: Endomorphism
    theta: Endomorphism
    conjugators: list
    trace: list  # IntMatrix, the abelianized terms 0 .. s of the recursion

    @property
    def thetas(self):
        """The lifted theta_i = rho_i theta rho_i^-1, formed on each access."""
        return [conjugate(rho, self.theta) for rho in self.conjugators]


def check_involution(theta: Endomorphism) -> None:
    """Raise DomainError unless theta has order exactly two."""
    if _is_identity(theta):
        raise DomainError("the identity is excluded; an involution has order two")
    if not _is_identity(compose(theta, theta)):
        raise DomainError("automorphism does not square to the identity")


def sigma_sequence(sigma: Endomorphism, phis) -> SigmaTrace:
    """The s steps of the alternating recursion, one per phi, with depths.

    s is the class, and any other number of phis is an InputError.  Step
    m = s - 1 is the last step of a descent, and inverts when s is odd:
    then term s = phi cur phi cur^-1 is first tested as phi cur phi == cur,
    and is a fresh identity, with no inverse formed, when that holds.
    """
    phis = list(phis)
    ctx = sigma.context
    s = ctx.nilpotency_class
    if len(phis) != s:
        raise InputError("need %d conjugating automorphisms, got %d" % (s, len(phis)))
    for f in [sigma] + phis:
        if f.context != ctx:
            raise InputError("context mismatch in the recursion inputs")
        if not is_automorphism(f):
            raise DomainError("recursion inputs must be automorphisms")
    terms = [sigma]
    cur = sigma
    for m, phi in enumerate(phis):
        if m == s - 1 and m % 2 == 0:
            head = compose(phi, compose(cur, phi))
            if head == cur:
                cur = identity_endomorphism(ctx)
            else:
                cur = compose(head, invert_automorphism(cur))
        else:
            tail = invert_automorphism(cur) if m % 2 == 0 else cur
            # right-associated, so the maps applied are phi and cur, whose
            # monomial images stay cached across calls, not fresh composites
            cur = compose(phi, compose(cur, compose(phi, tail)))
        terms.append(cur)
    return SigmaTrace(terms, [k_depth(t) for t in terms])


def matrix_sigma_sequence(sigma: IntMatrix, phis):
    """The same recursion on integer matrices (the abelianized shadow), one
    step per phi."""
    terms = [sigma]
    cur = sigma
    for m, phi in enumerate(phis):
        tail = cur.inverse_unimodular() if m % 2 == 0 else cur
        cur = phi @ cur @ phi @ tail
        terms.append(cur)
    return terms


def necessity_check(theta: Endomorphism, sigma: Endomorphism, conjugators) -> SigmaTrace:
    """Run the recursion against conjugates of theta and check the descent.

    The composition of the per-involution part, `check_involution(theta)`
    and the conjugates phi_m = c_m theta c_m^-1 of the s conjugators, with
    the per-pair part, `sigma_sequence(sigma, phis)`.  A caller that checks
    many sigmas against one theta runs the first part once.
    """
    check_involution(theta)
    phis = []
    for c in conjugators:
        if not is_automorphism(c):
            raise DomainError("conjugators must be automorphisms")
        phis.append(conjugate(c, theta))
    return sigma_sequence(sigma, phis)


def _embed_block(mat2: IntMatrix, n: int) -> IntMatrix:
    rows = [[0] * n for _ in range(n)]
    for i in range(2):
        for j in range(2):
            rows[i][j] = mat2.rows[i][j]
    for i in range(2, n):
        rows[i][i] = 1
    return IntMatrix(rows)


def find_nontrivial_witness(theta: Endomorphism, m_range=(-5, 5)):
    """A refutation instance for an involution, or None.

    Works at the abelianized level: split off an invariant rank-2 summand
    where the involution acts non-centrally, run the non-central walk in
    its coordinate frame against family members of the same conjugacy
    class, then lift sigma and the conjugators back to the group.  The
    trace is the recursion on the abelianized inputs; its term s, the framed
    walk matrix, certifies the lifted term s non-trivial.  No lifted theta_i
    is formed: `Witness.thetas` builds them on demand.  Involutions whose
    abelianization is minus the identity admit no witness and return None;
    a walk that runs out of m_range raises SearchExhausted.
    """
    check_involution(theta)
    ctx = theta.context
    s = ctx.nilpotency_class
    amat = abelianization_matrix(theta)
    if amat.is_central():
        # -identity: the IA coset of the canonical symmetry.  +identity is
        # impossible for an involution since the kernel filtration layers
        # are torsion free.
        return None
    restriction, frame = invariant_splitting(amat)
    frame_inv = frame.inverse_unimodular()
    # the restriction is DIAG_REP or SWAP_REP, which classify_involution2
    # conjugates by the identity, so p_i alone carries it to walk member i
    cls = InvolutionClass.DIAGONAL if restriction == DIAG_REP else InvolutionClass.SWAP
    parity = "even" if cls is InvolutionClass.DIAGONAL else "odd"
    seed2 = IntMatrix([[1, 1], [0, 1]])
    walk = noncentral_sigma_walk(seed2, s, parity, m_range)
    n = ctx.rank
    sigma = lift_matrix(ctx, frame @ _embed_block(seed2, n) @ frame_inv)
    ab_thetas = []
    conjugators = []
    for rec in walk:
        t_i = _family_matrix(parity, rec.m, rec.orientation)
        cls_i, p_i = classify_involution2(t_i)
        if cls_i is not cls:
            raise InternalError("walk family member left the involution class")
        # theta_i = rho_i theta rho_i^-1 abelianizes to R_i A R_i^-1
        r_i = frame @ _embed_block(p_i, n) @ frame_inv
        conjugators.append(lift_matrix(ctx, r_i))
        ab_thetas.append(r_i @ amat @ r_i.inverse_unimodular())
    trace = matrix_sigma_sequence(abelianization_matrix(sigma), ab_thetas)
    if trace[s] != frame @ _embed_block(walk[-1].matrix, n) @ frame_inv:
        raise InternalError("abelianized trace disagrees with the matrix walk")
    return Witness(sigma=sigma, theta=theta, conjugators=conjugators, trace=trace)

