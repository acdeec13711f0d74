"""The alternating conjugation recursion on automorphisms.

For an automorphism sigma and involutions phi_1, phi_2, ... the sequence

    sigma_0 = sigma
    sigma_{m+1} = phi_{m+1} sigma_m phi_{m+1} sigma_m^-1   (m even)
    sigma_{m+1} = phi_{m+1} sigma_m phi_{m+1} sigma_m      (m odd)

drops one level deeper into the kernel filtration at every step when the
phi_i are conjugates of an involution that agrees with a symmetry up to an
IA factor; after s steps it reaches the identity.  For involutions outside
that family a non-terminating instance can be built at the abelianized
level and lifted, which yields a concrete refutation witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError, InputError, InternalError, SearchExhausted
from .automorphisms import (
    Endomorphism,
    abelianization_matrix,
    compose,
    conjugate,
    endomorphism_to_json,
    identity_endomorphism,
    invert_automorphism,
    is_automorphism,
    k_depth,
    lift_matrix,
)
from .glz import (
    IntMatrix,
    InvolutionClass,
    _family_matrix,
    classify_involution2,
    invariant_splitting,
    noncentral_sigma_walk,
)

__all__ = [
    "SigmaTrace",
    "NecessityVerdict",
    "Witness",
    "MembershipVerdict",
    "sigma_sequence",
    "matrix_sigma_sequence",
    "check_involution",
    "descent_verdict",
    "necessity_check",
    "find_nontrivial_witness",
    "is_symmetry_mod_IA",
    "trace_to_json",
]


@dataclass
class SigmaTrace:
    terms: list  # Endomorphism, terms[0] is the input
    depths: list  # per-term filtration depth, 0 .. s-1 or the sentinel s+1


@dataclass
class NecessityVerdict:
    passed: bool
    trace: SigmaTrace
    violations: list = field(default_factory=list)


@dataclass
class Witness:
    sigma: Endomorphism
    thetas: list
    conjugators: list
    trace: SigmaTrace
    final_abelianization: IntMatrix
    walk_parameters: list


@dataclass
class MembershipVerdict:
    accepted: bool
    witness: object = None
    certificate: dict = None


def check_involution(theta: Endomorphism) -> None:
    """Raise DomainError unless theta has order exactly two."""
    ident = identity_endomorphism(theta.context)
    if theta == ident:
        raise DomainError("the identity is excluded; an involution has order two")
    if compose(theta, theta) != ident:
        raise DomainError("automorphism does not square to the identity")


def sigma_sequence(sigma: Endomorphism, phis, length: int) -> SigmaTrace:
    """The first `length` steps of the alternating recursion, with depths."""
    phis = list(phis)
    if len(phis) < length:
        raise InputError("need %d conjugating automorphisms, got %d" % (length, len(phis)))
    ctx = sigma.context
    for f in [sigma] + phis[:length]:
        if f.context != ctx:
            raise InputError("context mismatch in the recursion inputs")
        ok, _ = is_automorphism(f)
        if not ok:
            raise DomainError("recursion inputs must be automorphisms")
    terms = [sigma]
    cur = sigma
    for m in range(length):
        phi = phis[m]
        tail = invert_automorphism(cur) if m % 2 == 0 else cur
        cur = compose(compose(compose(phi, cur), phi), tail)
        terms.append(cur)
    return SigmaTrace(terms, [k_depth(t) for t in terms])


def matrix_sigma_sequence(sigma: IntMatrix, phis, length: int):
    """The same recursion on integer matrices (the abelianized shadow)."""
    phis = list(phis)
    if len(phis) < length:
        raise InputError("need %d matrices, got %d" % (length, len(phis)))
    terms = [sigma]
    cur = sigma
    for m in range(length):
        phi = phis[m]
        tail = cur.inverse_unimodular() if m % 2 == 0 else cur
        cur = phi @ cur @ phi @ tail
        terms.append(cur)
    return terms


def descent_verdict(sigma: Endomorphism, phis) -> NecessityVerdict:
    """Run the recursion on sigma against the phis and check the descent.

    The verdict passes when term m lies in K_m for every m up to the class
    s and term s is the identity; the violations list the failing m.
    """
    ctx = sigma.context
    s = ctx.nilpotency_class
    trace = sigma_sequence(sigma, phis, s)
    violations = [m for m in range(1, s + 1) if trace.depths[m] < m]
    if trace.terms[s] != identity_endomorphism(ctx) and s not in violations:
        violations.append(s)
    return NecessityVerdict(not violations, trace, violations)


def necessity_check(theta: Endomorphism, sigma: Endomorphism, conjugators) -> NecessityVerdict:
    """Run the recursion against conjugates of theta and check the descent.

    The composition of the per-involution part, `check_involution(theta)`
    and the conjugates phi_m = c_m theta c_m^-1 of the first s conjugators,
    with the per-pair part, `descent_verdict(sigma, phis)`.  A caller that
    checks many sigmas against one theta runs the first part once.
    """
    check_involution(theta)
    s = theta.context.nilpotency_class
    conjugators = list(conjugators)
    if len(conjugators) < s:
        raise InputError("need %d conjugators, got %d" % (s, len(conjugators)))
    phis = []
    for c in conjugators[:s]:
        ok, _ = is_automorphism(c)
        if not ok:
            raise DomainError("conjugators must be automorphisms")
        phis.append(conjugate(c, theta))
    return descent_verdict(sigma, phis)


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
    class, then lift every matrix back to the group.  The final term is
    certified non-trivial by its abelianization.  Involutions whose
    abelianization is minus the identity admit no witness and return None.
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
    split = invariant_splitting(amat)
    s0 = split.restriction
    frame = split.frame
    frame_inv = frame.inverse_unimodular()
    cls, p_s0 = classify_involution2(s0)
    parity = "even" if cls is InvolutionClass.DIAGONAL else "odd"
    seed2 = IntMatrix([[1, 1], [0, 1]])
    try:
        walk_mats, walk_recs = noncentral_sigma_walk(seed2, s, parity, m_range)
    except SearchExhausted:
        return None
    n = ctx.rank
    sigma = lift_matrix(ctx, frame @ _embed_block(seed2, n) @ frame_inv)
    thetas = []
    conjugators = []
    p_s0_inv = p_s0.inverse_unimodular()
    for rec in walk_recs:
        t_i = _family_matrix(rec.parity, rec.m, rec.orientation)
        cls_i, p_i = classify_involution2(t_i)
        if cls_i is not cls:
            raise InternalError("walk family member left the involution class")
        q_i = p_i @ p_s0_inv
        rho = lift_matrix(ctx, frame @ _embed_block(q_i, n) @ frame_inv)
        conjugators.append(rho)
        thetas.append(conjugate(rho, theta))
    trace = sigma_sequence(sigma, thetas, s)
    final_ab = abelianization_matrix(trace.terms[s])
    expected = frame @ _embed_block(walk_mats[-1], n) @ frame_inv
    if final_ab != expected:
        raise InternalError("lifted trace disagrees with the matrix walk")
    if final_ab.is_identity():
        raise InternalError("witness trace ends in the identity")
    return Witness(
        sigma=sigma,
        thetas=thetas,
        conjugators=conjugators,
        trace=trace,
        final_abelianization=final_ab,
        walk_parameters=[(r.m, r.parity, r.orientation, r.mode) for r in walk_recs],
    )


def is_symmetry_mod_IA(theta: Endomorphism, m_range=(-5, 5)) -> MembershipVerdict:
    """Decide exactly whether an involution is a symmetry times an IA factor.

    Every symmetry abelianizes to minus the identity and IA automorphisms
    to the identity, so theta is in the family exactly when its
    abelianization is minus the identity.  The certificate records that
    abelianization.  A rejection also carries the refutation instance of
    `find_nontrivial_witness`, or None when its walk search over m_range
    exhausts; the abelianization alone then certifies the rejection.
    """
    check_involution(theta)
    amat = abelianization_matrix(theta)
    minus_identity = amat == -IntMatrix.identity(theta.context.rank)
    cert = {"abelianization": amat, "abelianization_is_minus_identity": minus_identity}
    if minus_identity:
        return MembershipVerdict(True, None, cert)
    return MembershipVerdict(False, find_nontrivial_witness(theta, m_range), cert)


def trace_to_json(trace: SigmaTrace) -> dict:
    return {
        "terms": [endomorphism_to_json(t) for t in trace.terms],
        "depths": list(trace.depths),
    }
