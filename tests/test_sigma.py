import random

import pytest

from nilaut.automorphisms import (
    Endomorphism,
    abelianization_matrix,
    canonical_symmetry,
    compose,
    identity_endomorphism,
    inner,
    invert_automorphism,
    k_depth,
    lift_matrix,
)
from nilaut.errors import DomainError, InputError
from nilaut.glz import IntMatrix
from nilaut.harness import _jsonify
from nilaut.nilgroup import GroupContext, generator
from nilaut.sampling import random_automorphism, symmetry_sample
from nilaut.sigma import (
    check_involution,
    descent_verdict,
    find_nontrivial_witness,
    matrix_sigma_sequence,
    necessity_check,
    sigma_sequence,
)

CTX22 = GroupContext.get(2, 2)
CTX23 = GroupContext.get(2, 3)

DIAG = IntMatrix([[1, 0], [0, -1]])
SWAP = IntMatrix([[0, 1], [1, 0]])
SHEAR = IntMatrix([[1, 1], [0, 1]])


def test_sigma_sequence_identity_input():
    theta = canonical_symmetry(CTX22)
    ident = identity_endomorphism(CTX22)
    trace = sigma_sequence(ident, [theta, theta], 2)
    assert all(t == ident for t in trace.terms)
    assert trace.depths == [3, 3, 3]


def test_sigma_sequence_swap_collapses():
    # the generator swap commutes with the canonical symmetry, so one step
    # already lands on the identity
    theta = canonical_symmetry(CTX22)
    swap = lift_matrix(CTX22, SWAP)
    trace = sigma_sequence(swap, [theta, theta], 2)
    assert trace.terms[1] == identity_endomorphism(CTX22)
    assert trace.terms[2] == identity_endomorphism(CTX22)


def test_sigma_sequence_matrix_shadow():
    sigma = lift_matrix(CTX22, SHEAR)
    phi = lift_matrix(CTX22, DIAG)
    trace = sigma_sequence(sigma, [phi, phi], 2)
    assert abelianization_matrix(trace.terms[1]) == IntMatrix([[1, -2], [0, 1]])
    mats = matrix_sigma_sequence(SHEAR, [DIAG, DIAG], 2)
    assert mats[1] == IntMatrix([[1, -2], [0, 1]])
    for term, mat in zip(trace.terms, mats):
        assert abelianization_matrix(term) == mat

    # class 3, length 3: step m = 2 inverts a term built by the recursion
    sigma = lift_matrix(CTX23, SHEAR)
    phis = [lift_matrix(CTX23, m) for m in (DIAG, SWAP, DIAG)]
    trace = sigma_sequence(sigma, phis, 3)
    mats = matrix_sigma_sequence(SHEAR, [DIAG, SWAP, DIAG], 3)
    assert len(trace.terms) == len(mats) == 4
    for term, mat in zip(trace.terms, mats):
        assert abelianization_matrix(term) == mat
    t2, t3 = trace.terms[2], trace.terms[3]
    assert compose(t3, t2) == compose(compose(phis[2], t2), phis[2])


@pytest.mark.parametrize("n,s", [(2, 3), (3, 3)])
def test_sigma_sequence_steps_equal_left_associated_products(n, s):
    # the step phi sigma_m phi tail is computed right-associated; the terms
    # must equal the left-associated product, with generic phis so that no
    # term collapses to the identity early
    ctx = GroupContext.get(n, s)
    rng = random.Random(40 + 10 * n + s)
    sigma = random_automorphism(ctx, rng)
    phis = [random_automorphism(ctx, rng) for _ in range(s)]
    trace = sigma_sequence(sigma, phis, s)
    cur = sigma
    for m, phi in enumerate(phis):
        tail = invert_automorphism(cur) if m % 2 == 0 else cur
        cur = compose(compose(compose(phi, cur), phi), tail)
        assert trace.terms[m + 1] == cur
        assert [g.exponents for g in trace.terms[m + 1].images] == [g.exponents for g in cur.images]
    assert cur != identity_endomorphism(ctx)


def test_sigma_sequence_validation():
    sigma = lift_matrix(CTX22, SHEAR)
    with pytest.raises(InputError):
        sigma_sequence(sigma, [], 1)


def test_necessity_for_canonical_symmetry():
    rng = random.Random(20)
    for ctx in (CTX22, CTX23):
        theta = canonical_symmetry(ctx)
        for _ in range(6):
            sigma = random_automorphism(ctx, rng)
            conj = [random_automorphism(ctx, rng) for _ in range(ctx.nilpotency_class)]
            verdict = necessity_check(theta, sigma, conj)
            assert verdict.passed, verdict.violations
            for m in range(1, ctx.nilpotency_class + 1):
                assert verdict.trace.depths[m] >= m
            assert verdict.trace.terms[-1] == identity_endomorphism(ctx)


def test_necessity_for_ia_composed_involution():
    # inner(x1) o theta is an involution in the same coset modulo IA
    rng = random.Random(21)
    for ctx in (CTX22, CTX23):
        theta = compose(inner(generator(ctx, 1)), canonical_symmetry(ctx))
        assert compose(theta, theta) == identity_endomorphism(ctx)
        for _ in range(4):
            sigma = random_automorphism(ctx, rng)
            conj = [random_automorphism(ctx, rng) for _ in range(ctx.nilpotency_class)]
            assert necessity_check(theta, sigma, conj).passed


def test_necessity_trivial_sigma():
    theta = canonical_symmetry(CTX22)
    verdict = necessity_check(theta, identity_endomorphism(CTX22), [theta, theta])
    assert verdict.passed


def test_necessity_rejects_non_involution():
    sigma = lift_matrix(CTX22, SHEAR)
    with pytest.raises(DomainError):
        necessity_check(sigma, sigma, [sigma, sigma])
    with pytest.raises(DomainError):
        necessity_check(identity_endomorphism(CTX22), sigma, [sigma, sigma])


def test_necessity_rejects_non_automorphism_conjugator():
    theta = canonical_symmetry(CTX22)
    sigma = lift_matrix(CTX22, SHEAR)
    singular = Endomorphism(CTX22, [generator(CTX22, 1), generator(CTX22, 1)])
    with pytest.raises(DomainError):
        necessity_check(theta, sigma, [singular, theta])
    with pytest.raises(DomainError):
        check_involution(sigma)


def test_descent_verdict_is_the_per_pair_part_of_necessity_check():
    # hand-built phis: conjugates of theta by lifted matrices; the diagonal
    # lift is no symmetry modulo IA, so it gives failing verdicts too
    outcomes = set()
    for ctx in (CTX22, CTX23):
        s = ctx.nilpotency_class
        for theta in (canonical_symmetry(ctx), lift_matrix(ctx, DIAG)):
            check_involution(theta)
            conj = [lift_matrix(ctx, m) for m in (SHEAR, SWAP, SHEAR.transpose())][:s]
            phis = [compose(compose(c, theta), invert_automorphism(c)) for c in conj]
            for sigma in (lift_matrix(ctx, SHEAR), identity_endomorphism(ctx)):
                full = necessity_check(theta, sigma, conj)
                part = descent_verdict(sigma, phis)
                assert part.passed == full.passed
                assert part.violations == full.violations
                assert part.trace.terms == full.trace.terms
                assert part.trace.depths == full.trace.depths
                outcomes.add(part.passed)
    assert outcomes == {True, False}
    # term 1 of the shear against the diagonal lift has abelianization
    # (1 -2; 0 1), so it misses K_1
    theta = lift_matrix(CTX22, DIAG)
    verdict = descent_verdict(lift_matrix(CTX22, SHEAR), [theta, theta])
    assert not verdict.passed and verdict.violations == [1]
    assert verdict.trace.depths[1] == 0


def _inverting_recursion(sigma, phis, length):
    # reference: every even step forms cur^-1, the last one included
    terms = [sigma]
    for m in range(length):
        cur = terms[-1]
        tail = invert_automorphism(cur) if m % 2 == 0 else cur
        terms.append(compose(compose(compose(phis[m], cur), phis[m]), tail))
    return terms


@pytest.mark.parametrize("n,s", [(2, 2), (2, 3), (3, 3)])
def test_descent_verdict_terms_are_the_full_recursion(n, s):
    # for odd s the last step is tested as phi cur phi == cur and the term
    # is then a fresh identity; it must equal the inverting recursion's
    # term s term by term, with the same depths and verdict, on passing
    # pairs and on generic phis, where term s is not the identity
    ctx = GroupContext.get(n, s)
    rng = random.Random(60 + 10 * n + s)
    ident = identity_endomorphism(ctx)
    cases = []
    for theta in symmetry_sample(ctx, rng, conjugates=2, perturbed=1):
        conj = [random_automorphism(ctx, rng) for _ in range(s)]
        phis = [compose(compose(c, theta), invert_automorphism(c)) for c in conj]
        cases.append((random_automorphism(ctx, rng), phis))
    generic = [random_automorphism(ctx, rng) for _ in range(s + 1)]
    cases.append((generic[0], generic[1:]))
    passed = []
    for sigma, phis in cases:
        verdict = descent_verdict(sigma, phis)
        reference = _inverting_recursion(sigma, phis, s)
        assert verdict.trace.terms == reference
        assert sigma_sequence(sigma, phis, s).terms == reference
        assert verdict.trace.depths == [k_depth(t) for t in reference]
        expected = [m for m in range(1, s + 1) if k_depth(reference[m]) < m]
        if reference[s] != ident and s not in expected:
            expected.append(s)
        assert verdict.violations == expected
        passed.append(verdict.passed)
    assert passed == [True] * (len(cases) - 1) + [False]
    assert reference[s] != ident


def test_witness_for_diagonal_lift_frozen_trace():
    theta = lift_matrix(CTX22, DIAG)
    wit = find_nontrivial_witness(theta)
    assert wit is not None
    assert abelianization_matrix(wit.sigma) == SHEAR
    assert wit.thetas[0] == theta  # the first family choice is theta itself
    mats = [abelianization_matrix(t) for t in wit.trace.terms]
    assert mats[1] == IntMatrix([[1, -2], [0, 1]])
    assert mats[2] == IntMatrix([[-3, 8], [-8, 21]])
    assert wit.final_abelianization == IntMatrix([[-3, 8], [-8, 21]])
    assert abelianization_matrix(wit.thetas[1]) == IntMatrix(
        [[1, 0], [1, 1]]
    ) @ DIAG @ IntMatrix([[1, 0], [1, 1]]).inverse_unimodular()


def test_witness_for_swap_lift():
    theta = lift_matrix(CTX22, SWAP)
    wit = find_nontrivial_witness(theta)
    assert wit is not None
    assert not wit.final_abelianization.is_identity()
    assert not abelianization_matrix(wit.trace.terms[-1]).is_identity()


def test_witness_catalog_with_conjugates():
    rng = random.Random(22)
    for ctx in (CTX22, CTX23):
        for base in (DIAG, SWAP):
            theta0 = lift_matrix(ctx, base)
            assert find_nontrivial_witness(theta0) is not None
            for _ in range(3):
                c = random_automorphism(ctx, rng)
                theta = compose(compose(c, theta0), invert_automorphism(c))
                wit = find_nontrivial_witness(theta)
                assert wit is not None
                assert not wit.final_abelianization.is_identity()
                # every conjugating involution in the witness is an exact
                # conjugate of theta
                ident = identity_endomorphism(ctx)
                for rho, t in zip(wit.conjugators, wit.thetas):
                    assert compose(t, t) == ident
                    assert t == compose(
                        compose(rho, theta), invert_automorphism(rho)
                    )


def test_no_witness_for_symmetries():
    assert find_nontrivial_witness(canonical_symmetry(CTX22)) is None
    assert find_nontrivial_witness(canonical_symmetry(CTX23)) is None
    rng = random.Random(23)
    for theta in symmetry_sample(CTX22, rng, conjugates=3, perturbed=2):
        assert find_nontrivial_witness(theta) is None


def test_abelianization_commutes_with_recursion():
    rng = random.Random(25)
    ctx = CTX23
    theta = canonical_symmetry(ctx)
    for _ in range(5):
        sigma = random_automorphism(ctx, rng)
        conj = [random_automorphism(ctx, rng) for _ in range(ctx.nilpotency_class)]
        verdict = necessity_check(theta, sigma, conj)
        phi_mats = [
            abelianization_matrix(c)
            @ abelianization_matrix(theta)
            @ abelianization_matrix(c).inverse_unimodular()
            for c in conj
        ]
        mats = matrix_sigma_sequence(
            abelianization_matrix(sigma), phi_mats, ctx.nilpotency_class
        )
        for term, mat in zip(verdict.trace.terms, mats):
            assert abelianization_matrix(term) == mat



def test_trace_serialization():
    # reports write a trace as its terms' generator images and its depths
    theta = canonical_symmetry(CTX22)
    trace = sigma_sequence(identity_endomorphism(CTX22), [theta, theta], 2)
    data = _jsonify(trace)
    assert data["depths"] == [3, 3, 3]
    assert data["terms"][0] == {"x1": "x1", "x2": "x2"}
