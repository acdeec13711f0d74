import random

import pytest

import nilaut.sigma
from nilaut.automorphisms import (
    Endomorphism,
    abelianization_matrix,
    canonical_symmetry,
    compose,
    conjugate,
    identity_endomorphism,
    inner,
    invert_automorphism,
    k_depth,
    lift_matrix,
)
from nilaut.errors import DomainError, InputError, InternalError, SearchExhausted
from nilaut.glz import IntMatrix, noncentral_sigma_walk
from nilaut.harness import _jsonify
from nilaut.nilgroup import GroupContext, generator
from nilaut.sampling import random_automorphism, symmetry_sample
from nilaut.sigma import (
    _embed_block,
    check_involution,
    SigmaTrace,
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
    trace = sigma_sequence(ident, [theta, theta])
    assert all(t == ident for t in trace.terms)
    assert trace.depths == [3, 3, 3]


def test_sigma_sequence_swap_collapses():
    # the generator swap commutes with the canonical symmetry, so one step
    # already lands on the identity
    theta = canonical_symmetry(CTX22)
    swap = lift_matrix(CTX22, SWAP)
    trace = sigma_sequence(swap, [theta, theta])
    assert trace.terms[1] == identity_endomorphism(CTX22)
    assert trace.terms[2] == identity_endomorphism(CTX22)


def test_sigma_sequence_matrix_shadow():
    sigma = lift_matrix(CTX22, SHEAR)
    phi = lift_matrix(CTX22, DIAG)
    trace = sigma_sequence(sigma, [phi, phi])
    assert abelianization_matrix(trace.terms[1]) == IntMatrix([[1, -2], [0, 1]])
    mats = matrix_sigma_sequence(SHEAR, [DIAG, DIAG])
    assert mats[1] == IntMatrix([[1, -2], [0, 1]])
    for term, mat in zip(trace.terms, mats):
        assert abelianization_matrix(term) == mat

    # class 3: step m = 2 inverts a term built by the recursion
    sigma = lift_matrix(CTX23, SHEAR)
    phis = [lift_matrix(CTX23, m) for m in (DIAG, SWAP, DIAG)]
    trace = sigma_sequence(sigma, phis)
    mats = matrix_sigma_sequence(SHEAR, [DIAG, SWAP, DIAG])
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
    trace = sigma_sequence(sigma, phis)
    cur = sigma
    for m, phi in enumerate(phis):
        tail = invert_automorphism(cur) if m % 2 == 0 else cur
        cur = compose(compose(compose(phi, cur), phi), tail)
        assert trace.terms[m + 1] == cur
        assert [g.exponents for g in trace.terms[m + 1].images] == [g.exponents for g in cur.images]
    assert cur != identity_endomorphism(ctx)


def test_sigma_sequence_validation():
    # sigma_sequence takes s from the context and refuses any other count
    # of phis; matrix_sigma_sequence runs one step per phi
    for ctx in (CTX22, CTX23):
        s = ctx.nilpotency_class
        sigma = lift_matrix(ctx, SHEAR)
        theta = canonical_symmetry(ctx)
        for count in (0, s - 1, s + 1):
            with pytest.raises(InputError, match="need %d conjugating automorphisms, got %d" % (s, count)):
                sigma_sequence(sigma, [theta] * count)
        trace = sigma_sequence(sigma, [theta] * s)
        assert len(trace.terms) == len(trace.depths) == s + 1
    for count in range(4):
        mats = matrix_sigma_sequence(SHEAR, [DIAG] * count)
        assert len(mats) == count + 1 and mats[0] == SHEAR


def test_trace_violations_and_passed():
    # term m must lie in K_m; at class 2 the identity has depth 3
    assert SigmaTrace([], [0, 1, 3]).violations == []
    assert SigmaTrace([], [0, 1, 3]).passed
    assert SigmaTrace([], [0, 1, 1]).violations == [2]
    assert not SigmaTrace([], [0, 1, 1]).passed
    assert SigmaTrace([], [0, 0, 1]).violations == [1, 2]
    assert SigmaTrace([], [2, 3, 3]).passed
    # class 3: term 3 in K_3 is the identity, depth 4, never 3
    assert SigmaTrace([], [0, 1, 2, 2]).violations == [3]
    assert SigmaTrace([], [0, 2, 1, 4]).violations == [2]


def test_necessity_for_canonical_symmetry():
    rng = random.Random(20)
    for ctx in (CTX22, CTX23):
        theta = canonical_symmetry(ctx)
        for _ in range(6):
            sigma = random_automorphism(ctx, rng)
            conj = [random_automorphism(ctx, rng) for _ in range(ctx.nilpotency_class)]
            trace = necessity_check(theta, sigma, conj)
            assert trace.passed, trace.violations
            for m in range(1, ctx.nilpotency_class + 1):
                assert trace.depths[m] >= m
            assert trace.terms[-1] == identity_endomorphism(ctx)


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
    assert necessity_check(theta, identity_endomorphism(CTX22), [theta, theta]).passed


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


def test_sigma_sequence_is_the_per_pair_part_of_necessity_check():
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
                part = sigma_sequence(sigma, phis)
                assert part.passed == full.passed
                assert part.violations == full.violations
                assert part.terms == full.terms
                assert part.depths == full.depths
                outcomes.add(part.passed)
    assert outcomes == {True, False}
    # term 1 of the shear against the diagonal lift has abelianization
    # (1 -2; 0 1), so it misses K_1
    theta = lift_matrix(CTX22, DIAG)
    trace = sigma_sequence(lift_matrix(CTX22, SHEAR), [theta, theta])
    assert not trace.passed and trace.violations == [1]
    assert trace.depths[1] == 0


def _inverting_recursion(sigma, phis):
    # reference: every even step forms cur^-1, the last one included
    terms = [sigma]
    for m, phi in enumerate(phis):
        cur = terms[-1]
        tail = invert_automorphism(cur) if m % 2 == 0 else cur
        terms.append(compose(compose(compose(phi, cur), phi), tail))
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
        trace = sigma_sequence(sigma, phis)
        reference = _inverting_recursion(sigma, phis)
        assert trace.terms == reference
        assert trace.depths == [k_depth(t) for t in reference]
        expected = [m for m in range(1, s + 1) if k_depth(reference[m]) < m]
        if reference[s] != ident and s not in expected:
            expected.append(s)
        assert trace.violations == expected
        passed.append(trace.passed)
    assert passed == [True] * (len(cases) - 1) + [False]
    assert reference[s] != ident


def test_witness_for_diagonal_lift_frozen_trace():
    theta = lift_matrix(CTX22, DIAG)
    wit = find_nontrivial_witness(theta)
    assert wit is not None
    assert abelianization_matrix(wit.sigma) == SHEAR
    assert wit.thetas[0] == theta  # the first family choice is theta itself
    assert wit.trace[1:] == [IntMatrix([[1, -2], [0, 1]]), IntMatrix([[-3, 8], [-8, 21]])]
    assert abelianization_matrix(wit.thetas[1]) == IntMatrix(
        [[1, 0], [1, 1]]
    ) @ DIAG @ IntMatrix([[1, 0], [1, 1]]).inverse_unimodular()


def test_witness_for_swap_lift():
    theta = lift_matrix(CTX22, SWAP)
    wit = find_nontrivial_witness(theta)
    assert wit is not None
    assert not wit.trace[-1].is_identity()
    assert not abelianization_matrix(sigma_sequence(wit.sigma, wit.thetas).terms[-1]).is_identity()


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
                assert not wit.trace[-1].is_identity()
                # every conjugating involution in the witness is an exact
                # conjugate of theta
                ident = identity_endomorphism(ctx)
                for rho, t in zip(wit.conjugators, wit.thetas):
                    assert compose(t, t) == ident
                    assert t == compose(
                        compose(rho, theta), invert_automorphism(rho)
                    )


@pytest.mark.parametrize("rank,cls", [(2, 2), (2, 3), (2, 4), (3, 3)])
def test_witness_trace_is_the_abelianized_lifted_recursion(rank, cls):
    # a witness is certified on the matrix recursion of its abelianized
    # inputs; abelianization is a homomorphism, so the lifted recursion,
    # which the search does not run, abelianizes to the same terms
    ctx = GroupContext.get(rank, cls)
    rng = random.Random(26)
    for base in (DIAG, SWAP):
        c = random_automorphism(ctx, rng)
        theta = conjugate(c, lift_matrix(ctx, _embed_block(base, rank)))
        wit = find_nontrivial_witness(theta)
        assert wit is not None and len(wit.trace) == cls + 1
        lifted = sigma_sequence(wit.sigma, wit.thetas).terms
        assert [abelianization_matrix(t) for t in lifted] == wit.trace
        assert lifted[cls] != identity_endomorphism(ctx)


def test_witness_mismatch_with_the_walk_is_an_internal_error(monkeypatch):
    def tampered_walk(*args):
        mats, recs = noncentral_sigma_walk(*args)
        return mats[:-1] + [-mats[-1]], recs

    monkeypatch.setattr(nilaut.sigma, "noncentral_sigma_walk", tampered_walk)
    with pytest.raises(InternalError, match="abelianized trace disagrees with the matrix walk"):
        find_nontrivial_witness(lift_matrix(CTX22, DIAG))


def test_no_witness_for_symmetries():
    assert find_nontrivial_witness(canonical_symmetry(CTX22)) is None
    assert find_nontrivial_witness(canonical_symmetry(CTX23)) is None
    rng = random.Random(23)
    for theta in symmetry_sample(CTX22, rng, conjugates=3, perturbed=2):
        assert find_nontrivial_witness(theta) is None


def test_witness_walk_that_runs_out_is_a_search_error():
    # None answers only an abelianization of -I; a walk that runs out of
    # its m range proves nothing about the involution
    with pytest.raises(SearchExhausted, match="no non-central successor"):
        find_nontrivial_witness(lift_matrix(CTX22, DIAG), (0, 0))
    assert find_nontrivial_witness(canonical_symmetry(CTX22), (0, 0)) is None
    rng = random.Random(24)
    for theta in symmetry_sample(CTX22, rng, conjugates=2, perturbed=1):
        assert find_nontrivial_witness(theta, (0, 0)) is None


def test_abelianization_commutes_with_recursion():
    rng = random.Random(25)
    ctx = CTX23
    theta = canonical_symmetry(ctx)
    for _ in range(5):
        sigma = random_automorphism(ctx, rng)
        conj = [random_automorphism(ctx, rng) for _ in range(ctx.nilpotency_class)]
        trace = necessity_check(theta, sigma, conj)
        phi_mats = [
            abelianization_matrix(c)
            @ abelianization_matrix(theta)
            @ abelianization_matrix(c).inverse_unimodular()
            for c in conj
        ]
        mats = matrix_sigma_sequence(abelianization_matrix(sigma), phi_mats)
        for term, mat in zip(trace.terms, mats):
            assert abelianization_matrix(term) == mat



def test_trace_serialization():
    # reports write a trace as its terms' generator images and its depths
    theta = canonical_symmetry(CTX22)
    trace = sigma_sequence(identity_endomorphism(CTX22), [theta, theta])
    data = _jsonify(trace)
    assert data["depths"] == [3, 3, 3]
    assert data["terms"][0] == {"x1": "x1", "x2": "x2"}
