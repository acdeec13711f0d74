import hashlib
import json
import random

import pytest

from nilaut.automorphisms import (
    apply,
    canonical_symmetry,
    compose,
    conjugate,
    identity_endomorphism,
    inner,
    invert_automorphism,
    lift_matrix,
)
from nilaut.errors import InputError
from nilaut.glz import IntMatrix, Sublattice, relation_R
from nilaut.interpret import (
    build_structure_M,
    decode_int,
    decode_summand_to_endomorphism,
    encode_endomorphism_as_summand,
    encode_int,
    factor_inner_as_symmetries,
    int_add,
    int_mul,
    semantic_graph_compose,
    t_plus_minus_classify,
)
from nilaut.nilgroup import (
    GroupContext,
    generator,
    invert,
    multiply,
    parse_element,
)
from nilaut.sampling import random_automorphism, random_k_member, symmetry_sample

CTX22 = GroupContext.get(2, 2)
CTX23 = GroupContext.get(2, 3)


def test_t_classification_examples():
    rng = random.Random(51)
    sample = symmetry_sample(CTX22, rng, conjugates=6, perturbed=3)
    gamma = parse_element(CTX22, "x1 [x2,x1]")
    from nilaut.automorphisms import Endomorphism

    gamma_endo = Endomorphism(CTX22, (gamma, generator(CTX22, 2)))
    assert t_plus_minus_classify(gamma_endo, sample) == "t_minus"

    ctx = CTX23
    sample3 = symmetry_sample(ctx, rng, conjugates=6, perturbed=3)
    k2 = Endomorphism(
        ctx,
        (parse_element(ctx, "x1 [[x2,x1],x1]"), generator(ctx, 2)),
    )
    assert t_plus_minus_classify(k2, sample3) == "t_plus"

    from nilaut.automorphisms import lift_matrix

    swap = lift_matrix(CTX22, IntMatrix([[0, 1], [1, 0]]))
    assert t_plus_minus_classify(swap, sample) == "neither"


def _classify_by_conjugates(f, sample):
    # the classifier as it was written first: form each conjugate and f^-1
    finv = invert_automorphism(f)
    conjs = [conjugate(theta, f) for theta in sample]
    if all(conj == f for conj in conjs):
        return "t_plus"
    if all(conj == finv for conj in conjs):
        return "t_minus"
    return "neither"


def test_t_classification_matches_the_conjugate_reference():
    # theta f theta^-1 == f iff theta f == f theta, and == f^-1 iff
    # f theta f == theta: the classifier compares composites, the reference
    # forms conjugates and f^-1
    rng = random.Random(53)
    tags = set()
    for ctx in (CTX22, CTX23, GroupContext.get(3, 3)):
        s = ctx.nilpotency_class
        sample = symmetry_sample(ctx, rng, conjugates=3, perturbed=2)
        maps = [identity_endomorphism(ctx), random_automorphism(ctx, rng)]
        maps += [random_k_member(ctx, rng, m, nontrivial=m < s) for m in range(1, s + 1)]
        maps.append(random_k_member(ctx, rng, s - 1, nontrivial=True))
        for f in maps:
            got = t_plus_minus_classify(f, sample)
            assert got == _classify_by_conjugates(f, sample)
            tags.add(got)
    assert tags == {"t_plus", "t_minus", "neither"}

    # an involution that commutes with every sample member is fixed and
    # inverted by each, and is classified t_plus
    theta = canonical_symmetry(CTX22)
    diag = lift_matrix(CTX22, IntMatrix([[1, 0], [0, -1]]))
    for f, sample in ((theta, [diag, theta]), (diag, [theta])):
        assert t_plus_minus_classify(f, sample) == _classify_by_conjugates(f, sample) == "t_plus"
    # the same involution against a member it does not commute with
    sample = [theta, symmetry_sample(CTX22, rng, conjugates=1, perturbed=0)[1]]
    assert t_plus_minus_classify(diag, sample) == _classify_by_conjugates(diag, sample)
    # mixed: theta inverts inner(x1) and diag fixes it, so no member is
    # neither, yet the sample is neither all plus nor all minus
    f = inner(generator(CTX22, 1))
    assert t_plus_minus_classify(f, [theta, diag]) == _classify_by_conjugates(f, [theta, diag]) == "neither"


def test_t_minus_members_commute_with_symmetry_pairs():
    rng = random.Random(52)
    for ctx in (CTX22, CTX23):
        sample = symmetry_sample(ctx, rng, conjugates=4, perturbed=2)
        f = random_k_member(ctx, rng, ctx.nilpotency_class - 1, nontrivial=True)
        assert t_plus_minus_classify(f, sample) in ("t_plus", "t_minus")
        for _ in range(10):
            t1 = sample[rng.randrange(len(sample))]
            t2 = sample[rng.randrange(len(sample))]
            prod = compose(t1, t2)
            assert compose(compose(prod, f), invert_automorphism(prod)) == f


def test_factor_inner_examples():
    theta1, theta2 = factor_inner_as_symmetries(CTX22, 1)
    x1 = generator(CTX22, 1)
    x2 = generator(CTX22, 2)
    assert theta2.images[1] == multiply(multiply(invert(x1), invert(x2)), x1)
    assert compose(theta1, theta2) == inner(x1)
    assert apply(compose(theta1, theta2), x2) == multiply(multiply(x1, x2), invert(x1))
    # theta2 inverts the basis {x1, x2 x1}
    b2 = multiply(x2, x1)
    assert apply(theta2, b2) == invert(b2)
    assert compose(theta2, theta2) == identity_endomorphism(CTX22)
    assert theta1 == canonical_symmetry(CTX22)
    with pytest.raises(InputError):
        factor_inner_as_symmetries(CTX22, 3)


def test_factor_inner_all_generators_all_contexts():
    for n in (2, 3, 4):
        for s in (2, 3):
            ctx = GroupContext.get(n, s)
            for j in range(1, n + 1):
                theta1, theta2 = factor_inner_as_symmetries(ctx, j)
                assert compose(theta1, theta2) == inner(generator(ctx, j))
                assert compose(theta2, theta2) == identity_endomorphism(ctx)
                x = generator(ctx, j)
                for y_idx in range(1, n + 1):
                    if y_idx != j:
                        yx = multiply(generator(ctx, y_idx), x)
                        assert apply(theta2, yx) == invert(yx)


def test_structure_m():
    rng = random.Random(53)
    st = build_structure_M(2, rng)
    fix_e1 = Sublattice(2, [(1, 0)])
    fix_e2 = Sublattice(2, [(0, 1)])
    assert fix_e1 in st.summands and fix_e2 in st.summands
    i, j = st.summands.index(fix_e1), st.summands.index(fix_e2)
    pair = (min(i, j), max(i, j))
    assert pair in [tuple(p) for p in st.complement_pairs]
    # non-summands never enter the summand sort
    assert Sublattice(2, [(2, 0)]) not in st.summands
    assert Sublattice(2, [(2, 0)]).is_subset(fix_e1)
    # the e1 vector is a member of the e1 line
    vi = st.vectors.index((1, 0))
    assert (vi, i) in [tuple(p) for p in st.membership]
    data = st.to_json()
    assert data["rank"] == 2
    assert len(data["vectors"]) == len(st.vectors)


def test_structure_m_rank3():
    rng = random.Random(54)
    st = build_structure_M(3, rng, aut_samples=4, vector_samples=6)
    for i, j in st.complement_pairs:
        assert relation_R(st.summands[i], st.summands[j])
    assert _structure_digest(st) == (
        "87594af1dd2a5c5627cb1ddabd18b3785d1dae675c7c80ae44d2ccea865f8004"
    )


def _structure_digest(st):
    return hashlib.sha256(json.dumps(st.to_json(), sort_keys=True).encode()).hexdigest()


# sha256 of the whole structure: vector order, summands, and every membership,
# inclusion, complement and action tuple.  At rank 4, seed 1 harvests an
# involution f with entries near 10^7; its eigenspace equation f + I is the
# large-entry input of test_glz.test_smith_normal_form.
STRUCTURE_DIGESTS = {
    (2, 0): "4dbb334590bcae108f4a3a01d7983da55d53517d276c5a9213565cf74ae46531",
    (2, 1): "5de88ae3e52b14f82cc3d93541cc2dd0c55b0b4ffdff26cc38262be2965ae924",
    (3, 0): "9575bf1d947a0d2ddd452f8dbcfaa3bb84dd2384495e9543cee8dc918dd5683a",
    (3, 1): "786eafe6b073f37d9678f3a31a285f30b0882c7f374726b6618ad2b54ae78671",
    (4, 0): "b50547f629a334ac6e9bf64dd20650f2ae265d11099036552a955f9521819016",
    (4, 1): "0ea1151c613220295c055cb90d0e96bd79341dbdd27afafa358a57cb7b6f244e",
    (4, 2): "ef54594a1c15ad3c97792646fdef56d13eca62c49b295eb572906471e10ce329",
}


@pytest.mark.parametrize("n,seed", sorted(STRUCTURE_DIGESTS))
def test_structure_m_is_pinned(n, seed):
    st = build_structure_M(n, random.Random(seed))
    assert _structure_digest(st) == STRUCTURE_DIGESTS[n, seed]
    # the vector sort has no repeats and the action lands inside it
    assert len(set(st.vectors)) == len(st.vectors)
    triples = list(st.action_triples())
    assert all(st.vectors[ri] == st.automorphisms[mi] @ st.vectors[vi] for mi, vi, ri in triples)
    # one position per (matrix, vector) pair, -1 exactly where no triple is
    assert [len(images) for images in st.action] == [len(st.vectors)] * len(st.automorphisms)
    assert sum(ri != -1 for images in st.action for ri in images) == len(triples)


def test_structure_m_reads_each_eigenlattice_once(monkeypatch):
    # each harvested involution's Fix and Neg are computed once, where the
    # diagonalizability test computes them
    from nilaut import glz, interpret

    inputs = []
    real = glz.kernel_basis

    def recording(mat):
        inputs.append(mat)
        return real(mat)

    monkeypatch.setattr(glz, "kernel_basis", recording)
    monkeypatch.setattr(interpret, "kernel_basis", recording, raising=False)
    for seed in (1, 3):
        inputs.clear()
        build_structure_M(4, random.Random(seed))
        assert len(inputs) == 24
        assert len(set(inputs)) == len(inputs)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_structure_m_batched_relations_are_complete(n):
    # membership and action rebuilt pair by pair with Sublattice.contains and
    # mat @ v, so every pair the batched path leaves out is checked too
    for seed in (5, 6, 7):
        st = build_structure_M(n, random.Random(seed))
        index = {v: i for i, v in enumerate(st.vectors)}
        membership = [
            (vi, si)
            for vi, v in enumerate(st.vectors)
            for si, s in enumerate(st.summands)
            if s.contains(v)
        ]
        action = [
            (mi, vi, index[mat @ v])
            for mi, mat in enumerate(st.automorphisms)
            for vi, v in enumerate(st.vectors)
            if mat @ v in index
        ]
        assert st.membership == membership
        assert list(st.action_triples()) == action
        assert 0 < len(membership) < len(st.vectors) * len(st.summands)


def graph_setup():
    b = Sublattice(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    c = Sublattice(4, [(0, 0, 1, 0), (0, 0, 0, 1)])
    iota = IntMatrix.identity(2)
    return b, c, iota


def test_graph_encoding_example():
    b, c, iota = graph_setup()
    alpha = IntMatrix([[1, 2], [3, 4]])
    graph = encode_endomorphism_as_summand(alpha, b, c, iota)
    assert graph == Sublattice(4, [(1, 0, 1, 3), (0, 1, 2, 4)])
    assert relation_R(graph, c)
    assert decode_summand_to_endomorphism(graph, b, c, iota) == alpha
    zero = IntMatrix([[0, 0], [0, 0]])
    assert encode_endomorphism_as_summand(zero, b, c, iota) == b


def test_graph_roundtrip_random():
    rng = random.Random(55)
    b, c, iota = graph_setup()
    for _ in range(60):
        alpha = IntMatrix([[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
        graph = encode_endomorphism_as_summand(alpha, b, c, iota)
        assert relation_R(graph, c)
        assert decode_summand_to_endomorphism(graph, b, c, iota) == alpha


def test_graph_composition_semantics():
    rng = random.Random(56)
    b, c, iota = graph_setup()
    for _ in range(20):
        a1 = IntMatrix([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        a2 = IntMatrix([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        g1 = encode_endomorphism_as_summand(a1, b, c, iota)
        g2 = encode_endomorphism_as_summand(a2, b, c, iota)
        composed = semantic_graph_compose(g1, g2, b, c, iota)
        assert composed == encode_endomorphism_as_summand(a1 @ a2, b, c, iota)
        assert decode_summand_to_endomorphism(composed, b, c, iota) == a1 @ a2


def test_graph_nonstandard_frame():
    # a frame where B, C and iota are not the coordinate ones
    b = Sublattice(4, [(1, 1, 0, 0), (0, 1, 1, 0)])
    c = Sublattice(4, [(0, 0, 1, 1), (0, 0, 0, 1)])
    assert relation_R(b, c)
    iota = IntMatrix([[1, 1], [0, 1]])
    rng = random.Random(57)
    for _ in range(20):
        alpha = IntMatrix([[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)])
        graph = encode_endomorphism_as_summand(alpha, b, c, iota)
        assert relation_R(graph, c)
        assert decode_summand_to_endomorphism(graph, b, c, iota) == alpha


def test_ring_encoding_examples():
    assert encode_int(0).matrix.is_identity()
    assert decode_int(int_add(encode_int(0), encode_int(9))) == 9
    two_three = int_mul(encode_int(2), encode_int(3))
    assert decode_int(two_three) == 6
    assert decode_int(int_mul(encode_int(5), encode_int(0))) == 0
    with pytest.raises(InputError):
        decode_int(
            int_add(encode_int(1), EncodedIntegerBad())
        )


def test_ring_encoding_refuses_non_integral_numbers():
    for bad in (2.5, -0.1):
        with pytest.raises(InputError):
            encode_int(bad)
    assert decode_int(encode_int(3.0)) == 3 and type(decode_int(encode_int(3.0))) is int


class EncodedIntegerBad:
    matrix = IntMatrix([[1, 1], [0, 1]])


def test_ring_matches_integer_arithmetic():
    for a in range(-20, 21):
        for b in range(-20, 21):
            assert decode_int(int_add(encode_int(a), encode_int(b))) == a + b
            assert decode_int(int_mul(encode_int(a), encode_int(b))) == a * b
    rng = random.Random(58)
    for _ in range(100):
        a, b, c = (rng.randint(-20, 20) for _ in range(3))
        lhs = int_mul(encode_int(a), int_add(encode_int(b), encode_int(c)))
        rhs = int_add(
            int_mul(encode_int(a), encode_int(b)), int_mul(encode_int(a), encode_int(c))
        )
        assert decode_int(lhs) == decode_int(rhs) == a * (b + c)
    for m in range(-20, 21):
        assert decode_int(encode_int(m)) == m
