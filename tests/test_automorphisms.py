import random

import pytest

from nilaut.automorphisms import (
    Endomorphism,
    _defect_weight,
    _is_identity,
    _tensor_power,
    abelianization_matrix,
    agree_modulo_K,
    apply,
    canonical_symmetry,
    compose,
    conjugate,
    endomorphism_to_json,
    identity_endomorphism,
    in_K,
    inner,
    invert_automorphism,
    is_automorphism,
    k_depth,
    lift_matrix,
)
from nilaut.errors import DomainError, InputError, InternalError
from nilaut.glz import IntMatrix, random_unimodular
from nilaut.nilgroup import (
    GroupContext,
    GroupElement,
    _series_mul,
    _unit_series,
    _zero_series,
    from_exponents,
    generator,
    identity,
    invert,
    multiply,
    parse_element,
    weight,
)
from nilaut.sampling import (
    random_automorphism,
    random_element,
    random_element_of_weight,
    random_ia,
    random_k_member,
    symmetry_sample,
)
from test_nilgroup import generator_word

CTX22 = GroupContext.get(2, 2)
CTX23 = GroupContext.get(2, 3)
CTX33 = GroupContext.get(3, 3)


def _defect(f, j):
    # x_j^-1 f(x_j), the deviation of f from the identity at generator j
    ctx = f.context
    exps = [0] * ctx.dim
    exps[j] = -1
    return multiply(GroupElement(ctx, exps), f.images[j])


def _inverse_by_refinement(f):
    # reference inverse: lift the inverse abelianized matrix, then compose
    # with x_j -> x_j d_j^-1, d_j the defect of the residual, until the
    # residual is the identity; each round at least doubles its depth
    ctx = f.context
    h = lift_matrix(ctx, abelianization_matrix(f).inverse_unimodular())
    for _ in range(ctx.nilpotency_class + 1):
        rho = compose(f, h)
        if _is_identity(rho):
            return h
        images = [
            multiply(generator(ctx, j + 1), invert(_defect(rho, j))) for j in range(ctx.rank)
        ]
        h = compose(h, Endomorphism(ctx, images))
    raise AssertionError("refinement did not converge")


def gamma_example(ctx):
    # x1 -> x1 [x2,x1], x2 -> x2 (and fixed remaining generators)
    images = [parse_element(ctx, "x1 [x2,x1]")]
    for j in range(2, ctx.rank + 1):
        images.append(generator(ctx, j))
    return Endomorphism(ctx, images)


def test_apply_examples():
    theta = canonical_symmetry(CTX22)
    assert apply(theta, from_exponents(CTX22, (1, 1, 0))).exponents == (-1, -1, 0)
    g = random_element(CTX22, random.Random(1))
    assert apply(identity_endomorphism(CTX22), g) == g
    central = from_exponents(CTX22, (0, 0, 5))
    assert apply(theta, central) == central
    with pytest.raises(InputError):
        apply(theta, identity(CTX23))


def test_apply_agrees_with_word_substitution():
    rng = random.Random(2)
    for ctx in (CTX22, CTX33):
        for _ in range(10):
            f = random_automorphism(ctx, rng)
            g = random_element(ctx, rng, bound=2)
            sub = identity(ctx)
            for i, s in generator_word(g):
                img = f.images[i - 1]
                sub = multiply(sub, img if s == 1 else invert(img))
            assert sub == apply(f, g)


def _dense_apply(f, g):
    # reference substitution: the sum over monomials w of c_w times the
    # product of f(x_i) - 1 over the letters of w, by dense series products
    ctx = f.context
    rank = ctx.rank
    subs = []
    for img in f.images:
        x = [list(blk) for blk in img._series]
        x[0][0] -= 1
        subs.append(x)
    mono = {(0, 0): _unit_series(ctx)}
    out = _zero_series(ctx)
    for deg, blk in enumerate(g._series):
        for idx, c in enumerate(blk):
            if deg:
                mono[deg, idx] = _series_mul(ctx, mono[deg - 1, idx // rank], subs[idx % rank])
            if c:
                for blk_out, blk_mono in zip(out, mono[deg, idx]):
                    for i, v in enumerate(blk_mono):
                        blk_out[i] += c * v
    return out


def _degree_of(ctx, pos):
    # degree of the monomial at a flat series position
    offsets = ctx._deg_offsets
    return max(d for d in range(len(offsets) - 1) if offsets[d] <= pos)


@pytest.mark.parametrize(
    "rank,nil_class", [(2, 1), (2, 2), (2, 3), (3, 3), (3, 4), (2, 5), (4, 4), (3, 5)]
)
def test_apply_matches_dense_substitution(rank, nil_class):
    ctx = GroupContext.get(rank, nil_class)
    s = nil_class
    rng = random.Random(100 * rank + nil_class)
    maps = [(random_automorphism(ctx, rng), 0) for _ in range(2)]
    maps += [(random_k_member(ctx, rng, d), d) for d in range(1, s + 1)]
    for f, depth in maps:
        for _ in range(2):
            eager = random_element(ctx, rng, bound=2)
            lazy = invert(random_element(ctx, rng, bound=2))
            assert lazy._exponents is None
            for g in (eager, lazy):
                ref = _dense_apply(f, g)
                assert apply(f, g)._series == ref
        # the top degree is never stored, and in K_d no monomial of degree
        # above s - d is stored either: each maps to itself
        assert all(_degree_of(ctx, pos) <= min(s - 1, s - depth) for pos in f._mon_images)


@pytest.mark.parametrize("rank,nil_class", [(2, 4), (4, 4), (2, 5), (3, 5)])
def test_apply_of_minus_identity_maps_matches_dense_substitution(rank, nil_class):
    # a map with abelianization -I adds (-1)^s times the top block as one
    # slice, +1 at class 4 and -1 at class 5; a mixed-sign diagonal caches
    # the rows of A and takes the tensor power A^(x)s
    ctx = GroupContext.get(rank, nil_class)
    s = nil_class
    rng = random.Random(7 * rank + nil_class)
    minus = symmetry_sample(ctx, rng, conjugates=2, perturbed=2)
    assert minus[0] == canonical_symmetry(ctx)
    diag = IntMatrix([[(i == j) - 2 * (i == j == 0) for j in range(rank)] for i in range(rank)])
    mixed = lift_matrix(ctx, diag)
    for f in minus + [mixed]:
        for _ in range(2):
            g = random_element(ctx, rng, bound=2)
            assert apply(f, g)._series == _dense_apply(f, g)
        assert k_depth(f) == 0
        assert f._cols == ((-1) ** s if f is not mixed else diag.rows)


def test_compose_examples():
    theta = canonical_symmetry(CTX22)
    assert compose(theta, theta) == identity_endomorphism(CTX22)
    f = random_automorphism(CTX22, random.Random(3))
    assert compose(f, identity_endomorphism(CTX22)) == f
    x1 = generator(CTX22, 1)
    x2 = generator(CTX22, 2)
    assert compose(inner(x1), inner(x2)) == inner(multiply(x1, x2))


def test_compose_abelianization_is_product():
    rng = random.Random(4)
    for _ in range(20):
        f = random_automorphism(CTX33, rng)
        g = random_automorphism(CTX33, rng)
        assert abelianization_matrix(compose(f, g)) == abelianization_matrix(
            f
        ) @ abelianization_matrix(g)


def test_abelianization_examples():
    assert abelianization_matrix(canonical_symmetry(CTX22)) == -IntMatrix.identity(2)
    assert abelianization_matrix(inner(generator(CTX22, 1))).is_identity()
    assert abelianization_matrix(gamma_example(CTX22)).is_identity()


def test_is_automorphism():
    doubling = Endomorphism(
        CTX22, (from_exponents(CTX22, (2, 0, 0)), generator(CTX22, 2))
    )
    assert not is_automorphism(doubling)
    assert is_automorphism(canonical_symmetry(CTX22))
    assert is_automorphism(gamma_example(CTX22))


def test_invert_automorphism():
    theta = canonical_symmetry(CTX23)
    assert invert_automorphism(theta) == theta
    x1 = generator(CTX23, 1)
    assert invert_automorphism(inner(x1)) == inner(invert(x1))
    gamma = gamma_example(CTX22)
    ginv = invert_automorphism(gamma)
    assert ginv.images[0] == parse_element(CTX22, "x1 [x2,x1]^-1")
    ident = identity_endomorphism(CTX22)
    assert compose(gamma, ginv) == ident and compose(ginv, gamma) == ident
    rng = random.Random(5)
    for ctx in (CTX22, CTX33):
        for _ in range(10):
            f = random_automorphism(ctx, rng)
            finv = invert_automorphism(f)
            one = identity_endomorphism(ctx)
            assert compose(f, finv) == one and compose(finv, f) == one
    with pytest.raises(DomainError):
        invert_automorphism(
            Endomorphism(CTX22, (from_exponents(CTX22, (2, 0, 0)), generator(CTX22, 2)))
        )


def test_perturbed_inverse_solve_is_an_internal_error(monkeypatch):
    # at depth 0 the first tensor power is the degree-1 block of f^-1(x_1);
    # the left check h o f == id, on h's own images, refuses it
    from nilaut import automorphisms

    real = automorphisms._tensor_power
    calls = []

    def perturbed(rows, vec, k):
        out = real(rows, vec, k)
        if not calls:
            out[0] += 1
        calls.append(k)
        return out

    f = lift_matrix(CTX33, IntMatrix([[1, 1, 0], [0, 1, 0], [0, 0, -1]]))
    assert k_depth(f) == 0
    monkeypatch.setattr(automorphisms, "_tensor_power", perturbed)
    with pytest.raises(InternalError, match="^the computed inverse is not a left inverse$"):
        invert_automorphism(f)
    assert calls[0] == 1 and f._inverse is None


def test_cached_inverse_holds_no_monomial_image():
    # callers only compose with an inverse, so the images the left check
    # applies die with its throwaway map
    rng = random.Random(27)
    f, c = random_automorphism(CTX33, rng), random_automorphism(CTX33, rng)
    h = invert_automorphism(f)
    assert list(h._mon_images) == [0] and invert_automorphism(f) is h
    conjugate(c, f)
    assert list(c._inverse._mon_images) == [0]
    assert compose(h, f) == identity_endomorphism(CTX33)


def test_filtration_depth_stands_in_for_the_determinant(monkeypatch):
    # a map of depth >= 1 has the identity as abelianization, so in_K and
    # invert_automorphism take no determinant of it; at depth 0 the
    # refusals of a non-automorphism are unchanged
    from nilaut import automorphisms

    doubling = Endomorphism(CTX22, (from_exponents(CTX22, (2, 0, 0)), generator(CTX22, 2)))
    with pytest.raises(DomainError, match="^endomorphism is not an automorphism$"):
        invert_automorphism(doubling)
    with pytest.raises(DomainError, match="^filtration membership is defined for automorphisms$"):
        in_K(doubling, 1)

    def refuse(*args):
        raise AssertionError("determinant taken")

    monkeypatch.setattr(automorphisms, "is_automorphism", refuse)
    monkeypatch.setattr(IntMatrix, "det", refuse)
    monkeypatch.setattr(IntMatrix, "inverse_unimodular", refuse)
    rng = random.Random(14)
    for m in (1, 2):
        f = random_k_member(CTX33, rng, m, nontrivial=True)
        assert in_K(f, m) and not in_K(f, 3)
        assert in_K(invert_automorphism(f), m)


@pytest.mark.parametrize(
    "rank,nil_class", [(2, 1), (2, 2), (2, 3), (3, 3), (2, 5), (4, 4), (3, 5), (2, 6)]
)
def test_inverse_solve_matches_refinement(rank, nil_class):
    # the block-triangular solve against the composition loop it replaced,
    # on random automorphisms, members of every K_m, the canonical symmetry,
    # an inner automorphism and non-IA lifts
    ctx = GroupContext.get(rank, nil_class)
    s = nil_class
    rng = random.Random(100 * rank + nil_class)
    maps = [canonical_symmetry(ctx), inner(random_element(ctx, rng, 2))]
    maps += [lift_matrix(ctx, random_unimodular(rng, rank)) for _ in range(2)]
    maps += [random_automorphism(ctx, rng) for _ in range(2)]
    for m in range(1, s + 1):
        maps.append(random_k_member(ctx, rng, m))
    for f in maps:
        fresh = Endomorphism(ctx, f.images)
        h = invert_automorphism(fresh)
        assert h == _inverse_by_refinement(f)
        # the solve stores no monomial image of degree s
        top = ctx._deg_offsets[s]
        assert all(pos < top for pos in fresh._mon_images)


def _tensor_power_solve(f):
    # the solve invert_automorphism ran before it read the filtration depth:
    # every degree goes through (A^-1)^(x)k, and F of the lower blocks goes
    # through monomial images of every degree below s, on a fresh cache
    ctx = f.context
    s = ctx.nilpotency_class
    offsets = ctx._deg_offsets
    ref = Endomorphism(ctx, f.images)

    def scatter(out, lo, blk):
        for idx, c in enumerate(blk):
            if c:
                img = ref._mon_images.get(lo + idx)
                if img is None:
                    img = ref._monomial_image(lo + idx)
                for p, v in img:
                    out[p] += c * v

    binv = abelianization_matrix(f).inverse_unimodular().rows
    images = []
    for j in range(ctx.rank):
        acc = [0] * offsets[-1]
        acc[offsets[1] + j] = -1
        ser = [[1]]
        for k in range(1, s + 1):
            ser.append(_tensor_power(binv, [-v for v in acc[offsets[k] : offsets[k + 1]]], k))
            if k < s:
                scatter(acc, offsets[k], ser[k])
        images.append(ser)
    return images


def _scanned_depth(f):
    # k_depth by a fresh defect scan, on a copy with an empty depth cache
    s = f.context.nilpotency_class
    fresh = Endomorphism(f.context, f.images)
    depth = min(_defect_weight(fresh, j) for j in range(f.context.rank)) - 1
    return s + 1 if depth == s else depth


@pytest.mark.parametrize("rank,nil_class", [(2, 1), (2, 2), (3, 3), (2, 5), (4, 4), (3, 5)])
def test_inverse_matches_the_tensor_power_solve(rank, nil_class):
    # at depth d >= 1 the solve skips A^-1 and adds the blocks of degree
    # above s - d as they are; compare with the full solve, and check both
    # inverse laws by dense substitution
    ctx = GroupContext.get(rank, nil_class)
    s = nil_class
    rng = random.Random(1000 * rank + nil_class)
    maps = [random_automorphism(ctx, rng), canonical_symmetry(ctx), identity_endomorphism(ctx)]
    maps += [random_k_member(ctx, rng, d, nontrivial=d < s) for d in range(1, s + 1)]
    gens = [generator(ctx, j + 1)._series for j in range(rank)]
    for f in maps:
        h = invert_automorphism(f)
        assert [img._series for img in h.images] == _tensor_power_solve(f)
        assert [_dense_apply(h, img) for img in f.images] == gens
        assert [_dense_apply(f, img) for img in h.images] == gens
        for r in (h, compose(f, h), compose(h, f), conjugate(f, maps[0])):
            assert r._depth is None or r._depth == _scanned_depth(r)
            assert k_depth(r) == _scanned_depth(r)
    assert {k_depth(f) for f in maps} == set(range(s)) | {s + 1}


def _first_difference(f, g):
    # lowest degree where the series of some f(x_j) and g(x_j) differ
    degrees = [
        d
        for a, b in zip(f.images, g.images)
        for d, (u, v) in enumerate(zip(a._series, b._series))
        if u != v
    ]
    return min(degrees, default=None)


def _assert_agreement_is_membership(f, g, first):
    # the reference forms g^-1 f and reads its depth; g^-1 f is in K_m
    # exactly for m below the first degree where the images differ
    s = f.context.nilpotency_class
    quotient = compose(invert_automorphism(g), f)
    for m in range(1, s + 2):
        expected = in_K(quotient, m) if m <= s else _is_identity(quotient)
        assert agree_modulo_K(f, g, m) == expected
        assert expected == (first is None or m < first)


@pytest.mark.parametrize("rank,nil_class", [(2, 2), (3, 3), (4, 4), (3, 5)])
def test_agree_modulo_K_matches_membership_of_the_quotient(rank, nil_class):
    # g o k, with k of depth exactly d - 1, differs from g first in degree d
    ctx = GroupContext.get(rank, nil_class)
    s = nil_class
    rng = random.Random(300 * rank + nil_class)
    shear = [[int(i == j or (i, j) == (0, 1)) for j in range(rank)] for i in range(rank)]
    kicks = {1: lift_matrix(ctx, IntMatrix(shear))}
    for d in range(2, s + 1):
        images = [generator(ctx, j + 1) for j in range(rank)]
        j = rng.randrange(rank)
        images[j] = multiply(images[j], random_element_of_weight(ctx, rng, d))
        kicks[d] = Endomorphism(ctx, images)
    others = [identity_endomorphism(ctx), random_automorphism(ctx, rng)]
    others += [random_k_member(ctx, rng, d) for d in range(1, s + 1)]
    bases = [random_automorphism(ctx, rng), canonical_symmetry(ctx), random_ia(ctx, rng)]
    bases.append(random_k_member(ctx, rng, s - 1, nontrivial=True))
    for g in bases:
        for d, k in kicks.items():
            assert k_depth(k) == d - 1
            f = compose(g, k)
            assert _first_difference(f, g) == d
            _assert_agreement_is_membership(f, g, d)
        for f in others + [g]:
            _assert_agreement_is_membership(f, g, _first_difference(f, g))


def test_agree_modulo_K_refuses_bad_input():
    f = gamma_example(CTX22)
    with pytest.raises(InputError):
        agree_modulo_K(f, f, 0)
    with pytest.raises(InputError):
        agree_modulo_K(f, gamma_example(CTX23), 1)


def test_in_K_examples():
    assert in_K(inner(generator(CTX22, 1)), 1)
    gamma = gamma_example(CTX22)
    assert not in_K(gamma, 2)
    assert in_K(identity_endomorphism(CTX22), 1)
    assert in_K(identity_endomorphism(CTX22), 2)
    with pytest.raises(InputError):
        in_K(gamma, 3)
    with pytest.raises(InputError):
        in_K(gamma, 0)


def test_k_depth_and_filtration_closure():
    rng = random.Random(6)
    ctx = CTX33
    s = ctx.nilpotency_class
    assert k_depth(identity_endomorphism(ctx)) == s + 1
    for m in (1, 2):
        for _ in range(15):
            f = random_k_member(ctx, rng, m, nontrivial=True)
            g = random_k_member(ctx, rng, m, nontrivial=True)
            assert in_K(f, m) and in_K(g, m)
            assert in_K(compose(f, g), m)
            assert in_K(invert_automorphism(f), m)
            if in_K(f, m) and m > 1:
                assert in_K(f, m - 1)
    f2 = random_k_member(ctx, rng, 2, nontrivial=True)
    assert k_depth(f2) == 2


# image exponents of random_k_member(CTX33, random.Random(k), m) by (m, k);
# no tail drawn here is trivial, so nontrivial=True makes the same draws
K_MEMBER_PINS = {
    (1, 0): [
        (1, 0, 0, 3, 0, 3, 0, -3, -1, 1, 0, 0, 3, 3),
        (0, 1, 0, -1, 0, -1, 1, -2, 1, -2, -1, -2, 3, -3),
        (0, 0, 1, 1, 3, -1, 1, 2, 3, 1, -2, -1, -3, 2),
    ],
    (1, 1): [
        (1, 0, 0, -2, 1, 3, 3, 3, -3, -1, -3, 0, 3, 0),
        (0, 1, 0, 0, 2, 0, 3, -2, -3, 0, -3, 3, 0, 0),
        (0, 0, 1, 1, 3, 3, -3, 2, 0, -1, 2, 3, -2, 1),
    ],
    (1, 2): [
        (1, 0, 0, 3, 3, -3, -3, -3, -1, 3, -2, 2, 3, 2),
        (0, 1, 0, 3, -1, -1, 1, -2, 1, -3, 1, 2, -2, 0),
        (0, 0, 1, 2, 0, 3, 2, 3, 1, -1, 1, 0, 1, -1),
    ],
    (2, 0): [
        (1, 0, 0, 0, 0, 0, 3, 0, 3, 0, -3, -1, 1, 0),
        (0, 1, 0, 0, 0, 0, 0, 3, 3, -1, 0, -1, 1, -2),
        (0, 0, 1, 0, 0, 0, 1, -2, -1, -2, 3, -3, 1, 3),
    ],
    (2, 1): [
        (1, 0, 0, 0, 0, 0, -2, 1, 3, 3, 3, -3, -1, -3),
        (0, 1, 0, 0, 0, 0, 0, 3, 0, 0, 2, 0, 3, -2),
        (0, 0, 1, 0, 0, 0, -3, 0, -3, 3, 0, 0, 1, 3),
    ],
    (2, 2): [
        (1, 0, 0, 0, 0, 0, 3, 3, -3, -3, -3, -1, 3, -2),
        (0, 1, 0, 0, 0, 0, 2, 3, 2, 3, -1, -1, 1, -2),
        (0, 0, 1, 0, 0, 0, 1, -3, 1, 2, -2, 0, 2, 0),
    ],
}


def test_random_k_member_draws_are_pinned():
    for (m, k), images in K_MEMBER_PINS.items():
        for nontrivial in (False, True):
            f = random_k_member(CTX33, random.Random(k), m, nontrivial=nontrivial)
            assert [g.exponents for g in f.images] == images


@pytest.mark.parametrize("rank,nil_class", [(2, 3), (3, 3), (2, 5)])
def test_filtration_readings_match_their_definitions(rank, nil_class):
    # k_depth, in_K and the identity test read each defect weight off the
    # series of f(x_j); compare with weight(x_j^-1 f(x_j)) computed by
    # multiplication, on members of every K_m, the identity and non-IA maps
    ctx = GroupContext.get(rank, nil_class)
    s = nil_class
    rng = random.Random(10 * rank + nil_class)
    maps = [identity_endomorphism(ctx), canonical_symmetry(ctx)]
    maps += [random_automorphism(ctx, rng) for _ in range(3)]
    for m in range(1, s + 1):
        maps += [random_k_member(ctx, rng, m) for _ in range(3)]
        if m < s:
            maps.append(random_k_member(ctx, rng, m, nontrivial=True))
    depths = set()
    for f in maps:
        weights = [weight(_defect(f, j)) for j in range(rank)]
        assert [_defect_weight(f, j) for j in range(rank)] == weights
        expected = min(weights) - 1
        if expected >= s:
            expected = s + 1
        assert k_depth(f) == expected
        depths.add(expected)
        for m in range(1, s + 1):
            assert in_K(f, m) == all(w >= m + 1 for w in weights)
        assert _is_identity(f) == (f == identity_endomorphism(ctx))
        assert _is_identity(f) == all(w == s + 1 for w in weights)
    assert depths == set(range(s)) | {s + 1}


def test_sampling_refuses_out_of_range_indices():
    # a bad filtration index or weight is a usage error, raised before any
    # draw, and so is asking K_s (which is trivial) for a nontrivial member
    rng = random.Random(8)
    state = rng.getstate()
    s = CTX22.nilpotency_class
    for m in (0, -1, s + 1):
        with pytest.raises(InputError):
            random_k_member(CTX22, rng, m)
        with pytest.raises(InputError):
            random_element_of_weight(CTX22, rng, m)
    with pytest.raises(InputError):
        random_k_member(CTX22, rng, s, nontrivial=True)
    assert rng.getstate() == state
    assert random_k_member(CTX22, rng, s) == identity_endomorphism(CTX22)


def test_inner_examples():
    x1 = generator(CTX22, 1)
    assert inner(x1).images[1].exponents == (0, 1, -1)
    assert inner(identity(CTX22)) == identity_endomorphism(CTX22)
    assert inner(from_exponents(CTX22, (0, 0, 1))) == identity_endomorphism(CTX22)
    rng = random.Random(7)
    for ctx in (CTX22, CTX33):
        for _ in range(10):
            g, h = random_element(ctx, rng), random_element(ctx, rng)
            assert compose(inner(g), inner(h)) == inner(multiply(g, h))
            assert (inner(g) == identity_endomorphism(ctx)) == (
                weight(g) >= ctx.nilpotency_class
            )


def test_symmetry_examples():
    theta = canonical_symmetry(CTX22)
    assert compose(theta, theta) == identity_endomorphism(CTX22)
    # the symmetry inverting the basis {b(x_1), b(x_2)}
    b = Endomorphism(CTX22, (generator(CTX22, 1), parse_element(CTX22, "x2 x1")))
    sym = conjugate(b, theta)
    basis2 = parse_element(CTX22, "x2 x1")
    assert apply(sym, basis2) == invert(basis2)
    assert apply(sym, b.images[0]) == invert(b.images[0])
    assert abelianization_matrix(sym) == -IntMatrix.identity(2)
    assert compose(sym, sym) == identity_endomorphism(CTX22)
    rng = random.Random(8)
    for t in symmetry_sample(CTX33, rng, conjugates=3, perturbed=2):
        assert abelianization_matrix(t) == -IntMatrix.identity(3)


def test_lift_matrix_examples():
    assert lift_matrix(CTX22, IntMatrix.identity(2)) == identity_endomorphism(CTX22)
    d = lift_matrix(CTX22, IntMatrix([[1, 0], [0, -1]]))
    assert d.images[0] == generator(CTX22, 1)
    assert d.images[1] == invert(generator(CTX22, 2))
    assert compose(d, d) == identity_endomorphism(CTX22)
    u = lift_matrix(CTX22, IntMatrix([[1, 1], [0, 1]]))
    assert u.images[0] == generator(CTX22, 1)
    assert u.images[1] == parse_element(CTX22, "x1 x2")
    with pytest.raises(DomainError):
        lift_matrix(CTX22, IntMatrix([[2, 0], [0, 1]]))
    rng = random.Random(9)
    for ctx in (CTX22, CTX33):
        for _ in range(50):
            mat = random_unimodular(rng, ctx.rank)
            assert abelianization_matrix(lift_matrix(ctx, mat)) == mat


def test_lemma_parity_on_filtration_layers():
    # a symmetry fixes weight-m layers modulo N_{m+1} for even m and inverts
    # them for odd m
    rng = random.Random(11)
    for n, s in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        ctx = GroupContext.get(n, s)
        sample = symmetry_sample(ctx, rng, conjugates=4, perturbed=0)
        for m in range(1, s + 1):
            for _ in range(20):
                theta = sample[rng.randrange(len(sample))]
                c = random_element_of_weight(ctx, rng, m)
                sign = -1 if m % 2 == 0 else 1
                residue = multiply(apply(theta, c), power_of(c, sign))
                assert weight(residue) >= m + 1


def power_of(g, k):
    from nilaut.nilgroup import power

    return power(g, k)


def test_lemma_parity_on_kernel_layers():
    rng = random.Random(12)
    for n, s in [(2, 2), (2, 3), (3, 3)]:
        ctx = GroupContext.get(n, s)
        sample = symmetry_sample(ctx, rng, conjugates=4, perturbed=0)
        ident = identity_endomorphism(ctx)
        for m in range(1, s + 1):
            for _ in range(10):
                theta = sample[rng.randrange(len(sample))]
                gamma = random_k_member(ctx, rng, m)
                conj = compose(compose(theta, gamma), invert_automorphism(theta))
                tail = gamma if m % 2 == 1 else invert_automorphism(gamma)
                resid = compose(conj, tail)
                if m + 1 <= s:
                    assert in_K(resid, m + 1)
                else:
                    assert resid == ident


def test_ia_commutes_with_kernel_layers_modulo_next():
    rng = random.Random(13)
    ctx = CTX33
    for m in (1, 2):
        for _ in range(20):
            gamma = random_ia(ctx, rng)
            delta = random_k_member(ctx, rng, m)
            comm = compose(
                compose(invert_automorphism(gamma), invert_automorphism(delta)),
                compose(gamma, delta),
            )
            if m + 1 <= ctx.nilpotency_class:
                assert in_K(comm, m + 1)
            else:
                assert comm == identity_endomorphism(ctx)


def test_serialization_roundtrip():
    gamma = gamma_example(CTX22)
    data = endomorphism_to_json(gamma)
    assert data == {"x1": "x1 [x2,x1]", "x2": "x2"}
    assert Endomorphism(CTX22, [parse_element(CTX22, data[k]) for k in ("x1", "x2")]) == gamma
