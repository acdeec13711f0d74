import random

import pytest

from nilaut import nilgroup as ng
from nilaut.errors import InputError, InternalError
from nilaut.glz import IntMatrix
from nilaut.nilgroup import (
    GroupContext,
    basis_element,
    collect,
    commutator,
    format_element,
    from_exponents,
    generator,
    identity,
    invert,
    multiply,
    parse_element,
    power,
    project_to_class,
    weight,
)

CTX22 = GroupContext.get(2, 2)
CTX23 = GroupContext.get(2, 3)
CTX32 = GroupContext.get(3, 2)
CTX33 = GroupContext.get(3, 3)


def rand_elt(ctx, rng, bound=4):
    return from_exponents(ctx, [rng.randint(-bound, bound) for _ in range(ctx.dim)])


def inverse_word(word):
    return [(i, -s) for i, s in reversed(word)]


def _basis_word(ctx, index):
    # defining word of a basis element over 1-based generator letters,
    # from [u, v] = u^-1 v^-1 u v
    b = ctx.basis[index]
    if not isinstance(b.shape, tuple):
        return [(b.shape + 1, 1)]
    u = _basis_word(ctx, b.shape[0])
    v = _basis_word(ctx, b.shape[1])
    return inverse_word(u) + inverse_word(v) + u + v


def generator_word(g):
    """A word in the free generators whose collected form is g: the
    defining word of each basis factor, repeated by its exponent."""
    word = []
    for i, e in enumerate(g.exponents):
        if e:
            base = _basis_word(g.context, i)
            word += (base if e > 0 else inverse_word(base)) * abs(e)
    return word


def class2_oracle(a, b):
    # independent closed-form rule for class 2, any rank: weight-1 exponents
    # add and the [x_k, x_j] coordinate picks up a_k * b_j
    ctx = a.context
    assert ctx.nilpotency_class == 2
    out = [x + y for x, y in zip(a.exponents, b.exponents)]
    for idx in range(ctx.rank, ctx.dim):
        k, j = ctx.basis[idx].shape
        out[idx] += a.exponents[k] * b.exponents[j]
    return tuple(out)


def test_basis_shape_and_order():
    assert [b.name for b in CTX22.basis] == ["x1", "x2", "[x2,x1]"]
    assert [b.name for b in CTX23.basis] == [
        "x1",
        "x2",
        "[x2,x1]",
        "[[x2,x1],x1]",
        "[[x2,x1],x2]",
    ]
    # weight-graded dimensions match the Witt counts
    expected = {(2, 2): [2, 1], (2, 3): [2, 1, 2], (3, 2): [3, 3], (3, 3): [3, 3, 8]}
    for (n, s), dims in expected.items():
        ctx = GroupContext.get(n, s)
        got = [ctx.weight_range(w)[1] - ctx.weight_range(w)[0] for w in range(1, s + 1)]
        assert got == dims
    for b in CTX33.basis:
        if isinstance(b.shape, tuple):
            li, ri = b.shape
            assert li > ri
            assert b.weight == CTX33.basis[li].weight + CTX33.basis[ri].weight
            left_shape = CTX33.basis[li].shape
            if isinstance(left_shape, tuple):
                assert left_shape[1] <= ri


def test_collect_examples():
    assert collect(CTX22, [(1, 1), (2, 1)]).exponents == (1, 1, 0)
    assert collect(CTX22, [(2, 1), (1, 1)]).exponents == (1, 1, 1)
    assert collect(CTX22, [(1, 1), (1, -1)]).exponents == (0, 0, 0)
    # class >= 3 values, as computed by staged collect-from-the-left rewriting
    assert collect(CTX23, [(2, 1), (1, 1), (1, 1)]).exponents == (2, 1, 2, 1, 0)
    assert collect(CTX23, [(2, -1), (1, 1), (2, 1), (1, -1)]).exponents == (0, 0, -1, 1, 0)
    assert collect(CTX33, [(3, 1), (2, -1), (1, 1), (3, -1)]).exponents == (
        1, -1, 0, -1, 1, -1, 0, 1, 1, 0, -1, -1, 1, 1,
    )
    ctx24 = GroupContext.get(2, 4)
    assert collect(ctx24, [(2, 1), (2, 1), (1, -1), (2, -1), (1, 1)]).exponents == (
        0, 1, -1, 0, 1, 0, 0, -1,
    )
    with pytest.raises(InputError):
        collect(CTX22, [(3, 1)])
    with pytest.raises(InputError):
        collect(CTX22, [(1, 2)])


def test_multiply_examples():
    g = from_exponents(CTX22, (1, 0, 0))
    h = from_exponents(CTX22, (0, 1, 0))
    assert multiply(g, h).exponents == (1, 1, 0)
    assert multiply(h, g).exponents == (1, 1, 1)
    e = rand_elt(CTX22, random.Random(0))
    assert multiply(e, identity(CTX22)) == e
    with pytest.raises(InputError):
        multiply(g, from_exponents(CTX23, (0,) * CTX23.dim))


def test_invert_examples():
    assert invert(from_exponents(CTX22, (1, 1, 0))).exponents == (-1, -1, 1)
    assert invert(identity(CTX22)) == identity(CTX22)
    assert invert(from_exponents(CTX22, (0, 0, 5))).exponents == (0, 0, -5)


def test_commutator_examples():
    x1 = generator(CTX22, 1)
    x2 = generator(CTX22, 2)
    g = rand_elt(CTX22, random.Random(1))
    assert commutator(g, g) == identity(CTX22)
    assert commutator(x1, x2).exponents == (0, 0, -1)
    assert commutator(x2, x1).exponents == (0, 0, 1)


def test_power_examples():
    x1 = generator(CTX22, 1)
    assert power(x1, 3).exponents == (3, 0, 0)
    assert power(from_exponents(CTX22, (1, 1, 0)), 2).exponents == (2, 2, 1)
    g = rand_elt(CTX33, random.Random(2))
    assert power(g, -1) == invert(g)
    assert power(g, 0) == identity(CTX33)
    big = 10**24 + 7
    assert multiply(power(g, big), power(g, -big)) == identity(CTX33)


@pytest.mark.parametrize("n,s", [(2, 2), (3, 3), (2, 5), (4, 4), (3, 5)])
def test_power_is_repeated_multiplication(n, s):
    # the binomial expansion of (1 + u)^e against |e| series products, on an
    # element built from exponents and on a result that holds only a series
    ctx = GroupContext.get(n, s)
    rng = random.Random(900 + 10 * n + s)
    a, b = rand_elt(ctx, rng, 2), rand_elt(ctx, rng, 2)
    lazy = commutator(a, b)
    assert lazy._exponents is None
    for g in (a, lazy):
        for e in range(-3, 4):
            step = g if e > 0 else invert(g)
            want = identity(ctx)
            for _ in range(abs(e)):
                want = multiply(want, step)
            assert power(g, e).exponents == want.exponents


def _word_series(ctx, word):
    # the series of a word by dense products of hand-built letter series:
    # 1 + X_i, or its inverse 1 - X_i + X_i^2 - ...; no basis-factor table
    ser = ng._unit_series(ctx)
    for i, sign in word:
        letter = ng._unit_series(ctx)
        pos = 0
        for d in range(1, ctx.nilpotency_class + 1):
            pos = pos * ctx.rank + i - 1  # X_i^d within the degree-d block
            letter[d][pos] = (-1) ** d if sign < 0 else int(d == 1)
        ser = ng._series_mul(ctx, ser, letter)
    return ser


@pytest.mark.parametrize("n,s", [(3, 3), (2, 6), (3, 5), (4, 4)])
def test_basis_factor_tables_rebuild_the_powers(n, s):
    # the triples of each factor rebuild b - 1 and its nonzero powers entry
    # for entry; a light factor (2 * weight > s) keeps b - 1 alone.  Above
    # weight 1 and below class s, b - 1 has terms beyond its Hall polynomial
    ctx = GroupContext.get(n, s)
    for b in ctx.basis:
        u = _word_series(ctx, _basis_word(ctx, b.index))
        u[0][0] -= 1
        want = []
        cur = u
        while any(any(blk) for blk in cur):
            want.append(cur)
            cur = ng._series_mul(ctx, cur, u)
        got = ctx._bterms[b.index]
        assert len(got) == len(want) == s // b.weight
        for terms, pw in zip(got, want):
            rebuilt = ng._zero_series(ctx)
            for d, i, v in terms:
                assert v and not rebuilt[d][i]
                rebuilt[d][i] = v
            assert rebuilt == pw
        if 1 < b.weight < s:
            assert any(d > b.weight for d, _, _ in got[0])


@pytest.mark.parametrize("n,s", [(3, 3), (2, 6), (3, 5), (4, 4)])
def test_ordered_product_is_the_product_of_basis_powers(n, s):
    # heavy factors multiplied, light ones summed in one tail: the same
    # series as multiplying the powers of the basis elements in basis order
    ctx = GroupContext.get(n, s)
    rng = random.Random(700 + 10 * n + s)
    for _ in range(3):
        exps = [rng.randint(-3, 3) for _ in range(ctx.dim)]
        for w in range(1, s + 1):
            exps[rng.randrange(*ctx.weight_range(w))] = rng.choice((-2, -1, 1, 2))
        want = identity(ctx)
        for i, e in enumerate(exps):
            want = multiply(want, power(basis_element(ctx, i), e))
        assert ng._series_of_coords(ctx, exps) == want._series


@pytest.mark.parametrize("n,s", [(4, 4), (3, 5)])
def test_ordered_product_keeps_the_given_factor_order(n, s):
    # heavy factors whose weights do not ascend, then the light ones: the
    # same-weight runs group consecutive factors and never reorder them
    ctx = GroupContext.get(n, s)
    rng = random.Random(760 + 10 * n + s)
    heavy = [b.index for b in ctx.basis if 2 * b.weight <= s]
    light = [b.index for b in ctx.basis if 2 * b.weight > s]
    for order in (heavy[::-1], rng.sample(heavy, len(heavy))):
        weights = [ctx.basis[i].weight for i in order]
        assert weights != sorted(weights)
        pairs = [(i, rng.choice((-2, -1, 1, 2, 3))) for i in order]
        pairs += [(i, rng.randint(-3, 3)) for i in light]
        want = ng._unit_series(ctx)
        for i, e in pairs:
            want = ng._series_mul(ctx, want, ng._binomial_series(ctx, ctx._bterms[i], e))
        assert ng._ordered_product(ctx, pairs) == want


@pytest.mark.parametrize("n,s", [(2, 2), (3, 3), (4, 4), (3, 5), (2, 6)])
def test_commutator_is_its_defining_product(n, s):
    # [g, h] = g^-1 h^-1 g h on random pairs and on commuting ones: g and a
    # power of g, a top-weight z and g, and the identity
    ctx = GroupContext.get(n, s)
    rng = random.Random(1100 + 10 * n + s)
    one = identity(ctx)
    lo, hi = ctx.weight_range(s)
    for _ in range(3):
        g, h = rand_elt(ctx, rng), rand_elt(ctx, rng)
        exps = [0] * ctx.dim
        exps[lo:hi] = [rng.randint(-3, 3) for _ in range(lo, hi)]
        exps[rng.randrange(lo, hi)] = rng.choice((-2, -1, 1, 2))
        z = from_exponents(ctx, exps)
        commuting = [(g, power(g, rng.choice((-3, 2, 5)))), (z, g), (g, z), (one, g), (g, one), (one, one)]
        for a, b in [(g, h)] + commuting:
            assert commutator(a, b) == multiply(multiply(invert(a), invert(b)), multiply(a, b))
        assert all(commutator(a, b) == one for a, b in commuting)


@pytest.mark.parametrize("n,s", [(3, 3), (4, 4), (3, 5), (2, 6)])
def test_commutator_of_commuting_elements_forms_no_inverse(n, s, monkeypatch):
    # [z, g] with z of top weight: ab and ba agree, so the unit is returned
    # after those two products, with no powers of ba and no inverse
    ctx = GroupContext.get(n, s)
    exps = [1] + [0] * (ctx.dim - 1)
    exps[-1] = 2
    g = from_exponents(ctx, exps)
    z = basis_element(ctx, ctx.dim - 1)
    calls = []
    real = ng._series_mul

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ng, "_series_mul", counting)
    assert commutator(z, g) == identity(ctx)
    assert len(calls) == 2


@pytest.mark.parametrize("n,s", [(2, 6), (3, 5), (4, 4), (5, 3), (10, 2)])
def test_basis_series_are_commutators_of_their_factors(n, s):
    # set-up forms [u, v] as (u^-1 v^-1)(u v) from the factors' cached
    # powers; `_series_comm` forms it as (v u)^-1 (u v)
    ctx = GroupContext.get(n, s)
    series = [basis_element(ctx, b.index)._series for b in ctx.basis]
    for b, ser in zip(ctx.basis, series):
        if isinstance(b.shape, tuple):
            left, right = b.shape
            assert ser == ng._series_comm(ctx, series[left], series[right])
        else:
            want = ng._unit_series(ctx)
            want[1][b.shape] = 1
            assert ser == want


@pytest.mark.parametrize("n,s", [(4, 4), (10, 3)])
def test_context_setup_forms_no_dense_matrix_product(n, s, monkeypatch):
    # the basis series and the checked Lyndon-minor inverses need no
    # IntMatrix product
    calls = []
    real = IntMatrix.__matmul__

    def counting(self, other):
        calls.append((self.nrows, self.ncols))
        return real(self, other)

    monkeypatch.setattr(IntMatrix, "__matmul__", counting)
    GroupContext(n, s)
    assert calls == []


def test_weight_examples():
    assert weight(identity(CTX22)) == 3
    assert weight(from_exponents(CTX22, (0, 0, 3))) == 2
    assert weight(from_exponents(CTX22, (1, 0, 4))) == 1


def test_project_examples():
    g = from_exponents(CTX22, (3, -2, 7))
    assert project_to_class(g, 1).exponents == (3, -2)
    assert project_to_class(from_exponents(CTX22, (0, 0, 5)), 1) == identity(
        GroupContext.get(2, 1)
    )
    assert project_to_class(g, 2) == g
    with pytest.raises(InputError):
        project_to_class(g, 3)


def test_group_axioms_seeded():
    for n, s in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        ctx = GroupContext.get(n, s)
        rng = random.Random(1000 + 10 * n + s)
        one = identity(ctx)
        for _ in range(60):
            a, b, c = (rand_elt(ctx, rng) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
            assert multiply(a, invert(a)) == one
            assert multiply(invert(a), a) == one
            assert multiply(a, one) == a
            assert multiply(one, a) == a


def test_class2_closed_form_agreement():
    for n in (2, 3):
        ctx = GroupContext.get(n, 2)
        rng = random.Random(77 + n)
        for _ in range(200):
            a, b = rand_elt(ctx, rng), rand_elt(ctx, rng)
            got = multiply(a, b)
            assert got.exponents == class2_oracle(a, b)


@pytest.mark.parametrize("n,s", [(2, 2), (3, 3), (2, 5), (4, 4), (3, 5)])
def test_results_keep_their_series(n, s):
    # every result of a series operation keeps the series its coordinates
    # were read from; that series must equal the one the coordinates give,
    # also after later operations have read it as an input
    from nilaut.automorphisms import apply, compose
    from nilaut.sampling import random_automorphism

    ctx = GroupContext.get(n, s)
    rng = random.Random(500 + 10 * n + s)
    a, b = rand_elt(ctx, rng), rand_elt(ctx, rng)
    word = [(rng.randint(1, n), rng.choice((1, -1))) for _ in range(12)]
    f, g = random_automorphism(ctx, rng), random_automorphism(ctx, rng)
    fg = compose(f, g)
    kept = [
        multiply(a, b),
        invert(a),
        power(a, 3),
        power(b, -2),
        commutator(a, b),
        collect(ctx, word),
        apply(f, a),
    ] + list(fg.images)
    for r in kept:
        assert r._series is not None
    results = kept + [multiply(a, b)]

    def check():
        for r in results:
            assert r._series == ng._series_of_coords(ctx, r.exponents)

    check()
    acc = identity(ctx)
    for r in list(results):
        acc = multiply(acc, r)
        results.extend([invert(r), power(r, 2), commutator(r, acc), apply(fg, r)])
    results.append(acc)
    results.extend(compose(fg, f).images)
    check()


def test_lyndon_positions():
    # words over 0 < 1 < 2 read as base-rank numbers: 0001 -> 1, 0011 -> 3,
    # 0111 -> 7; 01 -> 1, 02 -> 2, 12 -> 5
    assert ng._lyndon_positions(2, 1) == [0, 1]
    assert ng._lyndon_positions(2, 2) == [1]
    assert ng._lyndon_positions(2, 4) == [1, 3, 7]
    assert ng._lyndon_positions(3, 2) == [1, 2, 5]
    # there are as many Lyndon words of length w as basis elements of weight w
    for n, s in [(2, 6), (3, 4), (4, 3)]:
        ctx = GroupContext.get(n, s)
        for w in range(1, s + 1):
            lo, hi = ctx.weight_range(w)
            assert len(ng._lyndon_positions(n, w)) == hi - lo


@pytest.mark.parametrize("n,s", [(4, 5), (10, 3)])
def test_largest_lyndon_minors_invert(n, s):
    # the top minors of the largest class at ranks 4 and 10 (204 and 330
    # rows): at every weight the stored inverse inverts the Lyndon minor
    # from both sides, and coordinates survive a trip through the series
    ctx = GroupContext.get(n, s)
    for w in range(1, s + 1):
        lo, hi = ctx.weight_range(w)
        lyndon, inv_rows, _ = ctx._solvers[w]
        blocks = [basis_element(ctx, i)._series[w] for i in range(lo, hi)]
        minor = IntMatrix([[blk[p] for blk in blocks] for p in lyndon])
        inv = IntMatrix(inv_rows)
        assert (minor @ inv).is_identity() and (inv @ minor).is_identity()
    rng = random.Random(n * 10 + s)
    for _ in range(3):
        exps = tuple(rng.randint(-3, 3) for _ in range(ctx.dim))
        assert ng._from_series(ctx, from_exponents(ctx, exps)._series).exponents == exps


def test_readoff_rejects_non_group_series():
    # 1 + X_i X_j is no group image: its degree-2 part is not a Lie element,
    # so no coordinates reproduce it
    ctx = CTX22
    for i in range(2):
        for j in range(2):
            ser = ng._unit_series(ctx)
            ser[2][2 * i + j] = 1
            g = ng._from_series(ctx, ser)
            with pytest.raises(InternalError):
                g.exponents


def test_context_size_guard():
    # refused from the sizes alone, before anything is allocated
    with pytest.raises(InputError):
        GroupContext(10**9, 10**9)
    with pytest.raises(InputError):
        GroupContext(6, 4)
    for n, s in [(4, 5), (3, 6), (2, 9)]:
        assert sum(n**d for d in range(s + 1)) <= ng.MAX_SERIES_ENTRIES


@pytest.mark.parametrize("n,s", [(2, 2), (3, 3), (2, 5), (4, 4)])
def test_lazy_and_eager_elements_agree(n, s):
    # results hold only their series; weight, identity, projection and
    # abelianization read it, and must match the exponent-built element
    from nilaut.automorphisms import apply
    from nilaut.sampling import random_automorphism

    ctx = GroupContext.get(n, s)
    rng = random.Random(700 + 10 * n + s)
    f = random_automorphism(ctx, rng)
    word = [(rng.randint(1, n), rng.choice((1, -1))) for _ in range(10)]
    for _ in range(3):
        a, b = rand_elt(ctx, rng), rand_elt(ctx, rng)
        c = commutator(a, b)
        cc = commutator(c, a)
        results = [
            ("multiply", multiply(a, b)),
            ("invert", invert(a)),
            ("power", power(b, -3)),
            ("power", power(generator(ctx, n), 1)),  # series 1 + X_n exactly
            ("commutator", c),
            ("commutator", cc),
            ("commutator", commutator(cc, b)),
            ("multiply", multiply(a, invert(a))),
            ("collect", collect(ctx, word)),
            ("collect", collect(ctx, word + [(i, -e) for i, e in reversed(word)])),
            ("apply", apply(f, a)),
            ("apply", apply(f, cc)),
        ]
        for _, r in results:
            assert r._exponents is None
            got = [weight(r), r.is_identity(), ng.abelianization(r)]
            got += [project_to_class(r, m).exponents for m in range(1, s)]
            eager = from_exponents(ctx, r.exponents)
            want = [weight(eager), eager.is_identity(), ng.abelianization(eager)]
            want += [project_to_class(eager, m).exponents for m in range(1, s)]
            assert got == want
            assert project_to_class(r, s) is r

            lazy = ng._from_series(ctx, r._series)
            assert lazy == eager and eager == lazy
            assert lazy._exponents is None
            other = list(eager.exponents)
            other[-1] += 1
            assert lazy != from_exponents(ctx, other)
            assert hash(lazy) == hash(eager)
    ser = [list(blk) for blk in a._series]
    ser[0][0] = 2
    with pytest.raises(InternalError):
        ng._from_series(ctx, ser)


@pytest.mark.parametrize("n,s", [(2, 2), (3, 3), (2, 5), (4, 4)])
def test_queries_read_no_coordinates(n, s, monkeypatch):
    # an element is its series: hashing, equality and the five queries read
    # it, and only the text boundary reads the coordinates off, once
    from nilaut.automorphisms import apply
    from nilaut.sampling import random_automorphism

    ctx = GroupContext.get(n, s)
    rng = random.Random(800 + 10 * n + s)
    f = random_automorphism(ctx, rng)
    a, b = rand_elt(ctx, rng), rand_elt(ctx, rng)
    word = [(rng.randint(1, n), rng.choice((1, -1))) for _ in range(10)]
    results = [
        multiply(a, b),
        invert(a),
        power(b, -3),
        commutator(a, b),
        collect(ctx, word),
        apply(f, a),
    ]
    readoffs = []
    real_read = ng._series_to_coords

    def counting_read(c, ser):
        readoffs.append(c)
        return real_read(c, ser)

    monkeypatch.setattr(ng, "_series_to_coords", counting_read)
    for r, other in zip(results, results[1:] + results[:1]):
        hash(r)
        assert r == r and not (r != r)
        assert (r == other) != (r != other)
        weight(r)
        r.is_identity()
        ng.abelianization(r)
        for m in range(1, s + 1):
            project_to_class(r, m)
        assert readoffs == []
        format_element(r)
        assert len(readoffs) == 1
        format_element(r)
        assert len(readoffs) == 1
        readoffs.clear()


def test_projection_is_homomorphism():
    for n, s in [(2, 3), (3, 3), (2, 2)]:
        ctx = GroupContext.get(n, s)
        rng = random.Random(5 + n + s)
        for _ in range(50):
            a, b = rand_elt(ctx, rng), rand_elt(ctx, rng)
            for m in range(1, s + 1):
                lhs = project_to_class(multiply(a, b), m)
                rhs = multiply(project_to_class(a, m), project_to_class(b, m))
                assert lhs == rhs


def test_weight_filtration_properties():
    for n, s in [(2, 2), (2, 3), (3, 3)]:
        ctx = GroupContext.get(n, s)
        rng = random.Random(31 * n + s)
        for _ in range(80):
            g, h = rand_elt(ctx, rng), rand_elt(ctx, rng)
            if g.is_identity() or h.is_identity():
                continue
            wg, wh = weight(g), weight(h)
            assert weight(multiply(g, h)) >= min(wg, wh)
            c = commutator(g, h)
            if wg + wh <= s:
                assert weight(c) >= wg + wh
            else:
                assert c == identity(ctx)


def test_center_is_top_filtration_layer():
    for n, s in [(2, 2), (2, 3), (3, 3)]:
        ctx = GroupContext.get(n, s)
        rng = random.Random(91 * n + s)
        lo, hi = ctx.weight_range(s)
        for _ in range(40):
            z_exps = [0] * ctx.dim
            for i in range(lo, hi):
                z_exps[i] = rng.randint(-4, 4)
            z = from_exponents(ctx, z_exps)
            g = rand_elt(ctx, rng)
            assert commutator(z, g) == identity(ctx)


def test_collect_is_monoid_homomorphism():
    for n, s in [(2, 2), (2, 3), (3, 3)]:
        ctx = GroupContext.get(n, s)
        rng = random.Random(17 * n + s)
        for _ in range(40):
            w1 = [(rng.randint(1, n), rng.choice((1, -1))) for _ in range(rng.randint(0, 10))]
            w2 = [(rng.randint(1, n), rng.choice((1, -1))) for _ in range(rng.randint(0, 10))]
            assert collect(ctx, w1 + w2) == multiply(collect(ctx, w1), collect(ctx, w2))


def test_collect_accepts_powered_runs_consistently():
    rng = random.Random(23)
    for _ in range(20):
        runs = [(rng.randint(1, 2), rng.choice((1, -1))) for _ in range(8)]
        expanded = collect(CTX23, runs)
        doubled = collect(CTX23, runs + runs)
        assert doubled == multiply(expanded, expanded)


def test_generator_word_roundtrip():
    # at (2,5) and (4,4) the weight-2 factors are not light, so both
    # coordinate conversions multiply genuine factor series
    for ctx in (CTX22, CTX23, CTX33, GroupContext.get(2, 5), GroupContext.get(4, 4)):
        rng = random.Random(ctx.rank * 7 + ctx.nilpotency_class)
        for _ in range(8):
            g = rand_elt(ctx, rng, bound=2)
            w = generator_word(g)
            got = collect(ctx, w)
            assert got == g
            assert got.exponents == g.exponents
            assert collect(ctx, w + inverse_word(w)) == identity(ctx)


def test_class4_engine_still_exact():
    ctx = GroupContext.get(2, 4)
    rng = random.Random(44)
    one = identity(ctx)
    for _ in range(15):
        a, b, c = (rand_elt(ctx, rng, 3) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        assert multiply(a, invert(a)) == one
    g = rand_elt(ctx, rng, 1)
    assert collect(ctx, generator_word(g)) == g


def test_text_grammar():
    e = parse_element(CTX22, "x1^2 x2^-1 [x2,x1]^3")
    assert e.exponents == (2, -1, 3)
    assert format_element(e) == "x1^2 x2^-1 [x2,x1]^3"
    assert format_element(identity(CTX22)) == "1"
    assert parse_element(CTX22, "1") == identity(CTX22)
    # non-canonical input still collects
    assert parse_element(CTX22, "x2 x1") == collect(CTX22, [(2, 1), (1, 1)])
    deep = parse_element(CTX23, "[[x2,x1],x2]^-2 x1")
    assert deep == multiply(power(basis_element(CTX23, 4), -2), generator(CTX23, 1))
    with pytest.raises(InputError):
        parse_element(CTX22, "x3")
    with pytest.raises(InputError):
        parse_element(CTX22, "[x1,x2]")  # not a basic commutator in this order
    with pytest.raises(InputError):
        parse_element(CTX22, "y1")


def test_format_parse_roundtrip_random():
    rng = random.Random(99)
    for ctx in (CTX22, CTX33):
        for _ in range(25):
            g = rand_elt(ctx, rng)
            assert parse_element(ctx, format_element(g)) == g


def test_non_integral_numbers_are_refused():
    # integral values of other numeric types coerce to int; others are
    # refused rather than truncated
    x1 = generator(CTX22, 1)
    for bad in ([1.5, 0, 0], [0, 0, 2.5], ["1", 0, 0]):
        with pytest.raises(InputError):
            from_exponents(CTX22, bad)
    for bad in (2.7, -0.5, "2"):
        with pytest.raises(InputError):
            power(x1, bad)
    g = from_exponents(CTX22, [2.0, True, 0])
    assert g.exponents == (2, 1, 0) and all(type(e) is int for e in g.exponents)
    assert power(x1, 3.0) == power(x1, 3)


def test_context_validation():
    with pytest.raises(InputError):
        GroupContext(1, 2)
    with pytest.raises(InputError):
        GroupContext(2, 0)
    with pytest.raises(InputError):
        from_exponents(CTX22, [1, 2])
    assert GroupContext.get(2, 2) is CTX22
