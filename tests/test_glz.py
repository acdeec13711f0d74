import ast
import math
import random
from itertools import combinations, islice, product

import pytest

from nilaut import glz
from nilaut.errors import DomainError, InputError, InternalError, SearchExhausted
from nilaut.glz import (
    WALK_CERT_MODULUS,
    noncentral_walk_certificate,
    DIAG_REP,
    SWAP_REP,
    IntMatrix,
    InvolutionClass,
    Sublattice,
    classify_involution2,
    element_order,
    find_complement,
    hermite_form,
    invariant_splitting,
    involution_eigenlattices,
    is_diagonalizable_involution,
    is_direct_summand,
    kernel_basis,
    noncentral_sigma_walk,
    order3_falsifier,
    random_unimodular,
    relation_R,
    smith_normal_form,
    xy_matrices,
)


def M(*rows):
    return IntMatrix(rows)


def test_matrix_basics():
    a = M((1, 2), (3, 4))
    assert a.det() == -2
    assert (a @ a.transpose()).rows == ((5, 11), (11, 25))
    assert a @ (1, 1) == (3, 7)
    u = M((2, 1), (1, 1))
    assert u.det() == 1
    assert (u @ u.inverse_unimodular()).is_identity()
    with pytest.raises(DomainError):
        a.inverse_unimodular()


def test_inverse_unimodular_fraction_free():
    rng = random.Random(31)
    for n, count in ((2, 40), (3, 40), (4, 40), (5, 40), (6, 4), (7, 4), (8, 4)):
        for _ in range(count):
            rows = list(random_unimodular(rng, n).rows)
            # shuffled rows put zeros on the diagonal and force pivot swaps
            rng.shuffle(rows)
            a = IntMatrix(rows)
            inv = a.inverse_unimodular()
            assert (a @ inv).is_identity() and (inv @ a).is_identity()
    assert M((-1,)).inverse_unimodular() == M((-1,))
    assert M((0, 1, 0), (0, 0, 1), (1, 0, 0)).inverse_unimodular() == M((0, 0, 1), (1, 0, 0), (0, 1, 0))
    for bad in (M((2, 0), (0, 1)), M((1, 2), (2, 4)), M((0, 0), (0, 0)), M((3,))):
        with pytest.raises(DomainError):
            bad.inverse_unimodular()
    with pytest.raises(InputError):
        M((1, 0, 0), (0, 1, 0)).inverse_unimodular()


def test_inverse_unimodular_is_one_hermite_transform():
    # the inverse is the transform of hermite_form, with no elimination of
    # its own
    with open(glz.__file__) as fh:
        tree = ast.parse(fh.read())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "IntMatrix")
    fn = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "inverse_unimodular")
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    assert not [node.lineno for node in ast.walk(fn) if isinstance(node, loops)]
    calls = [node.func for node in ast.walk(fn) if isinstance(node, ast.Call)]
    assert "hermite_form" in {f.id for f in calls if isinstance(f, ast.Name)}


def test_wrong_hermite_transform_is_an_internal_error(monkeypatch):
    # a transform that does not invert its input fails the check A @ T == I,
    # on a 2x2 matrix and on the 60-row Lyndon minor of weight 4 at rank 4
    from nilaut import nilgroup as ng

    ctx = ng.GroupContext.get(4, 4)
    lo, hi = ctx.weight_range(4)
    blocks = [ng.basis_element(ctx, i)._series[4] for i in range(lo, hi)]
    minor = IntMatrix([[blk[p] for blk in blocks] for p in ng._lyndon_positions(4, 4)])
    assert minor.nrows == 60
    mats = (M((2, 1), (1, 1)), minor)
    for a in mats:
        assert (a @ a.inverse_unimodular()).is_identity()
    real = glz.hermite_form

    def perturbed(rows, with_transform=False):
        h, full, t = real(rows, with_transform)
        t[-1][0] += 1
        return h, full, t

    monkeypatch.setattr(glz, "hermite_form", perturbed)
    for a in mats:
        with pytest.raises(InternalError, match="Hermite transform does not invert its input"):
            a.inverse_unimodular()


def _ref_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def _assert_same_matrix(got, ref):
    # a computed matrix equals, and hashes equal to, the checked one built
    # from the same entries, and holds plain ints
    checked = IntMatrix(ref)
    assert got.rows == tuple(map(tuple, ref))
    assert (got.nrows, got.ncols) == (checked.nrows, checked.ncols)
    assert got == checked and hash(got) == hash(checked)
    assert all(type(x) is int for row in got.rows for x in row)


def test_computed_matrices_match_nested_list_reference():
    rng = random.Random(17)
    big = 1 << 70

    def entry():
        return rng.choice([rng.randint(-9, 9), rng.randint(-big, big)])

    def rand(r, c):
        return [[entry() for _ in range(c)] for _ in range(r)]

    for _ in range(60):
        r, k, c = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, b, a2 = rand(r, k), rand(k, c), rand(r, k)
        _assert_same_matrix(IntMatrix(a) @ IntMatrix(b), _ref_mul(a, b))
        _assert_same_matrix(IntMatrix(a) + IntMatrix(a2), [[x + y for x, y in zip(p, q)] for p, q in zip(a, a2)])
        _assert_same_matrix(IntMatrix(a) - IntMatrix(a2), [[x - y for x, y in zip(p, q)] for p, q in zip(a, a2)])
        _assert_same_matrix(-IntMatrix(a), [[-x for x in p] for p in a])
        _assert_same_matrix(IntMatrix(a).transpose(), [[a[i][j] for i in range(r)] for j in range(k)])
        vec = [entry() for _ in range(k)]
        assert IntMatrix(a) @ vec == tuple(sum(x * y for x, y in zip(p, vec)) for p in a)
    for n in range(1, 6):
        _assert_same_matrix(IntMatrix.identity(n), [[int(i == j) for j in range(n)] for i in range(n)])
    for n in (2, 3, 5):
        u = random_unimodular(rng, n)
        inv = u.inverse_unimodular()
        assert _ref_mul(u.rows, inv.rows) == [[int(i == j) for j in range(n)] for i in range(n)]
        for got in (u, inv):
            _assert_same_matrix(got, [list(row) for row in got.rows])
    # the checked constructor still coerces and refuses bad shapes
    coerced = M((True, 2.0))
    assert coerced.rows == ((1, 2),) and all(type(x) is int for x in coerced.rows[0])
    for bad in ([], [[1, 2], [3]]):
        with pytest.raises(InputError):
            IntMatrix(bad)
    for n in (0, -1):
        with pytest.raises(InputError):
            IntMatrix.identity(n)


def test_is_identity():
    for n in range(1, 6):
        assert IntMatrix.identity(n).is_identity()
        assert not (-IntMatrix.identity(n)).is_identity()
    assert not M((1, 0, 0), (0, 1, 0)).is_identity()
    assert not M((1, 0), (0, 1), (0, 0)).is_identity()
    assert not M((1, 0), (0, 2)).is_identity()
    assert not M((1, 1), (0, 1)).is_identity()
    assert not M((0, 1), (1, 0)).is_identity()


def test_random_unimodular_refuses_n_below_2():
    # a shear needs two distinct indices; n < 2 used to loop forever
    rng = random.Random(5)
    state = rng.getstate()
    for n in (1, 0, -1):
        with pytest.raises(InputError):
            random_unimodular(rng, n)
    assert rng.getstate() == state
    # the stream for n >= 2 is unchanged
    assert random_unimodular(rng, 2) == M((7, -6), (6, -5))
    assert random_unimodular(rng, 3) == M((-13, -4, -3), (-55, -17, -13), (4, 1, 1))


def test_element_order_examples():
    assert element_order(IntMatrix.identity(2)) == 1
    assert element_order(M((0, -1), (1, -1))) == 3
    assert element_order(M((1, 1), (0, 1))) is None
    assert element_order(M((0, -1), (1, 0))) == 4
    assert element_order(M((0, -1), (1, 1))) == 6
    assert element_order(-IntMatrix.identity(2)) == 2
    with pytest.raises(DomainError):
        element_order(M((2, 0), (0, 1)))


def test_classify_involution_examples():
    cls, p = classify_involution2(M((1, 0), (2, -1)))
    assert cls is InvolutionClass.DIAGONAL
    assert p == M((1, 0), (1, 1))
    assert p @ DIAG_REP @ p.inverse_unimodular() == M((1, 0), (2, -1))
    cls, _ = classify_involution2(M((1, 0), (3, -1)))
    assert cls is InvolutionClass.SWAP
    cls, p = classify_involution2(-IntMatrix.identity(2))
    assert cls is InvolutionClass.MINUS_IDENTITY and p.is_identity()
    with pytest.raises(DomainError):
        classify_involution2(M((1, 1), (0, 1)))


def test_class_representatives_classify_by_the_identity():
    # find_nontrivial_witness relies on this: its restriction is DIAG_REP or
    # SWAP_REP, so no conjugator of its own is needed
    eye = IntMatrix.identity(2)
    for rep, want in (
        (DIAG_REP, InvolutionClass.DIAGONAL),
        (SWAP_REP, InvolutionClass.SWAP),
        (eye, InvolutionClass.PLUS_IDENTITY),
        (-eye, InvolutionClass.MINUS_IDENTITY),
    ):
        cls, p = classify_involution2(rep)
        assert cls is want and p == eye


def test_eq2_families():
    for m in range(-10, 11):
        cls, p = classify_involution2(M((1, 0), (2 * m, -1)))
        assert cls is InvolutionClass.DIAGONAL
        assert p @ DIAG_REP @ p.inverse_unimodular() == M((1, 0), (2 * m, -1))
        cls, p = classify_involution2(M((1, 0), (2 * m - 1, -1)))
        assert cls is InvolutionClass.SWAP
        assert p @ SWAP_REP @ p.inverse_unimodular() == M((1, 0), (2 * m - 1, -1))


def test_classify_roundtrip_random():
    rng = random.Random(11)
    for _ in range(200):
        rep = DIAG_REP if rng.random() < 0.5 else SWAP_REP
        q = random_unimodular(rng, 2)
        mat = q @ rep @ q.inverse_unimodular()
        cls, p = classify_involution2(mat)
        expected = InvolutionClass.DIAGONAL if rep is DIAG_REP else InvolutionClass.SWAP
        assert cls is expected
        assert p @ rep @ p.inverse_unimodular() == mat


def test_xy_matrices_swap_example():
    s = SWAP_REP
    for m in (0, 1, 2, -3):
        x, _ = xy_matrices(s, m, "even")
        assert x == M((-1, 2 * m), (-2 * m, 4 * m * m - 1))
    x0, _ = xy_matrices(s, 0, "even")
    assert x0 == -IntMatrix.identity(2)
    x1, _ = xy_matrices(s, 1, "even")
    assert x1 == M((-1, 2), (-2, 3))
    assert not x1.is_central()


def test_xy_literal_products():
    rng = random.Random(5)
    for _ in range(50):
        s = random_unimodular(rng, 2)
        m = rng.randint(-4, 4)
        for parity, k in (("even", 2 * m), ("odd", 2 * m - 1)):
            j = M((1, 0), (k, -1))
            x, y = xy_matrices(s, m, parity)
            assert x == j @ s @ j @ s
            assert y == j @ s @ j @ s.inverse_unimodular()


def test_xy_linearity_tracked_entry():
    # for S with nonzero upper-right entry, the (1,2) entry of both X and Y
    # is linear and non-constant in the parameter
    rng = random.Random(6)
    count = 0
    while count < 100:
        s = random_unimodular(rng, 2)
        if s.rows[0][1] == 0 or s.rows[1][0] == 0:
            continue
        count += 1
        for parity in ("even", "odd"):
            xs = [xy_matrices(s, m, parity)[0].rows[0][1] for m in (0, 1, 2)]
            ys = [xy_matrices(s, m, parity)[1].rows[0][1] for m in (0, 1, 2)]
            for vals in (xs, ys):
                assert vals[2] - 2 * vals[1] + vals[0] == 0
                assert vals[1] - vals[0] != 0


def _both_walks(s0, steps, parity="even", m_range=(-5, 5)):
    # the exact and the certificate walk make the same choices, and the
    # certificate's matrices are the exact ones reduced mod p
    recs = noncentral_sigma_walk(s0, steps, parity, m_range)
    cert_recs = noncentral_walk_certificate(s0, steps, parity, m_range)
    p = WALK_CERT_MODULUS
    for er, cr in zip(recs, cert_recs, strict=True):
        assert (er.m, er.orientation, er.mode) == (cr.m, cr.orientation, cr.mode)
        assert cr.matrix == IntMatrix([[x % p for x in row] for row in er.matrix.rows])
    return recs


def test_walk_step_examples():
    (rec,) = _both_walks(SWAP_REP, 1)
    assert rec.m == 1 and rec.matrix == M((-1, 2), (-2, 3))
    for walk in (noncentral_sigma_walk, noncentral_walk_certificate):
        for s0 in (IntMatrix.identity(2), -IntMatrix.identity(2)):
            with pytest.raises(DomainError, match="walk seed must be non-central"):
                walk(s0, 1)
        with pytest.raises(DomainError, match="determinant"):
            walk(M((2, 1), (1, 1)) @ M((2, 0), (0, 1)), 1)
        with pytest.raises(InputError):
            walk(IntMatrix.identity(3), 1)
        with pytest.raises(InputError, match="parity"):
            walk(SWAP_REP, 1, "neither")


def test_walk_step_degenerate_lower_unipotent():
    # the lower families are constant on +-unipotent lower-triangular input
    # in mode X; the mirrored family provides that successor.  A Y step on
    # such input stays on the lower family
    (rec,) = _both_walks(M((1, 0), (3, 1)), 1)
    assert (rec.mode, rec.orientation) == ("Y", "lower")
    first, second = _both_walks(M((-1, 0), (-3, -1)), 2)
    assert (first.mode, first.orientation, first.matrix) == ("Y", "lower", M((1, 0), (-6, 1)))
    assert (second.mode, second.orientation, second.m) == ("X", "upper", 1)
    assert second.matrix == M((133, -24), (-72, 13))


def test_walk_skips_a_central_lower_family(monkeypatch):
    # the X step from (1 0; -6 1) finds every lower member central; it is
    # decided without scanning the range, so a wide range costs what +-5 does
    calls = []
    rows = glz._family_rows

    def counted(*args):
        calls.append(args)
        return rows(*args)

    monkeypatch.setattr(glz, "_family_rows", counted)
    s0 = M((-1, 0), (-3, -1))
    for walk in (noncentral_sigma_walk, noncentral_walk_certificate):
        counts = []
        for m_range in ((-5, 5), (-200000, 200000)):
            calls.clear()
            recs = walk(s0, 2, "even", m_range)
            assert [(r.m, r.orientation, r.mode) for r in recs] == [(0, "lower", "Y"), (1, "upper", "X")]
            counts.append(len(calls))
        assert counts == [3, 3]


def _scanned_walk(s0, steps, parity, m_range):
    # reference: every family member in search order, lower before upper,
    # by IntMatrix products; None in place of the records when a step
    # finds no non-central candidate
    ms = sorted(range(m_range[0], m_range[1] + 1), key=lambda m: (abs(m), m < 0))
    cur, recs = s0, []
    for k in range(steps):
        second = cur if k % 2 else cur.inverse_unimodular()
        found = None
        for orientation in ("lower", "upper"):
            for m in ms:
                t = 2 * m if parity == "even" else 2 * m - 1
                j = M((1, 0), (t, -1)) if orientation == "lower" else M((1, t), (0, -1))
                cand = j @ cur @ j @ second
                if not cand.is_central():
                    found = (m, orientation, "X" if k % 2 else "Y", cand)
                    break
            if found:
                break
        if found is None:
            return None
        recs.append(found)
        cur = found[3]
    return recs


def test_walk_on_unipotent_lower_seeds_matches_a_full_scan():
    # each Y step from +-(1 0; t 1) gives (1 0; -2t 1), whose X step skips
    # the lower family
    for t, sign, parity, m_range in product(
        (-2, -1, 1, 3), (1, -1), ("even", "odd"), ((-3, 3), (1, 3), (-2, 0), (0, 0))
    ):
        s0 = M((sign, 0), (sign * t, sign))
        ref = _scanned_walk(s0, 3, parity, m_range)
        if ref is None:
            for walk in (noncentral_sigma_walk, noncentral_walk_certificate):
                with pytest.raises(SearchExhausted):
                    walk(s0, 3, parity, m_range)
            continue
        recs = _both_walks(s0, 3, parity, m_range)
        assert [(r.m, r.orientation, r.mode, r.matrix) for r in recs] == ref
        assert recs[1].orientation == "upper"


def test_walk_search_exhausted_messages():
    # with m = 0 only, the X step from (1 -2; 0 1) is central in both families
    s0 = M((1, 1), (0, 1))
    with pytest.raises(SearchExhausted) as exc:
        noncentral_sigma_walk(s0, 2, "even", (0, 0))
    assert str(exc.value) == "no non-central successor for ((1, -2), (0, 1)) within m range ((0, 0),)"
    with pytest.raises(SearchExhausted) as exc:
        noncentral_walk_certificate(s0, 2, "even", (0, 0))
    assert str(exc.value) == "no certified non-central successor at step 1"


def test_search_order_is_lazy():
    def reference(lo, hi):
        return sorted(range(lo, hi + 1), key=lambda m: (abs(m), m < 0))

    for lo, hi in product(range(-7, 8), repeat=2):
        assert list(glz._search_order(lo, hi)) == reference(lo, hi), (lo, hi)
    wide = (-(10**12), 10**12)
    assert list(islice(glz._search_order(*wide), 5)) == [0, 1, -1, 2, -2]
    # a walk that chooses within |m| <= 5 on the lower family chooses the
    # same over any wider range, since the order starts the same way
    for s0, parity in (
        (SWAP_REP, "even"),
        (M((1, 1), (0, 1)), "even"),
        (M((1, 2), (1, 3)), "even"),
        (M((2, 1), (1, 1)), "odd"),
        (M((2, 3), (1, 2)), "odd"),
    ):
        recs = _both_walks(s0, 6, parity)
        assert all(r.orientation == "lower" for r in recs)
        assert _both_walks(s0, 6, parity, wide) == recs


def test_walk():
    recs = noncentral_sigma_walk(M((1, 1), (0, 1)), 5)
    assert len(recs) == 5
    assert all(not r.matrix.is_central() for r in recs)
    assert [r.matrix for r in noncentral_sigma_walk(SWAP_REP, 1)] == [M((-1, 2), (-2, 3))]
    assert noncentral_sigma_walk(SWAP_REP, 0) == []


def test_walk_certificate_matches_exact_prefix():
    p = WALK_CERT_MODULUS
    # asymmetric ranges search only their in-range parameters, still
    # smallest |m| first with m before -m
    for parity, m_range in (
        ("even", (-5, 5)),
        ("odd", (-5, 5)),
        ("even", (1, 3)),
        ("odd", (1, 3)),
        ("even", (-2, 0)),
        ("odd", (-2, 0)),
    ):
        rng = random.Random(8)
        for _ in range(10):
            s0 = random_unimodular(rng, 2)
            if s0.is_central():
                continue
            exact_recs = noncentral_sigma_walk(s0, 10, parity, m_range)
            cert_recs = noncentral_walk_certificate(s0, 10, parity, m_range)
            for er, cr in zip(exact_recs, cert_recs):
                assert (er.m, er.orientation, er.mode) == (cr.m, cr.orientation, cr.mode)
                assert m_range[0] <= er.m <= m_range[1]
                assert all(
                    e % p == c
                    for erow, crow in zip(er.matrix.rows, cr.matrix.rows)
                    for e, c in zip(erow, crow)
                )


def test_walk_certificate_long():
    rng = random.Random(9)
    for _ in range(20):
        s0 = random_unimodular(rng, 2)
        if s0.is_central():
            continue
        recs = noncentral_walk_certificate(s0, 50)
        assert len(recs) == 50
        assert all(not r.matrix.is_central() for r in recs)


def test_smith_normal_form():
    u, d, v = smith_normal_form([[2, 0], [0, 3]])
    assert [d.rows[0][0], d.rows[1][1]] == [1, 6]
    u, d, v = smith_normal_form([[1, 0], [0, 1]])
    assert d.is_identity()
    u, d, v = smith_normal_form([[2, 4]])
    assert d.rows == ((2, 0),)
    # f + I for a harvested involution f of build_structure_M(4, Random(1)):
    # a Smith elimination that pivots on the smallest entry grows these
    # entries to millions of bits within 31 row operations
    blowup = [
        [-753810, 1136400, 7814644, 2394016],
        [242780, -365998, -2516860, -771040],
        [-88754, 133800, 920100, 281872],
        [-62884, 94800, 651908, 199714],
    ]
    u, d, v = smith_normal_form(blowup)
    assert d == M((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 0))
    rng = random.Random(13)
    for mat in [blowup] + [
        [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
        for r, c in ((rng.randint(1, 4), rng.randint(1, 4)) for _ in range(60))
    ]:
        r, c = len(mat), len(mat[0])
        u, d, v = smith_normal_form(mat)
        assert u.det() in (1, -1) and v.det() in (1, -1)
        assert u @ IntMatrix(mat) @ v == d
        diag = [d.rows[i][i] for i in range(min(r, c))]
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i] != 0
                assert diag[i + 1] % diag[i] == 0
        assert all(x >= 0 for x in diag)
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert d.rows[i][j] == 0


def test_hermite_form_canonical():
    h = hermite_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    again = hermite_form(h)
    assert h == again
    for row in h:
        piv = next(j for j, x in enumerate(row) if x)
        assert row[piv] > 0
    rng = random.Random(14)
    for _ in range(40):
        rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        h1 = hermite_form(rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        extra = [r for r in shuffled] + [[a + b for a, b in zip(rows[0], rows[-1])]]
        assert hermite_form(extra) == hermite_form(rows + extra)


# reference solver through the Hermite transform, independent of the
# pivot reduction in Sublattice.contains
def solve_left(amat, b):
    """x with x @ A == b over the integers, or None.

    A is given as rows; x and b are row vectors.
    """
    rows = [list(map(int, r)) for r in amat]
    h, full, t = hermite_form(rows, with_transform=True)
    vec = list(map(int, b))
    coeffs = [0] * len(full)
    for i, row in enumerate(full):
        piv_col = next((j for j, x in enumerate(row) if x), None)
        if piv_col is None:
            continue
        q, r = divmod(vec[piv_col], row[piv_col])
        if r:
            return None
        if q:
            vec = [a - q * x for a, x in zip(vec, row)]
        coeffs[i] = q
    if any(vec):
        return None
    out = [0] * len(rows)
    for i, c in enumerate(coeffs):
        if c:
            out = [a + c * x for a, x in zip(out, t[i])]
    return tuple(out)


def test_solve_left():
    a = [[1, 2, 0], [0, 1, 1]]
    x = solve_left(a, (1, 4, 2))
    assert x is not None
    got = [
        sum(x[i] * a[i][j] for i in range(2)) for j in range(3)
    ]
    assert tuple(got) == (1, 4, 2)
    assert solve_left([[2, 0]], (1, 0)) is None


def test_sublattice_basics():
    lat = Sublattice(2, [(1, 1)])
    assert lat.contains((2, 2))
    assert not lat.contains((1, 0))
    for dependent in ([(2, 2), (3, 3)], [(1, 1), (2, 2)]):
        with pytest.raises(InputError):
            Sublattice(2, dependent)
    # the Hermite form of dependent generators is a basis of their span
    assert Sublattice(2, hermite_form([(2, 2), (3, 3)])) == Sublattice(2, [(1, 1)])
    sub = Sublattice(2, [(2, 0)])
    sup = Sublattice(2, [(1, 0)])
    assert sub.is_subset(sup) and not sup.is_subset(sub)
    assert Sublattice(2, [(1, 1)]).to_json() == {"ambient": 2, "basis": [[1, 1]]}


def _contains_by_solving(lat, vec):
    return solve_left(lat.basis, vec) is not None if lat.rank else not any(vec)


def test_sublattice_contains_matches_solve_left():
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(1, 5)
        rank = rng.randint(1, n)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rank)]
        extra = [[rng.randint(-2, 2) * x + rng.randint(-2, 2) * y for x, y in zip(rows[0], rows[-1])], [0] * n]
        lats = [Sublattice(n, hermite_form(rows + extra)), Sublattice(n, [])]
        if len(hermite_form(rows)) == rank:
            lats.append(Sublattice(n, rows))
        for lat in lats:
            assert len(lat.pivots) == lat.rank
            members = [
                tuple(sum(c * row[j] for c, row in zip(coeffs, lat.basis)) for j in range(n))
                for coeffs in ([rng.randint(-3, 3) for _ in lat.basis] for _ in range(5))
            ]
            probes = members + [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(10)]
            for vec in probes:
                assert lat.contains(vec) == _contains_by_solving(lat, vec)
            assert all(lat.contains(v) for v in members)


def test_summand_examples():
    assert not is_direct_summand(Sublattice(2, [(2, 0)]))
    lat = Sublattice(2, [(1, 1)])
    assert is_direct_summand(lat)
    comp = find_complement(lat)
    assert comp == Sublattice(2, [(0, 1)])
    assert relation_R(lat, comp)
    e1 = Sublattice(2, [(1, 0)])
    assert not relation_R(e1, e1)
    assert find_complement(Sublattice(2, [(2, 0)])) is None
    assert is_direct_summand(Sublattice(3, []))
    full = find_complement(Sublattice(2, []))
    assert full.rank == 2 and relation_R(Sublattice(2, []), full)


def test_summand_brute_force_oracle():
    # rank-1 sublattices of Z^2 with small entries versus exhaustive search
    # for an integral complementary vector
    for a in range(-3, 4):
        for b in range(-3, 4):
            if (a, b) == (0, 0):
                continue
            lat = Sublattice(2, [(a, b)])
            brute = any(
                abs(a * d - b * c) == 1
                for c in range(-10, 11)
                for d in range(-10, 11)
            )
            assert is_direct_summand(lat) == brute
            comp = find_complement(lat)
            if brute:
                assert comp is not None and relation_R(lat, comp)
            else:
                assert comp is None


def _det_by_expansion(rows):
    """Laplace expansion along the first row: a determinant with no elimination."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * _det_by_expansion([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0])
        if x
    )


def _minors(rows, r):
    """Every r x r minor of the rows, by expansion."""
    return [
        _det_by_expansion([[row[j] for j in cols] for row in sub])
        for sub in combinations(rows, r)
        for cols in combinations(range(len(rows[0])), r)
    ]


def _in_integer_span(basis, vec):
    """Whether vec is an integer combination of the independent basis rows,
    by Cramer's rule on a nonzero maximal minor."""
    if not basis:
        return not any(vec)
    cols = next(
        cols
        for cols in combinations(range(len(vec)), len(basis))
        if _det_by_expansion([[row[j] for j in cols] for row in basis])
    )
    sub = [[row[j] for j in cols] for row in basis]
    d = _det_by_expansion(sub)
    coeffs = []
    for i in range(len(basis)):
        num = _det_by_expansion(sub[:i] + [[vec[j] for j in cols]] + sub[i + 1:])
        if num % d:
            return False
        coeffs.append(num // d)
    return tuple(sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(len(vec))) == vec


def test_kernel_basis_against_references():
    # rank by minors and the kernel by exhaustive search in a box: neither
    # reference uses an elimination
    rng = random.Random(61)
    for _ in range(120):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.5:
            k = rng.randint(-2, 2)
            rows.append([2 * a + k * b for a, b in zip(rows[0], rows[-1])])
        mat = IntMatrix(rows)
        kern = kernel_basis(mat)
        rank = max(r for r in range(min(len(rows), n) + 1) if any(_minors(rows, r)))
        assert len(kern) == n - rank
        assert all(not any(mat @ k) for k in kern)
        for vec in product(range(-4, 5), repeat=n):
            if not any(mat @ vec):
                assert _in_integer_span(kern, vec)


def test_summands_against_minors():
    # B extends to a basis of Z^n exactly when its maximal minors have gcd 1
    rng = random.Random(62)
    verdicts = set()
    for _ in range(200):
        n = rng.randint(1, 4)
        r = rng.randint(1, n)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        minors = _minors(rows, r)
        if not any(minors):
            continue
        lat = Sublattice(n, rows)
        unit = math.gcd(*minors) == 1
        verdicts.add(unit)
        assert is_direct_summand(lat) == unit
        comp = find_complement(lat)
        assert (comp is not None) == unit
        if unit:
            assert relation_R(lat, comp)
    assert verdicts == {True, False}


def test_kernel_basis_saturated():
    mat = M((0, 0, 0), (0, 0, -2), (0, -2, 0))
    rows = kernel_basis(mat)
    assert rows == [(1, 0, 0)]
    assert kernel_basis(IntMatrix.identity(2)) == []
    rows = kernel_basis(M((2, 4), (1, 2)))
    assert rows == [(2, -1)]


def test_diagonalizable_involutions():
    assert is_diagonalizable_involution(DIAG_REP)
    assert not is_diagonalizable_involution(SWAP_REP)
    assert is_diagonalizable_involution(-IntMatrix.identity(2))
    rng = random.Random(21)
    for _ in range(50):
        q = random_unimodular(rng, 2)
        assert is_diagonalizable_involution(q @ DIAG_REP @ q.inverse_unimodular())
        assert not is_diagonalizable_involution(q @ SWAP_REP @ q.inverse_unimodular())
    with pytest.raises(DomainError):
        is_diagonalizable_involution(M((1, 1), (0, 1)))


def test_involution_eigenlattices():
    fix, neg, splits = involution_eigenlattices(DIAG_REP)
    assert (fix, neg, splits) == ([(1, 0)], [(0, 1)], True)
    fix, neg, splits = involution_eigenlattices(SWAP_REP)
    assert (fix, neg, splits) == ([(1, 1)], [(1, -1)], False)
    assert involution_eigenlattices(-IntMatrix.identity(3)) == (
        [], [(1, 0, 0), (0, 1, 0), (0, 0, 1)], True
    )
    # conjugates of diag(-1, 1, ..., 1), which splits, and of the swap of
    # the first two coordinates, which does not
    rng = random.Random(22)
    for n in (2, 3, 4):
        eye = IntMatrix.identity(n)
        diag = [list(r) for r in eye.rows]
        diag[0][0] = -1
        swap = [list(r) for r in eye.rows]
        swap[0], swap[1] = swap[1], swap[0]
        for base, want in ((M(*diag), True), (M(*swap), False)):
            for _ in range(5):
                q = random_unimodular(rng, n)
                f = q @ base @ q.inverse_unimodular()
                fix, neg, splits = involution_eigenlattices(f)
                assert fix == kernel_basis(f - eye) and neg == kernel_basis(f + eye)
                assert splits is want and is_diagonalizable_involution(f) is want
    with pytest.raises(InputError):
        involution_eigenlattices(M((1, 0, 0), (0, 1, 0)))
    with pytest.raises(DomainError):
        involution_eigenlattices(M((1, 1), (0, 1)))


def test_order3_falsifier_swap_witness():
    # frozen witness: conjugates (0 1; 1 0) and (1 0; -1 -1) multiply to an
    # order-3 matrix
    prod = SWAP_REP @ M((1, 0), (-1, -1))
    assert prod == M((-1, -1), (1, 0))
    assert element_order(prod) == 3
    rng = random.Random(31)
    wit = order3_falsifier(SWAP_REP, 500, rng)
    assert wit is not None
    assert element_order(wit["product"]) == 3
    assert (wit["a"] @ wit["a"]).is_identity()
    assert wit["a"] == wit["g"] @ SWAP_REP @ wit["g"].inverse_unimodular()


def test_order3_falsifier_diagonal_clean():
    rng = random.Random(32)
    assert order3_falsifier(DIAG_REP, 500, rng) is None
    assert order3_falsifier(DIAG_REP, 0, rng) is None
    with pytest.raises(DomainError):
        order3_falsifier(-IntMatrix.identity(2), 5, rng)


# reference: the per-sample loop that inverts g and h for every sample,
# independent of the trace test and the shear inverses of order3_falsifier
def _order3_falsifier_by_inverses(mat, samples, rng):
    _, frame = classify_involution2(mat)
    frame_inv = frame.inverse_unimodular()
    for _ in range(samples):
        g = frame @ glz._random_shears(rng, 2, 1, 6, 2)[0] @ frame_inv
        h = frame @ glz._random_shears(rng, 2, 1, 6, 2)[0] @ frame_inv
        a = g @ mat @ g.inverse_unimodular()
        b = h @ mat @ h.inverse_unimodular()
        if element_order(a @ b) == 3:
            return {"g": g, "h": h, "a": a, "b": b, "product": a @ b}
    return None


def test_order3_falsifier_matches_the_per_sample_inverses():
    # the two catalogues of the interp-M check: each class representative
    # and five conjugates of it
    hits = {DIAG_REP: 0, SWAP_REP: 0}
    for seed in range(24):
        rng = random.Random(seed)
        for rep in (DIAG_REP, SWAP_REP):
            catalog = [rep]
            for _ in range(5):
                q = random_unimodular(rng, 2)
                catalog.append(q @ rep @ q.inverse_unimodular())
            for i, f in enumerate(catalog):
                got_rng, want_rng = random.Random(100 * seed + i), random.Random(100 * seed + i)
                got = order3_falsifier(f, 40, got_rng)
                assert got == _order3_falsifier_by_inverses(f, 40, want_rng)
                assert got_rng.getstate() == want_rng.getstate()
                hits[rep] += got is not None
    # 40 samples find a witness for most swap-class matrices, not all, so
    # both branches of the swap search are compared too
    assert hits[DIAG_REP] == 0 and 0 < hits[SWAP_REP] < 24 * 6


def test_order3_falsifier_miss_inverts_nothing(monkeypatch):
    calls = []
    real = IntMatrix.inverse_unimodular

    def counting(self):
        calls.append(self)
        return real(self)

    rng = random.Random(33)
    q = random_unimodular(rng, 2)
    f = q @ DIAG_REP @ q.inverse_unimodular()
    monkeypatch.setattr(IntMatrix, "inverse_unimodular", counting)
    assert order3_falsifier(f, 200, rng) is None
    assert calls == []
    # a hit inverts the frame, g and h once each
    assert order3_falsifier(SWAP_REP, 200, rng) is not None
    assert len(calls) == 3


def test_order_three_at_det_one_is_trace_minus_one():
    # Cayley-Hamilton: a det-1 matrix with trace -1 satisfies m^2 + m + I == 0
    seen = 0
    for a, b, c, d in product(range(-4, 5), repeat=4):
        if a * d - b * c == 1:
            seen += 1
            assert (element_order(M((a, b), (c, d))) == 3) == (a + d == -1)
    assert seen > 100


def test_random_shears_carry_their_inverse():
    for n in (2, 3, 4, 5):
        rng = random.Random(40 + n)
        for _ in range(10):
            p, p_inv = glz._random_shears(rng, n, 1, 15, 3)
            assert (p @ p_inv).is_identity() and (p_inv @ p).is_identity()


def _random_unimodular_draws(rng, n, min_factors, max_factors, bound):
    # the draw sequence random_unimodular and order3_falsifier have always
    # made through their shared shear loop: factor count, then per shear
    # i, j (redrawn until j != i) and the nonzero k
    out = [[int(a == b) for b in range(n)] for a in range(n)]
    for _ in range(rng.randint(min_factors, max_factors)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        while j == i:
            j = rng.randrange(n)
        k = rng.choice([x for x in range(-bound, bound + 1) if x])
        for row in out:
            row[j] += k * row[i]
    return IntMatrix(out)


def test_random_unimodular_keeps_its_draw_sequence():
    for n, args in ((2, (5, 15, 3)), (2, (1, 6, 2)), (3, (5, 15, 3)), (5, (5, 15, 3))):
        for seed in range(5):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            for _ in range(3):
                if args == (5, 15, 3):
                    got = random_unimodular(got_rng, n)
                else:
                    got = glz._random_shears(got_rng, n, *args)[0]
                assert got == _random_unimodular_draws(want_rng, n, *args)
                assert got_rng.getstate() == want_rng.getstate()


def _check_splitting(f, restriction, frame):
    # B and C are spanned by the frame's first two and its other columns
    n = f.nrows
    cols = frame.transpose().rows
    b, c = Sublattice(n, cols[:2]), Sublattice(n, cols[2:])
    assert b.rank == 2
    assert relation_R(b, c)
    for row in b.basis:
        assert b.contains(f @ row)
    for row in c.basis:
        assert c.contains(f @ row)
    assert not restriction.is_central()
    assert (restriction @ restriction).is_identity()
    return b, c


def test_invariant_splitting_examples():
    restriction, frame = invariant_splitting(DIAG_REP)
    b, c = _check_splitting(DIAG_REP, restriction, frame)
    assert b == Sublattice(2, [(1, 0), (0, 1)])
    assert c.rank == 0

    f = M((1, 0, 0), (0, 1, 0), (0, 0, -1))
    restriction, frame = invariant_splitting(f)
    b, c = _check_splitting(f, restriction, frame)
    assert b == Sublattice(3, [(1, 0, 0), (0, 0, 1)])
    assert c == Sublattice(3, [(0, 1, 0)])
    assert restriction == DIAG_REP

    f = M((0, 1, 0), (1, 0, 0), (0, 0, 1))
    restriction, frame = invariant_splitting(f)
    b, c = _check_splitting(f, restriction, frame)
    assert b == Sublattice(3, [(1, 0, 0), (0, 1, 0)])
    assert c == Sublattice(3, [(0, 0, 1)])
    assert restriction == SWAP_REP

    # x0 = e1 lies outside Fix (+) Neg and is already the x of the swap
    # plane, with f x = e2; the functional lambda = e1* takes x to 1 and
    # f x to 0, and C is the common kernel of lambda and lambda f = (0, 1, 1)
    f = M((0, 1, 1), (1, 0, -1), (0, 0, 1))
    b, c = _check_splitting(f, *invariant_splitting(f))
    assert b == Sublattice(3, [(1, 0, 0), (0, 1, 0)])
    assert c == Sublattice(3, [(0, 1, -1)])


def test_invariant_splitting_refuses_a_frame_that_is_not_a_basis(monkeypatch):
    # a fixed vector doubled still spans B (+) C rationally, but the frame it
    # gives has det 2; its inverse is refused as an internal error
    real = glz.involution_eigenlattices

    def doubled(mat):
        fix, neg, splits = real(mat)
        return [tuple(2 * v for v in fix[0])] + fix[1:], neg, splits

    monkeypatch.setattr(glz, "involution_eigenlattices", doubled)
    with pytest.raises(InternalError, match="splitting frame is not unimodular"):
        invariant_splitting(M((1, 0, 0), (0, 1, 0), (0, 0, -1)))


def test_invariant_splitting_random_conjugates():
    rng = random.Random(41)
    base3 = [
        M((1, 0, 0), (0, 1, 0), (0, 0, -1)),
        M((0, 1, 0), (1, 0, 0), (0, 0, 1)),
        M((0, 1, 0), (1, 0, 0), (0, 0, -1)),
    ]
    for f0 in base3:
        for _ in range(10):
            q = random_unimodular(rng, 3)
            f = q @ f0 @ q.inverse_unimodular()
            _check_splitting(f, *invariant_splitting(f))
    # one to three swap blocks, the other diagonal entries +-1 at random
    for n in range(2, 7):
        for blocks in range(1, min(3, n // 2) + 1):
            for _ in range(56):
                rows = [[0] * n for _ in range(n)]
                for i in range(blocks):
                    rows[2 * i][2 * i + 1] = rows[2 * i + 1][2 * i] = 1
                for i in range(2 * blocks, n):
                    rows[i][i] = rng.choice((1, -1))
                q = random_unimodular(rng, n)
                f = q @ IntMatrix(rows) @ q.inverse_unimodular()
                restriction, frame = invariant_splitting(f)
                _check_splitting(f, restriction, frame)
                assert restriction == SWAP_REP
    with pytest.raises(DomainError):
        invariant_splitting(IntMatrix.identity(2))
