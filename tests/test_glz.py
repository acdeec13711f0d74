import random

import pytest

from nilaut.errors import DomainError, InputError
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
    is_diagonalizable_involution,
    is_direct_summand,
    kernel_basis,
    noncentral_sigma_walk,
    noncentral_successor,
    order3_falsifier,
    random_unimodular,
    relation_R,
    smith_normal_form,
    solve_left,
    xgcd,
    xy_matrices,
)


def M(*rows):
    return IntMatrix(rows)


def test_xgcd():
    rng = random.Random(3)
    for _ in range(200):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        x, y, g = xgcd(a, b)
        assert x * a + y * b == g
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_matrix_basics():
    a = M((1, 2), (3, 4))
    assert a.det() == -2
    assert (a @ a.transpose()).rows == ((5, 11), (11, 25))
    assert a @ (1, 1) == (3, 7)
    u = M((2, 1), (1, 1))
    assert u.det() == 1
    assert (u @ u.inverse_unimodular()).is_identity()
    assert u.power(0).is_identity()
    assert u.power(-2) == u.inverse_unimodular() @ u.inverse_unimodular()
    with pytest.raises(DomainError):
        a.inverse_unimodular()


def test_inverse_unimodular_fraction_free():
    rng = random.Random(31)
    for n in (2, 3, 4, 5):
        for _ in range(40):
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


def test_noncentral_successor_examples():
    rec = noncentral_successor(SWAP_REP, "X", "even")
    assert rec.m == 1 and rec.matrix == M((-1, 2), (-2, 3))
    rec = noncentral_successor(M((1, 1), (0, 1)), "X", "even")
    assert not rec.matrix.is_central()
    assert rec.m == 1
    rec = noncentral_successor(M((-1, 2), (-2, 3)), "X", "even")
    assert not rec.matrix.is_central()
    with pytest.raises(DomainError):
        noncentral_successor(IntMatrix.identity(2), "X", "even")


def test_noncentral_successor_degenerate_lower_unipotent():
    # the lower families are constant on +-unipotent lower-triangular input;
    # the mirrored family provides the successor
    rec = noncentral_successor(M((1, 0), (3, 1)), "X", "even")
    assert not rec.matrix.is_central()
    assert rec.orientation == "upper"
    rec = noncentral_successor(M((1, 0), (3, 1)), "Y", "even")
    assert not rec.matrix.is_central()
    assert rec.orientation == "lower"


def test_walk():
    mats, recs = noncentral_sigma_walk(M((1, 1), (0, 1)), 5)
    assert len(mats) == 5 and len(recs) == 5
    assert all(not m.is_central() for m in mats)
    mats, recs = noncentral_sigma_walk(SWAP_REP, 1)
    assert mats == [M((-1, 2), (-2, 3))]
    assert noncentral_sigma_walk(SWAP_REP, 0) == ([], [])


def test_walk_certificate_matches_exact_prefix():
    rng = random.Random(8)
    p = WALK_CERT_MODULUS
    for _ in range(10):
        s0 = random_unimodular(rng, 2)
        if s0.is_central():
            continue
        exact_mats, exact_recs = noncentral_sigma_walk(s0, 10)
        cert_mats, cert_recs = noncentral_walk_certificate(s0, 10)
        for em, cm, er, cr in zip(exact_mats, cert_mats, exact_recs, cert_recs):
            assert (er.m, er.orientation, er.mode) == (cr.m, cr.orientation, cr.mode)
            assert all(
                e % p == c for erow, crow in zip(em.rows, cm.rows) for e, c in zip(erow, crow)
            )


def test_walk_certificate_long():
    rng = random.Random(9)
    for _ in range(20):
        s0 = random_unimodular(rng, 2)
        if s0.is_central():
            continue
        mats, recs = noncentral_walk_certificate(s0, 50)
        assert len(mats) == 50
        assert all(not m.is_central() for m in mats)


def test_smith_normal_form():
    u, d, v = smith_normal_form([[2, 0], [0, 3]])
    assert [d.rows[0][0], d.rows[1][1]] == [1, 6]
    u, d, v = smith_normal_form([[1, 0], [0, 1]])
    assert d.is_identity()
    u, d, v = smith_normal_form([[2, 4]])
    assert d.rows == ((2, 0),)
    rng = random.Random(13)
    for _ in range(60):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        mat = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
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
    assert Sublattice(2, [(2, 2), (3, 3)]) if False else True
    with pytest.raises(InputError):
        Sublattice(2, [(1, 1), (2, 2)])
    span = Sublattice.spanned_by(2, [(2, 2), (3, 3)])
    assert span == Sublattice(2, [(1, 1)])
    sub = Sublattice(2, [(2, 0)])
    sup = Sublattice(2, [(1, 0)])
    assert sub.is_subset(sup) and not sup.is_subset(sub)
    assert Sublattice(2, [(1, 1)]).to_json() == {"ambient": 2, "basis": [[1, 1]]}
    assert Sublattice.from_json({"ambient": 2, "basis": [[1, 1]]}) == Sublattice(2, [(1, 1)])


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
    assert is_direct_summand(Sublattice.zero(3))
    full = find_complement(Sublattice.zero(2))
    assert full.rank == 2 and relation_R(Sublattice.zero(2), full)


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


def _check_splitting(f, split):
    n = f.nrows
    assert split.b.rank == 2
    assert relation_R(split.b, split.c)
    for row in split.b.basis:
        assert split.b.contains(f @ row)
    for row in split.c.basis:
        assert split.c.contains(f @ row)
    assert not split.restriction.is_central()
    assert (split.restriction @ split.restriction).is_identity()


def test_invariant_splitting_examples():
    split = invariant_splitting(DIAG_REP)
    assert split.b == Sublattice(2, [(1, 0), (0, 1)])
    assert split.c.rank == 0
    _check_splitting(DIAG_REP, split)

    f = M((1, 0, 0), (0, 1, 0), (0, 0, -1))
    split = invariant_splitting(f)
    assert split.b == Sublattice(3, [(1, 0, 0), (0, 0, 1)])
    assert split.c == Sublattice(3, [(0, 1, 0)])
    assert split.restriction == DIAG_REP
    _check_splitting(f, split)

    f = M((0, 1, 0), (1, 0, 0), (0, 0, 1))
    split = invariant_splitting(f)
    assert split.b == Sublattice(3, [(1, 0, 0), (0, 1, 0)])
    assert split.c == Sublattice(3, [(0, 0, 1)])
    assert split.restriction == SWAP_REP
    _check_splitting(f, split)


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
            _check_splitting(f, invariant_splitting(f))
    with pytest.raises(DomainError):
        invariant_splitting(IntMatrix.identity(2))
