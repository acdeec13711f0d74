"""Integer matrices, normal forms, sublattices of Z^n, and the GL(2,Z)
involution machinery: conjugacy classification with explicit conjugators,
the parametrized X/Y products, non-central walks, an order-3 falsifier, and
invariant splittings of integer involutions.

Matrices act on column vectors; sublattices store their basis as rows in
canonical Hermite form, so equality of sublattices is syntactic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from operator import add, mul, neg

from .errors import DomainError, InputError, InternalError, SearchExhausted

__all__ = [
    "IntMatrix",
    "Sublattice",
    "InvolutionClass",
    "hermite_form",
    "smith_normal_form",
    "kernel_basis",
    "element_order",
    "classify_involution2",
    "xy_matrices",
    "noncentral_sigma_walk",
    "is_direct_summand",
    "find_complement",
    "relation_R",
    "involution_eigenlattices",
    "is_diagonalizable_involution",
    "order3_falsifier",
    "invariant_splitting",
    "random_unimodular",
]


class IntMatrix:
    """Immutable integer matrix with exact arithmetic.

    `IntMatrix(rows)` is the constructor for outside input: it coerces every
    entry with `int()` and refuses empty or ragged rows.  Matrices this
    module computes from checked ones (products, sums, negations,
    identities, inverses and random unimodular matrices) go through
    `_trusted`, which stores its argument as the rows unchanged: it must be
    a nonempty tuple of equal-length tuples of ints.  Such a matrix
    compares and hashes equal to the checked one built from the same
    entries.  Elsewhere only `nilgroup` calls it, on its series' own ints.
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        self.rows = tuple(tuple(int(x) for x in r) for r in rows)
        self.nrows = len(self.rows)
        if self.nrows == 0:
            raise InputError("matrix needs at least one row")
        self.ncols = len(self.rows[0])
        if any(len(r) != self.ncols for r in self.rows):
            raise InputError("ragged matrix rows")

    @classmethod
    def _trusted(cls, rows) -> "IntMatrix":
        obj = object.__new__(cls)
        obj.rows = rows
        obj.nrows = len(rows)
        obj.ncols = len(rows[0])
        return obj

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        if n < 1:
            raise InputError("matrix needs at least one row")
        return cls._trusted(tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)))

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "IntMatrix(%s)" % (list(map(list, self.rows)),)

    def __matmul__(self, other):
        if isinstance(other, IntMatrix):
            if self.ncols != other.nrows:
                raise InputError("matrix shapes do not compose")
            cols = tuple(zip(*other.rows))
            return IntMatrix._trusted(
                tuple(tuple([sum(map(mul, row, col)) for col in cols]) for row in self.rows)
            )
        # column vector application
        vec = tuple(other)
        if len(vec) != self.ncols:
            raise InputError("vector length does not match")
        return tuple([sum(map(mul, row, vec)) for row in self.rows])

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise InputError("matrix shapes differ")
        return IntMatrix._trusted(
            tuple(tuple(map(add, r1, r2)) for r1, r2 in zip(self.rows, other.rows))
        )

    def __neg__(self):
        return IntMatrix._trusted(tuple(tuple(map(neg, r)) for r in self.rows))

    def __sub__(self, other):
        return self + (-other)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self.rows)))

    def det(self) -> int:
        if not self.is_square:
            raise InputError("determinant needs a square matrix")
        # Bareiss fraction-free elimination
        n = self.nrows
        m = [list(r) for r in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact inverse; requires det in {1, -1}.

        The row Hermite form of a unimodular matrix is the identity, so the
        transform T of `hermite_form`, with T @ A == I, is the inverse.  Any
        other Hermite form means det is not +-1.  A @ T == I is checked.
        """
        if not self.is_square:
            raise InputError("inverse needs a square matrix")
        h, _, t = hermite_form(self.rows, with_transform=True)
        eye = IntMatrix.identity(self.nrows).to_json()
        if h != eye:
            raise DomainError("matrix is not unimodular")
        if _product_rows(self.rows, t) != eye:
            raise InternalError("Hermite transform does not invert its input")
        return IntMatrix._trusted(tuple(map(tuple, t)))

    def is_identity(self) -> bool:
        # in place: each row i holds a 1 at i and n - 1 zeros
        n = self.nrows
        return n == self.ncols and all(
            row[i] == 1 and row.count(0) == n - 1 for i, row in enumerate(self.rows)
        )

    def is_central(self) -> bool:
        """Scalar matrix test; in GL(n,Z) the center is {I, -I}."""
        if not self.is_square:
            raise InputError("centrality needs a square matrix")
        d = self.rows[0][0]
        return all(
            self.rows[i][j] == (d if i == j else 0)
            for i in range(self.nrows)
            for j in range(self.ncols)
        )

    def to_json(self):
        return [list(r) for r in self.rows]


# ---------------------------------------------------------------------------
# normal forms and integer linear algebra
# ---------------------------------------------------------------------------


def _product_rows(a, b):
    """The rows of a @ b as lists: row i sums the rows of b scaled by the
    nonzeros of row i of a, so a sparse a costs nnz(a) * width(b)."""
    out = []
    for row in a:
        acc = None
        for x, brow in zip(row, b):
            if x:
                scaled = map(x.__mul__, brow)
                acc = list(scaled if acc is None else map(add, acc, scaled))
        out.append(acc or [0] * len(b[0]))
    return out


def hermite_form(rows, with_transform=False):
    """Canonical row Hermite form (pivots positive, entries above reduced).

    Zero rows sink to the bottom and are dropped from the result.  With
    with_transform=True also returns a unimodular T with T @ input == the
    untruncated form: T rides along as m extra columns of the m input rows,
    [A | I] becomes [H | T], and pivots are taken in A's columns only.
    """
    mat = [list(map(int, r)) for r in rows]
    m = len(mat)
    ncols = len(mat[0]) if m else 0
    if with_transform:
        for i, r in enumerate(mat):
            r.extend([0] * m)
            r[ncols + i] = 1
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, m):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        for r in range(row + 1, m):
            while mat[r][col]:
                q = mat[r][col] // mat[row][col]
                if q:
                    mat[r] = [a - q * b for a, b in zip(mat[r], mat[row])]
                if mat[r][col]:
                    mat[row], mat[r] = mat[r], mat[row]
        if mat[row][col] < 0:
            mat[row] = [-a for a in mat[row]]
        for r in range(row):
            q = mat[r][col] // mat[row][col]
            if q:
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[row])]
        row += 1
        if row == m:
            break
    if with_transform:
        full = [r[:ncols] for r in mat]
        return [r for r in full if any(r)], full, [r[ncols:] for r in mat]
    return [r for r in mat if any(r)]


def smith_normal_form(mat):
    """(U, D, V) with U @ M @ V == D diagonal, d_i | d_{i+1}, d_i >= 0.

    Built from `hermite_form` alone, after Kannan and Bachem (1979):
    alternate row and column Hermite forms until the matrix is diagonal.
    Where some d_i does not divide a later d_j, column j is added to column
    i, the next row form puts gcd(d_i, d_j) in place of d_i, and the loop
    goes round again.  Each transform is folded into U or V.
    """
    a = IntMatrix(mat.rows if isinstance(mat, IntMatrix) else mat)
    u, v = IntMatrix.identity(a.nrows), IntMatrix.identity(a.ncols)
    while True:
        _, full, t = hermite_form(a.rows, with_transform=True)
        u = IntMatrix(t) @ u
        _, full, t = hermite_form(zip(*full), with_transform=True)
        v = v @ IntMatrix(t).transpose()
        a = IntMatrix(full).transpose()
        if any(x for i, row in enumerate(a.rows) for j, x in enumerate(row) if i != j):
            continue
        # the column form leaves the zero columns last
        d = [x for x in (a.rows[i][i] for i in range(min(a.nrows, a.ncols))) if x]
        bad = next(((i, j) for i, j in combinations(range(len(d)), 2) if d[j] % d[i]), None)
        if bad is None:
            return u, a, v
        i, j = bad
        # right multiplication by I + E_ji adds column j to column i
        add = IntMatrix(
            [[int(r == c or (r, c) == (j, i)) for c in range(a.ncols)] for r in range(a.ncols)]
        )
        a, v = a @ add, v @ add


def kernel_basis(mat: IntMatrix):
    """Canonical (Hermite-form) row basis of {x : M x == 0}, saturated.

    With T @ M^T the row Hermite form of M^T, the rows of T beside its zero
    rows solve M x == 0.  T is unimodular, so they span the whole kernel,
    not a sublattice of finite index in it.
    """
    h, _, t = hermite_form(zip(*mat.rows), with_transform=True)
    kern = t[len(h):]
    return [tuple(r) for r in hermite_form(kern)] if kern else []


# ---------------------------------------------------------------------------
# sublattices
# ---------------------------------------------------------------------------


class Sublattice:
    """A sublattice of Z^n with canonical Hermite-form row basis.

    `pivots[i]` is the column of the leading entry of `basis[i]`, stored
    once at construction.
    """

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient: int, basis_rows):
        rows = [tuple(map(int, r)) for r in basis_rows]
        for r in rows:
            if len(r) != ambient:
                raise InputError("basis row length %d != ambient %d" % (len(r), ambient))
        h = hermite_form(rows)
        if len(h) != len([r for r in rows if any(r)]):
            raise InputError("basis rows are linearly dependent")
        self.ambient = ambient
        self.basis = tuple(tuple(r) for r in h)
        self.pivots = tuple(next(j for j, x in enumerate(r) if x) for r in self.basis)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        """Membership by reduction against the Hermite rows.

        The rows are in echelon order and zero left of their stored pivots,
        so subtracting a multiple of each row in turn clears its pivot
        column for good: v lies in the lattice exactly when every division
        is exact and nothing is left over.
        """
        v = list(map(int, vec))
        if len(v) != self.ambient:
            raise InputError("vector length does not match ambient dimension")
        for row, piv in zip(self.basis, self.pivots):
            q, r = divmod(v[piv], row[piv])
            if r:
                return False
            if q:
                for j in range(piv, self.ambient):
                    v[j] -= q * row[j]
        return not any(v)

    def is_subset(self, other: "Sublattice") -> bool:
        if self.ambient != other.ambient:
            raise InputError("ambient dimensions differ")
        return all(other.contains(r) for r in self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Sublattice)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return "Sublattice(ambient=%d, basis=%s)" % (self.ambient, list(map(list, self.basis)))

    def to_json(self):
        return {"ambient": self.ambient, "basis": [list(r) for r in self.basis]}


def _summand_transform(rows):
    """Unimodular T with T @ B^T == [I_r; 0] for the r rows B, or None.

    T exists exactly when the Hermite form of the columns of B is I_r, that
    is when B maps Z^n onto Z^r and its rows extend to a basis of Z^n
    (Cohen, A Course in Computational Algebraic Number Theory, 1993, 2.4).
    """
    h, _, t = hermite_form(zip(*rows), with_transform=True)
    r = len(rows)
    return t if h == [[int(i == j) for j in range(r)] for i in range(r)] else None


def is_direct_summand(lat: Sublattice) -> bool:
    """True when Z^n splits off the sublattice: its Hermite basis rows map
    Z^n onto Z^r, so they extend to a basis of Z^n."""
    return lat.rank == 0 or _summand_transform(lat.basis) is not None


def find_complement(lat: Sublattice):
    """A complementary direct summand, or None when lat is not a summand.

    From T @ B^T == [I_r; 0] follows B == [I_r 0] @ W with W = (T^-1)^T, so
    the rows of W after the first r complete the basis rows B.
    """
    n = lat.ambient
    if lat.rank == 0:
        return Sublattice(n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])
    t = _summand_transform(lat.basis)
    if t is None:
        return None
    w = IntMatrix(t).inverse_unimodular().transpose()
    return Sublattice(n, w.rows[lat.rank:])


def relation_R(b: Sublattice, c: Sublattice) -> bool:
    """R(B, C): the ambient lattice is the direct sum of B and C."""
    if b.ambient != c.ambient:
        raise InputError("ambient dimensions differ")
    if b.rank + c.rank != b.ambient:
        return False
    stacked = IntMatrix(list(b.basis) + list(c.basis))
    return stacked.det() in (1, -1)


# ---------------------------------------------------------------------------
# GL(2,Z) involutions
# ---------------------------------------------------------------------------


class InvolutionClass(Enum):
    PLUS_IDENTITY = "plus_identity"
    MINUS_IDENTITY = "minus_identity"
    DIAGONAL = "diagonal"
    SWAP = "swap"


DIAG_REP = IntMatrix([[1, 0], [0, -1]])
SWAP_REP = IntMatrix([[0, 1], [1, 0]])

_CLASS_REPS = {
    InvolutionClass.PLUS_IDENTITY: IntMatrix.identity(2),
    InvolutionClass.MINUS_IDENTITY: -IntMatrix.identity(2),
    InvolutionClass.DIAGONAL: DIAG_REP,
    InvolutionClass.SWAP: SWAP_REP,
}


def element_order(mat: IntMatrix):
    """Exact multiplicative order of a GL(2,Z) element: 1,2,3,4,6 or None.

    Torsion orders in GL(2,Z) divide 12 and order 5 and 12 are impossible
    (a 2x2 rational matrix cannot have a primitive 5th or 12th root of
    unity as eigenvalue), so finitely many powers decide.  None encodes
    infinite order.
    """
    if mat.nrows != 2 or mat.ncols != 2:
        raise InputError("order computation expects a 2x2 matrix")
    if mat.det() not in (1, -1):
        raise DomainError("matrix must have determinant +1 or -1")
    acc = IntMatrix.identity(2)
    for k in range(1, 7):
        acc = acc @ mat
        if acc.is_identity():
            return k
    return None


def classify_involution2(mat: IntMatrix):
    """Conjugacy class of a 2x2 integer involution with an explicit witness.

    Returns (cls, P) with P unimodular and P @ rep @ P^-1 == mat.  The
    class is decided by the index of Fix + Neg in Z^2, read off
    `involution_eigenlattices`: primitive eigenvectors u (fixed) and v
    (negated) span a sublattice of index |det[u v]| which is 1 for the
    diagonal class and 2 for the swap class.
    """
    if mat.nrows != 2 or mat.ncols != 2:
        raise InputError("classification expects a 2x2 matrix")
    fix, neg, splits = involution_eigenlattices(mat)
    if not neg:
        return InvolutionClass.PLUS_IDENTITY, IntMatrix.identity(2)
    if not fix:
        return InvolutionClass.MINUS_IDENTITY, IntMatrix.identity(2)
    # a non-central involution fixes a line and negates a line
    (u,), (v,) = fix, neg
    if splits:
        cls = InvolutionClass.DIAGONAL
        p = IntMatrix([[u[0], v[0]], [u[1], v[1]]])
    else:
        cls = InvolutionClass.SWAP
        p0 = ((u[0] + v[0]) // 2, (u[1] + v[1]) // 2)
        p1 = ((u[0] - v[0]) // 2, (u[1] - v[1]) // 2)
        if 2 * p0[0] != u[0] + v[0] or 2 * p0[1] != u[1] + v[1]:
            raise InternalError("eigenvectors of a swap involution have odd sum")
        p = IntMatrix([[p0[0], p1[0]], [p0[1], p1[1]]])
    # P rep P^-1 == mat for a unimodular P, checked without inverting P
    if p.det() not in (1, -1) or p @ _CLASS_REPS[cls] != mat @ p:
        raise InternalError("classifying conjugator does not conjugate the representative")
    return cls, p


def _family_rows(parity: str, m: int, orientation: str):
    k = 2 * m if parity == "even" else 2 * m - 1
    return ((1, 0), (k, -1)) if orientation == "lower" else ((1, k), (0, -1))


def _family_matrix(parity: str, m: int, orientation: str = "lower") -> IntMatrix:
    return IntMatrix._trusted(_family_rows(parity, m, orientation))


def xy_matrices(s: IntMatrix, m: int, parity: str):
    """The X(m) and Y(m) products J S J S and J S J S^-1.

    J is the lower-triangular involution family member: (1 0; 2m -1) for
    even parity, (1 0; 2m-1 -1) for odd parity.  S must be unimodular.
    """
    if parity not in ("even", "odd"):
        raise InputError("parity must be 'even' or 'odd'")
    j = _family_matrix(parity, m)
    jsj = j @ s @ j
    return jsj @ s, jsj @ s.inverse_unimodular()


@dataclass(frozen=True)
class SuccessorRecord:
    m: int
    orientation: str
    mode: str
    matrix: IntMatrix


def _search_order(lo: int, hi: int):
    """The parameters lo..hi in the order 0, 1, -1, 2, -2, ..., generated lazily."""
    if lo > hi:
        return
    # a runs over |m| from the smallest in range; a is in range iff a <= hi
    # and -a iff -a >= lo
    for a in range(0 if lo <= 0 <= hi else min(abs(lo), abs(hi)), max(-lo, hi) + 1):
        if a <= hi:
            yield a
        if a and -a >= lo:
            yield -a


def _mul2(a, b, p):
    """The product of 2x2 row tuples, reduced mod p unless p is None."""
    (a0, a1), (a2, a3) = a
    (b0, b1), (b2, b3) = b
    c = (a0 * b0 + a1 * b2, a0 * b1 + a1 * b3, a2 * b0 + a3 * b2, a2 * b1 + a3 * b3)
    if p is not None:
        c = [x % p for x in c]
    return (c[0], c[1]), (c[2], c[3])


WALK_CERT_MODULUS = (1 << 127) - 1  # fixed prime for residue certificates


def _walk(s0: IntMatrix, steps: int, parity: str, m_range, p):
    """The non-central walk from s0, on exact entries or on residues mod p.

    Step k applies S -> J S J S^e with e = -1 for even k (mode Y) and +1
    for odd k (mode X).  J is the first family member, lower orientation
    before upper and m in the order of `_search_order`, whose output is
    not central; the upper mirror family (same conjugacy class) serves
    when the lower one degenerates, which happens exactly for
    +-unipotent lower-triangular inputs in mode X, so there it is tried
    alone.  S^-1 is det S times the adjugate, exact for det +-1; every
    term after the seed has det 1.
    """
    if s0.nrows != 2 or s0.ncols != 2:
        raise InputError("walk expects a 2x2 matrix")
    det = s0.det()
    if det not in (1, -1):
        raise DomainError("matrix must have determinant +1 or -1")
    if s0.is_central():
        raise DomainError("walk seed must be non-central")
    if parity not in ("even", "odd"):
        raise InputError("parity must be 'even' or 'odd'")
    cur = s0.rows
    records = []
    for k in range(steps):
        (a, b), (c, d) = cur
        second = cur if k % 2 else ((det * d, -det * b), (-det * c, det * a))
        # for S = (a 0; c a) and every lower J = (1 0; t -1), J S J = (a 0; -c a)
        # = adj S, so the X candidate J S J S = det S * I is central, exactly
        # and mod p: skip straight to the upper family
        skip = k % 2 and b == 0 and a == d
        family = ((o, m) for o in ("lower", "upper")[skip:] for m in _search_order(*m_range))
        for orientation, m in family:
            j = _family_rows(parity, m, orientation)
            cand = _mul2(_mul2(_mul2(j, cur, p), j, p), second, p)
            (w, x), (y, z) = cand
            if x or y or w != z:
                break
        else:
            raise SearchExhausted(
                "no non-central successor for %r within m range %s" % (cur, (m_range,))
                if p is None
                else "no certified non-central successor at step %d" % k
            )
        mode = "X" if k % 2 else "Y"
        records.append(SuccessorRecord(m, orientation, mode, IntMatrix._trusted(cand)))
        cur, det = cand, 1
    return records


def noncentral_sigma_walk(s0: IntMatrix, steps: int, parity: str = "even", m_range=(-5, 5)):
    """A length-`steps` non-central trajectory of the alternating recursion.

    Step k applies sigma -> J sigma J sigma^(e) with e = -1 for even k and
    +1 for odd k, choosing per step a family involution that keeps the
    result non-central.  Returns one SuccessorRecord per step: the chosen
    m, orientation and mode, and the term.
    """
    return _walk(s0, steps, parity, m_range, None)


def noncentral_walk_certificate(
    s0: IntMatrix,
    steps: int,
    parity: str = "even",
    m_range=(-5, 5),
):
    """Long-walk variant that carries entries modulo a fixed prime.

    Exact walk entries double in bit length at every step, so exact long
    trajectories cannot be materialized.  Residues under the reduction
    Z -> Z/WALK_CERT_MODULUS certify non-centrality one-sidedly: a
    reduction of a central matrix is central, hence every term whose
    residue matrix is non-central is proven non-central.  Step choices follow the same
    search order as noncentral_sigma_walk and the records have the same
    fields, with residue matrices in place of exact ones.
    """
    return _walk(s0, steps, parity, m_range, WALK_CERT_MODULUS)


def involution_eigenlattices(mat: IntMatrix):
    """(fix, neg, splits) for an involution of Z^n.

    fix and neg are the kernel_basis rows of mat - I and mat + I, the fixed
    and negated sublattices; splits says whether Z^n is their direct sum.
    An involution is diagonalizable over Q, so their ranks add up to n.
    """
    if not mat.is_square:
        raise InputError("expected a square matrix")
    if not (mat @ mat).is_identity():
        raise DomainError("matrix is not an involution")
    eye = IntMatrix.identity(mat.nrows)
    fix = kernel_basis(mat - eye)
    neg = kernel_basis(mat + eye)
    if len(fix) + len(neg) != mat.nrows:
        raise InternalError("eigenlattices of an involution must span rationally")
    return fix, neg, IntMatrix(fix + neg).det() in (1, -1)


def is_diagonalizable_involution(mat: IntMatrix) -> bool:
    """Whether Z^n is the direct sum of the fixed and negated sublattices."""
    return involution_eigenlattices(mat)[2]


def _random_shears(rng, n: int, min_factors: int, max_factors: int, bound: int):
    """(P, P^-1) for a product P of random shears I + k E_ij, k in [-bound, bound].

    The draw loop of `random_unimodular`.  P = E_1 ... E_m, so P^-1 is the
    reversed product of the negated shears E_m^-1 ... E_1^-1, built
    alongside P at no extra draw.
    """
    out = [[int(a == b) for b in range(n)] for a in range(n)]
    inv = [row[:] for row in out]
    for _ in range(rng.randint(min_factors, max_factors)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        while j == i:
            j = rng.randrange(n)
        k = rng.choice([x for x in range(-bound, bound + 1) if x])
        # right multiplication by I + k E_ij adds k times column i to column j
        for row in out:
            row[j] += k * row[i]
        # left multiplication by I - k E_ij subtracts k times row j from row i
        inv[i] = [a - k * b for a, b in zip(inv[i], inv[j])]
    return IntMatrix._trusted(tuple(map(tuple, out))), IntMatrix._trusted(tuple(map(tuple, inv)))


def random_unimodular(rng, n: int) -> IntMatrix:
    """Product of 5 to 15 random shears I + k E_ij with k in [-3, 3].

    Needs n >= 2, since a shear has two distinct indices.
    """
    if n < 2:
        raise InputError("random unimodular matrices need n >= 2, got %r" % (n,))
    return _random_shears(rng, n, 5, 15, 3)[0]


def order3_falsifier(mat: IntMatrix, samples: int, rng):
    """Search for conjugates a, b of `mat` whose product has order three.

    A hit certifies that the conjugacy class times itself contains an
    order-3 element, so `mat` fails the diagonalizability criterion; a miss
    proves nothing.  Conjugators are products of at most 6 elementary
    matrices with entries in [-2, 2], transported through the class
    normalizing frame so the same budget reaches witnesses from every
    member of the class.

    A sample is tested without inverting anything.  `classify_involution2`
    gives mat = F C F^-1 with C the class representative, so with
    g = F r F^-1 and h = F q F^-1 the product a b is conjugate to
    (r C r^-1)(q C q^-1), and r^-1, q^-1 come with the shears that build r
    and q.  A non-central involution of Z^2 has eigenvalues 1 and -1, so
    both factors have det -1 and the product det 1; by Cayley-Hamilton a
    det-1 matrix in GL(2,Z) has order three exactly when its trace is -1.
    Only on a hit are g, h, a, b and their product built and checked.
    """
    if mat.nrows != 2 or mat.ncols != 2:
        raise InputError("falsifier expects a 2x2 matrix")
    cls, frame = classify_involution2(mat)
    if cls in (InvolutionClass.PLUS_IDENTITY, InvolutionClass.MINUS_IDENTITY):
        raise DomainError("falsifier needs a non-central involution")
    rep = _CLASS_REPS[cls]
    for _ in range(samples):
        r, r_inv = _random_shears(rng, 2, 1, 6, 2)
        q, q_inv = _random_shears(rng, 2, 1, 6, 2)
        x = r @ rep @ r_inv @ q @ rep @ q_inv
        if x.rows[0][0] + x.rows[1][1] != -1:
            continue
        frame_inv = frame.inverse_unimodular()
        g = frame @ r @ frame_inv
        h = frame @ q @ frame_inv
        a = g @ mat @ g.inverse_unimodular()
        b = h @ mat @ h.inverse_unimodular()
        product = a @ b
        if element_order(product) != 3:
            raise InternalError("a product of trace -1 does not have order three")
        return {"g": g, "h": h, "a": a, "b": b, "product": product}
    return None


def _primitive_part(vec):
    g = 0
    for x in vec:
        g = math.gcd(g, x)
    return g, tuple(x // g for x in vec)


def invariant_splitting(f: IntMatrix):
    """Split Z^n into invariant B (+) C with rank B == 2 and f|_B non-central.

    Returns (restriction, frame): the frame's columns list an adapted basis,
    the two B vectors first, and the restriction is f's action on those two
    columns, DIAG_REP or SWAP_REP.

    Diagonalizable involutions pair one fixed with one negated basis vector.
    Otherwise Fix (+) Neg has index 2^r in Z^n with r >= 1, and x0 is the
    first standard basis vector outside it.  Both x0 + f x0 and x0 - f x0
    have odd content, so shifting x0 by multiples of their primitive parts
    gives an x for which (x, f x) is the basis of a summand, the swap plane.
    The first row lambda of that plane's summand transform takes x to 1 and
    f x to 0; the complement is the common kernel of lambda and lambda f.
    """
    fix, neg, splits = involution_eigenlattices(f)
    if f.is_central():
        raise DomainError("splitting needs a non-central involution")
    n = f.nrows
    if splits:
        b_rows = [fix[0], neg[0]]
        c_rows = fix[1:] + neg[1:]
        restriction = DIAG_REP
    else:
        # swap block present: Fix (+) Neg has index 2^r, r >= 1, so some
        # standard basis vector lies outside it
        fix_neg = Sublattice(n, fix + neg)
        x0 = next(e for e in IntMatrix.identity(n).rows if not fix_neg.contains(e))
        fx0 = f @ x0
        u_full = tuple(a + b for a, b in zip(x0, fx0))
        w_full = tuple(a - b for a, b in zip(x0, fx0))
        a, u0 = _primitive_part(u_full)
        b, w0 = _primitive_part(w_full)
        # both contents are odd, otherwise x0 would lie in Fix (+) Neg
        if a % 2 != 1 or b % 2 != 1:
            raise InternalError("x0 + f x0 or x0 - f x0 has even content")
        x = tuple(
            xi + ((1 - a) // 2) * ui + ((1 - b) // 2) * wi
            for xi, ui, wi in zip(x0, u0, w0)
        )
        fx = f @ x
        # now x + fx and x - fx are primitive, which forces <x, fx> to be a
        # saturated plane with basis (x, fx); the first row of its summand
        # transform is a functional taking x to 1 and f x to 0
        t = _summand_transform([x, fx])
        if t is None:
            raise InternalError("the swap plane <x, f x> is not saturated")
        lam = t[0]
        mu = (IntMatrix([list(lam)]) @ f).rows[0]
        b_rows = [x, fx]
        c_rows = kernel_basis(IntMatrix([list(lam), list(mu)]))
        restriction = SWAP_REP
    frame = IntMatrix(b_rows + c_rows).transpose()
    # the frame must be a basis adapted to the splitting
    try:
        finv = frame.inverse_unimodular()
    except DomainError as exc:
        raise InternalError("splitting frame is not unimodular") from exc
    blocked = finv @ f @ frame
    for i in range(2):
        for j in range(2, n):
            if blocked.rows[i][j] != 0 or blocked.rows[j][i] != 0:
                raise InternalError("involution is not block diagonal in the splitting frame")
    if IntMatrix([r[:2] for r in blocked.rows[:2]]) != restriction:
        raise InternalError("splitting restriction disagrees with the frame")
    return restriction, frame
