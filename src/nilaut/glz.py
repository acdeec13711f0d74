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

from .errors import DomainError, InputError, InternalError, SearchExhausted

__all__ = [
    "IntMatrix",
    "Sublattice",
    "InvolutionClass",
    "xgcd",
    "hermite_form",
    "smith_normal_form",
    "kernel_basis",
    "solve_left",
    "element_order",
    "classify_involution2",
    "xy_matrices",
    "noncentral_successor",
    "noncentral_sigma_walk",
    "is_direct_summand",
    "find_complement",
    "relation_R",
    "is_diagonalizable_involution",
    "order3_falsifier",
    "invariant_splitting",
    "random_unimodular",
]


def xgcd(a: int, b: int):
    """(x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0 for (a, b) != 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


class IntMatrix:
    """Immutable integer matrix with exact arithmetic."""

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
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

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
            cols = list(zip(*other.rows))
            return IntMatrix(
                [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
            )
        # column vector application
        vec = tuple(other)
        if len(vec) != self.ncols:
            raise InputError("vector length does not match")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.rows)

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise InputError("matrix shapes differ")
        return IntMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __neg__(self):
        return IntMatrix([[-a for a in r] for r in self.rows])

    def __sub__(self, other):
        return self + (-other)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self.rows)))

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(min(self.nrows, self.ncols)))

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

        Fraction-free (Bareiss) Gauss-Jordan on [A | I], in integers
        throughout: after the step at column k the first k + 1 columns of
        the left block are p_k times the identity, and every division by
        the previous pivot is exact.  The last pivot is +-det, so the right
        block is +-det times the inverse and divides exactly.
        """
        if not self.is_square:
            raise InputError("inverse needs a square matrix")
        n = self.nrows
        aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self.rows)]
        sign = 1
        prev = 1
        for k in range(n):
            if aug[k][k] == 0:
                piv = next((r for r in range(k + 1, n) if aug[r][k]), None)
                if piv is None:
                    raise DomainError("matrix is not unimodular (det 0)")
                aug[k], aug[piv] = aug[piv], aug[k]
                sign = -sign
            pivot_row = aug[k]
            pk = pivot_row[k]
            for i in range(n):
                if i != k:
                    f = aug[i][k]
                    aug[i] = [(pk * a - f * b) // prev for a, b in zip(aug[i], pivot_row)]
            prev = pk
        d = sign * prev
        if d not in (1, -1):
            raise DomainError("matrix is not unimodular (det %d)" % d)
        # prev is +-1, so dividing by it is multiplying by it
        inv = IntMatrix([[prev * x for x in row[n:]] for row in aug])
        if self @ inv != IntMatrix.identity(n):
            raise InternalError("fraction-free inverse does not invert its input")
        return inv

    def power(self, k: int) -> "IntMatrix":
        if not self.is_square:
            raise InputError("power needs a square matrix")
        if k < 0:
            return self.inverse_unimodular().power(-k)
        out = IntMatrix.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base
            k >>= 1
        return out

    def is_identity(self) -> bool:
        return self == IntMatrix.identity(self.nrows)

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

    @classmethod
    def from_json(cls, data):
        return cls(data)


# ---------------------------------------------------------------------------
# normal forms and integer linear algebra
# ---------------------------------------------------------------------------


def hermite_form(rows, with_transform=False):
    """Canonical row Hermite form (pivots positive, entries above reduced).

    Zero rows sink to the bottom and are dropped from the result.  With
    with_transform=True also returns a unimodular T with T @ input == the
    untruncated form.
    """
    mat = [list(map(int, r)) for r in rows]
    m = len(mat)
    ncols = len(mat[0]) if m else 0
    t = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if with_transform else None
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
        if t is not None:
            t[row], t[piv] = t[piv], t[row]
        for r in range(row + 1, m):
            while mat[r][col]:
                q = mat[r][col] // mat[row][col]
                if q:
                    mat[r] = [a - q * b for a, b in zip(mat[r], mat[row])]
                    if t is not None:
                        t[r] = [a - q * b for a, b in zip(t[r], t[row])]
                if mat[r][col]:
                    mat[row], mat[r] = mat[r], mat[row]
                    if t is not None:
                        t[row], t[r] = t[r], t[row]
        if mat[row][col] < 0:
            mat[row] = [-a for a in mat[row]]
            if t is not None:
                t[row] = [-a for a in t[row]]
        for r in range(row):
            q = mat[r][col] // mat[row][col]
            if q:
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[row])]
                if t is not None:
                    t[r] = [a - q * b for a, b in zip(t[r], t[row])]
        row += 1
        if row == m:
            break
    nonzero = [r for r in mat if any(r)]
    if with_transform:
        return nonzero, mat, t
    return nonzero


def smith_normal_form(mat):
    """(U, D, V) with U @ M @ V == D diagonal, d_i | d_{i+1}, d_i >= 0."""
    if isinstance(mat, IntMatrix):
        a = [list(r) for r in mat.rows]
    else:
        a = [list(map(int, r)) for r in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(m):
            a[r][i] -= q * a[r][j]
        for r in range(n):
            v[r][i] -= q * v[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(m):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(n):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    while True:
        pi = pj = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                val = abs(a[i][j])
                if val and (best is None or val < best):
                    best = val
                    pi, pj = i, j
        if pi is None:
            break
        swap_rows(t, pi)
        swap_cols(t, pj)
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty and all(a[i][t] == 0 for i in range(t + 1, m)) and all(
                a[t][j] == 0 for j in range(t + 1, n)
            ):
                break
        # enforce divisibility of the remaining block by the pivot
        piv = a[t][t]
        culprit = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % piv:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            row_op(t, culprit, -1)  # add the culprit row to the pivot row
            continue
        if piv < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
        if t == min(m, n):
            break
    return IntMatrix(u) if m else None, IntMatrix(a) if m else None, IntMatrix(v) if n else None


def kernel_basis(mat: IntMatrix):
    """Canonical (Hermite-form) row basis of {x : M x == 0}, saturated."""
    u, d, v = smith_normal_form(mat)
    rank = 0
    for i in range(min(d.nrows, d.ncols)):
        if d.rows[i][i]:
            rank += 1
    cols = [tuple(v.rows[r][j] for r in range(v.nrows)) for j in range(rank, v.ncols)]
    return [tuple(r) for r in hermite_form(cols)] if cols else []


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


def solve_right(amat: IntMatrix, b):
    """y with A @ y == b over the integers, or None."""
    x = solve_left([list(r) for r in amat.transpose().rows], tuple(b))
    return x


# ---------------------------------------------------------------------------
# sublattices
# ---------------------------------------------------------------------------


class Sublattice:
    """A sublattice of Z^n with canonical Hermite-form row basis."""

    __slots__ = ("ambient", "basis")

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

    @classmethod
    def spanned_by(cls, ambient: int, vectors) -> "Sublattice":
        """Span of arbitrary vectors; dependent generators are allowed."""
        h = hermite_form([tuple(map(int, v)) for v in vectors])
        obj = object.__new__(cls)
        obj.ambient = ambient
        obj.basis = tuple(tuple(r) for r in h)
        return obj

    @classmethod
    def zero(cls, ambient: int) -> "Sublattice":
        return cls(ambient, [])

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        v = list(map(int, vec))
        if len(v) != self.ambient:
            raise InputError("vector length does not match ambient dimension")
        for row in self.basis:
            piv = next(j for j, x in enumerate(row) if x)
            q, r = divmod(v[piv], row[piv])
            if r:
                return False
            if q:
                v = [a - q * b for a, b in zip(v, row)]
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

    @classmethod
    def from_json(cls, data):
        return cls(data["ambient"], data["basis"])


def is_direct_summand(lat: Sublattice) -> bool:
    """True when Z^n splits off the sublattice (unit elementary divisors)."""
    if lat.rank == 0:
        return True
    _, d, _ = smith_normal_form(list(map(list, lat.basis)))
    return all(d.rows[i][i] == 1 for i in range(lat.rank))


def find_complement(lat: Sublattice):
    """A complementary direct summand, or None when lat is not a summand."""
    n = lat.ambient
    if lat.rank == 0:
        return Sublattice(n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])
    _, d, v = smith_normal_form(list(map(list, lat.basis)))
    if not all(d.rows[i][i] == 1 for i in range(lat.rank)):
        return None
    w = v.inverse_unimodular()
    return Sublattice(n, [w.rows[i] for i in range(lat.rank, n)])


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


def _primitive_kernel_vector2(m: IntMatrix):
    a, b = m.rows[0]
    c, d = m.rows[1]
    if a or b:
        vec = (b, -a)
    elif c or d:
        vec = (d, -c)
    else:
        return None  # whole plane
    g = math.gcd(vec[0], vec[1])
    vec = (vec[0] // g, vec[1] // g)
    if vec[0] < 0 or (vec[0] == 0 and vec[1] < 0):
        vec = (-vec[0], -vec[1])
    return vec


def classify_involution2(mat: IntMatrix):
    """Conjugacy class of a 2x2 integer involution with an explicit witness.

    Returns (cls, P) with P unimodular and P @ rep @ P^-1 == mat.  The
    class is decided by the index of Fix + Neg in Z^2: primitive
    eigenvectors u (fixed) and v (negated) span a sublattice of index
    |det[u v]| which is 1 for the diagonal class and 2 for the swap class.
    """
    if mat.nrows != 2 or mat.ncols != 2:
        raise InputError("classification expects a 2x2 matrix")
    if not (mat @ mat).is_identity():
        raise DomainError("matrix is not an involution")
    if mat.is_identity():
        return InvolutionClass.PLUS_IDENTITY, IntMatrix.identity(2)
    if mat == -IntMatrix.identity(2):
        return InvolutionClass.MINUS_IDENTITY, IntMatrix.identity(2)
    eye = IntMatrix.identity(2)
    u = _primitive_kernel_vector2(mat - eye)
    v = _primitive_kernel_vector2(mat + eye)
    dd = u[0] * v[1] - u[1] * v[0]
    if abs(dd) == 1:
        cls = InvolutionClass.DIAGONAL
        p = IntMatrix([[u[0], v[0]], [u[1], v[1]]])
    elif abs(dd) == 2:
        cls = InvolutionClass.SWAP
        p0 = ((u[0] + v[0]) // 2, (u[1] + v[1]) // 2)
        p1 = ((u[0] - v[0]) // 2, (u[1] - v[1]) // 2)
        assert 2 * p0[0] == u[0] + v[0] and 2 * p0[1] == u[1] + v[1]
        p = IntMatrix([[p0[0], p1[0]], [p0[1], p1[1]]])
    else:
        raise AssertionError("eigenlattice index outside {1, 2}")
    assert p @ _CLASS_REPS[cls] @ p.inverse_unimodular() == mat
    return cls, p


def _family_matrix(parity: str, m: int, orientation: str = "lower") -> IntMatrix:
    k = 2 * m if parity == "even" else 2 * m - 1
    if orientation == "lower":
        return IntMatrix([[1, 0], [k, -1]])
    return IntMatrix([[1, k], [0, -1]])


def xy_matrices(s: IntMatrix, m: int, parity: str):
    """The X(m) and Y(m) products J S J S and J S J S^-1.

    J is the lower-triangular involution family member: (1 0; 2m -1) for
    even parity, (1 0; 2m-1 -1) for odd parity.
    """
    if parity not in ("even", "odd"):
        raise InputError("parity must be 'even' or 'odd'")
    if s.det() not in (1, -1):
        raise DomainError("matrix must have determinant +1 or -1")
    j = _family_matrix(parity, m)
    x = j @ s @ j @ s
    y = j @ s @ j @ s.inverse_unimodular()
    return x, y


@dataclass(frozen=True)
class SuccessorRecord:
    m: int
    parity: str
    orientation: str
    mode: str
    matrix: IntMatrix


def _search_order(bound: int):
    yield 0
    for k in range(1, bound + 1):
        yield k
        yield -k


def noncentral_successor(
    s: IntMatrix,
    mode: str,
    parity: str,
    m_range=(-5, 5),
) -> SuccessorRecord:
    """Smallest-|m| family member whose X- or Y-step output is non-central.

    Search order is 0, 1, -1, 2, -2, ...; the upper-triangular mirror
    family (same conjugacy class) is tried when the lower one degenerates,
    which happens exactly for +-unipotent lower-triangular inputs.
    """
    if mode not in ("X", "Y"):
        raise InputError("mode must be 'X' or 'Y'")
    if parity not in ("even", "odd"):
        raise InputError("parity must be 'even' or 'odd'")
    if s.is_central():
        raise DomainError("walk input must be non-central")
    sinv = s.inverse_unimodular()
    bound = max(abs(m_range[0]), abs(m_range[1]))
    for orientation in ("lower", "upper"):
        for m in _search_order(bound):
            if not m_range[0] <= m <= m_range[1]:
                continue
            j = _family_matrix(parity, m, orientation)
            cand = j @ s @ j @ (s if mode == "X" else sinv)
            if not cand.is_central():
                return SuccessorRecord(m, parity, orientation, mode, cand)
    raise SearchExhausted(
        "no non-central successor for %r within m range %s" % (s.rows, (m_range,))
    )


def noncentral_sigma_walk(s0: IntMatrix, steps: int, parity: str = "even", m_range=(-5, 5)):
    """A length-`steps` non-central trajectory of the alternating recursion.

    Step k applies sigma -> J sigma J sigma^(e) with e = -1 for even k and
    +1 for odd k, choosing per step a family involution that keeps the
    result non-central.  Returns (matrices, records) for reproducibility.
    """
    if s0.is_central():
        raise DomainError("walk seed must be non-central")
    cur = s0
    mats = []
    records = []
    for k in range(steps):
        mode = "Y" if k % 2 == 0 else "X"
        rec = noncentral_successor(cur, mode, parity, m_range)
        cur = rec.matrix
        mats.append(cur)
        records.append(rec)
    return mats, records


WALK_CERT_MODULUS = (1 << 127) - 1  # fixed prime for residue certificates


def _mod_mul2(a, b, p):
    return (
        (
            (a[0][0] * b[0][0] + a[0][1] * b[1][0]) % p,
            (a[0][0] * b[0][1] + a[0][1] * b[1][1]) % p,
        ),
        (
            (a[1][0] * b[0][0] + a[1][1] * b[1][0]) % p,
            (a[1][0] * b[0][1] + a[1][1] * b[1][1]) % p,
        ),
    )


def _mod_inv2(a, det, p):
    # det is the exact determinant, +1 or -1, so the inverse is det * adjugate
    return (
        ((det * a[1][1]) % p, (-det * a[0][1]) % p),
        ((-det * a[1][0]) % p, (det * a[0][0]) % p),
    )


def _mod_is_central2(a, p):
    return a[0][1] % p == 0 and a[1][0] % p == 0 and (a[0][0] - a[1][1]) % p == 0


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
    shape, with residue matrices in place of exact ones.
    """
    if s0.nrows != 2 or s0.ncols != 2:
        raise InputError("walk certificate expects a 2x2 matrix")
    det = s0.det()
    if det not in (1, -1):
        raise DomainError("matrix must have determinant +1 or -1")
    if s0.is_central():
        raise DomainError("walk seed must be non-central")
    if parity not in ("even", "odd"):
        raise InputError("parity must be 'even' or 'odd'")
    p = WALK_CERT_MODULUS
    cur = tuple(tuple(x % p for x in row) for row in s0.rows)
    bound = max(abs(m_range[0]), abs(m_range[1]))
    mats = []
    records = []
    for k in range(steps):
        mode = "Y" if k % 2 == 0 else "X"
        second = cur if mode == "X" else _mod_inv2(cur, det, p)
        found = None
        for orientation in ("lower", "upper"):
            for m in _search_order(bound):
                if not m_range[0] <= m <= m_range[1]:
                    continue
                kk = 2 * m if parity == "even" else 2 * m - 1
                if orientation == "lower":
                    j = ((1, 0), (kk % p, p - 1))
                else:
                    j = ((1, kk % p), (0, p - 1))
                cand = _mod_mul2(_mod_mul2(_mod_mul2(j, cur, p), j, p), second, p)
                if not _mod_is_central2(cand, p):
                    found = SuccessorRecord(m, parity, orientation, mode, IntMatrix(cand))
                    break
            if found is not None:
                break
        if found is None:
            raise SearchExhausted("no certified non-central successor at step %d" % k)
        cur = tuple(tuple(x % p for x in row) for row in found.matrix.rows)
        det = 1
        mats.append(found.matrix)
        records.append(found)
    return mats, records


def is_diagonalizable_involution(mat: IntMatrix) -> bool:
    """Whether Z^n is the direct sum of the fixed and negated sublattices."""
    if not mat.is_square:
        raise InputError("expected a square matrix")
    if not (mat @ mat).is_identity():
        raise DomainError("matrix is not an involution")
    eye = IntMatrix.identity(mat.nrows)
    fix = kernel_basis(mat - eye)
    neg = kernel_basis(mat + eye)
    if len(fix) + len(neg) != mat.nrows:
        return False
    stacked = IntMatrix(list(fix) + list(neg))
    return stacked.det() in (1, -1)


def random_unimodular(rng, n: int, min_factors: int = 5, max_factors: int = 15, bound: int = 3) -> IntMatrix:
    """Product of random elementary shear matrices, entries in [-bound, bound]."""
    out = IntMatrix.identity(n)
    for _ in range(rng.randint(min_factors, max_factors)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        while j == i:
            j = rng.randrange(n)
        k = rng.choice([x for x in range(-bound, bound + 1) if x])
        shear = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        shear[i][j] = k
        out = out @ IntMatrix(shear)
    return out


def order3_falsifier(mat: IntMatrix, samples: int, rng):
    """Search for conjugates a, b of `mat` whose product has order three.

    A hit certifies that the conjugacy class times itself contains an
    order-3 element, so `mat` fails the diagonalizability criterion; a miss
    proves nothing.  Conjugators are products of at most 6 elementary
    matrices with entries in [-2, 2], transported through the class
    normalizing frame so the same budget reaches witnesses from every
    member of the class.
    """
    if mat.nrows != 2 or mat.ncols != 2:
        raise InputError("falsifier expects a 2x2 matrix")
    if not (mat @ mat).is_identity():
        raise DomainError("matrix is not an involution")
    if mat.is_central():
        raise DomainError("falsifier needs a non-central involution")
    _, frame = classify_involution2(mat)
    frame_inv = frame.inverse_unimodular()
    for _ in range(samples):
        g = frame @ random_unimodular(rng, 2, 1, 6, 2) @ frame_inv
        h = frame @ random_unimodular(rng, 2, 1, 6, 2) @ frame_inv
        a = g @ mat @ g.inverse_unimodular()
        b = h @ mat @ h.inverse_unimodular()
        if element_order(a @ b) == 3:
            return {"g": g, "h": h, "a": a, "b": b, "product": a @ b}
    return None


@dataclass(frozen=True)
class InvariantSplitting:
    """A rank-2 invariant summand with non-central restriction.

    frame columns list an adapted basis (the two B vectors first); the
    restriction is the action on those two columns.
    """

    b: Sublattice
    c: Sublattice
    restriction: IntMatrix
    frame: IntMatrix


def _primitive_part(vec):
    g = 0
    for x in vec:
        g = math.gcd(g, x)
    return g, tuple(x // g for x in vec)


def invariant_splitting(f: IntMatrix) -> InvariantSplitting:
    """Split Z^n into invariant B (+) C with rank B == 2 and f|_B non-central.

    Diagonalizable involutions pair one fixed with one negated basis vector;
    otherwise a swap plane <x, f x> that is itself a basis of a summand is
    located among the index-2 classes of Fix (+) Neg, and its complement is
    cut out by an equivariant pair of integer functionals.
    """
    if not f.is_square:
        raise InputError("expected a square matrix")
    n = f.nrows
    if not (f @ f).is_identity():
        raise DomainError("matrix is not an involution")
    if f.is_central():
        raise DomainError("splitting needs a non-central involution")
    eye = IntMatrix.identity(n)
    fix = kernel_basis(f - eye)
    neg = kernel_basis(f + eye)
    if len(fix) + len(neg) != n:
        raise AssertionError("eigenlattices of an involution must span rationally")
    stacked = IntMatrix(list(fix) + list(neg))
    if stacked.det() in (1, -1):
        b_rows = [fix[0], neg[0]]
        c_rows = list(fix[1:]) + list(neg[1:])
        b = Sublattice(n, b_rows)
        c = Sublattice(n, c_rows) if c_rows else Sublattice.zero(n)
        frame_cols = b_rows + c_rows
        frame = IntMatrix(frame_cols).transpose()
        restriction = DIAG_REP
        split = InvariantSplitting(b, c, restriction, frame)
    else:
        # swap block present: Fix (+) Neg has index 2^r, r >= 1, and every
        # elementary divisor is 1 or 2 because 2x = (x + fx) + (x - fx)
        _, d, v = smith_normal_form(list(stacked.rows))
        w = v.inverse_unimodular()
        divisors = [d.rows[i][i] for i in range(n)]
        assert all(x in (1, 2) for x in divisors)
        x0 = tuple(w.rows[divisors.index(2)])
        fx0 = f @ x0
        u_full = tuple(a + b for a, b in zip(x0, fx0))
        w_full = tuple(a - b for a, b in zip(x0, fx0))
        a, u0 = _primitive_part(u_full)
        b, w0 = _primitive_part(w_full)
        # both contents are odd, otherwise x0 would lie in Fix (+) Neg
        assert a % 2 == 1 and b % 2 == 1
        x = tuple(
            xi + ((1 - a) // 2) * ui + ((1 - b) // 2) * wi
            for xi, ui, wi in zip(x0, u0, w0)
        )
        fx = f @ x
        # now x + fx and x - fx are primitive, which forces <x, fx> to be a
        # saturated plane with basis (x, fx)
        _, dxy, _ = smith_normal_form([list(x), list(fx)])
        assert dxy.rows[0][0] == 1 and dxy.rows[1][1] == 1
        lam = solve_right(IntMatrix([list(x), list(fx)]), (1, 0))
        assert lam is not None
        mu = (IntMatrix([list(lam)]) @ f).rows[0]
        c_rows = kernel_basis(IntMatrix([list(lam), list(mu)]))
        b = Sublattice(n, [x, fx])
        c = Sublattice(n, c_rows) if c_rows else Sublattice.zero(n)
        frame_cols = [x, fx] + list(c_rows)
        frame = IntMatrix(frame_cols).transpose()
        restriction = SWAP_REP
        split = InvariantSplitting(b, c, restriction, frame)
    # the frame must be a basis adapted to the splitting
    assert split.frame.det() in (1, -1)
    assert relation_R(split.b, split.c)
    finv = split.frame.inverse_unimodular()
    blocked = finv @ f @ split.frame
    for i in range(2):
        for j in range(2, n):
            assert blocked.rows[i][j] == 0 and blocked.rows[j][i] == 0
    assert IntMatrix([r[:2] for r in blocked.rows[:2]]) == split.restriction
    return split
