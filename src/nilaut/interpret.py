"""Executable interpretation demonstrations.

Finite, exact constructions: the isomorphism between conjugations and the
abelianization at class 2, the T+/T- classification of automorphisms
against a stratified symmetry sample, the factorization of a conjugation
by a generator as a product of two symmetries, a finite sampled multi
sorted structure over Z^n (vectors, matrix automorphisms, direct summands
and their relations), the graph trick encoding endomorphisms of a summand
as summands, and a matrix encoding of the ring of integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError, InputError
from .automorphisms import (
    Endomorphism,
    canonical_symmetry,
    compose,
    conjugate,
    identity_endomorphism,
    inner,
    invert_automorphism,
    is_automorphism,
)
from .glz import (
    IntMatrix,
    Sublattice,
    is_diagonalizable_involution,
    is_direct_summand,
    kernel_basis,
    random_unimodular,
    relation_R,
    solve_left,
)
from .nilgroup import GroupContext, GroupElement, from_exponents, generator, invert, multiply

__all__ = [
    "inn_to_abelian",
    "abelian_to_inn",
    "TClassification",
    "t_plus_minus_classify",
    "factor_inner_as_symmetries",
    "StructureM",
    "build_structure_M",
    "encode_endomorphism_as_summand",
    "decode_summand_to_endomorphism",
    "semantic_graph_compose",
    "EncodedInteger",
    "encode_int",
    "decode_int",
    "int_add",
    "int_mul",
]


# ---------------------------------------------------------------------------
# conjugations versus the abelianization (class 2)
# ---------------------------------------------------------------------------


def inn_to_abelian(f: Endomorphism, witness: GroupElement):
    """Abelianized coordinates of a conjugation, given its conjugator.

    Well defined at class 2, where the center is exactly the commutator
    subgroup and dies in the abelianization.
    """
    ctx = f.context
    if ctx.nilpotency_class != 2:
        raise InputError("the conjugation isomorphism is a class-2 construction")
    if witness.context != ctx:
        raise InputError("witness context mismatch")
    if inner(witness) != f:
        raise InputError("witness does not conjugate to the given automorphism")
    return tuple(witness.exponents[: ctx.rank])


def abelian_to_inn(ctx: GroupContext, vector) -> Endomorphism:
    if ctx.nilpotency_class != 2:
        raise InputError("the conjugation isomorphism is a class-2 construction")
    vec = tuple(int(v) for v in vector)
    if len(vec) != ctx.rank:
        raise InputError("vector length must equal the rank")
    exps = [0] * ctx.dim
    exps[: ctx.rank] = vec
    return inner(from_exponents(ctx, exps))


# ---------------------------------------------------------------------------
# T+ / T- classification
# ---------------------------------------------------------------------------


@dataclass
class TClassification:
    tag: str  # "t_plus", "t_minus" or "neither"
    witness_label: str = None
    witness: Endomorphism = None
    by_stratum: dict = field(default_factory=dict)


def t_plus_minus_classify(f: Endomorphism, symmetry_sample) -> TClassification:
    """Conjugation behavior of f across a sample of symmetries mod IA.

    t_plus: every sampled conjugate equals f; t_minus: every sampled
    conjugate equals f^-1; neither comes with the violating sample member
    and is an exact verdict, while t_plus and t_minus are sampled ones.
    Per-stratum outcomes are recorded so exact symmetries and IA-perturbed
    members can be compared.
    """
    ok, _ = is_automorphism(f)
    if not ok:
        raise DomainError("classification is defined for automorphisms")
    sample = list(symmetry_sample)
    if not sample:
        raise InputError("symmetry sample must be nonempty")
    finv = invert_automorphism(f)
    stratum = {}
    for label, theta in sample:
        conj = conjugate(theta, f)
        plus = conj == f
        minus = conj == finv
        prev = stratum.setdefault(label, {"plus": True, "minus": True})
        prev["plus"] = prev["plus"] and plus
        prev["minus"] = prev["minus"] and minus
        if not plus and not minus:
            out = TClassification("neither", label, theta, stratum)
            return out
    all_plus = all(v["plus"] for v in stratum.values())
    all_minus = all(v["minus"] for v in stratum.values())
    if all_plus:
        return TClassification("t_plus", by_stratum=stratum)
    if all_minus:
        return TClassification("t_minus", by_stratum=stratum)
    return TClassification("neither", by_stratum=stratum)


def factor_inner_as_symmetries(ctx: GroupContext, gen_index: int):
    """Two symmetries whose product is conjugation by the given generator.

    theta_1 inverts the standard generators; theta_2 sends the chosen
    generator x to x^-1 and every other generator y to x^-1 y^-1 x, which
    inverts the basis {x} plus {y x : y != x}.  Their composite equals
    conjugation by x exactly.
    """
    if not 1 <= gen_index <= ctx.rank:
        raise InputError("generator index %r out of range 1..%d" % (gen_index, ctx.rank))
    x = generator(ctx, gen_index)
    xinv = invert(x)
    theta1 = canonical_symmetry(ctx)
    images = []
    for j in range(1, ctx.rank + 1):
        if j == gen_index:
            images.append(xinv)
        else:
            y = generator(ctx, j)
            images.append(multiply(multiply(xinv, invert(y)), x))
    theta2 = Endomorphism(ctx, images)
    ident = identity_endomorphism(ctx)
    assert compose(theta2, theta2) == ident
    assert compose(theta1, theta2) == inner(x)
    return theta1, theta2


# ---------------------------------------------------------------------------
# the finite sampled multi-sorted structure over Z^n
# ---------------------------------------------------------------------------


@dataclass
class StructureM:
    rank: int
    vectors: list  # sort A sample (tuples)
    automorphisms: list  # sort Aut A sample (IntMatrix)
    summands: list  # sort D sample (Sublattice)
    membership: list  # (vector index, summand index) verified pairs
    inclusion: list  # (summand i, summand j) with i contained in j
    complement_pairs: list  # (i, j) with ambient = D_i (+) D_j
    action: list  # (matrix index, vector index, result vector index)
    sampling: dict

    def to_json(self):
        return {
            "rank": self.rank,
            "vectors": [list(v) for v in self.vectors],
            "automorphisms": [m.to_json() for m in self.automorphisms],
            "summands": [s.to_json() for s in self.summands],
            "membership": [list(p) for p in self.membership],
            "inclusion": [list(p) for p in self.inclusion],
            "complement_pairs": [list(p) for p in self.complement_pairs],
            "action": [list(p) for p in self.action],
            "sampling": self.sampling,
        }


def build_structure_M(n: int, rng, aut_samples: int = 8, vector_samples: int = 12) -> StructureM:
    """A finite sampled approximation of the multi-sorted structure.

    Sorts: vectors of Z^n, unimodular matrices, and direct summands
    harvested as fixed-point sublattices of sampled diagonalizable
    involutions.  Every relation tuple is verified at construction.
    """
    if n < 2:
        raise InputError("rank must be at least 2")
    eye = IntMatrix.identity(n)
    auts = [eye, -eye]
    for _ in range(aut_samples):
        auts.append(random_unimodular(rng, n))
    involutions = []
    for i in range(n):
        diag = [[(1 if a == b else 0) for b in range(n)] for a in range(n)]
        diag[i][i] = -1
        involutions.append(IntMatrix(diag))
    for _ in range(aut_samples):
        q = random_unimodular(rng, n)
        base = involutions[rng.randrange(len(involutions))]
        involutions.append(q @ base @ q.inverse_unimodular())
    summands = []
    for f in involutions:
        if not is_diagonalizable_involution(f):
            continue
        fix = kernel_basis(f - eye)
        neg = kernel_basis(f + eye)
        for rows in (fix, neg):
            lat = Sublattice(n, rows) if rows else Sublattice.zero(n)
            if lat not in summands:
                summands.append(lat)
    assert all(is_direct_summand(s) for s in summands)
    vectors = []

    def add_vector(v):
        v = tuple(int(x) for x in v)
        if v not in vectors:
            vectors.append(v)

    for i in range(n):
        add_vector(tuple(1 if j == i else 0 for j in range(n)))
    for _ in range(vector_samples):
        add_vector(tuple(rng.randint(-4, 4) for _ in range(n)))
    for mat in auts:
        for v in list(vectors):
            add_vector(mat @ v)
    membership = []
    for vi, v in enumerate(vectors):
        for si, s in enumerate(summands):
            if s.contains(v):
                membership.append((vi, si))
    inclusion = []
    complement_pairs = []
    for i, a in enumerate(summands):
        for j, b in enumerate(summands):
            if i != j and a.is_subset(b):
                inclusion.append((i, j))
            if i < j and relation_R(a, b):
                complement_pairs.append((i, j))
    index = {v: i for i, v in enumerate(vectors)}
    action = []
    for mi, mat in enumerate(auts):
        for vi, v in enumerate(vectors):
            out = tuple(mat @ v)
            if out in index:
                action.append((mi, vi, index[out]))
    return StructureM(
        rank=n,
        vectors=vectors,
        automorphisms=auts,
        summands=summands,
        membership=membership,
        inclusion=inclusion,
        complement_pairs=complement_pairs,
        action=action,
        sampling={"aut_samples": aut_samples, "vector_samples": vector_samples},
    )


# ---------------------------------------------------------------------------
# endomorphisms of a summand as graph summands
# ---------------------------------------------------------------------------


def encode_endomorphism_as_summand(
    alpha: IntMatrix, b: Sublattice, c: Sublattice, iota: IntMatrix
) -> Sublattice:
    """The graph sublattice {v + iota(alpha(v)) : v in B}.

    alpha acts on coordinates relative to the canonical basis of B and
    iota is a unimodular coordinate map from B to C.  The graph is always
    a complement of C.
    """
    if not relation_R(b, c):
        raise InputError("B and C must be complementary summands")
    r = b.rank
    if c.rank != r:
        raise InputError("B and C must have equal rank")
    if not (alpha.is_square and alpha.nrows == r):
        raise InputError("endomorphism matrix must be %d x %d" % (r, r))
    if not (iota.is_square and iota.nrows == r and iota.det() in (1, -1)):
        raise InputError("iota must be a unimodular %d x %d matrix" % (r, r))
    rows = []
    for i in range(r):
        e_i = tuple(1 if k == i else 0 for k in range(r))
        c_coords = iota @ (alpha @ e_i)
        row = list(b.basis[i])
        for k in range(r):
            row = [x + c_coords[k] * y for x, y in zip(row, c.basis[k])]
        rows.append(row)
    return Sublattice(b.ambient, rows)


def decode_summand_to_endomorphism(
    graph: Sublattice, b: Sublattice, c: Sublattice, iota: IntMatrix
) -> IntMatrix:
    """Invert the graph encoding: recover alpha from the graph summand."""
    if not relation_R(graph, c):
        raise InputError("graph must be a complement of C")
    r = b.rank
    stacked = list(graph.basis) + list(c.basis)
    cols = []
    iota_inv = iota.inverse_unimodular()
    for i in range(r):
        coeffs = solve_left(stacked, b.basis[i])
        if coeffs is None:
            raise InputError("B does not decompose over graph and C")
        c_part = coeffs[graph.rank :]
        # b_i = u - sum(c_part_k C_k) with u in the graph, so the graph
        # offset of b_i is -c_part in C coordinates
        alpha_col = iota_inv @ tuple(-x for x in c_part)
        cols.append(alpha_col)
    return IntMatrix([[cols[j][i] for j in range(r)] for i in range(r)])


def semantic_graph_compose(
    g_outer: Sublattice, g_inner: Sublattice, b: Sublattice, c: Sublattice, iota: IntMatrix
) -> Sublattice:
    """Graph of the composite map read off from two graph summands.

    Pass each canonical B-basis vector through the inner graph, map its C
    offset back into B, and push that through the outer graph.
    """
    inner_m = decode_summand_to_endomorphism(g_inner, b, c, iota)
    outer_m = decode_summand_to_endomorphism(g_outer, b, c, iota)
    return encode_endomorphism_as_summand(outer_m @ inner_m, b, c, iota)


# ---------------------------------------------------------------------------
# the ring of integers inside 2x2 matrices acting on Z^2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EncodedInteger:
    """The integer m carried by the unipotent matrix (1 0; m 1).

    The matrix fixes e2 and sends e1 to e1 + m e2; addition is matrix
    multiplication and multiplication reads one operand as a vector.
    """

    matrix: IntMatrix

    @property
    def value(self) -> int:
        return self.matrix.rows[1][0]


def _check_carrier(mat: IntMatrix) -> None:
    if not (
        mat.nrows == 2
        and mat.ncols == 2
        and mat.rows[0][0] == 1
        and mat.rows[0][1] == 0
        and mat.rows[1][1] == 1
    ):
        raise InputError("carrier matrix is not of the unipotent encoding form")


def encode_int(m: int) -> EncodedInteger:
    return EncodedInteger(IntMatrix([[1, 0], [int(m), 1]]))


def decode_int(enc: EncodedInteger) -> int:
    _check_carrier(enc.matrix)
    return enc.value


def int_add(a: EncodedInteger, b: EncodedInteger) -> EncodedInteger:
    _check_carrier(a.matrix)
    _check_carrier(b.matrix)
    return EncodedInteger(a.matrix @ b.matrix)


def int_mul(a: EncodedInteger, b: EncodedInteger) -> EncodedInteger:
    _check_carrier(a.matrix)
    _check_carrier(b.matrix)
    vec = (decode_int(b), 0)  # b as the vector b * e1
    moved = a.matrix @ vec
    diff = (moved[0] - vec[0], moved[1] - vec[1])
    assert diff[0] == 0
    return encode_int(diff[1])
