"""Executable interpretation demonstrations.

Finite, exact constructions: the T+/T- classification of automorphisms
against a stratified symmetry sample, the factorization of a conjugation
by a generator as a product of two symmetries, a finite sampled multi
sorted structure over Z^n (vectors, matrix automorphisms, direct summands
and their relations), the graph trick encoding endomorphisms of a summand
as summands, and a matrix encoding of the ring of integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from itertools import repeat
from operator import add, mul

from .errors import DomainError, InputError
from .automorphisms import (
    Endomorphism,
    _is_identity,
    canonical_symmetry,
    compose,
    is_automorphism,
)
from .glz import (
    IntMatrix,
    Sublattice,
    involution_eigenlattices,
    random_unimodular,
    relation_R,
)
from .nilgroup import GroupContext, generator, invert, multiply

__all__ = [
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
# T+ / T- classification
# ---------------------------------------------------------------------------


def t_plus_minus_classify(f: Endomorphism, symmetry_sample) -> str:
    """Conjugation behavior of f across a sample of symmetries mod IA.

    Returns "t_plus" when every sampled conjugate equals f, "t_minus" when
    every one equals f^-1, and "neither" otherwise.  "neither" is an exact
    verdict; "t_plus" and "t_minus" are sampled ones.

    No inverse is formed: theta f theta^-1 = f iff theta f = f theta, and
    theta f theta^-1 = f^-1 iff f theta f = theta.  When the first holds,
    the second holds iff f o f is the identity, tested once per call.
    """
    if not is_automorphism(f):
        raise DomainError("classification is defined for automorphisms")
    sample = list(symmetry_sample)
    if not sample:
        raise InputError("symmetry sample must be nonempty")
    involution = None
    all_plus = all_minus = True
    for theta in sample:
        lhs = compose(theta, f)
        plus = lhs == compose(f, theta)
        if plus:
            if involution is None:
                involution = _is_identity(compose(f, f))
            minus = involution
        else:
            minus = compose(f, lhs) == theta
        all_plus = all_plus and plus
        all_minus = all_minus and minus
        if not all_plus and not all_minus:
            return "neither"
    return "t_plus" if all_plus else "t_minus"


def factor_inner_as_symmetries(ctx: GroupContext, gen_index: int):
    """Two symmetries whose product is conjugation by the given generator.

    theta_1 inverts the standard generators; theta_2 sends the chosen
    generator x to x^-1 and every other generator y to x^-1 y^-1 x, which
    inverts the basis {x} plus {y x : y != x}.  Their composite equals
    conjugation by x exactly; the `two-symmetry-factorization` check of the
    `one-step-down` suite verifies this.
    """
    if not 1 <= gen_index <= ctx.rank:
        raise InputError("generator index %r out of range 1..%d" % (gen_index, ctx.rank))
    x = generator(ctx, gen_index)
    xinv = invert(x)
    images = []
    for j in range(1, ctx.rank + 1):
        if j == gen_index:
            images.append(xinv)
        else:
            y = generator(ctx, j)
            images.append(multiply(multiply(xinv, invert(y)), x))
    return canonical_symmetry(ctx), Endomorphism(ctx, images)


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
    action: list  # per matrix, the sort position of its image of each vector, or -1
    sampling: dict

    def action_triples(self):
        """The action as (matrix index, vector index, result vector index) triples."""
        for mi, images in enumerate(self.action):
            for vi, ri in enumerate(images):
                if ri >= 0:
                    yield mi, vi, ri

    def to_json(self):
        return {
            "rank": self.rank,
            "vectors": [list(v) for v in self.vectors],
            "automorphisms": [m.to_json() for m in self.automorphisms],
            "summands": [s.to_json() for s in self.summands],
            "membership": [list(p) for p in self.membership],
            "inclusion": [list(p) for p in self.inclusion],
            "complement_pairs": [list(p) for p in self.complement_pairs],
            "action": [list(p) for p in self.action_triples()],
            "sampling": self.sampling,
        }


def _row_values(row, cols):
    """row . v for every vector v, where cols[k] lists coordinate k of each v.

    The row must have a nonzero entry.
    """
    return list(reduce(partial(map, add), [map(mul, repeat(c), col) for c, col in zip(row, cols) if c]))


def _images(mat: IntMatrix, cols):
    """mat @ v as a tuple for every vector v, one matrix row at a time."""
    return zip(*[_row_values(row, cols) for row in mat.rows])


def _common_zeros(rows, vectors, cols):
    """Indices of the vectors on which every one of the nonzero rows vanishes.

    The first row is evaluated on the whole sort at once, the others only
    on the few vectors where it vanishes.  There is a first row, since no
    harvested involution is +-I.
    """
    first, rest = _row_values(rows[0], cols), rows[1:]
    return [
        vi
        for vi, x in enumerate(first)
        if not x and not any(sum(map(mul, row, vectors[vi])) for row in rest)
    ]


# Larger ranks are refused before anything is built.  The whole `interp-M`
# suite at its default budget, seeds 1 and 2, on a 2-core VM (Python 3.11):
# rank 16, 0.9 s and peak RSS 30-32 MB; 32, 3.3-3.6 s and 34-38 MB.  Rank
# 48 once took 21 s and rank 96 ran past 300 s.
MAX_STRUCTURE_RANK = 32


def build_structure_M(n: int, rng, aut_samples: int = 8, vector_samples: int = 12) -> StructureM:
    """A finite sampled approximation of the multi-sorted structure.

    Sorts: vectors of Z^n, unimodular matrices, and direct summands
    harvested as fixed-point sublattices of sampled diagonalizable
    involutions.  Every relation tuple is verified at construction.

    Vectors are numbered in the order they are first reached (unit
    vectors, random samples, then their images under each sampled
    matrix in turn); one insertion-ordered dict is both the sort and the
    index the action relation reads, so every relation tuple is a
    function of the seed.

    The relations on vectors are computed a batch at a time, one
    coordinate column of the whole vector sort at once.  Membership: each
    summand is Fix(f) or Neg(f) of a splitting involution f, that is the
    saturated kernel of f - I or f + I, so v is a member exactly when the
    nonzero rows of that matrix vanish on v; the rows are kept when the
    summand is first harvested.  Action: each matrix maps the whole sort
    in one pass, and keeps per matrix the index position of each image,
    -1 outside the sort.
    """
    if n < 2:
        raise InputError("rank must be at least 2")
    if n > MAX_STRUCTURE_RANK:
        raise InputError("rank %d exceeds the structure's limit of %d" % (n, MAX_STRUCTURE_RANK))
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
    equations = []  # per summand, the nonzero rows of f - I or f + I
    for f in involutions:
        fix, neg, splits = involution_eigenlattices(f)
        if not splits:
            continue
        for rows, eq in ((fix, f - eye), (neg, f + eye)):
            lat = Sublattice(n, rows)
            if lat not in summands:
                summands.append(lat)
                equations.append([r for r in eq.rows if any(r)])
    # the vector sort, in insertion order: vector -> its position
    index = {}

    def add_vector(v):  # v is a tuple of ints
        index.setdefault(v, len(index))

    for i in range(n):
        add_vector(tuple(1 if j == i else 0 for j in range(n)))
    for _ in range(vector_samples):
        add_vector(tuple(rng.randint(-4, 4) for _ in range(n)))
    for mat in auts:
        for v in _images(mat, list(zip(*index))):
            add_vector(v)
    vectors = list(index)
    cols = list(zip(*vectors))
    membership = sorted(
        (vi, si) for si, eqs in enumerate(equations) for vi in _common_zeros(eqs, vectors, cols)
    )
    inclusion = []
    complement_pairs = []
    for i, a in enumerate(summands):
        for j, b in enumerate(summands):
            if i != j and a.is_subset(b):
                inclusion.append((i, j))
            if i < j and relation_R(a, b):
                complement_pairs.append((i, j))
    action = [[index.get(out, -1) for out in _images(mat, cols)] for mat in auts]
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
    # relation_R certified the stacked bases as a unimodular matrix S, so
    # b_i has the unique coordinates b_i S^-1 over them
    coords = IntMatrix(list(graph.basis) + list(c.basis)).inverse_unimodular().transpose()
    cols = []
    iota_inv = iota.inverse_unimodular()
    for i in range(r):
        c_part = (coords @ b.basis[i])[graph.rank :]
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
    return EncodedInteger(IntMatrix([[1, 0], [m, 1]]))


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
    # (1 0; a 1) sends b * e1 to b * e1 + a b * e2
    return encode_int((a.matrix @ (b.value, 0))[1])
