"""Batch verification campaigns with seeded randomization and canonical
JSON reports.

Every suite checks one named family of statements; a failing check always
records a witness that reproduces the failure.  The master seed fans out
to per-trial generators through a hash of (seed, suite, check, trial), so
execution order cannot change the outcome.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, is_dataclass
from itertools import chain

from . import __version__
from .errors import InputError, SearchExhausted
from . import glz
from .glz import (
    DIAG_REP,
    SWAP_REP,
    IntMatrix,
    InvolutionClass,
    Sublattice,
    _family_matrix,
    classify_involution2,
    element_order,
    find_complement,
    is_diagonalizable_involution,
    is_direct_summand,
    noncentral_sigma_walk,
    noncentral_walk_certificate,
    order3_falsifier,
    random_unimodular,
    relation_R,
    xy_matrices,
)
from . import nilgroup as ng
from .nilgroup import GroupContext, GroupElement, collect, format_element
from .automorphisms import (
    Endomorphism,
    _is_identity,
    abelianization_matrix,
    agree_modulo_K,
    apply,
    canonical_symmetry,
    compose,
    conjugate,
    endomorphism_to_json,
    in_K,
    inner,
    lift_matrix,
)
from .sampling import (
    conjugated_symmetry,
    random_automorphism,
    random_element,
    random_element_of_weight,
    random_ia,
    random_k_member,
    symmetry_sample,
)
from .sigma import (
    check_involution,
    find_nontrivial_witness,
    matrix_sigma_sequence,
    sigma_sequence,
)
from .interpret import (
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

__all__ = ["SuiteConfig", "Report", "run_suite", "emit_report", "suite_table", "SUITE_NAMES"]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


DEFAULT_M_RANGE = (-5, 5)  # the family parameter range of every suite but eq-2


@dataclass
class SuiteConfig:
    suite: str
    rank: int = 2
    nil_class: int = 2
    trials: int = None
    seed: int = 0
    m_range: tuple = None

    def normalized(self) -> "SuiteConfig":
        if not isinstance(self.suite, str) or self.suite not in _SUITES:
            raise InputError("unknown suite %r" % (self.suite,))
        entry = _SUITES[self.suite]
        trials = self.trials if self.trials is not None else entry["trials"]
        m_range = self.m_range if self.m_range is not None else entry.get("m_range", DEFAULT_M_RANGE)
        for name, value in (
            ("rank", self.rank), ("class", self.nil_class), ("trials", trials), ("seed", self.seed)
        ):
            if not _is_int(value):
                raise InputError("%s must be an integer, got %r" % (name, value))
        pair = isinstance(m_range, (list, tuple)) and len(m_range) == 2
        if not (pair and all(map(_is_int, m_range))):
            raise InputError("parameter range must be a pair of integers, got %r" % (m_range,))
        m_range = tuple(m_range)
        if self.rank < 2:
            raise InputError("rank must be at least 2")
        if self.nil_class < 1:
            raise InputError("class must be at least 1")
        if trials < 1:
            raise InputError("trials must be positive")
        if m_range[0] > m_range[1]:
            raise InputError("empty parameter range")
        extra = entry.get("validate")
        if extra:
            extra(self)
        return SuiteConfig(self.suite, self.rank, self.nil_class, trials, self.seed, m_range)


@dataclass
class Report:
    config: dict
    checks: list
    passed: bool
    version: str
    wall_clock_seconds: float = None

    def to_canonical_json(self) -> str:
        # the wall clock is volatile and is deliberately nulled so reruns
        # with the same config and seed are byte-identical
        payload = {
            "config": self.config,
            "checks": self.checks,
            "passed": self.passed,
            "version": self.version,
            "wall_clock_seconds": None,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def emit_report(report: Report, path) -> None:
    text = report.to_canonical_json()
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError("cannot write report to %s: %s" % (path, exc)) from exc


def _trial_rng(seed, suite, check, trial=0):
    digest = hashlib.sha256(
        ("%s:%s:%s:%s" % (seed, suite, check, trial)).encode()
    ).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _jsonify(obj):
    if isinstance(obj, IntMatrix):
        return obj.to_json()
    if isinstance(obj, Endomorphism):
        return endomorphism_to_json(obj)
    if isinstance(obj, GroupElement):
        return format_element(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(x) for x in obj]
    if is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonify(v) for k, v in vars(obj).items()}
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    return repr(obj)


class _Recorder:
    def __init__(self):
        self.checks = []

    def add(self, name, statement, passed, trials, witness=None, certificate=None):
        self.checks.append(
            {
                "name": name,
                "statement": statement,
                "passed": bool(passed),
                "trials": trials,
                "witness": _jsonify(witness) if witness is not None else None,
                "certificate": _jsonify(certificate) if certificate is not None else None,
            }
        )

    @property
    def passed(self):
        return all(c["passed"] for c in self.checks)


def _first_failure(cases):
    """Run a lazy iterable of cases up to and including the first failure.

    Each case is its witness, or None when it passes.  Returns (count,
    witness): the number of cases run and the first witness, or the number
    of cases and None when every case passes.
    """
    count, witness = 0, None
    for witness in cases:
        count += 1
        if witness is not None:
            break
    return count, witness


def _check(rec, name, statement, cases, trials=None, certificate=None):
    """Record one check over a lazy iterable of cases (see `_first_failure`).

    The first witness fails the check and ends the run.  The recorded trial
    count is the number of cases run, unless `trials` gives it.
    """
    count, witness = _first_failure(cases)
    if trials is None:
        trials = count
    rec.add(name, statement, witness is None, trials, witness=witness, certificate=certificate)


def _trials(cfg, label, trials, trial_fn):
    # the cases trial_fn(rng, t) for t in range(trials), each trial with its
    # own generator from (seed, suite, label, t)
    return (trial_fn(_trial_rng(cfg.seed, cfg.suite, label, t), t) for t in range(trials))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_group_axioms(cfg, rec):
    ctx = GroupContext.get(cfg.rank, cfg.nil_class)
    s = cfg.nil_class
    one = ng.identity(ctx)

    def axioms(rng, t):
        a, b, c = (random_element(ctx, rng) for _ in range(3))
        ok = (
            ng.multiply(ng.multiply(a, b), c) == ng.multiply(a, ng.multiply(b, c))
            and ng.multiply(a, ng.invert(a)) == one
            and ng.multiply(ng.invert(a), a) == one
            and ng.multiply(a, one) == a
            and ng.multiply(one, a) == a
        )
        if not ok:
            return {"trial": t, "a": a, "b": b, "c": c}

    _check(
        rec, "axioms",
        "associativity, two-sided inverses and identity hold exactly in collected coordinates",
        _trials(cfg, "axioms", cfg.trials, axioms),
    )

    def filtration(rng, t):
        g, h = random_element(ctx, rng), random_element(ctx, rng)
        wg, wh = ng.weight(g), ng.weight(h)
        com = ng.commutator(g, h)
        ok = ng.weight(ng.multiply(g, h)) >= min(wg, wh)
        if wg + wh <= s:
            ok = ok and ng.weight(com) >= wg + wh
        else:
            ok = ok and com == one
        z = random_element_of_weight(ctx, rng, s)
        ok = ok and ng.commutator(z, g) == one
        if not ok:
            return {"trial": t, "g": g, "h": h, "z": z}

    _check(
        rec, "filtration",
        "weights are subadditive, brackets add weights up to the class, and the top layer is central",
        _trials(cfg, "filtration", cfg.trials, filtration),
    )

    if s == 2:

        def class2(rng, t):
            a, b = random_element(ctx, rng), random_element(ctx, rng)
            expected = list(x + y for x, y in zip(a.exponents, b.exponents))
            for idx in range(ctx.rank, ctx.dim):
                k, j = ctx.basis[idx].shape
                expected[idx] += a.exponents[k] * b.exponents[j]
            got = ng.multiply(a, b)
            if got.exponents != tuple(expected):
                return {"trial": t, "a": a, "b": b}

        _check(
            rec, "class2-closed-form",
            "the series product and the closed-form class-2 product rule agree bit for bit",
            _trials(cfg, "class2", cfg.trials, class2),
        )

    def projection(rng, t):
        a, b = random_element(ctx, rng), random_element(ctx, rng)
        for m in range(1, s + 1):
            lhs = ng.project_to_class(ng.multiply(a, b), m)
            rhs = ng.multiply(ng.project_to_class(a, m), ng.project_to_class(b, m))
            if lhs != rhs:
                return {"trial": t, "m": m, "a": a, "b": b}

    _check(
        rec, "projection-homomorphism",
        "truncation to each smaller class is a group homomorphism",
        _trials(cfg, "projection", min(cfg.trials, 200), projection),
    )

    def collect_homomorphism(rng, t):
        w1 = [(rng.randint(1, ctx.rank), rng.choice((1, -1))) for _ in range(rng.randint(0, 10))]
        w2 = [(rng.randint(1, ctx.rank), rng.choice((1, -1))) for _ in range(rng.randint(0, 10))]
        if collect(ctx, w1 + w2) != ng.multiply(collect(ctx, w1), collect(ctx, w2)):
            return {"trial": t, "w1": w1, "w2": w2}

    _check(
        rec, "collect-homomorphism",
        "word collection sends concatenation to the collected product",
        _trials(cfg, "collect", min(cfg.trials, 100), collect_homomorphism),
    )


def _theta_pool(cfg, ctx, label, conjugates):
    # the canonical symmetry, then conjugates drawn from the (seed, suite, label) generator
    rng = _trial_rng(cfg.seed, cfg.suite, label)
    pool = [canonical_symmetry(ctx)]
    for _ in range(conjugates):
        pool.append(conjugated_symmetry(ctx, rng))
    return pool


def _suite_lemma_22(cfg, rec):
    ctx = GroupContext.get(cfg.rank, cfg.nil_class)
    s = cfg.nil_class
    thetas = _theta_pool(cfg, ctx, "theta-pool", 20)

    for m in range(1, s + 1):

        def layer(rng, t):
            theta = thetas[rng.randrange(len(thetas))]
            c = random_element_of_weight(ctx, rng, m)
            sign = -1 if m % 2 == 0 else 1
            residue = ng.multiply(apply(theta, c), ng.power(c, sign))
            if ng.weight(residue) < m + 1:
                return {"trial": t, "theta": theta, "c": c}

        _check(
            rec, "layer-parity-m%d" % m,
            "a symmetry fixes weight-%d elements modulo the next layer when %d is even and inverts them when odd"
            % (m, m),
            _trials(cfg, "layer-m%d" % m, cfg.trials, layer),
        )

    for m in range(1, s + 1):

        def kernel(rng, t):
            theta = thetas[rng.randrange(len(thetas))]
            gamma = random_k_member(ctx, rng, m)
            if m % 2 == 0:
                # theta gamma theta^-1 gamma^-1 lies in K_{m+1}, a normal
                # subgroup, iff (gamma theta)^-1 (theta gamma) does
                ok = agree_modulo_K(compose(theta, gamma), compose(gamma, theta), m + 1)
            else:
                resid = compose(conjugate(theta, gamma), gamma)
                ok = in_K(resid, m + 1) if m + 1 <= s else _is_identity(resid)
            if not ok:
                return {"trial": t, "theta": theta, "gamma": gamma}

        _check(
            rec, "kernel-parity-m%d" % m,
            "conjugation by a symmetry fixes K_%d modulo K_%d when %d is even and inverts it when odd"
            % (m, m + 1, m),
            _trials(cfg, "kernel-m%d" % m, cfg.trials, kernel),
        )


def _suite_lemma_21(cfg, rec):
    ctx = GroupContext.get(cfg.rank, cfg.nil_class)
    # the suite runs at class 3 only, so K_{m+1} is a proper layer for m <= 2
    for m in (1, 2):

        def commutes(rng, t):
            gamma = random_ia(ctx, rng)
            delta = random_k_member(ctx, rng, m)
            # the commutator gamma^-1 delta^-1 gamma delta is
            # (delta gamma)^-1 (gamma delta)
            if not agree_modulo_K(compose(gamma, delta), compose(delta, gamma), m + 1):
                return {"trial": t, "gamma": gamma, "delta": delta}

        _check(
            rec, "ia-commutes-k%d" % m,
            "commutators of abelianization-trivial automorphisms with K_%d members land in K_%d"
            % (m, m + 1),
            _trials(cfg, "m%d" % m, cfg.trials, commutes),
        )


def _suite_proposition_sigma(cfg, rec):
    ctx = GroupContext.get(cfg.rank, cfg.nil_class)
    s = cfg.nil_class
    n_pool = cfg.trials

    rng_thetas = _trial_rng(cfg.seed, cfg.suite, "thetas")
    rng_sigmas = _trial_rng(cfg.seed, cfg.suite, "sigmas")
    sigmas = [random_automorphism(ctx, rng_sigmas) for _ in range(n_pool)]
    sigma_mats = [abelianization_matrix(sigma) for sigma in sigmas]
    rng_conj = _trial_rng(cfg.seed, cfg.suite, "conjugators")
    conj_pool = [random_automorphism(ctx, rng_conj) for _ in range(20)]

    pick = _trial_rng(cfg.seed, cfg.suite, "tuple-draws")

    def pairs():
        # one case per (theta, sigma) pair: None, or the name of the check
        # it fails with its witness; the shadow is checked only after a
        # passing descent, so both checks share one trace count
        for ti in range(n_pool):
            # theta, drawn per row so its monomial images die with it, and
            # the per-involution part of sigma.necessity_check: the order-two
            # check, and per pool index k the conjugate c_k theta c_k^-1
            # with its abelianized matrix, kept for this row only
            theta = conjugated_symmetry(ctx, rng_thetas)
            check_involution(theta)
            phis = {}
            for si, sigma in enumerate(sigmas):
                draws = [pick.randrange(len(conj_pool)) for _ in range(s)]
                for k in draws:
                    if k not in phis:
                        phi = conjugate(conj_pool[k], theta)
                        phis[k] = (phi, abelianization_matrix(phi))
                trace = sigma_sequence(sigma, [phis[k][0] for k in draws])
                if not trace.passed:
                    yield "necessity-descent", {
                        "theta_index": ti,
                        "sigma_index": si,
                        "violations": trace.violations,
                        "theta": theta,
                        "sigma": sigma,
                        "depths": trace.depths,
                    }
                    return
                mats = matrix_sigma_sequence(sigma_mats[si], [phis[k][1] for k in draws])
                # term 0 is sigma, whose matrix starts the matrix recursion
                if all(abelianization_matrix(t) == m for t, m in zip(trace.terms[1:], mats[1:])):
                    yield None
                else:
                    yield "abelianized-shadow", {"theta_index": ti, "sigma_index": si}

    traces, failure = _first_failure(pairs())
    failed, witness = failure or (None, None)
    rec.add(
        "necessity-descent",
        "for symmetries modulo abelianization-trivial factors, term m of the recursion lies in K_m and term s is trivial",
        failed != "necessity-descent",
        traces,
        witness=witness if failed == "necessity-descent" else None,
        certificate={"theta_pool": n_pool, "sigma_pool": n_pool, "tuple_pool": len(conj_pool)},
    )
    rec.add(
        "abelianized-shadow",
        "the abelianization of every recursion term equals the integer-matrix recursion of the abelianized inputs",
        failed != "abelianized-shadow",
        traces,
        witness=witness if failed == "abelianized-shadow" else None,
    )

    if cfg.rank == 2:

        def catalogue():
            # the swap catalogue is drawn only after the diagonal one passed
            rng_cat = _trial_rng(cfg.seed, cfg.suite, "catalog")
            for base_name, base in (("diagonal", DIAG_REP), ("swap", SWAP_REP)):
                catalog = [lift_matrix(ctx, base)]
                for _ in range(10):
                    c = random_automorphism(ctx, rng_cat)
                    catalog.append(conjugate(c, catalog[0]))
                for i, theta in enumerate(catalog):
                    wit = find_nontrivial_witness(theta, cfg.m_range)
                    certified = wit is not None and not wit.trace[-1].is_identity()
                    yield None if certified else {"class": base_name, "index": i, "theta": theta}

        _check(
            rec, "converse-witnesses",
            "every catalogued non-symmetry involution admits a recursion instance whose final term is certified non-trivial by its abelianization",
            catalogue(),
        )

        if s == 2:
            theta = lift_matrix(ctx, DIAG_REP)
            wit = find_nontrivial_witness(theta, cfg.m_range)
            ok = (
                wit is not None
                and abelianization_matrix(wit.sigma) == IntMatrix([[1, 1], [0, 1]])
                and wit.thetas[0] == theta
                and wit.trace[1] == IntMatrix([[1, -2], [0, 1]])
                and wit.trace[2] == IntMatrix([[-3, 8], [-8, 21]])
            )
            _check(
                rec, "frozen-witness-trace",
                "the witness for the diagonal involution lift reproduces the recursion shadow (1 -2; 0 1) then (-3 8; -8 21)",
                [None if ok else {"witness": wit}],
            )

        sym_pool = _theta_pool(cfg, ctx, "no-witness", 4)
        _check(
            rec, "no-witness-for-symmetries",
            "the witness search returns nothing for exact symmetries and their conjugates",
            (
                None if find_nontrivial_witness(theta, cfg.m_range) is None else {"index": i, "theta": theta}
                for i, theta in enumerate(sym_pool)
            ),
            trials=len(sym_pool),
        )


def _suite_eq2(cfg, rec):
    lo, hi = cfg.m_range

    def family(m, parity, rep, want):
        mat = _family_matrix(parity, m)
        cls, p = classify_involution2(mat)
        if not (cls is want and p @ rep @ p.inverse_unimodular() == mat):
            return {"m": m, "parity": parity, "matrix": mat}

    _check(
        rec, "family-conjugacy",
        "the lower-unipotent involution families are conjugate to the diagonal and swap representatives, with explicit conjugators",
        (
            family(m, parity, rep, want)
            for m in range(lo, hi + 1)
            for parity, rep, want in (
                ("even", DIAG_REP, InvolutionClass.DIAGONAL),
                ("odd", SWAP_REP, InvolutionClass.SWAP),
            )
        ),
    )
    # each case run verified one identity
    check = rec.checks[-1]
    check["certificate"] = {"identities_verified": check["trials"]}

    def roundtrip(rng, t):
        rep = DIAG_REP if rng.random() < 0.5 else SWAP_REP
        q = random_unimodular(rng, 2)
        mat = q @ rep @ q.inverse_unimodular()
        cls, p = classify_involution2(mat)
        ok = p @ rep @ p.inverse_unimodular() == mat
        ok = ok and (
            cls is InvolutionClass.DIAGONAL if rep is DIAG_REP else cls is InvolutionClass.SWAP
        )
        if not ok:
            return {"trial": t, "matrix": mat}

    _check(
        rec, "classification-roundtrip",
        "classifying a conjugated representative returns its class and a conjugator that reproduces the input exactly",
        _trials(cfg, "roundtrip", cfg.trials, roundtrip),
    )


def _sample_noncentral(rng):
    while True:
        s = random_unimodular(rng, 2)
        if not s.is_central():
            return s


def _sample_noncentral_nontriangular(rng):
    while True:
        s = _sample_noncentral(rng)
        if s.rows[0][1] and s.rows[1][0]:
            return s


def _suite_xy_linearity(cfg, rec):
    entry_stats = {"X": [0] * 4, "Y": [0] * 4}

    def linearity(rng, t):
        s = _sample_noncentral_nontriangular(rng)
        parity = "even" if rng.random() < 0.5 else "odd"
        pairs = [xy_matrices(s, m, parity) for m in (0, 1, 2)]
        for mode_idx, mode in enumerate(("X", "Y")):
            vals = [pair[mode_idx] for pair in pairs]
            tracked = [v.rows[0][1] for v in vals]
            second = tracked[2] - 2 * tracked[1] + tracked[0]
            first = tracked[1] - tracked[0]
            if second != 0 or first == 0:
                return {"trial": t, "mode": mode, "matrix": s, "parity": parity}
            for pos in range(4):
                i, j = divmod(pos, 2)
                seq = [v.rows[i][j] for v in vals]
                if seq[2] - 2 * seq[1] + seq[0] == 0 and seq[1] != seq[0]:
                    entry_stats[mode][pos] += 1

    _check(
        rec, "tracked-entry-linear",
        "the upper-right entry of both parametrized products is linear and non-constant over consecutive parameters",
        _trials(cfg, "linearity", cfg.trials, linearity),
        certificate={"linear_entry_counts_row_major": entry_stats},
    )


def _suite_walk(cfg, rec):
    def walk(rng, t):
        s0 = _sample_noncentral(rng)
        recs = noncentral_walk_certificate(s0, 50, m_range=cfg.m_range)
        if any(r.matrix.is_central() for r in recs):
            return {"trial": t, "seed_matrix": s0}
        if t < 10:
            for er, cr in zip(noncentral_sigma_walk(s0, 8, m_range=cfg.m_range), recs):
                if (er.m, er.orientation, er.mode) != (cr.m, cr.orientation, cr.mode):
                    return {"trial": t, "seed_matrix": s0, "mismatch": "choices"}
                if any(
                    e % glz.WALK_CERT_MODULUS != c
                    for erow, crow in zip(er.matrix.rows, cr.matrix.rows)
                    for e, c in zip(erow, crow)
                ):
                    return {"trial": t, "seed_matrix": s0, "mismatch": "residues"}

    _check(
        rec, "noncentral-walks",
        "fifty-step recursion walks stay non-central: every term is certified by a non-central residue image, and exact prefixes agree",
        _trials(cfg, "seed", cfg.trials, walk),
        certificate={"steps": 50, "modulus_bits": glz.WALK_CERT_MODULUS.bit_length()},
    )


def _suite_one_step_down(cfg, rec):
    ctx = GroupContext.get(cfg.rank, cfg.nil_class)
    s = cfg.nil_class
    rng_sample = _trial_rng(cfg.seed, cfg.suite, "symmetry-sample")
    sample = symmetry_sample(ctx, rng_sample, conjugates=20, perturbed=10)
    expected = "t_plus" if (s - 1) % 2 == 0 else "t_minus"

    def forward(rng, t):
        f = random_k_member(ctx, rng, s - 1, nontrivial=True)
        tag = t_plus_minus_classify(f, sample)
        if tag != expected:
            return {"trial": t, "f": f, "tag": tag}

    _check(
        rec, "forward-containment",
        "every nontrivial member of the next-to-last kernel layer is fixed (class parity even) or inverted (odd) by all sampled symmetries modulo the trivial-abelianization factor, per stratum",
        _trials(cfg, "forward", cfg.trials, forward),
    )

    reverse_stats = {"classified": 0}

    def reverse(rng, t):
        if rng.random() < 0.5:
            f = random_automorphism(ctx, rng)
        else:
            f = random_k_member(ctx, rng, rng.randint(1, s - 1))
        tag = t_plus_minus_classify(f, sample)
        if tag in ("t_plus", "t_minus"):
            reverse_stats["classified"] += 1
            if not in_K(f, s - 1):
                return {"trial": t, "f": f, "tag": tag}

    _check(
        rec, "reverse-containment",
        "every sampled automorphism classified as commuting or inverting lies in the next-to-last kernel layer",
        _trials(cfg, "reverse", cfg.trials, reverse),
        certificate=reverse_stats,
    )

    def pairs(rng, t):
        f = random_k_member(ctx, rng, s - 1, nontrivial=True)
        tag = t_plus_minus_classify(f, sample)
        if tag not in ("t_plus", "t_minus"):
            return {"trial": t, "f": f, "tag": tag}
        t1 = sample[rng.randrange(len(sample))]
        t2 = sample[rng.randrange(len(sample))]
        prod = compose(t1, t2)
        if compose(prod, f) != compose(f, prod):
            return {"trial": t, "f": f}

    _check(
        rec, "two-symmetry-products-commute",
        "products of two sampled symmetries commute exactly with next-to-last layer members",
        _trials(cfg, "pairs", min(cfg.trials, 50), pairs),
    )

    def factorization(n, cls, j):
        fctx = GroupContext.get(n, cls)
        theta1, theta2 = factor_inner_as_symmetries(fctx, j)
        x = ng.generator(fctx, j)
        ok = compose(theta1, theta2) == inner(x)
        ok = ok and _is_identity(compose(theta2, theta2))
        for y_idx in range(1, n + 1):
            if y_idx == j:
                continue
            yx = ng.multiply(ng.generator(fctx, y_idx), x)
            ok = ok and apply(theta2, yx) == ng.invert(yx)
        if not ok:
            return {"rank": n, "class": cls, "generator": j}

    _check(
        rec, "two-symmetry-factorization",
        "conjugation by each generator factors exactly as the product of the canonical symmetry and the adapted symmetry",
        (factorization(n, cls, j) for n in (2, 3, 4) for cls in (2, 3) for j in range(1, n + 1)),
    )


def _suite_interp_m(cfg, rec):
    def summand(a, b):
        lat = Sublattice(2, [(a, b)])
        brute = any(abs(a * d - b * c) == 1 for c in range(-10, 11) for d in range(-10, 11))
        comp = find_complement(lat)
        ok = is_direct_summand(lat) == brute
        if brute:
            ok = ok and comp is not None and relation_R(lat, comp)
        else:
            ok = ok and comp is None
        if not ok:
            return {"basis": [a, b]}

    _check(
        rec, "summand-brute-force",
        "the elementary-divisor summand test matches exhaustive search for an integral complementary vector on small rank-1 sublattices",
        (summand(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)),
    )

    rng = _trial_rng(cfg.seed, cfg.suite, "structure")
    st = build_structure_M(cfg.rank, rng)
    summands, vectors, mats = st.summands, st.vectors, st.automorphisms

    def relations():
        # one case per stored tuple; a failure names its relation and tuple
        for i, lat in enumerate(summands):
            yield None if is_direct_summand(lat) else {"relation": "summand", "tuple": [i]}
        for i, j in st.membership:
            yield None if summands[j].contains(vectors[i]) else {"relation": "membership", "tuple": [i, j]}
        for i, j in st.complement_pairs:
            yield None if relation_R(summands[i], summands[j]) else {"relation": "complement", "tuple": [i, j]}
        for i, j in st.inclusion:
            yield None if summands[i].is_subset(summands[j]) else {"relation": "inclusion", "tuple": [i, j]}
        for mi, vi, ri in st.action_triples():
            ok = mats[mi] @ vectors[vi] == vectors[ri]
            yield None if ok else {"relation": "action", "tuple": [mi, vi, ri]}

    _check(
        rec, "structure-relations",
        "every stored relation tuple of the sampled multi-sorted structure re-verifies: membership, inclusion, complementarity and the action",
        relations(),
        trials=len(st.membership) + len(st.inclusion) + len(st.complement_pairs) + sum(1 for _ in st.action_triples()),
        certificate={"sampling": st.sampling, "summands": len(st.summands)},
    )

    rng = _trial_rng(cfg.seed, cfg.suite, "falsifier")
    diag_catalog = [DIAG_REP]
    swap_catalog = [SWAP_REP]
    for _ in range(5):
        q = random_unimodular(rng, 2)
        diag_catalog.append(q @ DIAG_REP @ q.inverse_unimodular())
        q = random_unimodular(rng, 2)
        swap_catalog.append(q @ SWAP_REP @ q.inverse_unimodular())

    def diagonal(i, f):
        if not is_diagonalizable_involution(f):
            return {"catalog": "diagonal", "index": i}
        if order3_falsifier(f, cfg.trials, _trial_rng(cfg.seed, cfg.suite, "fd", i)) is not None:
            return {"catalog": "diagonal", "index": i, "matrix": f}

    def swap(i, f):
        if is_diagonalizable_involution(f):
            return {"catalog": "swap", "index": i}
        wit = order3_falsifier(f, cfg.trials, _trial_rng(cfg.seed, cfg.suite, "fs", i))
        if wit is None:  # a sampled search that finds nothing proves nothing
            raise SearchExhausted("no order-3 witness for swap matrix %d in %d trials" % (i, cfg.trials))
        if element_order(wit["a"] @ wit["b"]) != 3:
            return {"catalog": "swap", "index": i, "matrix": f}

    _check(
        rec, "diagonalizability-vs-order3",
        "diagonalizable involutions yield no order-3 product of class conjugates within budget, while the swap class always yields a witness",
        # the swap catalogue runs only after every diagonal matrix passed
        chain(
            (diagonal(i, f) for i, f in enumerate(diag_catalog)),
            (swap(i, f) for i, f in enumerate(swap_catalog)),
        ),
        trials=cfg.trials,
        certificate={"diag_catalog": len(diag_catalog), "swap_catalog": len(swap_catalog)},
    )


def _suite_ring_z(cfg, rec):
    b = cfg.trials
    square = range(-b, b + 1)

    def arithmetic(a, c):
        if decode_int(int_add(encode_int(a), encode_int(c))) != a + c:
            return {"op": "add", "a": a, "b": c}
        if decode_int(int_mul(encode_int(a), encode_int(c))) != a * c:
            return {"op": "mul", "a": a, "b": c}

    def roundtrip(m):
        if decode_int(encode_int(m)) != m:
            return {"op": "roundtrip", "m": m}

    def distributivity(rng):
        x, y, z = (rng.randint(-b, b) for _ in range(3))
        lhs = decode_int(int_mul(encode_int(x), int_add(encode_int(y), encode_int(z))))
        rhs = decode_int(
            int_add(int_mul(encode_int(x), encode_int(y)), int_mul(encode_int(x), encode_int(z)))
        )
        if lhs != rhs or lhs != x * (y + z):
            return {"op": "distributivity", "x": x, "y": y, "z": z}

    rng = _trial_rng(cfg.seed, cfg.suite, "distributivity")
    _check(
        rec, "ring-arithmetic",
        "the matrix encoding of the integers reproduces native addition and multiplication on the full test square, with distributivity spot checks",
        chain(
            (arithmetic(a, c) for a in square for c in square),
            map(roundtrip, square),
            (distributivity(rng) for _ in range(100)),
        ),
        trials=(2 * b + 1) ** 2,
    )


def _suite_endo_graph(cfg, rec):
    b = Sublattice(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    c = Sublattice(4, [(0, 0, 1, 0), (0, 0, 0, 1)])
    iota = IntMatrix.identity(2)

    def roundtrip(rng, t):
        alpha = IntMatrix([[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
        graph = encode_endomorphism_as_summand(alpha, b, c, iota)
        ok = relation_R(graph, c)
        ok = ok and decode_summand_to_endomorphism(graph, b, c, iota) == alpha
        if not ok:
            return {"trial": t, "alpha": alpha}

    _check(
        rec, "graph-roundtrip",
        "the graph of an endomorphism is always complementary to the reference summand and decodes back to the same matrix",
        _trials(cfg, "roundtrip", cfg.trials, roundtrip),
    )

    def composition(rng, t):
        a1 = IntMatrix([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        a2 = IntMatrix([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        g1 = encode_endomorphism_as_summand(a1, b, c, iota)
        g2 = encode_endomorphism_as_summand(a2, b, c, iota)
        composed = semantic_graph_compose(g1, g2, b, c, iota)
        if decode_summand_to_endomorphism(composed, b, c, iota) != a1 @ a2:
            return {"trial": t, "a1": a1, "a2": a2}

    _check(
        rec, "graph-composition",
        "composing two graphs through the summand relations matches the matrix product of the decoded maps",
        _trials(cfg, "compose", min(cfg.trials, 50), composition),
    )


def _require_class_3(cfg):
    if cfg.nil_class != 3:
        raise InputError("this suite is defined at class 3")


def _require_class_2_plus(cfg):
    if cfg.nil_class < 2:
        raise InputError("this suite needs class at least 2")


_SUITES = {
    "group-axioms": {
        "fn": _suite_group_axioms,
        "trials": 500,
        "statement": "group axioms, the weight filtration, central top layer, class-2 closed form, projection and collection homomorphisms",
    },
    "lemma-2.2": {
        "fn": _suite_lemma_22,
        "trials": 200,
        "statement": "parity action of symmetries on the weight layers and on the kernel-filtration layers",
    },
    "lemma-2.1": {
        "fn": _suite_lemma_21,
        "trials": 200,
        "statement": "abelianization-trivial automorphisms commute with each kernel layer modulo the next",
        "validate": _require_class_3,
    },
    "proposition-sigma": {
        "fn": _suite_proposition_sigma,
        "trials": 50,
        "statement": "descent of the alternating conjugation recursion for symmetries modulo trivial-abelianization factors, plus constructed refutation witnesses for the non-members",
    },
    "eq-2": {
        "fn": _suite_eq2,
        "trials": 200,
        "m_range": (-10, 10),
        "statement": "the two lower-unipotent involution families realize the two non-central conjugacy classes with explicit conjugators",
    },
    "xy-linearity": {
        "fn": _suite_xy_linearity,
        "trials": 100,
        "statement": "a tracked entry of the parametrized conjugation products depends linearly and non-constantly on the parameter",
    },
    "walk": {
        "fn": _suite_walk,
        "trials": 100,
        "statement": "fifty-step non-central trajectories of the alternating recursion exist from every sampled non-central start",
    },
    "one-step-down": {
        "fn": _suite_one_step_down,
        "trials": 200,
        "statement": "the next-to-last kernel layer is exactly the automorphisms fixed or inverted by all symmetries modulo trivial-abelianization factors, and generator conjugations factor as two symmetries",
        "validate": _require_class_2_plus,
    },
    "interp-M": {
        "fn": _suite_interp_m,
        "trials": 500,
        "statement": "direct-summand machinery: brute-force agreement, verified sampled structure relations, and the order-3 falsifier versus diagonalizability",
    },
    "ring-Z": {
        "fn": _suite_ring_z,
        "trials": 20,
        "statement": "the unipotent matrix encoding of the integers reproduces ring arithmetic",
    },
    "endo-graph": {
        "fn": _suite_endo_graph,
        "trials": 100,
        "statement": "endomorphisms of a summand encode as graph summands: complementarity, decoding, and semantic composition",
    },
}

SUITE_NAMES = tuple(_SUITES)


def suite_table():
    return [(name, entry["statement"]) for name, entry in _SUITES.items()]


def run_suite(cfg: SuiteConfig) -> Report:
    cfg = cfg.normalized()
    rec = _Recorder()
    started = time.monotonic()
    _SUITES[cfg.suite]["fn"](cfg, rec)
    elapsed = time.monotonic() - started
    config_echo = {
        "suite": cfg.suite,
        "rank": cfg.rank,
        "class": cfg.nil_class,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "m_range": list(cfg.m_range),
    }
    return Report(
        config=config_echo,
        checks=rec.checks,
        passed=rec.passed,
        version=__version__,
        wall_clock_seconds=elapsed,
    )
