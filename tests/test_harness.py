import json
import os

import pytest

from nilaut.errors import InputError
from nilaut.harness import (
    Report,
    SUITE_NAMES,
    SuiteConfig,
    emit_report,
    run_suite,
    suite_table,
)

FAST_TRIALS = {
    "group-axioms": 20,
    "lemma-2.2": 8,
    "lemma-2.1": 8,
    "proposition-sigma": 3,
    "eq-2": 10,
    "xy-linearity": 8,
    "walk": 4,
    "one-step-down": 6,
    "interp-M": 60,
    "ring-Z": 4,
    "endo-graph": 8,
}


def fast_config(suite, seed=11):
    rank, nil_class = 2, 2
    if suite == "lemma-2.1":
        nil_class = 3
    return SuiteConfig(suite, rank=rank, nil_class=nil_class, trials=FAST_TRIALS[suite], seed=seed)


def test_suite_table_is_total():
    names = [name for name, _ in suite_table()]
    assert names == list(SUITE_NAMES)
    assert len(names) == 11
    for _, statement in suite_table():
        assert statement


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_suite_passes_and_is_deterministic(suite):
    cfg = fast_config(suite)
    first = run_suite(cfg)
    assert first.passed, [c for c in first.checks if not c["passed"]]
    second = run_suite(fast_config(suite))
    assert first.to_canonical_json() == second.to_canonical_json()
    # check structure: every record carries the contract fields
    for check in first.checks:
        assert set(check) == {"name", "statement", "passed", "trials", "witness", "certificate"}


def test_config_normalization_and_validation():
    cfg = SuiteConfig("eq-2").normalized()
    assert cfg.trials == 200 and cfg.m_range == (-10, 10)
    with pytest.raises(InputError):
        SuiteConfig("no-such-suite").normalized()
    with pytest.raises(InputError):
        SuiteConfig("eq-2", rank=1).normalized()
    with pytest.raises(InputError):
        SuiteConfig("eq-2", trials=0).normalized()
    with pytest.raises(InputError):
        SuiteConfig("lemma-2.1", nil_class=2).normalized()
    with pytest.raises(InputError):
        SuiteConfig("one-step-down", nil_class=1).normalized()
    with pytest.raises(InputError):
        SuiteConfig("eq-2", m_range=(3, -3)).normalized()


def test_emit_report_canonical(tmp_path):
    rep = run_suite(fast_config("ring-Z"))
    path = tmp_path / "report.json"
    emit_report(rep, path)
    text1 = path.read_text()
    data = json.loads(text1)
    assert data["passed"] is True
    assert data["wall_clock_seconds"] is None
    assert data["config"]["suite"] == "ring-Z"
    assert data["version"]
    emit_report(run_suite(fast_config("ring-Z")), path)
    assert path.read_text() == text1
    with pytest.raises(OSError):
        emit_report(rep, os.path.join(str(tmp_path), "missing", "report.json"))


def test_seed_changes_sampled_suite_outputs():
    a = run_suite(SuiteConfig("walk", trials=4, seed=1))
    b = run_suite(SuiteConfig("walk", trials=4, seed=2))
    assert a.passed and b.passed
    assert a.to_canonical_json() == run_suite(SuiteConfig("walk", trials=4, seed=1)).to_canonical_json()


def test_empty_report_serializes_to_skeleton():
    text = Report(config={}, checks=[], passed=True, version="0.0.0").to_canonical_json()
    data = json.loads(text)
    assert data["checks"] == []
    assert data["wall_clock_seconds"] is None


def test_failing_check_records_witness():
    # exercise the recorder contract directly: failures must carry a witness
    from nilaut.harness import _Recorder
    from nilaut.glz import IntMatrix

    rec = _Recorder()
    rec.add("demo", "statement", False, 3, witness={"matrix": IntMatrix([[1, 0], [0, 1]])})
    assert not rec.passed
    check = rec.checks[0]
    assert check["witness"] == {"matrix": [[1, 0], [0, 1]]}
    payload = Report({}, rec.checks, rec.passed, "0.0.0").to_canonical_json()
    assert json.loads(payload)["checks"][0]["witness"]["matrix"] == [[1, 0], [0, 1]]


def test_check_records_trials_run():
    from nilaut.harness import _Recorder, _check, _trials

    cfg = SuiteConfig("eq-2", trials=30).normalized()
    seen = []

    def trial_fn(rng, t):
        seen.append(t)
        return {"trial": t} if t == 1 else None

    rec = _Recorder()
    _check(rec, "demo", "statement", _trials(cfg, "demo", 30, trial_fn))
    assert seen == [0, 1]
    assert rec.checks[0]["trials"] == 2
    assert rec.checks[0]["witness"] == {"trial": 1}
    _check(rec, "demo", "statement", _trials(cfg, "demo", 30, lambda rng, t: None))
    assert rec.checks[1]["passed"] and rec.checks[1]["trials"] == 30
    # a fixed count is recorded as given, however many cases ran
    _check(rec, "demo", "statement", iter([None, {"case": 1}, None]), trials=7)
    assert not rec.checks[2]["passed"] and rec.checks[2]["trials"] == 7
    assert rec.checks[2]["witness"] == {"case": 1}


def test_proposition_sigma_conjugates_once_per_theta_and_pool_index(monkeypatch):
    # the pair loop computes each conjugate c_k theta c_k^-1 at most once per
    # (theta, pool index k) and checks each theta's order once; the parent
    # computed 6 x 6 x 2 conjugates and checked theta once per pair
    from nilaut import harness
    from nilaut.sampling import conjugated_symmetry, random_automorphism

    cfg = SuiteConfig("proposition-sigma", rank=2, nil_class=2, trials=6, seed=11)
    ctx = harness.GroupContext.get(2, 2)
    rng = harness._trial_rng(cfg.seed, cfg.suite, "thetas")
    thetas = [conjugated_symmetry(ctx, rng) for _ in range(cfg.trials)]
    rng = harness._trial_rng(cfg.seed, cfg.suite, "conjugators")
    pool = [random_automorphism(ctx, rng) for _ in range(20)]
    pick = harness._trial_rng(cfg.seed, cfg.suite, "tuple-draws")
    drawn = {
        (ti, pick.randrange(20))
        for ti in range(cfg.trials)
        for _ in range(cfg.trials * cfg.nil_class)
    }

    conjugations = []
    involution_checks = []
    real_conjugate = harness.conjugate
    real_check = harness.check_involution

    def counting_conjugate(c, f):
        # the rank-2 converse catalogue conjugates other involutions
        if f in thetas:
            conjugations.append((thetas.index(f), pool.index(c)))
        return real_conjugate(c, f)

    def counting_check(theta):
        involution_checks.append(thetas.index(theta))
        return real_check(theta)

    monkeypatch.setattr(harness, "conjugate", counting_conjugate)
    monkeypatch.setattr(harness, "check_involution", counting_check)
    report = run_suite(cfg)
    assert report.passed
    assert len(conjugations) == len(set(conjugations))
    assert set(conjugations) == drawn
    assert len(conjugations) <= cfg.trials * 20
    assert involution_checks == list(range(cfg.trials))


def test_pair_loop_reads_each_matrix_off_its_map(monkeypatch):
    # each conjugate's matrix is read off the conjugate itself, never built
    # from its conjugator's, and each sigma's matrix once per pool, not once
    # per pair; the parent read every conjugator and each sigma twice a pair
    from nilaut import harness
    from nilaut.sampling import random_automorphism

    cfg = SuiteConfig("proposition-sigma", rank=3, nil_class=3, trials=3, seed=5)
    ctx = harness.GroupContext.get(3, 3)
    rng = harness._trial_rng(cfg.seed, cfg.suite, "sigmas")
    sigmas = [random_automorphism(ctx, rng) for _ in range(cfg.trials)]
    rng = harness._trial_rng(cfg.seed, cfg.suite, "conjugators")
    pool = [random_automorphism(ctx, rng) for _ in range(20)]
    received = []
    real = harness.abelianization_matrix

    def recording(f):
        received.append(f)
        return real(f)

    monkeypatch.setattr(harness, "abelianization_matrix", recording)
    report = run_suite(cfg)
    assert report.passed
    assert not any(f == c for f in received for c in pool)
    assert [sum(f == sigma for f in received) for sigma in sigmas] == [1] * cfg.trials


def test_proposition_sigma_pair_loop_reads_no_coordinates(monkeypatch):
    # the recursion, its depths and the abelianized shadow read Magnus
    # series only; Hall coordinates are read off where they leave the engine
    from nilaut import harness, nilgroup

    readoffs = []
    marks = []
    real_read = nilgroup._series_to_coords
    real_sequence = harness.sigma_sequence

    def counting_read(ctx, ser):
        readoffs.append(ctx)
        return real_read(ctx, ser)

    def marking_sequence(sigma, phis):
        marks.append(len(readoffs))
        trace = real_sequence(sigma, phis)
        marks.append(len(readoffs))
        return trace

    monkeypatch.setattr(nilgroup, "_series_to_coords", counting_read)
    monkeypatch.setattr(harness, "sigma_sequence", marking_sequence)
    report = run_suite(SuiteConfig("proposition-sigma", rank=3, nil_class=3, trials=2, seed=11))
    assert report.passed
    assert len(marks) == 2 * 2 * 2
    assert marks[0] == marks[-1]


def test_conjugation_checks_form_no_inverse(monkeypatch):
    # the T+/T- classifier and lemma-2.1 compare composites; no inverse is
    # formed only to test a relation
    import random
    import sys

    from nilaut import automorphisms
    from nilaut.interpret import t_plus_minus_classify
    from nilaut.sampling import random_k_member, symmetry_sample

    ctx = automorphisms.GroupContext.get(3, 3)
    rng = random.Random(19)
    sample = symmetry_sample(ctx, rng, conjugates=3, perturbed=2)
    maps = [random_k_member(ctx, rng, m, nontrivial=True) for m in (1, 2)]
    calls = []
    real = automorphisms.invert_automorphism

    def counting(f):
        calls.append(f)
        return real(f)

    for name, module in list(sys.modules.items()):
        if name.startswith("nilaut") and getattr(module, "invert_automorphism", None) is real:
            monkeypatch.setattr(module, "invert_automorphism", counting)
    tags = [t_plus_minus_classify(f, sample) for f in maps]
    assert tags == ["neither", "t_plus"]
    report = run_suite(SuiteConfig("lemma-2.1", rank=3, nil_class=3, trials=5, seed=11))
    assert report.passed and len(report.checks) == 2
    assert calls == []


def test_commutator_checks_fail_for_generic_automorphisms(monkeypatch):
    # with generic automorphisms in place of the IA draws and the symmetry
    # pool, the commutators still lie in K_m, a normal subgroup, but not in
    # K_{m+1}: the checks compare images up to degree m + 1, not m
    import random

    from nilaut import harness
    from nilaut.sampling import random_automorphism

    pool = [random_automorphism(harness.GroupContext.get(3, 3), random.Random(k)) for k in range(3)]
    monkeypatch.setattr(harness, "random_ia", lambda ctx, rng: pool[rng.randrange(3)])
    monkeypatch.setattr(harness, "_theta_pool", lambda cfg, ctx, label, conjugates: pool)
    verdicts = {}
    for suite in ("lemma-2.1", "lemma-2.2"):
        report = run_suite(SuiteConfig(suite, rank=3, nil_class=3, trials=3, seed=11))
        verdicts.update((c["name"], c["passed"]) for c in report.checks)
    assert verdicts == {
        "ia-commutes-k1": False,
        "ia-commutes-k2": False,
        "layer-parity-m1": False,
        "layer-parity-m2": False,
        "layer-parity-m3": False,
        "kernel-parity-m1": False,
        "kernel-parity-m2": False,
        # K_3 is trivial at class 3
        "kernel-parity-m3": True,
    }


def _logged(monkeypatch, log, name, fail_on, wrong):
    # wrap harness.<name> so each call is logged and the call whose key
    # `fail_on` picks out returns `wrong`; every recorded check is logged
    # too, so the calls before a check's record are the cases it ran
    from nilaut import harness

    real = getattr(harness, name)
    real_add = harness._Recorder.add

    def wrapped(*args):
        log.append(args)
        return wrong(*args) if fail_on(*args) else real(*args)

    def logged_add(self, check_name, *rest, **kw):
        log.append(check_name)
        return real_add(self, check_name, *rest, **kw)

    monkeypatch.setattr(harness, name, wrapped)
    monkeypatch.setattr(harness._Recorder, "add", logged_add)


def _cases_before(log, check_name):
    return [e for e in log[: log.index(check_name)] if isinstance(e, tuple)]


def _record(report, check_name):
    return next(c for c in report.checks if c["name"] == check_name)


def test_family_grid_stops_at_first_failure(monkeypatch):
    from nilaut.glz import IntMatrix, InvolutionClass

    log = []
    bad = IntMatrix([[1, 0], [-3, -1]])  # m = -1, odd parity: the fourth case
    _logged(
        monkeypatch, log, "classify_involution2",
        lambda mat: mat == bad,
        lambda mat: (InvolutionClass.DIAGONAL, IntMatrix.identity(2)),
    )
    report = run_suite(SuiteConfig("eq-2", trials=3, seed=5, m_range=(-2, 2)))
    check = _record(report, "family-conjugacy")
    assert not check["passed"] and not report.passed
    assert check["trials"] == 4
    assert check["certificate"] == {"identities_verified": 4}
    assert check["witness"] == {"m": -1, "parity": "odd", "matrix": [[1, 0], [-3, -1]]}
    ks = [mat.rows[1][0] for (mat,) in _cases_before(log, "family-conjugacy")]
    assert ks == [-4, -5, -2, -3]


def test_factorization_grid_stops_at_first_failure(monkeypatch):
    from nilaut.automorphisms import identity_endomorphism

    log = []
    _logged(
        monkeypatch, log, "factor_inner_as_symmetries",
        lambda ctx, j: (ctx.rank, ctx.nilpotency_class, j) == (3, 2, 2),
        lambda ctx, j: (identity_endomorphism(ctx), identity_endomorphism(ctx)),
    )
    report = run_suite(SuiteConfig("one-step-down", rank=2, nil_class=2, trials=2, seed=5))
    check = _record(report, "two-symmetry-factorization")
    assert not check["passed"]
    assert check["trials"] == 6
    assert check["witness"] == {"rank": 3, "class": 2, "generator": 2}
    cases = [(ctx.rank, ctx.nilpotency_class, j) for ctx, j in _cases_before(log, "two-symmetry-factorization")]
    assert cases == [(2, 2, 1), (2, 2, 2), (2, 3, 1), (2, 3, 2), (3, 2, 1), (3, 2, 2)]


def test_summand_grid_stops_at_first_failure(monkeypatch):
    from nilaut.glz import Sublattice

    log = []
    bad = Sublattice(2, [(-3, -1)])  # a summand, and the third case of the grid
    _logged(monkeypatch, log, "find_complement", lambda lat: lat == bad, lambda lat: None)
    report = run_suite(SuiteConfig("interp-M", rank=2, trials=60, seed=11))
    check = _record(report, "summand-brute-force")
    assert not check["passed"]
    assert check["trials"] == 3
    assert check["witness"] == {"basis": [-3, -1]}
    lats = [lat for (lat,) in _cases_before(log, "summand-brute-force")]
    assert lats == [Sublattice(2, [(-3, b)]) for b in (-3, -2, -1)]


def test_falsifier_catalogue_stops_before_the_swap_side(monkeypatch):
    log = []
    _logged(
        monkeypatch, log, "order3_falsifier",
        lambda mat, samples, rng: sum(isinstance(e, tuple) for e in log) == 2,
        lambda mat, samples, rng: {"hit": True},
    )
    report = run_suite(SuiteConfig("interp-M", rank=2, trials=60, seed=11))
    check = _record(report, "diagonalizability-vs-order3")
    assert not check["passed"]
    assert check["trials"] == 60
    assert check["witness"]["catalog"] == "diagonal" and check["witness"]["index"] == 1
    assert set(check["witness"]) == {"catalog", "index", "matrix"}
    assert check["certificate"] == {"diag_catalog": 6, "swap_catalog": 6}
    assert len(_cases_before(log, "diagonalizability-vs-order3")) == 2


def test_structure_relations_name_the_failing_tuple(monkeypatch):
    # one image outside the sort (-1) pointed at a wrong position instead
    # adds one false action tuple, which fails the check with that tuple as
    # its witness; the certificate is unchanged
    from nilaut import harness

    real = harness.build_structure_M
    added = []

    def with_false_action(rank, rng):
        st = real(rank, rng)
        mi, vi = next((mi, vi) for mi, images in enumerate(st.action) for vi, ri in enumerate(images) if ri < 0)
        image = st.automorphisms[mi] @ st.vectors[vi]
        ri = next(i for i, v in enumerate(st.vectors) if v != image)
        added.append([mi, vi, ri])
        st.action[mi][vi] = ri
        return st

    base = _record(run_suite(SuiteConfig("interp-M", rank=2, trials=60, seed=11)), "structure-relations")
    monkeypatch.setattr(harness, "build_structure_M", with_false_action)
    report = run_suite(SuiteConfig("interp-M", rank=2, trials=60, seed=11))
    check = _record(report, "structure-relations")
    assert base["passed"] and not check["passed"] and not report.passed
    assert check["witness"] == {"relation": "action", "tuple": added[0]}
    assert check["trials"] == base["trials"] + 1
    assert check["certificate"] == base["certificate"]


def _pair_loop_report(monkeypatch, name, wrong):
    # run proposition-sigma at (2,2) with harness.<name> answering wrongly
    # at the second (theta, sigma) pair, theta 0 against sigma 1
    from nilaut import harness

    real = getattr(harness, name)
    calls = []

    def wrapped(*args):
        calls.append(args)
        got = real(*args)
        return wrong(got) if len(calls) == 2 else got

    monkeypatch.setattr(harness, name, wrapped)
    report = run_suite(SuiteConfig("proposition-sigma", rank=2, nil_class=2, trials=3, seed=1))
    assert len(calls) == 2
    return _record(report, "necessity-descent"), _record(report, "abelianized-shadow")


def test_pair_loop_stops_at_first_descent_failure(monkeypatch):
    # at (2,2) a term 2 of depth 1 misses K_2
    from nilaut.sigma import SigmaTrace

    descent, shadow = _pair_loop_report(
        monkeypatch, "sigma_sequence", lambda trace: SigmaTrace(trace.terms, [0, 1, 1])
    )
    assert not descent["passed"] and descent["trials"] == 2
    assert descent["witness"]["theta_index"] == 0 and descent["witness"]["sigma_index"] == 1
    assert descent["witness"]["violations"] == [2]
    assert descent["witness"]["depths"] == [0, 1, 1]
    assert shadow["passed"] and shadow["trials"] == 2 and shadow["witness"] is None


def test_pair_loop_stops_at_first_shadow_failure(monkeypatch):
    from nilaut.glz import IntMatrix

    zero = IntMatrix([[0, 0], [0, 0]])
    descent, shadow = _pair_loop_report(
        monkeypatch, "matrix_sigma_sequence", lambda mats: [zero for _ in mats]
    )
    assert descent["passed"] and descent["trials"] == 2 and descent["witness"] is None
    assert not shadow["passed"] and shadow["trials"] == 2
    assert shadow["witness"] == {"theta_index": 0, "sigma_index": 1}


def test_pair_loop_draws_theta_per_row(monkeypatch):
    # theta t is drawn at the start of row t, so a run whose first pair
    # fails draws one theta
    from nilaut import harness
    from nilaut.sigma import SigmaTrace

    drawn = []
    real = harness.conjugated_symmetry

    def counting(ctx, rng):
        drawn.append(ctx)
        return real(ctx, rng)

    monkeypatch.setattr(harness, "conjugated_symmetry", counting)
    monkeypatch.setattr(harness, "sigma_sequence", lambda sigma, phis: SigmaTrace([], [0, 0]))
    report = run_suite(SuiteConfig("proposition-sigma", rank=3, nil_class=3, trials=4, seed=1))
    descent = _record(report, "necessity-descent")
    assert not descent["passed"] and descent["trials"] == 1
    assert descent["witness"]["theta_index"] == 0 and descent["witness"]["sigma_index"] == 0
    assert len(drawn) == 1


def test_proposition_sigma_traced_peak():
    # only maps applied again keep monomial images: sigma, the conjugator
    # pool and each row's conjugates.  The traced peak is 1.55 MB; caching
    # the left check's images on each inverse and keeping every theta's
    # images to the end of the run raises it to 2.43 MB
    import tracemalloc

    from nilaut.nilgroup import GroupContext

    GroupContext.get(3, 3)
    tracemalloc.start()
    try:
        report = run_suite(SuiteConfig("proposition-sigma", rank=3, nil_class=3, trials=5, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 2_000_000


def test_interp_m_traced_memory_peak():
    # the action is one list of sort positions per matrix and falsifier
    # samples are tested on row tuples.  The traced peak is 3.4-3.6 MB; one
    # tuple per action triple and matrix products per sample raise it to
    # 5.0-5.1 MB
    import tracemalloc

    tracemalloc.start()
    try:
        report = run_suite(SuiteConfig("interp-M", rank=3, nil_class=2, trials=250, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 4_200_000
