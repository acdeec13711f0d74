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
    from nilaut.harness import _Recorder, _check

    cfg = SuiteConfig("eq-2", trials=30).normalized()
    seen = []

    def trial_fn(rng, t):
        seen.append(t)
        return {"trial": t} if t == 1 else None

    rec = _Recorder()
    _check(cfg, rec, "demo", 30, trial_fn, "demo", "statement")
    assert seen == [0, 1]
    assert rec.checks[0]["trials"] == 2
    assert rec.checks[0]["witness"] == {"trial": 1}
    _check(cfg, rec, "demo", 30, lambda rng, t: None, "demo", "statement")
    assert rec.checks[1]["passed"] and rec.checks[1]["trials"] == 30


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
