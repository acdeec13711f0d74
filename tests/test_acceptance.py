"""Acceptance gate: every criterion at its stated budget, exact arithmetic.

Each test runs the relevant campaign(s) through the harness at the
acceptance parameters and prints one pass/fail line.
"""

import hashlib
import json

from nilaut.harness import SUITE_NAMES, SuiteConfig, run_suite

GRID = [(2, 2), (2, 3), (3, 2), (3, 3)]


def _run(suite, **kw):
    report = run_suite(SuiteConfig(suite, **kw))
    failing = [c for c in report.checks if not c["passed"]]
    return report, failing


def _verdict(name, ok, detail=""):
    print("%s %s%s" % ("PASS" if ok else "FAIL", name, detail))
    assert ok, detail


def test_acceptance_group_core():
    bad = []
    for n, s in GRID:
        report, failing = _run("group-axioms", rank=n, nil_class=s, trials=500, seed=1001)
        if failing:
            bad.append(((n, s), [c["name"] for c in failing]))
    _verdict("group-core: axioms, filtration, centrality, class-2 agreement (500 trials, 4 configs)", not bad, str(bad))


def test_acceptance_lemma_22_parity():
    bad = []
    for n, s in GRID:
        report, failing = _run("lemma-2.2", rank=n, nil_class=s, trials=200, seed=1002)
        if failing:
            bad.append(((n, s), [c["name"] for c in failing]))
    _verdict("lemma-2.2: parity of symmetries on weight and kernel layers (200 pairs per layer)", not bad, str(bad))


def test_acceptance_lemma_21_commutation():
    bad = []
    for n in (2, 3):
        report, failing = _run("lemma-2.1", rank=n, nil_class=3, trials=200, seed=1003)
        if failing:
            bad.append((n, [c["name"] for c in failing]))
    _verdict("lemma-2.1: IA commutes with each kernel layer modulo the next (200 pairs, class 3)", not bad, str(bad))


# sha256 of each 50 x 50 report's canonical JSON without `version`, so the
# pair loop keeps every report byte at the size where it reuses the most
NECESSITY_DIGESTS = {
    (2, 2): "1b4f845eb4dc167443282c1101d80b1b819fc298ea24528919ca49bcc41147e2",
    (2, 3): "2a144b55e0718ccb00a308c3f3882721a3e521a95343b47df8dfb0556b83db90",
    (3, 2): "6b30a60ef248d5fddd31dd39910a6a9592ff1ba4b10172c248ba21a8d8b08879",
    (3, 3): "de07288665b7492df8a0815812e378e86bea109c3bb0c3a7305ce0180b7c435c",
}


def _digest(report):
    payload = json.loads(report.to_canonical_json())
    del payload["version"]
    return hashlib.sha256((json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()).hexdigest()


def test_acceptance_proposition_necessity():
    bad = []
    for n, s in GRID:
        report, failing = _run("proposition-sigma", rank=n, nil_class=s, trials=50, seed=1004)
        if _digest(report) != NECESSITY_DIGESTS[(n, s)]:
            bad.append(((n, s), "report bytes changed"))
        necessity = [
            c
            for c in report.checks
            if c["name"] in ("necessity-descent", "abelianized-shadow") and not c["passed"]
        ]
        if necessity:
            bad.append(((n, s), [c["name"] for c in necessity]))
    _verdict(
        "proposition-necessity: 50 x 50 recursion descents with depth floors, zero failures (4 configs)",
        not bad,
        str(bad),
    )


def test_acceptance_proposition_converse():
    bad = []
    for s in (2, 3):
        report, failing = _run("proposition-sigma", rank=2, nil_class=s, trials=50, seed=1005)
        names = [c["name"] for c in report.checks]
        wanted = ["converse-witnesses", "no-witness-for-symmetries"]
        if s == 2:
            wanted.append("frozen-witness-trace")
        for w in wanted:
            check = next(c for c in report.checks if c["name"] == w)
            if not check["passed"]:
                bad.append((s, w))
    _verdict(
        "proposition-converse: catalogued non-symmetry involutions yield certified witnesses; the frozen trace reproduces",
        not bad,
        str(bad),
    )


def test_acceptance_eq2_conjugacy():
    report, failing = _run("eq-2", trials=200, seed=1006)
    family = next(c for c in report.checks if c["name"] == "family-conjugacy")
    ok = not failing and family["certificate"]["identities_verified"] == 42
    _verdict("eq-2: both involution families verified for all 21 parameters each, 200 roundtrips", ok, str(failing))


def test_acceptance_xy_linearity_and_walks():
    report1, failing1 = _run("xy-linearity", trials=100, seed=1007)
    report2, failing2 = _run("walk", trials=100, seed=1008)
    _verdict(
        "xy-linearity and walks: linear tracked entry on 100 seeds; 100 fifty-step walks without central terms",
        not failing1 and not failing2,
        str(failing1 + failing2),
    )


def test_acceptance_one_step_down():
    bad = []
    for n, s in GRID:
        report, failing = _run("one-step-down", rank=n, nil_class=s, trials=200, seed=1009)
        if failing:
            bad.append(((n, s), [c["name"] for c in failing]))
    _verdict(
        "one-step-down: forward containment on 200 samples, factorization over ranks 2..4, pair commuting",
        not bad,
        str(bad),
    )


def test_acceptance_interpretation_layer():
    failing = []
    for suite, kw in (
        ("interp-M", {"trials": 500, "seed": 1010}),
        ("ring-Z", {"trials": 20, "seed": 1011}),
        ("endo-graph", {"trials": 100, "seed": 1012}),
    ):
        _, bad = _run(suite, **kw)
        failing.extend((suite, c["name"]) for c in bad)
    _verdict(
        "interpretation: summand brute force, graph roundtrips, ring arithmetic, falsifier consistency",
        not failing,
        str(failing),
    )


def test_acceptance_determinism():
    small = {
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
    bad = []
    for suite in SUITE_NAMES:
        nil_class = 3 if suite == "lemma-2.1" else 2
        cfg = dict(rank=2, nil_class=nil_class, trials=small[suite], seed=1013)
        first = run_suite(SuiteConfig(suite, **cfg)).to_canonical_json()
        second = run_suite(SuiteConfig(suite, **cfg)).to_canonical_json()
        if first != second:
            bad.append(suite)
    _verdict("determinism: identical config and seed give byte-identical reports for every suite", not bad, str(bad))
