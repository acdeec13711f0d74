"""Workload definitions: the seeded call lists of the benchmark.

Each workload is a closed loop of ``harness.run_suite`` calls: one caller in
one process, each call starting after the previous one returns.  The
benchmark seed selects the suite seed of every pass; see ``suite_seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

# Suite seeds are drawn from range(REFERENCE_SEEDS), so that every report
# a run produces has a stored reference digest (digests.json).
REFERENCE_SEEDS = 16


@dataclass(frozen=True)
class Call:
    suite: str
    rank: int
    nil_class: int
    trials: int

    def spec(self):
        return [self.suite, self.rank, self.nil_class, self.trials]


@dataclass(frozen=True)
class Workload:
    # why each workload was chosen is in BENCHMARK.json and README.md
    # "full" is what the benchmark measures; "tiny" is for the self-test
    calls: dict
    # every (rank, class) context the calls touch, built during set-up
    contexts: tuple


WORKLOADS = {
    "descent": Workload(
        calls={
            "full": (
                Call("proposition-sigma", 3, 3, 20),
                Call("proposition-sigma", 2, 3, 5),
            ),
            "tiny": (
                Call("proposition-sigma", 3, 3, 2),
                Call("proposition-sigma", 2, 3, 2),
            ),
        },
        contexts=((3, 3), (2, 3)),
    ),
    "conjugation": Workload(
        calls={
            "full": (
                Call("one-step-down", 3, 3, 10),
                Call("lemma-2.2", 3, 3, 20),
                Call("lemma-2.1", 3, 3, 20),
            ),
            "tiny": (
                Call("one-step-down", 3, 3, 2),
                Call("lemma-2.2", 3, 3, 2),
                Call("lemma-2.1", 3, 3, 2),
            ),
        },
        contexts=((3, 3), (2, 2), (2, 3), (3, 2), (4, 2), (4, 3)),
    ),
    "elements": Workload(
        calls={
            "full": (
                # short passes: the cost of collecting a random word varies
                # widely, so a run takes the median over many seeds
                Call("group-axioms", 3, 5, 3),
                Call("group-axioms", 4, 4, 10),
            ),
            "tiny": (
                Call("group-axioms", 3, 5, 2),
                Call("group-axioms", 4, 4, 2),
            ),
        },
        # the projection checks touch every smaller class too
        contexts=tuple((3, c) for c in range(1, 6)) + tuple((4, c) for c in range(1, 5)),
    ),
    "matrices": Workload(
        calls={
            "full": (
                Call("interp-M", 3, 2, 250),
                Call("walk", 2, 2, 100),
                Call("eq-2", 2, 2, 200),
                Call("xy-linearity", 2, 2, 100),
                Call("endo-graph", 2, 2, 100),
                Call("ring-Z", 2, 2, 20),
            ),
            "tiny": (
                # fewer falsifier samples miss an order-3 witness on some seeds
                Call("interp-M", 3, 2, 250),
                Call("walk", 2, 2, 2),
                Call("eq-2", 2, 2, 2),
                Call("xy-linearity", 2, 2, 2),
                Call("endo-graph", 2, 2, 2),
                Call("ring-Z", 2, 2, 2),
            ),
        },
        contexts=(),
    ),
}

# Per-layer call counts that the layer-to-metric map in README.md predicts
# to be zero, checked by the self-test.
PREDICTED_ZERO_CALLS = {
    "descent": ("nilgroup.collect",),
    "conjugation": ("nilgroup.collect",),
    "elements": (
        "automorphisms.apply",
        "automorphisms.compose",
        "automorphisms.invert_automorphism",
    ),
    "matrices": (
        "automorphisms.apply",
        "automorphisms.compose",
        "automorphisms.invert_automorphism",
        "nilgroup.GroupContext.get",
        "nilgroup.multiply",
        "nilgroup.invert",
        "nilgroup.commutator",
        "nilgroup.collect",
    ),
}


def suite_seed(seed: int, pass_index: int) -> int:
    """Suite seed of every call in pass ``pass_index`` of a run with ``seed``."""
    return (seed + pass_index) % REFERENCE_SEEDS
