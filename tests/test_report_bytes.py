"""Golden report bytes: pinned digests of canonical reports, at seed 0
unless SEEDS_AT names another.

Each digest is the sha256 of `Report.to_canonical_json()` with the
`version` field removed, so a release bump does not move it.  A change
that is meant to keep every verdict, witness and certificate must keep
these digests; a change that moves one on purpose regenerates it with
`report_digest` and says why.
"""

import hashlib
import json

import pytest

from nilaut.harness import SUITE_NAMES, SuiteConfig, run_suite

TRIALS = {
    "group-axioms": 60,
    "lemma-2.2": 15,
    "lemma-2.1": 15,
    "proposition-sigma": 4,
    "eq-2": 20,
    "xy-linearity": 10,
    "walk": 5,
    "one-step-down": 8,
    "interp-M": 250,
    "ring-Z": 4,
    "endo-graph": 10,
}

# the largest contexts, where the coordinate read-off does the most work,
# run fewer trials so each report stays near a second; the class 4-5
# automorphism suites pin `apply` where most monomials are of top degree
TRIALS_AT = {
    ("group-axioms", 4, 4): 20,
    ("group-axioms", 3, 5): 20,
    ("lemma-2.2", 2, 5): 3,
    ("one-step-down", 2, 4): 5,
    ("one-step-down", 3, 4): 4,
    ("proposition-sigma", 2, 4): 3,
}

# rank-4 interp-M at seed 3 harvests involutions with entries up to 3 * 10^6,
# the inputs that decide whether the lattice layer keeps its entries small
SEEDS_AT = {
    ("interp-M", 4, 2): 3,
}

CONFIGS = [(suite, 3, 3) for suite in SUITE_NAMES] + [
    ("group-axioms", 2, 2),
    ("one-step-down", 2, 2),
    ("proposition-sigma", 2, 2),
    ("proposition-sigma", 2, 3),
    ("group-axioms", 4, 4),
    ("group-axioms", 3, 5),
    ("lemma-2.2", 2, 5),
    ("one-step-down", 2, 4),
    ("one-step-down", 3, 4),
    ("proposition-sigma", 2, 4),
    # the call the `matrices` workload of perfbench times
    ("interp-M", 3, 2),
    ("interp-M", 4, 2),
]

DIGESTS = {
    "group-axioms (3,3)": "793bce81b402da27ee356bba0da2d5976f8a2e51af5480fdd141e3cfcfb2de16",
    "lemma-2.2 (3,3)": "8237d07f539f6748882cbfd3edc8afcce9a1cd353b24ca1fe7bf1eaa24281a01",
    "lemma-2.1 (3,3)": "3adfab965ed76a24c67c1deb1c0dcd5d64aaf6b9b85e382af0bf550787a44572",
    "proposition-sigma (3,3)": "035f7a3a2f1902f894e86d176ec8592cdf6a27f9b8fe8ae7226b9358b1b2cefd",
    "eq-2 (3,3)": "5d7851c43b8399e862db9b55dfc1dd5b112f2cba42816ca54e362dfebef8cffe",
    "xy-linearity (3,3)": "d10a1153e22ed388131fcfb8078d8998027a10c067942f38c4a738fe0d6ee2d4",
    "walk (3,3)": "619e81c6ca959d37b68d3adea9fc014f7fa9d9f743752d6e49e09b1ac6a34ad9",
    "one-step-down (3,3)": "c80c6b9299012136134b70aed4867d7040a36203020eb9f649e596cb163ee727",
    "interp-M (3,3)": "925e95824c9fd052a30dac8daec699388ef1bdf403dad33fabbe10af8958197f",
    "ring-Z (3,3)": "112e1781067c3fbc53c2cf190d890c0ecc65b7ab22978c2da48bc93becb820d0",
    "endo-graph (3,3)": "8e8167296385eeae5e04e3fffff21b7754fdce1cc2acdd533c665612bf0fb178",
    "group-axioms (2,2)": "5ab00b1f85cf11d14ab7c6ca622dc7c27a857bcc255fb77c3c1487a7fb6797b7",
    "one-step-down (2,2)": "ac75fab18777bfa63b614bd8221959ba6bb6a00fbb737f6b064be9011134ad46",
    "proposition-sigma (2,2)": "5e97c5900b9ba82b6b334c60e89c3b73fd0df31fda8f96217aec605a589fc701",
    "proposition-sigma (2,3)": "173de4b4ba5cb2c062fec84e35e4456163598bb76d8e4362f9641b36317b15d3",
    "group-axioms (4,4)": "4f82764acf464466dceed6b3e139a3c46dc61e3218128ce5bfe7587b352b5c89",
    "group-axioms (3,5)": "bbc5f99c5b6da4ef4a15486cc3893e9d5fe751b51aee85b5be3f8410408ba606",
    "lemma-2.2 (2,5)": "44ae7db10a3597fc597a527445c70d261621891bdc2c034a8f4fa8ad58a3fa7b",
    "one-step-down (2,4)": "fb87f440bb08d4d8db0013614e71ec6b871af3499e11bf6fa3bbd405748c82de",
    "one-step-down (3,4)": "0f2be81f40a79c67246596bf2974391fc1f5ac3ece51643c7040d4f6831b7567",
    "proposition-sigma (2,4)": "7f1adc2e8b8bd535ee985e03a3f7cea52b6c935d47cfbb89e6ba78e925f2b8d3",
    "interp-M (3,2)": "cf454362d8b0b58798da82a01ea874c8ce5d080ad7c7db28225721d71f36c5d0",
    "interp-M (4,2)": "992d3a9a7c64ee3a4bdeeb02b0be5ce2abdcc16b1864ecdf928914a77da66775",
}


def report_digest(suite, rank, nil_class):
    trials = TRIALS_AT.get((suite, rank, nil_class), TRIALS[suite])
    seed = SEEDS_AT.get((suite, rank, nil_class), 0)
    cfg = SuiteConfig(suite, rank=rank, nil_class=nil_class, trials=trials, seed=seed)
    payload = json.loads(run_suite(cfg).to_canonical_json())
    del payload["version"]
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("suite,rank,nil_class", CONFIGS)
def test_report_bytes_are_pinned(suite, rank, nil_class):
    key = "%s (%d,%d)" % (suite, rank, nil_class)
    assert report_digest(suite, rank, nil_class) == DIGESTS[key], (
        "report bytes changed for %s, seed %d" % (key, SEEDS_AT.get((suite, rank, nil_class), 0))
    )
