"""The benchmark's frozen digests and its beta check, run in the test suite.

``perfbench/expected.json`` holds one sha256 per ordered partition of n=8
over every exact output of the library pipeline (family names and order,
refinement, signatures, Ambrose-Singer verdicts, holonomy, sectional
table).  The benchmark marks an op failed when its digest moves; this
test makes the same check, so a change of family name, order or entry
shows here and not only in a benchmark run.  In the same way the Killing
operator ops of the benchmark are checked with its ``beta_ok``, so a wrong
beta fails here too.  ``perfbench/`` is read, not edited.
"""

import importlib
import json
from pathlib import Path

import pytest

import gammasym

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def libworker(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("libworker")


def test_sweep_n8_matches_the_frozen_digests(libworker):
    want = json.loads((PERFBENCH / "expected.json").read_text())["sweep"]["8"]
    parts = libworker.compositions(8)
    assert len(parts) == len(want) == 165
    for part in parts:
        result = libworker.analyse(gammasym, 8, part)
        assert libworker.digest(result) == want[libworker.partition_key(part)], part
        assert libworker.geodesic_ok(result), part


def test_sweep_n8_rounds_in_shuffled_order_match_the_digests(libworker):
    """Two rounds of the partition-sweep-n8 workload at seed 7, all 165 ops
    each, in the order the benchmark shuffles them, in one interpreter:
    state shared between ops (the live structure-constant view of one
    so(8), cached properties, module caches) must move no digest."""
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    rounds = libworker.sweep_rounds(gammasym, "full", 7, expected)
    orders = []
    for _ in range(2):
        batch = next(rounds)
        assert len(batch) == 165
        orders.append([label for label, _, _ in batch])
        for label, call, check in batch:
            assert check(call()), label
    assert orders[0] != orders[1]


@pytest.mark.parametrize("size", ["full", "tiny"])
def test_killing_beta_ops_pass_the_benchmark_check(libworker, size):
    """Three rounds of the killing-beta-n13 workload at seed 7: every op's
    beta passes ``libworker.beta_ok`` (B beta = K, commutation, the leading
    characteristic polynomial coefficients).  The tiny size, so(7)
    (2,2,2,1), sends 2 x 2 blocks through the same check."""
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    rounds = libworker.killing_rounds(gammasym, size, 7, expected)
    for _ in range(3):
        batch = next(rounds)
        assert len(batch) == 3
        for label, call, check in batch:
            assert check(call()), label
