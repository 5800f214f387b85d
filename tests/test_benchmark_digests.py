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
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import gammasym

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


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


TRACED_SWEEP = """
import json, sys
sys.path[:0] = sys.argv[1:]
import gammasym, libworker, tracing
tracer = tracing.Tracer(op=0)
tracing.install(tracer)
for part in ((2, 2, 2, 2), (1, 1, 3, 3)):
    libworker.analyse(gammasym, 8, part)
print(json.dumps({"spans": [s[1] for s in tracer.spans], "counts": tracer.counts}))
"""


def test_tracer_sees_the_sweep_stages():
    """The benchmark's tracer wraps gammasym from outside, by name; in a
    fresh interpreter, so that nothing is patched here, two sweep ops must
    still show the family, adaptedness, Lorentzian-scan and signature
    spans, two family and two is_adapted calls per op, one additivity
    check per op (the split of a block grading needs none), and the exact work
    of the two scans: 12 signatures (one per diagonal form, each group
    cached for both of its signs) over 96 scanned forms (all 64 sign
    vectors of (2,2,2,2), which has no Lorentzian member, and the 32 of
    (1,1,3,3) up to its first Lorentzian one); and each op's
    geodesic check under its traced names, one curve build and four ``at``
    calls (``geometry.geodesic``) and four float oracles
    (``geometry.oracle``)."""
    done = subprocess.run(
        [sys.executable, "-c", TRACED_SWEEP, str(SRC), str(PERFBENCH)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.splitlines()[-1])
    spans = Counter(doc["spans"])
    assert spans["metrics.invariant_family"] == spans["metrics.is_adapted"] == 4
    assert spans["metrics.lorentz"] == 2
    assert spans["grading.verify"] == 2
    assert spans["linalg.signature"] == doc["counts"]["linalg.signature_calls"] == 12
    assert doc["counts"]["metrics.lorentz_forms_tried"] == 96
    assert spans["geometry.geodesic"] == 2 * 5
    assert spans["geometry.oracle"] == 2 * 4


TRACED_BETA = """
import json, sys
size = sys.argv[1]
sys.path[:0] = sys.argv[2:]
import gammasym, libworker, tracing
tracer = tracing.Tracer(op=0)
tracing.install(tracer)
for label, call, check in next(libworker.killing_rounds(gammasym, size, 7, {})):
    assert check(call()), label
print(json.dumps({"spans": [s[1] for s in tracer.spans], "counts": tracer.counts}))
"""


def test_tracer_sees_the_beta_solves():
    """One batch of the killing-beta workload at each size, traced in a
    fresh interpreter.  At the tiny size, so(7) (2,2,2,1), the members'
    2 x 2 blocks show beta's solve and characteristic polynomial as spans,
    and the solve's rows reach ``RowReducer.insert``, each of the
    invertible blocks' rows giving a pivot.  At the full size, (3,3,3,4),
    every block is 1 x 1 and read off, so neither span shows."""
    spans, counts = {}, {}
    for size in ("tiny", "full"):
        done = subprocess.run(
            [sys.executable, "-c", TRACED_BETA, size, str(SRC), str(PERFBENCH)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        doc = json.loads(done.stdout.splitlines()[-1])
        spans[size], counts[size] = Counter(doc["spans"]), doc["counts"]
    assert spans["tiny"]["linalg.solve"] > 0
    assert spans["tiny"]["linalg.charpoly"] > 0
    tiny = counts["tiny"]
    assert tiny.get("linalg.rows_inserted", 0) == tiny.get("linalg.pivots", 0) > 0
    assert spans["full"]["metrics.beta"] == 3
    assert spans["full"]["linalg.solve"] == spans["full"]["linalg.charpoly"] == 0
