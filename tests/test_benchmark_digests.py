"""The benchmark's frozen digests, checked in the test suite.

``perfbench/expected.json`` holds one sha256 per ordered partition of n=8
over every exact output of the library pipeline (family names and order,
refinement, signatures, Ambrose-Singer verdicts, holonomy, sectional
table).  The benchmark marks an op failed when its digest moves; this
test makes the same check, so a change of family name, order or entry
shows here and not only in a benchmark run.  ``perfbench/`` is read, not
edited.
"""

import importlib
import json
from pathlib import Path

import gammasym

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_sweep_n8_matches_the_frozen_digests(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    libworker = importlib.import_module("libworker")
    want = json.loads((PERFBENCH / "expected.json").read_text())["sweep"]["8"]
    parts = libworker.compositions(8)
    assert len(parts) == len(want) == 165
    for part in parts:
        result = libworker.analyse(gammasym, 8, part)
        assert libworker.digest(result) == want[libworker.partition_key(part)], part
        assert libworker.geodesic_ok(result), part
