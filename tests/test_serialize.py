"""The curvature writers, byte for byte against the encodings in
``tests/oracles.py``: the JSON document built as one dict per entry and
encoded whole by ``json.dumps(sort_keys=True, indent=2)``, and the CSV and
text written one line per entry."""

import random
from fractions import Fraction

import pytest

import oracles
from gammasym import serialize
from gammasym.geometry import sectional_table
from gammasym.grading import block_grading
from gammasym.linalg import SymmetricForm
from test_cli import MANIFEST_SHA256

# the pinned report grid up to n = 21, and partitions with m = 0
GRID = [(int(n), part) for n, part in MANIFEST_SHA256 if int(n) <= 21]
GRID += [(3, "0,0,0,3"), (3, "3,0,0,0"), (6, "0,6,0,0")]


def assert_writers_match(grading, table):
    assert serialize.curvature_doc(grading, table) == oracles.curvature_json(grading, table)
    assert serialize.curvature_csv(table) == oracles.curvature_csv(table)
    assert serialize.curvature_text(table) == oracles.curvature_text(table)


@pytest.mark.parametrize("n, part", GRID)
def test_curvature_writers_match_the_oracles_on_the_grid(n, part):
    g = block_grading(n, tuple(int(r) for r in part.split(",")))
    b_m = SymmetricForm.identity(len(g.complement_indices))
    table = sectional_table(g, b_m, SymmetricForm.identity(len(g.fixed_indices)))
    assert_writers_match(g, table)


def random_table(rng, d):
    """A table on d basis vectors with random rational entries, some
    negative, some with many digits, and labels that JSON must escape."""
    labels = tuple(rng.choice(["E", 'q"', "é", "t\\"]) + str(k) for k in range(d))
    entries = {}
    for i in range(d):
        for j in range(i + 1, d):
            big = 10 ** rng.choice([1, 3, 25])
            entries[i, j] = Fraction(rng.randint(-big, big), rng.randint(1, big))
    return oracles.DictCurvatureTable(labels, entries)


def test_curvature_writers_match_the_oracles_on_random_tables():
    rng = random.Random(41)
    grading = block_grading(5, (2, 2, 1, 0))
    signs, values = set(), set()
    for trial in range(60):
        table = random_table(rng, rng.randint(0, 14))
        if trial % 3 == 0:  # a table with no negative entry
            table = oracles.DictCurvatureTable(table.labels, {k: abs(v) for k, v in table.entries.items()})
        assert_writers_match(grading, table)
        signs.add(table.all_nonnegative())
        values.update(table.entries.values())
    assert signs == {True, False}
    assert {v.denominator for v in values} - {1, 4} and min(values) < 0
    assert max(v.numerator for v in values) > 2**64
