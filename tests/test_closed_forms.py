"""The split and the normal metric's connection against closed forms in the
block sizes (``closed_forms.py``), on every ordered partition with
3 <= n <= 12."""

from closed_forms import dim_m, em_records, me_records, mm_records, ordered_partitions

from gammasym import serialize
from gammasym.geometry import ambrose_singer_check
from gammasym.grading import block_grading
from gammasym.linalg import SymmetricForm

PARTITIONS = [(n, part) for n in range(3, 13) for part in ordered_partitions(n)]


def test_split_sizes_match_the_closed_forms():
    assert len(PARTITIONS) == 1805
    for n, part in PARTITIONS:
        g = block_grading(n, part)
        mm, me, em = g.split
        got = (len(g.complement_indices), *(sum(map(len, p)) for p in (mm, me, em)))
        want = (dim_m(part), mm_records(part), me_records(part), em_records(part))
        assert got == want, (n, part)


def test_split_records_are_antisymmetric():
    """mm[x][y] == (l, s) exactly when mm[y][x] == (l, -s), and the same for
    me: checked from every record, so neither side has one the other lacks."""
    for n, part in PARTITIONS:
        mm, me, _ = block_grading(n, part).split
        for partners in (mm, me):
            for x, row in enumerate(partners):
                for y, (l, s) in row.items():
                    assert partners[y].get(x) == (l, -s), (n, part, x, y)


def test_connection_doc_is_the_ambrose_singer_check_of_the_normal_metric():
    """``connection_doc`` writes both verdicts True without computing them;
    ``ambrose_singer_check`` computes them for B = I."""
    for n, part in PARTITIONS:
        g = block_grading(n, part)
        report = ambrose_singer_check(g, SymmetricForm.identity(len(g.complement_indices)))
        assert report == (True, True), (n, part)
        doc = serialize.connection_doc(g)
        assert (doc["contraction_vanishes"], doc["totally_skew"]) == report
