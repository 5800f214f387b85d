"""The split, the normal metric's connection and curvature, and the
Lorentzian scan against closed forms in the block sizes
(``closed_forms.py``), on every ordered partition with 3 <= n <= 12."""

import random
from fractions import Fraction

from closed_forms import (
    beta_char_poly,
    dim_m,
    em_records,
    lorentzian_witness,
    me_records,
    mm_records,
    ordered_partitions,
    point_blocks,
    sectional_counts,
    sectional_row_sum,
)

from gammasym import serialize
from gammasym.geometry import ambrose_singer_check, sectional_table
from gammasym.grading import Grading, block_grading
from gammasym.groups import enumerate_group, from_label
from gammasym.linalg import SymmetricForm, congruence_signature
from gammasym.metrics import (
    _first_mismatch,
    _noncommuting_entry,
    evaluate_family,
    invariant_family,
    is_adapted,
    killing_metric_operator,
    lorentzian_search,
)

PARTITIONS = [(n, part) for n in range(3, 13) for part in ordered_partitions(n)]
QUARTERS = {Fraction(1): 4, Fraction(1, 4): 1, Fraction(0): 0}


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


def random_diagonal_member(rng, fam):
    """The family member with signed rational t values, one of them 0, and
    every u at 0."""
    diag = fam.diagonal_parameters()
    values = [Fraction(0)] * fam.dimension
    for k in diag:
        values[k] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if diag:
        values[rng.choice(diag)] = Fraction(0)
    return evaluate_family(fam, values)


def check_adapted_is_the_walk(g, forms, where):
    """The skewness behind ``is_adapted``'s diagonal path, mm[x][y] == (l, s)
    exactly when mm[x][l] == (y, -s), checked from every record; and, on
    each diagonal form, ``_first_mismatch`` with the form's entries as
    labels against the commutation check of B with ad_m(E_x) by
    ``_noncommuting_entry``: the same first differing entry, or None, for
    each x alone, and over all of mm the same first x as the per-x walk;
    ``is_adapted``'s verdict is that of the walk."""
    mm, _, _ = g.split
    for x, row in enumerate(mm):
        for y, (l, s) in row.items():
            assert row.get(l) == (y, -s), (where, x, y)
    for form in forms:
        rows, labels = form.sparse_rows, [form.entry(i, i) for i in range(form.dim)]
        assert all(i == j for i, j, _ in form.nonzero_entries), (where, form)
        walked = [_noncommuting_entry([row], rows) for row in mm]
        for x, entry in enumerate(walked):
            assert _first_mismatch([mm[x]], labels) == entry, (where, form, x)
        first = next(((x, *e[1:]) for x, e in enumerate(walked) if e is not None), None)
        assert _first_mismatch(mm, labels) == _noncommuting_entry(mm, rows) == first, (where, form)
        assert is_adapted(form, g) == (first is None), (where, form)


def test_lorentzian_witness_and_sectional_table_match_the_closed_forms():
    """``lorentzian_search`` returns the closed-form witness, a member of
    inertia (dim m - 1, 1, 0) that exists exactly when two blocks have one
    point; the normal metric's sectional table has the closed-form counts
    of 1, 1/4 and 0, and its row at E_pq sums to Ric(E_pq, E_pq).
    ``is_adapted`` and ``_first_mismatch`` agree with the commutation check
    on the identity, a seeded random diagonal member, the witness and, for
    n <= 8, a random diagonal form."""
    rng, entries = random.Random(31), random.Random(34)
    witnesses = refused = 0
    for n, part in PARTITIONS:
        g = block_grading(n, part)
        fam = invariant_family(g)
        report, witness = lorentzian_search(fam), lorentzian_witness(part)
        d = len(g.complement_indices)
        forms = [SymmetricForm.identity(d), random_diagonal_member(rng, fam)]
        if witness is not None:
            forms.append(evaluate_family(fam, witness))
        if n <= 8:  # a random diagonal form, mostly not a member, with many equal entries
            values = [Fraction(entries.randint(-2, 2), entries.randint(1, 2)) for _ in range(d)]
            forms.append(SymmetricForm.diagonal(values))
        check_adapted_is_the_walk(g, forms, (n, part))
        refused += not is_adapted(forms[1], g)
        assert (witness is not None) == (sum(r == 1 for r in part) >= 2), (n, part)
        if witness is None:
            assert report is None, (n, part)
        else:
            witnesses += 1
            assert report.parameter_values == witness, (n, part)
            inertia = congruence_signature(evaluate_family(fam, witness))
            assert inertia == report.inertia == (dim_m(part) - 1, 1, 0), (n, part)

        table = sectional_table(g, SymmetricForm.identity(d), SymmetricForm.identity(len(g.fixed_indices)))
        counts = {4: 0, 1: 0, 0: 0}  # by value in quarters: 1, 1/4 and 0
        rows = [0] * d
        for (i, j), v in table.items():
            w = QUARTERS[v]
            counts[w] += 1
            rows[i] += w
            rows[j] += w
        assert tuple(counts.values()) == sectional_counts(part), (n, part)
        block, pairs = point_blocks(part), g.algebra.pairs
        for x, k in enumerate(g.complement_indices):
            p, q = pairs[k]
            assert Fraction(rows[x], 4) == sectional_row_sum(part, block[p], block[q]), (n, part, x)
    assert witnesses == 313
    assert refused == 1374  # the random members are not all adapted


def test_beta_char_poly_matches_the_closed_form():
    """``killing_metric_operator`` on every nonzero component, at a seeded
    random member with signed values that is nondegenerate on all of them,
    has the closed-form characteristic polynomial (``beta_char_poly``, which
    eliminates nothing) and commutes with ad(g_e)."""
    rng = random.Random(32)
    components = 0
    for n, part in PARTITIONS:
        g = block_grading(n, part)
        fam = invariant_family(g)
        gammas = [gamma for gamma in enumerate_group(2)[1:] if g.carrier_slices[gamma.label]]
        while True:
            values = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in fam.names]
            try:
                want = [beta_char_poly(part, values, gamma.bits) for gamma in gammas]
            except ZeroDivisionError:
                continue
            break
        form = evaluate_family(fam, values)
        for gamma, poly in zip(gammas, want):
            op = killing_metric_operator(g, form, gamma)
            assert op.char_poly == poly, (n, part, gamma.label)
            assert op.commutes, (n, part, gamma.label)
            components += 1
    assert components == 4515


def test_adapted_is_the_walk_off_the_block_gradings():
    """The diagonal path of ``is_adapted`` reads only the skewness of so(n),
    so it also agrees with the commutation check on a grading whose
    ``blocks`` is None:
    (2, 2, 1, 1) with the labels a and b swapped."""
    g = block_grading(6, (2, 2, 1, 1))
    swap = {"a": from_label(2, "b"), "b": from_label(2, "a")}
    other = Grading(g.algebra, 2, tuple(swap.get(x.label, x) for x in g.assignment), g.partition)
    assert other.blocks is None
    rng = random.Random(6)
    d = len(other.complement_indices)
    values = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)]
    values[rng.randrange(d)] = Fraction(0)
    forms = [SymmetricForm.identity(d), SymmetricForm.diagonal(values)]
    check_adapted_is_the_walk(other, forms, "a/b swapped")
    assert [is_adapted(f, other) for f in forms] == [True, False]
