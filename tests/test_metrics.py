import random
import re
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from gammasym import metrics
from gammasym.geometry import ambrose_singer_check
from gammasym.grading import Grading, block_grading, verify_grading
from gammasym.groups import GroupElement, enumerate_group, from_label, identity
from gammasym.linalg import RowReducer, SymmetricForm, congruence_signature, linear_combination
from gammasym.metrics import (
    FormFamily,
    _poly_product,
    evaluate_family,
    invariant_family,
    is_adapted,
    killing_metric_operator,
    lorentzian_search,
    naturally_reductive_subfamily,
    signature_scan,
)
from oracles import (
    basis_vector,
    bracket,
    bracket_basis,
    classify,
    dense_killing_metric_operator,
    mat_mul,
    nullspace,
    nullspace_basis,
    row_space_basis,
)

F = Fraction


def family(n, part):
    return invariant_family(block_grading(n, part))


def test_family_dimensions_and_names():
    fam = family(5, (2, 2, 1, 0))
    assert fam.dimension == 4
    assert fam.names == ["t_A1", "u_A1", "t_B1", "t_C2"]
    assert fam.supports == ["a:diag:A1", "a:offdiag:A1", "b:diag:B1", "c:diag:C2"]

    fam2 = family(5, (2, 1, 1, 1))
    assert fam2.dimension == 6
    assert fam2.names == ["t_A1", "t_A2", "t_B1", "t_B2", "t_C1", "t_C2"]

    assert family(5, (1, 1, 3, 0)).names == ["t_A1", "t_B1", "t_C2"]
    assert family(13, (3, 3, 3, 4)).dimension == 6


def test_family_so7_has_three_offdiagonal_directions():
    fam = family(7, (2, 2, 2, 1))
    assert fam.dimension == 9
    assert [n for n in fam.names if n.startswith("u_")] == ["u_A1", "u_B1", "u_C2"]


def test_family_dimension_invariant_under_block_permutation():
    """Each permutation of the four blocks is an affine map of Z2xZ2.

    Conjugating by it fixes g_e and permutes the three components, so the
    family dimension cannot depend on the block order, and blocks of equal
    size force equal counts on the components they permute.
    """
    dims = {
        (n, part): family(n, part).dimension
        for n in range(3, 8)
        for part in product(range(n + 1), repeat=4)
        if sum(part) == n
    }
    assert len(dims) == 315
    moved = {k: d for k, d in dims.items() if d != dims[(k[0], tuple(sorted(k[1])))]}
    assert moved == {}

    fam = family(7, (2, 2, 2, 1))
    assert Counter(s.split(":")[0] for s in fam.supports) == {"a": 3, "b": 3, "c": 3}


def ordered_partitions(lo, hi):
    return [
        (n, part)
        for n in range(lo, hi + 1)
        for part in product(range(n + 1), repeat=4)
        if sum(part) == n
    ]


def all_of_g_e(monkeypatch):
    """Make every basis vector of g_e count as a generator: the full action set."""
    monkeypatch.setattr(
        Grading, "fixed_generators", property(lambda g: tuple(range(len(g.fixed_indices))))
    )


def lie_closure_dim(alg, gens):
    """Dimension of the Lie subalgebra generated by the basis vectors ``gens``."""
    vecs = [basis_vector(alg, k) for k in gens]
    span = row_space_basis(vecs)
    while True:
        grown = row_space_basis(span + [bracket(alg, v, x) for v in vecs for x in span])
        if len(grown) == len(span):
            return len(span)
        span = grown


def family_key(fam):
    return fam.names, fam.supports, [f.rows() for f in fam.basis]


def test_family_from_generators_matches_full_action_set(monkeypatch):
    """Invariance under the Lie generators of g_e is invariance under g_e.

    Over all 315 ordered partitions with 3 <= n <= 7 the generators span
    g_e under brackets, and the row-reduction route gives the closed-form
    family both when invariance is imposed under the generators and when
    it is imposed under every basis vector of g_e; the beta commutation
    check of ``killing_metric_operator`` runs on the generators alone.
    """
    cases = ordered_partitions(3, 7)
    assert len(cases) == 315
    closed = {}
    for n, part in cases:
        g = block_grading(n, part)
        gens = [g.fixed_indices[t] for t in g.fixed_generators]
        assert lie_closure_dim(g.algebra, gens) == len(g.fixed_indices)
        closed[n, part] = family_key(invariant_family(g))
        assert family_by_row_reduction(g) == closed[n, part]
    all_of_g_e(monkeypatch)
    for n, part in cases:
        assert family_by_row_reduction(block_grading(n, part)) == closed[n, part]


def family_by_row_reduction(g):
    """The family by general sparse RREF, a second route for the closed
    form: one dict row per invariance constraint under each of
    ``g.fixed_generators``, summed per unknown and reduced by
    ``RowReducer``; the nullspace vectors are read back densely, sorted by
    component, sub-block and diagonal flag, and named as the library
    names them.
    """
    _, _, em = g.split
    carrier = g.complement_indices
    slices = list(g.carrier_slices.values())
    offsets = [sum(len(s) * (len(s) + 1) // 2 for s in slices[:k]) for k in range(len(slices))]
    total = sum(len(s) * (len(s) + 1) // 2 for s in slices)

    def unknown(off, sl, x, y):
        x, y = sorted((x - sl.start, y - sl.start))
        return off + x * len(sl) - x * (x - 1) // 2 + (y - x)

    reducer = RowReducer(total)
    for sl, off in zip(slices, offsets):
        for action in (em[z] for z in g.fixed_generators):
            for x in sl:
                for y in sl:
                    ax, ay = ([action[v]] if v in action else [] for v in (x, y))
                    if not ax or (ay and y < x):
                        continue
                    row = {}
                    for col, c in [(unknown(off, sl, r, y), c) for r, c in ax] + [
                        (unknown(off, sl, x, r), c) for r, c in ay
                    ]:
                        row[col] = row.get(col, F(0)) + c
                    reducer.insert(row)
    forms = []
    for sol in nullspace_basis(reducer):
        upper = [
            (x, y, sol[unknown(off, sl, x, y)])
            for sl, off in zip(slices, offsets)
            for x in sl
            for y in range(x, sl.stop)
            if sol[unknown(off, sl, x, y)]
        ]
        forms.append(SymmetricForm(len(carrier), tuple(upper)))
    keyed, order = [], {e.label: p for p, e in enumerate(enumerate_group(g.rank))}
    for pos, f in enumerate(forms):
        cpos, sbord, dflag, support, sub = classify(f, g, carrier, order)
        keyed.append(((cpos, sbord, dflag, pos), f, support, sub, dflag))
    keyed.sort(key=lambda item: item[0])
    names, supports, used = [], [], Counter()
    for _, f, support, sub, dflag in keyed:
        stem = ("t_" if dflag == 0 else "u_") + sub
        used[stem] += 1
        names.append(stem if used[stem] == 1 else f"{stem}_{used[stem]}")
        supports.append(support)
    return names, supports, [f.rows() for _, f, *_ in keyed]


def test_family_matches_row_reduction_route():
    """The closed-form family equals the sparse RREF family, names,
    supports and entries, on every ordered partition with 3 <= n <= 7 and
    on all 241 with every block at most 3: the closed form reads a block
    only as 0, 1, 2 or at least 3 rows, so these meet every case it
    distinguishes.  Larger blocks are checked at a few partitions."""
    cases = ordered_partitions(3, 7)
    assert len(cases) == 315
    small_blocks = [(sum(p), p) for p in product(range(4), repeat=4) if sum(p) >= 3]
    assert len(small_blocks) == 241
    cases += [c for c in small_blocks if c[0] > 7]
    cases += [(17, (4, 4, 4, 5)), (22, (2, 2, 9, 9)), (16, (1, 1, 1, 13))]
    for n, part in cases:
        g = block_grading(n, part)
        assert family_key(invariant_family(g)) == family_by_row_reduction(g), part


def test_family_needs_a_block_grading():
    """Gradings that verify but are not ``block_grading(n, partition)``
    are refused: one without a partition, and one with the labels a and b
    swapped (an automorphism of the Klein group, so it still verifies)."""
    g = block_grading(6, (2, 2, 1, 1))
    swap = {"a": from_label(2, "b"), "b": from_label(2, "a")}
    relabelled = tuple(swap.get(x.label, x) for x in g.assignment)
    for other in (Grading(g.algebra, 2, g.assignment), Grading(g.algebra, 2, relabelled, g.partition)):
        assert verify_grading(other) is None
        with pytest.raises(ValueError, match="needs a block grading"):
            invariant_family(other)


def test_family_rejects_a_wrong_partition_label():
    """The block check reads the grading's own partition label.  A label
    that is not a partition of n, or one whose blocks give other degrees,
    is refused as "needs a block grading", never by an IndexError from the
    block numbers; so is a rank-3 grading with the masks of a block
    grading.  A grading that does not verify is refused as "not a
    grading" whatever its label."""
    g = block_grading(6, (2, 2, 1, 1))
    labels = [
        (2, 2, 1, 0),  # sums to 5, not 6
        (1, 1, 1, 1, 2),  # five parts
        (3, -1, 2, 2),  # a negative part
        (2, 2, 2),  # three parts
        (1, 2, 2, 1),  # the right sum, the wrong blocks
    ]
    for label in labels:
        other = Grading(g.algebra, 2, g.assignment, label)
        assert verify_grading(other) is None
        with pytest.raises(ValueError, match="needs a block grading"):
            invariant_family(other)
    rank3 = tuple(GroupElement(3, x.bits) for x in g.assignment)
    other = Grading(g.algebra, 3, rank3, g.partition)
    assert verify_grading(other) is None
    with pytest.raises(ValueError, match="needs a block grading"):
        invariant_family(other)
    broken = (from_label(2, "a"),) + g.assignment[1:]
    for label in (g.partition, (2, 2, 1, 0), (2, 2, 2)):
        other = Grading(g.algebra, 2, broken, label)
        assert verify_grading(other) is not None
        with pytest.raises(ValueError, match="not a grading"):
            invariant_family(other)


def invariant_on(g, form, carrier):
    """B([Z, X], Y) + B(X, [Z, Y]) = 0 for all Z in g_e and X, Y in one component."""
    alg = g.algebra
    local = {g.complement_indices[x]: x for x in carrier}
    for z in g.fixed_indices:
        for x in carrier:
            for y in carrier:
                total = F(0)
                for r, c in bracket_basis(alg, z, g.complement_indices[x]):
                    total += c * form.entry(local[r], y)
                for r, c in bracket_basis(alg, z, g.complement_indices[y]):
                    total += c * form.entry(x, local[r])
                if total:
                    return False
    return True


def test_beta_check_fails_off_the_family_under_both_action_sets(monkeypatch):
    """A form that is not invariant on a component fails the beta check
    whether it is run on the generators of g_e or on all of g_e."""
    rng = random.Random(31)
    cases = []
    for n, part in ordered_partitions(4, 6):
        g = block_grading(n, part)
        form = SymmetricForm.diagonal([rng.randint(1, 9) for _ in g.complement_indices])
        for label, carrier in g.carrier_slices.items():
            if carrier:
                gamma = from_label(2, label)
                invariant = invariant_on(g, form, carrier)
                assert killing_metric_operator(g, form, gamma).commutes is invariant
                cases.append((n, part, form, gamma, invariant))
    assert sum(not inv for *_, inv in cases) > len(cases) // 2
    all_of_g_e(monkeypatch)
    for n, part, form, gamma, invariant in cases:
        op = killing_metric_operator(block_grading(n, part), form, gamma)
        assert op.commutes is invariant


def test_family_basis_structure_so5():
    """t_A1 is the A1 diagonal; u_A1 couples the two antidiagonal pairs."""
    fam = family(5, (2, 2, 1, 0))
    t_a1 = fam.basis[0]
    assert [t_a1.entry(i, i) for i in range(8)] == [1, 1, 1, 1, 0, 0, 0, 0]
    assert all(t_a1.entry(i, j) == 0 for i in range(8) for j in range(8) if i != j)
    u_a1 = fam.basis[1]
    assert all(u_a1.entry(i, i) == 0 for i in range(8))
    assert abs(u_a1.entry(1, 2)) == 1
    assert u_a1.entry(0, 3) == -u_a1.entry(1, 2)
    support = {(i, j) for i in range(8) for j in range(i, 8) if u_a1.entry(i, j)}
    assert support == {(0, 3), (1, 2)}


def test_family_members_are_invariant():
    rng = random.Random(4)
    g = block_grading(5, (2, 2, 1, 0))
    fam = invariant_family(g)
    alg = g.algebra
    carrier = fam.carrier
    local = {k: t for t, k in enumerate(carrier)}
    for _ in range(5):
        vals = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(fam.dimension)]
        b = evaluate_family(fam, vals)
        for z in g.fixed_indices:
            for x in range(len(carrier)):
                for y in range(x, len(carrier)):
                    total = F(0)
                    for r, c in bracket_basis(alg, z, carrier[x]):
                        total += c * b.entry(local[r], y)
                    for r, c in bracket_basis(alg, z, carrier[y]):
                        total += c * b.entry(x, local[r])
                    assert total == 0


def test_family_matches_dense_nullspace_route():
    """Independent dense construction of the invariance system, same span."""
    for n, part in [(5, (2, 2, 1, 0)), (5, (2, 1, 1, 1)), (7, (2, 2, 2, 1))]:
        g = block_grading(n, part)
        fam = invariant_family(g)
        alg = g.algebra
        comps = [g.component(from_label(2, lbl)) for lbl in "abc"]
        unknowns = []
        for comp in comps:
            for a in range(comp.dim):
                for b in range(a, comp.dim):
                    unknowns.append((comp.label, a, b))
        col = {u: i for i, u in enumerate(unknowns)}
        rows = []
        for comp in comps:
            local = {k: t for t, k in enumerate(comp.indices)}
            for z in g.fixed_indices:
                for a in range(comp.dim):
                    for b in range(a, comp.dim):
                        row = [F(0)] * len(unknowns)
                        for r, c in bracket_basis(alg, z, comp.indices[a]):
                            x, y = sorted((local[r], b))
                            row[col[(comp.label, x, y)]] += c
                        for r, c in bracket_basis(alg, z, comp.indices[b]):
                            x, y = sorted((a, local[r]))
                            row[col[(comp.label, x, y)]] += c
                        if any(row):
                            rows.append(row)
        sols = nullspace(rows)
        assert len(sols) == fam.dimension
        # same span: flatten family forms into unknown coordinates
        flat = []
        start = {}
        off = 0
        for comp in comps:
            start[comp.label] = off
            off += comp.dim
        for f in fam.basis:
            vec = [F(0)] * len(unknowns)
            for lbl, a, b in unknowns:
                vec[col[(lbl, a, b)]] = f.entry(start[lbl] + a, start[lbl] + b)
            flat.append(vec)
        assert row_space_basis(flat) == row_space_basis(sols)


def test_evaluate_family():
    fam = family(5, (1, 1, 3, 0))
    zero = evaluate_family(fam, [0, 0, 0])
    assert zero.rows() == SymmetricForm(7, ()).rows()
    m = evaluate_family(fam, [-1, 1, 1])
    assert [m.entry(i, i) for i in range(7)] == [-1, 1, 1, 1, 1, 1, 1]
    with pytest.raises(ValueError):
        evaluate_family(fam, [1, 2])


def test_prebuilt_nonzero_entries_match_a_scan():
    """Forms built with their nonzero list list what a scan of the Gram matrix finds."""
    rng = random.Random(9)
    built = [SymmetricForm.identity(4), SymmetricForm(3, ()), SymmetricForm.diagonal([2, 0, "-1/2"])]
    for n, part in [(5, (2, 2, 1, 0)), (5, (1, 1, 3, 0)), (7, (2, 2, 2, 1)), (8, (2, 2, 2, 2))]:
        fam = family(n, part)
        built += fam.basis + naturally_reductive_subfamily(fam).basis
        for _ in range(3):
            vals = [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(fam.dimension)]
            built.append(evaluate_family(fam, vals))
    for form in built:
        assert form.nonzero_entries == SymmetricForm.from_rows(form.rows()).nonzero_entries


def test_inertia_invariant_under_component_permutation():
    rng = random.Random(12)
    fam = family(5, (2, 2, 1, 0))
    vals = [F(rng.randint(-3, 3)) for _ in range(fam.dimension)]
    form = evaluate_family(fam, vals)
    base = congruence_signature(form)
    # permute within components: a occupies 0..3, b 4..5, c 6..7
    for _ in range(6):
        perm = rng.sample(range(4), 4) + rng.sample([4, 5], 2) + rng.sample([6, 7], 2)
        assert congruence_signature(form.restrict(perm)) == base


# -- natural reductivity ---------------------------------------------------


def test_nat_reductive_so5_two_two_one():
    fam = family(5, (2, 2, 1, 0))
    nr = naturally_reductive_subfamily(fam)
    assert nr.dimension == 1
    assert nr.parent is fam
    assert nr.parent_coords == [[F(1), F(0), F(1), F(1)]]


def test_nat_reductive_identity_direction_cases():
    # every t equal, every u zero
    for n, part in [(5, (2, 1, 1, 1)), (7, (2, 2, 2, 1)), (13, (3, 3, 3, 4))]:
        fam = family(n, part)
        nr = naturally_reductive_subfamily(fam)
        assert nr.dimension == 1
        coords = nr.parent_coords[0]
        for name, c in zip(fam.names, coords):
            assert c == (1 if name.startswith("t_") else 0)


def test_nat_reductive_members_are_adapted():
    g = block_grading(5, (2, 2, 1, 0))
    nr = naturally_reductive_subfamily(invariant_family(g))
    for f in nr.basis:
        assert is_adapted(f, g)
    # and refining again changes nothing
    again = naturally_reductive_subfamily(nr)
    assert again.dimension == nr.dimension


def test_nat_reductive_refuses_a_parentless_family_that_is_not_the_invariant_one():
    """The closed form holds for the invariant family's own basis: a
    parentless family with one basis form doubled, or with two forms
    swapped, is refused, also once the family's parts are stored on the
    grading; a refined family, whose parent is set, is taken whole, even
    with a basis form doubled.  A caller's edits of a returned family's
    lists reach neither the stored parts nor the next call."""
    refused = "the closed-form refinement needs the invariant family of its grading"
    g = block_grading(5, (2, 2, 1, 0))
    fam = invariant_family(g)
    assert "_invariant_family" in g.__dict__
    fresh = family(5, (2, 2, 1, 0))  # built on a new grading
    doubled = [linear_combination(len(fam.carrier), [2], [fam.basis[0]]), *fam.basis[1:]]
    swapped = [fam.basis[1], fam.basis[0], *fam.basis[2:]]
    for basis in (doubled, swapped):
        with pytest.raises(ValueError, match=refused):
            naturally_reductive_subfamily(fam._replace(basis=basis))
    nr = naturally_reductive_subfamily(fam)
    assert nr == naturally_reductive_subfamily(invariant_family(g))._replace(parent=fam)
    for refined in (nr, nr._replace(basis=[linear_combination(len(nr.carrier), [2], nr.basis)])):
        again = naturally_reductive_subfamily(refined)
        assert again.parent is refined
        assert again.basis == refined.basis
    fam.names.append("t_X")
    fam.supports[0] = "a:offdiag:A1"
    fam.basis[:2] = swapped[:2]
    with pytest.raises(ValueError, match=refused):
        naturally_reductive_subfamily(fam)
    for _ in range(2):
        again = invariant_family(g)
        assert again.grading is g and again[1:] == fresh[1:]
        assert again.names is not fam.names and again.basis is not fam.basis
        assert naturally_reductive_subfamily(again).basis == naturally_reductive_subfamily(fresh).basis
        again.basis.append(doubled[0])
        again.names.clear()
        again.supports.pop()


def test_is_adapted_cases():
    g = block_grading(5, (2, 2, 1, 0))
    fam = invariant_family(g)
    assert is_adapted(SymmetricForm.identity(8), g)
    assert not is_adapted(evaluate_family(fam, [1, 1, 1, 1]), g)   # u != 0
    assert not is_adapted(evaluate_family(fam, [1, 0, 2, 1]), g)   # t != v
    assert not is_adapted(SymmetricForm.diagonal([1] * 7 + [2]), g)  # one entry differs
    with pytest.raises(ValueError):
        is_adapted(SymmetricForm.identity(5), g)
    # c I for c in {1, -1, 3/7}, and the zero form, are adapted on every
    # ordered partition with 3 <= n <= 8, as the general check on their rows
    # and the Ambrose-Singer verdict agree; a diagonal form with one entry
    # changed, at its first or last index, is refused wherever the general
    # check refuses it
    cases = [(n, p) for n in range(3, 9) for p in product(range(n + 1), repeat=4) if sum(p) == n]
    assert len(cases) == 480
    refused = 0
    for n, p in cases:
        g = block_grading(n, p)
        mm, _, _ = g.split
        d = len(g.complement_indices)
        for c in (1, -1, F(3, 7), 0):
            form = SymmetricForm.diagonal([c] * d)
            assert metrics._noncommuting_entry(mm, form.sparse_rows) is None
            assert is_adapted(form, g) and ambrose_singer_check(g, form).totally_skew, (p, c)
        for k in {0, d - 1} if d else ():
            form = SymmetricForm.diagonal([2 if i == k else 1 for i in range(d)])
            general = metrics._noncommuting_entry(mm, form.sparse_rows) is None
            assert is_adapted(form, g) == ambrose_singer_check(g, form).totally_skew == general, (p, k)
            refused += not general
    assert refused > 0


# -- signature scans -------------------------------------------------------


def test_lorentzian_search_found():
    rep = lorentzian_search(family(5, (1, 1, 3, 0)))
    assert rep is not None
    assert rep.lorentzian
    assert rep.parameter_values == [F(-1), F(1), F(1)]
    assert rep.inertia == (6, 1, 0)


def test_lorentzian_search_single_negative_block():
    rep = lorentzian_search(family(5, (2, 1, 1, 1)))
    assert rep is not None
    assert rep.assignment()["t_A2"] == -1
    assert sum(1 for v in rep.parameter_values if v == -1) == 1
    assert rep.inertia == (8, 1, 0)


def test_lorentzian_search_none_and_even_negatives():
    fam = family(5, (2, 2, 1, 0))
    assert lorentzian_search(fam) is None
    negs = {rep.inertia[1] for rep in signature_scan(fam)}
    assert negs and all(n % 2 == 0 for n in negs)


def test_signature_scan_order():
    # first scanned vector is all -1, last is all +1
    fam = family(5, (1, 1, 3, 0))
    reports = list(signature_scan(fam))
    assert len(reports) == 8
    assert reports[0].parameter_values == [F(-1)] * 3
    assert reports[-1].parameter_values == [F(1)] * 3


def scan_by_gram_matrices(fam):
    """The scan as one full member and one signature per sign vector:
    (names, values, inertia, lorentzian) for each report, in scan order."""
    diag = fam.diagonal_parameters()
    m_dim = len(fam.carrier)
    for signs in product((F(-1), F(1)), repeat=len(diag)):
        values = [F(0)] * fam.dimension
        for pos, s in zip(diag, signs):
            values[pos] = s
        inertia = congruence_signature(evaluate_family(fam, values))
        yield fam.names, values, inertia, inertia == (m_dim - 1, 1, 0)


def scan_reports(fam):
    """A full scan's reports as tuples, and how many times it had called
    ``congruence_signature`` when it yielded each report."""
    calls = 0
    real = metrics.congruence_signature

    def counted(form):
        nonlocal calls
        calls += 1
        return real(form)

    reports, counts = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "congruence_signature", counted)
        for rep in signature_scan(fam):
            reports.append((rep.parameter_names, rep.parameter_values, rep.inertia, rep.lorentzian))
            counts.append(calls)
    return reports, counts


def test_signature_scan_matches_gram_matrix_route():
    """Inertia added over the diagonal forms equals one signature of the
    full member per sign vector, report by report, for the invariant and
    the refined family of every ordered partition with 3 <= n <= 8.  The
    diagonal forms of these families have disjoint supports, so the scan
    computes one inertia per form with nonzero entries, and negates it
    where the form's sign is -1."""
    for n, part in ordered_partitions(3, 8):
        fam = family(n, part)
        for f in (fam, naturally_reductive_subfamily(fam)):
            reports, counts = scan_reports(f)
            assert reports == list(scan_by_gram_matrices(f)), (n, part)
            diag = [f.basis[k] for k in f.diagonal_parameters()]
            assert counts[-1] == sum(1 for form in diag if form.nonzero_entries), (n, part)


DIAG, OFF = "a:diag:A1", "a:offdiag:A1"


def hand_family(dim, forms, supports):
    """A family on one component of so(3) (1,1,1,0), with the given forms on
    a carrier of ``dim`` indices, named p0, p1, ..."""
    return FormFamily(
        block_grading(3, (1, 1, 1, 0)),
        tuple(range(dim)),
        [f"p{k}" for k in range(len(forms))],
        supports,
        forms,
    )


@st.composite
def coupled_families(draw):
    """Hand-built families on one component.  The diagonal-supported forms
    may share indices, cancel on shared cells, be a zero-diagonal
    hyperbolic pair and leave indices untouched; off-diagonal-supported
    forms sit beside them and must be held at 0."""
    dim = draw(st.integers(2, 7))
    index = st.integers(0, dim - 1)
    value = st.sampled_from([F(-2), F(-1), F(1), F(1, 2), F(3)])
    forms, supports = [], []
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(index), draw(index)
        cells = {(min(i, j), max(i, j)): draw(value)}  # alone, i != j is a hyperbolic pair
        for a, b in draw(st.lists(st.tuples(index, index), max_size=3)):
            cells[min(a, b), max(a, b)] = draw(value)
        if forms and draw(st.booleans()):  # cancel an earlier form on a shared cell
            a, b, v = draw(st.sampled_from(forms[-1].nonzero_entries))
            cells[a, b] = -v
        forms.append(SymmetricForm(dim, tuple(sorted((a, b, v) for (a, b), v in cells.items()))))
        supports.append(DIAG if draw(st.booleans()) else OFF)
    return hand_family(dim, forms, supports)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(coupled_families())
@example(  # disjoint: a hyperbolic pair, a 2 x 2 block, an empty form, index 4 untouched
    hand_family(
        5,
        [
            SymmetricForm(5, ((0, 1, F(1)),)),
            SymmetricForm(5, ((0, 4, F(3)),)),
            SymmetricForm(5, ((2, 2, F(3)), (2, 3, F(1, 2)), (3, 3, F(-1)))),
            SymmetricForm(5, ()),
        ],
        [DIAG, OFF, DIAG, DIAG],
    )
)
@example(  # p0 and p2 share index 1; p1 is off-diagonal and may touch both
    hand_family(
        3,
        [
            SymmetricForm(3, ((0, 0, F(1)), (0, 1, F(1)))),
            SymmetricForm(3, ((1, 2, F(-2)),)),
            SymmetricForm(3, ((1, 1, F(-1)),)),
        ],
        [DIAG, OFF, DIAG],
    )
)
def test_signature_scan_coupled_groups_match_gram_matrix_route(fam):
    """When the diagonal-supported forms touch pairwise disjoint indices,
    the scan equals the Gram-matrix route report by report, and takes one
    inertia per form with nonzero entries, all before the first report.
    Otherwise its first step raises, naming two diagonal-supported
    parameters that share the index it names."""
    diag = fam.diagonal_parameters()
    supports = {
        fam.names[k]: {i for e in fam.basis[k].nonzero_entries for i in e[:2]} for k in diag
    }
    if sum(map(len, supports.values())) == len(set().union(*supports.values())):
        reports, counts = scan_reports(fam)
        assert reports == list(scan_by_gram_matrices(fam))
        assert counts[0] == counts[-1] == sum(1 for s in supports.values() if s)
        return
    with pytest.raises(ValueError, match="share index") as err:
        next(signature_scan(fam))
    a, b, i = re.fullmatch(
        r"diagonal-supported parameters (\w+) and (\w+) share index (\d+)", str(err.value)
    ).groups()
    assert a != b and int(i) in supports[a] & supports[b]


# -- Killing comparison operator -------------------------------------------


def binomial_poly(root, mult):
    """(x - root)^mult as monic coefficients, exactly."""
    coeffs = [F(1)]
    for _ in range(mult):
        nxt = [F(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 1] -= c * root
        coeffs = nxt
    return coeffs


def poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_beta_identity_metric_so5():
    g = block_grading(5, (2, 2, 1, 0))
    fam = invariant_family(g)
    b = evaluate_family(fam, [1, 0, 1, 1])
    op = killing_metric_operator(g, b, from_label(2, "a"))
    assert op.commutes
    assert op.matrix == [[F(-6) if i == j else F(0) for j in range(4)] for i in range(4)]
    assert op.char_poly == binomial_poly(F(-6), 4)
    op_b = killing_metric_operator(g, b, from_label(2, "b"))
    assert op_b.char_poly == binomial_poly(F(-6), 2)


def test_beta_two_eigenvalues_so13():
    g = block_grading(13, (3, 3, 3, 4))
    fam = invariant_family(g)
    vals = [F(0)] * fam.dimension
    vals[fam.names.index("t_A1")] = F(1)
    vals[fam.names.index("t_A2")] = F(2)
    b = evaluate_family(fam, vals)
    op = killing_metric_operator(g, b, from_label(2, "a"))
    assert op.commutes
    diag = [op.matrix[i][i] for i in range(len(op.matrix))]
    assert sorted(diag).count(F(-22)) == 9
    assert sorted(diag).count(F(-11)) == 12
    expected = poly_mul(binomial_poly(F(-22), 9), binomial_poly(F(-11), 12))
    assert op.char_poly == expected


def test_beta_rejects_degenerate_and_identity_component():
    g = block_grading(5, (2, 2, 1, 0))
    fam = invariant_family(g)
    degenerate = evaluate_family(fam, [0, 0, 1, 1])
    with pytest.raises(ValueError):
        killing_metric_operator(g, degenerate, from_label(2, "a"))
    with pytest.raises(ValueError):
        killing_metric_operator(g, SymmetricForm.identity(8), identity(2))
    with pytest.raises(ValueError, match=r"^group element of rank 3 in rank-2 grading$"):
        killing_metric_operator(g, SymmetricForm.identity(8), GroupElement(3, 1))


def test_beta_rejects_a_form_of_the_wrong_dimension():
    """dim m = 8 on so(5) (2,2,1,0): a form on 20 or 3 coordinates is
    named as the wrong size, as ``is_adapted`` names it, not solved on
    the leading coordinates or called degenerate."""
    g = block_grading(5, (2, 2, 1, 0))
    a = from_label(2, "a")
    for dim in (20, 3):
        with pytest.raises(ValueError, match="form dimension does not match the complement"):
            killing_metric_operator(g, SymmetricForm.identity(dim), a)


def beta_outcome(route, g, form, gamma):
    """(matrix, char_poly, commutes, witness) of ``route``, or the text it raises."""
    try:
        op = route(g, form, gamma)
    except ValueError as exc:
        return str(exc)
    return op.matrix, op.char_poly, op.commutes, op.witness


def random_symmetric(rng, dim):
    rows = [[F(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            rows[i][j] = rows[j][i] = F(rng.randint(-2, 2), rng.randint(1, 3))
    return SymmetricForm.from_rows(rows)


def test_beta_blocks_match_the_dense_route():
    """beta solved block by block over the support of B equals the dense
    route on the whole component (``oracles.dense_killing_metric_operator``):
    matrix, characteristic polynomial, commutation verdict, witness and
    error text.

    Every ordered partition with 3 <= n <= 7 (among them (1,1,1,1)) and
    (2,2,2,2), (3,3,3,4), at random rational family members, some of them
    degenerate; for n <= 6 also at random diagonal and random dense
    symmetric forms, which are mostly not invariant; except on (2,2,2,2),
    at diagonal forms with entries in {-1, 0, 1, 2}, whose 1 x 1 blocks
    take few values, a degenerate one when it is 0; and at two
    nondegenerate diagonal forms with entries in {-2, -1, 1, 2}, where
    beta is diagonal and its commutation is read off labels: a random one,
    which mostly fails to commute, and a member, every u at 0, which
    commutes.  Also at a form diagonal on each component, entries in
    {-2, -1, 1, 2}, plus entries that join each nonzero component to the
    next: beta on a component must drop them, as the dense route's
    ``restrict`` does, and its blocks stay 1 x 1.  Equal larger blocks:
    on (2,2,2,2) the member with t_A1 = t_A2 and u_A1 = u_A2, whose
    component a has two pairs of equal 2 x 2 blocks, and the one with u_A1
    = 0, whose V_A1 cells are 1 x 1 beside V_A2's 2 x 2 blocks; on
    (3,3,3,4) the identity with one dense 3 x 3 block written twice on
    component a, at interleaved positions {0, 2, 4} and {1, 3, 5}.
    """
    rng, signs, joins = random.Random(14), random.Random(34), random.Random(35)
    seen, diagonal = Counter(), Counter()
    for n, part in ordered_partitions(3, 7) + [(8, (2, 2, 2, 2)), (13, (3, 3, 3, 4))]:
        g = block_grading(n, part)
        fam = invariant_family(g)
        dim = len(g.complement_indices)
        forms = [
            evaluate_family(fam, [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in fam.names])
            for _ in range(2)
        ]
        if n <= 6:
            forms.append(SymmetricForm.diagonal([rng.randint(-2, 2) for _ in range(dim)]))
            forms.append(random_symmetric(rng, dim))
        if part != (2, 2, 2, 2):
            forms.append(SymmetricForm.diagonal([rng.choice((-1, 0, 1, 2)) for _ in range(dim)]))
        rest = [F(k + 2, 3) for k in range(4, fam.dimension)]
        if part == (2, 2, 2, 2):
            forms.append(evaluate_family(fam, [F(3), F(1, 2)] * 2 + rest))
            forms.append(evaluate_family(fam, [F(3), F(0), F(2), F(1, 2)] + rest))
        if part == (3, 3, 3, 4):
            a0 = g.carrier_slices["a"].start
            dense = [[F(2), F(1, 2), F(-1)], [F(1, 2), F(3), F(1, 3)], [F(-1), F(1, 3), F(1)]]
            upper = {(x, x): F(1) for x in range(dim)}
            for blk in ((0, 2, 4), (1, 3, 5)):
                for p, i in enumerate(blk):
                    for q, j in enumerate(blk[p:], p):
                        upper[a0 + i, a0 + j] = dense[p][q]
            forms.append(SymmetricForm(dim, tuple(sorted((i, j, v) for (i, j), v in upper.items()))))
        cells = {(x, x): joins.choice((-2, -1, 1, 2)) for x in range(dim)}
        comps = [c for c in g.carrier_slices.values() if c]
        for c, nxt in zip(comps, comps[1:]):
            cells[c[0], nxt[-1]] = cells[c[-1], nxt[0]] = joins.choice((-2, -1, 1, 2))
        forms.append(SymmetricForm(dim, tuple(sorted((i, j, F(v)) for (i, j), v in cells.items()))))
        diag = fam.diagonal_parameters()
        forms.append(SymmetricForm.diagonal([signs.choice((-2, -1, 1, 2)) for _ in range(dim)]))
        member = [signs.choice((-2, -1, 1, 2)) if k in diag else 0 for k in range(fam.dimension)]
        forms.append(evaluate_family(fam, member))
        for k, form in enumerate(forms):
            for gamma in enumerate_group(2):
                got = beta_outcome(killing_metric_operator, g, form, gamma)
                assert got == beta_outcome(dense_killing_metric_operator, g, form, gamma), (part, gamma.label)
                key = got.split(" on ")[0] if isinstance(got, str) else got[2]
                seen[key] += 1
                if k >= len(forms) - 2:
                    diagonal[key] += 1
    assert seen[True] and seen[False] and seen["form is degenerate"]
    assert diagonal[True] and diagonal[False] and not diagonal["form is degenerate"]


def count_calls(monkeypatch, g, form, gamma, names=("solve_matrix", "char_poly")):
    """Calls of each of ``names``, functions that ``metrics`` looks up by
    name, by one beta."""
    calls = Counter()

    def spy(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    for name in names:
        monkeypatch.setattr(metrics, name, spy(name, getattr(metrics, name)))
    killing_metric_operator(g, form, gamma)
    monkeypatch.undo()
    return tuple(calls[name] for name in names)


def test_beta_solves_each_distinct_block_once(monkeypatch):
    """A 1 x 1 block is read off, with no solve and no char_poly; each
    larger block is solved once and gets one char_poly, equal blocks too.

    On component a of (3,3,3,4) a member is t_A1 on 9 cells and t_A2 on 12:
    21 blocks, all 1 x 1.  So is every block of a diagonal form.  On
    (2,2,2,2), V_A1 and V_A2 each split into the 2 x 2 blocks
    [[t, -u], [-u, t]] and [[t, u], [u, t]]: 4 blocks, all solved, also
    when t_A1 = t_A2 and u_A1 = u_A2 makes them 2 distinct ones; with u_A1
    = 0 the four cells of V_A1 are 1 x 1 blocks, and only V_A2's 2 blocks
    are solved."""
    a = from_label(2, "a")
    g = block_grading(13, (3, 3, 3, 4))
    fam = invariant_family(g)
    member = evaluate_family(fam, [F(k + 2, 3) for k in range(fam.dimension)])
    assert count_calls(monkeypatch, g, member, a) == (0, 0)
    g = block_grading(8, (2, 2, 2, 2))
    fam = invariant_family(g)
    assert fam.names[:4] == ["t_A1", "u_A1", "t_A2", "u_A2"]
    distinct = evaluate_family(fam, [F(k + 2, 3) for k in range(fam.dimension)])
    assert count_calls(monkeypatch, g, distinct, a) == (4, 4)
    paired = evaluate_family(fam, [F(3), F(1, 2)] * 2 + [F(k + 2, 3) for k in range(4, fam.dimension)])
    assert count_calls(monkeypatch, g, paired, a) == (4, 4)
    half = evaluate_family(fam, [F(3), F(0), F(2), F(1, 2)] + [F(k + 2, 3) for k in range(4, fam.dimension)])
    assert count_calls(monkeypatch, g, half, a) == (2, 2)
    g = block_grading(7, (2, 2, 2, 1))
    diagonal = SymmetricForm.diagonal(range(1, len(g.complement_indices) + 1))
    assert count_calls(monkeypatch, g, diagonal, a) == (0, 0)


def test_beta_on_a_diagonal_b_never_walks_the_rows(monkeypatch):
    """With every block 1 x 1, as on each component of a (3,3,3,4) member,
    beta's commutation is read off labels by ``_first_mismatch``, once, and
    ``_noncommuting_entry`` is never called; a (2,2,2,2) member with every
    u nonzero has 2 x 2 blocks on every component and takes the row walk."""
    names = ("_noncommuting_entry", "_first_mismatch")
    rng = random.Random(34)
    for n, part, walks in [(13, (3, 3, 3, 4), False), (8, (2, 2, 2, 2), True)]:
        g = block_grading(n, part)
        fam = invariant_family(g)
        for _ in range(3):
            member = evaluate_family(fam, [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in fam.names])
            for gamma in enumerate_group(2)[1:]:
                walked, labelled = count_calls(monkeypatch, g, member, gamma, names)
                assert (walked > 0, labelled) == ((True, 0) if walks else (False, 1)), (part, gamma.label)


def test_the_diagonal_paths_never_build_the_row_view():
    """``SymmetricForm.sparse_rows`` is built on demand and cached on the
    form.  A diagonal form never needs it: beta on every component of a
    (3,3,3,4) member, its inertia, the signature scan of the family and the
    checks of the identity on (2,2,2,2) all leave it unbuilt, while a
    (2,2,2,2) member with every u nonzero builds it for ``is_adapted``."""
    rng = random.Random(38)
    g = block_grading(13, (3, 3, 3, 4))
    fam = invariant_family(g)
    member = evaluate_family(fam, [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in fam.names])
    for gamma in enumerate_group(2)[1:]:
        killing_metric_operator(g, member, gamma)
    congruence_signature(member)
    lorentzian_search(fam)
    assert all("sparse_rows" not in f.__dict__ for f in [member, *fam.basis])
    g = block_grading(8, (2, 2, 2, 2))
    fam = invariant_family(g)
    identity = SymmetricForm.identity(len(g.complement_indices))
    assert is_adapted(identity, g) and ambrose_singer_check(g, identity).totally_skew
    lorentzian_search(fam)
    assert all("sparse_rows" not in f.__dict__ for f in [identity, *fam.basis])
    member = evaluate_family(fam, [F(k + 2, 3) for k in range(fam.dimension)])
    assert not is_adapted(member, g)
    assert "sparse_rows" in member.__dict__


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.fractions(-9, 9, max_denominator=9), min_size=1, max_size=3),
            st.integers(0, 5),
        ),
        max_size=4,
    )
)
@example([])
@example([([F(-1, 2), F(3, 4)], 1)])
@example([([F(5, 7)], 0), ([F(-1, 2), F(3, 4)], 0)])
@example([([F(-1, 2), F(3, 4)], 4), ([F(2, 3), F(-5, 6)], 3), ([F(0), F(-4)], 2)])
@example([([F(22, 7)], 9), ([F(11, 4)], 12)])  # beta's shape at (3,3,3,4): negative roots
@example([([F(0)], 5), ([F(-3, 2)], 2)])  # x ** 5, a zero root: five zero trailing coefficients
@example([([F(1)], 40)])  # every coefficient positive, the central binomial largest
@example([([F(-1)], 40)])  # alternating signs
@example([([F(-3, 5)], 3)])  # |a|_1 = |(5, -3)|_1 = 8, a power of two
@example([([F(-6)], 1)])  # |a|_1 = 7, w = 4: the digit -6 needs all four bits
@example([([F(2, 3), F(-1, 5), F(7, 4)], 0)])  # a lone k = 0 factor
@example([([F(-1, 2), F(3, 4), F(-5, 6)], 7)])  # a cubic to the 7th
@example([([F(5, 9)], 3), ([F(-1, 2), F(3, 4)], 2), ([F(2)], 1)])  # linear and quadratic
def test_poly_product_with_multiplicities_is_the_plain_product(factors):
    """prod p ** k equals the product of k copies of each monic p in Fractions.

    The examples sit at the edges of the packing width: large positive,
    alternating, zero and top-of-digit coefficients, and empty products."""
    want = [F(1)]
    for tail, k in factors:
        for _ in range(k):
            want = poly_mul(want, [F(1)] + tail)
    assert _poly_product([([F(1)] + tail, k) for tail, k in factors]) == want


@st.composite
def family_members(draw):
    """A block grading with 3 <= n <= 9 and a random rational member of
    its family, every parameter nonzero."""
    n = draw(st.integers(3, 9))
    r0 = draw(st.integers(0, n))
    r1 = draw(st.integers(0, n - r0))
    r2 = draw(st.integers(0, n - r0 - r1))
    g = block_grading(n, (r0, r1, r2, n - r0 - r1 - r2))
    fam = invariant_family(g)
    value = st.fractions(-9, 9, max_denominator=9).filter(bool)
    return g, evaluate_family(fam, draw(st.lists(value, min_size=fam.dimension, max_size=fam.dimension)))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(family_members())
def test_beta_solves_b_beta_equals_k_on_family_members(member):
    """On every non-identity component where the member is nondegenerate,
    B beta = K exactly, char_poly[1] = -trace beta, and beta commutes
    with ad(g_e)."""
    g, form = member
    for gamma in enumerate_group(2)[1:]:
        comp = g.component(gamma)
        if comp.dim == 0:
            continue
        try:
            op = killing_metric_operator(g, form, gamma)
        except ValueError as exc:
            assert str(exc) == f"form is degenerate on component {gamma.label}"
            continue
        b_rows = form.restrict(g.carrier_slices[gamma.label]).rows()
        assert mat_mul(b_rows, op.matrix) == g.algebra.killing_form().restrict(comp.indices).rows()
        assert op.char_poly[1] == -sum(op.matrix[i][i] for i in range(len(op.matrix)))
        assert op.commutes


def test_components_killing_orthogonal():
    for n, part in [(5, (2, 2, 1, 0)), (5, (1, 1, 3, 0)), (7, (2, 2, 2, 1))]:
        g = block_grading(n, part)
        k = g.algebra.killing_form()
        comps = g.components()
        for a in range(len(comps)):
            for b in range(a + 1, len(comps)):
                for p in comps[a].indices:
                    for q in comps[b].indices:
                        assert k.entry(p, q) == 0
