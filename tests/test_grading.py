from fractions import Fraction
from itertools import product

import pytest

from gammasym.grading import ComponentView, Grading, block_grading, holonomy_span, verify_grading
from gammasym.groups import GroupElement, enumerate_group, from_label, identity
from gammasym.liealg import LieAlgebra, build_so
from oracles import bracket_basis, row_space_basis

F = Fraction


def comp_dims(g):
    return {c.label: c.dim for c in g.components()}


def test_component_dims_block_cases():
    assert comp_dims(block_grading(5, (2, 2, 1, 0))) == {"e": 2, "a": 4, "b": 2, "c": 2}
    assert comp_dims(block_grading(5, (2, 1, 1, 1))) == {"e": 1, "a": 3, "b": 3, "c": 3}
    assert comp_dims(block_grading(5, (1, 1, 3, 0))) == {"e": 3, "a": 1, "b": 3, "c": 3}
    assert comp_dims(block_grading(7, (2, 2, 2, 1))) == {"e": 3, "a": 6, "b": 6, "c": 6}
    assert comp_dims(block_grading(13, (3, 3, 3, 4))) == {"e": 15, "a": 21, "b": 21, "c": 21}


def test_components_partition_the_basis():
    g = block_grading(7, (2, 2, 2, 1))
    seen = []
    for c in g.components():
        seen.extend(c.indices)
    assert sorted(seen) == list(range(g.algebra.dim))


NOT_INTEGER_PARTS = [(2.5, 2, 1, 0), (2.0, 2, 1, 0), ("2", 2, 1, 0), (True, 2, 2, 0)]


def test_partition_validation():
    with pytest.raises(ValueError):
        block_grading(5, (2, 2, 2, 0))
    with pytest.raises(ValueError):
        block_grading(5, (2, 2, 1))
    with pytest.raises(ValueError):
        block_grading(5, (3, 3, -1, 0))
    with pytest.raises(ValueError, match=r"^algebra size does not match n$"):
        block_grading(5, (2, 2, 1, 0), algebra=build_so(6))
    # refused and named, not truncated or read as 0 or 1
    for part in NOT_INTEGER_PARTS:
        with pytest.raises(ValueError, match=r"^partition parts must be integers: \(") as err:
            block_grading(5, part)
        assert repr(part[0]) in str(err.value)


def test_partition_parts_are_stored_as_plain_ints():
    class Two:
        def __index__(self):
            return 2

    g = block_grading(5, (Two(), 2, 1, 0))
    assert g.partition == (2, 2, 1, 0)
    assert all(type(r) is int for r in g.partition)
    assert g.blocks == (0, 0, 1, 1, 2)


def test_verify_passes_on_block_gradings():
    for n, part in [(5, (2, 2, 1, 0)), (5, (1, 1, 3, 0)), (6, (3, 3, 0, 0)),
                    (7, (2, 2, 2, 1)), (13, (3, 3, 3, 4))]:
        assert verify_grading(block_grading(n, part)) is None


def test_degree_is_multiplicative_on_brackets():
    g = block_grading(6, (2, 2, 1, 1))
    alg = g.algebra
    for p in range(alg.dim):
        for q in range(p + 1, alg.dim):
            expected = g.assignment[p] * g.assignment[q]
            for k, _ in bracket_basis(alg, p, q):
                assert g.assignment[k] == expected


def test_corruption_yields_witness():
    """Flipping one structure constant into the wrong component is caught.

    Every single wrong-term corruption of a bracket is tried, and the
    witness must be the one a scan of all basis pairs finds first, although
    verify_grading reads only the structure constants.
    """
    alg = LieAlgebra(5)
    g = block_grading(5, (2, 2, 1, 0), algebra=alg)
    p = alg.pair_index[(0, 1)]    # E12, degree e
    q = alg.pair_index[(0, 2)]    # E13, degree a
    wrong = alg.pair_index[(0, 4)]  # E15, degree b
    assert verify_grading(g) is None
    table = dict(alg._table)
    alg._table[(p, q)] = ((wrong, F(-1)),)
    witness = verify_grading(g)
    assert witness is not None
    assert (witness.p, witness.q, witness.term) == (p, q, wrong)
    assert witness.expected == "a"
    assert witness.found == "b"
    alg._table[(p, q)] = table[(p, q)]

    def first_hit():
        for p in range(alg.dim):
            for q in range(p + 1, alg.dim):
                expected = g.assignment[p] * g.assignment[q]
                for k, _ in bracket_basis(alg, p, q):
                    if g.assignment[k] != expected:
                        return (p, q, k, expected.label, g.assignment[k].label)
        return None

    corrupted = set()
    for p in range(alg.dim):
        for q in range(p + 1, alg.dim):
            for wrong in range(alg.dim):
                if g.assignment[wrong] == g.assignment[p] * g.assignment[q]:
                    continue
                alg._table[(p, q)] = ((wrong, F(-1)),)
                w = verify_grading(g)
                assert w is not None
                assert (w.p, w.q, w.term, w.expected, w.found) == first_hit()
                if (p, q) in table:
                    alg._table[(p, q)] = table[(p, q)]
                else:
                    del alg._table[(p, q)]
                corrupted.add((p, q))
    assert len(corrupted) == alg.dim * (alg.dim - 1) // 2
    assert list(alg._table.items()) == list(table.items())
    assert verify_grading(g) is None


def test_component_accessor_and_errors():
    g = block_grading(5, (2, 2, 1, 0))
    a = g.component(from_label(2, "a"))
    assert a.dim == 4
    assert [g.algebra.basis_label(k) for k in a.indices] == ["E13", "E14", "E23", "E24"]
    with pytest.raises(ValueError):
        g.component(identity(3))


def point_mask_grading(n, masks, rank):
    """E_ij of degree masks[i] ^ masks[j]: a grading of so(n) over (Z_2)^rank,
    since [E_ij, E_jk] = E_ik and the masks of j cancel."""
    alg = build_so(n)
    return Grading(alg, rank, tuple(GroupElement(rank, masks[i] ^ masks[j]) for i, j in alg.pairs))


def test_component_by_mask_matches_element_equality():
    """``component`` reads one map of the degrees by bit mask, bucketed
    once per grading; on every element of the group that picks the same
    indices as a rescan of ``assignment`` by GroupElement equality, and
    fixed_indices, complement_indices and carrier_slices follow from those
    rescans.  Gradings: every ordered partition with 3 <= n <= 7 (some with
    empty components), a rank-3 grading where all eight elements occur, a
    rank-2 grading that is not a block grading, and a rank-3 grading whose
    g_e is empty."""
    gradings = [
        block_grading(n, part)
        for n in range(3, 8)
        for part in product(range(n + 1), repeat=4)
        if sum(part) == n
    ]
    assert len(gradings) == 315
    rank3 = point_mask_grading(8, range(8), 3)
    assert verify_grading(rank3) is None
    assert {g.bits for g in rank3.assignment} == set(range(1, 8))
    not_block = point_mask_grading(6, (0, 1, 2, 3, 1, 0), 2)
    assert not_block.blocks is None and verify_grading(not_block) is None
    no_fixed = point_mask_grading(4, (0, 1, 2, 4), 3)
    assert no_fixed.fixed_indices == ()
    for g in gradings + [rank3, not_block, no_fixed]:
        rescans = []
        for gamma in enumerate_group(g.rank):
            want = tuple(k for k, d in enumerate(g.assignment) if d == gamma)
            assert g.component(gamma) == ComponentView(gamma.label, want)
            rescans.append(want)
        assert g.fixed_indices == rescans[0]
        assert g.complement_indices == tuple(k for want in rescans[1:] for k in want)
        start, slices = 0, {}
        for gamma, want in zip(enumerate_group(g.rank)[1:], rescans[1:]):
            slices[gamma.label], start = range(start, start + len(want)), start + len(want)
        assert g.carrier_slices == slices
    with pytest.raises(ValueError, match="rank 2 in rank-3 grading"):
        rank3.component(identity(2))


def test_complement_ordering_is_component_contiguous():
    g = block_grading(5, (2, 1, 1, 1))
    labels = [g.assignment[k].label for k in g.complement_indices]
    assert labels == sorted(labels, key=["a", "b", "c"].index)
    # and fixed part is excluded
    assert set(g.complement_indices).isdisjoint(g.fixed_indices)


def test_subblock_names():
    g = block_grading(5, (2, 2, 1, 0))
    alg = g.algebra
    assert g.subblock(alg.pair_index[(0, 2)]) == "A1"   # E13
    assert g.subblock(alg.pair_index[(0, 4)]) == "B1"   # E15
    assert g.subblock(alg.pair_index[(2, 4)]) == "C2"   # E35
    assert g.subblock(alg.pair_index[(0, 1)]) is None   # E12 inside g_e


def test_blocks_is_the_block_of_each_point():
    """``blocks`` of ``block_grading(n, p)`` puts point i in block b when
    r_0 + ... + r_(b-1) <= i < r_0 + ... + r_b, on every ordered partition
    with 3 <= n <= 7."""
    cases = [(n, p) for n in range(3, 8) for p in product(range(n + 1), repeat=4) if sum(p) == n]
    assert len(cases) == 315
    for n, p in cases:
        bounds = [sum(p[: b + 1]) for b in range(4)]
        expected = [next(b for b in range(4) if i < bounds[b]) for i in range(n)]
        assert list(block_grading(n, p).blocks) == expected, p


def test_blocks_is_none_off_the_block_gradings():
    """A grading that is not ``block_grading`` of its own label has no
    blocks and names no sub-block: no label, the labels a and b swapped, a
    label that is not a partition of n or gives other degrees, and a
    rank-3 copy with the masks of a block grading."""
    g = block_grading(6, (2, 2, 1, 1))
    alg = g.algebra
    swap = {"a": from_label(2, "b"), "b": from_label(2, "a")}
    relabelled = tuple(swap.get(x.label, x) for x in g.assignment)
    others = [Grading(alg, 2, g.assignment), Grading(alg, 2, relabelled, g.partition)]
    for label in ((2, 2, 1, 0), (1, 1, 1, 1, 2), (3, -1, 2, 2), (2, 2, 2), (1, 2, 2, 1)):
        others.append(Grading(alg, 2, g.assignment, label))
    rank3 = tuple(GroupElement(3, x.bits) for x in g.assignment)
    others.append(Grading(alg, 3, rank3, g.partition))
    assert g.blocks == (0, 0, 1, 1, 2, 3)
    for other in others:
        assert verify_grading(other) is None
        assert other.blocks is None, other.partition
        assert [other.subblock(k) for k in range(alg.dim)] == [None] * alg.dim


def test_blocks_is_none_for_a_label_with_a_non_integer_part():
    """A label with a part that is not an int has no blocks, even where
    its value matches the degrees, as 2.0 does for (2, 2, 1, 0)."""
    g = block_grading(5, (2, 2, 1, 0))
    for label in NOT_INTEGER_PARTS:
        other = Grading(g.algebra, 2, g.assignment, label)
        assert other.blocks is None, label
        assert other.subblock(0) is None


# -- holonomy --------------------------------------------------------------


def test_holonomy_spans_fixed_part():
    expectations = {
        (5, (2, 2, 1, 0)): {"a": 2, "b": 1, "c": 1},
        (5, (2, 1, 1, 1)): {"a": 1, "b": 1, "c": 1},
        (7, (2, 2, 2, 1)): {"a": 3, "b": 3, "c": 3},
    }
    for (n, part), per in expectations.items():
        hs = holonomy_span(block_grading(n, part))
        assert {k: len(v) for k, v in hs.by_component.items()} == per
        assert hs.total_dim == len(hs.fixed_indices)


def test_holonomy_matches_row_space_route():
    """Unit vectors at the hit g_e positions equal the RREF span of the
    bracket vectors, per component and in total, on every ordered
    partition with 3 <= n <= 7."""
    cases = [
        (n, part)
        for n in range(3, 8)
        for part in product(range(n + 1), repeat=4)
        if sum(part) == n
    ]
    assert len(cases) == 315
    for n, part in cases:
        g = block_grading(n, part)
        _, me, _ = g.split
        per, pooled = {}, []
        for label, carrier in g.carrier_slices.items():
            vecs = []
            for a in carrier:
                for b, (t, c) in me[a].items():
                    if b > a:
                        v = [F(0)] * len(g.fixed_indices)
                        v[t] = c
                        vecs.append(v)
            per[label] = row_space_basis(vecs)
            pooled.extend(per[label])
        hs = holonomy_span(g)
        assert hs.by_component == per
        assert hs.total == row_space_basis(pooled)


def test_holonomy_abelian_toy():
    # so(3) with singleton blocks: g_e = 0 and every bracket leaves m
    hs = holonomy_span(block_grading(3, (1, 1, 1, 0)))
    assert hs.fixed_indices == ()
    assert hs.total == []
    assert hs.total_dim == len(hs.fixed_indices)


def test_grading_assignment_length_checked():
    alg = build_so(4)
    with pytest.raises(ValueError, match=r"^assignment length does not match algebra dimension$"):
        Grading(alg, 2, tuple(enumerate_group(2)[:3]))
    g = block_grading(4, (1, 1, 1, 1))
    with pytest.raises(AttributeError):
        g.rank = 3
    assert Grading(g.algebra, 2, g.assignment, partition=(1, 1, 1, 1)) == g == tuple(g)


def test_grading_assignment_ranks_checked():
    """Every degree must have the grading's rank; the first that does not
    is named by its index.  The XOR test of ``verify_grading`` is exact only
    on equal ranks."""
    g = block_grading(5, (2, 2, 1, 0))
    for k in (0, 4, g.algebra.dim - 1):
        for bad in (identity(3), from_label(1, "1")):
            mixed = g.assignment[:k] + (bad,) + g.assignment[k + 1 :]
            with pytest.raises(ValueError, match=f"assignment element {k} has rank {bad.rank}"):
                Grading(g.algebra, 2, mixed)
    first = tuple(identity(3) if k in (2, 6) else d for k, d in enumerate(g.assignment))
    with pytest.raises(ValueError, match="element 2 has rank 3, not the grading rank 2"):
        Grading(g.algebra, 2, first)
    with pytest.raises(ValueError, match="element 0 has rank 2"):
        Grading(g.algebra, 3, g.assignment)


def test_structure_constants_is_a_read_only_live_view():
    """verify_grading reads the table through this view on every call, so
    an edit of the table shows in the next verdict and nothing is copied."""
    alg = LieAlgebra(4)
    view = alg.structure_constants()
    with pytest.raises(TypeError):
        view[(0, 1)] = ()
    key = next(iter(view))
    saved = alg._table.pop(key)
    assert key not in view
    alg._table[key] = saved
    assert list(view.items()) == list(alg._table.items())
