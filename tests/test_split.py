"""Second routes for the restricted-bracket split cached on a grading.

The split is checked against a brute-force construction from
``bracket_basis`` and degree membership, and the natural-reductivity
verdicts and the refinement built on it are checked against an oracle
that uses only the dense bracket, the degrees and the Gram matrix of the
form.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from gammasym.geometry import ambrose_singer_check
from gammasym.grading import Grading, block_grading, holonomy_span
from gammasym.groups import enumerate_group
from gammasym.liealg import build_so
from gammasym.linalg import RowReducer, SymmetricForm
from gammasym.metrics import (
    FormFamily,
    _noncommuting_entry,
    evaluate_family,
    invariant_family,
    is_adapted,
    naturally_reductive_subfamily,
)
from oracles import (
    basis_vector,
    bracket,
    bracket_basis,
    nullspace_basis,
    rank,
    reductivity_rows,
    refinement_by_row_reduction,
)

F = Fraction


def compositions(n):
    return [p for p in product(range(n + 1), repeat=4) if sum(p) == n]


SMALL_PARTITIONS = st.integers(3, 6).flatmap(lambda n: st.sampled_from(compositions(n)))


def brute_split(g):
    alg = g.algebra
    fixed = [k for k in range(alg.dim) if g.assignment[k].is_identity()]
    carrier = sorted(
        (k for k in range(alg.dim) if not g.assignment[k].is_identity()),
        key=lambda k: (g.assignment[k].bits, k),
    )
    pos_m = {k: t for t, k in enumerate(carrier)}
    pos_e = {k: t for t, k in enumerate(fixed)}
    mm = [{} for _ in carrier]
    me = [{} for _ in carrier]
    em = [{} for _ in fixed]
    for x, p in enumerate(carrier):
        for y, q in enumerate(carrier):
            terms = bracket_basis(alg, p, q)
            in_m = [(pos_m[k], c) for k, c in terms if k in pos_m]
            in_e = [(pos_e[k], c) for k, c in terms if k in pos_e]
            if in_m:
                (mm[x][y],) = in_m  # a record holds one term; two fail here
            if in_e:
                (me[x][y],) = in_e
    for z, p in enumerate(fixed):
        for x, q in enumerate(carrier):
            terms = bracket_basis(alg, p, q)
            if terms:
                (em[z][x],) = [(pos_m[k], c) for k, c in terms]
    return tuple(fixed), tuple(carrier), (mm, me, em)


def test_split_matches_brute_force():
    count = 0
    for n in range(3, 8):
        for part in compositions(n):
            g = block_grading(n, part)
            fixed, carrier, split = brute_split(g)
            assert g.fixed_indices == fixed
            assert g.complement_indices == carrier
            assert g.split == split
            slices = {label: tuple(carrier[t] for t in sl) for label, sl in g.carrier_slices.items()}
            assert slices == {
                gamma.label: tuple(k for k in carrier if g.assignment[k] == gamma)
                for gamma in enumerate_group(2)[1:]
            }
            count += 1
    assert count == 315


def test_structure_constants_and_split_records_are_int_signs():
    """A structure constant of so(n) is the int 1 or -1, and a split record
    is the flat pair (local index, sign).  The table keeps each value a
    1-tuple ((k, s),), the terms of one bracket, because the benchmark's
    tracer counts ``liealg.table_terms`` as the summed length of the values,
    and a flat pair would double that count."""
    for n in range(3, 8):
        for terms in build_so(n).structure_constants().values():
            assert type(terms) is tuple
            ((k, s),) = terms
            assert type(k) is int and type(s) is int and s in (1, -1)
        for part in compositions(n):
            for partners in block_grading(n, part).split:
                for row in partners:
                    for record in row.values():
                        assert type(record) is tuple and len(record) == 2
                        l, s = record
                        assert type(l) is int and type(s) is int and s in (1, -1)


def test_split_needs_a_verified_grading():
    g = block_grading(5, (2, 2, 1, 0))
    # E12 moved from g_e into g_a: [E12, E13] no longer lands in g_e
    mangled = Grading(g.algebra, 2, (g.assignment[1],) + g.assignment[1:])
    with pytest.raises(ValueError, match="not a grading"):
        mangled.split
    with pytest.raises(ValueError, match="not a grading"):
        invariant_family(mangled)


def test_a_broken_assignment_is_refused_under_either_label():
    """Only a grading whose ``blocks`` is set skips the additivity check, so
    a broken assignment is still refused under its block label, where
    ``blocks`` is None, and with no label: by the split and by the two
    stages that read it."""
    g = block_grading(5, (2, 2, 1, 0))
    broken = (g.assignment[1],) + g.assignment[1:]
    for label in (g.partition, None):
        mangled = Grading(g.algebra, 2, broken, label)
        assert mangled.blocks is None
        b_m = SymmetricForm.identity(len(mangled.complement_indices))
        for stage in (lambda: mangled.split, lambda: is_adapted(b_m, mangled),
                      lambda: holonomy_span(mangled)):
            with pytest.raises(ValueError, match="not a grading"):
                stage()


def torsions(g):
    """T(E_x, E_y) = -[E_x, E_y]_m in complement coordinates, from the dense
    bracket read at the basis vectors of non-identity degree."""
    alg = g.algebra
    carrier = g.complement_indices
    basis = [basis_vector(alg, k) for k in carrier]
    t = [[[F(0)] * len(carrier) for _ in carrier] for _ in carrier]
    for x in range(len(carrier)):
        for y in range(x + 1, len(carrier)):
            v = bracket(alg, basis[x], basis[y])
            t[x][y] = [-v[k] for k in carrier]
            t[y][x] = [-c for c in t[x][y]]
    return t


def omega_table(torsion, form):
    """w[x][y][z] = B(T(E_x, E_y), E_z), contracted with the Gram matrix."""
    m = form.dim
    w = [[[F(0)] * m for _ in range(m)] for _ in range(m)]
    for x in range(m):
        for y in range(m):
            for l, c in enumerate(torsion[x][y]):
                if c:
                    for z in range(m):
                        w[x][y][z] += c * form.entry(l, z)
    return w


def torsion_oracle(torsion, form):
    """Whether (X, Y, Z) -> B(T(X, Y), Z) is alternating on the basis of m."""
    m = form.dim
    w = omega_table(torsion, form)
    # T makes omega antisymmetric in (X, Y); what remains is antisymmetry in
    # (Y, Z).  The sum below is symmetric in y and z, so z >= y covers it.
    return all(
        w[x][y][z] + w[x][z][y] == 0
        for x in range(m)
        for y in range(m)
        for z in range(y, m)
    )


def random_symmetric(rng, m):
    """A form with random entries anywhere: off-diagonal, across components."""
    rows = [[F(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            if rng.random() < 0.3:
                rows[i][j] = rows[j][i] = F(rng.randint(-4, 4), rng.randint(1, 3))
    return SymmetricForm.from_rows(rows)


def single_entry(m, i, j):
    rows = [[F(0)] * m for _ in range(m)]
    rows[i][j] = rows[j][i] = F(1)
    return SymmetricForm.from_rows(rows)


def test_adapted_verdicts_match_torsion_oracle():
    rng = random.Random(11)
    verdicts = set()
    for n in range(3, 7):
        for part in compositions(n):
            g = block_grading(n, part)
            m = len(g.complement_indices)
            if m == 0:
                continue
            fam = invariant_family(g)
            torsion = torsions(g)
            forms = [SymmetricForm.identity(m)]
            forms += naturally_reductive_subfamily(fam).basis
            for _ in range(2):
                values = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(fam.dimension)]
                forms.append(evaluate_family(fam, values))
            for form in forms:
                want = torsion_oracle(torsion, form)
                assert is_adapted(form, g) == want, (n, part)
                assert ambrose_singer_check(g, form).totally_skew == want, (n, part)
                verdicts.add(want)
    assert verdicts == {True, False}


def test_adapted_verdicts_on_forms_outside_the_family():
    # the commutation check walks only the records of ad_m(E_x) and the
    # support of the form, so forms that are not invariant, not
    # component-orthogonal or have a single entry must get the same
    # verdicts as the oracle; and for each x, the first entry where
    # B ad_m(E_x) and ad_m(E_x) B differ must be the first nonzero
    # residual (y, z), row-major
    rng = random.Random(29)
    verdicts = set()
    for n in range(3, 7):
        for part in compositions(n):
            g = block_grading(n, part)
            m = len(g.complement_indices)
            if m == 0:
                continue
            torsion = torsions(g)
            forms = [random_symmetric(rng, m) for _ in range(2)]
            pairs = [(i, j) for i in range(m) for j in range(i, m)]
            forms += [single_entry(m, i, j) for i, j in rng.sample(pairs, min(4, len(pairs)))]
            mm, _, _ = g.split
            for form in forms:
                w = omega_table(torsion, form)
                rows = form.sparse_rows
                adapted = True
                for x in range(m):
                    want = next(
                        ((y, z) for y in range(m) for z in range(m) if w[x][y][z] + w[x][z][y]),
                        None,
                    )
                    got = _noncommuting_entry([mm[x]], rows)
                    assert got == (None if want is None else (0, *want)), (n, part, x, form.nonzero_entries)
                    adapted = adapted and want is None
                assert is_adapted(form, g) == adapted, (n, part)
                assert ambrose_singer_check(g, form).totally_skew == adapted, (n, part)
                verdicts.add(adapted)
    assert verdicts == {True, False}


def test_refinement_matches_dense_triple_route():
    # every residual B([X,Y]_m, Z) + B([X,Z]_m, Y) over all x, y, z, with
    # [X, Y]_m = -T(X, Y) from the dense bracket, one row per triple
    count = 0
    for n in range(3, 7):
        for part in compositions(n):
            g = block_grading(n, part)
            m = len(g.complement_indices)
            if m == 0:
                continue
            fam = invariant_family(g)
            torsion = torsions(g)
            tables = [omega_table(torsion, f) for f in fam.basis]
            red = RowReducer(fam.dimension)
            for x in range(m):
                for y in range(m):
                    for z in range(m):
                        # the residual of basis form k is -(w_k[x][y][z] + w_k[x][z][y]);
                        # the sign does not change the row space
                        pairs = [(w[x][y][z], w[x][z][y]) for w in tables]
                        red.insert({k: a + b for k, (a, b) in enumerate(pairs) if a or b})
            refined = naturally_reductive_subfamily(fam)
            assert refined.parent_coords == nullspace_basis(red), (n, part)
            assert refined.basis == [evaluate_family(fam, c) for c in nullspace_basis(red)]
            count += 1
    assert count == 179


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(SMALL_PARTITIONS, st.data())
def test_family_rows_contract_to_the_member_walk(part, data):
    # the refinement's rows over the basis, contracted with c, vanish
    # exactly when is_adapted holds on the member at c
    g = block_grading(sum(part), part)
    fam = invariant_family(g)
    rational = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    c = data.draw(st.lists(rational, min_size=fam.dimension, max_size=fam.dimension))
    rows = reductivity_rows(g, fam.basis)
    vanish = not any(sum(c[k] * e for k, e in row.items()) for row in rows)
    assert is_adapted(evaluate_family(fam, c), g) == vanish


# values whose sums cancel only over a common denominator: 1/2 + 1/3 - 5/6 = 0
LCM_VALUES = st.sampled_from([F(1, 2), F(1, 3), F(-5, 6), F(5, 6), F(-1, 2), F(-1, 3)])


@st.composite
def forms_on_small_partitions(draw):
    """A block grading with 3 <= n <= 6 and a symmetric form on its m:
    c I, with c a sum of two drawn values, plus a few entries anywhere,
    with denominators up to 97."""
    part = draw(SMALL_PARTITIONS)
    g = block_grading(sum(part), part)
    m = len(g.complement_indices)
    value = st.one_of(st.fractions(-3, 3, max_denominator=97), LCM_VALUES)
    c = draw(value) + draw(value)
    upper = {(i, i): c for i in range(m)}
    index = st.integers(0, max(m - 1, 0))
    for i, j, v in draw(st.lists(st.tuples(index, index, value), max_size=2 * m)):
        key = (min(i, j), max(i, j))
        upper[key] = upper.get(key, F(0)) + v
    return g, SymmetricForm(m, tuple((i, j, v) for (i, j), v in sorted(upper.items()) if v))


def lcm_cancelling_form():
    """(1/2 + 1/3) I with a -5/6 and a 1/97 off the diagonal, on (2,1,1,1):
    a diagonal built as a sum of fractions, beside entries whose
    denominators, 6 and 97, differ."""
    g = block_grading(5, (2, 1, 1, 1))
    m = len(g.complement_indices)
    upper = [(i, i, F(1, 2) + F(1, 3)) for i in range(m)]
    upper += [(0, 3, F(-5, 6)), (2, 7, F(1, 97))]
    return g, SymmetricForm(m, tuple(sorted(upper)))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(forms_on_small_partitions())
@example(lcm_cancelling_form())
def test_integer_residuals_match_the_rational_oracle(case):
    """``is_adapted``, which compares the form's own entries, gives the
    verdict of the oracle's Fraction sums on the same single form, and so
    does the commutation check over all of mm on the Fraction rows."""
    g, form = case
    want = not any(row[0] for row in reductivity_rows(g, [form]))
    assert is_adapted(form, g) == want
    mm, _, _ = g.split
    assert (_noncommuting_entry(mm, form.sparse_rows) is None) == want


def family_fields(fam):
    return fam.names, fam.supports, [f.nonzero_entries for f in fam.basis], fam.parent_coords


def test_closed_form_refinement_matches_the_row_reduction_walk():
    """The closed-form refinement equals the RREF of the residual rows over
    the family, names, supports, every basis entry and parent coordinates,
    and so does the refinement of that refinement, on every ordered
    partition with 3 <= n <= 9, on all 241 with every block at most 3 and
    at a few larger blocks."""
    cases = {(sum(p), p) for n in range(3, 10) for p in compositions(n)}
    small_blocks = {(sum(p), p) for p in product(range(4), repeat=4) if sum(p) >= 3}
    assert len(cases) == 700 and len(small_blocks) == 241
    cases |= small_blocks | {(17, (4, 4, 4, 5)), (22, (2, 2, 9, 9)), (16, (1, 1, 1, 13))}
    assert len(cases) == 718
    for n, part in sorted(cases):
        fam = invariant_family(block_grading(n, part))
        closed, walked = naturally_reductive_subfamily(fam), refinement_by_row_reduction(fam)
        assert family_fields(closed) == family_fields(walked), part
        again = naturally_reductive_subfamily(closed)
        assert family_fields(again) == family_fields(refinement_by_row_reduction(closed)), part


def test_closed_form_refinement_needs_the_invariant_family():
    # the closed form holds for the invariant family and its refinements
    # only, so a hand-made family without a parent is refused
    fam = invariant_family(block_grading(5, (2, 2, 1, 0)))
    refined = naturally_reductive_subfamily(fam)
    assert naturally_reductive_subfamily(refined).dimension == refined.dimension
    scaled = fam.basis[:1] + [evaluate_family(fam, [0, 2, 0, 0])] + fam.basis[2:]
    swapped = [fam.basis[1], fam.basis[0]] + fam.basis[2:]
    for basis in (scaled, swapped):
        other = FormFamily(fam.grading, fam.carrier, list(fam.names), list(fam.supports), basis)
        with pytest.raises(ValueError, match="invariant family"):
            naturally_reductive_subfamily(other)


def test_contraction_matches_dense_route_on_non_invariant_forms():
    # sum_i B(T(E_i, E_x), E_i) for every x, from the dense bracket, against
    # the signed sum of the library, on random forms outside the family.  The
    # sum is the trace of B times ad(E_x) restricted to m, which is skew on
    # the orthonormal E_ij basis, so it vanishes for every symmetric B: the
    # dense terms cancel in pairs, and a kernel that loses a sign gets False
    rng = random.Random(31)
    verdicts, cancelling = Counter(), 0
    for n in range(3, 7):
        for part in compositions(n):
            g = block_grading(n, part)
            m = len(g.complement_indices)
            if m == 0:
                continue
            torsion = torsions(g)
            values = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
            diagonal = SymmetricForm.diagonal(values)
            for form in (random_symmetric(rng, m), random_symmetric(rng, m), diagonal):
                terms = [
                    [t * form.entry(l, i) for i in range(m) for l, t in enumerate(torsion[i][x]) if t]
                    for x in range(m)
                ]
                want = all(sum(t, F(0)) == 0 for t in terms)
                assert ambrose_singer_check(g, form).contraction_vanishes == want, (n, part)
                verdicts[want] += 1
                cancelling += any(map(any, terms))
    assert verdicts == Counter({True: 537})
    assert cancelling >= 150


def test_refinement_is_idempotent():
    count = 0
    for n in range(3, 7):
        for part in compositions(n):
            refined = naturally_reductive_subfamily(invariant_family(block_grading(n, part)))
            assert naturally_reductive_subfamily(refined).basis == refined.basis, part
            count += 1
    assert count == 195


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(SMALL_PARTITIONS, st.booleans(), st.data())
def test_adapted_exactly_on_the_refined_span(part, inside, data):
    # a member is adapted exactly when its parameters lie in the span of the
    # refined directions; half the draws are built inside that span
    g = block_grading(sum(part), part)
    fam = invariant_family(g)
    coords = naturally_reductive_subfamily(fam).parent_coords
    rational = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    if inside:
        a = data.draw(st.lists(rational, min_size=len(coords), max_size=len(coords)))
        c = [sum((ak * v[j] for ak, v in zip(a, coords)), F(0)) for j in range(fam.dimension)]
    else:
        c = data.draw(st.lists(rational, min_size=fam.dimension, max_size=fam.dimension))
    in_span = rank(coords + [c]) == rank(coords) if coords else not any(c)
    assert is_adapted(evaluate_family(fam, c), g) == in_span
