import math
import random
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from gammasym import serialize
from gammasym.geometry import (
    ambrose_singer_check,
    canonical_curvature,
    canonical_torsion,
    geodesic_curve,
    matrix_exp_numeric,
    sectional_table,
    torsionfree_curvature,
)
from gammasym.grading import block_grading
from gammasym.liealg import build_so
from gammasym.linalg import SymmetricForm, congruence_signature
from gammasym.metrics import (
    evaluate_family,
    invariant_family,
    is_adapted,
    lorentzian_search,
    naturally_reductive_subfamily,
)
from oracles import (
    basis_vector,
    besse_sectional,
    bracket,
    dense_geodesic_curve,
    levi_civita_u,
    mat_identity,
)

F = Fraction

GRADING = block_grading(5, (2, 2, 1, 0))
ALG = GRADING.algebra
# complement order: E13 E14 E23 E24 | E15 E25 | E35 E45
M = GRADING.complement_indices


def mvec(pos, coeff=1):
    v = [F(0)] * ALG.dim
    v[M[pos]] = F(coeff)
    return v


def test_canonical_torsion_values():
    t = canonical_torsion(GRADING, mvec(0), mvec(4))     # (E13, E15)
    assert t == basis_vector(ALG, ALG.pair_index[(2, 4)])  # +E35
    # torsion vanishes when the bracket lands in the fixed part
    assert canonical_torsion(GRADING, mvec(0), mvec(1)) == [F(0)] * ALG.dim


def test_canonical_curvature_values():
    r = canonical_curvature(GRADING, mvec(0), mvec(1), mvec(1))   # R(E13,E14)E14
    assert r == mvec(0)
    # pairs from different components bracket into m, so R = 0
    assert canonical_curvature(GRADING, mvec(0), mvec(4), mvec(2)) == [F(0)] * ALG.dim


def test_complement_support_enforced():
    x1 = basis_vector(ALG, 0)  # E12 lies in the fixed part
    with pytest.raises(ValueError):
        canonical_torsion(GRADING, x1, mvec(0))
    with pytest.raises(ValueError):
        torsionfree_curvature(GRADING, mvec(0), x1, mvec(1))
    with pytest.raises(ValueError):
        canonical_curvature(GRADING, mvec(0), mvec(1), [F(0)] * 3)


def test_torsionfree_value():
    # R(E13, E15)E15 = 1/4 E13
    r = torsionfree_curvature(GRADING, mvec(0), mvec(4), mvec(4))
    assert r == mvec(0, F(1, 4))


def test_torsionfree_first_bianchi():
    n = len(M)
    vecs = [mvec(i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                total = [
                    a + b + c
                    for a, b, c in zip(
                        torsionfree_curvature(GRADING, vecs[i], vecs[j], vecs[k]),
                        torsionfree_curvature(GRADING, vecs[j], vecs[k], vecs[i]),
                        torsionfree_curvature(GRADING, vecs[k], vecs[i], vecs[j]),
                    )
                ]
                assert all(v == 0 for v in total)


def dense_route(g, x, y, z):
    """Torsion and both curvatures from the dense bracket and a projection
    by degree, with no use of the split."""
    alg = g.algebra
    fixed = [g.assignment[k].is_identity() for k in range(alg.dim)]

    def m_part(v):
        return [F(0) if fixed[k] else c for k, c in enumerate(v)]

    def e_part(v):
        return [c if fixed[k] else F(0) for k, c in enumerate(v)]

    def br(u, v):
        return bracket(alg, u, v)

    bxy = br(x, y)
    t1 = m_part(br(x, m_part(br(y, z))))
    t2 = m_part(br(y, m_part(br(x, z))))
    t3 = m_part(br(m_part(bxy), z))
    t4 = br(e_part(bxy), z)
    q, h = F(1, 4), F(1, 2)
    torsion = [-c for c in m_part(bxy)]
    canonical = [-c for c in t4]
    torsionfree = [q * a - q * b - h * c - d for a, b, c, d in zip(t1, t2, t3, t4)]
    return torsion, canonical, torsionfree


def test_curvature_matches_dense_route():
    rng = random.Random(41)
    cases = [(n, p) for n in range(3, 6) for p in product(range(n + 1), repeat=4) if sum(p) == n]
    sixes = [p for p in product(range(7), repeat=4) if sum(p) == 6]
    cases += [(6, p) for p in rng.sample(sixes, 6)]
    checked = 0
    for n, part in cases:
        g = block_grading(n, part)
        alg, carrier = g.algebra, g.complement_indices
        if not carrier:
            continue
        basis = [basis_vector(alg, k) for k in carrier]
        # every basis pair, against a random basis vector
        triples = [(x, y, rng.choice(basis)) for i, x in enumerate(basis) for y in basis[i:]]
        for _ in range(4):  # random rational m-vectors
            vecs = [[F(0)] * alg.dim for _ in range(3)]
            for v in vecs:
                for k in carrier:
                    v[k] = F(rng.randint(-4, 4), rng.randint(1, 3))
            triples.append(tuple(vecs))
        for x, y, z in triples:
            torsion, canonical, torsionfree = dense_route(g, x, y, z)
            assert canonical_torsion(g, x, y) == torsion, (n, part)
            assert canonical_curvature(g, x, y, z) == canonical, (n, part)
            assert torsionfree_curvature(g, x, y, z) == torsionfree, (n, part)
            checked += 1
    assert checked == 2385


# frozen sectional numerators, complement positions 0..7
EXPECTED_SECTIONAL = {
    (0, 1): F(1), (0, 2): F(1), (0, 3): F(0), (1, 2): F(0), (1, 3): F(1),
    (2, 3): F(1),
    (0, 4): F(1, 4), (0, 5): F(0), (1, 4): F(1, 4), (1, 5): F(0),
    (2, 4): F(0), (2, 5): F(1, 4), (3, 4): F(0), (3, 5): F(1, 4),
    (0, 6): F(1, 4), (0, 7): F(0), (1, 6): F(0), (1, 7): F(1, 4),
    (2, 6): F(1, 4), (2, 7): F(0), (3, 6): F(0), (3, 7): F(1, 4),
    (4, 5): F(1), (4, 6): F(1, 4), (4, 7): F(1, 4), (5, 6): F(1, 4),
    (5, 7): F(1, 4),
    (6, 7): F(1),
}


def test_sectional_table_so5():
    table = sectional_table(GRADING, SymmetricForm.identity(8), SymmetricForm.identity(2))
    assert table.labels == ("E13", "E14", "E23", "E24", "E15", "E25", "E35", "E45")
    assert list(table.items()) == sorted(EXPECTED_SECTIONAL.items())
    assert table.all_nonnegative()
    assert table.entry(1, 0) == table.entry(0, 1) == 1
    assert table.entry(3, 3) == 0
    assert table.csv_rows()[0] == (1, 2, 1, 1)
    assert serialize.curvature_text(table).splitlines()[0].startswith("R_1221")


def test_sectional_matches_curvature_contraction():
    """Dual route: every numerator equals B(R(E_i,E_j)E_j, E_i)."""
    table = sectional_table(GRADING, SymmetricForm.identity(8), SymmetricForm.identity(2))
    for i in range(8):
        for j in range(i + 1, 8):
            r = torsionfree_curvature(GRADING, mvec(i), mvec(j), mvec(j))
            assert r[M[i]] == table.entry(i, j)


def test_sectional_requires_orthonormal_basis():
    with pytest.raises(ValueError):
        sectional_table(GRADING, SymmetricForm.diagonal([2] * 8), SymmetricForm.identity(2))
    with pytest.raises(ValueError):
        sectional_table(GRADING, SymmetricForm.identity(6), SymmetricForm.identity(2))
    with pytest.raises(ValueError):
        sectional_table(GRADING, SymmetricForm.identity(8), SymmetricForm.identity(3))


def test_sectional_table_is_a_view_of_the_split():
    """Once the split is built, the table allocates nothing per pair: at
    n=29 (7,7,7,8), with 49,455 pairs, building it peaks under 1 MB."""
    g = block_grading(29, (7, 7, 7, 8))
    b_m = SymmetricForm.identity(len(g.complement_indices))
    b_e = SymmetricForm.identity(len(g.fixed_indices))
    g.split  # built before tracing
    tracemalloc.start()
    try:
        table = sectional_table(g, b_m, b_e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert sum(1 for _ in table.items()) == 49455


def ordered_partitions(lo, hi):
    for n in range(lo, hi + 1):
        yield from ((n, p) for p in product(range(n + 1), repeat=4) if sum(p) == n)


def test_sectional_matches_bracket_norms_with_random_b_e():
    """The table is the normal metric's.  For B = I every numerator is
    1/4 |[E_i, E_j]_m|^2 + |[E_i, E_j]_{g_e}|^2 from the dense bracket, and
    Besse's formula from dense commutators, which in turn equals
    <R(E_a, E_b)E_b, E_a> of ``torsionfree_curvature``.  A random rational
    b_e other than the identity is refused: the curvature of G/H has no
    term in a form on g_e, so no such table is a curvature."""
    rng = random.Random(17)
    count = refused = pairs = 0
    for n, part in ordered_partitions(3, 6):
        g = block_grading(n, part)
        alg, carrier, fixed = g.algebra, g.complement_indices, g.fixed_indices
        b_m = SymmetricForm.identity(len(carrier))
        table = sectional_table(g, b_m, SymmetricForm.identity(len(fixed)))
        for i in range(len(carrier)):
            for j in range(i + 1, len(carrier)):
                v = bracket(alg, basis_vector(alg, carrier[i]), basis_vector(alg, carrier[j]))
                want = sum((v[k] * v[k] for k in carrier), F(0)) / 4
                want += sum((v[k] * v[k] for k in fixed), F(0))
                assert table.entry(i, j) == want, (part, i, j)
        besse = besse_sectional(g, mat_identity(len(carrier)))
        assert dict(table.items()) == besse, part
        for (a, b), want in besse.items():
            ea, eb = basis_vector(alg, carrier[a]), basis_vector(alg, carrier[b])
            assert torsionfree_curvature(g, ea, eb, eb)[carrier[a]] == want, (part, a, b)
            pairs += 1
        if fixed:
            # a random rational b_e with off-diagonal entries too, never I
            rows = [[F(0)] * len(fixed) for _ in fixed]
            for s in range(len(fixed)):
                for t in range(s, len(fixed)):
                    if s == t or rng.random() < 0.5:
                        rows[s][t] = rows[t][s] = F(rng.randint(-5, 5), rng.randint(1, 4))
            rows[0][0] = F(2)
            with pytest.raises(ValueError, match="b_e must be the identity"):
                sectional_table(g, b_m, SymmetricForm.from_rows(rows))
            refused += 1
        count += 1
    assert (count, refused, pairs) == (195, 190, 4635)


def test_levi_civita_u_vanishes_exactly_on_adapted_members():
    """U = 0 from the Koszul formula on dense commutators exactly when
    ``is_adapted`` holds, on random nondegenerate members of the family and
    of the refined family and on the Lorentzian member the scan finds."""
    rng = random.Random(29)
    seen = {True: 0, False: 0}
    lorentzian = 0
    for n, part in ordered_partitions(3, 6):
        g = block_grading(n, part)
        if not g.complement_indices:
            continue
        family = invariant_family(g)
        members = [
            evaluate_family(f, [F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) for _ in f.names])
            for f in (family, naturally_reductive_subfamily(family))
        ]
        report = lorentzian_search(family)
        if report is not None:
            members.append(evaluate_family(family, report.parameter_values))
        for form in members:
            inertia = congruence_signature(form)
            if inertia[2]:
                continue
            u = levi_civita_u(g, form.rows())
            vanishes = not any(c for row in u for vec in row for c in vec)
            assert vanishes == is_adapted(form, g), (part, form)
            seen[vanishes] += 1
            lorentzian += inertia[1] == 1
    assert seen[True] > 100 and seen[False] > 100 and lorentzian > 50, (seen, lorentzian)


def test_ambrose_singer():
    rep = ambrose_singer_check(GRADING, SymmetricForm.identity(8))
    assert rep.contraction_vanishes and rep.totally_skew
    uneven = ambrose_singer_check(GRADING, SymmetricForm.diagonal([1, 1, 1, 1, 2, 2, 3, 3]))
    assert uneven.contraction_vanishes
    assert not uneven.totally_skew
    for dim in (7, 9):
        with pytest.raises(ValueError, match=r"^b_m dimension does not match the complement$"):
            ambrose_singer_check(GRADING, SymmetricForm.identity(dim))


# -- geodesics --------------------------------------------------------------

SAMPLES = (0.1, 1.0, math.pi, 5.0)


def test_geodesic_closed_form_matches_numeric():
    for pos in range(8):
        e = ALG.basis_matrix(M[pos])
        curve = geodesic_curve(e)
        for t in SAMPLES:
            gap = np.abs(curve.at(t) - matrix_exp_numeric(e, t)).max()
            assert gap <= 1e-12, (pos, t, gap)


def test_geodesic_period_and_orthogonality():
    e = ALG.basis_matrix(M[0])
    curve = geodesic_curve(e)
    assert np.abs(curve.at(curve.period()) - np.eye(5)).max() <= 1e-12
    for t in SAMPLES:
        r = curve.at(t)
        assert np.abs(r.T @ r - np.eye(5)).max() <= 1e-10


def test_geodesic_rotation_pattern():
    # exp(t E13) rotates the (1,3) coordinate plane and fixes the rest
    curve = geodesic_curve(ALG.basis_matrix(ALG.pair_index[(0, 2)]))
    for t in SAMPLES:
        r = curve.at(t)
        expected = np.eye(5)
        expected[0, 0] = expected[2, 2] = math.cos(t)
        expected[0, 2] = math.sin(t)
        expected[2, 0] = -math.sin(t)
        assert np.abs(r - expected).max() <= 1e-12


def test_geodesic_curve_exact_parts():
    curve = geodesic_curve(ALG.basis_matrix(M[0]))
    assert curve.sin_part == curve.generator
    assert np.array_equal(curve.at(0.0), np.eye(5))
    assert curve.size == 5


def test_geodesic_values_match_numpy_formula_bitwise():
    # values() is what the CLI prints; it must give the very floats of the
    # ndarray formula it replaced, down to the sign of zero
    for n, partition in ((5, (2, 2, 1, 0)), (7, (2, 2, 2, 1))):
        grading = block_grading(n, partition)
        for k in grading.complement_indices:
            curve = geodesic_curve(grading.algebra.basis_matrix(k))
            c0 = np.array(curve.constant_part, dtype=float)
            cs = np.array(curve.sin_part, dtype=float)
            cc = np.array(curve.cos_part, dtype=float)
            for t in (0.0, -0.0, 0.1, 1.0, math.pi, 5.0, -2.7, 1e6):
                expected = (c0 + math.sin(t) * cs + math.cos(t) * cc).tolist()
                assert repr(curve.values(t)) == repr(expected), (n, k, t)


def curve_parts(curve):
    return curve.generator, curve.constant_part, curve.sin_part, curve.cos_part


def outcome(call):
    """The repr of ``call()``, or the text of the ValueError it raises."""
    try:
        return repr(call())
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_geodesic_values_match_numpy_formula_at_extreme_t():
    """values(t) reads only the support of E and E^2 and fills the rest
    with two scalars; it keeps the bits of c0 + sin(t) cs + cos(t) cc in
    numpy at t = nan, +-inf (where math.sin raises, and so does values),
    -0.0 and 1e300, on every basis matrix of so(3), so(5) and so(7) and on
    sums of disjoint generators with mixed signs."""
    cases = [build_so(n).basis_matrix(k) for n in (3, 5, 7) for k in range(build_so(n).dim)]
    for n, pairs in ((4, ((0, 1), (2, 3))), (6, ((0, 5), (1, 2), (3, 4))), (7, ((0, 6), (2, 3)))):
        for signs in product((1, -1), repeat=len(pairs)):
            e = [[F(0)] * n for _ in range(n)]
            for (i, j), sgn in zip(pairs, signs):
                e[i][j], e[j][i] = F(sgn), F(-sgn)
            cases.append(e)
    for e in cases:
        curve = geodesic_curve(e)
        c0, cs, cc = (np.array(p, dtype=float) for p in curve_parts(curve)[1:])
        for t in (math.nan, math.inf, -math.inf, -0.0, 1e300):
            want = outcome(lambda: (c0 + math.sin(t) * cs + math.cos(t) * cc).tolist())
            assert outcome(lambda: curve.values(t)) == want, (e, t)
        assert outcome(lambda: curve.values(math.inf)) == "ValueError: math domain error"


def curve_outcome(route, e):
    """The four exact parts of ``route(e)`` and its values at several t,
    or the text of the ValueError it raises."""
    try:
        curve = route(e)
    except ValueError as exc:
        return str(exc)
    return curve_parts(curve), [repr(curve.values(t)) for t in (0.0, -0.0, 0.1, math.pi, -2.7, 1e6)]


def dense_values(curve, t):
    """exp(tE) from the exact parts, every entry converted with float()."""
    s, c = math.sin(t), math.cos(t)
    parts = zip(curve.constant_part, curve.sin_part, curve.cos_part)
    return [
        [float(a) + s * float(b) + c * float(d) for a, b, d in zip(*rows)] for rows in parts
    ]


def test_geodesic_curve_matches_the_dense_route():
    """The sparse curve equals ``oracles.dense_geodesic_curve``: the same
    four exact parts, the same floats from values(t) down to the sign of
    zero, and the same error text.  Inputs: every basis matrix of so(n) for
    3 <= n <= 7, sums of two or three disjoint ones with either sign, and
    rejected generators."""
    sums = [
        ((0, 1), (2, 3)),
        ((0, 2), (1, 3)),
        ((0, 3), (1, 2)),
        ((0, 1), (2, 3), (4, 5)),
        ((0, 6), (1, 5), (2, 4)),
    ]
    cases = []
    for n in range(3, 8):
        alg = build_so(n)
        cases += [alg.basis_matrix(k) for k in range(alg.dim)]
        for pairs in sums:
            if max(map(max, pairs)) < n:
                for signs in product((1, -1), repeat=len(pairs)):
                    e = [[0] * n for _ in range(n)]
                    for (i, j), sgn in zip(pairs, signs):
                        e[i][j], e[j][i] = F(sgn), F(-sgn)
                    cases.append(e)
    assert len(cases) == (3 + 6 + 10 + 15 + 21) + 4 * 3 * 4 + 2 * 8 + 8
    rejected = [
        [[1, 0], [0, 0]],                               # nonzero diagonal
        [[0, 1], [1, 0]],                               # not skew
        [[0, 0], [1, 0]],                               # not skew, below the diagonal
        [[0, 1, 0], [-1, 1, 0], [0, 0, 0]],             # diagonal after a skew pair
        [[0, 1], [2, 5]],                               # not skew before the diagonal
        [[F(1, 2), 1], [1, 0]],                         # diagonal before not skew
        [[0, 2, 0], [-2, 0, 0], [0, 0, 0]],             # 2 E12: E^3 = -4 E
        [[0, 1, 1], [-1, 0, 0], [-1, 0, 0]],            # E12 + E13: E^3 = -2 E
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]],
        [],
        [0, 1],
        [[0, 1, 0], [-1, 0, 0]],
    ]
    for e in cases + rejected:
        want = curve_outcome(dense_geodesic_curve, e)
        assert curve_outcome(geodesic_curve, e) == want, e
    for e in rejected:
        assert isinstance(curve_outcome(geodesic_curve, e), str), e
    for e in cases:
        curve = geodesic_curve(e)
        for t in (0.0, 0.1, 5.0, -2.7):
            assert repr(curve.values(t)) == repr(dense_values(curve, t)), (e, t)


def test_geodesic_generator_validation():
    with pytest.raises(ValueError):
        geodesic_curve([[0, 1], [0, 0]])          # not skew
    with pytest.raises(ValueError):
        geodesic_curve([[0, 1, 0], [-1, 0, 0]])    # not square
    with pytest.raises(ValueError, match="nonempty"):
        geodesic_curve([])
    with pytest.raises(ValueError, match="square"):
        geodesic_curve([0, 1])                      # one row, not a matrix
    mixed = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]]
    with pytest.raises(ValueError, match="matrix_exp_numeric"):
        geodesic_curve(mixed)
    # but the numeric oracle happily exponentiates it
    r = matrix_exp_numeric(mixed, 1.0)
    assert np.abs(r @ r.T - np.eye(4)).max() <= 1e-10


def test_matrix_exp_numeric_inverse_pairs():
    rng = random.Random(77)
    for _ in range(5):
        raw = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
        skew = [[raw[i][j] - raw[j][i] for j in range(5)] for i in range(5)]
        t = rng.uniform(0.1, 2.0)
        prod = matrix_exp_numeric(skew, t) @ matrix_exp_numeric(skew, -t)
        assert np.abs(prod - np.eye(5)).max() <= 1e-10


def test_matrix_exp_numeric_large_argument():
    # |tE| = 100, where expm halves tE several times and squares back,
    # checked against the exact closed form of the same generator
    e = ALG.basis_matrix(M[0])
    t = 100.0
    gap = np.abs(matrix_exp_numeric(e, t) - geodesic_curve(e).at(t)).max()
    assert gap <= 1e-10


def test_matrix_exp_numeric_on_nilpotent_generators():
    """N^3 = 0, so exp(tN) = I + tN + t^2 N^2 / 2 exactly, a reference that
    does not go through scipy.  t |N| is large enough that expm halves
    tN several times and squares back; each entry agrees to 1e-12 relative
    to its size."""
    n_rows = [[0, 3, 1], [0, 0, 2], [0, 0, 0]]
    n_sq = [[sum(n_rows[i][k] * n_rows[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    for t in (40, 100, 1000):
        exact = np.array(
            [
                [float((i == j) + t * n_rows[i][j] + F(t * t, 2) * n_sq[i][j]) for j in range(3)]
                for i in range(3)
            ]
        )
        got = matrix_exp_numeric(n_rows, float(t))
        assert (np.abs(got - exact) <= 1e-12 * np.maximum(1.0, np.abs(exact))).all(), t


def test_matrix_exp_numeric_is_expm_of_the_dense_float_array():
    """Converting only the nonzero entries gives the very array that
    ``np.array(x, dtype=float)`` gives, up to the sign of a zero, so
    scipy's expm returns the same floats: on Fraction inputs (1/3 among
    them), int, float and mixed inputs, inputs with a -0.0 entry, and a
    float ndarray."""
    from scipy.linalg import expm

    third = F(1, 3)
    cases = [
        [[F(0), third, F(0)], [-third, F(0), F(2)], [F(0), F(-2), F(0)]],
        ALG.basis_matrix(M[3]),
        [[0, 1, 0], [-1, 0, 3], [0, -3, 0]],
        [[0.0, 0.5, 0.0], [-0.5, 0.25, 0.0], [1e-3, 0.0, -2.0]],
        [[0, third, 0.5], [-1, 0.0, F(2, 7)], [F(-1, 7), -2.5, 0]],
        [[-0.0, 1.0], [-1.0, -0.0]],
        [[F(0), -0.0, 1], [0, 0, third], [-1, 0.0, F(0)]],
        np.array([[0.0, 2.0, -0.0], [-2.0, 0.0, 0.5], [0.0, -0.5, 0.0]]),
    ]
    for x in cases:
        for t in (1.0, -0.3, 2.5, 0.0):
            got = matrix_exp_numeric(x, t)
            assert np.array_equal(got, expm(np.array(x, dtype=float) * t)), (x, t)


def test_matrix_exp_numeric_rejects_nonsquare():
    with pytest.raises(ValueError):
        matrix_exp_numeric([[0.0, 1.0]])
    for bad in ([], [0.0, 1.0], np.zeros(3), [[]], [[0.0, 1.0], [0.0]], [[0, 1], 5]):
        with pytest.raises(ValueError, match="square and nonempty"):
            matrix_exp_numeric(bad)
