"""Acceptance suite: one test per release criterion.

Each test prints a single ``[criterion N] ...: PASS|FAIL`` line before its
assertions, so a plain ``pytest -v`` run shows one verdict per criterion.
All expected values are frozen here as literals; tolerances are stated
inline (exact equality unless a float tolerance is given).
"""

import math
import random
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np

from gammasym.geometry import (
    canonical_curvature,
    geodesic_curve,
    matrix_exp_numeric,
    sectional_table,
)
from gammasym.grading import Grading, block_grading, holonomy_span, verify_grading
from gammasym.groups import enumerate_group
from gammasym.liealg import LieAlgebra, build_so
from gammasym.linalg import SymmetricForm
from gammasym.metrics import (
    evaluate_family,
    invariant_family,
    lorentzian_search,
    naturally_reductive_subfamily,
    signature_scan,
)
from oracles import basis_vector, bracket, bracket_basis, form_value, vector_to_matrix

F = Fraction


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {verdict}{suffix}")


# -- criterion 1: the 45-pair bracket table of so(5), (2,2,1,0) -------------

NAMES = ["X1", "X2", "A1", "A2", "A3", "A4", "B1", "B2", "C1", "C2"]
ELEM = {
    "X1": (0, 1), "X2": (2, 3),
    "A1": (0, 2), "A2": (0, 3), "A3": (1, 2), "A4": (1, 3),
    "B1": (0, 4), "B2": (1, 4),
    "C1": (2, 4), "C2": (3, 4),
}
BRACKET_TABLE = {
    ("X1", "X2"): "0", ("X1", "A1"): "-A3", ("X1", "A2"): "-A4",
    ("X1", "A3"): "A1", ("X1", "A4"): "A2", ("X1", "B1"): "-B2",
    ("X1", "B2"): "B1", ("X1", "C1"): "0", ("X1", "C2"): "0",
    ("X2", "A1"): "-A2", ("X2", "A2"): "A1", ("X2", "A3"): "-A4",
    ("X2", "A4"): "A3", ("X2", "B1"): "0", ("X2", "B2"): "0",
    ("X2", "C1"): "-C2", ("X2", "C2"): "C1",
    ("A1", "A2"): "-X2", ("A1", "A3"): "-X1", ("A1", "A4"): "0",
    ("A1", "B1"): "-C1", ("A1", "B2"): "0", ("A1", "C1"): "B1",
    ("A1", "C2"): "0",
    ("A2", "A3"): "0", ("A2", "A4"): "-X1", ("A2", "B1"): "-C2",
    ("A2", "B2"): "0", ("A2", "C1"): "0", ("A2", "C2"): "B1",
    ("A3", "A4"): "-X2", ("A3", "B1"): "0", ("A3", "B2"): "-C1",
    ("A3", "C1"): "B2", ("A3", "C2"): "0",
    ("A4", "B1"): "0", ("A4", "B2"): "-C2", ("A4", "C1"): "0",
    ("A4", "C2"): "B2",
    ("B1", "B2"): "-X1", ("B1", "C1"): "-A1", ("B1", "C2"): "-A2",
    ("B2", "C1"): "-A3", ("B2", "C2"): "-A4",
    ("C1", "C2"): "-X2",
}


def test_criterion_1_bracket_table():
    assert len(BRACKET_TABLE) == 45
    start = time.perf_counter()
    alg = LieAlgebra(5)  # fresh build, no cache
    bad = []
    for (na, nb), rhs in BRACKET_TABLE.items():
        got = bracket(
            alg,
            basis_vector(alg, alg.pair_index[ELEM[na]]),
            basis_vector(alg, alg.pair_index[ELEM[nb]]),
        )
        want = [F(0)] * alg.dim
        if rhs != "0":
            sign = F(-1) if rhs.startswith("-") else F(1)
            want[alg.pair_index[ELEM[rhs.lstrip("-")]]] = sign
        if got != want:
            bad.append((na, nb))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 1.0
    report(1, "bracket table (45 exact pairs, < 1 s)", ok, f"{45 - len(bad)}/45, {elapsed:.3f}s")
    assert bad == []
    assert elapsed < 1.0


# -- criterion 2: invariant family dimensions -------------------------------

FAMILY_DIMS = {
    (5, (2, 2, 1, 0)): 4,
    (5, (2, 1, 1, 1)): 6,
    # 3 per component: permuting the three size-2 blocks permutes the
    # components, and each is (R²⊗R²) ⊕ (R²⊗R¹) under so(2)³, which carries
    # 2 + 1 invariant symmetric forms.  Second routes in test_metrics.py.
    (7, (2, 2, 2, 1)): 9,
    (13, (3, 3, 3, 4)): 6,
}


def test_criterion_2_family_dimensions():
    computed = {}
    for (n, part), _ in FAMILY_DIMS.items():
        if n == 13:
            start = time.perf_counter()
            alg = LieAlgebra(13)  # timed end to end, cache bypassed
            fam = invariant_family(block_grading(13, part, algebra=alg))
            elapsed = time.perf_counter() - start
        else:
            fam = invariant_family(block_grading(n, part))
        computed[(n, part)] = fam.dimension
    ok = computed == FAMILY_DIMS and elapsed < 120.0
    report(
        2,
        "family dimensions 4/6/9/6 (so(13) < 120 s)",
        ok,
        f"computed {tuple(computed.values())}, expected {tuple(FAMILY_DIMS.values())}, "
        f"so(13) {elapsed:.1f}s",
    )
    assert elapsed < 120.0
    assert computed == FAMILY_DIMS


# -- criterion 3: naturally reductive refinement ----------------------------


def test_criterion_3_natural_reductivity():
    dims = {}
    for n, part in FAMILY_DIMS:
        fam = invariant_family(block_grading(n, part))
        dims[(n, part)] = naturally_reductive_subfamily(fam).dimension
    fam = invariant_family(block_grading(5, (2, 2, 1, 0)))
    coords = dict(
        zip(fam.names, naturally_reductive_subfamily(fam).parent_coords[0])
    )
    direction_ok = (
        coords["t_A1"] == coords["t_B1"] == coords["t_C2"] != 0
        and coords["u_A1"] == 0
    )
    ok = all(d == 1 for d in dims.values()) and direction_ok
    report(3, "naturally reductive subfamily dim 1, t=v=w u=0", ok, f"dims {dims}")
    assert all(d == 1 for d in dims.values()), dims
    assert direction_ok, coords


# -- criterion 4: sectional curvature table ---------------------------------

# frozen numerators over complement positions (A1..A4, B1, B2, C1, C2)
SECTIONAL = {
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


def test_criterion_4_curvature_table():
    start = time.perf_counter()
    alg = LieAlgebra(5)
    g = block_grading(5, (2, 2, 1, 0), algebra=alg)
    table = sectional_table(g, SymmetricForm.identity(8), SymmetricForm.identity(2))
    elapsed = time.perf_counter() - start
    named = (
        table.entry(0, 1) == 1      # R_1221
        and table.entry(0, 2) == 1  # R_1331
        and table.entry(0, 4) == F(1, 4)  # R_1551
        and table.entry(0, 6) == F(1, 4)  # R_1771
        and table.entry(0, 3) == 0  # R_1441
        and table.entry(6, 7) == 1  # R_7887
    )
    ok = dict(table.items()) == SECTIONAL and named and table.all_nonnegative() and elapsed < 1.0
    report(4, "sectional table, 28 exact entries, all >= 0, < 1 s", ok, f"{elapsed:.3f}s")
    assert dict(table.items()) == SECTIONAL
    assert named
    assert table.all_nonnegative()
    assert elapsed < 1.0


# -- criterion 5: Lorentzian classification ---------------------------------


def test_criterion_5_lorentzian():
    hit = lorentzian_search(invariant_family(block_grading(5, (1, 1, 3, 0))))
    found_ok = (
        hit is not None
        and hit.parameter_values == [F(-1), F(1), F(1)]
        and hit.inertia == (6, 1, 0)
    )
    fam = invariant_family(block_grading(5, (2, 2, 1, 0)))
    none_ok = lorentzian_search(fam) is None
    neg_counts = sorted({rep.inertia[1] for rep in signature_scan(fam)})
    parity_ok = bool(neg_counts) and all(c % 2 == 0 for c in neg_counts)
    ok = found_ok and none_ok and parity_ok
    report(
        5,
        "Lorentzian search: (6,1,0) at (-1,1,1); none for (2,2,1,0)",
        ok,
        f"negative counts {neg_counts}",
    )
    assert found_ok
    assert none_ok
    assert parity_ok


# -- criterion 6: holonomy span and flatness across components --------------

HOLONOMY_CASES = {
    (5, (2, 2, 1, 0)): {"a": 2, "b": 1, "c": 1},
    (5, (1, 1, 3, 0)): {"a": 0, "b": 3, "c": 3},
    (7, (2, 2, 2, 1)): {"a": 3, "b": 3, "c": 3},
}


def test_criterion_6_holonomy_and_flatness():
    spans_ok = True
    details = []
    for (n, part), per_dims in HOLONOMY_CASES.items():
        g = block_grading(n, part)
        span = holonomy_span(g)
        got = {lbl: len(vecs) for lbl, vecs in span.by_component.items()}
        if got != per_dims or span.total_dim != len(span.fixed_indices):
            spans_ok = False
        details.append(f"so({n}){part}: {got}, total {span.total_dim}")
    flat_ok = True
    for n, part in HOLONOMY_CASES:
        g = block_grading(n, part)
        comps = [g.component(x) for x in enumerate_group(2)[1:]]
        zs = [basis_vector(g.algebra, k) for k in g.complement_indices]
        for ca in range(len(comps)):
            for cb in range(ca + 1, len(comps)):
                for p in comps[ca].indices:
                    vp = basis_vector(g.algebra, p)
                    for q in comps[cb].indices:
                        vq = basis_vector(g.algebra, q)
                        for vz in zs:
                            if any(canonical_curvature(g, vp, vq, vz)):
                                flat_ok = False
    ok = spans_ok and flat_ok
    report(6, "holonomy spans g_e; cross-component curvature zero", ok, "; ".join(details))
    assert spans_ok, details
    assert flat_ok


# -- criterion 7: Killing form vs trace form --------------------------------


def test_criterion_7_killing_oracle():
    rng = random.Random(20260824)
    trace_ok = True
    for n in (5, 7, 9):
        alg = build_so(n)
        k = alg.killing_form()
        for _ in range(100):
            x = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(alg.dim)]
            y = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(alg.dim)]
            mx, my = vector_to_matrix(alg, x), vector_to_matrix(alg, y)
            tr = sum(
                sum(mx[i][j] * my[j][i] for j in range(n)) for i in range(n)
            )
            if form_value(k, x, y) != (n - 2) * tr:
                trace_ok = False
    orth_ok = True
    for n, part in [(5, (2, 2, 1, 0)), (5, (2, 1, 1, 1)), (5, (1, 1, 3, 0)),
                    (7, (2, 2, 2, 1)), (13, (3, 3, 3, 4))]:
        g = block_grading(n, part)
        k = g.algebra.killing_form()
        comps = g.components()
        for a in range(len(comps)):
            for b in range(a + 1, len(comps)):
                for p in comps[a].indices:
                    for q in comps[b].indices:
                        if k.entry(p, q) != 0:
                            orth_ok = False
    ok = trace_ok and orth_ok
    report(7, "Killing = (n-2) trace (300 random pairs); components orthogonal", ok)
    assert trace_ok
    assert orth_ok


# -- criterion 8: geodesics -------------------------------------------------

T_SAMPLES = (0.1, 1.0, math.pi, 5.0)


def test_criterion_8_geodesics():
    g = block_grading(5, (2, 2, 1, 0))
    alg = g.algebra
    worst = 0.0
    for k in g.complement_indices:
        e = alg.basis_matrix(k)
        curve = geodesic_curve(e)
        for t in T_SAMPLES:
            gap = float(np.abs(curve.at(t) - matrix_exp_numeric(e, t)).max())
            worst = max(worst, gap)
        period_gap = float(np.abs(curve.at(2.0 * math.pi) - np.eye(5)).max())
        worst = max(worst, period_gap)
    # the first complement generator rotates the (1,3) coordinate plane
    a1 = geodesic_curve(alg.basis_matrix(g.complement_indices[0]))
    pattern = 0.0
    for t in T_SAMPLES:
        expected = np.eye(5)
        expected[0, 0] = expected[2, 2] = math.cos(t)
        expected[0, 2] = math.sin(t)
        expected[2, 0] = -math.sin(t)
        pattern = max(pattern, float(np.abs(a1.at(t) - expected).max()))
    ok = worst <= 1e-12 and pattern <= 1e-12
    report(
        8,
        "geodesics: closed form vs oracle <= 1e-12; period 2*pi; rotation pattern",
        ok,
        f"max gap {worst:.2e}, pattern gap {pattern:.2e}",
    )
    assert worst <= 1e-12
    assert pattern <= 1e-12


# -- criterion 9: property suites -------------------------------------------


def _jacobi_holds(alg: LieAlgebra) -> bool:
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            for k in range(j + 1, alg.dim):
                acc: dict[int, Fraction] = defaultdict(lambda: F(0))
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for r, cf in bracket_basis(alg, b, c):
                        for s, df in bracket_basis(alg, a, r):
                            acc[s] += cf * df
                if any(acc.values()):
                    return False
    return True


def _all_partitions(n: int):
    for r1 in range(n + 1):
        for r2 in range(n + 1 - r1):
            for r3 in range(n + 1 - r1 - r2):
                yield (r1, r2, r3, n - r1 - r2 - r3)


def test_criterion_9_property_suites():
    jacobi_ok = all(_jacobi_holds(build_so(n)) for n in range(3, 10))

    grading_ok = True
    count = 0
    for n in range(3, 12):
        for part in _all_partitions(n):
            if verify_grading(block_grading(n, part)) is not None:
                grading_ok = False
            count += 1
    corrupt_ok = True
    g = block_grading(5, (2, 2, 1, 0))
    for k in range(g.algebra.dim):
        for wrong in enumerate_group(2):
            if wrong == g.assignment[k]:
                continue
            mangled = Grading(
                g.algebra,
                2,
                g.assignment[:k] + (wrong,) + g.assignment[k + 1 :],
            )
            if verify_grading(mangled) is None:
                corrupt_ok = False

    invariance_ok = True
    rng = random.Random(9)
    for n, part in FAMILY_DIMS:
        grading = block_grading(n, part)
        fam = invariant_family(grading)
        alg = grading.algebra
        carrier = fam.carrier
        nc = len(carrier)
        local = {kk: t for t, kk in enumerate(carrier)}
        # per g_e basis Z: map x -> sparse terms of [Z, E_x] in local coords
        actions = []
        for z in grading.fixed_indices:
            cols: dict[int, list[tuple[int, Fraction]]] = {}
            for x, kx in enumerate(carrier):
                terms = [(local[r], c) for r, c in bracket_basis(alg, z, kx)]
                if terms:
                    cols[x] = terms
            actions.append(cols)
        for _ in range(20):
            vals = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(fam.dimension)]
            ent = evaluate_family(fam, vals).rows()
            for cols in actions:
                for x in range(nc):
                    cx = cols.get(x, ())
                    for y in range(x, nc):
                        total = F(0)
                        for r, c in cx:
                            v = ent[r][y]
                            if v:
                                total += c * v
                        for r, c in cols.get(y, ()):
                            v = ent[x][r]
                            if v:
                                total += c * v
                        if total:
                            invariance_ok = False

    ok = jacobi_ok and grading_ok and corrupt_ok and invariance_ok
    report(
        9,
        "properties: Jacobi n<=9; gradings verify (+corruption witness); "
        "family invariance at 20 random points",
        ok,
        f"{count} partitions checked",
    )
    assert jacobi_ok
    assert grading_ok
    assert corrupt_ok
    assert invariance_ok
