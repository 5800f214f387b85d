import random
from fractions import Fraction

import pytest

from gammasym.liealg import LieAlgebra, build_so
from gammasym.linalg import congruence_signature
from oracles import basis_vector, bracket, bracket_basis, form_value, mat_mul, vector_to_matrix

F = Fraction


def test_dimensions():
    for n in (3, 4, 5, 8):
        assert build_so(n).dim == n * (n - 1) // 2


def test_small_n_rejected():
    with pytest.raises(ValueError):
        build_so(2)


def test_basis_labels():
    alg = build_so(5)
    assert alg.basis_label(0) == "E12"
    assert alg.basis_label(alg.pair_index[(2, 4)]) == "E35"


def idx(alg, i, j):
    # 1-based pair -> basis index
    return alg.pair_index[(i - 1, j - 1)]


def unit(alg, i, j):
    return basis_vector(alg, idx(alg, i, j))


def test_specific_brackets():
    alg = build_so(5)
    # [E12, E23] = E13; [E12, E34] = 0; [E13, E34] = E14
    out = bracket(alg, unit(alg, 1, 2), unit(alg, 2, 3))
    assert out == unit(alg, 1, 3)
    assert bracket(alg, unit(alg, 1, 2), unit(alg, 3, 4)) == [F(0)] * alg.dim
    assert bracket(alg, unit(alg, 1, 3), unit(alg, 3, 4)) == unit(alg, 1, 4)


def test_bracket_antisymmetry_random():
    rng = random.Random(2)
    alg = build_so(6)
    for _ in range(20):
        x = [F(rng.randint(-3, 3)) for _ in range(alg.dim)]
        y = [F(rng.randint(-3, 3)) for _ in range(alg.dim)]
        xy = bracket(alg, x, y)
        yx = bracket(alg, y, x)
        assert xy == [-c for c in yx]
        assert bracket(alg, x, x) == [F(0)] * alg.dim


def test_structure_constants_match_dense_commutators():
    """The sparse table must agree with literal matrix commutators."""
    for n in range(3, 10):
        alg = build_so(n)
        keys = list(alg.structure_constants())
        assert keys == sorted(keys)
        mats = [[[int(x) for x in row] for row in alg.basis_matrix(p)] for p in range(alg.dim)]
        for p in range(alg.dim):
            for q in range(alg.dim):
                a, b = mats[p], mats[q]
                comm = [
                    [
                        sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n))
                        for j in range(n)
                    ]
                    for i in range(n)
                ]
                via_table = bracket(alg, basis_vector(alg, p), basis_vector(alg, q))
                assert vector_to_matrix(alg, via_table) == comm


def test_structure_constants_match_the_delta_formula():
    """[E_ab, E_cd] = d_bc E_ad - d_ac E_bd - d_bd E_ac + d_ad E_bc, with
    E_yx = -E_xy, evaluated for every pair p < q up to n = 21: the table
    holds exactly the nonzero brackets, in lexicographic (p, q) order."""

    def term(x, y, s):
        return (alg.pair_index[(x, y)], s) if x < y else (alg.pair_index[(y, x)], -s)

    for n in range(3, 22):
        alg = build_so(n)
        want = {}
        for p, (a, b) in enumerate(alg.pairs):
            for q in range(p + 1, alg.dim):
                c, d = alg.pairs[q]
                terms = [
                    term(x, y, s)
                    for hit, x, y, s in ((b == c, a, d, 1), (a == c, b, d, -1), (b == d, a, c, -1), (a == d, b, c, 1))
                    if hit
                ]
                if terms:
                    want[p, q] = tuple(terms)
        assert list(alg.structure_constants().items()) == list(want.items()), n


def test_jacobi_identity_so5():
    alg = build_so(5)
    d = alg.dim
    zero = [F(0)] * d
    for p in range(d):
        x = basis_vector(alg, p)
        for q in range(p + 1, d):
            y = basis_vector(alg, q)
            for r in range(q + 1, d):
                z = basis_vector(alg, r)
                total = bracket(alg, x, bracket(alg, y, z))
                t2 = bracket(alg, y, bracket(alg, z, x))
                t3 = bracket(alg, z, bracket(alg, x, y))
                assert [a + b + c for a, b, c in zip(total, t2, t3)] == zero


# -- Killing form ----------------------------------------------------------


def test_killing_diagonal_value():
    for n in (4, 5, 7):
        alg = build_so(n)
        k = alg.killing_form()
        for p in (0, alg.dim - 1):
            assert k.entry(p, p) == -2 * (n - 2)


def test_killing_orthogonal_basis_pairs():
    alg = build_so(5)
    k = alg.killing_form()
    # distinct elementary generators are K-orthogonal
    for p in range(alg.dim):
        for q in range(p + 1, alg.dim):
            assert k.entry(p, q) == 0


def test_killing_negative_definite_so5():
    assert congruence_signature(build_so(5).killing_form()) == (0, 10, 0)


def test_killing_equals_trace_form():
    """K(X,Y) = (n-2) tr(XY), checked on random exact vectors."""
    rng = random.Random(77)
    for n in (5, 6):
        alg = build_so(n)
        k = alg.killing_form()
        for _ in range(10):
            x = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(alg.dim)]
            y = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(alg.dim)]
            mx = vector_to_matrix(alg, x)
            my = vector_to_matrix(alg, y)
            tr = sum(mat_mul(mx, my)[i][i] for i in range(n))
            assert form_value(k, x, y) == (n - 2) * tr


def test_killing_ad_invariance_all_basis_triples():
    alg = build_so(5)
    k = alg.killing_form()
    for z in range(alg.dim):
        vz = basis_vector(alg, z)
        for p in range(alg.dim):
            adzp = bracket(alg, vz, basis_vector(alg, p))
            for q in range(alg.dim):
                adzq = bracket(alg, vz, basis_vector(alg, q))
                lhs = form_value(k, adzp, basis_vector(alg, q))
                rhs = form_value(k, basis_vector(alg, p), adzq)
                assert lhs + rhs == 0


def test_killing_matches_ad_trace():
    """K(E_p, E_q) = sum_k of the E_k coefficient of [E_p, [E_q, E_k]],
    the trace of ad E_p . ad E_q, from the structure constants alone."""
    for n in (3, 4, 5, 7):
        alg = build_so(n)
        k = alg.killing_form()
        for p in range(alg.dim):
            for q in range(p, alg.dim):
                trace = F(0)
                for j in range(alg.dim):
                    for r, c in bracket_basis(alg, q, j):
                        for s, d in bracket_basis(alg, p, r):
                            if s == j:
                                trace += c * d
                assert k.entry(p, q) == k.entry(q, p) == trace, (n, p, q)


def test_killing_form_alias_and_cache():
    alg = build_so(4)
    assert alg.killing_form() is alg.killing_form()


def test_build_so_cached():
    assert build_so(5) is build_so(5)
    assert LieAlgebra(5) is not build_so(5)
