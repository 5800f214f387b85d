import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gammasym.linalg import (
    RowReducer,
    SymmetricForm,
    char_poly,
    congruence_signature,
    linear_combination,
    mat_mul,
    solve_matrix,
    to_matrix,
)
from oracles import nullspace, rank, row_space_basis, signature

F = Fraction


def random_matrix(rng, rows, cols, lo=-4, hi=4):
    return [[F(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)]


# -- nullspace / RREF ------------------------------------------------------


def test_nullspace_trivial():
    assert nullspace([[1, 0], [0, 1]]) == []


def test_nullspace_known():
    # x + y + z = 0 has the canonical 2-dim solution basis
    basis = nullspace([[1, 1, 1]])
    assert basis == [[F(-1), F(1), F(0)], [F(-1), F(0), F(1)]]


def test_nullspace_exact_on_random_systems():
    rng = random.Random(42)
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, m, n)
        basis = nullspace(a)
        for v in basis:
            for row in a:
                assert sum(row[j] * v[j] for j in range(n)) == 0
        assert rank(a) + len(basis) == n
        # basis vectors are independent: each has a 1 where the others are 0
        if basis:
            assert rank(basis) == len(basis)


def test_nullspace_insensitive_to_row_order():
    rng = random.Random(3)
    a = random_matrix(rng, 5, 7)
    expected = nullspace(a)
    for _ in range(10):
        shuffled = a[:]
        rng.shuffle(shuffled)
        assert nullspace(shuffled) == expected


def test_row_reducer_matches_batch_nullspace():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 7)
        rows = []
        red = RowReducer(n)
        for _ in range(rng.randint(1, 10)):
            row = {
                c: F(rng.randint(-3, 3))
                for c in rng.sample(range(n), rng.randint(1, n))
            }
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
                red.insert(dict(row))
        dense = [[r.get(c, F(0)) for c in range(n)] for r in rows]
        if dense:
            assert red.nullspace_basis() == nullspace(dense)


def test_row_reducer_pivot_rows_stay_reduced():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 8)
        red = RowReducer(n)
        for _ in range(rng.randint(0, 14)):
            row = {c: F(rng.randint(-2, 2)) for c in range(n)}
            red.insert({c: v for c, v in row.items() if v})
        for p, prow in red.pivots.items():
            assert prow[p] == 1
            assert min(prow) == p
            for q in red.pivots:
                assert q == p or q not in prow


def test_row_reducer_duplicate_rows_in_any_order():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(2, 7)
        base = []
        for _ in range(rng.randint(1, 6)):
            row = {c: F(rng.randint(-3, 3), rng.randint(1, 3)) for c in range(n)}
            row = {c: v for c, v in row.items() if v}
            if row:
                base.append(row)
        # each row repeated, some scaled, fed in several shuffled orders
        rows = base * 3 + [{c: 2 * v for c, v in r.items()} for r in base]
        dense = [[r.get(c, F(0)) for c in range(n)] for r in base]
        results = set()
        for _ in range(4):
            rng.shuffle(rows)
            red = RowReducer(n)
            for r in rows:
                red.insert(dict(r))
            assert red.rank == rank(dense)
            assert red.nullspace_basis() == nullspace(dense)
            results.add(tuple(tuple(sorted(red.pivots[c].items())) for c in sorted(red.pivots)))
        assert len(results) == 1


def test_row_space_basis_is_canonical():
    vecs = [[2, 4], [1, 2], [0, 3]]
    assert row_space_basis(vecs) == [[F(1), F(0)], [F(0), F(1)]]


# -- signatures ------------------------------------------------------------


def test_signature_definite_and_mixed():
    assert congruence_signature(SymmetricForm.identity(4)) == (4, 0, 0)
    assert congruence_signature(SymmetricForm.diagonal([-1, -2, -3])) == (0, 3, 0)
    assert congruence_signature(SymmetricForm.diagonal([5, -1, 0, 2])) == (2, 1, 1)


def test_signature_hyperbolic_block():
    # zero diagonal, off-diagonal coupling: one positive and one negative
    assert congruence_signature(SymmetricForm.from_rows([[0, 1], [1, 0]])) == (1, 1, 0)
    padded = SymmetricForm.from_rows([[0, 3, 0], [3, 0, 0], [0, 0, 0]])
    assert congruence_signature(padded) == (1, 1, 1)


def test_signature_congruence_invariant():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 5)
        f = random_matrix(rng, n, n)
        sym = [[f[i][j] + f[j][i] for j in range(n)] for i in range(n)]
        sig = congruence_signature(SymmetricForm.from_rows(sym))
        # build invertible P as unit-triangular times diagonal +-1
        p = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            p[i][i] = F(rng.choice([-1, 1]))
            for j in range(i + 1, n):
                p[i][j] = F(rng.randint(-2, 2))
        pt = [[p[j][i] for j in range(n)] for i in range(n)]
        cong = mat_mul(pt, mat_mul(to_matrix(sym), p))
        assert congruence_signature(SymmetricForm.from_rows(cong)) == sig


small = st.integers(-3, 3).map(F)
nonzero = st.integers(1, 3).map(F) | st.integers(-3, -1).map(F)


@st.composite
def sparse_forms(draw):
    """Gram rows of a block-diagonal symmetric form, indices shuffled.

    The blocks are random symmetric blocks, zero-diagonal hyperbolic pairs
    or lone zero rows; or the form has a single nonzero entry.
    """
    kind = draw(st.sampled_from(["blocks", "hyperbolic", "single"]))
    if kind == "single":
        d = draw(st.integers(1, 6))
        i, j = sorted((draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))))
        rows = [[F(0)] * d for _ in range(d)]
        rows[i][j] = rows[j][i] = draw(nonzero)
    else:
        blocks = []
        for _ in range(draw(st.integers(1, 5))):
            if kind == "hyperbolic":
                a = draw(nonzero)
                blocks.append([[F(0), a], [a, F(0)]])
            else:
                size = draw(st.integers(1, 4))
                b = [[F(0)] * size for _ in range(size)]
                for x in range(size):
                    for y in range(x, size):
                        b[x][y] = b[y][x] = draw(small)
                blocks.append(b)
        blocks += [[[F(0)]]] * draw(st.integers(0, 3))
        d = sum(len(b) for b in blocks)
        rows = [[F(0)] * d for _ in range(d)]
        start = 0
        for b in blocks:
            for x, row in enumerate(b):
                rows[start + x][start : start + len(b)] = row
            start += len(b)
    perm = draw(st.permutations(range(d)))
    return [[rows[perm[i]][perm[j]] for j in range(d)] for i in range(d)]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(sparse_forms())
def test_signature_by_components_matches_dense_route(rows):
    form = SymmetricForm.from_rows(rows)
    assert congruence_signature(form) == signature(rows)
    assert sum(congruence_signature(form)) == len(rows)


def test_symmetric_form_validation():
    with pytest.raises(ValueError):
        SymmetricForm.from_rows([[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="square"):
        SymmetricForm.from_rows([[0, 1], [1]])


def test_asymmetric_gram_names_first_entry():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 7)
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = F(rng.randint(-2, 2))
        lower = [(i, j) for i in range(n) for j in range(i)]
        bad = rng.sample(lower, rng.randint(1, min(3, len(lower))))
        for i, j in bad:
            rows[i][j] += 1
        # the first (i, j), j < i, in row-major order of the lower triangle
        i, j = min(bad)
        with pytest.raises(ValueError, match=rf"^Gram matrix not symmetric at \({i},{j}\)$"):
            SymmetricForm.from_rows(rows)


def test_form_apply_and_restrict():
    f = SymmetricForm.from_rows([[2, 1], [1, 3]])
    assert f.apply([1, 0], [0, 1]) == 1
    assert f.apply([1, 1], [1, 1]) == 7
    assert f.restrict([1]).entries == ((F(3),),)
    with pytest.raises(ValueError):
        f.apply([1], [0, 1])


def test_sparse_form_reads_match_the_gram_matrix():
    """Every read of the nonzero entries agrees with the dense Gram matrix."""
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 6)
        grams = []
        for _ in range(2):
            rows = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    if rng.random() < 0.4:
                        rows[i][j] = rows[j][i] = F(rng.randint(-3, 3), rng.randint(1, 2))
            grams.append(rows)
        (a, b), (f, g) = grams, map(SymmetricForm.from_rows, grams)
        assert f.rows() == a and f.dim == n
        assert all(f.entry(i, j) == a[i][j] for i in range(n) for j in range(n))
        x, y = random_matrix(rng, 2, n)
        assert f.apply(x, y) == sum(x[i] * a[i][j] * y[j] for i in range(n) for j in range(n))
        idx = rng.sample(range(n), rng.randint(0, n))
        sub = [[a[i][j] for j in idx] for i in idx]
        assert f.restrict(idx) == SymmetricForm.from_rows(sub)
        c, d = F(rng.randint(-2, 2)), F(rng.randint(-2, 2), 3)
        combo = [[c * a[i][j] + d * b[i][j] for j in range(n)] for i in range(n)]
        assert linear_combination(n, [c, d], [f, g]) == SymmetricForm.from_rows(combo)
        assert f.is_identity() == (a == [[F(i == j) for j in range(n)] for i in range(n)])
    assert SymmetricForm.from_rows([[1, 0], [0, 1]]).is_identity()
    with pytest.raises(ValueError, match="distinct"):
        SymmetricForm.identity(3).restrict([0, 0])


# -- solving and characteristic polynomials --------------------------------


def test_solve_matrix_inverts():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        while True:
            a = random_matrix(rng, n, n)
            if rank(a) == n:
                break
        b = random_matrix(rng, n, n)
        x = solve_matrix(a, b)
        assert mat_mul(to_matrix(a), x) == to_matrix(b)


def test_solve_matrix_singular():
    with pytest.raises(ValueError):
        solve_matrix([[1, 1], [2, 2]], [[1, 0], [0, 1]])


def test_char_poly_diagonal():
    # (x-2)(x-3) = x^2 - 5x + 6
    assert char_poly([[2, 0], [0, 3]]) == [F(1), F(-5), F(6)]


def test_char_poly_nilpotent_and_identity():
    assert char_poly([[0, 1], [0, 0]]) == [F(1), F(0), F(0)]
    assert char_poly([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [F(1), F(-3), F(3), F(-1)]


def test_char_poly_matches_trace_and_det():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        coeffs = char_poly(a)
        assert len(coeffs) == n + 1
        trace = sum(a[i][i] for i in range(n))
        assert coeffs[1] == -trace
        # evaluate p(A) = 0 (Cayley-Hamilton) as an end-to-end check
        acc = [[F(0)] * n for _ in range(n)]
        for c in coeffs:
            acc = mat_mul(acc, to_matrix(a))
            for i in range(n):
                acc[i][i] += c
        assert all(x == 0 for row in acc for x in row)
