import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gammasym.linalg import (
    RowReducer,
    SymmetricForm,
    char_poly,
    congruence_signature,
    linear_combination,
    solve_matrix,
    sparse_mul,
    to_matrix,
)
from oracles import (
    form_value,
    mat_mul,
    nullspace,
    nullspace_basis,
    rank,
    row_space_basis,
    signature,
)

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
            assert nullspace_basis(red) == nullspace(dense)


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
            assert nullspace_basis(red) == nullspace(dense)
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

    The blocks are random symmetric blocks up to 6 x 6, zero-diagonal
    hyperbolic pairs, zero-diagonal blocks [[0, A], [A^T, 0]] of size up
    to 6 with A of rank at most 2 (so a block can hold a zero eigenvalue
    of multiplicity above 1), or lone zero rows; or the form has a single
    nonzero entry.
    """
    kind = draw(st.sampled_from(["blocks", "hyperbolic", "low-rank", "single"]))
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
            elif kind == "low-rank":
                s, t = draw(st.integers(1, 3)), draw(st.integers(1, 3))
                a = [[F(0)] * t for _ in range(s)]
                for _ in range(draw(st.integers(1, 2))):
                    x = draw(st.lists(small, min_size=s, max_size=s))
                    y = draw(st.lists(small, min_size=t, max_size=t))
                    a = [[a[p][q] + x[p] * y[q] for q in range(t)] for p in range(s)]
                top = [[F(0)] * s + row for row in a]
                bottom = [[a[p][q] for p in range(s)] + [F(0)] * t for q in range(t)]
                blocks.append(top + bottom)
            else:
                size = draw(st.integers(1, 6))
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


@st.composite
def diagonal_or_mixed_forms(draw):
    """Gram rows of a diagonal form with entries of both signs and zero
    rows, or of that form with off-diagonal entries added at random pairs."""
    d = draw(st.integers(1, 8))
    diag = draw(st.lists(small | st.sampled_from([F(1, 3), F(-5, 2)]), min_size=d, max_size=d))
    rows = [[diag[i] if i == j else F(0) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 4)) if d > 1 else 0):
        i, j = draw(st.permutations(range(d)))[:2]
        rows[i][j] = rows[j][i] = draw(nonzero)
    return rows


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(diagonal_or_mixed_forms())
@example([[F(0), F(0), F(0)], [F(0), F(-2), F(0)], [F(0), F(0), F(3)]])
@example([[F(1), F(0), F(2)], [F(0), F(0), F(0)], [F(2), F(0), F(-1)]])
def test_signature_of_diagonal_and_mixed_forms_matches_elimination(rows):
    """A diagonal form's inertia is counted from the signs of its entries;
    it equals the dense elimination of its Gram matrix, and so does the
    inertia of a form that also has off-diagonal entries."""
    assert congruence_signature(SymmetricForm.from_rows(rows)) == signature(rows)


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
    assert form_value(f, [1, 0], [0, 1]) == 1
    assert form_value(f, [1, 1], [1, 1]) == 7
    assert f.restrict([1]).rows() == [[F(3)]]


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
        assert form_value(f, x, y) == sum(x[i] * a[i][j] * y[j] for i in range(n) for j in range(n))
        idx = rng.sample(range(n), rng.randint(0, n))
        sub = [[a[i][j] for j in idx] for i in idx]
        assert f.restrict(idx) == SymmetricForm.from_rows(sub)
        c, d = F(rng.randint(-2, 2)), F(rng.randint(-2, 2), 3)
        combo = [[c * a[i][j] + d * b[i][j] for j in range(n)] for i in range(n)]
        assert linear_combination(n, [c, d], [f, g]) == SymmetricForm.from_rows(combo)
        for k in (1, -1, 0, 2, True, -1.0, F(-1), F(1, 2)):  # an int +-1 is read as a sign
            combo = [[F(k) * a[i][j] - b[i][j] for j in range(n)] for i in range(n)]
            got = linear_combination(n, [k, -1], [f, g])
            assert got == SymmetricForm.from_rows(combo), k
            assert all(type(v) is F for _, _, v in got.nonzero_entries)
        assert f.is_identity() == (a == [[F(i == j) for j in range(n)] for i in range(n)])
    assert SymmetricForm.from_rows([[1, 0], [0, 1]]).is_identity()
    with pytest.raises(ValueError, match="distinct"):
        SymmetricForm.identity(3).restrict([0, 0])


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(sparse_forms() | diagonal_or_mixed_forms())
@example([])
@example([[F(0), F(0)], [F(0), F(0)]])
@example([[F(0), F(0), F(2)], [F(0), F(0), F(0)], [F(2), F(0), F(-1)]])
def test_sparse_rows_are_the_nonzero_entries_of_rows(rows):
    """Row i of ``sparse_rows`` maps j to B_ij for exactly the nonzero
    entries of row i of ``rows()``: a zero row is an empty dict, and a form
    of dim 0 has no rows."""
    form = SymmetricForm.from_rows(rows)
    assert form.sparse_rows == [{j: v for j, v in enumerate(row) if v} for row in form.rows()]


def test_entry_outside_the_form_is_zero():
    """``entry`` is 0 at an index outside range(dim), -1 included, even
    where a list index would wrap onto a nonzero row."""
    for form in (SymmetricForm.from_rows([[1, 2], [2, 3]]), SymmetricForm.identity(3), SymmetricForm(0, ())):
        d = form.dim
        for i, j in [(d, 0), (0, d), (d, d), (-1, 0), (0, -1), (-1, -1), (-1, d - 1), (d - 1, -1)]:
            assert form.entry(i, j) == 0, (form, i, j)


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
    """Each A is singular; in the last three [A | I] still has full rank, so
    the reduction ends with a pivot in the columns of B: that is refused,
    not read as X."""
    singular = [
        [[1, 1], [2, 2]],
        [[1, 0, 2], [3, 0, 1], [0, 0, 5]],  # a zero column
        [[1, 2, 3], [4, 5, 6], [1, 2, 3]],  # two equal rows
        [[1, 0, 1], [0, 1, 2], [1, 1, 3]],  # only the last column is dependent
    ]
    for a in singular:
        with pytest.raises(ValueError, match="^matrix is singular$"):
            solve_matrix(a, [[int(i == j) for j in range(len(a))] for i in range(len(a))])


def test_solve_matrix_with_a_row_swap_and_a_zero_row_in_b():
    """Column 0 of A is nonzero only in the last row, so the first pivot
    comes from that row; row 1 of B is zero, and so is row 1 of X."""
    a = [[0, 2, 1], [0, 1, 0], [3, 0, 1]]
    b = [[1, 2], [0, 0], [-3, 5]]
    x = solve_matrix(a, b)
    assert x == [[F(-4, 3), F(1)], [F(0), F(0)], [F(1), F(2)]]
    assert all(type(v) is F for row in x for v in row)
    assert mat_mul(a, x) == to_matrix(b)


def test_solve_matrix_refuses_a_b_of_another_height():
    """A B with fewer rows than A is a shape error, not a singular A."""
    with pytest.raises(ValueError, match="shorter") as err:
        solve_matrix([[1, 0], [0, 1]], [[3]])
    assert "singular" not in str(err.value)


def test_solve_matrix_and_char_poly_name_a_bad_shape():
    """A non-square A or M, a ragged B, and a B of another height are
    refused with their shapes, not read as a solution or a polynomial."""
    cases = [
        ([[1, 2]], [[3]], r"^solve_matrix: A 1 x 2 is not square or B 1 x 1 is ragged$"),
        ([[1, 0], [0, 1]], [[1, 2], [3]], r"A 2 x 2 is not square or B 2 x \[1, 2\] is ragged$"),
        ([[1, 0], [0, 1]], [[1], [2], [3]], r"B \(3 x 1\) is taller than A \(2 x 2\)$"),
        ([[2]], [], r"B \(0 x 0\) is shorter than A \(1 x 1\)$"),
    ]
    for a, b, message in cases:
        with pytest.raises(ValueError, match=message):
            solve_matrix(a, b)
    for m, shape in (([[1], [2]], "2 x 1"), ([[1, 2]], "1 x 2"), ([[1, 2], [3]], r"2 x \[1, 2\]")):
        with pytest.raises(ValueError, match=f"^char_poly needs a square matrix, got {shape}$"):
            char_poly(m)


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


def _shear(n, i, j, k):
    """The integer matrix I + k e_ij, i != j: unimodular, with inverse I - k e_ij."""
    return [[F(int(r == c) + (k if (r, c) == (i, j) else 0)) for c in range(n)] for r in range(n)]


def _conjugate(t, shears):
    """P T P^-1 for P the product of the shears (i, j, k) in order, with
    P^-1 the product of the opposite shears in reverse order."""
    n = len(t)
    p = p_inv = [[F(int(r == c)) for c in range(n)] for r in range(n)]
    for i, j, k in shears:
        p, p_inv = mat_mul(p, _shear(n, i, j, k)), mat_mul(_shear(n, i, j, -k), p_inv)
    assert mat_mul(p, p_inv) == [[int(r == c) for c in range(n)] for r in range(n)]
    return mat_mul(mat_mul(p, to_matrix(t)), p_inv)


@st.composite
def conjugated_triangular(draw):
    """(P T P^-1, diagonal of T): T upper triangular with diagonal entries
    from a set of three values (so repeated, and often zero) and some rows
    zeroed, P a product of integer shears."""
    n = draw(st.integers(1, 6))
    diag = draw(st.lists(st.sampled_from([F(0), F(2), F(-1, 2)]), min_size=n, max_size=n))
    t = [
        [diag[i] if j == i else draw(small) if j > i else F(0) for j in range(n)]
        for i in range(n)
    ]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n - 1)):
        t[i] = [F(0)] * n
    shears = []
    for _ in range(draw(st.integers(0, 8)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        shears.append((i, j, draw(st.integers(-3, 3))))
    return _conjugate(t, shears), [row[i] for i, row in enumerate(t)]


# diag(2, 2, 0, 0) conjugated: derogatory, minimal polynomial x (x - 2), so
# a Cayley-Hamilton check alone would pass x (x - 2) as well
_DEROGATORY = (
    _conjugate(
        [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [(0, 2, 1), (3, 1, -2), (1, 0, 3)],
    ),
    [F(2), F(2), F(0), F(0)],
)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(conjugated_triangular())
@example(_DEROGATORY)
def test_char_poly_is_the_product_over_a_triangular_conjugate(case):
    """char_poly(P T P^-1) is the product of (x - t_ii), expanded here by
    plain polynomial multiplication: the full characteristic polynomial,
    also where it differs from the minimal one."""
    m, diag = case
    expected = [F(1)]
    for d in diag:
        expected = [c - d * e for c, e in zip(expected + [F(0)], [F(0)] + expected)]
    assert char_poly(m) == expected


dense_entries = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2)])


@st.composite
def product_pairs(draw):
    """A (r x k, k x c) pair of dense matrices whose entries often cancel."""
    r, k, c = (draw(st.integers(1, 5)) for _ in range(3))
    a = draw(st.lists(st.lists(dense_entries, min_size=k, max_size=k), min_size=r, max_size=r))
    b = draw(st.lists(st.lists(dense_entries, min_size=c, max_size=c), min_size=k, max_size=k))
    return a, b


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(product_pairs())
@example(([[F(1), F(1)]], [[F(1), F(-1)], [F(-1), F(1)]]))
@example(([[F(0), F(0)], [F(1), F(2)]], [[F(1), F(0)], [F(3), F(-1)]]))  # a zero row in a
@example(([[F(1), F(2)], [F(0), F(3)]], [[F(0), F(0)], [F(1), F(-1)]]))  # a zero row in b
@example(([[F(1), F(-1)], [F(2), F(1)]], [[F(2), F(1)], [F(2), F(1)]]))  # row 0 cancels
def test_sparse_mul_is_the_dense_product(pair):
    """sparse_mul on the nonzero entries equals the dense product entry by
    entry, and keeps no entry that cancelled to zero."""
    a, b = pair
    sparse = lambda m: [{j: x for j, x in enumerate(row) if x} for row in m]
    out = sparse_mul(sparse(a), sparse(b))
    assert all(v for row in out for v in row.values())
    assert [[row.get(j, F(0)) for j in range(len(b[0]))] for row in out] == mat_mul(a, b)
