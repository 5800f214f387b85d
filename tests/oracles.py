"""Dense reference routes that the library does not carry.

Tests check the sparse library against these: the nullspace, row space
and rank of a dense matrix (one ``RowReducer`` fed row by row), the
inertia of a dense symmetric matrix eliminated whole, and so(n) elements
as coefficient vectors, with their bracket from the structure constants
and their skew-symmetric matrices.
"""

from gammasym.linalg import ONE, ZERO, RowReducer, _eliminate, to_matrix, zeros


def _reduced(rows) -> RowReducer:
    red = RowReducer(len(rows[0]) if rows else 0)
    for row in to_matrix(rows):
        red.insert({j: x for j, x in enumerate(row) if x})
    return red


def nullspace(matrix):
    """Canonical basis of {v : matrix @ v = 0}, one vector per free column."""
    return _reduced(matrix).nullspace_basis()


def row_space_basis(vectors):
    """The RREF rows of the span of ``vectors``, as dense vectors."""
    red = _reduced(vectors)
    return [[red.pivots[c].get(j, ZERO) for j in range(red.ncols)] for c in sorted(red.pivots)]


def rank(matrix) -> int:
    return _reduced(matrix).rank


def signature(rows) -> tuple[int, int, int]:
    """Inertia of a dense symmetric matrix, eliminated as one block."""
    return _eliminate(to_matrix(rows))


def basis_vector(alg, k):
    v = zeros(alg.dim)
    v[k] = ONE
    return v


def bracket(alg, x, y):
    """[x, y] for coefficient vectors over the so(n) basis, exactly."""
    out = zeros(alg.dim)
    ny = [(q, c) for q, c in enumerate(y) if c]
    for p, cx in enumerate(x):
        for q, cy in ny if cx else ():
            for k, s in alg.bracket_basis(p, q):
                out[k] += cx * cy * s
    return out


def vector_to_matrix(alg, x):
    """The skew-symmetric n x n matrix of a coefficient vector."""
    m = [[ZERO] * alg.n for _ in range(alg.n)]
    for (i, j), c in zip(alg.pairs, x):
        m[i][j], m[j][i] = c, -c
    return m
