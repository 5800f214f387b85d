"""Exact linear algebra over the rationals.

Everything here works with ``fractions.Fraction`` entries, so results are
exact and reproducible.  Dense matrices are lists of lists; sparse
systems are dict rows mapping column -> coefficient.

The reduced row echelon form of a matrix is unique, which makes the
nullspace basis canonical: independent of the order in which rows are
fed in.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

Vector = list[Fraction]
Matrix = list[list[Fraction]]
SparseRow = dict[int, Fraction]
# a matrix as its nonzero entries, row by row: row i maps column j to M[i][j]
SparseRows = list[SparseRow]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def to_matrix(rows: Sequence[Sequence]) -> Matrix:
    return [[frac(x) for x in row] for row in rows]


def zeros(n: int) -> Vector:
    return [ZERO] * n


def sparse_mul(a: SparseRows, b: SparseRows) -> SparseRows:
    """The product of two matrices given by their nonzero entries."""
    out: SparseRows = []
    for row in a:
        acc: SparseRow = {}
        for t, x in row.items():
            for j, y in b[t].items():
                acc[j] = acc[j] + x * y if j in acc else x * y
        out.append({j: v for j, v in acc.items() if v})
    return out


# ---------------------------------------------------------------------------
# Reduced row echelon form, kept fully reduced while rows are inserted.
# ---------------------------------------------------------------------------


class RowReducer:
    """Incremental RREF over sparse rational rows.

    ``pivots`` maps pivot column -> normalized, fully reduced row.  Because
    the RREF of a row space is unique, the final state does not depend on
    insertion order.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict[int, SparseRow] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _subtract(self, row: SparseRow, f: Fraction, piv: SparseRow, skip: int) -> None:
        for cc, vv in piv.items():
            if cc == skip:
                continue
            nv = row.get(cc, ZERO) - f * vv
            if nv:
                row[cc] = nv
            else:
                row.pop(cc, None)

    def insert(self, row: SparseRow) -> int | None:
        """Reduce ``row`` against the current pivots; returns the new pivot
        column, or None if the row was dependent."""
        row = {c: v for c, v in row.items() if v}
        # eliminate the row's pivot columns; pivot rows are fully reduced,
        # touching no other pivot column, so one pass suffices
        for c2 in [k for k in sorted(row) if k in self.pivots]:
            self._subtract(row, row.pop(c2), self.pivots[c2], c2)
        if not row:
            return None
        c = min(row)
        lead = row[c]
        if lead != ONE:
            row = {cc: vv / lead if cc != c else ONE for cc, vv in row.items()}
        # back-substitute so existing pivot rows stay reduced
        for prow in self.pivots.values():
            if c in prow:
                self._subtract(prow, prow.pop(c), row, c)
        self.pivots[c] = row
        return c


# ---------------------------------------------------------------------------
# Symmetric forms and Sylvester signatures.
# ---------------------------------------------------------------------------


class _SymmetricForm(NamedTuple):
    dim: int
    nonzero_entries: tuple[tuple[int, int, Fraction], ...]


class SymmetricForm(_SymmetricForm):
    """A symmetric bilinear form on Q^dim, given by its nonzero entries.

    ``nonzero_entries`` lists (i, j, value) for every nonzero entry with
    i <= j, row by row, with Fraction values.  The dense Gram matrix is
    built only on request (``rows``); ``from_rows`` is the one
    constructor that takes and validates one.
    """

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "SymmetricForm":
        """The form with Gram matrix ``rows``, which must be square and symmetric."""
        gram = to_matrix(rows)
        n = len(gram)
        for i, row in enumerate(gram):
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
            for j in range(i):
                if row[j] != gram[j][i]:
                    raise ValueError(f"Gram matrix not symmetric at ({i},{j})")
        upper = [(i, j, v) for i, row in enumerate(gram) for j, v in enumerate(row[i:], i) if v]
        return SymmetricForm(n, tuple(upper))

    @staticmethod
    def identity(n: int) -> "SymmetricForm":
        return SymmetricForm(n, tuple([(i, i, ONE) for i in range(n)]))

    @staticmethod
    def diagonal(values: Sequence) -> "SymmetricForm":
        diag = [(i, i, v) for i, v in enumerate(map(frac, values)) if v]
        return SymmetricForm(len(values), tuple(diag))

    @cached_property
    def sparse_rows(self) -> SparseRows:
        """The form by row, built once: row i maps j to B_ij, for each
        nonzero entry in both orders."""
        rows: SparseRows = [{} for _ in range(self.dim)]
        for i, j, v in self.nonzero_entries:
            rows[i][j] = rows[j][i] = v
        return rows

    def entry(self, i: int, j: int) -> Fraction:
        return self.sparse_rows[i].get(j, ZERO) if 0 <= i < self.dim else ZERO

    def rows(self) -> Matrix:
        """The dense Gram matrix, built on each call."""
        out = [[ZERO] * self.dim for _ in range(self.dim)]
        for i, j, v in self.nonzero_entries:
            out[i][j] = out[j][i] = v
        return out

    def restrict(self, indices: Sequence[int]) -> "SymmetricForm":
        """The form on the span of the basis vectors ``indices`` (distinct),
        in that order."""
        local = {k: a for a, k in enumerate(indices)}
        if len(local) != len(indices):
            raise ValueError("restrict needs distinct indices")
        upper = []
        for i, j, v in self.nonzero_entries:
            if i in local and j in local:
                a, b = local[i], local[j]
                upper.append((a, b, v) if a <= b else (b, a, v))
        upper.sort()
        return SymmetricForm(len(local), tuple(upper))

    def is_identity(self) -> bool:
        """Whether the entries are exactly (k, k, 1) for k = 0, ..., dim - 1."""
        entries = self.nonzero_entries
        return len(entries) == self.dim and all(e == (k, k, ONE) for k, e in enumerate(entries))


def linear_combination(dim: int, coeffs: Sequence, forms: Sequence[SymmetricForm]) -> SymmetricForm:
    """The form sum(c * f) on Q^dim over paired ``coeffs`` and ``forms``."""
    total: dict[tuple[int, int], Fraction] = {}
    for c, f in zip(coeffs, forms):
        c = frac(c)
        sign = 1 if c == 1 else -1 if c == -1 else 0  # a +-1 is read as a sign
        for i, j, e in f.nonzero_entries if c else ():
            t = e if sign > 0 else -e if sign else c * e
            total[i, j] = total[i, j] + t if (i, j) in total else t
    return SymmetricForm(dim, tuple(sorted((i, j, e) for (i, j), e in total.items() if e)))


def congruence_signature(form: SymmetricForm) -> tuple[int, int, int]:
    """Sylvester inertia (positive, negative, zero) of a symmetric form.

    The form is taken one connected component of the support graph of its
    nonzero entries at a time (``support_components``): an index on no
    entry is a zero row, and each component is read off the
    ``char_poly`` of its dense block, taken from ``form.sparse_rows``.  A
    symmetric matrix has only real eigenvalues, so once the factor x^z is
    divided out, Descartes' rule of signs is exact: the sign changes of
    the nonzero coefficients count the positive eigenvalues, the rest of
    the degree the negative ones, and z the zero ones.  A diagonal form's
    inertia is a count of its signs.  No floats.  The name is public and
    stays: by Sylvester's law the inertia is the congruence invariant,
    whichever way it is computed.
    """
    signs = [v.numerator for i, j, v in form.nonzero_entries if i == j]
    if len(signs) == len(form.nonzero_entries):
        pos, neg = sum(s > 0 for s in signs), sum(s < 0 for s in signs)
        return pos, neg, form.dim - pos - neg
    comps = support_components(form.dim, [(i, j) for i, j, _ in form.nonzero_entries])
    pos, neg, zero = 0, 0, form.dim - sum(map(len, comps))
    rows = form.sparse_rows
    for comp in comps:
        block = [[rows[i].get(j, ZERO) for j in comp] for i in comp]
        coeffs = char_poly(block)
        while not coeffs[-1]:  # divide out x^z
            coeffs.pop()
        positive = [c > 0 for c in coeffs if c]
        p = sum(a != b for a, b in zip(positive, positive[1:]))
        q = len(coeffs) - 1 - p
        pos, neg, zero = pos + p, neg + q, zero + len(comp) - p - q
    return pos, neg, zero


def support_components(dim: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Connected components of the graph on range(dim) with edges ``pairs``,
    as sorted index lists by smallest index.  Only indices on some pair are
    covered; a pair (i, i) covers i alone."""
    neighbours: list[list[int]] = [[] for _ in range(dim)]
    touched = [False] * dim  # on some pair and not yet in a component
    for i, j in pairs:
        touched[i] = touched[j] = True
        if i != j:
            neighbours[i].append(j)
            neighbours[j].append(i)
    comps = []
    for start in range(dim):
        if not touched[start]:
            continue
        touched[start] = False
        comp = [start]
        for i in comp:
            for j in neighbours[i]:
                if touched[j]:
                    touched[j] = False
                    comp.append(j)
        comp.sort()
        comps.append(comp)
    return comps


# ---------------------------------------------------------------------------
# Exact solving and characteristic polynomials.
# ---------------------------------------------------------------------------


def _shape(rows: Sequence[Sequence]) -> str:
    widths = sorted({len(r) for r in rows})  # one row length, or all of them
    return f"{len(rows)} x {widths[0] if len(widths) == 1 else widths or 0}"


def solve_matrix(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    """Exact solution X of A X = B for invertible n x n A: the RREF of
    [A | B] is [I | X], so X is read off the pivot rows of one
    ``RowReducer``; ValueError names a bad shape of A or B."""
    n, m = len(a), len(b[0]) if b else 0
    if any(len(r) != n for r in a) or any(len(r) != m for r in b):
        raise ValueError(f"solve_matrix: A {_shape(a)} is not square or B {_shape(b)} is ragged")
    if len(b) != n:
        height = "shorter" if len(b) < n else "taller"
        raise ValueError(f"solve_matrix: B ({_shape(b)}) is {height} than A ({_shape(a)})")
    red = RowReducer(n + m)
    for ra, rb in zip(a, b):
        red.insert({j: x for j, x in enumerate(map(frac, (*ra, *rb))) if x})
    if not all(c in red.pivots for c in range(n)):
        raise ValueError("matrix is singular")
    return [[red.pivots[i].get(n + j, ZERO) for j in range(m)] for i in range(n)]


def char_poly(m: Sequence[Sequence]) -> list[Fraction]:
    """Monic characteristic polynomial of a square matrix, exactly.

    Returns coefficients [1, a_1, ..., a_n] of
    det(x I - M) = x^n + a_1 x^{n-1} + ... + a_n
    via the Faddeev-LeVerrier recursion on the nonzero entries of M.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError(f"char_poly needs a square matrix, got {_shape(m)}")
    mm = [{j: x for j, x in enumerate(row) if x} for row in to_matrix(m)]
    coeffs = [ONE]
    nk: SparseRows = [{} for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            nk[i][i] = nk[i].get(i, ZERO) + coeffs[-1]
        nk = sparse_mul(mm, nk)
        coeffs.append(-sum((nk[i].get(i, ZERO) for i in range(n)), ZERO) / k)
    return coeffs
