"""The orthogonal Lie algebras so(n) with exact structure constants.

Basis: E_ij = unit(i,j) - unit(j,i) for 0 <= i < j < n, listed in
lexicographic order of (i, j).  Structure constants come from the closed
form of the matrix commutators E_ij E_kl - E_kl E_ij and are stored
sparsely; for this basis a bracket of two basis elements has at most one
nonzero term, and only basis pairs sharing exactly one index have one.

Each structure constant is the int 1 or -1.  Elements of the algebra are
coefficient vectors over this basis (exact rationals); ``basis_matrix``
gives the n x n matrix of a basis element.
"""

from __future__ import annotations

import functools
from types import MappingProxyType

from .linalg import ONE, Matrix, SymmetricForm, ZERO

# the terms (k, s) of a bracket s E_k, s the int 1 or -1
BracketTerms = tuple[tuple[int, int], ...]


class LieAlgebra:
    """so(n) with cached sparse structure constants.  Use ``build_so``."""

    def __init__(self, n: int):
        if n < 3:
            raise ValueError(f"need n >= 3, got {n}")
        self.n = n
        self.pairs: list[tuple[int, int]] = [
            (i, j) for i in range(n) for j in range(i + 1, n)
        ]
        self.dim = len(self.pairs)
        self.pair_index: dict[tuple[int, int], int] = {
            p: k for k, p in enumerate(self.pairs)
        }
        self._table: dict[tuple[int, int], BracketTerms] = {}
        self._build_table()
        self._killing = SymmetricForm.diagonal([-2 * (n - 2)] * self.dim)

    # -- construction -------------------------------------------------

    def _build_table(self) -> None:
        # [E_ab, E_cd] = d_bc E_ad - d_ac E_bd - d_bd E_ac + d_ad E_bc, so only
        # pairs sharing exactly one index have a nonzero bracket.  For a < b
        # the partners (c, d) > (a, b), in lexicographic order, are (a, c) for
        # c > b, (c, b) for a < c < b and (b, c) for c > b.
        n, index, table = self.n, self.pair_index, self._table
        for p, (a, b) in enumerate(self.pairs):
            for c in range(b + 1, n):
                table[p, index[a, c]] = ((index[b, c], -1),)
            for c in range(a + 1, b):
                table[p, index[c, b]] = ((index[a, c], -1),)
            for c in range(b + 1, n):
                table[p, index[b, c]] = ((index[a, c], 1),)

    # -- basic data ----------------------------------------------------

    def basis_label(self, k: int) -> str:
        i, j = self.pairs[k]
        return f"E{i + 1}_{j + 1}" if self.n > 9 else f"E{i + 1}{j + 1}"

    def basis_matrix(self, k: int) -> Matrix:
        m = [[ZERO] * self.n for _ in range(self.n)]
        i, j = self.pairs[k]
        m[i][j], m[j][i] = ONE, -ONE
        return m

    def structure_constants(self) -> MappingProxyType[tuple[int, int], BracketTerms]:
        """Sparse map (p, q) -> terms of [E_p, E_q], for p < q, in lexicographic
        order of (p, q); pairs with a zero bracket are absent.  A read-only
        live view of the table, not a copy."""
        return MappingProxyType(self._table)

    # -- the Killing form ----------------------------------------------

    def killing_form(self) -> SymmetricForm:
        """K(X, Y) = trace(ad X . ad Y) = (n-2) tr(XY), so on the E_ij basis
        K = -2(n-2) I, since tr(E_ij E_ij) = -2 and distinct E_ij are
        trace-orthogonal.  Built with the algebra."""
        return self._killing


@functools.cache
def build_so(n: int) -> LieAlgebra:
    """Construct (and cache) so(n) with its structure constants."""
    return LieAlgebra(n)

