"""Gradings of so(n) over (Z_2)^k, and the block gradings in particular.

A grading assigns a group element to every basis vector E_ij such that
brackets are additive: [g_x, g_y] lands in g_{xy}.  The block gradings
come from a partition of {1..n} into four consecutive blocks; E_ij picks
up the product of the labels of the blocks containing i and j.  The
identity component g_e (same-block pairs) is the fixed subalgebra, and
the tangent complement m is the sum of the other components.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import NamedTuple, Sequence

from .groups import GroupElement, enumerate_group, identity
from .liealg import LieAlgebra, build_so
from .linalg import ONE, Vector, ZERO

# sub-block names for the rank-2 block gradings, keyed by the pair of
# block numbers; same-block pairs sit inside g_e and carry no name.
_SUBBLOCK = {
    (0, 1): "A1",
    (2, 3): "A2",
    (0, 2): "B1",
    (1, 3): "B2",
    (0, 3): "C1",
    (1, 2): "C2",
}

# A restricted bracket as partner lists: entry x maps each y with a nonzero
# bracket s E_l to the record (l, s), the sign s the int 1 or -1 and all
# indices local (positions in complement_indices or fixed_indices).
Partners = list[dict[int, tuple[int, int]]]


class ComponentView(NamedTuple):
    """One homogeneous component: its label and basis indices."""

    label: str
    indices: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.indices)


class GradingViolation(NamedTuple):
    """First basis pair whose bracket leaves the expected component."""

    p: int
    q: int
    term: int
    expected: str
    found: str


class _Grading(NamedTuple):
    algebra: LieAlgebra
    rank: int
    assignment: tuple[GroupElement, ...]
    partition: tuple[int, ...] | None = None


class Grading(_Grading):
    """A group-valued degree assignment on the basis of an algebra."""

    def __new__(cls, *args, **kwargs) -> Grading:
        self = super().__new__(cls, *args, **kwargs)
        if len(self.assignment) != self.algebra.dim:
            raise ValueError("assignment length does not match algebra dimension")
        for k, g in enumerate(self.assignment):
            if g.rank != self.rank:
                raise ValueError(
                    f"assignment element {k} has rank {g.rank}, not the grading rank {self.rank}"
                )
        return self

    @cached_property
    def _by_mask(self) -> dict[int, tuple[int, ...]]:
        """Each mask that occurs -> its basis indices in order; all elements have
        the grading's rank (``__new__``), so equal masks are equal elements."""
        out: dict[int, list[int]] = {}
        for k, g in enumerate(self.assignment):
            out.setdefault(g.bits, []).append(k)
        return {bits: tuple(idx) for bits, idx in out.items()}

    def component(self, gamma: GroupElement) -> ComponentView:
        if gamma.rank != self.rank:
            raise ValueError(f"group element of rank {gamma.rank} in rank-{self.rank} grading")
        return ComponentView(gamma.label, self._by_mask.get(gamma.bits, ()))

    def components(self) -> list[ComponentView]:
        return [self.component(g) for g in enumerate_group(self.rank)]

    @cached_property
    def fixed_indices(self) -> tuple[int, ...]:
        return self.component(identity(self.rank)).indices

    @cached_property
    def fixed_generators(self) -> tuple[int, ...]:
        """Positions in ``fixed_indices`` of a set of Lie generators of g_e.

        E_ij in g_e is kept only when no k with i < k < j has E_ik in g_e.
        In a grading that verifies, [E_ij, E_jk] = +-E_ik makes the index
        pairs of g_e disjoint cliques, each spanning so(clique); the kept
        vectors join consecutive clique members, and those generate it.
        For a block grading they are the chains E_{i,i+1} inside each block.
        Invariance under ad(Z) and commuting with ad(Z) both hold on a Lie
        subalgebra of Z, so checking them on these generators suffices.
        """
        pairs = self.algebra.pairs
        fixed = {pairs[k] for k in self.fixed_indices}
        keep = []
        for t, k in enumerate(self.fixed_indices):
            i, j = pairs[k]
            if not any((i, m) in fixed for m in range(i + 1, j)):
                keep.append(t)
        return tuple(keep)

    @cached_property
    def complement_indices(self) -> tuple[int, ...]:
        """Basis indices of m, ordered component by component."""
        return tuple(k for comp in self.components()[1:] for k in comp.indices)

    @cached_property
    def carrier_slices(self) -> dict[str, range]:
        """Positions in ``complement_indices`` of each non-identity component."""
        out = {}
        start = 0
        for comp in self.components()[1:]:
            out[comp.label] = range(start, start + comp.dim)
            start += comp.dim
        return out

    @cached_property
    def split(self) -> tuple[Partners, Partners, Partners]:
        """The brackets restricted to m and to g_e, in local coordinates.

        Returns (mm, me, em): ``mm[x][y]`` is the record (l, s) of
        [E_x, E_y]_m = s E_l and ``me[x][y]`` that of [E_x, E_y]_{g_e}, for
        complement positions x, y; ``em[z][x]`` is that of [Z_z, E_x], for
        a g_e position z.  Only nonzero brackets are listed: each is one
        structure constant, so l is a local position and s the int 1 or -1,
        and [E_q, E_p] has the record (l, -s).  Raises ValueError if
        ``verify_grading`` finds a violation.  It runs here only when
        ``blocks`` is None: otherwise the grading is ``block_grading`` of
        its own partition, E_ij has the mask block[i] ^ block[j], and
        [E_ij, E_jk] = +-E_ik has the XOR of the two masks, so additivity
        holds by proof.  A Grading is immutable, so neither verdict can go
        stale; additivity keeps its one implementation.
        """
        bad = None if self.blocks is not None else verify_grading(self)
        if bad is not None:
            raise ValueError(f"not a grading: bracket ({bad.p},{bad.q}) lands in {bad.found}")
        # every index is in g_e or in m: its local position there, and whether it is in m
        in_m, local = [g.bits != 0 for g in self.assignment], [0] * self.algebra.dim
        for t, k in (*enumerate(self.fixed_indices), *enumerate(self.complement_indices)):
            local[k] = t
        mm: Partners = [{} for _ in self.complement_indices]
        me: Partners = [{} for _ in self.complement_indices]
        em: Partners = [{} for _ in self.fixed_indices]
        for (p, q), ((k, s),) in self.algebra.structure_constants().items():
            a, b, term = local[p], local[q], local[k]
            if in_m[p] and in_m[q]:
                half = mm if in_m[k] else me  # one component holds the term
                half[a][b], half[b][a] = (term, s), (term, -s)
            elif in_m[q]:
                em[a][b] = (term, s)
            elif in_m[p]:
                em[b][a] = (term, -s)
        return mm, me, em

    @cached_property
    def blocks(self) -> tuple[int, ...] | None:
        """The block of each point when this grading is ``block_grading`` of
        its own partition label, else None.  Labels e, a, b, c have the
        masks 0 to 3 and the product is XOR, so that grading gives E_ij the
        mask block[i] ^ block[j]; the label is first checked to partition n."""
        if self.partition is None or self.rank != 2:
            return None
        try:
            _, block = _block_map(self.algebra.n, self.partition)
        except ValueError:
            return None
        masks = (block[i] ^ block[j] for i, j in self.algebra.pairs)
        return block if all(g.bits == m for g, m in zip(self.assignment, masks)) else None

    def subblock(self, k: int) -> str | None:
        """Name of the rectangular sub-block holding basis vector k, if any;
        None inside g_e and on a grading whose ``blocks`` is None."""
        if self.blocks is None:
            return None
        i, j = self.algebra.pairs[k]  # i < j, so blocks[i] <= blocks[j]
        return _SUBBLOCK.get((self.blocks[i], self.blocks[j]))


def _block_map(n: int, partition: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``partition`` as plain ints, and the block of each point 0..n-1 for four
    consecutive blocks of those sizes: the one partition check, raising
    ValueError unless its parts are four nonnegative ints, no bool, summing to n."""
    try:
        if any(isinstance(r, bool) for r in partition):
            raise TypeError
        part = tuple(map(operator.index, partition))
    except TypeError:
        raise ValueError(f"partition parts must be integers: {tuple(partition)}") from None
    if len(part) != 4:
        raise ValueError(f"partition must have 4 parts, got {len(part)}")
    if any(r < 0 for r in part):
        raise ValueError(f"partition parts must be >= 0: {part}")
    if sum(part) != n:
        raise ValueError(f"partition {part} does not sum to n = {n}")
    return part, tuple(b for b, r in enumerate(part) for _ in range(r))


def block_grading(
    n: int, partition: Sequence[int], algebra: LieAlgebra | None = None
) -> Grading:
    """The (Z_2)^2 grading of so(n) defined by four consecutive blocks.

    ``partition`` are four nonnegative block sizes summing to n.  Blocks
    are labeled e, a, b, c in order; the degree of E_ij is the product of
    the labels of the blocks containing i and j, which makes the bracket
    additivity automatic.
    """
    part, block = _block_map(n, partition)
    alg = algebra if algebra is not None else build_so(n)
    if alg.n != n:
        raise ValueError("algebra size does not match n")
    labels = enumerate_group(2)  # e, a, b, c at masks 0 to 3: the product is XOR
    assignment = tuple(labels[block[i] ^ block[j]] for i, j in alg.pairs)
    return Grading(alg, 2, assignment, part)


def verify_grading(grading: Grading) -> GradingViolation | None:
    """Check bracket additivity on every basis pair.

    Returns None when every structure constant respects the grading, or
    the first (p, q, term) triple that does not.  Pairs with a zero bracket
    cannot fail, so only the structure constants are read, in their
    lexicographic (p, q) order.  The group product is XOR on the bit
    masks, and every element of a Grading has its rank, so each term is
    the integer test ``bits[p] ^ bits[q] == bits[term]``; group elements
    are built only for the witness.  The table is read afresh on each
    call, and no verdict is kept.
    """
    assign = grading.assignment
    bits = [g.bits for g in assign]
    for (p, q), terms in grading.algebra.structure_constants().items():
        want = bits[p] ^ bits[q]
        for k, _ in terms:
            if bits[k] != want:
                expected = GroupElement(grading.rank, want)
                return GradingViolation(p, q, k, expected.label, assign[k].label)
    return None


class HolonomySpan(NamedTuple):
    """Span of the brackets [g_x, g_x] inside g_e, per component and total.

    Vectors are in local coordinates over the g_e basis (one entry per
    index in ``fixed_indices``).
    """

    fixed_indices: tuple[int, ...]
    by_component: dict[str, list[Vector]]
    total: list[Vector]

    @property
    def total_dim(self) -> int:
        return len(self.total)


def holonomy_span(grading: Grading) -> HolonomySpan:
    """Exact span of all [X, Y] with X, Y in one non-identity component.

    These brackets lie in g_e, and each is +-1 times one basis vector of
    g_e, so a span is the set of g_e positions hit.  It is returned as
    unit vectors in position order, the canonical (RREF) basis, for each
    component's contribution and for their sum.
    """
    fixed = grading.fixed_indices
    _, me, _ = grading.split

    def units(positions: set[int]) -> list[Vector]:
        out = []
        for t in sorted(positions):
            row = [ZERO] * len(fixed)
            row[t] = ONE
            out.append(row)
        return out

    per: dict[str, list[Vector]] = {}
    pooled: set[int] = set()
    for label, carrier in grading.carrier_slices.items():
        hit = {t for a in carrier for t, _ in me[a].values()}
        per[label] = units(hit)
        pooled |= hit
    return HolonomySpan(fixed, per, units(pooled))
