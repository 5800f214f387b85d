"""Connections, curvature and geodesics for a graded so(n).

The canonical connection of the reductive split g = g_e + m has torsion
-[X,Y]_m and curvature -[[X,Y]_{g_e}, Z]; the associated torsion-free
connection adds the 1/4 and 1/2 bracket corrections.  Every restricted
bracket is read from the partner lists of ``Grading.split``, so the
grading must verify; vectors enter and leave as dim-length coefficient
vectors, and all arithmetic is exact.

Geodesics through the origin are matrix curves t -> exp(tE).  For the
generators occurring here E^3 = -E, so the exponential collapses to

    exp(tE) = I + E^2 + sin(t) E - cos(t) E^2,

a closed 2*pi-periodic curve; ``matrix_exp_numeric`` is the independent
floating-point oracle used to cross-check it.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .grading import Grading, Partners
from .linalg import (
    ONE,
    SparseRows,
    SymmetricForm,
    Vector,
    ZERO,
    frac,
    sparse_mul,
    zeros,
)
from .metrics import is_adapted

if TYPE_CHECKING:  # numpy and scipy load only where an ndarray is asked for
    import numpy as np

# a vector of m or of g_e as its nonzero coefficients, keyed by local position
Local = dict[int, Fraction]
Rows = tuple[tuple[Fraction, ...], ...]
QUARTER = Fraction(1, 4)


def _local(grading: Grading, vec: Sequence, who: str) -> Local:
    v = [frac(c) for c in vec]
    if len(v) != grading.algebra.dim:
        raise ValueError(f"{who}: expected a coefficient vector of length {grading.algebra.dim}")
    local = {t: v[k] for t, k in enumerate(grading.complement_indices) if v[k]}
    if len(local) != sum(1 for c in v if c):
        raise ValueError(f"{who}: vector has support outside the complement m")
    return local


def _apply(partners: Partners, x: Local, y: Local) -> Local:
    """The restricted bracket of two sparse local vectors, from its partner lists."""
    out: Local = {}
    for a, ca in x.items():
        row = partners[a]
        for b, cb in y.items():
            if b in row:
                l, s = row[b]
                out[l] = out.get(l, ZERO) + ca * cb * s
    return out


def _combine(grading: Grading, *terms: tuple[Fraction, Local]) -> Vector:
    """The sum of coef * v over the terms, as a dim-length coefficient vector."""
    out = zeros(grading.algebra.dim)
    for coef, v in terms:
        for l, c in v.items():
            out[grading.complement_indices[l]] += coef * c
    return out


def canonical_torsion(grading: Grading, x: Sequence, y: Sequence) -> Vector:
    """Torsion T(X, Y) = -[X, Y]_m of the canonical connection."""
    vx, vy = (_local(grading, v, "canonical_torsion") for v in (x, y))
    mm, _, _ = grading.split
    return _combine(grading, (-ONE, _apply(mm, vx, vy)))


def canonical_curvature(grading: Grading, x: Sequence, y: Sequence, z: Sequence) -> Vector:
    """Curvature R(X, Y)Z = -[[X, Y]_{g_e}, Z] of the canonical connection."""
    vx, vy, vz = (_local(grading, v, "canonical_curvature") for v in (x, y, z))
    _, me, em = grading.split
    return _combine(grading, (-ONE, _apply(em, _apply(me, vx, vy), vz)))


def torsionfree_curvature(grading: Grading, x: Sequence, y: Sequence, z: Sequence) -> Vector:
    """Curvature of the torsion-free connection sharing the canonical geodesics.

    R(X,Y)Z = 1/4 [X,[Y,Z]_m]_m - 1/4 [Y,[X,Z]_m]_m - 1/2 [[X,Y]_m, Z]_m
              - [[X,Y]_{g_e}, Z]
    """
    vx, vy, vz = (_local(grading, v, "torsionfree_curvature") for v in (x, y, z))
    mm, me, em = grading.split
    return _combine(
        grading,
        (QUARTER, _apply(mm, vx, _apply(mm, vy, vz))),
        (-QUARTER, _apply(mm, vy, _apply(mm, vx, vz))),
        (Fraction(-1, 2), _apply(mm, _apply(mm, vx, vy), vz)),
        (-ONE, _apply(em, _apply(me, vx, vy), vz)),
    )


class CurvatureTable(NamedTuple):
    """Sectional numerators B(R(E_i, E_j)E_j, E_i) over the m basis, read on
    demand off the partner lists ``mm`` and ``me`` of ``Grading.split``;
    ``items`` yields the pairs i < j in (i, j) order with their values, and
    ``serialize`` writes every format of the table from it."""

    labels: tuple[str, ...]
    mm: Partners
    me: Partners

    def entry(self, i: int, j: int) -> Fraction:
        return QUARTER if j in self.mm[i] else ONE if j in self.me[i] else ZERO

    def items(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        for i, (in_m, in_e) in enumerate(zip(self.mm, self.me)):
            for j in range(i + 1, len(self.labels)):
                yield (i, j), QUARTER if j in in_m else ONE if j in in_e else ZERO

    def all_nonnegative(self) -> bool:
        # every value ``items`` yields is QUARTER, ONE or ZERO
        return True

    def csv_rows(self) -> list[tuple[int, int, int, int]]:
        """(i, j, numerator, denominator) rows, indices 1-based."""
        return [(i + 1, j + 1, v.numerator, v.denominator) for (i, j), v in self.items()]


def sectional_table(grading: Grading, b_m: SymmetricForm, b_e: SymmetricForm) -> CurvatureTable:
    """Sectional curvature numerators of the normal metric, for an
    orthonormal complement basis.

    The normal metric is the identity on m and on g_e in carrier
    coordinates, so ``b_m`` and ``b_e`` must both be the identity: the
    curvature of G/H has no term in a form on g_e (Besse, Einstein
    Manifolds, (7.30)), so with any other ``b_e`` the formula below is no
    curvature.  The numerator for the plane spanned by E_i, E_j is

        1/4 |[E_i, E_j]_m|^2  +  |[E_i, E_j]_{g_e}|^2,

    and [E_i, E_j] is 0 or +-1 times one basis vector, so it is 1/4 when
    the bracket lands in m, 1 when it lands in g_e, and 0 otherwise.
    """
    carrier = grading.complement_indices
    if b_m.dim != len(carrier):
        raise ValueError("b_m dimension does not match the complement")
    if not b_m.is_identity():
        raise ValueError("sectional table requires an orthonormal basis: b_m must be the identity")
    if b_e.dim != len(grading.fixed_indices):
        raise ValueError("b_e dimension does not match the fixed part")
    if not b_e.is_identity():
        raise ValueError("sectional table is the normal metric's: b_e must be the identity")
    mm, me, _ = grading.split
    return CurvatureTable(tuple(grading.algebra.basis_label(k) for k in carrier), mm, me)


class AmbroseSingerReport(NamedTuple):
    """Checks on the difference tensor T(X, Y) = 1/2 [X, Y]_m.

    ``contraction_vanishes`` holds for every symmetric B and is reported
    as True; ``totally_skew`` is the verdict that depends on B.
    """

    contraction_vanishes: bool
    totally_skew: bool


def ambrose_singer_check(grading: Grading, b_m: SymmetricForm) -> AmbroseSingerReport:
    """Exact checks of the two tensor identities used with T = 1/2 [., .]_m.

    (i) the metric contraction sum_i B(T(E_i, X), E_i) vanishes for every
    X in m: it is the Frobenius product of the symmetric B with the m-block
    of ad(X), which is skew on the E_ij basis because that basis is
    orthogonal for the Killing form, so it vanishes for every B;  (ii)
    (X, Y, Z) -> B(T(X, Y), Z) is alternating exactly when B satisfies the
    natural-reductivity identity (Tricerri-Vanhecke).
    """
    if b_m.dim != len(grading.complement_indices):
        raise ValueError("b_m dimension does not match the complement")
    return AmbroseSingerReport(True, is_adapted(b_m, grading))


# ---------------------------------------------------------------------------
# Geodesic matrix curves.
# ---------------------------------------------------------------------------


def _skew_matrix(e: Sequence[Sequence]) -> tuple[Rows, SparseRows]:
    """``e`` as an exact matrix and as its nonzero entries, checked
    nonempty, square and skew.

    Entry pairs that are both zero are skew, so only nonzero entries are
    compared.  A generator with several faults is named by its first bad
    position (i, j), i <= j, in row order: the diagonal, then the pairs.
    """
    n = len(e)
    if not n:
        raise ValueError("generator must be a nonempty matrix")
    if not all(hasattr(row, "__len__") and len(row) == n for row in e):
        raise ValueError("generator must be square")
    em = tuple(tuple(map(frac, row)) for row in e)
    # the shared ZERO is passed over without calling Fraction.__bool__
    rows = [{j: x for j, x in enumerate(row) if x is not ZERO and x} for row in em]
    bad = [
        (min(i, j), max(i, j))
        for i, row in enumerate(rows)
        for j, x in row.items()
        if i == j or rows[j].get(i, ZERO) != -x
    ]
    if bad:
        i, j = min(bad)
        raise ValueError(
            "generator must have zero diagonal" if i == j else "generator must be skew-symmetric"
        )
    return em, rows


class _GeodesicCurve(NamedTuple):
    generator: Rows
    constant_part: Rows
    sin_part: Rows
    cos_part: Rows


class GeodesicCurve(_GeodesicCurve):
    """The curve exp(tE) for a generator with E^3 = -E.

    Stored as the three exact constant matrices of
    exp(tE) = (I + E^2) + sin(t) E + cos(t) (-E^2).
    """

    @property
    def size(self) -> int:
        return len(self.generator)

    @cached_property
    def _support(self) -> list[tuple[int, int, float, float, float]]:
        """(i, j, a, b, d) as floats wherever E or E^2 is nonzero, skipping
        zero rows whole; elsewhere a is the identity's and b = d = 0."""
        zero = (ZERO,) * self.size
        return [
            (i, j, float(a), float(b), float(d))
            for i, (c0, cs, cc) in enumerate(zip(self.constant_part, self.sin_part, self.cos_part))
            if cs != zero or cc != zero
            for j, (a, b, d) in enumerate(zip(c0, cs, cc))
            if b or d
        ]

    def values(self, t: float) -> list[list[float]]:
        """exp(tE) as rows of plain floats, with no numpy import, bit for bit the
        dense a + s b + c d: read on the support, at a = 1 or 0, b = d = 0 elsewhere."""
        n, s, c = self.size, math.sin(t), math.cos(t)
        off, on = (0.0 + s * 0.0) + c * 0.0, (1.0 + s * 0.0) + c * 0.0
        out = [[off] * n for _ in range(n)]
        for i, row in enumerate(out):
            row[i] = on
        for i, j, a, b, d in self._support:
            out[i][j] = a + s * b + c * d
        return out

    def at(self, t: float) -> np.ndarray:
        import numpy as np

        return np.array(self.values(t))

    def period(self) -> float:
        return 2.0 * math.pi


def geodesic_curve(e: Sequence[Sequence]) -> GeodesicCurve:
    """Build the closed-form curve; requires E skew with E^3 = -E exactly.

    -E^2 and (-E^2) E, which must equal E, are formed from the nonzero
    entries of E alone, and I + E^2 and -E^2 are filled from those of -E^2.
    """
    em, nonzero = _skew_matrix(e)
    neg_e2 = [{j: -x for j, x in row.items()} for row in sparse_mul(nonzero, nonzero)]
    if sparse_mul(neg_e2, nonzero) != nonzero:
        raise ValueError("generator does not satisfy E^3 = -E; use matrix_exp_numeric instead")
    const, cos_part = [], []
    for i, row in enumerate(neg_e2):
        c, d = [ZERO] * len(em), [ZERO] * len(em)
        c[i] = ONE
        for j, x in row.items():
            c[j], d[j] = c[j] - x, x
        const.append(tuple(c))
        cos_part.append(tuple(d))
    return GeodesicCurve(em, tuple(const), em, tuple(cos_part))


def matrix_exp_numeric(x: Sequence[Sequence], t: float = 1.0) -> np.ndarray:
    """Floating-point exp(tX) oracle, independent of the closed form:
    scipy's scaling-and-squaring Pade ``expm`` of tX, after a check that X
    is square and nonempty; only the nonzero entries of X are converted."""
    import numpy as np
    from scipy.linalg import expm

    n = len(x)
    widths = {len(row) if hasattr(row, "__len__") else "scalar" for row in x}
    if not n or widths != {n}:  # described without numpy, which refuses ragged input
        lengths = ", ".join(map(str, sorted(widths, key=str))) or "none"
        raise ValueError(f"matrix must be square and nonempty, got {n} rows of lengths {lengths}")
    a = np.zeros((n, n))
    for i, row in enumerate(x):
        for j, v in enumerate(row):
            if v is not ZERO and v != 0:  # ZERO itself skips Fraction.__eq__
                a[i, j] = v
    return expm(a * float(t))
