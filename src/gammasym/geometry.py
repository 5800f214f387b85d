"""Connections, curvature and geodesics for a graded so(n).

The canonical connection of the reductive split g = g_e + m has torsion
-[X,Y]_m and curvature -[[X,Y]_{g_e}, Z]; the associated torsion-free
connection adds the 1/4 and 1/2 bracket corrections.  All of that is
exact rational arithmetic on coefficient vectors.

Geodesics through the origin are matrix curves t -> exp(tE).  For the
generators occurring here E^3 = -E, so the exponential collapses to

    exp(tE) = I + E^2 + sin(t) E - cos(t) E^2,

a closed 2*pi-periodic curve; ``matrix_exp_numeric`` is the independent
floating-point oracle used to cross-check it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .grading import Grading
from .linalg import Matrix, SymmetricForm, Vector, ZERO, frac, mat_identity, mat_mul
from .metrics import is_adapted

if TYPE_CHECKING:  # numpy and scipy load only where an ndarray is asked for
    import numpy as np

# spectral-norm threshold above which the numeric oracle applies its own
# scaling-and-squaring on top of expm, to keep 1e-12 agreement honest
_NORM_LIMIT = 32.0


def _require_complement(grading: Grading, vec: Sequence, who: str) -> Vector:
    v = [frac(c) for c in vec]
    if len(v) != grading.algebra.dim:
        raise ValueError(f"{who}: expected a coefficient vector of length {grading.algebra.dim}")
    if not grading.in_complement(v):
        raise ValueError(f"{who}: vector has support outside the complement m")
    return v


def canonical_torsion(grading: Grading, x: Sequence, y: Sequence) -> Vector:
    """Torsion T(X, Y) = -[X, Y]_m of the canonical connection."""
    vx = _require_complement(grading, x, "canonical_torsion")
    vy = _require_complement(grading, y, "canonical_torsion")
    b = grading.algebra.bracket(vx, vy)
    return [-c for c in grading.project_complement(b)]


def canonical_curvature(grading: Grading, x: Sequence, y: Sequence, z: Sequence) -> Vector:
    """Curvature R(X, Y)Z = -[[X, Y]_{g_e}, Z] of the canonical connection."""
    vx = _require_complement(grading, x, "canonical_curvature")
    vy = _require_complement(grading, y, "canonical_curvature")
    vz = _require_complement(grading, z, "canonical_curvature")
    alg = grading.algebra
    he = grading.project_fixed(alg.bracket(vx, vy))
    return [-c for c in alg.bracket(he, vz)]


def torsionfree_curvature(grading: Grading, x: Sequence, y: Sequence, z: Sequence) -> Vector:
    """Curvature of the torsion-free connection sharing the canonical geodesics.

    R(X,Y)Z = 1/4 [X,[Y,Z]_m]_m - 1/4 [Y,[X,Z]_m]_m - 1/2 [[X,Y]_m, Z]_m
              - [[X,Y]_{g_e}, Z]
    """
    vx = _require_complement(grading, x, "torsionfree_curvature")
    vy = _require_complement(grading, y, "torsionfree_curvature")
    vz = _require_complement(grading, z, "torsionfree_curvature")
    alg = grading.algebra
    q = Fraction(1, 4)
    h = Fraction(1, 2)
    byz = grading.project_complement(alg.bracket(vy, vz))
    bxz = grading.project_complement(alg.bracket(vx, vz))
    bxy = alg.bracket(vx, vy)
    bxy_m = grading.project_complement(bxy)
    bxy_e = grading.project_fixed(bxy)
    t1 = grading.project_complement(alg.bracket(vx, byz))
    t2 = grading.project_complement(alg.bracket(vy, bxz))
    t3 = grading.project_complement(alg.bracket(bxy_m, vz))
    t4 = alg.bracket(bxy_e, vz)
    return [q * a - q * b - h * c - d for a, b, c, d in zip(t1, t2, t3, t4)]


@dataclass(frozen=True)
class CurvatureTable:
    """Sectional numerators B(R(E_i, E_j)E_j, E_i) over the m basis."""

    m_indices: tuple[int, ...]
    labels: tuple[str, ...]
    entries: dict[tuple[int, int], Fraction]

    def entry(self, i: int, j: int) -> Fraction:
        if i == j:
            return ZERO
        key = (i, j) if i < j else (j, i)
        return self.entries[key]

    def all_nonnegative(self) -> bool:
        return all(v >= 0 for v in self.entries.values())

    def csv_rows(self) -> list[tuple[int, int, int, int]]:
        """(i, j, numerator, denominator) rows, indices 1-based."""
        out = []
        for (i, j), v in sorted(self.entries.items()):
            out.append((i + 1, j + 1, v.numerator, v.denominator))
        return out

    def text_lines(self) -> list[str]:
        named = []
        for (i, j), v in sorted(self.entries.items()):
            if max(i, j) < 9:
                name = f"R_{i + 1}{j + 1}{j + 1}{i + 1}"
            else:
                name = f"R({i + 1},{j + 1},{j + 1},{i + 1})"
            named.append((name, v))
        width = max((len(name) for name, _ in named), default=0)
        return [f"{name:<{width}} = {v}" for name, v in named]


def sectional_table(grading: Grading, b_m: SymmetricForm, b_e: SymmetricForm) -> CurvatureTable:
    """Sectional curvature numerators for an orthonormal complement basis.

    With B the adapted metric whose matrix on m is the identity, the
    numerator for the plane spanned by basis vectors E_i, E_j is

        1/4 |[E_i, E_j]_m|^2  +  |[E_i, E_j]_{g_e}|^2_{B_e},

    both norms exact.  ``b_m`` must be the identity in carrier
    coordinates (that is what makes the basis orthonormal).
    """
    carrier = grading.complement_indices
    fixed = grading.fixed_indices
    if b_m.dim != len(carrier):
        raise ValueError("b_m dimension does not match the complement")
    if not b_m.is_identity():
        raise ValueError("sectional table requires an orthonormal basis: b_m must be the identity")
    if b_e.dim != len(fixed):
        raise ValueError("b_e dimension does not match the fixed part")
    mm, me, _ = grading.split
    q = Fraction(1, 4)
    entries: dict[tuple[int, int], Fraction] = {}
    for i in range(len(carrier)):
        for j in range(i + 1, len(carrier)):
            val = ZERO
            for l, c in mm[i].get(j, ()):
                val += q * c * c * b_m.entry(l, l)
            for t, c in me[i].get(j, ()):
                val += c * c * b_e.entry(t, t)
            entries[(i, j)] = val
    labels = tuple(grading.algebra.basis_label(k) for k in carrier)
    return CurvatureTable(tuple(carrier), labels, entries)


@dataclass(frozen=True)
class AmbroseSingerReport:
    """Checks on the difference tensor T(X, Y) = 1/2 [X, Y]_m."""

    contraction_vanishes: bool
    totally_skew: bool


def ambrose_singer_check(grading: Grading, b_m: SymmetricForm) -> AmbroseSingerReport:
    """Exact checks of the two tensor identities used with T = 1/2 [., .]_m.

    (i) the metric contraction sum_i B(T(E_i, X), E_i) vanishes for every
    X in m;  (ii) (X, Y, Z) -> B(T(X, Y), Z) is alternating.
    """
    if b_m.dim != len(grading.complement_indices):
        raise ValueError("b_m dimension does not match the complement")
    mm, _, _ = grading.split
    half = Fraction(1, 2)
    contraction = True
    for x, partners in enumerate(mm):
        # T(E_i, X) = -1/2 [E_x, E_i]_m
        total = ZERO
        for i, terms in partners.items():
            for l, c in terms:
                total -= half * c * b_m.entry(l, i)
        if total:
            contraction = False
            break
    # B(T(X, Y), Z) is alternating exactly when B satisfies the
    # natural-reductivity identity (Tricerri-Vanhecke)
    return AmbroseSingerReport(contraction, is_adapted(b_m, grading))


# ---------------------------------------------------------------------------
# Geodesic matrix curves.
# ---------------------------------------------------------------------------


def _check_skew(e: Matrix) -> None:
    n = len(e)
    for row in e:
        if len(row) != n:
            raise ValueError("generator must be square")
    for i in range(n):
        if e[i][i]:
            raise ValueError("generator must have zero diagonal")
        for j in range(i + 1, n):
            if e[i][j] != -e[j][i]:
                raise ValueError("generator must be skew-symmetric")


@dataclass(frozen=True)
class GeodesicCurve:
    """The curve exp(tE) for a generator with E^3 = -E.

    Stored as the three exact constant matrices of
    exp(tE) = (I + E^2) + sin(t) E + cos(t) (-E^2).
    """

    generator: tuple[tuple[Fraction, ...], ...]
    constant_part: tuple[tuple[Fraction, ...], ...]
    sin_part: tuple[tuple[Fraction, ...], ...]
    cos_part: tuple[tuple[Fraction, ...], ...]

    @property
    def size(self) -> int:
        return len(self.generator)

    def values(self, t: float) -> list[list[float]]:
        """exp(tE) as rows of plain floats, with no numpy import."""
        s, c = math.sin(t), math.cos(t)
        return [
            [float(a) + s * float(b) + c * float(d) for a, b, d in zip(*rows)]
            for rows in zip(self.constant_part, self.sin_part, self.cos_part)
        ]

    def at(self, t: float) -> np.ndarray:
        import numpy as np

        return np.array(self.values(t))

    def period(self) -> float:
        return 2.0 * math.pi


def geodesic_curve(e: Sequence[Sequence]) -> GeodesicCurve:
    """Build the closed-form curve; requires E skew with E^3 = -E exactly."""
    em = [[frac(x) for x in row] for row in e]
    _check_skew(em)
    e2 = mat_mul(em, em)
    e3 = mat_mul(e2, em)
    if any(e3[i][j] != -em[i][j] for i in range(len(em)) for j in range(len(em))):
        raise ValueError(
            "generator does not satisfy E^3 = -E; use matrix_exp_numeric instead"
        )
    ident = mat_identity(len(em))
    const = [[ident[i][j] + e2[i][j] for j in range(len(em))] for i in range(len(em))]
    neg_e2 = [[-x for x in row] for row in e2]
    freeze = lambda m: tuple(tuple(row) for row in m)
    return GeodesicCurve(freeze(em), freeze(const), freeze(em), freeze(neg_e2))


def geodesic_closed_form(e: Sequence[Sequence], t: float) -> np.ndarray:
    """Value of the closed-form exponential curve at parameter t."""
    return geodesic_curve(e).at(t)


def matrix_exp_numeric(x: Sequence[Sequence], t: float = 1.0) -> np.ndarray:
    """Floating-point exp(tX) oracle, independent of the closed form.

    Delegates to a scaling-and-squaring Pade exponential; if the spectral
    norm of tX exceeds 32 the argument is halved further and the result
    squared back, keeping the error well under the 1e-12 budget used in
    the cross-checks.
    """
    import numpy as np
    from scipy.linalg import expm

    a = np.array([[float(v) for v in row] for row in x], dtype=float) * float(t)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    nrm = np.linalg.norm(a, 2)
    squarings = 0
    if nrm > _NORM_LIMIT:
        squarings = int(math.ceil(math.log2(nrm / _NORM_LIMIT)))
        a = a / (2.0**squarings)
    r = expm(a)
    for _ in range(squarings):
        r = r @ r
    return r
