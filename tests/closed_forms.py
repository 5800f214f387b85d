"""Closed forms in the block sizes for numbers the pipeline computes.

On a block grading of so(n) by the ordered partition (r_0, r_1, r_2, r_3),
E_pq with p in block b and q in block c lies in m exactly when b != c, and
a bracket of two basis vectors is nonzero exactly when they share one
index.  So each count below is a function of the partition alone: no
formula reads a structure constant or a split.  The sums run over pairs
of blocks b < c.
"""

from fractions import Fraction
from itertools import combinations, product

# the sub-blocks V_bc of m in the invariant family's order, A1, A2, B1, B2,
# C1, C2: two per component, the first of each with b = 0
SUBBLOCKS = ((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2))


def ordered_partitions(n):
    """Every (r_0, r_1, r_2, r_3) of nonnegative ints summing to n."""
    return [p for p in product(range(n + 1), repeat=4) if sum(p) == n]


def dim_m(part):
    """E_pq in m: p and q in different blocks."""
    return sum(rb * rc for rb, rc in combinations(part, 2))


def mm_records(part):
    """Ordered pairs (x, y) of m with [E_x, E_y]_m nonzero: E_pq with p in
    block b and q in block c meets E_pk and E_qk for each of the
    n - r_b - r_c points k outside both blocks."""
    n = sum(part)
    return 2 * sum(rb * rc * (n - rb - rc) for rb, rc in combinations(part, 2))


def me_records(part):
    """Ordered pairs (x, y) of m with [E_x, E_y] in g_e: E_pq meets E_kq for
    the r_b - 1 other points k of block b, and E_pk for the r_c - 1 other
    points k of block c."""
    return sum(rb * rc * (rb + rc - 2) for rb, rc in combinations(part, 2))


def em_records(part):
    """Pairs (z, x), z in g_e and x in m, with [Z_z, E_x] nonzero: each of
    the r_b (r_b - 1) / 2 vectors E_pq of g_e inside block b meets E_pk and
    E_qk for the n - r_b points k outside the block."""
    n = sum(part)
    return sum(r * (r - 1) * (n - r) for r in part)


def point_blocks(part):
    """The block of each point 0..n-1: four consecutive runs of r_b points."""
    return [b for b, r in enumerate(part) for _ in range(r)]


def sectional_counts(part):
    """(ones, quarters, zeros) among the C(dim m, 2) sectional numerators of
    the normal metric on an orthonormal basis: a plane E_x, E_y has 1 when
    [E_x, E_y] lands in g_e, 1/4 when it lands in m, and 0 otherwise, and
    each unordered pair is two ordered split records."""
    d = dim_m(part)
    ones, quarters = me_records(part) // 2, mm_records(part) // 2
    return ones, quarters, d * (d - 1) // 2 - ones - quarters


def sectional_row_sum(part, b, c):
    """Ric(E_pq, E_pq) of the normal metric, p in block b and q in block c:
    the sum of the sectional numerators of the planes through E_pq, which
    has r_b - 1 + r_c - 1 partners worth 1 and 2 (n - r_b - r_c) worth 1/4."""
    return Fraction(sum(part) + part[b] + part[c] - 4, 2)


def lorentzian_witness(part):
    """The first Lorentzian member of the invariant family among the +-1
    assignments of its diagonal parameters, -1 before +1, the off-diagonal
    ones held at 0; None when there is none.

    The parameters are, per nonempty sub-block V_bc in ``SUBBLOCKS`` order,
    t (the identity on V_bc), then u when r_b = r_c = 2, and at (1, 1, 1, 1)
    one more u after each component's first sub-block.  With every u at 0,
    t = -1 gives V_bc r_b r_c negative directions, so a Lorentzian member has
    one t at -1, on a cell with r_b = r_c = 1, and the first in scan order
    puts it on the first such t."""
    values, flip = [], None
    for b, c in SUBBLOCKS:
        if part[b] * part[c]:
            if flip is None and part[b] == part[c] == 1:
                flip = len(values)
            values.append(1)
        if part[b] == part[c] == 2:
            values.append(0)
        if tuple(part) == (1, 1, 1, 1) and b == 0:
            values.append(0)
    if flip is None:
        return None
    values[flip] = -1
    return values


def beta_char_poly(part, values, mask):
    """The characteristic polynomial of beta = kappa B^-1, kappa = -2(n - 2),
    on the component of mask 1, 2 or 3 (a, b or c; V_bc lies in mask
    b ^ c) of the family member at ``values``, in the order of
    ``lorentzian_witness``, as [1, a_1, ..., a_d]; ZeroDivisionError when
    the member is degenerate there.

    B is t on V_bc, plus u on the pairs of a 2 x 2 sub-block, where its
    two blocks [[t, -u], [-u, t]] and [[t, u], [u, t]] have the eigenvalues
    t + u and t - u; so each sub-block gives (x - kappa/t)^(r_b r_c), or
    (x - kappa/(t + u))^2 (x - kappa/(t - u))^2.  At (1, 1, 1, 1) u joins
    the component's two cells into [[t_1, u], [u, t_2]], and beta has trace
    kappa (t_1 + t_2) / det and determinant kappa^2 / det, det = t_1 t_2 - u^2."""
    kappa = Fraction(-2 * (sum(part) - 2))
    all_ones = tuple(part) == (1, 1, 1, 1)
    params, roots, joined = iter(values), [], []
    for b, c in SUBBLOCKS:
        cells = part[b] * part[c]
        t = next(params) if cells else None
        u = next(params) if part[b] == part[c] == 2 or (all_ones and b == 0) else None
        if b ^ c != mask or not cells:
            continue
        if all_ones:
            joined.append((t, u))
        elif u is None:
            roots += [kappa / t] * cells
        else:
            roots += [kappa / (t + u)] * 2 + [kappa / (t - u)] * 2
    if joined:
        (t1, u), (t2, _) = joined
        det = t1 * t2 - u * u
        return [Fraction(1), -kappa * (t1 + t2) / det, kappa * kappa / det]
    poly = [Fraction(1)]
    for root in roots:
        poly = [a - root * b for a, b in zip(poly + [0], [0] + poly)]
    return poly
