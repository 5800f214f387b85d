"""Closed forms in the block sizes for numbers the pipeline computes.

On a block grading of so(n) by the ordered partition (r_0, r_1, r_2, r_3),
E_pq with p in block b and q in block c lies in m exactly when b != c, and
a bracket of two basis vectors is nonzero exactly when they share one
index.  So each count below is a function of the partition alone: no
formula reads a structure constant or a split.  The sums run over pairs
of blocks b < c.
"""

from itertools import combinations, product


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
