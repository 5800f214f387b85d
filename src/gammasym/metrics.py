"""Invariant inner products on the tangent complement of a graded so(n).

``invariant_family`` gives, in closed form, a basis of all symmetric
bilinear forms B on m = sum of the non-identity components such that

    B([Z, X], Y) + B(X, [Z, Y]) = 0   for all Z in g_e,

with distinct components B-orthogonal; the parameters have readable
names (t_* for directions touching the diagonal, u_* for purely
off-diagonal ones).

``naturally_reductive_subfamily`` gives, also in closed form, the
members with B([X, Y]_m, Z) + B([X, Z]_m, Y) = 0 on all of m, which is
exactly the condition for the torsion-free canonical connection to be
the Levi-Civita connection of the metric; ``is_adapted`` checks that
condition on any one form.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from math import lcm
from typing import Iterable, Iterator, NamedTuple, Sequence

from .grading import _SUBBLOCK, Grading
from .groups import GroupElement, enumerate_group
from .linalg import (
    ONE,
    SparseRows,
    SymmetricForm,
    Vector,
    ZERO,
    congruence_signature,
    char_poly,
    linear_combination,
    solve_matrix,
    support_components,
    zeros,
)

class FormFamily(NamedTuple):
    """A basis of invariant symmetric forms on m, in carrier coordinates.

    ``carrier`` lists the algebra basis indices of m, component by
    component; every SymmetricForm in ``basis`` lives on these
    coordinates.  ``parent_coords`` is set on refined families and gives
    each basis form as a coefficient vector over the parent's basis.
    """

    grading: Grading
    carrier: tuple[int, ...]
    names: list[str]
    supports: list[str]
    basis: list[SymmetricForm]
    parent: "FormFamily | None" = None
    parent_coords: list[Vector] | None = None

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def diagonal_parameters(self) -> list[int]:
        """Positions of the basis forms with diagonal support."""
        return [k for k, s in enumerate(self.supports) if ":diag:" in s]


def invariant_family(grading: Grading) -> FormFamily:
    """All ad(g_e)-invariant symmetric forms on m, components orthogonal.

    The family has a closed form.  For the block grading of (r0, r1, r2,
    r3), m is the sum of the sub-blocks V_bc = span{E_pq : p in block b,
    q in block c}, b < c, and V_bc is R^{r_b} (x) R^{r_c}.  G_e = prod
    SO(r_b) is connected, so ad(g_e)-invariance is G_e-invariance, and

        Sym^2(V_bc)^{G_e} = Sym^2(R^{r_b})^SO (x) Sym^2(R^{r_c})^SO
                            + Lambda^2(R^{r_b})^SO (x) Lambda^2(R^{r_c})^SO:

    the identity, plus omega (x) omega when r_b = r_c = 2.  The two
    sub-blocks of one component pair up only when every factor R^{r_b} of
    their tensor product has SO(r_b)-fixed vectors, that is when all four
    blocks have one row: (1, 1, 1, 1).

    The basis is emitted component by component, sub-blocks in
    ``_SUBBLOCK`` order: t_X, the identity on each nonempty V_bc; u_X when
    r_b = r_c = 2, -1 at (E_p0q0, E_p1q1) and +1 at (E_p0q1, E_p1q0); and
    for (1, 1, 1, 1) one u per component joining its two cells, named
    after the first sub-block.  Each form is scaled to 1 on its last cell,
    the canonical (RREF nullspace) basis of the invariance system.  The
    dimension is the number of nonempty sub-blocks, plus one per 2 x 2
    sub-block, plus 3 for (1, 1, 1, 1).  Gradings whose ``blocks`` is
    None raise ValueError, "not a grading" first when they do not verify.

    The carrier, names, supports and basis forms are built once per
    grading and kept in its ``__dict__``, beside its cached properties: a
    Grading and a SymmetricForm are immutable, and every call returns a
    new FormFamily with new lists, so no caller's edit reaches them.
    """
    parts = vars(grading).get("_invariant_family")
    if parts is None:
        parts = vars(grading)["_invariant_family"] = _invariant_parts(grading)
    carrier, names, supports, basis = parts
    return FormFamily(grading, carrier, list(names), list(supports), list(basis))


def _invariant_parts(grading: Grading) -> tuple[tuple[int, ...], tuple, tuple, tuple]:
    """The closed form of ``invariant_family``: the carrier, and the names,
    supports and basis forms as tuples."""
    if grading.blocks is None:
        grading.split  # raises "not a grading" when brackets break additivity
        raise ValueError("the invariant family needs a block grading, block_grading(n, partition)")
    part = tuple(grading.partition)
    carrier = grading.complement_indices
    cells: dict[str, list[int]] = {sub: [] for sub in _SUBBLOCK.values()}
    for x, k in enumerate(carrier):
        cells[grading.subblock(k)].append(x)
    labels = enumerate_group(2)
    names: list[str] = []
    supports: list[str] = []
    basis: list[SymmetricForm] = []
    for (b, c), sub in _SUBBLOCK.items():
        label = labels[b ^ c].label  # masks 0 to 3 in e, a, b, c order: the product is XOR
        forms = []
        if cells[sub]:
            forms.append(("t_", "diag", [(x, x, ONE) for x in cells[sub]]))
        if part[b] == part[c] == 2:
            x00, x01, x10, x11 = cells[sub]
            forms.append(("u_", "offdiag", [(x00, x11, -ONE), (x01, x10, ONE)]))
        if part == (1, 1, 1, 1) and b == 0:
            partner = _SUBBLOCK[tuple(sorted({1, 2, 3} - {c}))]
            forms.append(("u_", "offdiag", [(cells[sub][0], cells[partner][0], ONE)]))
        for stem, kind, upper in forms:
            names.append(stem + sub)
            supports.append(f"{label}:{kind}:{sub}")
            basis.append(SymmetricForm(len(carrier), tuple(upper)))
    return carrier, tuple(names), tuple(supports), tuple(basis)


def evaluate_family(family: FormFamily, values: Sequence) -> SymmetricForm:
    """The member of the family at the given rational parameter values."""
    if len(values) != family.dimension:
        raise ValueError(
            f"expected {family.dimension} parameter values, got {len(values)}"
        )
    return linear_combination(len(family.carrier), values, family.basis)


def _noncommuting_entry(
    records: Sequence[dict[int, tuple[int, int]]], rows: SparseRows
) -> tuple[int, int, int] | None:
    """The first (k, r, x) where P_k M and M P_k differ at (r, x), or None.

    This is the contract of both commutation checks, this one and
    ``_first_mismatch``: P_k is the signed partial permutation with P_k e_x
    = s e_r for each record x: (r, s) of records[k], M is symmetric, k is
    the first P_k that M does not commute with, and (r, x) the least entry,
    row-major, where the two products differ.  Here rows[i] maps j to M_ij
    for the nonzero entries of row i, as ``SymmetricForm.sparse_rows``
    does; rows covers every index the records name.  P_k is injective, so
    (P_k M)_rj = s M_xj and (M P_k)_ix = s M_ir = s M_ri are each one
    signed entry, negated when s = -1: the two sides are compared as
    dicts, with no sums.
    """
    for k, recs in enumerate(records):
        left, right = {}, {}  # P_k M and M P_k
        for x, (r, s) in recs.items():
            for j, v in rows[x].items():
                left[r, j] = v if s > 0 else -v
            for i, v in rows[r].items():
                right[i, x] = v if s > 0 else -v
        if left != right:
            return k, *min(e for e in left.keys() | right.keys() if left.get(e) != right.get(e))
    return None


def _first_mismatch(
    records: Sequence[dict[int, tuple[int, int]]], labels: Sequence
) -> tuple[int, int, int] | None:
    """``_noncommuting_entry``'s contract for a diagonal M, read off labels.

    labels[i] == labels[j] exactly when M_i = M_j.  Column x of P_k M is s
    M_x e_r and that of M P_k is s M_r e_r, so the two differ exactly at
    the (r, x) with M_x != M_r.
    """
    for k, recs in enumerate(records):
        for x, (r, _) in recs.items():
            if labels[x] != labels[r]:
                return k, *min((r, x) for x, (r, _) in recs.items() if labels[x] != labels[r])
    return None


def naturally_reductive_subfamily(family: FormFamily) -> FormFamily:
    """Members whose torsion-free canonical connection is metric-derived.

    These are the members with B([X,Y]_m, Z) + B([X,Z]_m, Y) = 0 on all of
    m, and on the invariant family of a block grading they have a closed
    form (D'Atri and Ziller, Mem. AMS 215, 1979):

    - with at most two nonempty blocks m is one component g_gamma, so
      [m, m] lies in g_(gamma + gamma) = g_e and [X, Y]_m = 0: every member
      qualifies, and the space is symmetric;
    - otherwise [V_bc, V_cd] = V_bd for sub-blocks that share a block, and
      the residuals of such triples tie every t to one value and force
      every u to 0: only the normal metric, the identity on m, qualifies;
    - the exception is (1, 1, 1, 1), where m = so(4) = so(3) + so(3)
      carries a second bi-invariant form, u_A1 - u_B1 + u_C1.

    A refined family qualifies whole.  The result carries ``parent_coords``,
    each refined basis form as a coefficient vector over the parent basis,
    in the canonical (RREF nullspace) order; each form's support is that of
    its first nonzero parameter.  A family without a parent must be the invariant
    family of its grading, or ValueError is raised.
    """
    if family.parent is None and family.basis != invariant_family(family.grading).basis:
        raise ValueError("the closed-form refinement needs the invariant family of its grading")
    nf = family.dimension
    if family.parent is not None or sum(map(bool, family.grading.partition)) <= 2:
        coords = [[ONE if j == k else ZERO for j in range(nf)] for k in range(nf)]
        basis = list(family.basis)
    else:
        diag = family.diagonal_parameters()
        coords = [[ONE if k in diag else ZERO for k in range(nf)]]
        if tuple(family.grading.partition) == (1, 1, 1, 1):
            off = [k for k in range(nf) if k not in diag]
            coords.insert(0, [dict(zip(off, (ONE, -ONE, ONE))).get(k, ZERO) for k in range(nf)])
        basis = [evaluate_family(family, c) for c in coords]
    supports = [family.supports[next(k for k, v in enumerate(c) if v)] for c in coords]
    names = [f"s{k + 1}" for k in range(len(basis))]
    return FormFamily(
        family.grading, family.carrier, names, supports, basis, parent=family, parent_coords=coords
    )


def is_adapted(form: SymmetricForm, grading: Grading) -> bool:
    """Whether the form satisfies the natural-reductivity identity on m.

    Let A_x = ad_m(E_x), the signed partial permutation with A_x e_y = s e_l
    for each record ``mm[x][y]`` = (l, s).  B([E_x, E_y]_m, E_z) is
    (A_x^T B)_yz, so the identity at X = E_x reads A_x^T B + B A_x = 0; and
    ad(E_x) is skew on the Killing-orthonormal E basis (c_xy^l = -c_xl^y),
    so A_x^T = -A_x and the identity is B A_x = A_x B.  All of mm goes to
    one commutation check on the form's own entries: ``_first_mismatch``
    on their ``as_integer_ratio()`` when the form is diagonal, else
    ``_noncommuting_entry`` on ``form.sparse_rows``.  A diagonal form whose
    labels are all equal is c I, zero included, which commutes with every
    A_x: it is adapted with no record read.
    """
    if form.dim != len(grading.complement_indices):
        raise ValueError("form dimension does not match the complement")
    mm, _, _ = grading.split  # raises "not a grading" before any verdict
    entries = form.nonzero_entries
    if any(i != j for i, j, _ in entries):
        return _noncommuting_entry(mm, form.sparse_rows) is None
    labels = [(0, 1)] * form.dim
    for i, _, v in entries:
        labels[i] = v.as_integer_ratio()
    return len(set(labels)) < 2 or _first_mismatch(mm, labels) is None


class SignatureReport(NamedTuple):
    """Outcome of a signature scan at concrete parameter values."""

    parameter_names: list[str]
    parameter_values: Vector
    inertia: tuple[int, int, int]
    lorentzian: bool

    def assignment(self) -> dict[str, Fraction]:
        return dict(zip(self.parameter_names, self.parameter_values))


def signature_scan(family: FormFamily) -> Iterator[SignatureReport]:
    """Inertia of every +-1 assignment on the diagonal-supported parameters.

    Off-diagonal parameters are held at 0.  The diagonal-supported forms
    must touch pairwise disjoint indices, as every t_X of the invariant
    family does, or ValueError names two of them and an index they share.
    A member is then block diagonal over the forms plus zero rows: each
    form with entries has its (p, n) taken once, before the first report,
    a sign -1 swaps them, and the zero count is dim m less the rank.  Sign
    vectors are enumerated in lexicographic order with -1 before +1, so
    the first Lorentzian assignment reported by ``lorentzian_search`` is
    well defined.
    """
    diag = family.diagonal_parameters()
    m_dim = len(family.carrier)
    owner: dict[int, int] = {}
    counts = []
    for t, k in enumerate(diag):
        form = family.basis[k]
        for e in form.nonzero_entries:
            for i in e[:2]:
                if owner.setdefault(i, k) != k:
                    a, b = family.names[owner[i]], family.names[k]
                    raise ValueError(f"diagonal-supported parameters {a} and {b} share index {i}")
        if form.nonzero_entries:
            counts.append((t, *congruence_signature(form)[:2]))
    rank = sum(p + n for _, p, n in counts)
    unit = {-1: Fraction(-1), 1: ONE}
    values = zeros(family.dimension)
    for signs in iter_product((-1, 1), repeat=len(diag)):
        for pos, s in zip(diag, signs):
            values[pos] = unit[s]
        p_sum = sum(n if signs[t] < 0 else p for t, p, n in counts)
        inertia = (p_sum, rank - p_sum, m_dim - rank)
        yield SignatureReport(list(family.names), values.copy(), inertia, inertia == (m_dim - 1, 1, 0))


def lorentzian_search(family: FormFamily) -> SignatureReport | None:
    """First Lorentzian member among the +-1 diagonal assignments, if any."""
    return next((r for r in signature_scan(family) if r.lorentzian), None)


class KillingMetricOperator(NamedTuple):
    """B-vs-Killing comparison operator on one component g_gamma.

    ``matrix`` is the unique local operator with B(beta X, Y) = K(X, Y);
    it commutes with every ad(Z), Z in g_e, whenever B is invariant.
    ``witness`` is None when it does, else (z, row, column): the algebra
    basis index of the first generator in ``fixed_generators`` order with
    ad(Z) beta != beta ad(Z), and their first differing entry, row-major.
    """

    gamma: GroupElement
    matrix: list[list[Fraction]]
    char_poly: list[Fraction]
    witness: tuple[int, int, int] | None

    @property
    def commutes(self) -> bool:
        return self.witness is None


def killing_metric_operator(
    grading: Grading, form: SymmetricForm, gamma: GroupElement
) -> KillingMetricOperator:
    """Solve B_gamma . beta = K_gamma on the component of ``gamma``, block by block.

    ``form`` is any symmetric form on m in carrier coordinates; ``commutes``
    is the verdict on it, true on the invariant family.  B_gamma is read off
    the form's entries, shifted by ``carrier.start``; one joining two
    components is dropped.  K = kappa I with kappa = -2(n-2), read off
    ``algebra.killing_form()``, so B and beta = kappa B^-1 are block
    diagonal over the connected components of the support of B plus the
    diagonal (an index where B vanishes is a 1 x 1 block).  A 1 x 1 block
    [b] is read off: beta is kappa / b there, and the characteristic
    polynomial gets the factor x - kappa / b once per distinct b, raised to
    the number of indices that share it.  Each larger block is taken from
    ``form.sparse_rows``, shifted by ``carrier.start``, and solved where it
    stands, B_blk X = kappa I, and its char_poly is one factor.  A
    zero b or a singular block means B is degenerate on the component,
    which is rejected.  For Z in ``grading.fixed_generators``, [Z, E_x] =
    +-E_r makes ad(Z) a signed partial permutation, and beta is compared
    with all of them in one call, on the records ``em[z]`` in m's
    coordinates.  When every block is 1 x 1, beta is diagonal and
    ``_first_mismatch`` reads the comparison off int labels of m: each index
    of the component is labelled by its group of equal b, and every other
    index by -1.  Otherwise ``_noncommuting_entry`` reads beta's rows, shifted
    by ``carrier.start``, off the dense beta; beta is symmetric, as B is, so
    its rows serve as its columns.  Either way the records of other
    components never differ, and the witness is shifted back once.
    """
    if form.dim != len(grading.complement_indices):
        raise ValueError("form dimension does not match the complement")
    if gamma.is_identity():
        raise ValueError("operator is defined on the non-identity components")
    if gamma.rank != grading.rank:
        raise ValueError(f"group element of rank {gamma.rank} in rank-{grading.rank} grading")
    carrier = grading.carrier_slices[gamma.label]
    if not carrier:
        raise ValueError(f"component {gamma.label} is zero")
    kappa = grading.algebra.killing_form().entry(0, 0)
    d, start, stop = len(carrier), carrier.start, carrier.stop
    # i <= j, so an entry lies on the component when start <= i and j < stop
    local = [(i - start, j - start, v) for i, j, v in form.nonzero_entries if start <= i and j < stop]
    b_diag, edges = [ZERO] * d, []
    for i, j, v in local:
        if i == j:
            b_diag[i] = v
        else:
            edges.append((i, j))
    blocks = support_components(d, edges)  # the blocks of size >= 2
    paired = {i for blk in blocks for i in blk}
    # the 1 x 1 blocks [b], grouped by the value of b, keyed by its ratio,
    # which hashes faster than a Fraction
    ones: dict[tuple[int, int], tuple[Fraction, list[int]]] = {}
    for i, b in enumerate(b_diag):
        if i not in paired:
            ones.setdefault(b.as_integer_ratio(), (b, []))[1].append(i)
    beta, polys = [[ZERO] * d for _ in range(d)], []
    for b, group in ones.values():
        if not b:
            raise ValueError(f"form is degenerate on component {gamma.label}")
        v = kappa / b
        polys.append(([ONE, -v], len(group)))
        for i in group:
            beta[i][i] = v
    if blocks:
        b_m = form.sparse_rows
        for blk in blocks:
            b_blk = [[b_m[start + i].get(start + j, ZERO) for j in blk] for i in blk]
            size = range(len(blk))
            try:
                sol = solve_matrix(b_blk, [[kappa if i == j else ZERO for j in size] for i in size])
            except ValueError:
                raise ValueError(f"form is degenerate on component {gamma.label}") from None
            polys.append((char_poly(sol), 1))
            for a, row in zip(blk, sol):
                for b, v in zip(blk, row):
                    beta[a][b] = v
        rows: SparseRows = [{} for _ in range(form.dim)]
        rows[start:stop] = [{j: v for j, v in enumerate(row, start) if v} for row in beta]
        compare, beta_m = _noncommuting_entry, rows
    else:
        labels = [-1] * form.dim
        for label, (_, group) in enumerate(ones.values()):
            for i in group:
                labels[start + i] = label
        compare, beta_m = _first_mismatch, labels
    _, _, em = grading.split
    fixed = grading.fixed_generators
    bad = compare([em[z] for z in fixed], beta_m)
    witness = None
    if bad is not None:
        k, r, x = bad
        witness = (grading.fixed_indices[fixed[k]], r - start, x - start)
    return KillingMetricOperator(gamma, beta, _poly_product(polys), witness)


def _poly_product(factors: Iterable[tuple[Vector, int]]) -> Vector:
    """The product of p ** k over pairs of a monic rational p and k >= 0, by
    Kronecker substitution.  Each p is scaled once by the lcm of its
    denominators to integers a, packed into one int (a evaluated at 2 ** w)
    and raised to k, so CPython's big-int ``**`` and ``*`` do every
    convolution.  The product's deg lower coefficients are read back as
    balanced base-2 ** w digits, lowest first: a digit d >= 2 ** (w - 1)
    stands for d - 2 ** w and carries one into the next; what is left is
    the leading coefficient, prod a_0 ** k.  A digit is exact when its
    coefficient c has |c| < 2 ** (w - 1).  |c| is at most the sum of the
    absolute coefficients, a submultiplicative norm, so |c| <= prod |a|_1 **
    k < 2 ** S with S = sum k bit_length(|a|_1) >= 1 whenever deg >= 1, and
    w = S + 1.  The product is divided by its leading coefficient once."""
    scaled, w = [], 1
    for p, k in factors:
        den = lcm(*(c.denominator for c in p))
        a = [c.numerator * (den // c.denominator) for c in p]
        scaled.append((a, k))
        w += k * sum(map(abs, a)).bit_length()
    packed, deg = 1, 0
    for a, k in scaled:
        v = 0
        for c in a:
            v = (v << w) + c
        packed *= v**k
        deg += k * (len(a) - 1)
    mask, half = (1 << w) - 1, 1 << (w - 1)
    out = []
    for _ in range(deg):
        c = packed & mask
        packed >>= w
        if c >= half:
            c -= mask + 1
            packed += 1
        out.append(c)
    out.append(packed)
    out.reverse()
    return [Fraction(c, out[0]) for c in out]
