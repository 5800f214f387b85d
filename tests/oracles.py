"""Dense reference routes that the library does not carry.

Tests check the sparse library against these: the product of two dense
matrices entry by entry, the dense identity, the canonical nullspace
basis read off a ``RowReducer``'s pivot rows, the nullspace, row space
and rank of a dense matrix (one ``RowReducer`` fed row by row), the
inertia of a dense symmetric matrix by symmetric elimination of the
whole matrix, the value B(x, y) of a form over its dense Gram matrix,
the bracket of two basis vectors read off the structure constants by
skew-symmetry, so(n) elements as coefficient vectors, with their bracket
and their skew-symmetric matrices, the
natural-reductive refinement by row reduction of its residuals over a
whole family, the Killing comparison operator beta solved on a whole
component at once, the geodesic curve with every entry of the generator and its powers computed densely,
the Levi-Civita tensor U and the sectional numerators of any invariant
metric on m from Besse's formula with commutators of dense matrices, and
the curvature table's JSON, CSV and text as the library used to write
them: one dict per entry encoded whole, and one line per entry, and a
curvature table held as a dict, for tables the normal metric never gives.
"""

import json
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from gammasym.geometry import GeodesicCurve
from gammasym.grading import _SUBBLOCK
from gammasym.groups import enumerate_group
from gammasym.linalg import (
    ONE,
    ZERO,
    RowReducer,
    char_poly,
    congruence_signature,
    frac,
    solve_matrix,
    to_matrix,
    zeros,
)
from gammasym.metrics import FormFamily, KillingMetricOperator, evaluate_family


def mat_mul(a, b):
    """The dense product of two matrices, each entry a sum over a row of a
    and a column of b."""
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b)] for row in a]


def mat_identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def _reduced(rows) -> RowReducer:
    red = RowReducer(len(rows[0]) if rows else 0)
    for row in to_matrix(rows):
        red.insert({j: x for j, x in enumerate(row) if x})
    return red


def nullspace_basis(red):
    """Canonical basis of the solutions of a ``RowReducer``'s rows, one
    vector per free column, read off its pivot rows."""
    basis = []
    for f in (c for c in range(red.ncols) if c not in red.pivots):
        v = zeros(red.ncols)
        v[f] = ONE
        for p, row in red.pivots.items():
            coef = row.get(f)
            if coef:
                v[p] = -coef
        basis.append(v)
    return basis


def nullspace(matrix):
    """Canonical basis of {v : matrix @ v = 0}, one vector per free column."""
    return nullspace_basis(_reduced(matrix))


def row_space_basis(vectors):
    """The RREF rows of the span of ``vectors``, as dense vectors."""
    red = _reduced(vectors)
    return [[red.pivots[c].get(j, ZERO) for j in range(red.ncols)] for c in sorted(red.pivots)]


def rank(matrix) -> int:
    return _reduced(matrix).rank


def _eliminate(work) -> tuple[int, int, int]:
    """Inertia of a symmetric dense matrix by exact symmetric elimination,
    reducing ``work`` in place: diagonal pivots split off one square each,
    and a zero diagonal with a nonzero off-diagonal entry is a hyperbolic
    pair contributing (1, 1).  No eigenvalues, no floats."""
    idx = list(range(len(work)))
    pos = neg = zero = 0
    while idx:
        # prefer a diagonal pivot
        k = next((i for i in idx if work[i][i]), None)
        if k is not None:
            p = work[k][k]
            if p > 0:
                pos += 1
            else:
                neg += 1
            idx.remove(k)
            col = {i: work[i][k] for i in idx}
            for i in idx:
                ci = col[i]
                if not ci:
                    continue
                wi = work[i]
                for j in idx:
                    if col[j]:
                        wi[j] -= ci * col[j] / p
            continue
        h = idx[0]
        k = next((j for j in idx[1:] if work[h][j]), None)
        if k is None:
            # row h is zero on the remaining block
            zero += 1
            idx.remove(h)
            continue
        # hyperbolic pair on (h, k): both diagonal entries vanish here
        p = work[h][k]
        pos += 1
        neg += 1
        idx.remove(h)
        idx.remove(k)
        ch = {i: work[i][h] for i in idx}
        ck = {i: work[i][k] for i in idx}
        for i in idx:
            wi = work[i]
            for j in idx:
                corr = ch[i] * ck[j] + ck[i] * ch[j]
                if corr:
                    wi[j] -= corr / p
    return pos, neg, zero


def signature(rows) -> tuple[int, int, int]:
    """Inertia of a dense symmetric matrix, eliminated as one block."""
    return _eliminate(to_matrix(rows))


def classify(form, grading, carrier, order):
    """(component position, sub-block ordinal, diag flag, support string,
    sub-block) of a form, read at its first nonzero entry; ``order`` maps
    each label to its position in ``enumerate_group``."""
    entries = form.nonzero_entries
    if not entries:
        raise ValueError("zero form in family basis")
    first = entries[0][0]
    has_diag = any(i == j for i, j, _ in entries)
    label = grading.assignment[carrier[first]].label
    sub = grading.subblock(carrier[first]) or label
    kind = "diag" if has_diag else "offdiag"
    subblocks = list(_SUBBLOCK.values())
    return (
        order[label],
        subblocks.index(sub) if sub in subblocks else 0,
        0 if has_diag else 1,
        f"{label}:{kind}:{sub}",
        sub,
    )


def reductivity_rows(grading, forms):
    """B_k([X,Y]_m, Z) + B_k([X,Z]_m, Y) over ``forms``, per basis triple of m.

    The independent residual route to natural reductivity, which the
    library tests instead as B ad_m(E_x) = ad_m(E_x) B: Fraction sums over
    every form at once, one row per unordered pair {y, z} in the support of
    M_x[y][z] = B_k([E_x, E_y]_m, E_z), mapping k to the residual of
    ``forms[k]`` (a value may be zero).  The rows come x by x.
    """
    mm, _, _ = grading.split
    # l -> [(z, k, B_k(E_l, E_z), -B_k(E_l, E_z))], each entry in both orders
    by_row = [[] for _ in mm]
    for k, f in enumerate(forms):
        for i, j, e in f.nonzero_entries:
            by_row[i].append((j, k, e, -e))
            if i != j:
                by_row[j].append((i, k, e, -e))
    for partners in mm:
        skew = {}
        for y, (l, c) in partners.items():
            for z, k, e, neg in by_row[l]:
                v = e if c > 0 else neg
                if z == y:
                    v += v
                cell = skew.setdefault((y, z) if y < z else (z, y), {})
                cell[k] = cell[k] + v if k in cell else v
        yield from skew.values()


def refinement_by_row_reduction(family):
    """The natural-reductive refinement by general sparse RREF: each
    distinct nonzero row of ``reductivity_rows`` over the family basis goes
    to one ``RowReducer``, whose canonical nullspace basis gives the
    parent coordinates; supports are read off the evaluated forms."""
    nf = family.dimension
    reducer = RowReducer(nf)
    seen = set()
    for row in reductivity_rows(family.grading, family.basis):
        if any(row.values()) and (key := frozenset(row.items())) not in seen:
            seen.add(key)
            reducer.insert(row)
    coords = nullspace_basis(reducer)
    basis = [evaluate_family(family, c) for c in coords]
    order = {g.label: p for p, g in enumerate(enumerate_group(family.grading.rank))}
    supports = [classify(f, family.grading, family.carrier, order)[3] for f in basis]
    names = [f"s{k + 1}" for k in range(len(basis))]
    return FormFamily(
        family.grading, family.carrier, names, supports, basis, parent=family, parent_coords=coords
    )


def basis_vector(alg, k):
    v = zeros(alg.dim)
    v[k] = ONE
    return v


def bracket_basis(alg, p, q):
    """[E_p, E_q] as sparse terms over the basis, read off the structure
    constants (stored for p < q) by skew-symmetry."""
    table = alg.structure_constants()
    if p <= q:
        return table.get((p, q), ())
    return tuple((k, -c) for k, c in table.get((q, p), ()))


def bracket(alg, x, y):
    """[x, y] for coefficient vectors over the so(n) basis, exactly."""
    out = zeros(alg.dim)
    ny = [(q, c) for q, c in enumerate(y) if c]
    for p, cx in enumerate(x):
        for q, cy in ny if cx else ():
            for k, s in bracket_basis(alg, p, q):
                out[k] += cx * cy * s
    return out


def form_value(form, x, y):
    """B(x, y), the sum of x_i B_ij y_j over the dense Gram matrix."""
    total = ZERO
    for a, row in zip(x, form.rows(), strict=True):
        for b, c in zip(row, y, strict=True):
            if a and b:
                total += frac(a) * b * frac(c)
    return total


def vector_to_matrix(alg, x):
    """The skew-symmetric n x n matrix of a coefficient vector."""
    m = [[ZERO] * alg.n for _ in range(alg.n)]
    for (i, j), c in zip(alg.pairs, x):
        m[i][j], m[j][i] = c, -c
    return m


def dense_killing_metric_operator(grading, form, gamma):
    """beta with B_gamma . beta = K_gamma on the whole component: a
    signature check, one dense solve, ``char_poly`` on the full beta, and
    ad(Z) beta = beta ad(Z) compared as zero-filled d x d matrices for each
    generator Z of g_e, stopping at the first that fails with its witness.
    The same errors as ``killing_metric_operator``."""
    if gamma.is_identity():
        raise ValueError("operator is defined on the non-identity components")
    comp = grading.component(gamma)
    if comp.dim == 0:
        raise ValueError(f"component {gamma.label} is zero")
    carrier = grading.carrier_slices[gamma.label]
    b_form = form.restrict(carrier)
    k_rows = grading.algebra.killing_form().restrict(comp.indices).rows()
    if congruence_signature(b_form)[2] != 0:
        raise ValueError(f"form is degenerate on component {gamma.label}")
    beta = solve_matrix(b_form.rows(), k_rows)

    _, _, em = grading.split
    d = comp.dim
    witness = None
    for z in grading.fixed_generators:
        left = [[ZERO] * d for _ in range(d)]
        right = [[ZERO] * d for _ in range(d)]
        for x in carrier:
            for r, c in [em[z][x]] if x in em[z] else []:
                src, dst = x - carrier.start, r - carrier.start
                for j in range(d):
                    left[dst][j] += c * beta[src][j]
                    right[j][src] += beta[j][dst] * c
        if left != right:
            row, col = next((i, j) for i in range(d) for j in range(d) if left[i][j] != right[i][j])
            witness = (grading.fixed_indices[z], row, col)
            break
    return KillingMetricOperator(gamma, beta, char_poly(beta), witness)


def dense_geodesic_curve(e):
    """The curve exp(tE) from dense exact matrices: every entry of E is
    checked for skewness, E^2 and E^3 are full products, and I + E^2 and
    -E^2 are formed entry by entry.  The same errors as ``geodesic_curve``."""
    n = len(e)
    if not n:
        raise ValueError("generator must be a nonempty matrix")
    if not all(hasattr(row, "__len__") and len(row) == n for row in e):
        raise ValueError("generator must be square")
    em = [[frac(x) for x in row] for row in e]
    for i in range(n):
        if em[i][i]:
            raise ValueError("generator must have zero diagonal")
        for j in range(i + 1, n):
            if em[i][j] != -em[j][i]:
                raise ValueError("generator must be skew-symmetric")
    e2 = mat_mul(em, em)
    e3 = mat_mul(e2, em)
    if any(e3[i][j] != -em[i][j] for i in range(n) for j in range(n)):
        raise ValueError(
            "generator does not satisfy E^3 = -E; use matrix_exp_numeric instead"
        )
    ident = mat_identity(n)
    const = [[ident[i][j] + e2[i][j] for j in range(n)] for i in range(n)]
    neg_e2 = [[-x for x in row] for row in e2]
    freeze = lambda m: tuple(tuple(row) for row in m)
    return GeodesicCurve(freeze(em), freeze(const), freeze(em), freeze(neg_e2))


def _commutator(x, y):
    """XY - YX of two dense square matrices, skipping their zero entries."""
    n = len(x)
    out = [[ZERO] * n for _ in range(n)]
    for p, q, sign in ((x, y, ONE), (y, x, -ONE)):
        for i, k in product(range(n), repeat=2):
            for j in range(n) if p[i][k] else ():
                if q[k][j]:
                    out[i][j] += sign * p[i][k] * q[k][j]
    return out


def _dense_m(grading):
    """The m basis as dense skew matrices, the commutator of every ordered
    pair of them, and the projection of a skew matrix to m as its vector of
    m coefficients (E_ij has the entry +1 at (i, j), i < j)."""
    alg = grading.algebra
    pairs = [alg.pairs[k] for k in grading.complement_indices]
    mats = [vector_to_matrix(alg, basis_vector(alg, k)) for k in grading.complement_indices]
    brackets = [[_commutator(x, y) for y in mats] for x in mats]
    return mats, brackets, lambda m: [m[i][j] for i, j in pairs]


def _lower(gram, v):
    """The covector <v, .> of an m-coefficient vector, entry by entry."""
    return [sum((gram[s][t] * c for s, c in enumerate(v) if c), ZERO) for t in range(len(gram))]


def _pair(gram, u, v):
    return sum((x * y for x, y in zip(_lower(gram, u), v) if x and y), ZERO)


def levi_civita_u(grading, gram):
    """U(E_a, E_b) for every pair of m basis vectors, as m-coefficient
    vectors, for the invariant metric with the nondegenerate Gram matrix
    ``gram`` on m: 2 <U(X, Y), Z> = <[Z, X]_m, Y> + <X, [Z, Y]_m> for every
    Z, solved with the inverse Gram matrix.  U vanishes exactly when the
    metric is naturally reductive."""
    _, brackets, to_m = _dense_m(grading)
    d = len(gram)
    # low[z][a][b] = <[E_z, E_a]_m, E_b>
    low = [[_lower(gram, to_m(brackets[z][a])) for a in range(d)] for z in range(d)]
    inverse = solve_matrix(gram, mat_identity(d))
    u = [[None] * d for _ in range(d)]
    for a in range(d):
        for b in range(d):
            w = [(z, (low[z][a][b] + low[z][b][a]) / 2) for z in range(d)]
            w = [(z, c) for z, c in w if c]
            u[a][b] = [sum((row[z] * c for z, c in w), ZERO) for row in inverse]
    return u


def besse_sectional(grading, gram):
    """<R(E_a, E_b)E_b, E_a> for every pair a < b of m basis vectors, for
    the invariant metric with the nondegenerate Gram matrix ``gram`` on m,
    by Besse, Einstein Manifolds (1987), (7.30):

        -3/4 |[X,Y]_m|^2 - 1/2 <[X,[X,Y]]_m, Y> - 1/2 <[Y,[Y,X]]_m, X>
        + |U(X,Y)|^2 - <U(X,X), U(Y,Y)>.

    It reads only the metric on m and commutators of dense matrices, so it
    holds for every member of the family, Lorentzian ones included."""
    mats, brackets, to_m = _dense_m(grading)
    u = levi_civita_u(grading, gram)
    out = {}
    for a in range(len(gram)):
        for b in range(a + 1, len(gram)):
            xy = to_m(brackets[a][b])
            xxy = _lower(gram, to_m(_commutator(mats[a], brackets[a][b])))
            yyx = _lower(gram, to_m(_commutator(mats[b], brackets[b][a])))
            out[a, b] = (
                Fraction(-3, 4) * _pair(gram, xy, xy)
                - xxy[b] / 2
                - yyx[a] / 2
                + _pair(gram, u[a][b], u[a][b])
                - _pair(gram, u[a][a], u[b][b])
            )
    return out


class DictCurvatureTable(NamedTuple):
    """A curvature table as a dict (i, j) -> value over the pairs i < j, in
    (i, j) order, with the reading methods of ``geometry.CurvatureTable``."""

    labels: tuple
    entries: dict

    def items(self):
        return iter(self.entries.items())

    def all_nonnegative(self):
        return all(v >= 0 for v in self.entries.values())

    def csv_rows(self):
        return [(i + 1, j + 1, v.numerator, v.denominator) for (i, j), v in self.entries.items()]


def curvature_json(grading, table):
    """The curvature document as one dict per entry, encoded whole by json."""
    doc = {
        "n": grading.algebra.n,
        "partition": list(grading.partition) if grading.partition else None,
        "basis": list(table.labels),
        "entries": [
            {"i": i + 1, "j": j + 1, "value": [v.numerator, v.denominator]}
            for (i, j), v in table.items()
        ],
        "all_nonnegative": all(v >= 0 for _, v in table.items()),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def curvature_csv(table):
    """The curvature CSV, one line per entry, joined at the end."""
    lines = ["i,j,numerator,denominator"]
    for i, j, num, den in table.csv_rows():
        lines.append(f"{i},{j},{num},{den}")
    return "\n".join(lines) + "\n"


def curvature_text(table):
    """The curvature text: a name per entry, padded to the widest name."""
    named = []
    for (i, j), v in table.items():
        if max(i, j) < 9:
            name = f"R_{i + 1}{j + 1}{j + 1}{i + 1}"
        else:
            name = f"R({i + 1},{j + 1},{j + 1},{i + 1})"
        named.append((name, v))
    width = max((len(name) for name, _ in named), default=0)
    return "".join(f"{name:<{width}} = {v}\n" for name, v in named)
