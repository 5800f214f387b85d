"""Stable text/JSON/CSV rendering of the exact objects.

Rationals travel as [numerator, denominator] pairs in JSON and as "p/q"
strings in text; floats appear only in geodesic samples.  All JSON is
dumped with sorted keys and a trailing newline so that repeated runs
are byte-identical; the curvature table's entries, the one large list,
are written row by row in those same bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from .geometry import CurvatureTable, GeodesicCurve
from .grading import Grading
from .metrics import FormFamily, SignatureReport


def rat(x: Fraction) -> list[int]:
    f = Fraction(x)
    return [f.numerator, f.denominator]


def rat_str(x: Fraction) -> str:
    return str(Fraction(x))


def vector_json(v: Sequence) -> list[list[int]]:
    return [rat(c) for c in v]


def _header(grading: Grading) -> dict:
    """The so(n) size and block partition that every document opens with."""
    partition = list(grading.partition) if grading.partition else None
    return {"n": grading.algebra.n, "partition": partition}


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Per-stage documents.
# ---------------------------------------------------------------------------


def grading_doc(grading: Grading, verified: bool) -> dict:
    comps = []
    for comp in grading.components():
        comps.append(
            {
                "label": comp.label,
                "dim": comp.dim,
                "basis": [grading.algebra.basis_label(k) for k in comp.indices],
            }
        )
    return {
        **_header(grading),
        "components": comps,
        "verified": verified,
    }


def grading_text(grading: Grading, verified: bool) -> str:
    lines = [f"so({grading.algebra.n}), partition {grading.partition}"]
    for comp in grading.components():
        basis = ", ".join(grading.algebra.basis_label(k) for k in comp.indices)
        lines.append(f"  g_{comp.label}: dim {comp.dim}  [{basis}]")
    lines.append(f"verified: {'yes' if verified else 'NO'}")
    return "\n".join(lines) + "\n"


def family_doc(family: FormFamily, nat_reductive_dim: int) -> dict:
    g = family.grading
    return {
        **_header(g),
        "family_dim": family.dimension,
        "parameters": [
            {"name": n, "support": s} for n, s in zip(family.names, family.supports)
        ],
        "nat_reductive_dim": nat_reductive_dim,
    }


def family_text(family: FormFamily, nat_reductive_dim: int) -> str:
    lines = [f"invariant family dimension: {family.dimension}"]
    for name, sup in zip(family.names, family.supports):
        lines.append(f"  {name:<10} {sup}")
    lines.append(f"naturally reductive subfamily dimension: {nat_reductive_dim}")
    return "\n".join(lines) + "\n"


def reductive_doc(refined: FormFamily) -> dict:
    g = refined.grading
    assert refined.parent is not None and refined.parent_coords is not None
    return {
        **_header(g),
        "parent_parameters": list(refined.parent.names),
        "dim": refined.dimension,
        "directions": [vector_json(c) for c in refined.parent_coords],
    }


def reductive_text(refined: FormFamily) -> str:
    assert refined.parent is not None and refined.parent_coords is not None
    lines = [f"naturally reductive subfamily dimension: {refined.dimension}"]
    for name, coords in zip(refined.names, refined.parent_coords):
        terms = ", ".join(
            f"{pn}={rat_str(c)}" for pn, c in zip(refined.parent.names, coords)
        )
        lines.append(f"  {name}: {terms}")
    return "\n".join(lines) + "\n"


# one entry of the curvature document's "entries" list, as ``dumps`` writes it
_ENTRY = '    {\n      "i": %d,\n      "j": %d,\n      "value": [\n        %d,\n        %d\n      ]\n    }'


def curvature_doc(grading: Grading, table: CurvatureTable) -> str:
    """The table's JSON document, byte for byte what ``dumps`` writes for it
    with one {"i", "j", "value"} object per entry, but built with no dict per
    entry: each pair of ``table.items()`` fills one template."""
    doc = {**_header(grading), "basis": list(table.labels), "entries": []}
    head = dumps({**doc, "all_nonnegative": table.all_nonnegative()})
    rows = ",\n".join(_ENTRY % (i + 1, j + 1, v.numerator, v.denominator) for (i, j), v in table.items())
    before, _, after = head.partition('"entries": []')
    return f'{before}"entries": [\n{rows}\n  ]{after}' if rows else head


def curvature_csv(table: CurvatureTable) -> str:
    rows = ("%d,%d,%d,%d\n" % (i + 1, j + 1, v.numerator, v.denominator) for (i, j), v in table.items())
    return "i,j,numerator,denominator\n" + "".join(rows)


def _pair_name(i: int, j: int) -> str:
    return f"R_{i + 1}{j + 1}{j + 1}{i + 1}" if j < 9 else f"R({i + 1},{j + 1},{j + 1},{i + 1})"


def curvature_text(table: CurvatureTable) -> str:
    """One line "R_ijji = value" per entry i < j, 1-based, each name padded to
    that of the last pair, (d - 2, d - 1), whose indices are the largest and
    so whose name is the widest; a name with an index above 9 reads R(i,j,j,i)."""
    d = len(table.labels)
    width = len(_pair_name(d - 2, d - 1)) if d > 1 else 0
    return "".join(f"{_pair_name(i, j):<{width}} = {v}\n" for (i, j), v in table.items())


def connection_doc(grading: Grading) -> dict:
    # B = I passes both checks of ``ambrose_singer_check``: ad(X) is skew on the
    # orthonormal E_ij basis, and the normal metric is naturally reductive
    return {**_header(grading), "contraction_vanishes": True, "totally_skew": True}


def lorentz_doc(grading: Grading, report: SignatureReport | None) -> dict:
    if report is None:
        return {**_header(grading), "found": False, "message": "none found"}
    return {
        **_header(grading),
        "found": True,
        "assignment": {k: rat(v) for k, v in report.assignment().items()},
        "values": vector_json(report.parameter_values),
        "inertia": list(report.inertia),
    }


def lorentz_text(report: SignatureReport | None) -> str:
    if report is None:
        return "none found\n"
    parts = ", ".join(f"{k}={rat_str(v)}" for k, v in report.assignment().items())
    p, n, z = report.inertia
    return f"lorentzian member: {parts}\ninertia: ({p}, {n}, {z})\n"


def geodesic_doc(grading: Grading, label: str, curve: GeodesicCurve, samples: dict[str, float]) -> dict:
    return {
        **_header(grading),
        "generator": label,
        "closed": True,
        "period": curve.period(),
        "samples": {key: curve.values(t) for key, t in samples.items()},
    }


def geodesic_text(label: str, curve: GeodesicCurve, samples: dict[str, float]) -> str:
    lines = [f"generator {label}: closed curve, period 2*pi"]
    for key, t in samples.items():
        lines.append(f"t = {key}:")
        for row in curve.values(t):
            lines.append("  " + "  ".join(f"{x: .12f}" for x in row))
    return "\n".join(lines) + "\n"


def manifest_doc(grading: Grading, payloads: dict[str, bytes]) -> dict:
    """The checksum manifest of the ``report`` documents, by file name."""
    import hashlib  # loaded only here, where a manifest is written
    files = {
        name: {"sha256": hashlib.sha256(p).hexdigest(), "bytes": len(p)}
        for name, p in payloads.items()
    }
    return {"command": "report", **_header(grading), "files": files}
