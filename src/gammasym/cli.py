"""Command line front end.

Subcommands mirror the library pipeline: grade, metrics, reductive,
curvature, lorentz, geodesic, and report (which writes one document per
stage plus a checksum manifest).  All exact output is deterministic, so
reruns with the same arguments produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import serialize
from .geometry import geodesic_curve, sectional_table
from .grading import Grading, block_grading, verify_grading
from .linalg import SymmetricForm, congruence_signature
from .metrics import (
    evaluate_family,
    invariant_family,
    lorentzian_search,
    naturally_reductive_subfamily,
)

if TYPE_CHECKING:  # pathlib loads only in report and --out
    from pathlib import Path

_DEFAULT_SAMPLES = "0.1,1,3.141592653589793,5"

# The largest accepted --n, set when ``report`` at a balanced partition took
# 58 s at n=55 and grew about as n^5; it now takes 1.54 s there, with a 195 MB
# peak RSS (median of 7 runs on one core of a 2-CPU x86-64 VM, CPython 3.11).
# It stays 55 until the bound is re-derived from a measured grid.
MAX_N = 55


class CommandError(Exception):
    """User-facing error: bad arguments or unsupported combination."""


def _parse_partition(text: str) -> tuple[int, int, int, int]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"partition must be four integers, got {text!r}")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"partition must have four parts, got {len(parts)}")
    return parts  # type: ignore[return-value]


# a literal as Fraction() reads it, with one underscore allowed between digits;
# compiled on first use (re caches it), so importing the CLI stays cheap
_DIGITS = r"\d+(?:_\d+)*"
_RATIONAL = (
    rf"(?i)\s*([-+]?)(?=\d|\.\d)((?:{_DIGITS})?)(?:/({_DIGITS})"
    rf"|(?:\.((?:{_DIGITS})?))?(?:e([-+]?)({_DIGITS}))?)\s*"
)


def _parse_params(text: str) -> list[Fraction]:
    # Fraction() builds 10**exponent and int() refuses a run of more digits
    # than the limit, so a literal is read by its significant digits: none is
    # 0 whatever the exponent; more than the limit, or a decimal point moved
    # over the limit right or twice it left, gives too many digits in a term
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    out = []
    for tok in text.split(","):
        match = re.fullmatch(_RATIONAL, tok)
        if match is None or (match[3] and not match[3].strip("0_")):  # or a zero denominator
            raise argparse.ArgumentTypeError(f"cannot parse rational value {tok!r}")
        sign, whole, den, point, exp_sign, exp = (g.replace("_", "") for g in match.groups(""))
        mantissa, power = (whole + point).rstrip("0"), exp_sign + (exp.lstrip("0") or "0")
        digits, den = mantissa.lstrip("0"), den.lstrip("0") or "1"
        shift = len(whole) - len(mantissa) + int(power) if len(power) <= limit else limit + 1
        value = None if digits else Fraction(0)
        if digits and max(len(digits), len(den)) <= limit and -2 * limit <= shift <= limit:
            value = Fraction(int(digits) * 10 ** max(shift, 0), int(den) * 10 ** max(-shift, 0))
        if value is None or max(value.numerator, value.denominator) >= 10**limit:
            raise argparse.ArgumentTypeError(
                f"rational value {tok!r} is out of range: it needs more than {limit} digits"
            )
        out.append(-value if sign == "-" else value)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammasym",
        description="Exact invariant metrics and curvature for block-graded so(n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--n", type=int, required=True, help=f"matrix size n of so(n), at most {MAX_N}"
        )
        p.add_argument(
            "--partition",
            type=_parse_partition,
            required=True,
            metavar="r1,r2,r3,r4",
            help="four block sizes summing to n",
        )
        if name != "report":
            p.add_argument(
                "--format",
                dest="fmt",
                choices=("json", "csv", "text"),
                default="json",
                help="output format (csv only for curvature)",
            )
        p.add_argument("--out", default=None, help="output file (directory for report)")
        if name == "metrics":
            p.add_argument(
                "--params",
                type=_parse_params,
                default=None,
                metavar="p1,p2,...",
                help="evaluate the family at these rational values and report the inertia",
            )
        if name == "geodesic":
            p.add_argument(
                "--generator",
                default=None,
                help="basis label such as E13 (default: first complement generator)",
            )
            p.add_argument(
                "--t-samples",
                default=_DEFAULT_SAMPLES,
                metavar="t1,t2,...",
                help="comma separated sample parameters",
            )
    return parser


def _grading(args: argparse.Namespace) -> Grading:
    if args.n > MAX_N:
        raise CommandError(f"--n {args.n} is above the size bound {MAX_N}")
    try:
        return block_grading(args.n, args.partition)
    except ValueError as exc:
        raise CommandError(str(exc))


def _generator_index(grading: Grading, label: str | None) -> int:
    carrier = grading.complement_indices
    if not carrier:
        raise CommandError("the complement m is zero; no geodesic generators")
    if label is None:
        return carrier[0]
    alg = grading.algebra
    text = label.strip()
    idx = next((k for k in range(alg.dim) if alg.basis_label(k) == text), None)
    if idx is None:
        raise CommandError(
            f"generator {label!r} is not a basis vector of so({alg.n}); "
            f"labels run {alg.basis_label(0)} to {alg.basis_label(alg.dim - 1)}"
        )
    if idx not in carrier:
        raise CommandError(f"generator {label!r} lies in the fixed part, not in m")
    return idx


def _write(path: Path, payload: bytes) -> None:
    try:
        path.write_bytes(payload)
    except OSError as exc:
        raise CommandError(f"cannot write {str(path)!r}: {exc.strerror or exc}")


# -- command bodies ---------------------------------------------------------


def _run_grade(args: argparse.Namespace, g: Grading) -> str:
    ok = verify_grading(g) is None
    if args.fmt == "text":
        return serialize.grading_text(g, ok)
    return serialize.dumps(serialize.grading_doc(g, ok))


def _run_metrics(args: argparse.Namespace, g: Grading) -> str:
    family = invariant_family(g)
    refined = naturally_reductive_subfamily(family)
    inertia = None
    if args.params is not None:
        if len(args.params) != family.dimension:
            raise CommandError(
                f"--params expects {family.dimension} values for this family, "
                f"got {len(args.params)}"
            )
        inertia = congruence_signature(evaluate_family(family, args.params))
    if args.fmt == "text":
        text = serialize.family_text(family, refined.dimension)
        if inertia is not None:
            text += f"inertia at given values: {inertia}\n"
        return text
    doc = serialize.family_doc(family, refined.dimension)
    if inertia is not None:
        doc["evaluation"] = {"values": serialize.vector_json(args.params), "inertia": list(inertia)}
    return serialize.dumps(doc)


def _run_reductive(args: argparse.Namespace, g: Grading) -> str:
    refined = naturally_reductive_subfamily(invariant_family(g))
    if args.fmt == "text":
        return serialize.reductive_text(refined)
    return serialize.dumps(serialize.reductive_doc(refined))


def _run_curvature(args: argparse.Namespace, g: Grading) -> str:
    b_m = SymmetricForm.identity(len(g.complement_indices))
    table = sectional_table(g, b_m, SymmetricForm.identity(len(g.fixed_indices)))
    if args.fmt == "csv":
        return serialize.curvature_csv(table)
    if args.fmt == "text":
        return serialize.curvature_text(table)
    return serialize.curvature_doc(g, table)


def _run_lorentz(args: argparse.Namespace, g: Grading) -> str:
    report = lorentzian_search(invariant_family(g))
    if args.fmt == "text":
        return serialize.lorentz_text(report)
    return serialize.dumps(serialize.lorentz_doc(g, report))


def _run_geodesic(args: argparse.Namespace, g: Grading) -> str:
    text = args.t_samples
    tokens = [tok.strip() for tok in text.split(",")]
    if not any(tokens):
        raise CommandError(f"--t-samples needs at least one number, got {text!r}")
    bad = [tok for k, tok in enumerate(tokens) if not tok or tok in tokens[:k]]
    if bad:
        raise CommandError(f"--t-samples entry {bad[0]!r} is empty or repeated in {text!r}")
    idx = _generator_index(g, args.generator)
    label = g.algebra.basis_label(idx)
    curve = geodesic_curve(g.algebra.basis_matrix(idx))
    samples = {}
    for tok in tokens:
        try:
            t = float(tok)
        except ValueError:
            t = math.nan
        if not math.isfinite(t):
            raise CommandError(f"--t-samples needs finite numbers, got {tok!r}")
        samples[tok] = t
    if args.fmt == "text":
        return serialize.geodesic_text(label, curve, samples)
    return serialize.dumps(serialize.geodesic_doc(g, label, curve, samples))


# each report file but the connection is the output of one subcommand and format
_REPORT_FILES = {
    "grade.json": (_run_grade, "json"),
    "family.json": (_run_metrics, "json"),
    "reductive.json": (_run_reductive, "json"),
    "curvature.json": (_run_curvature, "json"),
    "curvature.csv": (_run_curvature, "csv"),
    "lorentz.json": (_run_lorentz, "json"),
}


def _run_report(args: argparse.Namespace, g: Grading) -> str:
    if args.out is None:
        raise CommandError("report requires --out DIRECTORY")
    from pathlib import Path  # loaded only where a file is written
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CommandError(f"cannot create --out directory {args.out!r}: {exc.strerror or exc}")
    docs = {"connection.json": serialize.dumps(serialize.connection_doc(g))}
    for name, (run, fmt) in _REPORT_FILES.items():
        docs[name] = run(argparse.Namespace(fmt=fmt, params=None), g)
    payloads = {name: docs[name].encode("utf-8") for name in sorted(docs)}
    for name, payload in payloads.items():
        _write(outdir / name, payload)
    manifest = serialize.dumps(serialize.manifest_doc(g, payloads))
    _write(outdir / "manifest.json", manifest.encode("utf-8"))
    return f"wrote {len(docs) + 1} files to {outdir}\n"


_COMMANDS = {
    "grade": ("build the block grading and verify it", _run_grade),
    "metrics": ("solve for the invariant metric family", _run_metrics),
    "reductive": ("refine the family by natural reductivity", _run_reductive),
    "curvature": ("sectional curvature numerators for the adapted metric", _run_curvature),
    "lorentz": ("search +-1 diagonal assignments for a Lorentzian member", _run_lorentz),
    "geodesic": ("sample a closed geodesic matrix curve", _run_geodesic),
    "report": ("write every stage document plus a checksum manifest", _run_report),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command not in ("curvature", "report") and args.fmt == "csv":
            raise CommandError(f"csv format is not supported for '{args.command}'")
        payload = _COMMANDS[args.command][1](args, _grading(args))
        if args.out is not None and args.command != "report":
            from pathlib import Path
            _write(Path(args.out), payload.encode("utf-8"))
        else:
            sys.stdout.write(payload)
    except CommandError as exc:
        print(f"gammasym: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
