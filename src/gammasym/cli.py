"""Command line front end.

Subcommands mirror the library pipeline: grade, metrics, reductive,
curvature, lorentz, geodesic, and report (which writes one document per
stage plus a checksum manifest).  All exact output is deterministic, so
reruns with the same arguments produce byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import serialize
from .geometry import ambrose_singer_check, geodesic_curve, sectional_table
from .grading import Grading, block_grading, verify_grading
from .linalg import SymmetricForm, congruence_signature
from .metrics import (
    evaluate_family,
    invariant_family,
    lorentzian_search,
    naturally_reductive_subfamily,
)

_DEFAULT_SAMPLES = ["0.1", "1", "3.141592653589793", "5"]

# The largest accepted --n: the largest n for which ``report`` at a balanced
# partition is projected to finish within a minute (58 s measured at n=55,
# about n^5 growth, one core of a 2-CPU x86-64 VM, CPython 3.11).
MAX_N = 55


class CommandError(Exception):
    """User-facing error: bad arguments or unsupported combination."""


@dataclass
class RunConfig:
    command: str
    n: int
    partition: tuple[int, int, int, int]
    fmt: str = "json"
    out: str | None = None
    params: list[Fraction] | None = None
    generator: str | None = None
    t_samples: list[str] = field(default_factory=lambda: list(_DEFAULT_SAMPLES))


def _parse_partition(text: str) -> tuple[int, int, int, int]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"partition must be four integers, got {text!r}")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"partition must have four parts, got {len(parts)}")
    return parts  # type: ignore[return-value]


def _parse_params(text: str) -> list[Fraction]:
    out = []
    for tok in text.split(","):
        try:
            out.append(Fraction(tok.strip()))
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"cannot parse rational value {tok!r}")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammasym",
        description="Exact invariant metrics and curvature for block-graded so(n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "grade": "build the block grading and verify it",
        "metrics": "solve for the invariant metric family",
        "reductive": "refine the family by natural reductivity",
        "curvature": "sectional curvature numerators for the adapted metric",
        "lorentz": "search +-1 diagonal assignments for a Lorentzian member",
        "geodesic": "sample a closed geodesic matrix curve",
        "report": "write every stage document plus a checksum manifest",
    }
    for name, help_text in specs.items():
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
        p.add_argument(
            "--format",
            dest="fmt",
            choices=("json", "csv", "text"),
            default="json",
            help="output format (csv only where tabular)",
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
                default=",".join(_DEFAULT_SAMPLES),
                metavar="t1,t2,...",
                help="comma separated sample parameters",
            )
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(
        command=args.command,
        n=args.n,
        partition=args.partition,
        fmt=args.fmt,
        out=args.out,
    )
    if getattr(args, "params", None) is not None:
        cfg.params = args.params
    if getattr(args, "generator", None) is not None:
        cfg.generator = args.generator
    if getattr(args, "t_samples", None) is not None:
        text = args.t_samples
        cfg.t_samples = [tok.strip() for tok in text.split(",")]
        if not any(cfg.t_samples):
            raise CommandError(f"--t-samples needs at least one number, got {text!r}")
        bad = [tok for k, tok in enumerate(cfg.t_samples) if not tok or tok in cfg.t_samples[:k]]
        if bad:
            raise CommandError(f"--t-samples entry {bad[0]!r} is empty or repeated in {text!r}")
    return cfg


def _grading(cfg: RunConfig) -> Grading:
    if cfg.n > MAX_N:
        raise CommandError(f"--n {cfg.n} is above the size bound {MAX_N}")
    try:
        return block_grading(cfg.n, cfg.partition)
    except ValueError as exc:
        raise CommandError(str(exc))


def _no_csv(cfg: RunConfig) -> None:
    if cfg.fmt == "csv":
        raise CommandError(f"csv format is not supported for '{cfg.command}'")


def _generator_index(grading: Grading, label: str | None) -> int:
    carrier = grading.complement_indices
    if not carrier:
        raise CommandError("the complement m is zero; no geodesic generators")
    if label is None:
        return carrier[0]
    alg = grading.algebra
    text = label.strip()
    if text and text[0] in "Ee":
        text = text[1:]
    if "," in text:
        bits = text.split(",")
    elif "_" in text:
        bits = text.split("_")
    elif len(text) == 2:
        bits = [text[0], text[1]]
    else:
        raise CommandError(f"cannot parse generator label {label!r}")
    try:
        i, j = (int(b) for b in bits)
    except ValueError:
        raise CommandError(f"cannot parse generator label {label!r}")
    key = (min(i, j) - 1, max(i, j) - 1)
    if key not in alg.pair_index:
        raise CommandError(f"generator {label!r} is not a basis vector of so({alg.n})")
    idx = alg.pair_index[key]
    if idx not in carrier:
        raise CommandError(f"generator {label!r} lies in the fixed part, not in m")
    return idx


def _write(path: Path, payload: bytes) -> None:
    try:
        path.write_bytes(payload)
    except OSError as exc:
        raise CommandError(f"cannot write {str(path)!r}: {exc.strerror or exc}")


# -- command bodies ---------------------------------------------------------


def _run_grade(cfg: RunConfig) -> str:
    g = _grading(cfg)
    ok = verify_grading(g) is None
    if cfg.fmt == "text":
        return serialize.grading_text(g, ok)
    _no_csv(cfg)
    return serialize.dumps(serialize.grading_doc(g, ok))


def _run_metrics(cfg: RunConfig) -> str:
    g = _grading(cfg)
    family = invariant_family(g)
    refined = naturally_reductive_subfamily(family)
    evaluation = None
    if cfg.params is not None:
        if len(cfg.params) != family.dimension:
            raise CommandError(
                f"--params expects {family.dimension} values for this family, "
                f"got {len(cfg.params)}"
            )
        form = evaluate_family(family, cfg.params)
        evaluation = {
            "values": serialize.vector_json(cfg.params),
            "inertia": list(congruence_signature(form)),
        }
    if cfg.fmt == "text":
        text = serialize.family_text(family, refined.dimension)
        if evaluation is not None:
            p, n, z = evaluation["inertia"]
            text += f"inertia at given values: ({p}, {n}, {z})\n"
        return text
    _no_csv(cfg)
    doc = serialize.family_doc(family, refined.dimension)
    if evaluation is not None:
        doc["evaluation"] = evaluation
    return serialize.dumps(doc)


def _run_reductive(cfg: RunConfig) -> str:
    g = _grading(cfg)
    refined = naturally_reductive_subfamily(invariant_family(g))
    if cfg.fmt == "text":
        return serialize.reductive_text(refined)
    _no_csv(cfg)
    return serialize.dumps(serialize.reductive_doc(refined))


def _curvature_table(g: Grading):
    b_m = SymmetricForm.identity(len(g.complement_indices))
    b_e = SymmetricForm.identity(len(g.fixed_indices))
    return sectional_table(g, b_m, b_e)


def _run_curvature(cfg: RunConfig) -> str:
    g = _grading(cfg)
    table = _curvature_table(g)
    if cfg.fmt == "csv":
        return serialize.curvature_csv(table)
    if cfg.fmt == "text":
        return serialize.curvature_text(table)
    return serialize.dumps(serialize.curvature_doc(g, table))


def _run_lorentz(cfg: RunConfig) -> str:
    g = _grading(cfg)
    report = lorentzian_search(invariant_family(g))
    if cfg.fmt == "text":
        return serialize.lorentz_text(report)
    _no_csv(cfg)
    return serialize.dumps(serialize.lorentz_doc(g, report))


def _run_geodesic(cfg: RunConfig) -> str:
    g = _grading(cfg)
    idx = _generator_index(g, cfg.generator)
    label = g.algebra.basis_label(idx)
    curve = geodesic_curve(g.algebra.basis_matrix(idx))
    samples = {}
    for tok in cfg.t_samples:
        try:
            t = float(tok)
        except ValueError:
            t = math.nan
        if not math.isfinite(t):
            raise CommandError(f"--t-samples needs finite numbers, got {tok!r}")
        samples[tok] = t
    if cfg.fmt == "text":
        return serialize.geodesic_text(label, curve, samples)
    _no_csv(cfg)
    return serialize.dumps(serialize.geodesic_doc(g, label, curve, samples))


def _run_report(cfg: RunConfig) -> str:
    if cfg.out is None:
        raise CommandError("report requires --out DIRECTORY")
    g = _grading(cfg)
    outdir = Path(cfg.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CommandError(f"cannot create --out directory {cfg.out!r}: {exc.strerror or exc}")
    ok = verify_grading(g) is None
    family = invariant_family(g)
    refined = naturally_reductive_subfamily(family)
    table = _curvature_table(g)
    asr = ambrose_singer_check(
        g, SymmetricForm.identity(len(g.complement_indices))
    )
    lor = lorentzian_search(family)

    docs: dict[str, str] = {
        "grade.json": serialize.dumps(serialize.grading_doc(g, ok)),
        "family.json": serialize.dumps(
            serialize.family_doc(family, refined.dimension)
        ),
        "reductive.json": serialize.dumps(serialize.reductive_doc(refined)),
        "curvature.json": serialize.dumps(serialize.curvature_doc(g, table)),
        "curvature.csv": serialize.curvature_csv(table),
        "connection.json": serialize.dumps(
            {
                "n": g.algebra.n,
                "partition": serialize.partition_json(g),
                "contraction_vanishes": asr.contraction_vanishes,
                "totally_skew": asr.totally_skew,
            }
        ),
        "lorentz.json": serialize.dumps(serialize.lorentz_doc(g, lor)),
    }
    manifest = {"command": "report", "n": cfg.n, "partition": list(cfg.partition), "files": {}}
    for name in sorted(docs):
        payload = docs[name].encode("utf-8")
        _write(outdir / name, payload)
        manifest["files"][name] = {
            "sha256": hashlib.sha256(payload).hexdigest(),
            "bytes": len(payload),
        }
    manifest_text = serialize.dumps(manifest)
    _write(outdir / "manifest.json", manifest_text.encode("utf-8"))
    return f"wrote {len(docs) + 1} files to {outdir}\n"


_RUNNERS = {
    "grade": _run_grade,
    "metrics": _run_metrics,
    "reductive": _run_reductive,
    "curvature": _run_curvature,
    "lorentz": _run_lorentz,
    "geodesic": _run_geodesic,
    "report": _run_report,
}


def run(cfg: RunConfig) -> str:
    """Execute one configured command and return its payload text."""
    return _RUNNERS[cfg.command](cfg)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        payload = run(cfg)
        if cfg.out is not None and cfg.command != "report":
            _write(Path(cfg.out), payload.encode("utf-8"))
        else:
            sys.stdout.write(payload)
    except CommandError as exc:
        print(f"gammasym: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
