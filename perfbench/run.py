"""The gammasym benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in WORKLOADS, or ``all`` to run each in
turn.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
short untraced run and a traced run and reports the per-layer metrics.
Every metric is printed as ``name value unit`` and the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  perfbench/README.md describes
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import reference
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"
PY = sys.executable
ENV = dict(os.environ, PYTHONPATH=str(SRC))

WORKLOADS = ("cli-cold", "partition-sweep-n8", "killing-beta-n13")
SETUP_REPEATS = 7

SO5 = ["--n", "5", "--partition", "2,2,1,0"]
OUT_DIR = "{out}"  # replaced by a fresh directory for every op
# The README's documented invocations, all at n = 5 so that computation
# stays in milliseconds and the op is interpreter start plus imports.
CLI_COLD = [
    ["grade", *SO5],
    ["metrics", *SO5, "--params", "1,0,1,1"],
    ["reductive", *SO5],
    ["curvature", *SO5],
    ["curvature", *SO5, "--format", "csv"],
    ["curvature", *SO5, "--format", "text"],
    ["lorentz", "--n", "5", "--partition", "1,1,3,0"],
    ["geodesic", *SO5, "--generator", "E13", "--t-samples", "0.1,1,5"],
    ["report", *SO5, "--out", OUT_DIR],
]

# per-layer self time per op, from spans of these names
LAYER_SPANS = {
    "liealg.build_s": "liealg.build",
    "liealg.killing_s": "liealg.killing",
    "grading.verify_s": "grading.verify",
    "grading.holonomy_s": "grading.holonomy",
    "metrics.invariant_family_s": "metrics.invariant_family",
    "metrics.refine_s": "metrics.refine",
    "metrics.is_adapted_s": "metrics.is_adapted",
    "metrics.lorentz_s": "metrics.lorentz",
    "metrics.beta_s": "metrics.beta",
    "linalg.signature_s": "linalg.signature",
    "linalg.solve_s": "linalg.solve",
    "linalg.charpoly_s": "linalg.charpoly",
    "geometry.ambrose_s": "geometry.ambrose",
    "geometry.sectional_s": "geometry.sectional",
    "geometry.geodesic_s": "geometry.geodesic",
    "geometry.oracle_s": "geometry.oracle",
    "serialize.render_s": "serialize.render",
    "cli.self_s": "cli",
}
# per-layer counts per op
LAYER_COUNTS = (
    "liealg.table_terms",
    "metrics.lorentz_forms_tried",
    "linalg.rows_inserted",
    "linalg.pivots",
    "linalg.signature_calls",
    "serialize.bytes",
)


def key(args: list[str]) -> str:
    return " ".join(args)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_ok(outdir: Path, want: str) -> bool:
    """Every report file matches its manifest entry; the manifest matches ``want``."""
    raw = (outdir / "manifest.json").read_bytes()
    files = json.loads(raw)["files"]
    if sorted(os.listdir(outdir)) != sorted([*files, "manifest.json"]):
        return False
    for name, meta in files.items():
        data = (outdir / name).read_bytes()
        if sha256(data) != meta["sha256"] or len(data) != meta["bytes"]:
            return False
    return sha256(raw) == want


def spawn(argv: list, stdout: Path, stderr: Path) -> tuple[float, float, float, int, int]:
    """Run argv to completion: (start, wall seconds, CPU seconds, peak RSS in
    KiB, exit code)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], stdout=out, stderr=err, env=ENV, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, seconds, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode


class Run:
    """The ops, spans and counters of one measured loop."""

    def __init__(self):
        self.ops: list[dict] = []
        self.loop_s = 0.0
        self.rss_kb = 0
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.max_bits = 0
        self.imports: list[dict[str, float]] = []
        self.ref_nominal = reference.KERNEL_S  # see reference.py

    def merge(self, spans: list[list], parent: int | None, counts: dict, max_bits: int) -> None:
        """Append a child's spans, renumbered; its top-level spans hang under ``parent``."""
        base = len(self.spans)
        for sid, name, par, op, start, end in spans:
            self.spans.append([base + sid, name, parent if par is None else base + par, op, start, end])
        for name, k in counts.items():
            self.counts[name] = self.counts.get(name, 0) + k
        self.max_bits = max(self.max_bits, max_bits)

    @property
    def timed(self) -> list[float]:
        """CPU seconds of every timed op."""
        return [o["s"] for o in self.ops if not o["warm"]]

    @property
    def normed(self) -> list[float]:
        """Reference seconds of every timed op: its CPU seconds scaled by the
        reference timed next to it (its ``ref``)."""
        return [o["s"] * self.ref_nominal / o["ref"] for o in self.ops if not o["warm"]]

    @property
    def speed(self) -> float:
        """Typical factor from this run's CPU seconds to reference seconds."""
        return self.ref_nominal / statistics.median(o["ref"] for o in self.ops if not o["warm"])


def cli_rounds(seed: int):
    rng = random.Random(seed)
    cmds = list(CLI_COLD)
    while True:
        rng.shuffle(cmds)
        yield list(cmds)


def cli_op(run: Run, args: list[str], tmp: Path, expected: dict, traced: bool, warm: bool = False) -> None:
    op_id = len(run.ops)
    outdir = tmp / f"op{op_id}"
    argv = [a.replace(OUT_DIR, str(outdir)) for a in args]
    stdout, stderr, spans = tmp / "stdout", tmp / "stderr", tmp / "spans.json"
    if traced:
        cmd = [PY, "-X", "importtime", BENCH / "traced_cli.py", spans, op_id, *argv]
    else:
        cmd = [PY, "-m", "gammasym", *argv]
    spans.unlink(missing_ok=True)
    start, wall, cpu, rss, code = spawn(cmd, stdout, stderr)
    ok = False
    if code == 0:
        try:
            want = expected["cli"][key(args)]
            if OUT_DIR in args:
                ok = report_ok(outdir, want)
            else:
                ok = sha256(stdout.read_bytes()) == want
        except (KeyError, OSError, ValueError):
            ok = False
    op = {"op": op_id, "label": key(args), "s": cpu, "wall": wall, "ok": ok, "warm": warm, "error": code or None}
    run.ops.append(op)
    run.rss_kb = max(run.rss_kb, rss)
    if traced and spans.exists():
        child = json.loads(spans.read_text())
        op_span = len(run.spans)
        run.spans.append([op_span, "op", None, op_id, start, start + wall])
        run.spans.append([op_span + 1, "interp.startup", op_span, op_id, start, child["t0"]])
        run.merge(child["spans"], op_span, child["counts"], child["max_bits"])
        run.imports.append(tracing.parse_importtime(stderr.read_text()))
    shutil.rmtree(outdir, ignore_errors=True)


def cli_workload(seed: int, seconds: float, traced: bool, expected: dict, tmp: Path) -> Run:
    run = Run()
    run.ref_nominal = reference.SPAWN_S
    rounds = cli_rounds(seed)
    first = next(rounds)
    cli_op(run, first[0], tmp, expected, False, warm=True)
    before = spawn_references(run.ops[-1]["s"], tmp)
    loop_start = time.perf_counter()
    round_s: list[float] = []
    batch = first
    while True:
        r0 = time.perf_counter()
        for args in batch:
            cli_op(run, args, tmp, expected, traced)
            after = spawn_references(run.ops[-1]["s"], tmp)
            run.ops[-1]["ref"] = statistics.median(before + after)
            before = after
        now = time.perf_counter()
        round_s.append(now - r0)
        if now - loop_start + statistics.mean(round_s) > seconds:
            break
        batch = next(rounds)
    run.loop_s = time.perf_counter() - loop_start
    return run


def lib_workload(workload: str, size: str, seed: int, seconds: float, traced: bool, expected_path: Path, tmp: Path) -> Run:
    result = tmp / "worker.json"
    cfg = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "size": size,
        "trace": traced,
        "expected": str(expected_path),
        "result": str(result),
    }
    cmd = [PY, *(["-X", "importtime"] if traced else []), BENCH / "libworker.py", json.dumps(cfg)]
    start, _, _, rss, code = spawn(cmd, tmp / "stdout", tmp / "stderr")
    if code != 0:
        sys.stderr.write((tmp / "stderr").read_text()[-4000:])
        raise RuntimeError(f"{workload} worker exited with status {code}")
    doc = json.loads(result.read_text())
    run = Run()
    run.ops, run.loop_s, run.rss_kb = doc["ops"], doc["loop_s"], rss
    if traced:
        run.spans.append([0, "interp.startup", None, None, start, doc["t0"]])
        run.merge(doc["spans"], None, doc["counts"], doc["max_bits"])
        run.imports.append(tracing.parse_importtime((tmp / "stderr").read_text()))
    return run


def spawn_references(after_s: float, tmp: Path) -> list[float]:
    """CPU seconds of reference interpreters (see reference.py), as many as
    take about 3 % of ``after_s``, one at least.  An op is scaled by the
    median of the references run just before and just after it."""
    times: list[float] = []
    while not times or sum(times) < 0.03 * after_s:
        _, _, cpu, _, code = spawn(reference.SPAWN, tmp / "stdout", tmp / "stderr")
        if code != 0:
            raise RuntimeError("reference interpreter failed:\n" + (tmp / "stderr").read_text())
        times.append(cpu)
    return times


def measure(workload: str, size: str, seed: int, seconds: float, traced: bool, expected_path: Path, tmp: Path) -> Run:
    if workload == "cli-cold":
        expected = json.loads(expected_path.read_text())
        return cli_workload(seed, seconds, traced, expected, tmp)
    return lib_workload(workload, size, seed, seconds, traced, expected_path, tmp)


def setup_run(tmp: Path) -> Run:
    """A fresh interpreter importing gammasym.cli, SETUP_REPEATS times."""
    run = Run()
    run.ref_nominal = reference.SPAWN_S
    before = spawn_references(0, tmp)
    for k in range(SETUP_REPEATS):
        _, wall, cpu, _, code = spawn([PY, "-c", "import gammasym.cli"], tmp / "stdout", tmp / "stderr")
        if code != 0:
            raise RuntimeError("import gammasym.cli failed:\n" + (tmp / "stderr").read_text())
        after = spawn_references(cpu, tmp)
        ref = statistics.median(before + after)
        before = after
        run.ops.append({"op": k, "label": "setup", "s": cpu, "wall": wall, "ref": ref, "ok": True, "warm": False, "error": None})
    return run


def end_to_end(run: Run, setup: Run) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics in reference seconds, and the raw values."""
    timed, normed = run.timed, run.normed
    metrics = {
        "setup_s": statistics.median(setup.normed),
        "op_s.p50": statistics.median(normed),
        "ops_per_s": len(normed) / sum(normed),
        "peak_rss_mb": run.rss_kb / 1024,
    }
    walls = [o["wall"] for o in run.ops if not o["warm"]]
    raw = {
        "cpu_setup_s": statistics.median(setup.timed),
        "cpu_op_s.p50": statistics.median(timed),
        "wall_setup_s": statistics.median(o["wall"] for o in setup.ops),
        "wall_op_s.p50": statistics.median(walls),
        "wall_ops_per_s": len(walls) / run.loop_s,
        "speed": run.speed,
        "setup_speed": setup.speed,
    }
    return metrics, raw


def per_layer(plain: Run, traced: Run) -> tuple[dict[str, float], dict]:
    selfs = tracing.self_times(traced.spans)
    for row in selfs.values():
        row[0] *= traced.speed
    ops = len(traced.timed)
    out = {name: selfs.get(span, [0.0, 0])[0] / ops for name, span in LAYER_SPANS.items()}
    for name in LAYER_COUNTS:
        out[name] = traced.counts.get(name, 0) / ops
    inserted = traced.counts.get("linalg.rows_inserted", 0)
    out["linalg.useful_ratio"] = traced.counts.get("linalg.pivots", 0) / inserted if inserted else 0.0
    out["linalg.max_bits"] = traced.max_bits
    starts = len(traced.imports)
    out["import.total_s"] = sum(i["total"] for i in traced.imports) / starts * traced.speed
    out["import.numpy_scipy_s"] = sum(i["numpy_scipy"] for i in traced.imports) / starts * traced.speed
    out["interp.startup_s"] = selfs.get("interp.startup", [0.0, 0])[0] / starts
    op_total = sum(s[5] - s[4] for s in traced.spans if s[1] == "op") * traced.speed
    out["trace.unattributed_share"] = selfs["op"][0] / op_total
    out["trace.overhead_ratio"] = statistics.median(traced.normed) / statistics.median(plain.normed)
    out["trace.ops"] = ops
    return out, selfs


def layer_table(selfs: dict, ops: int) -> list[str]:
    """Self time and calls per span name, heaviest first."""
    total = sum(row[0] for row in selfs.values())
    lines = [f"{'span':<28} {'calls/op':>10} {'self s/op':>11} {'share':>7}"]
    for name, (s, calls) in sorted(selfs.items(), key=lambda item: -item[1][0]):
        lines.append(f"{name:<28} {calls / ops:>10.2f} {s / ops:>11.5f} {s / total:>7.1%}")
    return lines


def write_spans(path: Path, spans: list[list], origin: float) -> None:
    with open(path, "w") as f:
        for s in spans:
            row = dict(zip(tracing.SPAN_FIELDS, s))
            row["start"] -= origin
            row["end"] -= origin
            f.write(json.dumps(row) + "\n")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
    }


def bench_one(workload: str, args, expected_path: Path) -> dict:
    """Measure one workload; prints its metrics and returns its result."""
    tmp = TMP / f"{workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            half = args.seconds / 2
            plain = measure(workload, args.size, args.seed, half, False, expected_path, tmp)
            traced = measure(workload, args.size, args.seed, half, True, expected_path, tmp)
            metrics, selfs = per_layer(plain, traced)
            raw, runs = {"speed": traced.speed}, [plain, traced]
        else:
            setup = setup_run(tmp)
            run = measure(workload, args.size, args.seed, args.seconds, False, expected_path, tmp)
            (metrics, raw), runs = end_to_end(run, setup), [run]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    ops = [o for r in runs for o in r.ops]
    failed = sum(not o["ok"] for o in ops)
    units = load_units()
    print(f"== {workload} (seed {args.seed}, {args.seconds} s, trace {args.trace})")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print("raw " + json.dumps({name: round(value, 6) for name, value in raw.items()}))
    timed = runs[-1].timed
    print(f"timed ops {len(timed)} of {len(ops)} attempted")
    if len(timed) >= 100:
        p90 = statistics.quantiles(runs[-1].normed, n=10)[-1]
        print(f"op_s.p90 {p90:.6g} s (n={len(timed)})")
    print(f"fail_ratio {failed / len(ops):.6g} ratio ({failed} of {len(ops)} ops)")
    for o in ops:
        if not o["ok"]:
            print(f"FAILED op {o['op']} {o['label']}: {o['error'] or 'wrong output'}")
    if args.trace:
        print("\n".join(layer_table(selfs, len(timed))))
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": workload,
        "size": args.size,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "raw": raw,
        "attempted": len(ops),
        "failed": failed,
        "ops": ops,
    }
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        write_spans(stem.with_suffix(".spans.jsonl"), traced.spans, traced.spans[0][4])
    print("environment " + json.dumps(result["environment"]))
    return result


def load_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def compile_sources() -> None:
    """Byte-compile the package and the benchmark, as an install would."""
    subprocess.run([PY, "-m", "compileall", "-q", str(SRC), str(BENCH)], check=True, stdout=subprocess.DEVNULL)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny inputs, for the smoke test")
    parser.add_argument("--expected", type=Path, default=BENCH / "expected.json", help="frozen output digests")
    args = parser.parse_args(argv)
    if not (SRC / "gammasym" / "__init__.py").is_file():
        print(f"perfbench: no gammasym package under {SRC}; run from the root of a gammasym checkout", file=sys.stderr)
        return 2
    # One core for the harness and every process it starts, so that each op
    # and the references timed around it run on the same core; see reference.py.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    compile_sources()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [bench_one(w, args, args.expected) for w in workloads]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{m}": v for r in results for m, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
