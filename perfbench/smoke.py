"""Smoke test for the benchmark.

Usage (from the root of a checkout): python3 perfbench/smoke.py

1. Runs every workload at tiny size, untraced and traced, and checks that
   each run is correct and reports exactly the metrics BENCHMARK.json names.
2. Corrupts the expected digests and checks that the digest-checked
   workloads then report failed ops (fail_ratio above 0).
3. Copies only BENCHMARK.json and perfbench/ to a scratch directory and
   checks that the benchmark refuses to run there.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd=run.ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [run.PY, "perfbench/run.py", "--seed", "1", "--seconds", "1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []
    names = {0: [m["name"] for m in SPEC["end_to_end"]], 1: [m["name"] for m in SPEC["per_layer"]]}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            code, out = bench("--workload", workload, "--trace", str(trace), "--size", "tiny")
            res = result(out) if code == 0 else {}
            if code != 0 or not res["correct"] or res["failed"] or sorted(res["metrics"]) != sorted(names[trace]):
                problems.append(f"{workload} trace {trace}: exit {code}\n{out[-2000:]}")

    run.TMP.mkdir(exist_ok=True)
    scratch = run.TMP / "smoke"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    try:
        expected = json.loads((run.BENCH / "expected.json").read_text())
        for table in (expected["cli"], *expected["sweep"].values()):
            for k in table:
                table[k] = "0" * 64
        corrupt = scratch / "corrupt.json"
        corrupt.write_text(json.dumps(expected))
        for workload in ("cli-cold", "partition-sweep-n8"):
            code, out = bench("--workload", workload, "--size", "tiny", "--expected", str(corrupt))
            res = result(out) if code == 0 else {}
            if code != 0 or res["correct"] or not res["failed"]:
                problems.append(f"{workload}: a corrupted digest was not reported as failed ops\n{out[-2000:]}")

        bare = scratch / "bare"
        bare.mkdir()
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, out = bench("--workload", "cli-cold", cwd=bare)
        if code == 0 or '"correct"' in out:
            problems.append(f"without sources the benchmark exited {code}:\n{out[-2000:]}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
