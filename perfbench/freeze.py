"""Freeze the expected outputs the benchmark checks against.

Usage (from the root of a checkout): python3 perfbench/freeze.py

Runs every CLI invocation and every sweep partition once, at full and at
tiny size, and writes their sha256 digests to perfbench/expected.json.
Run it only on a commit whose outputs are known good: the digests are
the regression contract that every later run is checked against.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import libworker
import run


def cli_digest(args: list[str], tmp: Path) -> str:
    outdir = tmp / "out"
    argv = [a.replace(run.OUT_DIR, str(outdir)) for a in args]
    *_, code = run.spawn([run.PY, "-m", "gammasym", *argv], tmp / "stdout", tmp / "stderr")
    if code != 0:
        raise RuntimeError(f"{run.key(args)} failed:\n{(tmp / 'stderr').read_text()}")
    if run.OUT_DIR in args:
        data = (outdir / "manifest.json").read_bytes()
        shutil.rmtree(outdir)
    else:
        data = (tmp / "stdout").read_bytes()
    return run.sha256(data)


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    import gammasym

    expected: dict = {"commit": run.git_commit(), "cli": {}, "sweep": {}}
    run.TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=run.TMP))
    try:
        for args in run.CLI_COLD:
            expected["cli"][run.key(args)] = cli_digest(args, tmp)
    finally:
        shutil.rmtree(tmp)
    for n in libworker.SWEEP_N.values():
        expected["sweep"][str(n)] = {
            libworker.partition_key(p): libworker.digest(libworker.analyse(gammasym, n, p))
            for p in libworker.compositions(n)
        }
    path = run.BENCH / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
