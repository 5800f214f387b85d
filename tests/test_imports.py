"""What importing gammasym loads and exports.

numpy and scipy load only where a caller asks for an ndarray; dataclasses
(and the inspect it pulls in) never load, hashlib only where ``report``
writes its manifest, and pathlib only where a file is written; every
exported name exists; the benchmark's tracer still finds every entry point
it wraps; the README states the line count of ``src/``.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gammasym
from gammasym import geodesic_curve, matrix_exp_numeric

SRC = str(Path(gammasym.__file__).resolve().parents[1])
SO5 = ["--n", "5", "--partition", "2,2,1,0"]

HEAVY = ("numpy", "scipy")
# dataclasses costs its inspect, ast, dis and tokenize imports, hashlib its
# OpenSSL binding: a cold CLI call should pay for neither
STARTUP = ("dataclasses", "inspect", "hashlib")

# prints, as its last line, the modules under the top-level names ``roots``
# that are loaded after the statements it is given
PROBE = """
import json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in {roots!r})))
"""
RUN_MAIN = "from gammasym.cli import main\nassert main(sys.argv[1:]) == 0"

SUBCOMMANDS = pytest.mark.parametrize(
    "argv",
    [
        ["grade", *SO5],
        ["metrics", *SO5, "--params", "1,0,1,1"],
        ["reductive", *SO5],
        ["curvature", *SO5, "--format", "csv"],
        ["lorentz", *SO5],
        ["geodesic", *SO5, "--generator", "E13", "--t-samples", "0.1,1,5"],
        ["report", *SO5, "--out", "{tmp}"],
    ],
    ids=lambda argv: argv[0],
)


def loaded_modules(
    body: str, *args: str, roots: tuple[str, ...] = HEAVY, flags: tuple[str, ...] = ()
) -> list[str]:
    path = [SRC, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", PROBE.format(body=body, roots=roots), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_bare_import_loads_no_numpy():
    assert loaded_modules("import gammasym") == []


@SUBCOMMANDS
def test_subcommand_loads_no_numpy(argv, tmp_path):
    args = [a.replace("{tmp}", str(tmp_path / "report")) for a in argv]
    assert loaded_modules(RUN_MAIN, *args) == []


def test_import_loads_no_dataclasses_inspect_or_hashlib():
    for body in ("import gammasym", "import gammasym.cli"):
        assert loaded_modules(body, roots=STARTUP) == [], body


@SUBCOMMANDS
def test_only_report_loads_hashlib(argv, tmp_path):
    """Records are NamedTuples, so no subcommand loads dataclasses or
    inspect; hashlib loads inside the function that writes the manifest."""
    args = [a.replace("{tmp}", str(tmp_path / "report")) for a in argv]
    want = ["hashlib"] if argv[0] == "report" else []
    assert loaded_modules(RUN_MAIN, *args, roots=STARTUP) == want


def test_only_writing_a_file_loads_pathlib(tmp_path):
    """``report`` and ``--out`` load pathlib where they write; importing the
    CLI and printing to stdout do not.  Run with -S, since the site module
    may load pathlib on its own."""
    probe = dict(roots=("pathlib",), flags=("-S",))
    assert loaded_modules("import gammasym.cli", **probe) == []
    assert loaded_modules(RUN_MAIN, "grade", *SO5, **probe) == []
    out = str(tmp_path / "grade.json")
    assert loaded_modules(RUN_MAIN, "grade", *SO5, "--out", out, **probe) == ["pathlib"]


def test_float_oracle_still_returns_ndarrays():
    import numpy as np

    e = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
    assert isinstance(matrix_exp_numeric(e, 0.5), np.ndarray)
    r = geodesic_curve(e).at(0.5)
    assert isinstance(r, np.ndarray) and r.dtype == float
    assert np.abs(r.T @ r - np.eye(3)).max() <= 1e-12


def test_every_exported_name_exists():
    assert [name for name in gammasym.__all__ if not hasattr(gammasym, name)] == []
    namespace: dict = {}
    exec("from gammasym import *", namespace)
    assert set(gammasym.__all__) <= set(namespace)


def test_benchmark_traced_run_finds_its_entry_points():
    # perfbench/tracing.py wraps library functions by name from outside src/
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    body = (
        "import gammasym, libworker, tracing\n"
        "tracing.install(tracing.Tracer())\n"
        "libworker.analyse(gammasym, 4, (1, 1, 1, 1))\n"
        "print('returned')"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, str(perfbench)]))
    proc = subprocess.run(
        [sys.executable, "-c", body], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0 and proc.stdout.split() == ["returned"], proc.stderr


def unused_imports(source: str, exported: frozenset[str] = frozenset()) -> list[str]:
    """Names a module imports and never reads, by the stdlib ``ast`` alone.

    ``from __future__`` imports and the names in ``exported`` (re-exports)
    are exempt.  A name counts as read when it occurs as a Name node
    anywhere, string annotations ("FormFamily | None") included.
    """
    nodes = list(ast.walk(ast.parse(source)))
    imported = {}
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
        elif isinstance(node, ast.Import):
            imported.update({(a.asname or a.name).split(".")[0]: node.lineno for a in node.names})
    annotations = [n.annotation for n in nodes if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in nodes if isinstance(n, ast.FunctionDef)]
    quoted = [
        ast.parse(c.value, mode="eval")
        for a in annotations
        if a is not None
        for c in ast.walk(a)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    ]
    nodes += [n for q in quoted for n in ast.walk(q)]
    read = {n.id for n in nodes if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read | exported]


def test_unused_import_check_sees_a_leftover():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from typing import Iterable, Sequence\n"
        "from .linalg import ONE as one, ZERO\n"
        "def f(x: 'Sequence[int]') -> int:\n"
        "    return math.floor(one) + os.path.sep.count(x)\n"
    )
    assert unused_imports(source) == ["Iterable (line 3)", "ZERO (line 4)"]
    assert unused_imports(source, frozenset({"ZERO"})) == ["Iterable (line 3)"]


def test_no_module_imports_a_name_it_never_uses():
    package = Path(gammasym.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 10
    found = {}
    for path in modules:
        exported = frozenset(gammasym.__all__) if path.name == "__init__.py" else frozenset()
        unused = unused_imports(path.read_text(), exported)
        if unused:
            found[path.name] = unused
    assert found == {}


def test_readme_states_the_src_line_count():
    """The README's "`src/` holds N lines" is the `wc -l src/gammasym/*.py`
    total, the count the roadmap tracks."""
    root = Path(__file__).resolve().parents[1]
    total = sum(p.read_bytes().count(b"\n") for p in (root / "src" / "gammasym").glob("*.py"))
    stated = re.findall(r"`src/` holds ([\d,]+) lines", (root / "README.md").read_text())
    assert stated == [f"{total:,}"]
