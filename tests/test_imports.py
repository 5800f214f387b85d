"""What importing gammasym loads and exports.

numpy and scipy load only where a caller asks for an ndarray; every
exported name exists; the benchmark's tracer still finds every entry point
it wraps.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gammasym
from gammasym import geodesic_curve, matrix_exp_numeric

SRC = str(Path(gammasym.__file__).resolve().parents[1])
SO5 = ["--n", "5", "--partition", "2,2,1,0"]

# prints, as its last line, the numpy and scipy modules loaded after the
# statements it is given
PROBE = """
import json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))))
"""


def loaded_heavy_modules(body: str, *args: str) -> list[str]:
    path = [SRC, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_bare_import_loads_no_numpy():
    assert loaded_heavy_modules("import gammasym") == []


@pytest.mark.parametrize(
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
def test_subcommand_loads_no_numpy(argv, tmp_path):
    args = [a.replace("{tmp}", str(tmp_path / "report")) for a in argv]
    body = "from gammasym.cli import main\nassert main(sys.argv[1:]) == 0"
    assert loaded_heavy_modules(body, *args) == []


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
