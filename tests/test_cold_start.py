"""Cold start: SciPy loads only when a solver or an attention gate first runs.

detnum runs each CLI command as its own process, and importing SciPy costs
most of that process's start-up. So no detnum module imports it at module
level: `transport.exact_kp`, `transport.exact_injection` and the attention
sigmoid import it on their first call. The check runs in a fresh interpreter,
because this test process may already hold SciPy through other tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import detnum
from test_golden import CASES, INPUTS, expected_case
from test_public_api import MODULES

# commands that never call a SciPy function, run on the golden inputs
SCIPY_FREE = ["loss-compare", "match-csv", "match-siou", "eval-csv", "sweep-brightness",
              "sweep-noise", "fuse-check", "fuse-check-block", "gradcheck"]
# commands that do, whose first call imports SciPy in a fresh process
SCIPY_USERS = ["match-verify-5", "attn-demo"]

CHILD = """
import contextlib, importlib, io, json, sys
from detnum.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

modules, cases = json.loads(sys.stdin.read())
for name in modules:
    importlib.import_module(name)
report = {"import": scipy_modules(), "cases": {}}
for name, argv in cases:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    report["cases"][name] = {"code": code, "stdout": buf.getvalue(), "scipy": scipy_modules()}
print(json.dumps(report))
"""


def test_scipy_loads_only_on_first_solver_or_gate_call(tmp_path):
    cases = []
    for name in SCIPY_FREE + SCIPY_USERS:
        out_dir = tmp_path / name
        out_dir.mkdir()
        cases.append((name, [a.replace("{in}", str(INPUTS)).replace("{out}", str(out_dir))
                             for a in CASES[name]]))
    src = str(Path(detnum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps([MODULES, cases]),
                          env=env, capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout)

    assert "scipy" in report["cases"]["match-verify-5"]["scipy"], "the check cannot see SciPy"
    assert report["import"] == [], "importing detnum loaded SciPy"
    for name in SCIPY_FREE:
        assert report["cases"][name]["scipy"] == [], f"{name} loaded SciPy"
    for name in SCIPY_USERS:
        want_code, want_out, want_files = expected_case(name)
        got = report["cases"][name]
        assert (got["code"], got["stdout"].encode("utf-8")) == (want_code, want_out), name
        root = tmp_path / name
        files = {p.relative_to(root).as_posix(): p.read_bytes()
                 for p in sorted(root.rglob("*")) if p.is_file()}
        assert files == want_files, name
