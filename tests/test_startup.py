"""CLI start-up stays light: loading the package imports neither ``dataclasses``
nor ``inspect`` (with ``ast``, ``dis`` and ``tokenize`` behind it), which would
cost every CLI process tens of milliseconds before it does any work."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import setgraceful


def test_cli_import_skips_dataclasses_and_inspect():
    env = {**os.environ, "PYTHONPATH": str(Path(setgraceful.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "import setgraceful.cli; import sys; print(sorted(sys.modules))"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    modules = set(ast.literal_eval(proc.stdout))
    assert "setgraceful.cli" in modules
    assert modules.isdisjoint({"dataclasses", "inspect"})
