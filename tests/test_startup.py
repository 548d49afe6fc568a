"""CLI start-up stays light: loading the package imports neither ``dataclasses``
nor ``inspect`` (with ``ast``, ``dis`` and ``tokenize`` behind it), which would
cost every CLI process tens of milliseconds before it does any work, and a
command loads only the modules it uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import setgraceful

ENV = {**os.environ, "PYTHONPATH": str(Path(setgraceful.__file__).parents[1])}

# Runs the CLI on argv[1:], then prints the loaded module names on a last line.
_MODULES_AFTER_MAIN = (
    "import sys\n"
    "from setgraceful import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(code, sorted(sys.modules))\n"
)


def last_line(code: str, *argv: str) -> str:
    """The last line that a fresh interpreter running code on argv prints."""
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=ENV, timeout=60, check=True)
    return proc.stdout.splitlines()[-1]


def test_cli_import_skips_dataclasses_and_inspect():
    # A bare package import loads no submodule; the CLI loads only what every command uses.
    cli_modules = {"setgraceful.cli", "setgraceful.graph", "setgraceful.labeling",
                   "setgraceful.labels", "setgraceful.record"}
    for module, loaded in [("setgraceful", set()), ("setgraceful.cli", cli_modules)]:
        modules = set(ast.literal_eval(last_line(
            f"import {module}; import sys; print(sorted(sys.modules))")))
        assert {name for name in modules if name.startswith("setgraceful.")} == loaded
        assert modules.isdisjoint({"dataclasses", "inspect"})


def run_cli(*argv: str) -> tuple[int, set[str]]:
    code, modules = last_line(_MODULES_AFTER_MAIN, *argv).split(" ", 1)
    return int(code), set(ast.literal_eval(modules))


def test_check_loads_no_search_conditions_or_oracle(tmp_path):
    graph = tmp_path / "k13.graph"
    graph.write_text("0 1\n0 2\n0 3\n")
    lab = tmp_path / "k13.lab"
    lab.write_text("m 2\n0 0\n1 1\n2 2\n3 3\n")
    # gen, like check, neither searches nor decides.
    for argv in [("check", str(graph), str(lab)),
                 ("gen", "--type", "path", "--n", "4", "--out", str(tmp_path / "p4.graph"))]:
        code, modules = run_cli(*argv)
        assert code == 0
        assert "setgraceful.labeling" in modules
        assert modules.isdisjoint(
            {"setgraceful.search", "setgraceful.conditions", "setgraceful.oracle"})


def test_search_loads_no_oracle(tmp_path):
    graph = tmp_path / "k13.graph"
    graph.write_text("0 1\n0 2\n0 3\n")
    # theorem confirms each decision with a search, and neither command runs
    # the oracle.  Without a bytecode cache each process compiles every module
    # it loads, so a module that creeps onto this path costs every job.
    expected = {"setgraceful.cli", "setgraceful.graph", "setgraceful.labeling",
                "setgraceful.labels", "setgraceful.record", "setgraceful.search",
                "setgraceful.conditions"}
    for argv in [("search", str(graph)), ("theorem", "--m", "3")]:
        code, modules = run_cli(*argv)
        assert code == 0
        assert {name for name in modules if name.startswith("setgraceful.")} == expected

