"""CLI start-up stays light: loading the package imports neither ``dataclasses``
nor ``inspect`` (with ``ast``, ``dis`` and ``tokenize`` behind it), which would
cost every CLI process tens of milliseconds before it does any work, and a
command loads only the modules it uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

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
    modules = set(ast.literal_eval(last_line(
        "import setgraceful.cli; import sys; print(sorted(sys.modules))")))
    assert "setgraceful.cli" in modules
    assert modules.isdisjoint({"dataclasses", "inspect"})


def run_cli(*argv: str) -> tuple[int, set[str]]:
    code, modules = last_line(_MODULES_AFTER_MAIN, *argv).split(" ", 1)
    return int(code), set(ast.literal_eval(modules))


def test_check_loads_no_search_conditions_or_oracle(tmp_path):
    graph = tmp_path / "k13.graph"
    graph.write_text("0 1\n0 2\n0 3\n")
    lab = tmp_path / "k13.lab"
    lab.write_text("m 2\n0 0\n1 1\n2 2\n3 3\n")
    code, modules = run_cli("check", str(graph), str(lab))
    assert code == 0
    assert "setgraceful.labeling" in modules
    assert modules.isdisjoint({"setgraceful.search", "setgraceful.conditions", "setgraceful.oracle"})


def test_search_loads_no_oracle(tmp_path):
    graph = tmp_path / "k13.graph"
    graph.write_text("0 1\n0 2\n0 3\n")
    code, modules = run_cli("search", str(graph))
    assert code == 0
    assert "setgraceful.search" in modules
    assert "setgraceful.oracle" not in modules


def test_every_public_name_resolves():
    for name in setgraceful.__all__:
        value = getattr(setgraceful, name)
        assert not isinstance(value, ModuleType), name
    assert set(setgraceful.__all__) <= set(dir(setgraceful))


def test_search_stays_the_function_after_its_module_loads():
    # Loading the submodule binds it on the package under the function's name.
    out = last_line(
        "import sys, setgraceful.search, setgraceful\n"
        "print(setgraceful.search is sys.modules['setgraceful.search'].search)"
    )
    assert out == "True"
