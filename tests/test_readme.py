"""README.md stays true to the code: every ```python block runs as written,
so its import paths and its asserted results cannot go stale, its lists
of stable ``--json`` field names are the keys the commands print, its
CLI examples use only the options the commands have, and it names every
module and every result type the package has."""

import argparse
import ast
import json
import re
from pathlib import Path

from setgraceful.cli import build_parser, main

README = Path(__file__).parents[1] / "README.md"
PACKAGE = Path(__file__).parents[1] / "src" / "setgraceful"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), {})
    assert capsys.readouterr().out


def stable_fields() -> dict[str, tuple[set[str], set[str]]]:
    """Per command, the README's top-level keys and the keys listed in its
    parenthesis (the per-item keys of a ``name[]`` list), from the bullets
    after "Stable field names:"."""
    section = README.read_text().split("Stable field names:", 1)[1].lstrip().split("\n\n", 1)[0]
    fields = {}
    for command, body in re.findall(r"^- (\w+): (.*?)(?=^- |\Z)", section, re.M | re.S):
        inner = " ".join(re.findall(r"\((.*?)\)", body, re.S))
        outer = re.sub(r"\(.*?\)", "", body, flags=re.S)
        fields[command] = (set(re.findall(r"`(\w+)(?:\[\])?`", outer)),
                           set(re.findall(r"`(\w+)`", inner)))
    return fields


def json_payload(capsys, *argv: str) -> dict:
    main(list(argv))
    return json.loads(capsys.readouterr().out)


def test_readme_json_fields_match_the_commands(capsys, tmp_path):
    graph = tmp_path / "k13.graph"
    graph.write_text("0 1\n0 2\n0 3\n")
    lab = tmp_path / "k13.lab"
    lab.write_text("m 2\n0 0\n1 1\n2 2\n3 3\n")
    check = json_payload(capsys, "check", str(graph), str(lab), "--json")
    search = json_payload(capsys, "search", str(graph), "--json")
    theorem = json_payload(capsys, "theorem", "--m", "2", "--json")
    assert stable_fields() == {
        "check": (set(check), set()),
        "search": (set(search), set()),
        "theorem": (set(theorem), set(theorem["pairs"][0])),
    }


def subcommand_options() -> dict[str, set[str]]:
    """Each subcommand's option strings, --help aside."""
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: {option for action in sub._actions for option in action.option_strings
                   if action.dest != "help"}
            for name, sub in commands.choices.items()}


def test_readme_cli_examples_use_real_options():
    options = subcommand_options()
    text = README.read_text()
    lines = [line.split("#", 1)[0]
             for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
             for line in block.splitlines() if line.startswith("setgraceful ")]
    assert len(lines) > len(options)
    for line in lines:
        command = line.split()[1]
        assert set(re.findall(r"--[\w-]+", line)) <= options[command], line
    # And every option has its place in README, so none goes undocumented.
    for command, names in options.items():
        for name in names:
            assert re.search(rf"(?<![\w-]){name}(?![\w-])", text), (command, name)


def record_types() -> set[str]:
    """The classes the package defines on `record.Record`, directly or not."""
    bases = {node.name: {base.id for base in node.bases if isinstance(base, ast.Name)}
             for path in PACKAGE.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ClassDef)}
    records = {"Record"}
    while grown := {name for name, names in bases.items() if names & records} - records:
        records |= grown
    return records - {"Record"}


def test_readme_names_every_module_and_result_type():
    text = README.read_text()
    types = text.split("The result types (", 1)[1].split(")", 1)[0]
    assert set(re.findall(r"`(\w+)`", types)) == record_types()
    # The modules are the backticked names outside the parentheses that describe them.
    modules = text.split("Modules map one-to-one", 1)[1].split("\n\n", 1)[0]
    listed = set(re.findall(r"`(\w+)`", re.sub(r"\(.*?\)", "", modules, flags=re.S)))
    assert listed == {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
