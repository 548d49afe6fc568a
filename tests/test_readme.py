"""README.md stays true to the code: every ```python block runs as written,
so its import paths and its asserted results cannot go stale, and its lists
of stable ``--json`` field names are the keys the commands print."""

import json
import re
from pathlib import Path

from setgraceful.cli import main

README = Path(__file__).parents[1] / "README.md"


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
