"""The runtime stays standard-library only: every absolute import in the package
is either setgraceful itself or a standard-library module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "setgraceful"


def _absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_package_imports_only_stdlib():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = [
        (path.name, name)
        for path in sources
        for name in _absolute_imports(path)
        if name.split(".")[0] not in {"setgraceful", *sys.stdlib_module_names}
    ]
    assert foreign == []
