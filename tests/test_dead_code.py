"""Every top-level function, class and constant in the package has a caller
outside its own definition.  A public name's caller may be any module of the
package or of perfbench; a private name's (one with a leading underscore)
must be in its own module, so two modules' private helpers of one name do
not vouch for each other.  Tests do not count, so a helper that only its own
tests call fails here.  Nor does any class merely restate its base."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "setgraceful"


def _names(tree: ast.AST) -> Counter:
    """Every identifier a tree refers to: names, attributes and imported names."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rpartition(".")[2]] += 1
    return found


def _defined(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function, a class, or the
    plain names an assignment binds (the package version excepted)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name) and t.id != "__version__"]


def test_every_public_definition_has_a_caller():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    sources = [path for path in sources if not path.name.startswith("test_")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sources}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        in_module = _names(tree)
        for node in tree.body:
            for name in _defined(node):
                callers = in_module if name.startswith("_") else used
                # A definition's references to itself (recursion) are not callers.
                if callers[name] - _names(node)[name] == 0:
                    unused.append(f"{path.name}:{name}")
    assert unused == []


def test_no_class_restates_its_base():
    # A subclass whose body is only a docstring or `pass` adds a name and
    # nothing else; its callers can use the base.
    empty = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, ast.ClassDef) or not node.bases:
                continue
            if all(isinstance(stmt, ast.Pass)
                   or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                       and isinstance(stmt.value.value, str))
                   for stmt in node.body):
                empty.append(f"{path.name}:{node.name}")
    assert empty == []
