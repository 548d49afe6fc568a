"""Every public top-level function and class in the package has a caller:
some module of the package or of perfbench names it outside its own
definition.  Tests do not count, so a helper that only its own tests call
fails here."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "setgraceful"

# Kept without a caller, on purpose.
ALLOWED = {
    "construct_star_labeling",  # the constructive half of the star theorem
    "complete_bipartition",  # meant to let search answer complete bipartite graphs
}


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


def test_every_public_definition_has_a_caller():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    sources = [path for path in sources if not path.name.startswith("test_")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sources}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in ALLOWED:
                continue
            # A definition's references to itself (recursion) are not callers.
            if used[node.name] - _names(node)[node.name] == 0:
                unused.append(f"{path.name}:{node.name}")
    assert unused == []
