"""Source checks on the package modules."""
import ast
from collections import Counter
from pathlib import Path

import pytest

import motivic

MODULES = sorted(p for p in Path(motivic.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    unused = [name for name in imported if name not in used]
    assert not unused, f"unused imports: {unused}"


def _names(node):
    """Every identifier that node reads, assigns or imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.asname or sub.name


def _private_definitions(tree):
    """(name, node) for each module-level private function, class and
    constant of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in defined:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_private_names_are_used():
    """A module-level private name that the package names nowhere but in
    its own definition is dead code."""
    trees = [ast.parse(path.read_text())
             for path in Path(motivic.__file__).parent.glob("*.py")]
    named = Counter(name for tree in trees for name in _names(tree))
    unused = [name for tree in trees for name, node in _private_definitions(tree)
              if named[name] == list(_names(node)).count(name)]
    assert not unused, f"private names used nowhere: {unused}"
