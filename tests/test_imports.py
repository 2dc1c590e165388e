"""Module boundaries of the package, checked on its source."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "splitclust"


def test_modules_import_no_private_names_of_each_other():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").startswith("splitclust")
            for alias in node.names if internal else ():
                if alias.name.startswith("_"):
                    offenders.append(f"{path.name}:{node.lineno} {alias.name}")
    assert offenders == []


def test_modules_use_every_name_they_import():
    """A name imported but never read is dead; __init__.py is exempt, since
    its imports are the package's re-export list."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names if isinstance(node, (ast.Import, ast.ImportFrom)) else ():
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_every_private_top_level_name_is_read():
    """A private top-level def or class that no module of the package reads
    is dead; reads inside its own body do not count."""
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]

    def reads(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    private = [
        node for tree in trees for node in tree.body
        if isinstance(node, defs) and node.name.startswith("_")
    ]
    read = Counter(name for tree in trees for name in reads(tree))
    unread = [
        node.name for node in private
        if read[node.name] == sum(name == node.name for name in reads(node))
    ]
    assert private
    assert unread == []
