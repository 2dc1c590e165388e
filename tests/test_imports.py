"""Module boundaries of the package, checked on its source."""

from __future__ import annotations

import ast
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
