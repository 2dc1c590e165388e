"""Module boundaries and line lengths of the package, checked on its source."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "splitclust"


def test_source_lines_fit_in_100_characters():
    """Every line of the package and of its tests fits in 100 characters; a
    failure lists each longer line as ``path:line: N characters``."""
    root = SRC.parent.parent
    long = [
        f"{path.relative_to(root)}:{number}: {len(line)} characters"
        for top in ("src/splitclust", "tests")
        for path in sorted((root / top).glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert long == []


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


# public names kept without a reader in src/ or bench/, each with its reason
UNREAD_ALLOWED = {
    # the twin-free quotient that hunt/2 will decide (ROADMAP item 3)
    "graph.CriticalCliqueGraph.quotient_graph",
}


def test_every_public_name_has_a_reader_outside_the_tests():
    """A public top-level def or class of a module, or a public method or
    property of such a class, that neither the package (its own body and
    ``__init__.py`` aside) nor ``bench/`` reads is surface only tests reach.
    A top-level name is read as a name or as an attribute; a method or
    property only as an attribute, since no code reaches one by its bare name.

    Names are matched by spelling alone, so a name that shares its spelling
    with another that is read passes: ``Split.of`` does, through every ``.of``.
    """
    bench = SRC.parent.parent / "bench"
    modules = {p.stem: ast.parse(p.read_text(), str(p))
               for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"}
    trees = [*modules.values(),
             *(ast.parse(p.read_text(), str(p)) for p in sorted(bench.glob("*.py")))]

    def reads(node, attributes_only):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if not attributes_only:
                    yield sub.id

    counts = [Counter(name for tree in trees for name in reads(tree, only))
              for only in (False, True)]
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    public = []  # (qualified name, node, whether only attribute reads count)
    for stem, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (*functions, ast.ClassDef)) or node.name.startswith("_"):
                continue
            public.append((f"{stem}.{node.name}", node, False))
            if isinstance(node, ast.ClassDef):
                public += [(f"{stem}.{node.name}.{sub.name}", sub, True)
                           for sub in node.body
                           if isinstance(sub, functions) and not sub.name.startswith("_")]
    unread = {
        name for name, node, only in public
        if counts[only][node.name] == sum(n == node.name for n in reads(node, only))
    }
    assert len(public) > 100
    assert unread == UNREAD_ALLOWED


def test_only_bounded_functions_call_themselves():
    """A search that recurses once per level is bound by the recursion
    limit, so the searches keep explicit stacks.  Two functions recurse, each
    to a depth the library sets: `formats._dump` as deep as the JSON the
    library writes is nested, and `hunter._level` to depth n - 8 for the
    n-vertex forms, each level built on the one below."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)

    def callee(call, method):
        """The name a call reaches: a method reaches itself through self or
        cls, any other function through its bare name."""
        f = call.func
        if method:
            bound = isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
            return f.attr if bound and f.value.id in ("self", "cls") else None
        return f.id if isinstance(f, ast.Name) else None

    def self_calling(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (*defs, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
            method = isinstance(node, ast.ClassDef)
            if isinstance(child, defs) and any(
                isinstance(sub, ast.Call) and callee(sub, method) == child.name
                for sub in ast.walk(child)
            ):
                yield name
            yield from self_calling(child, name)

    found = [
        name
        for path in sorted(SRC.glob("*.py"))
        for name in self_calling(ast.parse(path.read_text(), str(path)), path.stem)
    ]
    assert found == ["formats._dump", "hunter._level"]


# the package's layers, lowest first: a module imports only from layers below
# its own, so each wire format has one owner above everything it writes
LAYERS = [["graph"], ["certificates"], ["reductions"], ["kernel", "solvers"],
          ["hunter"], ["formats"], ["cli"]]


def test_modules_import_only_from_layers_below_their_own():
    rank = {module: i for i, layer in enumerate(LAYERS) for module in layer}
    paths = sorted(p for p in SRC.glob("*.py") if p.stem != "__init__")
    assert sorted(rank) == [p.stem for p in paths]
    upward = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                targets = [node.module] if node.module else [a.name for a in node.names]
                upward += [f"{path.stem} imports {t}" for t in targets
                           if rank[t] >= rank[path.stem]]
    assert upward == []


def test_the_cli_leaves_json_to_formats():
    tree = ast.parse((SRC / "cli.py").read_text())
    imported = [
        alias.name if isinstance(node, ast.Import) else node.module
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert "json" not in imported
