"""Source hygiene checks, made on the syntax tree of each module."""

import ast
import pathlib

import extweyl

PACKAGE = pathlib.Path(extweyl.__file__).parent


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_every_top_level_import_is_used():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        names = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if names:
            unused[path.name] = names
    assert unused == {}


def test_unused_import_is_reported():
    tree = ast.parse("import os\nimport sys\nfrom math import gcd, prod\nprod(sys.argv)\n")
    assert _unused_imports(tree) == ["os (line 1)", "gcd (line 3)"]
