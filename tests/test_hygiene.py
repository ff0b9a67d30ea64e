"""Source hygiene checks, made on the syntax tree of each module."""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys

import extweyl

PACKAGE = pathlib.Path(extweyl.__file__).parent
TRACING = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"


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


def _function_imports(tree: ast.Module) -> list[str]:
    """Import statements inside a function body, by line."""
    lines = {
        n.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for n in ast.walk(fn)
        if isinstance(n, (ast.Import, ast.ImportFrom))
    }
    return [f"line {line}" for line in sorted(lines)]


def test_imports_are_at_module_level():
    nested = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = _function_imports(ast.parse(path.read_text(), filename=str(path)))
        if lines:
            nested[path.name] = lines
    assert nested == {}


def test_function_import_is_reported():
    tree = ast.parse(
        "import os\n"
        "def f():\n    from math import gcd\n    def g():\n        import sys\n"
        "class C:\n    def m(self):\n        import re\n"
    )
    assert _function_imports(tree) == ["line 3", "line 5", "line 8"]


def _imported_modules(tree: ast.Module) -> set[str]:
    """Top-level package names of every module the tree imports."""
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            names.update(alias.name.split(".")[0] for alias in n.names)
        elif isinstance(n, ast.ImportFrom) and n.module and not n.level:
            names.add(n.module.split(".")[0])
    return names


def _users_of(module: str) -> list[str]:
    """The package modules that import `module`."""
    return [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if module in _imported_modules(ast.parse(path.read_text(), filename=str(path)))
    ]


def test_package_does_not_import_fractions():
    # exact arithmetic here means integers: rationals stay in the tests
    assert _users_of("fractions") == []


def test_package_does_not_import_dataclasses():
    # records are NamedTuples and plain classes, so that the import stays
    # cheap: dataclasses loads inspect, ast, dis and tokenize
    assert _users_of("dataclasses") == []


def test_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter without site, so only the package's own imports count
    code = (
        "import sys\n"
        "import extweyl, extweyl.cli, extweyl.verify\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_imported_module_is_reported():
    tree = ast.parse(
        "import os.path\nfrom fractions import Fraction\nfrom . import sibling\n"
        "def f():\n    import json\n"
    )
    assert _imported_modules(tree) == {"os", "fractions", "json"}


# Definitions that nothing in the package calls, and attributes that
# nothing in the package reads, each kept for the tests or the benchmark
# workload named here.
ORACLES = {
    "weyl.orbit_bruteforce": "test_weyl._orbit_partitions_agree",
}


def _unreferenced(trees: dict[str, ast.Module]) -> list[str]:
    """Top-level functions and classes that no ast.Name or ast.Attribute
    outside their own definition mentions, and non-dunder methods that no
    ast.Attribute outside their own definition mentions: a bare name equal
    to a method's name is some other variable, not the method.

    `trees` maps module names to syntax trees; `__init__` only re-exports,
    so its mentions do not count.
    """
    defs = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{mod}.{node.name}", node, False))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        defs.append((f"{mod}.{node.name}.{item.name}", item, True))
    mentions: dict[str, list[ast.AST]] = {}
    for mod, tree in trees.items():
        if mod == "__init__":
            continue
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                mentions.setdefault(n.id, []).append(n)
            elif isinstance(n, ast.Attribute):
                mentions.setdefault(n.attr, []).append(n)
    out = []
    for qualname, node, method in defs:
        own = {id(n) for n in ast.walk(node)}
        refs = [
            n for n in mentions.get(node.name, [])
            if id(n) not in own and not (method and isinstance(n, ast.Name))
        ]
        if not refs:
            out.append(qualname)
    return out


def _unread_attributes(trees: dict[str, ast.Module]) -> list[str]:
    """Attributes that a class stores on `self` and that no ast.Attribute
    in a load context reads, matched by bare name; `__init__` does not
    count as a reader."""
    stored = {}
    read = set()
    for mod, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for n in ast.walk(cls):
                if (
                    isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name)
                    and n.value.id == "self"
                ):
                    stored.setdefault(f"{mod}.{cls.name}.{n.attr}", n.attr)
        if mod != "__init__":
            read.update(
                n.attr
                for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            )
    return [qualname for qualname, attr in stored.items() if attr not in read]


def test_every_definition_is_referenced_or_an_oracle():
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert sorted(_unreferenced(trees) + _unread_attributes(trees)) == sorted(ORACLES)


def test_unreferenced_definition_is_reported():
    trees = {
        "a": ast.parse(
            "def used():\n    pass\n"
            "def recursive():\n    recursive()\n"
            "class C:\n"
            "    def m(self):\n        pass\n"
            "    def n(self):\n        return self.m()\n"
            "    def value(self):\n        return 0\n"
            "    def __repr__(self):\n        return ''\n"
        ),
        # a variable that shares a method's name does not reference it
        "b": ast.parse("from a import used, recursive\nused()\nvalue = used\n"),
        "__init__": ast.parse("from a import C\n__all__ = ['C']\nC.n\n"),
    }
    assert _unreferenced(trees) == ["a.recursive", "a.C", "a.C.n", "a.C.value"]


def test_unread_attribute_is_reported():
    trees = {
        "a": ast.parse(
            "class C:\n"
            "    def __init__(self):\n"
            "        self.read = 1\n"
            "        self.unread = 2\n"
            "        self.only_reexported: int = 3\n"
            "    def m(self):\n"
            "        self.read += 1\n"
            "        return self.read\n"
            "def f(x):\n"
            "    x.unread = 4\n"
        ),
        "__init__": ast.parse("from a import C\nC().only_reexported\n"),
    }
    assert _unread_attributes(trees) == ["a.C.unread", "a.C.only_reexported"]


# Tracer targets that name nothing in the package: the benchmark reports
# their metrics as 0 and lists them in detail.missing_targets, so they
# leave TARGETS with the next change to the benchmark.
MISSING_TARGETS = {
    "lattice_algebra.BoxForm.init",
    "weyl.slice_residues_mod",
    "root_core.same_reflection",
    "root_core.reflect_root_index",
    "root_core.pairing",
}


def test_tracer_targets_resolve():
    # the tracer skips a target it cannot find, so a rename in the package
    # would silently untrace a layer
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = set()
    for prefix, modname, path, _ in tracing.TARGETS:
        owner = importlib.import_module(modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if attr not in getattr(owner, "__dict__", {}):
            unresolved.add(prefix)
    assert unresolved == MISSING_TARGETS
