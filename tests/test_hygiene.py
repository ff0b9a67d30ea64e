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


# Definitions that nothing in the package calls, and attributes that
# nothing in the package reads, each kept for the tests or the benchmark
# workload named here.
ORACLES = {
    "intlinalg.determinant": "test_intlinalg; the det functor in test_weyl and test_root_core",
    "refl_groups.check_sym_axioms": "the paper's symmetric-system axioms (test_refl_groups)",
    "refl_groups.reflection_sym_system": "the symmetric-system layer (test_refl_groups, test_ext_root)",
    "refl_groups.terminal_group": "the symmetric-system layer (test_refl_groups, test_ext_root)",
    "refl_groups.check_reflection_group": "the reflection-group axioms (test_refl_groups)",
    "weyl.act_on_root": "the action on extended roots (test_refl_groups, test_ext_root)",
    "root_core.FiniteRootSystem.is_root": "the vector label oracle in test_refl_groups; test_root_core",
    "root_core.FiniteRootSystem.reflect_root_index": "traced by perfbench/tracing.py; test_root_core",
    "root_core.FiniteRootSystem.same_reflection": "traced by perfbench/tracing.py; test_root_core",
    "root_core.coroot_l_eff_lattice": "test_root_core.test_coroot_effective_quotient_is_dual",
    "root_core.invariant_form": "test_root_core.test_invariant_form_*",
    "root_core.doubled_lattice_inside_l_eff": "test_root_core.test_doubled_lattice_inside_l_eff",
    "ext_root.SSet.same_set": "slice equality in test_ext_root",
    "ext_root.TrimResult.map_extended_root": "the trim identifications in test_ext_root",
    "intlinalg.FPAbelianGroup.relations": "the relation-set oracles in test_lattice_algebra",
    "lattice_algebra.BoxForm.rs": "test_lattice_algebra.value_roots",
    "lattice_algebra.BoxForm.left": "test_lattice_algebra.value_roots",
    "lattice_algebra.BoxForm.right": "test_lattice_algebra.value_roots",
}


def _unreferenced(trees: dict[str, ast.Module]) -> list[str]:
    """Top-level functions and classes, and non-dunder methods, that no
    ast.Name or ast.Attribute outside their own definition mentions.

    `trees` maps module names to syntax trees; `__init__` only re-exports,
    so its mentions do not count.
    """
    defs = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{mod}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        defs.append((f"{mod}.{node.name}.{item.name}", item))
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
    for qualname, node in defs:
        own = {id(n) for n in ast.walk(node)}
        if all(id(n) in own for n in mentions.get(node.name, [])):
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
            "    def __repr__(self):\n        return ''\n"
        ),
        "b": ast.parse("from a import used, recursive\nused()\n"),
        "__init__": ast.parse("from a import C\n__all__ = ['C']\nC.n\n"),
    }
    assert _unreferenced(trees) == ["a.recursive", "a.C", "a.C.n"]


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
