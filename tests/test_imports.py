"""Every name a feedsched module imports is used in that module, unless the
benchmark's tracer rebinds it there (`perfbench/tracing.py` `SPANNED` and
`COUNTED`); every module-level function and class is in its module's
`__all__` or used somewhere in the package."""

import ast
from pathlib import Path

import pytest

from perfbench.tracing import COUNTED, SPANNED

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "feedsched"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
REBOUND = {(module, attr) for module, attr, *_ in SPANNED + COUNTED}


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {
        name
        for name in imported_names(tree) - used
        if (path.stem, name) not in REBOUND
    }
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import operator\nfrom json import loads as parse, dumps\ndumps(1)\n")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported_names(tree) - used == {"operator", "parse"}


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name `tree` reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unreferenced_definitions(trees: dict[str, ast.Module]) -> set[str]:
    """The module-level functions and classes of `trees` that their module's
    `__all__` does not name and no module of `trees` refers to."""
    referenced = set().union(*map(referenced_names, trees.values()))
    dead = set()
    for stem, tree in trees.items():
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(ast.literal_eval(node.value))
        dead.update(
            f"{stem}.{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in exported | referenced
        )
    return dead


def test_every_definition_is_exported_or_used():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    dead = unreferenced_definitions(trees)
    assert not dead, f"defined at module level but neither in __all__ nor used: {sorted(dead)}"


def test_the_check_sees_a_dead_definition():
    trees = {
        "a": ast.parse("__all__ = ['public']\ndef public(): _used()\ndef _used(): pass\n"
                       "def _dead(): pass\nclass _Dead: pass\n"),
        "b": ast.parse("import a\na._helper()\n"),
        "c": ast.parse("def _helper(): pass\n"),
    }
    assert unreferenced_definitions(trees) == {"a._dead", "a._Dead"}
