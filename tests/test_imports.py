"""Every name a feedsched module imports is used in that module, unless the
benchmark's tracer rebinds it there (`perfbench/tracing.py` `SPANNED` and
`COUNTED`); every module-level function and class is in its module's
`__all__` or used somewhere in the package; and every function, class or
method that the command line cannot reach is named in README's "Library API"
list; and the package exports each library module's `__all__`, once."""

import ast
import importlib
import re
from pathlib import Path

import pytest

from perfbench.tracing import COUNTED, SPANNED

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "feedsched"
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(trees: dict[str, ast.Module]) -> dict[str, ast.AST]:
    """Each module-level function and class of `trees`, and each method of
    those classes, by dotted name (`module.name`, `module.Class.method`)."""
    found = {}
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                found[f"{stem}.{node.name}"] = node
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, FUNCTIONS):
                            found[f"{stem}.{node.name}.{item.name}"] = item
    return found


def unreached_definitions(trees: dict[str, ast.Module], root: str) -> set[str]:
    """The definitions of `trees` that no chain of names leads to from `root`.

    The pass is by name: reached code reaches every definition whose name it
    reads, as a bare name or as an attribute, in any module. Module-level code
    outside definitions is reached, as it runs on import. A reached class
    reaches its decorators, bases and body statements other than methods, and
    its dunder methods, which Python calls without naming them.
    """
    found = definitions(trees)
    by_name: dict[str, list[str]] = {}
    for dotted in found:
        by_name.setdefault(dotted.rpartition(".")[2], []).append(dotted)

    def read_by(nodes) -> list[str]:
        names = set().union(*map(referenced_names, nodes))
        return [d for name in names for d in by_name.get(name, ())]

    kinds = (*FUNCTIONS, ast.ClassDef)
    module_code = [n for tree in trees.values() for n in tree.body if not isinstance(n, kinds)]
    todo = [root, *read_by(module_code)]
    reached = set()
    while todo:
        dotted = todo.pop()
        if dotted in reached:
            continue
        reached.add(dotted)
        node = found[dotted]
        if not isinstance(node, ast.ClassDef):
            todo += read_by([node])
            continue
        methods = [item for item in node.body if isinstance(item, FUNCTIONS)]
        todo += [f"{dotted}.{m.name}" for m in methods if m.name[:2] == m.name[-2:] == "__"]
        body = [item for item in node.body if item not in methods]
        todo += read_by([*node.decorator_list, *node.bases, *node.keywords, *body])
    return set(found) - reached


def library_api() -> set[str]:
    """The dotted names in README's "Library API" section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n### Library API\n", 1)[1].split("\n#", 1)[0]
    return set(re.findall(r"`(\w+(?:\.\w+)+)`", section))


def test_every_definition_the_cli_cannot_reach_is_library_api():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    listed = library_api()
    unlisted = unreached_definitions(trees, "cli.main") - listed
    assert not unlisted, f"not reached from cli.main nor listed in README: {sorted(unlisted)}"
    stale = listed - set(definitions(trees))
    assert not stale, f"README's Library API lists names that are not defined: {sorted(stale)}"


def test_the_reachability_pass_sees_an_unreached_definition():
    trees = {
        "cli": ast.parse("from b import helper\ndef main(): helper(); Box().size\n"
                         "if __name__ == '__main__': main()\n"),
        "b": ast.parse("LIMIT = lower()\ndef lower(): pass\ndef helper(): pass\n"
                       "def orphan(): helper()\n"
                       "class Box(Base):\n    def __init__(self): pass\n"
                       "    @property\n    def size(self): return 1\n    def unused(self): pass\n"
                       "class Base: pass\nclass Lost:\n    def __len__(self): return 0\n"),
    }
    assert unreached_definitions(trees, "cli.main") == {
        "b.orphan", "b.Box.unused", "b.Lost", "b.Lost.__len__"
    }


LIBRARY = ("model", "objective", "optimize", "estimate", "simulate", "analyze")


def test_the_package_exports_each_library_module_all_once():
    package = importlib.import_module("feedsched")
    # By import_module: the package binds `simulate` to the function.
    modules = {stem: importlib.import_module(f"feedsched.{stem}") for stem in LIBRARY}
    declared = ["__version__"] + [name for m in modules.values() for name in m.__all__]
    twice = sorted({name for name in declared if declared.count(name) > 1})
    assert not twice, f"exported by more than one library module: {twice}"
    assert sorted(package.__all__) == sorted(declared)
    for stem, module in modules.items():
        unbound = [n for n in module.__all__ if getattr(package, n, None) is not getattr(module, n)]
        assert not unbound, f"feedsched does not bind {stem}'s {unbound}"
