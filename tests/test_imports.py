"""Every name a feedsched module imports is used in that module, unless the
benchmark's tracer rebinds it there (`perfbench/tracing.py` `SPANNED` and
`COUNTED`)."""

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
