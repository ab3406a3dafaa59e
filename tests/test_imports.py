"""Every name a `boundwalk` module imports is used in that module, so a
deletion cannot leave a dead import behind.  The package `__init__` is
left out: its imports are the public names it re-exports."""
import ast
from pathlib import Path

import pytest

import boundwalk

MODULES = sorted(p for p in Path(boundwalk.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) for every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def names_in(node):
    """Every name `node` reads, and those inside its string annotations."""
    annotations = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.arg):
            annotations.append(sub.annotation)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(sub.returns)
        elif isinstance(sub, ast.AnnAssign):
            annotations.append(sub.annotation)
    for annotation in filter(None, annotations):
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                yield from names_in(ast.parse(sub.value, mode="eval"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = set(names_in(tree))
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert unused == [], f"{path.name} imports but never uses {unused}"


def test_string_annotations_count_as_uses():
    tree = ast.parse("from typing import TYPE_CHECKING\n"
                     "if TYPE_CHECKING:\n    from .engine import View\n"
                     "def f(v: 'View') -> 'list[Walk]': pass\n")
    assert {"TYPE_CHECKING", "View", "list", "Walk"} <= set(names_in(tree))
    assert "View" not in set(names_in(ast.parse("x = 'View'")))
