"""Every name a `boundwalk` module imports is used in that module, and
every name a module assigns at its top level is read somewhere in the
package, so a deletion cannot leave a dead import or constant behind.  The
package `__init__` is left out of the import check: its imports are the
public names it re-exports."""
import ast
from pathlib import Path

import pytest

import boundwalk

PACKAGE = sorted(Path(boundwalk.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def assigned_names(tree):
    """(name, line) for every name a module assigns at its top level,
    dunders aside."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if (isinstance(sub, ast.Name)
                        and not (sub.id.startswith("__")
                                 and sub.id.endswith("__"))):
                    yield sub.id, node.lineno


def read_names(tree):
    """Every name the module loads."""
    return {sub.id for sub in ast.walk(tree)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.stem)
def test_every_module_constant_is_read(path):
    read = set().union(*(read_names(ast.parse(p.read_text(encoding="utf-8")))
                         for p in PACKAGE))
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unread = [f"{name} (line {line})" for name, line in assigned_names(tree)
              if name not in read]
    assert unread == [], f"{path.name} assigns but nothing reads {unread}"


def test_assigned_names_are_top_level_and_not_dunders():
    tree = ast.parse("A = 1\nB: int = 2\nC, (D, E) = 3, (4, 5)\n"
                     "__all__ = []\ndef f():\n    F = 6\n")
    assert [name for name, _ in assigned_names(tree)] == list("ABCDE")
    assert read_names(ast.parse("A = 1\nB = A")) == {"A"}


# the benchmark's fixed surface: a name it reads is production's too
BENCH = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))


def public_definitions(tree):
    """(name, line) for every public function or class a module defines
    at its top level."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node.lineno


def reads(tree):
    """Every name the module loads and every attribute it reads; a name
    in a docstring or a string is no read."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(tree)
            if isinstance(sub, (ast.Name, ast.Attribute))
            and isinstance(sub.ctx, ast.Load)}


def test_every_public_definition_is_read_outside_tests():
    """A public function or class of the package is read by a package
    module (the `__init__` re-exports aside) or by `bench/`; one that
    only tests read lives in `tests/`."""
    assert BENCH, "bench/ not found beside tests/"
    read = set().union(*(reads(ast.parse(p.read_text(encoding="utf-8")))
                         for p in MODULES + BENCH))
    unread = [f"{path.stem}.{name} (line {line})" for path in MODULES
              for name, line in public_definitions(
                  ast.parse(path.read_text(encoding="utf-8")))
              if name not in read]
    assert unread == [], f"only tests read {unread}"


def test_public_definitions_and_their_reads():
    tree = ast.parse("def f():\n    '''g'''\nclass C:\n    def h(self): pass\n"
                     "def _p(): pass\nx = 'g'\ny = m.k\nm.s = 1\n")
    assert [name for name, _ in public_definitions(tree)] == ["f", "C"]
    assert reads(tree) == {"m", "k"}
