"""Every name a ``prunecert`` module imports is used in that module, and
every private top-level name is read somewhere in the package.

A deletion tends to leave its imports and helpers behind; these stdlib
``ast`` checks find them.  ``__init__`` is skipped by the import check (its
imports are the package's re-exports), and so are ``__future__`` imports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "prunecert"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` and never read in it."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # an attribute chain such as ``np.linalg.norm`` starts at a Name
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_the_check_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nprint(np.pi, e)\n"
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
)
def test_every_import_is_used(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def private_definitions(source: str) -> set[str]:
    """The private top-level functions, classes and constants of ``source``:
    names with one leading underscore, not dunders."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def reads(source: str) -> set[str]:
    """Every name ``source`` loads, bare or as an attribute (``linalg._up``)."""
    nodes = list(ast.walk(ast.parse(source)))
    names = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return names | {n.attr for n in nodes if isinstance(n, ast.Attribute)}


def test_the_check_finds_an_unread_private_name():
    source = "_A = 1\n_B: int = 2\ndef _f(): return _A\nclass _C: pass\nprint(_f())\n"
    assert private_definitions(source) - reads(source) == {"_B", "_C"}


def test_every_private_name_is_read():
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    defined = set().union(*map(private_definitions, sources))
    read = set().union(*map(reads, sources))
    assert len(defined) > 50  # the scan found the package's helpers
    assert sorted(defined - read) == []
