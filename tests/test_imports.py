"""Every name a ``prunecert`` module imports is used in that module.

A deletion tends to leave its imports behind; this stdlib ``ast`` check
finds them.  ``__init__`` is skipped (its imports are the package's
re-exports), and so are ``__future__`` imports.
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
