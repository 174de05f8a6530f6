"""Each ``prunecert`` module imports only the modules below it.

``LAYERS`` lists, bottom up, the package modules each module may import.
A module may only name modules listed before it, so the imports form no
cycle.  The imports are read with stdlib ``ast``, wherever they stand in
the file.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "prunecert"
MODULES = {p.stem for p in SRC.glob("*.py")}

# module -> the package modules it may import; "__init__" is the package
# itself, as in ``from prunecert import __version__``
LAYERS = {
    "linalg": set(),
    "policy": {"linalg"},
    "pruner": {"linalg", "policy"},
    "certifier": {"linalg", "policy", "pruner"},
    "controlsim": {"linalg", "policy", "certifier"},
    "__init__": {"linalg", "policy", "pruner", "certifier", "controlsim"},
    "cli": {"__init__", "linalg", "policy", "pruner", "certifier", "controlsim"},
    "__main__": {"cli"},
}


def package_imports(source: str) -> set[str]:
    """The ``prunecert`` modules that ``source`` imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "prunecert" if node.level else ""
            names = [".".join(filter(None, (base, node.module)))]
            if names[0] == "prunecert":  # from prunecert import linalg, __version__
                names = [f"prunecert.{a.name}" for a in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "prunecert":
                found.add(parts[1] if len(parts) > 1 and parts[1] in MODULES else "__init__")
    return found


def test_the_check_reads_every_import_form():
    source = (
        "import numpy as np\n"
        "import prunecert.linalg\n"
        "from prunecert import __version__, policy\n"
        "from prunecert.pruner import PrunePlan\n"
        "from .certifier import certify\n"
        "def f():\n"
        "    from prunecert.controlsim import rollout\n"
    )
    assert package_imports(source) == {
        "linalg", "__init__", "policy", "pruner", "certifier", "controlsim"
    }


def test_every_module_has_a_row_and_rows_name_only_lower_modules():
    assert set(LAYERS) == MODULES
    below = set()
    for module, allowed in LAYERS.items():
        assert allowed <= below, module
        below.add(module)


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_imports_stay_within_the_layer(module):
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert package_imports(source) <= LAYERS[module]
