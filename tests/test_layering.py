"""Each ``prunecert`` module imports only the modules below it, only
``schema`` reads or writes JSON, and only ``linalg`` rounds a float outward
by hand.

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
    "schema": set(),
    "policy": {"linalg", "schema"},
    "pruner": {"linalg", "policy"},
    "certifier": {"linalg", "schema", "policy", "pruner"},
    "controlsim": {"linalg", "policy", "certifier"},
    "__init__": {"linalg", "policy", "pruner", "certifier", "controlsim"},
    "cli": {"__init__", "linalg", "schema", "policy", "pruner", "certifier", "controlsim"},
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


# the json functions that read or write a document; only ``schema`` calls them
JSON_CALLS = {"load", "loads", "dump", "dumps"}


def json_calls(source: str) -> set[str]:
    """The ``JSON_CALLS`` that ``source`` makes, as ``json.loads(...)``, or
    through a name bound by ``import json as j`` or ``from json import ...``."""
    tree = ast.parse(source)
    modules, names = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "json")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            names.update((a.asname or a.name, a.name) for a in node.names)
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in modules:
            found.add(f.attr)
        elif isinstance(f, ast.Name) and f.id in names:
            found.add(names[f.id])
    return found & JSON_CALLS


def test_the_json_check_reads_every_call_form():
    source = (
        "import json\n"
        "import json as j\n"
        "from json import dump as write, JSONDecodeError\n"
        "json.loads(s)\n"
        "j.load(fh)\n"
        "write(obj, fh)\n"
        "json.JSONDecodeError\n"
        "other.dumps(obj)\n"
    )
    assert json_calls(source) == {"loads", "load", "dump"}


@pytest.mark.parametrize("module", sorted(MODULES))
def test_only_schema_reads_or_writes_json(module):
    calls = json_calls((SRC / f"{module}.py").read_text(encoding="utf-8"))
    if module == "schema":
        # the reader's load and loads, and the writer's dumps of each scalar
        assert calls == {"load", "loads", "dumps"}
    else:
        assert calls == set()


def rounding_calls(source: str) -> set[str]:
    """The outward-rounding steps that ``source`` takes by hand:
    ``nextafter`` from ``math`` or ``numpy``, called through the module, an
    alias or a ``from`` import, and any ``.view(...)``, the way a float
    array's bits are reinterpreted."""
    tree = ast.parse(source)
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name in ("math", "numpy"))
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "numpy"):
            names.update(a.asname or a.name for a in node.names if a.name == "nextafter")
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr == "view":
            found.add("view")
        elif (isinstance(f, ast.Attribute) and f.attr == "nextafter"
              and isinstance(f.value, ast.Name) and f.value.id in modules):
            found.add("nextafter")
        elif isinstance(f, ast.Name) and f.id in names:
            found.add("nextafter")
    return found


def test_the_rounding_check_reads_every_call_form():
    assert rounding_calls("import math\nmath.nextafter(x, y)\n") == {"nextafter"}
    assert rounding_calls("import numpy as np\nnp.nextafter(x, y)\n") == {"nextafter"}
    assert rounding_calls("from math import nextafter as step\nstep(x, y)\n") == {"nextafter"}
    assert rounding_calls("x.view(np.int64)\n") == {"view"}
    assert rounding_calls("import math\nother.nextafter(x)\nmath.sqrt(x)\nx.copy()\n") == set()


@pytest.mark.parametrize("module", sorted(MODULES))
def test_only_linalg_rounds_outward_by_hand(module):
    # every other module rounds up through linalg's _up, _times, _plus,
    # _up_where and _norm_bound, so each step has one home and one proof
    calls = rounding_calls((SRC / f"{module}.py").read_text(encoding="utf-8"))
    if module == "linalg":
        assert calls == {"nextafter", "view"}
    else:
        assert calls == set()
