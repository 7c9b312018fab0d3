"""Every top-level function and class of the package, and every method
that is not a dunder, is referenced by name from the package's own source.

This walks each module's syntax tree: a definition counts as referenced when
its name is read somewhere in ``src/`` as a name or an attribute. What only
the tests call, or what is kept for a reason the package's code cannot show,
is listed in ``ALLOWED`` with that reason.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "papaformer"

ALLOWED = {
    "Tensor.maximum": "acceptance criterion 2 differentiates it (OP_CASES in tests/test_acceptance.py)",
    "Tensor.silu": "acceptance criterion 2 differentiates it (OP_CASES in tests/test_acceptance.py)",
    "set_default_dtype": "switches the tape to float64 for the finite-difference oracle",
    "run_phase2": "the acceptance tests run composite training through it",
    "state_from_checkpoint": "the acceptance tests resume training through it",
}


def unreferenced(sources: list) -> list:
    """Qualified names of the definitions in ``sources`` whose name no source reads."""
    defined, read = [], set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
            if isinstance(node, ast.ClassDef):
                defined.extend(
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("__")
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(name for name in defined if name.rpartition(".")[2] not in read)


def test_every_definition_is_referenced_or_allowed():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced(sources) == sorted(ALLOWED)


def test_detects_an_unreferenced_definition():
    a = (
        "def used():\n    pass\n"
        "def unused():\n    used()\n"
        "class C:\n    def m(self):\n        pass\n    def __init__(self):\n        pass\n"
    )
    b = "import a\nclass D:\n    def n(self):\n        a.C().m()\n"
    assert unreferenced([a, b]) == ["D", "D.n", "unused"]
