"""Every top-level function and class of the package, and every method
that is not a dunder, is referenced by name from the package's own source.

This walks each module's syntax tree: a definition counts as referenced when
its name is read somewhere in ``src/``, a top-level one as a name or an
attribute, a method as an attribute or as a name in its own class. What only
the tests call, or what is kept for a reason the package's code cannot show,
is listed in ``ALLOWED`` with that reason.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "papaformer"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

ALLOWED = {
    "Tensor.maximum": "acceptance criterion 2 differentiates it (OP_CASES in tests/test_acceptance.py)",
    "Tensor.silu": "acceptance criterion 2 differentiates it (OP_CASES in tests/test_acceptance.py)",
    "set_default_dtype": "switches the tape to float64 for the finite-difference oracle",
    "run_phase2": "the acceptance tests run composite training through it",
    "state_from_checkpoint": "the acceptance tests resume training through it",
    "ToyTokenizer.build": "bench/tracing.py patches it to time the vocabulary build",
    "Chunk.span": "acceptance criterion 6 reads each chunk's span to check the two epochs' offsets",
    "UtilizationReport.shares": "acceptance criterion 8 and bench/run.py check that the shares sum to 100",
}


def unreferenced(sources: list) -> list:
    """Qualified names of the definitions in ``sources`` that no source reads.

    A top-level definition ``f`` is read as a bare name ``f`` or as an
    attribute ``x.f``; a method ``C.m`` as an attribute ``x.m``, or as a bare
    name ``m`` in the body of ``C`` itself (``__matmul__ = matmul``), so a
    function or a local variable named ``m`` elsewhere does not hide it.
    """
    defined, read = [], set()  # read: bare names "f", attributes ".m" and class-body names "C.m"
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                defined.append(node.name)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, FUNCTIONS):
                        read.update(f"{node.name}.{n.id}" for n in ast.walk(item) if isinstance(n, ast.Name))
                    elif not item.name.startswith("__"):
                        defined.append(f"{node.name}.{item.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(f".{node.attr}")
    return sorted(name for name in defined if not {name, "." + name.rpartition(".")[2]} & read)


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
    # a method is not read through a function, or a local, of its name; a bare name reads it in its own class body
    c = (
        "def build():\n    span = 1\n    return span\n"
        "class E:\n    def build(self):\n        pass\n    def span(self):\n        pass\n"
        "    def matmul(self):\n        pass\n    __matmul__ = matmul\n"
        "class F:\n    def k(self):\n        pass\n    alias = build\n"
    )
    assert unreferenced([c, "build()\n"]) == ["E", "E.build", "E.span", "F", "F.k"]
