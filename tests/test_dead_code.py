"""Every top-level function and class of the package, and every method
that is not a dunder, is referenced by name from the package's own source;
and every defaulted parameter of a ``def`` is passed by some call in it.

This walks each module's syntax tree: a definition counts as referenced when
its name is read somewhere in ``src/``, a top-level one as a name or an
attribute, a method as an attribute or as a name in its own class. A
parameter counts as passed when a call that can reach its function passes it
by position, by keyword or through ``*``/``**``. What only the tests call or
pass, or what is kept for a reason the package's code cannot show, is listed
in ``ALLOWED`` or ``ALLOWED_PARAMS`` with that reason.
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

ALLOWED_PARAMS = {
    "main.argv": "the tests drive the CLI in-process through it",
    "load_checkpoint.moments": "acceptance criterion 9 resumes through it; a CLI resume would pass it",
    "train.state": "acceptance criterion 9 resumes through it; a CLI resume would pass it",
    "gumbel_v1_forward.forced_pi": "acceptance criterion 3 forces the routing weights through it",
    "gumbel_v2_forward.forced_pi": "acceptance criterion 5 forces the routing weights through it",
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


def _callees(node) -> set:
    """The names a call target reads as: ``f`` for a name, ``.f`` for an attribute, both arms of ``a if c else b``."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {"." + node.attr}
    if isinstance(node, ast.IfExp):
        return _callees(node.body) | _callees(node.orelse)
    return set()


def unpassed(sources: list) -> list:
    """Qualified names ``f.p`` or ``C.m.p`` of the defaulted parameters in ``sources`` that no call passes.

    A function ``f`` is called as ``f(...)`` or ``x.f(...)``, a method
    ``C.m`` as ``x.m(...)`` after its ``self``, and ``C.__init__`` as
    ``C(...)``. A name bound to a callee (``g = f``, ``g = a if c else b``)
    calls what it names, and ``map(f, xs)`` calls ``f`` with one positional
    argument per iterable. A call passes a parameter by keyword, by position,
    through ``**`` or, for a positional one, through ``*``.
    """
    defs, aliases, calls = [], {}, []  # defs: (qualified name, names that call it, self offset, node)
    for tree in map(ast.parse, sources):
        methods = {item: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for item in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, FUNCTIONS):
                cls = methods.get(node)
                if cls is None:
                    defs.append((node.name, {node.name, "." + node.name}, 0, node))
                else:
                    names = {cls, "." + cls} if node.name == "__init__" else {"." + node.name}
                    defs.append((f"{cls}.{node.name}", names, 1, node))
            elif isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                aliases.setdefault(node.targets[0].id, set()).update(_callees(node.value))
            elif isinstance(node, ast.Call):
                if _callees(node.func) & {"map", ".map"} and node.args:
                    calls.append((_callees(node.args[0]), len(node.args) - 1, False, set()))
                else:
                    starred = any(isinstance(a, ast.Starred) for a in node.args)
                    keywords = {k.arg for k in node.keywords}  # None stands for **
                    calls.append((_callees(node.func), len(node.args), starred, keywords))
    calls = [(names.union(*(aliases.get(n, ()) for n in names)), *rest) for names, *rest in calls]
    flagged = []
    for qualname, names, offset, node in defs:
        reach = [call[1:] for call in calls if call[0] & names]
        positional = node.args.posonlyargs + node.args.args
        defaulted = list(enumerate(positional))[len(positional) - len(node.args.defaults) :]
        defaulted += [(None, a) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None]
        for i, arg in defaulted:
            if not any(
                {arg.arg, None} & keywords or (i is not None and (starred or offset + n_args > i))
                for n_args, starred, keywords in reach
            ):
                flagged.append(f"{qualname}.{arg.arg}")
    return sorted(flagged)


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


def test_every_defaulted_parameter_is_passed_or_allowed():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unpassed(sources) == sorted(ALLOWED_PARAMS)


def test_detects_an_unpassed_parameter():
    a = (
        "def f(x, y=1, *, z=2):\n    pass\n"
        "def g(x, y=1):\n    pass\n"
        "def h(x, y=1):\n    pass\n"
        "class C:\n    def __init__(self, x, y=1):\n        pass\n    def m(self, y=1, z=2):\n        pass\n"
        "f(0, z=3)\n"
        "a.C(0).m(1)\n"
    )
    unpassed_in_a = ["C.__init__.y", "C.m.z", "f.y", "g.y", "h.y"]
    assert unpassed([a]) == unpassed_in_a
    cases = {
        "alias = g if cond else h\nalias(0, 1)\n": ["g.y", "h.y"],
        "a.C(0, 1)\n": ["C.__init__.y"],
        "x.m(*ys)\nf(0, **kw)\n": ["C.m.z", "f.y"],
        "list(map(g, xs, ys))\nlist(map(h, xs))\n": ["g.y"],
    }
    for b, passed in cases.items():
        assert unpassed([a, b]) == [name for name in unpassed_in_a if name not in passed]
