"""Every file the package writes goes through ``data.replacing``.

``replacing`` writes a temp file and moves it over its target, so a crash
never destroys the last good checkpoint or chunk store. A plain
``open(path, "w")`` elsewhere would truncate its target before the first
byte lands. This walks each module's syntax tree and lists the function
around every ``open`` call whose mode writes, appends or creates.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "papaformer"

# (module, function): the one replacing writer, and the train verb's text log,
# which opens a text view of the descriptor of replacing's temp file
ALLOWED = [("cli.py", "cmd_train"), ("data.py", "replacing")]


def _mode(call: ast.Call):
    """The call's mode argument as a string, "r" when it has none, None when it is not a literal."""
    node = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
    if node is None:
        return "r"
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def writing_opens(source: str) -> list:
    """Names of the functions holding an ``open`` call whose mode may write; "<module>" for top-level code."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                mode = _mode(child)
                if name in ("open", "fdopen") and (mode is None or set(mode) & set("wax+")):
                    found.append(where)
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def test_only_replacing_and_the_train_log_open_files_for_writing():
    found = sorted(
        (path.name, where)
        for path in PACKAGE.glob("*.py")
        for where in writing_opens(path.read_text(encoding="utf-8"))
    )
    assert found == ALLOWED


@pytest.mark.parametrize(
    "source,expected",
    [
        ("def save(p):\n    with open(p, 'wb') as f:\n        f.write(b'')\n", ["save"]),
        ("def log(p):\n    f = io.open(p, mode='a')\n", ["log"]),
        ("def new(p):\n    return open(p, 'x')\n", ["new"]),
        ("def patch(p):\n    open(p, 'r+b')\n", ["patch"]),
        ("def anymode(p, m):\n    open(p, m)\n", ["anymode"]),
        ("open('x.txt', 'w')\n", ["<module>"]),
        ("def outer(p):\n    def inner():\n        open(p, 'w')\n", ["inner"]),
        ("def read(p):\n    open(p)\n    open(p, 'rb')\n    open(p, mode='r', encoding='utf-8')\n", []),
    ],
)
def test_detects_writing_opens(source, expected):
    assert writing_opens(source) == expected
