"""No floating point in the library: the README and the `fields` docstring
promise exact arithmetic everywhere, so no source file under src/ holds a
float literal, a call of `float`, or a square root from `math`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "splitrank"


def _floating_point(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "float"
        elif isinstance(node, ast.Attribute) and node.attr == "sqrt" and isinstance(node.value, ast.Name) and node.value.id == "math":
            yield node.lineno, "math.sqrt"
        elif isinstance(node, ast.ImportFrom) and node.module == "math" and any(a.name == "sqrt" for a in node.names):
            yield node.lineno, "from math import sqrt"


def test_no_floating_point_in_src():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    found = [f"{path.name}:{line}: {what}" for path in files for line, what in _floating_point(ast.parse(path.read_text()))]
    assert found == []


def test_the_scan_sees_each_form():
    text = "import math\nfrom math import sqrt\nx = 1e-6\ny = float(2)\nz = math.sqrt(2)\n"
    assert [what for _, what in _floating_point(ast.parse(text))] == [
        "from math import sqrt", "literal 1e-06", "float", "math.sqrt",
    ]
