"""No floating point in the library: the README and the `fields` docstring
promise exact arithmetic everywhere, so no source file under src/ holds a
float literal, a call of `float`, or a square root from `math`, no integer
kernel of the witness route holds a true division (which returns a float,
exact only below 2^53), and no generated evaluator of a bilinear template
holds a float, a division or a power, or any name but its own locals."""

import ast
import re
from pathlib import Path

from splitrank.albert import _conjugation_template, _jordan_template, _matrix_template
from splitrank.composition import _doubling_template
from splitrank.fields import _evaluator_source

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


# the integer kernels of the witness route over Q: the Legendre lattice, its
# root lines, its LLL and its Fincke-Pohst search
WITNESS_KERNELS = ("_legendre", "_sqrt_mod", "_nearest", "_lll", "_least_zero")


def _true_divisions(tree, names):
    """(function, line) of each `/` or `/=` in the functions of tree named in names."""
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name in names:
            for node in ast.walk(fn):
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                    yield fn.name, node.lineno


def test_witness_kernels_are_integer_code():
    tree = ast.parse((SRC / "qforms.py").read_text())
    kernels = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name in WITNESS_KERNELS]
    assert sorted(fn.name for fn in kernels) == sorted(WITNESS_KERNELS)
    assert list(_true_divisions(tree, WITNESS_KERNELS)) == []
    assert [what for fn in kernels for _, what in _floating_point(fn)] == []


def test_the_division_scan_sees_a_planted_division():
    text = "def _lll(x, y):\n    q = x // y\n    return x / y\n\ndef _nearest(x, y):\n    x /= y\n\ndef other(x, y):\n    return x / y\n"
    assert list(_true_divisions(ast.parse(text), WITNESS_KERNELS)) == [("_lll", 3), ("_nearest", 6)]


def _templates():
    """(name, rows, n_out, n_keys) of every template that a table compiles."""
    for n in range(4):
        keys, _, rows = _doubling_template(n)
        yield f"doubling {n}", rows, 2**n, len(keys)
    keys, rows, trace_keys, trace_rows = _jordan_template()
    yield "jordan", rows, 27, len(keys)
    yield "trace", trace_rows, 1, len(trace_keys)
    keys, rows = _matrix_template()
    yield "matrix", rows, 72, len(keys)
    keys, rows, _, n_out = _conjugation_template()
    yield "conjugation", rows, n_out, len(keys)


# the node types of a generated evaluator: unpacking assignments and one returned list of sums of products
_EVALUATOR_NODES = (
    ast.Module, ast.FunctionDef, ast.arguments, ast.arg, ast.Assign, ast.Tuple, ast.Name, ast.Store, ast.Load,
    ast.Return, ast.List, ast.BinOp, ast.Add, ast.Mult, ast.Constant,
)


def test_generated_evaluators_are_integer_code_on_their_locals():
    for name, rows, n_out, n_keys in _templates():
        tree = ast.parse(_evaluator_source(rows, n_out, n_keys))
        nodes = list(ast.walk(tree))
        assert list(_floating_point(tree)) == [], name
        assert not [n for n in nodes if isinstance(n, (ast.Div, ast.FloorDiv, ast.Pow))], name
        assert all(isinstance(n, _EVALUATOR_NODES) for n in nodes), name
        assert all(n.value == 0 and type(n.value) is int for n in nodes if isinstance(n, ast.Constant)), name
        names = {n.id for n in nodes if isinstance(n, ast.Name)}
        assert all(re.fullmatch(r"[cxy]\d*", v) for v in names), name
        assert {f"c{m}" for m in range(n_keys)} | {f"{v}{m}" for v in "xy" for m in range(len(rows))} <= names, name
