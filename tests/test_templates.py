"""The octonion, Jordan, trace and matrix tables, each compiled from a
per-process template and a few constants per algebra, against the plain
FieldElement oracles of verify.

A panel of 72 seeded algebras covers Q with parameters and Gamma up to
height 10^6 (fractions included), F_p for p = 5, 10007 and 2^31 - 1, and
Q(sqrt d) with irrational parameters and Gamma.  A single wrong constant in
any compiled table makes the panel fail, and the templates stay unbuilt
until an algebra needs them.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from splitrank.albert import AlbertAlgebra, AlbertElement, _jordan_template, _matrix_template, bilinear, jordan_mul, matrix_mul, trace
from splitrank.composition import CompElement, _doubling_template, cayley_dickson
from splitrank.fields import Field, prime_field, quad_ext, rationals
from splitrank.verify import reference_jordan_mul, reference_matrix_mul, reference_octonion_mul

PRIMES = (5, 10007, 2**31 - 1)
DS = (-7, -3, -1, 2, 5, 13)
HEIGHTS = (1, 10, 1000, 10**6)


def _rational(rng):
    height = rng.choice(HEIGHTS)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, height), rng.randint(1, height))


def _scalar(f, rng):
    """A nonzero scalar: a fraction of height up to 10^6, over Q(sqrt d)
    with a nonzero irrational part."""
    if f.kind == "Fp":
        return f.element(rng.randrange(1, f.p))
    if f.kind == "Q":
        return f.element(_rational(rng))
    return f.element((_rational(rng), _rational(rng)))


def _panel():
    rng = random.Random(20240)
    fields = [rationals()] * 24 + [prime_field(p) for p in PRIMES] * 8 + [quad_ext(d) for d in DS] * 4
    out = []
    for f in fields:
        c = cayley_dickson(f, [_scalar(f, rng) for _ in range(3)])
        out.append(AlbertAlgebra(c, [_scalar(f, rng) for _ in range(3)]))
    return out


PANEL = _panel()


def _inputs(a, seed):
    """A pair of Albert elements and a pair of octonions, with no zero
    coordinate, so that every term of every table contributes."""
    rng = random.Random(seed)
    f = a.field
    x, y = (AlbertElement(a, [f.random(rng, 1000, nonzero=True) for _ in range(27)]) for _ in range(2))
    p, q = (CompElement(a.octonions, [f.random(rng, 1000, nonzero=True) for _ in range(8)]) for _ in range(2))
    return x, y, p, q


def _oracles(x, y, p, q):
    xy = reference_jordan_mul(x, y)
    return {
        "octonion": reference_octonion_mul(p, q),
        "jordan": xy,
        "bilinear": trace(xy),
        "matrix": reference_matrix_mul(x, y),
    }


def _failures(a, inputs, oracles):
    """The names of the compiled products of a that disagree with the
    oracles on the inputs (rebuilt on a, so that a's own tables run)."""
    x, y = (AlbertElement(a, v.coords) for v in inputs[:2])
    p, q = (CompElement(a.octonions, v.coords) for v in inputs[2:])
    got = {"octonion": p * q, "jordan": jordan_mul(x, y), "bilinear": bilinear(x, y), "matrix": matrix_mul(x, y)}
    return [name for name, value in got.items() if value != oracles[name]]


def test_panel_shape():
    kinds = [a.field.kind for a in PANEL]
    assert len(PANEL) >= 60
    assert {a.field.p for a in PANEL if a.field.kind == "Fp"} == set(PRIMES)
    assert kinds.count("Q") == 24 and kinds.count("QSqrt") == 24
    irrational = [g for a in PANEL if a.field.kind == "QSqrt" for g in a.octonions.params + a.gamma]
    assert all(g.value[1] != 0 for g in irrational)
    heights = [max(abs(g.value.numerator), g.value.denominator) for a in PANEL if a.field.kind == "Q" for g in a.gamma]
    assert max(heights) > 10**5 and any(g.value.denominator > 1 for a in PANEL if a.field.kind == "Q" for g in a.gamma)


@pytest.mark.parametrize("n", range(len(PANEL)), ids=[f"{i}-{a.field}" for i, a in enumerate(PANEL)])
def test_panel_matches_oracles(n):
    a = PANEL[n]
    inputs = _inputs(a, n)
    assert _failures(a, inputs, _oracles(*inputs)) == []


# the compiled tables in the order an algebra compiles them: the octonion
# product, the Jordan product, the trace, and (on the first matrix_mul) the
# matrix product; each with its number of distinct constants
TABLES = ("octonion", "jordan", "trace", "matrix")


def _constant_counts():
    return (
        len(_doubling_template(3)[0]),
        len(_jordan_template()[0]),
        len(_jordan_template()[2]),
        len(_matrix_template()[0]),
    )


@pytest.mark.parametrize("field", [rationals(), prime_field(10007), quad_ext(-7)], ids=str)
def test_one_wrong_constant_fails_the_panel(field, monkeypatch):
    """Every constant of every compiled table, raised by one in a fresh
    algebra, makes some product disagree with its oracle."""
    rng = random.Random(7)
    params = [_scalar(field, rng) for _ in range(3)]
    gamma = [_scalar(field, rng) for _ in range(3)]
    inputs = _inputs(AlbertAlgebra(cayley_dickson(field, params), gamma), 8)
    oracles = _oracles(*inputs)
    for table, count in zip(TABLES, _constant_counts()):
        for n in range(count):
            f = Field(field.kind, field.p, field.d)  # a kernel of its own, patched below
            compile_table = f.kernel.indexed_table
            calls = []

            def tampered(rows, n_out, consts, table=table, n=n, calls=calls, compile_table=compile_table):
                if TABLES[len(calls)] == table:
                    consts = list(consts)
                    consts[n] = consts[n] + 1
                calls.append(table)
                return compile_table(rows, n_out, consts)

            monkeypatch.setattr(f.kernel, "indexed_table", tampered)
            a = AlbertAlgebra(cayley_dickson(f, params), gamma)
            assert _failures(a, inputs, oracles), (table, n)
            assert table in calls


def test_templates_stay_unbuilt_by_witt():
    """Importing the CLI and running witt builds no template and imports
    no oracle module, so commands that build no algebra pay nothing for
    them; the first algebra builds the octonion and Jordan templates, the
    matrix one waits for matrix_mul and the conjugation one for the first
    phi."""
    form = json.dumps({"field": {"kind": "Q"}, "coeffs": ["1", "-1", "1"]})
    code = (
        "import contextlib, io, json, sys\n"
        "import splitrank.cli\n"
        "from splitrank import albert, composition\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = splitrank.cli.main(['witt', '--json', {form!r}])\n"
        "caches = [composition._doubling_template, albert._jordan_template, albert._matrix_template,\n"
        "          albert._conjugation_template]\n"
        "sizes = lambda: [c.cache_info().currsize for c in caches]\n"
        "before = sizes() + ['splitrank.verify' in sys.modules]\n"
        "a = albert.albert_from_json({'octonion': {'field': {'kind': 'Q'}, 'params': [-1, -1, -1]}, 'gamma': [1, 1, 1]})\n"
        "built = sizes()\n"
        "albert.phi(a, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])\n"
        "print(json.dumps([rc, before, built, sizes()]))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == [0, [0, 0, 0, 0, False], [1, 1, 0, 0], [1, 1, 0, 1]]
