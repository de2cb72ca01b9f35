"""The octonion, Jordan, trace and matrix tables, each compiled from a
per-process template and a few constants per algebra, against the plain
FieldElement oracles of verify.

A panel of 72 seeded algebras covers Q with parameters and Gamma up to
height 10^6 (fractions included), F_p for p = 5, 10007 and 2^31 - 1, and
Q(sqrt d) with irrational parameters and Gamma.  A single wrong constant in
any compiled table makes the panel fail, tests/golden/albert_tables.json
pins the compiled octonion, Jordan, trace, matrix and conjugation tables
of 18 of its algebras,
and the templates and tables stay unbuilt until an algebra needs them.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from operator import attrgetter
from pathlib import Path

import pytest
from composition_checks import check_norm_table
from table_terms import TEMPLATES, bumped, per_term

from splitrank import cli
from splitrank.albert import (
    AlbertAlgebra,
    AlbertElement,
    _jordan_template,
    _matrix_template,
    albert_from_json,
    bilinear,
    from_matrix,
    jordan_mul,
    matrix_mul,
    phi,
    trace,
)
from splitrank.composition import CompElement, _doubling_template, cayley_dickson
from splitrank.errors import InternalCheckFailed
from splitrank.fields import Field, _IntegerKernel, _Kernel, _QuadKernel, prime_field, quad_ext, rationals
from splitrank.verify import reference_matrix_mul, reference_octonion_mul, so_gamma_sample

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
    """The plain products: xy is read back from (XY + YX)/2, each matrix
    product entry by entry in FieldElement arithmetic."""
    matrix, yx, half = reference_matrix_mul(x, y), reference_matrix_mul(y, x), x.algebra._half
    xy = from_matrix(x.algebra, [[(matrix[i][j] + yx[i][j]).scale(half) for j in range(3)] for i in range(3)])
    return {"octonion": reference_octonion_mul(p, q), "jordan": xy, "bilinear": trace(xy), "matrix": matrix}


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


def test_closed_norm_matches_the_table_on_the_panel():
    """N(x) on the closed Pfister form is the scalar x conj(x) of the
    compiled table, whose pure part is zero, on every panel algebra; the
    exact table proof of composition_checks holds on each."""
    for n, a in enumerate(PANEL):
        for x in _inputs(a, n)[2:]:
            prod = x * x.conj()
            assert prod.is_scalar() and prod.scalar_part() == x.norm(), (n, a.octonions)
        check_norm_table(a.octonions)


def test_compiled_tables_match_golden():
    """The octonion, Jordan, trace, matrix and conjugation tables of 18
    panel algebras, pinned by the sha256 of the repr of their per-term
    expansion (table_terms.per_term, the form the kernels once looped
    over): a change to the compile route must leave every constant of
    every term as it compiled before."""
    golden = json.loads((Path(__file__).parent / "golden" / "albert_tables.json").read_text())
    fields = [e["algebra"]["octonion"]["field"] for e in golden]
    assert len(golden) >= 15 and {f["p"] for f in fields if f["kind"] == "Fp"} == set(PRIMES)
    assert sum(f["kind"] == "Q" for f in fields) >= 5 and sum(f["kind"] == "QSqrt" for f in fields) >= 5
    for entry in golden:
        a = albert_from_json(entry["algebra"])
        got = {
            name: hashlib.sha256(repr(per_term(a.field.kernel, *TEMPLATES[name](), attrgetter(name)(a))).encode()).hexdigest()
            for name in entry["sha256"]
        }
        assert got == entry["sha256"], entry["algebra"]
    assert set(got) == {"octonions._product", "_product", "_trace", "_matrix_product", "_automorphism_table"}


def _albert_keys():
    """The constant keys of the three Albert tables, as monomial_table gets them."""
    keys, _, trace_keys, _ = _jordan_template()
    return {"jordan": keys, "trace": trace_keys, "matrix": _matrix_template()[0]}


@pytest.mark.parametrize("field", [rationals(), prime_field(10007), quad_ext(-7)], ids=str)
def test_one_wrong_constant_fails_the_panel(field, monkeypatch):
    """Every constant of every compiled table, raised by one in a fresh
    algebra as the kernel's _monomials multiplies it out, makes some
    product disagree with its oracle.  A wrong octonion constant also fails
    the test-side proof that x conj(x) = N on the table that multiplies
    (N is the closed Pfister form, so the Albert algebra over it is built);
    the products of the panel compile each of the lazy Albert tables, and
    each tampered table is compiled exactly once."""
    rng = random.Random(7)
    params = [_scalar(field, rng) for _ in range(3)]
    gamma = [_scalar(field, rng) for _ in range(3)]
    inputs = _inputs(AlbertAlgebra(cayley_dickson(field, params), gamma), 8)
    oracles = _oracles(*inputs)
    tables = {"octonion": _doubling_template(3)[0], **_albert_keys()}
    for table, keys in tables.items():
        for n in range(len(keys)):
            f = Field(field.kind, field.p, field.d)  # a kernel of its own, patched below
            calls = []
            multiply = f.kernel._monomials

            def tampered(named, factors, table=table, keys=keys, n=n, calls=calls, multiply=multiply, kernel=f.kernel):
                consts, den = multiply(named, factors)
                if tuple(named) == keys:  # the constant's value (over Q(sqrt d) its rational part) + 1
                    consts = bumped(kernel, consts, n, den)
                    calls.append(table)
                return consts, den

            monkeypatch.setattr(f.kernel, "_monomials", tampered)
            c = cayley_dickson(f, params)
            if table == "octonion":
                p, q = (CompElement(c, v.coords) for v in inputs[2:])
                assert p * q != oracles["octonion"], (table, n)
                with pytest.raises(InternalCheckFailed):
                    check_norm_table(c)
            else:
                assert _failures(AlbertAlgebra(c, gamma), inputs, oracles), (table, n)
            assert calls == [table], (table, n)


@pytest.mark.parametrize(
    "field,ext",
    [({"kind": "Q"}, {"kind": "QSqrt", "d": 2}), ({"kind": "Fp", "p": 10007}, None), ({"kind": "QSqrt", "d": 2}, None)],
    ids=["Q", "F10007", "Q(sqrt2)"],
)
def test_only_congruence_compiles_by_index(field, ext, monkeypatch, capsys):
    """Every bilinear table is compiled from monomials, and no table is
    compiled from given constants: the congruence checks take a diagonal
    form's packed coefficient vector as its Gram.  classify, a rank-1
    kernel (over Q and Q(sqrt 2)), excellence and phi all run with
    packed_bilinear refusing any table that monomial_table did not build."""
    compile_table, compiled = _Kernel.monomial_table, set()

    def recorded(self, *args):
        table = compile_table(self, *args)
        compiled.add(id(table))
        return table

    def guarded(run):
        def bilinear(self, table, xp, yp):
            assert id(table) in compiled, "a bilinear table not compiled from monomials"
            return run(self, table, xp, yp)

        return bilinear

    monkeypatch.setattr(_Kernel, "monomial_table", recorded)
    for kind in (_IntegerKernel, _QuadKernel):
        monkeypatch.setattr(kind, "packed_bilinear", guarded(kind.packed_bilinear))
    text = _f4(field, [-1, -3, -5], [1, 1, -1])
    reports = []
    for argv in (["classify"], ["kernel"], ["excellence", "--ext", json.dumps(ext or field)]):
        assert cli.main(argv + ["--json", text]) == 0, argv
        reports.append(json.loads(capsys.readouterr().out))
    rank = 4 if field["kind"] == "Fp" else 1
    assert reports[0]["rank"] == rank and reports[1]["provenance"]["rank"] == rank
    a = albert_from_json(json.loads(text)["f4"])
    assert phi(a, so_gamma_sample(a, random.Random(3))).preserves_jordan_on_basis()


def _f4(field, params, gamma):
    return json.dumps({"f4": {"octonion": {"field": field, "params": params}, "gamma": gamma}})


def test_templates_stay_unbuilt_by_witt():
    """In a fresh interpreter, building an algebra derives no template and
    generates no evaluator, and phi then generates the Jordan, trace and
    conjugation evaluators and no other: the octonion and Jordan templates
    wait for the first Jordan or trace product (here phi's checks), the
    matrix one for matrix_mul and the conjugation one for the first phi.
    That witt and the F4 and G2 commands at every rank derive no template,
    generate no evaluator and compile no table is the census's: the
    templates, fields._evaluator and monomial_table are oracles in
    tests/golden/unentered.json, which no command enters
    (tests/test_census.py)."""
    code = (
        "import json\n"
        "from splitrank import albert, composition, fields\n"
        "caches = [composition._doubling_template, albert._jordan_template, albert._matrix_template,\n"
        "          albert._conjugation_template, fields._evaluator]\n"
        "sizes = lambda: [c.cache_info().currsize for c in caches]\n"
        "a = albert.albert_from_json({'octonion': {'field': {'kind': 'Q'}, 'params': [-1, -1, -1]}, 'gamma': [1, 1, 1]})\n"
        "built = sizes()\n"
        "albert.phi(a, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])\n"
        "after_phi = sizes()\n"
        "jordan_keys, jordan_rows, trace_keys, trace_rows = albert._jordan_template()\n"
        "conjugation_keys, conjugation_rows, _, n_out = albert._conjugation_template()\n"
        "phi_evaluators = [a._product[0] is fields._evaluator(jordan_rows, 27, len(jordan_keys)),\n"
        "                  a._trace[0] is fields._evaluator(trace_rows, 1, len(trace_keys)),\n"
        "                  a._automorphism_table[0] is fields._evaluator(conjugation_rows, n_out, len(conjugation_keys))]\n"
        "print(json.dumps([built, after_phi, phi_evaluators]))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    built, after_phi, phi_evaluators = json.loads(out.stdout.strip().splitlines()[-1])
    assert built == [0, 0, 0, 0, 0]
    assert after_phi == [1, 1, 0, 1, 3]
    assert phi_evaluators == [True, True, True]
