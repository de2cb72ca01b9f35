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
    panel algebras, pinned by the sha256 of their repr: a change to the
    compile route must leave every table == to the one it compiled before."""
    golden = json.loads((Path(__file__).parent / "golden" / "albert_tables.json").read_text())
    fields = [e["algebra"]["octonion"]["field"] for e in golden]
    assert len(golden) >= 15 and {f["p"] for f in fields if f["kind"] == "Fp"} == set(PRIMES)
    assert sum(f["kind"] == "Q" for f in fields) >= 5 and sum(f["kind"] == "QSqrt" for f in fields) >= 5
    for entry in golden:
        a = albert_from_json(entry["algebra"])
        got = {name: hashlib.sha256(repr(attrgetter(name)(a)).encode()).hexdigest() for name in entry["sha256"]}
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

            def tampered(named, factors, table=table, keys=keys, n=n, calls=calls, multiply=multiply):
                packed, den = multiply(named, factors)
                if tuple(named) == keys:  # the constant's value (over Q(sqrt d) its rational part) + 1
                    packed = list(packed)
                    packed[n] = (packed[n][0] + den,) + packed[n][1:]
                    calls.append(table)
                return packed, den

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


# classify inputs of rank 0, 4, 4 and 1
CLASSIFY = [
    _f4({"kind": "Q"}, [-1, -1, -1], [1, 1, 1]),
    _f4({"kind": "Fp", "p": 10007}, [-1, -3, -5], [1, -1, 1]),
    _f4({"kind": "QSqrt", "d": -7}, [-1, -3, -5], [1, -1, 1]),
    _f4({"kind": "Q"}, [-1, -3, -5], [1, -1, 1]),
]
# classify on each of them, then kernel and excellence over Q(sqrt 2) and
# Q(sqrt -7) on algebras over Q of rank 0, 1 and 4
ROUTES = [["classify", "--json", text] for text in CLASSIFY] + [
    argv + ["--json", text]
    for text in (CLASSIFY[0], CLASSIFY[3], _f4({"kind": "Q"}, [1, -1, -1], [1, 1, 1]))
    for argv in (["kernel"], ["excellence", "--ext", '{"kind":"QSqrt","d":2}'], ["excellence", "--ext", '{"kind":"QSqrt","d":-7}'])
]
# G2: classify of the Graves octonions (rank 0) and of a split algebra (rank
# 2), and excellence of the Graves octonions over Q(sqrt 2) and Q(sqrt -7)
G2_GRAVES = json.dumps({"g2": {"field": {"kind": "Q"}, "params": [-1, -1, -1]}})
ROUTES += [["classify", "--json", G2_GRAVES], ["classify", "--json", json.dumps({"g2": {"field": {"kind": "Q"}, "params": [1, -1, -1]}})]] + [
    ["excellence", "--ext", ext, "--json", G2_GRAVES] for ext in ('{"kind":"QSqrt","d":2}', '{"kind":"QSqrt","d":-7}')
]


def test_templates_stay_unbuilt_by_witt():
    """Importing the CLI and running witt builds no template and imports
    no oracle module, so commands that build no algebra pay nothing for
    them; nor does an algebra, whose norm N is the closed Pfister form of
    its params.  The octonion and Jordan templates wait for the first
    Jordan or trace product (here phi's checks), the matrix one for
    matrix_mul and the conjugation one for the first phi.

    F4 classify at ranks 0, 4 and 1, F4 kernel and excellence (over
    Q(sqrt 2) and Q(sqrt -7)) at ranks 0, 1 and 4, G2 classify at ranks 0
    and 2 and G2 excellence over Q(sqrt 2) and Q(sqrt -7) derive no
    template and compile no octonion or Albert table in their algebras.
    The rank-1 certificates are closed forms: production checks the exact
    zero of the slot form behind z and r_i N(c) = -1, and the Jordan
    identities they imply (z^2 = 0, the E0 conditions, the Q0 Gram) are
    re-checked by `splitrank verify` and tests/test_jordan_identities.py;
    the table's x conj(x) = N by tests/composition_checks.py."""
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
        "algebras, reports = [], []\n"
        "def recorder(build):\n"
        "    def record(desc):\n"
        "        algebras.append(build(desc))\n"
        "        return algebras[-1]\n"
        "    return record\n"
        "splitrank.cli.albert_from_json = recorder(albert.albert_from_json)\n"
        "splitrank.cli.comp_from_json = recorder(composition.comp_from_json)\n"
        f"for argv in {ROUTES!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        assert splitrank.cli.main(argv) == 0, argv\n"
        "    reports.append(json.loads(out.getvalue()))\n"
        "after_routes = sizes()\n"
        "albert.phi(a, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])\n"
        "after_phi = sizes()\n"
        "tables = ('_product', '_trace', '_matrix_product', '_automorphism_table')\n"
        "def compiled(b):\n"
        "    c = getattr(b, 'octonions', b)\n"
        "    return [t for t in tables if b is not c and t in vars(b)] + ['octonions._product'] * ('_product' in vars(c))\n"
        "print(json.dumps([rc, before, built, after_routes, after_phi, reports, list(map(compiled, algebras))]))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    rc, before, built, after_routes, after_phi, reports, compiled = json.loads(out.stdout.strip().splitlines()[-1])
    assert [rc, before, built, after_routes] == [0, [0, 0, 0, 0, False], [0, 0, 0, 0], [0, 0, 0, 0]]
    assert after_phi == [1, 1, 0, 1]
    assert [_ranks(r) for r in reports] == [[0], [4], [4], [1]] + [
        [0], [0, 0], [0, 4],
        [1], [1, 1], [1, 4],
        [4], [4, 4], [4, 4],
    ] + [[0], [2], [0, 0], [0, 2]]
    assert reports[-1]["kernel_ext"]["kind"] == "trivial"
    assert compiled == [[]] * len(ROUTES)


def _ranks(report: dict) -> list[int]:
    """[rank] of a classify or kernel report, [rank over k, rank over L] of excellence."""
    if "verdict" in report:
        return [report["rank_base"]["rank"], report["rank_ext"]["rank"]]
    return [report["rank"] if "rank" in report else report["provenance"]["rank"]]
