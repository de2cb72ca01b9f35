"""The generated evaluators of the bilinear templates against the per-term
row loops they replaced.

Every compiled octonion, Jordan, trace, matrix and conjugation table runs
as one straight-line integer function per template (fields._evaluator),
called once over Q and F_p and three times per nonzero part of the
constants over Q(sqrt d).  tests/table_terms.py keeps the row loops that
walked each term; here they are the oracle, on the same packed inputs and
with exactly equal packed outputs, over Q, F_5, F_10007, F_(2^31 - 1),
Q(sqrt -7) with rational constants and Q(sqrt 5) with irrational ones.
One evaluator serves every field, and a template with one term's sign
flipped yields an evaluator that the FieldElement octonion product refutes.
"""

import json
import random
from fractions import Fraction
from operator import attrgetter
from pathlib import Path

import pytest
from table_terms import TEMPLATES, loop_bilinear, per_term

from splitrank.albert import AlbertAlgebra, albert_from_json
from splitrank.composition import CompElement, _doubling_template, cayley_dickson
from splitrank.fields import _evaluator, prime_field, quad_ext, rationals
from splitrank.verify import reference_octonion_mul


def _rational_algebra(f):
    """An Albert algebra whose parameters and Gamma are non-integral rationals."""
    params = [Fraction(-1), Fraction(-2, 3), Fraction(-3)]
    gamma = [Fraction(2, 3), Fraction(-7), Fraction(7, 2)]
    return AlbertAlgebra(cayley_dickson(f, [f.element(v) for v in params]), [f.element(g) for g in gamma])


def _golden_sqrt5():
    """The first Q(sqrt 5) algebra of the golden table panel: every parameter and Gamma irrational."""
    golden = json.loads((Path(__file__).parent / "golden" / "albert_tables.json").read_text())
    return albert_from_json(next(e["algebra"] for e in golden if e["algebra"]["octonion"]["field"].get("d") == 5))


ALGEBRAS = {
    "Q": _rational_algebra(rationals()),
    "F5": _rational_algebra(prime_field(5)),
    "F10007": _rational_algebra(prime_field(10007)),
    "F2^31-1": _rational_algebra(prime_field(2**31 - 1)),
    "Q(sqrt-7)": _rational_algebra(quad_ext(-7)),
    "Q(sqrt5)": _golden_sqrt5(),
}


def _scalar(f, rng, height):
    if f.kind == "Fp":
        return f.element(rng.randrange(f.p))
    frac = lambda: Fraction(rng.randint(-height, height), rng.randint(1, height))  # noqa: E731
    return f.element(frac()) if f.kind == "Q" else f.element((frac(), frac()))


def _inputs(f, n, rng):
    """(x, y) coordinate pairs: dense at heights 10 and 10^30, sparse, zero
    (against dense), and every pair of basis vectors."""
    zero, one = f.zero(), f.one()
    vec = lambda height, density: [  # noqa: E731
        _scalar(f, rng, height) if rng.random() < density else zero for _ in range(n)
    ]
    pairs = [(vec(10, 1.0), vec(10, 1.0)), (vec(10**30, 1.0), vec(10**30, 1.0)), (vec(1000, 0.15), vec(1000, 0.15))]
    pairs += [([zero] * n, vec(10, 1.0)), (vec(10, 1.0), [zero] * n)]
    basis = [[one if m == i else zero for m in range(n)] for i in range(n)]
    return pairs + [(u, v) for u in basis for v in basis]


@pytest.mark.parametrize("name", list(ALGEBRAS))
@pytest.mark.parametrize("table", list(TEMPLATES))
def test_evaluator_matches_the_row_loop(name, table):
    """Each of the five tables gives exactly the packed output of the
    per-term row loop, on every input of _inputs."""
    a = ALGEBRAS[name]
    kernel = a.field.kernel
    compiled = attrgetter(table)(a)
    rows, n_out = TEMPLATES[table]()
    terms = per_term(kernel, rows, n_out, compiled)
    for xs, ys in _inputs(a.field, len(rows), random.Random(len(rows))):
        x, y = kernel.pack(xs), kernel.pack(ys)
        assert kernel.packed_bilinear(compiled, x, y) == loop_bilinear(kernel, terms, x, y), (name, table)


def test_the_panel_has_irrational_constants():
    """Over Q(sqrt 5) the constants have a nonzero sqrt(5) part, so the
    evaluator runs on both parts; over Q(sqrt -7) they are rational."""
    for name, irrational in (("Q(sqrt5)", True), ("Q(sqrt-7)", False)):
        a = ALGEBRAS[name]
        for table in (a.octonions._product, a._product, a._trace, a._matrix_product, a._automorphism_table):
            assert any(table[1][1]) is irrational, name


def test_one_evaluator_per_template_across_fields():
    """Algebras over Q, F_p and Q(sqrt d) share one evaluator object per
    template: the constants are arguments, not part of the code."""
    algebras = list(ALGEBRAS.values())
    for table in TEMPLATES:
        evaluators = {id(attrgetter(table)(a)[0]) for a in algebras}
        assert len(evaluators) == 1, table
    assert len({id(attrgetter(table)(algebras[0])[0]) for table in TEMPLATES}) == len(TEMPLATES)
    keys, _, rows = _doubling_template(3)
    assert algebras[0].octonions._product[0] is _evaluator(rows, 8, len(keys))


@pytest.mark.parametrize("f", [rationals(), prime_field(10007), quad_ext(-7)], ids=str)
def test_a_flipped_template_term_is_refuted(f):
    """Flipping the sign of any single term of the octonion template gives
    an evaluator whose products disagree with verify.reference_octonion_mul
    on inputs with no zero coordinate."""
    rng = random.Random(3)
    c = cayley_dickson(f, [f.element(v) for v in (-1, Fraction(-2, 3), (3, 1) if f.kind == "QSqrt" else 3)])
    p, q = (CompElement(c, [f.random(rng, 1000, nonzero=True) for _ in range(8)]) for _ in range(2))
    want = reference_octonion_mul(p, q)
    keys, _, rows = _doubling_template(3)
    assert CompElement(c, packed=f.kernel.packed_bilinear(c._product, p.packed, q.packed)) == want
    for i, row in enumerate(rows):
        for t, (jk, n) in enumerate(row):
            sign, factors = keys[n]
            flipped_keys = keys if (-sign, factors) in keys else keys + ((-sign, factors),)
            flipped = row[:t] + ((jk, flipped_keys.index((-sign, factors))),) + row[t + 1:]
            table = f.kernel.monomial_table(rows[:i] + (flipped,) + rows[i + 1:], 8, flipped_keys, c.params)
            assert CompElement(c, packed=f.kernel.packed_bilinear(table, p.packed, q.packed)) != want, (i, t)
