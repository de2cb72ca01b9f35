"""The packed kernels against plain FieldElement arithmetic.

The octonion product, jordan_mul, the Albert matrix product matrix_mul and
Automorphism.apply run on packed integer payloads, and the sampled checks of
conjugation_between (through which phi is built) chain packed maps and
compare packed vectors; verify holds the FieldElement oracles.  Inputs
cover every field kind, coordinate heights up to 10^6, zero-heavy vectors
and non-integral (over Q(sqrt d) also irrational) parameters and Gamma.
Tampered tables show that the matrix route and the conjugation checks
catch a single wrong constant.
"""

import random
from fractions import Fraction

import pytest

from splitrank.albert import (
    AlbertAlgebra,
    Automorphism,
    _jordan_from_matrices,
    bilinear,
    conjugation_between,
    jordan_mul,
    matrix_mul,
    phi,
    so_gamma_sample,
    trace,
)
from splitrank.composition import cayley_dickson
from splitrank.errors import InternalCheckFailed
from splitrank.fields import Field, prime_field, quad_ext, rationals
from splitrank.verify import reference_apply, reference_jordan_mul, reference_matrix_mul, reference_octonion_mul

FIELDS = {
    "Q": rationals(),
    "F5": prime_field(5),
    "F10007": prime_field(10007),
    "F2^31-1": prime_field(2**31 - 1),
    "Q(sqrt-7)": quad_ext(-7),
    "Q(sqrt2)": quad_ext(2),
}
HEIGHTS = (1, 1000, 10**6)


def _algebra(f):
    if f.kind == "QSqrt":
        params, gamma = ["-1", "3/2-r", "-3"], ["2/3", "-7+r", "7/2"]
    else:  # F_p literals are residues, so the fractions go in as Fractions
        params = [Fraction(-1), Fraction(-2, 3), Fraction(-3)]
        gamma = [Fraction(2, 3), Fraction(-7), Fraction(7, 2)]
    c = cayley_dickson(f, [f.element(p) for p in params])
    return AlbertAlgebra(c, [f.element(g) for g in gamma])


def _element(a, xs):
    return a.element(xs[:3], [xs[3:11], xs[11:19], xs[19:]])


def _coords(f, rng, n, height, density):
    return [f.random(rng, height) if rng.random() < density else f.zero() for _ in range(n)]


def _cases(f, rng, n):
    """Pairs of coordinate vectors: dense and zero-heavy at every height."""
    for height in HEIGHTS:
        for density in (1.0, 0.2):
            yield _coords(f, rng, n, height, density), _coords(f, rng, n, height, density)


def _assert_payloads(elems):
    for e in elems:
        v = e.value
        if e.field.kind == "Q":
            assert type(v) is Fraction
        elif e.field.kind == "Fp":
            assert type(v) is int and 0 <= v < e.field.p
        else:
            assert type(v) is tuple and len(v) == 2 and all(type(t) is Fraction for t in v)


@pytest.mark.parametrize("name", list(FIELDS))
def test_octonion_product_matches_reference(name):
    f = FIELDS[name]
    c = _algebra(f).octonions
    rng = random.Random(1)
    for xs, ys in _cases(f, rng, 8):
        x, y = c.element(xs), c.element(ys)
        got = x * y
        assert got == reference_octonion_mul(x, y)
        _assert_payloads(got.coords)


@pytest.mark.parametrize("name", list(FIELDS))
def test_jordan_mul_matches_reference(name):
    f = FIELDS[name]
    a = _algebra(f)
    rng = random.Random(2)
    for xs, ys in _cases(f, rng, 27):
        x, y = _element(a, xs), _element(a, ys)
        got = jordan_mul(x, y)
        assert got == reference_jordan_mul(x, y)
        assert bilinear(x, y) == trace(got)
        _assert_payloads(got.coords)


@pytest.mark.parametrize("name", list(FIELDS))
def test_apply_matches_dense_mat_vec(name):
    f = FIELDS[name]
    a = _algebra(f)
    rng = random.Random(3)
    autos = [
        phi(a, so_gamma_sample(a, rng)),
        # any matrix, including dense rows at full height
        Automorphism(a, [_coords(f, rng, 27, 10**6, 0.5) for _ in range(27)]),
    ]
    for auto in autos:
        for xs, _ in _cases(f, rng, 27):
            x = _element(a, xs)
            got = auto.apply(x)
            assert got == reference_apply(auto, x)
            _assert_payloads(got.coords)


@pytest.mark.parametrize("name", list(FIELDS))
def test_matrix_mul_matches_reference(name):
    f = FIELDS[name]
    a = _algebra(f)
    rng = random.Random(4)
    for xs, ys in _cases(f, rng, 27):
        x, y = _element(a, xs), _element(a, ys)
        got = matrix_mul(x, y)
        assert got == reference_matrix_mul(x, y)
        _assert_payloads([c for row in got for entry in row for c in entry.coords])


@pytest.mark.parametrize("name", ["Q", "F5", "Q(sqrt-7)"])
def test_matrix_mul_on_basis_pairs(name):
    a = _algebra(FIELDS[name])
    basis = [a.basis(i) for i in range(27)]
    for x in basis:
        for y in basis:
            assert matrix_mul(x, y) == reference_matrix_mul(x, y)


def _bump(term, at, den):
    """A compiled term whose constant (over Q(sqrt d) its rational part),
    at position `at`, is raised by 1."""
    return term[:at] + (term[at] + den,) + term[at + 1 :]


@pytest.mark.parametrize("name", ["Q", "F5", "Q(sqrt-7)"])
def test_corrupted_matrix_table_breaks_the_matrix_route(name):
    """One wrong constant in the compiled matrix_mul table makes the
    symmetrized matrix route disagree with jordan_mul: the two tables are
    derived independently, so neither can hide a fault of the other."""
    a = _algebra(FIELDS[name])
    e = a.basis(0)
    assert jordan_mul(e, e) == _jordan_from_matrices(a, e, e)
    rows, _, den = a._matrix_product
    # the term x_0 y_0 -> coordinate 0 of entry (0, 0): the scalar x1 y1
    t = next(i for i, term in enumerate(rows[0]) if term[:2] == (0, 0))
    rows[0][t] = _bump(rows[0][t], 2, den)  # a term is (j, k, constant...)
    assert matrix_mul(e, e) != reference_matrix_mul(e, e)
    assert jordan_mul(e, e) != _jordan_from_matrices(a, e, e)


@pytest.mark.parametrize("name", ["Q", "F10007", "Q(sqrt-7)"])
def test_corrupted_conjugation_rows_are_caught(name, monkeypatch):
    """One wrong constant in the compiled conjugation rows, in a column of
    an octonion slot (so the unit check alone cannot see it), is caught by
    the packed sample checks of conjugation_between and so of phi."""
    f = FIELDS[name]
    f = Field(f.kind, f.p, f.d)  # a kernel of its own, patched below
    a = _algebra(f)
    x = so_gamma_sample(a, random.Random(5))
    compile_rows = f.kernel.linear_table

    def corrupted(matrix):
        rows, den = compile_rows(matrix)
        r, t = next((r, t) for r, row in enumerate(rows) for t, term in enumerate(row) if term[0] >= 3)
        rows[r][t] = _bump(rows[r][t], 1, den)  # an entry is (j, constant...)
        return rows, den

    monkeypatch.setattr(f.kernel, "linear_table", corrupted)
    conjugation_between(a, a, x)  # no samples: only the unit is checked
    with pytest.raises(InternalCheckFailed):
        conjugation_between(a, a, x, samples=5, rng=random.Random(6))
    with pytest.raises(InternalCheckFailed):
        phi(a, x)


@pytest.mark.parametrize("name", list(FIELDS))
def test_packed_eq_compares_values(name):
    """Equal vectors over different common denominators are equal; a change
    in one coordinate is seen."""
    f = FIELDS[name]
    k = f.kernel
    rng = random.Random(7)
    xs = _coords(f, rng, 9, 1000, 0.7)
    two = f.element(2)
    packed = k.pack(xs)
    lin = k.linear_table([[two if i == j else f.zero() for j in range(9)] for i in range(9)])
    doubled = k.packed_linear(lin, packed)
    assert k.packed_eq(doubled, k.pack([two * v for v in xs]))
    assert not k.packed_eq(doubled, packed)
    ys = list(xs)
    ys[4] = ys[4] + f.one()
    assert not k.packed_eq(packed, k.pack(ys))
