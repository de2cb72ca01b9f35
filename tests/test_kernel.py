"""The packed kernels against plain FieldElement arithmetic.

The octonion product, jordan_mul and Automorphism.apply run on packed
integer payloads; verify holds their FieldElement oracles.  Inputs cover
every field kind, coordinate heights up to 10^6, zero-heavy vectors and
non-integral (over Q(sqrt d) also irrational) parameters and Gamma.
"""

import random
from fractions import Fraction

import pytest

from splitrank.albert import AlbertAlgebra, Automorphism, bilinear, jordan_mul, phi, so_gamma_sample, trace
from splitrank.composition import cayley_dickson
from splitrank.fields import prime_field, quad_ext, rationals
from splitrank.verify import reference_apply, reference_jordan_mul, reference_octonion_mul

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
        x, y = a.element(xs[:3], [xs[3:11], xs[11:19], xs[19:]]), a.element(ys[:3], [ys[3:11], ys[11:19], ys[19:]])
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
            x = a.element(xs[:3], [xs[3:11], xs[11:19], xs[19:]])
            got = auto.apply(x)
            assert got == reference_apply(auto, x)
            _assert_payloads(got.coords)
