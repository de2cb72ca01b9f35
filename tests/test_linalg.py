"""Properties of linalg's one Gauss-Jordan elimination, through det,
inverse and nullspace, on seeded random matrices over Q, F_7 and
Q(sqrt -7)."""

import random

import pytest

from splitrank import linalg
from splitrank.errors import DivisionByZero, InvalidInput
from splitrank.fields import prime_field, quad_ext, rationals

FIELDS = [rationals(), prime_field(7), quad_ext(-7)]


def _random(f, rng, n, m):
    return [[f.random(rng, 5) for _ in range(m)] for _ in range(n)]


def _of_rank(f, rng, n, m, r):
    """An n x m matrix of rank exactly r: [I_r; B] [I_r | C] with the
    columns shuffled, an injective map after a surjective one."""
    if r == 0:
        return [[f.zero()] * m for _ in range(n)]
    left = linalg.identity(f, r) + _random(f, rng, n - r, r)
    right = [row + extra for row, extra in zip(linalg.identity(f, r), _random(f, rng, r, m - r))]
    order = rng.sample(range(m), m)
    return [[row[j] for j in order] for row in linalg.mat_mul(left, right)]


def _singular(f, rng, n):
    """An n x n matrix (n >= 2) whose last row is a combination of the others."""
    a = _random(f, rng, n - 1, n)
    c = [f.random(rng, 5) for _ in a]
    return a + [[sum((ci * row[j] for ci, row in zip(c, a)), f.zero()) for j in range(n)]]


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_nullspace_is_killed_and_has_the_free_dimension(f):
    rng = random.Random(71)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        r = rng.randint(0, min(n, m))
        a = _of_rank(f, rng, n, m, r)
        basis = linalg.nullspace(a)
        assert len(basis) == m - r
        for v in basis:
            assert all(x.is_zero() for x in linalg.mat_vec(a, v))
    with pytest.raises(InvalidInput):
        linalg.nullspace([])


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_inverse_is_two_sided(f):
    rng = random.Random(72)
    for n in (1, 2, 3, 5):
        for _ in range(5):
            a = _of_rank(f, rng, n, n, n)
            inv = linalg.inverse(a)
            assert linalg.mat_mul(a, inv) == linalg.identity(f, n)
            assert linalg.mat_mul(inv, a) == linalg.identity(f, n)
        if n > 1:
            with pytest.raises(DivisionByZero):
                linalg.inverse(_singular(f, rng, n))


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_det_is_multiplicative_and_vanishes_on_singular(f):
    rng = random.Random(73)
    for n in (1, 2, 3, 4, 5):
        for _ in range(5):
            a, b = _random(f, rng, n, n), _random(f, rng, n, n)
            assert linalg.det(linalg.mat_mul(a, b)) == linalg.det(a) * linalg.det(b)
        assert linalg.det(linalg.identity(f, n)) == f.one()
        if n > 1:
            assert linalg.det(_singular(f, rng, n)).is_zero()
            swapped = linalg.identity(f, n)
            swapped[0], swapped[1] = swapped[1], swapped[0]
            assert linalg.det(swapped) == -f.one()
