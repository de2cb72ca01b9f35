"""The integer witness route against its Fraction predecessors: the integral
LLL and Fincke-Pohst against a Fraction Gram-Schmidt oracle, the
Hilbert-symbol pricing of _split_plan against a per-candidate local
isotropy test, and the work budget of _split_value."""

import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from splitrank import cli, qforms
from splitrank.errors import InputTooLarge
from splitrank.fields import prime_factors, rationals
from splitrank.qforms import QuadraticForm, _class_key, _class_reps, _iso_at, _lll, _short_vectors, _split_plan, is_isotropic


def _gso(b, weights):
    """Gram-Schmidt data (mu, squared norms) for sum w_i u_i v_i, in Fractions."""
    n = len(b)
    gram = [[sum(w * x * y for w, x, y in zip(weights, u, v)) for v in b] for u in b]
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = []
    for i in range(n):
        for j in range(i):
            mu[i][j] = (gram[i][j] - sum(mu[j][k] * mu[i][k] * norms[k] for k in range(j))) / norms[j]
        norms.append(Fraction(gram[i][i]) - sum(mu[i][k] ** 2 * norms[k] for k in range(i)))
    return mu, norms


def fraction_lll(basis, weights):
    """LLL (delta = 3/4) with Fraction Gram-Schmidt data updated in place
    (Cohen, alg. 2.6.3): each row size-reduced from k-1 down to 0, mu
    rounded half to even, then the Lovasz test."""
    b = [list(v) for v in basis]
    n = len(b)
    mu, norms = _gso(b, weights)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        m = mu[k][k - 1]
        big = norms[k] + m * m * norms[k - 1]
        if norms[k] >= (Fraction(3, 4) - m * m) * norms[k - 1]:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        mu[k][k - 1] = m * norms[k - 1] / big
        norms[k], norms[k - 1] = norms[k - 1] * norms[k] / big, big
        for j in range(k - 1):
            mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
        for i in range(k + 1, n):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - m * t
            mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
        k = max(k - 1, 1)
    return b


def fraction_short_vectors(b, weights, bound):
    """Fincke-Pohst on the Fraction Gram-Schmidt data of b, scaled to
    integers by the lcm of the denominators of the mu and of the norms."""
    mu, norms = _gso(b, weights)
    n = len(b)
    den = math.lcm(*(x.denominator for row in mu for x in row))
    scale = math.lcm(*(x.denominator for x in norms))
    mu = [[int(x * den) for x in row] for row in mu]
    norms = [int(x * scale) for x in norms]
    coef, found = [0] * n, []

    def walk(i, left):
        if i < 0:
            vec = [sum(c * row[k] for c, row in zip(coef, b)) for k in range(n)]
            if any(vec):
                found.append((sum(w * x * x for w, x in zip(weights, vec)), vec))
            return
        centre = sum(mu[j][i] * coef[j] for j in range(i + 1, n))
        half = math.isqrt(left // norms[i])
        for x in range(-((half + centre) // den), (half - centre) // den + 1):
            coef[i] = x
            walk(i - 1, left - norms[i] * (den * x + centre) ** 2)
        coef[i] = 0

    walk(n - 1, scale * den * den * bound)
    return [vec for _, vec in sorted(found)]


def _lattice(rng):
    """A nonsingular weighted 3x3 lattice: every other draw has the
    triangular shape of a Legendre lattice, the rest are dense."""
    weights = [rng.randint(1, 10 ** rng.randint(1, 6)) for _ in range(3)]
    while True:
        if rng.random() < 0.5:
            top = rng.randint(1, 10 ** rng.randint(1, 8))
            basis = [[top, 0, 0], [rng.randint(0, top), rng.randint(1, 999), 0], [rng.randint(0, top), rng.randint(0, 999), 1]]
        else:
            basis = [[rng.randint(-60, 60) for _ in range(3)] for _ in range(3)]
        a, b, c = basis
        if a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0]) + a[2] * (b[0] * c[1] - b[1] * c[0]):
            return basis, weights


def test_integral_lll_matches_the_fraction_oracle():
    rng = random.Random(2_670)
    swaps = 0
    for _ in range(600):
        basis, weights = _lattice(rng)
        reduced = _lll(basis, weights)
        expected = fraction_lll(basis, weights)
        assert reduced[0] == expected, (basis, weights)
        swaps += expected != basis
        # the shortest reduced row, three times over, bounds a short but nonempty list
        bound = 3 * min(sum(w * x * x for w, x in zip(weights, row)) for row in expected)
        assert _short_vectors(*reduced, weights, bound) == fraction_short_vectors(expected, weights, bound), (basis, weights)
    assert swaps > 300  # the panel is not made of reduced bases


def test_integral_gram_schmidt_data_match_the_fractions():
    # lam[i][j] = d[j+1] mu_ij and d[i+1] = d[i] N_i, after the reduction
    rng = random.Random(77)
    for _ in range(100):
        basis, weights = _lattice(rng)
        b, lam, d = _lll(basis, weights)
        mu, norms = _gso(b, weights)
        assert d[0] == 1 and all(d[i + 1] == d[i] * norms[i] for i in range(3))
        assert all(lam[i][j] == d[j + 1] * mu[i][j] for i in range(3) for j in range(i))


def _squarefree(rng, height):
    while True:
        x = rng.choice((-1, 1)) * rng.randint(1, height)
        if all(e == 1 for e in prime_factors(x).values()):
            return x


def _brute_plan(a, rest, primes):
    return {
        p: {_class_key(c, p) for c in _class_reps(p) if _iso_at(a + [-c], p) and _iso_at(rest + [c], p)}
        for p in primes
    }


def test_split_plan_matches_per_candidate_local_isotropy():
    # two Hilbert symbols per class against a fresh local test of both
    # forms, at 2 and at every odd prime of the form
    rng = random.Random(4_040)
    compared = empty = 0
    for _ in range(400):
        a = [_squarefree(rng, 300) for _ in range(2)]
        rest = [_squarefree(rng, 300) for _ in range(rng.choice((2, 3)))]
        primes = sorted({2}.union(*(prime_factors(x) for x in a + rest)))
        brute = _brute_plan(a, rest, primes)
        if not all(brute.values()):
            empty += 1
            with pytest.raises(qforms.InternalCheckFailed):
                _split_plan(a, rest, primes)
            continue
        _, allowed, forced = _split_plan(a, rest, primes)
        assert allowed == brute, (a, rest)
        assert forced == math.prod(p for p in primes if all(v for v, _ in brute[p]))
        compared += 1
    assert compared > 200 and empty > 0


def test_split_plan_covers_every_class_at_two():
    # at p = 2 all eight classes u 2^v are priced, for both parities of v
    seen = set()
    for a, rest in itertools.product([[1, 3], [-1, 2], [5, -6], [-7, -2]], [[1, -5], [2, 3, -7], [-1, -3]]):
        primes = sorted({2}.union(*(prime_factors(x) for x in a + rest)))
        brute = _brute_plan(a, rest, primes)
        if all(brute.values()):
            assert _split_plan(a, rest, primes)[1] == brute
            seen |= brute[2]
    assert {v for v, _ in seen} == {0, 1}


class TestSplitValueBudget:
    # <1,-1230,-37310,-56990> has no isotropic 3-subform, and its split
    # value is the 5,707th candidate
    COEFFS = [1, -1230, -37310, -56990]

    def test_within_the_budget(self):
        q = QuadraticForm(rationals(), self.COEFFS)
        res = is_isotropic(q)
        assert res.isotropic and q.evaluate(q.field.kernel._unpack(*res.witness)).is_zero()

    def test_past_the_budget_is_a_typed_limit(self, monkeypatch):
        monkeypatch.setattr(qforms, "_SPLIT_VALUE_BUDGET", 100)
        with pytest.raises(InputTooLarge) as err:
            is_isotropic(QuadraticForm(rationals(), self.COEFFS))
        # the stage, the form (as the pair and the rest it was split into) and the budget
        assert str(err.value) == "witness split value of <1,-1230> + <-37310,-56990>: no t among the first 100 candidates"
        form = json.dumps({"field": {"kind": "Q"}, "coeffs": [str(c) for c in self.COEFFS]})
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["witt", "--json", form]) == 3
        assert json.loads(out.getvalue())["error"]["kind"] == "InputTooLarge"
