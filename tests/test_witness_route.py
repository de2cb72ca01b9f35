"""The integer witness route against its Fraction predecessors: the integral
LLL and the pruned Fincke-Pohst against a Fraction Gram-Schmidt oracle, the
square-class tables of _split_plan against a per-candidate local isotropy
test on the integer Hilbert-symbol formulas kept below, and the work
budgets of _split_value and of the Legendre lattice search."""

import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from splitrank import cli, qforms
from splitrank.errors import InputTooLarge
from splitrank.fields import prime_factors, rationals
from splitrank.qforms import QuadraticForm, _least_zero, _lll, _record, _split_plan, _square_class, is_isotropic

SRC = str(Path(__file__).resolve().parents[1] / "src")


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
        expected = fraction_lll(basis, weights)
        assert _lll(basis, weights)[0] == expected, (basis, weights)
        swaps += expected != basis
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


def _values(listed, coeffs):
    return [sum(c * x * x for c, x in zip(coeffs, v)) for v in listed]


def _first_in_sorted_list(listed, coeffs, m):
    """What the full enumeration gave: the first zero of q = sum c_i x_i^2 in
    the oracle's sorted list of the ellipsoid, else its first vector with q
    = m, else None."""
    values = _values(listed, coeffs)
    return next((v for v, q in zip(listed, values) if q == 0), None) or next((v for v, q in zip(listed, values) if q == m), None)


def _planted_zero(basis, weights, rng):
    """Coefficients (w0 z^2, w1 z^2, -(w0 x^2 + w1 y^2)) with a zero at u =
    (x, y, z), a sum of +-1 times rows of the basis reduced for the weights,
    with no zero coordinate."""
    rows = fraction_lll(basis, weights)
    while True:
        picks = [rng.randint(-1, 1) for _ in range(3)]
        u = [sum(k * row[i] for k, row in zip(picks, rows)) for i in range(3)]
        if all(u):
            x, y, z = u
            return [weights[0] * z * z, weights[1] * z * z, -(weights[0] * x * x + weights[1] * y * y)], u


def test_pruned_enumeration_returns_the_first_zero_of_the_sorted_list():
    # on the panel's lattices, every other one with a planted zero, the
    # least (norm, vector) zero in the ellipsoid, else the least with q = m
    # for a value m taken in it
    rng = random.Random(9_151)
    zeros = fallbacks = 0
    for k in range(600):
        basis, weights = _lattice(rng)
        if k % 2:
            coeffs, u = _planted_zero(basis, weights, rng)
        else:
            coeffs, u = [weights[0], weights[1], -weights[2]], None
        norms = [abs(c) for c in coeffs]
        expected = fraction_lll(basis, norms)
        shortest = min(sum(w * x * x for w, x in zip(norms, row)) for row in expected)
        bound = 3 * shortest
        if u is not None:  # the ellipsoid reaches u, if that takes at most 20 times the shortest row
            bound = max(bound, min(sum(w * x * x for w, x in zip(norms, u)), 20 * shortest))
        listed = fraction_short_vectors(expected, norms, bound)
        m = _values([rng.choice(listed)], coeffs)[0]
        want = _first_in_sorted_list(listed, coeffs, m)
        assert _least_zero(*_lll(basis, norms), coeffs, m, bound) == want, (basis, coeffs, m, bound)
        has_zero = 0 in _values(listed, coeffs)
        zeros, fallbacks = zeros + has_zero, fallbacks + (not has_zero)
    assert zeros > 200 and fallbacks > 250


def test_pruned_enumeration_breaks_a_tie_in_norm_by_the_vector():
    # x^2 + y^2 - 2z^2: the eight zeros (+-1, +-1, +-1) share the norm 4
    coeffs, b = [1, 1, -2], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    listed = fraction_short_vectors(b, [1, 1, 2], 12)
    assert [v for v, q in zip(listed, _values(listed, coeffs)) if q == 0][:8] == [list(v) for v in itertools.product((-1, 1), repeat=3)]
    assert _first_in_sorted_list(listed, coeffs, 0) == [-1, -1, -1]
    assert _least_zero(*_lll(b, [1, 1, 2]), coeffs, 0, 12) == [-1, -1, -1]


def test_pruned_enumeration_without_a_zero_returns_the_first_q_equal_m_vector():
    # x^2 + y^2 - 3z^2 has no zero (x^2 + y^2 = 3z^2 forces 3 | x, y, z)
    coeffs, b = [1, 1, -3], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    listed, reduced = fraction_short_vectors(b, [1, 1, 3], 30), _lll(b, [1, 1, 3])
    assert 0 not in _values(listed, coeffs)
    for m in (1, -2, 6):
        want = _first_in_sorted_list(listed, coeffs, m)
        assert want is not None and _least_zero(*reduced, coeffs, m, 30) == want, m
    assert _least_zero(*reduced, coeffs, 31, 30) is None  # |q| <= norm <= 30


def _squarefree(rng, height):
    while True:
        x = rng.choice((-1, 1)) * rng.randint(1, height)
        if all(e == 1 for e in prime_factors(x).values()):
            return x


# The integer formulas of the local layer before its square-class tables,
# kept here as the oracle of the tables.


def _val_unit(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _legendre_symbol(u, p):
    r = pow(u % p, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _symbol(a, b, p):
    """Hilbert symbol (a,b)_p for nonzero integers a, b at a prime p."""
    if p == 2:
        alpha, u = _val_unit(a, 2)
        beta, v = _val_unit(b, 2)
        e = ((u - 1) // 2) * ((v - 1) // 2)
        e += alpha * ((v * v - 1) // 8) + beta * ((u * u - 1) // 8)
        return -1 if e % 2 else 1
    alpha, u = _val_unit(a, p)
    beta, v = _val_unit(b, p)
    s = 1
    if (alpha * beta * ((p - 1) // 2)) % 2:
        s = -s
    if beta % 2:
        s *= _legendre_symbol(u, p)
    if alpha % 2:
        s *= _legendre_symbol(v, p)
    return s


def _class_key(t, p):
    """Square class of t in Q_p: valuation parity and unit class; t is a
    square exactly when the key is (0, 1)."""
    v, u = _val_unit(t, p)
    return v % 2, (u % 8 if p == 2 else _legendre_symbol(u, p))


def _class_reps(p):
    if p == 2:
        return [u << v for v in (0, 1) for u in (1, 3, 5, 7)]
    n = next(n for n in range(2, p) if _legendre_symbol(n, p) == -1)
    return [1, n, p, n * p]


def _local_isotropic(n, det, eps, p):
    if n <= 1:
        return False
    if n == 2:
        return _class_key(-det, p) == (0, 1)
    if n == 3:
        return _symbol(-1, -det, p) == eps
    if n == 4:
        return not (_class_key(det, p) == (0, 1) and eps == -_symbol(-1, -1, p))
    return True


def _iso_at(ints, p):
    eps = math.prod(_symbol(a, b, p) for i, a in enumerate(ints) for b in ints[i + 1:])
    return _local_isotropic(len(ints), math.prod(ints), eps, p)


def test_square_class_indices_label_the_classes():
    # one index per class (a bijection on the representatives), 0 for the
    # squares, and the index of a product is the XOR of the indices
    rng = random.Random(61)
    for p in (2, 3, 5, 7, 11, 13, 10_007):
        keys = {_square_class(c, p): _class_key(c, p) for c in _class_reps(p)}
        assert sorted(keys) == list(range(len(_class_reps(p)))) and keys[0] == (0, 1)
        for _ in range(300):
            s, t = (rng.choice((-1, 1)) * rng.randint(1, 10**6) for _ in range(2))
            assert keys[_square_class(s, p)] == _class_key(s, p)
            assert _square_class(s * t, p) == _square_class(s, p) ^ _square_class(t, p)


def _brute_plan(s, pair, rest, primes):
    a, r = [s[i] for i in pair], [s[i] for i in rest]
    return {p: {_class_key(c, p) for c in _class_reps(p) if _iso_at(a + [-c], p) and _iso_at(r + [c], p)} for p in primes}


def _plan(s, pair, rest, primes):
    """_split_plan on the classes of s, its allowed classes read back as keys."""
    key, allowed, forced = _split_plan(_record({p: [_square_class(x, p) for x in s] for p in primes}), pair, rest)
    keys = {p: {_square_class(c, p): _class_key(c, p) for c in _class_reps(p)} for p in primes}
    return key, {p: {keys[p][c] for c in classes} for p, classes in allowed.items()}, forced


def test_split_plan_matches_per_candidate_local_isotropy():
    # the table lookups against a fresh local test of both forms, for
    # every class representative, at 2 and at every odd prime of the form
    rng = random.Random(4_040)
    compared = empty = 0
    for _ in range(400):
        s = [_squarefree(rng, 300) for _ in range(rng.choice((4, 5)))]
        pair = tuple(sorted(rng.sample(range(len(s)), 2)))
        rest = [i for i in range(len(s)) if i not in pair]
        primes = sorted({2}.union(*(prime_factors(x) for x in s)))
        brute = _brute_plan(s, pair, rest, primes)
        if not all(brute.values()):
            empty += 1
            with pytest.raises(qforms.InternalCheckFailed):
                _split_plan(_record({p: [_square_class(x, p) for x in s] for p in primes}), pair, rest)
            continue
        key, allowed, forced = _plan(s, pair, rest, primes)
        assert allowed == brute, (s, pair)
        assert forced == math.prod(p for p in primes if all(v for v, _ in brute[p]))
        assert key == forced / math.prod(Fraction(len(brute[p]), 8 if p == 2 else 4) for p in primes)
        compared += 1
    assert compared > 200 and empty > 0


def test_split_plan_covers_every_class_at_two():
    # at p = 2 all eight classes u 2^v are priced, for both parities of v
    seen = set()
    for a, rest in itertools.product([[1, 3], [-1, 2], [5, -6], [-7, -2]], [[1, -5], [2, 3, -7], [-1, -3]]):
        s = a + rest
        primes = sorted({2}.union(*(prime_factors(x) for x in s)))
        brute = _brute_plan(s, (0, 1), list(range(2, len(s))), primes)
        if all(brute.values()):
            assert _plan(s, (0, 1), list(range(2, len(s))), primes)[1] == brute
            seen |= brute[2]
    assert {v for v, _ in seen} == {0, 1}


def test_importing_the_cli_builds_no_table():
    # the tables are built on first use, so a process's setup does not pay for them
    code = (
        "import splitrank.cli\n"
        "from splitrank import fields, qforms\n"
        "tables = (qforms._local_tables, qforms._split_classes, fields._sieve)\n"
        "print([t.cache_info().currsize for t in tables])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.split() == ["[0,", "0,", "0]"]


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


class TestLatticeNodeBudget:
    # <3,5,-2> has no zero of height 1, so its witness comes from the
    # Legendre lattice, whose search visits 5 nodes
    COEFFS = [3, 5, -2]

    def test_within_the_budget(self):
        q = QuadraticForm(rationals(), self.COEFFS)
        res = is_isotropic(q)
        assert res.isotropic and q.evaluate(q.field.kernel._unpack(*res.witness)).is_zero()

    def test_past_the_budget_is_a_typed_limit(self, monkeypatch):
        monkeypatch.setattr(qforms, "_LATTICE_NODE_BUDGET", 3)
        with pytest.raises(InputTooLarge) as err:
            is_isotropic(QuadraticForm(rationals(), self.COEFFS))
        # the stage, the ternary (as the Legendre lattice takes it) and the budget
        assert str(err.value) == "Fincke-Pohst search of the Legendre lattice of <3,5,-2>: more than 3 nodes"
        form = json.dumps({"field": {"kind": "Q"}, "coeffs": [str(c) for c in self.COEFFS]})
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["witt", "--json", form]) == 3
        assert json.loads(out.getvalue())["error"]["kind"] == "InputTooLarge"
