"""Field arithmetic, square tests, real signs, Legendre symbols, factoring."""

import json
import random
import time
from fractions import Fraction
from math import prod

import pytest

from splitrank import cli, fields
from splitrank.errors import (
    DivisionByZero,
    FieldMismatch,
    InputTooLarge,
    InvalidInput,
    PrimeFieldHasNoRealPlaces,
    ZeroElement,
)
from splitrank.fields import (
    PRIMALITY_LIMIT,
    is_prime,
    legendre,
    prime_factors,
    prime_field,
    quad_ext,
    rationals,
)
from splitrank.qforms import QuadraticForm, witt_decompose

Q = rationals()
F7 = prime_field(7)
R2 = quad_ext(2)
RI = quad_ext(-1)


class TestArithmetic:
    def test_rational_add(self):
        assert Q.element(Fraction(1, 2)) + Q.element(Fraction(1, 3)) == Q.element(Fraction(5, 6))

    def test_fp_mul(self):
        assert F7.element(3) * F7.element(5) == F7.element(1)

    def test_quad_difference_of_squares(self):
        assert R2.element((1, 1)) * R2.element((1, -1)) == R2.element(-1)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            Q.element(1) / Q.element(0)
        with pytest.raises(DivisionByZero):
            R2.element((0, 0)).inv()

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            Q.element(1) + F7.element(1)

    def test_inverse_roundtrip(self):
        x = R2.element((Fraction(2, 3), Fraction(-1, 5)))
        assert x * x.inv() == R2.one()

    def test_pow(self):
        assert F7.element(3) ** 6 == F7.one()
        assert Q.element(2) ** -2 == Q.element(Fraction(1, 4))


class TestConstruction:
    def test_char_2_3_rejected(self):
        for p in (2, 3):
            with pytest.raises(InvalidInput):
                prime_field(p)

    def test_non_prime_rejected(self):
        with pytest.raises(InvalidInput):
            prime_field(15)

    def test_bad_d_rejected(self):
        for d in (0, 1, 4, 12, -8):
            with pytest.raises(InvalidInput):
                quad_ext(d)

    def test_squarefree_d_accepted(self):
        for d in (2, 3, 5, -1, -7, 30):
            quad_ext(d)


class TestIsSquare:
    def test_rational_witness(self):
        assert Q.element(Fraction(4, 9)).square_root() == Q.element(Fraction(2, 3))
        assert Q.element(-4).square_root() is None
        assert Q.element(Fraction(2, 3)).square_root() is None

    def test_fp_witness_against_enumeration(self):
        # oracle: the squares mod 7 by full enumeration
        squares = {(x * x) % 7 for x in range(7)}
        assert 2 in squares
        w = F7.element(2).square_root()
        assert w is not None and w * w == F7.element(2)
        for r in range(7):
            got = F7.element(r).square_root()
            assert (got is not None) == (r in squares)

    def test_quad_ext_example(self):
        x = R2.element((3, 2))  # (1 + sqrt 2)^2 expands to 3 + 2 sqrt 2
        w = x.square_root()
        assert w is not None and w * w == x

    def test_quad_ext_rational_and_d_multiples(self):
        assert R2.element(2).square_root() is not None  # (sqrt 2)^2
        assert R2.element((0, 2)).square_root() is None  # 2 sqrt 2 has nonsquare norm
        assert RI.element(-1).square_root() is not None  # i^2

    def test_zero_is_square(self):
        for f in (Q, F7, R2):
            w = f.zero().square_root()
            assert w is not None and w * w == f.zero()


class TestRealSigns:
    def test_rational(self):
        assert Q.element(Fraction(-3, 4)).real_signs() == [-1]

    def test_quad_example(self):
        # 1 - sqrt(2): under sqrt(2) -> +: 1 < 2 so negative; under -> -: positive
        assert R2.element((1, -1)).real_signs() == [-1, 1]

    def test_imaginary_empty(self):
        assert RI.element(5).real_signs() == []

    def test_zero_rejected(self):
        with pytest.raises(ZeroElement):
            Q.element(0).real_signs()

    def test_prime_field_rejected(self):
        with pytest.raises(PrimeFieldHasNoRealPlaces):
            F7.element(1).real_signs()

    def test_exact_close_call(self):
        # 10 - 7 sqrt(2) ~ +0.1 at both embeddings (norm 2 > 0: equal signs)
        assert R2.element((10, -7)).real_signs() == [1, 1]
        # 7 - 5 sqrt(2) ~ -0.07 under +, ~ +14.07 under - (norm -1 < 0)
        assert R2.element((7, -5)).real_signs() == [-1, 1]
        assert R2.element((-7, 5)).real_signs() == [1, -1]


class TestLegendre:
    def test_one_is_square(self):
        assert legendre(1, 7) == 1

    def test_two_mod_three(self):
        squares_mod_3 = {(x * x) % 3 for x in range(3)}  # {0, 1}
        assert 2 not in squares_mod_3
        assert legendre(2, 3) == -1

    def test_divisible(self):
        assert legendre(3, 3) == 0

    def test_euler_agrees_with_enumeration(self):
        for p in (5, 7, 11):
            squares = {(x * x) % p for x in range(1, p)}
            for a in range(1, p):
                assert legendre(a, p) == (1 if a in squares else -1)


class TestParsing:
    @pytest.mark.parametrize(
        "field,literal,value",
        [
            (Q, "-3/4", Fraction(-3, 4)),
            (Q, "5/6", Fraction(5, 6)),
            (Q, "−3", Fraction(-3)),
            (F7, "12", 5),
            (R2, "1/2+3/5*r", (Fraction(1, 2), Fraction(3, 5))),
            (R2, "1/2-3/5*r", (Fraction(1, 2), Fraction(-3, 5))),
            (R2, "r", (Fraction(0), Fraction(1))),
            (R2, "-r", (Fraction(0), Fraction(-1))),
            (R2, "2-r", (Fraction(2), Fraction(-1))),
            (R2, "3*r", (Fraction(0), Fraction(3))),
            (R2, "-21*r", (Fraction(0), Fraction(-21))),
            (R2, "12/5*r", (Fraction(0), Fraction(12, 5))),
            # spaces between the parts of a literal are read
            (Q, " -3/4 ", Fraction(-3, 4)),
            (F7, "- 12", 2),
            (R2, "1/2 + 3/5 * r", (Fraction(1, 2), Fraction(3, 5))),
            (R2, "- r", (Fraction(0), Fraction(-1))),
        ],
    )
    def test_literals(self, field, literal, value):
        assert field.element(literal).value == value

    # a space inside a number or a fraction is refused, not dropped: "1 2" is
    # not 12, over any field kind and from the command line
    @pytest.mark.parametrize(
        "field,literal",
        [(Q, "1 2"), (Q, "-3 /4"), (Q, "3/ 4"), (Q, "1 e3"), (F7, "1 2"), (F7, "- 1 0"),
         (R2, "1 2"), (R2, "1 2+r"), (R2, "1+2 3*r"), (R2, "1/2 +3/5 0*r")],
        ids=str,
    )
    def test_space_inside_a_number_is_refused(self, field, literal, capsys):
        with pytest.raises(InvalidInput):
            field.element(literal)
        form = json.dumps({"field": field.to_json(), "coeffs": [literal, "-1", "1"]})
        assert cli.main(["witt", "--json", form]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "InvalidInput"

    @pytest.mark.parametrize("bad", ["", "x", "1//2", "2r", "21r", "1/0", "1+2"])
    def test_bad_literals(self, bad):
        with pytest.raises(InvalidInput):
            R2.element(bad)

    # integers are read by int() before the Fraction parser: the accepted
    # rational literals and their values stay those of Fraction(literal)
    @pytest.mark.parametrize(
        "literal,value",
        [("+5", 5), ("1_0", 10), ("−3", -3), ("3/4", Fraction(3, 4)), ("1e3", 1000), ("0.5", Fraction(1, 2)), ("007", 7)],
    )
    def test_rational_literal_values(self, literal, value):
        got = Q.element(literal).value
        assert type(got) is Fraction and got == value

    @pytest.mark.parametrize("bad", ["", "x", "1//2", "2r", "21r", "1/0", "1+2", "1__0", "0x10", "9" * 4301])
    def test_bad_rational_literals(self, bad, capsys):
        with pytest.raises(InvalidInput):
            Q.element(bad)
        form = json.dumps({"field": {"kind": "Q"}, "coeffs": ["1", "1", bad]})
        assert cli.main(["witt", "--json", form]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "InvalidInput"

    @pytest.mark.parametrize("bad", ["9" * 5000 + "*r", "1+" + "9" * 5000 + "*r", "9" * 5000 + "-r"])
    def test_literal_past_the_digit_limit(self, bad):
        # Fraction raises ValueError on more than 4,300 digits, as the Q
        # parser already reports
        with pytest.raises(InvalidInput):
            R2.element(bad)
        with pytest.raises(InvalidInput):
            Q.element("9" * 5000)

    def test_roundtrip(self):
        import random

        rng = random.Random(5)
        for f in (Q, F7, R2, RI):
            for height in (9, 1000):
                for _ in range(50):
                    x = f.random(rng, height)
                    assert f.element(str(x)) == x


class TestJson:
    def test_descriptors(self):
        from splitrank.fields import field_from_json

        for f in (Q, F7, R2, RI):
            assert field_from_json(f.to_json()) == f
        with pytest.raises(InvalidInput):
            field_from_json({"kind": "R"})


def _trial_division(n):
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class TestFactoring:
    def test_matches_trial_division(self):
        rng = random.Random(3)
        for n in [rng.randrange(1, 10**8) for _ in range(300)] + [1009 * 1013, 1009**3 * 7, 2**40]:
            assert prime_factors(n) == _trial_division(n)
            assert list(prime_factors(n)) == sorted(_trial_division(n))

    def test_remembered_factorization_is_a_fresh_dict(self):
        n = 10000000019 * 526315789477
        first = prime_factors(n)
        first[2] = 5
        assert prime_factors(n) == {10000000019: 1, 526315789477: 1}
        assert prime_factors(-n) == prime_factors(n)

    def test_products_of_large_primes(self):
        big = [10**9 + 7, 10**9 + 9, 10000000019, 526315789477]
        assert all(is_prime(p) for p in big)
        assert prime_factors(-6 * big[0] ** 2 * 10007) == {2: 1, 3: 1, 10007: 1, big[0]: 2}
        assert prime_factors(big[1] * big[3] * 997) == {997: 1, big[1]: 1, big[3]: 1}

    def test_semiprime_witt_certified(self):
        # the form that hung trial-division factoring; the loose bound only
        # catches a return of the hang
        n = 10000000019 * 10000000000063
        assert prime_factors(n) == {19: 1, 10000000019: 1, 526315789477: 1}
        start = time.perf_counter()
        dec = witt_decompose(QuadraticForm(Q, [1, 1, -n]))
        assert time.perf_counter() - start < 30
        assert dec.witt_index == 0 and dec.method == "local_invariants"

    def test_rho_splits_each_large_prime_once(self, monkeypatch):
        # a prime above the trial limit, once found, divides the later
        # cofactors it turns up in before _split runs on them
        p, q, r = (next(n for n in range(m, m + 1000) if is_prime(n)) for m in (10**10, 2 * 10**10, 3 * 10**10))
        rho, found = fields._split, []

        def recorded(n):
            found.append(rho(n))
            return found[-1]

        monkeypatch.setattr(fields, "_split", recorded)
        fields._prime_factors.cache_clear()
        monkeypatch.setattr(fields, "_LARGE_PRIMES", {})
        monkeypatch.setattr(fields, "_large_product", 1)
        for n in (p * q, 3 * p * q * r, 7 * p * r, q * r, p * p * q, -2 * r**3, 10007 * 10009 * q):
            got = prime_factors(n)
            assert prod(b**e for b, e in got.items()) == abs(n) and all(is_prime(b) for b in got)
        primes = [f for f in found if is_prime(f)]
        assert primes and len(primes) == len(set(primes))

    def test_registry_gcd_lookup_and_eviction(self, monkeypatch):
        # a gcd with the running product finds the registered part of a
        # cofactor, a scan splits a product of registered primes, and the
        # oldest prime leaves the product with the registry
        rho, split = fields._split, []
        monkeypatch.setattr(fields, "_split", lambda n: split.append(n) or rho(n))
        monkeypatch.setattr(fields, "_CACHE_SIZE", 3)
        monkeypatch.setattr(fields, "_LARGE_PRIMES", {})
        monkeypatch.setattr(fields, "_large_product", 1)
        fields._prime_factors.cache_clear()
        assert prime_factors(1009 * 1013) == {1009: 1, 1013: 1}
        assert prime_factors(1013 * 1019 * 1021) == {1013: 1, 1019: 1, 1021: 1}
        assert split == [1009 * 1013, 1019 * 1021]
        assert sorted(fields._LARGE_PRIMES) == [1013, 1019, 1021] and fields._large_product == 1013 * 1019 * 1021
        assert prime_factors(1013 * 1019) == {1013: 1, 1019: 1} and len(split) == 2
        assert prime_factors(1009 * 1031) == {1009: 1, 1031: 1} and split[2:] == [1009 * 1031]
        assert fields._large_product == prod(fields._LARGE_PRIMES)

    def test_clearing_the_caches_keeps_factoring(self):
        # the lru, the registry and its product are emptied together: a
        # registry emptied alone left its primes in the product, and the
        # next lookup found the product but no prime to divide by
        n = 10000000019 * 526315789477
        first = prime_factors(n)
        fields.clear_factor_caches()
        assert not fields._LARGE_PRIMES and fields._large_product == 1
        assert prime_factors(n) == first == {10000000019: 1, 526315789477: 1}

    def test_primality_limit(self):
        # psi_12 is a strong pseudoprime to every base up to 37
        assert not is_prime(PRIMALITY_LIMIT - 1)
        with pytest.raises(InputTooLarge):
            is_prime(PRIMALITY_LIMIT)
        with pytest.raises(InputTooLarge):
            prime_factors(4 * PRIMALITY_LIMIT)
        assert prime_factors(2**100) == {2: 100}

    def test_composites_past_the_limit(self):
        # a Miller-Rabin witness proves compositeness at any size
        assert 1009**8 > PRIMALITY_LIMIT and not is_prime(1009**8)
        assert prime_factors(1009**8) == {1009: 8}
        with pytest.raises(InvalidInput):
            prime_field(10**30 + 1)
        primes = [100003, 100019, 100043, 100049, 100057]
        assert all(is_prime(p) for p in primes)
        form = QuadraticForm(Q, primes)
        assert prod(primes) > PRIMALITY_LIMIT
        assert QuadraticForm(Q, [prod(primes)]).det_squareclass() == prod(primes)
        assert witt_decompose(form).witt_index == 0


def _next_prime(m: int) -> int:
    return next(n for n in range(m, 2 * m) if is_prime(n))


class TestSplitPanel:
    """The three stages of fields._split on known factorizations, each
    factored from cold caches: every prime comes back proven."""

    @staticmethod
    def _factored(n: int) -> dict:
        fields.clear_factor_caches()
        got = prime_factors(n)
        assert all(is_prime(p) for p in got)
        return got

    @pytest.mark.parametrize("k", range(3, 15))
    def test_least_prime_by_size(self, k):
        # least prime from 10^3 to 10^14: rho splits it below ~10^8, ECM above
        p, q = _next_prime(10**k + 7), _next_prime(3 * 10**k + 1)
        assert self._factored(p * q) == {p: 1, q: 1}

    @pytest.mark.parametrize("p", [1009, 5861, _next_prime(3 * 10**6), _next_prime(10**9)])
    def test_prime_powers(self, p):
        # the root test splits them before rho (whose first batch with c = 1
        # meets m itself on 5861^2) and before ECM (whose stage 2 collects
        # all of p^2 once B2 > p)
        assert fields._root(p**2) == p and fields._root(p**3) == p
        assert self._factored(p**2) == {p: 2} and self._factored(p**3) == {p: 3}
        assert self._factored(1013 * p**2) == {1013: 1, p: 2}

    def test_both_primes_below_b2(self):
        # ECM skips a curve whose gcd is n, and the next one splits it
        p, q = 10007, 19997
        assert q < fields._ECM_B2_RATIO * fields._ECM_B1
        assert fields._ecm(p * q) in (p, q)
        assert self._factored(p * q) == {p: 1, q: 1}

    def test_three_prime_products(self):
        primes = [_next_prime(m) for m in (2003, 10**7, 10**10, 4 * 10**11)]
        for a, b, c in ((0, 1, 2), (1, 2, 3), (0, 2, 3)):
            p, q, r = primes[a], primes[b], primes[c]
            assert self._factored(p * q * r) == {p: 1, q: 1, r: 1}
        assert self._factored(primes[1] ** 2 * primes[2]) == {primes[1]: 2, primes[2]: 1}

    def test_seed_1_semiprime(self):
        # the witt_panel semiprime of seed 1: rho uses its whole budget, ECM splits it
        assert self._factored(49676701267 * 77940676433) == {49676701267: 1, 77940676433: 1}
        assert fields._rho(49676701267 * 77940676433) is None

    def test_two_14_digit_primes_in_bounded_curves(self, monkeypatch):
        # counted in curves, not in wall time: a stage 2 that finds nothing
        # needs far more of them
        p, q = _next_prime(4 * 10**13), _next_prime(9 * 10**13)
        curve, curves = fields._ecm_curve, []
        monkeypatch.setattr(fields, "_ecm_curve", lambda *a: curves.append(a[1]) or curve(*a))
        assert self._factored(p * q) == {p: 1, q: 1}
        assert len(curves) <= 15

    def test_curve_budget(self, monkeypatch):
        # curves that never split n: once the next curve would take the sum
        # of the B1 times n's bit length past the work budget,
        # InputTooLarge, not a hang; the longer n, the fewer curves
        semiprime = _next_prime(4 * 10**13) * _next_prime(9 * 10**13)
        for n, want in ((semiprime, 50), (29499844054057586972697208966483124454769326642083079697007, 37)):
            bits, curves = n.bit_length(), []
            monkeypatch.setattr(fields, "_ecm_curve", lambda m, sigma, b1, b2: curves.append((sigma, b1)) or m)
            with pytest.raises(InputTooLarge) as raised:
                fields._ecm(n)
            assert str(raised.value) == (
                f"no factor of {n} found by ECM within {want} curves, the stage-1 budget of a {bits}-bit integer"
            )
            assert [s for s, _ in curves] == list(range(6, 6 + want))
            b1s = [b for _, b in curves]
            following = b1s[-1] + b1s[-1] * fields._ECM_B1_STEP // 100  # the B1 of the curve not run
            assert b1s[0] == fields._ECM_B1
            assert sum(b1s) * bits <= fields._ECM_WORK < (sum(b1s) + following) * bits

    def test_curve_budget_is_an_exit_3(self, monkeypatch, capsys):
        # the witt command on a coefficient that ECM cannot split reports
        # InputTooLarge naming the integer (the real run takes the whole
        # budget on this product of two 30-digit probable primes)
        n = 29499844054057586972697208966483124454769326642083079697007
        fields.clear_factor_caches()
        monkeypatch.setattr(fields, "_ecm_curve", lambda m, sigma, b1, b2: m)
        form = json.dumps({"field": {"kind": "Q"}, "coeffs": [str(-n), "1", "2"]})
        assert cli.main(["witt", "--json", form]) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "InputTooLarge" and str(n) in error["message"]
