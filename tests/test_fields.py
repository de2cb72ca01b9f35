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
    sqrt_mod_p,
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

    @pytest.mark.parametrize(
        "build", [lambda: prime_field(7.0), lambda: prime_field(True), lambda: prime_field("7"), lambda: quad_ext(2.0),
                  lambda: quad_ext(Fraction(-7)), lambda: quad_ext("2")],
        ids=["p-float", "p-bool", "p-str", "d-float", "d-fraction", "d-str"],
    )
    def test_parameter_must_be_an_int(self, build):
        # F7.0 had float residues and compared equal to F7; a float d went
        # into the products of the Q(sqrt d) kernel
        with pytest.raises(InvalidInput):
            build()


class TestPayload:
    """Field.payload reads exact numbers and literals only: a float was
    truncated or expanded to its binary fraction, and a bool read as 1."""

    @pytest.mark.parametrize("field", [Q, F7, R2], ids=str)
    @pytest.mark.parametrize(
        "value", [1.5, 0.1, float("nan"), float("inf"), True, False, None, [1], 1j],
        ids=["1.5", "0.1", "nan", "inf", "True", "False", "None", "list", "complex"],
    )
    def test_inexact_scalar_rejected(self, field, value):
        with pytest.raises(InvalidInput):
            field.element(value)

    @pytest.mark.parametrize(
        "value", [(1.5, 0), (0, 0.5), (True, 1), ("1", "2"), (1, 2, 3), [1, 2]],
        ids=["a-float", "b-float", "a-bool", "strings", "triple", "list"],
    )
    def test_bad_pair_rejected(self, value):
        with pytest.raises(InvalidInput):
            R2.element(value)

    @pytest.mark.parametrize("field", [Q, F7], ids=str)
    def test_pair_only_over_quadratic_fields(self, field):
        with pytest.raises(InvalidInput):
            field.element((1, 2))

    def test_float_coefficient_of_a_form_rejected(self):
        with pytest.raises(InvalidInput):
            QuadraticForm(F7, [1.9, 2, 3])


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

    def test_square_roots_agree_with_enumeration(self):
        # p = 3 mod 4 (the root checked by squaring) and p = 1 mod 4 (Tonelli-Shanks)
        for p in (3, 7, 11, 19, 43, 5, 13, 17, 41, 97):
            squares = {x * x % p for x in range(p)}
            for a in range(-p, 2 * p):
                r = sqrt_mod_p(a, p)
                if a % p in squares:
                    assert r is not None and 0 <= r < p and r * r % p == a % p, (a, p)
                else:
                    assert r is None, (a, p)


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
        # cofactors it turns up in before _split runs on them: after p q,
        # only 10007 * 10009, made of no registered prime, is split
        p, q, r = (next(n for n in range(m, m + 1000) if is_prime(n)) for m in (10**10, 2 * 10**10, 3 * 10**10))
        split, calls = fields._split, []
        monkeypatch.setattr(fields, "_split", lambda n: calls.append(n) or split(n))
        monkeypatch.setattr(fields, "_LARGE_PRIMES", {})
        fields._prime_factors.cache_clear()
        assert prime_factors(p * q) == {p: 1, q: 1} and calls == [p * q]
        assert prime_factors(3 * p * q * r) == {3: 1, p: 1, q: 1, r: 1}
        for n in (7 * p * r, q * r, p * p * q, -2 * r**3, 10007 * 10009 * q):
            got = prime_factors(n)
            assert prod(b**e for b, e in got.items()) == abs(n) and all(is_prime(b) for b in got)
        assert calls == [p * q, 10007 * 10009]
        assert sorted(fields._LARGE_PRIMES) == [10007, 10009, p, q, r]

    def test_registry_gcd_lookup_and_eviction(self, monkeypatch):
        # the first registered prime that divides a cofactor splits it off
        # with no call of _split, and a registry past its size drops its
        # oldest prime, which the next cofactor then has to split again
        split, calls = fields._split, []
        monkeypatch.setattr(fields, "_split", lambda n: calls.append(n) or split(n))
        monkeypatch.setattr(fields, "_CACHE_SIZE", 3)
        monkeypatch.setattr(fields, "_LARGE_PRIMES", {})
        fields._prime_factors.cache_clear()
        assert prime_factors(1009 * 1013) == {1009: 1, 1013: 1}
        oldest, newer = fields._LARGE_PRIMES
        assert prime_factors(1013 * 1019 * 1021) == {1013: 1, 1019: 1, 1021: 1}
        assert calls == [1009 * 1013, 1019 * 1021]
        assert oldest not in fields._LARGE_PRIMES and list(fields._LARGE_PRIMES)[0] == newer
        assert sorted(fields._LARGE_PRIMES) == sorted({newer, 1019, 1021})
        assert prime_factors(1019 * 1021) == {1019: 1, 1021: 1} and len(calls) == 2
        assert prime_factors(oldest * 1031) == {oldest: 1, 1031: 1} and calls[2:] == [oldest * 1031]
        assert len(fields._LARGE_PRIMES) == 3 and newer not in fields._LARGE_PRIMES

    def test_clearing_the_caches_keeps_factoring(self):
        # the lru and the registry are emptied together, or the registry
        # alone with the lru kept: either way every later lookup factors
        n = 10000000019 * 526315789477
        first = prime_factors(n)
        fields.clear_factor_caches()
        assert not fields._LARGE_PRIMES and fields._prime_factors.cache_info().currsize == 0
        assert prime_factors(n) == first == {10000000019: 1, 526315789477: 1}
        assert set(fields._LARGE_PRIMES) == set(first)
        fields._LARGE_PRIMES.clear()  # the lru still holds n
        assert prime_factors(19 * n) == {19: 1, **first}
        assert prime_factors(n * n) == {10000000019: 2, 526315789477: 2}

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

    def test_rho_retries_what_x2_plus_1_meets_whole(self):
        # x -> x^2 + 1 meets n itself on 1009 * 1709, in the batch and in
        # its one-step redo, and ECM cannot split n: both primes are below
        # B2, so every curve's gcd is n.  x -> x^2 + 2 splits it.
        n = 1009 * 1709
        assert fields._rho(n) in (1009, 1709)
        with pytest.raises(InputTooLarge):
            fields._ecm(n)
        assert self._factored(n) == {1009: 1, 1709: 1}

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
