"""Exact scalar arithmetic over Q, F_p (p >= 5) and Q(sqrt(d)).

Everything is exact: rationals are stdlib Fractions, quadratic elements are
pairs of Fractions over the fixed basis {1, sqrt(d)}, prime-field elements
are residues.  No floating point appears anywhere (tests/test_exact_source.py
scans the sources for it); real-embedding signs are decided by integer
comparisons, and lattice enumeration bounds by integer square roots.

Packed payloads.  Production holds every scalar in the packed vectors of
`Field.kernel`, picked once per field kind; FieldElement, with operator
arithmetic, is the scalar of the oracles (`verify`, the tests, the matrix
route) and of helpers that take or return one scalar.  `Field.payload` is
the one coercion: a literal, int, Fraction, (a, b) pair or element becomes
its canonical payload with no element built; `Field.element` wraps it, and
every kernel's `pack` calls it, so forms, octonion parameters and Gamma
are packed straight from their literals.  `packed_strings` is the one
literal writer, of the reports and of FieldElement.__str__.  The products
that dominate the running time -- octonion, Jordan, the Albert matrix
product, automorphism matrices -- are bilinear templates, each generated
once per process into one straight-line integer function (`_evaluator`)
that every field and algebra shares: `monomial_table` compiles every
template table (octonion, Jordan, trace, matrix, conjugation) into that
function, the algebra's constants -- signed monomials in its parameters,
multiplied out on packed integers -- and their denominator.  The
constants are arguments of the generated code, never literals in it.
Over Q and F_p a product is one call of the evaluator; over Q(sqrt d) it
is three (Karatsuba on the two integer parts of x and y) per nonzero part
of the constants.  The congruence checks of the quadratic-form
engine compile nothing: their forms are diagonal, so a Gram is the packed
coefficient vector and x^T G one elementwise product (`packed_times`).
Packed data unpacks into FieldElements only where an oracle reads it: an
octonion (`composition.CompElement`) and an Albert element
(`albert.AlbertElement`) are both a `PackedElement`, which unpacks its
coordinates when they are first read, so products, slices and zero tests
stay on integers; a `qforms.QuadraticForm`, the parameters of a
`composition.CompositionAlgebra` and the Gamma of an
`albert.AlbertAlgebra` have lazy views (`coeffs`, `params`, `gamma`); an
isotropy witness is a packed vector, read in an extension by
`lift_packed`.  `qforms.witt_decompose` builds each split's columns on
packed scalars (`_mul`, `_add`, `packed_over`), keeps them and the
coefficients packed from split to split (`common_columns`, `packed_mix`,
`packed_reduced`) and proves each report once on the packed basis
(`packed_times`, `packed_dot`); the conjugations of
`albert.conjugation_between` fill their rows from packed outputs
(`packed_table`), and their sampled checks draw packed vectors
(`random_packed`, with the draws of `Field.random`) and compare them; the
Cayley transform of `albert.so_gamma_sample` draws its skew matrix the
same way and runs on packed scalars (`_mul`, `_add`, `_times`,
`packed_over`):

    Q         integer numerators over one positive common denominator
    F_p       integer residues (the denominator is 1), reduced mod p once
              per output coordinate
    Q(sqrt d) integer pairs (a, b), meaning a + b sqrt(d), over one positive
              common denominator

Unpacking normalizes, so the payloads are exactly those of FieldElement
arithmetic: a reduced Fraction, a residue in [0, p), a pair of reduced
Fractions.  `verify.reference_octonion_mul` and
`verify.reference_matrix_mul` are plain FieldElement oracles for the
kernels.

Factoring.  `prime_factors` is trial division by the sieved primes below
1000, then `_split` on each composite cofactor: an exact perfect-power
test, Pollard rho (Brent's variant) up to a fixed step cap, then Lenstra's
elliptic-curve method on Montgomery curves (stage 1 to B1, standard
continuation to B2), until the B1 of its curves, summed and times the bit
length of the cofactor, would pass `_ECM_WORK`, where it raises
InputTooLarge.  A cofactor below 10^6 has no prime factor below its square
root, so it is prime with no test; every larger prime is proven by
`is_prime`.  Factorizations are remembered per integer (an lru of 4096),
and the primes above the trial limit in a registry of the same size,
oldest dropped first: a composite cofactor is divided by the first
registered prime that divides it before `_split` runs, so a large prime
is split out once, however many products it turns up in, for as long as
it stays registered.  `clear_factor_caches` empties both.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import compress, count
from math import gcd, isqrt, lcm, prod

from .errors import (
    AlgebraMismatch,
    DivisionByZero,
    FieldMismatch,
    InputTooLarge,
    InvalidInput,
    PrimeFieldHasNoRealPlaces,
    UnsupportedExtension,
    ZeroElement,
)

RATIONALS = "Q"
PRIME_FIELD = "Fp"
QUAD_EXT = "QSqrt"

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_12: the least strong pseudoprime to all of _MR_BASES (Sorenson and
# Webster 2015), so Miller-Rabin with these bases is a proof below it.
PRIMALITY_LIMIT = 318665857834031151167461
_TRIAL_LIMIT = 1000


def is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases up to 37.  A witness proves n
    composite at any size; passing every base proves n prime only below
    PRIMALITY_LIMIT, so a larger n that passes raises InputTooLarge."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PRIMALITY_LIMIT:
        raise InputTooLarge(f"primality of {n} is not proven at or above {PRIMALITY_LIMIT}")
    return True


# The constants of _split, chosen on balanced semiprimes p q from
# random.Random(42), outside the benchmark (CHANGES.md has the runs).
# Rho gives up once r passes 2^12, after ~16k steps (6 ms): with a least
# prime of 8 digits rho took 2.9 ms (median) against ECM's 4.3, with 9
# digits 13.5 ms against 2.5.
_RHO_MAX_R = 1 << 12
# Of six settings (B1 from 200 to 600, growth 5% or 10% per curve, B2/B1
# 25 or 50), run in turn on each semiprime, the mean times summed over
# least primes of 10 to 14 digits were least for (400, 5%, 25) and (400,
# 5%, 50): 417 and 424 ms, against 436 ms and more for the others.
_ECM_B1 = 400  # the first curve's stage-1 bound
_ECM_B1_STEP = 5  # each curve's B1 is this many percent above the last one's
_ECM_B2_RATIO = 50  # B2 = 50 B1
# _ecm gives up once the B1 of its curves, summed and times n's bit length,
# would pass this budget: a curve's time grows about linearly with both, so
# the budget bounds the time of a give-up whatever the size of n.  The most
# seen is 2.66 million, 31 curves on the 95-bit product of two 14-digit
# primes in the tests; random Witt forms of height up to 10^9 certify with
# at most 0.94 million (17 curves on 91 bits), and one that fails anyway
# spends 5.97 million (38 curves on 140 bits).  Three times the first, the
# budget allows 50 curves on 95 bits, 37 on 195 bits and 14 on 1000 bits;
# a give-up then takes about 1 s at each size (CHANGES.md has the runs).
_ECM_WORK = 8_000_000


def _split(m: int) -> int:
    """A nontrivial factor of a composite m with no prime factor below the
    trial limit: its root if m is a perfect power, else Brent's rho within
    its step cap, else ECM."""
    return _root(m) or _rho(m) or _ecm(m)


def _root(m: int) -> int | None:
    """r when m = r^k for some k >= 2, else None (m has no prime factor
    below the trial limit, so r > 2^9)."""
    return next((r for k in range(2, m.bit_length() // 9 + 1) if (r := _iroot(m, k)) ** k == m), None)


def _iroot(m: int, k: int) -> int:
    """The floor of the k-th root of m >= 1: Newton's method from above."""
    r = 1 << -(-m.bit_length() // k)
    while (s := ((k - 1) * r + m // r ** (k - 1)) // k) < r:
        r = s
    return r


def _rho(n: int) -> int | None:
    """A nontrivial factor of an odd composite n by Brent's variant of
    Pollard rho (deterministic: x -> x^2 + c from 2, for c = 1, 2, 3), or
    None once r passes _RHO_MAX_R with gcd 1 or every c meets n itself.
    A later c splits what x^2 + 1 meets whole (1009 * 1709): ECM cannot."""
    for c in (1, 2, 3):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if r > _RHO_MAX_R:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    return None


def _ecm(n: int) -> int:
    """A nontrivial factor of a composite n by Lenstra's elliptic-curve
    method (Ann. of Math. 126, 1987) on Montgomery's x-only curves (Math.
    Comp. 48, 1987), sigma = 6, 7, ... of Suyama's parametrization, with B1
    growing from curve to curve.  A curve whose gcd is n is skipped; a
    curve that would take the sum of the B1 past _ECM_WORK over n's bit
    length is not run: InputTooLarge."""
    b1, budget = _ECM_B1, _ECM_WORK // n.bit_length()
    for sigma in count(6):
        if b1 > budget:
            raise InputTooLarge(f"no factor of {n} found by ECM within {sigma - 6} curves, "
                                f"the stage-1 budget of a {n.bit_length()}-bit integer")
        g = _ecm_curve(n, sigma, b1, _ECM_B2_RATIO * b1)
        if 1 < g < n:
            return g
        budget -= b1
        b1 += b1 * _ECM_B1_STEP // 100


def _ecm_curve(n: int, sigma: int, b1: int, b2: int) -> int:
    """gcd(n, ...) of one curve: 1, n or a factor of n.  Stage 1 multiplies
    the point P by lcm(1..b1); the standard continuation then catches an
    order q of P mod p that is one prime in (b1, b2]: with q = 2Dj +- d,
    x([2Dj]P) = x([d]P) mod p."""
    u, v = (sigma * sigma - 5) % n, 4 * sigma
    x, z = pow(u, 3, n), pow(v, 3, n)
    den = 16 * x * v % n  # (A + 2) / 4 = (v - u)^3 (3u + v) / (16 u^3 v)
    if (g := gcd(den, n)) > 1:
        return g
    a24 = pow(v - u, 3, n) * (3 * u + v) * pow(den, -1, n) % n
    k = prod(prod(_primes(1, _iroot(b1, e))) for e in range(1, b1.bit_length()))  # lcm(1..b1)
    x, z = _ladder(k, x, z, n, a24)
    if (g := gcd(z, n)) > 1:
        return g
    big = isqrt(b2)  # D
    x2, z2 = _xdbl(x, z, n, a24)
    baby = [(x, z), _xadd(x2, z2, x, z, x, z, n)]
    for _ in range(big // 2):  # baby[i] = [2i + 1]P, up to [D]P
        baby.append(_xadd(*baby[-1], x2, z2, *baby[-2], n))
    qs = _primes(b1, b2)
    j = (qs[0] + big) // (2 * big)
    xg, zg = _ladder(2 * big, x, z, n, a24)
    (xr, zr), (xn, zn) = _ladder(2 * big * j, x, z, n, a24), _ladder(2 * big * (j + 1), x, z, n, a24)
    acc = 1
    for q in qs:
        while (q + big) // (2 * big) > j:  # [2D(j + 2)]P from the two giant steps before it
            (xr, zr), (xn, zn) = (xn, zn), _xadd(xn, zn, xg, zg, xr, zr, n)
            j += 1
        xs, zs = baby[abs(q - 2 * big * j) // 2]
        acc = acc * (xr * zs - xs * zr) % n
    return gcd(acc, n)


def _xdbl(x: int, z: int, n: int, a24: int) -> tuple[int, int]:
    """[2]P, for a24 = (A + 2) / 4."""
    s, d = (x + z) ** 2 % n, (x - z) ** 2 % n
    return s * d % n, (s - d) * (d + a24 * (s - d)) % n


def _xadd(xp: int, zp: int, xq: int, zq: int, xd: int, zd: int, n: int) -> tuple[int, int]:
    """P + Q from P, Q and P - Q."""
    u, v = (xp - zp) * (xq + zq) % n, (xp + zp) * (xq - zq) % n
    return zd * (u + v) ** 2 % n, xd * (u - v) ** 2 % n


def _ladder(k: int, x: int, z: int, n: int, a24: int) -> tuple[int, int]:
    """[k]P for k >= 1 by Montgomery's ladder on ([j]P, [j + 1]P)."""
    x0, z0 = x, z
    x1, z1 = _xdbl(x, z, n, a24)
    for bit in bin(k)[3:]:
        if bit == "1":
            x0, z0 = _xadd(x0, z0, x1, z1, x, z, n)
            x1, z1 = _xdbl(x1, z1, n, a24)
        else:
            x1, z1 = _xadd(x0, z0, x1, z1, x, z, n)
            x0, z0 = _xdbl(x0, z0, n, a24)
    return x0, z0


@cache
def _sieve(top: int) -> list[int]:
    """The primes below top (a power of two), sieved on first use."""
    flags = bytearray([0, 0]) + bytearray([1]) * (top - 2)
    for i in range(2, isqrt(top) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, top, i)))
    return list(compress(range(top), flags))


def _primes(lo: int, hi: int) -> list[int]:
    """The primes p with lo < p <= hi."""
    ps = _sieve(1 << hi.bit_length())
    return ps[bisect_right(ps, lo) : bisect_right(ps, hi)]


def prime_factors(n: int) -> dict[int, int]:
    """{prime: exponent} of |n| in increasing order ({} for 0 and +-1):
    trial division by the primes below 1000, then on a composite cofactor
    a root test, Brent's rho within its step cap and ECM (Lenstra 1987, on
    Montgomery's curves) within its work budget, past which it raises
    InputTooLarge.  A cofactor below 10^6 is prime (it has no factor below
    1000), and every larger prime is proven by is_prime, so a factor of
    PRIMALITY_LIMIT or more that passes every Miller-Rabin base raises
    InputTooLarge.
    Factorizations are remembered per |n|, and each prime above the trial
    limit is remembered once found: a composite cofactor is divided by the
    first remembered prime that divides it before it is split.  Each call
    returns a fresh dict."""
    return dict(_prime_factors(abs(n)))


_CACHE_SIZE = 4096
# The primes above the trial limit found so far, oldest first: a large
# prime turns up again inside other products (g_j a next to r_i a, 2N
# after N), and should be split out only once.
_LARGE_PRIMES: dict[int, None] = {}


@lru_cache(maxsize=_CACHE_SIZE)
def _prime_factors(n: int) -> tuple[tuple[int, int], ...]:
    out: dict[int, int] = {}
    for p in _sieve(1 << _TRIAL_LIMIT.bit_length()):
        if p >= _TRIAL_LIMIT or p * p > n:
            break
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    todo = [n] if n > 1 else []
    while todo:
        m = todo.pop()  # no prime below the trial limit divides m: below its square, m is prime
        if m < _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(m):
            out[m] = out.get(m, 0) + 1
            if m > _TRIAL_LIMIT and m not in _LARGE_PRIMES:
                _LARGE_PRIMES[m] = None
                if len(_LARGE_PRIMES) > _CACHE_SIZE:
                    del _LARGE_PRIMES[next(iter(_LARGE_PRIMES))]
        else:
            f = next((q for q in _LARGE_PRIMES if m % q == 0), None) or _split(m)
            todo += [f, m // f]
    return tuple(sorted(out.items()))


def clear_factor_caches() -> None:
    """Forget every factorization (the lru) and registered prime."""
    _prime_factors.cache_clear()
    _LARGE_PRIMES.clear()


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p; 0 when p divides a."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def least_nonresidue(p: int) -> int:
    """The least quadratic nonresidue modulo an odd prime p."""
    n = 2
    while legendre(n, p) != -1:
        n += 1
    return n


def sqrt_mod_p(a: int, p: int) -> int | None:
    """Square root mod odd prime p, or None: at p = 3 mod 4 it is
    a^((p+1)/4), checked by squaring it, else Tonelli-Shanks."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return r if r * r % p == a else None
    if legendre(a, p) != 1:
        return None
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    m, c, t, r = s, pow(least_nonresidue(p), q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class Field:
    """Descriptor of one of the three supported base fields."""

    kind: str
    p: int | None = None
    d: int | None = None

    def __post_init__(self):
        if self.kind == RATIONALS:
            if self.p is not None or self.d is not None:
                raise InvalidInput("rationals take no parameters")
        elif self.kind == PRIME_FIELD:
            if type(self.p) is not int or self.p in (2, 3) or not is_prime(self.p):
                raise InvalidInput(f"prime field needs a prime p >= 5, got {_shown(self.p)}")
        elif self.kind == QUAD_EXT:
            if type(self.d) is not int or self.d in (0, 1) or any(e > 1 for e in prime_factors(self.d).values()):
                raise InvalidInput(f"quadratic extension needs squarefree d not in {{0,1}}, got {_shown(self.d)}")
        else:
            raise InvalidInput(f"unknown field kind {_shown(self.kind)}")
        object.__setattr__(self, "kernel", _KERNELS[self.kind](self))

    # ------------------------------------------------------------------ basics
    def __repr__(self):
        if self.kind == RATIONALS:
            return "Q"
        if self.kind == PRIME_FIELD:
            return f"F{self.p}"
        return f"Q(sqrt({self.d}))"

    def zero(self) -> FieldElement:
        return self.element(0)

    def one(self) -> FieldElement:
        return self.element(1)

    def element(self, value) -> FieldElement:
        """value as an element of this field: one of its elements as it is,
        and anything else that payload reads wrapped around its payload."""
        payload = self.payload(value)
        return value if type(value) is FieldElement else FieldElement(self, payload)

    def payload(self, value):
        """The canonical payload of value, as FieldElement.value holds it, with
        no element built: a literal string (_literal), an int (not a bool),
        a Fraction, an (a, b) pair of those numbers over Q(sqrt d), or an
        element of this field.  Anything else, a float among them, is
        InvalidInput."""
        if type(value) is FieldElement:
            if value.field is not self and value.field != self:
                raise FieldMismatch(f"element of {value.field} is not in {self}")
            return value.value
        if isinstance(value, str):
            return self._literal(value)
        if type(value) in _EXACT:
            if self.kind == RATIONALS:
                return Fraction(value)
            if self.kind == QUAD_EXT:
                return Fraction(value), Fraction(0)
            if type(value) is int:
                return value % self.p
            if value.denominator % self.p == 0:
                raise DivisionByZero(f"inverse of 0 in {self}")
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        if self.kind == QUAD_EXT and type(value) is tuple and len(value) == 2 and all(type(v) in _EXACT for v in value):
            return Fraction(value[0]), Fraction(value[1])
        raise InvalidInput(f"a scalar of {self} is a literal string, an int or a Fraction, got {_shown(value)}")

    def _literal(self, text: str):
        """The payload of a literal.  Q: "5/6", "-3" (what Fraction reads).
        F_p: a decimal integer.  Q(sqrt d): "1/2+3/5*r", "-r", "2-r", where
        r stands for sqrt(d).  An ASCII '-' and the unicode minus are both
        accepted, and so are spaces, except one that splits a number or a
        fraction.  An error echoes the literal as _shown cuts it."""
        s = text.replace("−", "-")
        if " " in s:
            if _SPLIT_NUMBER.search(s):
                raise InvalidInput(f"a space splits a number in the literal {_shown(text)}")
            s = s.replace(" ", "")
        if not s:
            raise InvalidInput("empty element literal")
        if self.kind == PRIME_FIELD:
            try:
                return int(s) % self.p
            except ValueError:
                raise InvalidInput(f"bad F_p literal {_shown(text)}") from None
        if self.kind == RATIONALS:
            try:  # most literals are integers: int() is cheaper than Fraction's regex
                return Fraction(int(s))
            except ValueError:
                try:
                    return Fraction(s)
                except (ValueError, ZeroDivisionError):
                    raise InvalidInput(f"bad rational literal {_shown(text)}") from None
        m = _LIT.match(s)
        if not m or (m["a"] is None and m["r"] is None) or (m["r"] and m["a"] and not m["bsign"]):
            raise InvalidInput(f"bad quadratic literal {_shown(text)}")
        try:  # a sign before a lone "r" is b's
            a = Fraction(m["a"] or 0) * (-1 if m["asign"] == "-" else 1)
            b = Fraction(m["b"] or 1) * (-1 if (m["bsign"] or m["asign"]) == "-" else 1) if m["r"] else Fraction(0)
        except (ValueError, ZeroDivisionError):  # a zero denominator, or digits past the int-string limit
            raise InvalidInput(f"bad quadratic literal {_shown(text)}") from None
        return a, b

    def random(self, rng, height: int = 9, nonzero: bool = False) -> FieldElement:
        """Seeded random element with numerators bounded by `height`, drawn
        as kernel.random_packed draws a coordinate."""
        while True:
            x = self.kernel._unpack(*self.kernel.random_packed(rng, 1, height))[0]
            if not nonzero or not x.is_zero():
                return x

    def to_json(self) -> dict:
        if self.kind == RATIONALS:
            return {"kind": "Q"}
        if self.kind == PRIME_FIELD:
            return {"kind": "Fp", "p": self.p}
        return {"kind": "QSqrt", "d": self.d}


def rationals() -> Field:
    return Field(RATIONALS)


def prime_field(p: int) -> Field:
    return Field(PRIME_FIELD, p=p)


def quad_ext(d: int) -> Field:
    return Field(QUAD_EXT, d=d)


def field_from_json(obj: dict) -> Field:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidInput(f"bad field descriptor: {_shown(obj)}")
    kind = obj["kind"]
    if kind == "Q":
        return rationals()
    if kind == "Fp":
        return prime_field(_int_from_json(obj.get("p"), "p"))
    if kind == "QSqrt":
        return quad_ext(_int_from_json(obj.get("d"), "d"))
    raise InvalidInput(f"unknown field kind {_shown(kind)}")


def lift_packed(base: Field, ext: Field, u):
    """The packed vector u of base read in ext: u itself when ext is base,
    and for the inclusion of Q in Q(sqrt d) each numerator n as the pair
    (n, 0).  Any other pair of fields raises UnsupportedExtension."""
    if ext == base:
        return u
    if base.kind != RATIONALS or ext.kind != QUAD_EXT:
        raise UnsupportedExtension(f"{base} -> {ext} is not a supported field extension")
    return [(n, 0) for n in u[0]], u[1]


def _int_from_json(value, name: str) -> int:
    """A JSON int (not a bool) or a decimal string; the error echoes the
    literal as _shown cuts it."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+", value):
        try:
            return int(value)
        except ValueError:  # more digits than int() reads
            pass
    raise InvalidInput(f"{name} must be an integer or a decimal string, got {_shown(value)}")


def _shown(value) -> str:
    """repr(value) for an error message: its first 40 characters and its
    length when it is longer, so that a long literal is not echoed."""
    shown = repr(value)
    return shown if len(shown) <= 40 else f"{shown[:40]}... ({len(shown)} characters)"


def scalar_literals(items, what: str) -> list:
    """A JSON array of scalars, each a string or an int (not a bool), as it
    stands: the constructor it is passed to coerces each literal once."""
    if not isinstance(items, list):
        raise InvalidInput(f"{what} must be a JSON array, got {_shown(items)}")
    bad = [v for v in items if isinstance(v, bool) or not isinstance(v, (str, int))]
    if bad:
        raise InvalidInput(f"{what}: a scalar must be a string or an integer, got {_shown(bad[0])}")
    return items


class FieldElement:
    """Immutable exact scalar; payload depends on the field kind.

    Q: Fraction.  Fp: int residue in [0, p).  QSqrt: (Fraction, Fraction)
    meaning a + b*sqrt(d).  Canonical by construction.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        _set_field(self, field)
        _set_value(self, value)

    def __setattr__(self, *a):
        raise AttributeError("FieldElement is immutable")

    # ------------------------------------------------------------- structure
    def _check(self, other) -> FieldElement:
        if not isinstance(other, FieldElement):
            return self.field.element(other)
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        return other

    def is_zero(self) -> bool:
        if self.field.kind == QUAD_EXT:
            return self.value == (0, 0)
        return self.value == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            try:
                return self.value == self.field.payload(other)
            except (InvalidInput, DivisionByZero):
                return NotImplemented
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.value == other.value and (self.field is other.field or self.field == other.field)

    def __hash__(self):
        return hash((self.field, self.value))

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other):
        other = self._check(other)
        k = self.field.kind
        if k == PRIME_FIELD:
            return FieldElement(self.field, (self.value + other.value) % self.field.p)
        if k == RATIONALS:
            return FieldElement(self.field, self.value + other.value)
        (a, b), (c, d) = self.value, other.value
        return FieldElement(self.field, (a + c, b + d))

    __radd__ = __add__

    def __neg__(self):
        k = self.field.kind
        if k == PRIME_FIELD:
            return FieldElement(self.field, (-self.value) % self.field.p)
        if k == RATIONALS:
            return FieldElement(self.field, -self.value)
        a, b = self.value
        return FieldElement(self.field, (-a, -b))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        other = self._check(other)
        k = self.field.kind
        if k == PRIME_FIELD:
            return FieldElement(self.field, (self.value * other.value) % self.field.p)
        if k == RATIONALS:
            return FieldElement(self.field, self.value * other.value)
        (a, b), (c, d) = self.value, other.value
        dd = self.field.d
        return FieldElement(self.field, (a * c + dd * b * d, a * d + b * c))

    __rmul__ = __mul__

    def inv(self) -> FieldElement:
        if self.is_zero():
            raise DivisionByZero(f"inverse of 0 in {self.field}")
        k = self.field.kind
        if k == PRIME_FIELD:
            return FieldElement(self.field, pow(self.value, -1, self.field.p))
        if k == RATIONALS:
            return FieldElement(self.field, 1 / self.value)
        a, b = self.value
        n = a * a - self.field.d * b * b  # field norm, nonzero since d squarefree
        return FieldElement(self.field, (a / n, -b / n))

    def __truediv__(self, other):
        return self * self._check(other).inv()

    # -------------------------------------------------------------- queries
    def square_root(self) -> FieldElement | None:
        """Exact square-root witness, or None when not a square."""
        f = self.field
        if f.kind == PRIME_FIELD:
            r = sqrt_mod_p(self.value, f.p)
            return None if r is None else FieldElement(f, r)
        if f.kind == RATIONALS:
            r = rational_sqrt(self.value)
            return None if r is None else FieldElement(f, r)
        a, b = self.value
        d = f.d
        if b == 0:
            r = rational_sqrt(a)
            if r is not None:
                return FieldElement(f, (r, Fraction(0)))
            r = rational_sqrt(a / d)
            if r is not None:
                return FieldElement(f, (Fraction(0), r))
            return None
        s = rational_sqrt(a * a - d * b * b)
        if s is None:
            return None
        for t in ((a + s) / 2, (a - s) / 2):
            if t == 0:
                continue
            u = rational_sqrt(t)
            if u is not None:
                v = b / (2 * u)
                w = FieldElement(f, (u, v))
                if w * w == self:
                    return w
        return None

    def real_signs(self) -> list[int]:
        """Sign of the element under each real embedding; exact."""
        f = self.field
        if f.kind == PRIME_FIELD:
            raise PrimeFieldHasNoRealPlaces(str(f))
        if self.is_zero():
            raise ZeroElement("real_signs of 0")
        if f.kind == RATIONALS:
            return [1 if self.value > 0 else -1]
        if f.d < 0:
            return []
        a, b = self.value
        return [_sign_a_plus_b_sqrt_d(a, b, f.d), _sign_a_plus_b_sqrt_d(a, -b, f.d)]

    # ---------------------------------------------------------------- output
    def __repr__(self):
        return f"<{self} in {self.field}>"

    def __str__(self):  # the literal that the reports write: the kernel's one writer
        kernel = self.field.kernel
        return kernel.packed_strings(*kernel.pack([self]))[0]


# the slot setters, bypassing the immutability guard in __setattr__
_set_field = FieldElement.field.__set__
_set_value = FieldElement.value.__set__


def _sign_a_plus_b_sqrt_d(a: Fraction, b: Fraction, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for d > 0, via integer comparisons."""
    if b == 0:
        return 1 if a > 0 else -1
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: compare a^2 with d b^2 (equality impossible, d not a square)
    bigger_a = a * a > d * b * b
    if a > 0:
        return 1 if bigger_a else -1
    return -1 if bigger_a else 1


_FRAC = r"\d+(?:/\d+)?"
_LIT = re.compile(
    rf"^(?P<asign>[+-])?(?P<a>{_FRAC}(?![\d/*r]))?"
    rf"(?:(?P<bsign>[+-])?(?:(?P<b>{_FRAC})\*)?(?P<r>r))?$"
)
# a space between two characters of a number or a fraction, as in "1 2" or "3 /4"
_SPLIT_NUMBER = re.compile(r"[\w./] +[\w./]")
_EXACT = (int, Fraction)  # the number types that Field.payload reads (a bool is not one)


# ---------------------------------------------------------------------------
# packed kernels (see the module docstring)
# ---------------------------------------------------------------------------

def _evaluator_source(rows, n_out, n_keys):
    """The source of `evaluate(c, x, y)`, the straight-line integer code of
    a template: rows[i] holds ((j, k), n) for out_k += c_n x_i y_j, and
    output k is returned as the sum over keys n of c_n*(x_i*(y_j + ...) +
    ...).  It reads n_keys constants and len(rows) coordinates of x and of
    y, all unpacked into the locals c<n>, x<i> and y<j>: the constants are
    arguments, so the source holds only names built from template indices."""
    sums = [{} for _ in range(n_out)]  # sums[k][n][i]: the j of the terms c_n x_i y_j of output k
    for i, row in enumerate(rows):
        for (j, k), n in row:
            sums[k].setdefault(n, {}).setdefault(i, []).append(f"y{j}")

    def total(parts):
        return parts[0] if len(parts) == 1 else f"({' + '.join(parts)})"

    def output(by_key):
        keyed = (f"c{n}*{total([f'x{i}*{total(ys)}' for i, ys in by_x.items()])}" for n, by_x in by_key.items())
        return " + ".join(keyed) or "0"

    unpack = (("c", n_keys), ("x", len(rows)), ("y", len(rows)))
    lines = ["def evaluate(c, x, y):", *(f"    {''.join(f'{v}{m}, ' for m in range(count))}= {v}" for v, count in unpack)]
    lines += ["    return [", *(f"        {output(by_key)}," for by_key in sums), "    ]"]
    return "\n".join(lines) + "\n"


@cache
def _evaluator(rows, n_out, n_keys):
    """_evaluator_source compiled once per process, shared by every field
    and algebra that compiles the template (the constants are arguments).
    The code runs with no builtins."""
    namespace = {"__builtins__": {}}
    exec(compile(_evaluator_source(rows, n_out, n_keys), "<bilinear template>", "exec"), namespace)
    return namespace["evaluate"]


class _Kernel:
    """Bilinear and linear maps compiled to integer constants over one
    common denominator.  A bilinear table is (evaluate, constants, den):
    evaluate(c, x, y) is the template's generated integer code, which
    returns out_k = sum of c_n x_i y_j over its terms, and the constants
    are the algebra's per-key values c_n (over Q(sqrt d) their two integer
    parts).  A linear table holds one sparse row of (j, constant...) per
    output coordinate.

    `packed_bilinear` and `packed_linear` take and return packed vectors
    (`pack` makes one, `random_packed` draws one, `_unpack` reads one), so
    maps chain without unpacking; `packed_eq` and `packed_is_zero` decide
    on them, and `packed_reduced` puts one over its least denominator.
    `monomial_table` compiles every template table, and
    `packed_table` a linear table of packed values, such as the outputs of
    a bilinear map; `table_matrix` unpacks a linear table.  `pack_sparse`
    packs only the nonzero entries of a vector, so unit vectors are born
    packed.  `_mul` and `_add` multiply and add packed scalars (the entries
    of a packed vector), `_dot` pairs two lists of them, `packed_times` and
    `packed_dot` two packed vectors (a diagonal Gram times x, and x^T G y),
    and `packed_over` packs a list of them over one nonzero one.
    `packed_strings` writes a packed vector's literals, the one writer of
    literals (FieldElement.__str__ calls it)."""

    def __init__(self, field: Field):
        self.field = field

    def pack_sparse(self, n: int, entries: dict):
        """pack() of the n-vector holding entries[i] at i and zero elsewhere."""
        values, den = self.pack(list(entries.values()))
        out = [self._ZERO] * n
        for i, v in zip(entries, values):
            out[i] = v
        return out, den

    def monomial_table(self, rows, n_out, keys, factors):
        """Compile out_k = sum of c_n x_i y_j over the entries ((j, k), n)
        of rows[i], where the key (sign, fs) = keys[n] names the monomial
        c_n = sign * prod(factors[f] for f in fs) (1 for empty fs): each
        is multiplied out on packed integers and reduced with one gcd.
        The table is (the template's evaluator, the constants, den)."""
        consts, den = self._monomials(keys, [self.pack([v]) for v in factors])
        return _evaluator(rows, n_out, len(keys)), consts, den

    @staticmethod
    def _reduce(nums):
        """The packed output coordinates (F_p reduces them mod p)."""
        return nums

    def linear_table(self, matrix):
        """Compile the sparse rows of a matrix of FieldElements."""
        entries = [(r, j, c) for r, row in enumerate(matrix) for j, c in enumerate(row) if not c.is_zero()]
        values, den = self.pack([c for _, _, c in entries])
        return self.packed_table(len(matrix), [(r, j, v) for (r, j, _), v in zip(entries, values)], den)

    def packed_table(self, n_rows, entries, den):
        """The linear table whose row r holds, for each entry (r, j, v) with
        v nonzero, the packed value v over den at column j."""
        rows = [[] for _ in range(n_rows)]
        for r, j, v in entries:
            c = self._const(v)
            if any(c):
                rows[r].append((j,) + c)
        return rows, den

    def common_columns(self, cols):
        """Packed columns of one length brought to the lcm of their
        denominators: (the values of each column, the lcm)."""
        den = lcm(*[d for _, d in cols])
        return [vals if d == den else [self._times(v, den // d) for v in vals] for vals, d in cols], den

    def packed_mix(self, base, xp):
        """The packed column sum_j x_j cols[j], for base = (cols, den) from
        common_columns and a packed x with one entry per column."""
        cols, den = base
        x, xd = xp
        return self._reduce([self._dot(x, row) for row in zip(*cols)]), den * xd

    def packed_dot(self, u, v):
        """sum_i u_i v_i of two packed vectors, as a packed 1-vector."""
        return self._reduce([self._dot(u[0], v[0])]), u[1] * v[1]

    def packed_times(self, u, v):
        """The packed vector of the products u_i v_i of two packed vectors."""
        return self._reduce(list(map(self._mul, u[0], v[0]))), u[1] * v[1]

    def table_matrix(self, table, n_cols):
        """The FieldElement matrix of a linear table (zero off its entries)."""
        rows, den = table  # an entry is (j, v) over Q and F_p, (j, a, b, d b) over Q(sqrt d)
        spots = [(r, t[0], t[1] if len(t) == 2 else t[1:3]) for r, row in enumerate(rows) for t in row]
        out = [[self.field.zero()] * n_cols for _ in rows]
        for (r, j, _), e in zip(spots, self._unpack([v for _, _, v in spots], den)):
            out[r][j] = e
        return out


class _IntegerKernel(_Kernel):
    """Q and F_p: a packed vector is (ints, den); subclasses convert."""

    _ZERO, _ONE = 0, 1

    @staticmethod
    def _const(v):  # a packed value as the constant of a compiled term
        return (v,)

    @staticmethod
    def _times(v, m):
        return v * m

    _mul, _add = staticmethod(operator.mul), staticmethod(operator.add)

    @staticmethod
    def _dot(u, v):
        return sum(map(operator.mul, u, v))

    def packed_bilinear(self, table, xp, yp):
        evaluate, c, den = table
        return self._reduce(evaluate(c, xp[0], yp[0])), den * xp[1] * yp[1]

    def packed_linear(self, table, xp):
        rows, den = table
        x, xd = xp
        out = []
        for row in rows:  # a plain loop: a generator per row costs more than the few terms it sums
            s = 0
            for j, c in row:
                s += c * x[j]
            out.append(s)
        return self._reduce(out), den * xd

    @staticmethod
    def packed_eq(u, v) -> bool:
        """Exact equality of two packed vectors (positive denominators)."""
        (a, ad), (b, bd) = u, v
        return all(s * bd == t * ad for s, t in zip(a, b))

    @staticmethod
    def packed_is_zero(u) -> bool:
        return not any(u[0])

    @staticmethod
    def packed_reduced(u):  # u over the least common denominator of its entries: canonical
        g = gcd(u[1], *u[0])
        return [n // g for n in u[0]], u[1] // g

    def _monomials(self, keys, factors):
        """monomial_table's constants: n / d per key, reduced, over the lcm of the d."""
        out = []
        for sign, fs in keys:
            n = d = 1
            for f in fs:
                (m,), e = factors[f]
                n, d = n * m, d * e
            g = gcd(n, d)
            out.append((sign * n // g, d // g))
        den = lcm(*[d for _, d in out])
        return self._reduce([n * (den // d) for n, d in out]), den


class _RationalKernel(_IntegerKernel):
    def pack(self, elems):
        values = list(map(self.field.payload, elems))
        den = lcm(*[v.denominator for v in values])
        return [v.numerator * (den // v.denominator) for v in values], den

    def _unpack(self, nums, den):
        f = self.field
        return tuple(FieldElement(f, Fraction(n, den)) for n in nums)

    @staticmethod
    def packed_strings(nums, den):  # str(Fraction(n, den)), reduced by one gcd
        return [str(n // g) if (g := gcd(n, den)) == den else f"{n // g}/{den // g}" for n in nums]

    @staticmethod
    def packed_over(nums, s):
        return (nums, s) if s > 0 else ([-n for n in nums], -s)

    @staticmethod
    def random_packed(rng, n, height):
        """n coordinates drawn as Field.random draws them: a numerator in
        [-height, height] over a denominator in [1, 3], in that order."""
        fracs = [(rng.randint(-height, height), rng.randint(1, 3)) for _ in range(n)]
        den = lcm(*[d for _, d in fracs])
        return [a * (den // d) for a, d in fracs], den


class _PrimeKernel(_IntegerKernel):
    """F_p: packed outputs are residues over the denominator 1."""

    def pack(self, elems):
        return list(map(self.field.payload, elems)), 1

    def _reduce(self, nums):
        p = self.field.p
        return [n % p for n in nums]

    def _unpack(self, nums, den):
        f = self.field
        return tuple(FieldElement(f, n) for n in nums)

    @staticmethod
    def packed_strings(nums, den):  # the residues
        return [str(n) for n in nums]

    def packed_over(self, nums, s):
        inv = pow(s, -1, self.field.p)
        return self._reduce([n * inv for n in nums]), 1

    def random_packed(self, rng, n, height):
        """n uniform residues, drawn as Field.random draws them."""
        return [rng.randrange(self.field.p) for _ in range(n)], 1


class _QuadKernel(_Kernel):
    """Q(sqrt d): a packed vector is ([(a, b), ...], den)."""

    _ZERO, _ONE = (0, 0), (1, 0)

    def pack(self, elems):
        values = list(map(self.field.payload, elems))
        den = lcm(*[a.denominator for a, _ in values], *[b.denominator for _, b in values])
        return [
            (a.numerator * (den // a.denominator), b.numerator * (den // b.denominator))
            for a, b in values
        ], den

    def _unpack(self, pairs, den):
        f = self.field
        return tuple(FieldElement(f, (Fraction(a, den), Fraction(b, den))) for a, b in pairs)

    @staticmethod
    def packed_strings(pairs, den):
        """The literal of each a + b r, r = sqrt(d): "a", "b*r" or "a+b*r",
        with a and |b| written as over Q."""
        parts = _RationalKernel.packed_strings([x for a, b in pairs for x in (a, abs(b))], den)
        return [
            f"{a_str if a else ''}{'-' if b < 0 else '+' if a else ''}{b_str}*r" if b else a_str
            for (a, b), a_str, b_str in zip(pairs, parts[::2], parts[1::2])
        ]

    def random_packed(self, rng, n, height):  # a and then b of each coordinate, drawn as over Q
        nums, den = _RationalKernel.random_packed(rng, 2 * n, height)
        return list(zip(nums[::2], nums[1::2])), den

    def _const(self, v):  # (a, b, d b): the kernel multiplies by d b as well
        a, b = v
        return (a, b, self.field.d * b)

    @staticmethod
    def _times(v, m):
        return v[0] * m, v[1] * m

    def _mul(self, u, v):
        (a, b), (c, e) = u, v
        return a * c + self.field.d * b * e, a * e + b * c

    @staticmethod
    def _add(u, v):
        return u[0] + v[0], u[1] + v[1]

    def _dot(self, u, v):
        d, a, b = self.field.d, 0, 0
        for (ua, ub), (va, vb) in zip(u, v):
            a += ua * va + d * ub * vb
            b += ua * vb + ub * va
        return a, b

    def packed_over(self, nums, s):  # times the conjugate of s, over its norm
        norm = self._mul(s, (s[0], -s[1]))[0]
        conj = (s[0], -s[1]) if norm > 0 else (-s[0], s[1])
        return [self._mul(n, conj) for n in nums], abs(norm)

    def packed_bilinear(self, table, xp, yp):
        """The integer evaluator run three times per nonzero part of the
        constants (Karatsuba): with P, Q and S its values on (xa, ya),
        (xb, yb) and (xa + xb, ya + yb), the part's value on x and y is
        P + d Q + (S - P - Q) sqrt(d), and the part cb is then multiplied
        by sqrt(d)."""
        evaluate, (ca, cb), den = table
        (x, xd), (y, yd) = xp, yp
        d = self.field.d
        (xa, xb), (ya, yb) = zip(*x), zip(*y)
        xs, ys = tuple(map(operator.add, xa, xb)), tuple(map(operator.add, ya, yb))
        p, q, s = evaluate(ca, xa, ya), evaluate(ca, xb, yb), evaluate(ca, xs, ys)
        out_a = [u + d * v for u, v in zip(p, q)]
        out_b = [w - u - v for u, v, w in zip(p, q, s)]
        if any(cb):  # sqrt(d) (A + B sqrt(d)) = d B + A sqrt(d)
            p, q, s = evaluate(cb, xa, ya), evaluate(cb, xb, yb), evaluate(cb, xs, ys)
            out_a = [a + d * (w - u - v) for a, u, v, w in zip(out_a, p, q, s)]
            out_b = [b + u + d * v for b, u, v in zip(out_b, p, q)]
        return list(zip(out_a, out_b)), den * xd * yd

    def packed_linear(self, table, xp):
        rows, den = table
        x, xd = xp
        out = []
        for row in rows:
            a = b = 0
            for j, ca, cb, dcb in row:
                xa, xb = x[j]
                a += ca * xa + dcb * xb
                b += ca * xb + cb * xa
            out.append((a, b))
        return out, den * xd

    @staticmethod
    def packed_eq(u, v) -> bool:
        """Exact equality of two packed vectors (positive denominators)."""
        (p, pd), (q, qd) = u, v
        return all(a * qd == c * pd and b * qd == e * pd for (a, b), (c, e) in zip(p, q))

    @staticmethod
    def packed_is_zero(u) -> bool:
        return not any(a or b for a, b in u[0])

    @staticmethod
    def packed_reduced(u):
        g = gcd(u[1], *[x for pair in u[0] for x in pair])
        return [(a // g, b // g) for a, b in u[0]], u[1] // g

    def _monomials(self, keys, factors):
        """As over Q, on (a + b sqrt d) / e, reduced by gcd(a, b, e): the
        constants are held as their two integer parts (ca, cb)."""
        d, out = self.field.d, []
        for sign, fs in keys:
            a, b, e = 1, 0, 1
            for f in fs:
                ((u, v),), w = factors[f]
                a, b, e = a * u + d * b * v, a * v + b * u, e * w
            g = gcd(a, b, e)
            out.append((sign * a // g, sign * b // g, e // g))
        den = lcm(*[e for _, _, e in out])
        return ([a * (den // e) for a, _, e in out], [b * (den // e) for _, b, e in out]), den


_KERNELS = {RATIONALS: _RationalKernel, PRIME_FIELD: _PrimeKernel, QUAD_EXT: _QuadKernel}


class PackedElement:
    """An element of an algebra over a field (the algebra has `field` and
    `dim`), as the packed vector of its dim coordinates that the field's
    kernel consumes, so products chain on integers and is_zero and ==
    decide on them.  An element built from coordinates packs them; one born
    packed (a product, or a slice of one) unpacks them on first read.
    Subclasses add the algebra's structure; _KIND names their algebras."""

    __slots__ = ("algebra", "packed", "_coords")
    _KIND = "algebras"

    def __init__(self, algebra, coords=None, packed=None):
        if packed is None:
            if len(coords) != algebra.dim:
                raise InvalidInput(f"need {algebra.dim} coordinates, got {len(coords)}")
            coords = tuple(coords)
            packed = algebra.field.kernel.pack(coords)
        self.algebra, self.packed, self._coords = algebra, packed, coords

    @property
    def coords(self) -> tuple[FieldElement, ...]:
        if self._coords is None:
            self._coords = self.algebra.field.kernel._unpack(*self.packed)
        return self._coords

    def _check(self, other):
        if type(other) is not type(self) or other.algebra != self.algebra:
            raise AlgebraMismatch(f"elements from different {self._KIND}")
        return other

    def is_zero(self) -> bool:
        return self.algebra.field.kernel.packed_is_zero(self.packed)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.algebra == self.algebra
            and self.algebra.field.kernel.packed_eq(self.packed, other.packed)
        )

    def __hash__(self):
        return hash((self.algebra, self.coords))

    def __add__(self, other):
        other = self._check(other)
        return type(self)(self.algebra, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        other = self._check(other)
        return type(self)(self.algebra, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return type(self)(self.algebra, [-a for a in self.coords])

    def scale(self, factor):
        factor = self.algebra.field.element(factor)
        return type(self)(self.algebra, [factor * c for c in self.coords])
