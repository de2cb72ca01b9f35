"""Quadratic-form engine: diagonalization, local invariants, isotropy,
Witt decomposition and equivalence over Q, F_p and Q(sqrt(d)).

All forms are diagonal <a1,...,an> with nonzero coefficients.  Decisions are
exact and every verdict carries a certificate: an explicit witness vector for
isotropy, or the invariant/place data that rules a witness out.  Over
Q(sqrt(d)) only the dim >= 5 real-place fragment is decided; everything else
raises UnsupportedCase rather than guessing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import linalg
from .errors import (
    DegenerateForm,
    FieldMismatch,
    InternalCheckFailed,
    InvalidInput,
    SearchSpaceTooLarge,
    UnsupportedCase,
    UnsupportedField,
)
from .fields import (
    PRIME_FIELD,
    QUAD_EXT,
    RATIONALS,
    Field,
    FieldElement,
    legendre,
    prime_factors,
    rational_sqrt,
    sqrt_mod_p,
    squarefree_part,
)

INF = "inf"

METHOD_WITNESS = "explicit_witness"
METHOD_LOCAL = "local_invariants"
METHOD_REAL = "real_places"
METHOD_COUNT = "finite_field_count"


class QuadraticForm:
    """Diagonal quadratic form over one of the supported fields."""

    __slots__ = ("field", "coeffs", "label")

    def __init__(self, field: Field, coeffs, label: str | None = None):
        coeffs = tuple(field.element(c) for c in coeffs)
        if any(c.is_zero() for c in coeffs):
            raise InvalidInput("quadratic form coefficients must be nonzero")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "label", label)

    def __setattr__(self, *a):
        raise AttributeError("QuadraticForm is immutable")

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, QuadraticForm)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        body = ",".join(str(c) for c in self.coeffs)
        tag = f" {self.label!r}" if self.label else ""
        return f"<{body}> over {self.field}{tag}"

    def evaluate(self, vec) -> FieldElement:
        vec = [self.field.element(v) for v in vec]
        if len(vec) != self.dim:
            raise InvalidInput(f"vector length {len(vec)} != dim {self.dim}")
        acc = self.field.zero()
        for a, x in zip(self.coeffs, vec):
            acc = acc + a * x * x
        return acc

    def bilinear(self, u, v) -> FieldElement:
        """Polar form B with B(x,x) = q(x)."""
        u = [self.field.element(x) for x in u]
        v = [self.field.element(x) for x in v]
        acc = self.field.zero()
        for a, x, y in zip(self.coeffs, u, v):
            acc = acc + a * x * y
        return acc

    def gram(self) -> list[list[FieldElement]]:
        z = self.field.zero()
        n = self.dim
        return [[self.coeffs[i] if i == j else z for j in range(n)] for i in range(n)]

    def det(self) -> FieldElement:
        acc = self.field.one()
        for c in self.coeffs:
            acc = acc * c
        return acc

    def det_squareclass(self):
        """Canonical representative of the determinant square class."""
        d = self.det()
        k = self.field.kind
        if k == RATIONALS:
            return squarefree_part(d.value.numerator * d.value.denominator)
        if k == PRIME_FIELD:
            if legendre(d.value, self.field.p) == 1:
                return 1
            return _least_nonresidue(self.field.p)
        return d  # QSqrt: raw element, compared via is_square of ratios

    def signature(self) -> tuple[int, int]:
        """(positive, negative) coefficient counts over R; rationals only."""
        if self.field.kind != RATIONALS:
            raise UnsupportedField("signature() is the rationals entry point")
        pos = sum(1 for c in self.coeffs if c.value > 0)
        return pos, self.dim - pos

    def signatures_all_places(self) -> list[tuple[int, int]]:
        """Signatures at each real embedding (1 for Q, 2 or 0 for Q(sqrt d))."""
        n_places = self.field.real_place_count()
        sigs = []
        for place in range(n_places):
            pos = sum(1 for c in self.coeffs if c.real_signs()[place] > 0)
            sigs.append((pos, self.dim - pos))
        return sigs

    def scale(self, factor) -> QuadraticForm:
        factor = self.field.element(factor)
        return QuadraticForm(self.field, [factor * c for c in self.coeffs])

    def neg(self) -> QuadraticForm:
        return QuadraticForm(self.field, [-c for c in self.coeffs])

    def direct_sum(self, other: QuadraticForm) -> QuadraticForm:
        if other.field != self.field:
            raise FieldMismatch("direct sum over different fields")
        return QuadraticForm(self.field, self.coeffs + other.coeffs)

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "coeffs": [str(c) for c in self.coeffs],
            **({"label": self.label} if self.label else {}),
        }


def form_from_json(obj: dict) -> QuadraticForm:
    from .fields import field_from_json

    if not isinstance(obj, dict) or "coeffs" not in obj or "field" not in obj:
        raise InvalidInput(f"bad form descriptor: {obj!r}")
    f = field_from_json(obj["field"])
    return QuadraticForm(f, [f.element(c) for c in obj["coeffs"]], obj.get("label"))


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix input for diagonalization."""

    field: Field
    entries: tuple

    def __init__(self, field: Field, entries):
        rows = tuple(tuple(field.element(x) for x in row) for row in entries)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise InvalidInput("Gram matrix must be square")
        if not linalg.is_symmetric([list(r) for r in rows]):
            raise InvalidInput("Gram matrix must be symmetric")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "entries", rows)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def as_lists(self):
        return [list(r) for r in self.entries]


@dataclass
class IsotropyResult:
    """Verdict with certificate for one isotropy decision."""

    isotropic: bool
    method: str
    witness: tuple | None = None
    detail: dict = dc_field(default_factory=dict)

    def __bool__(self):
        return self.isotropic


@dataclass
class WittDecomposition:
    """q ~ index * <1,-1>  |  anisotropic_part, with the basis recorded.

    `basis` (when present) has columns in original coordinates with
    basis^T G basis = diag(1,-1,...,1,-1, anisotropic coefficients), exactly.
    """

    witt_index: int
    anisotropic_part: QuadraticForm
    method: str
    basis: list | None = None
    anisotropy_certificate: IsotropyResult | None = None

    def to_json(self) -> dict:
        out = {
            "index": self.witt_index,
            "anisotropic": [str(c) for c in self.anisotropic_part.coeffs],
            "method": self.method,
        }
        if self.basis is not None:
            out["witness"] = [[str(x) for x in col] for col in _columns(self.basis)]
        return out


def _columns(matrix):
    return [list(col) for col in zip(*matrix)]


def _least_nonresidue(p: int) -> int:
    n = 2
    while legendre(n, p) != -1:
        n += 1
    return n


# --------------------------------------------------------------------------
# diagonalization
# --------------------------------------------------------------------------

def diagonalize(gram: GramMatrix):
    """Symmetric Gauss congruence: returns (QuadraticForm, P) with
    P^T G P diagonal equal to the form's coefficients.  Raises DegenerateForm
    (with the radical's basis) when the input is singular."""
    g = gram.as_lists()
    n = gram.dim
    f = gram.field
    if n == 0:
        return QuadraticForm(f, []), []
    p = linalg.identity(f, n)

    def add_col(dst, src, factor):
        # col_dst += factor * col_src, symmetrically, tracking P
        for r in range(n):
            g[r][dst] = g[r][dst] + factor * g[r][src]
        for c in range(n):
            g[dst][c] = g[dst][c] + factor * g[src][c]
        for r in range(n):
            p[r][dst] = p[r][dst] + factor * p[r][src]

    def swap_cols(i, j):
        for r in range(n):
            g[r][i], g[r][j] = g[r][j], g[r][i]
        g[i], g[j] = g[j], g[i]
        for r in range(n):
            p[r][i], p[r][j] = p[r][j], p[r][i]

    one = f.one()
    for k in range(n):
        if g[k][k].is_zero():
            j = next((j for j in range(k + 1, n) if not g[j][j].is_zero()), None)
            if j is not None:
                swap_cols(k, j)
            else:
                j = next((j for j in range(k + 1, n) if not g[k][j].is_zero()), None)
                if j is None:
                    continue  # row k lives in the radical
                add_col(k, j, one)
        pivot_inv = g[k][k].inv()
        for j in range(k + 1, n):
            if not g[k][j].is_zero():
                add_col(j, k, -(g[k][j] * pivot_inv))
    diag = [g[i][i] for i in range(n)]
    radical = [i for i, d in enumerate(diag) if d.is_zero()]
    if radical:
        rad_basis = [[p[r][i] for r in range(n)] for i in radical]
        raise DegenerateForm(
            f"Gram matrix has rank {n - len(radical)} < {n}", radical=rad_basis
        )
    form = QuadraticForm(f, diag)
    _assert_congruent(gram.as_lists(), p, list(form.coeffs))
    return form, p


def _assert_congruent(g, p, diag):
    got = linalg.mat_mul(linalg.mat_mul(linalg.transpose(p), g), p)
    n = len(g)
    for i in range(n):
        for j in range(n):
            want = diag[i] if i == j else None
            if i == j:
                if got[i][j] != want:
                    raise InternalCheckFailed("congruence check failed on diagonal")
            elif not got[i][j].is_zero():
                raise InternalCheckFailed("congruence produced off-diagonal residue")


# --------------------------------------------------------------------------
# Hilbert symbols and local invariants over Q
# --------------------------------------------------------------------------

def _as_int_squareclass(x: FieldElement) -> int:
    """Nonzero rational -> integer in the same square class."""
    v = x.value
    return v.numerator * v.denominator


def _val_unit(n: int, p: int) -> tuple[int, int]:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def hilbert_int(a: int, b: int, place) -> int:
    """Hilbert symbol (a,b) at a rational place; a, b nonzero integers."""
    if a == 0 or b == 0:
        raise InvalidInput("hilbert symbol needs nonzero entries")
    if place == INF:
        return -1 if (a < 0 and b < 0) else 1
    p = int(place)
    from .fields import is_prime

    if not is_prime(p):
        raise InvalidInput(f"place must be a prime or 'inf', got {place!r}")
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
        s *= legendre(u, p)
    if alpha % 2:
        s *= legendre(v, p)
    return s


def hilbert_symbol(a: FieldElement, b: FieldElement, place) -> int:
    """(a,b)_place for nonzero rationals; place is an odd prime, 2, or "inf"."""
    if a.field.kind != RATIONALS or b.field.kind != RATIONALS:
        raise UnsupportedField("Hilbert symbols are implemented over Q only")
    if a.is_zero() or b.is_zero():
        raise InvalidInput("hilbert symbol needs nonzero entries")
    return hilbert_int(_as_int_squareclass(a), _as_int_squareclass(b), place)


def hasse_invariant(q: QuadraticForm, place) -> int:
    """prod_{i<j} (a_i, a_j)_place  (the i<j convention, fixed)."""
    if q.field.kind != RATIONALS:
        raise UnsupportedField("Hasse invariants are implemented over Q only")
    ints = [_as_int_squareclass(c) for c in q.coeffs]
    s = 1
    for i in range(len(ints)):
        for j in range(i + 1, len(ints)):
            s *= hilbert_int(ints[i], ints[j], place)
    return s


def _is_square_qp(x: int, place) -> bool:
    """Is the nonzero integer x a square in Q_place?"""
    if place == INF:
        return x > 0
    p = int(place)
    v, u = _val_unit(x, p)
    if v % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return legendre(u, p) == 1


def _bad_primes(*forms: QuadraticForm) -> list[int]:
    primes = {2}
    for q in forms:
        for c in q.coeffs:
            primes.update(prime_factors(c.value.numerator))
            primes.update(prime_factors(c.value.denominator))
    return sorted(primes)


def _local_isotropic(n: int, det_int: int, eps: int, place) -> bool:
    """Isotropy of a rank-n Q_place form with the given det class and Hasse
    invariant, at a finite place."""
    if n <= 1:
        return False
    if n == 2:
        return _is_square_qp(-det_int, place)
    if n == 3:
        return hilbert_int(-1, -det_int, place) == eps
    if n == 4:
        return not (_is_square_qp(det_int, place) and eps == -hilbert_int(-1, -1, place))
    return True


def witt_index_by_invariants(q: QuadraticForm) -> int:
    """Witt index over Q from signatures and local invariants only
    (min over all places of the local Witt indices)."""
    if q.field.kind != RATIONALS:
        raise UnsupportedField("invariant-based Witt index is a Q-only route")
    n = q.dim
    pos, neg = q.signature()
    best = min(pos, neg)
    det_int = squarefree_part(_as_int_squareclass(q.det()))
    for p in _bad_primes(q):
        m, d, e = n, det_int, hasse_invariant(q, p)
        count = 0
        while m > 0 and _local_isotropic(m, d, e, p):
            m -= 2
            d = squarefree_part(-d)
            e *= hilbert_int(-1, d, p)
            count += 1
        best = min(best, count)
        if best == 0:
            return 0
    # generic odd primes not dividing any coefficient
    if n % 2:
        best = min(best, (n - 1) // 2)
    else:
        top = ((-1) ** (n // 2)) * det_int
        best = min(best, n // 2 if rational_sqrt(Fraction(top)) is not None else (n - 2) // 2)
    return best


# --------------------------------------------------------------------------
# witness searches
# --------------------------------------------------------------------------

_ENUM_CAP = 4_000_000


def _integerize(coeffs: list[Fraction]) -> list[int]:
    """Scale rational coefficients to integers (same zero set)."""
    lcm = math.lcm(*(c.denominator for c in coeffs))
    return [int(c * lcm) for c in coeffs]


def _search_integer(coeffs: list[int], bound: int):
    """Meet-in-the-middle over 0..bound per coordinate (signs never matter
    for a diagonal form).  Returns a nonzero integer witness or None."""
    n = len(coeffs)
    h1 = list(range((n + 1) // 2))
    h2 = list(range((n + 1) // 2, n))
    if (bound + 1) ** len(h1) > _ENUM_CAP:
        raise SearchSpaceTooLarge(f"bound {bound} with dim {n}")
    sq = [x * x for x in range(bound + 1)]
    table: dict[int, tuple] = {}
    for xs in itertools.product(range(bound + 1), repeat=len(h1)):
        val = 0
        for i, x in zip(h1, xs):
            val += coeffs[i] * sq[x]
        if val not in table:
            table[val] = xs
    if not h2:
        hit = table.get(0)
        if hit and any(hit):
            return list(hit)
        return None
    for ys in itertools.product(range(bound + 1), repeat=len(h2)):
        val = 0
        for i, y in zip(h2, ys):
            val += coeffs[i] * sq[y]
        hit = table.get(-val)
        if hit is None:
            continue
        if not any(hit) and not any(ys):
            continue
        return list(hit) + list(ys)
    return None


def _qsqrt_scalars(f: Field, bound: int, nonzero: bool):
    out = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if nonzero and a == 0 and b == 0:
                continue
            out.append(f.element((Fraction(a), Fraction(b))))
    return out


def _search_qsqrt(q: QuadraticForm, bound: int):
    """Bounded witness search over Q(sqrt d).

    Stages: the rational restriction (coefficients of base-changed forms are
    rational, so integer witnesses are common), then vectors supported on two
    coordinates with small a + b*sqrt(d) entries, then a small dense
    meet-in-the-middle sweep.
    """
    f = q.field
    n = q.dim
    zero = f.zero()
    if all(c.value[1] == 0 for c in q.coeffs):
        ints = _integerize([Fraction(c.value[0]) for c in q.coeffs])
        vec = _search_integer(ints, max(bound, 8))
        if vec is not None:
            return [f.element(v) for v in vec]
    scalars = _qsqrt_scalars(f, min(bound, 2), nonzero=True)
    for i in range(n):
        for j in range(i + 1, n):
            for x in scalars:
                lead = q.coeffs[i] * x * x
                for y in scalars:
                    if (lead + q.coeffs[j] * y * y).is_zero():
                        vec = [zero] * n
                        vec[i], vec[j] = x, y
                        return vec
    dense = _qsqrt_scalars(f, 1, nonzero=False)
    h1 = list(range((n + 1) // 2))
    h2 = list(range((n + 1) // 2, n))
    if len(dense) ** len(h1) > 300_000:
        raise SearchSpaceTooLarge(f"dim {n} over {f}")
    table: dict = {}
    for xs in itertools.product(dense, repeat=len(h1)):
        acc = zero
        for i, x in zip(h1, xs):
            acc = acc + q.coeffs[i] * x * x
        if acc.value not in table:
            table[acc.value] = xs
    for ys in itertools.product(dense, repeat=len(h2)):
        acc = zero
        for i, y in zip(h2, ys):
            acc = acc + q.coeffs[i] * y * y
        hit = table.get((-acc).value)
        if hit is None:
            continue
        vec = list(hit) + list(ys)
        if all(v.is_zero() for v in vec):
            continue
        return vec
    return None


def _fp_witness(q: QuadraticForm):
    """Deterministic nonzero isotropic vector over F_p, or None.

    dim >= 3 always succeeds (fix tail = (1,0,..), solve the binary equation
    a1 x^2 + a2 y^2 = m by sweeping x); dim <= 2 is an exact square test.
    """
    p = q.field.p
    f = q.field
    a = [c.value for c in q.coeffs]
    n = q.dim
    if n == 0:
        return None
    if n == 1:
        return None
    if n == 2:
        s = (-a[1] * pow(a[0], -1, p)) % p
        r = sqrt_mod_p(s, p)
        if r is None:
            return None
        return (f.element(r), f.one())
    m = (-a[2]) % p
    for x in range(p):
        rhs = (m - a[0] * x * x) % p
        y = sqrt_mod_p(rhs * pow(a[1], -1, p) % p, p)
        if y is not None:
            vec = [f.element(x), f.element(y), f.one()] + [f.zero()] * (n - 3)
            return tuple(vec)
    raise InternalCheckFailed("binary F_p equation had no solution")


def isotropic_vector_search(q: QuadraticForm, height_bound: int):
    """Bounded witness search; None is NOT an anisotropy proof over Q."""
    k = q.field.kind
    if k == RATIONALS:
        ints = _integerize([c.value for c in q.coeffs])
        vec = _search_integer(ints, height_bound)
        if vec is None:
            return None
        return tuple(q.field.element(v) for v in vec)
    if k == PRIME_FIELD:
        p, n = q.field.p, q.dim
        if p**n <= 200_000:
            f = q.field
            for xs in itertools.product(range(p), repeat=n):
                if not any(xs):
                    continue
                if sum(c.value * x * x for c, x in zip(q.coeffs, xs)) % p == 0:
                    return tuple(f.element(x) for x in xs)
            return None
        return _fp_witness(q)
    raise UnsupportedField("bounded search is for Q and F_p forms")


def _escalating_search(q: QuadraticForm, cap: int = 1024):
    if q.field.kind == QUAD_EXT:
        try:
            vec = _search_qsqrt(q, 2)
        except SearchSpaceTooLarge:
            return None
        return tuple(vec) if vec is not None else None
    bound = 1
    while bound <= cap:
        try:
            vec = isotropic_vector_search(q, bound)
        except SearchSpaceTooLarge:
            return None
        if vec is not None:
            return tuple(vec)
        bound *= 2
    return None


# --------------------------------------------------------------------------
# isotropy decisions
# --------------------------------------------------------------------------

def is_isotropic(
    q: QuadraticForm, want_witness: bool = True, search_cap: int = 1024
) -> IsotropyResult:
    """Exact isotropy decision with certificate.

    F_p: Chevalley for dim >= 3, square test for dim 2.
    Q: Hasse-Minkowski through Hilbert symbols; Meyer for dim >= 5.
    Q(sqrt d): the dim >= 5 real-place rule; anything else raises.

    search_cap bounds the escalating witness search; the decision itself
    never depends on it.
    """
    k = q.field.kind
    n = q.dim
    if n == 0:
        return IsotropyResult(False, METHOD_LOCAL, detail={"reason": "empty form"})
    if k == PRIME_FIELD:
        return _is_isotropic_fp(q, want_witness)
    if k == RATIONALS:
        return _is_isotropic_q(q, want_witness, search_cap)
    return _is_isotropic_qsqrt(q, want_witness)


def _is_isotropic_fp(q: QuadraticForm, want_witness: bool) -> IsotropyResult:
    n, p = q.dim, q.field.p
    if n == 1:
        return IsotropyResult(False, METHOD_COUNT, detail={"reason": "dim 1 regular"})
    if n == 2:
        s = -q.coeffs[0] * q.coeffs[1]
        root = s.square_root()
        if root is None:
            return IsotropyResult(
                False, METHOD_COUNT,
                detail={"reason": "-a1*a2 is a nonresidue", "p": p},
            )
        w = _fp_witness(q)
        return IsotropyResult(True, METHOD_WITNESS, witness=w)
    w = _fp_witness(q) if want_witness else None
    return IsotropyResult(
        True, METHOD_WITNESS if w else METHOD_COUNT, witness=w,
        detail={"reason": "dim >= 3 over a finite field"},
    )


def _is_isotropic_q(q: QuadraticForm, want_witness: bool, search_cap: int = 1024) -> IsotropyResult:
    n = q.dim
    if n == 1:
        return IsotropyResult(False, METHOD_LOCAL, detail={"reason": "dim 1 regular"})
    if n == 2:
        s = -q.coeffs[0] * q.coeffs[1]
        root = s.square_root()
        if root is None:
            return IsotropyResult(
                False, METHOD_LOCAL, detail={"reason": "-det is not a square"}
            )
        # q(x, 1) = a1 x^2 + a2 = 0  <=>  x^2 = -a2/a1
        x = (-q.coeffs[1] / q.coeffs[0]).square_root()
        return IsotropyResult(True, METHOD_WITNESS, witness=(x, q.field.one()))
    pos, neg = q.signature()
    if pos == 0 or neg == 0:
        return IsotropyResult(
            False, METHOD_REAL, detail={"signature": [pos, neg], "place": INF}
        )
    if n >= 5:
        wit = _escalating_search(q, search_cap) if want_witness else None
        return IsotropyResult(
            True, METHOD_WITNESS if wit else METHOD_LOCAL, witness=wit,
            detail={"reason": "indefinite of dim >= 5 (Meyer)"},
        )
    det_int = squarefree_part(_as_int_squareclass(q.det()))
    for p in _bad_primes(q):
        eps = hasse_invariant(q, p)
        if not _local_isotropic(n, det_int, eps, p):
            return IsotropyResult(
                False, METHOD_LOCAL,
                detail={"place": p, "det_squareclass": det_int, "hasse": eps},
            )
    wit = _escalating_search(q, search_cap) if want_witness else None
    return IsotropyResult(
        True, METHOD_WITNESS if wit else METHOD_LOCAL, witness=wit,
        detail={"reason": "isotropic at every place (Hasse-Minkowski)"},
    )


def _is_isotropic_qsqrt(q: QuadraticForm, want_witness: bool) -> IsotropyResult:
    n = q.dim
    if n < 5:
        raise UnsupportedCase(
            f"isotropy over {q.field} is only decided for dim >= 5 (got dim {n})"
        )
    d = q.field.d
    if d < 0:
        wit = _escalating_search(q) if want_witness else None
        return IsotropyResult(
            True, METHOD_WITNESS if wit else METHOD_REAL, witness=wit,
            detail={"reason": "no real places, dim >= 5"},
        )
    sigs = q.signatures_all_places()
    for place, (pos, neg) in enumerate(sigs):
        if pos == 0 or neg == 0:
            return IsotropyResult(
                False, METHOD_REAL,
                detail={"real_place": place, "signature": [pos, neg]},
            )
    wit = _escalating_search(q) if want_witness else None
    return IsotropyResult(
        True, METHOD_WITNESS if wit else METHOD_REAL, witness=wit,
        detail={"reason": "indefinite at every real place, dim >= 5"},
    )


# --------------------------------------------------------------------------
# Witt decomposition
# --------------------------------------------------------------------------

def _split_step(coeffs, witness):
    """One hyperbolic split in the current diagonal coordinates.

    Returns (u1, u2, complement_columns, complement_form) where u1, u2 are
    vectors with q(u1)=1, q(u2)=-1, B(u1,u2)=0 spanning the plane of the
    witness, and the complement columns diagonalize q on the orthogonal
    complement.
    """
    f = coeffs[0].field
    n = len(coeffs)
    v = list(witness)
    j = next(i for i in range(n) if not v[i].is_zero())
    scale = (coeffs[j] * v[j]).inv()
    w = [f.zero()] * n
    w[j] = scale  # B(v, w) = 1
    qw = coeffs[j] * scale * scale
    half = (f.one() + f.one()).inv()
    wp = [w[i] - half * qw * v[i] for i in range(n)]  # q(wp) = 0, B(v,wp) = 1
    u1 = [half * v[i] + wp[i] for i in range(n)]
    u2 = [half * v[i] - wp[i] for i in range(n)]
    rows = [
        [coeffs[i] * v[i] for i in range(n)],
        [coeffs[i] * wp[i] for i in range(n)],
    ]
    comp = linalg.nullspace(rows)
    if len(comp) != n - 2:
        raise InternalCheckFailed("hyperbolic complement has wrong dimension")
    if not comp:
        return u1, u2, [], QuadraticForm(f, [])
    gram_entries = [
        [
            linalg.sum_elems([coeffs[t] * x[t] * y[t] for t in range(n)])
            for y in comp
        ]
        for x in comp
    ]
    sub_form, sub_p = diagonalize(GramMatrix(f, gram_entries))
    comp_matrix = [[comp[c][r] for c in range(len(comp))] for r in range(n)]
    new_cols_matrix = linalg.mat_mul(comp_matrix, sub_p)
    comp_columns = _columns(new_cols_matrix)
    return u1, u2, comp_columns, sub_form


def witt_decompose(q: QuadraticForm, search_cap: int = 1024) -> WittDecomposition:
    """Split hyperbolic planes while isotropy holds; certify the remainder.

    The recorded basis T satisfies  T^T G T = diag(1,-1,...,1,-1, a_1..a_m)
    exactly, where <a_1..a_m> is the anisotropic part.
    """
    f = q.field
    n = q.dim
    current = list(q.coeffs)
    embed = linalg.identity(f, n)  # columns: current coords -> original coords
    pair_cols: list[list[FieldElement]] = []
    index = 0
    while True:
        sub = QuadraticForm(f, current)
        cert = is_isotropic(sub, want_witness=True, search_cap=search_cap)
        if not cert.isotropic:
            break
        if cert.witness is None:
            return _witt_by_invariants_only(q, index, current)
        u1, u2, comp_cols, comp_form = _split_step(current, cert.witness)
        pair_cols.append(linalg.mat_vec(embed, u1))
        pair_cols.append(linalg.mat_vec(embed, u2))
        new_embed_matrix = linalg.mat_mul(
            embed, [[col[r] for col in comp_cols] for r in range(len(current))]
        )
        embed = new_embed_matrix
        current = list(comp_form.coeffs)
        index += 1
    an_part = QuadraticForm(f, current)
    basis_cols = pair_cols + _columns(embed)
    basis = [[basis_cols[c][r] for c in range(len(basis_cols))] for r in range(n)]
    method = METHOD_WITNESS if not current else cert.method
    dec = WittDecomposition(
        witt_index=index,
        anisotropic_part=an_part,
        method=method,
        basis=basis,
        anisotropy_certificate=cert,
    )
    _verify_decomposition(q, dec)
    return dec


def _witt_by_invariants_only(q, index_so_far, current_coeffs):
    """Fallback when invariants prove isotropy but bounded search found no
    vector: index from invariants, representative anisotropic part found by a
    bounded invariant-matching search."""
    if q.field.kind != RATIONALS:
        raise UnsupportedCase(
            f"isotropy proved without explicit witness over {q.field}"
        )
    sub = QuadraticForm(q.field, current_coeffs)
    total = index_so_far + witt_index_by_invariants(sub)
    m = q.dim - 2 * total
    an = _find_anisotropic_representative(sub, m)
    return WittDecomposition(
        witt_index=total,
        anisotropic_part=an,
        method=METHOD_LOCAL,
        basis=None,
        anisotropy_certificate=None,
    )


def _find_anisotropic_representative(q: QuadraticForm, m: int) -> QuadraticForm:
    if m == 0:
        return QuadraticForm(q.field, [])
    pool: set[int] = {1, -1}
    for c in q.coeffs:
        pool.add(squarefree_part(_as_int_squareclass(c)))
        pool.add(-squarefree_part(_as_int_squareclass(c)))
    for a, b in itertools.product(list(pool), repeat=2):
        pool.add(squarefree_part(a * b))
    sig = q.signature()
    target_sig = (sig[0] - (q.dim - m) // 2, sig[1] - (q.dim - m) // 2)
    count = 0
    for combo in itertools.combinations_with_replacement(sorted(pool), m):
        count += 1
        if count > 20000:
            break
        try:
            cand = QuadraticForm(q.field, [q.field.element(c) for c in combo])
        except InvalidInput:
            continue
        if cand.signature() != target_sig:
            continue
        hyp = QuadraticForm(q.field, [1, -1] * ((q.dim - m) // 2))
        total = cand.direct_sum(hyp) if hyp.dim else cand
        if equivalent(total, q) and not is_isotropic(cand, want_witness=False):
            return cand
    raise UnsupportedCase(
        "isotropy proved by invariants but no explicit decomposition found"
    )


def _verify_decomposition(q: QuadraticForm, dec: WittDecomposition):
    n = q.dim
    if dec.anisotropic_part.dim + 2 * dec.witt_index != n:
        raise InternalCheckFailed("Witt decomposition dimension bookkeeping")
    if dec.basis is not None:
        g = q.gram()
        t = dec.basis
        got = linalg.mat_mul(linalg.mat_mul(linalg.transpose(t), g), t)
        expect = [1, -1] * dec.witt_index + [c for c in dec.anisotropic_part.coeffs]
        f = q.field
        for i in range(n):
            for j in range(n):
                want = f.element(expect[i]) if i == j else f.zero()
                if got[i][j] != want:
                    raise InternalCheckFailed("recorded Witt basis fails congruence")
    if q.field.kind == RATIONALS:
        hyp = QuadraticForm(q.field, [1, -1] * dec.witt_index) if dec.witt_index else None
        rebuilt = (
            hyp.direct_sum(dec.anisotropic_part)
            if hyp and dec.anisotropic_part.dim
            else (hyp or dec.anisotropic_part)
        )
        if rebuilt.dim and not equivalent(rebuilt, q):
            raise InternalCheckFailed("Witt decomposition invariant bookkeeping")


# --------------------------------------------------------------------------
# equivalence
# --------------------------------------------------------------------------

def equivalent(q1: QuadraticForm, q2: QuadraticForm) -> bool:
    """Form equivalence by complete invariants (Q, F_p); Q(sqrt d) requires
    an explicit witness, see equivalent_with_witness."""
    if q1.field != q2.field:
        raise FieldMismatch("equivalence needs a common field")
    k = q1.field.kind
    if k == QUAD_EXT:
        raise UnsupportedCase(
            "invariant-based equivalence over Q(sqrt d) is not supported; "
            "supply an explicit change of basis"
        )
    if q1.dim != q2.dim:
        return False
    if k == PRIME_FIELD:
        return q1.det_squareclass() == q2.det_squareclass()
    if q1.det_squareclass() != q2.det_squareclass():
        return False
    if q1.signature() != q2.signature():
        return False
    for p in _bad_primes(q1, q2):
        if hasse_invariant(q1, p) != hasse_invariant(q2, p):
            return False
    return True


def equivalent_with_witness(q1: QuadraticForm, q2: QuadraticForm, p) -> bool:
    """Exact check that p^T G1 p = G2 (works over any supported field)."""
    if q1.field != q2.field:
        raise FieldMismatch("equivalence needs a common field")
    if q1.dim != q2.dim or len(p) != q1.dim:
        return False
    got = linalg.mat_mul(linalg.mat_mul(linalg.transpose(p), q1.gram()), p)
    return linalg.mat_eq(got, q2.gram())


# --------------------------------------------------------------------------
# Pfister forms
# --------------------------------------------------------------------------

def pfister(field: Field, slots) -> QuadraticForm:
    """<1,-s1> (x) ... (x) <1,-sk> as an explicit 2^k-dim diagonal form."""
    slots = [field.element(s) for s in slots]
    if not 1 <= len(slots) <= 3:
        raise InvalidInput("pfister takes 1 to 3 slots")
    if any(s.is_zero() for s in slots):
        raise InvalidInput("pfister slots must be nonzero")
    coeffs = [field.one()]
    for s in slots:
        coeffs = coeffs + [-(s * c) for c in coeffs]
    return QuadraticForm(field, coeffs)
