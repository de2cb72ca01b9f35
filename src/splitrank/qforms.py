"""Quadratic-form engine: diagonalization, local invariants, isotropy,
Witt decomposition and equivalence over Q, F_p and Q(sqrt(d)).

All forms are diagonal <a1,...,an> with nonzero coefficients.  Decisions are
exact and every verdict carries a certificate: an explicit witness vector for
isotropy, or the invariant/place data that rules a witness out.  Witnesses
are constructed (Legendre lattices and local-global splits, see the
"constructive witnesses" section), never searched for; the bounded search
stays as an oracle.  Over Q(sqrt(d)) only the dim >= 5 real-place fragment
is decided, with witnesses for rational coefficients; everything else
raises UnsupportedCase rather than guessing.

Over Q one integer core answers every local question (section "the local
layer over Q"): each coefficient is split once into its squarefree class
and its primes, and one Hasse invariant and one local-isotropy rule on those
integers serve is_isotropic, witt_index_by_invariants, equivalent,
det_squareclass and the witness route, which looks the primes of a form up
once and runs its lattices on integers (integral LLL).  hilbert_symbol and
hasse_invariant are thin wrappers that check their arguments first.

A Witt decomposition keeps its basis as packed columns of Field.kernel and
does the work of each hyperbolic split once, on packed integers and on the
witness support only (_split_step): the columns off the support pass
through.  The splits are not checked one by one; each Witt report is proved
once, by one exact congruence of q with H^i + <anisotropic part> on its
packed basis, which is then unpacked into the report.  The invariant
cross-check of that report over Q lives in `verify` and the tests.  Every
exact congruence check is one packed-integer predicate (_gram_mismatch); no
Gram matrix of FieldElements is built.
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
    InputTooLarge,
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
    is_prime,
    least_nonresidue,
    legendre,
    prime_factors,
    sqrt_mod_p,
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
        """Canonical representative of the determinant square class (over
        Q the squarefree integer, from the split of each coefficient)."""
        k = self.field.kind
        if k == RATIONALS:
            return _local_data(c.value for c in self.coeffs)[1]
        d = self.det()
        if k == PRIME_FIELD:
            if legendre(d.value, self.field.p) == 1:
                return 1
            return least_nonresidue(self.field.p)
        return d  # QSqrt: raw element, compared via is_square of ratios

    def signature(self) -> tuple[int, int]:
        """(positive, negative) coefficient counts over R; rationals only."""
        if self.field.kind != RATIONALS:
            raise UnsupportedField("signature() is the rationals entry point")
        pos = sum(1 for c in self.coeffs if c.value > 0)
        return pos, self.dim - pos

    def signatures_all_places(self) -> list[tuple[int, int]]:
        """Signatures at each real embedding (1 for Q, 2 or 0 for Q(sqrt d))."""
        places = self.field.real_place_count()
        signs = [c.real_signs() for c in self.coeffs] if places else []  # each coefficient's signs, once
        positive = (sum(1 for s in signs if s[place] > 0) for place in range(places))
        return [(pos, self.dim - pos) for pos in positive]

    def neg(self) -> QuadraticForm:
        return QuadraticForm(self.field, [-c for c in self.coeffs])

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "coeffs": [str(c) for c in self.coeffs],
            **({"label": self.label} if self.label else {}),
        }


def form_from_json(obj: dict) -> QuadraticForm:
    from .fields import field_from_json, scalars_from_json

    if not isinstance(obj, dict) or "coeffs" not in obj or "field" not in obj:
        raise InvalidInput(f"bad form descriptor: {obj!r}")
    f = field_from_json(obj["field"])
    return QuadraticForm(f, scalars_from_json(f, obj["coeffs"], "coeffs"), obj.get("label"))


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


# --------------------------------------------------------------------------
# diagonalization
# --------------------------------------------------------------------------

def diagonalize(gram: GramMatrix):
    """Symmetric Gauss congruence: returns (QuadraticForm, P) with
    P^T G P diagonal equal to the form's coefficients, checked exactly.
    Raises DegenerateForm (with the radical's basis) when the input is
    singular."""
    f = gram.field
    if gram.dim == 0:
        return QuadraticForm(f, []), []
    diag, p = _eliminate(f, gram.as_lists())
    form = QuadraticForm(f, diag)
    _assert_congruent(gram.as_lists(), p, list(form.coeffs))
    return form, p


def _eliminate(f: Field, g):
    """The Gauss elimination of diagonalize on a symmetric matrix g of
    FieldElements, reduced in place: returns (diag, P) with P^T g P =
    diag(diag), unchecked, or raises DegenerateForm."""
    n = len(g)
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
    return diag, p


def _assert_congruent(g, p, diag):
    f, n = diag[0].field, len(g)
    table = _gram_table(f, n, {(i, j): x for i, row in enumerate(g) for j, x in enumerate(row) if not x.is_zero()})
    failed = _gram_mismatch(f.kernel, table, [f.kernel.pack(c) for c in _columns(p)], diag)
    if failed == "off-diagonal":
        raise InternalCheckFailed("congruence produced off-diagonal residue")
    if failed:
        raise InternalCheckFailed("congruence check failed on diagonal")


def _gram_table(f: Field, n: int, entries: dict):
    """The bilinear table of x^T G y for the n x n matrix G whose nonzero
    entries are entries[(i, j)], packed in one call."""
    rows = [[] for _ in range(n)]
    for e, (i, j) in enumerate(entries):
        rows[i].append(((j, 0), e))
    return f.kernel.indexed_table(rows, 1, list(entries.values()))


def _gram_mismatch(kernel, table, packed, expected) -> str | None:
    """Whether the packed columns x_i satisfy x_i^T G x_j = diag(expected),
    for G given by a bilinear table with one output, decided on packed
    integers: "off-diagonal" when some pair i < j is not orthogonal (tested
    first), "diagonal" when some x_i^T G x_i is not expected[i], else None."""
    n = len(packed)
    if any(not kernel.packed_is_zero(kernel.packed_bilinear(table, packed[i], packed[j]))
           for i in range(n) for j in range(i + 1, n)):
        return "off-diagonal"
    values, den = kernel.pack(expected)
    if not all(kernel.packed_eq(kernel.packed_bilinear(table, x, x), ([v], den)) for x, v in zip(packed, values)):
        return "diagonal"
    return None


# --------------------------------------------------------------------------
# the local layer over Q: one integer core
#
# Each coefficient is split once into its squarefree class and its primes
# (_square_split, one lookup of the cached factors of its numerator and of
# its denominator).  Hasse invariants, local isotropy and Hasse-Minkowski
# (Serre, A Course in Arithmetic, ch. IV) then run on those integers for the
# decisions, the Witt index, equivalence and the witness route alike.  The
# public wrappers check their arguments; only a place that the caller
# supplies is tested for primality.
# --------------------------------------------------------------------------

def _square_split(x) -> tuple[int, int | Fraction, set[int]]:
    """x = s * m^2 for a nonzero rational x, with s a squarefree integer of
    the sign of x and m > 0 (an integer when x is one), and the set of
    primes of x."""
    s, top, bottom = (-1 if x.numerator < 0 else 1), 1, 1
    up, down = prime_factors(x.numerator), prime_factors(x.denominator)
    for p, e in up.items():
        s, top = s * p ** (e % 2), top * p ** (e // 2)
    for p, e in down.items():
        s, bottom = s * p ** (e % 2), bottom * p ** ((e + 1) // 2)
    return s, (top if bottom == 1 else Fraction(top, bottom)), up.keys() | down.keys()


def _local_data(values) -> tuple[list[int], int, list[int]]:
    """The squarefree class of each nonzero rational, the class of their
    product and the places that matter, S = {2} + the primes of every
    numerator and denominator."""
    classes, det, primes = [], 1, {2}
    for x in values:
        s, _, ps = _square_split(x)
        g = math.gcd(det, s)
        classes.append(s)
        det = det * s // (g * g)
        primes |= ps
    return classes, det, sorted(primes)


def _val_unit(n: int, p: int) -> tuple[int, int]:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _symbol(a: int, b: int, place) -> int:
    """Hilbert symbol (a,b) at a rational place; a, b nonzero integers."""
    if place == INF:
        return -1 if (a < 0 and b < 0) else 1
    p = int(place)
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


def _hasse(ints: list[int], place) -> int:
    """prod_{i<j} (a_i, a_j)_place  (the i<j convention, fixed), for
    integers in the square classes of the coefficients."""
    eps = 1
    for i, a in enumerate(ints):
        for b in ints[i + 1:]:
            eps *= _symbol(a, b, place)
    return eps


def hilbert_symbol(a: FieldElement, b: FieldElement, place) -> int:
    """(a,b)_place for nonzero rationals; place is an odd prime, 2, or "inf"."""
    if a.field.kind != RATIONALS or b.field.kind != RATIONALS:
        raise UnsupportedField("Hilbert symbols are implemented over Q only")
    if a.is_zero() or b.is_zero():
        raise InvalidInput("hilbert symbol needs nonzero entries")
    return hasse_invariant(QuadraticForm(a.field, [a, b]), place)


def hasse_invariant(q: QuadraticForm, place) -> int:
    """prod_{i<j} (a_i, a_j)_place  (the i<j convention, fixed)."""
    if q.field.kind != RATIONALS:
        raise UnsupportedField("Hasse invariants are implemented over Q only")
    if place != INF and not is_prime(int(place)):
        raise InvalidInput(f"place must be a prime or 'inf', got {place!r}")
    # n/d and n*d share a square class, and n*d needs no factoring
    return _hasse([c.value.numerator * c.value.denominator for c in q.coeffs], place)


def _class_key(t: int, p: int) -> tuple[int, int]:
    """Square class of t in Q_p: valuation parity and unit class; t is a
    square exactly when the key is (0, 1)."""
    v, u = _val_unit(t, p)
    return v % 2, (u % 8 if p == 2 else legendre(u, p))


def _local_isotropic(n: int, det: int, eps: int, p: int) -> bool:
    """Isotropy of a rank-n Q_p form with the given determinant class and
    Hasse invariant, at a prime p."""
    if n <= 1:
        return False
    if n == 2:
        return _class_key(-det, p) == (0, 1)
    if n == 3:
        return _symbol(-1, -det, p) == eps
    if n == 4:
        return not (_class_key(det, p) == (0, 1) and eps == -_symbol(-1, -1, p))
    return True


def _iso_at(ints: list[int], p: int) -> bool:
    """Isotropy over Q_p of the diagonal form with integer coefficients."""
    return _local_isotropic(len(ints), math.prod(ints), _hasse(ints, p), p)


def _obstruction(values):
    """Hasse-Minkowski over Q for three or more nonzero rational
    coefficients: None when the form is isotropic, else (method, detail) for
    the place that rules a zero out.  That is the real place when the form
    is definite, else (dims 3 and 4; Meyer covers the rest) the first prime
    of S at which it is anisotropic."""
    n = len(values)
    pos = sum(1 for x in values if x > 0)
    if pos in (0, n):
        return METHOD_REAL, {"signature": [pos, n - pos], "place": INF}
    if n >= 5:
        return None
    classes, det, primes = _local_data(values)
    for p in primes:
        if not _iso_at(classes, p):
            return METHOD_LOCAL, {"place": p, "det_squareclass": det, "hasse": _hasse(classes, p)}
    return None


def witt_index_by_invariants(q: QuadraticForm) -> int:
    """Witt index over Q from signatures and local invariants only
    (min over all places of the local Witt indices)."""
    if q.field.kind != RATIONALS:
        raise UnsupportedField("invariant-based Witt index is a Q-only route")
    n = q.dim
    best = min(q.signature())
    classes, det, primes = _local_data(c.value for c in q.coeffs)
    for p in primes:
        m, d, e, count = n, det, _hasse(classes, p), 0
        while m > 0 and _local_isotropic(m, d, e, p):
            m, d, count = m - 2, -d, count + 1
            e *= _symbol(-1, d, p)
        best = min(best, count)
        if best == 0:
            return 0
    # generic odd primes not dividing any coefficient
    if n % 2:
        return min(best, (n - 1) // 2)
    return min(best, n // 2 if (-1) ** (n // 2) * det == 1 else (n - 2) // 2)


# --------------------------------------------------------------------------
# bounded search: the public oracle, and the height-1 probe of the witnesses
# --------------------------------------------------------------------------

_ENUM_CAP = 4_000_000


def _integerize(coeffs: list[Fraction]) -> list[int]:
    """Scale rational coefficients to integers (same zero set)."""
    lcm = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (lcm // c.denominator) for c in coeffs]


def _search_integer(coeffs: list[int], bound: int):
    """Meet-in-the-middle over 0..bound per coordinate (signs never matter
    for a diagonal form).  Returns a nonzero integer witness or None; the
    table keeps the first vector of each value of the first half."""
    n = len(coeffs)
    h1, h2 = coeffs[:(n + 1) // 2], coeffs[(n + 1) // 2:]
    if (bound + 1) ** len(h1) > _ENUM_CAP:
        raise SearchSpaceTooLarge(f"bound {bound} with dim {n}")
    sq = [x * x for x in range(bound + 1)]

    def values(half):
        return (sum(t) for t in itertools.product(*([c * s for s in sq] for c in half)))

    keys = list(itertools.product(range(bound + 1), repeat=len(h1)))
    table = dict(zip(reversed(list(values(h1))), reversed(keys)))
    if not h2:
        hit = table.get(0)
        return list(hit) if hit and any(hit) else None
    for ys, val in zip(itertools.product(range(bound + 1), repeat=len(h2)), values(h2)):
        hit = table.get(-val)
        if hit is None or (not any(hit) and not any(ys)):
            continue
        return list(hit) + list(ys)
    return None


def _fp_witness(q: QuadraticForm):
    """Deterministic nonzero isotropic vector over F_p, or None.

    dim >= 3 always succeeds (fix tail = (1,0,..), solve the binary equation
    a1 x^2 + a2 y^2 = m by sweeping x); dim 2 is an exact square test, and
    a regular form of dim < 2 has no zero.
    """
    p = q.field.p
    a = [c.value for c in q.coeffs]
    n = q.dim
    if n < 2:
        return None
    if n == 2:
        s = (-a[1] * pow(a[0], -1, p)) % p
        r = sqrt_mod_p(s, p)
        if r is None:
            return None
        return _checked_fp_zero(q, [r, 1])
    m = (-a[2]) % p
    for x in range(p):
        rhs = (m - a[0] * x * x) % p
        y = sqrt_mod_p(rhs * pow(a[1], -1, p) % p, p)
        if y is not None:
            return _checked_fp_zero(q, [x, y, 1] + [0] * (n - 3))
    raise InternalCheckFailed("binary F_p equation had no solution")


def _checked_fp_zero(q: QuadraticForm, vec):
    """vec over F_p, checked exactly: vec != 0 and sum a_i x_i^2 = 0 mod p."""
    p = q.field.p
    if not any(x % p for x in vec) or sum(c.value * x * x for c, x in zip(q.coeffs, vec)) % p:
        raise InternalCheckFailed("constructed vector is not a zero of the form")
    return tuple(q.field.element(x) for x in vec)


def isotropic_vector_search(q: QuadraticForm, height_bound: int):
    """Bounded witness search; None is NOT an anisotropy proof over Q.
    An oracle for tests and `verify`: the certificates are constructed."""
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


# --------------------------------------------------------------------------
# constructive witnesses over Q and Q(sqrt d)
#
# The constructive proof of Hasse-Minkowski (Cassels, Rational Quadratic
# Forms, ch. 6): ternary forms by the Legendre lattice of Cremona and Rusin
# (Math. Comp. 2003), dimensions 4 and 5 by a value t represented by both
# halves of a split, dimension >= 6 through an indefinite 5-dim subform.
# Every routine works on integer coefficients of an isotropic form and
# returns a nonzero integer zero of it.
# --------------------------------------------------------------------------

def _definite(ints) -> bool:
    return min(ints) > 0 or max(ints) < 0


def _pad(n: int, idx, sub) -> list[int]:
    vec = [0] * n
    for i, v in zip(idx, sub):
        vec[i] = v
    return vec


def _primitive(vec: list[int]) -> list[int]:
    g = math.gcd(*vec)
    return [v // g for v in vec] if g > 1 else vec


def _q_witness(values: list[Fraction]) -> list[int]:
    """Nonzero integer zero of an isotropic form with rational coefficients:
    the fixed height-1 probe, then the construction on each coefficient's
    own square class; checked exactly on the integerized coefficients."""
    ints = _integerize(values)
    vec = _search_integer(ints, 1)
    if vec is None:
        vec = _solve(values)
    if not any(vec) or sum(c * x * x for c, x in zip(ints, vec)):
        raise InternalCheckFailed("constructed vector is not a zero of the form")
    return vec


def _solve(values) -> list[int]:
    """a_i = s_i m_i^2 for nonzero rationals a_i (m_i rational): a zero y
    of <s_i> gives the zero x_i = y_i M / m_i, M = lcm of the numerators of
    the m_i."""
    split = [_square_split(c) for c in values]
    y = _solve_sqf([s for s, _, _ in split])
    big = math.lcm(*(m.numerator for _, m, _ in split))
    return _primitive([v * m.denominator * (big // m.numerator) for v, (_, m, _) in zip(y, split)])


def _solve_sqf(s: list[int]) -> list[int]:
    """Zero of an isotropic form with squarefree coefficients, supported on
    as few and as small coefficients as the local tests allow.  The primes
    are looked up once per form; a 3- or 4-dim subform is tested at 2 and at
    the primes of its coefficients (at any other odd prime it is isotropic)."""
    n = len(s)
    for i, j in itertools.combinations(range(n), 2):
        if s[i] == -s[j]:
            return _pad(n, (i, j), (1, 1))
    if n < 3:
        raise InternalCheckFailed(f"no zero of the anisotropic form {s}")
    if n == 3:
        return _ternary(*s)
    if n >= 6:
        idx = _meyer_indices(s)
        return _pad(n, idx, _solve_sqf([s[i] for i in idx]))
    primes = [prime_factors(x).keys() for x in s]
    for size in range(3, n):
        for idx in sorted(itertools.combinations(range(n), size), key=lambda c: sorted(abs(s[i]) for i in c)):
            sub, places = [s[i] for i in idx], sorted({2}.union(*(primes[i] for i in idx)))
            if not _definite(sub) and all(_iso_at(sub, p) for p in places):
                # a 4-subform has no isotropic 3-subform: those came first
                return _pad(n, idx, _ternary(*sub) if size == 3 else _split_solve(sub, places))
    return _split_solve(s, sorted({2}.union(*primes)))


def _meyer_indices(s: list[int]) -> list[int]:
    """An indefinite 5-dim subform, isotropic by Meyer's theorem: the five
    smallest coefficients, the last swapped for the smallest of the other
    sign when all five share one."""
    order = sorted(range(len(s)), key=lambda i: (abs(s[i]), i))
    pick = order[:5]
    if _definite([s[i] for i in pick]):
        pick[-1] = next(i for i in order if (s[i] > 0) != (s[pick[0]] > 0))
    return sorted(pick)


def _class_reps(p: int) -> list[int]:
    if p == 2:
        return [u << v for v in (0, 1) for u in (1, 3, 5, 7)]
    n = least_nonresidue(p)
    return [1, n, p, n * p]


def _split_plan(a: list[int], rest: list[int], primes: list[int]):
    """The square classes of t allowed at each prime of S = primes, for which
    <a1,a2,-t> and rest + <t> are both isotropic over Q_p, and the product
    of the primes of S that must divide t to an odd power.  A class c costs
    two Hilbert symbols: eps(f + <c>) = eps(f) (det f, c)_p."""
    da, dr = a[0] * a[1], math.prod(rest)
    allowed = {}
    for p in primes:
        ea, er = _hasse(a, p), _hasse(rest, p)
        allowed[p] = {
            _class_key(c, p) for c in _class_reps(p)
            if _local_isotropic(3, -da * c, ea * _symbol(da, -c, p), p)
            and _local_isotropic(len(rest) + 1, dr * c, er * _symbol(dr, c, p), p)
        }
    if not all(allowed.values()):
        raise InternalCheckFailed(f"<{a}> + <{rest}> has no common value at a prime")
    forced = math.prod(p for p in primes if all(v for v, _ in allowed[p]))
    share = math.prod(Fraction(len(allowed[p]), 8 if p == 2 else 4) for p in primes)
    return forced / share, allowed, forced


# t candidates _split_value may test: 68,818 is the most any test, golden,
# `verify --seed 1729` or bench workload (seeds 1-10) needs
_SPLIT_VALUE_BUDGET = 100_000


def _split_value(a: list[int], rest: list[int], allowed, forced: int) -> int:
    """The least |t| with <a1,a2,-t> and rest + <t> both isotropic: t is a
    multiple of `forced` in an allowed square class at every prime of S,
    and its sign makes both forms indefinite.  A prime q outside S dividing
    t to an odd power leaves the ternary forms isotropic at q only if
    -a1 a2 (and -r1 r2 for a binary rest) is a square mod q.  Every other
    place is unramified for both forms.  Past _SPLIT_VALUE_BUDGET
    candidates it raises InputTooLarge."""
    need = [-a[0] * a[1]] + ([-rest[0] * rest[1]] if len(rest) == 2 else [])
    for k in range(1, _SPLIT_VALUE_BUDGET // 2 + 1):
        for t in (forced * k, -forced * k):
            if _definite(a + [-t]) or _definite(rest + [t]):
                continue
            if any(_class_key(t, p) not in classes for p, classes in allowed.items()):
                continue
            if all(
                e % 2 == 0 or p in allowed or all(legendre(x, p) == 1 for x in need)
                for p, e in prime_factors(k).items()
            ):
                return t
    raise InputTooLarge(
        f"witness split value of <{a[0]},{a[1]}> + <{','.join(map(str, rest))}>: "
        f"no t among the first {_SPLIT_VALUE_BUDGET} candidates"
    )


def _split_solve(s: list[int], primes: list[int]) -> list[int]:
    """q = <a1,a2> + rest (dim 4 or 5, S = primes), over the pair whose allowed
    classes promise the smallest t: with t from _split_value, zeros (x1, x2, u)
    of <a1,a2,-t> and (y, w) of rest + <t> glue to (w x1, w x2, u y).  u = 0
    would need a2 = -a1 and w = 0 an isotropic rest, and _solve_sqf returns
    both cases before it gets here; _q_witness checks the glued zero."""
    n = len(s)
    plans = []
    for pair in itertools.combinations(range(n), 2):
        rest = [i for i in range(n) if i not in pair]
        plans.append((_split_plan([s[i] for i in pair], [s[i] for i in rest], primes), pair, rest))
    (_, allowed, forced), pair, rest = min(plans, key=lambda plan: plan[0][0])
    a, r = [s[i] for i in pair], [s[i] for i in rest]
    t = _split_value(a, r, allowed, forced)
    x = _solve(a + [-t])
    y = _solve(r + [t])
    vec = _pad(n, pair, [v * y[-1] for v in x[:2]])
    for i, v in zip(rest, y[:-1]):
        vec[i] = v * x[2]
    return _primitive(vec)


def _ternary(a: int, b: int, c: int) -> list[int]:
    """Zero of an isotropic <a,b,c>, squarefree coefficients.  Common
    factors are moved out first: for g = gcd(a, b), a zero (x, y, z) of
    <a/g, b/g, g c> gives the zero (x, y, g z) of <a, b, c>."""
    g = math.gcd(a, b, c)
    co = [a // g, b // g, c // g]
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        g = math.gcd(co[i], co[j])
        if g > 1:
            co[i] //= g
            co[j] //= g
            co[k] *= g
            vec = _ternary(*co)
            vec[k] *= g
            return _primitive(vec)
    if _definite(co):
        raise InternalCheckFailed(f"no zero of the definite form {co}")
    k = next(i for i in range(3) if _definite([co[j] for j in range(3) if j != i]))
    perm = [i for i in range(3) if i != k] + [k]
    sign = -1 if co[k] > 0 else 1
    sub = _legendre(*(sign * co[i] for i in perm))
    return _primitive(_pad(3, perm, sub))


def _legendre(a: int, b: int, c: int) -> list[int]:
    """Zero of ax^2 + by^2 + cz^2 for a, b > 0 > c squarefree and pairwise
    coprime (Cremona-Rusin).  The vectors with q = 0 mod abc on one root
    line per prime (y = ra z mod a, z = rb x mod b, x = rc y mod c) form a
    lattice of index m = |abc|, with the triangular basis (b|c|, 0, 0),
    (x2, a, 0), (x3, ra, 1).  By Minkowski it has a nonzero vector in the
    Holzer box |x| <= sqrt(b|c|), |y| <= sqrt(a|c|), |z| <= sqrt(ab), and
    there q is 0 or m; the box lies in {a x^2 + b y^2 + |c| z^2 <= 3m},
    which is enumerated over an LLL-reduced basis.  A vector with q = m
    gives the zero (xz - by, ax + yz, z^2 + ab), because
    (a x^2 + b y^2)(z^2 + ab) = a(xz - by)^2 + b(ax + yz)^2."""
    m = -a * b * c
    ra = _sqrt_mod(-c * pow(b, -1, a), a)
    rb = _sqrt_mod(-a * pow(c, -1, b), b)
    rc = _sqrt_mod(-b * pow(a, -1, -c), -c)
    x2 = _crt((rc * a, 0), (-c, b))
    x3 = _crt((rc * ra, pow(rb, -1, b)), (-c, b))
    weights = (a, b, -c)
    fallback = None
    for x, y, z in _short_vectors(*_lll([[-b * c, 0, 0], [x2, a, 0], [x3, ra, 1]], weights), weights, 3 * m):
        value = a * x * x + b * y * y + c * z * z
        if value == 0:
            return [x, y, z]
        if value == m and fallback is None:
            fallback = [x * z - b * y, a * x + y * z, z * z + a * b]
    if fallback is None:
        raise InternalCheckFailed(f"no zero of <{a},{b},{c}> in its Legendre lattice")
    return fallback


def _sqrt_mod(x: int, n: int) -> int:
    """A square root of x modulo the squarefree n > 0 (CRT over its primes)."""
    roots, primes = [], []
    for p in prime_factors(n):
        r = x % 2 if p == 2 else sqrt_mod_p(x, p)
        if r is None:
            raise InternalCheckFailed(f"ternary form is anisotropic at {p}")
        roots.append(r)
        primes.append(p)
    return _crt(roots, primes)


def _crt(residues, moduli) -> int:
    x, big = 0, 1
    for r, n in zip(residues, moduli):
        x += big * ((r - x) * pow(big, -1, n) % n)
        big *= n
    return x % big


def _lll(basis, weights):
    """LLL reduction (delta = 3/4) of integer rows for sum w_i u_i v_i, on
    integers (Cohen, A Course in Computational Algebraic Number Theory,
    alg. 2.6.7): d[i] is the Gram determinant of the first i rows and
    lam[i][j] = d[j+1] mu_ij.  Row k is size-reduced from row k-1 down, mu
    rounded half to even, before the Lovasz test.  Returns (rows, lam, d)."""
    b = [list(v) for v in basis]
    n = len(b)
    lam, d = [[0] * n for _ in range(n)], [1]
    for i in range(n):
        for j in range(i + 1):
            u = sum(w * x * y for w, x, y in zip(weights, b[i], b[j]))
            for k in range(j):
                u = (d[k + 1] * u - lam[i][k] * lam[j][k]) // d[k]
            if j < i:
                lam[i][j] = u
            else:
                d.append(u)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(Fraction(lam[k][j], d[j + 1]))
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                for i in range(j):
                    lam[k][i] -= q * lam[j][i]
                lam[k][j] -= q * d[j + 1]
        m = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] * d[k] - 4 * m * m:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        big = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
            lam[i][k - 1] = (big * t + m * lam[i][k]) // d[k + 1]
        d[k] = big
        k = max(k - 1, 1)
    return b, lam, d


def _short_vectors(b, lam, d, weights, bound: int) -> list[list[int]]:
    """The nonzero vectors of the lattice with rows b (integer Gram-Schmidt
    data lam, d as from _lll) whose weighted norm is at most bound, shortest
    first (Fincke-Pohst on integers).  The norm of sum x_i b_i is
    sum N_i y_i^2 with N_i = d[i+1]/d[i] and y_i = x_i + sum_{j>i} mu_ji x_j,
    mu_ji = lam[j][i]/d[i+1].  With D = lcm(d[1..n-1]) the test
    sum (D N_i) (D y_i)^2 <= D^3 bound is on integers, and isqrt cuts the
    range of each x_i exactly."""
    n = len(b)
    den = math.lcm(*d[1:n])
    mu = [[lam[j][i] * (den // d[i + 1]) for i in range(j)] for j in range(n)]
    norms = [d[i + 1] * (den // d[i]) for i in range(n)]
    coef = [0] * n
    found = []

    def walk(i, left):
        if i < 0:
            vec = [sum(c * row[k] for c, row in zip(coef, b)) for k in range(n)]
            if any(vec):
                found.append((sum(w * x * x for w, x in zip(weights, vec)), vec))
            return
        centre = sum(mu[j][i] * coef[j] for j in range(i + 1, n))  # D y_i = D x_i + centre
        half = math.isqrt(left // norms[i])
        for x in range(-((half + centre) // den), (half - centre) // den + 1):
            coef[i] = x
            walk(i - 1, left - norms[i] * (den * x + centre) ** 2)
        coef[i] = 0

    walk(n - 1, den ** 3 * bound)
    return [vec for _, vec in sorted(found)]


def _qsqrt_witness(q: QuadraticForm):
    """Zero over Q(sqrt d) of a form with rational coefficients: the Q zero
    when q is indefinite over Q; otherwise (d < 0) a zero (s, x2, ...) of
    <d a1, a2, ...> over Q, which is indefinite of dim >= 5, gives
    (s sqrt d, x2, ...).  None when a coefficient is irrational."""
    f = q.field
    if any(c.value[1] for c in q.coeffs):
        return None
    values = [c.value[0] for c in q.coeffs]
    if not _definite(values):
        return tuple(f.element(x) for x in _q_witness(values))
    vec = _q_witness([f.d * values[0]] + values[1:])
    return (f.sqrt_gen() * f.element(vec[0]),) + tuple(f.element(x) for x in vec[1:])


# --------------------------------------------------------------------------
# isotropy decisions
# --------------------------------------------------------------------------

def is_isotropic(q: QuadraticForm, want_witness: bool = True) -> IsotropyResult:
    """Exact isotropy decision with certificate.

    F_p: Chevalley for dim >= 3, square test for dim 2.
    Q: Hasse-Minkowski through Hilbert symbols; Meyer for dim >= 5.
    Q(sqrt d): the dim >= 5 real-place rule; anything else raises.

    The witness is constructed, never searched for: over Q and F_p every
    isotropic verdict carries one when want_witness is set.  Over Q(sqrt d)
    it is built for rational coefficients only; with an irrational
    coefficient the verdict stands without a witness.
    """
    k = q.field.kind
    n = q.dim
    if n == 0:
        return IsotropyResult(False, METHOD_LOCAL, detail={"reason": "empty form"})
    if k == PRIME_FIELD:
        return _is_isotropic_fp(q, want_witness)
    if k == RATIONALS:
        return _is_isotropic_q(q, want_witness)
    return _is_isotropic_qsqrt(q, want_witness)


def _is_isotropic_fp(q: QuadraticForm, want_witness: bool) -> IsotropyResult:
    n, p = q.dim, q.field.p
    if n == 1:
        return IsotropyResult(False, METHOD_COUNT, detail={"reason": "dim 1 regular"})
    if n == 2:
        # one square root of -a2/a1 decides and builds the witness (x, 1)
        w = _fp_witness(q)
        if w is None:
            return IsotropyResult(
                False, METHOD_COUNT,
                detail={"reason": "-a1*a2 is a nonresidue", "p": p},
            )
        return IsotropyResult(True, METHOD_WITNESS, witness=w)
    w = _fp_witness(q) if want_witness else None
    return IsotropyResult(
        True, METHOD_WITNESS if w else METHOD_COUNT, witness=w,
        detail={"reason": "dim >= 3 over a finite field"},
    )


def _is_isotropic_q(q: QuadraticForm, want_witness: bool) -> IsotropyResult:
    n = q.dim
    if n == 1:
        return IsotropyResult(False, METHOD_LOCAL, detail={"reason": "dim 1 regular"})
    if n == 2:
        # q(x, 1) = a1 x^2 + a2 = 0  <=>  x^2 = -a2/a1 (a square iff -a1 a2 is)
        x = (-q.coeffs[1] / q.coeffs[0]).square_root()
        if x is None:
            return IsotropyResult(
                False, METHOD_LOCAL, detail={"reason": "-det is not a square"}
            )
        return IsotropyResult(True, METHOD_WITNESS, witness=(x, q.field.one()))
    found = _obstruction([c.value for c in q.coeffs])
    if found:
        return IsotropyResult(False, found[0], detail=found[1])
    wit = tuple(q.field.element(v) for v in _q_witness([c.value for c in q.coeffs])) if want_witness else None
    reason = "indefinite of dim >= 5 (Meyer)" if n >= 5 else "isotropic at every place (Hasse-Minkowski)"
    return IsotropyResult(True, METHOD_WITNESS if wit else METHOD_LOCAL, witness=wit, detail={"reason": reason})


def _is_isotropic_qsqrt(q: QuadraticForm, want_witness: bool) -> IsotropyResult:
    n = q.dim
    if n < 5:
        raise UnsupportedCase(
            f"isotropy over {q.field} is only decided for dim >= 5 (got dim {n})"
        )
    for place, (pos, neg) in enumerate(q.signatures_all_places()):  # none when d < 0
        if pos == 0 or neg == 0:
            return IsotropyResult(
                False, METHOD_REAL,
                detail={"real_place": place, "signature": [pos, neg]},
            )
    wit = _qsqrt_witness(q) if want_witness else None
    places = "no real places" if q.field.d < 0 else "indefinite at every real place"
    return IsotropyResult(
        True, METHOD_WITNESS if wit else METHOD_REAL, witness=wit,
        detail={"reason": f"{places}, dim >= 5"},
    )


# --------------------------------------------------------------------------
# Witt decomposition
# --------------------------------------------------------------------------

def _split_step(coeffs, witness):
    """One hyperbolic split in the current diagonal coordinates <a_i>, in
    closed form on the support S of the witness v.

    Returns (S, u1, u2, cols, comp).  u1, u2 span the plane of the witness
    with q(u1)=1, q(u2)=-1, B(u1,u2)=0: with t = a_s0 v_s0^2 they are
    diag(t+1, t-1, ..., t-1) v / 2t and diag(t-1, t+1, ..., t+1) v / 2t.
    The columns cols diagonalize q on its orthogonal complement, with the
    coefficients comp, one per coordinate other than s0, s1 (the first two
    of S), in coordinate order.  A coordinate off S passes through with its
    own coefficient: its entry in cols is None.  For every other k in S the
    column comes from n_k = e_k - (a_k v_k / a_s1 v_s1) e_s1 (the split
    identity), and only the n_k are diagonalized, by the elimination of
    diagonalize, unchecked: witt_decompose checks the whole basis once.
    u1, u2 and these columns are packed vectors of Field.kernel on S, in
    the order of S: integer combinations of the packed witness and
    coefficients over one denominator.
    """
    f = coeffs[0].field
    kernel = f.kernel
    mul, add, times = kernel._mul, kernel._add, kernel._times
    support = [i for i, x in enumerate(witness) if not x.is_zero()]
    m = len(support)
    vals, den = kernel.pack([coeffs[i] for i in support] + [witness[i] for i in support] + [f.one()])
    x = vals[m:2 * m]  # the witness over den; vals[-1] is 1 over den
    t = mul(vals[0], mul(x[0], x[0]))  # a_s0 v_s0^2 = t / den^3
    cube = times(vals[-1], den * den)
    up, down, over = add(t, cube), add(t, times(cube, -1)), times(t, 2 * den)
    u1 = kernel.packed_over([mul(up, x[0])] + [mul(down, y) for y in x[1:]], over)
    u2 = kernel.packed_over([mul(down, x[0])] + [mul(up, y) for y in x[1:]], over)
    rest = [i for i in range(len(coeffs)) if i not in support[:2]]
    cols, comp = [None] * len(rest), [coeffs[i] for i in rest]
    if m > 2:
        # with A_k, V_k the packed a_k, v_k (over den), r_k = rho_k / sigma for
        # rho_k = A_k V_k and sigma = A_1 V_1, and B(n_j, n_k) = a_s1 r_j r_k
        # + delta_jk a_k = (A_1 rho_j rho_k + delta_jk A_k sigma^2) / (den sigma^2)
        a, zero, sigma = vals[:m], kernel._ZERO, mul(vals[1], x[1])
        rho = [mul(ak, xk) for ak, xk in zip(a[2:], x[2:])]
        square = mul(sigma, sigma)
        gram = [
            add(mul(a[1], mul(rj, rk)), mul(a[j + 2], square) if j == k else zero)
            for j, rj in enumerate(rho) for k, rk in enumerate(rho)
        ]
        gram = kernel._unpack(*kernel.packed_over(gram, times(square, den)))
        comp_s, p = _eliminate(f, [list(gram[j:j + m - 2]) for j in range(0, len(gram), m - 2)])
        for j, i in enumerate(support[2:]):
            # column j of P through the n_k: sum_k P_kj (sigma e_k - rho_k e_s1) / sigma
            nums, pd = kernel.pack([row[j] for row in p])
            top = zero
            for y, r in zip(nums, rho):
                top = add(top, mul(y, r))
            cols[i - 2] = kernel.packed_over([zero, times(top, -1)] + [mul(sigma, y) for y in nums], times(sigma, pd))
            comp[i - 2] = comp_s[j]  # i - 2 is the place of i in rest
    return support, u1, u2, cols, comp


def witt_decompose(q: QuadraticForm) -> WittDecomposition:
    """Split hyperbolic planes while isotropy holds; certify the remainder.

    The recorded basis T satisfies  T^T G T = diag(1,-1,...,1,-1, a_1..a_m)
    exactly, where <a_1..a_m> is the anisotropic part.  The basis is kept
    as packed columns in original coordinates, one per current coordinate.
    Each split (_split_step) maps u1, u2 and its complement columns through
    one linear table of the |S| columns of its witness support S; every
    other column passes through untouched.  Over Q each new complement
    column with value s m^2 is scaled by 1/m (m an integer or a fraction),
    so the coefficients carried on are squarefree integers.

    The splits are not checked one by one: the packed basis is proved once,
    by one exact congruence T^T G T = H^i + <a_1..a_m> (_gram_mismatch),
    and then unpacked into the report.  Its diagonal entries are nonzero,
    so T is invertible and q is isometric to i hyperbolic planes plus the
    anisotropic part (the Witt decomposition; Lam, Introduction to
    Quadratic Forms over Fields, ch. I).  The invariant cross-check of that
    isometry over Q lives in `verify` and the tests.
    """
    f = q.field
    kernel = f.kernel
    current = list(q.coeffs)
    one = f.one()
    embed = [kernel.pack_sparse(q.dim, {i: one}) for i in range(q.dim)]
    pairs = []
    index = 0
    while True:
        sub = QuadraticForm(f, current)
        cert = is_isotropic(sub, want_witness=True)
        if not cert.isotropic:
            break
        if cert.witness is None:
            raise UnsupportedCase(
                f"isotropy of {sub} is proved, but no explicit vector is built "
                "for irrational coefficients"
            )
        support, u1, u2, cols, current = _split_step(current, cert.witness)
        table = kernel.columns_table([embed[i] for i in support])
        pairs += [kernel.packed_linear(table, u) for u in (u1, u2)]
        rest = [i for i in range(len(embed)) if i not in support[:2]]  # the coordinates before the split
        embed = [embed[i] if col is None else kernel.packed_linear(table, col) for i, col in zip(rest, cols)]
        if f.kind == RATIONALS:
            for k, (c, col) in enumerate(zip(current, cols)):
                if col is None and index:
                    continue  # squarefree since the first split
                s, m, _ = _square_split(c.value)
                if m != 1:  # the column over m = a/b: numerators times b, denominator times a
                    nums, den = embed[k]
                    embed[k] = [x * m.denominator for x in nums], den * m.numerator
                    current[k] = f.element(s)
        index += 1
    basis = pairs + embed
    table = _gram_table(f, q.dim, {(i, i): c for i, c in enumerate(q.coeffs)})
    if len(basis) != q.dim or _gram_mismatch(kernel, table, basis, [one, -one] * index + current):
        raise InternalCheckFailed("recorded Witt basis fails congruence")
    return WittDecomposition(
        witt_index=index,
        anisotropic_part=QuadraticForm(f, current),
        method=METHOD_WITNESS if not current else cert.method,
        basis=_columns([kernel._unpack(*col) for col in basis]),
        anisotropy_certificate=cert,
    )


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
    c1, d1, s1 = _local_data(c.value for c in q1.coeffs)
    c2, d2, s2 = _local_data(c.value for c in q2.coeffs)
    if d1 != d2 or q1.signature() != q2.signature():
        return False
    return all(_hasse(c1, p) == _hasse(c2, p) for p in {*s1, *s2})


def equivalent_with_witness(q1: QuadraticForm, q2: QuadraticForm, p) -> bool:
    """Exact check that p^T G1 p = G2 (works over any supported field), on
    packed integers: no Gram matrix of FieldElements is built."""
    if q1.field != q2.field:
        raise FieldMismatch("equivalence needs a common field")
    if q1.dim != q2.dim or len(p) != q1.dim:
        return False
    n, f = q1.dim, q1.field
    if any(len(row) != n for row in p):
        return False
    table = _gram_table(f, n, {(i, i): c for i, c in enumerate(q1.coeffs)})
    packed = [f.kernel.pack([f.element(x) for x in col]) for col in _columns(p)]
    return _gram_mismatch(f.kernel, table, packed, list(q2.coeffs)) is None


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
    return QuadraticForm(field, pfister_diagonal(field, slots))


def pfister_diagonal(field: Field, slots) -> list[FieldElement]:
    """The diagonal of <1,-s1> (x) ... (x) <1,-sk> by doubling: entry m is
    (-1)^|m| times the product of the slots at the bits of m; [1] for k = 0."""
    coeffs = [field.one()]
    for s in slots:
        coeffs = coeffs + [-(s * c) for c in coeffs]
    return coeffs
