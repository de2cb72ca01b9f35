"""Quadratic-form engine: diagonalization, local invariants, isotropy,
Witt decomposition and equivalence over Q, F_p and Q(sqrt(d)).

All forms are diagonal <a1,...,an> with nonzero coefficients, held as one
packed vector (Field.kernel).  Decisions are exact and every verdict carries
a certificate: an explicit witness vector for isotropy, or the
invariant/place data that rules a witness out.  Witnesses are constructed
(Legendre lattices and local-global splits, see the "constructive
witnesses" section), never searched for beyond a height-1 probe up to
dimension 9; the bounded search stays as an oracle.  Each field's rule
only decides (section "isotropy decisions"); is_isotropic alone builds the
witness and checks it once, on the packed coefficients of the form it
certifies, whatever the field.  Over Q(sqrt(d)) only the dim >= 5
real-place fragment is decided, with witnesses for rational coefficients;
everything else raises UnsupportedCase rather than guessing.

Over Q one local record answers every local question (section "the local
layer over Q"): each packed coefficient, reduced on its own, is split once
into its squarefree class and that class's primes, and the record holds,
at 2 and each of those primes, the coefficients' square classes (indices
whose product is an XOR), the determinant class and the Hasse bit, built
prime by prime as it is read.  The Hilbert symbol, local isotropy and the
classes a witness split may take are lookups in small tables keyed by the
kind of the prime, built on first use.  Decisions, Witt index, equivalence
and the witness route read the record; the witness route runs its
lattices on integers (integral LLL, and a Fincke-Pohst that stops at the
least zero, within a node budget), both written out for the three rows of
the Legendre lattice, the only lattice it meets.  hilbert_symbol and
hasse_invariant check their arguments first.

A Witt decomposition keeps its basis as packed columns of Field.kernel and
does the work of each hyperbolic split once, on packed integers and on the
witness support only (_split_step): the columns off the support pass
through, and the complement on the support is one closed form in the prefix
sums of a_i v_i^2: no Gauss elimination runs on the Witt path (diagonalize
keeps it for Gram matrices).  Every witness of is_isotropic is
support-minimal (no proper subset of its coordinates carries a zero), so
no prefix sum vanishes and each split takes one path.  The splits are not
checked one by one; each Witt report is proved once, by one exact
congruence of q with H^i + <anisotropic part> on its packed basis, and the
report's strings are read off the same packed columns.  The invariant
cross-check of that report over Q lives in `verify` and the tests.  Every
exact congruence check is one packed-integer predicate (_gram_mismatch)
on the map x -> G x: one elementwise product by the packed coefficient
vector for a diagonal form, one compiled linear table for diagonalize's
general Gram matrix, then dot products.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cache, partial

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
    _sign_a_plus_b_sqrt_d,
    is_prime,
    least_nonresidue,
    legendre,
    prime_factors,
    rational_sqrt,
    sqrt_mod_p,
)

INF = "inf"

METHOD_WITNESS = "explicit_witness"
METHOD_LOCAL = "local_invariants"
METHOD_REAL = "real_places"
METHOD_COUNT = "finite_field_count"


class QuadraticForm:
    """Diagonal quadratic form over one of the supported fields, held as
    the packed vector of its coefficients (fields.Field.kernel): every
    decision reads it, and `coeffs` unpacks it on first read."""

    __slots__ = ("field", "packed", "label", "_coeffs")

    def __init__(self, field: Field, coeffs, label: str | None = None):
        packed = field.kernel.pack(coeffs)
        if field.kernel._ZERO in packed[0]:
            raise InvalidInput("quadratic form coefficients must be nonzero")
        for name, value in zip(self.__slots__, (field, packed, label, None)):
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls, field: Field, packed, label: str | None = None) -> QuadraticForm:
        """The form on a packed vector of field whose entries are already
        nonzero: no coercion and no zero test."""
        q = object.__new__(cls)
        for name, value in zip(cls.__slots__, (field, packed, label, None)):
            object.__setattr__(q, name, value)
        return q

    def __setattr__(self, *a):
        raise AttributeError("QuadraticForm is immutable")

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        if self._coeffs is None:
            object.__setattr__(self, "_coeffs", self.field.kernel._unpack(*self.packed))
        return self._coeffs

    @property
    def dim(self) -> int:
        return len(self.packed[0])

    def __eq__(self, other):
        return (
            isinstance(other, QuadraticForm)
            and self.field == other.field
            and self.dim == other.dim
            and self.field.kernel.packed_eq(self.packed, other.packed)
        )

    def __hash__(self):  # over the least common denominator, whatever the one it is held over
        nums, den = self.field.kernel.packed_reduced(self.packed)
        return hash((self.field, tuple(nums), den))

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"<{','.join(self.field.kernel.packed_strings(*self.packed))}> over {self.field}{tag}"

    def evaluate(self, vec) -> FieldElement:
        """q(vec) = sum a_i x_i^2, summed on packed integers."""
        kernel = self.field.kernel
        x = kernel.pack(vec)
        if len(x[0]) != self.dim:
            raise InvalidInput(f"vector length {len(x[0])} != dim {self.dim}")
        return kernel._unpack(*kernel.packed_dot(self.packed, kernel.packed_times(x, x)))[0]

    def det_squareclass(self):
        """Canonical representative of the determinant square class (over
        Q the squarefree integer, from the split of each coefficient)."""
        k = self.field.kind
        if k == RATIONALS:
            return _local_data(_pairs(*self.packed))[0]
        if k == PRIME_FIELD:
            if legendre(math.prod(self.packed[0]), self.field.p) == 1:
                return 1
            return least_nonresidue(self.field.p)
        return math.prod(self.coeffs, start=self.field.one())  # QSqrt: the raw det, compared via is_square

    def signature(self) -> tuple[int, int]:
        """(positive, negative) coefficient counts over R; rationals only."""
        if self.field.kind != RATIONALS:
            raise UnsupportedField("signature() is the rationals entry point")
        pos = sum(1 for n in self.packed[0] if n > 0)
        return pos, self.dim - pos

    def signatures_all_places(self) -> list[tuple[int, int]]:
        """Signatures at each real embedding (1 for Q, 2 or 0 for Q(sqrt d)), from the packed numerators."""
        f, nums = self.field, self.packed[0]
        if f.kind == RATIONALS:
            return [self.signature()]
        if f.kind == PRIME_FIELD or f.d < 0:
            return []
        positive = [sum(1 for a, b in nums if _sign_a_plus_b_sqrt_d(a, s * b, f.d) > 0) for s in (1, -1)]
        return [(pos, self.dim - pos) for pos in positive]

    def neg(self) -> QuadraticForm:
        kernel, (nums, den) = self.field.kernel, self.packed
        return QuadraticForm._of(self.field, (kernel._reduce([kernel._times(v, -1) for v in nums]), den))

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "coeffs": self.field.kernel.packed_strings(*self.packed),
            **({"label": self.label} if self.label else {}),
        }


def _pairs(nums, den) -> list[tuple[int, int]]:
    """The reduced (numerator, denominator) of each entry n / den of a packed
    vector over Q: each coefficient keeps its own square class."""
    return [(n // (g := math.gcd(n, den)), den // g) for n in nums]


def _with_units(kernel, signs, u):
    """The packed vector (s_1, ..., s_k, u_1, ..., u_n) for integers s_i."""
    vals, den = u
    return kernel._reduce([kernel._times(kernel._ONE, s * den) for s in signs] + list(vals)), den


def form_from_json(obj: dict) -> QuadraticForm:
    from .fields import field_from_json, scalar_literals

    if not isinstance(obj, dict) or "coeffs" not in obj or "field" not in obj:
        raise InvalidInput(f"bad form descriptor: {obj!r}")
    return QuadraticForm(field_from_json(obj["field"]), scalar_literals(obj["coeffs"], "coeffs"), obj.get("label"))


@dataclass
class IsotropyResult:
    """Verdict with certificate for one isotropy decision over field: the
    witness, if any, is a packed vector of field.kernel; to_json writes it."""

    field: Field
    isotropic: bool
    method: str
    witness: tuple | None = None
    detail: dict = dc_field(default_factory=dict)

    def __bool__(self):
        return self.isotropic

    def to_json(self) -> dict:
        out = {"isotropic": self.isotropic, "method": self.method, "detail": self.detail}
        if self.witness is not None:
            out["witness"] = self.field.kernel.packed_strings(*self.witness)
        return out


@dataclass
class WittDecomposition:
    """q ~ index * <1,-1>  |  anisotropic_part, with the basis recorded.

    `columns` are the basis columns in original coordinates, packed vectors
    of the field's kernel, with T^T G T = diag(1,-1,...,1,-1, anisotropic
    coefficients) exactly for the matrix T they form.  The report's
    literals are read off them; `basis` unpacks T into rows of
    FieldElements for a caller that asks for it.
    """

    witt_index: int
    anisotropic_part: QuadraticForm
    method: str
    columns: list
    anisotropy_certificate: IsotropyResult | None = None

    @property
    def basis(self) -> list:
        unpack = self.anisotropic_part.field.kernel._unpack
        return _columns([unpack(*col) for col in self.columns])

    def to_json(self) -> dict:
        strings = self.anisotropic_part.field.kernel.packed_strings
        return {
            "index": self.witt_index,
            "anisotropic": strings(*self.anisotropic_part.packed),
            "method": self.method,
            "witness": [strings(*col) for col in self.columns],
        }


def _columns(matrix):
    return [list(col) for col in zip(*matrix)]


# --------------------------------------------------------------------------
# diagonalization
# --------------------------------------------------------------------------

def diagonalize(field: Field, rows):
    """Symmetric Gauss congruence: for the square symmetric matrix G of
    `rows` (entries read as elements of field) returns (QuadraticForm, P)
    with P^T G P diagonal equal to the form's coefficients, proved by one
    packed congruence check.  Raises InvalidInput when G is not square and
    symmetric, and DegenerateForm (with the radical's basis) when it is
    singular."""
    gram = [[field.element(x) for x in row] for row in rows]
    n = len(gram)
    if any(len(r) != n for r in gram):
        raise InvalidInput("Gram matrix must be square")
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i + 1, n)):
        raise InvalidInput("Gram matrix must be symmetric")
    if n == 0:
        return QuadraticForm(field, []), []
    zero, one = field.zero(), field.one()
    g, p = [r[:] for r in gram], [[one if i == j else zero for j in range(n)] for i in range(n)]

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
    kernel = field.kernel
    times = partial(kernel.packed_linear, kernel.linear_table(gram))
    mismatch = _gram_mismatch(kernel, times, [kernel.pack(col) for col in _columns(p)], kernel.pack(diag))
    if mismatch:
        raise InternalCheckFailed(f"congruence check failed: a wrong {mismatch} entry")
    return QuadraticForm(field, diag), p


def _gram_mismatch(kernel, times, cols, expected) -> str | None:
    """Whether the packed columns x_i satisfy x_i^T G x_j = diag(expected), a packed
    vector, for a symmetric G given as `times`, the map x -> G x on packed vectors
    (partial(kernel.packed_times, d) for G = diag(d) with d packed,
    partial(kernel.packed_linear, kernel.linear_table(G)) for any G),
    decided on packed integers: "off-diagonal" when some pair i < j is not
    orthogonal (tested first), "diagonal" when some x_i^T G x_i is not
    expected[i], else None.  G x_i is formed once per column, and each
    entry is its dot product with x_j."""
    forms = [times(x) for x in cols]
    dot, zero = kernel.packed_dot, kernel.packed_is_zero
    if any(not zero(dot(u, y)) for i, u in enumerate(forms) for y in cols[i + 1:]):
        return "off-diagonal"
    values, den = expected
    if not all(kernel.packed_eq(dot(u, x), ([v], den)) for u, x, v in zip(forms, cols, values)):
        return "diagonal"
    return None


# --------------------------------------------------------------------------
# the local layer over Q: square classes and their tables
#
# Each coefficient is split once into its squarefree class s and the
# primes of s (_square_split, one lookup of the cached factors of its
# numerator and of its denominator).  At a prime p a nonzero rational has
# one of 8 (p = 2) or 4 (p odd) square classes, held as an index whose bits
# multiply by XOR: bit 0 the parity of the valuation, bit 1 the unit's
# Legendre symbol (-1 sets it) at odd p, or u = 3 mod 4 at 2, and bit 2 u =
# +-3 mod 8 at 2 (_square_class).  A form's local record {p: (classes, d,
# e)}, the class indices, determinant class and Hasse bit at p, is built
# prime by prime, in increasing order and only as far as it is read
# (_local_data, _record), over S = {2} + the primes of the classes: at an odd
# prime off S every class is a unit and e = 0, so the form is isotropic
# there for n >= 3 and has the generic local Witt index.  The Hilbert
# symbol, local isotropy and the classes a split may take are lookups in
# small tables keyed by the kind of the prime (2, 1 mod 4 or 3 mod 4) and
# the classes, built on first use (_local_tables, _split_classes), for the
# decisions, the Witt index, equivalence and the witness route alike
# (Serre, A Course in Arithmetic, ch. III-IV).  The public wrappers check
# their arguments; only a place that the caller supplies is tested for
# primality.
# --------------------------------------------------------------------------

def _square_split(num: int, den: int) -> tuple[int, int, int, list[int]]:
    """num / den = s * (top / bottom)^2 for a nonzero reduced fraction (den >
    0), with s a squarefree integer of its sign and top, bottom coprime
    positive integers (bottom = 1 when den is 1), and the primes of s."""
    s, top, bottom, primes = (-1 if num < 0 else 1), 1, 1, []
    for p, e in prime_factors(num).items():
        top *= p ** (e // 2)
        if e % 2:
            s *= p
            primes.append(p)
    for p, e in prime_factors(den).items():
        bottom *= p ** ((e + 1) // 2)
        if e % 2:
            s *= p
            primes.append(p)
    return s, top, bottom, primes


def _local_data(pairs):
    """The squarefree class of the product of nonzero reduced fractions
    (num, den), and their local record (_record, read lazily) over S = {2}
    + the primes of their squarefree classes."""
    classes, det, places = [], 1, {2}
    for num, den in pairs:
        s, _, _, primes = _square_split(num, den)
        g = math.gcd(det, s)
        classes.append(s)
        det = det * s // (g * g)
        places.update(primes)
    return det, _record(places, lambda p: [_square_class(s, p) for s in classes])


def _square_class(t: int, p: int) -> int:
    """The index of the square class of the nonzero integer t in Q_p: 0
    exactly when t is a square, and the index of a product is the XOR of
    the indices."""
    v = 0
    while t % p == 0:
        t //= p
        v += 1
    if p == 2:  # bit 1: t = 3 mod 4; bit 2: t = 3 or 5 mod 8
        return (v & 1) | (t & 2) | ((t + 2) & 4)
    return (v & 1) | (2 if legendre(t, p) < 0 else 0)


@cache
def _local_tables(kind: int):
    """(hilbert, minus_one, isotropic) for the primes p of one kind, kind =
    p & 3 (2 for p = 2, else p mod 4), built on first use from the closed
    forms of the Hilbert symbol (Serre, ch. III, thm. 1):
    hilbert[x][y] is 1 when (x, y)_p = -1, for class indices x and y;
    minus_one is the class of -1; isotropic[n][d][e] says whether a form
    of rank n (5 standing for n >= 5) with determinant class d and Hasse
    invariant (-1)^e is isotropic over Q_p (ch. IV, thm. 6)."""
    size = 8 if kind == 2 else 4
    if kind == 2:  # (-1)^(eps(u) eps(v) + alpha omega(v) + beta omega(u)); -1 = 7 mod 8 has eps 1, omega 0
        hilbert = [[(x >> 1 & y >> 1 & 1) ^ (x & y >> 2 & 1) ^ (y & x >> 2 & 1) for y in range(size)] for x in range(size)]
        minus_one = 2
    else:  # (-1)^(alpha beta eps(p)) (u/p)^beta (v/p)^alpha
        sign = kind >> 1  # eps(p) = (p - 1) / 2 mod 2
        hilbert = [[(x & y & sign) ^ (x >> 1 & y) ^ (y >> 1 & x) for y in range(size)] for x in range(size)]
        minus_one = 2 * sign
    table = [[[False, False] for _ in range(size)] for _ in range(6)]
    for d in range(size):
        for e in (0, 1):
            table[2][d][e] = d == minus_one  # -det is a square
            table[3][d][e] = hilbert[minus_one][d ^ minus_one] == e  # (-1, -det) = eps
            table[4][d][e] = d != 0 or e != hilbert[minus_one][minus_one] ^ 1  # not (det = 1 and eps = -(-1, -1))
            table[5][d][e] = True
    return hilbert, minus_one, table


def _hasse_data(hilbert, classes) -> tuple[int, int]:
    """(the class of the determinant, e) for the Hasse invariant (-1)^e =
    prod_{i<j} (a_i, a_j) (the i<j convention, fixed) of the classes:
    prod_j (a_1 ... a_{j-1}, a_j), one lookup a coefficient."""
    det = e = 0
    for c in classes:
        e ^= hilbert[det][c]
        det ^= c
    return det, e


def _record(places, classes_at):
    """The local record of a form at its places, prime by prime in
    increasing order: the pairs (p, (classes, d, e)), for the class indices
    classes = classes_at(p) of its coefficients at p, d the class of the
    determinant there and (-1)^e the Hasse invariant (_hasse_data).  Each
    prime is built as it is read, so a reader that stops at one prime pays
    for none after it; dict() of it is the whole record {p: (classes, d, e)}."""
    for p in sorted(places):
        classes = classes_at(p)
        yield p, (classes, *_hasse_data(_local_tables(p & 3)[0], classes))


def hilbert_symbol(a: FieldElement, b: FieldElement, place) -> int:
    """(a,b)_place for nonzero rationals; place is "inf" or a prime int."""
    if a.field.kind != RATIONALS or b.field.kind != RATIONALS:
        raise UnsupportedField("Hilbert symbols are implemented over Q only")
    if a.is_zero() or b.is_zero():
        raise InvalidInput("hilbert symbol needs nonzero entries")
    return hasse_invariant(QuadraticForm(a.field, [a, b]), place)


def hasse_invariant(q: QuadraticForm, place) -> int:
    """prod_{i<j} (a_i, a_j)_place  (the i<j convention, fixed); a place
    other than "inf" or an int that is_prime proves prime raises InvalidInput."""
    if q.field.kind != RATIONALS:
        raise UnsupportedField("Hasse invariants are implemented over Q only")
    if place != INF and (type(place) is not int or not is_prime(place)):
        raise InvalidInput(f"place must be a prime or 'inf', got {place!r}")
    if place == INF:  # (a, b)_inf = -1 exactly when a, b < 0
        neg = q.dim - q.signature()[0]
        return -1 if neg * (neg - 1) // 2 % 2 else 1
    # the record's entry at p needs only the classes there, and n/d and n*d
    # share a square class: no coefficient is factored
    [(_, (_, _, e))] = _record([place], lambda p: [_square_class(n * d, p) for n, d in _pairs(*q.packed)])
    return -1 if e else 1


def _obstruction(pairs):
    """Hasse-Minkowski over Q for three or more nonzero rational
    coefficients, reduced pairs (num, den): None when the form is isotropic,
    else (method, detail) for the place that rules a zero out.  That is the
    real place when the form is definite, else (dims 3 and 4; Meyer covers
    the rest) the first prime of S at which it is anisotropic: the record
    is built up to that prime and no further."""
    n = len(pairs)
    pos = sum(1 for x, _ in pairs if x > 0)
    if pos in (0, n):
        return METHOD_REAL, {"signature": [pos, n - pos], "place": INF}
    if n >= 5:
        return None
    det, record = _local_data(pairs)
    for p, (_, d, e) in record:
        if not _local_tables(p & 3)[2][n][d][e]:
            return METHOD_LOCAL, {"place": p, "det_squareclass": det, "hasse": -1 if e else 1}
    return None


def witt_index_by_invariants(q: QuadraticForm) -> int:
    """Witt index over Q from signatures and local invariants only
    (min over all places of the local Witt indices)."""
    if q.field.kind != RATIONALS:
        raise UnsupportedField("invariant-based Witt index is a Q-only route")
    n = q.dim
    best = min(q.signature())
    det, record = _local_data(_pairs(*q.packed))
    for p, (_, d, e) in record:
        hilbert, minus_one, isotropic = _local_tables(p & 3)
        m, count = n, 0
        while m > 0 and isotropic[min(m, 5)][d][e]:  # split off a plane: q = H + q', d' = -d, e' = e + (-1, d')
            m, d, count = m - 2, d ^ minus_one, count + 1
            e ^= hilbert[minus_one][d]
        best = min(best, count)
        if best == 0:
            return 0
    # the odd primes off S, where every class is a unit: the generic local index
    if n % 2:
        return min(best, (n - 1) // 2)
    return min(best, n // 2 if (-1) ** (n // 2) * det == 1 else (n - 2) // 2)


# --------------------------------------------------------------------------
# bounded search: the public oracle, and the height-1 probe of the witnesses
# --------------------------------------------------------------------------

_ENUM_CAP = 4_000_000


def _integerize(pairs) -> list[int]:
    """Scale rational coefficients, reduced pairs (num, den), to integers (same zero set)."""
    lcm = math.lcm(*(d for _, d in pairs))
    return [n * (lcm // d) for n, d in pairs]


def _search_integer(coeffs: list[int], bound: int):
    """Meet-in-the-middle over 0..bound per coordinate (signs never matter
    for a diagonal form).  Returns a nonzero integer witness or None.  The
    first half keeps only its values, in product order (the last coordinate
    fastest), and a set of them; a hit reads back the first vector of its
    value from that value's index.  Value 0 reads the zero vector, so a
    zero supported on the first half alone is looked for only when no other
    zero is found."""
    n = len(coeffs)
    h1, h2 = coeffs[:(n + 1) // 2], coeffs[(n + 1) // 2:]
    if (bound + 1) ** len(h1) > _ENUM_CAP:
        raise SearchSpaceTooLarge(f"bound {bound} with dim {n}")
    sq = [x * x for x in range(bound + 1)]

    def values(half):  # sum c x^2 over the vectors of half, in product order
        out = [0]
        for c in half:
            scaled = [c * s for s in sq]
            out = [v + t for v in out for t in scaled]
        return out

    def vector(index, size):  # the index-th vector of product order: its base bound + 1 digits
        return [index // (bound + 1) ** k % (bound + 1) for k in reversed(range(size))]

    firsts = values(h1)
    seen = set(firsts)
    for j, val in enumerate(values(h2)):
        if j and -val in seen:  # j = 0 is the zero vector, of value 0
            return vector(firsts.index(-val), len(h1)) + vector(j, len(h2))
    if firsts.count(0) == 1:
        return None
    return vector(firsts.index(0, 1), len(h1)) + [0] * len(h2)


def _fp_witness(q: QuadraticForm):
    """Deterministic nonzero isotropic vector over F_p, packed residues, of
    a form of dim >= 2; is_isotropic checks it.

    dim >= 3 always succeeds (fix tail = (1,0,..), solve the binary equation
    a1 x^2 + a2 y^2 = m by sweeping x); dim 2 is an exact square test, None
    when it fails.
    """
    p = q.field.p
    a = q.packed[0]  # the residues
    n = q.dim
    if n == 2:
        r = sqrt_mod_p(-a[1] * pow(a[0], -1, p) % p, p)
        return None if r is None else ([r, 1], 1)
    m = (-a[2]) % p
    for x in range(p):
        rhs = (m - a[0] * x * x) % p
        y = sqrt_mod_p(rhs * pow(a[1], -1, p) % p, p)
        if y is not None:
            return [x, y, 1] + [0] * (n - 3), 1
    raise InternalCheckFailed("binary F_p equation had no solution")


def isotropic_vector_search(q: QuadraticForm, height_bound: int):
    """Bounded witness search; None is NOT an anisotropy proof over Q.
    An oracle for tests and `verify`: the certificates are constructed."""
    k = q.field.kind
    if k == RATIONALS:
        ints = _integerize(_pairs(*q.packed))
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
                if sum(c * x * x for c, x in zip(q.packed[0], xs)) % p == 0:
                    return tuple(f.element(x) for x in xs)
            return None
        w = is_isotropic(q).witness
        return None if w is None else q.field.kernel._unpack(*w)
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


def _q_witness(pairs) -> list[int]:
    """Nonzero integer zero of an isotropic form with rational coefficients,
    reduced pairs (num, den): the fixed height-1 probe up to dimension 9
    (the largest of any fixture; its table has 2^ceil(n/2) entries), then
    the construction on each coefficient's own square class; is_isotropic
    checks it on the form it certifies.  The probe stays because it is
    the cheapest route to a height-1 zero of support 3 to 5, as of <-3, 6,
    5, 2, -4>: without it, such forms go through the Legendre lattice at 6
    to 8 times the bytecodes, and over the frozen output corpora the
    `witt_panel` median rises 3.9% and its p90 27%."""
    ints = _integerize(pairs)
    vec = _search_integer(ints, 1) if len(ints) <= 9 else None
    return _solve(pairs) if vec is None else vec


def _solve(pairs) -> list[int]:
    """a_i = s_i m_i^2 for nonzero rationals a_i, reduced pairs (num, den),
    and m_i = top_i / bottom_i: a zero y of <s_i> gives the zero
    x_i = y_i M / m_i, M = lcm of the top_i."""
    split = [_square_split(n, d) for n, d in pairs]
    y = _solve_sqf([s for s, _, _, _ in split], [primes for _, _, _, primes in split])
    big = math.lcm(*(top for _, top, _, _ in split))
    return _primitive([v * bottom * (big // top) for v, (_, top, bottom, _) in zip(y, split)])


def _solve_sqf(s: list[int], primes: list[list[int]]) -> list[int]:
    """Zero of an isotropic form with squarefree coefficients s (and the
    primes of each), supported on as few and as small coefficients as the
    local tests allow.  Its local record is built once; a 3- or 4-dim
    subform's is read off it at 2 and the primes of the subform's
    coefficients (at any other odd prime it is isotropic)."""
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
        return _pad(n, idx, _solve_sqf([s[i] for i in idx], [primes[i] for i in idx]))
    record = dict(_record({2}.union(*primes), lambda p: [_square_class(x, p) for x in s]))
    for size in range(3, n):
        for idx in sorted(itertools.combinations(range(n), size), key=lambda c: sorted(abs(s[i]) for i in c)):
            sub = [s[i] for i in idx]
            if _definite(sub):
                continue
            places = {}  # the subform's record, up to its first anisotropic prime
            for p, (classes, d, e) in _record({2}.union(*(primes[i] for i in idx)), lambda p: [record[p][0][i] for i in idx]):
                if not _local_tables(p & 3)[2][size][d][e]:
                    break
                places[p] = classes, d, e
            else:
                # a 4-subform has no isotropic 3-subform: those came first
                return _pad(n, idx, _ternary(*sub) if size == 3 else _split_solve(sub, places))
    return _split_solve(s, record)


def _meyer_indices(s: list[int]) -> list[int]:
    """An indefinite 5-dim subform, isotropic by Meyer's theorem: the five
    smallest coefficients, the last swapped for the smallest of the other
    sign when all five share one."""
    order = sorted(range(len(s)), key=lambda i: (abs(s[i]), i))
    pick = order[:5]
    if _definite([s[i] for i in pick]):
        pick[-1] = next(i for i in order if (s[i] > 0) != (s[pick[0]] > 0))
    return sorted(pick)


@cache
def _split_classes(kind: int, da: int, ea: int, dr: int, er: int, rank: int) -> frozenset[int]:
    """The classes c at a prime of this kind for which <a1,a2,-c> and rest
    + <c> are both isotropic, for (det class, Hasse exponent) (da, ea) of
    <a1,a2> and (dr, er) of rest, of the given rank; one table entry, built
    on first use.  eps(f + <c>) = eps(f) (det f, c)_p."""
    hilbert, minus_one, isotropic = _local_tables(kind)
    three, other = isotropic[3], isotropic[min(rank + 1, 5)]
    return frozenset(
        c for c in range(len(hilbert))
        if three[minus_one ^ da ^ c][ea ^ hilbert[da][minus_one ^ c]] and other[dr ^ c][er ^ hilbert[dr][c]]
    )


def _split_plan(record, pair, rest):
    """For q = <a1,a2> + rest with a = the coefficients at the indices pair
    and rest at the indices rest, and q's local record over the primes of S
    (_record): the square classes of t allowed at each prime of S, for
    which <a1,a2,-t> and rest + <t> are both isotropic over Q_p (a lookup
    in _split_classes), the product of the primes of S that must divide t
    to an odd power, and the ratio of that product to the share of the
    classes allowed, the size of t that the plan promises.  The rest's data
    follow from q's: eps(q) = eps(a) eps(rest) (det a, det rest)_p."""
    allowed, forced, sizes, counts = {}, 1, 1, 1
    for p, (classes, d, e) in record.items():
        hilbert = _local_tables(p & 3)[0]
        da, ea = _hasse_data(hilbert, [classes[i] for i in pair])
        dr = d ^ da
        allowed[p] = ok = _split_classes(p & 3, da, ea, dr, e ^ ea ^ hilbert[da][dr], len(rest))
        if not ok:
            raise InternalCheckFailed(f"the split {pair} + {rest} has no common value at {p}")
        if all(c & 1 for c in ok):
            forced *= p
        sizes, counts = sizes * len(hilbert), counts * len(ok)
    return Fraction(forced * sizes, counts), allowed, forced


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
            if any(_square_class(t, p) not in classes for p, classes in allowed.items()):
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


def _split_solve(s: list[int], record) -> list[int]:
    """q = <a1,a2> + rest (dim 4 or 5, with its local record), over the
    pair whose allowed classes promise the smallest t: with t from
    _split_value, zeros (x1, x2, u) of <a1,a2,-t> and (y, w) of rest + <t>
    glue to (w x1, w x2, u y).  u = 0 would need a2 = -a1 and w = 0 an
    isotropic rest, and _solve_sqf returns both cases before it gets here;
    is_isotropic checks the glued zero on the form it certifies."""
    n = len(s)
    plans = []
    for pair in itertools.combinations(range(n), 2):
        rest = [i for i in range(n) if i not in pair]
        plans.append((_split_plan(record, pair, rest), pair, rest))
    (_, allowed, forced), pair, rest = min(plans, key=lambda plan: plan[0][0])
    a, r = [s[i] for i in pair], [s[i] for i in rest]
    t = _split_value(a, r, allowed, forced)
    x = _solve([(v, 1) for v in a + [-t]])
    y = _solve([(v, 1) for v in r + [t]])
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
    which is searched over an LLL-reduced basis (_least_zero).  A vector
    with q = m gives the zero (xz - by, ax + yz, z^2 + ab), because
    (a x^2 + b y^2)(z^2 + ab) = a(xz - by)^2 + b(ax + yz)^2."""
    n, m = -c, -a * b * c
    ra = _sqrt_mod(n * pow(b, -1, a), a)
    rb = _sqrt_mod(-a * pow(c, -1, b), b)
    rc = _sqrt_mod(-b * pow(a, -1, n), n)
    # x2 = rc a mod |c|, 0 mod b and x3 = rc ra mod |c|, 1/rb mod b, each
    # by one CRT step over the inverse of |c| mod b
    inv, r2, r3 = pow(n, -1, b), rc * a % n, rc * ra % n
    x2 = r2 + n * (-r2 * inv % b)
    x3 = r3 + n * ((pow(rb, -1, b) - r3) * inv % b)
    found = _least_zero(*_lll(((b * n, 0, 0), (x2, a, 0), (x3, ra, 1)), (a, b, n)), (a, b, c), m, 3 * m)
    if found is None:
        raise InternalCheckFailed(f"no zero of <{a},{b},{c}> in its Legendre lattice")
    x, y, z = found
    if a * x * x + b * y * y + c * z * z:  # q = m
        return [x * z - b * y, a * x + y * z, z * z + a * b]
    return found


def _sqrt_mod(x: int, n: int) -> int:
    """A square root of x modulo the squarefree n > 0 (CRT over its primes)."""
    root, big = 0, 1
    for p in prime_factors(n):
        r = x % 2 if p == 2 else sqrt_mod_p(x, p)
        if r is None:
            raise InternalCheckFailed(f"ternary form is anisotropic at {p}")
        root += big * ((r - root) * pow(big, -1, p) % p)
        big *= p
    return root % big


def _nearest(num: int, den: int) -> int:
    """num / den rounded half to even, for den > 0."""
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    return q


def _lll(basis, weights):
    """LLL reduction (delta = 3/4) of three integer rows for sum w_i u_i v_i,
    on integers (Cohen, A Course in Computational Algebraic Number Theory,
    alg. 2.6.7), written out for its one dimension: d_i is the Gram
    determinant of the first i rows and l_ij = d_{j+1} mu_ij.  Row k is
    size-reduced from row k-1 down, mu rounded half to even, before the
    Lovasz test; a swap goes back to k = 1.  Returns (rows, lam, d) as
    lists, lam[i][j] = l_ij."""
    w0, w1, w2 = weights
    b0, b1, b2 = basis
    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = b0, b1, b2
    d1 = w0 * x0 * x0 + w1 * x1 * x1 + w2 * x2 * x2
    l10 = w0 * y0 * x0 + w1 * y1 * x1 + w2 * y2 * x2
    l20 = w0 * z0 * x0 + w1 * z1 * x1 + w2 * z2 * x2
    d2 = d1 * (w0 * y0 * y0 + w1 * y1 * y1 + w2 * y2 * y2) - l10 * l10
    l21 = d1 * (w0 * z0 * y0 + w1 * z1 * y1 + w2 * z2 * y2) - l20 * l10
    d3 = (d2 * (d1 * (w0 * z0 * z0 + w1 * z1 * z1 + w2 * z2 * z2) - l20 * l20) - l21 * l21) // d1
    while True:
        # k = 1
        q = _nearest(l10, d1)
        if q:
            b1 = (b1[0] - q * b0[0], b1[1] - q * b0[1], b1[2] - q * b0[2])
            l10 -= q * d1
        if 4 * d2 < 3 * d1 * d1 - 4 * l10 * l10:
            b0, b1 = b1, b0
            big = (d2 + l10 * l10) // d1
            t = l21
            l21 = (d2 * l20 - l10 * t) // d1
            l20 = (big * t + l10 * l21) // d2
            d1 = big
            continue
        # k = 2
        q = _nearest(l21, d2)
        if q:
            b2 = (b2[0] - q * b1[0], b2[1] - q * b1[1], b2[2] - q * b1[2])
            l20 -= q * l10
            l21 -= q * d2
        q = _nearest(l20, d1)
        if q:
            b2 = (b2[0] - q * b0[0], b2[1] - q * b0[1], b2[2] - q * b0[2])
            l20 -= q * d1
        if 4 * d3 * d1 >= 3 * d2 * d2 - 4 * l21 * l21:
            break
        b1, b2 = b2, b1
        l10, l20 = l20, l10
        d2 = (d1 * d3 + l21 * l21) // d2
    return [list(b0), list(b1), list(b2)], [[0, 0, 0], [l10, 0, 0], [l20, l21, 0]], [1, d1, d2, d3]


# Fincke-Pohst nodes _least_zero may visit for one lattice: 31 is the most
# any test, golden, `verify --seed 1729` or bench workload (seeds 1-10) needs
_LATTICE_NODE_BUDGET = 10_000


def _least_zero(b, lam, d, coeffs, m: int, bound: int) -> list[int] | None:
    """Among the nonzero vectors v of the lattice with three rows b (integer
    Gram-Schmidt data lam, d as from _lll for the weights |c_i|) whose
    weighted norm sum |c_i| v_i^2 is at most bound: the least (norm, v) with
    q(v) = sum c_i v_i^2 = 0, or when there is none the least with q(v) =
    m, or None.  Fincke-Pohst on integers, as branch and bound: the norm of
    sum x_i b_i is sum N_i y_i^2 with N_i = d[i+1]/d[i] and y_i = x_i +
    sum_{j>i} mu_ji x_j, mu_ji = lam[j][i]/d[i+1], and with D = lcm(d[1], d[2])
    the partial norms sum_{j>=i} (D N_j) (D y_j)^2 are integers, compared
    with D^3 times the bound.  Three nested loops, over x_2, x_1 and x_0,
    each run outward from its centre, so the partial norms grow and the
    first one past the bound ends the loop.  The bound starts at the least
    LLL row that is a zero, and drops to the norm of each better zero found:
    no node whose partial norm passes the best zero so far is entered.  Past
    _LATTICE_NODE_BUDGET nodes it raises InputTooLarge."""
    (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = b
    c0, c1, c2 = coeffs
    w0, w1, w2 = abs(c0), abs(c1), abs(c2)
    d1, d2, d3 = d[1], d[2], d[3]
    den = math.lcm(d1, d2)
    f1, f2 = den // d1, den // d2
    mu10, mu20, mu21 = lam[1][0] * f1, lam[2][0] * f1, lam[2][1] * f2
    n0, n1, n2 = d1 * den, d2 * f1, d3 * f2  # D N_i
    zero = fallback = None  # the least (norm, v) so far with q = 0, and with q = m
    for row in b:
        for v in (tuple(row), tuple(-x for x in row)):
            norm = w0 * v[0] * v[0] + w1 * v[1] * v[1] + w2 * v[2] * v[2]
            if norm <= bound and not c0 * v[0] * v[0] + c1 * v[1] * v[1] + c2 * v[2] * v[2] and (zero is None or (norm, v) < zero):
                zero = norm, v
    cube, two = den ** 3, 2 * den
    limit = cube * (bound if zero is None else zero[0])
    nodes, budget = 0, _LATTICE_NODE_BUDGET
    # each loop: t = D y_i = D x_i + centre at x = up (t_up) and x = down (t_down), the
    # nearest to -centre / D first; the one of smaller |t| is taken and moved out
    up2, t_up2, down2, t_down2 = 0, 0, -1, -den
    while True:
        if t_up2 * t_up2 <= t_down2 * t_down2:
            x2, t, up2, t_up2 = up2, t_up2, up2 + 1, t_up2 + den
        else:
            x2, t, down2, t_down2 = down2, t_down2, down2 - 1, t_down2 - den
        part2 = n2 * t * t
        if part2 > limit:
            break
        nodes += 1
        if nodes > budget:
            raise _too_many_nodes(coeffs)
        centre = mu21 * x2
        up1 = (den - 2 * centre) // two
        down1, t_up1 = up1 - 1, den * up1 + centre
        t_down1 = t_up1 - den
        while True:
            if t_up1 * t_up1 <= t_down1 * t_down1:
                x1, t, up1, t_up1 = up1, t_up1, up1 + 1, t_up1 + den
            else:
                x1, t, down1, t_down1 = down1, t_down1, down1 - 1, t_down1 - den
            part1 = part2 + n1 * t * t
            if part1 > limit:
                break
            nodes += 1
            if nodes > budget:
                raise _too_many_nodes(coeffs)
            centre = mu10 * x1 + mu20 * x2
            up0 = (den - 2 * centre) // two
            down0, t_up0 = up0 - 1, den * up0 + centre
            t_down0 = t_up0 - den
            # the leaf x0 b0 + x1 b1 + x2 b2, less its x0 b0
            e0, e1, e2 = x1 * q0 + x2 * r0, x1 * q1 + x2 * r1, x1 * q2 + x2 * r2
            while True:
                if t_up0 * t_up0 <= t_down0 * t_down0:
                    x0, t, up0, t_up0 = up0, t_up0, up0 + 1, t_up0 + den
                else:
                    x0, t, down0, t_down0 = down0, t_down0, down0 - 1, t_down0 - den
                if part1 + n0 * t * t > limit:
                    break
                nodes += 1
                if nodes > budget:
                    raise _too_many_nodes(coeffs)
                v0, v1, v2 = x0 * p0 + e0, x0 * p1 + e1, x0 * p2 + e2
                if not (v0 or v1 or v2):
                    continue
                s0, s1, s2 = v0 * v0, v1 * v1, v2 * v2
                cand = w0 * s0 + w1 * s1 + w2 * s2, (v0, v1, v2)
                value = c0 * s0 + c1 * s1 + c2 * s2
                if value == 0 and (zero is None or cand < zero):
                    zero, limit = cand, cube * cand[0]
                elif value == m and zero is None and (fallback is None or cand < fallback):
                    fallback = cand
    best = zero or fallback
    return None if best is None else list(best[1])


def _too_many_nodes(coeffs) -> InputTooLarge:
    return InputTooLarge(
        f"Fincke-Pohst search of the Legendre lattice of <{','.join(map(str, coeffs))}>: "
        f"more than {_LATTICE_NODE_BUDGET} nodes"
    )


def _qsqrt_witness(q: QuadraticForm):
    """Packed zero over Q(sqrt d) of a form with rational coefficients: the
    Q zero when q is indefinite over Q; otherwise (d < 0) a zero (s, x2,
    ...) of <d a1, a2, ...> over Q, which is indefinite of dim >= 5, gives
    (s sqrt d, x2, ...), read off the packed pairs.  None when a coefficient is irrational."""
    nums, den = q.packed
    if any(b for _, b in nums):
        return None
    pairs = _pairs([a for a, _ in nums], den)
    if not _definite([a for a, _ in pairs]):
        return [(x, 0) for x in _q_witness(pairs)], 1
    (a, b), *rest = pairs
    s, *vec = _q_witness([_pairs([q.field.d * a], b)[0]] + rest)
    return [(0, s)] + [(x, 0) for x in vec], 1


# --------------------------------------------------------------------------
# isotropy decisions
# --------------------------------------------------------------------------

def is_isotropic(q: QuadraticForm, want_witness: bool = True) -> IsotropyResult:
    """Exact isotropy decision with certificate.

    F_p: Chevalley for dim >= 3, square test for dim 2.
    Q: Hasse-Minkowski through Hilbert symbols; Meyer for dim >= 5.
    Q(sqrt d): the dim >= 5 real-place rule; anything else raises.

    Each field's rule only decides: it returns (isotropic, the method of a
    verdict without a witness, detail, witness), the witness None, a packed
    vector (a binary form's, built by the square root that decides) or a
    builder, which this gate alone calls, when want_witness is set.  Over
    Q(sqrt d) the builder gives None for an irrational coefficient, and the
    verdict stands without a witness.
    Every witness is checked here, once, on q's packed coefficients:
    nonzero and q(w) = 0 exactly, else InternalCheckFailed.
    """
    if not q.dim:
        isotropic, method, detail, witness = False, METHOD_LOCAL, {"reason": "empty form"}, None
    else:
        k = q.field.kind
        rule = _is_isotropic_fp if k == PRIME_FIELD else _is_isotropic_q if k == RATIONALS else _is_isotropic_qsqrt
        isotropic, method, detail, witness = rule(q)
    if callable(witness):
        witness = witness() if want_witness else None
    if witness is not None:
        kernel = q.field.kernel
        value = kernel.packed_dot(q.packed, kernel.packed_times(witness, witness))
        if kernel.packed_is_zero(witness) or not kernel.packed_is_zero(value):
            raise InternalCheckFailed(f"constructed vector is not a zero of the form {q}")
        method = METHOD_WITNESS
    return IsotropyResult(q.field, isotropic, method, witness=witness, detail=detail)


def _is_isotropic_fp(q: QuadraticForm):
    n = q.dim
    if n == 1:
        return False, METHOD_COUNT, {"reason": "dim 1 regular"}, None
    if n == 2:
        # one square root of -a2/a1 decides and builds the witness (x, 1)
        w = _fp_witness(q)
        if w is None:
            return False, METHOD_COUNT, {"reason": "-a1*a2 is a nonresidue", "p": q.field.p}, None
        return True, METHOD_COUNT, {}, w
    return True, METHOD_COUNT, {"reason": "dim >= 3 over a finite field"}, partial(_fp_witness, q)


def _is_isotropic_q(q: QuadraticForm):
    n, pairs = q.dim, _pairs(*q.packed)
    if n == 1:
        return False, METHOD_LOCAL, {"reason": "dim 1 regular"}, None
    if n == 2:
        # q(x, 1) = a1 x^2 + a2 = 0  <=>  x^2 = -a2/a1 (a square iff -a1 a2 is)
        (n1, d1), (n2, d2) = pairs
        x = rational_sqrt(Fraction(-n2 * d1, d2 * n1))
        if x is None:
            return False, METHOD_LOCAL, {"reason": "-det is not a square"}, None
        return True, METHOD_LOCAL, {}, ([x.numerator, x.denominator], x.denominator)
    found = _obstruction(pairs)
    if found:
        return False, *found, None
    reason = "indefinite of dim >= 5 (Meyer)" if n >= 5 else "isotropic at every place (Hasse-Minkowski)"
    return True, METHOD_LOCAL, {"reason": reason}, lambda: (_q_witness(pairs), 1)


def _is_isotropic_qsqrt(q: QuadraticForm):
    n = q.dim
    if n < 5:
        raise UnsupportedCase(
            f"isotropy over {q.field} is only decided for dim >= 5 (got dim {n})"
        )
    for place, (pos, neg) in enumerate(q.signatures_all_places()):  # none when d < 0
        if pos == 0 or neg == 0:
            return False, METHOD_REAL, {"real_place": place, "signature": [pos, neg]}, None
    places = "no real places" if q.field.d < 0 else "indefinite at every real place"
    return True, METHOD_REAL, {"reason": f"{places}, dim >= 5"}, partial(_qsqrt_witness, q)


# --------------------------------------------------------------------------
# Witt decomposition
# --------------------------------------------------------------------------

def _split_step(kernel, current, witness):
    """One hyperbolic split in the current diagonal coordinates <a_i> (the packed
    vector current of kernel), in closed form on the support S = (s0, s1, ...,
    s_{m-1}) of the packed witness v.

    Returns (S, u1, u2, cols, comp).  u1, u2 span the plane of the witness
    with q(u1)=1, q(u2)=-1, B(u1,u2)=0: with t = a_s0 v_s0^2 they are
    diag(t+1, t-1, ..., t-1) v / 2t and diag(t-1, t+1, ..., t+1) v / 2t.
    cols diagonalize q on the orthogonal complement, with the coefficients
    comp, a packed vector with one entry per coordinate other than s0, s1,
    in coordinate order; a coordinate off S passes through (None in cols,
    its own coefficient).
    With c_i = a_si v_si^2 and P_p = c_1 + ... + c_p, the column of s_p
    (2 <= p < m) is e_sp - (a_sp v_sp / P_{p-1}) sum_{1<=i<p} v_si e_si, of
    value a_sp P_p / P_{p-1}: the unit-triangular LDL^T of the n_k = e_k -
    (a_k v_k / a_s1 v_s1) e_s1, whose Gram matrix is diagonal plus rank one
    (Gill, Golub, Murray and Saunders, Math. Comp. 28, 1974).  P_{m-1} =
    -c_0, and no P_p with p <= m - 2 vanishes: that would make v on
    s1..s_p a zero of smaller support, and every witness of is_isotropic
    is support-minimal (the height-1 probe keeps the first vector of each
    value, the construction returns a zero of the smallest isotropic
    subform it finds, and F_p witnesses have support <= 3).  A vanishing
    prefix sum raises InternalCheckFailed.  Unchecked otherwise:
    witt_decompose proves the whole basis once.  u1, u2 and the columns
    are packed vectors of Field.kernel on S, in the order of S.
    """
    mul, add, times, zero = kernel._mul, kernel._add, kernel._times, kernel._ZERO
    (cvals, cden), (wvals, xden) = current, witness
    support = [i for i, x in enumerate(wvals) if x != zero]
    m = len(support)
    xvals = [wvals[i] for i in support]
    den = math.lcm(cden, xden)  # the coefficients a and the witness x on S, over den
    a, x = [times(cvals[i], den // cden) for i in support], [times(v, den // xden) for v in xvals]
    c = [mul(ai, mul(xi, xi)) for ai, xi in zip(a, x)]  # a_si v_si^2 = c_i / den^3
    sums = kernel._reduce(list(itertools.accumulate(c[1:], add)))  # P_p = sums[p - 1] / den^3
    if any(kernel.packed_is_zero(([sums[p - 1]], 1)) for p in range(2, m - 1)):
        raise InternalCheckFailed("a prefix sum of the witness vanishes: it is not support-minimal")
    t = c[0]
    cube = times(kernel._ONE, den ** 3)
    up, down, over = add(t, cube), add(t, times(cube, -1)), times(t, 2 * den)
    u1 = kernel.packed_over([mul(up, x[0])] + [mul(down, y) for y in x[1:]], over)
    u2 = kernel.packed_over([mul(down, x[0])] + [mul(up, y) for y in x[1:]], over)
    rest = [i for i in range(len(cvals)) if i not in support[:2]]
    cols, comp = [None] * len(rest), [([cvals[i]], cden) for i in rest]
    for p in range(2, m):
        # (D e_sp - A_p X_p (X_1 e_s1 + ... + X_{p-1} e_s{p-1})) / D for D = sums[p - 2] and the
        # packed a_si = A_i / den, v_si = X_i / den; its value is A_p sums[p - 1] / (den D)
        r, prev = times(mul(a[p], x[p]), -1), sums[p - 2]
        k = support[p] - 2  # its place in rest
        cols[k] = kernel.packed_over([zero] + [mul(r, y) for y in x[1:p]] + [prev] + [zero] * (m - 1 - p), prev)
        comp[k] = kernel.packed_over([mul(a[p], sums[p - 1])], times(prev, den))
    values, den = kernel.common_columns(comp)
    return support, u1, u2, cols, kernel.packed_reduced(([v for v, in values], den))


def witt_decompose(q: QuadraticForm) -> WittDecomposition:
    """Split hyperbolic planes while isotropy holds; certify the remainder.

    The recorded basis T satisfies  T^T G T = diag(1,-1,...,1,-1, a_1..a_m)
    exactly, where <a_1..a_m> is the anisotropic part.  The basis is kept
    as packed columns in original coordinates, one per current coordinate,
    and the current coefficients as one packed vector.  Each split
    (_split_step) is one closed form on the support S of its witness, which
    is support-minimal.  It brings the |S| columns of S to one denominator,
    and each of u1, u2 and its complement columns is one integer
    combination of them (packed_mix); every other column passes through
    untouched.  Over Q each new complement column with value s m^2 is
    scaled by 1/m (m an integer or a fraction), so the coefficients carried
    on are squarefree integers over the denominator 1.

    The splits are not checked one by one: the packed basis is proved once,
    by one exact congruence T^T G T = H^i + <a_1..a_m> (_gram_mismatch),
    and the report's literals are read off the same packed columns.  Its
    diagonal entries are nonzero, so T is invertible and q is isometric to
    i hyperbolic planes plus the anisotropic part (the Witt decomposition;
    Lam, Introduction to Quadratic Forms over Fields, ch. I).  The
    invariant cross-check of that isometry over Q lives in `verify` and the
    tests.
    """
    f = q.field
    kernel = f.kernel
    current = q.packed
    embed = [([kernel._ONE if j == i else kernel._ZERO for j in range(q.dim)], 1) for i in range(q.dim)]
    pairs = []
    index = 0
    while True:
        sub = QuadraticForm._of(f, current)
        cert = is_isotropic(sub, want_witness=True)
        if not cert.isotropic:
            break
        if cert.witness is None:
            raise UnsupportedCase(
                f"isotropy of {sub} is proved, but no explicit vector is built "
                "for irrational coefficients"
            )
        support, u1, u2, cols, current = _split_step(kernel, current, cert.witness)
        base = kernel.common_columns([embed[i] for i in support])
        pairs += [kernel.packed_mix(base, u) for u in (u1, u2)]
        rest = [i for i in range(len(embed)) if i not in support[:2]]  # the coordinates before the split
        embed = [embed[i] if col is None else kernel.packed_mix(base, col) for i, col in zip(rest, cols)]
        if f.kind == RATIONALS:
            classes = []
            for k, ((num, den), col) in enumerate(zip(_pairs(*current), cols)):
                if col is None and index:  # squarefree since the first split
                    classes.append(num)
                    continue
                s, top, bottom, _ = _square_split(num, den)
                if (top, bottom) != (1, 1):  # the column over m = top / bottom
                    nums, cden = embed[k]
                    embed[k] = [x * bottom for x in nums], cden * top
                classes.append(s)
            current = classes, 1
        index += 1
    basis = pairs + embed
    times = partial(kernel.packed_times, q.packed)
    if len(basis) != q.dim or _gram_mismatch(kernel, times, basis, _with_units(kernel, [1, -1] * index, current)):
        raise InternalCheckFailed("recorded Witt basis fails congruence")
    return WittDecomposition(
        witt_index=index,
        anisotropic_part=sub,
        method=METHOD_WITNESS if not sub.dim else cert.method,
        columns=basis,
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
    d1, r1 = _local_data(_pairs(*q1.packed))
    d2, r2 = _local_data(_pairs(*q2.packed))
    if d1 != d2 or q1.signature() != q2.signature():
        return False
    # the primes where the Hasse invariant is -1: e = 0 off a form's record
    return {p for p, (_, _, e) in r1 if e} == {p for p, (_, _, e) in r2 if e}


def equivalent_with_witness(q1: QuadraticForm, q2: QuadraticForm, p) -> bool:
    """Exact check that p^T G1 p = G2 (works over any supported field), on
    packed integers: no Gram matrix of FieldElements is built."""
    if q1.field != q2.field:
        raise FieldMismatch("equivalence needs a common field")
    if q1.dim != q2.dim or len(p) != q1.dim:
        return False
    n, kernel = q1.dim, q1.field.kernel
    if any(len(row) != n for row in p):
        return False
    packed = [kernel.pack(col) for col in _columns(p)]
    return _gram_mismatch(kernel, partial(kernel.packed_times, q1.packed), packed, q2.packed) is None


# --------------------------------------------------------------------------
# Pfister forms
# --------------------------------------------------------------------------

def pfister(field: Field, slots) -> QuadraticForm:
    """<1,-s1> (x) ... (x) <1,-sk> as an explicit 2^k-dim diagonal form."""
    kernel = field.kernel
    packed = kernel.pack(slots)
    if not 1 <= len(packed[0]) <= 3:
        raise InvalidInput("pfister takes 1 to 3 slots")
    if kernel._ZERO in packed[0]:
        raise InvalidInput("pfister slots must be nonzero")
    return QuadraticForm._of(field, pfister_diagonal(kernel, packed))


def pfister_diagonal(kernel, slots):
    """The diagonal of <1,-s1> (x) ... (x) <1,-sk> for a packed vector of
    nonzero slots, packed by doubling on integers: over the slots' common
    denominator D, entry m is (-1)^|m| D^(k - |m|) times the slot
    numerators at the bits of m."""
    (values, den), nums = slots, [kernel._ONE]
    for v in values:
        nums = [kernel._times(c, den) for c in nums] + [kernel._times(kernel._mul(v, c), -1) for c in nums]
    return kernel.packed_reduced((kernel._reduce(nums), den ** len(values)))
