"""Albert algebras H(C; g1, g2, g3): 3x3 matrices over an octonion algebra C,
hermitian with respect to Gamma = diag(g1, g2, g3), under the symmetrized
product x y = (x.y + y.x)/2.

Gamma is held packed for the field's kernel (`gamma` unpacks it for the
oracles).  Elements are 27 coordinates (x1, x2, x3, c1, c2, c3) -- three
diagonal scalars and three octonion slots -- so Gamma-hermitianness is
structural.
An element is a fields.PackedElement, as an octonion is: it holds its
coordinates packed for the field's kernel, so is_zero and == decide on
integers; a product holds the packed vector that the kernel returns, an
octonion slot and an entry of matrix_mul hold slices of one, and each
unpacks its coordinates only when they are read.
jordan_mul runs the coordinate formula: its 531 terms over 71 symbolic
constants are spelled out once per process, and an algebra multiplies out
only the constants, on the kernel's integers, at its first product.  The
raw matrix product matrix_mul is a second, independent table, derived
likewise from to_matrix's slot layout and the octonion table; its
symmetrization is the matrix route that jordan_mul is checked against, and
verify.reference_matrix_mul is the literal entrywise product in plain
FieldElement arithmetic that checks matrix_mul.  The conjugations theta ->
X theta X^(-1) by a scalar 3x3 matrix X (phi, conjugation_between) come
from their blocks: a per-process template spells out, bilinear in
(X, X^(-1)), the 6x6 block on (x1, x2, x3) and the real parts of the slots,
the 3x3 block that the imaginary parts share, and the hermitian relations;
one packed-kernel call evaluates them.  phi checks its rows on five seeded
sample pairs that an algebra draws, with their products and traces, once
(AlbertAlgebra._phi_samples), so a call multiplies out only the images;
so_gamma_sample runs the Cayley transform on packed integers.
verify.reference_conjugation is the literal definition.

Slot positions follow the defining matrix:

        [ x1            c3          (g3/g1) conj(c2) ]
        [ (g1/g2) conj(c3)  x2      c1               ]
        [ c2            (g2/g3) conj(c1)   x3        ]
"""

from __future__ import annotations

import random as _random
from functools import cache, cached_property, partial
from itertools import product
from typing import NamedTuple

from .composition import CompElement, CompositionAlgebra, _bits, _doubling_template, base_change_comp
from .errors import (
    AlgebraMismatch,
    InternalCheckFailed,
    InvalidInput,
    NotGammaOrthogonal,
    NotOnTorus,
    NotPrimitiveIdempotent,
    SingularCayley,
    UnsupportedCase,
    UnsupportedIdempotent,
    ZeroParameter,
)
from .fields import Field, FieldElement, PackedElement, lift_packed, scalar_literals
from .qforms import IsotropyResult, QuadraticForm, _gram_mismatch, _with_units, is_isotropic

DIM = 27
_SLOT_OFFSET = (3, 11, 19)  # coordinate offsets of the c1, c2, c3 blocks
# (row, column) of c1, c2, c3 in the defining matrix; the transposed
# position holds r_i conj(c_i)
_SLOT_POSITION = ((1, 2), (2, 0), (0, 1))
_CAYLEY_DRAWS = 50  # skew K that so_gamma_sample draws before it gives up on an invertible I + S


class AlbertAlgebra:
    """H(C; Gamma) for an octonion algebra C and invertible diagonal Gamma."""

    dim = DIM

    def __init__(self, octonions: CompositionAlgebra, gamma):
        kernel = octonions.field.kernel
        packed = kernel.pack(gamma)
        if octonions.dim != 8:
            raise InvalidInput("the coordinate algebra must be an octonion algebra")
        if len(packed[0]) != 3:
            raise InvalidInput("Gamma must have exactly three entries")
        if kernel._ZERO in packed[0]:
            raise ZeroParameter("Gamma entries must be nonzero")
        self.octonions = octonions
        self.packed_gamma = packed
        self.field = octonions.field  # N is the closed Pfister form of the params: nothing to compile or prove here

    @cached_property
    def gamma(self) -> tuple[FieldElement, FieldElement, FieldElement]:  # unpacked on first read, for the oracles
        return self.field.kernel._unpack(*self.packed_gamma)

    @cached_property
    def _half(self):
        return (self.field.one() + self.field.one()).inv()

    @cached_property
    def _ratios(self):  # r_i scales conj(c_i) in the defining matrix: (g2/g3, g3/g1, g1/g2), packed
        kernel = self.field.kernel
        (g1, g2, g3), _ = self.packed_gamma
        return tuple(kernel.packed_over([u], v) for u, v in ((g2, g3), (g3, g1), (g1, g2)))

    @property
    def ratios(self) -> tuple[FieldElement, FieldElement, FieldElement]:
        """The r_i as field elements, for the matrix route and the oracles."""
        return tuple(self.field.kernel._unpack(*r)[0] for r in self._ratios)

    @cached_property
    def slot_forms(self) -> tuple[QuadraticForm, QuadraticForm, QuadraticForm]:
        """The slot forms <1> + r_i N, i = 1..3 (see _SLOT_DIAG), built once on
        packed integers: r_i != 0 and N's coefficients are nonzero, so no coefficient is zero."""
        kernel, norm = self.field.kernel, self.octonions.norm_form().packed
        scaled = (kernel.packed_times(([r] * len(norm[0]), d), norm) for (r,), d in self._ratios)
        return tuple(QuadraticForm._of(self.field, _with_units(kernel, [1], form)) for form in scaled)

    def _compile(self, keys, rows, n_out):
        """A template's table: the key (sign, factors) names sign * the
        product of the factors, which index (g1, g2, g3, 1/2, r_1, r_2, r_3,
        1/(2 r_1), ...), g the octonions' doubling parameters."""
        half, ratios = self._half, self.ratios
        factors = self.octonions.params + (half,) + ratios + tuple(half / r for r in ratios)
        return self.field.kernel.monomial_table(rows, n_out, keys, factors)

    @cached_property
    def _product(self):  # jordan_mul's compiled table, built on the first call
        return self._compile(*_jordan_template()[:2], DIM)

    @cached_property
    def _trace(self):  # tr(xy): the three diagonal coordinates of xy, summed; built on the first call
        return self._compile(*_jordan_template()[2:], 1)

    @cached_property
    def _matrix_product(self):
        """matrix_mul's compiled table, built on the first call: output
        8 (3 i + k) + t is coordinate t of entry (i, k) of the product."""
        return self._compile(*_matrix_template(), 72)

    @cached_property
    def _automorphism_table(self):  # the compiled conjugation template for phi, built on the first call
        return _conjugation_table(self, self)

    @cached_property
    def _phi_samples(self):
        """phi's five sample pairs (p, q), drawn from Random(947) at its first
        call, with p q and tr(p p): its checks then multiply out only the
        images."""
        return tuple(_sample_pairs(self, 5, _random.Random(947)))

    # ----------------------------------------------------------------- basics
    def __eq__(self, other):
        return self is other or (
            isinstance(other, AlbertAlgebra)
            and self.octonions == other.octonions
            and self.field.kernel.packed_eq(self.packed_gamma, other.packed_gamma)
        )

    def __hash__(self):  # the literals are canonical
        return hash((self.octonions, *self.field.kernel.packed_strings(*self.packed_gamma)))

    def __repr__(self):
        return f"H({self.octonions!r}; {','.join(self.field.kernel.packed_strings(*self.packed_gamma))})"

    def _sparse(self, entries: dict) -> AlbertElement:
        """The element with the given nonzero coordinates, born packed."""
        return AlbertElement(self, packed=self.field.kernel.pack_sparse(DIM, entries))

    def zero(self) -> AlbertElement:
        return self._sparse({})

    def unit(self) -> AlbertElement:
        return self._sparse({0: 1, 1: 1, 2: 1})

    def diag_unit(self, i: int) -> AlbertElement:
        """The matrix unit E_ii (i in 1..3)."""
        return self.basis(i - 1)

    def basis(self, idx: int) -> AlbertElement:
        return self._sparse({idx: 1})

    def element(self, xs, cs) -> AlbertElement:
        """Build from three scalars and three octonion coordinate vectors,
        packed straight from them (see Field.payload)."""
        values = list(xs)
        if len(values) != 3:
            raise InvalidInput("need three diagonal scalars")
        for c in cs:
            values.extend(c.coords if isinstance(c, CompElement) else c)
        if len(values) != DIM:
            raise InvalidInput("need three octonion slots of eight coordinates")
        return AlbertElement(self, packed=self.field.kernel.pack(values))

    def random(self, rng, height: int = 4) -> AlbertElement:
        return AlbertElement(self, [self.field.random(rng, height) for _ in range(DIM)])

    def to_json(self) -> dict:
        return {
            "octonion": self.octonions.to_json(),
            "gamma": self.field.kernel.packed_strings(*self.packed_gamma),
        }


class AlbertElement(PackedElement):
    """27-coordinate element (x1, x2, x3, c1, c2, c3)."""

    __slots__ = ()
    _KIND = "Albert algebras"

    @property
    def xs(self) -> tuple[FieldElement, FieldElement, FieldElement]:
        return self.coords[0:3]

    def slot(self, i: int) -> CompElement:
        """Octonion slot c_i, i in 1..3: a slice of the packed vector, and
        of the coordinates once they are read."""
        off, (nums, den), coords = _SLOT_OFFSET[i - 1], self.packed, self._coords
        coords = None if coords is None else coords[off : off + 8]
        return CompElement(self.algebra.octonions, coords, (nums[off : off + 8], den))

    def __repr__(self):
        xs = ",".join(str(x) for x in self.xs)
        return f"Albert(diag={xs}, c1={self.slot(1)!r}, c2={self.slot(2)!r}, c3={self.slot(3)!r})"

    def to_json(self) -> dict:  # the literals of the packed coordinates
        s = self.algebra.field.kernel.packed_strings(*self.packed)
        return {"x": s[:3], "c": [s[off : off + 8] for off in _SLOT_OFFSET]}


def albert_element_from_json(algebra: AlbertAlgebra, obj: dict) -> AlbertElement:
    if not isinstance(obj, dict) or "x" not in obj or "c" not in obj or not isinstance(obj["c"], list):
        raise InvalidInput(f"bad Albert element: {obj!r}")
    return algebra.element(scalar_literals(obj["x"], "x"), [scalar_literals(c, "c") for c in obj["c"]])


# ---------------------------------------------------------------------------
# matrix form and products
# ---------------------------------------------------------------------------

def to_matrix(x: AlbertElement) -> list[list[CompElement]]:
    """The literal Gamma-hermitian 3x3 octonion matrix of x."""
    a = x.algebra
    c = a.octonions
    r1, r2, r3 = a.ratios  # (g2/g3, g3/g1, g1/g2)
    x1, x2, x3 = x.xs
    c1, c2, c3 = x.slot(1), x.slot(2), x.slot(3)
    return [
        [c.scalar(x1), c3, c2.conj().scale(r2)],
        [c3.conj().scale(r3), c.scalar(x2), c1],
        [c2, c1.conj().scale(r1), c.scalar(x3)],
    ]


def from_matrix(a: AlbertAlgebra, m) -> AlbertElement:
    """Read an element back from a 3x3 octonion matrix, which must be
    exactly Gamma-hermitian with scalar diagonal; a violation is an
    internal-consistency failure, not user error.
    """
    r1, r2, r3 = a.ratios  # (g2/g3, g3/g1, g1/g2)
    for i in range(3):
        if not m[i][i].is_scalar():
            raise InternalCheckFailed("diagonal entry is not a scalar")
    c3, c1, c2 = m[0][1], m[1][2], m[2][0]
    ok = (
        m[1][0] == c3.conj().scale(r3)
        and m[2][1] == c1.conj().scale(r1)
        and m[0][2] == c2.conj().scale(r2)
    )
    if not ok:
        raise InternalCheckFailed("matrix is not Gamma-hermitian")
    xs = [m[0][0].scalar_part(), m[1][1].scalar_part(), m[2][2].scalar_part()]
    return a.element(xs, [c1, c2, c3])


# positions in the factors of AlbertAlgebra._compile: (g1, g2, g3, 1/2, r_1, r_2, r_3, 1/(2 r_1), ...)
_HALF, _RATIO, _HALF_INV = 3, 4, 7


@cache
def _matrix_template():
    """matrix_mul as (keys, rows), derived once per process: rows[u] holds
    ((v, 8 (3 i + k) + t), n), meaning coordinate t of entry (i, k) of
    to_matrix(x) to_matrix(y) gains (constant n) x_u y_v, keys[n] keyed as
    AlbertAlgebra._compile reads it.  The entries of
    to_matrix(b_u) follow _SLOT_POSITION, and entry (i, k) of to_matrix(b_u)
    to_matrix(b_v) is the sum over j of their octonion products.  Nothing
    here comes from _jordan_template, so the symmetrized matrix route stays
    an independent derivation of the Jordan product."""
    _, octonion, _ = _doubling_template(3)
    # (i, j, s, sign, factors): sign * prod(factors) e_s at (i, j), in row-major order
    entries = [[(p, p, 0, 1, ())] for p in range(3)]
    for slot, (row, col) in enumerate(_SLOT_POSITION):
        for m in range(8):
            conj = (col, row, m, 1 if m == 0 else -1, (_RATIO + slot,))  # r_i conj(e_m)
            entries.append(sorted([(row, col, m, 1, ()), conj]))
    index, rows = {}, [[] for _ in range(DIM)]
    for u, left in enumerate(entries):
        for v, right in enumerate(entries):
            for i, j, s, s_sign, s_factors in left:
                for j2, k, t, t_sign, t_factors in right:
                    if j2 == j:
                        r, sign, mask = octonion[s][t]  # e_s e_t = sign P_mask e_r
                        key = (s_sign * t_sign * sign, tuple(sorted(_bits(mask) + s_factors + t_factors)))
                        rows[u].append(((v, 8 * (3 * i + k) + r), index.setdefault(key, len(index))))
    return tuple(index), tuple(map(tuple, rows))


def matrix_mul(x: AlbertElement, y: AlbertElement) -> list[list[CompElement]]:
    """The raw (non-hermitian) matrix product to_matrix(x) to_matrix(y) with
    octonion entries.

    It runs as one bilinear table from the 27 coordinates of x and of y to
    the 72 coordinates of the nine entries, compiled from _matrix_template for
    the field's packed kernel on the first call and cached on the algebra;
    each entry holds its slice of the packed product.  The literal entrywise
    product is the oracle verify.reference_matrix_mul."""
    x._check(y)
    a = x.algebra
    nums, den = a.field.kernel.packed_bilinear(a._matrix_product, x.packed, y.packed)
    entries = [CompElement(a.octonions, packed=(nums[t : t + 8], den)) for t in range(0, 72, 8)]
    return [entries[3 * i : 3 * i + 3] for i in range(3)]


def _jordan_from_matrices(a: AlbertAlgebra, x: AlbertElement, y: AlbertElement) -> AlbertElement:
    """The matrix route to x y = (x.y + y.x)/2: from_matrix reads back
    x.y + y.x, checking that it is Gamma-hermitian with a scalar diagonal
    (conditions that halving keeps), and the element read is halved."""
    mx, my = matrix_mul(x, y), matrix_mul(y, x)
    return from_matrix(a, [[mx[i][j] + my[i][j] for j in range(3)] for i in range(3)]).scale(a._half)


_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


@cache
def _jordan_template():
    """jordan_mul's formula as (keys, rows, trace_keys, trace_rows), derived
    once per process: rows[i] holds ((j, k), n), meaning (xy)_k += (constant
    n) x_i y_j, keys[n] keyed as AlbertAlgebra._compile reads it;
    trace_rows sums the diagonal outputs, over the constants trace_keys."""
    _, octonion, _ = _doubling_template(3)
    off = _SLOT_OFFSET
    index, rows = {}, [[] for _ in range(DIM)]

    def term(i, j, k, sign, mask, *factors):  # (xy)_k += sign P_mask prod(factors) x_i y_j
        rows[i].append(((j, k), index.setdefault((sign, _bits(mask) + factors), len(index))))

    for i, j, k in _CYCLIC:
        term(i, i, i, 1, 0)
        for s in (j, k):
            for m in range(8):  # r_s N_m, where N_m = (-1)^|m| P_m
                term(off[s] + m, off[s] + m, i, (-1) ** bin(m).count("1"), m, _RATIO + s)
        for m in range(8):
            for s in (j, k):
                term(s, off[i] + m, off[i] + m, 1, 0, _HALF)
                term(off[i] + m, s, off[i] + m, 1, 0, _HALF)
        for u in range(8):
            for v in range(8):
                t, sign, mask = octonion[u][v]  # e_u e_v = sign P_mask e_t; conj(e_t) = -e_t for t > 0
                sign = sign if t == 0 else -sign
                term(off[k] + v, off[j] + u, off[i] + t, sign, mask, _HALF_INV + i)  # conj(d_j c_k)
                term(off[j] + u, off[k] + v, off[i] + t, sign, mask, _HALF_INV + i)  # conj(c_j d_k)
    used, keys = {}, tuple(index)  # the trace table packs only its own constants, renumbered
    trace_rows = [[((j, 0), used.setdefault(n, len(used))) for (j, k), n in row if k < 3] for row in rows]
    return keys, tuple(map(tuple, rows)), tuple(keys[n] for n in used), tuple(map(tuple, trace_rows))


def jordan_mul(x: AlbertElement, y: AlbertElement) -> AlbertElement:
    """x y = (x.y + y.x)/2, by the coordinate formula for H(C; Gamma)
    (Springer-Veldkamp, Octonions, Jordan Algebras and Exceptional Groups,
    ch. 5).  With r = (g2/g3, g3/g1, g1/g2), n(c, d) = sum N_i c_i d_i the
    polar form of the norm, and (i, j, k) cyclic:

        (xy)_i   = x_i y_i + r_j n(c_j, d_j) + r_k n(c_k, d_k)
        (xy) c_i = [(x_j + x_k) d_i + (y_j + y_k) c_i
                    + conj(d_j c_k + c_j d_k) / r_i] / 2

    where x = (x_i; c_i) and y = (y_i; d_i).  _jordan_template spells the
    formula out term by term, once per process, with symbolic constants;
    on its first product an algebra has the field's packed kernel multiply
    the constants out (AlbertAlgebra._compile) and compile the terms.  The
    product stays packed until its coordinates are read.
    _jordan_from_matrices, the matrix route, is the oracle it is tested
    against.
    """
    x._check(y)
    a = x.algebra
    return AlbertElement(a, packed=a.field.kernel.packed_bilinear(a._product, x.packed, y.packed))


def trace(x: AlbertElement) -> FieldElement:
    x1, x2, x3 = x.xs
    return x1 + x2 + x3


def norm_Q(x: AlbertElement) -> FieldElement:
    """Q(x) = tr(x^2)/2 = <x, x>/2 with x^2 the Jordan square."""
    return bilinear(x, x) * x.algebra._half


def bilinear(x: AlbertElement, y: AlbertElement) -> FieldElement:
    """<x, y> = tr(xy) = Q(x+y) - Q(x) - Q(y), computed directly as
    sum x_i y_i + 2 sum r_i n(c_i, d_i): the diagonal of jordan_mul's
    formula, without the rest of the product."""
    return x.algebra.field.kernel._unpack(*_packed_trace(x, y))[0]


def _packed_trace(x: AlbertElement, y: AlbertElement):
    """bilinear(x, y) as a packed vector of one coordinate."""
    x._check(y)
    a = x.algebra
    return a.field.kernel.packed_bilinear(a._trace, x.packed, y.packed)


def _checked_gram(a: AlbertAlgebra, basis, expected, name: str):
    """Gram matrix of the polar form of Q on basis, which must be diagonal
    with diagonal `expected`, the closed form of the form called name.

    The traces tr(b_i b_j) = 2 B(b_i, b_j) come from the compiled trace
    table, pair by pair on the packed basis vectors, and are compared as
    packed integers: the off-diagonal ones with zero first, then the
    diagonal with 2 expected.  The returned Gram is diag(expected)."""
    kernel = a.field.kernel
    if any(not kernel.packed_is_zero(_packed_trace(b, c)) for i, b in enumerate(basis) for c in basis[i + 1:]):
        raise InternalCheckFailed(f"the basis of the {name} should be Q-orthogonal")
    values, den = kernel.pack([e + e for e in expected])
    if not all(kernel.packed_eq(_packed_trace(b, b), ([v], den)) for b, v in zip(basis, values)):
        raise InternalCheckFailed(f"{name} disagrees with its block closed form")
    n, zero = len(basis), a.field.zero()
    return [[expected[i] if i == j else zero for j in range(n)] for i in range(n)]


def quadratic_trace_form(a: AlbertAlgebra) -> QuadraticForm:
    """Q as a 27-dim diagonal form on the canonical coordinates.

    The Gram matrix on the canonical basis is checked to be diagonal and
    equal to the closed block form
    <1/2,1/2,1/2> + (g2/g3) N + (g3/g1) N + (g1/g2) N.
    """
    half = a._half
    n = a.octonions.norm_form().coeffs
    expected = [half, half, half]
    for ratio in a.ratios:
        expected.extend(ratio * c for c in n)
    _checked_gram(a, [a.basis(i) for i in range(DIM)], expected, "trace form")
    return QuadraticForm(a.field, expected, label="trace form")


# ---------------------------------------------------------------------------
# idempotents and nilpotents
# ---------------------------------------------------------------------------

def is_idempotent(x: AlbertElement) -> bool:
    return not x.is_zero() and jordan_mul(x, x) == x


def is_primitive_idempotent(x: AlbertElement) -> bool:
    """Idempotent with Q(u) = 1/2, that is tr(u^2) = 1 (packed)."""
    kernel = x.algebra.field.kernel
    return is_idempotent(x) and kernel.packed_eq(_packed_trace(x, x), kernel.pack([1]))


def is_nilpotent(z: AlbertElement) -> bool:
    """z != 0 with z^2 = 0 or z^3 = 0 (degree <= 3 by power-associativity)."""
    if z.is_zero():
        return False
    z2 = jordan_mul(z, z)
    if z2.is_zero():
        return True
    return jordan_mul(z2, z).is_zero()


# The diagonals of the slot nilpotents: for slot i and its diagonal pair
# (j, k), z = t (E_jj - E_kk) + slot_i(c0) has Jordan square
# (t^2 + r_i N(c0)) (E_jj + E_kk), so z^2 = 0 iff (t, c0) is a zero of the
# slot form <1> + r_i N (AlbertAlgebra.slot_forms).
_SLOT_DIAG = ((0, 1, -1), (-1, 0, 1), (1, -1, 0))


class SlotNilpotent(NamedTuple):
    """A rank-1 certificate: slot i, the zero w = (t, c0) of slot form i as
    the packed witness of its isotropy, and z = t (E_jj - E_kk) +
    slot_i(c0), born packed from w."""

    slot: int
    zero: tuple
    element: AlbertElement


def _build_slot_nilpotent(a: AlbertAlgebra, slot: int, witness) -> SlotNilpotent:
    """The certificate of the packed zero w = (t, c0) of slot form i, z
    placed on w's integers: z is square-zero by the identity above
    _SLOT_DIAG, as is_isotropic checks the zero exactly."""
    kernel, off = a.field.kernel, _SLOT_OFFSET[slot - 1]
    (t, *c0), den = witness
    signed = {1: t, -1: kernel._reduce([kernel._times(t, -1)])[0], 0: kernel._ZERO}
    nums = [signed[sgn] for sgn in _SLOT_DIAG[slot - 1]] + [kernel._ZERO] * 24
    nums[off : off + 8] = c0
    return SlotNilpotent(slot, witness, AlbertElement(a, packed=(nums, den)))


def nilpotent_analysis(a: AlbertAlgebra):
    """(the SlotNilpotent of the first isotropic slot form, None), or
    (None, the three anisotropy certificates) when no slot form is isotropic.

    The slot forms are decided in order, and the first isotropic one stops
    the search: it gets a constructed zero (qforms.is_isotropic: a Legendre
    lattice or a split through a common value), and so an explicit
    square-zero element.  Only rank 0 prints the slot certificates.  A slot
    form with an irrational coefficient over Q(sqrt d) has no constructed
    zero and raises UnsupportedCase.
    """
    certificates: list[IsotropyResult] = []
    for slot, form in enumerate(a.slot_forms, 1):
        res = is_isotropic(form)
        if res.isotropic:
            if res.witness is None:
                raise UnsupportedCase(
                    f"slot form {form} is isotropic, but no explicit vector is "
                    "built for irrational coefficients"
                )
            return _build_slot_nilpotent(a, slot, res.witness), None
        certificates.append(res)
    return None, tuple(certificates)


def nilpotent_witness(a: AlbertAlgebra) -> AlbertElement | None:
    found, _ = nilpotent_analysis(a)
    return None if found is None else found.element


def orthogonal_nilpotent_pair(a: AlbertAlgebra):
    """Two non-proportional orthogonal square-zero elements, or None.

    Constructed only when C is split: a trace-zero isotropic octonion c has
    c^2 = 0, and placing it in the c1 and c3 slots gives elements whose
    Jordan product vanishes identically.
    """
    c_alg = a.octonions
    if not c_alg.is_split():
        return None
    vec = is_isotropic(c_alg.pure_norm_form(), want_witness=True).witness
    if vec is None:
        raise UnsupportedCase("no explicit vector is built for an irrational pure norm form")
    c = CompElement(c_alg, packed=([c_alg.field.kernel._ZERO] + vec[0], vec[1]))
    if c.is_zero() or not (c * c).is_zero():
        raise InternalCheckFailed("pure isotropic vector should square to zero")
    zero8 = c_alg.zero()
    z1 = a.element([0, 0, 0], [c, zero8, zero8])
    z2 = a.element([0, 0, 0], [zero8, zero8, c])
    for z in (z1, z2):
        if not jordan_mul(z, z).is_zero():
            raise InternalCheckFailed("slot nilpotent fails square-zero")
    if not jordan_mul(z1, z2).is_zero():
        raise InternalCheckFailed("slot nilpotents are not orthogonal")
    return z1, z2


# ---------------------------------------------------------------------------
# the subspace E0 and the form Q0
# ---------------------------------------------------------------------------

def e0_subspace(a: AlbertAlgebra, u: AlbertElement, c: CompElement | None = None) -> list[AlbertElement]:
    """Ordered basis of E0 = {x : <x,1> = <x,u> = 0, ux = 0} for u = E_ii.

    The basis is E_jj - E_kk, (j, k) the diagonal pair of slot i as in the
    slot nilpotents, followed by slot_i(c e_m), m = 0..7 (c = 1 if None);
    each vector is born packed (c e_m is one packed product on the
    octonion table) and verified against all three defining conditions.
    """
    if not is_primitive_idempotent(u):
        raise NotPrimitiveIdempotent("E0 needs a primitive idempotent")
    slot = next((i for i in (1, 2, 3) if u == a.diag_unit(i)), None)
    if slot is None:
        raise UnsupportedIdempotent("E0/Q0 are implemented for the diagonal idempotents E11, E22, E33")
    f, kernel, off = a.field, a.field.kernel, _SLOT_OFFSET[slot - 1]
    basis = [a._sparse({p: s for p, s in enumerate(_SLOT_DIAG[slot - 1]) if s})]
    packed_c = None if c is None else c.packed
    frame, _ = kernel.pack_sparse(DIM, {})
    for m in range(8):
        e_m = kernel.pack_sparse(8, {m: 1})
        v, den = e_m if c is None else kernel.packed_bilinear(a.octonions._product, packed_c, e_m)
        basis.append(AlbertElement(a, packed=(frame[:off] + v + frame[off + 8:], den)))
    unit, vanishes = a.unit(), kernel.packed_is_zero
    for b in basis:
        if not vanishes(_packed_trace(b, unit)):
            raise InternalCheckFailed("E0 vector not orthogonal to 1")
        if not vanishes(_packed_trace(b, u)):
            raise InternalCheckFailed("E0 vector not orthogonal to u")
        if not jordan_mul(u, b).is_zero():
            raise InternalCheckFailed("E0 vector not killed by u")
    return basis


def q0_data(a: AlbertAlgebra, u: AlbertElement, c: CompElement | None = None):
    """(q0 form, E0 basis, 9x9 Gram of the polar form of Q on E0) on the
    basis e0_subspace(a, u, c) of u = E_ii.

    Left multiplication by c is a similitude of N with multiplier N(c), so
    the Gram matrix is checked to be diag(1, r_i N(c) N): the oracle of
    groups.f4_kernel's closed form, which calls no E0 check."""
    basis = e0_subspace(a, u, c)
    one = a.field.one()
    scale = a.ratios[u.xs.index(one)] * (one if c is None else c.norm())  # r_i N(c) for u = E_ii
    expected = [one] + [scale * n for n in a.octonions.norm_form().coeffs]
    gram = _checked_gram(a, basis, expected, "Q0")
    return QuadraticForm(a.field, expected, label="Q0"), basis, gram


def q0_form(a: AlbertAlgebra, u: AlbertElement) -> QuadraticForm:
    """Restriction of Q to E0 for u = E_ii, diagonalized: <1> + r_i N."""
    form, _, _ = q0_data(a, u)
    return form


# ---------------------------------------------------------------------------
# Gamma-orthogonal matrices and the automorphisms they induce
# ---------------------------------------------------------------------------

def torus_element(field: Field, av, bv):
    """[[a,b,0],[b,a,0],[0,0,1]] with a^2 - b^2 = 1 exactly."""
    av, bv = field.element(av), field.element(bv)
    if av * av - bv * bv != field.one():
        raise NotOnTorus(f"a^2 - b^2 = {av * av - bv * bv} != 1")
    z, one = field.zero(), field.one()
    return [[av, bv, z], [bv, av, z], [z, z, one]]


def so_gamma_sample(a: AlbertAlgebra, rng):
    """Random X with X^T Gamma X = Gamma, det X = 1, via the Cayley transform
    X = (I - S)(I + S)^(-1) = 2 adj(Gamma + K) Gamma / det(Gamma + K) - I
    over S = Gamma^(-1) K with K skew, on packed integers (K drawn with the
    rng calls of Field.random); X is checked as phi checks its input."""
    kernel = a.field.kernel
    mul, add, times = kernel._mul, kernel._add, kernel._times
    g, gd = a.packed_gamma
    for _ in range(_CAYLEY_DRAWS):
        (k12, k13, k23), kd = kernel.random_packed(rng, 3, 3)
        # N = gd kd (Gamma + K): g_i kd on the diagonal, gd k_ij off it
        k12, k13, k23 = times(k12, gd), times(k13, gd), times(k23, gd)
        n = [[times(g[0], kd), k12, k13],
             [times(k12, -1), times(g[1], kd), k23],
             [times(k13, -1), times(k23, -1), times(g[2], kd)]]
        adj = [[add(mul(n[(j + 1) % 3][(i + 1) % 3], n[(j + 2) % 3][(i + 2) % 3]),
                    times(mul(n[(j + 1) % 3][(i + 2) % 3], n[(j + 2) % 3][(i + 1) % 3]), -1))
                for j in range(3)] for i in range(3)]
        det = add(add(mul(n[0][0], adj[0][0]), mul(n[0][1], adj[1][0])), mul(n[0][2], adj[2][0]))
        (det,) = kernel._reduce([det])
        if det == kernel._ZERO:
            continue
        # adj(Gamma + K) / det(Gamma + K) = gd kd adj(N) / det(N), and Gamma = g / gd
        nums = [times(mul(adj[i][j], g[j]), 2 * kd) for i in range(3) for j in range(3)]
        for i in (0, 4, 8):
            nums[i] = add(nums[i], times(det, -1))
        entries = kernel._unpack(*kernel.packed_over(nums, det))
        x = [list(entries[i:i + 3]) for i in (0, 3, 6)]
        _check_gamma_orthogonal(a, x)
        return x
    raise SingularCayley(f"no invertible I + S in {_CAYLEY_DRAWS} draws")


def _similitude(src: AlbertAlgebra, dst: AlbertAlgebra, x):
    """(lam, cols) with X^T Gamma' X = lam Gamma (Gamma of src, Gamma' of
    dst) and cols the packed columns of X: lam is read off the (0, 0)
    entry, and the whole congruence is checked exactly by the packed
    predicate of every congruence check; then X^(-1) = lam^(-1) Gamma^(-1)
    X^T Gamma'."""
    kernel, gamma = src.field.kernel, dst.packed_gamma
    cols = [kernel.pack(list(col)) for col in zip(*x)]
    lam = kernel._unpack(*kernel.packed_dot(gamma, kernel.packed_times(cols[0], cols[0])))[0] / src.gamma[0]
    expected = kernel.pack([lam * g for g in src.gamma])
    if lam.is_zero() or _gram_mismatch(kernel, partial(kernel.packed_times, gamma), cols, expected):
        raise NotGammaOrthogonal("X^T Gamma' X is not an invertible multiple of Gamma")
    return lam, cols


def _check_gamma_orthogonal(a: AlbertAlgebra, x):
    """X^T Gamma X = Gamma and det X = 1, for X of FieldElements of a; the
    determinant is the triple product of the packed columns."""
    kernel = a.field.kernel
    lam, ((u, ud), (v, vd), (w, wd)) = _similitude(a, a, x)
    if lam != a.field.one():
        raise NotGammaOrthogonal("X^T Gamma X != Gamma")
    mul, add, times = kernel._mul, kernel._add, kernel._times
    det = kernel._ZERO
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):  # u . (v x w)
        det = add(det, mul(u[i], add(mul(v[j], w[k]), times(mul(v[k], w[j]), -1))))
    if not kernel.packed_eq((kernel._reduce([det]), ud * vd * wd), ([kernel._ONE], 1)):
        raise NotGammaOrthogonal("det X != 1")


class Automorphism:
    """A linear map of H(C; Gamma) in canonical coordinates, held as the
    sparse rows of a linear table of the field's packed kernel (phi hands
    over the rows its checks ran on): apply runs them on packed vectors,
    and the basis checks compare packed images.  verify.reference_apply,
    on the dense FieldElement matrix, is the oracle."""

    def __init__(self, algebra: AlbertAlgebra, rows):
        self.algebra = algebra
        self.rows = rows

    def apply(self, x: AlbertElement) -> AlbertElement:
        if x.algebra != self.algebra:
            raise AlgebraMismatch("element from a different algebra")
        return AlbertElement(self.algebra, packed=self.algebra.field.kernel.packed_linear(self.rows, x.packed))

    def is_identity(self) -> bool:
        return all(self.apply(b) == b for b in map(self.algebra.basis, range(DIM)))

    def preserves_jordan_on_basis(self) -> bool:
        """Exact check phi(b_i b_j) = phi(b_i) phi(b_j) on all 378 basis
        pairs."""
        a = self.algebra
        images = [self.apply(a.basis(i)) for i in range(DIM)]
        for i in range(DIM):
            for j in range(i, DIM):
                lhs = self.apply(jordan_mul(a.basis(i), a.basis(j)))
                if lhs != jordan_mul(images[i], images[j]):
                    return False
        return True


def phi(a: AlbertAlgebra, x) -> Automorphism:
    """The automorphism theta -> X theta X^(-1) for X in SO(Gamma).

    X^T Gamma X = Gamma and det X = 1 are checked first.  The rows are then
    built and checked as conjugation_between builds them, with five seeded
    sample pairs, and go to the Automorphism as they are.  The pairs, drawn
    from Random(947), and their products p q and traces tr(p p) are drawn
    once per algebra (_phi_samples); every call checks multiplicativity and
    Q on all five, and the unit.  The complete 378-pair basis check is
    preserves_jordan_on_basis().
    """
    x = [[a.field.element(v) for v in row] for row in x]
    _check_gamma_orthogonal(a, x)
    return Automorphism(a, _conjugation(a, a, x, a.field.one(), a._phi_samples))


_BLOCK = (0, 1, 2) + _SLOT_OFFSET  # x1, x2, x3 and the real parts of c1, c2, c3


@cache
def _conjugation_template():
    """theta -> X theta Y for Y = X^(-1), as (keys, rows, fill, n_out),
    derived once per process.  A basis element of H(C; Gamma) is T e_m for
    a scalar 3x3 matrix T and a basis octonion e_m; scalars commute with
    octonions, so its image is (X T Y) e_m, bilinear in (X, Y).  rows[3p + a]
    holds ((3b + q, k), n): output k gains (constant n) X_pa Y_bq, the key n
    being (sign, factors), the factors indexing (r_1, r_2, r_3) of the
    source and then (r'_1, r'_2, r'_3) of the target.  Output k < len(fill)
    is the entry at each (row, column) of fill[k]: the 6x6 block on _BLOCK
    (m = 0), then the 3x3 block of the slots that m = 1..7 share.  The
    other outputs must vanish: each image is Gamma'-hermitian, and for
    m > 0 its diagonal is zero."""

    def slot(s, m):  # T of e_m in slot s: E_(row, col) + (r_s if m == 0 else -r_s) E_(col, row)
        row, col = _SLOT_POSITION[s]
        return [(row, col, 1, ()), (col, row, 1 if m == 0 else -1, (s,))]

    def hermitian(u, m):  # (X T Y)_(col, row) -+ r'_u (X T Y)_(row, col), zero for slot u of the image
        row, col = _SLOT_POSITION[u]
        return [(col, row, 1, ()), (row, col, 1 if m else -1, (3 + u,))]

    sources = [[(i, i, 1, ())] for i in range(3)] + [slot(s, 0) for s in range(3)]
    reads = [[(p, p, 1, ())] for p in range(3)] + [[(row, col, 1, ())] for row, col in _SLOT_POSITION]
    specs = [(t, read, ((r, c),)) for c, t in zip(_BLOCK, sources) for r, read in zip(_BLOCK, reads)]
    specs += [(slot(s, 1), reads[3 + u], tuple((_SLOT_OFFSET[u] + m, _SLOT_OFFSET[s] + m) for m in range(1, 8)))
              for s in range(3) for u in range(3)]
    specs += [(t, hermitian(u, 0), None) for t in sources for u in range(3)]
    specs += [(slot(s, 1), read, None) for s in range(3) for read in reads[:3] + [hermitian(u, 1) for u in range(3)]]
    index, rows = {}, [[] for _ in range(9)]
    for k, (t, read, _) in enumerate(specs):  # output k: the sum over read of sign * factors * (X t Y)_pq
        for (p, q, sign, fs), (a, b, t_sign, t_fs) in product(read, t):
            key = (sign * t_sign, tuple(sorted(fs + t_fs)))
            rows[3 * p + a].append(((3 * b + q, k), index.setdefault(key, len(index))))
    fill = tuple(spots for _, _, spots in specs if spots)
    return tuple(index), tuple(map(tuple, rows)), fill, len(specs)


def _conjugation_table(src: AlbertAlgebra, dst: AlbertAlgebra):
    """_conjugation_template compiled for the ratios of src and dst."""
    keys, terms, _, n_out = _conjugation_template()
    return src.field.kernel.monomial_table(terms, n_out, keys, src.ratios + dst.ratios)


def conjugation_between(src: AlbertAlgebra, dst: AlbertAlgebra, x, samples: int = 8, rng=None):
    """The isomorphism theta -> X theta X^(-1) from H(C;Gamma) to H(C;Gamma')
    induced by a scalar matrix X with X^T Gamma' X = lam Gamma, as its
    27x27 coordinate matrix.

    X^T Gamma' X = lam Gamma is checked exactly first; then X^(-1) = lam^(-1)
    Gamma^(-1) X^T Gamma', and one packed-kernel call evaluates
    _conjugation_template, whose relations are checked to vanish.  The
    sparse rows are filled from its outputs by index, and the matrix is
    unpacked from them.  The unit is checked exactly.  With an rng,
    phi(pq) = phi(p) phi(q) and tr(phi(p)^2) = tr(p^2) (Q is preserved) are
    checked exactly on `samples` seeded pairs, drawn as packed vectors.
    """
    if src.octonions != dst.octonions:
        raise AlgebraMismatch("conjugation needs a common coordinate algebra")
    x = [[src.field.element(v) for v in row] for row in x]
    lam, _ = _similitude(src, dst, x)
    rows = _conjugation(src, dst, x, lam, _sample_pairs(src, samples, rng) if rng is not None else ())
    return src.field.kernel.table_matrix(rows, DIM)


def _sample_pairs(src: AlbertAlgebra, n: int, rng):
    """n sample pairs (p, q), drawn from rng as packed vectors, each with p q
    and tr(p p) in src: (p, q, pq, tpp)."""
    kernel = src.field.kernel
    for _ in range(n):
        p, q = kernel.random_packed(rng, DIM, 3), kernel.random_packed(rng, DIM, 3)
        yield p, q, kernel.packed_bilinear(src._product, p, q), kernel.packed_bilinear(src._trace, p, p)


def _conjugation(src: AlbertAlgebra, dst: AlbertAlgebra, x, lam, samples):
    """conjugation_between's checked compiled rows, for X of FieldElements
    whose similitude X^T Gamma' X = lam Gamma its caller has proved.  Each
    sample (p, q, pq, tpp) of src (_sample_pairs; phi's are drawn once per
    algebra, _phi_samples) checks phi(pq) = phi(p) phi(q) and tr(phi(p)^2)
    = tpp on the rows; the unit is checked on every call."""
    kernel = src.field.kernel
    w = [(lam * g).inv() for g in src.gamma]  # X^(-1) = lam^(-1) Gamma^(-1) X^T Gamma'
    y = [x[j][i] * dst.gamma[j] * w[i] for i in range(3) for j in range(3)]
    _, _, fill, n_out = _conjugation_template()
    table = src._automorphism_table if src is dst else _conjugation_table(src, dst)
    out, den = kernel.packed_bilinear(table, kernel.pack([v for row in x for v in row]), kernel.pack(y))
    if not kernel.packed_is_zero((out[len(fill):], den)):
        raise InternalCheckFailed("an image is not Gamma-hermitian with a scalar diagonal")
    rows = kernel.packed_table(DIM, [(r, j, v) for v, spots in zip(out, fill) for r, j in spots], den)
    bil, lin, same = kernel.packed_bilinear, kernel.packed_linear, kernel.packed_eq
    for p, q, pq, tpp in samples:
        mp, mq = lin(rows, p), lin(rows, q)
        if not same(lin(rows, pq), bil(dst._product, mp, mq)):
            raise InternalCheckFailed("conjugation is not multiplicative")
        if not same(bil(dst._trace, mp, mp), tpp):
            raise InternalCheckFailed("conjugation does not preserve Q")
    unit = dst.unit().packed
    if not same(lin(rows, unit), unit):
        raise InternalCheckFailed("conjugation does not map unit to unit")
    return rows


def base_change_albert(a: AlbertAlgebra, ext: Field) -> AlbertAlgebra:
    """H(C (x) L; Gamma) rebuilt over a supported extension L: the tests'
    oracle for groups.f4_excellence, which lifts the base-field
    certificates instead and has no caller of this."""
    gamma = ext.kernel._unpack(*lift_packed(a.field, ext, a.packed_gamma))
    return AlbertAlgebra(base_change_comp(a.octonions, ext), gamma)


def albert_from_json(obj: dict) -> AlbertAlgebra:
    from .composition import comp_from_json

    if not isinstance(obj, dict) or "octonion" not in obj or "gamma" not in obj:
        raise InvalidInput(f"bad Albert-algebra descriptor: {obj!r}")
    return AlbertAlgebra(comp_from_json(obj["octonion"]), scalar_literals(obj["gamma"], "gamma"))
