"""Cayley-Dickson composition algebras up to octonions.

An algebra is presented by its doubling parameters (g1, ..., gk), k <= 3,
over a base field, held packed for the field's kernel (`params` unpacks
them for the oracles); dimension 2^k.  The product is fixed by the doubling rule

    (a, b)(c, d) = (a c + g d conj(b),  conj(a) d + c b)

with conjugation (a, b) -> (conj(a), -b), so on the canonical basis every
product e_i e_j is a scalar multiple of a single basis element and the whole
multiplication lives in one table, compiled for the field's packed kernel.
An element is a fields.PackedElement on the canonical basis: a product
multiplies the packed vectors, and it unpacks its coordinates only when
they are read.
The rule runs once per process on symbols; an algebra multiplies out its
constants, signed monomials in the parameters, at its first use of the
table.  The norm form N is the Pfister form <1,-g1> (x) ... (x) <1,-gk>
(Springer-Veldkamp, ch. 1), packed integer monomials in the parameters, so
deciding with N builds no table; the exact proof that x conj(x) = N on the
compiled table is an oracle of the tests and `splitrank verify`.
"""

from __future__ import annotations

from functools import cache, cached_property

from .errors import (
    AlgebraMismatch,
    InvalidInput,
    TooManyDoublings,
    ZeroParameter,
)
from .fields import Field, FieldElement, PackedElement, lift_packed
from .qforms import QuadraticForm, equivalent, is_isotropic, pfister_diagonal


class CompositionAlgebra:
    """Composition algebra of dimension 1, 2, 4 or 8 over a supported field."""

    def __init__(self, field: Field, params):
        packed = field.kernel.pack(params)
        if len(packed[0]) > 3:
            raise TooManyDoublings("dimension 16 refused: composition law fails")
        if field.kernel._ZERO in packed[0]:
            raise ZeroParameter("doubling parameters must be nonzero")
        self.field = field
        self.packed_params = packed
        self.dim = 2 ** len(packed[0])

    @cached_property
    def params(self) -> tuple[FieldElement, ...]:  # unpacked on first read, for the oracles
        return self.field.kernel._unpack(*self.packed_params)

    @cached_property
    def _product(self):  # the compiled doubling template, built on first use
        keys, _, rows = _doubling_template(len(self.packed_params[0]))
        return self.field.kernel.monomial_table(rows, self.dim, keys, self.params)

    # ----------------------------------------------------------------- basics
    def __eq__(self, other):
        return self is other or (
            isinstance(other, CompositionAlgebra)
            and self.field == other.field
            and self.dim == other.dim
            and self.field.kernel.packed_eq(self.packed_params, other.packed_params)
        )

    def __hash__(self):  # the literals are canonical
        return hash((self.field, *self.field.kernel.packed_strings(*self.packed_params)))

    def __repr__(self):
        return f"CD({','.join(self.field.kernel.packed_strings(*self.packed_params))}) over {self.field}"

    def _sparse(self, entries: dict) -> CompElement:
        """The element with the given nonzero coordinates, born packed."""
        return CompElement(self, packed=self.field.kernel.pack_sparse(self.dim, entries))

    def zero(self) -> CompElement:
        return self._sparse({})

    def one(self) -> CompElement:
        return self._sparse({0: 1})

    def basis(self, i: int) -> CompElement:
        return self._sparse({i: 1})

    def element(self, coords) -> CompElement:
        return CompElement(self, [self.field.element(c) for c in coords])

    def scalar(self, x) -> CompElement:
        return self._sparse({0: x})

    def random(self, rng, height: int = 5) -> CompElement:
        return CompElement(self, [self.field.random(rng, height) for _ in range(self.dim)])

    # ------------------------------------------------------------------ forms
    @cached_property
    def _norm_form(self) -> QuadraticForm:
        return QuadraticForm._of(self.field, pfister_diagonal(self.field.kernel, self.packed_params), label="norm")

    def norm_form(self) -> QuadraticForm:
        """The norm as a diagonal form on the canonical basis: the Pfister
        form <1,-g1> (x) ... (x) <1,-gk> of the parameters, <1> for k = 0,
        whose coefficients are integer monomials in the packed parameters."""
        return self._norm_form

    def pure_norm_form(self) -> QuadraticForm:
        """Norm restricted to the trace-zero subspace span(e_1..e_{dim-1})."""
        if self.dim == 1:
            raise InvalidInput("dim-1 algebra has no pure part")
        nums, den = self.norm_form().packed
        return QuadraticForm._of(self.field, (nums[1:], den), label="pure norm")

    def is_split(self) -> bool:
        """Split iff the norm form is isotropic."""
        return bool(is_isotropic(self.norm_form(), want_witness=False))

    def split_certificate(self):
        return is_isotropic(self.norm_form(), want_witness=True)

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "params": self.field.kernel.packed_strings(*self.packed_params),
        }


@cache
def _doubling_template(n: int):
    """(keys, table, rows): the doubling rule for n doublings, on symbols.
    table[i][j] = (k, sign, mask) means e_i e_j = sign * P_mask e_k; keys
    lists the distinct monomials (sign, _bits(mask)), and rows[i] holds
    ((j, k), n) for e_i e_j = (constant n) e_k."""
    table = [[(0, 1, 0)]]
    dim = 1
    for _ in range(n):
        new = [[None] * (2 * dim) for _ in range(2 * dim)]
        for i in range(dim):
            conj_i = 1 if i == 0 else -1
            for j in range(dim):
                k, s, m = table[i][j]
                new[i][j] = (k, s, m)
                new[i][dim + j] = (dim + k, conj_i * s, m)
                k2, s2, m2 = table[j][i]
                new[dim + i][j] = (dim + k2, s2, m2)
                new[dim + i][dim + j] = (k2, conj_i * s2, m2 | dim)  # times g = P_dim
        table = new
        dim *= 2
    keys = {}
    rows = [[((j, k), keys.setdefault((s, _bits(m)), len(keys))) for j, (k, s, m) in enumerate(row)] for row in table]
    return tuple(keys), tuple(map(tuple, table)), tuple(map(tuple, rows))


@cache
def _bits(mask: int) -> tuple[int, ...]:  # the positions of the params whose product is P_mask
    return tuple(b for b in range(mask.bit_length()) if mask >> b & 1)


class CompElement(PackedElement):
    """Element in the canonical Cayley-Dickson basis."""

    __slots__ = ()
    _KIND = "composition algebras"

    def __mul__(self, other):
        other = self._check(other)
        a = self.algebra
        return CompElement(a, packed=a.field.kernel.packed_bilinear(a._product, self.packed, other.packed))

    def conj(self) -> CompElement:
        return CompElement(self.algebra, (self.coords[0],) + tuple(-c for c in self.coords[1:]))

    def trace(self) -> FieldElement:
        """x + conj(x), coerced to a scalar."""
        return self.coords[0] + self.coords[0]

    def norm(self) -> FieldElement:
        """N(x) = x conj(x), evaluated on the closed norm form."""
        return self.algebra.norm_form().evaluate(self.coords)

    def scalar_part(self) -> FieldElement:
        return self.coords[0]

    def is_scalar(self) -> bool:
        return all(c.is_zero() for c in self.coords[1:])

    def __repr__(self):
        return "[" + ", ".join(str(c) for c in self.coords) + "]"

    def to_json(self) -> list:  # the literals of the packed coordinates
        return self.algebra.field.kernel.packed_strings(*self.packed)


def cayley_dickson(field: Field, params) -> CompositionAlgebra:
    """Build the composition algebra with the given doubling parameters."""
    return CompositionAlgebra(field, params)


def comp_isomorphic(c1: CompositionAlgebra, c2: CompositionAlgebra) -> bool:
    """Norm forms classify composition algebras of equal dimension."""
    if c1.field != c2.field:
        raise AlgebraMismatch("isomorphism test needs a common base field")
    if c1.dim != c2.dim:
        return False
    return equivalent(c1.norm_form(), c2.norm_form())


def base_change_comp(c: CompositionAlgebra, ext: Field) -> CompositionAlgebra:
    """Rebuild the algebra over a supported extension from its lifted
    doubling parameters.  No production route calls it: excellence lifts
    the certificates over the base field instead, and the tests keep this
    rebuild as their oracle."""
    return CompositionAlgebra(ext, ext.kernel._unpack(*lift_packed(c.field, ext, c.packed_params)))


def comp_from_json(obj: dict) -> CompositionAlgebra:
    from .fields import field_from_json, scalar_literals

    if not isinstance(obj, dict) or "field" not in obj or "params" not in obj:
        raise InvalidInput(f"bad composition-algebra descriptor: {obj!r}")
    return CompositionAlgebra(field_from_json(obj["field"]), scalar_literals(obj["params"], "params"))
