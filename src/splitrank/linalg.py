"""Small exact linear algebra over FieldElements (lists of lists): an
oracle module, imported by `verify` and the tests and by no production
module.

One Gauss-Jordan elimination (_reduce) serves det, inverse and nullspace;
matrices are immutable-by-convention lists of rows.  Sizes here are tiny
(3x3 up to 27x27), so no cleverness is needed.  Every congruence check of
the library runs on the packed kernel (`qforms._gram_mismatch`); the dense
products here are the independent route the tests check it against.
"""

from __future__ import annotations

from .errors import DivisionByZero, InvalidInput
from .fields import Field, FieldElement


def identity(field: Field, n: int) -> list[list[FieldElement]]:
    zero, one = field.zero(), field.one()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for t in range(1, k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(a, v):
    nz = [(j, x) for j, x in enumerate(v) if not x.is_zero()]
    zero = a[0][0].field.zero() if a and a[0] else None
    out = []
    for row in a:
        acc = zero
        for j, x in nz:
            acc = acc + row[j] * x
        out.append(acc)
    return out


def _reduce(a):
    """Gauss-Jordan elimination of a copy of a: (the reduced rows, the
    pivot columns, the product of the pivots signed by the row swaps).
    For a square a of full rank that product is det a."""
    m = [row[:] for row in a]
    pivots, prod = [], a[0][0].field.one()
    for col in range(len(m[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if not m[i][col].is_zero()), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            prod = -prod
        prod = prod * m[r][col]
        inv = m[r][col].inv()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][col].is_zero():
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return m, pivots, prod


def det(a) -> FieldElement:
    """Determinant over an exact field: 0 when a pivot is missing."""
    _, pivots, prod = _reduce(a)
    return prod if len(pivots) == len(a) else a[0][0].field.zero()


def inverse(a):
    n = len(a)
    m, pivots, _ = _reduce([row + unit for row, unit in zip(a, identity(a[0][0].field, n))])
    if pivots != list(range(n)):
        raise DivisionByZero("matrix is singular")
    return [row[n:] for row in m]


def nullspace(a) -> list[list[FieldElement]]:
    """Basis of the right nullspace of an n x m matrix."""
    if not a:
        raise InvalidInput("empty matrix")
    mat, pivots, _ = _reduce(a)
    zero, one = a[0][0].field.zero(), a[0][0].field.one()
    basis = []
    for fc in (c for c in range(len(a[0])) if c not in pivots):
        v = [zero] * len(a[0])
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -mat[r][fc]
        basis.append(v)
    return basis

