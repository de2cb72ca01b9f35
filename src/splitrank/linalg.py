"""Small exact linear algebra over FieldElements (lists of lists).

Plain Gaussian elimination; matrices are immutable-by-convention lists of
rows.  Sizes here are tiny (3x3 up to 27x27), so no cleverness is needed.
The Gram and congruence products of the quadratic-form engine do not come
here: they run on the packed kernel (`qforms._gram_mismatch`).
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


def mat_eq(a, b) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def det(a) -> FieldElement:
    """Determinant by plain Gaussian elimination over an exact field."""
    n = len(a)
    m = [row[:] for row in a]
    field = a[0][0].field
    result = field.one()
    for col in range(n):
        piv = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
        if piv is None:
            return field.zero()
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            result = -result
        result = result * m[col][col]
        inv = m[col][col].inv()
        for r in range(col + 1, n):
            if m[r][col].is_zero():
                continue
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] = m[r][c] - factor * m[col][c]
    return result


def inverse(a):
    n = len(a)
    field = a[0][0].field
    m = [row + unit for row, unit in zip(a, identity(field, n))]
    for col in range(n):
        piv = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
        if piv is None:
            raise DivisionByZero("matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        inv = m[col][col].inv()
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r == col or m[r][col].is_zero():
                continue
            f = m[r][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def nullspace(a) -> list[list[FieldElement]]:
    """Basis of the right nullspace of an n x m matrix."""
    if not a:
        raise InvalidInput("empty matrix")
    field = a[0][0].field
    n, m = len(a), len(a[0])
    mat = [row[:] for row in a]
    pivots: list[int] = []
    row = 0
    for col in range(m):
        piv = next((r for r in range(row, n) if not mat[r][col].is_zero()), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = mat[row][col].inv()
        mat[row] = [x * inv for x in mat[row]]
        for r in range(n):
            if r == row or mat[r][col].is_zero():
                continue
            f = mat[r][col]
            mat[r] = [x - f * y for x, y in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == n:
            break
    free = [c for c in range(m) if c not in pivots]
    basis = []
    zero, one = field.zero(), field.one()
    for fc in free:
        v = [zero] * m
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -mat[r][fc]
        basis.append(v)
    return basis


def is_symmetric(a) -> bool:
    n = len(a)
    return all(len(r) == n for r in a) and all(
        a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n)
    )
