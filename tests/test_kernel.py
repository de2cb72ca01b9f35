"""The packed kernels against plain FieldElement arithmetic.

The octonion product, jordan_mul, the Albert matrix product matrix_mul and
Automorphism.apply run on packed integer payloads.  conjugation_between and
phi evaluate the conjugation template in one packed call, fill the sparse
rows from its outputs, and run their sampled checks on packed vectors; a
panel of 60 conjugators (so_gamma_sample draws, torus elements and
normalize_gamma conjugators over six fields) matches the literal definition
X to_matrix(b) X^(-1).  verify holds the FieldElement oracles.  Inputs
cover every field kind, coordinate heights up to 10^6, zero-heavy vectors
and non-integral (over Q(sqrt d) also irrational) parameters and Gamma.
Tampered tables show that the matrix route and the conjugation checks
catch a single wrong constant, a corrupted row or a broken relation.
"""

import random
from fractions import Fraction

import pytest

from splitrank import albert
from splitrank.albert import (
    AlbertAlgebra,
    Automorphism,
    _conjugation_template,
    _jordan_from_matrices,
    bilinear,
    conjugation_between,
    jordan_mul,
    matrix_mul,
    phi,
    so_gamma_sample,
    torus_element,
    trace,
)
from splitrank.composition import cayley_dickson
from splitrank.errors import InternalCheckFailed
from splitrank.fields import Field, prime_field, quad_ext, rationals
from splitrank.groups import normalize_gamma
from splitrank.verify import (
    reference_apply,
    reference_conjugation,
    reference_matrix_mul,
    reference_octonion_mul,
)

FIELDS = {
    "Q": rationals(),
    "F5": prime_field(5),
    "F10007": prime_field(10007),
    "F2^31-1": prime_field(2**31 - 1),
    "Q(sqrt-7)": quad_ext(-7),
    "Q(sqrt2)": quad_ext(2),
}
HEIGHTS = (1, 1000, 10**6)


def _algebra(f):
    if f.kind == "QSqrt":
        params, gamma = ["-1", "3/2-r", "-3"], ["2/3", "-7+r", "7/2"]
    else:  # F_p literals are residues, so the fractions go in as Fractions
        params = [Fraction(-1), Fraction(-2, 3), Fraction(-3)]
        gamma = [Fraction(2, 3), Fraction(-7), Fraction(7, 2)]
    c = cayley_dickson(f, [f.element(p) for p in params])
    return AlbertAlgebra(c, [f.element(g) for g in gamma])


def _element(a, xs):
    return a.element(xs[:3], [xs[3:11], xs[11:19], xs[19:]])


def _coords(f, rng, n, height, density):
    return [f.random(rng, height) if rng.random() < density else f.zero() for _ in range(n)]


def _cases(f, rng, n):
    """Pairs of coordinate vectors: dense and zero-heavy at every height."""
    for height in HEIGHTS:
        for density in (1.0, 0.2):
            yield _coords(f, rng, n, height, density), _coords(f, rng, n, height, density)


def _assert_payloads(elems):
    for e in elems:
        v = e.value
        if e.field.kind == "Q":
            assert type(v) is Fraction
        elif e.field.kind == "Fp":
            assert type(v) is int and 0 <= v < e.field.p
        else:
            assert type(v) is tuple and len(v) == 2 and all(type(t) is Fraction for t in v)


@pytest.mark.parametrize("name", list(FIELDS))
def test_octonion_product_matches_reference(name):
    f = FIELDS[name]
    c = _algebra(f).octonions
    rng = random.Random(1)
    for xs, ys in _cases(f, rng, 8):
        x, y = c.element(xs), c.element(ys)
        got = x * y
        assert got == reference_octonion_mul(x, y)
        _assert_payloads(got.coords)


@pytest.mark.parametrize("name", list(FIELDS))
def test_jordan_mul_matches_reference(name):
    f = FIELDS[name]
    a = _algebra(f)
    rng = random.Random(2)
    for xs, ys in _cases(f, rng, 27):
        x, y = _element(a, xs), _element(a, ys)
        got = jordan_mul(x, y)
        assert got == _jordan_from_matrices(a, x, y)
        assert bilinear(x, y) == trace(got)
        _assert_payloads(got.coords)


@pytest.mark.parametrize("name", list(FIELDS))
def test_apply_matches_dense_mat_vec(name):
    f = FIELDS[name]
    a = _algebra(f)
    rng = random.Random(3)
    g = so_gamma_sample(a, rng)
    # any matrix, including dense rows at full height
    m = [_coords(f, rng, 27, 10**6, 0.5) for _ in range(27)]
    cases = [
        (phi(a, g), reference_conjugation(a, a, g)),
        (Automorphism(a, f.kernel.linear_table(m)), m),
    ]
    for auto, matrix in cases:
        for xs, _ in _cases(f, rng, 27):
            x = _element(a, xs)
            got = auto.apply(x)
            assert got == reference_apply(matrix, x)
            _assert_payloads(got.coords)


@pytest.mark.parametrize("name", list(FIELDS))
def test_matrix_mul_matches_reference(name):
    f = FIELDS[name]
    a = _algebra(f)
    rng = random.Random(4)
    for xs, ys in _cases(f, rng, 27):
        x, y = _element(a, xs), _element(a, ys)
        got = matrix_mul(x, y)
        assert got == reference_matrix_mul(x, y)
        _assert_payloads([c for row in got for entry in row for c in entry.coords])


@pytest.mark.parametrize("name", ["Q", "F5", "Q(sqrt-7)"])
def test_matrix_mul_on_basis_pairs(name):
    a = _algebra(FIELDS[name])
    basis = [a.basis(i) for i in range(27)]
    for x in basis:
        for y in basis:
            assert matrix_mul(x, y) == reference_matrix_mul(x, y)


def _bump(term, at, den):
    """A compiled term whose constant (over Q(sqrt d) its rational part),
    at position `at`, is raised by 1."""
    return term[:at] + (term[at] + den,) + term[at + 1 :]


@pytest.mark.parametrize("name", ["Q", "F5", "Q(sqrt-7)"])
def test_corrupted_matrix_table_breaks_the_matrix_route(name):
    """One wrong constant in the compiled matrix_mul table makes the
    symmetrized matrix route disagree with jordan_mul: the two tables are
    derived independently, so neither can hide a fault of the other."""
    a = _algebra(FIELDS[name])
    e = a.basis(0)
    assert jordan_mul(e, e) == _jordan_from_matrices(a, e, e)
    rows, _, den = a._matrix_product
    # the term x_0 y_0 -> coordinate 0 of entry (0, 0): the scalar x1 y1
    t = next(i for i, term in enumerate(rows[0]) if term[:2] == (0, 0))
    rows[0][t] = _bump(rows[0][t], 2, den)  # a term is (j, k, constant...)
    assert matrix_mul(e, e) != reference_matrix_mul(e, e)
    assert jordan_mul(e, e) != _jordan_from_matrices(a, e, e)


def _conjugators(f, rng):
    """(src, dst, X): so_gamma_sample draws in two algebras, torus elements
    (in SO(Gamma) for Gamma = (1, -1, 1)) and the conjugators that
    normalize_gamma builds from Gamma = (g, -g s^2, g t^2), permuted."""
    a = _algebra(f)
    split = AlbertAlgebra(a.octonions, [1, -1, 1])
    out = [(b, b, so_gamma_sample(b, rng)) for b in (a, split) for _ in range(3)]
    out += [(split, split, torus_element(f, Fraction(t * t + 1, t * t - 1), Fraction(2 * t, t * t - 1))) for t in (2, 3)]
    for perm in ((0, 1, 2), (2, 0, 1)):
        g, t = (f.random(rng, 5, nonzero=True) for _ in range(2))
        s = next(s for s in iter(lambda: f.random(rng, 5, nonzero=True), None) if s * s != f.one())
        gamma = [g, -g * s * s, g * t * t]
        src = AlbertAlgebra(a.octonions, [gamma[i] for i in perm])
        dst, moves = normalize_gamma(src)
        out.append((src, dst, [[f.element(v) for v in row] for row in moves["conjugator"]]))
    return out


CONJUGATORS = {name: _conjugators(f, random.Random(9)) for name, f in FIELDS.items()}


def test_conjugation_panel_shape():
    assert sum(len(panel) for panel in CONJUGATORS.values()) >= 60
    assert all(src is not dst for panel in CONJUGATORS.values() for src, dst, _ in panel[-2:])


@pytest.mark.parametrize("name", list(FIELDS))
def test_conjugation_matches_definition(name):
    """conjugation_between, and phi for X in SO(Gamma), against the literal
    from_matrix(X to_matrix(b) X^(-1)) on every basis vector b."""
    for src, dst, x in CONJUGATORS[name]:
        want = reference_conjugation(src, dst, x)
        assert conjugation_between(src, dst, x, samples=2, rng=random.Random(1)) == want
        if src is dst:
            matrix = src.field.kernel.table_matrix(phi(src, x).rows, 27)
            assert matrix == want
            _assert_payloads([v for row in matrix for v in row])


@pytest.mark.parametrize("name", ["Q", "F10007", "Q(sqrt-7)"])
def test_one_wrong_conjugation_constant_is_caught(name, monkeypatch):
    """Every constant of the compiled conjugation template, raised by one in
    a fresh algebra as the kernel's _monomials multiplies it out, makes phi
    raise."""
    keys = _conjugation_template()[0]
    for n in range(len(keys)):
        f = FIELDS[name]
        f = Field(f.kind, f.p, f.d)  # a kernel of its own, patched below
        multiply, calls = f.kernel._monomials, []

        def tampered(named, factors, n=n, calls=calls, multiply=multiply):
            packed, den = multiply(named, factors)
            if tuple(named) == keys:  # the constant's value (over Q(sqrt d) its rational part) + 1
                packed = list(packed)
                packed[n] = (packed[n][0] + den,) + packed[n][1:]
                calls.append(n)
            return packed, den

        monkeypatch.setattr(f.kernel, "_monomials", tampered)
        a = _algebra(f)
        x = so_gamma_sample(a, random.Random(5))
        with pytest.raises(InternalCheckFailed):
            phi(a, x)
        assert calls == [n]


@pytest.mark.parametrize("name", ["Q", "F10007", "Q(sqrt-7)"])
def test_broken_hermitian_relation_is_caught(name, monkeypatch):
    """With the target-ratio terms of one relation dropped, that relation
    reads an entry of the image alone, and the unsampled conjugation
    raises."""
    keys, rows, fill, n_out = _conjugation_template()
    target_ratio = {n for n, (_, factors) in enumerate(keys) if any(i >= 3 for i in factors)}
    broken = tuple(tuple(t for t in row if t[0][1] != n_out - 1 or t[1] not in target_ratio) for row in rows)
    assert sum(map(len, broken)) < sum(map(len, rows))
    a = _algebra(FIELDS[name])
    x = so_gamma_sample(a, random.Random(5))
    conjugation_between(AlbertAlgebra(a.octonions, a.gamma), a, x)
    monkeypatch.setattr(albert, "_conjugation_template", lambda: (keys, broken, fill, n_out))
    with pytest.raises(InternalCheckFailed):
        conjugation_between(AlbertAlgebra(a.octonions, a.gamma), a, x)


@pytest.mark.parametrize("name", list(FIELDS))
def test_filled_rows_hold_no_zero_constants(name):
    """The fill step skips zero values, as linear_table does: the identity
    has one term per row, and every row of a torus element is no longer
    than the row linear_table compiles from its matrix."""
    f = FIELDS[name]
    split = AlbertAlgebra(_algebra(f).octonions, [1, -1, 1])
    rows, _ = phi(split, torus_element(f, 1, 0)).rows
    assert [len(row) for row in rows] == [1] * 27
    auto = phi(split, torus_element(f, Fraction(5, 3), Fraction(4, 3)))
    compiled = f.kernel.linear_table(f.kernel.table_matrix(auto.rows, 27))
    assert [len(row) for row in auto.rows[0]] == [len(row) for row in compiled[0]]


@pytest.mark.parametrize("name", ["Q", "F10007", "Q(sqrt-7)"])
def test_corrupted_conjugation_rows_are_caught(name, monkeypatch):
    """One wrong constant in the filled conjugation rows, in a column of an
    octonion slot (so the unit check alone cannot see it), is caught by the
    packed sample checks of conjugation_between and so of phi."""
    f = FIELDS[name]
    f = Field(f.kind, f.p, f.d)  # a kernel of its own, patched below
    a = _algebra(f)
    x = so_gamma_sample(a, random.Random(5))
    fill = f.kernel.packed_table

    def corrupted(n_rows, entries, den):
        rows, den = fill(n_rows, entries, den)
        r, t = next((r, t) for r, row in enumerate(rows) for t, term in enumerate(row) if term[0] >= 3)
        rows[r][t] = _bump(rows[r][t], 1, den)  # an entry is (j, constant...)
        return rows, den

    phi(a, x)  # clean: draws phi's sample pairs and their products once
    assert "_phi_samples" in vars(a)
    monkeypatch.setattr(f.kernel, "packed_table", corrupted)
    conjugation_between(a, a, x)  # no samples: only the unit is checked
    with pytest.raises(InternalCheckFailed):
        conjugation_between(a, a, x, samples=5, rng=random.Random(6))
    with pytest.raises(InternalCheckFailed):  # the warm samples still check the new rows
        phi(a, x)


def _cayley_oracle(a, rng):
    """The FieldElement Cayley transform that so_gamma_sample replaced:
    X = 2 adj(I + S) / det(I + S) - I over S = Gamma^(-1) K, K skew."""
    f = a.field
    one, g_inv = f.one(), [g.inv() for g in a.gamma]
    for _ in range(50):
        k12, k13, k23 = (f.random(rng, 3) for _ in range(3))
        k = [[None, k12, k13], [-k12, None, k23], [-k13, -k23, None]]
        m = [[one if i == j else k[i][j] * g_inv[i] for j in range(3)] for i in range(3)]  # I + S
        adj = [[m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
                - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3] for j in range(3)] for i in range(3)]
        det = m[0][0] * adj[0][0] + m[0][1] * adj[1][0] + m[0][2] * adj[2][0]
        if not det.is_zero():
            c = (one + one) / det
            return [[c * v - one if i == j else c * v for j, v in enumerate(row)] for i, row in enumerate(adj)]
    raise AssertionError("no invertible I + S")


@pytest.mark.parametrize("name", list(FIELDS))
def test_packed_cayley_transform_matches_fieldelement_formula(name):
    """so_gamma_sample's packed Cayley transform returns the matrix of the
    FieldElement formula and leaves the rng where that formula did (over
    F_5 some draws are singular and skipped)."""
    a = _algebra(FIELDS[name])
    for seed in range(50):
        rng, old = random.Random(seed), random.Random(seed)
        x = so_gamma_sample(a, rng)
        assert x == _cayley_oracle(a, old)
        _assert_payloads([v for row in x for v in row])
        assert rng.random() == old.random()


@pytest.mark.parametrize("name", ["Q", "F10007", "Q(sqrt-7)"])
def test_phi_rows_are_the_seeded_conjugation_rows(name):
    """phi's rows, checked on the sample pairs drawn once per algebra, are
    the rows conjugation_between fills with the same five seeded pairs,
    on a first call and on a warm one."""
    a = _algebra(FIELDS[name])
    for seed in (7, 8):
        x = so_gamma_sample(a, random.Random(seed))
        want = conjugation_between(a, a, x, samples=5, rng=random.Random(947))
        assert a.field.kernel.table_matrix(phi(a, x).rows, 27) == want


@pytest.mark.parametrize("name", ["Q", "F10007"])
def test_integer_packed_linear_matches_table_matrix(name):
    """_IntegerKernel.packed_linear is the table's matrix times the vector,
    with an empty row giving zero."""
    f = FIELDS[name]
    k = f.kernel
    rng = random.Random(9)
    for height in HEIGHTS:
        matrix = [_coords(f, rng, 9, height, 0.5) for _ in range(7)]
        matrix[3] = [f.zero()] * 9
        table = k.linear_table(matrix)
        assert table[0][3] == []
        xs = _coords(f, rng, 9, height, 0.8)
        want = [sum((c * v for c, v in zip(row, xs)), f.zero()) for row in k.table_matrix(table, 9)]
        assert k._unpack(*k.packed_linear(table, k.pack(xs))) == tuple(want)


@pytest.mark.parametrize("name", list(FIELDS))
def test_random_packed_draws_as_field_random_did(name):
    """The packed sample draws make the rng calls of the FieldElement draws
    they replaced, in the same order, so the sample pairs keep their values."""
    f = FIELDS[name]

    def draw(rng):  # a numerator in [-3, 3] over a denominator in [1, 3]; a and then b over Q(sqrt d)
        if f.kind == "Fp":
            return f.element(rng.randrange(f.p))
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return f.element(a) if f.kind == "Q" else f.element((a, Fraction(rng.randint(-3, 3), rng.randint(1, 3))))

    for seed in range(20):
        rng, old = random.Random(seed), random.Random(seed)
        assert f.kernel._unpack(*f.kernel.random_packed(rng, 27, 3)) == tuple(draw(old) for _ in range(27))
        assert rng.random() == old.random()


@pytest.mark.parametrize("name", list(FIELDS))
def test_packed_eq_compares_values(name):
    """Equal vectors over different common denominators are equal; a change
    in one coordinate is seen."""
    f = FIELDS[name]
    k = f.kernel
    rng = random.Random(7)
    xs = _coords(f, rng, 9, 1000, 0.7)
    two = f.element(2)
    packed = k.pack(xs)
    lin = k.linear_table([[two if i == j else f.zero() for j in range(9)] for i in range(9)])
    doubled = k.packed_linear(lin, packed)
    assert k.packed_eq(doubled, k.pack([two * v for v in xs]))
    assert not k.packed_eq(doubled, packed)
    ys = list(xs)
    ys[4] = ys[4] + f.one()
    assert not k.packed_eq(packed, k.pack(ys))


@pytest.mark.parametrize("name", ["Q", "F10007", "Q(sqrt-7)", "Q(sqrt2)"])
def test_packed_elements_match_coordinate_elements(name):
    """An element born packed (a Jordan product, before its coordinates are
    read) and the element born from the same coordinates (a.element) agree
    on ==, hash, is_zero, to_json, the ring operations, matrix_mul and
    Automorphism.apply; packed vectors over different denominators compare
    equal, and a zero product over a denominator above 1 is zero."""
    f = FIELDS[name]
    a = _algebra(f)
    rng = random.Random(11)
    x, y = (_element(a, _coords(f, rng, 27, 1000, 0.6)) for _ in range(2))
    g = so_gamma_sample(a, rng)
    auto = phi(a, g)

    def packed():  # a new product, its coordinates unread
        z = jordan_mul(x, y)
        assert z._coords is None
        return z

    c = _element(a, packed().coords)
    assert packed() == c and c == packed() and not packed() != c
    assert hash(packed()) == hash(c)
    assert not packed().is_zero() and not c.is_zero()
    assert packed().to_json() == c.to_json()
    assert packed() + x == c + x and x - packed() == x - c and -packed() == -c
    assert packed().scale(Fraction(3, 7)) == c.scale(Fraction(3, 7))
    assert matrix_mul(packed(), packed()) == matrix_mul(c, c)
    assert auto.apply(packed()) == auto.apply(c) == reference_apply(reference_conjugation(a, a, g), c)
    assert packed() != packed() + a.unit()

    other = jordan_mul(x.scale(Fraction(1, 5)), y.scale(5))  # the same product over another denominator
    assert other._coords is None and other == packed() and other.coords == c.coords
    if f.kind != "Fp":  # F_p vectors are residues over 1
        assert other.packed[1] != packed().packed[1]

    zero = jordan_mul(a.diag_unit(1).scale(Fraction(1, 3)), a.diag_unit(2).scale(Fraction(1, 5)))
    assert zero._coords is None and zero.is_zero() and not zero and zero == a.zero()
    assert f.kind == "Fp" or zero.packed[1] > 1


@pytest.mark.parametrize("name", ["Q", "F10007", "Q(sqrt-7)"])
def test_packed_storage_behaves_like_coordinate_storage(name):
    """Octonion and Albert elements born packed (products, matrix_mul's
    entries, slots of an unread product) agree with the same elements built
    from coordinates on ==, hash, is_zero and to_json, and decide == and
    is_zero without unpacking.  One factor is scaled by 1/11 and the other
    by 11, so each product is packed over a denominator with a factor 11
    that its reduced coordinates lack."""
    f = FIELDS[name]
    a = _algebra(f)
    c = a.octonions
    rng = random.Random(13)
    p, q = (c.element(_coords(f, rng, 8, 1000, 0.8)) for _ in range(2))
    x, y = (_element(a, _coords(f, rng, 27, 1000, 0.6)) for _ in range(2))
    p11, q11, x11, y11 = p.scale(Fraction(1, 11)), q.scale(11), x.scale(Fraction(1, 11)), y.scale(11)

    def agree(born, built):
        strs = [str(v) for v in built.coords]
        assert born._coords is None
        assert f.kind == "Fp" or born.packed[1] != built.packed[1]
        assert born == built and built == born and not born != built
        assert born.is_zero() == built.is_zero() and bool(born) == bool(built)
        assert born._coords is None
        assert hash(born) == hash(built)
        assert born.to_json() == (strs if len(strs) == 8 else {"x": strs[:3], "c": [strs[3:11], strs[11:19], strs[19:]]})

    for product in (lambda: p11 * q11, lambda: p11 * c.zero()):
        agree(product(), c.element(product().coords))
    parts = a.diag_unit(1).scale(Fraction(1, 11)), a.diag_unit(2).scale(Fraction(1, 5))
    for product in (lambda: jordan_mul(x11, y11), lambda: jordan_mul(*parts)):
        agree(product(), _element(a, product().coords))
    assert (p11 * c.zero()).is_zero() and jordan_mul(*parts).is_zero()

    z, coords = jordan_mul(x11, y11), jordan_mul(x, y).coords
    for i, off in zip((1, 2, 3), (3, 11, 19)):
        agree(z.slot(i), c.element(coords[off : off + 8]))
    assert z.coords == coords and z.slot(2)._coords == coords[11:19]  # a read element slices its coordinates too

    entries = [e for row in matrix_mul(x11, y11) for e in row]
    assert all(e._coords is None for e in entries)
    for e, want in zip(entries, [e for row in reference_matrix_mul(x, y) for e in row]):
        agree(e, c.element(want.coords))
