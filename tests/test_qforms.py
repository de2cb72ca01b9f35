"""Quadratic forms: diagonalization, Hilbert symbols, isotropy, Witt
decomposition, equivalence.  Derived expectations are recomputed here by
independent oracles (exhaustive residue checks, brute-force searches)."""

import itertools
import random
from fractions import Fraction
from functools import partial

import pytest

from splitrank import linalg, qforms
from splitrank.errors import (
    DegenerateForm,
    FieldMismatch,
    InternalCheckFailed,
    InvalidInput,
    UnsupportedCase,
    UnsupportedField,
)
from splitrank.fields import FieldElement, prime_factors, prime_field, quad_ext, rationals
from splitrank.qforms import (
    INF,
    METHOD_WITNESS,
    QuadraticForm,
    WittDecomposition,
    _gram_mismatch,
    _split_step,
    diagonalize,
    equivalent,
    equivalent_with_witness,
    hasse_invariant,
    hilbert_symbol,
    is_isotropic,
    isotropic_vector_search,
    pfister,
    witt_decompose,
    witt_index_by_invariants,
)
from splitrank.verify import fp_equivalent_bruteforce, witt_index_enumeration

Q = rationals()
F5 = prime_field(5)
F7 = prime_field(7)
R2 = quad_ext(2)
RM7 = quad_ext(-7)


def hilbert2_oracle(a: int, b: int, k: int = 6) -> int:
    """(a,b)_2 by exhaustive primitive solvability of z^2 = a x^2 + b y^2
    mod 2^k.  A primitive solution cannot have x, y both even (the right
    side would be divisible by 4 while z^2 is an odd square), so scanning
    (x, y) not both even against the set of squares mod 2^k is complete;
    k = 6 leaves enough Hensel margin for coefficients of valuation <= 1."""
    mod = 1 << k
    squares = {z * z % mod for z in range(mod)}
    for x in range(mod):
        for y in range(mod):
            if x % 2 == 0 and y % 2 == 0:
                continue
            if (a * x * x + b * y * y) % mod in squares:
                return 1
    return -1


class TestDiagonalize:
    def test_already_diagonal(self):
        form, p = diagonalize(Q, [[1, 0], [0, -1]])
        assert [c for c in form.coeffs] == [Q.element(1), Q.element(-1)]
        assert p == [[Q.element(1), Q.element(0)], [Q.element(0), Q.element(1)]]

    def test_hyperbolic_gram(self):
        form, p = diagonalize(Q, [[0, 1], [1, 0]])
        # any congruent diagonal form: check invariants, not literals
        assert form.dim == 2
        assert equivalent(form, QuadraticForm(Q, [1, -1]))
        assert equivalent_with_witness(
            QuadraticForm(Q, list(form.coeffs)), form, [[Q.element(1), Q.element(0)], [Q.element(0), Q.element(1)]]
        )

    def test_degenerate_reports_radical(self):
        with pytest.raises(DegenerateForm) as exc:
            diagonalize(Q, [[1, 1], [1, 1]])
        rad = exc.value.radical
        assert len(rad) == 1
        v = rad[0]
        # radical vector killed by the Gram matrix
        assert (v[0] + v[1]).is_zero()

    def test_zero_pivot_fix(self):
        form, p = diagonalize(Q, [[0, 2], [2, 3]])
        assert form.dim == 2 and not any(c.is_zero() for c in form.coeffs)

    def test_random_congruence(self):
        # P^T G P = diag(form) by the dense product, an oracle apart from
        # the packed predicate inside diagonalize
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 5)
            m = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            sym = [[Q.element(m[i][j] + m[j][i]) for j in range(n)] for i in range(n)]
            try:
                form, p = diagonalize(Q, sym)
            except DegenerateForm:
                continue
            got = linalg.mat_mul(linalg.mat_mul([list(col) for col in zip(*p)], sym), p)
            assert got == [[form.coeffs[i] if i == j else Q.zero() for j in range(n)] for i in range(n)]


def _columns(matrix):
    return [list(col) for col in zip(*matrix)]


def _orthogonal_columns(d, rng):
    """len(d) random columns made pairwise orthogonal for <d> by
    Gram-Schmidt in FieldElement arithmetic, none of them isotropic."""
    f, cols = d[0].field, []

    def b(u, v):
        return sum((a * x * y for a, x, y in zip(d, u, v)), f.zero())

    while len(cols) < len(d):
        v = [f.random(rng) for _ in d]
        for u in cols:
            c = b(v, u) / b(u, u)
            v = [x - c * y for x, y in zip(v, u)]
        if not b(v, v).is_zero():
            cols.append(v)
    return cols


def _decomposition(field):
    """A certified Witt decomposition over Q, F_5 or Q(sqrt -7).  Over
    Q(sqrt -7) witt_decompose stops at dimension 4 (UnsupportedCase), so the
    one split of a 6-dimensional form is recorded by hand."""
    if field != RM7:
        coeffs = [2, -3, 6, 1, -1] if field == Q else [1, 2, 3, 4]
        q = QuadraticForm(field, coeffs)
        return q, witt_decompose(q)
    q = QuadraticForm(field, [1, 2, 3, 5, 7, 11])
    cols, comp = _expanded_split(list(q.coeffs), _vector(is_isotropic(q)))
    columns = [field.kernel.pack(col) for col in cols]
    return q, WittDecomposition(1, QuadraticForm(field, comp), METHOD_WITNESS, columns=columns)


def _vector(res):
    """The packed witness of an isotropy result, unpacked into FieldElements."""
    return res.field.kernel._unpack(*res.witness)


def _unpacked_split(coeffs, v):
    """_split_step on the vector v of FieldElements, with u1, u2 and the
    complement columns unpacked into lists of FieldElements, and the
    complement coefficients too."""
    kernel = coeffs[0].field.kernel
    unpack = kernel._unpack
    support, u1, u2, cols, comp = _split_step(kernel, kernel.pack(coeffs), kernel.pack(v))
    return support, list(unpack(*u1)), list(unpack(*u2)), [col and list(unpack(*col)) for col in cols], list(unpack(*comp))


def _expanded_split(coeffs, v):
    """_split_step with its vectors in full coordinates: u1, u2 and the
    complement columns spread out from the support, and a unit vector for
    each coordinate that passes through.  Returns (columns, complement)."""
    f, dim = coeffs[0].field, len(coeffs)
    support, u1, u2, cols, comp = _unpacked_split(coeffs, v)
    rest = [i for i in range(dim) if i not in support[:2]]

    def spread(vec):
        out = [f.zero()] * dim
        for i, x in zip(support, vec):
            out[i] = x
        return out

    units = [[f.one() if j == i else f.zero() for j in range(dim)] for i in range(dim)]
    return [spread(u1), spread(u2)] + [units[i] if col is None else spread(col) for i, col in zip(rest, cols)], comp


def _bumped(matrix, r, c, field):
    out = [row[:] for row in matrix]
    out[r][c] = out[r][c] + (field.sqrt_gen() if field == RM7 else field.one())
    return out


def _half_boosted(matrix, field):
    """Column 1 -> x col0 + y col1 with y^2 - x^2 = 1 and x != 0.  When the
    two columns have values 1 and -1 and are orthogonal, every value stays
    in place and only their pairing becomes x: an off-diagonal error."""
    t = field.element(2)
    x, y = (t - t.inv()) / 2, (t + t.inv()) / 2
    return [row[:1] + [x * row[0] + y * row[1]] + row[2:] for row in matrix]


def _decide_from_dim_five(monkeypatch):
    """Over Q(sqrt -7) isotropy is decided from dimension 5 up only, so a
    Witt decomposition raises UnsupportedCase after its first split.  This
    stub reports the dim-4 remainder anisotropic instead, so the basis of
    that split reaches the final congruence check."""
    decide = qforms.is_isotropic

    def stub(q, want_witness=True):
        return decide(q, want_witness) if q.dim >= 5 else qforms.IsotropyResult(q.field, False, qforms.METHOD_REAL)

    monkeypatch.setattr(qforms, "is_isotropic", stub)


# forms with a split whose witness support has 3 or more coordinates, so
# that it has complement columns
SPLIT_FORMS = {Q: [2, -3, 6, 1, -1], F5: [1, 2, 1, 3], RM7: [1, 1, 1, 1, 1, 1]}


class TestOneProof:
    """witt_decompose proves its basis once, by one exact congruence of q
    with H^i + <anisotropic part>: no split, no invariant and no
    bookkeeping re-check runs, and a wrong split is still caught."""

    @pytest.mark.parametrize("part", ["u1", "column"])
    @pytest.mark.parametrize("field", [Q, F5, RM7], ids=str)
    def test_corrupted_split_is_caught(self, field, part, monkeypatch):
        if field == RM7:
            _decide_from_dim_five(monkeypatch)
        q = QuadraticForm(field, SPLIT_FORMS[field])
        witt_decompose(q)  # the honest splits pass the one check
        split, bumped = qforms._split_step, []

        def corrupted(kernel, coeffs, witness):
            support, u1, u2, cols, comp = split(kernel, coeffs, witness)
            spots = [None] if part == "u1" else [k for k, c in enumerate(cols) if c is not None]
            if spots and not bumped:
                # the packed vector, unpacked, bumped in its first entry and packed again
                entries = list(field.kernel._unpack(*(u1 if part == "u1" else cols[spots[0]])))
                entries[0] = entries[0] + (field.sqrt_gen() if field == RM7 else field.one())
                if part == "u1":
                    u1 = field.kernel.pack(entries)
                else:
                    cols[spots[0]] = field.kernel.pack(entries)
                bumped.append(part)
            return support, u1, u2, cols, comp

        monkeypatch.setattr(qforms, "_split_step", corrupted)
        with pytest.raises(InternalCheckFailed, match="congruence"):
            witt_decompose(q)
        assert bumped

    @pytest.mark.parametrize(
        "field,coeffs",
        [
            (Q, [1, -1, 1]),
            (Q, [2, -3, 6, 1, -1]),
            (Q, [1, -1, 1, -1, 1, -1]),
            (Q, [12, Fraction(-3, 4), 5, -20, 7, Fraction(-18, 5)]),
            (Q, [1, 1, -(10**9 + 9)]),
            (Q, [3, 5, 7]),
            (F5, [1, 2, 3, 4]),
            (prime_field(10007), [3, 1, 4, 1, 5, 9, 2, 6, 5]),
            (R2, [1, -1, 1, 1, 1, 1, 1]),
            (RM7, [1, 2, 3, 5, 7, 11]),
        ],
        ids=str,
    )
    def test_one_congruence_check_per_decomposition(self, field, coeffs, monkeypatch):
        if field == RM7:
            _decide_from_dim_five(monkeypatch)
        calls = {"_gram_mismatch": 0, "diagonalize": 0, "equivalent": 0}

        def counted(name):
            run = getattr(qforms, name)

            def wrapper(*args):
                calls[name] += 1
                return run(*args)

            monkeypatch.setattr(qforms, name, wrapper)

        for name in calls:
            counted(name)
        witt_decompose(QuadraticForm(field, coeffs))
        assert calls == {"_gram_mismatch": 1, "diagonalize": 0, "equivalent": 0}


class TestChecksBite:
    """The exact checks reject a certificate with one wrong entry, and one
    whose values are all right but whose first two columns are not
    orthogonal."""

    @pytest.mark.parametrize("field", [Q, F5, RM7], ids=str)
    def test_perturbed_witness_is_not_an_equivalence(self, field):
        q, dec = _decomposition(field)
        target = QuadraticForm(field, [1, -1] * dec.witt_index + list(dec.anisotropic_part.coeffs))
        assert equivalent_with_witness(q, target, dec.basis)
        for r, c in ((0, 0), (2, 3), (q.dim - 1, q.dim - 1)):
            assert not equivalent_with_witness(q, target, _bumped(dec.basis, r, c, field))
        assert not equivalent_with_witness(q, target, _half_boosted(dec.basis, field))

    @pytest.mark.parametrize("field", [Q, F5, RM7], ids=str)
    def test_general_gram_check_names_each_wrong_p(self, field):
        # diagonalize's check of a general Gram, the packed predicate on its
        # compiled linear table: P[0][0] bumped scales the first column,
        # e_1, so it stays orthogonal and only its value is wrong; the other
        # tampers break an orthogonality
        g = [[field.element(x) for x in row] for row in ([1, 1, 0], [1, 0, 2], [0, 2, 3])]
        form, p = diagonalize(field, g)
        assert list(form.coeffs)[:2] == [field.one(), -field.one()]
        kernel = field.kernel
        times = partial(kernel.packed_linear, kernel.linear_table(g))

        def mismatch(p):
            return _gram_mismatch(kernel, times, [kernel.pack(col) for col in _columns(p)], form.packed)

        assert mismatch(p) is None
        for (r, c), kind in (((0, 0), "diagonal"), ((0, 2), "off-diagonal"), ((2, 1), "off-diagonal")):
            assert mismatch(_bumped(p, r, c, field)) == kind
        assert mismatch(_half_boosted(p, field)) == "off-diagonal"

    def test_diagonalize_takes_only_a_square_symmetric_matrix(self):
        for rows in ([[1, 0]], [[1, 0], [0]], [[1, 2], [3, 1]]):
            with pytest.raises(InvalidInput):
                diagonalize(Q, rows)

    @pytest.mark.parametrize("coeffs", [[1, -4], [1, 1, 1], [3, 5, 2, 1, 4]], ids=str)
    def test_wrong_square_root_is_not_a_witness_over_fp(self, coeffs, monkeypatch):
        # the F_p witness is checked exactly, as the Q and Q(sqrt d) ones
        # are: a square root off by one gives no zero of the form
        q = QuadraticForm(prime_field(10007), coeffs)
        assert is_isotropic(q).isotropic
        root = qforms.sqrt_mod_p
        monkeypatch.setattr(qforms, "sqrt_mod_p", lambda a, p: None if root(a, p) is None else root(a, p) + 1)
        with pytest.raises(InternalCheckFailed, match="not a zero"):
            is_isotropic(q)

    @pytest.mark.parametrize("field", [Q, F5, RM7, R2], ids=str)
    def test_packed_congruence_matches_the_dense_product(self, field):
        # the diagonal Gram of every congruence check, its packed coefficient
        # vector, against the dense product P^T D P of linalg
        rng = random.Random(31)
        kernel = field.kernel
        for n in (1, 3, 6):
            d = [field.random(rng, nonzero=True) for _ in range(n)]
            dense = [[d[i] if i == j else field.zero() for j in range(n)] for i in range(n)]
            diagonal = kernel.pack(d)
            # every pair of random columns: x^T D formed once per column,
            # then paired with each y
            p = [[field.random(rng) for _ in range(n + 1)] for _ in range(n)]
            want = linalg.mat_mul(linalg.mat_mul(_columns(p), dense), p)
            packed = [kernel.pack(col) for col in _columns(p)]
            forms = [kernel.packed_times(diagonal, x) for x in packed]
            assert [[kernel._unpack(*kernel.packed_dot(u, y))[0] for y in packed] for u in forms] == want
            # an orthogonal basis passes, one tampered entry of its diagonal
            # fails as "diagonal", and a non-orthogonal pair as "off-diagonal"
            cols = _orthogonal_columns(d, rng)
            want = linalg.mat_mul(linalg.mat_mul(cols, dense), _columns(cols))
            values = [want[i][i] for i in range(n)]
            assert want == [[values[i] if i == j else field.zero() for j in range(n)] for i in range(n)]
            packed = [kernel.pack(col) for col in cols]
            times = partial(kernel.packed_times, diagonal)
            assert _gram_mismatch(kernel, times, packed, kernel.pack(values)) is None
            for i in range(n):
                tampered = values[:i] + [values[i] + field.one()] + values[i + 1:]
                assert _gram_mismatch(kernel, times, packed, kernel.pack(tampered)) == "diagonal"
            if n > 1:
                mixed = kernel.pack([a + b for a, b in zip(cols[0], cols[1])])
                assert _gram_mismatch(kernel, times, [packed[0], mixed] + packed[2:], kernel.pack(values)) == "off-diagonal"


class TestHilbert:
    def test_first_slot_one(self):
        rng = random.Random(1)
        for place in (INF, 2, 3, 5, 7):
            for _ in range(10):
                b = Q.element(rng.randint(1, 50))
                assert hilbert_symbol(Q.element(1), b, place) == 1

    def test_minus_one_minus_one_inf(self):
        assert hilbert_symbol(Q.element(-1), Q.element(-1), INF) == -1

    def test_minus_one_minus_one_two_against_oracle(self):
        assert hilbert2_oracle(-1, -1) == -1
        assert hilbert_symbol(Q.element(-1), Q.element(-1), 2) == -1

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (-1, 2), (2, -3), (-2, -5), (3, 3)])
    def test_dyadic_formula_matches_oracle(self, a, b):
        assert hilbert_symbol(Q.element(a), Q.element(b), 2) == hilbert2_oracle(a, b)

    def test_odd_place_matches_solvability(self):
        for p in (3, 5):
            for a, b in itertools.product([1, 2, 3, 5, -1, -2, p, -p, 2 * p], repeat=2):
                got = hilbert_symbol(Q.element(a), Q.element(b), p)
                want = _odd_hilbert_oracle(a, b, p)
                assert got == want, (a, b, p)

    def test_non_rational_rejected(self):
        with pytest.raises(UnsupportedField):
            hilbert_symbol(R2.element(1), R2.element(2), 2)


def _odd_hilbert_oracle(a: int, b: int, p: int) -> int:
    """Solvability of z^2 = a x^2 + b y^2 over Q_p (odd p) by exhaustive
    search mod p^3.  Primitive solutions cannot have x, y both divisible by
    p when val(a), val(b) <= 1, so scanning the rest against the squares
    mod p^3 is complete, and p^3 leaves Hensel lifting margin.  The scan
    runs on bitsets of residues: x a unit and y any, then x any and y a
    unit; for each value a x^2, the set of values b y^2 shifted by it (a
    rotation of the bitset) meets the squares or not."""
    mod = p**3
    full = (1 << mod) - 1

    def bits(values):
        return sum(1 << v for v in set(values))

    squares = bits(z * z % mod for z in range(mod))

    def meets(xs, ys):
        ys = bits(b * y * y % mod for y in ys)
        return any(((ys << u) | (ys >> (mod - u))) & full & squares for u in {a * x * x % mod for x in xs})

    units = [x for x in range(mod) if x % p]
    return 1 if meets(units, range(mod)) or meets(range(mod), units) else -1


class TestSymbolTable:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_every_class_pair_matches_the_oracle(self, p):
        # one representative u p^v of each square class at p, every ordered pair
        if p == 2:
            reps = [u << v for v in (0, 1) for u in (1, 3, 5, 7)]
        else:
            nonresidue = next(n for n in range(2, p) if n not in {x * x % p for x in range(p)})
            reps = [1, nonresidue, p, nonresidue * p]
        index = {qforms._square_class(c, p): c for c in reps}
        assert sorted(index) == list(range(len(reps)))
        hilbert, minus_one, _ = qforms._local_tables(p & 3)
        assert minus_one == qforms._square_class(-1, p)
        for (x, a), (y, b) in itertools.product(index.items(), repeat=2):
            want = hilbert2_oracle(a, b) if p == 2 else _odd_hilbert_oracle(a, b, p)
            assert (-1 if hilbert[x][y] else 1) == want, (a, b, p)


class TestLocalRecord:
    # squarefree classes of both signs with their primes; s m^2 / k^2 for m, k <= 30
    CLASSES = [s for s in range(1, 31) if all(e == 1 for e in prime_factors(s).values())]

    def test_record_keeps_the_odd_primes_and_drops_only_unramified_places(self):
        # the record's places are exactly 2 and the primes of odd exponent;
        # at every other prime of a numerator or denominator each class is
        # a unit, so e = 0 there, the form is isotropic for n >= 3 and the
        # local walk of witt_index_by_invariants stays at the generic bound
        rng = random.Random(44)
        dropped = 0
        for _ in range(400):
            n = rng.randint(2, 5)
            coeffs = [
                rng.choice((-1, 1)) * rng.choice(self.CLASSES) * Fraction(rng.randint(1, 30), rng.randint(1, 30)) ** 2
                for _ in range(n)
            ]
            pairs = [c.as_integer_ratio() for c in coeffs]
            exponents = [{**prime_factors(num), **prime_factors(den)} for num, den in pairs]
            every = {2}.union(*exponents)
            odd = {2}.union(*({p for p, e in exps.items() if e % 2} for exps in exponents))
            det, lazy = qforms._local_data(pairs)
            record = dict(lazy)
            assert list(record) == sorted(odd), coeffs
            wide = dict(qforms._record(every, lambda p: [qforms._square_class(num * den, p) for num, den in pairs]))
            assert {p: wide[p] for p in odd} == record, coeffs
            generic = (n - 1) // 2 if n % 2 else n // 2 if (-1) ** (n // 2) * det == 1 else (n - 2) // 2
            for p in every - odd:
                classes, d, e = wide[p]
                hilbert, minus_one, isotropic = qforms._local_tables(p & 3)
                assert not any(c & 1 for c in classes) and e == 0, (coeffs, p)
                assert n < 3 or isotropic[min(n, 5)][d][e], (coeffs, p)
                m, count = n, 0
                while m > 0 and isotropic[min(m, 5)][d][e]:
                    m, d, count = m - 2, d ^ minus_one, count + 1
                    e ^= hilbert[minus_one][d]
                assert count >= generic, (coeffs, p)
                dropped += 1
        assert dropped > 300


class TestHasse:
    def test_all_ones(self):
        q = QuadraticForm(Q, [1, 1])
        for place in (INF, 2, 5):
            assert hasse_invariant(q, place) == 1

    def test_negative_definite_binary_at_inf(self):
        assert hasse_invariant(QuadraticForm(Q, [-1, -1]), INF) == -1

    def test_nine_dim_regression_pin(self):
        # <1, -1 x 8> at 2: the only nontrivial symbols are the C(8,2) = 28
        # pairs (-1,-1)_2 = -1 (oracle-checked above), so the product is +1.
        q = QuadraticForm(Q, [1] + [-1] * 8)
        assert hasse_invariant(q, 2) == (-1) ** 28 == 1

    def test_a_given_place_needs_no_factoring(self, monkeypatch):
        # a product of two 30-digit primes, past the factoring budget: the
        # symbol at a named place reads the classes there alone
        monkeypatch.setattr(qforms, "prime_factors", lambda n: pytest.fail(f"factored {n}"))
        big = Q.element(-29499844054057586972697208966483124454769326642083079697007)
        assert hilbert_symbol(big, Q.element(2), 3) == 1
        assert hilbert_symbol(big, Q.element(5), 5) == -1  # (-n, 5)_5 = (-n/5) = (3/5) for n = 2 mod 5

    @pytest.mark.parametrize("place", [3.7, "3", "x", True], ids=repr)
    def test_a_place_is_inf_or_a_prime_int(self, place):
        # no truncation of a float to 3, no string read as a number, a
        # typed error rather than int()'s ValueError, and no bool as an int
        with pytest.raises(InvalidInput, match="place must be"):
            hasse_invariant(QuadraticForm(Q, [1, 3]), place)
        with pytest.raises(InvalidInput, match="place must be"):
            hilbert_symbol(Q.element(1), Q.element(3), place)


class TestIsotropy:
    def test_hyperbolic_plane(self):
        res = is_isotropic(QuadraticForm(Q, [1, -1]))
        assert res.isotropic and QuadraticForm(Q, [1, -1]).evaluate(_vector(res)).is_zero()

    def test_positive_definite(self):
        res = is_isotropic(QuadraticForm(Q, [1] * 8))
        assert not res.isotropic and res.method == "real_places"

    def test_f5_ternary_with_enumeration(self):
        q = QuadraticForm(F5, [1, 1, 1])
        # oracle: full enumeration over F_5^3
        found = [
            v
            for v in itertools.product(range(5), repeat=3)
            if any(v) and (v[0] ** 2 + v[1] ** 2 + v[2] ** 2) % 5 == 0
        ]
        assert found  # e.g. (1, 2, 0): 1 + 4 = 5
        res = is_isotropic(q)
        assert res.isotropic and q.evaluate(_vector(res)).is_zero()

    def test_ternary_anisotropic_at_two(self):
        # <1,-2,-3>: exhaustive residue check mod 8 shows no primitive
        # solution of x^2 = 2 y^2 + 3 z^2, so the form is anisotropic.
        prim = [
            v
            for v in itertools.product(range(8), repeat=3)
            if any(c % 2 for c in v)
            and (v[0] ** 2 - 2 * v[1] ** 2 - 3 * v[2] ** 2) % 8 == 0
        ]
        assert not prim
        res = is_isotropic(QuadraticForm(Q, [1, -2, -3]))
        assert not res.isotropic and res.detail["place"] == 2

    def test_ternary_isotropic_with_witness(self):
        q = QuadraticForm(Q, [1, 2, -3])
        res = is_isotropic(q)
        assert res.isotropic and q.evaluate(_vector(res)).is_zero()

    def test_meyer_indefinite_dim5(self):
        assert is_isotropic(QuadraticForm(Q, [1, 1, 1, 1, -7])).isotropic

    def test_qsqrt_dim5_rules(self):
        q_pos = QuadraticForm(R2, [1, 1, 1, 1, 1])
        assert not is_isotropic(q_pos).isotropic
        q_ind = QuadraticForm(R2, [1, 1, 1, 1, -1])
        assert is_isotropic(q_ind).isotropic
        ri = quad_ext(-1)
        q_im = QuadraticForm(ri, [1, 1, 1, 1, 1])
        res = is_isotropic(q_im)
        assert res.isotropic
        if res.witness is not None:
            assert q_im.evaluate(_vector(res)).is_zero()

    def test_qsqrt_indefinite_at_one_place_only(self):
        # 1+sqrt2 is positive at the first embedding, negative at the second:
        # <1,1,1,1, -(1+sqrt2)> is indefinite at +, definite at - => anisotropic
        q = QuadraticForm(R2, [1, 1, 1, 1, (-1, -1)])
        res = is_isotropic(q)
        assert not res.isotropic and res.method == "real_places"

    def test_fp_binary_with_enumeration(self):
        # dim 2: the verdict is whether a1 x^2 + a2 y^2 has a nonzero zero
        for p in (5, 7):
            f = prime_field(p)
            for a1, a2 in itertools.product(range(1, p), repeat=2):
                q = QuadraticForm(f, [a1, a2])
                found = any(
                    (a1 * x * x + a2 * y * y) % p == 0
                    for x, y in itertools.product(range(p), repeat=2) if x or y
                )
                res = is_isotropic(q)
                assert res.isotropic == found, (p, a1, a2)
                if found:
                    assert q.evaluate(_vector(res)).is_zero() and any(not c.is_zero() for c in _vector(res))

    def test_qsqrt_small_dim_unsupported(self):
        with pytest.raises(UnsupportedCase):
            is_isotropic(QuadraticForm(R2, [1, 1, 1, 1]))


# one isotropic form per field kind whose witness is built on demand, its
# witness builder, and the method of its verdict without a witness
BUILT_WITNESSES = {
    "Fp": (QuadraticForm(F7, [1, 1, 1]), "_fp_witness", "finite_field_count"),
    "Q": (QuadraticForm(Q, [1, 2, -3]), "_q_witness", "local_invariants"),
    "QSqrt": (QuadraticForm(RM7, [1, 1, 1, 1, 1]), "_qsqrt_witness", "real_places"),
}


def _wrong_witness(q, zero):
    """A packed vector of q's length that is not a zero of q: the zero
    vector, or (1, 0, ..., 0), whose value is the nonzero a_1."""
    kernel = q.field.kernel
    return kernel.pack([q.field.zero() if zero or i else q.field.one() for i in range(q.dim)])


class TestOneWitnessCheck:
    """is_isotropic alone builds, checks and reports every witness: a rule
    only decides, and a builder is called only when a witness is wanted."""

    @pytest.mark.parametrize("zero", [False, True], ids=["not_a_zero", "zero_vector"])
    @pytest.mark.parametrize("kind", sorted(BUILT_WITNESSES))
    def test_a_wrong_witness_from_any_builder_is_refused(self, kind, zero, monkeypatch):
        q, builder, _ = BUILT_WITNESSES[kind]
        assert is_isotropic(q).method == METHOD_WITNESS
        wrong = _wrong_witness(q, zero)
        if kind == "Q":  # _q_witness returns the integer vector; the rule packs it
            wrong = wrong[0]
        monkeypatch.setattr(qforms, builder, lambda *args: wrong)
        with pytest.raises(InternalCheckFailed, match="not a zero"):
            is_isotropic(q)

    @pytest.mark.parametrize("kind", sorted(BUILT_WITNESSES))
    def test_no_witness_is_built_unless_wanted(self, kind, monkeypatch):
        q, builder, method = BUILT_WITNESSES[kind]
        monkeypatch.setattr(qforms, builder, lambda *args: pytest.fail(f"{builder} ran"))
        res = is_isotropic(q, want_witness=False)
        assert res.isotropic and res.witness is None and res.method == method

    def test_the_search_oracle_reads_the_checked_fp_witness(self, monkeypatch):
        # past its enumeration cap the F_p search returns is_isotropic's
        # witness, so a wrong builder is caught there too
        q = QuadraticForm(prime_field(10007), [1, 1, 1])
        assert q.evaluate(isotropic_vector_search(q, 1)).is_zero()
        monkeypatch.setattr(qforms, "_fp_witness", lambda *args: _wrong_witness(q, False))
        with pytest.raises(InternalCheckFailed, match="not a zero"):
            isotropic_vector_search(q, 1)


class TestWitt:
    def test_plane_plus_tail(self):
        d = witt_decompose(QuadraticForm(Q, [1, -1, 1]))
        assert d.witt_index == 1
        assert equivalent(d.anisotropic_part, QuadraticForm(Q, [1]))

    def test_signature_one_eight_splits_once(self):
        q = QuadraticForm(Q, [1] + [-1] * 8)
        d = witt_decompose(q)
        assert d.witt_index == 1
        assert equivalent(d.anisotropic_part, QuadraticForm(Q, [-1] * 7))
        assert d.basis is not None  # explicit split recorded
        assert d.anisotropic_part.signature() == (0, 7)

    def test_f5_ternary(self):
        d = witt_decompose(QuadraticForm(F5, [1, 1, 1]))
        assert d.witt_index == witt_index_enumeration([1, 1, 1], 5) == 1
        assert d.anisotropic_part.dim == 1

    def test_basis_congruence_exact(self):
        q = QuadraticForm(Q, [2, -3, 6, 1, -1])
        d = witt_decompose(q)
        target = QuadraticForm(Q, [1, -1] * d.witt_index + list(d.anisotropic_part.coeffs))
        assert equivalent_with_witness(q, target, d.basis)

    def test_index_matches_invariant_route(self):
        rng = random.Random(12)
        for _ in range(15):
            coeffs = [c for c in (rng.randint(-6, 6) for _ in range(4)) if c] or [1]
            q = QuadraticForm(Q, coeffs)
            assert witt_decompose(q).witt_index == witt_index_by_invariants(q)

    def test_fp_random_vs_enumeration(self):
        rng = random.Random(3)
        for _ in range(10):
            p = rng.choice([5, 7])
            dim = rng.randint(1, 4)
            coeffs = [rng.randint(1, p - 1) for _ in range(dim)]
            q = QuadraticForm(prime_field(p), coeffs)
            assert witt_decompose(q).witt_index == witt_index_enumeration(coeffs, p)


def _random_coefficient(rng, field):
    if field == Q:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 9))
    if field == RM7:
        return field.element((rng.randint(-9, 9), rng.randint(1, 9)))
    return field.element(rng.randrange(1, field.p))


def _vanishing_prefix(coeffs, v):
    """Whether P_p = c_1 + ... + c_p is 0 for some 2 <= p <= |S| - 2, with
    c_i = a_si v_si^2 on the support S = (s0, s1, ...) of v in _split_step's
    order: v on s1..s_p is then a zero of smaller support, which
    _split_step refuses."""
    support = [i for i, x in enumerate(v) if not x.is_zero()]
    sums = list(itertools.accumulate(coeffs[i] * v[i] * v[i] for i in support[1:]))
    return any(P.is_zero() for P in sums[1:-1])


def _split_case(rng, field, dim, support):
    """Coefficients and a support-minimal zero v of them (no vanishing
    prefix sum), v nonzero exactly on support: the last support coefficient
    is solved for."""
    while True:
        v = [field.zero()] * dim
        for i in support:
            v[i] = field.element(rng.choice((-1, 1)) * rng.randint(1, 6))
        coeffs = [field.element(_random_coefficient(rng, field)) for _ in range(dim)]
        head = sum((coeffs[i] * v[i] * v[i] for i in support[:-1]), field.zero())
        if not head.is_zero():
            coeffs[support[-1]] = -head / (v[support[-1]] * v[support[-1]])
            if not _vanishing_prefix(coeffs, v):
                return coeffs, v


def _check_split(coeffs, v):
    """The exact congruence of one split, and the closed form of its
    complement: off the support of v every unit vector passes through with
    its own coefficient, and the column of s_p lives on s1..s_p with entry
    1 at s_p.  Columns keep the coordinate order."""
    f, dim = coeffs[0].field, len(coeffs)
    support = [i for i, x in enumerate(v) if not x.is_zero()]
    got, u1, u2, local, _ = _unpacked_split(coeffs, v)
    assert got == support and len(u1) == len(u2) == len(support)
    cols, comp = _expanded_split(coeffs, v)
    q = QuadraticForm(f, coeffs)
    basis = [[col[r] for col in cols] for r in range(dim)]
    assert equivalent_with_witness(q, QuadraticForm(f, [1, -1] + comp), basis)
    rest = [i for i in range(dim) if i not in support[:2]]
    assert len(local) == len(cols) - 2 == len(comp) == len(rest)
    for loc, col, c, i in zip(local, cols[2:], comp, rest):
        if i in support:
            assert len(loc) == len(support) and col[i] == f.one()
            assert all(col[j].is_zero() for j in range(dim) if j not in support[1:support.index(i) + 1])
        else:
            assert loc is None and col == [f.one() if j == i else f.zero() for j in range(dim)] and c == coeffs[i]


class TestSplitStep:
    @pytest.mark.parametrize("field", [Q, F7, prime_field(10007), RM7], ids=str)
    def test_seeded_split_panel(self, field):
        # witnesses of support 2-5 in dims 4-9, three draws each
        rng = random.Random(1_009)
        for size in (2, 3, 4, 5):
            for _ in range(3):
                dim = rng.randint(max(4, size), 9)
                _check_split(*_split_case(rng, field, dim, sorted(rng.sample(range(dim), size))))

    @pytest.mark.parametrize(
        "coeffs,support",
        [
            ([1, -1, 1, -1, 3], [1, 2]),  # c_1 + c_2 = 0: v on s1, s2 is a zero
            ([-1, -1, 1, 1, 3], [1, 2]),  # the same, with c_1 < 0
            ([3, 1, 1, -2, -3, 5], [1, 2, 3]),  # c_1 + c_2 + c_3 = 0
            ([2, 1, 1, -1, -1, -2, 3], [2, 3]),  # c_1..c_4 sum to 0, and so do c_2 + c_3
        ],
    )
    def test_zero_prefix_sum_is_refused(self, coeffs, support):
        # v on the support is a zero of smaller support than v: no witness
        # of is_isotropic is such a v, and the split refuses it
        coeffs = [Q.element(c) for c in coeffs]
        v = [Q.element(1)] * (len(coeffs) - 1) + [Q.zero()]
        assert QuadraticForm(Q, coeffs).evaluate(v).is_zero()
        assert _vanishing_prefix(coeffs, v)
        assert QuadraticForm(Q, coeffs).evaluate([v[i] if i in support else Q.zero() for i in range(len(v))]).is_zero()
        with pytest.raises(InternalCheckFailed, match="prefix sum"):
            _split_step(Q.kernel, Q.kernel.pack(coeffs), Q.kernel.pack(v))

    def test_witnesses_have_no_vanishing_prefix_sum(self):
        # the split relies on this: every witness of is_isotropic is
        # support-minimal, whether the height-1 probe or the construction
        # found it, over Q (integer and fractional coefficients), F_p and
        # Q(sqrt d); F_p witnesses have support <= 3, where the split checks no prefix sum
        rng = random.Random(7_919)

        def sign():
            return rng.choice((-1, 1))

        cases = [
            (Q, 3, 12, lambda: sign() * rng.randint(1, 9)),
            (Q, 3, 12, lambda: sign() * rng.randint(1, 10**4)),
            (Q, 3, 12, lambda: Fraction(sign() * rng.randint(1, 60), rng.randint(1, 9))),
            (F7, 3, 8, lambda: rng.randrange(1, 7)),
            (prime_field(10007), 3, 8, lambda: rng.randrange(1, 10007)),
            (R2, 5, 9, lambda: sign() * rng.randint(1, 30)),
            (RM7, 5, 9, lambda: Fraction(sign() * rng.randint(1, 30), rng.randint(1, 5))),
        ]
        wide = 0
        for field, low, high, draw in cases:
            for _ in range(150):
                coeffs = [field.element(draw()) for _ in range(rng.randint(low, high))]
                res = is_isotropic(QuadraticForm(field, coeffs))
                if res.witness is None:
                    continue
                v = _vector(res)
                assert not _vanishing_prefix(coeffs, v), (field, coeffs, v)
                support = sum(not x.is_zero() for x in v)
                assert field.kind != "Fp" or support <= 3
                wide += support >= 4
        assert wide >= 200

    @pytest.mark.parametrize("field", [Q, F7, prime_field(10007), RM7], ids=str)
    def test_prefix_sum_columns_match_diagonalize(self, field, monkeypatch):
        # no split of support 3-5 runs an elimination, and each complement
        # entry and column is the one diagonalize
        # gives on the Gram block of the n_k = e_k - r_k e_s1, r_k = a_k v_k / a_s1 v_s1
        rng = random.Random(2_003)

        def refuse(*args):
            raise AssertionError("a split ran an elimination")

        for size in (3, 4, 5):
            for _ in range(6):
                dim = rng.randint(size, 8)
                coeffs, v = _split_case(rng, field, dim, sorted(rng.sample(range(dim), size)))
                monkeypatch.setattr(qforms, "diagonalize", refuse)
                monkeypatch.setattr(FieldElement, "inv", refuse)
                support, _, _, local, comp = _unpacked_split(coeffs, v)
                monkeypatch.undo()
                _check_split(coeffs, v)
                s1, ks = support[1], support[2:]
                r = [coeffs[k] * v[k] / (coeffs[s1] * v[s1]) for k in ks]
                gram = [
                    [coeffs[s1] * rj * rk + (coeffs[k] if j == i else field.zero()) for j, rj in enumerate(r)]
                    for i, (k, rk) in enumerate(zip(ks, r))
                ]  # B(n_k, n_l) = a_s1 r_k r_l + delta_kl a_k
                form, p = diagonalize(field, gram)
                for j, k in enumerate(ks):
                    col = [row[j] for row in p]
                    assert comp[k - 2] == form.coeffs[j]
                    assert local[k - 2] == [field.zero(), -sum((x * y for x, y in zip(col, r)), field.zero())] + col


class TestConstructedWitnesses:
    def test_large_prime_ternary_has_basis(self):
        # <1,1,-(10^9+9)>: 10^9+9 = 1 mod 4 is a sum of two squares far
        # beyond any search height; the invariant-only route gave no basis
        q = QuadraticForm(Q, [1, 1, -(10**9 + 9)])
        d = witt_decompose(q)
        assert d.witt_index == 1 and d.basis is not None
        target = QuadraticForm(Q, [1, -1] + list(d.anisotropic_part.coeffs))
        assert equivalent_with_witness(q, target, d.basis)

    @pytest.mark.parametrize(
        "coeffs",
        [
            [-9] + [421] * 6,
            [4] + [-107] * 8,
            [2] + [-449] * 6,
            [-7] + [239] * 8,
        ],
    )
    def test_search_give_up_family(self, coeffs):
        # s * (-v, P, ..., P): every zero has |x_0| >= P, past the search cap
        q = QuadraticForm(Q, coeffs)
        d = witt_decompose(q)
        assert d.basis is not None and d.witt_index == witt_index_by_invariants(q)
        res = is_isotropic(q)
        assert res.isotropic and q.evaluate(_vector(res)).is_zero()

    def test_imaginary_field_witness_from_a_definite_rational_form(self):
        ri = quad_ext(-7)
        q = QuadraticForm(ri, [1, 2, 3, 5, 7, 11])
        res = is_isotropic(q)
        assert res.method == "explicit_witness" and q.evaluate(_vector(res)).is_zero()

    def test_irrational_coefficients_keep_the_verdict_without_a_witness(self):
        q = QuadraticForm(quad_ext(-7), [1, 1, 1, 1, (0, 1)])
        res = is_isotropic(q)
        assert res.isotropic and res.witness is None
        with pytest.raises(UnsupportedCase):
            witt_decompose(q)

    @pytest.mark.parametrize("field", [Q, RM7], ids=str)
    def test_witness_uses_each_coefficients_own_square_class(self, field, monkeypatch):
        # the construction sees the classes of the rationals themselves (at
        # most 1.8e11 here), not those of the coefficients integerized by
        # the lcm of their denominators (up to 2.1e14, seconds of lattice
        # enumeration)
        coeffs = [Fraction(-858833, 212069), Fraction(160, 979), 5, Fraction(904931, 634372), 71]
        seen = []
        solve = qforms._solve_sqf
        monkeypatch.setattr(qforms, "_solve_sqf", lambda s, primes: seen.append(list(s)) or solve(s, primes))
        q = QuadraticForm(field, coeffs)
        res = is_isotropic(q)
        assert res.isotropic and q.evaluate(_vector(res)).is_zero()
        assert seen[0] == [-182131855477, 9790, 5, 143515722083, 71]

    def test_seeded_differential_panel(self):
        # 150 forms over Q at the benchmark's heights: dims 3-4 up to 100,
        # 5-6 up to 10, 7-9 up to 5
        rng = random.Random(2718)
        heights = {3: 100, 4: 100, 5: 10, 6: 10, 7: 5, 8: 5, 9: 5}
        for _ in range(150):
            dim = rng.randint(3, 9)
            coeffs = [rng.choice((-1, 1)) * rng.randint(1, heights[dim]) for _ in range(dim)]
            q = QuadraticForm(Q, coeffs)
            res = is_isotropic(q)
            if res.isotropic:
                assert res.witness is not None and q.evaluate(_vector(res)).is_zero(), coeffs
            d = witt_decompose(q)
            assert d.basis is not None, coeffs
            assert d.witt_index == witt_index_by_invariants(q), coeffs
            if isotropic_vector_search(q, 2) is not None:
                assert res.isotropic, coeffs


class TestEquivalence:
    def test_square_scaling(self):
        assert equivalent(QuadraticForm(Q, [1, 1]), QuadraticForm(Q, [4, 9]))

    def test_signature_obstruction(self):
        assert not equivalent(QuadraticForm(Q, [1, 1]), QuadraticForm(Q, [1, -1]))

    def test_hasse_obstruction(self):
        # same dim, det, signature; different Hasse at 2 and 7
        q1 = QuadraticForm(Q, [1, 7])
        q2 = QuadraticForm(Q, [7, 1])
        assert equivalent(q1, q2)
        q3 = QuadraticForm(Q, [2, 14])
        assert q1.det_squareclass() == q3.det_squareclass()
        assert equivalent(q1, q3) == (hasse_invariant(q1, 7) == hasse_invariant(q3, 7))

    def test_hasse_obstruction_at_a_prime_of_one_record(self):
        # <3,3> has Hasse invariant -1 at 2 and at 3, where <1,1> has no
        # entry: either order must see it; <9,25/4> has only 2 in its record
        q1, q2, q3 = (QuadraticForm(Q, c) for c in ([1, 1], [3, 3], [9, Fraction(25, 4)]))
        assert not equivalent(q1, q2) and not equivalent(q2, q1)
        assert equivalent(q1, q3) and equivalent(q3, q1)

    def test_f7_example_against_bruteforce(self):
        q1 = QuadraticForm(F7, [1, 2])
        q2 = QuadraticForm(F7, [2, 1])
        assert fp_equivalent_bruteforce(q1, q2)
        assert equivalent(q1, q2)
        q3 = QuadraticForm(F7, [1, 3])
        assert equivalent(q1, q3) == fp_equivalent_bruteforce(q1, q3)

    def test_qsqrt_needs_witness(self):
        q = QuadraticForm(R2, [1, 1, 1, 1])
        with pytest.raises(UnsupportedCase):
            equivalent(q, q)
        ident = [[R2.element(1 if i == j else 0) for j in range(4)] for i in range(4)]
        assert equivalent_with_witness(q, q, ident)

    def test_witness_entries_are_coerced_into_the_field(self):
        q = QuadraticForm(Q, [1, -1])
        assert equivalent_with_witness(q, QuadraticForm(Q, [4, -9]), [[2, 0], [0, "3"]])
        with pytest.raises(FieldMismatch):
            equivalent_with_witness(q, q, [[F5.one(), F5.zero()], [F5.zero(), F5.one()]])


class TestPfister:
    def test_graves_slots(self):
        assert list(pfister(Q, [-1, -1, -1]).coeffs) == [Q.element(1)] * 8

    def test_single_slot_hyperbolic(self):
        assert list(pfister(Q, [1]).coeffs) == [Q.element(1), Q.element(-1)]

    def test_hamilton(self):
        assert list(pfister(Q, [-1, -1]).coeffs) == [Q.element(1)] * 4

    def test_errors(self):
        with pytest.raises(InvalidInput):
            pfister(Q, [])
        with pytest.raises(InvalidInput):
            pfister(Q, [1, 2, 3, 4])
        with pytest.raises(InvalidInput):
            pfister(Q, [0])


class TestSearch:
    def test_hyperbolic_bound_one(self):
        w = isotropic_vector_search(QuadraticForm(Q, [1, -1]), 1)
        assert w is not None and QuadraticForm(Q, [1, -1]).evaluate(w).is_zero()

    def test_definite_none(self):
        assert isotropic_vector_search(QuadraticForm(Q, [1, 1, 1]), 50) is None

    def test_anisotropic_ternary_none_and_isotropic_cousin(self):
        # <1,-2,-3> is anisotropic (see TestIsotropy), so the search must
        # come back empty at any bound; <1,2,-3> has the witness (1,1,1).
        assert isotropic_vector_search(QuadraticForm(Q, [1, -2, -3]), 2) is None
        w = isotropic_vector_search(QuadraticForm(Q, [1, 2, -3]), 1)
        assert w is not None and QuadraticForm(Q, [1, 2, -3]).evaluate(w).is_zero()

    def test_fp_exhaustive(self):
        q = QuadraticForm(F7, [1, 1, 1, 1])
        w = isotropic_vector_search(q, 7)
        assert w is not None and q.evaluate(w).is_zero()

    def test_zero_in_the_first_half_is_found(self):
        # (1, 1, 0, 0) is in the box of height 1; the permuted <3, 5, 1, -1> finds (0, 0, 1, 1)
        q = QuadraticForm(Q, [1, -1, 3, 5])
        w = isotropic_vector_search(q, 1)
        assert w is not None and q.evaluate(w).is_zero()

    def test_meet_in_the_middle_returns_the_plain_scan_vector(self):
        # the plain scan in the search's own order: second half outer, and
        # for each ys the first xs of the first half that completes a zero,
        # both in itertools.product order; the all-zero pair is skipped (so
        # ys = 0 gives nothing), then a zero on the first half alone.  Some
        # coefficient lists carry such a zero on their first two coordinates.
        def scan(coeffs, bound):
            h = (len(coeffs) + 1) // 2
            box = range(bound + 1)

            def value(xs, cs):
                return sum(c * x * x for c, x in zip(cs, xs))

            for ys in itertools.product(box, repeat=len(coeffs) - h):
                target = -value(ys, coeffs[h:])
                xs = next((xs for xs in itertools.product(box, repeat=h) if value(xs, coeffs[:h]) == target), None)
                if xs is not None and any(xs + ys):
                    return list(xs + ys)
            for xs in itertools.product(box, repeat=h):
                if any(xs) and value(xs, coeffs[:h]) == 0:
                    return list(xs) + [0] * (len(coeffs) - h)
            return None

        rng = random.Random(2_305)
        found = first_half = 0
        for _ in range(400):
            n, bound = rng.randint(1, 7), rng.randint(1, 3)
            coeffs = [rng.choice((-1, 1)) * rng.randint(1, 12) for _ in range(n)]
            if n >= 3 and rng.random() < 0.25:
                c = rng.randint(1, 12)
                coeffs[:2] = [c, -c * rng.choice((1, 4))]
            want = scan(coeffs, bound)
            assert qforms._search_integer(coeffs, bound) == want, (coeffs, bound)
            found += want is not None
            first_half += want is not None and not any(want[(n + 1) // 2:])
        assert found >= 150 and first_half >= 10, (found, first_half)


class TestFormBasics:
    def test_nonzero_coeffs_required(self):
        with pytest.raises(InvalidInput):
            QuadraticForm(Q, [1, 0])

    @pytest.mark.parametrize("field", [Q, prime_field(10007), RM7], ids=str)
    def test_evaluate_matches_the_element_sum(self, field):
        # evaluate sums on packed integers; the FieldElement sum is the
        # oracle, for vectors given as ints, as literals and as elements
        rng = random.Random(17)
        for dim in (0, 1, 3, 8):
            q = QuadraticForm(field, [_random_coefficient(rng, field) for _ in range(dim)])
            elements = [field.random(rng) for _ in range(dim)]
            for vec in ([rng.randint(-50, 50) for _ in range(dim)], [str(x) for x in elements], elements):
                want = field.zero()
                for a, x in zip(q.coeffs, vec):
                    x = field.element(x)
                    want = want + a * x * x
                assert q.evaluate(vec) == want
        with pytest.raises(InvalidInput):
            QuadraticForm(field, [1, 2]).evaluate([1])

    def test_json_roundtrip(self):
        from splitrank.qforms import form_from_json

        q = QuadraticForm(R2, [1, (0, 1), (2, -3)])
        assert form_from_json(q.to_json()) == q
