"""Seeded property suites for every module, shared by the CLI `verify`
command and the test suite.

Each suite lists its checks, each a generator that yields a detail for each
failing case, and `_run` turns them into CheckResults: a check fails at its
first failing case.  All randomness flows from one seed per suite, so runs
are reproducible.  The module also hosts the independent oracles
(exhaustive Witt enumeration over F_p, brute-force change-of-basis search,
the plain FieldElement octonion and matrix products, the dense
automorphism and conjugation matrices) used to cross-validate the
production decision procedures and the packed kernels.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from math import prod

from . import linalg
from .albert import (
    AlbertAlgebra,
    AlbertElement,
    Automorphism,
    _build_slot_nilpotent,
    _jordan_from_matrices,
    albert_element_from_json,
    bilinear,
    from_matrix,
    e0_subspace,
    jordan_mul,
    matrix_mul,
    nilpotent_witness,
    norm_Q,
    phi,
    q0_data,
    quadratic_trace_form,
    so_gamma_sample,
    to_matrix,
    torus_element,
    trace,
)
from .composition import CompElement, cayley_dickson
from .fields import legendre, prime_factors, prime_field, quad_ext, rationals
from .groups import (
    KIND_SPIN,
    VERDICT_EXCELLENT,
    f4_excellence,
    f4_kernel,
    f4_rank,
    g2_excellence,
    g2_rank,
)
from .qforms import (
    INF,
    QuadraticForm,
    equivalent,
    equivalent_with_witness,
    hilbert_symbol,
    is_isotropic,
    isotropic_vector_search,
    pfister,
    witt_decompose,
    witt_index_by_invariants,
)

DEFAULT_SEED = 1729


@dataclass
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""


def _run(suite: str, checks) -> list[CheckResult]:
    """One CheckResult per (name, check), in order.  A check is a generator
    function that yields a detail string for each failing case: the first
    one fails the check and ends it, and a check that yields nothing
    passes.  Each check runs to its end before the next one starts, so the
    suite's draws come in the order the checks are listed."""
    results = []
    for name, check in checks:
        detail = next(check(), None)
        results.append(CheckResult(suite, name, detail is None, detail or ""))
    return results


def _draws(rng, algebras, count: int, arity: int, height: int):
    """(a, x, ...) for count tuples of arity random elements of each algebra
    a in turn, drawn in that order from rng."""
    for a in algebras:
        for _ in range(count):
            yield (a, *(a.random(rng, height) for _ in range(arity)))


def _case(a, *elements) -> str:
    """The detail of a failing case: the algebra and its elements."""
    return f"{a!r}: " + " ".join(f"{n}={e.to_json()}" for n, e in zip("xyz", elements))


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def witt_index_enumeration(coeffs: list[int], p: int) -> int:
    """Witt index over F_p by exhaustive search, in plain integers.

    Independent of the qforms machinery: finds an isotropic vector by full
    enumeration, splits its plane with hand-rolled mod-p linear algebra, and
    recurses on a lifted basis of the complement.
    """

    def q_of(v):
        return sum(c * x * x for c, x in zip(coeffs, v)) % p

    def b_of(u, v):
        return sum(c * x * y for c, x, y in zip(coeffs, u, v)) % p

    def recurse(basis) -> int:
        m = len(basis)
        if m == 0:
            return 0
        iso = None
        for ts in itertools.product(range(p), repeat=m):
            if not any(ts):
                continue
            v = [sum(t * b[i] for t, b in zip(ts, basis)) % p for i in range(len(coeffs))]
            if q_of(v) == 0:
                iso = v
                break
        if iso is None:
            return 0
        w = next(b for b in basis if b_of(iso, b) % p != 0)
        rows = [
            [b_of(iso, b) for b in basis],
            [b_of(w, b) for b in basis],
        ]
        # solve rows . t = 0 over F_p by elimination on the 2 x m system
        pivots = []
        mat = [r[:] for r in rows]
        col = 0
        for r in range(2):
            piv = next((c for c in range(col, m) if mat[r][c] % p), None)
            if piv is None:
                continue
            inv = pow(mat[r][piv], -1, p)
            mat[r] = [x * inv % p for x in mat[r]]
            for rr in range(2):
                if rr != r and mat[rr][piv] % p:
                    f = mat[rr][piv]
                    mat[rr] = [(x - f * y) % p for x, y in zip(mat[rr], mat[r])]
            pivots.append((r, piv))
            col = piv + 1
        pivot_cols = [c for _, c in pivots]
        free_cols = [c for c in range(m) if c not in pivot_cols]
        new_basis = []
        for fc in free_cols:
            t = [0] * m
            t[fc] = 1
            for r, pc in pivots:
                t[pc] = (-mat[r][fc]) % p
            vec = [sum(ti * b[i] for ti, b in zip(t, basis)) % p for i in range(len(coeffs))]
            new_basis.append(vec)
        return 1 + recurse(new_basis)

    n = len(coeffs)
    start = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    return recurse(start)


def reference_octonion_mul(x: CompElement, y: CompElement) -> CompElement:
    """x y by the Cayley-Dickson doubling rule
    (a, b)(c, d) = (a c + g d conj(b), conj(a) d + c b), in plain
    FieldElement arithmetic: the oracle for CompElement.__mul__."""
    a = x._check(y).algebra
    return CompElement(a, _doubling_mul(a.params, list(x.coords), list(y.coords)))


def _doubling_mul(params, u, v):
    if not params:
        return [u[0] * v[0]]
    inner, g, h = params[:-1], params[-1], len(u) // 2
    a, b, c, d = u[:h], u[h:], v[:h], v[h:]

    def conj(w):
        return w[:1] + [-t for t in w[1:]]

    first = [s + g * t for s, t in zip(_doubling_mul(inner, a, c), _doubling_mul(inner, d, conj(b)))]
    second = [s + t for s, t in zip(_doubling_mul(inner, conj(a), d), _doubling_mul(inner, c, b))]
    return first + second


def reference_matrix_mul(x: AlbertElement, y: AlbertElement) -> list[list[CompElement]]:
    """to_matrix(x) to_matrix(y) entry by entry, each entry the sum over j
    of the reference_octonion_mul products of entries (i, j) and (j, k), in
    plain FieldElement arithmetic: the oracle for the compiled matrix_mul.
    A product with a zero factor is zero, so it is skipped."""
    x._check(y)
    mx, my = to_matrix(x), to_matrix(y)
    zero = x.algebra.octonions.zero()
    return [
        [
            sum((reference_octonion_mul(mx[i][j], my[j][k]) for j in range(3) if mx[i][j] and my[j][k]), zero)
            for k in range(3)
        ]
        for i in range(3)
    ]


def reference_apply(matrix, x: AlbertElement) -> AlbertElement:
    """The dense matrix-vector product of a 27x27 FieldElement matrix: the
    oracle for Automorphism.apply on the rows compiled from that matrix."""
    return AlbertElement(x.algebra, linalg.mat_vec(matrix, list(x.coords)))


def reference_conjugation(src: AlbertAlgebra, dst: AlbertAlgebra, x):
    """The 27x27 matrix of theta -> X theta X^(-1) by its definition: column
    u is from_matrix(dst, X to_matrix(b_u) X^(-1)), X^(-1) by Gauss-Jordan
    elimination, in plain FieldElement arithmetic: the oracle for
    conjugation_between and phi."""
    x = [[src.field.element(v) for v in row] for row in x]
    xi, zero = linalg.inverse(x), src.octonions.zero()

    def conjugate(m):  # X m X^(-1), skipping the zero entries of m
        return [[sum((m[j][k].scale(x[i][j] * xi[k][l]) for j in range(3) for k in range(3) if m[j][k]), zero)
                 for l in range(3)] for i in range(3)]

    cols = [from_matrix(dst, conjugate(to_matrix(src.basis(u)))).coords for u in range(27)]
    return [list(row) for row in zip(*cols)]


def fp_equivalent_bruteforce(q1: QuadraticForm, q2: QuadraticForm) -> bool:
    """Search all invertible change-of-basis matrices over F_p (tiny dims)."""
    p = q1.field.p
    n = q1.dim
    if q2.dim != n:
        return False
    for entries in itertools.product(range(p), repeat=n * n):
        if equivalent_with_witness(q1, q2, [entries[i * n : (i + 1) * n] for i in range(n)]):
            return True
    return False


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_fields(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    rng = random.Random(seed)

    def axioms(f):
        for _ in range(1000):
            x, y, z = (f.random(rng) for _ in range(3))
            if (
                (x + y) + z != x + (y + z)
                or (x * y) * z != x * (y * z)
                or x * y != y * x
                or x + y != y + x
                or x * (y + z) != x * y + x * z
                or (not y.is_zero() and (x * y) / y != x)
            ):
                yield f"x={x} y={y} z={z}"

    def squares(f):
        for _ in range(100):
            x = f.random(rng)
            w = (x * x).square_root()
            if w is None or w * w != x * x:
                yield f"x={x}"

    def signs(f):
        for _ in range(200):
            x, y = f.random(rng, nonzero=True), f.random(rng, nonzero=True)
            if (x * y).real_signs() != [a * b for a, b in zip(x.real_signs(), y.real_signs())]:
                yield f"x={x} y={y}"

    def legendre_law():
        for p in (5, 7, 11, 13):
            for _ in range(100):
                a, b = rng.randint(1, 200), rng.randint(1, 200)
                if a % p and b % p and legendre(a, p) * legendre(b, p) != legendre(a * b, p):
                    yield f"a={a} b={b} p={p}"

    checks = []
    for f in (rationals(), prime_field(7), quad_ext(2), quad_ext(-1)):
        checks += [(f"axioms over {f} (1000 triples)", partial(axioms, f)),
                   (f"is_square(x^2) with witness over {f}", partial(squares, f))]
    for f in (rationals(), quad_ext(2), quad_ext(-1)):
        checks.append((f"real_signs multiplicative over {f}", partial(signs, f)))
    return _run("fields", checks + [("legendre multiplicativity (p in 5,7,11,13)", legendre_law)])


def _random_q_form(rng, dim, height=10) -> QuadraticForm:
    coeffs = []
    while len(coeffs) < dim:
        if c := rng.randint(-height, height):
            coeffs.append(c)
    return QuadraticForm(rationals(), coeffs)


def suite_qforms(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    rng = random.Random(seed)
    f = rationals()

    def witt_bookkeeping():
        # witt_decompose proves each report by one exact congruence; this is
        # the invariant cross-check of the report, a second route
        for _ in range(25):
            q = _random_q_form(rng, rng.randint(2, 6), height=8)
            dec = witt_decompose(q)
            if dec.anisotropic_part.dim + 2 * dec.witt_index != q.dim:
                yield f"dim bookkeeping {q}"
            if dec.witt_index != witt_index_by_invariants(q):
                yield f"index vs invariants {q}"
            if not equivalent(QuadraticForm(f, [1, -1] * dec.witt_index + list(dec.anisotropic_part.coeffs)), q):
                yield f"invariants of H^i + an vs {q}"

    def hasse_minkowski():
        for _ in range(50):
            q = _random_q_form(rng, rng.randint(2, 4), height=10)
            if is_isotropic(q, want_witness=False).isotropic:
                found = next(filter(None, (isotropic_vector_search(q, 1 << e) for e in range(14))), None)
                if found is None or not q.evaluate(found).is_zero():
                    yield f"isotropic but no witness <= 10^4: {q}"
            elif isotropic_vector_search(q, 1000) is not None:
                yield f"anisotropic but witness found: {q}"

    def fp_witt_index():
        for _ in range(50):
            p = rng.choice([5, 7, 11])
            coeffs = [rng.randint(1, p - 1) for _ in range(rng.randint(1, 5))]
            q = QuadraticForm(prime_field(p), coeffs)
            index, oracle = witt_decompose(q).witt_index, witt_index_enumeration(coeffs, p)
            if index != oracle:
                yield f"{q}: {index} vs oracle {oracle}"

    def hilbert_laws():
        for _ in range(100):
            a, b, c = (f.element(Fraction(rng.randint(-20, 20) or 1, rng.randint(1, 20))) for _ in range(3))
            v = rng.choice([INF, 2, 3, 5, 7, 11, 13])
            if (
                hilbert_symbol(a, b, v) != hilbert_symbol(b, a, v)
                or hilbert_symbol(a * c, b, v) != hilbert_symbol(a, b, v) * hilbert_symbol(c, b, v)
                or hilbert_symbol(a, -a, v) != 1
            ):
                yield f"a={a} b={b} c={c} at {v}"

    def product_formula():
        for _ in range(100):
            a = f.element(Fraction(rng.randint(-20, 20) or 3, rng.randint(1, 20)))
            b = f.element(Fraction(rng.randint(-20, 20) or 5, rng.randint(1, 20)))
            every_prime = {2}.union(*(prime_factors(n) for x in (a, b) for n in x.value.as_integer_ratio()))
            if prod(hilbert_symbol(a, b, v) for v in [INF, *every_prime]) != 1:
                yield f"a={a} b={b}"

    def pfister_hyperbolic():
        for signs in itertools.product((1, -1), repeat=3):
            q = pfister(f, signs)
            if is_isotropic(q, want_witness=False).isotropic and witt_decompose(q).witt_index != q.dim // 2:
                yield f"{q}"

    return _run("qforms", [
        ("Witt decomposition invariant bookkeeping (25 forms)", witt_bookkeeping),
        ("Hasse-Minkowski vs bounded search (50 forms, dims 2-4)", hasse_minkowski),
        ("F_p Witt index vs exhaustive enumeration (50 forms)", fp_witt_index),
        ("Hilbert symbol symmetry/bimultiplicativity/(a,-a)=1", hilbert_laws),
        ("Hilbert product formula (100 pairs)", product_formula),
        ("isotropic Pfister forms are hyperbolic (8 patterns)", pfister_hyperbolic),
    ])


_COMP_PARAMS_Q = [[], [2], [-1, 3], [-1, -1, -1], [1, -1, -1]]
_COMP_PARAMS_F7 = [[], [3], [1, 2], [3, 5, 6], [1, 6, 2]]


def suite_composition(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    rng = random.Random(seed)
    algebras = [cayley_dickson(rationals(), ps) for ps in _COMP_PARAMS_Q]
    algebras += [cayley_dickson(prime_field(7), ps) for ps in _COMP_PARAMS_F7]

    def composition_law():
        for alg, x, y in _draws(rng, algebras, 200, 2, 4):
            if (x * y).norm() != x.norm() * y.norm():
                yield _case(alg, x, y)

    def alternativity():
        for alg, x, y in _draws(rng, [alg for alg in algebras if alg.dim == 8], 200, 2, 4):
            if x * (x * y) != (x * x) * y or (y * x) * x != y * (x * x):
                yield _case(alg, x, y)

    def quadratic_law():
        for alg, x in _draws(rng, algebras, 100, 1, 4):
            if not (x * x - x.scale(x.trace()) + alg.one().scale(x.norm())).is_zero():
                yield _case(alg, x)

    def norm_form():  # the closed Pfister form against x conj(x) on the table that multiplies
        for alg, x in _draws(rng, algebras, 50, 1, 4):
            n = x * x.conj()
            if alg.norm_form().evaluate(x.coords) != n.scalar_part() or not n.is_scalar():
                yield _case(alg, x)

    def no_zero_divisors():
        for alg, x, y in _draws(rng, [cayley_dickson(rationals(), [-1, -1, -1])], 500, 2, 4):
            if not (x.is_zero() or y.is_zero()) and (x * y).is_zero():
                yield _case(alg, x, y)

    return _run("composition", [
        ("composition law N(xy)=N(x)N(y) (200 pairs/algebra)", composition_law),
        ("alternativity of octonions (200 pairs/algebra)", alternativity),
        ("x^2 - tr(x) x + N(x) = 0 (100 samples/algebra)", quadratic_law),
        ("norm_form evaluates to N (50 samples/algebra)", norm_form),
        ("division algebra has no zero divisors (500 pairs)", no_zero_divisors),
    ])


def suite_albert(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    rng = random.Random(seed)
    fixtures = [AlbertAlgebra(cayley_dickson(f, [-1, -1, -1]), [1, -1, 1]) for f in (rationals(), prime_field(7))]
    q_field = rationals()

    def commutativity():
        for a, x, y in _draws(rng, fixtures, 200, 2, 3):
            if jordan_mul(x, y) != jordan_mul(y, x):
                yield _case(a, x, y)

    def jordan_identity():
        for a, x, y in _draws(rng, fixtures, 200, 2, 3):
            x2 = jordan_mul(x, x)
            if jordan_mul(jordan_mul(x, y), x2) != jordan_mul(x, jordan_mul(y, x2)):
                yield _case(a, x, y)

    def polarization():
        for a, x, y in _draws(rng, fixtures, 200, 2, 3):
            polar = bilinear(x, y)
            if norm_Q(x + y) - norm_Q(x) - norm_Q(y) != polar or polar != trace(jordan_mul(x, y)):
                yield _case(a, x, y)

    def trace_form():
        for a in fixtures:
            form = quadratic_trace_form(a)
            for _ in range(50):
                x = a.random(rng, 3)
                if form.evaluate(list(x.coords)) != norm_Q(x):
                    yield _case(a, x)

    def e0_and_q0():
        for params, gamma in (([-1, -1, -1], [1, -1, 1]), ([-1, -1, -1], [2, -2, 1]), ([-1, -1, -1], [1, -4, 9]),
                              ([-1, -2, -3], [1, -1, 1]), ([-2, -5, -1], [3, -3, 5])):
            comp = cayley_dickson(q_field, params)
            a = AlbertAlgebra(comp, gamma)
            u = a.diag_unit(3)
            if len(e0_subspace(a, u)) != 9:
                yield f"dim E0 != 9 for {a}"
            if not equivalent(q0_data(a, u)[0], QuadraticForm(q_field, [1] + [-c for c in comp.norm_form().coeffs])):
                yield f"q0 != <1> + (-N) for {a}"

    def phi_preserves_q():
        a = fixtures[0]
        for auto in (phi(a, torus_element(a.field, Fraction(5, 4), Fraction(3, 4))), phi(a, so_gamma_sample(a, rng))):
            for _ in range(25):
                x = a.random(rng, 3)
                if norm_Q(auto.apply(x)) != norm_Q(x):
                    yield _case(a, x)

    def nilpotents():
        for params, gamma in (([-1, -1, -1], [1, -1, 1]), ([1, -1, -1], [1, 1, 1])):
            a = AlbertAlgebra(cayley_dickson(q_field, params), gamma)
            z = nilpotent_witness(a)
            if z is None or not jordan_mul(z, z).is_zero():
                yield f"{a!r}"

    def matrix_route():
        for a, x, y in _draws(rng, fixtures, 50, 2, 3):
            if jordan_mul(x, y) != _jordan_from_matrices(a, x, y):
                yield _case(a, x, y)

    def octonion_reference():
        for c, x, y in _draws(rng, [a.octonions for a in fixtures], 50, 2, 3):
            if x * y != reference_octonion_mul(x, y):
                yield _case(c, x, y)

    def matrix_reference():
        for a, x, y in _draws(rng, fixtures, 50, 2, 3):
            if matrix_mul(x, y) != reference_matrix_mul(x, y):
                yield _case(a, x, y)

    return _run("albert", [
        ("Jordan commutativity (200 pairs over Q and F7)", commutativity),
        ("Jordan identity (200 pairs over Q and F7)", jordan_identity),
        ("polarization <x,y> = Q(x+y)-Q(x)-Q(y) = tr(xy)", polarization),
        ("trace form evaluates to Q (50 samples/algebra)", trace_form),
        ("E0 has dim 9, Q0 ~ <1> + (-N) (5 inputs)", e0_and_q0),
        ("phi preserves Q (50 samples)", phi_preserves_q),
        ("nilpotent witnesses square to zero", nilpotents),
        ("jordan_mul = matrix route (50 pairs over Q and F7)", matrix_route),
        ("octonion product = FieldElement reference (50 pairs over Q and F7)", octonion_reference),
        ("matrix_mul = FieldElement reference (50 pairs over Q and F7)", matrix_reference),
    ])


def suite_groups(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    rng = random.Random(seed)
    q_field = rationals()
    graves = cayley_dickson(q_field, [-1, -1, -1])
    split = cayley_dickson(q_field, [1, -1, -1])
    table = [
        (AlbertAlgebra(graves, [1, 1, 1]), 0),
        (AlbertAlgebra(graves, [1, -1, 1]), 1),
        (AlbertAlgebra(split, [1, 1, 1]), 4),
    ]

    def pinned():
        for a, want in table:
            if (got := f4_rank(a).rank) != want:
                yield f"F4 rank of {a!r}: {got}, want {want}"
        for c, want in ((graves, 0), (split, 2)):
            if (got := g2_rank(c).rank) != want:
                yield f"G2 rank of {c!r}: {got}, want {want}"

    def certificates():
        for a, _ in table:
            report = f4_rank(a)
            if (report.rank == 4) != a.octonions.is_split():
                yield f"{a!r}: rank {report.rank} against the split test of C"
            if report.rank == 1:
                z = albert_element_from_json(a, report.certificate["element"])
                if not jordan_mul(z, z).is_zero():
                    yield f"{a!r}: the rank-1 element is not square-zero"
            if report.rank == 0:
                certs = report.certificate["slot_forms"]
                if len(certs) != 3 or any(c["isotropic"] for c in certs):
                    yield f"{a!r}: rank 0 without three anisotropic slot forms"

    def kernel_kinds():
        expect = {0: "whole_group", 1: "spin_form", 4: "trivial"}
        for a, rank in table:
            if (kind := f4_kernel(a).kind) != expect[rank]:
                yield f"{a!r}: kernel {kind}, want {expect[rank]}"

    def rank1_kernels():
        for gamma, slot in (([2, -2, 1], 1), ([3, -5, -7], 2), ([2, -2, 1], 3)):
            a1 = AlbertAlgebra(graves, gamma)
            report = f4_rank(a1)
            if slot == 3:  # f4_rank never certifies slot 3 over Q: a zero of <1> + r_3 N = <1> - N
                w = is_isotropic(a1.slot_forms[2], want_witness=True).witness
                report = replace(report, nilpotent=_build_slot_nilpotent(a1, 3, w))
            k = f4_kernel(a1, report)
            u, c = a1.diag_unit(slot), graves.element(k.provenance["c"])
            cols = k.provenance["split_basis"]  # literals, packed as they stand
            combo = QuadraticForm(q_field, [1, -1] + list(k.form.coeffs))
            if (
                k.provenance["slot"] != slot
                or is_isotropic(k.form, want_witness=False).isotropic
                or not equivalent_with_witness(q0_data(a1, u, c)[0], combo, [list(r) for r in zip(*cols)])
                or not equivalent(q0_data(a1, u)[0], combo)
            ):
                yield f"Gamma {gamma}, slot {slot}"

    def excellence():
        exts = [quad_ext(2), quad_ext(5), quad_ext(-1), quad_ext(-7)]
        for a in (AlbertAlgebra(graves, [1, -1, 1]), AlbertAlgebra(graves, [1, 1, 1])):
            for ext in exts:
                if (verdict := f4_excellence(a, ext).verdict) != VERDICT_EXCELLENT:
                    yield f"F4 {a!r} over {ext}: {verdict}"
        for ext in exts:
            rep = g2_excellence(graves, ext)
            if rep.verdict != VERDICT_EXCELLENT or rep.kernel_ext.kind == KIND_SPIN:
                yield f"G2 {graves!r} over {ext}: {rep.verdict}, kernel {rep.kernel_ext.kind}"

    return _run("groups", [
        ("pinned classification table", pinned),
        ("rank certificates are constructive and consistent", certificates),
        ("kernel kind is a function of rank", kernel_kinds),
        ("rank-1 kernel on each slot: 7-dim anisotropic, <1,-1> + kernel = Q0 exactly", rank1_kernels),
        ("excellence verdicts over the quadratic panel", excellence),
        ("F4 rank vs sign-pattern oracle (200 inputs over Q and Q(sqrt d), height <= 10^3)",
         partial(_f4_sign_panel, rng, 200, 1000)),
    ])


def sign_oracle_rank(field, params, gamma) -> int:
    """F4 rank of H(C; Gamma) for rational octonion parameters and Gamma
    from real signs alone.  The slot forms <1> + (g_j/g_k) N are 9-dim and
    N is an 8-dim Pfister form, so by Meyer's theorem and the real-place
    rule: over Q(sqrt d) with d < 0 the rank is 4; otherwise it is 4 iff N
    is indefinite (some parameter positive), else 0 iff all Gamma entries
    share one sign, else 1."""
    if field.kind == "QSqrt" and field.d < 0:
        return 4
    if any(g > 0 for g in params):
        return 4
    return 0 if len({g > 0 for g in gamma}) == 1 else 1


def _f4_sign_panel(rng, count: int, height: int):
    """f4_rank on random inputs against sign_oracle_rank, with every
    certificate checked: a rank-4 norm witness is a nonzero zero of N and a
    rank-1 element squares to zero.  Yields a detail for each failing input."""
    fields = [rationals(), quad_ext(-1), quad_ext(-7), quad_ext(2), quad_ext(5)]
    for i in range(count):
        f = fields[i % len(fields)]
        h = rng.choice((10, 100, height))
        params = [-rng.randint(1, h) for _ in range(3)]
        if i % 4 == 3:
            params[rng.randrange(3)] *= -1
        gamma = [rng.choice((-1, 1)) * rng.randint(1, h) for _ in range(3)]
        a = AlbertAlgebra(cayley_dickson(f, params), gamma)
        report = f4_rank(a)
        want = sign_oracle_rank(f, params, gamma)
        cert = report.certificate
        if report.rank != want:
            yield f"{f} params {params} gamma {gamma}: rank {report.rank}, oracle {want}"
        elif want == 4:
            w = cert["norm_isotropy"].get("witness")
            vec = [f.element(x) for x in w] if w else None
            if vec is None or all(x.is_zero() for x in vec) or not a.octonions.norm_form().evaluate(vec).is_zero():
                yield f"{f} params {params}: rank 4 without a zero of N"
        elif want == 1:
            z = albert_element_from_json(a, cert["element"])
            if not jordan_mul(z, z).is_zero():
                yield f"{f} params {params} gamma {gamma}: rank-1 element is not square-zero"


SUITES = {
    "fields": suite_fields,
    "qforms": suite_qforms,
    "composition": suite_composition,
    "albert": suite_albert,
    "groups": suite_groups,
}


def run_suites(names=None, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    if names is None:
        names = list(SUITES)
    results: list[CheckResult] = []
    for name in names:
        if name not in SUITES:
            raise KeyError(name)
        results.extend(SUITES[name](seed))
    return results
