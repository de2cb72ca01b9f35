"""Albert algebra H(C; Gamma): Jordan product, norm, idempotents,
nilpotents, E0/Q0, Gamma-orthogonal automorphisms."""

import random
from fractions import Fraction

import pytest

from splitrank import albert
from splitrank.albert import (
    AlbertAlgebra,
    _jordan_from_matrices,
    albert_element_from_json,
    base_change_albert,
    bilinear,
    conjugation_between,
    e0_subspace,
    is_idempotent,
    is_nilpotent,
    is_primitive_idempotent,
    jordan_mul,
    matrix_mul,
    nilpotent_witness,
    norm_Q,
    orthogonal_nilpotent_pair,
    phi,
    q0_form,
    quadratic_trace_form,
    so_gamma_sample,
    to_matrix,
    torus_element,
    trace,
)
from splitrank.composition import cayley_dickson
from splitrank.errors import (
    AlgebraMismatch,
    InternalCheckFailed,
    InvalidInput,
    NotGammaOrthogonal,
    NotOnTorus,
    NotPrimitiveIdempotent,
    UnsupportedIdempotent,
    ZeroParameter,
)
from splitrank.fields import prime_field, quad_ext, rationals
from splitrank.qforms import QuadraticForm, witt_decompose

Q = rationals()
F7 = prime_field(7)
GRAVES = cayley_dickson(Q, [-1, -1, -1])
SPLIT = cayley_dickson(Q, [1, -1, -1])
A_RANK1 = AlbertAlgebra(GRAVES, [1, -1, 1])
A_RANK0 = AlbertAlgebra(GRAVES, [1, 1, 1])


def prop3_witness(a):
    """diag(0, 1, -1) with c1 = 1: the square-zero normal form element."""
    c = a.octonions
    return a.element([0, 1, -1], [c.one(), c.zero(), c.zero()])


class TestConstruction:
    def test_gamma_zero_rejected(self):
        with pytest.raises(ZeroParameter):
            AlbertAlgebra(GRAVES, [1, 0, 1])

    def test_needs_octonions(self):
        with pytest.raises(InvalidInput):
            AlbertAlgebra(cayley_dickson(Q, [-1, -1]), [1, 1, 1])

    def test_element_json_roundtrip(self):
        rng = random.Random(0)
        x = A_RANK1.random(rng)
        assert albert_element_from_json(A_RANK1, x.to_json()) == x


class TestMatrixProduct:
    def test_identity_acts_trivially(self):
        rng = random.Random(1)
        x = A_RANK1.random(rng)
        prod = matrix_mul(A_RANK1.unit(), x)
        assert prod == to_matrix(x)

    def test_matrix_unit_idempotent(self):
        e33 = A_RANK1.diag_unit(3)
        prod = matrix_mul(e33, e33)
        assert prod == to_matrix(e33)

    def test_prop3_square_vanishes_on_diagonal(self):
        # (2,2) and (3,3) entries are 1 + (g2/g3) N(1) = 1 - 1 = 0
        y = prop3_witness(A_RANK1)
        prod = matrix_mul(y, y)
        for i in range(3):
            for j in range(3):
                assert prod[i][j].is_zero(), (i, j)

    def test_jordan_table_matches_matrix_route(self):
        rng = random.Random(2)
        for a in (
            A_RANK1,
            AlbertAlgebra(cayley_dickson(F7, [1, 2, 3]), [1, 3, 2]),
            AlbertAlgebra(cayley_dickson(quad_ext(-7), [-1, -1, -2]), [1, -1, 2]),
        ):
            basis = [a.basis(i) for i in range(27)]
            for bi in basis:
                for bj in basis:
                    assert jordan_mul(bi, bj) == _jordan_from_matrices(a, bi, bj)
            for _ in range(20):
                x, y = a.random(rng, 3), a.random(rng, 3)
                assert jordan_mul(x, y) == _jordan_from_matrices(a, x, y)


class TestJordan:
    def test_unit(self):
        rng = random.Random(3)
        x = A_RANK1.random(rng)
        assert jordan_mul(A_RANK1.unit(), x) == x

    def test_e33_idempotent(self):
        e33 = A_RANK1.diag_unit(3)
        assert jordan_mul(e33, e33) == e33

    def test_prop3_witness_squares_to_zero(self):
        y = prop3_witness(A_RANK1)
        assert jordan_mul(y, y).is_zero()

    def test_commutative_sample(self):
        rng = random.Random(4)
        for _ in range(25):
            x, y = A_RANK1.random(rng, 3), A_RANK1.random(rng, 3)
            assert jordan_mul(x, y) == jordan_mul(y, x)

    def test_jordan_identity_sample(self):
        rng = random.Random(5)
        for _ in range(10):
            x, y = A_RANK1.random(rng, 2), A_RANK1.random(rng, 2)
            x2 = jordan_mul(x, x)
            assert jordan_mul(jordan_mul(x, y), x2) == jordan_mul(x, jordan_mul(y, x2))


class TestNormAndBilinear:
    def test_primitive_idempotent_norm(self):
        assert norm_Q(A_RANK1.diag_unit(3)) == Q.element(Fraction(1, 2))

    def test_unit_norm(self):
        assert norm_Q(A_RANK1.unit()) == Q.element(Fraction(3, 2))

    def test_orthogonal_matrix_units(self):
        assert bilinear(A_RANK1.diag_unit(1), A_RANK1.diag_unit(2)).is_zero()

    def test_polarization_sample(self):
        rng = random.Random(6)
        for _ in range(20):
            x, y = A_RANK1.random(rng, 3), A_RANK1.random(rng, 3)
            assert norm_Q(x + y) - norm_Q(x) - norm_Q(y) == bilinear(x, y)
            assert bilinear(x, y) == trace(jordan_mul(x, y))


class TestTraceForm:
    def test_definite_case(self):
        form = quadratic_trace_form(A_RANK0)
        assert form.dim == 27 and form.signature() == (27, 0)

    def test_indefinite_case(self):
        form = quadratic_trace_form(A_RANK1)
        assert form.signature() == (11, 16)

    def test_f7_witt_index_13(self):
        a = AlbertAlgebra(cayley_dickson(F7, [-1, -1, -1]), [1, 1, 1])
        form = quadratic_trace_form(a)
        dec = witt_decompose(form)
        assert dec.witt_index == 13 and dec.anisotropic_part.dim == 1

    def test_matches_norm_q(self):
        rng = random.Random(7)
        form = quadratic_trace_form(A_RANK1)
        for _ in range(20):
            x = A_RANK1.random(rng, 3)
            assert form.evaluate(list(x.coords)) == norm_Q(x)


CHECK_ALGEBRAS = {
    "Q": (Q, [-1, -2, -3], [1, -1, 2]),
    "F5": (prime_field(5), [2, 3, 4], [1, 2, 3]),
    "Q(sqrt-7)": (quad_ext(-7), [-1, (1, 1), -2], [1, -1, (0, 1)]),
}


@pytest.mark.parametrize("name", sorted(CHECK_ALGEBRAS))
class TestCheckedGramRejects:
    """_checked_gram rejects a non-orthogonal basis and a wrong closed form,
    through both of its callers."""

    @staticmethod
    def algebra(name):
        field, params, gamma = CHECK_ALGEBRAS[name]
        return AlbertAlgebra(cayley_dickson(field, params), gamma)

    def test_accepts_the_true_forms(self, name):
        a = self.algebra(name)
        assert quadratic_trace_form(a).dim == 27
        form, basis, gram = albert.q0_data(a, a.diag_unit(3))
        assert len(basis) == 9 and [gram[i][i] for i in range(9)] == list(form.coeffs)

    def test_non_orthogonal_basis(self, name, monkeypatch):
        a = self.algebra(name)
        true_e0 = albert.e0_subspace

        def skewed_e0(alg, u, c=None):
            basis = true_e0(alg, u, c)
            return [basis[0], basis[1] + basis[2]] + basis[2:]

        monkeypatch.setattr(albert, "e0_subspace", skewed_e0)
        with pytest.raises(InternalCheckFailed, match="Q-orthogonal"):
            albert.q0_data(a, a.diag_unit(3))
        # c1's e_0 + e_1 is not orthogonal to c1's e_1
        canonical = a.basis
        monkeypatch.setattr(a, "basis", lambda i: canonical(3) + canonical(4) if i == 3 else canonical(i))
        with pytest.raises(InternalCheckFailed, match="Q-orthogonal"):
            quadratic_trace_form(a)

    def test_wrong_expected_diagonal(self, name):
        a = self.algebra(name)
        norm = a.octonions.norm_form()
        wrong = (norm.coeffs[0] + norm.coeffs[0],) + norm.coeffs[1:]
        a.octonions._norm_form = QuadraticForm(a.field, wrong, label="norm")
        with pytest.raises(InternalCheckFailed, match="closed form"):
            albert.q0_data(a, a.diag_unit(3))
        with pytest.raises(InternalCheckFailed, match="closed form"):
            quadratic_trace_form(a)


class TestIdempotents:
    def test_e33_primitive(self):
        u = A_RANK1.diag_unit(3)
        assert is_idempotent(u) and is_primitive_idempotent(u)

    def test_unit_not_primitive(self):
        one = A_RANK1.unit()
        assert is_idempotent(one) and not is_primitive_idempotent(one)

    def test_sum_of_two_not_primitive(self):
        u = A_RANK1.diag_unit(2) + A_RANK1.diag_unit(3)
        assert is_idempotent(u) and not is_primitive_idempotent(u)
        assert norm_Q(u) == Q.element(1)


class TestNilpotents:
    def test_prop3_witness(self):
        assert is_nilpotent(prop3_witness(A_RANK1))

    def test_idempotent_not_nilpotent(self):
        assert not is_nilpotent(A_RANK1.diag_unit(3))

    def test_zero_not_nilpotent(self):
        assert not is_nilpotent(A_RANK1.zero())

    def test_witness_rank1(self):
        z = nilpotent_witness(A_RANK1)
        assert z is not None and jordan_mul(z, z).is_zero()

    def test_none_for_definite_gamma(self):
        assert nilpotent_witness(A_RANK0) is None

    def test_split_always_witnessed(self):
        for gamma in ([1, 1, 1], [2, 3, 5]):
            a = AlbertAlgebra(SPLIT, gamma)
            z = nilpotent_witness(a)
            assert z is not None and jordan_mul(z, z).is_zero()


class TestOrthogonalPair:
    def test_split_pair(self):
        a = AlbertAlgebra(SPLIT, [1, 1, 1])
        pair = orthogonal_nilpotent_pair(a)
        assert pair is not None
        z1, z2 = pair
        assert jordan_mul(z1, z1).is_zero()
        assert jordan_mul(z2, z2).is_zero()
        assert jordan_mul(z1, z2).is_zero()
        # non-proportional: disjoint slot support
        assert not z1.is_zero() and not z2.is_zero()
        assert z1.slot(1) and z2.slot(3)

    def test_division_none(self):
        assert orthogonal_nilpotent_pair(A_RANK0) is None
        assert orthogonal_nilpotent_pair(A_RANK1) is None

    def test_f7_pair(self):
        a = AlbertAlgebra(cayley_dickson(F7, [-1, -1, -1]), [1, 1, 1])
        pair = orthogonal_nilpotent_pair(a)
        assert pair is not None


class TestE0Q0:
    def test_basis_size_and_conditions(self):
        basis = e0_subspace(A_RANK1, A_RANK1.diag_unit(3))
        assert len(basis) == 9
        one = A_RANK1.unit()
        u = A_RANK1.diag_unit(3)
        for b in basis:
            assert bilinear(b, one).is_zero()
            assert bilinear(b, u).is_zero()
            assert jordan_mul(u, b).is_zero()

    def test_q0_exact_shape(self):
        q0 = q0_form(A_RANK1, A_RANK1.diag_unit(3))
        assert list(q0.coeffs) == [Q.element(1)] + [Q.element(-1)] * 8

    def test_q0_isotropic_vector(self):
        q0 = q0_form(A_RANK1, A_RANK1.diag_unit(3))
        assert q0.evaluate([1, 1, 0, 0, 0, 0, 0, 0, 0]).is_zero()

    def test_witt_index_one_iff_division(self):
        q0 = q0_form(A_RANK1, A_RANK1.diag_unit(3))
        assert witt_decompose(q0).witt_index == 1
        a = AlbertAlgebra(SPLIT, [1, -1, 1])
        q0s = q0_form(a, a.diag_unit(3))
        assert witt_decompose(q0s).witt_index == 4

    def test_wrong_idempotents_rejected(self):
        with pytest.raises(NotPrimitiveIdempotent):
            e0_subspace(A_RANK1, A_RANK1.unit())
        # 2 E11 - E22 + c3 with r3 N(c3) = -N(1 + e1) = -2 is a primitive
        # idempotent that is not diagonal
        u = A_RANK1.element([2, -1, 0], [[0] * 8, [0] * 8, [1, 1, 0, 0, 0, 0, 0, 0]])
        assert is_primitive_idempotent(u)
        with pytest.raises(UnsupportedIdempotent):
            e0_subspace(A_RANK1, u)

    @pytest.mark.parametrize("slot", [1, 2, 3])
    def test_every_diagonal_idempotent(self, slot):
        # Q0 = <1> + r_i N on E_jj - E_kk and the natural basis of slot i
        a = AlbertAlgebra(cayley_dickson(Q, [-1, -2, -3]), [2, -3, 5])
        u = a.diag_unit(slot)
        basis = e0_subspace(a, u)
        assert len(basis) == 9 and basis[0].slot(slot).is_zero() and trace(basis[0]).is_zero()
        for b in basis:
            assert bilinear(b, a.unit()).is_zero() and bilinear(b, u).is_zero()
            assert jordan_mul(u, b).is_zero()
        ratio = a.ratios[slot - 1]
        want = [Q.element(1)] + [ratio * n for n in a.octonions.norm_form().coeffs]
        assert list(q0_form(a, u).coeffs) == want

    def test_similitude_basis(self):
        # on slot_1(c e_m), Q0 = <1> + r_1 N(c) N
        a = AlbertAlgebra(cayley_dickson(Q, [-1, -2, -3]), [2, -3, 5])
        c = a.octonions.element([1, 2, 0, -1, 0, 0, 3, 0])
        form, basis, _ = albert.q0_data(a, a.diag_unit(1), c)
        scale = a.ratios[0] * c.norm()
        assert list(form.coeffs) == [Q.element(1)] + [scale * n for n in a.octonions.norm_form().coeffs]
        assert basis[2].slot(1) == c * a.octonions.basis(1)

    def test_gram_is_twice_q0(self):
        # the bilinear Gram tr(xy) on E0 doubles the Q0 coefficients
        basis = e0_subspace(A_RANK1, A_RANK1.diag_unit(3))
        gram = [[bilinear(x, y) for y in basis] for x in basis]
        two = Q.element(2)
        q0 = q0_form(A_RANK1, A_RANK1.diag_unit(3))
        for i in range(9):
            for j in range(9):
                want = two * q0.coeffs[i] if i == j else Q.element(0)
                assert gram[i][j] == want


class TestGammaOrthogonal:
    def test_torus_identity(self):
        x = torus_element(Q, 1, 0)
        assert x[0][0] == Q.element(1) and x[0][1].is_zero()

    def test_torus_point(self):
        x = torus_element(Q, Fraction(5, 4), Fraction(3, 4))
        auto = phi(A_RANK1, x)
        assert auto.apply(A_RANK1.diag_unit(3)) == A_RANK1.diag_unit(3)
        assert not auto.is_identity()  # it fixes E33, not E11

    def test_not_on_torus(self):
        with pytest.raises(NotOnTorus):
            torus_element(Q, 2, 1)

    def test_sampler_exact(self):
        rng = random.Random(10)
        for _ in range(3):
            x = so_gamma_sample(A_RANK1, rng)
            # the sampler already self-checks; re-verify the defining identity
            from splitrank import linalg

            g1, g2, g3 = A_RANK1.gamma
            z = Q.element(0)
            gm = [[g1, z, z], [z, g2, z], [z, z, g3]]
            assert linalg.mat_mul(linalg.mat_mul([list(col) for col in zip(*x)], gm), x) == gm
            assert linalg.det(x) == Q.element(1)

    def test_phi_identity(self):
        auto = phi(A_RANK1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert auto.is_identity()

    def test_phi_rejects_non_orthogonal(self):
        with pytest.raises(NotGammaOrthogonal):
            phi(A_RANK1, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])

    def test_phi_multiplicative_sample(self):
        rng = random.Random(11)
        auto = phi(A_RANK1, so_gamma_sample(A_RANK1, rng))
        for _ in range(10):
            x, y = A_RANK1.random(rng, 2), A_RANK1.random(rng, 2)
            assert auto.apply(jordan_mul(x, y)) == jordan_mul(auto.apply(x), auto.apply(y))

    def test_phi_preserves_q(self):
        rng = random.Random(12)
        auto = phi(A_RANK1, torus_element(Q, Fraction(5, 4), Fraction(3, 4)))
        for _ in range(10):
            x = A_RANK1.random(rng, 2)
            assert norm_Q(auto.apply(x)) == norm_Q(x)

    def test_conjugation_between_gammas(self):
        # H(C; 4,-9,1) -> H(C; 1,-1,1) by slot scalings
        src = AlbertAlgebra(GRAVES, [4, -9, 1])
        dst = AlbertAlgebra(GRAVES, [1, -1, 1])
        # X^T Gamma* X = (1/4) Gamma with X = diag(1, 3/2, 1/2)
        x = [[1, 0, 0], [0, Fraction(3, 2), 0], [0, 0, Fraction(1, 2)]]
        rng = random.Random(13)
        conjugation_between(src, dst, x, samples=5, rng=rng)

    def test_similitude_is_proved_once(self, monkeypatch):
        # phi's check of X^T Gamma X = Gamma is the proof its conjugation
        # uses; conjugation_between proves X^T Gamma' X = lam Gamma once,
        # after the coordinate algebras
        x = so_gamma_sample(A_RANK1, random.Random(14))
        calls, run = [], albert._similitude
        monkeypatch.setattr(albert, "_similitude", lambda *args: calls.append(args) or run(*args))
        auto = phi(A_RANK1, x)
        assert len(calls) == 1
        assert auto.apply(A_RANK1.unit()) == A_RANK1.unit()
        with pytest.raises(NotGammaOrthogonal, match="det X != 1"):
            phi(A_RANK1, [[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
        src, dst = AlbertAlgebra(GRAVES, [4, -9, 1]), AlbertAlgebra(GRAVES, [1, -1, 1])
        calls.clear()
        conjugation_between(src, dst, [[1, 0, 0], [0, Fraction(3, 2), 0], [0, 0, Fraction(1, 2)]])
        assert len(calls) == 1
        calls.clear()
        with pytest.raises(AlgebraMismatch):
            conjugation_between(src, AlbertAlgebra(SPLIT, [1, -1, 1]), [[1, 0, 0]] * 3)
        assert calls == []


class TestBaseChange:
    def test_descriptor(self):
        ext = base_change_albert(A_RANK1, quad_ext(2))
        assert ext.field == quad_ext(2)
        assert ext.octonions.field == quad_ext(2)

    def test_nilpotents_appear_over_gaussian(self):
        assert nilpotent_witness(A_RANK0) is None
        over_i = base_change_albert(A_RANK0, quad_ext(-1))
        z = nilpotent_witness(over_i)
        assert z is not None and jordan_mul(z, z).is_zero()
