"""Cayley-Dickson algebras: multiplication tables against the doubling-rule
oracle verify.reference_octonion_mul, norms, splitness, isomorphism, base
change."""

import random
from fractions import Fraction

import pytest
from composition_checks import check_norm_table
from table_terms import corrupted

from splitrank.composition import (
    _doubling_template,
    base_change_comp,
    cayley_dickson,
)
from splitrank.errors import (
    AlgebraMismatch,
    InternalCheckFailed,
    TooManyDoublings,
    UnsupportedExtension,
    ZeroParameter,
)
from splitrank.fields import prime_field, quad_ext, rationals
from splitrank.qforms import equivalent, is_isotropic, pfister, witt_decompose
from splitrank.verify import reference_octonion_mul

Q = rationals()
F7 = prime_field(7)


@pytest.mark.parametrize("params", [[-1], [-1, -1], [-1, -1, -1], [2, -3, 5]])
def test_table_matches_doubling_rule_oracle(params):
    alg = cayley_dickson(Q, params)
    for i in range(alg.dim):
        for j in range(alg.dim):
            want = reference_octonion_mul(alg.basis(i), alg.basis(j))
            got = alg.basis(i) * alg.basis(j)
            assert got.coords == want.coords, (i, j)


class TestConstruction:
    def test_graves_norm(self):
        graves = cayley_dickson(Q, [-1, -1, -1])
        assert list(graves.norm_form().coeffs) == [Q.element(1)] * 8

    def test_base_case(self):
        base = cayley_dickson(Q, [])
        assert base.dim == 1
        assert list(base.norm_form().coeffs) == [Q.element(1)]
        x = base.element([Fraction(3, 2)])
        assert x.norm() == Q.element(Fraction(9, 4))  # N(x) = x^2

    def test_quaternion_products_from_the_rule(self):
        # pinned by the doubling rule: e1 e2 = -e3 and e2 e1 = +e3
        quat = cayley_dickson(Q, [-1, -1])
        e1, e2, e3 = quat.basis(1), quat.basis(2), quat.basis(3)
        assert e1 * e2 == -e3
        assert e2 * e1 == e3

    def test_zero_parameter(self):
        with pytest.raises(ZeroParameter):
            cayley_dickson(Q, [-1, 0])

    def test_sedenions_refused(self):
        with pytest.raises(TooManyDoublings):
            cayley_dickson(Q, [-1, -1, -1, -1])


class TestEvaluation:
    def test_unit(self):
        graves = cayley_dickson(Q, [-1, -1, -1])
        one = graves.one()
        assert one.conj() == one and one.norm() == Q.element(1)

    def test_norm_of_e1_plus_e2(self):
        graves = cayley_dickson(Q, [-1, -1, -1])
        x = graves.basis(1) + graves.basis(2)
        assert x.norm() == Q.element(2)

    def test_octonion_nonassociativity(self):
        graves = cayley_dickson(Q, [-1, -1, -1])
        e1, e2, e4 = graves.basis(1), graves.basis(2), graves.basis(4)
        assert (e1 * e2) * e4 != e1 * (e2 * e4)

    def test_conjugation_antiautomorphism(self):
        rng = random.Random(4)
        graves = cayley_dickson(Q, [-1, -1, -1])
        for _ in range(30):
            x, y = graves.random(rng), graves.random(rng)
            assert x.conj().conj() == x
            assert (x * y).conj() == y.conj() * x.conj()

    def test_minimal_polynomial(self):
        rng = random.Random(9)
        for alg in (cayley_dickson(Q, [2, -3, 5]), cayley_dickson(F7, [1, 2, 3])):
            for _ in range(30):
                x = alg.random(rng)
                assert (x * x - x.scale(x.trace()) + alg.one().scale(x.norm())).is_zero()

    def test_algebra_mismatch(self):
        g1 = cayley_dickson(Q, [-1, -1, -1])
        g2 = cayley_dickson(Q, [1, -1, -1])
        with pytest.raises(AlgebraMismatch):
            g1.one() * g2.one()


class TestNormForm:
    def test_split_params_hyperbolic(self):
        alg = cayley_dickson(Q, [1, -1, -1])
        form = alg.norm_form()
        assert is_isotropic(form, want_witness=False).isotropic
        assert witt_decompose(form).witt_index == 4

    def test_closed_pfister_form(self):
        # <1> in dimension 1, <<g1, ..., gk>> above, labelled "norm"; the
        # table that multiplies agrees in every dimension
        assert cayley_dickson(Q, []).norm_form().coeffs == (Q.one(),)
        assert cayley_dickson(Q, [2, -3, 5]).norm_form().coeffs == pfister(Q, [2, -3, 5]).coeffs
        for n in range(4):
            alg = cayley_dickson(Q, [2, -3, 5][:n])
            assert alg.norm_form().label == "norm"
            check_norm_table(alg)

    def test_matches_norm_pointwise(self):
        rng = random.Random(2)
        alg = cayley_dickson(Q, [2, -3, 5])
        form = alg.norm_form()
        for _ in range(50):
            x = alg.random(rng)
            prod = x * x.conj()  # the table that multiplies, against the closed form
            assert form.evaluate(x.coords) == prod.scalar_part() and prod.is_scalar()

    @pytest.mark.parametrize(
        "field,params",
        [(Q, [2, -3, 5]), (prime_field(5), [2, 3, 4]), (quad_ext(-7), [-1, (1, 1), 3])],
        ids=["Q", "F5", "Q(sqrt-7)"],
    )
    def test_corrupted_table_entry_rejected(self, field, params):
        # every corruption of one per-key constant of the compiled table
        # that multiplies, a flipped sign or a doubled constant, changes a
        # coefficient of x -> x conj(x), in dimensions 2, 4 and 8; the closed
        # norm form needs no table, so the proof is the test-side one
        for n in (1, 2, 3):
            for key in range(len(_doubling_template(n)[0])):
                for corrupt in (lambda v: -v, lambda v: 2 * v):
                    alg = cayley_dickson(field, params[:n])
                    evaluate, consts, den = alg._product
                    alg._product = evaluate, corrupted(field.kernel, consts, key, corrupt), den
                    with pytest.raises(InternalCheckFailed):
                        check_norm_table(alg)
            alg = cayley_dickson(field, params[:n])
            check_norm_table(alg)
            assert alg.norm_form().dim == 2**n


class TestSplit:
    def test_graves_division(self):
        assert not cayley_dickson(Q, [-1, -1, -1]).is_split()

    def test_graves_params_over_f7_split(self):
        alg = cayley_dickson(F7, [-1, -1, -1])
        assert alg.is_split()
        cert = alg.split_certificate()
        assert cert.witness is not None
        assert alg.norm_form().evaluate(F7.kernel._unpack(*cert.witness)).is_zero()

    def test_graves_over_gaussian_split(self):
        alg = base_change_comp(cayley_dickson(Q, [-1, -1, -1]), quad_ext(-1))
        assert alg.is_split()

    def test_division_no_zero_divisors(self):
        rng = random.Random(6)
        graves = cayley_dickson(Q, [-1, -1, -1])
        for _ in range(100):
            x, y = graves.random(rng), graves.random(rng)
            if x.is_zero() or y.is_zero():
                continue
            assert not (x * y).is_zero()


class TestIsomorphism:
    """Norm forms classify composition algebras of equal dimension."""

    def test_square_scaled_params(self):
        assert equivalent(cayley_dickson(Q, [-1, -1, -1]).norm_form(), cayley_dickson(Q, [-1, -1, -4]).norm_form())

    def test_split_vs_division(self):
        assert not equivalent(cayley_dickson(Q, [-1, -1, -1]).norm_form(), cayley_dickson(Q, [1, -1, -1]).norm_form())


class TestBaseChange:
    def test_to_quadratic_extension(self):
        graves = cayley_dickson(Q, [-1, -1, -1])
        ext = base_change_comp(graves, quad_ext(2))
        assert ext.field == quad_ext(2)
        assert [p.value for p in ext.params] == [(Fraction(-1), Fraction(0))] * 3
        assert not ext.is_split()  # still definite at both real places

    def test_reduction_refused(self):
        graves = cayley_dickson(Q, [-1, -1, -1])
        with pytest.raises(UnsupportedExtension):
            base_change_comp(graves, F7)

    def test_composition_law_over_extension(self):
        rng = random.Random(8)
        ext = base_change_comp(cayley_dickson(Q, [-1, -1, -1]), quad_ext(-1))
        for _ in range(25):
            x, y = ext.random(rng, 2), ext.random(rng, 2)
            assert (x * y).norm() == x.norm() * y.norm()

    def test_json_roundtrip(self):
        from splitrank.composition import comp_from_json

        # the octonions of a g2 descriptor, in the literals that the reports write
        desc = {"field": {"kind": "QSqrt", "d": 5}, "params": ["1*r", "-1", "2-1*r"]}
        assert comp_from_json(desc) == cayley_dickson(quad_ext(5), [(0, 1), -1, (2, -1)])
