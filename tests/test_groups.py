"""Rank classification, kernel descriptors, Gamma normalization, excellence."""

import random

import pytest

from splitrank.albert import AlbertAlgebra, albert_element_from_json, jordan_mul, q0_form
from splitrank.composition import base_change_comp, cayley_dickson
from splitrank.errors import InvalidInput, NonNormalizableGamma, UnsupportedExtension
from splitrank.fields import prime_field, quad_ext, rationals
from splitrank.groups import (
    KIND_SPIN,
    KIND_TRIVIAL,
    KIND_WHOLE,
    VERDICT_EXCELLENT,
    f4_excellence,
    f4_kernel,
    f4_rank,
    g2_excellence,
    g2_rank,
    normalize_gamma,
)
from splitrank.qforms import QuadraticForm, equivalent_with_witness, is_isotropic

Q = rationals()
F7 = prime_field(7)
GRAVES = cayley_dickson(Q, [-1, -1, -1])
SPLIT = cayley_dickson(Q, [1, -1, -1])


class TestG2Rank:
    def test_graves_anisotropic(self):
        report = g2_rank(GRAVES)
        assert report.rank == 0
        assert report.certificate["kind"] == "norm_anisotropy"

    def test_split_rank_two(self):
        report = g2_rank(SPLIT)
        assert report.rank == 2
        cert = report.certificate["norm_isotropy"]
        if "witness" in cert:
            v = [SPLIT.field.element(s) for s in cert["witness"]]
            assert SPLIT.norm_form().evaluate(v).is_zero()

    def test_graves_over_gaussian(self):
        over_i = base_change_comp(GRAVES, quad_ext(-1))
        assert g2_rank(over_i).rank == 2

    def test_quaternions_rejected(self):
        with pytest.raises(InvalidInput):
            g2_rank(cayley_dickson(Q, [-1, -1]))

    def test_f7_always_split(self):
        assert g2_rank(cayley_dickson(F7, [-1, -1, -1])).rank == 2


class TestF4Rank:
    def test_rank_zero(self):
        report = f4_rank(AlbertAlgebra(GRAVES, [1, 1, 1]))
        assert report.rank == 0
        certs = report.certificate["slot_forms"]
        assert len(certs) == 3 and not any(c["isotropic"] for c in certs)

    def test_rank_one_with_verified_nilpotent(self):
        a = AlbertAlgebra(GRAVES, [1, -1, 1])
        report = f4_rank(a)
        assert report.rank == 1
        z = albert_element_from_json(a, report.certificate["element"])
        assert not z.is_zero() and jordan_mul(z, z).is_zero()

    def test_rank_four(self):
        report = f4_rank(AlbertAlgebra(SPLIT, [1, 1, 1]))
        assert report.rank == 4
        assert report.certificate["kind"] == "split_norm_witness"

    def test_rank_four_over_f7(self):
        a = AlbertAlgebra(cayley_dickson(F7, [-1, -1, -1]), [1, -1, 1])
        assert f4_rank(a).rank == 4

    def test_rank_in_possible_set(self):
        rng = random.Random(0)
        for _ in range(6):
            gamma = [rng.choice([1, -1, 2, -3]) for _ in range(3)]
            comp = rng.choice([GRAVES, SPLIT])
            assert f4_rank(AlbertAlgebra(comp, gamma)).rank in (0, 1, 4)


class TestConstructedWitnesses:
    def test_rank_one_slot_form_beyond_search_height(self):
        # the slot form <1> + (-101) N needs a vector of height > 20, which
        # the bounded search never reached (it raised InternalCheckFailed)
        a = AlbertAlgebra(GRAVES, [1, -101, 1])
        report = f4_rank(a)
        assert report.rank == 1
        z = albert_element_from_json(a, report.certificate["element"])
        assert not z.is_zero() and jordan_mul(z, z).is_zero()

    def test_excellence_norm_witness_over_imaginary_field(self):
        ext = quad_ext(-7)
        rep = f4_excellence(AlbertAlgebra(GRAVES, [1, -1, 1]), ext)
        w = [ext.element(x) for x in rep.rank_ext.certificate["norm_isotropy"]["witness"]]
        norm = base_change_comp(GRAVES, ext).norm_form()
        assert any(not x.is_zero() for x in w) and norm.evaluate(w).is_zero()

    def test_verify_groups_suite(self):
        from splitrank.verify import suite_groups

        results = suite_groups(1729)
        assert results[-1].name.startswith("F4 rank vs sign-pattern oracle")
        assert all(r.ok for r in results), [r for r in results if not r.ok]


class TestNormalizeGamma:
    def test_identity_case(self):
        a = AlbertAlgebra(GRAVES, [1, -1, 1])
        normalized, moves = normalize_gamma(a)
        assert normalized.gamma == a.gamma

    def test_square_scaled(self):
        a = AlbertAlgebra(GRAVES, [4, -9, 1])
        normalized, moves = normalize_gamma(a)
        assert [str(g) for g in normalized.gamma] == ["1", "-1", "1"]
        assert moves["permutation"] == [0, 1, 2]

    def test_permuted(self):
        a = AlbertAlgebra(GRAVES, [-1, 1, 1])
        normalized, moves = normalize_gamma(a)
        assert [str(g) for g in normalized.gamma] == ["1", "-1", "1"]

    def test_global_scaling_move(self):
        # (2, -2, 2) = 2 * (1, -1, 1): the hermitian set only sees ratios
        a = AlbertAlgebra(GRAVES, [2, -2, 2])
        normalized, _ = normalize_gamma(a)
        assert [str(g) for g in normalized.gamma] == ["1", "-1", "1"]

    def test_nonnormalizable(self):
        a = AlbertAlgebra(GRAVES, [2, -2, 1])
        assert f4_rank(a).rank == 1
        with pytest.raises(NonNormalizableGamma):
            normalize_gamma(a)
        with pytest.raises(NonNormalizableGamma):
            f4_kernel(a)


class TestF4Kernel:
    def test_rank1_kernel_shape(self):
        a = AlbertAlgebra(GRAVES, [1, -1, 1])
        k = f4_kernel(a)
        assert k.kind == KIND_SPIN
        assert k.form.dim == 7
        assert list(k.form.coeffs) == [Q.element(-1)] * 7
        assert not is_isotropic(k.form, want_witness=False).isotropic

    def test_recorded_split_is_exact(self):
        a = AlbertAlgebra(GRAVES, [1, -1, 1])
        k = f4_kernel(a)
        q0 = q0_form(a, a.diag_unit(3))
        cols = [[Q.element(v) for v in col] for col in k.provenance["split_basis"]]
        t = [[cols[c][r] for c in range(9)] for r in range(9)]
        combo = QuadraticForm(Q, [1, -1] + list(k.form.coeffs))
        assert equivalent_with_witness(q0, combo, t)

    def test_trivial_and_whole(self):
        assert f4_kernel(AlbertAlgebra(SPLIT, [1, 1, 1])).kind == KIND_TRIVIAL
        assert f4_kernel(AlbertAlgebra(GRAVES, [1, 1, 1])).kind == KIND_WHOLE

    def test_normalized_input_kernel(self):
        # Gamma = (4,-9,1) normalizes to (1,-1,1); kernel depends only on C
        k = f4_kernel(AlbertAlgebra(GRAVES, [4, -9, 1]))
        assert k.kind == KIND_SPIN
        assert list(k.form.coeffs) == [Q.element(-1)] * 7
        assert k.provenance["gamma_normalization"]["permutation"] == [0, 1, 2]

    def test_kernel_kind_is_function_of_rank(self):
        table = {0: KIND_WHOLE, 1: KIND_SPIN, 4: KIND_TRIVIAL}
        for comp, gamma in [(GRAVES, [1, 1, 1]), (GRAVES, [1, -1, 1]), (SPLIT, [2, 3, 5])]:
            a = AlbertAlgebra(comp, gamma)
            assert f4_kernel(a).kind == table[f4_rank(a).rank]


class TestG2Excellence:
    @pytest.mark.parametrize("d,expected_ext_rank", [(2, 0), (5, 0), (-1, 2), (-7, 2)])
    def test_graves_panel(self, d, expected_ext_rank):
        rep = g2_excellence(GRAVES, quad_ext(d))
        assert rep.verdict == VERDICT_EXCELLENT
        assert rep.rank_base.rank == 0
        assert rep.rank_ext.rank == expected_ext_rank
        assert rep.kernel_ext.kind in (KIND_TRIVIAL, KIND_WHOLE)  # never spin

    def test_split_everywhere(self):
        rep = g2_excellence(SPLIT, quad_ext(2))
        assert rep.rank_base.rank == rep.rank_ext.rank == 2
        assert rep.kernel_ext.kind == KIND_TRIVIAL

    def test_bad_extension(self):
        with pytest.raises(UnsupportedExtension):
            g2_excellence(GRAVES, F7)


class TestF4Excellence:
    def test_rank1_stays_rank1_real_quadratic(self):
        a = AlbertAlgebra(GRAVES, [1, -1, 1])
        rep = f4_excellence(a, quad_ext(2))
        assert rep.verdict == VERDICT_EXCELLENT
        assert (rep.rank_base.rank, rep.rank_ext.rank) == (1, 1)
        assert rep.kernel_ext.kind == KIND_SPIN
        # descent witness: coefficients match the extension kernel exactly
        witness = rep.descent_witness["form"]
        assert witness["field"] == {"kind": "Q"}
        assert witness["coeffs"] == [str(c) for c in rep.kernel_ext.form.coeffs]

    def test_rank_jumps_to_four_imaginary(self):
        a = AlbertAlgebra(GRAVES, [1, -1, 1])
        rep = f4_excellence(a, quad_ext(-1))
        assert (rep.rank_base.rank, rep.rank_ext.rank) == (1, 4)
        assert rep.kernel_ext.kind == KIND_TRIVIAL
        assert rep.descent_witness is None

    def test_anisotropic_stays(self):
        a = AlbertAlgebra(GRAVES, [1, 1, 1])
        rep = f4_excellence(a, quad_ext(2))
        assert (rep.rank_base.rank, rep.rank_ext.rank) == (0, 0)
        assert rep.kernel_ext.kind == KIND_WHOLE

    def test_report_json_shape(self):
        a = AlbertAlgebra(GRAVES, [1, -1, 1])
        rep = f4_excellence(a, quad_ext(5))
        js = rep.to_json()
        assert js["verdict"] == VERDICT_EXCELLENT
        assert js["kernel_ext"]["form"]["coeffs"] == ["-1"] * 7
        assert js["rank_base"]["rank"] == 1

    def test_bad_extension(self):
        with pytest.raises(UnsupportedExtension):
            f4_excellence(AlbertAlgebra(GRAVES, [1, -1, 1]), F7)
