"""Rank classification, kernel descriptors, Gamma normalization, excellence."""

import json
import random
from dataclasses import replace

import pytest

from splitrank import albert, cli, groups
from splitrank.albert import AlbertAlgebra, albert_element_from_json, jordan_mul, q0_form
from splitrank.composition import base_change_comp, cayley_dickson
from splitrank.errors import InternalCheckFailed, InvalidInput, NonNormalizableGamma, UnsupportedExtension
from splitrank.fields import prime_field, quad_ext, rationals
from splitrank.groups import (
    F4,
    KIND_SPIN,
    KIND_TRIVIAL,
    KIND_WHOLE,
    RankReport,
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
        # the kernel needs no normalization: it is built on the slot of the
        # rank certificate, in the algebra given
        k = f4_kernel(a)
        assert k.kind == KIND_SPIN and list(k.form.coeffs) == [Q.element(-1)] * 7
        assert k.provenance["slot"] == 1


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
        # Gamma = (4,-9,1) would normalize to (1,-1,1); the kernel depends
        # only on C, and slot 1 gives c = 1/3 with r_1 N(c) = -9/9 = -1
        a = AlbertAlgebra(GRAVES, [4, -9, 1])
        k = f4_kernel(a)
        assert k.kind == KIND_SPIN
        assert list(k.form.coeffs) == [Q.element(-1)] * 7
        assert k.provenance["slot"] == 1 and k.provenance["c"] == ["1/3"] + ["0"] * 7
        assert k.provenance["idempotent"] == a.diag_unit(1).to_json()

    @pytest.mark.parametrize("gamma,slot", [([2, -2, 1], 1), ([2, -2, 1], 3), ([3, -5, -7], 2), ([3, -5, -7], 3)])
    def test_kernel_on_every_slot(self, gamma, slot):
        # f4_rank certifies the first isotropic slot; a report built on any
        # isotropic slot gives the same kernel -N' on that slot
        a = AlbertAlgebra(cayley_dickson(Q, [-1, -2, -3]), gamma)
        k = f4_kernel(a, _slot_report(a, slot))
        assert k.provenance["slot"] == slot
        assert k.provenance["idempotent"] == a.diag_unit(slot).to_json()
        assert k.form.coeffs == a.octonions.pure_norm_form().neg().coeffs
        c = a.octonions.element([Q.element(x) for x in k.provenance["c"]])
        assert a.ratios[slot - 1] * c.norm() == Q.element(-1)
        q0, _, _ = albert.q0_data(a, a.diag_unit(slot), c)
        assert q0.to_json() == k.provenance["q0"]
        cols = [[Q.element(v) for v in col] for col in k.provenance["split_basis"]]
        change = [[col[r] for col in cols] for r in range(9)]
        assert equivalent_with_witness(q0, QuadraticForm(Q, [1, -1] + list(k.form.coeffs)), change)

    @pytest.mark.parametrize("tamper", ["doubled", "one_coordinate"])
    def test_wrong_c_is_refused(self, tamper):
        a = AlbertAlgebra(GRAVES, [2, -2, 1])
        report = f4_rank(a)
        t, *c0 = Q.kernel._unpack(*report.nilpotent.zero)
        if tamper == "doubled":
            c0 = [x + x for x in c0]
        else:
            c0[next(m for m, x in enumerate(c0) if x.is_zero())] = Q.element(1)
        tampered = replace(report, nilpotent=report.nilpotent._replace(zero=Q.kernel.pack([t, *c0])))
        with pytest.raises(InternalCheckFailed, match="r_i N"):
            f4_kernel(a, tampered)

    def test_no_normalization_on_any_route(self, monkeypatch, capsys):
        # normalize_gamma and conjugation_between are oracles now: classify,
        # kernel and excellence run with both refusing every call
        def refuse(*args, **kwargs):
            raise AssertionError("a production route called a Gamma normalization")

        for owner in (groups, albert):
            monkeypatch.setattr(owner, "conjugation_between", refuse)
        monkeypatch.setattr(groups, "normalize_gamma", refuse)
        for gamma, ext in (([2, -2, 1], 2), ([3, -5, -7], 5), ([1, -1, 1], -7), ([-4, 9, 1], 2)):
            text = json.dumps({"f4": {"octonion": {"field": {"kind": "Q"}, "params": [-1, -2, -3]}, "gamma": gamma}})
            reports = []
            for argv in (["classify"], ["kernel"], ["excellence", "--ext", json.dumps({"kind": "QSqrt", "d": ext})]):
                assert cli.main(argv + ["--json", text]) == 0, (argv, gamma)
                reports.append(json.loads(capsys.readouterr().out))
            assert reports[0]["rank"] == 1 and reports[1]["kind"] == KIND_SPIN
            assert reports[2]["verdict"] == VERDICT_EXCELLENT

    def test_no_jordan_product_on_any_route(self, monkeypatch, capsys):
        # z^2 = 0, the E0 conditions and the Q0 Gram are oracles now:
        # classify, kernel and excellence give the same bytes with the
        # Jordan product and the E0/Q0 checks refusing every call
        def refuse(*args, **kwargs):
            raise AssertionError("a production route multiplied in the Albert algebra")

        inputs = [
            ({"kind": "Q"}, [-1, -1, -1], [1, 1, 1]),
            ({"kind": "Q"}, [-1, -2, -3], [3, -1, 1]),
            ({"kind": "Q"}, [-1, -1, -1], [2, -2, 1]),
            ({"kind": "Q"}, [1, -1, -1], [1, 1, 1]),
            ({"kind": "QSqrt", "d": 2}, [-1, -1, -1], [1, -1, 1]),
            ({"kind": "Fp", "p": 10007}, [-1, -3, -5], [1, -1, 1]),
        ]
        runs = []
        for field, params, gamma in inputs:
            text = json.dumps({"f4": {"octonion": {"field": field, "params": params}, "gamma": gamma}})
            exts = [{"kind": "QSqrt", "d": 2}, {"kind": "QSqrt", "d": -7}] if field["kind"] == "Q" else [field]
            runs += [["classify", "--json", text], ["kernel", "--json", text]]
            runs += [["excellence", "--json", text, "--ext", json.dumps(ext)] for ext in exts]

        def outputs():
            out = []
            for argv in runs:
                assert cli.main(argv) == 0, argv
                out.append(capsys.readouterr().out)
            return out

        free = outputs()
        for name in ("jordan_mul", "q0_data", "e0_subspace", "_checked_gram"):
            for owner in (albert, groups):
                monkeypatch.setattr(owner, name, refuse, raising=owner is albert)
        assert outputs() == free
        assert sum('"spin_form"' in out for out in free) == 6

    def test_kernel_kind_is_function_of_rank(self):
        table = {0: KIND_WHOLE, 1: KIND_SPIN, 4: KIND_TRIVIAL}
        for comp, gamma in [(GRAVES, [1, 1, 1]), (GRAVES, [1, -1, 1]), (SPLIT, [2, 3, 5])]:
            a = AlbertAlgebra(comp, gamma)
            assert f4_kernel(a).kind == table[f4_rank(a).rank]


def _slot_report(a, slot):
    """A rank-1 report whose certificate is the nilpotent of the given slot."""
    witness = is_isotropic(a.slot_forms[slot - 1], want_witness=True).witness
    return RankReport(F4, a.octonions.split_certificate(), albert._build_slot_nilpotent(a, slot, witness))


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
