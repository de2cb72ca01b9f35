"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All checks are exact (zero tolerance); seeds are fixed.
"""

import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from splitrank import verify
from splitrank.albert import (
    AlbertAlgebra,
    albert_element_from_json,
    e0_subspace,
    jordan_mul,
    norm_Q,
    orthogonal_nilpotent_pair,
    phi,
    q0_form,
    so_gamma_sample,
    torus_element,
)
from splitrank.cli import main as cli_main
from splitrank.composition import cayley_dickson
from splitrank.errors import InvalidInput, UnsupportedCase, ZeroParameter
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
)
from splitrank.qforms import (
    QuadraticForm,
    equivalent,
    equivalent_with_witness,
    is_isotropic,
    witt_decompose,
)
from splitrank.verify import (
    DEFAULT_SEED,
    suite_albert,
    suite_composition,
    suite_fields,
    suite_groups,
    suite_qforms,
)

Q = rationals()
GRAVES = cayley_dickson(Q, [-1, -1, -1])
SPLIT = cayley_dickson(Q, [1, -1, -1])
L_PANEL = [quad_ext(2), quad_ext(5), quad_ext(-1), quad_ext(-7)]


def _report(n: int, desc: str, ok: bool):
    print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {n} failed: {desc}"


@pytest.fixture(scope="module")
def fields_suite():
    return suite_fields(DEFAULT_SEED)


@pytest.fixture(scope="module")
def composition_suite():
    return suite_composition(DEFAULT_SEED)


@pytest.fixture(scope="module")
def albert_suite():
    return suite_albert(DEFAULT_SEED)


@pytest.fixture(scope="module")
def qforms_suite():
    return suite_qforms(DEFAULT_SEED)


def _named(results, *needles):
    picked = [r for r in results if any(s in r.name for s in needles)]
    assert picked, f"no checks matched {needles}"
    return all(r.ok for r in picked)


def test_criterion_1_axiom_suites(fields_suite, composition_suite, albert_suite):
    ok = _named(fields_suite, "axioms over")
    ok = ok and _named(composition_suite, "composition law")
    ok = ok and _named(albert_suite, "Jordan commutativity", "Jordan identity")
    ok = ok and _named(albert_suite, "polarization")
    _report(1, "exact axiom suites (fields, composition law, Jordan, polarization)", ok)


def test_criterion_2_paper_pinned_constants():
    a = AlbertAlgebra(GRAVES, [1, -1, 1])
    u = a.diag_unit(3)
    ok = norm_Q(u) == Q.element(Fraction(1, 2))
    ok = ok and len(e0_subspace(a, u)) == 9
    q0 = q0_form(a, u)
    target = QuadraticForm(Q, [1] + [-c for c in GRAVES.norm_form().coeffs])
    ok = ok and equivalent(q0, target)
    ok = ok and q0.evaluate([1, 1, 0, 0, 0, 0, 0, 0, 0]).is_zero()
    ok = ok and witt_decompose(q0).witt_index == 1  # division coordinate algebra
    a_split = AlbertAlgebra(SPLIT, [1, -1, 1])
    ok = ok and witt_decompose(q0_form(a_split, a_split.diag_unit(3))).witt_index != 1
    _report(2, "Q(E33)=1/2, dim E0=9, Q0=<1>+(-N) with Q0(1,1)=0, Witt(Q0)=1 iff division", ok)


def test_criterion_3_classification_table():
    ok = f4_rank(AlbertAlgebra(GRAVES, [1, 1, 1])).rank == 0
    rank1 = f4_rank(AlbertAlgebra(GRAVES, [1, -1, 1]))
    ok = ok and rank1.rank == 1
    z = albert_element_from_json(AlbertAlgebra(GRAVES, [1, -1, 1]), rank1.certificate["element"])
    ok = ok and not z.is_zero() and jordan_mul(z, z).is_zero()
    rng = random.Random(DEFAULT_SEED)
    for _ in range(3):
        gamma = [rng.choice([1, -1, 2, -3, 5]) for _ in range(3)]
        ok = ok and f4_rank(AlbertAlgebra(SPLIT, gamma)).rank == 4
    ok = ok and g2_rank(GRAVES).rank == 0
    ok = ok and g2_rank(SPLIT).rank == 2
    _report(3, "pinned classification table with verified certificates", ok)


def test_criterion_4_kernel_congruence():
    a = AlbertAlgebra(GRAVES, [1, -1, 1])
    k = f4_kernel(a)
    ok = k.kind == KIND_SPIN and k.form.dim == 7
    ok = ok and not is_isotropic(k.form, want_witness=False).isotropic
    q0 = q0_form(a, a.diag_unit(3))
    cols = [[Q.element(v) for v in col] for col in k.provenance["split_basis"]]
    t = [[cols[c][r] for c in range(9)] for r in range(9)]
    combo = QuadraticForm(Q, [1, -1] + list(k.form.coeffs))
    ok = ok and equivalent_with_witness(q0, combo, t)
    _report(4, "7-dim anisotropic kernel with exact <1,-1> + kernel = Q0 congruence", ok)


def test_criterion_5_excellence_end_to_end():
    ok = True
    a_rank1 = AlbertAlgebra(GRAVES, [1, -1, 1])
    expected_rank1 = [1, 1, 4, 4]
    for ext, want in zip(L_PANEL, expected_rank1):
        rep = f4_excellence(a_rank1, ext)
        ok = ok and rep.verdict == VERDICT_EXCELLENT
        ok = ok and rep.rank_base.rank == 1 and rep.rank_ext.rank == want
        if rep.kernel_ext.kind == KIND_SPIN:
            lifted = [ext.element(c.value) for c in GRAVES.pure_norm_form().neg().coeffs]
            ok = ok and tuple(lifted) == rep.kernel_ext.form.coeffs
    a_rank0 = AlbertAlgebra(GRAVES, [1, 1, 1])
    expected_rank0 = [0, 0, 4, 4]
    for ext, want in zip(L_PANEL, expected_rank0):
        rep = f4_excellence(a_rank0, ext)
        ok = ok and rep.verdict == VERDICT_EXCELLENT
        ok = ok and rep.rank_base.rank == 0 and rep.rank_ext.rank == want
    expected_g2 = [0, 0, 2, 2]
    for ext, want in zip(L_PANEL, expected_g2):
        rep = g2_excellence(GRAVES, ext)
        ok = ok and rep.verdict == VERDICT_EXCELLENT
        ok = ok and rep.rank_base.rank == 0 and rep.rank_ext.rank == want
        ok = ok and rep.kernel_ext.kind in (KIND_TRIVIAL, KIND_WHOLE)
    _report(5, "excellence verdicts and rank transitions over the quadratic panel", ok)


def test_criterion_6_oracle_equivalences(qforms_suite):
    ok = _named(qforms_suite, "F_p Witt index vs exhaustive enumeration")
    ok = ok and _named(qforms_suite, "Hasse-Minkowski vs bounded search")
    ok = ok and _named(qforms_suite, "Hilbert product formula")
    _report(6, "Witt/Hasse-Minkowski/Hilbert verdicts match independent oracles", ok)


def test_criterion_7_automorphism_panel():
    a = AlbertAlgebra(GRAVES, [1, -1, 1])
    matrices = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        torus_element(Q, Fraction(5, 4), Fraction(3, 4)),
    ]
    rng = random.Random(DEFAULT_SEED)
    matrices += [so_gamma_sample(a, rng) for _ in range(10)]
    ok = True
    for x in matrices:
        auto = phi(a, x)
        ok = ok and auto.preserves_jordan_on_basis()
    u = a.diag_unit(3)
    for t in range(2, 12):
        den = Fraction(t * t - 1)
        av, bv = Fraction(t * t + 1) / den, Fraction(2 * t) / den
        auto = phi(a, torus_element(Q, av, bv))
        ok = ok and auto.apply(u) == u
    _report(7, "phi multiplicative on the full 378-pair panel (12 matrices); torus fixes E33", ok)


def test_criterion_8_negative_robustness():
    ok = True
    for p in (2, 3):
        try:
            prime_field(p)
            ok = False
        except InvalidInput:
            pass
    try:
        AlbertAlgebra(GRAVES, [1, 0, 1])
        ok = False
    except ZeroParameter:
        pass
    r2 = quad_ext(2)
    q4 = QuadraticForm(r2, [1, 1, 1, 1])
    try:
        equivalent(q4, q4)
        ok = False
    except UnsupportedCase:
        pass
    code = cli_main(
        ["witt", "--json", '{"field":{"kind":"QSqrt","d":2},"coeffs":["1","1","1","1"]}']
    )
    ok = ok and code == 3
    pair = orthogonal_nilpotent_pair(AlbertAlgebra(SPLIT, [1, 1, 1]))
    ok = ok and pair is not None
    z1, z2 = pair
    ok = ok and jordan_mul(z1, z1).is_zero() and jordan_mul(z2, z2).is_zero()
    ok = ok and jordan_mul(z1, z2).is_zero()
    ok = ok and orthogonal_nilpotent_pair(AlbertAlgebra(GRAVES, [1, -1, 1])) is None
    _report(8, "rejections (char 2/3, zero Gamma, Q(sqrt d) dim-4 equivalence) and pair dichotomy", ok)


def test_verify_stdout_matches_its_digest(fields_suite, qforms_suite, composition_suite, albert_suite, monkeypatch, capsys):
    """`splitrank verify --seed 1729` byte for byte: the suites that the
    criteria above ran, and suite_groups, go through the CLI, and the
    sha256 of its stdout is the one in tests/golden/verify_seed_1729.sha256
    (a `sha256sum -c` file, which CI checks on the installed command)."""
    want = (Path(__file__).parent / "golden" / "verify_seed_1729.sha256").read_text().split()[0]
    results = {"fields": fields_suite, "qforms": qforms_suite, "composition": composition_suite,
               "albert": albert_suite, "groups": suite_groups(DEFAULT_SEED)}

    def ran(name):
        def suite(seed):
            assert seed == DEFAULT_SEED == 1729
            return results[name]

        return suite

    monkeypatch.setattr(verify, "SUITES", {name: ran(name) for name in verify.SUITES})
    assert cli_main(["verify", "--seed", "1729"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want
