"""The Jordan identities behind the F4 certificates, re-checked in the
Albert algebra on every golden rank-1 report (see jordan_checks):

- jordan_mul(z, z) = 0 for every rank-1 certificate z;
- albert.q0_data(a, E_ii, c) -- the three E0 conditions on the basis
  E_jj - E_kk, slot_i(c e_m), and the Gram of Q on it -- gives the
  report's q0, for every spin-form kernel.

The reports are every rank-1 report of the goldens classify_f4, kernel,
excellence and f4_panel (over L, in the algebra that base_change_albert
rebuilds there); test_rank1_kernel_panel runs the same checks on its 210
inputs.  A changed z coordinate, c or q0 is rejected.
"""

import json
from pathlib import Path

import pytest
from jordan_checks import check_q0, check_square_zero

from splitrank.albert import albert_from_json, base_change_albert
from splitrank.errors import InternalCheckFailed
from splitrank.fields import field_from_json, scalar_literals

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
# the algebra of the README examples (tests/test_golden.py): classify_f4
# and kernel run on it over Q, excellence over Q(sqrt -1)
GRAVES_RANK1 = {"octonion": {"field": {"kind": "Q"}, "params": ["-1", "-1", "-1"]}, "gamma": ["1", "-1", "1"]}


def rank1_checks(argv: list, desc: dict, report: dict) -> list:
    """(check, algebra, report part) for each rank-1 certificate and each
    spin-form kernel in the report of the command argv on the algebra desc;
    the parts over an extension L are checked in the algebra rebuilt
    over L."""
    a = albert_from_json(desc)
    if argv[0] == "classify":
        return [(check_square_zero, a, report)] if report["rank"] == 1 else []
    if argv[0] == "kernel":
        return [(check_q0, a, report)] if report["kind"] == "spin_form" else []
    ext = base_change_albert(a, field_from_json(json.loads(argv[argv.index("--ext") + 1])))
    out = [(check_square_zero, a, report["rank_base"])] if report["rank_base"]["rank"] == 1 else []
    if report["rank_ext"]["rank"] == 1:
        out.append((check_square_zero, ext, report["rank_ext"]))
    if report["kernel_ext"]["kind"] == "spin_form":
        out.append((check_q0, ext, report["kernel_ext"]))
    return out


def golden_checks(name: str) -> list:
    if name == "f4_panel":
        entries = json.loads((GOLDEN / "f4_panel.json").read_text())
        return [c for e in entries for c in rank1_checks(e["argv"], e["input"]["f4"], e["report"])]
    argv = {"classify_f4": ["classify"], "kernel": ["kernel"], "excellence": ["excellence", "--ext", '{"kind":"QSqrt","d":-1}']}[name]
    return rank1_checks(argv, GRAVES_RANK1, json.loads((GOLDEN / f"{name}.json").read_text()))


# (square-zero checks, Q0 checks) that each golden holds; f4_panel: 28
# rank-1 classify reports, 25 excellence reports of rank 1 over k, 13 of
# them of rank 1 over L, 28 spin kernels and 13 spin kernels over L
GOLDEN_COUNTS = {"classify_f4": (1, 0), "kernel": (0, 1), "excellence": (1, 0), "f4_panel": (28 + 25 + 13, 28 + 13)}


@pytest.mark.parametrize("name", sorted(GOLDEN_COUNTS))
def test_every_golden_rank1_report(name):
    checks = golden_checks(name)
    counts = tuple(sum(check is kind for check, _, _ in checks) for kind in (check_square_zero, check_q0))
    assert counts == GOLDEN_COUNTS[name]
    for check, a, part in checks:
        check(a, part)


# where each tamper changes a report: a diagonal scalar of z, a coordinate
# of c (r_i N(c) != -1 then), a coefficient of q0
TAMPER = {
    "z": (check_square_zero, lambda report: report["certificate"]["element"]["x"]),
    "c": (check_q0, lambda report: report["provenance"]["c"]),
    "q0": (check_q0, lambda report: report["provenance"]["q0"]["coeffs"]),
}


@pytest.mark.parametrize("tamper", sorted(TAMPER))
def test_tampered_reports_are_rejected(tamper):
    # on every golden report the check runs on, the first nonzero entry of
    # the tampered vector doubled
    check, vector_of = TAMPER[tamper]
    checks = [(a, part) for name in GOLDEN_COUNTS for c, a, part in golden_checks(name) if c is check]
    for a, part in checks:
        report = json.loads(json.dumps(part))
        vector = vector_of(report)
        values = [a.field.element(v) for v in scalar_literals(vector, tamper)]
        m = next(m for m, v in enumerate(values) if not v.is_zero())
        vector[m] = str(values[m] + values[m])
        with pytest.raises(InternalCheckFailed):
            check(a, report)
    assert len(checks) == (68 if check is check_square_zero else 42)
