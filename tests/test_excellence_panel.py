"""Excellence at height: the excellence rows of ROADMAP item 15, in tier-1.

Twenty inputs per row, for G2 and F4 at H = 10^6, 10^12 and 10^20, drawn
from random.Random(f"excneg:{group}:{H}"): three octonion parameters
-randint(1, H), so that C is a division algebra over Q; for F4, Gamma of
three entries +-randint(1, H); then d, a choice of -7, -3, -1, -2, -5 or
-11.  Each input runs the excellence of its group over Q(sqrt d) after
fields.clear_factor_caches().  Every F4 report must pass
bench/checker.check_excellence.  The checker has no G2 entry, so a G2
report must pass its norm-witness check on the lifted parameters, over a
rank-0 base report and a trivial kernel.  The descent and norm witnesses
end in zeros of ternary forms built on the Legendre lattice, so the panel
also runs that lattice at height.

The inputs that end in the InputTooLarge of _split_value, whose walk over
t gives up past its budget, are strict xfails: ROADMAP item 15 (split
values from a prime in a residue class) must take the markers off when it
lands.
"""

import json
import random

import bench_modules
import pytest

from splitrank import fields
from splitrank.albert import albert_from_json
from splitrank.composition import comp_from_json
from splitrank.errors import InputTooLarge
from splitrank.fields import field_from_json
from splitrank.groups import f4_excellence, g2_excellence

ROW_SIZE = 20
HEIGHTS = (10**6, 10**12, 10**20)
EXT_D = (-7, -3, -1, -2, -5, -11)
# (group, height): the inputs of the row whose split-value walk gives up
SPLIT_VALUE_LOST = {
    ("g2", 10**20): (0, 15, 16),
    ("f4", 10**12): (1, 3, 4, 17, 19),
    ("f4", 10**20): (1, 2, 4, 5, 8, 10, 11, 12, 17, 19),
}


def row(group: str, height: int) -> list[tuple[dict, dict]]:
    """The (descriptor, extension field) of each input of one row."""
    rng = random.Random(f"excneg:{group}:{height}")
    inputs = []
    for _ in range(ROW_SIZE):
        octonion = {"field": {"kind": "Q"}, "params": [str(-rng.randint(1, height)) for _ in range(3)]}
        if group == "f4":
            gamma = [rng.choice((-1, 1)) * rng.randint(1, height) for _ in range(3)]
            desc = {"f4": {"octonion": octonion, "gamma": [str(g) for g in gamma]}}
        else:
            desc = {"g2": octonion}
        inputs.append((desc, {"kind": "QSqrt", "d": rng.choice(EXT_D)}))
    return inputs


@pytest.fixture(scope="module")
def checker():
    return bench_modules.load("checker")


def _check_g2(checker, desc: dict, ext: dict, report: dict) -> None:
    """A division C over Q has rank 0, proved at the real place; over Q(sqrt d),
    d < 0, N is isotropic, so G2 splits: rank 2 with a nonzero zero of N."""
    ar = checker.Arith(desc["g2"]["field"])
    ear = checker.Arith(ext)
    params = [ear.lift(ar.parse(p)) for p in desc["g2"]["params"]]
    base, lifted = report["rank_base"], report["rank_ext"]
    assert report["group"] == "G2" and report["verdict"] == "excellent_witnessed"
    assert base["rank"] == 0 and base["certificate"]["norm_anisotropy"]["method"] == "real_places"
    assert lifted["rank"] == 2 and lifted["certificate"]["kind"] == "split_norm_witness"
    assert checker._check_norm_witness(ear, params, lifted["certificate"]["norm_isotropy"])
    assert report["kernel_ext"]["kind"] == "trivial"


def _params():
    for group in ("g2", "f4"):
        for height in HEIGHTS:
            lost = SPLIT_VALUE_LOST.get((group, height), ())
            for i in range(ROW_SIZE):
                marks = [pytest.mark.xfail(
                    raises=InputTooLarge, strict=True,
                    reason="the split-value walk gives up at this height (ROADMAP item 15)",
                )] if i in lost else []
                yield pytest.param(group, height, i, marks=marks, id=f"{group}-{height:.0e}-{i}")


@pytest.mark.parametrize("group, height, i", _params())
def test_excellence_at_height(checker, group, height, i):
    desc, ext = row(group, height)[i]
    fields.clear_factor_caches()
    if group == "g2":
        report = g2_excellence(comp_from_json(desc["g2"]), field_from_json(ext))
    else:
        report = f4_excellence(albert_from_json(desc["f4"]), field_from_json(ext))
    report = json.loads(json.dumps(report.to_json()))
    if group == "g2":
        _check_g2(checker, desc, ext, report)
    else:
        assert checker.check_excellence(desc, ext, report), desc
