"""Rank-1 F4 kernels for every Gamma, differentially.

A seeded panel of 210 rank-1 Albert algebras H(C; Gamma) over Q, Q(sqrt 2)
and Q(sqrt 5): C a division algebra (all three doubling parameters
negative, height <= 30) and Gamma of mixed signs with entries up to 10^6.
A third of the Gammas are s (a^2, -b^2, c^2) in some order, which
groups.normalize_gamma moves to (1, -1, 1); the rest are drawn freely and
almost never can be.  Every kernel must

- pass bench/checker.check_kernel, the benchmark's plain Fraction checker
  (loaded read-only from its file by tests/bench_modules.py): kind by
  the sign oracle, Q0 = <1> - N, the exact congruence of the split
  basis, a definite 7-dim form;
- be -N', the negated pure norm of C, coefficient by coefficient;
- pass the Jordan re-checks of jordan_checks: the rank-1 certificate z
  has jordan_mul(z, z) = 0, and q0_data proves the E0 conditions and the
  Q0 Gram behind the report's q0;
- on a normalizable Gamma, give the q0, split_basis and form of the
  normalization oracle: normalize_gamma, Q0 on E33 of the normalized
  algebra, and the hyperbolic split through (1, 1_C).
"""

import json
import random

import bench_modules
import pytest
from jordan_checks import check_q0, check_square_zero

from splitrank.albert import albert_from_json, q0_form
from splitrank.groups import f4_kernel, f4_rank, normalize_gamma
from splitrank.qforms import _split_step

FIELDS = ({"kind": "Q"}, {"kind": "QSqrt", "d": 2}, {"kind": "QSqrt", "d": 5})
PER_FIELD = 70
HEIGHT = 10**6


def _gamma(rng, normalizable: bool) -> list[int]:
    s = rng.choice((-1, 1))
    if normalizable:
        gamma = [s * rng.randint(1, 1000) ** 2, -s * rng.randint(1, 1000) ** 2, s * rng.randint(1, 1000) ** 2]
        rng.shuffle(gamma)
        return gamma
    gamma = [rng.choice((-1, 1)) * rng.randint(1, HEIGHT) for _ in range(3)]
    if len({g > 0 for g in gamma}) == 1:
        gamma[rng.randrange(3)] *= -1
    return gamma


def panel() -> list[tuple[dict, bool]]:
    rng = random.Random(4_718)
    inputs = []
    for field in FIELDS:
        for i in range(PER_FIELD):
            params = [str(-rng.randint(1, 30)) for _ in range(3)]
            gamma = _gamma(rng, i % 3 == 0)
            inputs.append(({"f4": {"octonion": {"field": field, "params": params}, "gamma": [str(g) for g in gamma]}}, i % 3 == 0))
    return inputs


def test_panel_size():
    inputs = panel()
    assert len(inputs) >= 200 and sum(norm for _, norm in inputs) >= 60


def test_every_rank1_kernel_is_certified():
    checker = bench_modules.load("checker")
    for desc, normalizable in panel():
        a = albert_from_json(desc["f4"])
        rank = f4_rank(a)
        report = json.loads(json.dumps(f4_kernel(a, rank).to_json()))
        assert report["kind"] == "spin_form" and checker.check_kernel(desc, report), desc
        check_square_zero(a, rank.to_json())
        check_q0(a, report)
        assert report["form"]["coeffs"] == [str(c) for c in a.octonions.pure_norm_form().neg().coeffs], desc
        if normalizable:
            normalized, _ = normalize_gamma(a)
            q0 = q0_form(normalized, normalized.diag_unit(3))
            f = a.field
            support, u1, u2, comp_cols, comp = _split_step(list(q0.coeffs), [f.one(), f.one()] + [f.zero()] * 7)
            u1, u2 = (list(f.kernel._unpack(*u)) for u in (u1, u2))  # packed on the support
            # the witness lives on the first two coordinates: the other seven pass through
            assert support == [0, 1] and comp_cols == [None] * 7, desc
            units = [[f.one() if j == i else f.zero() for j in range(9)] for i in range(2, 9)]
            assert report["provenance"]["q0"] == q0.to_json(), desc
            assert report["provenance"]["split_basis"] == [[str(x) for x in col] for col in [u1 + [f.zero()] * 7, u2 + [f.zero()] * 7] + units], desc
            assert report["form"]["coeffs"] == [str(c) for c in comp], desc


@pytest.mark.parametrize("index", [0, 1, 75, 146])
def test_panel_kernel_rejects_a_tampered_split(index):
    # the checker is not vacuous on this panel: a changed split column fails it
    checker = bench_modules.load("checker")
    desc, _ = panel()[index]
    report = json.loads(json.dumps(f4_kernel(albert_from_json(desc["f4"])).to_json()))
    report["provenance"]["split_basis"][2][2] = "2"
    with pytest.raises(checker.WrongOutput):
        checker.check_kernel(desc, report)
