"""F4 classification at height: the panel of ROADMAP item 3, in tier-1.

Thirty F4 algebras over Q per height H, drawn from random.Random(9): three
octonion parameters -randint(1, H), one of them (chosen at random) negated
with probability 0.3, and Gamma of three entries +-randint(1, H).  Every
report must certify and pass bench/checker.check_classify.

At H = 10^12 four inputs end in the InputTooLarge of _split_value, whose
walk over t gives up past its budget.  They are strict xfails: ROADMAP
item 15 (split values from a prime in a residue class) must take the
markers off when it lands.
"""

import json
import random

import bench_modules
import pytest

from splitrank.albert import albert_from_json
from splitrank.errors import InputTooLarge
from splitrank.groups import f4_rank

PANEL_SIZE = 30
SPLIT_VALUE_LOST = (5, 16, 19, 23)  # of the 10^12 row


def panel(height: int) -> list[dict]:
    rng = random.Random(9)
    inputs = []
    for _ in range(PANEL_SIZE):
        params = [-rng.randint(1, height) for _ in range(3)]
        if rng.random() < 0.3:
            params[rng.randrange(3)] *= -1
        gamma = [rng.choice((-1, 1)) * rng.randint(1, height) for _ in range(3)]
        octonion = {"field": {"kind": "Q"}, "params": [str(p) for p in params]}
        inputs.append({"f4": {"octonion": octonion, "gamma": [str(g) for g in gamma]}})
    return inputs


@pytest.fixture(scope="module")
def checker():
    return bench_modules.load("checker")


def _certify(checker, desc: dict):
    report = json.loads(json.dumps(f4_rank(albert_from_json(desc["f4"])).to_json()))
    assert checker.check_classify(desc, report), desc


def test_height_1e6_certifies(checker):
    for desc in panel(10**6):
        _certify(checker, desc)


@pytest.mark.parametrize(
    "i",
    [
        pytest.param(i, marks=pytest.mark.xfail(
            raises=InputTooLarge, strict=True,
            reason="the split-value walk gives up at this height (ROADMAP item 15)",
        ))
        if i in SPLIT_VALUE_LOST else i
        for i in range(PANEL_SIZE)
    ],
)
def test_height_1e12(checker, i):
    _certify(checker, panel(10**12)[i])
