"""Seeded `witt` reports, byte for byte.

tests/golden/witt_panel.json holds the `witt` JSON of a fixed panel: 70
forms over Q at the benchmark's heights (dimensions 3-4 up to 100, 5-6 up
to 10, 7-9 up to 5), 21 forms over F_p, and six of the s * (-v, P, ..., P)
family in dimensions 7 and 9.  A refactor of the Witt decomposition must
leave every basis in place.  To regenerate after a deliberate change of
output:

    PYTHONPATH=src python tests/test_witt_panel.py
"""

import json
import random
from pathlib import Path

from splitrank import linalg
from splitrank.fields import is_prime
from splitrank.qforms import form_from_json, witt_decompose

GOLDEN = Path(__file__).parent / "golden" / "witt_panel.json"
Q_HEIGHT = {3: 100, 4: 100, 5: 10, 6: 10, 7: 5, 8: 5, 9: 5}


def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def panel_inputs() -> list[dict]:
    rng = random.Random(20_100)
    forms = []
    for dim in range(3, 10):
        for _ in range(10):
            h = Q_HEIGHT[dim]
            coeffs = [rng.choice((-1, 1)) * rng.randint(1, h) for _ in range(dim)]
            forms.append({"field": {"kind": "Q"}, "coeffs": [str(c) for c in coeffs]})
    for i in range(21):
        p = _next_prime(rng.randint(5, 10_000))
        coeffs = [rng.randrange(1, p) for _ in range(3 + i % 7)]
        forms.append({"field": {"kind": "Fp", "p": p}, "coeffs": [str(c) for c in coeffs]})
    for dim in (7, 9, 7, 9, 7, 9):
        big = _next_prime(rng.randint(100, 1000))
        s = rng.choice((-1, 1))
        coeffs = [-s * rng.randint(1, 9)] + [s * big] * (dim - 1)
        forms.append({"field": {"kind": "Q"}, "coeffs": [str(c) for c in coeffs]})
    return forms


def panel_text() -> str:
    entries = [
        json.dumps({"input": form, "witt": witt_decompose(form_from_json(form)).to_json()}, sort_keys=True)
        for form in panel_inputs()
    ]
    return "[\n" + ",\n".join(entries) + "\n]\n"


def test_witt_panel_bytes():
    assert panel_text() == GOLDEN.read_text()


def test_splits_never_reach_the_nullspace(monkeypatch):
    # each split is in closed form on its witness support
    def refuse(a):
        raise AssertionError("linalg.nullspace called during witt_decompose")

    monkeypatch.setattr(linalg, "nullspace", refuse)
    for entry in json.loads(GOLDEN.read_text()):
        witt_decompose(form_from_json(entry["input"]))


if __name__ == "__main__":
    GOLDEN.write_text(panel_text())
