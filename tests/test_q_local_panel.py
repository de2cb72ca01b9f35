"""Seeded local invariants over Q, byte for byte.

tests/golden/q_local_panel.json holds, for a fixed panel of 120 diagonal
forms over Q (dimensions 2-6, coefficients +-n/d with n and d up to 10,
10^2, 10^4 or 10^6, a third of them integers), the isotropy verdict without
a witness (method and detail), the determinant square class, the Witt index
from invariants and the Hasse invariant at inf, at 2 and at every prime of a
numerator or denominator.  In a quarter of the forms the last coefficient
is -a1 times a square, so that every dimension has isotropic forms.  A
refactor of the local layer must leave every entry in place.  To regenerate
after a deliberate change of output:

    PYTHONPATH=src python tests/test_q_local_panel.py
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from splitrank.fields import prime_factors, rationals
from splitrank.qforms import INF, QuadraticForm, hasse_invariant, is_isotropic, witt_index_by_invariants

GOLDEN = Path(__file__).parent / "golden" / "q_local_panel.json"
HEIGHTS = (10, 10**2, 10**4, 10**6)


def panel_coeffs() -> list[list[Fraction]]:
    rng = random.Random(31_415)
    forms = []
    for dim in range(2, 7):
        for h in HEIGHTS:
            for _ in range(6):
                coeffs = [
                    rng.choice((-1, 1)) * Fraction(rng.randint(1, h), 1 if rng.random() < 1 / 3 else rng.randint(1, h))
                    for _ in range(dim)
                ]
                if rng.random() < 1 / 4:
                    coeffs[-1] = -coeffs[0] * Fraction(rng.randint(1, 30), rng.randint(1, 30)) ** 2
                forms.append(coeffs)
    return forms


def local_report(coeffs: list[Fraction]) -> dict:
    q = QuadraticForm(rationals(), coeffs)
    primes = {2}
    for c in coeffs:
        primes.update(prime_factors(c.numerator), prime_factors(c.denominator))
    verdict = is_isotropic(q, want_witness=False)
    return {
        "coeffs": [str(c) for c in coeffs],
        "isotropic": {"isotropic": verdict.isotropic, "method": verdict.method, "detail": verdict.detail},
        "det_squareclass": q.det_squareclass(),
        "witt_index": witt_index_by_invariants(q),
        "hasse": {str(p): hasse_invariant(q, p) for p in [INF, *sorted(primes)]},
    }


def panel_text() -> str:
    entries = [json.dumps(local_report(coeffs), sort_keys=True) for coeffs in panel_coeffs()]
    return "[\n" + ",\n".join(entries) + "\n]\n"


def test_q_local_panel_bytes():
    assert panel_text() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(panel_text())
