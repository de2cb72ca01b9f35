"""Seeded F4 reports, byte for byte.

tests/golden/f4_panel.json holds the `classify`, `kernel` and `excellence`
JSON (exit code included) of 48 Albert algebras drawn with random.Random:
division and split octonions over Q and octonions over F_p, with Gamma of
every sign class of the benchmark's f4_certify workload (rank 1 with Gamma
of the form s (a^2, -b^2, c^2) and not, (1, -1, 1), one sign, and
(1, -h, 1)).  Every rank-1 kernel is certified on the slot of its rank
certificate, whether or not Gamma could be moved to (1, -1, 1).  `excellence`
runs on the rank-1 division algebras, over Q(sqrt d) for d in (-7, 2, -11, 5)
in turn; on the rank-0 (division, one sign) and rank-4 (split) algebras over
Q(sqrt d) in a rotation of their own, (2, -3, 13, -1, 5, -11); and over the
base field itself on every F_p algebra and on the first algebra over Q.  A
change to the algebra construction, its checks or the arithmetic
underneath must leave every report in place.
To regenerate after a deliberate change of output:

    PYTHONPATH=src python tests/test_f4_panel.py
"""

import contextlib
import io
import json
import math
import random
from pathlib import Path

from splitrank.cli import main
from splitrank.fields import is_prime

GOLDEN = Path(__file__).parent / "golden" / "f4_panel.json"
EXT_D = (-7, 2, -11, 5)
# (coordinate octonions, Gamma class, number of algebras); every algebra
# gets classify and kernel, the rank-1 ones over Q also excellence
EXCELLENCE = ("rank1_normalizable", "rank1_nonnormalizable", "normalized")
# the rank-0 and rank-4 algebras over Q also run excellence, over Q(sqrt d)
# in a rotation of their own, so that the entries above keep their fields
EXCELLENCE_ZERO_FOUR = {("division", "same_sign"), ("split", "rank1_normalizable")}
EXT_D_ZERO_FOUR = (2, -3, 13, -1, 5, -11)
PANEL = (
    ("division", "rank1_normalizable", 8),
    ("division", "rank1_nonnormalizable", 8),
    ("division", "same_sign", 6),
    ("division", "one_minus_h_one", 4),
    ("division", "normalized", 8),
    ("split", "rank1_normalizable", 6),
    ("fp", "rank1_normalizable", 4),
    ("fp", "same_sign", 4),
)


def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def _gamma(rng, kind: str) -> list[int]:
    s = rng.choice((-1, 1)) * rng.randint(1, 5)
    if kind == "rank1_normalizable":
        a, b, c = (rng.randint(1, 2) for _ in range(3))
        gamma = [s * a * a, -s * b * b, s * c * c]
        rng.shuffle(gamma)
        return gamma
    if kind == "rank1_nonnormalizable":
        m = rng.randint(2, 30)
        while math.isqrt(m) ** 2 == m:
            m += 1
        return [s * m, -s, s]
    if kind == "normalized":
        return [1, -1, 1]
    if kind == "same_sign":
        return [s * rng.randint(1, 50) for _ in range(3)]
    h = rng.randint(100, 10_000)
    while any(h % (p * p) == 0 for p in range(2, math.isqrt(h) + 1)):
        h += 1
    return [1, -h, 1]


def panel_inputs() -> list[tuple[list[str], dict]]:
    """(argv, algebra descriptor) of every command of the panel."""
    rng = random.Random(20_200)
    commands = []
    n_ext = n_ext_zero_four = n_ext_self = 0
    for octo, gkind, count in PANEL:
        for _ in range(count):
            if octo == "fp":
                field = {"kind": "Fp", "p": _next_prime(rng.randint(5, 10_000))}
                params = [rng.randrange(1, field["p"]) for _ in range(3)]
            else:
                field = {"kind": "Q"}
                params = [-rng.randint(1, 6) for _ in range(3)]
                if octo == "split":
                    params[rng.randrange(3)] *= -1
            alg = {
                "f4": {
                    "octonion": {"field": field, "params": [str(p) for p in params]},
                    "gamma": [str(g) for g in _gamma(rng, gkind)],
                }
            }
            text = json.dumps(alg)
            commands.append((["classify", "--json", text], alg))
            commands.append((["kernel", "--json", text], alg))
            if octo == "division" and gkind in EXCELLENCE:
                ext = {"kind": "QSqrt", "d": EXT_D[n_ext % len(EXT_D)]}
                n_ext += 1
                commands.append((["excellence", "--json", text, "--ext", json.dumps(ext)], alg))
            if (octo, gkind) in EXCELLENCE_ZERO_FOUR:
                ext = {"kind": "QSqrt", "d": EXT_D_ZERO_FOUR[n_ext_zero_four % len(EXT_D_ZERO_FOUR)]}
                n_ext_zero_four += 1
                commands.append((["excellence", "--json", text, "--ext", json.dumps(ext)], alg))
            if octo == "fp" or not n_ext_self:  # every F_p algebra, and the first algebra over Q, over k itself
                n_ext_self += 1
                commands.append((["excellence", "--json", text, "--ext", json.dumps(field)], alg))
    return commands


def panel_text() -> str:
    entries = []
    for argv, alg in panel_inputs():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        entry = {"argv": argv[:1] + argv[3:], "input": alg, "exit": rc, "report": json.loads(buf.getvalue())}
        entries.append(json.dumps(entry, sort_keys=True))
    return "[\n" + ",\n".join(entries) + "\n]\n"


def test_f4_panel_bytes():
    assert panel_text() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(panel_text())
