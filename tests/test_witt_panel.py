"""Seeded `witt` reports, byte for byte.

tests/golden/witt_panel.json holds the `witt` JSON of a fixed panel: 70
forms over Q at the benchmark's heights (dimensions 3-4 up to 100, 5-6 up
to 10, 7-9 up to 5), 21 forms over F_p, and six of the s * (-v, P, ..., P)
family in dimensions 7 and 9.  A second rng adds forms over Q with
fractional and non-squarefree coefficients (columns that pass a split by
are rescaled by an integer or a fractional square factor), forms of index 4
over F_5 and F_7, forms over Q(sqrt 2) and Q(sqrt 5) that split once or
twice down to a definite remainder, and two forms with a 22-digit semiprime
coefficient.  A refactor of the Witt decomposition must leave every basis
in place.  To regenerate after a deliberate change of
output:

    PYTHONPATH=src python tests/test_witt_panel.py
"""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

from splitrank import cli, fields, linalg, qforms
from splitrank.fields import is_prime, least_nonresidue, legendre
from splitrank.qforms import QuadraticForm, equivalent, form_from_json, witt_decompose, witt_index_by_invariants

GOLDEN = Path(__file__).parent / "golden" / "witt_panel.json"
# the README's `witt` example, whose report is tests/golden/witt.json
README_WITT = ({"field": {"kind": "Q"}, "coeffs": ["1", "-1", "1"]}, GOLDEN.parent / "witt.json")
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
    return forms + _second_inputs()


def _second_inputs() -> list[dict]:
    rng = random.Random(22_122)
    forms = []
    for dim in (4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9):
        coeffs = []
        for _ in range(dim):
            m = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            coeffs.append(rng.choice((-1, 1)) * rng.choice((1, 2, 3, 5, 6, 7)) * m * m)
        forms.append({"field": {"kind": "Q"}, "coeffs": [str(c) for c in coeffs]})
    for p in (5, 7, 5, 7):
        for dim in (8, 9):
            coeffs = [rng.randrange(1, p) for _ in range(dim)]
            if dim == 8 and legendre(math.prod(coeffs), p) != 1:
                # the last coefficient makes the discriminant a square: index 4
                coeffs[-1] = coeffs[-1] * rng.randrange(1, p) ** 2 * least_nonresidue(p) % p
            forms.append({"field": {"kind": "Fp", "p": p}, "coeffs": [str(c) for c in coeffs]})
    for d, dim, k in ((2, 7, 1), (5, 7, 1), (2, 8, 1), (5, 8, 1), (2, 9, 1), (5, 9, 1), (2, 9, 2), (5, 9, 2)):
        # signature (dim - k, k) with dim - 2k >= 5: k splits, then definite
        s = rng.choice((-1, 1))
        coeffs = [s * Fraction(rng.randint(1, 9), rng.randint(1, 2)) for _ in range(dim - k)]
        coeffs += [-s * Fraction(rng.randint(1, 9), rng.randint(1, 2)) for _ in range(k)]
        rng.shuffle(coeffs)
        forms.append({"field": {"kind": "QSqrt", "d": d}, "coeffs": [str(c) for c in coeffs]})
    semiprime = -3871835699710048140611  # -49676701267 * 77940676433
    for coeffs in ([semiprime, 1, 2], [semiprime, 3, 5, 7]):
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


def test_each_split_maps_only_its_support(monkeypatch):
    # a split mixes u1, u2 and its |S| - 2 complement columns from the |S|
    # columns of the support S; every other column passes through untouched
    split, maps, splits = qforms._split_step, [0], []

    def spied(kernel, coeffs, witness):
        out = split(kernel, coeffs, witness)
        splits.append((len(coeffs[0]), len(out[0]), maps[0]))  # coeffs: the packed current coefficients
        return out

    packed_mix = fields._Kernel.packed_mix

    def counted(self, base, xp):
        assert len(base[0]) == len(xp[0]) == splits[-1][1]  # the |S| support columns, one per entry
        maps[0] += 1
        return packed_mix(self, base, xp)

    monkeypatch.setattr(qforms, "_split_step", spied)
    monkeypatch.setattr(fields._Kernel, "packed_mix", counted)
    narrow = 0
    for entry in json.loads(GOLDEN.read_text()):
        splits.clear()
        maps[0] = 0
        witt_decompose(form_from_json(entry["input"]))
        ends = [start for _, _, start in splits[1:]] + [maps[0]]
        assert [end - start for (_, _, start), end in zip(splits, ends)] == [size for _, size, _ in splits], entry
        narrow += sum(size < dim for dim, size, _ in splits)
    assert narrow > 100


def _golden_entries() -> list[dict]:
    entries = json.loads(GOLDEN.read_text())
    return entries + [{"input": README_WITT[0], "witt": json.loads(README_WITT[1].read_text())}]


def test_report_literals_are_the_unpacked_basis():
    # the report's literals are read off the packed columns: they are str()
    # of the entries of the unpacked basis, over Q, F_p and Q(sqrt d)
    kinds = set()
    for entry in _golden_entries():
        dec = witt_decompose(form_from_json(entry["input"]))
        assert dec.to_json()["witness"] == [[str(x) for x in col] for col in zip(*dec.basis)], entry
        kinds.add(entry["input"]["field"]["kind"])
    assert kinds == {"Q", "Fp", "QSqrt"}


def test_witt_report_is_written_without_unpacking(monkeypatch, capsys):
    # once `witt` has its decomposition, reading `basis` or unpacking a
    # packed vector raises; every report still comes out byte for byte
    armed = [False]

    def refused(name, run):
        def wrapper(*args):
            if armed[0]:
                raise AssertionError(f"{name} called while the report is written")
            return run(*args)

        return wrapper

    for kernel_class in (fields._RationalKernel, fields._PrimeKernel, fields._QuadKernel):
        monkeypatch.setattr(kernel_class, "_unpack", refused("_unpack", kernel_class._unpack))
    monkeypatch.setattr(qforms.WittDecomposition, "basis", property(refused("basis", qforms.WittDecomposition.basis.fget)))
    decompose = cli.witt_decompose

    def decompose_then_arm(q):
        armed[0] = False
        dec = decompose(q)
        armed[0] = True
        return dec

    monkeypatch.setattr(cli, "witt_decompose", decompose_then_arm)
    for entry in _golden_entries():
        assert cli.main(["witt", "--json", json.dumps(entry["input"])]) == 0
        assert capsys.readouterr().out == json.dumps(entry["witt"], indent=2, sort_keys=True) + "\n", entry
    assert armed[0]


def test_every_q_report_matches_the_invariants():
    # witt_decompose proves its basis by one exact congruence; this is the
    # invariant cross-check of each golden report over Q: H^i + the
    # anisotropic part has the invariants of q, and i is the Witt index
    # that signatures and local invariants give
    checked = 0
    for entry in _golden_entries():
        q, report = form_from_json(entry["input"]), entry["witt"]
        if q.field.kind != "Q":
            continue
        rebuilt = QuadraticForm(q.field, [1, -1] * report["index"] + [Fraction(c) for c in report["anisotropic"]])
        assert equivalent(rebuilt, q), entry
        assert witt_index_by_invariants(q) == report["index"], entry
        checked += 1
    assert checked == 90  # 89 panel forms over Q and the README example


if __name__ == "__main__":
    GOLDEN.write_text(panel_text())
