"""Excellence lifted from k-data, against the rebuild over L.

groups.f4_excellence and groups.g2_excellence build nothing over the
extension L: they lift the base-field reports and decide over L only the
isotropy of N, of the slot forms and of the kernel form.  The oracle here
is the route they replaced: rebuild the algebra over L with
base_change_albert or base_change_comp, then run f4_rank and f4_kernel
(or g2_rank) there.  A seeded panel of F4 inputs (division, split and F_p
octonions, every Gamma sign class, L = Q(sqrt d) for d in D and L = k) and
of G2 inputs must give byte-identical reports on both routes, and every F4
report must pass bench/checker.check_excellence, loaded read-only from its
file.  The guard test runs excellence with both rebuilds refused and
records the field of every algebra built.
"""

import json
import math
import random

import bench_modules
import pytest

from splitrank import albert, cli, composition, groups
from splitrank.albert import AlbertAlgebra, albert_from_json, base_change_albert
from splitrank.composition import CompositionAlgebra, base_change_comp, comp_from_json
from splitrank.errors import UnsupportedCase
from splitrank.fields import field_from_json, is_prime
from splitrank.groups import (
    F4,
    G2,
    KIND_SPIN,
    KIND_TRIVIAL,
    KIND_WHOLE,
    VERDICT_EXCELLENT,
    VERDICT_UNSUPPORTED,
    ExcellenceReport,
    KernelDescriptor,
    f4_excellence,
    f4_kernel,
    f4_rank,
    g2_excellence,
    g2_rank,
)
from splitrank.qforms import QuadraticForm

D = (-11, -7, -3, -1, 2, 3, 5, 13)
GAMMA_CLASSES = ("square_ratios", "mixed", "same_sign", "one_minus_h_one")


def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def _gamma(rng, kind: str) -> list[int]:
    s = rng.choice((-1, 1))
    if kind == "square_ratios":
        gamma = [s * rng.randint(1, 30) ** 2, -s * rng.randint(1, 30) ** 2, s * rng.randint(1, 30) ** 2]
    elif kind == "mixed":
        gamma = [s * rng.randint(1, 10**4), -s * rng.randint(1, 10**4), rng.choice((-1, 1)) * rng.randint(1, 10**4)]
    elif kind == "same_sign":
        gamma = [s * rng.randint(1, 500) for _ in range(3)]
    else:
        h = rng.randint(2, 10**4)
        while math.isqrt(h) ** 2 == h:
            h += 1
        gamma = [1, -h, 1]
    rng.shuffle(gamma)
    return gamma


def _octonion(rng, kind: str) -> dict:
    if kind == "fp":
        p = _next_prime(rng.randint(5, 10**4))
        return {"field": {"kind": "Fp", "p": p}, "params": [str(rng.randrange(1, p)) for _ in range(3)]}
    params = [-rng.randint(1, 40) for _ in range(3)]
    if kind == "split":
        params[rng.randrange(3)] *= -1
    return {"field": {"kind": "Q"}, "params": [str(p) for p in params]}


def f4_panel() -> list[tuple[dict, dict]]:
    """(algebra descriptor, extension) pairs: every Q algebra over Q(sqrt d)
    for each d in D in turn, and every fifth one over Q itself; every F_p
    algebra over F_p."""
    rng = random.Random(21_021)
    inputs = []
    n = 0
    for octo, count in (("division", 120), ("split", 48), ("fp", 32)):
        for i in range(count):
            desc = {"f4": {"octonion": _octonion(rng, octo), "gamma": [str(g) for g in _gamma(rng, GAMMA_CLASSES[i % 4])]}}
            field = desc["f4"]["octonion"]["field"]
            if octo == "fp" or i % 5 == 4:
                inputs.append((desc, field))
            else:
                inputs.append((desc, {"kind": "QSqrt", "d": D[n % len(D)]}))
                n += 1
    return inputs


def g2_panel() -> list[tuple[dict, dict]]:
    rng = random.Random(21_022)
    inputs = []
    for i, octo in enumerate(["division"] * 24 + ["split"] * 16 + ["fp"] * 8):
        oct_desc = _octonion(rng, octo)
        ext = oct_desc["field"] if octo == "fp" or i % 5 == 4 else {"kind": "QSqrt", "d": D[i % len(D)]}
        inputs.append(({"g2": oct_desc}, ext))
    return inputs


# ---------------------------------------------------------------------------
# the rebuild oracle: the algebra over L, classified there
# ---------------------------------------------------------------------------

def rebuilt_f4_excellence(a: AlbertAlgebra, ext) -> ExcellenceReport:
    rank_base = f4_rank(a)
    a_ext = base_change_albert(a, ext)
    rank_ext = kernel_ext = descent = reason = None
    try:
        rank_ext = f4_rank(a_ext)
        kernel_ext = f4_kernel(a_ext, rank_report=rank_ext)
    except UnsupportedCase as exc:
        rank_ext, reason = None, str(exc)
    if kernel_ext is not None and kernel_ext.kind == KIND_SPIN:
        witness_k = QuadraticForm(a.field, a.octonions.pure_norm_form().neg().coeffs, label="descent witness -N'")
        assert tuple(ext.element(c.value) for c in witness_k.coeffs) == kernel_ext.form.coeffs
        descent = {
            "form": witness_k.to_json(),
            "matching": "identity change of basis; the Q0 hyperbolic split "
            "commutes with base change coefficientwise",
            "kernel_split_basis": kernel_ext.provenance["split_basis"],
        }
    return ExcellenceReport(
        F4, a.field, ext, rank_base, rank_ext, kernel_ext, descent,
        VERDICT_EXCELLENT if reason is None else VERDICT_UNSUPPORTED, reason,
    )


def rebuilt_g2_excellence(c: CompositionAlgebra, ext) -> ExcellenceReport:
    rank_base = g2_rank(c)
    rank_ext = g2_rank(base_change_comp(c, ext))
    kernel = KernelDescriptor(
        KIND_TRIVIAL if rank_ext.rank == 2 else KIND_WHOLE,
        provenance={"reason": "rank dichotomy: G2 is anisotropic or split"},
    )
    return ExcellenceReport(G2, c.field, ext, rank_base, rank_ext, kernel, None, VERDICT_EXCELLENT)


def _text(report: ExcellenceReport) -> str:
    return json.dumps(report.to_json(), indent=2, sort_keys=True)


def test_panel_covers_the_classes():
    f4, g2 = f4_panel(), g2_panel()
    assert len(f4) >= 200 and len(g2) >= 40
    exts = {json.dumps(ext, sort_keys=True) for _, ext in f4}
    assert {json.dumps({"kind": "QSqrt", "d": d}, sort_keys=True) for d in D} <= exts
    assert {"Q", "Fp"} <= {ext["kind"] for _, ext in f4}
    ranks = {(f4_rank(albert_from_json(desc["f4"])).rank, ext["kind"]) for desc, ext in f4}
    assert {(0, "QSqrt"), (1, "QSqrt"), (4, "QSqrt"), (0, "Q"), (1, "Q"), (4, "Q"), (4, "Fp")} <= ranks


def test_f4_lift_matches_the_rebuild():
    checker = bench_modules.load("checker")
    for desc, ext_desc in f4_panel():
        a, ext = albert_from_json(desc["f4"]), field_from_json(ext_desc)
        report = f4_excellence(a, ext)
        assert _text(report) == _text(rebuilt_f4_excellence(a, ext)), (desc, ext_desc)
        assert checker.check_excellence(desc, ext_desc, json.loads(_text(report))), (desc, ext_desc)


def test_g2_lift_matches_the_rebuild():
    for desc, ext_desc in g2_panel():
        c, ext = comp_from_json(desc["g2"]), field_from_json(ext_desc)
        assert _text(g2_excellence(c, ext)) == _text(rebuilt_g2_excellence(c, ext)), (desc, ext_desc)


def test_excellence_builds_nothing_over_the_extension(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a production route rebuilt an algebra over the extension")

    for owner in (albert, composition, groups):
        for name in ("base_change_albert", "base_change_comp"):
            monkeypatch.setattr(owner, name, refuse, raising=False)
    built = []
    for cls in (AlbertAlgebra, CompositionAlgebra):
        init = cls.__init__

        def recording(self, *args, _init=init, **kwargs):
            _init(self, *args, **kwargs)
            built.append(self.field)

        monkeypatch.setattr(cls, "__init__", recording)
    q = {"kind": "Q"}
    inputs = [
        ({"f4": {"octonion": {"field": q, "params": ["-1", "-1", "-1"]}, "gamma": ["1", "1", "1"]}}, 0),
        ({"f4": {"octonion": {"field": q, "params": ["-1", "-1", "-1"]}, "gamma": ["1", "-1", "1"]}}, 1),
        ({"f4": {"octonion": {"field": q, "params": ["-1", "2", "-3"]}, "gamma": ["2", "-3", "5"]}}, 4),
        ({"g2": {"field": q, "params": ["-1", "-1", "-1"]}}, 0),
        ({"g2": {"field": q, "params": ["1", "-1", "-1"]}}, 2),
    ]
    for desc, rank in inputs:
        for d in (-7, 2, 5):
            built.clear()
            argv = ["excellence", "--json", json.dumps(desc), "--ext", json.dumps({"kind": "QSqrt", "d": d})]
            assert cli.main(argv) == 0, argv
            report = json.loads(capsys.readouterr().out)
            assert report["verdict"] == VERDICT_EXCELLENT and report["rank_base"]["rank"] == rank
            assert built and all(f == field_from_json(q) for f in built), (argv, built)


@pytest.mark.parametrize("d", [-7, 2])
def test_rebuild_oracle_is_not_vacuous(d):
    # the oracle route does build over L, so the guard above can tell the routes apart
    a = AlbertAlgebra(comp_from_json({"field": {"kind": "Q"}, "params": ["-1", "-1", "-1"]}), [1, -1, 1])
    ext = field_from_json({"kind": "QSqrt", "d": d})
    assert base_change_albert(a, ext).field == ext
    assert rebuilt_f4_excellence(a, ext).rank_ext.rank == (4 if d < 0 else 1)


@pytest.mark.parametrize("group", ["f4", "g2"])
def test_ext_equal_to_an_irrational_base(group, capsys):
    # N of (1 + sqrt -7, -1, -1) is isotropic over Q(sqrt -7) with no witness
    # in the k certificate (an irrational coefficient): L = k lifts it as is
    k = {"kind": "QSqrt", "d": -7}
    octonion = {"field": k, "params": ["1+r", "-1", "-1"]}
    desc = {"f4": {"octonion": octonion, "gamma": ["1", "-1", "1"]}} if group == "f4" else {"g2": octonion}
    assert cli.main(["excellence", "--json", json.dumps(desc), "--ext", json.dumps(k)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "witness" not in report["rank_base"]["certificate"]["norm_isotropy"]
    assert report["rank_base"]["rank"] == (4 if group == "f4" else 2)
    assert json.dumps(report["rank_ext"], sort_keys=True) == json.dumps(report["rank_base"], sort_keys=True)
