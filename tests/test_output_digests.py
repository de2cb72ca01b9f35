"""The CLI's outputs, byte for byte and verdict for verdict, as committed
checks.

tests/golden/output_digests.json holds one short sha256 of the exit code
and stdout of each operation of three frozen corpora:
- `witt_panel`: the first 6 blocks of that workload for seeds 1-4, and
- `f4_certify`: the first 4 blocks of that workload for seeds 1-3, both
  drawn by the block generators of bench/workloads.py as a bench run draws
  them;
- `commands`: every other command shape (G2 `classify` and `excellence`
  over Q, F_7 and Q(sqrt d), F4 `kernel` and `excellence`, `witt` over
  Q(sqrt 2) and Q(sqrt 5), and the inputs that exit 3), drawn by
  command_argvs below from its own seed, so that it does not move with
  bench/.
It also holds one sha256 of each op list, so that a change in a
generator reads "op list changed" and not "output changed", and one
sha256 over all outputs of a corpus in order.

tests/golden/verdict_digests.json holds, in the same layout and from the
same run of each operation, the digests of its verdict: the exit code,
the error kind and every report key but those that carry a witness
route's choices (HIDDEN below: the witnesses, the nilpotent element, the
idempotent and its c, the isotropic vector, the split bases and the
matching) and the error message, with the `coeffs` and `anisotropic`
lists as their lengths.  So a change of witness route that keeps every
rank, index, kernel kind, verdict and method changes output digests only.

The rule for a change of output: a change may regenerate
output_digests.json only if verdict_digests.json stays unchanged, every
changed output passes bench/checker.py, and CHANGES.md lists the changed
operations and says why they changed.  One command rewrites both files
from one run of each corpus:

    PYTHONPATH=src python tests/test_output_digests.py
"""

import functools
import hashlib
import json
import random
from pathlib import Path

import pytest

import bench_modules
import census
from splitrank.cli import main

GOLDEN = Path(__file__).parent / "golden" / "output_digests.json"
VERDICTS = Path(__file__).parent / "golden" / "verdict_digests.json"
# The report keys that carry a witness route's choices: no verdict reads them.
HIDDEN = frozenset({"witness", "element", "c", "idempotent", "isotropic_vector", "split_basis",
                    "kernel_split_basis", "matching"})
# The lists that a verdict reads as their lengths.
COUNTED = frozenset({"coeffs", "anisotropic"})
# workload: (its block generator in bench/workloads.py, seeds, blocks per seed)
BENCH_CORPUS = {"witt_panel": ("witt_blocks", (1, 2, 3, 4), 6), "f4_certify": ("f4_blocks", (1, 2, 3), 4)}
CORPORA = sorted(BENCH_CORPUS) + ["commands"]

Q, F7 = {"kind": "Q"}, {"kind": "Fp", "p": 7}
QUADRATIC = [{"kind": "QSqrt", "d": d} for d in (-7, -1, 2, 5)]
# octonions over Q that no witness can be built for over Q(sqrt -7): the
# descent vector needs the primality of 10^24 + 7, past the proven bound
LARGE_OCTONIONS = {"field": Q, "params": [str(-(10**24 + 7)), "-1", "-1"]}


@functools.cache
def _workloads():
    return bench_modules.load("workloads")


def _bench_argvs(workload: str) -> list[list[str]]:
    workloads = _workloads()
    blocks, seeds, count = BENCH_CORPUS[workload]
    argvs = []
    for seed in seeds:
        gen = getattr(workloads, blocks)(random.Random(f"{seed}:{workload}"))
        argvs += [workloads.cli_argv(op) for _ in range(count) for op in next(gen)]
    return argvs


def command_argvs() -> list[list[str]]:
    """The `commands` corpus: the argv of each operation, in order."""
    rng = random.Random("commands")

    def octonions(field, signs=(-1, -1, -1, 1)):  # with these signs, about half of them division algebras
        if field == F7:
            return {"field": field, "params": [str(rng.randrange(1, 7)) for _ in range(3)]}
        params = [str(rng.choice(signs) * rng.randint(1, 30)) for _ in range(3)]
        if field["kind"] == "QSqrt" and rng.random() < 0.25:  # an irrational parameter
            params[rng.randrange(3)] += f"+{rng.randint(1, 5)}*r"
        return {"field": field, "params": params}

    def albert(gamma, field=Q, signs=(-1, -1, -1, 1)):
        return {"f4": {"octonion": octonions(field, signs), "gamma": [str(g) for g in gamma]}}

    def run(cmd, desc, ext=None):
        return [cmd, "--json", json.dumps(desc)] + ([] if ext is None else ["--ext", json.dumps(ext)])

    argvs = []
    for field in [Q, F7] + QUADRATIC:
        for _ in range(4):
            desc = {"g2": octonions(field)}
            argvs += [run("classify", desc), run("excellence", desc, field)]
    for ext in QUADRATIC:
        argvs += [run("excellence", {"g2": octonions(Q)}, ext) for _ in range(2)]
    for gamma in ((1, -1, 1), (2, -2, 1)):
        argvs += [run("kernel", albert(gamma)) for _ in range(6)]
    for ext in [Q, F7] + QUADRATIC:
        for i in range(6):
            gamma = [rng.choice((-1, 1)) * rng.randint(1, 6) for _ in range(3)]
            signs = (-1,) if i % 2 else (-1, 1)  # every other one a division algebra
            argvs.append(run("excellence", albert(gamma, F7 if ext == F7 else Q, signs), ext))
    for ext in ({"kind": "QSqrt", "d": 2}, {"kind": "QSqrt", "d": 5}):
        for dim in (5, 5, 6, 6, 7, 7, 8, 8, 9, 9):
            # a form with more negative than (dim - 5) / 2 coefficients has an
            # anisotropic part of dimension < 5 that Q(sqrt d) does not decide (exit 3)
            negative = rng.randint(0, (dim - 3) // 2)
            coeffs = [str((-1 if i < negative else 1) * rng.randint(1, 40)) for i in range(dim)]
            rng.shuffle(coeffs)
            argvs.append(run("witt", {"field": ext, "coeffs": coeffs}))
    argvs += [run("excellence", {"g2": octonions(Q)}, F7), run("excellence", albert((1, -1, 1)), F7)]
    large = {"kind": "QSqrt", "d": -7}
    argvs += [run("excellence", {"g2": LARGE_OCTONIONS}, large),
              run("excellence", {"f4": {"octonion": LARGE_OCTONIONS, "gamma": ["1", "1", "1"]}}, large)]
    return argvs


def corpus_argvs(corpus: str) -> list[list[str]]:
    """The argv of every operation of the frozen corpus, in order."""
    return command_argvs() if corpus == "commands" else _bench_argvs(corpus)


def _verdict(value):
    if isinstance(value, dict):
        return {k: len(v) if k in COUNTED else _verdict(v) for k, v in value.items() if k not in HIDDEN}
    if isinstance(value, list):
        return [_verdict(v) for v in value]
    return value


def records(rc: int, text: str) -> tuple[bytes, bytes]:
    """What the two digests of one operation hash: its exit code and
    stdout, and its verdict (see the module docstring)."""
    report = json.loads(text)
    if "error" in report:
        report = {**report, "error": {k: v for k, v in report["error"].items() if k != "message"}}
    return f"{rc}\n{text}".encode(), f"{rc}\n{json.dumps(_verdict(report), sort_keys=True)}".encode()


def _record(argvs: list[list[str]], hashed: tuple[bytes, ...]) -> dict:
    return {
        "ops_sha256": hashlib.sha256(json.dumps(argvs).encode()).hexdigest(),
        "outputs_sha256": hashlib.sha256(b"".join(hashed)).hexdigest(),
        "outputs": [hashlib.sha256(h).hexdigest()[:12] for h in hashed],
    }


@functools.cache
def digests(corpus: str) -> tuple[list[list[str]], dict, dict]:
    """The argvs of one corpus and the committed records of their outputs
    and of their verdicts, from one run of each operation."""
    argvs = corpus_argvs(corpus)
    outputs, verdicts = zip(*(records(*_workloads().call_cli(main, argv)) for argv in argvs))
    return argvs, _record(argvs, outputs), _record(argvs, verdicts)


def _compare(golden: Path, corpus: str, argvs: list[list[str]], got: dict, what: str) -> None:
    want = json.loads(golden.read_text())[corpus]
    assert got["ops_sha256"] == want["ops_sha256"], f"op list changed: the generator draws other {corpus} operations"
    for i, (argv, g, w) in enumerate(zip(argvs, got["outputs"], want["outputs"])):
        assert g == w, f"{what} changed at {corpus} operation {i}: splitrank {' '.join(argv)}"
    assert got["outputs_sha256"] == want["outputs_sha256"]


@pytest.mark.parametrize("workload", CORPORA)
def test_outputs_are_unchanged(workload):
    argvs, outputs, _ = digests(workload)
    _compare(GOLDEN, workload, argvs, outputs, "output")


@pytest.mark.parametrize("workload", CORPORA)
def test_verdicts_are_unchanged(workload):
    argvs, _, verdicts = digests(workload)
    _compare(VERDICTS, workload, argvs, verdicts, "verdict")


# (README example, path into its report, new value): a changed verdict
_VERDICT_FIELDS = [
    (0, ["rank"], 4),
    (0, ["method"], "real_places"),
    (2, ["index"], 0),
    (2, ["method"], "explicit_witness"),
    (3, ["kind"], "trivial"),
    (4, ["verdict"], "not_excellent"),
]
# a changed witness coordinate, and a changed anisotropic coefficient
_ROUTE_FIELDS = [
    (0, ["certificate", "element", "c", 0, 7], "2"),
    (2, ["witness", 0, 2], "-1"),
    (2, ["anisotropic", 0], "4"),
    (3, ["provenance", "isotropic_vector", 0], "3"),
]


def test_verdict_digest_reads_verdicts_not_witnesses():
    outputs = [_workloads().call_cli(main, argv) for argv in census.README]

    def changed(example, rc, text):  # (byte digest changed, verdict digest changed)
        return tuple(a != b for a, b in zip(records(*outputs[example]), records(rc, text)))

    def tampered(example, path, value):
        rc, text = outputs[example]
        report = json.loads(text)
        assert json.dumps(report, indent=2) + "\n" == text  # so a rewrite changes the path only
        *inner, last = path
        functools.reduce(lambda node, key: node[key], inner, report)[last] = value
        return changed(example, rc, json.dumps(report, indent=2) + "\n")

    for example, (rc, text) in enumerate(outputs):
        assert rc == 0 and changed(example, 3, text) == (True, True)
    for example, path, value in _VERDICT_FIELDS:
        assert tampered(example, path, value) == (True, True), path
    for example, path, value in _ROUTE_FIELDS:
        assert tampered(example, path, value) == (True, False), path


if __name__ == "__main__":
    runs = {w: digests(w) for w in sorted(CORPORA)}
    GOLDEN.write_text(json.dumps({w: run[1] for w, run in runs.items()}, indent=1) + "\n")
    VERDICTS.write_text(json.dumps({w: run[2] for w, run in runs.items()}, indent=1) + "\n")
