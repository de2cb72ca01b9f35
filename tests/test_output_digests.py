"""The CLI's outputs, byte for byte, as one committed check.

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
sha256 over all outputs of a corpus in order.  A change of output
on purpose regenerates the file, and CHANGES.md says which operations
changed and why:

    PYTHONPATH=src python tests/test_output_digests.py
"""

import functools
import hashlib
import json
import random
from pathlib import Path

import pytest

import bench_modules
from splitrank.cli import main

GOLDEN = Path(__file__).parent / "golden" / "output_digests.json"
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


def digests(argvs: list[list[str]]) -> dict:
    """The committed record of one op list: see the module docstring."""
    total, outputs = hashlib.sha256(), []
    for argv in argvs:
        rc, text = _workloads().call_cli(main, argv)
        record = f"{rc}\n{text}".encode()
        total.update(record)
        outputs.append(hashlib.sha256(record).hexdigest()[:12])
    return {
        "ops_sha256": hashlib.sha256(json.dumps(argvs).encode()).hexdigest(),
        "outputs_sha256": total.hexdigest(),
        "outputs": outputs,
    }


@pytest.mark.parametrize("workload", CORPORA)
def test_outputs_are_unchanged(workload):
    want = json.loads(GOLDEN.read_text())[workload]
    argvs = corpus_argvs(workload)
    got = digests(argvs)
    assert got["ops_sha256"] == want["ops_sha256"], f"op list changed: the generator draws other {workload} operations"
    for i, (argv, g, w) in enumerate(zip(argvs, got["outputs"], want["outputs"])):
        assert g == w, f"output changed at {workload} operation {i}: splitrank {' '.join(argv)}"
    assert got["outputs_sha256"] == want["outputs_sha256"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({w: digests(corpus_argvs(w)) for w in sorted(CORPORA)}, indent=1) + "\n")
