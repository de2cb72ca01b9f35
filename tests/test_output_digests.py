"""The benchmark's CLI outputs, byte for byte, as one committed check.

tests/golden/output_digests.json holds one short sha256 of the exit code
and stdout of each operation of a frozen corpus: the first 6 blocks of
`witt_panel` for seeds 1-4 and the first 4 blocks of `f4_certify` for seeds
1-3, drawn by the block generators of bench/workloads.py as a bench run
draws them.  It also holds one sha256 of each op list, so that a change in
the bench's generators reads "op list changed" and not "output changed",
and one sha256 over all outputs of a workload in order.  A change of output
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
CORPUS = {"witt_panel": ("witt_blocks", (1, 2, 3, 4), 6), "f4_certify": ("f4_blocks", (1, 2, 3), 4)}


@functools.cache
def _workloads():
    return bench_modules.load("workloads")


def corpus_argvs(workload: str) -> list[list[str]]:
    """The argv of every operation of the workload's frozen corpus, in order."""
    workloads = _workloads()
    blocks, seeds, count = CORPUS[workload]
    argvs = []
    for seed in seeds:
        gen = getattr(workloads, blocks)(random.Random(f"{seed}:{workload}"))
        argvs += [workloads.cli_argv(op) for _ in range(count) for op in next(gen)]
    return argvs


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


@pytest.mark.parametrize("workload", sorted(CORPUS))
def test_outputs_are_unchanged(workload):
    want = json.loads(GOLDEN.read_text())[workload]
    argvs = corpus_argvs(workload)
    got = digests(argvs)
    assert got["ops_sha256"] == want["ops_sha256"], f"op list changed: bench/workloads.py draws other {workload} operations"
    for i, (argv, g, w) in enumerate(zip(argvs, got["outputs"], want["outputs"])):
        assert g == w, f"output changed at {workload} operation {i}: splitrank {' '.join(argv)}"
    assert got["outputs_sha256"] == want["outputs_sha256"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({w: digests(corpus_argvs(w)) for w in sorted(CORPUS)}, indent=1) + "\n")
