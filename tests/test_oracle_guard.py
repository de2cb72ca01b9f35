"""Production enters no oracle.

`classify`, `kernel`, `excellence` and `witt` decide and certify with
closed forms and the constructive isotropy route.  The Jordan product, the
E0/Q0 and trace-form checks, the conjugations, the rebuilds over an
extension, linalg's elimination, bounded search and the brute-force
equivalence stay as oracles of `splitrank verify` and the tests.  This test
runs the five README examples and the `commands` output corpus through
cli.main under sys.setprofile and fails if any of those is entered.  The
front end has one route too: cli.read_argv reads the argv and cli._encode
writes the report, so no command enters argparse or json's pure-Python
indenting encoder.
"""

import argparse
import collections
import contextlib
import io
import json
import json.encoder
import os
import subprocess
import sys
from pathlib import Path

import pytest

from splitrank import albert, cli, composition, fields, groups, linalg, qforms, verify
from test_output_digests import command_argvs, corpus_argvs

F4_RANK1 = json.dumps({"f4": {"octonion": {"field": {"kind": "Q"}, "params": ["-1", "-1", "-1"]}, "gamma": ["1", "-1", "1"]}})
README = [
    ["classify", "--json", F4_RANK1],
    ["classify", "--json", '{"g2":{"field":{"kind":"Q"},"params":["-1","-1","-1"]}}'],
    ["witt", "--json", '{"field":{"kind":"Q"},"coeffs":["1","-1","1"]}'],
    ["kernel", "--json", F4_RANK1],
    ["excellence", "--ext", '{"kind":"QSqrt","d":-1}', "--json", F4_RANK1],
]

ORACLES = [
    albert.jordan_mul,
    albert.matrix_mul,
    albert._jordan_from_matrices,
    albert.e0_subspace,
    albert.q0_data,
    albert.q0_form,
    albert._checked_gram,
    albert.quadratic_trace_form,
    albert.phi,
    albert.conjugation_between,
    albert.base_change_albert,
    composition.CompElement.__mul__,
    composition.base_change_comp,
    groups.normalize_gamma,
    qforms.diagonalize,
    qforms.equivalent,
    qforms.equivalent_with_witness,
    qforms.isotropic_vector_search,
    qforms.witt_index_by_invariants,
]
ORACLE_FILES = {linalg.__file__, verify.__file__}  # every function of these modules


def entered(argvs) -> collections.Counter:
    """How often each code object is entered while cli.main runs the argvs."""
    counts = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            counts[frame.f_code] += 1

    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            for argv in argvs:
                cli.main(argv)
        finally:
            sys.setprofile(None)
    return counts


def _name(code) -> str:
    return f"{Path(code.co_filename).name}:{getattr(code, 'co_qualname', code.co_name)}"  # co_qualname: Python 3.11+


@pytest.mark.parametrize("corpus", ["readme", "commands"])
def test_production_enters_no_oracle(corpus):
    argvs = README if corpus == "readme" else command_argvs()
    counts = entered(argvs)
    oracles = {f.__code__ for f in ORACLES}
    hits = sorted(_name(code) for code in counts if code in oracles or code.co_filename in ORACLE_FILES)
    assert not hits, f"production entered oracles: {hits}"
    assert counts[cli.main.__code__] == len(argvs)


@pytest.mark.parametrize("corpus", ["readme", "commands"])
def test_front_end_enters_no_second_route(corpus):
    counts = entered(README if corpus == "readme" else command_argvs())
    hits = sorted(
        _name(code) for code in counts
        if code.co_filename == argparse.__file__ or code is json.encoder._make_iterencode.__code__
    )
    assert not hits, f"the front end entered: {hits}"


def _loaded_by_importing_cli(*names) -> list[str]:
    """Which of the named modules `import splitrank.cli` loads, in a fresh
    interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import sys, splitrank.cli; print(*[m for m in {names!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    return proc.stdout.split()


def test_cli_imports_no_argparse():
    assert _loaded_by_importing_cli("argparse") == []


def test_cli_imports_no_oracle_module():
    # `splitrank verify` imports verify, and so linalg, when it runs
    assert _loaded_by_importing_cli("splitrank.linalg", "splitrank.verify") == []


def test_rank1_classify_decides_two_forms():
    # the norm, then the first slot form, which is isotropic: the later slot
    # forms are not decided, because a rank-1 report prints none of them
    assert entered([README[0]])[qforms.is_isotropic.__code__] == 2


# FieldElements built per operation of the three digest corpora: none since
# every command keeps its scalars packed from the input literal to the
# report, against 16.5 (witt_panel), 16.6 (f4_certify) and 13.1 (commands)
# when each literal and each witness coordinate became a FieldElement that
# was packed again or printed with str().  No element built means no
# FieldElement arithmetic either (32.4 products and inverses per f4_certify
# operation when the forms were FieldElement products).
@pytest.mark.parametrize("corpus", ["witt_panel", "f4_certify", "commands"])
def test_commands_keep_their_scalars_packed(corpus):
    argvs = corpus_argvs(corpus)
    built = entered(argvs)[fields.FieldElement.__init__.__code__]
    assert built == 0, f"{built} FieldElements built in {len(argvs)} {corpus} operations"
