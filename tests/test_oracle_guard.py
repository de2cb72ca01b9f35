"""Production enters no oracle.

`classify`, `kernel`, `excellence` and `witt` decide and certify with
closed forms and the constructive isotropy route.  The Jordan product, the
E0/Q0 and trace-form checks, the conjugations, the rebuilds over an
extension, linalg's elimination, bounded search and the brute-force
equivalence stay as oracles of `splitrank verify` and the tests.
tests/golden/unentered.json names each of them, and
tests/test_census.py fails when any corpus of its one run enters a listed
function (`fields.FieldElement.__init__` is listed as an oracle, so no
command builds a FieldElement) or when an argv does not reach cli.main.
These tests read the same run for what the census cannot see: the front
end has one route, as cli.read_argv reads the argv and cli._encode writes
the report, so no command enters argparse or json's pure-Python indenting
encoder; importing splitrank.cli loads neither argparse nor an oracle
module; and a rank-1 classify decides no more forms than it prints.
"""

import pytest

import census


@pytest.fixture(scope="module")
def run():
    return census.fresh_run()


@pytest.mark.parametrize("corpus", ["readme", "commands"])
def test_front_end_enters_no_second_route(corpus, run):
    hits = run["corpora"][corpus]["front_end"]
    assert not hits, f"the front end entered: {hits}"


def test_cli_imports_no_argparse(run):
    assert "argparse" not in run["imported_by_cli"]


def test_cli_imports_no_oracle_module(run):
    # `splitrank verify` imports verify, and so linalg, when it runs
    assert [m for m in run["imported_by_cli"] if m in ("splitrank.linalg", "splitrank.verify")] == []


def test_rank1_classify_decides_two_forms(run):
    # the norm, then the first slot form, which is isotropic: the later slot
    # forms are not decided, because a rank-1 report prints none of them
    assert run["corpora"]["rank1_classify"]["calls"]["qforms.is_isotropic"] == 2
