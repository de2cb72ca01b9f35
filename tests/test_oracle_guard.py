"""Production enters no oracle.

`classify`, `kernel`, `excellence` and `witt` decide and certify with
closed forms and the constructive isotropy route.  The Jordan product, the
E0/Q0 and trace-form checks, the conjugations, the rebuilds over an
extension, linalg's elimination, bounded search and the brute-force
equivalence stay as oracles of `splitrank verify` and the tests.
tests/golden/unentered.json names each of them, and the census of
tests/census.py runs the five README examples and the frozen corpora
through cli.main under sys.setprofile, once, in a fresh interpreter.
These tests read that one run: no function that the list calls an oracle
or a part of `verify` is entered by the README examples or the `commands`
corpus, no command builds a FieldElement, and the front end has one route
too: cli.read_argv reads the argv and cli._encode writes the report, so
no command enters argparse or json's pure-Python indenting encoder, and
importing splitrank.cli loads neither argparse nor an oracle module.
"""

import pytest

import census


@pytest.fixture(scope="module")
def run():
    return census.fresh_run()


def _oracles() -> set:
    return {name for name, entry in census.listed().items() if entry in ("oracle", "verify")}


@pytest.mark.parametrize("corpus", ["readme", "commands"])
def test_production_enters_no_oracle(corpus, run):
    record = run["corpora"][corpus]
    hits = sorted(_oracles() & set(record["entered"]))
    assert not hits, f"production entered oracles: {hits}"
    assert record["calls"]["cli.main"] == record["operations"]


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


# FieldElements built per operation of the three digest corpora: none since
# every command keeps its scalars packed from the input literal to the
# report, against 16.5 (witt_panel), 16.6 (f4_certify) and 13.1 (commands)
# when each literal and each witness coordinate became a FieldElement that
# was packed again or printed with str().  No element built means no
# FieldElement arithmetic either (32.4 products and inverses per f4_certify
# operation when the forms were FieldElement products).
@pytest.mark.parametrize("corpus", ["witt_panel", "f4_certify", "commands"])
def test_commands_keep_their_scalars_packed(corpus, run):
    record = run["corpora"][corpus]
    built = record["calls"].get("fields.FieldElement.__init__", 0)
    assert built == 0, f"{built} FieldElements built in {record['operations']} {corpus} operations"
    assert census.listed()["fields.FieldElement.__init__"] == "oracle"
