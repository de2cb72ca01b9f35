"""The census as a ratchet: every function of src/splitrank is entered by
a command, or tests/golden/unentered.json names the one reason it stays
(see tests/census.py).  Run in one fresh interpreter, it also reports what
the oracle guard of tests/test_oracle_guard.py reads.

The list may only shrink: a function that no command enters and that no
oracle, `verify`, benchmark or error-path test needs is deleted, not listed.
"""

import importlib.util
import json
import textwrap

import pytest

import census

# The F4 and G2 command shapes, (command, group, base field, extension,
# ranks), that build no template and compile no table: the census runs
# each, and unentered.json lists the templates, the evaluator generator
# and monomial_table as oracles.
SHAPES = [
    ["classify", "f4", "Q", None, [0]],
    ["classify", "f4", "F10007", None, [4]],
    ["classify", "f4", "Q(sqrt -7)", None, [4]],
    ["classify", "f4", "Q", None, [1]],
    ["kernel", "f4", "Q", None, [0]],
    ["excellence", "f4", "Q", "Q(sqrt 2)", [0, 0]],
    ["excellence", "f4", "Q", "Q(sqrt -7)", [0, 4]],
    ["kernel", "f4", "Q", None, [1]],
    ["excellence", "f4", "Q", "Q(sqrt 2)", [1, 1]],
    ["excellence", "f4", "Q", "Q(sqrt -7)", [1, 4]],
    ["kernel", "f4", "Q", None, [4]],
    ["excellence", "f4", "Q", "Q(sqrt 2)", [4, 4]],
    ["excellence", "f4", "Q", "Q(sqrt -7)", [4, 4]],
    ["classify", "g2", "Q", None, [0]],
    ["classify", "g2", "Q", None, [2]],
    ["excellence", "g2", "Q", "Q(sqrt 2)", [0, 0]],
    ["excellence", "g2", "Q", "Q(sqrt -7)", [0, 2]],
]
TEMPLATES = ["composition._doubling_template", "albert._jordan_template", "albert._matrix_template",
             "albert._conjugation_template", "fields._evaluator", "fields._Kernel.monomial_table"]


@pytest.fixture(scope="module")
def run():
    return census.fresh_run()


def _entered(run) -> set:
    return set().union(*(c["entered"] for c in run["corpora"].values()))


def test_every_function_is_entered_or_listed(run):
    faults = census.problems(census.functions(), _entered(run), census.listed())
    assert faults == [], "\n".join(faults)


def test_every_argv_reaches_main(run):
    for corpus, record in run["corpora"].items():
        assert record["calls"]["cli.main"] == record["operations"], corpus


def test_the_census_runs_every_command_shape(run):
    seen = set().union(*(record["shapes"] for record in run["corpora"].values()))  # as json.dumps writes them
    assert len({json.dumps(s) for s in SHAPES}) == 17
    assert [s for s in SHAPES if json.dumps(s) not in seen] == []
    assert [census.listed()[name] for name in TEMPLATES] == ["oracle"] * len(TEMPLATES)


def test_error_paths_are_entered_not_listed(run):
    """--help, argv errors, bad literals and exit-3 inputs run in the census,
    so the front end's error paths need no entry."""
    assert set(run["corpora"]["errors"]["exits"]) == {"0", "2", "3"}
    errors = set(run["corpora"]["errors"]["entered"])
    assert {"cli._fail", "cli._help", "cli._error", "fields._shown"} <= errors
    assert not {"cli._fail", "cli._help", "cli._error", "fields._shown"} & set(census.listed())


# the comparison, on a synthetic module and list

SYNTHETIC = '''
import functools


class Box:
    @functools.cached_property
    def size(self):
        return sum(x for x in range(3))

    @staticmethod
    def make(n):
        def inner(k):
            return k + 1

        return inner(n)

    def unused(self):
        return None


def apply(values):
    return list(map(lambda v: v * 2, values))


square = lambda v: v * v
'''


@pytest.fixture
def synthetic(tmp_path):
    path = tmp_path / "synth.py"
    path.write_text(textwrap.dedent(SYNTHETIC))
    spec = importlib.util.spec_from_file_location("synth", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, census.functions_of(path, "synth")


def _calls(module, funcs, work):
    index = census.Index(funcs)
    counts, _ = census.profiled([[]], lambda argv: work(module))
    hits = {}
    for code, n in counts.items():
        hit = index.lookup(code)
        if hit is not None:
            name, own = hit
            hits[name] = hits.get(name, 0) + (n if own else 0)
    return hits


def test_functions_span_from_the_first_decorator(synthetic):
    _, funcs = synthetic
    spans = {f.name: (f.start, f.head, f.lines) for f in funcs}
    assert sorted(spans) == ["synth.Box.make", "synth.Box.size", "synth.Box.unused", "synth.apply"]
    assert spans["synth.Box.size"][1] == spans["synth.Box.size"][0] + 1
    assert spans["synth.Box.make"][2] == 6  # the nested function counts inside its parent


def test_code_objects_map_to_their_function(synthetic):
    module, funcs = synthetic

    def work(m):
        box = m.Box()
        assert box.size == box.size == 3  # a cached_property, computed once
        assert m.Box.make(1) == 2  # a staticmethod and its nested function
        assert m.apply([1, 2]) == [2, 4]  # a lambda in a function
        assert m.square(3) == 9  # a lambda of the module: no function's

    calls = _calls(module, funcs, work)
    assert calls == {"synth.Box.size": 1, "synth.Box.make": 1, "synth.apply": 1}


def test_nested_code_alone_enters_its_parent(synthetic):
    module, funcs = synthetic
    inner = module.Box.make.__code__.co_consts
    assert any(getattr(c, "co_name", None) == "inner" for c in inner)
    index = census.Index(funcs)
    code = next(c for c in inner if getattr(c, "co_name", None) == "inner")
    assert index.lookup(code) == ("synth.Box.make", False)
    assert index.lookup(module.Box.make.__code__) == ("synth.Box.make", True)
    assert index.lookup(module.square.__code__) is None


NAMES = {"m.entered": None, "m.listed": None, "m.error": None}


def _exists(node_id):
    return node_id == "tests/test_x.py::test_budget"


def test_a_complete_list_passes():
    listing = {"m.listed": "oracle", "m.error": "error path: tests/test_x.py::test_budget"}
    assert census.problems(NAMES, {"m.entered"}, listing, _exists) == []


def test_an_unlisted_function_fails():
    faults = census.problems(NAMES, {"m.entered"}, {"m.listed": "oracle"}, _exists)
    assert faults == ["m.error: never entered and not listed"]


def test_an_entered_listed_function_fails():
    listing = {"m.entered": "verify", "m.listed": "oracle", "m.error": "bench target"}
    faults = census.problems(NAMES, {"m.entered"}, listing, _exists)
    assert faults == ["m.entered: listed, but entered"]


@pytest.mark.parametrize(
    "entry,fault",
    [
        ("dead", "m.error: 'dead' is not one category"),
        (["oracle", "verify"], "m.error: ['oracle', 'verify'] is not one category"),
        ("error path", "m.error: 'error path' is not one category"),
        ("error path: tests/test_x.py::test_gone", "m.error: no test tests/test_x.py::test_gone"),
    ],
)
def test_a_malformed_entry_fails(entry, fault):
    listing = {"m.listed": "oracle", "m.error": entry, "m.gone": "oracle"}
    faults = census.problems(NAMES, {"m.entered"}, listing, _exists)
    assert faults == [fault, "m.gone: listed, but no such function"]


def test_node_ids_are_read_from_the_test_files():
    assert census.node_exists("tests/test_census.py::test_node_ids_are_read_from_the_test_files")
    assert census.node_exists("tests/test_census.py::test_a_malformed_entry_fails[dead-m.error]")
    assert not census.node_exists("tests/test_census.py::test_no_such_test")
    assert not census.node_exists("tests/no_such_file.py::test_x")
