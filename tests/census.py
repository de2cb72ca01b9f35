"""The census of what the commands run.

One fresh interpreter imports splitrank.cli, then runs through cli.main the
README examples, the three frozen corpora of test_output_digests, ROUTES
(each F4 and G2 command shape) and ERRORS (invalid argvs), with
sys.setprofile installed around each cli.main call only and the factor
caches cleared before each operation.
Each entered code object of src/splitrank maps to the function it belongs
to: a function spans from its first decorator to its last line, and
nested functions, lambdas and comprehensions count inside their parent.

tests/golden/unentered.json names every function that the census never
enters, each with one category:
- "verify": the `verify` command, cli._cmd_verify and verify.py;
- "bench target": named by the benchmark (bench/tracer.py's TARGETS and
  FieldOpCounter.METHODS, an `sr.<name>` of bench/workloads.py), or
  called only from such a function, and not entered by
  `splitrank verify --seed 1729`: tests may read it as a second route,
  but only the benchmark's names keep it in src/;
- "error path: <test node id>": production code that only that test
  reaches, such as a work budget that no argv here exhausts;
- "oracle": the rest, what `splitrank verify` and the tests check
  production with: a second route, the methods its types need (equality,
  hashing, repr, the immutability guards), and the cache reset that runs
  each operation cold.
tests/test_census.py fails when a function is neither entered nor listed,
when a listed function is entered, or when an entry is malformed.  The
list may only shrink.

    PYTHONPATH=src python tests/census.py            # the run, as one JSON line
    python tests/census.py --summary                 # the list's lines per module and category
"""

from __future__ import annotations

import ast
import bisect
import collections
import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "splitrank"
GOLDEN = ROOT / "tests" / "golden" / "unentered.json"
CATEGORIES = ("oracle", "verify", "bench target")
ERROR_PATH = "error path: "

F4_RANK1 = json.dumps({"f4": {"octonion": {"field": {"kind": "Q"}, "params": ["-1", "-1", "-1"]}, "gamma": ["1", "-1", "1"]}})
G2_GRAVES = json.dumps({"g2": {"field": {"kind": "Q"}, "params": ["-1", "-1", "-1"]}})
README = [
    ["classify", "--json", F4_RANK1],
    ["classify", "--json", '{"g2":{"field":{"kind":"Q"},"params":["-1","-1","-1"]}}'],
    ["witt", "--json", '{"field":{"kind":"Q"},"coeffs":["1","-1","1"]}'],
    ["kernel", "--json", F4_RANK1],
    ["excellence", "--ext", '{"kind":"QSqrt","d":-1}', "--json", F4_RANK1],
]


def _f4(field, params, gamma):
    return json.dumps({"f4": {"octonion": {"field": field, "params": params}, "gamma": gamma}})


# Each F4 and G2 command shape at each rank, (command, group, base field,
# extension, ranks) as tests/test_census.py names them: F4 classify at
# ranks 0, 4, 4 and 1, F4 kernel and excellence over Q(sqrt 2) and
# Q(sqrt -7) at ranks 0, 1 and 4, G2 classify at ranks 0 and 2, and G2
# excellence of the Graves octonions over Q(sqrt 2) and Q(sqrt -7).
_CLASSIFY = [
    _f4({"kind": "Q"}, [-1, -1, -1], [1, 1, 1]),
    _f4({"kind": "Fp", "p": 10007}, [-1, -3, -5], [1, -1, 1]),
    _f4({"kind": "QSqrt", "d": -7}, [-1, -3, -5], [1, -1, 1]),
    _f4({"kind": "Q"}, [-1, -3, -5], [1, -1, 1]),
]
_EXTENSIONS = ('{"kind":"QSqrt","d":2}', '{"kind":"QSqrt","d":-7}')
ROUTES = [["classify", "--json", text] for text in _CLASSIFY] + [
    argv + ["--json", text]
    for text in (_CLASSIFY[0], _CLASSIFY[3], _f4({"kind": "Q"}, [1, -1, -1], [1, 1, 1]))
    for argv in [["kernel"]] + [["excellence", "--ext", ext] for ext in _EXTENSIONS]
] + [
    ["classify", "--json", G2_GRAVES],
    ["classify", "--json", json.dumps({"g2": {"field": {"kind": "Q"}, "params": [1, -1, -1]}})],
] + [["excellence", "--ext", ext, "--json", G2_GRAVES] for ext in _EXTENSIONS]


def _witt(field, *coeffs):
    return ["witt", "--json", json.dumps({"field": field, "coeffs": list(coeffs)})]


_Q, _FP7, _QSQRT2 = {"kind": "Q"}, {"kind": "Fp", "p": 7}, {"kind": "QSqrt", "d": 2}
# The invalid inputs of tests/test_cli.py: argvs that exit 2 (argv errors
# by SystemExit, descriptors and literals by an error report), exit 3, and
# print the usage.
ERRORS = [
    [], ["--help"], ["witt", "--help"], ["nope"], ["classify"], ["witt", "--json"],
    ["classify", "--bogus", "1", "--json", G2_GRAVES], ["witt", "--seed", "1", "--json", F4_RANK1],
    ["verify", "--seed", "x"], ["excellence", "--json", G2_GRAVES],
    ["classify", "--json", "{not json"],
    ["classify", "--json", "[1]"],
    ["classify", "--json", '{"field":{"kind":"Q"},"coeffs":["1"]}'],
    ["classify", "--in", "no-such-dir/x.json"],
    ["classify", "--json", G2_GRAVES, "--out", "no-such-dir/x.json"],
    ["classify", "--json", json.dumps({"g2": {"field": {"kind": "Fp", "p": 3}, "params": ["1", "1", "1"]}})],
    ["classify", "--json", '{"g2":{"field":{"kind":"Q"},"params":"111"}}'],
    ["kernel", "--json", G2_GRAVES],
    ["kernel", "--json", '{"f4":{"octonion":{"field":{"kind":"Q"},"params":[-1,-1,-1]},"gamma":"1-11"}}'],
    ["excellence", "--ext", '{"kind":"QSqrt","d":"2.0"}', "--json", G2_GRAVES],
    ["excellence", "--json", G2_GRAVES, "--ext", "{kind: Q}"],
    ["excellence", "--ext", '{"kind":"Fp","p":7}', "--json", F4_RANK1],
    ["witt", "--json", '{"field":{"kind":"Q"},"coeffs":"123"}'],
    ["witt", "--json", '{"field":{"kind":"Fp","p":7},"coeffs":[2.5,1,1]}'],
    ["witt", "--json", '{"field":{"kind":"Fp","p":"abc"},"coeffs":[1,1,1]}'],
    ["witt", "--json", '{"field":{"kind":"Fp","p":true},"coeffs":[1,1,1]}'],
    ["witt", "--json", '{"field":{"kind":"Fp","p":"%s"},"coeffs":[1,1,1]}' % ("1" * 5000)],
    ["witt", "--json", '{"field":{"kind":"QSqrt","d":[2]},"coeffs":[1,1,1]}'],
    ["witt", "--json", '{"field":{"kind":"Q"},"coeffs":[1,null,1]}'],
    ["witt", "--json", '{"field":{"kind":"Q"},"coeffs":[1,NaN,1]}'],
    ["witt", "--json", '{"field":{"kind":"Q"},"coeffs":[1,{},1]}'],
    ["witt", "--json", '{"field":{"kind":"Q"},"coeffs":[1,true,1]}'],
    ["witt", "--json", '{"field":{"kind":"Q"},"coeffs":[1,1,%s]}' % ("1" + "0" * 4999)],
    ["witt", "--json", '{"field":{"kind":"QSqrt","d":2},"coeffs":[1,1,"%s*r"]}' % ("1" * 5000)],
    ["witt", "--json", json.dumps({"field": {"kind": "Q"}, "coefs": [str(i) for i in range(20000)]})],
    ["witt", "--json", json.dumps({"field": {"kind": "Q" * 20000}, "coeffs": [1, -1]})],
    *(_witt(field, "1", "1", literal) for field in (_FP7, _Q, _QSQRT2) for literal in ("9" * 4301, "2x")),
    _witt(_QSQRT2, "1", "1", "1", "1"),
    _witt(_Q, "1", "1", "-318665857834031151167461"),
]


class Function(NamedTuple):
    """A function of src/splitrank: its module-qualified name, its file, and
    its lines from its first decorator (start) through its `def` line
    (head) to its end."""

    name: str
    file: str
    start: int
    head: int
    end: int

    @property
    def lines(self) -> int:
        return self.end - self.start + 1


def functions_of(path, module: str) -> list[Function]:
    """Every function of the file, methods of classes at any depth included;
    a function nested in a function belongs to its parent and is not listed."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                start = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found.append(Function(prefix + child.name, str(path), start, child.lineno, child.end_lineno))
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(Path(path).read_text(), str(path)), module + ".")
    return found


@functools.cache
def functions() -> dict[str, Function]:
    """Every function of the package by name."""
    return {f.name: f for path in sorted(SRC.glob("*.py")) for f in functions_of(path, path.stem)}


class Index:
    """Maps a code object to (function name, whether it is the function's
    own code) by its file and first line, which for a function's own code
    lies between its first decorator and its `def` line (Python 3.8+ gives
    the first decorator's line), and for nested code inside its body."""

    def __init__(self, funcs):
        self._files = collections.defaultdict(list)
        for f in sorted(funcs, key=lambda f: f.start):
            self._files[f.file].append(f)
        self._starts = {file: [f.start for f in fs] for file, fs in self._files.items()}

    def lookup(self, code):
        fs = self._files.get(code.co_filename)
        if fs is None:
            return None
        line = code.co_firstlineno
        i = bisect.bisect_right(self._starts[code.co_filename], line) - 1
        if i < 0 or line > fs[i].end:
            return None  # module or class-body code
        return fs[i].name, line <= fs[i].head


def profiled(argvs, main):
    """Code object -> calls while main runs each argv (stdout and stderr
    captured, SystemExit caught), with the factor caches cleared before
    each; and the exit code and stdout of each argv."""
    from splitrank.fields import clear_factor_caches

    counts, results, entered = collections.Counter(), [], []
    record = entered.append  # counted once per argv: a Counter update per call doubles the run

    def profile(frame, event, arg):
        if event == "call":
            record(frame.f_code)

    for argv in argvs:
        out = io.StringIO()
        clear_factor_caches()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(profile)
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            finally:
                sys.setprofile(None)
        counts.update(entered)
        entered.clear()
        results.append((rc, out.getvalue()))
    return counts, results


def shape(argv, rc, text):
    """(command, group, base field, extension, ranks) of a successful
    classify, kernel or excellence run; None for any other."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    if rc != 0 or argv[0] not in ("classify", "kernel", "excellence") or "--json" not in opts:
        return None
    desc = json.loads(opts["--json"])
    group = "f4" if "f4" in desc else "g2"
    base = desc[group]["octonion"]["field"] if group == "f4" else desc[group]["field"]
    ext = json.loads(opts["--ext"]) if "--ext" in opts else None
    report = json.loads(text)
    if "verdict" in report:
        ranks = [report["rank_base"]["rank"], report["rank_ext"]["rank"]]
    else:
        ranks = [report["rank"] if "rank" in report else report["provenance"]["rank"]]
    return [argv[0], group, _field_name(base), ext and _field_name(ext), ranks]


def _field_name(desc) -> str:
    return {"Q": "Q", "Fp": f"F{desc.get('p')}", "QSqrt": f"Q(sqrt {desc.get('d')})"}[desc["kind"]]


def run() -> dict:
    """The census, in this interpreter, which must be fresh: a functools
    cache left by earlier work would hide the calls behind it."""
    import splitrank.cli

    loaded = [m for m in ("argparse", "splitrank.linalg", "splitrank.verify") if m in sys.modules]
    from test_output_digests import CORPORA, corpus_argvs

    index = Index(functions().values())
    iterencode = json.encoder._make_iterencode.__code__
    corpora = {"rank1_classify": README[:1], "readme": README, **{c: corpus_argvs(c) for c in CORPORA},
               "routes": ROUTES, "errors": ERRORS}
    out = {"imported_by_cli": loaded, "corpora": {}}
    for corpus, argvs in corpora.items():
        counts, results = profiled(argvs, splitrank.cli.main)
        calls, entered, front_end = collections.Counter(), set(), set()
        for code, n in counts.items():
            hit = index.lookup(code)
            if hit is not None:
                entered.add(hit[0])
                if hit[1]:
                    calls[hit[0]] += n
            elif Path(code.co_filename).name == "argparse.py" or code is iterencode:
                front_end.add(f"{Path(code.co_filename).name}:{code.co_name}")
        shapes = {json.dumps(s) for s in map(shape, argvs, *zip(*results)) if s is not None}
        out["corpora"][corpus] = {
            "operations": len(argvs),
            "calls": dict(sorted(calls.items())),
            "entered": sorted(entered),
            "front_end": sorted(front_end),
            "shapes": sorted(shapes),
            "exits": dict(collections.Counter(str(rc) for rc, _ in results)),
        }
    return out


@functools.cache
def fresh_run() -> dict:
    """run() in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True, env=env, cwd=ROOT, timeout=600)
    if proc.returncode:
        raise RuntimeError(f"the census run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def listed() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def category(entry: str) -> str:
    return "error path" if entry.startswith(ERROR_PATH) else entry


def node_exists(node_id: str) -> bool:
    """Whether the test file of node_id defines its class and function
    (a parametrization in brackets is not checked)."""
    path, _, names = node_id.partition("::")
    file = ROOT / path
    if not names or not file.is_file():
        return False
    scope = ast.parse(file.read_text())
    for name in names.split("[")[0].split("::"):
        scope = next((n for n in scope.body if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name), None)
        if scope is None:
            return False
    return True


def problems(names, entered, listing, node_exists=node_exists) -> list[str]:
    """What is wrong with the list, given every function name of the package
    and the names that the census entered: one line per fault."""
    faults = []
    for name in sorted(set(names) - set(entered) - set(listing)):
        faults.append(f"{name}: never entered and not listed")
    for name, entry in sorted(listing.items()):
        if name not in names:
            faults.append(f"{name}: listed, but no such function")
        elif name in entered:
            faults.append(f"{name}: listed, but entered")
        if not isinstance(entry, str) or not (entry in CATEGORIES or entry.startswith(ERROR_PATH)):
            faults.append(f"{name}: {entry!r} is not one category")
        elif entry.startswith(ERROR_PATH) and not node_exists(entry[len(ERROR_PATH):]):
            faults.append(f"{name}: no test {entry[len(ERROR_PATH):]}")
    return faults


def summary(listing, funcs) -> str:
    """The list's lines per module and per category, as markdown tables."""
    modules, categories = collections.Counter(), collections.Counter()
    for name, entry in listing.items():
        modules[name.split(".")[0]] += funcs[name].lines
        categories[category(entry)] += funcs[name].lines
    totals = collections.Counter()
    for f in funcs.values():
        totals[f.name.split(".")[0]] += f.lines
    rows = ["| module | lines never entered | of |", "|---|---|---|"]
    rows += [f"| `{m}.py` | {modules[m]:,} | {totals[m]:,} |" for m in sorted(totals)]
    rows += [f"| all | {sum(modules.values()):,} | {sum(totals.values()):,} |", "",
             "| category | functions | lines |", "|---|---|---|"]
    counts = collections.Counter(category(e) for e in listing.values())
    rows += [f"| {c} | {counts[c]} | {categories[c]:,} |" for c in sorted(categories)]
    return "\n".join(rows)


if __name__ == "__main__":
    if sys.argv[1:] == ["--summary"]:
        print(summary(listed(), functions()))
    else:
        print(json.dumps(run()))
