"""The benchmark's naming contract.

`bench/tracer.py` wraps library functions by name, and a traced run emits
one metric per wrapped name; `BENCHMARK.json` lists the names a traced run
must emit (`per_layer`).  A target that is removed or renamed in `src/` is
skipped by the tracer and its metrics silently disappear, while the result
line stays valid JSON.  These tests catch that in tier-1: every target must
resolve, and the names the bench's own code derives must equal `per_layer`.
"""

import ast
import importlib
import json
import re
import sys
from pathlib import Path

import bench_modules

# what bench/run.py's set_up imports, and so the layers a traced run sees
import splitrank
import splitrank.cli  # noqa: F401
import splitrank.verify  # noqa: F401

ROOT = Path(__file__).resolve().parents[1]


def test_set_up_imports_every_traced_layer():
    missing = [layer for layer in bench_modules.load("tracer").TARGETS if f"splitrank.{layer}" not in sys.modules]
    assert missing == []


def test_every_target_resolves():
    for layer, names in bench_modules.load("tracer").TARGETS.items():
        module = importlib.import_module(f"splitrank.{layer}")
        for dotted in names:
            owner = module
            for part in dotted.split("."):
                owner = getattr(owner, part, None)
            assert callable(owner), f"splitrank.{layer}.{dotted} is not a callable"


def test_every_package_name_the_workloads_read_resolves():
    # bench/workloads.py calls the package as `sr`, the splitrank that
    # bench/run.py imports: each sr.<name> it reads must be on the top level
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "sr"}
    assert names, "bench/workloads.py reads no sr.<name>"
    assert sorted(n for n in names if not hasattr(splitrank, n)) == []


def test_traced_metric_names_are_per_layer():
    tracer = bench_modules.load("tracer")
    names = set()
    spans = tracer.Tracer()
    for probe in (spans, tracer.FieldOpCounter()):
        probe.install()
        try:
            names.update(probe.metrics(1))
        finally:
            probe.uninstall()
    assert spans.absent == []
    # the pass comparison that run.trace_run adds to the result line
    trace_names = re.findall(r'metrics\["(trace\.[^"]+)"\]', (ROOT / "bench" / "run.py").read_text())
    assert len(trace_names) == 3, trace_names
    names.update(trace_names)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(names) == sorted(m["name"] for m in spec["per_layer"])
