"""The benchmark's naming contract.

`bench/tracer.py` wraps library functions by name, and a traced run emits
one metric per wrapped name; `BENCHMARK.json` lists the names a traced run
must emit (`per_layer`).  A target that is removed or renamed in `src/` is
skipped by the tracer and its metrics silently disappear, while the result
line stays valid JSON.  These tests catch that in tier-1: every target must
resolve, and the names the bench's own code derives must equal `per_layer`.
"""

import importlib
import json
import re
from pathlib import Path

import bench_modules

import splitrank.cli  # noqa: F401  (imports every traced layer)

ROOT = Path(__file__).resolve().parents[1]


def test_every_target_resolves():
    for layer, names in bench_modules.load("tracer").TARGETS.items():
        module = importlib.import_module(f"splitrank.{layer}")
        for dotted in names:
            owner = module
            for part in dotted.split("."):
                owner = getattr(owner, part, None)
            assert callable(owner), f"splitrank.{layer}.{dotted} is not a callable"


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
