"""The benchmark's modules, loaded read-only from their files by the tests.

bench/ is not a package and is not on the import path, so a test that
checks against bench/checker.py or bench/tracer.py loads it by path here.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name: str):
    """bench/<name>.py as a fresh module named bench_<name>."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
