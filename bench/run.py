"""splitrank benchmark: certified verdicts per second, latency, certified
share, set-up time and peak memory on seeded workloads.

    python3 bench/run.py --workload witt_panel --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a splitrank checkout; splitrank is imported from its
`src/`.  One client, one thread, closed loop: the next operation starts
when the previous one returns.  A run makes the seeded operations of
`--seconds` worth of blocks (workloads.operations); each operation gets a
deadline of DEADLINE_S.  `--trace 1` makes three passes, of half, half and
a quarter of `--seconds` (untraced, with spans around each layer, and
counting scalar arithmetic), and prints per-layer metrics.  The last line
of standard output is one JSON object; the exit code is 1 when any output
fails its check.  See bench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = workloads.WORKLOADS
# An operation still running after this many seconds is a timeout.  Today's
# slowest certified operations (f4_certify kernels) take ~2.9 s.
DEADLINE_S = 6.0
# setup_s is the median of this many fresh interpreters (this one included).
SETUP_SAMPLES = 3
# The speed of a shared VM drifts by tens of percent within seconds, so
# every reported time is in the unit of a machine on which reference_s()
# takes REF_NOMINAL_S: an operation's latency or a set-up time is scaled by
# the mean of the reference timed right before and right after it.
REF_NOMINAL_S = 0.002


class OpTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no library handler eats it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def set_up(workload: str) -> dict:
    """Import splitrank from the checkout and build the workload's fixed
    algebras; returns the context the operations run in."""
    if not (SRC / "splitrank" / "__init__.py").is_file():
        raise SystemExit("bench: no splitrank sources next to the benchmark (expected src/splitrank)")
    sys.path.insert(0, str(SRC))
    import splitrank
    import splitrank.cli
    import splitrank.verify

    if Path(splitrank.__file__).resolve().parent != (SRC / "splitrank").resolve():
        raise SystemExit(f"bench: imported splitrank from {splitrank.__file__}, not from {SRC}")
    ctx = {"sr": splitrank, "cli": splitrank.cli, "fp_oracle": splitrank.verify.witt_index_enumeration}
    if workload == "jordan_elements":
        ctx["pool"] = workloads.build_jordan_pool(splitrank)
    return ctx


def setup_samples(workload: str, own: float) -> list[float]:
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def reset_caches(ctx: dict) -> None:
    """Empty the module-level Jordan-table cache after every operation, so
    every f4_certify operation meets cold tables and memory does not grow
    with the number of operations a run fits.  The jordan_elements pool
    keeps its tables on the algebra objects."""
    cache = getattr(ctx["sr"].albert, "_JORDAN_TABLE_CACHE", None)
    if cache is not None:
        cache.clear()


def reference_s() -> float:
    """Best of three timings of a fixed loop of Fraction arithmetic and dict
    stores, the kind of work splitrank does.  The cyclic garbage collector
    is paused, so the timing does not depend on what the process holds."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            table = {}
            for i in range(1, 300):
                table[i] = Fraction(i, i + 1) * Fraction(i + 2, i + 3) + Fraction(1, i + 5)
            for i in range(3000):
                table[i * 7919 % 10007] = (i, -i)
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


# ---------------------------------------------------------------------------
# one operation
# ---------------------------------------------------------------------------

def execute(ctx: dict, op: dict):
    """Returns (status, latency_s, detail); status is certified,
    unsupported, error, timeout or wrong."""
    if op["cmd"] == "jordan":
        prepared = workloads.jordan_prepare(ctx["pool"], op)
        call = lambda: workloads.jordan_run(ctx["sr"], prepared)  # noqa: E731
    else:
        argv = workloads.cli_argv(op)
        call = lambda: workloads.call_cli(ctx["cli"].main, argv)  # noqa: E731
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    start = time.perf_counter()
    try:
        result = call()
        latency = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return "timeout", time.perf_counter() - start, f"no result after {DEADLINE_S} s"
    except Exception as exc:  # any exception on valid input is an error outcome
        latency = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        return "error", latency, f"{type(exc).__name__}: {exc}"
    try:
        if op["cmd"] == "jordan":
            workloads.jordan_check(result)
        else:
            workloads.judge_cli(op, *result, ctx["fp_oracle"])
    except workloads.Failure as f:
        return f.kind, latency, f.detail
    except checker.WrongOutput as exc:
        return "wrong", latency, str(exc)
    return "certified", latency, ""


def run_pass(ctx: dict, ops: list[dict], trace=None) -> list[dict]:
    """Closed loop over the operations, one after another, with the
    reference timed between each two.  `latency` is in reference time units
    (see REF_NOMINAL_S), `raw_latency` is the wall time."""
    records = []
    ref = reference_s()
    for op in ops:
        if trace is not None:
            trace.begin_op(op["index"])
        status, latency, detail = execute(ctx, op)
        if trace is not None:
            trace.end_op()
        reset_caches(ctx)
        ref_after = reference_s()
        # a timeout is charged its deadline, which is wall time on any machine
        scaled = latency if status == "timeout" else latency * REF_NOMINAL_S / ((ref + ref_after) / 2)
        records.append({"op": op, "status": status, "latency": scaled, "raw_latency": latency, "detail": detail})
        ref = ref_after
    return records


# ---------------------------------------------------------------------------
# metrics and output
# ---------------------------------------------------------------------------

def summarize(records) -> dict:
    """End-to-end figures of one pass."""
    lat = sorted(r["latency"] for r in records)
    n = len(lat)
    certified = sum(r["status"] == "certified" for r in records)
    beyond = min(10, n - 1)
    return {
        "attempted": n,
        "certified": certified,
        "busy_s": sum(lat),
        "raw_busy_s": sum(r["raw_latency"] for r in records),
        "certified_per_s": certified / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": lat[n - 1 - beyond] * 1e3,
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_beyond": beyond,
        "certified_share": certified / n,
        "kinds": {k: sum(r["status"] == k for r in records) for k in ("unsupported", "error", "timeout", "wrong")},
    }


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def write_failures(workload: str, seed: int, records) -> Path | None:
    """Seed and input of every operation that was not certified."""
    bad = [r for r in records if r["status"] != "certified"]
    if not bad:
        return None
    OUT.mkdir(exist_ok=True)
    path = OUT / f"failures-{workload}-seed{seed}.json"
    entries = []
    for r in bad:
        op = r["op"]
        entry = {"workload": workload, "seed": seed, "kind": r["status"], "detail": r["detail"],
                 "latency_s": round(r["raw_latency"], 3)}
        if op["cmd"] != "jordan":
            entry["argv"] = ["splitrank"] + workloads.cli_argv(op)
        entry["op"] = _jsonable(op)
        entries.append(entry)
    path.write_text(json.dumps(entries, indent=1) + "\n")
    return path


def rel(path: Path) -> str:
    try:
        return str(path.relative_to(Path.cwd()))
    except ValueError:
        return str(path)


def measure(workload: str, seed: int, seconds: float, ctx: dict, setup_own: float) -> tuple[dict, dict]:
    records = run_pass(ctx, workloads.operations(workload, seed, seconds))
    s = summarize(records)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = setup_samples(workload, setup_own)
    metrics = {
        "certified_per_s": (s["certified_per_s"], "ops/s"),
        "latency_p50_ms": (s["latency_p50_ms"], "ms"),
        "latency_tail_ms": (s["latency_tail_ms"], "ms"),
        "certified_share": (s["certified_share"], "ratio"),
        "setup_s": (statistics.median(samples), "s"),
    }
    print(
        f"{workload} seed {seed}: {s['attempted']} operations, {s['raw_busy_s']:.1f} s busy "
        f"({s['busy_s']:.1f} reference s); "
        f"certified {s['certified']}, "
        + ", ".join(f"{k} {v}" for k, v in s["kinds"].items())
    )
    for name, (value, unit) in [*metrics.items(), ("peak_rss_mb", (rss_mb, "MB"))]:
        print(f"  {name:16s} {value:12.4f} {unit}")
    print(
        f"  latency_tail_ms is p{s['tail_percentile']:.2f}: {s['tail_beyond']} of "
        f"{s['attempted']} samples beyond it; setup samples {', '.join(f'{x:.3f}' for x in samples)} s"
    )
    path = write_failures(workload, seed, records)
    if path is not None:
        print(f"  reproducers of the {s['attempted'] - s['certified']} non-certified operations: {rel(path)}")
    return s, metrics


def traced_pass(ctx: dict, workload: str, seed: int, seconds: float, hook=None, spans=None) -> dict:
    """One pass with `hook` installed throughout."""
    ops = workloads.operations(workload, seed, seconds)
    if hook is not None:
        hook.install()
    try:
        records = run_pass(ctx, ops, trace=spans)
    finally:
        if hook is not None:
            hook.uninstall()
    return summarize(records)


def trace_run(workload: str, seed: int, seconds: float, ctx: dict) -> tuple[dict, dict]:
    """Untraced pass, span pass and scalar-counting pass over the same
    operations; per-layer metrics are per attempted operation."""
    spans, counter = tracer.Tracer(), tracer.FieldOpCounter()
    plain = traced_pass(ctx, workload, seed, seconds / 2)
    traced = traced_pass(ctx, workload, seed, seconds / 2, hook=spans, spans=spans)
    counted = traced_pass(ctx, workload, seed, seconds / 4, hook=counter)
    for key in traced["kinds"]:
        traced["kinds"][key] += plain["kinds"][key] + counted["kinds"][key]
    metrics = spans.metrics(traced["attempted"])
    metrics.update(counter.metrics(counted["attempted"]))
    metrics["trace.untraced_certified_per_s"] = (plain["certified_per_s"], "ops/s")
    metrics["trace.traced_certified_per_s"] = (traced["certified_per_s"], "ops/s")
    metrics["trace.overhead"] = (plain["certified_per_s"] / traced["certified_per_s"] - 1, "ratio")
    OUT.mkdir(exist_ok=True)
    span_path = OUT / f"spans-{workload}-seed{seed}.tsv"
    spans.write_spans(span_path)
    print(f"{workload} seed {seed} traced: {traced['attempted']} operations, {len(spans.span_name)} spans in {rel(span_path)}")
    if spans.absent:
        print(f"  absent (not wrapped): {', '.join(spans.absent)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:52s} {value:14.6g} {unit}")
    return traced, metrics


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run_all(args) -> int:
    """Every workload in a fresh interpreter of its own, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise SystemExit(f"bench: {workload} printed no result (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        correct = correct and last["correct"] and proc.returncode == 0
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{workload}/{k}": (v["value"], v["unit"]) for k, v in last["metrics"].items()})
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # The reference is timed before and after set-up; the time the first
    # timing takes is not part of set-up.
    start = time.perf_counter()
    ref_before = reference_s()
    ref_cost = time.perf_counter() - start
    ctx = set_up(args.workload)
    setup_raw = time.perf_counter() - T_START - ref_cost
    setup_own = setup_raw * REF_NOMINAL_S / ((ref_before + reference_s()) / 2)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_own}))
        return 0
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.trace:
        s, metrics = trace_run(args.workload, args.seed, args.seconds, ctx)
    else:
        s, metrics = measure(args.workload, args.seed, args.seconds, ctx, setup_own)
    correct = s["kinds"]["wrong"] == 0
    print(result_line(correct, s["attempted"], s["attempted"] - s["certified"], metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
