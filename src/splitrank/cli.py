"""JSON-in / JSON-out command line front end.

Commands:
    classify    G2 or F4 split-rank report for an algebra descriptor
    witt        Witt decomposition of a diagonal form
    kernel      F4 anisotropic-kernel descriptor
    excellence  rank/kernel over a quadratic extension with descent witness
    verify      seeded property suites; nonzero exit on any failure

Exit codes: 0 success, 1 the reader of stdout closed the pipe (nothing
more is written), 2 invalid input (malformed JSON or literals, including
integers past Python's digit limit), 3 unsupported case, 4 verification
failure, 5 internal error (a failed self-check; the report repeats the
command line so the run can be reproduced).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .albert import albert_from_json
from .composition import comp_from_json
from .errors import (
    AlgebraError,
    InternalCheckFailed,
    InvalidInput,
    UnsupportedCase,
)
from .fields import field_from_json
from .groups import f4_excellence, f4_kernel, f4_rank, g2_excellence, g2_rank
from .qforms import form_from_json, witt_decompose

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_INVALID = 2
EXIT_UNSUPPORTED = 3
EXIT_VERIFY_FAILED = 4
EXIT_INTERNAL = 5


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
        return
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout: write nothing more, and point stdout at
        # devnull so that the flush at exit cannot raise again (Python's
        # "Note on SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        sys.exit(EXIT_BROKEN_PIPE)


def _load_input(args) -> dict:
    if bool(args.json) == bool(getattr(args, "infile", None)):
        raise InvalidInput("provide exactly one of --json or --in")
    raw = args.json
    if raw is None:
        with open(args.infile) as fh:
            raw = fh.read()
    try:
        obj = json.loads(raw)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past the int-string digit limit
        raise InvalidInput(f"bad JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise InvalidInput("top-level JSON must be an object")
    return obj


def _detect_group(obj: dict):
    """({"g2": ...} | {"f4": ...} | bare descriptor) -> ("g2"|"f4", descriptor)."""
    if "f4" in obj:
        return "f4", obj["f4"]
    if "g2" in obj:
        return "g2", obj["g2"]
    if "octonion" in obj and "gamma" in obj:
        return "f4", obj
    if "params" in obj and "field" in obj:
        return "g2", obj
    raise InvalidInput("descriptor must be {'g2': ...}, {'f4': ...}, or a bare algebra")


def _cmd_classify(args) -> int:
    kind, desc = _detect_group(_load_input(args))
    if kind == "g2":
        report = g2_rank(comp_from_json(desc))
    else:
        report = f4_rank(albert_from_json(desc))
    _emit(report.to_json(), args.out)
    return EXIT_OK


def _cmd_witt(args) -> int:
    form = form_from_json(_load_input(args))
    _emit(witt_decompose(form).to_json(), args.out)
    return EXIT_OK


def _cmd_kernel(args) -> int:
    kind, desc = _detect_group(_load_input(args))
    if kind != "f4":
        raise InvalidInput("kernel descriptors are computed for F4 inputs")
    _emit(f4_kernel(albert_from_json(desc)).to_json(), args.out)
    return EXIT_OK


def _cmd_excellence(args) -> int:
    kind, desc = _detect_group(_load_input(args))
    try:
        ext = field_from_json(json.loads(args.ext))
    except ValueError as exc:
        raise InvalidInput(f"bad --ext JSON: {exc}") from None
    if kind == "g2":
        report = g2_excellence(comp_from_json(desc), ext)
    else:
        report = f4_excellence(albert_from_json(desc), ext)
    _emit(report.to_json(), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    # the oracles are imported here, so that no other command pays for them
    from .verify import DEFAULT_SEED, SUITES, run_suites

    seed = DEFAULT_SEED if args.seed is None else args.seed
    names = [args.suite] if args.suite else None
    try:
        results = run_suites(names, seed=seed)
    except KeyError:
        raise InvalidInput(
            f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}"
        ) from None
    payload = {
        "seed": seed,
        "checks": [
            {"suite": r.suite, "name": r.name, "ok": r.ok, "detail": r.detail}
            for r in results
        ],
        "passed": all(r.ok for r in results),
    }
    _emit(payload, args.out)
    return EXIT_OK if payload["passed"] else EXIT_VERIFY_FAILED


def _add_io_flags(sub):
    sub.add_argument("--json", help="inline JSON descriptor")
    sub.add_argument("--in", dest="infile", help="path to a JSON descriptor")
    sub.add_argument("--out", help="write the report to this path instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="splitrank",
        description="exact split-rank / anisotropic-kernel / excellence reports "
        "for composition and Albert algebras",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, fn in [
        ("classify", _cmd_classify),
        ("witt", _cmd_witt),
        ("kernel", _cmd_kernel),
        ("excellence", _cmd_excellence),
    ]:
        sub = subs.add_parser(name)
        _add_io_flags(sub)
        sub.set_defaults(fn=fn)
        if name == "excellence":
            sub.add_argument("--ext", required=True, help="extension field JSON")
    sub = subs.add_parser("verify")
    sub.add_argument("--suite", help="run a single suite (default: all)")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--out", help="write the report to this path instead of stdout")
    sub.set_defaults(fn=_cmd_verify)
    return parser


def _error(exc: Exception, **extra) -> dict:
    return {"error": {"kind": type(exc).__name__, "message": str(exc), **extra}}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UnsupportedCase as exc:
        _emit(_error(exc), None)
        return EXIT_UNSUPPORTED
    except InternalCheckFailed as exc:
        _emit(_error(exc, argv=list(sys.argv[1:] if argv is None else argv)), None)
        return EXIT_INTERNAL
    except (AlgebraError, OSError) as exc:
        _emit(_error(exc), None)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
