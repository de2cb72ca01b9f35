"""JSON-in / JSON-out command line front end.

Commands (see COMMANDS): classify, witt, kernel, excellence, verify.

Argv: `splitrank COMMAND [FLAG VALUE | FLAG=VALUE]...`, with the flags of
COMMANDS.  A flag's value is the next argument, unless that argument reads
as a flag (`-` and negative numbers do not), or the text after `=`.  A
repeated flag keeps its last value.  `-h`/`--help` prints the usage and
exits 0.  Flags are never abbreviated, and `--` is not an end-of-options
marker.  Any other argv exits 2 with a usage line and an `error:` line on
stderr, and nothing on stdout.

Exit codes: 0 success, 1 the reader of stdout closed the pipe (nothing
more is written), 2 invalid input (malformed JSON or literals, including
integers past Python's digit limit), 3 unsupported case, 4 verification
failure, 5 internal error (a failed self-check; the report repeats the
command line so the run can be reproduced).
"""

from __future__ import annotations

import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _quote

from .albert import albert_from_json
from .composition import comp_from_json
from .errors import AlgebraError, InternalCheckFailed, InvalidInput, UnsupportedCase
from .fields import field_from_json
from .groups import f4_excellence, f4_kernel, f4_rank, g2_excellence, g2_rank
from .qforms import form_from_json, witt_decompose

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_INVALID = 2
EXIT_UNSUPPORTED = 3
EXIT_VERIFY_FAILED = 4
EXIT_INTERNAL = 5


def _encode(o, indent: str = "\n") -> str:
    """o as json.dumps(o, indent=2, sort_keys=True) writes it: dicts with
    str keys, lists, tuples, str, int, bool and None.  A str item is quoted
    in place, without a call."""
    if isinstance(o, str):
        return _quote(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    inner = indent + "  "
    if isinstance(o, dict):
        items = [_quote(k) + ": " + (_quote(v) if type(v) is str else _encode(v, inner)) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(o, (list, tuple)):
        items = [_quote(v) if type(v) is str else _encode(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _emit(payload: dict, out_path: str | None) -> None:
    text = _encode(payload)
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


def _load_input(opts) -> dict:
    if bool(opts["json"]) == bool(opts["in"]):
        raise InvalidInput("provide exactly one of --json or --in")
    raw = opts["json"]
    if raw is None:
        with open(opts["in"]) as fh:
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


def _cmd_classify(opts) -> dict:
    kind, desc = _detect_group(_load_input(opts))
    return (g2_rank(comp_from_json(desc)) if kind == "g2" else f4_rank(albert_from_json(desc))).to_json()


def _cmd_witt(opts) -> dict:
    return witt_decompose(form_from_json(_load_input(opts))).to_json()


def _cmd_kernel(opts) -> dict:
    kind, desc = _detect_group(_load_input(opts))
    if kind != "f4":
        raise InvalidInput("kernel descriptors are computed for F4 inputs")
    return f4_kernel(albert_from_json(desc)).to_json()


def _cmd_excellence(opts) -> dict:
    kind, desc = _detect_group(_load_input(opts))
    try:
        ext = field_from_json(json.loads(opts["ext"]))
    except ValueError as exc:
        raise InvalidInput(f"bad --ext JSON: {exc}") from None
    if kind == "g2":
        return g2_excellence(comp_from_json(desc), ext).to_json()
    return f4_excellence(albert_from_json(desc), ext).to_json()


def _cmd_verify(opts) -> dict:
    # the oracles are imported here, so that no other command pays for them
    from .verify import DEFAULT_SEED, SUITES, run_suites

    seed = DEFAULT_SEED if opts["seed"] is None else opts["seed"]
    try:
        results = run_suites([opts["suite"]] if opts["suite"] else None, seed=seed)
    except KeyError:
        raise InvalidInput(f"unknown suite {opts['suite']!r}; choose from {sorted(SUITES)}") from None
    return {
        "seed": seed,
        "checks": [{"suite": r.suite, "name": r.name, "ok": r.ok, "detail": r.detail} for r in results],
        "passed": all(r.ok for r in results),
    }


_IO = ("--json", "--in", "--out")
# command: (handler, flags, required flags, summary); each flag reads one
# value, into the handler's opts[flag[2:]] (None when the flag is absent)
COMMANDS = {
    "classify": (_cmd_classify, _IO, (), "G2 or F4 split-rank report for an algebra descriptor"),
    "witt": (_cmd_witt, _IO, (), "Witt decomposition of a diagonal form"),
    "kernel": (_cmd_kernel, _IO, (), "F4 anisotropic-kernel descriptor"),
    "excellence": (_cmd_excellence, _IO + ("--ext",), ("--ext",), "rank/kernel over a quadratic extension with descent witness"),
    "verify": (_cmd_verify, ("--suite", "--seed", "--out"), (), "seeded property suites; exit 4 on any failure"),
}
_INT_FLAGS = ("--seed",)
_HELP = ("-h", "--help")
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's negative number: a value, not a flag


def _help():
    """The usage of every command, from COMMANDS."""
    print("usage: splitrank COMMAND [-h] [FLAG VALUE | FLAG=VALUE]...\n\ncommands:")
    for name, (_, flags, required, summary) in COMMANDS.items():
        shown = (f"{f} {f[2:].upper()}" if f in required else f"[{f} {f[2:].upper()}]" for f in flags)
        print(f"  {name:<11} {' '.join(shown)}\n{'':14}{summary}")
    sys.exit(EXIT_OK)


def _fail(message: str):
    print(f"splitrank: error: {message}", file=sys.stderr)
    sys.exit(EXIT_INVALID)


def _is_flag(arg: str, known) -> bool:
    """Whether arg reads as a flag, and so cannot be a flag's value."""
    if "=" in arg and arg.partition("=")[0] in known:
        return True
    return arg[:1] == "-" and arg != "-" and " " not in arg and not _NUMBER.match(arg)


def read_argv(argv) -> tuple[str, dict]:
    """(command, opts) for argv by the grammar of the module docstring.
    Help and argv errors end the process (SystemExit 0 and 2); as with
    argparse, an unknown argument is reported once the rest is read."""
    args, unknown = iter(argv), []
    for arg in args:  # before the command, only -h/--help is a known flag
        if arg in _HELP:
            _help()
        if not _is_flag(arg, _HELP):
            break
        unknown.append(arg)
    else:
        _fail("the following arguments are required: command")
    if arg not in COMMANDS:
        _fail(f"argument command: invalid choice: {arg!r} (choose from {', '.join(COMMANDS)})")
    command, (_, flags, required, _) = arg, COMMANDS[arg]
    opts = dict.fromkeys(f[2:] for f in flags)
    for arg in args:
        if arg in _HELP:
            _help()
        flag, eq, value = arg.partition("=")
        if arg in flags:
            flag, value = arg, next(args, None)
            if value is None or _is_flag(value, flags + _HELP):
                _fail(f"argument {flag}: expected one argument")
        elif not (eq and flag in flags):
            unknown.append(arg)
            continue
        try:
            opts[flag[2:]] = int(value) if flag in _INT_FLAGS else value
        except ValueError:
            _fail(f"argument {flag}: invalid int value: {value!r}")
    missing = [f for f in required if opts[f[2:]] is None]
    if missing:
        _fail(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        _fail(f"unrecognized arguments: {' '.join(unknown)}")
    return command, opts


def _error(exc: Exception, **extra) -> dict:
    return {"error": {"kind": type(exc).__name__, "message": str(exc), **extra}}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command, opts = read_argv(argv)
    try:
        payload = COMMANDS[command][0](opts)
        _emit(payload, opts["out"])
        return EXIT_VERIFY_FAILED if payload.get("passed") is False else EXIT_OK  # verify's verdict
    except UnsupportedCase as exc:
        _emit(_error(exc), None)
        return EXIT_UNSUPPORTED
    except InternalCheckFailed as exc:
        _emit(_error(exc, argv=list(argv)), None)
        return EXIT_INTERNAL
    except (AlgebraError, OSError) as exc:
        _emit(_error(exc), None)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
