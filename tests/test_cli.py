"""CLI: commands, exit codes, determinism, round-trips; the argv reader
against the argparse parser it replaced, and the emitter against json.dumps."""

import argparse  # the oracle of the argv reader's differential test, and nothing else
import collections
import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

from splitrank import cli
from splitrank.cli import main
from splitrank.errors import InternalCheckFailed
from test_golden import EXAMPLES
from test_oracle_guard import README
from test_output_digests import CORPORA, corpus_argvs

F4_RANK1 = json.dumps(
    {
        "f4": {
            "octonion": {"field": {"kind": "Q"}, "params": ["-1", "-1", "-1"]},
            "gamma": ["1", "-1", "1"],
        }
    }
)
G2_GRAVES = json.dumps({"g2": {"field": {"kind": "Q"}, "params": ["-1", "-1", "-1"]}})


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestClassify:
    def test_f4_rank1(self, capsys):
        code, out = run_cli(["classify", "--json", F4_RANK1], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["group"] == "F4" and report["rank"] == 1
        assert report["certificate"]["kind"] == "nilpotent_element"

    def test_f4_one_minus_h_one(self, capsys):
        # Gamma = (1, -101, 1) exited 5: the bounded search missed its nilpotent
        alg = json.dumps(
            {"f4": {"octonion": {"field": {"kind": "Q"}, "params": ["-1", "-1", "-1"]}, "gamma": ["1", "-101", "1"]}}
        )
        code, out = run_cli(["classify", "--json", alg], capsys)
        assert code == 0
        assert json.loads(out)["rank"] == 1

    def test_g2(self, capsys):
        code, out = run_cli(["classify", "--json", G2_GRAVES], capsys)
        assert code == 0
        assert json.loads(out)["rank"] == 0

    def test_bare_descriptor_autodetect(self, capsys):
        bare = json.dumps(json.loads(F4_RANK1)["f4"])
        code, out = run_cli(["classify", "--json", bare], capsys)
        assert code == 0 and json.loads(out)["group"] == "F4"

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "alg.json"
        path.write_text(F4_RANK1)
        code, out = run_cli(["classify", "--in", str(path)], capsys)
        assert code == 0 and json.loads(out)["rank"] == 1

    def test_deterministic_bytes(self, capsys):
        _, out1 = run_cli(["classify", "--json", F4_RANK1], capsys)
        _, out2 = run_cli(["classify", "--json", F4_RANK1], capsys)
        assert out1 == out2


class TestWitt:
    def test_example(self, capsys):
        form = json.dumps({"field": {"kind": "Q"}, "coeffs": ["1", "-1", "1"]})
        code, out = run_cli(["witt", "--json", form], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["index"] == 1 and report["anisotropic"] == ["1"]
        assert "witness" in report

    def test_roundtrip_anisotropic_part(self, capsys):
        form = json.dumps({"field": {"kind": "Q"}, "coeffs": ["1", "-1", "-1", "-1"]})
        code, out = run_cli(["witt", "--json", form], capsys)
        part = json.loads(out)["anisotropic"]
        code2, out2 = run_cli(
            ["witt", "--json", json.dumps({"field": {"kind": "Q"}, "coeffs": part})], capsys
        )
        assert code2 == 0 and json.loads(out2)["index"] == 0


class TestKernel:
    def test_rank1_kernel(self, capsys):
        code, out = run_cli(["kernel", "--json", F4_RANK1], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "spin_form"
        assert report["form"]["coeffs"] == ["-1"] * 7

    def test_g2_input_rejected(self, capsys):
        code, out = run_cli(["kernel", "--json", G2_GRAVES], capsys)
        assert code == 2


class TestExcellence:
    def test_rank_jump(self, capsys):
        code, out = run_cli(
            ["excellence", "--ext", '{"kind":"QSqrt","d":-1}', "--json", F4_RANK1], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "excellent_witnessed"
        assert report["rank_base"]["rank"] == 1 and report["rank_ext"]["rank"] == 4

    def test_g2_panel_entry(self, capsys):
        code, out = run_cli(
            ["excellence", "--ext", '{"kind":"QSqrt","d":2}', "--json", G2_GRAVES], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "excellent_witnessed"
        assert report["kernel_ext"]["kind"] == "whole_group"

    def test_fp_extension_unsupported(self, capsys):
        code, out = run_cli(
            ["excellence", "--ext", '{"kind":"Fp","p":7}', "--json", F4_RANK1], capsys
        )
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "UnsupportedExtension"


class TestExitCodes:
    def test_bad_json(self, capsys):
        code, out = run_cli(["classify", "--json", "{not json"], capsys)
        assert code == 2

    @pytest.mark.parametrize("literal", ["1" + "0" * 4999, '"' + "1" * 5000 + '*r"'], ids=["int", "qsqrt"])
    def test_literal_past_the_digit_limit(self, literal, capsys):
        # Python refuses int <-> str conversions of more than 4,300 digits
        # with a plain ValueError; both JSON and literal parsing report it
        field = '{"kind":"Q"}' if literal[0] != '"' else '{"kind":"QSqrt","d":2}'
        form = '{"field":%s,"coeffs":[1,1,%s]}' % (field, literal)
        code, out = run_cli(["witt", "--json", form], capsys)
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "InvalidInput"

    def test_missing_input(self, capsys):
        code, out = run_cli(["classify"], capsys)
        assert code == 2

    def test_both_inputs(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text(F4_RANK1)
        code, _ = run_cli(["classify", "--json", F4_RANK1, "--in", str(path)], capsys)
        assert code == 2

    def test_char_3_rejected(self, capsys):
        bad = json.dumps({"g2": {"field": {"kind": "Fp", "p": 3}, "params": ["1", "1", "1"]}})
        code, out = run_cli(["classify", "--json", bad], capsys)
        assert code == 2

    def test_qsqrt_small_dim_unsupported_exit(self, capsys):
        form = json.dumps({"field": {"kind": "QSqrt", "d": 2}, "coeffs": ["1", "1", "1", "1"]})
        code, out = run_cli(["witt", "--json", form], capsys)
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "UnsupportedCase"

    def test_factoring_limit_exit(self, capsys):
        form = json.dumps({"field": {"kind": "Q"}, "coeffs": ["1", "1", "-318665857834031151167461"]})
        code, out = run_cli(["witt", "--json", form], capsys)
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "InputTooLarge"

    @pytest.mark.parametrize("kind", ["Q", "QSqrt2"])
    @pytest.mark.parametrize("dim", [44, 64])
    def test_large_dimension_is_valid_input(self, dim, kind, capsys):
        # the witness route's height-1 probe stops at dimension 9, so a valid
        # form of any dimension gets a report or a typed limit (exit 3), never
        # the probe's SearchSpaceTooLarge as invalid input (exit 2)
        rng = random.Random(f"dim:{kind}:{dim}")
        coeffs = [str(rng.choice((-1, 1)) * rng.randint(1, 99)) for _ in range(dim)]
        field = {"kind": "Q"} if kind == "Q" else {"kind": "QSqrt", "d": 2}
        code, out = run_cli(["witt", "--json", json.dumps({"field": field, "coeffs": coeffs})], capsys)
        assert code == 0 or (code == 3 and json.loads(out)["error"]["kind"] == "InputTooLarge"), out

    def test_nonnormalizable_gamma_exit(self, capsys):
        alg = json.dumps(
            {
                "f4": {
                    "octonion": {"field": {"kind": "Q"}, "params": ["-1", "-1", "-1"]},
                    "gamma": ["2", "-2", "1"],
                }
            }
        )
        # Gamma = (2,-2,1) cannot be moved to (1,-1,1); the kernel is
        # certified on the slot of the rank certificate all the same
        code, out = run_cli(["kernel", "--json", alg], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "spin_form" and report["form"]["coeffs"] == ["-1"] * 7
        assert report["provenance"]["slot"] == 1

    def test_internal_check_failure_exit(self, monkeypatch, capsys):
        def failing(_):
            raise InternalCheckFailed("no explicit vector found")

        monkeypatch.setattr(cli, "f4_rank", failing)
        argv = ["classify", "--json", F4_RANK1]
        code, out = run_cli(argv, capsys)
        assert code == 5
        error = json.loads(out)["error"]
        assert error["kind"] == "InternalCheckFailed" and error["argv"] == argv

    @pytest.mark.parametrize(
        "command,flag",
        [(c, "--seed") for c in ("classify", "witt", "kernel", "excellence")]
        + [(c, "--bound") for c in ("classify", "witt", "kernel", "excellence")],
    )
    def test_ignored_options_rejected(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, "1", "--json", F4_RANK1])
        assert exc.value.code == 2


    @pytest.mark.parametrize(
        "argv",
        [
            ["witt", "--json", '{"field":{"kind":"Q"},"coeffs":"123"}'],
            ["classify", "--json", '{"g2":{"field":{"kind":"Q"},"params":"111"}}'],
            ["witt", "--json", '{"field":{"kind":"Fp","p":7},"coeffs":[2.5,1,1]}'],
            ["witt", "--json", '{"field":{"kind":"Fp","p":"abc"},"coeffs":[1,1,1]}'],
            ["witt", "--json", '{"field":{"kind":"QSqrt","d":[2]},"coeffs":[1,1,1]}'],
            ["witt", "--json", '{"field":{"kind":"Q"},"coeffs":[1,null,1]}'],
            ["witt", "--json", '{"field":{"kind":"Q"},"coeffs":[1,NaN,1]}'],
            ["witt", "--json", '{"field":{"kind":"Q"},"coeffs":[1,{},1]}'],
            ["witt", "--json", '{"field":{"kind":"Q"},"coeffs":[1,true,1]}'],
            ["witt", "--json", '{"field":{"kind":"Fp","p":true},"coeffs":[1,1,1]}'],
            ["kernel", "--json", '{"f4":{"octonion":{"field":{"kind":"Q"},"params":[-1,-1,-1]},"gamma":"1-11"}}'],
            ["excellence", "--ext", '{"kind":"QSqrt","d":"2.0"}', "--json", G2_GRAVES],
        ],
        ids=["coeffs-string", "params-string", "float", "p-text", "d-array", "null", "nan", "object", "bool",
             "p-bool", "gamma-string", "d-float-text"],
    )
    def test_malformed_descriptor_rejected(self, argv, capsys):
        # each of these was misread as another input or ended in a traceback
        code, out = run_cli(argv, capsys)
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "InvalidInput"

    def test_bare_g2_descriptor(self, capsys):
        bare = {"field": {"kind": "Q"}, "params": ["-1", "-1", "-1"]}
        code, out = run_cli(["classify", "--json", json.dumps(bare)], capsys)
        assert code == 0
        assert out == run_cli(["classify", "--json", G2_GRAVES], capsys)[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--json", '{"field":{"kind":"Q"},"coeffs":["1"]}'],
            ["classify", "--json", "[1]"],
            ["excellence", "--json", G2_GRAVES, "--ext", "{kind: Q}"],
            ["witt", "--json", '{"field":{"kind":"Fp","p":"%s"},"coeffs":[1,1,1]}' % ("1" * 5000)],
        ],
        ids=["neither-shape", "top-level-list", "ext-not-json", "p-past-the-digit-limit"],
    )
    def test_unread_input_rejected(self, argv, capsys):
        code, out = run_cli(argv, capsys)
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "InvalidInput"

    def test_long_literal_is_echoed_short(self, capsys):
        # a "p" of 5,000 digits is refused with the first 40 characters of
        # its literal and its length; a short literal is echoed whole
        form = '{"field":{"kind":"Fp","p":"%s"},"coeffs":[1,1,1]}'
        code, out = run_cli(["witt", "--json", form % ("1" * 5000)], capsys)
        assert code == 2 and len(out.encode()) < 300
        assert "(5002 characters)" in json.loads(out)["error"]["message"]
        code, out = run_cli(["witt", "--json", form % "7x"], capsys)
        assert code == 2 and "got '7x'" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize("field", [{"kind": "Fp", "p": 7}, {"kind": "Q"}, {"kind": "QSqrt", "d": 2}], ids=["Fp", "Q", "QSqrt"])
    def test_long_coefficient_is_echoed_short(self, field, capsys):
        # a coefficient of 4,301 digits, one past int()'s limit, is refused
        # by each field kind with the first 40 characters of its literal and
        # its length; a short bad literal is echoed whole
        form = {"field": field, "coeffs": ["1", "1", "9" * 4301]}
        code, out = run_cli(["witt", "--json", json.dumps(form)], capsys)
        error = json.loads(out)["error"]
        assert code == 2 and error["kind"] == "InvalidInput" and len(out.encode()) < 1024
        assert "(4303 characters)" in error["message"]
        form["coeffs"][2] = "2x"
        code, out = run_cli(["witt", "--json", json.dumps(form)], capsys)
        assert code == 2 and json.loads(out)["error"]["message"].endswith("literal '2x'")

    @pytest.mark.parametrize("group", ["g2", "f4"])
    def test_excellence_unsupported_over_the_extension(self, group, capsys):
        # N is anisotropic over Q and split over Q(sqrt -7), and its descent
        # vector needs the primality of 10^24 + 7: both groups exit 3
        octonions = {"field": {"kind": "Q"}, "params": [str(-(10**24 + 7)), "-1", "-1"]}
        desc = {"g2": octonions} if group == "g2" else {"f4": {"octonion": octonions, "gamma": ["1", "1", "1"]}}
        code, out = run_cli(["excellence", "--json", json.dumps(desc), "--ext", '{"kind":"QSqrt","d":-7}'], capsys)
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "InputTooLarge"

    def test_decimal_string_field_parameters(self, capsys):
        form = {"field": {"kind": "Fp", "p": "7"}, "coeffs": ["1", 1, "-1"]}
        assert run_cli(["witt", "--json", json.dumps(form)], capsys)[0] == 0
        alg = {"g2": {"field": {"kind": "QSqrt", "d": "-7"}, "params": ["-1", -1, "-1"]}}
        assert run_cli(["classify", "--json", json.dumps(alg)], capsys)[0] == 0


class TestVerify:
    def test_single_suite(self, capsys):
        code, out = run_cli(["verify", "--suite", "fields", "--seed", "7"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["passed"] and report["seed"] == 7

    def test_unknown_suite(self, capsys):
        code, _ = run_cli(["verify", "--suite", "nope"], capsys)
        assert code == 2

    def test_seeded_reruns_identical(self, capsys):
        _, out1 = run_cli(["verify", "--suite", "fields", "--seed", "3"], capsys)
        _, out2 = run_cli(["verify", "--suite", "fields", "--seed", "3"], capsys)
        assert out1 == out2

    def test_a_failing_check_exits_4(self, monkeypatch, capsys):
        # a wrong oracle fails its check at the first input it is asked about;
        # the report names that input and still lists every other check
        from splitrank import verify

        asked = []
        monkeypatch.setattr(verify, "sign_oracle_rank", lambda *args: asked.append(args) or 5)
        code, out = run_cli(["verify", "--suite", "groups"], capsys)
        report = json.loads(out)
        assert code == 4 and report["passed"] is False
        failed = [c for c in report["checks"] if not c["ok"]]
        assert [c["name"] for c in failed] == [
            "F4 rank vs sign-pattern oracle (200 inputs over Q and Q(sqrt d), height <= 10^3)"
        ]
        field, params, gamma = asked[0]
        assert len(asked) == 1 and failed[0]["detail"].startswith(f"{field} params {params} gamma {gamma}: rank ")
        assert failed[0]["detail"].endswith(", oracle 5")
        assert len(report["checks"]) == 6 and all(c["suite"] == "groups" for c in report["checks"])


class TestOutFile:
    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out = run_cli(["classify", "--json", G2_GRAVES, "--out", str(target)], capsys)
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["rank"] == 0

    @pytest.mark.parametrize("flag", ["--in", "--out"])
    def test_path_error_exit(self, flag, tmp_path, capsys):
        missing = str(tmp_path / "no-such-dir" / "x.json")
        argv = ["classify", "--in", missing] if flag == "--in" else ["classify", "--json", G2_GRAVES, "--out", missing]
        code, out = run_cli(argv, capsys)
        assert code == 2 and json.loads(out)["error"]["kind"] == "FileNotFoundError"


@pytest.mark.parametrize("argv", [["classify", "--json", G2_GRAVES], ["classify", "--json", "{"]], ids=["report", "error"])
def test_closed_stdout_exits_quietly(argv):
    """A reader that has closed the pipe gets exit 1, no traceback and no
    second write, for a report and for an error report alike."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "splitrank.cli", *argv], stdout=write, stderr=subprocess.PIPE, text=True, timeout=120
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_BROKEN_PIPE, "")


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "splitrank.cli", "classify", "--json", G2_GRAVES],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rank"] == 0


# ---------------------------------------------------------------------------
# the argv reader against the argparse parser it replaced
# ---------------------------------------------------------------------------

def argparse_oracle() -> argparse.ArgumentParser:
    """The CLI's argparse parser before read_argv, flag for flag."""
    parser = argparse.ArgumentParser(prog="splitrank")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("classify", "witt", "kernel", "excellence"):
        sub = subs.add_parser(name)
        sub.add_argument("--json")
        sub.add_argument("--in", dest="infile")
        sub.add_argument("--out")
        if name == "excellence":
            sub.add_argument("--ext", required=True)
    sub = subs.add_parser("verify")
    sub.add_argument("--suite")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--out")
    return parser


def _by_argparse(argv) -> dict:
    fields = vars(argparse_oracle().parse_args(argv))
    if "infile" in fields:
        fields["in"] = fields.pop("infile")
    return fields


def _by_reader(argv) -> dict:
    command, opts = cli.read_argv(argv)
    return {"command": command, **opts}


def outcome(read, argv) -> tuple:
    """("fields", the fields read) or ("exit", status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return ("fields", read(argv))
        except SystemExit as exc:
            return ("exit", exc.code, out.getvalue(), err.getvalue())


FORM = '{"field":{"kind":"Q"},"coeffs":["1","-1","1"]}'
VALUES = {"--json": FORM, "--in": "albert.json", "--out": "report.json", "--ext": '{"kind":"QSqrt","d":-1}',
          "--suite": "fields", "--seed": "7"}
FLAGS = {c: flags for c, (_, flags, _, _) in cli.COMMANDS.items()}
# unique prefixes that argparse reads as the flag: read_argv reads none
ABBREVIATIONS = {"--json": "--js", "--in": "--i", "--out": "--ou", "--ext": "--ex", "--suite": "--su", "--seed": "--see"}
DASH_VALUES = ["-1", "-12", "-1.5", "-.5", "-", "-x", "-json", "-h", "--help", "--json", "--out"]


def malformed_argvs(count: int = 600) -> list[tuple[list[str], bool]]:
    """Seeded argvs, mostly off the grammar, each with whether it abbreviates
    a flag.  Each is a well-formed argv with one or two of these changes."""
    rng = random.Random("argv")

    def base(command=None):
        command = command or rng.choice(list(FLAGS))
        flags = [f for f in FLAGS[command] if f == "--ext" or rng.random() < 0.6]
        rng.shuffle(flags)
        return [command] + [t for f in flags for t in (f, VALUES[f])]

    def pairs(argv):  # the indices of the flags of argv that are followed by their value
        return [i for i in range(1, len(argv) - 1) if argv[i] in VALUES and argv[i + 1] == VALUES[argv[i]]]

    def mutate(argv, kind):
        i = rng.randrange(min(1, len(argv)), len(argv) + 1)  # a place after the command
        if kind == "no command":
            return rng.choice([[], argv[1:]])
        if kind == "unknown command":
            return [rng.choice(["witness", "Witt", "classify2", "run", "-5", "", "-"])] + argv[1:]
        if kind == "unknown flag":
            extra = rng.choice([["--bogus", "1"], ["--seed", "1"], ["--bound", "3"], ["--ext", "{}"], ["--json", "{}"],
                                ["--suite", "fields"], ["extra"], ["-x"]])
            return argv[:i] + extra + argv[i:]
        if kind == "no value":
            at = pairs(argv)
            if not at or rng.random() < 0.3:
                return argv + [rng.choice(list(VALUES))]
            j = rng.choice(at)
            return argv[:j + 1] + argv[j + 2:]
        if kind == "no --ext":
            argv = argv if argv[:1] == ["excellence"] and "--ext" in argv else base("excellence")
            j = argv.index("--ext")
            return argv[:j] + argv[j + 2:]
        if kind == "bad --seed":
            argv = argv if argv[:1] == ["verify"] else base("verify")
            return argv + ["--seed", rng.choice(["x", "1.5", "", "0x10", "1e3", "seven", " 7 ", "+3", "-0"])]
        if kind == "repeated flag":
            flag = rng.choice(FLAGS.get(argv[0] if argv else None, list(VALUES)))
            return argv + [flag, rng.choice([VALUES[flag], "-3", "other"])]
        if kind == "--flag=value":
            at = pairs(argv)
            if not at:
                return argv + ["--out=report.json"]
            j = rng.choice(at)
            return argv[:j] + [f"{argv[j]}={rng.choice([argv[j + 1], '-x', '--json', 'a=b'])}"] + argv[j + 2:]
        if kind == "value with -":
            at = pairs(argv)
            if not at:
                return argv + ["--out", rng.choice(DASH_VALUES)]
            j = rng.choice(at)
            return argv[:j + 1] + [rng.choice(DASH_VALUES)] + argv[j + 2:]
        if kind == "help":
            return argv[:i] + [rng.choice(["-h", "--help"])] + argv[i:]
        at = pairs(argv)  # an abbreviation
        if not at:
            return argv + ["--ou", "x"]
        j = rng.choice(at)
        return argv[:j] + [ABBREVIATIONS[argv[j]]] + argv[j + 1:]

    kinds = ["no command", "unknown command", "unknown flag", "no value", "no --ext", "bad --seed", "repeated flag",
             "--flag=value", "value with -", "help", "abbreviation"]
    argvs = []
    for n in range(count):
        argv, abbreviated = base(), False
        for kind in [kinds[n % len(kinds)]] + rng.sample(kinds, rng.randrange(2)):
            argv = mutate(argv, kind)
            abbreviated |= kind == "abbreviation"
        argvs.append((argv, abbreviated))
    return argvs


def test_reader_reads_every_corpus_argv_as_argparse_did():
    argvs = [argv for corpus in CORPORA for argv in corpus_argvs(corpus)] + list(EXAMPLES.values()) + README
    for argv in argvs:
        assert outcome(_by_reader, argv) == outcome(_by_argparse, argv) == ("fields", _by_reader(argv)), argv


def test_reader_ends_every_malformed_argv_as_argparse_did():
    seen = collections.Counter()
    for argv, abbreviated in malformed_argvs():
        # the one difference: read_argv reads an abbreviation as an unknown
        # flag, and so exits 2 where argparse may accept it
        unabbreviated = ["--unknown" if a in ABBREVIATIONS.values() else a for a in argv]
        want, got = outcome(_by_argparse, unabbreviated), outcome(_by_reader, argv)
        if want[0] == "fields":
            assert got == want, argv
        else:
            assert got[:2] == ("exit", want[1]), (argv, want, got)
            if want[1] == 2:
                assert got[2] == "" and "error:" in got[3], argv
        seen[got[:2] if got[0] == "exit" else "fields"] += 1
        seen["abbreviated"] += abbreviated and outcome(_by_argparse, argv) != got
    # the set reaches the help, the argv errors, accepted argvs, and
    # abbreviations that argparse reads otherwise
    assert min(seen[("exit", 0)], seen[("exit", 2)], seen["fields"], seen["abbreviated"]) >= 30, seen


def test_repeated_and_equals_flags():
    assert cli.read_argv(["verify", "--seed", "1", "--seed=-5", "--suite=a=b"]) == (
        "verify", {"suite": "a=b", "seed": -5, "out": None})
    assert cli.read_argv(["witt", "--json", "-", "--out", "-1.5"])[1] == {"json": "-", "in": None, "out": "-1.5"}


@pytest.mark.parametrize("argv", [["witt", "--js", FORM], ["excellence", "--json", FORM, "--ex", "{}"]])
def test_abbreviations_are_unknown_flags(argv, capsys):
    assert _by_argparse(argv)["command"] == argv[0]  # argparse read the prefix as the flag
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["witt", "--help"], ["verify", "--seed", "3", "-h"]])
def test_help_lists_every_command_and_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: splitrank COMMAND")
    for command, (_, flags, _, summary) in cli.COMMANDS.items():
        assert f"  {command}" in out and summary in out and all(flag in out for flag in flags)


# ---------------------------------------------------------------------------
# the emitter
# ---------------------------------------------------------------------------

TEXT = ['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2212", "\u221a", "\xe9", "\U0001d546", "a", "Z", "0", " ", ":"]


def random_payload(rng, depth=0):
    kind = rng.randrange(7 if depth < 4 else 3)
    if kind == 0:
        return rng.choice([None, True, False, 0, 1, -1, 2**63, -(10**40) - 7, rng.randint(-(10**9), 10**9)])
    if kind in (1, 2):
        return "".join(rng.choice(TEXT) for _ in range(rng.randrange(6)))
    items = [random_payload(rng, depth + 1) for _ in range(rng.choice([0, 1, 2, 5]))]
    if kind == 3:
        return {"".join(rng.choice(TEXT) for _ in range(rng.randrange(4))): v for v in items}
    return tuple(items) if kind == 4 else items


def test_emitter_writes_the_bytes_of_json_dumps():
    rng = random.Random("emitter")
    payloads = [random_payload(rng) for _ in range(2000)]
    kinds = collections.Counter(type(p).__name__ for p in payloads)
    assert all(kinds[k] >= 100 for k in ("dict", "list", "tuple", "str")), kinds
    for payload in payloads:
        assert cli._encode(payload) == json.dumps(payload, indent=2, sort_keys=True), payload


def test_emitter_refuses_what_json_refuses():
    for payload in ({"x": 1.5}, [{1, 2}], {1: "a"}):
        with pytest.raises(TypeError):
            cli._encode(payload)


@pytest.mark.parametrize(
    "argv",
    README + [["excellence", "--ext", '{"kind":"QSqrt","d":2}', "--json", G2_GRAVES], ["verify", "--suite", "fields", "--seed", "7"]],
    ids=["classify_f4", "classify_g2", "witt", "kernel", "excellence_f4", "excellence_g2", "verify"],
)
def test_out_file_holds_the_stdout_bytes(argv, tmp_path, capsys):
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    target = tmp_path / "report.json"
    assert main(argv + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == "" and target.read_text() == stdout


def test_error_reports_are_written_by_the_emitter(monkeypatch, capsys):
    def failing(_):
        raise InternalCheckFailed("no explicit vector found")

    def forbidden(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(cli, "f4_rank", failing)
    monkeypatch.setattr(json, "dumps", forbidden)
    small_qsqrt = '{"field":{"kind":"QSqrt","d":2},"coeffs":["1","1","1","1"]}'
    outputs = []
    for argv, code in [(["classify", "--json", "{not json"], 2), (["witt", "--json", small_qsqrt], 3),
                       (["classify", "--json", F4_RANK1], 5)]:
        assert main(argv) == code
        outputs.append(capsys.readouterr().out)
    monkeypatch.undo()
    for out in outputs:
        assert "error" in json.loads(out)
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
