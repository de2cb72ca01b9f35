"""CLI: commands, exit codes, determinism, round-trips."""

import json
import os
import random
import subprocess
import sys

import pytest

from splitrank import cli
from splitrank.cli import main
from splitrank.errors import InternalCheckFailed

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
