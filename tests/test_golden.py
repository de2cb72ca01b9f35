"""The README CLI examples, byte for byte.

Each file under tests/golden/ holds the stdout of one example; a change to
the arithmetic underneath the CLI must leave every byte in place.
"""

from pathlib import Path

import pytest

from splitrank.cli import main

GOLDEN = Path(__file__).parent / "golden"

F4_GRAVES_RANK1 = (
    '{"f4":{"octonion":{"field":{"kind":"Q"},'
    '"params":["-1","-1","-1"]},"gamma":["1","-1","1"]}}'
)
# the albert.json of the README's excellence example
ALBERT_JSON = '{"octonion":{"field":{"kind":"Q"},"params":["-1","-1","-1"]},"gamma":["1","-1","1"]}'

EXAMPLES = {
    "classify_f4": ["classify", "--json", F4_GRAVES_RANK1],
    "classify_g2": ["classify", "--json", '{"g2":{"field":{"kind":"Q"},"params":["-1","-1","-1"]}}'],
    "witt": ["witt", "--json", '{"field":{"kind":"Q"},"coeffs":["1","-1","1"]}'],
    "kernel": ["kernel", "--json", F4_GRAVES_RANK1],
    "excellence": ["excellence", "--ext", '{"kind":"QSqrt","d":-1}', "--in", "albert.json"],
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_readme_example_bytes(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "albert.json").write_text(ALBERT_JSON)
    assert main(EXAMPLES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


def test_one_process_many_commands(tmp_path, monkeypatch, capsys):
    # commands run one after another in one process, as the bench runs them:
    # a rejected argv and earlier commands must leave no state behind
    monkeypatch.chdir(tmp_path)
    (tmp_path / "albert.json").write_text(ALBERT_JSON)

    def rejected(argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        capsys.readouterr()
        return exc.value.code

    assert main(EXAMPLES["witt"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "witt.json").read_text()
    assert rejected(["witt", "--seed", "1", "--json", "{}"]) == 2
    for name in ("excellence", "classify_f4"):
        assert main(EXAMPLES[name]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()
    assert rejected(["excellence", "--in", "albert.json"]) == 2
    assert main(EXAMPLES["classify_g2"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "classify_g2.json").read_text()
