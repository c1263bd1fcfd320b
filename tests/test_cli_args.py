"""The `homsurf` argument parser: the command table `cli.COMMANDS` drives parsing, usage and help."""

import json
import pathlib
import re
import sys

import pytest

from homsurf import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def classify_file(tmp_path):
    path = tmp_path / "c2.json"
    path.write_text(json.dumps({"ambient": "C2", "generators": [[{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}]]}))
    return str(path)


@pytest.mark.parametrize(
    "argv, says",
    [
        ([], "expected a subcommand"),
        (["frobnicate"], "expected a subcommand"),
        (["catalogue", "--no-such-option"], "unrecognized option --no-such-option"),
        (["act", "--element", "e.json", "--point", "p.json"], "missing --family"),
        (["act", "--family", "A2", "--point", "p.json"], "missing --element"),
        (["act", "--family", "A2", "--element", "e.json"], "missing --point"),
        (["act", "--family", "--element", "e.json", "--point", "p.json"], "--family expects a value F"),
        (["verify", "A1", "--samples", "many"], "--samples expects an integer, got 'many'"),
        (["verify", "A1", "--seed=1.5"], "--seed expects an integer, got '1.5'"),
        (["classify", "FILE", "--denominator-bound", "x"], "--denominator-bound expects an integer"),
        (["catalogue", "stray"], "unexpected argument 'stray'"),
        (["verify", "A1", "A2"], "unexpected argument 'A2'"),
        (["classify"], "missing FILE"),
        (["catalogue", "--json=yes"], "--json takes no value"),
        (["verify", "--s", "1"], "ambiguous option --s"),
    ],
)
def test_a_usage_error_returns_2(capsys, argv, says):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {says}" in err
    assert "usage:" in err


def test_options_take_the_equals_form_and_unique_prefixes(capsys, classify_file):
    assert cli.main(["classify", classify_file, "--denominator-bound=40"]) == 0
    spelled_out = capsys.readouterr().out
    assert cli.main(["classify", "--den", "40", classify_file]) == 0
    assert capsys.readouterr().out == spelled_out
    assert json.loads(spelled_out)["label"] == "D1_1"


def test_parse_fills_the_defaults():
    fn, args = cli.parse(["verify"])
    assert fn is cli.cmd_verify
    assert vars(args) == {"family": None, "samples": 100, "seed": 0, "json": False}
    fn, args = cli.parse(["act", "--point=p", "--family", "A2", "--element", "e", "--cover", "B"])
    assert fn is cli.cmd_act
    assert vars(args) == {"family": "A2", "element": "e", "point": "p", "cover": "B"}
    _, args = cli.parse(["verify", "D2", "--samples", "-5", "--json"])
    assert (args.family, args.samples, args.json) == ("D2", -5, True)


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["verify", "--help"]])
def test_help_returns_0_and_lists_the_subcommands(capsys, argv):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    names = list(cli.COMMANDS) if argv[0].startswith("-") else argv[:1]
    for name in names:
        assert cli.usage(name) in out
        assert cli.COMMANDS[name][1] in out
    if len(names) == 1:
        assert "catalogue" not in out


def test_main_reads_sys_argv_when_given_none(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["homsurf", "catalogue", "--filter", "D3", "--json"])
    assert cli.main() == 0
    assert [row["label"] for row in json.loads(capsys.readouterr().out)] == ["D3"]


def test_the_readme_usage_block_is_the_command_table():
    text = README.read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    assert block.splitlines() == [cli.usage(name) for name in cli.COMMANDS]
