"""`homsurf verify all --samples 100 --json` is byte-identical to the committed reports.

A change that moves any check, sample count, pass/fail result or max
error, down to the last printed digit, fails here.  Regenerate the files
only with a change that means to alter a report, and record why.
"""

import pathlib

import pytest

from homsurf import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("seed", [0, 7])
def test_verify_all_matches_the_golden_report(capsys, seed):
    assert cli.main(["verify", "all", "--samples", "100", "--seed", str(seed), "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"verify_seed{seed}.json").read_text()
