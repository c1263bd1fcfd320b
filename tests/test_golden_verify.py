"""`homsurf verify all --samples 100 --json` is byte-identical to the committed reports.

A change that moves any check, sample count, pass/fail result or max
error, down to the last printed digit, fails here.  Seeds 0 and 7 are
compared with full reports, so a failure shows the line that moved; seeds
1 to 6 by the sha256 of the report.  Regenerate them only with a change that
means to alter a report, and record why.
"""

import hashlib
import pathlib

import pytest

from homsurf import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

SHA256 = {
    1: "c5168dec79947f4b33845a29f27d80dd373c9ccd17d03fda119d25ad314c7401",
    2: "fa2e2bd8cb546a86ceb43aa15d239748c4f612db6cc9f31df3e494b74d725ad7",
    3: "c49e3168805b804113e43f5b8284c1fa482db8ecda98f498188154ce796f93df",
    4: "468ffdbe00e285b0ef0dfceedc0fc3d7c46e2f9439c07d4beaa440f863efbcbc",
    5: "c5baf8a8e2d3af6ee1fc0a30b2c34eb9ed12d91bd7a5fa11f0175357d1936296",
    6: "3de5e0c089008d42bc0b4e3082671dc3161bdf8f312c4d92b4da8d5493e83785",
}


def _report(capsys, seed):
    assert cli.main(["verify", "all", "--samples", "100", "--seed", str(seed), "--json"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("seed", [0, 7])
def test_verify_all_matches_the_golden_report(capsys, seed):
    assert _report(capsys, seed) == (GOLDEN / f"verify_seed{seed}.json").read_text()


@pytest.mark.parametrize("seed", sorted(SHA256))
def test_verify_all_matches_the_golden_digest(capsys, seed):
    assert hashlib.sha256(_report(capsys, seed).encode()).hexdigest() == SHA256[seed]
