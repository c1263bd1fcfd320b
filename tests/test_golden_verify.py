"""`homsurf verify all --samples 100 --json` is byte-identical to the committed reports.

A change that moves any check, sample count, pass/fail result or max
error, down to the last printed digit, fails here.  Seeds 0 and 7 are
compared with full reports, so a failure shows the line that moved; seeds
1 to 6 by the sha256 of the report.  Regenerate them only with a change that
means to alter a report, and record why.

`golden/verify_structure.json` holds the reports of seeds 0 to 7 without
their `max_error`: the checks, sample counts, pass/fail results and failure
lines.  A change that may move the last bits of a max error (a different
rounding order in a kernel) regenerates the files above, and must leave this
one as it is.
"""

import contextlib
import functools
import hashlib
import io
import json
import pathlib

import pytest

from homsurf import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

SHA256 = {
    1: "1eb6c39146bb33e9d96810c7b4aa088e02198207c9c96726ab50ddc343b73021",
    2: "52f24eb30cbbcb73bd43ce369abad8c886d9fb8548db0621ea578fb475500f12",
    3: "1bfe198ce28cc104497135f4c3ab6523ada7783c6c7286e8be6bed128501a151",
    4: "fff75abbbe22da555ccc2d2ab4cf3d3a5d313246b989eddde0b159bc05a6f925",
    5: "3d247a9fda1d2e6eb860d5aea1e71bb91c4dff4ad9bd407eac35c2cae770bac6",
    6: "5b7980795c1cb735d8ec22b6189c0953b739091f0aac665ef366461dcef5729b",
}


@functools.lru_cache(maxsize=None)
def _report(seed):
    """The printed report of one seed, computed once for all the tests here."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "all", "--samples", "100", "--seed", str(seed), "--json"]) == 0
    return out.getvalue()


@pytest.mark.parametrize("seed", [0, 7])
def test_verify_all_matches_the_golden_report(seed):
    assert _report(seed) == (GOLDEN / f"verify_seed{seed}.json").read_text()


@pytest.mark.parametrize("seed", sorted(SHA256))
def test_verify_all_matches_the_golden_digest(seed):
    assert hashlib.sha256(_report(seed).encode()).hexdigest() == SHA256[seed]


@pytest.mark.parametrize("seed", range(8))
def test_verify_all_matches_the_structure_golden(seed):
    want = json.loads((GOLDEN / "verify_structure.json").read_text())[str(seed)]
    got = json.loads(_report(seed))
    for report in got:
        del report["max_error"]
    assert [r["family"] for r in got] == [r["family"] for r in want]
    for g, w in zip(got, want):
        assert g == w
