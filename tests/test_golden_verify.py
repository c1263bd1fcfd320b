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
    1: "d12dc5086e773c50b70c9c0c6a446387211502546204349907c56941aabe6338",
    2: "78bc445eb0476df6d427107ba92c6c76c0424319b564054c64d8fd122b36db9f",
    3: "a20378fde25a3d544a662da50780f8c8b15e976fddea44e548ac24079d538e45",
    4: "d337d707475abd699c6f15d2a85405c8686c840a9942b25fea9f6308aaa5838b",
    5: "4a5b2cad834a61b76b3bbf83dd901e44c5baeada20d8c8cb65499b45d9880e47",
    6: "4a67201603cc63071377a1f93ae9df7abcf8eb03a574ea3bdd3c690d2ed496f0",
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
