"""The three discrete-subgroup classifiers give the committed outcomes, to the last bit.

`golden/classify_outcomes.json` holds, for seeds 0 to 7, the repr of what
each classifier returns (or the type and message of what it raises) on:

- every D1 row from `verify.random_d1_generators`, moved by a random GL(2, C)
  matrix and permuted, as the D1 suite moves them;
- every D2 row from `verify.random_d2_generators`, moved by a random uAff
  automorphism and `verify._shuffle_generators`, with `center_intersection`
  of the label, as `homsurf classify` reports it;
- every Bβ1 example from `verify.sample_cover_labels`, moved by
  `bbeta.table_automorphism` and shuffled;
- three generator pairs with an irrational ratio, which each classifier must
  reject;

and, once, the rescaling probes of the classifiers' working range: inputs
that differ from a passing one only by a scale the classifier's normaliser
contains, wrong rows included (this file pins what the program does, not
what it should do).  A rewrite of the numeric layer must leave every repr
as it is.  Regenerate the file with
`PYTHONPATH=src python tests/test_classify_golden.py` only in a change that
means to alter an outcome, and record why.
"""

import cmath
import json
import math
import pathlib

import numpy as np

from homsurf import bbeta, d1, families, uaff, verify

GOLDEN = pathlib.Path(__file__).parent / "golden" / "classify_outcomes.json"
SEEDS = range(8)


def _outcome(call, *args):
    try:
        return repr(call(*args))
    except Exception as e:  # noqa: BLE001 - a raised error is an outcome too
        return f"{type(e).__name__}: {e}"


def _classify_d2(gens):
    label, phi = uaff.classify_subgroup(gens)
    return label, phi, uaff.center_intersection(label)


def _cnum(rng, scale=1.0):
    return complex(rng.normal(), rng.normal()) * scale


def _move_d1(rng, gens):
    (a, b), (c, d) = families._matrix(rng, min_det=0.3, scale=1.0)
    gens = [(a * x + b * y, c * x + d * y) for x, y in gens]
    return [gens[i] for i in rng.permutation(len(gens))] if gens else gens


def _move_d2(rng, gens):
    phi = uaff.UAffAutomorphism(_cnum(rng), cmath.exp(_cnum(rng, 0.5)))
    gens = [uaff.aut_apply(phi, g) for g in gens]
    return verify._shuffle_generators(gens, rng, uaff.uaff_multiply, uaff.uaff_inverse)


def _move_bb1(rng, gens, D):
    conj = bbeta.table_automorphism(D, nu=cmath.exp(_cnum(rng, 0.5)), t=_cnum(rng))
    gens = [conj(g) for g in gens]
    return verify._shuffle_generators(gens, rng, bbeta.cent_multiply, bbeta.cent_inverse)


def seeded_cases(seed):
    """[kind, name, outcome] for every seeded input of one seed."""
    rng = np.random.default_rng([seed, 12])
    out = []
    for name in ("D1", "D1_1", "D1_2", "D1_3", "D1_4", "D1_5", "D1_6"):
        gens, _ = verify.random_d1_generators(rng, name)
        out.append(["D1", name, _outcome(d1.classify_D1_subgroup, _move_d1(rng, gens))])
    for name in verify.D2_NAMES:
        gens, _ = verify.random_d2_generators(rng, name)
        out.append(["D2", name, _outcome(_classify_d2, _move_d2(rng, gens))])
    for label in verify.sample_cover_labels(rng):
        gens = _move_bb1(rng, bbeta.quotient_cover(label).pi_generators(), label.divisor)
        out.append(["Bb1", label.name, _outcome(bbeta.classify_pi, gens, label.divisor)])
    r = math.sqrt((2, 3, 5, 7)[seed % 4]) * (1 + seed % 3)
    out.append(["D1", "irrational", _outcome(d1.classify_D1_subgroup, _move_d1(rng, [(1, 0), (r, 0)]))])
    kernel = [uaff.UAffElement(0j, 1 + 0j), uaff.UAffElement(0j, complex(r))]
    out.append(["D2", "irrational-kernel", _outcome(_classify_d2, _move_d2(rng, kernel))])
    rotations = [uaff.UAffElement(1 + 0j, 0j), uaff.UAffElement(complex(r), 0j)]
    out.append(["D2", "irrational-a", _outcome(_classify_d2, _move_d2(rng, rotations))])
    return out


def probe_cases():
    """[kind, input, outcome] for the rescaling probes of the classifiers' working range."""
    out = []
    for k in range(-14, 15, 2):
        s = 10.0**k
        for name, gens in (("[(s,0),(0,s)]", [(s, 0), (0, s)]), ("[(s,0),(is,0)]", [(s, 0), (1j * s, 0)])):
            out.append(["D1", f"{name} s=1e{k}", _outcome(d1.classify_D1_subgroup, gens)])
    for k in range(0, 13):
        r = 10.0 ** (k / 2)
        out.append(["D1", f"[(r,0),(0,1/r)] r^2=1e{k}", _outcome(d1.classify_D1_subgroup, [(r, 0), (0, 1 / r)])])
    for k in range(-12, 13):
        s = 10.0**k
        gens = [uaff.UAffElement(0j, complex(s)), uaff.UAffElement(0j, 1j * s)]
        out.append(["D2", f"[(0,s),(0,is)] s=1e{k}", _outcome(_classify_d2, gens)])
    return out


def outcomes():
    doc = {str(seed): seeded_cases(seed) for seed in SEEDS}
    doc["probes"] = probe_cases()
    return doc


def dumps(doc):
    return json.dumps(doc, indent=1, ensure_ascii=False) + "\n"


def test_classifier_outcomes_match_the_golden_file():
    want = json.loads(GOLDEN.read_text())
    got = outcomes()
    assert list(got) == list(want)
    for key in want:
        assert len(got[key]) == len(want[key])
        for g, w in zip(got[key], want[key]):
            assert g == w, key


def test_golden_file_is_written_as_dumps_writes_it():
    assert dumps(json.loads(GOLDEN.read_text())) == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(dumps(outcomes()))
