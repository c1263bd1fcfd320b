"""The `homsurf act` boundary under fuzzing: never a traceback, never a non-finite answer.

Each example draws an element and a point payload from the family's schemas
in the family table (or takes the family's hand-written payloads of
test_family_table), then applies at most one mutation to one of them: a key
dropped or added, or a value, anywhere in the payload, replaced by one of
another shape or by NaN, an infinity, 1e308, a string, `true` or null.  The
call, in process, must exit 0 with finite JSON on stdout or exit 2 with a
single `error:` line on stderr.  The examples are derandomized (see
conftest.py), so every run tries the same ones.
"""

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homsurf import cli, families
from homsurf.families import BASE_FAMILY_LABELS
from homsurf.numeric import CHART, COMPLEX, COMPLEXES, DEGREE, PAIR, REAL, Schema

from test_family_table import PAYLOADS

_ODD = [float("nan"), float("inf"), 1e308, -1e308, 10**400, "x", True, False, None, 0, -1, 2.5, [], {}, [1, 2, 3]]
# the covers a Bβ element may be sent through, None for no --cover
_COVERS = [None, "B", "D", "G", "A0", "Bb2"]


def _payload(rnd, kind):
    """A JSON value that `kind` reads: its invariants may fail, its shape does not."""
    if type(kind) is Schema:
        return {k: _payload(rnd, v) for k, v in kind.fields.items() if k not in kind.optional or rnd.random() < 0.5}
    if type(kind) is list:
        return [_payload(rnd, kind[0]) for _ in range(rnd.randint(0, 2))]
    if kind == REAL:
        return rnd.uniform(-4, 4)
    if kind == COMPLEX:
        re, im = rnd.uniform(-4, 4), rnd.uniform(-4, 4)
        return rnd.choice([re, {"re": re, "im": im}])
    if kind in (PAIR, COMPLEXES):
        return [_payload(rnd, COMPLEX) for _ in range(2 if kind == PAIR else rnd.randint(0, 4))]
    if kind == DEGREE:
        return rnd.randint(1, 3)
    if kind == CHART:
        return rnd.randint(0, 1)
    n = kind[1]  # ("matrix", n)
    return [[_payload(rnd, COMPLEX) for _ in range(n)] for _ in range(n)]


def _slots(value):
    """(container, key) of every value inside a JSON value."""
    items = value.items() if type(value) is dict else enumerate(value) if type(value) is list else ()
    for key, inner in items:
        yield value, key
        yield from _slots(inner)


def _mutate(rnd, payload):
    """The payload with at most one mutation, or an odd value in its place when it has no slot."""
    how = rnd.choice(["none", "drop", "add", "replace"])
    objects = [payload] + [c[k] for c, k in _slots(payload) if type(c[k]) is dict]
    if how == "drop" and any(objects):
        target = rnd.choice([o for o in objects if o])
        del target[rnd.choice(sorted(target))]
    elif how == "add":
        rnd.choice(objects)[rnd.choice(["lambda", "n", "x", "cover", "re"])] = 1
    elif how == "replace":
        slots = list(_slots(payload))
        if not slots:
            return rnd.choice(_ODD)
        container, key = rnd.choice(slots)
        container[key] = rnd.choice(_ODD)
    return payload


def _finite(text):
    """The JSON of `text`, which may hold no NaN or infinity."""

    def refuse(name):
        raise AssertionError(f"non-finite {name} in the output")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("label", BASE_FAMILY_LABELS)
def test_act_exits_0_with_finite_json_or_2_with_one_error_line(tmp_path, capsys, label):
    spec = families.SPECS[label]
    e, p = tmp_path / "e.json", tmp_path / "p.json"

    @settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 2**32 - 1))
    def run(seed):
        rnd = random.Random(seed)
        if rnd.random() < 0.5:
            element, point = json.loads(json.dumps(PAYLOADS[label][:2]))
        else:
            element, point = _payload(rnd, spec.element), _payload(rnd, spec.point)
        if rnd.random() < 0.5:
            element = _mutate(rnd, element)
        else:
            point = _mutate(rnd, point)
        e.write_text(json.dumps(element))
        p.write_text(json.dumps(point))
        argv = ["act", "--family", label, "--element", str(e), "--point", str(p)]
        cover = rnd.choice(_COVERS) if label in ("Bβ1", "Bβ2") else None
        code = cli.main(argv + (["--cover", cover] if cover else []))
        out, err = capsys.readouterr()
        if code == 0:
            assert err == ""
            _finite(out)
        else:
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err

    run()
