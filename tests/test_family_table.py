"""The family table through `homsurf act`, on one payload per docs/families.md row.

Each element and point below is written by hand from the schema tables of
docs/families.md.  The CLI's printed point must be what the family handler
computes in-process on the decoded payloads, and every point payload, being
already normalised, must survive a decode-encode round trip unchanged.
Non-finite numbers, overflowing results and elements that break their
family's invariants exit 2, and every family has a row in the docs.
"""

import cmath
import json
import math
import pathlib

import numpy as np
import pytest

from homsurf import cli, families, numeric
from homsurf.families import BASE_FAMILY_LABELS, build_family
from homsurf.numeric import Record, Schema


def _cj(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _cs(*zs):
    return [_cj(z) for z in zs]


def _m(*rows):
    return [_cs(*row) for row in rows]


def _plane(z, w):
    return {"z": _cj(z), "w": _cj(w)}


TWO_PI = 2 * math.pi
DIVISOR = {"points": [{"re": 0.0, "im": 0.0, "mult": 1}, {"re": 0.0, "im": TWO_PI, "mult": 1}]}
# 0.5 + 0.25i e^{2 pi i z}, a member of the solution space of DIVISOR
EXPPOLY = {
    "terms": [
        {"lambda": _cj(0j), "coeffs": _cs(0.5)},
        {"lambda": _cj(TWO_PI * 1j), "coeffs": _cs(0.25j)},
    ]
}

# label -> (element, point)
PAYLOADS = {
    "A1": ({"matrix": _m((1, 1j, 0), (0, 2, 0), (0.5, 0, 1))}, {"coords": _cs(1, 0.5j, -0.25)}),
    "A2": ({"matrix": _m((1 + 1j, 2), (0, 1 - 1j)), "translation": _cs(0.5j, 1)}, _plane(1, 2 - 1j)),
    "A3": ({"matrix": _m((1, 2j), (0, 1)), "translation": _cs(0.5j, 1)}, _plane(-1j, 0.5)),
    "C2": ({"t": _cj(1 - 1j), "affine": {"alpha": _cj(2j), "beta": _cj(0.5)}}, _plane(0.25, 1j)),
    "C3": (
        {"first": {"alpha": _cj(2), "beta": _cj(1j)}, "second": {"alpha": _cj(-1j), "beta": _cj(0.25)}},
        _plane(1 + 1j, -2),
    ),
    "C5": ({"matrix": _m((1, 1j), (0.5, 2)), "t": _cj(1 + 1j)}, {"zproj": _cs(0.5j, 1), "w": _cj(2)}),
    "C6": (
        {"matrix": _m((2, 1), (1j, 1)), "affine": {"alpha": _cj(0.5 - 1j), "beta": _cj(3)}},
        {"zproj": _cs(1, -0.75), "w": _cj(1j)},
    ),
    "C7": (
        {"first": _m((1, 1j), (0.5, 2)), "second": _m((0, 1), (-1, 0.5j))},
        {"first": _cs(1, -0.5), "second": _cs(0.25j, 1)},
    ),
    "C8": ({"t": _cj(0.3 - 0.2j), "v": _cs(1, 1j), "alpha": _cj(3 - 1j)}, _plane(0.5, -0.5j)),
    "C9": ({"matrix": _m((1 + 1j, 2), (0, 1 - 1j))}, {"alpha": _cs(0.5j, 1), "beta": _cs(1, 0.5)}),
    "D1": ({"v": _cs(1j, -2)}, _plane(1, 2 - 1j)),
    "D2": ({"a": _cj(0.3 + 0.2j), "b": _cj(1)}, {"a": _cj(0.1j), "b": _cj(1j)}),
    "D3": ({"m": _cj(2j), "v": _cs(1, -1)}, _plane(1, 2)),
    "Bβ1": ({"divisor": DIVISOR, "t": _cj(0.3), "f": EXPPOLY}, _plane(0.1 + 0.2j, 1)),
    "Bβ2": ({"divisor": DIVISOR, "t": _cj(0.3), "lambda": _cj(2), "f": EXPPOLY}, _plane(0.1 + 0.2j, 1)),
    "Bγ1": (
        {"n": 2, "c": _cj(1.5), "lam": _cj(0.3), "b": _cj(0.5j), "poly": _cs(0.1, 0.2j, -0.3)},
        _plane(1, 1j),
    ),
    "Bγ2": ({"n": 2, "lam": _cj(0.3j), "b": _cj(-0.5), "poly": _cs(0.1, 0.2j, -0.3)}, _plane(1, 1j)),
    "Bγ3": ({"n": 2, "lam": _cj(0.3), "b": _cj(0.5j), "r": _cs(0.1, 0.2j)}, _plane(-1, 0.5)),
    "Bγ4": (
        {"n": 2, "matrix": _m((1.5, 0.5), (0, 0.8j)), "poly": _cs(0.1, 0.2j, -0.3)},
        _plane(0.5j, 1),
    ),
    "Bδ1": ({"matrix": _m((1, 2j), (0, 1))}, {"x": _cs(1, -1)}),
    "Bδ2": ({"matrix": _m((2, 1), (1, 2))}, {"x": _cs(1, -1)}),
    "Bδ3": (
        {"n": 2, "matrix": _m((2, 1), (1, 1)), "poly": _cs(0.1, 0.2j, -0.3)},
        {"n": 2, "chart": 0, "z": _cj(0.5), "w": _cj(1j)},
    ),
    "Bδ4": (
        {"n": 3, "matrix": _m((1, 1j), (0.5, 2)), "poly": _cs(0.1, 0.2j, -0.3, 1)},
        {"n": 3, "chart": 1, "z": _cj(0.25j), "w": _cj(-1)},
    ),
}


def _act(tmp_path, label, element, point):
    e = tmp_path / "element.json"
    p = tmp_path / "point.json"
    e.write_text(json.dumps(element))
    p.write_text(json.dumps(point))
    return cli.main(["act", "--family", label, "--element", str(e), "--point", str(p)])


# the operations a tracer wraps on the handler class (perfbench/spans.py), and the samplers
HANDLER_METHODS = ("identity", "multiply", "inverse", "act", "random_element", "random_point")


@pytest.mark.parametrize("label", BASE_FAMILY_LABELS)
def test_every_factory_builds_a_family(label):
    handler = build_family(label)
    assert type(handler) is families.Family
    assert handler.label == label
    for method in HANDLER_METHODS:
        assert method in vars(families.Family) and method not in vars(handler), method
    with pytest.raises(TypeError):
        build_family(label, bogus=1)


def _arrays_inside(value):
    """The numpy arrays anywhere inside a value, walking tuples, lists and Records."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for part in value for a in _arrays_inside(part)]
    if isinstance(value, Record):
        return [a for field in value._fields for a in _arrays_inside(getattr(value, field))]
    return []


@pytest.mark.parametrize("label", BASE_FAMILY_LABELS)
def test_no_handler_returns_an_array(label):
    # after a complex numpy product, cmath.exp and other SSE code run several times slower until
    # a ufunc or LAPACK call; the verify path keeps clear of them by handing out no arrays
    handler = build_family(label)
    rng = np.random.default_rng(5)
    values = [handler.identity()]
    for _ in range(20):
        g, h, x = handler.random_element(rng), handler.random_element(rng), handler.random_point(rng)
        values += [g, h, handler.multiply(g, h), handler.inverse(g), handler.act(g, x)]
    assert not [a for v in values for a in _arrays_inside(v)]


def test_family_parameters():
    assert build_family("Bγ1", c=0).label == "Bγ2"
    assert build_family("Bδ4", n=3).n == build_family("Bγ3", n=3).n == 3
    assert build_family("A1").n is None
    # C8's alpha is part of its element, not a parameter of its handler
    assert build_family("C8").act(families._c8_element(0.5j, (0j, 0j), 3.0), (1.0 + 0j, 1.0 + 0j))[1] == cmath.exp(1.5j)
    with pytest.raises(TypeError):
        build_family("C8", alpha=3.0)
    with pytest.raises(ValueError):
        families._c8_element(0j, (0j, 0j), 1.0)


def test_no_element_carries_handler_parameters():
    for label in BASE_FAMILY_LABELS:
        element, _ = PAYLOADS[label]
        assert cli.element_parameters(label, element) == {}, label
    # a C8 payload without alpha is refused, and so is one whose alpha is 0 or 1, naming the element
    with pytest.raises(ValueError, match="element: missing key 'alpha'"):
        cli.element_from_json("C8", {"t": 0, "v": [0, 0]})
    with pytest.raises(ValueError, match="^element: C8 requires alpha different from 0 and 1$"):
        cli.element_from_json("C8", {"t": 0, "v": [0, 0], "alpha": 1})


def test_every_family_has_a_payload():
    assert sorted(PAYLOADS) == sorted(BASE_FAMILY_LABELS)


@pytest.mark.parametrize("label", sorted(PAYLOADS))
def test_act_prints_the_handlers_point(tmp_path, capsys, label):
    element, point = PAYLOADS[label]
    assert _act(tmp_path, label, element, point) == 0
    g = cli.element_from_json(label, element)
    x = cli.point_from_json(label, point)
    want = cli.point_to_json(label, build_family(label).act(g, x))
    assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"


@pytest.mark.parametrize("label", sorted(PAYLOADS))
def test_point_round_trip(label):
    _, point = PAYLOADS[label]
    assert cli.point_to_json(label, cli.point_from_json(label, point)) == point


# ---------------------------------------------------------------------------
# the JSON boundary refuses what is not a finite complex number

NAN = {"re": float("nan"), "im": 0.0}
INF = {"re": float("inf"), "im": 0.0}


def _edit(label, element=None, point=None):
    """The payloads of `label` with some fields replaced."""
    e, p = PAYLOADS[label]
    return label, {**e, **(element or {})}, {**p, **(point or {})}


NON_FINITE = {
    "D1-v-nan": _edit("D1", {"v": [NAN, _cj(1)]}),
    "D1-v-plain-nan": _edit("D1", {"v": [float("nan"), 1]}),
    "A2-translation-inf": _edit("A2", {"translation": [_cj(1), INF]}),
    "C8-t-nan": _edit("C8", {"t": NAN}),
    "C8-alpha-inf": _edit("C8", {"alpha": INF}),
    "C2-alpha-inf": _edit("C2", {"affine": {"alpha": INF, "beta": _cj(1)}}),
    "D3-v-nan": _edit("D3", {"v": [_cj(1), NAN]}),
    "Bδ4-poly-inf": _edit("Bδ4", {"poly": _cs(0.1, 0.2j, -0.3) + [INF]}),
    "Bβ1-f-nan": _edit("Bβ1", {"f": {"terms": [{"lambda": _cj(0), "coeffs": [NAN]}]}}),
    "D1-point-nan": _edit("D1", point={"z": NAN}),
    "C5-t-beyond-float": _edit("C5", {"t": {"re": 10**400, "im": 0}}),
    "Bγ3-n-inf": _edit("Bγ3", {"n": float("inf")}),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE))
def test_non_finite_numbers_exit_2(tmp_path, capsys, name):
    assert _act(tmp_path, *NON_FINITE[name]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


# finite inputs whose image overflows: an error, never a printed NaN or Infinity
OVERFLOWING = {
    "C8-exp-overflows": _edit("C8", {"t": _cj(1000)}),
    "A2-product-overflows": _edit("A2", {"matrix": _m((1e300, 0), (0, 1))}, {"z": _cj(1e300)}),
    "D3-product-overflows": _edit("D3", {"m": _cj(1e300)}, {"z": _cj(1e300)}),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_overflowing_results_exit_2(tmp_path, capsys, name):
    assert _act(tmp_path, *OVERFLOWING[name]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


# ---------------------------------------------------------------------------
# each family's invariant check, at the boundary

SINGULAR = _m((1, 1), (1, 1))

BROKEN_INVARIANTS = {
    "A1-singular": _edit("A1", {"matrix": _m((1, 0, 0), (0, 1, 0), (1, 1, 0))}),
    "Bδ1-det-2": _edit("Bδ1", {"matrix": _m((2, 0), (0, 1))}),
    "Bδ1-singular": _edit("Bδ1", {"matrix": SINGULAR}),
    "Bδ2-singular": _edit("Bδ2", {"matrix": SINGULAR}),
    "Bδ3-det-2": _edit("Bδ3", {"matrix": _m((2, 0), (0, 1))}),
    "C2-alpha-0": _edit("C2", {"affine": {"alpha": _cj(0), "beta": _cj(1)}}),
    "C3-alpha-0": _edit("C3", {"second": {"alpha": _cj(0), "beta": _cj(1)}}),
    "C6-alpha-0": _edit("C6", {"affine": {"alpha": _cj(0), "beta": _cj(1)}}),
    "Bγ1-c-0": _edit("Bγ1", {"c": _cj(0)}),
    "Bγ1-n-0": _edit("Bγ1", {"n": 0, "poly": _cs(1)}),
    "Bγ3-n-0": _edit("Bγ3", {"n": 0, "r": []}),
    "Bγ3-n-2.5": _edit("Bγ3", {"n": 2.5}),
    "Bγ3-n-a-string": _edit("Bγ3", {"n": "2"}),
    "Bδ4-n-negative": _edit("Bδ4", {"n": -1, "poly": []}, {"n": -1}),
    "Bδ3-chart-2": _edit("Bδ3", point={"chart": 2}),
}


@pytest.mark.parametrize("name", sorted(BROKEN_INVARIANTS))
def test_broken_invariants_exit_2(tmp_path, capsys, name):
    assert _act(tmp_path, *BROKEN_INVARIANTS[name]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_bdelta3_takes_its_matrix_modulo_the_roots_of_unity(tmp_path, capsys):
    # det = e^{2 pi i / 3}: an SL(2) matrix times a cube root of unity, which acts trivially on O(3)
    zeta = complex(-0.5, math.sqrt(3) / 2)
    element = {"n": 3, "matrix": _m((zeta, 0), (0, 1)), "poly": _cs(0, 0, 0, 0)}
    assert _act(tmp_path, "Bδ3", element, {"n": 3, "chart": 0, "z": _cj(0.5), "w": _cj(1)}) == 0


# ---------------------------------------------------------------------------
# the family table and docs/families.md


def _key_paths(payload):
    """The key paths of a payload as docs/families.md writes it: ("points", "mult") for a key of the
    objects listed under "points", and (key, "<name>") for a key whose value is the shared sub-schema
    <name>."""
    paths, stack, key, i = set(), [], None, 0
    while i < len(payload):
        ch = payload[i]
        if ch in "{[":
            stack.append(key)
            key = None
        elif ch in "}]":
            stack.pop()
            key = None
        elif ch == ",":
            key = None
        elif ch in '"<':
            end = payload.index('"' if ch == '"' else ">", i + 1)
            if ch == "<":
                paths.add((*filter(None, stack), key, payload[i : end + 1]))
            elif payload[end + 1 :].lstrip().startswith(":"):
                key = payload[i + 1 : end]
                paths.add((*filter(None, stack), key))
            i = end
        i += 1
    return paths


_TABLES = {"element": "## Group element schemas", "point": "## Point schemas"}


@pytest.mark.parametrize("kind", sorted(_TABLES))
def test_docs_tables_list_the_schema_keys(kind):
    """Each family has one row in the docs table, and the row's keys are those of the family's schema."""
    docs = (pathlib.Path(__file__).parents[1] / "docs" / "families.md").read_text()
    section = docs.split(_TABLES[kind])[1].split("\n## ")[0]
    documented = {}
    for line in section.splitlines():
        if line.startswith("| ") and not line.startswith("| family"):
            _, labels, payload, *_ = line.split("|")
            keys = {path[0] for path in _key_paths(payload.split("`")[1]) if len(path) == 1}
            for label in labels.split(","):
                assert label.strip() not in documented, label
                documented[label.strip()] = keys
    assert sorted(documented) == sorted(BASE_FAMILY_LABELS)  # the keys of the family table
    for label, keys in documented.items():
        assert keys == set(getattr(families.SPECS[label], kind).fields), label


def _schema_key_paths(schema, named, prefix=()):
    """The key paths of a schema, in `_key_paths`' form; a shared sub-schema is named, not entered."""
    for key, kind in schema.fields.items():
        path = (*prefix, key)
        yield path
        kind = kind[0] if type(kind) is list else kind
        if kind in named:
            yield (*path, named[kind])
        elif isinstance(kind, Schema):
            yield from _schema_key_paths(kind, named, path)


def _bullets(text):
    """name -> the first code span of each bullet `- name: ...`, its continuation lines joined."""
    bullets, name = {}, None
    for line in text.splitlines():
        if line.startswith("- "):
            name, _, body = line[2:].partition(": ")
            bullets[name] = body
        elif line.startswith("  ") and name is not None:
            bullets[name] += " " + line.strip()
        else:
            name = None
    return {name: body.split("`")[1] for name, body in bullets.items() if body.startswith("`")}


def test_docs_sub_schema_bullets_list_the_schema_keys():
    """The shared sub-schemas and the classify files of docs/families.md, key by key at every depth."""
    shared = {"divisor": numeric.DIVISOR, "exppoly": numeric.EXPPOLY, "cover": families._COVER}
    schemas = dict(
        shared,
        **{
            "translation plane": cli._AMBIENTS["C2"],
            "affine group": cli._AMBIENTS["uaff"],
            "divisor commutant": cli._AMBIENTS["qd"],
        },
    )
    named = {schema: f"<{name}>" for name, schema in shared.items()}
    docs = (pathlib.Path(__file__).parents[1] / "docs" / "families.md").read_text()
    bullets = {name: payload for name, payload in _bullets(docs).items() if name in schemas}
    assert sorted(bullets) == sorted(schemas)
    for name, payload in bullets.items():
        assert _key_paths(payload) == set(_schema_key_paths(schemas[name], named)), name


def test_docs_covering_table_is_the_quotient_row_table():
    """The "Covering maps" table of docs/families.md lists each row of qd.QUOTIENT_ROWS once, with its name,
    the cover parameters it reads (`s` = 1: with its default) and its conditions: the words of each
    condition's error after "requires"."""
    from homsurf.qd import QUOTIENT_ROWS

    docs = (pathlib.Path(__file__).parents[1] / "docs" / "families.md").read_text()
    section = docs.split("## Covering maps")[1].split("\n## ")[0]
    documented = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            _, row, name, params, conditions, _ = line.split("|")
            assert row.strip() not in documented, row
            fields = [p.partition("=") for p in params.split(",")]
            reads = {f.strip().strip("`"): float(d) if d.strip() else None for f, _, d in fields}
            documented[row.strip().strip("`")] = (name.strip().strip("`"), reads, tuple(c.strip() for c in conditions.split(";")))
    assert documented == {
        key: (name, reads, tuple(error.partition(" requires ")[2] or error for error in conditions))
        for key, (name, _, _, reads, conditions) in QUOTIENT_ROWS.items()
    }
