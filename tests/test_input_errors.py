"""Invalid input fails with an input error (exit code 2), never a confident answer."""

import cmath
import json
import math

import numpy as np
import pytest

from homsurf import cli, numeric, projective, uaff, verify
from homsurf.d1 import classify_D1_subgroup
from homsurf.numeric import NonDiscreteError
from homsurf.projective import BundlePoint

NAN = float("nan")
INF = float("inf")

BAD_GENERATORS = {
    "nan": [(complex(NAN, 0.0), 0j)],
    "inf": [(complex(INF, 0.0), 0j)],
    "overflow": [(1e300 + 0j, 0j), (0j, 1e-300 + 0j)],
}


def _cj(z):
    return {"re": z.real, "im": z.imag}


@pytest.mark.parametrize("name", sorted(BAD_GENERATORS))
def test_classify_d1_rejects_non_finite_and_overflowing(name):
    with pytest.raises(NonDiscreteError):
        classify_D1_subgroup(BAD_GENERATORS[name])


@pytest.mark.parametrize("name", sorted(BAD_GENERATORS))
def test_cli_classify_non_finite_and_overflowing_exit_2(tmp_path, capsys, name):
    f = tmp_path / "gens.json"
    gens = [[_cj(a), _cj(b)] for a, b in BAD_GENERATORS[name]]
    f.write_text(json.dumps({"ambient": "C2", "generators": gens}))
    assert cli.main(["classify", str(f)]) == 2
    assert "error" in capsys.readouterr().err


def test_large_finite_generators_still_classify():
    assert classify_D1_subgroup([(1e6 + 0j, 0j)]).label == "D1_1"


# inputs that leaked ValueError (empty max), LinAlgError (singular matrix) or
# OverflowError out of the classifiers; each is a NonDiscreteError with a reason now
LEAKED = {
    "Z^2-1e-8": ("C2", [(1e-8, 0), (0, 1e-8)]),
    "Z^2-1e-10": ("C2", [(1e-10, 0), (0, 1e-10)]),
    "Z[i]-line-1e-8": ("C2", [(1e-8, 0), (1e-8j, 0)]),
    "Z[i]-line-1e8": ("C2", [(1e8, 0), (1e8j, 0)]),
    "Z[i]-line-1e10": ("C2", [(1e10, 0), (1e10j, 0)]),
    "uaff-a-1000": ("uaff", [(1000, 1)]),
    "uaff-a-1000-pair": ("uaff", [(1000, 1), (0, 1)]),
}


def _classify_leaked(ambient, gens):
    if ambient == "C2":
        return classify_D1_subgroup(gens)
    return uaff.classify_subgroup([uaff.UAffElement(a, b) for a, b in gens])


@pytest.mark.parametrize("name", sorted(LEAKED))
def test_leaked_exceptions_are_non_discrete_errors(name):
    with pytest.raises(NonDiscreteError) as info:
        _classify_leaked(*LEAKED[name])
    assert str(info.value)


@pytest.mark.parametrize("name", sorted(LEAKED))
def test_cli_classify_leaked_exceptions_exit_2(tmp_path, capsys, name):
    ambient, gens = LEAKED[name]
    if ambient == "C2":
        doc = {"ambient": "C2", "generators": [[_cj(complex(a)), _cj(complex(b))] for a, b in gens]}
    else:
        doc = {"ambient": "uaff", "generators": [{"a": _cj(complex(a)), "b": _cj(complex(b))} for a, b in gens]}
    f = tmp_path / "gens.json"
    f.write_text(json.dumps(doc))
    assert cli.main(["classify", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_the_same_inputs_at_scale_one_still_classify():
    assert classify_D1_subgroup([(1, 0), (0, 1)]).label == "D1_2"
    assert classify_D1_subgroup([(1, 0), (1j, 0)]).label == "D1_3"
    assert uaff.classify_subgroup([uaff.UAffElement(1, 1)])[0].name == "D2_6"


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_cli_verify_needs_a_positive_sample_count(capsys, samples):
    assert cli.main(["verify", "A1", "--samples", samples, "--seed", "1"]) == 2
    assert "samples" in capsys.readouterr().err


def test_run_verification_rejects_zero_samples():
    with pytest.raises(ValueError):
        verify.run_verification("A1", samples=0)


def _act(tmp_path, family, element, point):
    e = tmp_path / "e.json"
    p = tmp_path / "p.json"
    e.write_text(json.dumps(element))
    p.write_text(json.dumps(point))
    return cli.main(["act", "--family", family, "--element", str(e), "--point", str(p)])


POINT = {"z": _cj(1 + 0j), "w": _cj(2 + 0j)}
IDENTITY2 = [[_cj(1 + 0j), _cj(0j)], [_cj(0j), _cj(1 + 0j)]]


@pytest.mark.parametrize("family", ["A2", "A3"])
def test_cli_act_affine_matrix_must_be_2x2(tmp_path, family):
    m = [[_cj(1 + 0j), _cj(0j), _cj(0j)], [_cj(0j), _cj(1 + 0j), _cj(0j)], [_cj(0j), _cj(0j), _cj(1 + 0j)]]
    assert _act(tmp_path, family, {"matrix": m, "translation": [_cj(1 + 0j), _cj(0j)]}, POINT) == 2


@pytest.mark.parametrize("family", ["A2", "A3"])
@pytest.mark.parametrize("translation", [[1 + 0j], [1 + 0j, 0j, 0j]])
def test_cli_act_affine_translation_needs_two_entries(tmp_path, family, translation):
    elem = {"matrix": IDENTITY2, "translation": [_cj(t) for t in translation]}
    assert _act(tmp_path, family, elem, POINT) == 2


@pytest.mark.parametrize("family, n", [("A1", 2), ("C9", 3), ("Bδ1", 1)])
def test_cli_act_matrix_needs_its_family_size(tmp_path, capsys, family, n):
    m = [[_cj(1 + 0j) if i == j else _cj(0j) for j in range(n)] for i in range(n)]
    point = {"coords": [_cj(1 + 0j)] * 3} if family == "A1" else POINT
    assert _act(tmp_path, family, {"matrix": m}, point) == 2
    assert "matrix must be" in capsys.readouterr().err


def test_cli_act_a3_needs_det_one(tmp_path):
    m = [[_cj(2 + 0j), _cj(0j)], [_cj(0j), _cj(1 + 0j)]]
    assert _act(tmp_path, "A3", {"matrix": m, "translation": [_cj(0j), _cj(0j)]}, POINT) == 2


# a constructor's error, an invariant's included, names the payload it refuses, as a schema error does
CONSTRUCTOR_ERRORS = {
    "bd4-poly-too-short": (
        "Bδ4",
        {"n": 2, "matrix": [[1, 0], [0, 1]], "poly": [1]},
        {"n": 2, "chart": 0, "z": 0.5, "w": 1},
        "element: polynomial must have degree n",
    ),
    "bg3-r-wrong-length": ("Bγ3", {"n": 2, "lam": 1, "b": 0, "r": [1, 2, 3]}, POINT, "element: r must have degree n - 1"),
    "bg1-c-0": (
        "Bγ1",
        {"n": 2, "c": 0, "lam": 1, "b": 0, "poly": [0, 0, 0]},
        POINT,
        "element: c must be nonzero",
    ),
    "bg2-matrix-overflows": (
        "Bγ2",
        {"n": 2, "lam": 1000, "b": 0, "poly": [0, 0, 0]},
        POINT,
        "element: the matrix overflows",
    ),
    "bg3-matrix-singular": ("Bγ3", {"n": 2, "lam": 800, "b": 0, "r": [0, 0]}, POINT, "element: matrix must be invertible"),
    "bd1-point-at-the-origin": (
        "Bδ1",
        {"matrix": IDENTITY2},
        {"x": [0, 0]},
        "point: the origin is not a point of the surface",
    ),
    "a3-det-2": (
        "A3",
        {"matrix": [[2, 0], [0, 1]], "translation": [0, 0]},
        POINT,
        "element: the matrix must have det 1, got |det - 1| = 1.000e+00",
    ),
}


@pytest.mark.parametrize("case", sorted(CONSTRUCTOR_ERRORS))
def test_cli_act_constructor_and_check_errors_name_the_element(tmp_path, capsys, case):
    family, element, point, error = CONSTRUCTOR_ERRORS[case]
    assert _act(tmp_path, family, element, point) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_decode_prefixes_the_path_to_a_constructor_error_keeping_its_type():
    def refuse(x):
        raise NonDiscreteError("not discrete")

    schema = [numeric.Schema({"x": numeric.REAL}, make=refuse)]
    with pytest.raises(NonDiscreteError, match=r"^file\.generators\[0\]: not discrete$"):
        numeric.decode(schema, [{"x": 1}], "file.generators")


def test_cli_act_a2_needs_an_invertible_matrix(tmp_path):
    m = [[_cj(1 + 0j), _cj(2 + 0j)], [_cj(2 + 0j), _cj(4 + 0j)]]
    assert _act(tmp_path, "A2", {"matrix": m, "translation": [_cj(0j), _cj(0j)]}, POINT) == 2


# one invertibility test, in the element schema, for every element that holds a matrix: family ->
# (a singular element, one whose determinant vanishes at the scale of its largest entry, a point).  Each
# matrix family takes [[1, 2], [2, 4]] and [[1e200, 0], [0, 1e-200]]; A1 the 3x3 analogues, and Bγ1-Bγ3
# the exponents whose matrices underflow to a zero entry or span 200 orders of magnitude
_E200 = math.log(1e200)
_ON2 = {"n": 2, "poly": [0, 0, 0]}
_PROJ_LINE_POINT = {"zproj": [1, 0.5], "w": 1}
_O2_POINT = {"n": 2, "chart": 0, "z": 0.5, "w": 1}
_MATRIX_ELEMENTS = {
    "A2": (lambda m: {"matrix": m, "translation": [0, 0]}, POINT),
    "Bγ4": (lambda m: dict(_ON2, matrix=m), POINT),
    "Bδ2": (lambda m: {"matrix": m}, {"x": [1, 2]}),
    "Bδ3": (lambda m: dict(_ON2, matrix=m), _O2_POINT),
    "Bδ4": (lambda m: dict(_ON2, matrix=m), _O2_POINT),
    "C5": (lambda m: {"matrix": m, "t": 0}, _PROJ_LINE_POINT),
    "C6": (lambda m: {"matrix": m, "affine": {"alpha": 1, "beta": 0}}, _PROJ_LINE_POINT),
    "C7": (lambda m: {"first": [[1, 0], [0, 1]], "second": m}, {"first": [1, 0.5], "second": [0.5, 1]}),
    "C9": (lambda m: {"matrix": m}, {"alpha": [1, 0.5], "beta": [0.5, 1]}),
}
NOT_INVERTIBLE = {
    family: (element([[1, 2], [2, 4]]), element([[1e200, 0], [0, 1e-200]]), point)
    for family, (element, point) in _MATRIX_ELEMENTS.items()
}
NOT_INVERTIBLE.update(
    {
        "A1": (
            {"matrix": [[1, 0, 0], [0, 1, 0], [1, 1, 0]]},
            {"matrix": [[1e110, 0, 0], [0, 1, 0], [0, 0, 1e-110]]},
            {"coords": [1, 0.5, 0.25]},
        ),
        # at n = 2 the matrix of Bγ1 is diag(e^{lam (1 - c/2)}, e^{-lam c/2}), of Bγ2 diag(e^lam, 1) and
        # of Bγ3 diag(1, e^-lam)
        "Bγ1": (dict(_ON2, c=2, lam=800, b=0), dict(_ON2, c=1, lam=2 * _E200, b=0), POINT),
        "Bγ2": (dict(_ON2, lam=-800, b=0), dict(_ON2, lam=_E200, b=0), POINT),
        "Bγ3": ({"n": 2, "lam": 800, "b": 0, "r": [0, 0]}, {"n": 2, "lam": -_E200, "b": 0, "r": [0, 0]}, POINT),
    }
)


@pytest.mark.parametrize("family", sorted(NOT_INVERTIBLE))
def test_cli_act_refuses_a_matrix_not_invertible_at_its_scale(tmp_path, capsys, family):
    singular, ill_scaled, point = NOT_INVERTIBLE[family]
    for element in (singular, ill_scaled):
        assert _act(tmp_path, family, element, point) == 2
        assert capsys.readouterr().err == "error: element: matrix must be invertible\n"


# scalar matrices, the identity modulo scalars, whose entries leave the float range once squared or cubed
@pytest.mark.parametrize(
    "family, element, point",
    [
        ("A1", {"matrix": [[1e110, 0, 0], [0, 1e110, 0], [0, 0, 1e110]]}, {"coords": [1, 0.5, 0.25]}),
        ("C9", {"matrix": [[1e200, 0], [0, 1e200]]}, {"alpha": [1, 0.5], "beta": [0.5, 1]}),
    ],
)
def test_cli_act_a_large_scalar_matrix_fixes_the_point(tmp_path, capsys, family, element, point):
    assert _act(tmp_path, family, element, point) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {key: [_cj(complex(x)) for x in value] for key, value in point.items()}


# a value beyond the float range names where it arose: in the element's constructor, or while acting
_OVERFLOWS = "overflows the float range"
_LINE01 = {"points": [{"re": 0, "im": 0, "mult": 1}, {"re": 1, "im": 0, "mult": 1}]}
OVERFLOWS = {
    "c8-t-1000": ("C8", {"t": 1000, "v": [0, 0], "alpha": 2}, POINT, f"element: {_OVERFLOWS} (math range error)"),
    "d2-a-1000": ("D2", {"a": 1000, "b": 0}, {"a": 0, "b": 1}, f"the result {_OVERFLOWS} (math range error)"),
    "bb1-t-1000": (
        "Bβ1",
        {"divisor": _LINE01, "t": 1000, "f": {"terms": [{"lambda": 1, "coeffs": [1]}]}},
        POINT,
        f"the result {_OVERFLOWS} (math range error)",
    ),
    "bg4-form-at-1e300": (
        "Bγ4",
        dict(_ON2, matrix=[[1, 0], [0, 1]], poly=[1e300, 0, 0]),
        {"z": 1e300, "w": 0},
        f"the result {_OVERFLOWS} (complex exponentiation)",
    ),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_cli_act_overflow_names_what_overflowed(tmp_path, capsys, case):
    family, element, point, error = OVERFLOWS[case]
    assert _act(tmp_path, family, element, point) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_cli_act_overflow_keeps_its_cause(tmp_path):
    family, element, point, _ = OVERFLOWS["d2-a-1000"]
    e, p = tmp_path / "e.json", tmp_path / "p.json"
    e.write_text(json.dumps(element))
    p.write_text(json.dumps(point))
    _, args = cli.parse(["act", "--family", family, "--element", str(e), "--point", str(p)])
    with pytest.raises(OverflowError) as info:
        cli.cmd_act(args)
    assert str(info.value.__cause__) == "math range error"


@pytest.mark.parametrize("family", ["Bδ3", "Bδ4"])
def test_cli_act_bundle_point_of_another_degree_names_the_point(tmp_path, capsys, family):
    element = dict(_ON2, matrix=[[1, 0], [0, 1]])
    assert _act(tmp_path, family, element, dict(_O2_POINT, n=3)) == 2
    assert capsys.readouterr().err == "error: point: bundle degree n = 3 is not the element's n = 2\n"


@pytest.mark.parametrize("m", [0j, complex(NAN, 0.0), complex(INF, 1.0)])
def test_cli_act_d3_needs_finite_nonzero_m(tmp_path, m):
    elem = {"m": _cj(m), "v": [_cj(1 + 0j), _cj(2 + 0j)]}
    assert _act(tmp_path, "D3", elem, POINT) == 2


@pytest.mark.parametrize("family", ["A2", "A3"])
def test_cli_act_valid_affine_elements(tmp_path, capsys, family):
    rng = np.random.default_rng(5)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    if family == "A3":
        m = m / np.sqrt(np.linalg.det(m))
    t = (0.5 - 1j, 2.0 + 0j)
    elem = {"matrix": [[_cj(complex(x)) for x in row] for row in m], "translation": [_cj(x) for x in t]}
    assert _act(tmp_path, family, elem, POINT) == 0
    out = json.loads(capsys.readouterr().out)
    want = m @ np.array([1.0, 2.0]) + np.array(t)
    got = (complex(out["z"]["re"], out["z"]["im"]), complex(out["w"]["re"], out["w"]["im"]))
    assert max(abs(g - w) for g, w in zip(got, want)) < 1e-12


def test_cli_act_valid_d3(tmp_path, capsys):
    elem = {"m": _cj(2j), "v": [_cj(1 + 0j), _cj(-1 + 0j)]}
    assert _act(tmp_path, "D3", elem, POINT) == 0
    out = json.loads(capsys.readouterr().out)
    assert math.isclose(out["z"]["re"], 1.0) and math.isclose(out["z"]["im"], 2.0)


def test_cli_act_c8_needs_alpha(tmp_path, capsys):
    # alpha is part of the C8 element, the exponent of its second multiplier; without it a default acted
    elem = {"t": _cj(0.5j), "v": [_cj(1 + 0j), _cj(0j)]}
    assert _act(tmp_path, "C8", elem, POINT) == 2
    assert "alpha" in capsys.readouterr().err
    assert _act(tmp_path, "C8", dict(elem, alpha=_cj(3 + 0j)), POINT) == 0
    out = json.loads(capsys.readouterr().out)
    assert complex(out["w"]["re"], out["w"]["im"]) == 2 * cmath.exp(1.5j)


def _bundle_act(tmp_path, n):
    """Bδ4's scaling by 1/2 on O(n) at the point z = i/4, w = -1 of chart 1: w is divided by (1/2)^n."""
    elem = {"n": n, "matrix": [[0.5, 0], [0, 0.5]], "poly": [0] * (n + 1)}
    return _act(tmp_path, "Bδ4", elem, {"n": n, "chart": 1, "z": _cj(0.25j), "w": -1})


def test_cli_act_bundle_of_degree_200_acts(tmp_path, capsys):
    assert _bundle_act(tmp_path, 200) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"n": 200, "chart": 1, "z": {"re": 0.0, "im": 0.25}, "w": {"re": -(2.0**200), "im": 0.0}}


@pytest.mark.parametrize("n", [2000, 100000])
def test_cli_act_bundle_whose_power_underflows_exits_2(tmp_path, capsys, n):
    assert _bundle_act(tmp_path, n) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"bundle degree {n}" in err and "Traceback" not in err


def test_bundle_chart_change_and_carrier_name_the_degree():
    with pytest.raises(ValueError, match="bundle degree 2000"):
        BundlePoint(2000, 0, 0.5 + 0j, 1.0 + 0j).to_chart(1)
    with pytest.raises(OverflowError, match="bundle degree 2000"):
        BundlePoint(2000, 0, 2.0 + 0j, 1.0 + 0j).to_chart(1)
    with pytest.raises(ValueError, match="bundle degree 2000"):
        projective._from_carrier(2000, (0.1 + 0j, 0.2 + 0j), 1.0 + 0j)
    assert BundlePoint(200, 0, 0.5 + 0j, 1.0 + 0j).to_chart(1).w == 2.0**200


def _classify(tmp_path, doc, *options):
    f = tmp_path / "gens.json"
    f.write_text(json.dumps(doc))
    return cli.main(["classify", str(f), *options])


def _divisor_with_mult(mult):
    return {"points": [{"re": 0.0, "im": 0.0, "mult": mult}, {"re": 0.0, "im": 2 * math.pi, "mult": 1}]}


def _bb1_with_mult(tmp, mult):
    return _act(tmp, "Bb1", {"divisor": _divisor_with_mult(mult), "t": 0.5, "f": {"terms": []}}, POINT)


def _qd_with_mult(tmp, mult):
    return _classify(tmp, {"ambient": "qd", "divisor": _divisor_with_mult(mult), "generators": [{"w": 1, "s": 0}]})


# name -> (the call, the path its error names)
MALFORMED = {
    "a2-matrix-not-rows": (
        lambda tmp: _act(tmp, "A2", {"matrix": 5, "translation": [_cj(0j), _cj(0j)]}, POINT),
        "element.matrix:",
    ),
    "point-coordinate-a-string": (
        lambda tmp: _act(tmp, "D1", {"v": [_cj(1 + 0j), _cj(0j)]}, {"z": "abc", "w": 1}),
        "point.z:",
    ),
    "c2-generator-a-string": (
        lambda tmp: _classify(tmp, {"ambient": "C2", "generators": [[1, "x"]]}),
        "file.generators[0][1]:",
    ),
    "classify-file-a-list": (lambda tmp: _classify(tmp, [{"ambient": "C2", "generators": []}]), "file.ambient:"),
    "d1-element-too-short": (lambda tmp: _act(tmp, "D1", {"v": [1]}, POINT), "element.v:"),
    "d1-coordinate-without-re": (
        lambda tmp: _act(tmp, "D1", {"v": [{"im": 0}, 0]}, POINT),
        "element.v[0]: missing key 're'",
    ),
    # a multiplicity is a JSON integer of at least 1: not read as int(2.7), int(True) or int("3")
    "bb1-mult-a-float": (lambda tmp: _bb1_with_mult(tmp, 2.7), "element.divisor.points[0].mult: mult must be"),
    "bb1-mult-a-boolean": (lambda tmp: _bb1_with_mult(tmp, True), "element.divisor.points[0].mult: mult must be"),
    "bb1-mult-a-string": (lambda tmp: _bb1_with_mult(tmp, "3"), "element.divisor.points[0].mult: mult must be"),
    "qd-mult-a-float": (lambda tmp: _qd_with_mult(tmp, 2.7), "file.divisor.points[0].mult: mult must be"),
    # a JSON boolean is not a number, though Python's bool is an int
    "d1-element-booleans": (lambda tmp: _act(tmp, "D1", {"v": [True, False]}, POINT), "element.v[0]:"),
    "point-coordinate-a-boolean": (
        lambda tmp: _act(tmp, "D1", {"v": [1, 0]}, {"z": 1, "w": {"re": True, "im": 0}}),
        "point.w.re:",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_payload_is_an_input_error(tmp_path, capsys, name):
    call, path = MALFORMED[name]
    assert call(tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and err.count("\n") == 1 and "Traceback" not in err


# a D2_11 row (rotation by 2 pi / 3): its center intersection needs the fraction 1/3
ROTATION_THIRD = {"ambient": "uaff", "generators": [{"a": _cj(2j * math.pi / 3), "b": _cj(0j)}, {"a": 0, "b": 1}]}


def _classify_bound(tmp_path, doc, bound):
    return _classify(tmp_path, doc, "--denominator-bound", str(bound))


@pytest.mark.parametrize("bound", [1, 2])
def test_cli_classify_center_beyond_the_denominator_bound_exits_2(tmp_path, capsys, bound):
    assert _classify_bound(tmp_path, ROTATION_THIRD, bound) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"denominator bound {bound}" in err and "Traceback" not in err


@pytest.mark.parametrize("bound", [3, 6, 10**6])
def test_cli_classify_center_within_the_denominator_bound(tmp_path, capsys, bound):
    assert _classify_bound(tmp_path, ROTATION_THIRD, bound) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["label"] == "D2_11"
    assert out["center_intersection"]["b"] == _cj(0j)
    assert abs(out["center_intersection"]["a"]["im"] - 2 * math.pi) < 1e-12


# an abelian D2_6 row whose cube is (2 pi i, 0): its center intersection needs the fraction 1/3
ABELIAN_THIRD = {"ambient": "uaff", "generators": [{"a": _cj(2j * math.pi / 3), "b": _cj(1 + 0j)}]}


def test_cli_classify_abelian_center_beyond_the_denominator_bound_exits_2(tmp_path, capsys):
    assert _classify_bound(tmp_path, ABELIAN_THIRD, 2) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "denominator bound 2" in err and "Traceback" not in err


@pytest.mark.parametrize("bound", [3, 10**6])
def test_cli_classify_abelian_center_within_the_denominator_bound(tmp_path, capsys, bound):
    assert _classify_bound(tmp_path, ABELIAN_THIRD, bound) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["label"] == "D2_6"
    assert out["center_intersection"] == {"a": _cj(2j * math.pi), "b": _cj(0j)}


def test_cli_classify_d2_14_center_from_a_large_combination(tmp_path, capsys):
    # the lattice of 2 pi i / 41 and 1.7 meets the center in 2 pi i Z, reached only at 41 a1
    gens = [{"a": _cj(2j * math.pi / 41), "b": _cj(0j)}, {"a": 1.7, "b": 0}]
    doc = {"ambient": "uaff", "generators": gens}
    assert _classify(tmp_path, doc) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["label"] == "D2_14"
    assert out["center_intersection"] == {"a": {"re": 0.0, "im": 2 * math.pi}, "b": _cj(0j)}


@pytest.mark.parametrize("bound", [2, 40])
def test_cli_classify_d2_14_center_beyond_the_denominator_bound_exits_2(tmp_path, capsys, bound):
    # 41 a1 = 2 pi i: the relation needs the denominator 41
    gens = [{"a": _cj(2j * math.pi / 41), "b": _cj(0j)}, {"a": 1.7, "b": 0}]
    assert _classify_bound(tmp_path, {"ambient": "uaff", "generators": gens}, bound) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"denominator bound {bound}" in err and "Traceback" not in err
    assert _classify_bound(tmp_path, {"ambient": "uaff", "generators": gens}, 41) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["center_intersection"] == {"a": {"re": 0.0, "im": 2 * math.pi}, "b": _cj(0j)}


def test_d2_14_center_of_an_irrational_relation_is_trivial_at_any_bound():
    from homsurf import uaff

    label = uaff.D2Label("D2_14", a1=1j * math.sqrt(2), a2=1.7 + 0j)
    for bound in (1, 2, None, 10**7):
        assert uaff.center_intersection(label, max_denominator=bound) == uaff.IDENTITY


@pytest.mark.parametrize("name", ["D2_4", "D2_5", "D2_6"])
def test_abelian_center_beyond_the_bound_is_an_error_and_an_irrational_one_is_trivial(name):
    from homsurf import uaff

    third = {
        "D2_4": {"k": 1, "b": 1 / 3 + 0j},
        "D2_5": {"k": 1, "b": 1 / 3 + 0j, "tau": 1j},
        "D2_6": {"a": 2j * math.pi / 3},
    }
    label = uaff.D2Label(name, **third[name])
    with pytest.raises(ValueError, match="denominator bound 2"):
        uaff.center_intersection(label, max_denominator=2)
    assert uaff.center_intersection(label, max_denominator=3) != uaff.IDENTITY
    irrational = {key: v if key in ("k", "tau") else math.sqrt(2) * v for key, v in third[name].items()}
    assert uaff.center_intersection(uaff.D2Label(name, **irrational), max_denominator=2) == uaff.IDENTITY


# a C2 generator with the coordinate 1/3: commensurable with 1 only at denominators of at least 3
C2_THIRD = {"ambient": "C2", "generators": [[1, 0], [0.3333333333333333, 0]]}


def test_cli_classify_c2_honours_the_denominator_bound(tmp_path, capsys):
    assert _classify_bound(tmp_path, C2_THIRD, 2) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert _classify_bound(tmp_path, C2_THIRD, 3) == 0
    assert json.loads(capsys.readouterr().out)["label"] == "D1_1"
    with pytest.raises(NonDiscreteError):
        classify_D1_subgroup([(1, 0), (1 / 3, 0)], max_denominator=2)


@pytest.mark.parametrize("bound", [0, -1])
@pytest.mark.parametrize("ambient", ["C2", "uaff"])
def test_cli_classify_needs_a_positive_denominator_bound(tmp_path, capsys, bound, ambient):
    doc = ROTATION_THIRD if ambient == "uaff" else {"ambient": "C2", "generators": [[1, 0]]}
    assert _classify_bound(tmp_path, doc, bound) == 2
    assert capsys.readouterr().err == f"error: --denominator-bound must be at least 1, got {bound}\n"


def test_rational_reconstruct_needs_a_positive_bound():
    from homsurf.lattice import rational_reconstruct

    assert rational_reconstruct(0.5, max_denominator=2) == 0.5
    for bound in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            rational_reconstruct(0.5, max_denominator=bound)


# the divisor [0] + [2 pi i]: Bβ1 example D covers it, and it is normalized for Bβ2
COVER_DIVISOR = {"points": [{"re": 0.0, "im": 0.0, "mult": 1}, {"re": 0.0, "im": 2 * math.pi, "mult": 1}]}
COVERS = {
    "Bb1": ({"t": _cj(0.5 + 0j)}, "D"),
    "Bb2": ({"t": _cj(0.5 + 0j), "lambda": _cj(1.5 + 0j)}, "Bb2'"),
}


@pytest.mark.parametrize("n", [2.5, "2", 0, True])
@pytest.mark.parametrize("family", sorted(COVERS))
def test_cli_act_cover_degree_must_be_a_positive_integer(tmp_path, capsys, family, n):
    fields, cover = COVERS[family]
    element = {"divisor": COVER_DIVISOR, "f": {"terms": []}, "cover": {"n": n}, **fields}
    e = tmp_path / "e.json"
    p = tmp_path / "p.json"
    e.write_text(json.dumps(element))
    p.write_text(json.dumps(POINT))
    argv = ["act", "--family", family, "--element", str(e), "--point", str(p), "--cover", cover]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: element.cover.n: n must be an integer of at least 1, got {n!r}\n"
    element["cover"]["n"] = 2
    e.write_text(json.dumps(element))
    assert cli.main(argv) == 0


def _line_divisor(lam):
    return {"points": [{"re": p.real, "im": p.imag, "mult": 1} for p in (lam, lam + 2j * math.pi)]}


# (cover, base point lam of [lam] + [lam + 2 pi i], the element's "cover" field, the error);
# each divisor suits its example, so the parameter named is the one fault
_STRAY = "example {} does not take the cover parameter '{}'"
BAD_COVER_PARAMETERS = {
    "B-without-n": ("B", 0j, {}, "example B needs the cover parameter 'n'"),
    "G-without-tau": ("G", 0j, {"n": 1}, "example G needs the cover parameter 'tau'"),
    "E-without-s": ("E", 2j * math.pi, {"n": 1}, "example E needs the cover parameter 's'"),
    "H-without-tau": (
        "H", 2j * math.pi, {"n": 1, "s": _cj(0.5 + 0j)}, "example H needs the cover parameter 'tau'"
    ),
    "I-without-tau": ("I", 1j * math.pi, {"n": 1}, "example I needs the cover parameter 'tau'"),
    "A0-zero-delta": ("A0", 0.5 + 0j, {"delta": [0]}, "the generators of Delta must be nonzero"),
    "A0-collinear-delta": ("A0", 0.5 + 0j, {"delta": [1, 2]}, "lattice basis is not R-independent"),
    "A1-zero-in-lattice": ("A1", 0j, {"delta": [1, 0]}, "the generators of Delta must be nonzero"),
    "D-with-s": ("D", 0j, {"n": 1, "tau": _cj(1j), "s": _cj(0.5 + 0j)}, _STRAY.format("D", "s")),
    "E-with-tau": ("E", 2j * math.pi, {"n": 1, "s": 1, "tau": _cj(1j)}, _STRAY.format("E", "tau")),
    "G-with-delta": ("G", 0j, {"n": 1, "tau": _cj(1j), "delta": [1]}, _STRAY.format("G", "delta")),
    "A1-with-tau": ("A1", 0j, {"delta": [1], "tau": _cj(1j)}, _STRAY.format("A1", "tau")),
    "C-with-s-not-1": (
        "C", 2j * math.pi, {"n": 1, "s": 2},
        "example C takes the cover parameter 's' only as 1",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_COVER_PARAMETERS))
def test_cli_act_cover_missing_parameter_or_degenerate_delta_exits_2(tmp_path, capsys, case):
    cover, lam, params, error = BAD_COVER_PARAMETERS[case]
    element = {"divisor": _line_divisor(lam), "t": _cj(0.5 + 0j), "f": {"terms": []}, "cover": params}
    e = tmp_path / "e.json"
    p = tmp_path / "p.json"
    e.write_text(json.dumps(element))
    p.write_text(json.dumps(POINT))
    argv = ["act", "--family", "Bb1", "--element", str(e), "--point", str(p), "--cover", cover]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: element.cover: {error}\n"


def test_cli_act_cover_c_takes_s_as_1(tmp_path, capsys):
    # the s = 1 of the C label classify_pi reports
    element = {"divisor": _line_divisor(2j * math.pi), "t": _cj(0.5 + 0j), "f": {"terms": []}}
    element["cover"] = {"n": 1, "s": 1}
    e = tmp_path / "e.json"
    p = tmp_path / "p.json"
    e.write_text(json.dumps(element))
    p.write_text(json.dumps(POINT))
    argv = ["act", "--family", "Bb1", "--element", str(e), "--point", str(p), "--cover", "C"]
    assert cli.main(argv) == 0


# a valid payload with one key more: each exited 0 with the key ignored (a Bβ1 element with a lambda
# acted as lambda = 1); the schema refuses the key, naming it
_BB1 = {"divisor": COVER_DIVISOR, "t": _cj(0.5 + 0j), "f": {"terms": []}}
_AFFINE = {"alpha": _cj(2 + 0j), "beta": _cj(1 + 0j)}
STRAY_KEYS = {
    "bb1-lambda": ("Bb1", dict(_BB1, **{"lambda": _cj(2 + 0j)}), POINT, "element: unknown key 'lambda'"),
    "a2-translaton": (
        "A2",
        {"matrix": IDENTITY2, "translation": [_cj(0j), _cj(1 + 0j)], "translaton": [_cj(0j), _cj(0j)]},
        POINT,
        "element: unknown key 'translaton'",
    ),
    "d3-lambda": ("D3", {"m": _cj(2 + 0j), "v": [0, 0], "lambda": 1}, POINT, "element: unknown key 'lambda'"),
    "c2-beta": ("C2", {"t": _cj(1 + 0j), "affine": _AFFINE, "beta": 1}, POINT, "element: unknown key 'beta'"),
    "c8-n": ("C8", {"t": 0, "v": [0, 0], "alpha": 3, "n": 2}, POINT, "element: unknown key 'n'"),
    "plane-point-third-key": ("D1", {"v": [1, 0]}, dict(POINT, x=0), "point: unknown key 'x'"),
    "cover-stray-key": ("Bb1", dict(_BB1, cover={"n": 1, "m": 2}), POINT, "element.cover: unknown key 'm'"),
    "cover-on-a2": (
        "A2",
        {"matrix": IDENTITY2, "translation": [0, 0], "cover": {"n": 1}},
        POINT,
        "element: unknown key 'cover'",
    ),
}


@pytest.mark.parametrize("case", sorted(STRAY_KEYS))
def test_cli_act_refuses_a_key_its_schema_does_not_have(tmp_path, capsys, case):
    family, element, point, error = STRAY_KEYS[case]
    assert _act(tmp_path, family, element, point) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_cli_act_cover_bb2_takes_only_n(tmp_path, capsys):
    element = {"divisor": COVER_DIVISOR, "t": _cj(0.5 + 0j), "lambda": _cj(1.5 + 0j), "f": {"terms": []}}
    element["cover"] = {"n": 2, "tau": _cj(1j)}
    e = tmp_path / "e.json"
    p = tmp_path / "p.json"
    e.write_text(json.dumps(element))
    p.write_text(json.dumps(POINT))
    argv = ["act", "--family", "Bb2", "--element", str(e), "--point", str(p), "--cover", "Bb2"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: element.cover: example Bb2 does not take the cover parameter 'tau'\n"


# each error of `act --cover` names what is at fault: the option, the element's divisor or its "cover"
# parameters.  (family, divisor points, --cover, error); B0 and B1 are the catalogue's rows of example
# B, where e^{lam n} = 1 and where it is not
COVER_FAULTS = {
    "unknown-example": ("Bb1", (0j, 2j * math.pi), "Zq", "--cover: unknown example Zq"),
    "unknown-row": ("Bb1", (0j, 2j * math.pi), "Bβ1Zq", "--cover: unknown example Bβ1Zq"),
    "bb2-divisor-not-normalized": (
        "Bb2", (0.5, 0.5 + 2j * math.pi), "Bb2",
        "element.divisor: divisor must have the normalized shape [0] + sum [2 pi i k_j]",
    ),
    "divisor-off-a-line": (
        "Bb1", (0j, 1 + 0j), "D",
        "element.divisor: divisor must have the normalized shape [lam] + sum [lam + 2 pi i k_j]",
    ),
    "b0-with-e-lam-n-not-1": (
        "Bb1", (0.3 + 0.2j, 0.3 + (0.2 + 2 * math.pi) * 1j), "Bβ1B0",
        "element.cover: example B0 requires e^{lam n} = 1",
    ),
    "b1-with-e-lam-n-1": ("Bb1", (0j, 2j * math.pi), "Bb1B1", "element.cover: example B1 requires e^{lam n} != 1"),
    "row-name-after-the-bb1-prefix": ("Bb1", (0j, 2j * math.pi), "Bb1Bb2", "--cover: unknown example Bb1Bb2"),
    "d-with-lam-not-0": ("Bb1", (0.5, 0.5 + 2j * math.pi), "D", "element.divisor: example D requires lam = 0"),
}


@pytest.mark.parametrize("case", sorted(COVER_FAULTS))
def test_cli_act_cover_errors_name_what_is_at_fault(tmp_path, capsys, case):
    family, points, cover, error = COVER_FAULTS[case]
    divisor = {"points": [{"re": p.real, "im": p.imag, "mult": 1} for p in map(complex, points)]}
    element = {"divisor": divisor, "t": _cj(0.5 + 0j), "f": {"terms": []}, "cover": {"n": 1}}
    if family == "Bb2":
        element["lambda"] = _cj(1.5 + 0j)
    e = tmp_path / "e.json"
    p = tmp_path / "p.json"
    e.write_text(json.dumps(element))
    p.write_text(json.dumps(POINT))
    argv = ["act", "--family", family, "--element", str(e), "--point", str(p), "--cover", cover]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def _act_cover(tmp_path, family, element, cover):
    e = tmp_path / "e.json"
    p = tmp_path / "p.json"
    e.write_text(json.dumps(element))
    p.write_text(json.dumps(POINT))
    return cli.main(["act", "--family", family, "--element", str(e), "--point", str(p), "--cover", cover])


def test_cli_act_cover_bb2_takes_n_as_1_by_default(tmp_path, capsys):
    element = {"divisor": COVER_DIVISOR, "t": _cj(0.5 + 0j), "lambda": _cj(1.5 + 0j), "f": {"terms": []}}
    assert _act_cover(tmp_path, "Bb2", element, "Bb2") == 0
    by_default = capsys.readouterr().out
    element["cover"] = {"n": 1}
    assert _act_cover(tmp_path, "Bb2", element, "Bb2") == 0
    assert capsys.readouterr().out == by_default


@pytest.mark.parametrize("lam", [0.5j * math.pi, 1.570796j])
def test_cli_act_cover_i_tests_the_unit_to_lattice_tol(tmp_path, capsys, lam):
    # e^{lam n} = i to 3e-7 at lam = 1.570796i is a unit of Z + iZ within LATTICE_TOL (1e-6), as it is
    # for classify_pi's decision of example I
    element = {"divisor": _line_divisor(lam), "t": _cj(0.5 + 0j), "f": {"terms": []}}
    element["cover"] = {"n": 1, "tau": _cj(1j)}
    assert _act_cover(tmp_path, "Bb1", element, "I") == 0, capsys.readouterr().err
