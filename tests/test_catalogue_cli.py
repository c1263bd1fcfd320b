import json
import math
import pathlib

import pytest

from homsurf import bbeta, cli, projective, verify
from homsurf.catalogue import ROWS, ascii_label, enumerate_catalogue, labels
from homsurf.divisor import Divisor
from homsurf.families import BASE_FAMILY_LABELS, family_label
from homsurf.verify import suite_names

GOLDEN = pathlib.Path(__file__).parent / "golden" / "catalogue_labels.txt"


def test_row_count_and_uniqueness():
    ls = labels()
    assert len(ls) >= 50
    assert len(set(ls)) == len(ls)


def test_catalogue_matches_golden():
    want = GOLDEN.read_text().split()
    assert labels() == want


def test_catalogue_order():
    ls = labels()
    assert ls[:3] == ["A1", "A2", "A3"]
    assert ls[-1] == "D3"
    assert ls.index("Bβ1") < ls.index("Bβ1A0") < ls.index("Bβ2")


def test_filter_c_rows():
    got = [r.label for r in enumerate_catalogue("C")]
    assert got == ["C2", "C2′", "C3", "C5", "C5′", "C6", "C7", "C8", "C9", "C9′"]
    assert enumerate_catalogue("ZZZ") == []
    assert [r.label for r in enumerate_catalogue("Bb2")] == ["Bβ2", "Bβ2′"]


def test_unspecified_stabilizers_are_flagged():
    by_label = {r.label: r for r in ROWS}
    assert by_label["D2_3"].stabilizer == "unspecified-in-paper"
    assert by_label["Bβ2′"].stabilizer.endswith("/?")
    assert by_label["A2"].stabilizer == "GL(2,C)"


def test_policy_column_consistency():
    from homsurf.families import quotient_policy

    by_label = {r.label: r for r in ROWS}
    for label in BASE_FAMILY_LABELS:
        assert by_label[label].quotient_policy == quotient_policy(label).kind, label


# ---------------------------------------------------------------------------
# the command line


def test_cli_catalogue(capsys):
    assert cli.main(["catalogue"]) == 0
    out = capsys.readouterr().out
    assert "A1" in out and "D3" in out
    assert cli.main(["catalogue", "--filter", "C", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["label"] for r in rows] == [r.label for r in enumerate_catalogue("C")]


def test_cli_classify_uaff(tmp_path, capsys):
    f = tmp_path / "gens.json"
    f.write_text(
        json.dumps(
            {"ambient": "uaff", "generators": [{"a": {"re": 0, "im": 0}, "b": {"re": 1, "im": 0}}]}
        )
    )
    assert cli.main(["classify", str(f)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["label"] == "D2_1"


def test_cli_classify_c2(tmp_path, capsys):
    f = tmp_path / "gens.json"
    f.write_text(
        json.dumps(
            {"ambient": "C2", "generators": [[{"re": 1, "im": 0}, {"re": 0, "im": 0}]]}
        )
    )
    assert cli.main(["classify", str(f)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["label"] == "D1_1"


def test_cli_classify_qd(tmp_path, capsys):
    f = tmp_path / "gens.json"
    divisor = {
        "points": [
            {"re": 0.0, "im": 0.0, "mult": 1},
            {"re": 0.0, "im": 2 * math.pi, "mult": 1},
        ]
    }
    f.write_text(
        json.dumps(
            {
                "ambient": "qd",
                "divisor": divisor,
                "generators": [
                    {"w": {"re": 1, "im": 0}, "s": {"re": 0, "im": 0}},
                    {"w": {"re": 0, "im": 0}, "s": {"re": 1, "im": 0}},
                ],
            }
        )
    )
    assert cli.main(["classify", str(f)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["label"] == "Bβ1D"


def test_cli_classify_bad_ambient(tmp_path, capsys):
    f = tmp_path / "gens.json"
    f.write_text(json.dumps({"ambient": "nope", "generators": []}))
    assert cli.main(["classify", str(f)]) == 2


def test_cli_classify_non_discrete_is_input_error(tmp_path, capsys):
    f = tmp_path / "gens.json"
    f.write_text(
        json.dumps(
            {
                "ambient": "uaff",
                "generators": [
                    {"a": {"re": 0, "im": 0}, "b": {"re": 1, "im": 0}},
                    {"a": {"re": 0, "im": 0}, "b": {"re": math.sqrt(2), "im": 0}},
                ],
            }
        )
    )
    assert cli.main(["classify", str(f)]) == 2


def test_cli_act_d1(tmp_path, capsys):
    e = tmp_path / "e.json"
    p = tmp_path / "p.json"
    e.write_text(json.dumps({"v": [{"re": 1, "im": 0}, {"re": 2, "im": 0}]}))
    p.write_text(json.dumps({"z": {"re": 0, "im": 0}, "w": {"re": 0, "im": 0}}))
    assert cli.main(["act", "--family", "D1", "--element", str(e), "--point", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["z"]["re"] == 1 and out["w"]["re"] == 2


def test_cli_act_d2_matrix_oracle_value(tmp_path, capsys):
    e = tmp_path / "e.json"
    p = tmp_path / "p.json"
    e.write_text(json.dumps({"a": {"re": 0, "im": math.pi}, "b": {"re": 0, "im": 0}}))
    p.write_text(json.dumps({"a": {"re": 0, "im": 0}, "b": {"re": 1, "im": 0}}))
    assert cli.main(["act", "--family", "D2", "--element", str(e), "--point", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["a"]["im"] - math.pi) < 1e-12
    assert abs(out["b"]["re"] + 1.0) < 1e-12


def test_cli_act_bb1_with_cover(tmp_path, capsys):
    e = tmp_path / "e.json"
    p = tmp_path / "p.json"
    divisor = {
        "points": [
            {"re": 0.0, "im": 0.0, "mult": 1},
            {"re": 0.0, "im": 2 * math.pi, "mult": 1},
        ]
    }
    fjson = {
        "terms": [
            {"lambda": {"re": 0.0, "im": 0.0}, "coeffs": [{"re": 0.5, "im": 0.0}]}
        ]
    }
    e.write_text(
        json.dumps({"divisor": divisor, "t": {"re": 1, "im": 0}, "f": fjson, "cover": {"n": 1}})
    )
    p.write_text(json.dumps({"z": {"re": 0, "im": 0}, "w": {"re": 0, "im": 0}}))
    assert cli.main(
        ["act", "--family", "Bb1", "--element", str(e), "--point", str(p), "--cover", "B"]
    ) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cover"] == "B"
    # cover (e^{2 pi i z}, w) of the translated point (1, 0.5)
    assert abs(out["point"][0]["re"] - 1.0) < 1e-9
    assert abs(out["point"][1]["re"] - 0.5) < 1e-9


def _cj(z):
    return {"re": z.real, "im": z.imag}


# one admissible instance per cover example: the base point lam of the divisor [lam] + [lam + 2 pi i]
# and the label's parameters
EXAMPLES = {
    "A0": (0.5 + 0j, {"delta": (1.0 + 0j, 0.2 + 1.1j)}),
    "A1": (0j, {"delta": (0.5j,)}),
    "B": (0.3 + 0.2j, {"n": 2}),
    "C": (2j * math.pi, {"n": 1}),
    "D": (0j, {"n": 2}),
    "E": (1j * math.pi, {"n": 2, "s": 0.3 - 0.1j}),
    "F": (1j * math.pi, {"n": 1}),
    "G": (0j, {"n": 1, "tau": 0.2 + 1.3j}),
    "H": (2j * math.pi, {"n": 1, "s": 0.3 - 0.1j, "tau": 0.2 + 1.3j}),
    "I": (1j * math.pi, {"n": 1, "tau": 0.2 + 1.3j}),
}
# every cover `act --cover` takes: the examples by letter, and the catalogue's spelling of each quotient
# row of Bβ1 and of Bβ2′ (Bb2 covers as Bβ2′); B0 and B1 are example B where e^{lam n} = 1 and where not
COVER_ROWS = {
    **EXAMPLES,
    **{f"Bβ1{name}": row for name, row in EXAMPLES.items() if name != "B"},
    "Bβ1B0": (0j, {"n": 2}),
    "Bβ1B1": EXAMPLES["B"],
    "Bb2": (0j, {"n": 2}),
    "Bβ2′": (0j, {"n": 2}),
}


def test_every_quotient_row_of_the_divisor_families_has_a_cover_row():
    rows = [r.label for r in ROWS if r.label.startswith(("Bβ1", "Bβ2")) and r.quotient_policy == "is-quotient"]
    assert sorted(rows) == sorted(cover for cover in COVER_ROWS if cover.startswith("Bβ"))


@pytest.mark.parametrize("cover", sorted(COVER_ROWS))
def test_cli_act_every_cover_row_matches_the_cover_in_process(tmp_path, capsys, cover):
    lam, params = COVER_ROWS[cover]
    D = Divisor([(lam, 1), (lam + 2j * math.pi, 1)])
    terms = [
        {"lambda": _cj(lam), "coeffs": [_cj(0.3 + 0j)]},
        {"lambda": _cj(lam + 2j * math.pi), "coeffs": [_cj(0.2j)]},
    ]
    cover_json = {k: v for k, v in params.items() if k == "n"}
    cover_json.update({k: _cj(v) for k, v in params.items() if k in ("s", "tau")})
    if "delta" in params:
        cover_json["delta"] = [_cj(d) for d in params["delta"]]
    element = {"divisor": D.to_json(), "t": _cj(0.25 + 0.1j), "f": {"terms": terms}, "cover": cover_json}
    family = "Bb2" if cover in ("Bb2", "Bβ2′") else "Bb1"
    if family == "Bb2":
        element["lambda"] = _cj(1.5 - 0.5j)
    x = (0.3 + 0.1j, -0.2 + 0.4j)
    e = tmp_path / "e.json"
    p = tmp_path / "p.json"
    e.write_text(json.dumps(element))
    p.write_text(json.dumps({"z": _cj(x[0]), "w": _cj(x[1])}))
    argv = ["act", "--family", family, "--element", str(e), "--point", str(p), "--cover", cover]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    g = cli.element_from_json(family_label(family), element)
    name = "Bb2" if family == "Bb2" else cover.removeprefix("Bβ1")  # the row's name in qd.QUOTIENT_ROWS
    covered = bbeta.quotient_cover(bbeta.BBeta1Label(name, D, **params)).cover(*bbeta.rgd_act(g, x))
    assert out == {"cover": cover, "point": [cli._component_json(c) for c in covered]}


def test_cli_act_bb1_double_origin(tmp_path, capsys):
    # divisor 2[0], g = (1, z), x = (0, 0) -> (1, 1)
    e = tmp_path / "e.json"
    p = tmp_path / "p.json"
    divisor = {"points": [{"re": 0.0, "im": 0.0, "mult": 2}]}
    fjson = {
        "terms": [
            {"lambda": {"re": 0.0, "im": 0.0}, "coeffs": [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}]}
        ]
    }
    e.write_text(json.dumps({"divisor": divisor, "t": {"re": 1, "im": 0}, "f": fjson}))
    p.write_text(json.dumps({"z": {"re": 0, "im": 0}, "w": {"re": 0, "im": 0}}))
    assert cli.main(["act", "--family", "Bβ1", "--element", str(e), "--point", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["z"]["re"] - 1.0) < 1e-12 and abs(out["w"]["re"] - 1.0) < 1e-12


def test_cli_act_cover_with_torus_output(tmp_path, capsys):
    e = tmp_path / "e.json"
    p = tmp_path / "p.json"
    divisor = {
        "points": [
            {"re": 0.0, "im": 0.0, "mult": 1},
            {"re": 0.0, "im": 2 * math.pi, "mult": 1},
        ]
    }
    fjson = {"terms": []}
    e.write_text(
        json.dumps(
            {
                "divisor": divisor,
                "t": {"re": 0.25, "im": 0},
                "f": fjson,
                "cover": {"n": 1, "tau": {"re": 0.2, "im": 1.3}},
            }
        )
    )
    p.write_text(json.dumps({"z": {"re": 0, "im": 0}, "w": {"re": 0.5, "im": 0}}))
    assert cli.main(
        ["act", "--family", "Bb1", "--element", str(e), "--point", str(p), "--cover", "G"]
    ) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cover"] == "G"
    assert "torus" in out["point"][1]
    assert abs(out["point"][1]["torus"]["re"] - 0.5) < 1e-12


def test_cli_act_cover_bb2(tmp_path, capsys):
    e = tmp_path / "e.json"
    p = tmp_path / "p.json"
    divisor = {
        "points": [
            {"re": 0.0, "im": 0.0, "mult": 1},
            {"re": 0.0, "im": 2 * math.pi, "mult": 1},
        ]
    }
    e.write_text(
        json.dumps(
            {
                "divisor": divisor,
                "t": {"re": 1.0, "im": 0},
                "lambda": {"re": 2.0, "im": 0},
                "f": {"terms": []},
                "cover": {"n": 1},
            }
        )
    )
    p.write_text(json.dumps({"z": {"re": 0, "im": 0}, "w": {"re": 1.0, "im": 0}}))
    assert cli.main(
        ["act", "--family", "Bb2", "--element", str(e), "--point", str(p), "--cover", "Bb2"]
    ) == 0
    out = json.loads(capsys.readouterr().out)
    # (z, w) -> (z + 1, 2w) then covered by (e^{2 pi i z}, w)
    assert abs(out["point"][0]["re"] - 1.0) < 1e-9
    assert abs(out["point"][1]["re"] - 2.0) < 1e-9


def test_cli_act_bg1_plane(tmp_path, capsys):
    e = tmp_path / "e.json"
    p = tmp_path / "p.json"
    e.write_text(
        json.dumps(
            {
                "n": 2,
                "c": {"re": 2.0, "im": 0.0},
                "lam": {"re": math.log(2), "im": 0.0},
                "b": {"re": 0, "im": 0},
                "poly": [{"re": 0, "im": 0}] * 3,
            }
        )
    )
    p.write_text(json.dumps({"z": {"re": 1, "im": 0}, "w": {"re": 1, "im": 0}}))
    assert cli.main(["act", "--family", "Bg1", "--element", str(e), "--point", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["z"]["re"] - 2.0) < 1e-10 and abs(out["w"]["re"] - 4.0) < 1e-10


def test_cli_act_unknown_family(tmp_path):
    e = tmp_path / "e.json"
    e.write_text("{}")
    assert cli.main(["act", "--family", "QQ7", "--element", str(e), "--point", str(e)]) == 2


def test_cli_verify_single_family(capsys):
    assert cli.main(["verify", "D2", "--samples", "25", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "D2" in out and "pass" in out


def test_cli_verify_unknown_suite(capsys):
    assert cli.main(["verify", "QQQ", "--samples", "5", "--seed", "1"]) == 2


def test_cli_verify_json(capsys):
    assert cli.main(["verify", "C9", "--samples", "25", "--seed", "2", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["family"] == "C9" and rows[0]["passed"]
    names = " ".join(rows[0]["checks"])
    assert "quadric" in names


def test_cli_verify_c9_quadric_bound_is_relative_to_the_point(capsys):
    # a sample at this seed has |y|^2 = 6.2e6 and misses y^2 - 4 x z = 1 by 1.863e-09, a rounding error
    assert cli.main(["verify", "C9", "--samples", "100", "--seed", "48853", "--json"]) == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert row["passed"] and 1.8e-9 < row["max_error"] < 1.9e-9


def test_c9_quadric_identity_fails_an_embedding_with_y_off_by_a_millionth(monkeypatch):
    embed = projective.quadric_embed

    def wrong(p):
        x, y, z = embed(p)
        return x, y * (1 + 1e-6), z

    monkeypatch.setattr(projective, "quadric_embed", wrong)
    for seed in (0, 7, 48853):
        report = verify.run_suite("C9", samples=100, seed=seed)
        assert not report.passed
        assert any(f.startswith("quadric-identity: error") for f in report.failures)


def test_cli_verify_determinism(capsys):
    assert cli.main(["verify", "Bβ1", "--samples", "25", "--seed", "5", "--json"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["verify", "Bβ1", "--samples", "25", "--seed", "5", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second


# ---------------------------------------------------------------------------
# label aliases: one normaliser for the catalogue filter, `act --family` and `verify`


def _spellings(label):
    """The label, its ASCII form (Bb1, Bb2') and its word form (Bbeta1, Bbeta2')."""
    ascii_form, words = label, label
    for letter, a, word in (("β", "b", "beta"), ("γ", "g", "gamma"), ("δ", "d", "delta"), ("′", "'", "'")):
        ascii_form = ascii_form.replace(letter, a)
        words = words.replace(letter, word)
    return {label, ascii_form, words}


def test_ascii_label_examples():
    assert ascii_label("Bβ1") == ascii_label("Bbeta1") == ascii_label("Bb1") == "Bb1"
    assert ascii_label("Bβ2′") == ascii_label("Bbeta2'") == "Bb2'"
    assert ascii_label("Bgamma4") == "Bg4" and ascii_label("Bdelta3") == "Bd3"


def test_every_catalogue_label_is_found_in_every_spelling():
    for row in ROWS:
        assert row.ascii_label == ascii_label(row.label)
        for spelling in _spellings(row.label):
            assert row in enumerate_catalogue(spelling), spelling


def test_every_family_label_is_found_in_every_spelling():
    for label in BASE_FAMILY_LABELS:
        for spelling in _spellings(label):
            assert family_label(spelling) == label, spelling
            assert family_label(spelling, suite_names()) == label, spelling


def test_pseudo_suites_and_unknown_labels(capsys):
    for name in ("exppoly", "divisor", "SC"):
        assert family_label(name, suite_names()) == name
    with pytest.raises(ValueError, match="unknown verification suite Bb9"):
        family_label("Bb9", suite_names(), "verification suite")
    with pytest.raises(ValueError, match="unknown family Bbeta9"):
        family_label("Bbeta9")
    assert cli.main(["act", "--family", "Bbeta9", "--element", "e.json", "--point", "p.json"]) == 2
    assert capsys.readouterr().err == "error: unknown family Bbeta9\n"
    assert cli.main(["verify", "Bb9"]) == 2
    assert capsys.readouterr().err == "error: unknown verification suite Bb9\n"


# the divisor [0] + [2 pi i], normalized for Bβ2 and with lambda = 0 for the Bβ1 example D
COVER_DIVISOR = {"points": [{"re": 0.0, "im": 0.0, "mult": 1}, {"re": 0.0, "im": 2 * math.pi, "mult": 1}]}
COVER_ELEMENTS = {
    "Bβ1": ({"t": {"re": 0.5, "im": 0.25}, "cover": {"n": 1}}, ("Bβ1D", "Bb1D", "Bbeta1D", "D")),
    "Bβ2": ({"t": {"re": 0.5, "im": 0.25}, "lambda": {"re": 1.5, "im": 0.0}, "cover": {"n": 2}}, ("Bβ2′", "Bb2'", "Bbeta2'")),
}


@pytest.mark.parametrize("family", sorted(COVER_ELEMENTS))
def test_cli_act_cover_in_every_spelling(tmp_path, capsys, family):
    fields, spellings = COVER_ELEMENTS[family]
    e = tmp_path / "e.json"
    p = tmp_path / "p.json"
    e.write_text(json.dumps({"divisor": COVER_DIVISOR, "f": {"terms": []}, **fields}))
    p.write_text(json.dumps({"z": {"re": 0.3, "im": 0.1}, "w": {"re": -0.2, "im": 0.4}}))
    points = []
    for cover in spellings:
        assert cli.main(["act", "--family", family, "--element", str(e), "--point", str(p), "--cover", cover]) == 0
        points.append(json.loads(capsys.readouterr().out)["point"])
    assert all(pt == points[0] for pt in points)
