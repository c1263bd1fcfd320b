import math

import numpy as np
import pytest

from homsurf import cli, families, verify
from homsurf.families import build_family, classify_D1_subgroup, quotient_policy
from homsurf.numeric import EPS, NonDiscreteError, close


@pytest.mark.parametrize("label", families.BASE_FAMILY_LABELS)
def test_group_and_action_axioms(label):
    handler = build_family(label)
    element_distance = families.SPECS[label].distance
    rng = verify.rng_for(99, label)
    ident = handler.identity()
    for _ in range(25):
        g = handler.random_element(rng)
        h = handler.random_element(rng)
        k = handler.random_element(rng)
        lhs = handler.multiply(handler.multiply(g, h), k)
        rhs = handler.multiply(g, handler.multiply(h, k))
        assert element_distance(lhs, rhs) <= 1e-9
        assert element_distance(handler.multiply(g, ident), g) <= 1e-9
        assert element_distance(handler.multiply(g, handler.inverse(g)), ident) <= 1e-9
        x = handler.random_point(rng)
        r1 = handler.act(handler.multiply(g, h), x)
        r2 = handler.act(g, handler.act(h, x))
        assert verify.distance(r1, r2) <= 1e-9


@pytest.mark.parametrize("label", families.BASE_FAMILY_LABELS)
def test_faithfulness_probe(label):
    handler = build_family(label)
    rng = verify.rng_for(7, label)
    ident = handler.identity()
    for _ in range(5):
        g = handler.random_element(rng)
        if families.SPECS[label].distance(g, ident) < 1e-6:
            continue
        assert any(
            verify.distance(handler.act(g, handler.random_point(rng)), handler.random_point(rng)) >= 0
            for _ in range(1)
        )
        moved = any(
            verify.distance(handler.act(g, p), p) > 1e-6
            for p in (handler.random_point(rng) for _ in range(20))
        )
        assert moved


def test_d1_vector_addition():
    h = build_family("D1")
    assert h.multiply((1, 2), (3, 4)) == (4, 6)


def test_c8_composition_and_action():
    # a C8 element is the pair of affine maps (e^t z + v0, e^{alpha t} w + v1), in C3's group
    h = build_family("C8")
    g = h.multiply(families._c8_element(1.0, (0j, 0j), 2.0), families._c8_element(0j, (1.0, 1.0), 2.0))
    assert close(g[0][0], math.e) and close(g[1][0], math.e**2)
    assert close(g[0][1], math.e) and close(g[1][1], math.e**2)
    z, w = h.act(families._c8_element(1.0, (0j, 0j), 2.0), (1.0, 1.0))
    assert close(z, math.e) and close(w, math.e**2)


def test_c8_is_effective_at_rational_alpha():
    # at alpha = 2 the element (t, v) = (2 pi i, 0) moves no point: it is C8's identity, and compares so
    h, spec = build_family("C8"), families.SPECS["C8"]
    rng = verify.rng_for(3, "C8")
    points = [h.random_point(rng) for _ in range(50)]
    payload = {"t": {"re": 0.0, "im": 2 * math.pi}, "v": [0, 0]}
    g = cli.element_from_json("C8", dict(payload, alpha=2))
    assert spec.distance(g, h.identity()) <= EPS
    assert max(verify.distance(h.act(g, x), x) for x in points) <= EPS
    g = cli.element_from_json("C8", dict(payload, alpha={"re": 2.0, "im": 0.5}))  # the default alpha
    assert spec.distance(g, h.identity()) > EPS
    assert max(verify.distance(h.act(g, x), x) for x in points) > EPS


def test_d3_action():
    h = build_family("D3")
    z, w = h.act(families._d3_element(2.0, (0j, 0j)), (1.0, 1.0))
    assert close(z, 2.0) and close(w, 2.0)


def test_c2_translation_action():
    # the translation t = 1 of the first factor is the affine map (1, 1)
    h = build_family("C2")
    z, w = h.act(((1.0, 1.0), (1.0, 0j)), (0j, 0j))
    assert close(z, 1.0) and close(w, 0.0)


def test_quotient_policy_table():
    for label in ("A1", "A2", "A3", "C3", "C6", "C7", "C8", "D3", "Bγ1", "Bγ3", "Bγ4", "Bδ3", "Bδ4"):
        assert quotient_policy(label).kind == "none"
    for label in ("C2", "C5", "Bγ2", "D1", "D2", "Bβ1", "Bβ2", "C9", "Bδ1", "Bδ2"):
        assert quotient_policy(label).kind == "policy"
    assert "Delta" in quotient_policy("C5").description
    with pytest.raises(ValueError):
        quotient_policy("ZZZ")


def test_classify_d1_table_rows():
    assert classify_D1_subgroup([(1, 0)]).label == "D1_1"
    assert classify_D1_subgroup([(1, 0), (0, 1)]).label == "D1_2"
    got = classify_D1_subgroup([(1, 0), (1j, 0)])
    assert got.label == "D1_3" and close(got.tau, 1j)
    assert classify_D1_subgroup([(1, 0), (1j, 0), (0, 1)]).label == "D1_4"
    assert classify_D1_subgroup([]).label == "D1"
    assert classify_D1_subgroup([(1, 0), (1j, 0), (0, 1), (0, 2j)]).label == "D1_6"


def test_classify_d1_sigma_rows():
    # (1,0),(i,1),(0,1) contains (i,1)-(0,1) = (i,0): it *is* the D1_4 row
    assert classify_D1_subgroup([(1, 0), (1j, 1), (0, 1)]).label == "D1_4"
    got = classify_D1_subgroup([(1, 0), (0.3 + 1.1j, math.sqrt(2)), (0, 1)])
    assert got.label == "D1_5" and got.sigma is not None
    got2 = classify_D1_subgroup([(1, 0), (0.3 + 1.1j, 0.7 + math.sqrt(2) * 0.4j), (0, 1)])
    assert got2.label == "D1_5"
    # rationally commensurable sigma collapses onto the trivial-bundle row
    assert classify_D1_subgroup([(1, 0), (0.3 + 1.1j, 0.5), (0, 1)]).label == "D1_4"
    assert classify_D1_subgroup([(1, 0), (0.3 + 1.1j, 0.7 + 0.4j), (0, 1)]).label == "D1_4"


def test_classify_d1_gl_invariance(rng):
    labels = ("D1_1", "D1_2", "D1_3", "D1_4", "D1_5", "D1_6")
    for trial in range(60):
        name = labels[trial % len(labels)]
        gens, _ = verify.random_d1_generators(rng, name)
        while True:
            m = np.array(
                [
                    [complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())],
                    [complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())],
                ]
            )
            if abs(np.linalg.det(m)) > 0.3:
                break
        gg = [tuple(m @ np.array(v)) for v in gens]
        order = rng.permutation(len(gg))
        gg = [gg[i] for i in order]
        assert classify_D1_subgroup(gg).label == name


def test_classify_d1_rejects_non_discrete():
    with pytest.raises(NonDiscreteError):
        classify_D1_subgroup([(1, 0), (math.sqrt(2), 0), (math.sqrt(3), 0)])


def test_d1_6_needs_positive_imaginary_structure():
    got = classify_D1_subgroup([(1, 0), (1j, 0), (0, 1), (0, 0.3 + 1.2j)])
    assert got.label == "D1_6"
    assert len(got.generators) == 4


def test_build_family_takes_every_spelling_of_a_label():
    for label in families.BASE_FAMILY_LABELS:
        ascii_form = label.replace("β", "b").replace("γ", "g").replace("δ", "d")
        words = label.replace("β", "beta").replace("γ", "gamma").replace("δ", "delta")
        for spelling in {label, ascii_form, words}:
            assert families.family_label(spelling) == label
            assert getattr(build_family(spelling), "label", label) == label
    assert build_family("Bbeta1").label == "Bβ1"
    with pytest.raises(ValueError):
        build_family("Bbeta9")
