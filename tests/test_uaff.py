import cmath
import math

import numpy as np
import pytest

from homsurf.numeric import EPS, NonDiscreteError, close, distance
from homsurf.uaff import (
    CANONICAL_ROW,
    D2Label,
    IDENTITY,
    NONABELIAN_LABELS,
    UAffAutomorphism,
    UAffElement,
    aut_apply,
    center_intersection,
    classify_subgroup,
    commutator,
    normal_form_generators,
    product_cover,
    uaff_inverse,
    uaff_is_identity,
    uaff_matrix,
    uaff_multiply,
)

TPI = 2j * math.pi
OMEGA = cmath.exp(1j * math.pi / 3)


def test_multiply_identity():
    g = UAffElement(0.3 + 0.1j, -0.7j)
    assert distance(uaff_multiply(IDENTITY, g), g) <= EPS
    assert distance(uaff_multiply(g, IDENTITY), g) <= EPS


def test_multiply_matrix_oracle_values():
    # both frozen values computed from the 3x3 matrix representation
    got = uaff_multiply(UAffElement(1j * math.pi, 0), UAffElement(0, 1))
    assert distance(got, UAffElement(1j * math.pi, -1.0)) <= EPS
    got2 = uaff_multiply(UAffElement(math.log(2), 1), UAffElement(0, 3))
    assert distance(got2, UAffElement(math.log(2), 7.0)) <= EPS
    m = np.array(uaff_matrix(UAffElement(1j * math.pi, 0))) @ np.array(uaff_matrix(UAffElement(0, 1)))
    assert abs(m[0, 2] - (-1.0)) < 1e-12 and abs(m[1, 2] - 1j * math.pi) < 1e-12


def test_matrix_examples():
    assert np.allclose(uaff_matrix(IDENTITY), np.eye(3))
    m = uaff_matrix(UAffElement(0, 2.5j))
    assert np.allclose(m, np.array([[1, 0, 2.5j], [0, 1, 0], [0, 0, 1]]))
    m2 = uaff_matrix(UAffElement(1j * math.pi, 0))
    assert np.allclose(m2, np.array([[-1, 0, 0], [0, 1, 1j * math.pi], [0, 0, 1]]))


def test_matrix_homomorphism_random(rng):
    for _ in range(200):
        g = UAffElement(complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
        h = UAffElement(complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
        lhs = np.array(uaff_matrix(uaff_multiply(g, h)))
        rhs = np.array(uaff_matrix(g)) @ np.array(uaff_matrix(h))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_automorphism_examples():
    g = UAffElement(1j * math.pi, 0)
    assert distance(aut_apply(UAffAutomorphism(0, 1), g), g) <= EPS
    assert distance(aut_apply(UAffAutomorphism(1, 1), g), UAffElement(1j * math.pi, 2.0)) <= EPS
    beta = 2.0 - 1.0j
    assert distance(aut_apply(UAffAutomorphism(0, beta), UAffElement(0, 3)), UAffElement(0, 3 * beta)) <= EPS


def test_automorphism_homomorphism(rng):
    for _ in range(100):
        phi = UAffAutomorphism(
            complex(rng.normal(), rng.normal()), cmath.exp(complex(rng.normal(), rng.normal()))
        )
        g = UAffElement(complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
        h = UAffElement(complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
        lhs = aut_apply(phi, uaff_multiply(g, h))
        rhs = uaff_multiply(aut_apply(phi, g), aut_apply(phi, h))
        assert distance(lhs, rhs) <= 1e-10


def test_automorphism_composition(rng):
    p1 = UAffAutomorphism(0.3 - 1j, 1.5)
    p2 = UAffAutomorphism(-0.2j, 0.5 + 0.5j)
    g = UAffElement(0.7, -0.3j)
    # p2 after p1 is the automorphism (gamma2 + beta2 gamma1, beta2 beta1)
    composed = UAffAutomorphism(p2.gamma + p2.beta * p1.gamma, p2.beta * p1.beta)
    assert distance(aut_apply(composed, g), aut_apply(p2, aut_apply(p1, g))) <= EPS


def test_commutator_examples(rng):
    got = commutator(UAffElement(1j * math.pi, 0), UAffElement(0, 1))
    assert distance(got, UAffElement(0, -2.0)) <= EPS
    g = UAffElement(complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
    assert uaff_is_identity(commutator(g, g))
    tau = 0.3 + 1.2j
    got2 = commutator(g, UAffElement(0, tau))
    assert distance(got2, UAffElement(0, (cmath.exp(g.a) - 1) * tau)) <= 1e-10


def test_classify_table_rows():
    cases = [
        ([UAffElement(0, 1)], "D2_1"),
        ([UAffElement(0, 1), UAffElement(0, 1j)], "D2_2"),
        ([UAffElement(TPI, 1)], "D2_3"),
        ([UAffElement(2 * TPI, 0.25), UAffElement(0, 1)], "D2_4"),
        ([UAffElement(TPI, 0.4 + 0.2j), UAffElement(0, 1), UAffElement(0, 0.1 + 1.3j)], "D2_5"),
        ([UAffElement(0.7 + 0.2j, 0)], "D2_6"),
        ([UAffElement(1j * math.pi, 0), UAffElement(0, 1)], "D2_7"),
        ([UAffElement(1j * math.pi, 0), UAffElement(0, 1), UAffElement(0, 0.2 + 1.4j)], "D2_8"),
        ([UAffElement(1j * math.pi * 2.5, 0), UAffElement(0, 1), UAffElement(0, 1j)], "D2_9"),
        ([UAffElement(TPI * (1 + 1 / 6), 0), UAffElement(0, 1), UAffElement(0, OMEGA)], "D2_10"),
        ([UAffElement(TPI * (2 / 6), 0), UAffElement(0, 1), UAffElement(0, OMEGA)], "D2_11"),
        ([UAffElement(1.0, 0), UAffElement(1j, 0)], "D2_14"),
        ([], "D2"),
    ]
    for gens, want in cases:
        label, _ = classify_subgroup(gens)
        assert label.name == want, (want, label.name)


def test_classify_gray_row_parameter():
    label, _ = classify_subgroup([UAffElement(1j * math.pi, 0), UAffElement(0, 1)])
    assert label.name == "D2_7" and label.k == 0


def test_classify_presented_with_inverted_generator():
    # phases 4/6 and 5/6 generate the same subgroups as 2/6 and 1/6
    label, _ = classify_subgroup(
        [UAffElement(TPI * (4 / 6), 0), UAffElement(0, 1), UAffElement(0, OMEGA)]
    )
    assert label.name == CANONICAL_ROW["D2_12"] == "D2_11"
    label2, _ = classify_subgroup(
        [UAffElement(TPI * (5 / 6), 0), UAffElement(0, 1), UAffElement(0, OMEGA)]
    )
    assert label2.name == CANONICAL_ROW["D2_13"] == "D2_10"


def test_classify_rejects_non_discrete():
    with pytest.raises(NonDiscreteError):
        classify_subgroup([UAffElement(1.0, 0), UAffElement(math.sqrt(2), 0)])
    with pytest.raises(NonDiscreteError):
        classify_subgroup([UAffElement(0, 1), UAffElement(0, math.sqrt(2))])


def test_classify_stability_under_automorphism_and_products(rng):
    names = [f"D2_{i}" for i in range(1, 15)]
    for trial in range(60):
        name = names[trial % len(names)]
        k = int(rng.integers(1, 4))
        label = D2Label(
            name,
            k=k,
            b=complex(rng.normal(), rng.normal()),
            tau=complex(rng.uniform(-0.4, 0.4), rng.uniform(0.9, 1.5)),
            a=complex(rng.normal(), rng.normal()) + 0.4,
            a1=1.0 + 0j,
            a2=complex(rng.uniform(-0.4, 0.4), rng.uniform(0.9, 1.5)),
        )
        gens = list(normal_form_generators(label))
        phi = UAffAutomorphism(
            complex(rng.normal(), rng.normal()),
            cmath.exp(complex(rng.normal(), rng.normal()) * 0.6),
        )
        gens = [aut_apply(phi, g) for g in gens]
        for _ in range(5):
            i = int(rng.integers(len(gens)))
            j = int(rng.integers(len(gens)))
            if i != j:
                gens[i] = uaff_multiply(gens[i], gens[j])
            else:
                gens[i] = uaff_inverse(gens[i])
        got, _ = classify_subgroup(gens)
        assert got.name == CANONICAL_ROW[name], (name, got.name)


def test_nonabelian_rows_have_nonvanishing_commutators():
    for name in [f"D2_{i}" for i in range(1, 15)]:
        label = D2Label(name, k=1, b=0.3, tau=0.2 + 1.1j, a=0.9 + 0.4j, a1=1.0, a2=0.3 + 1.2j)
        gens = normal_form_generators(label)
        some = any(
            not uaff_is_identity(commutator(x, y)) for x in gens for y in gens
        )
        assert some == (name in NONABELIAN_LABELS), name


def test_center_intersection_table():
    assert uaff_is_identity(center_intersection(D2Label("D2_1")))
    assert uaff_is_identity(center_intersection(D2Label("D2_3", k=2)))
    got = center_intersection(D2Label("D2_4", k=1, b=0.5 + 0j))
    assert distance(got, UAffElement(4j * math.pi, 0)) <= EPS
    assert uaff_is_identity(center_intersection(D2Label("D2_4", k=1, b=math.sqrt(2))))
    got = center_intersection(D2Label("D2_7", k=0))
    assert distance(got, UAffElement(TPI, 0)) <= EPS
    got = center_intersection(D2Label("D2_6", a=TPI * 2 / 3))
    assert distance(got, UAffElement(TPI * 2, 0)) <= EPS
    assert uaff_is_identity(center_intersection(D2Label("D2_6", a=TPI * math.sqrt(2))))
    # sixth-root rows: q * a lands in the center after q steps
    got = center_intersection(D2Label("D2_10", k=1))
    assert distance(got, UAffElement(TPI * 7, 0)) <= EPS
    got = center_intersection(D2Label("D2_11", k=1))
    assert distance(got, UAffElement(TPI * 4, 0)) <= EPS
    got = center_intersection(D2Label("D2_9", k=1))
    assert distance(got, UAffElement(TPI * 3, 0)) <= EPS


def test_center_intersection_d2_14():
    label = D2Label("D2_14", a1=3j * math.pi, a2=1.7 + 0j)
    assert center_intersection(label) == UAffElement(6j * math.pi, 0)
    label2 = D2Label("D2_14", a1=1.0 + 0j, a2=0.3 + 1.2j)
    assert uaff_is_identity(center_intersection(label2))


def test_center_intersection_d2_14_needs_no_small_combination():
    # 41 a1 = 2 pi i: a combination beyond |m|, |n| <= 30
    label = D2Label("D2_14", a1=TPI / 41, a2=1.7 + 0j)
    assert center_intersection(label) == UAffElement(TPI, 0)


def test_center_intersection_d2_14_is_on_the_positive_axis(rng):
    # a2 = (2 pi i k - m a1) / n with m, n coprime: the center is generated by 2 pi i |k|
    for _ in range(12):
        a1 = complex(rng.normal(), rng.normal())
        m, n = rng.choice([(1, 2), (3, 5), (-2, 7), (4, -9), (-5, -6)])
        k = int(rng.integers(1, 4)) * int(rng.choice([-1, 1]))
        label = D2Label("D2_14", a1=a1, a2=(TPI * k - m * a1) / n)
        assert center_intersection(label) == UAffElement(TPI * abs(k), 0), (a1, m, n, k)


def test_center_intersection_d2_14_rejects_a_non_lattice():
    for a1, a2 in ((TPI, TPI * math.sqrt(2)), (1.0 + 2.0j, 3.0 + 6.0j), (1.0, 0.0)):
        with pytest.raises(NonDiscreteError):
            center_intersection(D2Label("D2_14", a1=a1, a2=a2))


def test_center_intersection_d2_5_rational_combination():
    tau = 0.25 + 1.25j
    label = D2Label("D2_5", k=1, b=(1 + 2 * tau) / 3, tau=tau)
    got = center_intersection(label)
    assert distance(got, UAffElement(TPI * 3, 0)) <= EPS
    label2 = D2Label("D2_5", k=1, b=math.sqrt(2) + math.sqrt(3) * tau, tau=tau)
    assert uaff_is_identity(center_intersection(label2))


def test_product_cover_examples():
    img = product_cover(D2Label("D2_1"), UAffElement(0, 1))
    assert close(img[0], 0.0) and close(img[1], 1.0)
    label = D2Label("D2_6", a=0.9 + 0.3j)
    p = UAffElement(0.2 - 0.4j, 0.7)
    base = product_cover(label, p)
    shifted = product_cover(label, uaff_multiply(p, UAffElement(label.a, 0)))
    assert close(base[0], shifted[0]) and close(base[1], shifted[1])


def test_product_cover_coset_invariance(rng):
    label = D2Label("D2_3", k=2)
    gens = normal_form_generators(label)
    for _ in range(50):
        p = UAffElement(complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
        img = product_cover(label, p)
        for g in gens:
            img2 = product_cover(label, uaff_multiply(p, g))
            assert close(img[0], img2[0], tol=1e-8) and close(img[1], img2[1], tol=1e-8)


def test_product_cover_nonabelian_rejected():
    with pytest.raises(ValueError, match="nontrivial"):
        product_cover(D2Label("D2_7", k=0), IDENTITY)


def test_normal_form_rows_without_k_build_their_generators():
    # labels the classifier returns: the rows that read no k built every other row, k = None included
    assert normal_form_generators(D2Label("D2_1")) == [UAffElement(0, 1)]
    assert normal_form_generators(D2Label("D2_6", a=1j)) == [UAffElement(1j, 0)]
    assert center_intersection(D2Label("D2_1")) == IDENTITY
    assert center_intersection(D2Label("D2_6", a=1j)) == IDENTITY


@pytest.mark.parametrize(
    "label, missing",
    [
        (D2Label("D2_2"), "tau"),
        (D2Label("D2_3", b=1.0), "k"),
        (D2Label("D2_4", k=1), "b"),
        (D2Label("D2_5", k=1, b=0.5), "tau"),
        (D2Label("D2_6", k=1), "a"),
        (D2Label("D2_9"), "k"),
        (D2Label("D2_14", a1=1.0), "a2"),
    ],
)
def test_normal_form_row_names_a_missing_parameter(label, missing):
    with pytest.raises(ValueError, match=f"row {label.name} needs the parameter {missing}"):
        normal_form_generators(label)


@pytest.mark.parametrize(
    "label, missing",
    [
        (D2Label("D2_2"), "tau"),
        (D2Label("D2_3", b=1.0), "k"),
        (D2Label("D2_4", k=1), "b"),
        (D2Label("D2_5", k=1, b=0.5), "tau"),
        (D2Label("D2_6", k=1), "a"),
        (D2Label("D2_14", a1=1.0), "a2"),
    ],
)
def test_product_cover_names_a_missing_parameter(label, missing):
    with pytest.raises(ValueError, match=f"row {label.name} needs the parameter {missing}"):
        product_cover(label, UAffElement(0.1j, 0.5))


@pytest.mark.parametrize(
    "label, missing",
    [
        (D2Label("D2_2"), "tau"),
        (D2Label("D2_3"), "k"),
        (D2Label("D2_4", k=1), "b"),
        (D2Label("D2_5", k=1, b=0.5), "tau"),
        (D2Label("D2_6"), "a"),
        (D2Label("D2_7"), "k"),
        (D2Label("D2_14", a1=1.0), "a2"),
    ],
)
def test_center_intersection_names_a_missing_parameter(label, missing):
    with pytest.raises(ValueError, match=f"row {label.name} needs the parameter {missing}"):
        center_intersection(label)


@pytest.mark.parametrize(
    "fn",
    [center_intersection, normal_form_generators, lambda label: product_cover(label, IDENTITY)],
    ids=["center_intersection", "normal_form_generators", "product_cover"],
)
def test_an_unknown_label_is_a_value_error(fn):
    with pytest.raises(ValueError, match="unknown label D2_99"):
        fn(D2Label("D2_99"))
