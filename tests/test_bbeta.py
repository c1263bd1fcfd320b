import cmath
import math

import pytest

from homsurf import verify
from homsurf.bbeta import (
    BBeta1Label,
    CentralizerElement,
    RGDElement,
    _canonical_line_data,
    cent_act,
    cent_inverse,
    cent_multiply,
    classify_pi,
    inner_morphism,
    lam_exponent,
    quotient_cover,
    random_gd,
    random_rgd,
    rescaling_morphism,
    rgd_act,
    rgd_identity,
    rgd_inverse,
    rgd_multiply,
    shear_morphism,
    translation_morphism,
)
from homsurf.divisor import Divisor
from homsurf.exppoly import ExpPoly, Polynomial, contains, random_member
from homsurf.numeric import EPS, close, distance
from homsurf.qd import DivisorError, holds

TPI = 2j * math.pi
D_DOUBLE = Divisor([(0.0, 2)])
D_LINE = Divisor([(0.0, 1), (TPI, 1)])


def z_poly():
    return ExpPoly.from_poly(Polynomial((0.0, 1.0)))


def gd(D, t, f):
    """The G_D element (t, f): the element of rG_D with lam = 1."""
    return RGDElement(D, t, 1, f)


def test_gd_identity_law(rng):
    g = random_gd(D_DOUBLE, rng)
    assert g.lam == 1
    assert verify.distance(rgd_multiply(rgd_identity(D_DOUBLE), g), g) < 1e-12


def test_gd_multiply_example():
    g = gd(D_DOUBLE, 1.0, z_poly())
    gg = rgd_multiply(g, g)
    assert close(gg.t, 2.0) and gg.lam == 1
    assert distance(gg.f, ExpPoly.from_poly(Polynomial((-1.0, 2.0)))) <= EPS
    # pointwise-composition oracle
    z, w = 0.37 - 0.21j, -0.4 + 0.9j
    once = rgd_act(g, rgd_act(g, (z, w)))
    both = rgd_act(gg, (z, w))
    assert verify.distance(once, both) < 1e-12


def test_gd_inverse_cancels(rng):
    g = random_gd(D_DOUBLE, rng)
    prod = rgd_multiply(g, rgd_inverse(g))
    assert close(prod.t, 0.0) and prod.lam == 1 and prod.f.is_zero


def test_gd_act_examples():
    g = gd(D_DOUBLE, 1.0, z_poly())
    assert verify.distance(rgd_act(rgd_identity(D_DOUBLE), (0.3, 0.7)), (0.3, 0.7)) < 1e-14
    assert verify.distance(rgd_act(g, (0.0, 0.0)), (1.0, 1.0)) < 1e-12
    h = gd(D_LINE, 0.0, ExpPoly.exponential(TPI))
    assert verify.distance(rgd_act(h, (0.0, 0.0)), (0.0, 1.0)) < 1e-12


def test_gd_divisor_mismatch():
    g = gd(D_DOUBLE, 0.0, z_poly())
    h = gd(D_LINE, 0.0, ExpPoly.zero())
    with pytest.raises(ValueError, match="mismatch"):
        rgd_multiply(g, h)


def test_degree_one_divisors_rejected():
    with pytest.raises(ValueError, match="degree-one"):
        gd(Divisor([(0.0, 1)]), 0.0, ExpPoly.zero())


def test_gd_membership_not_in_vd():
    with pytest.raises(ValueError, match="solution space"):
        gd(D_DOUBLE, 0.0, ExpPoly.exponential(1.0))


def test_vd_closure_exact(rng):
    D = Divisor([(0.2 + 0.4j, 2), (-0.3, 1)])
    for _ in range(30):
        g = random_gd(D, rng)
        h = random_gd(D, rng)
        assert contains(D, rgd_multiply(g, h).f)


def test_rgd_examples(rng):
    assert close(rgd_multiply(RGDElement(D_DOUBLE, 0, 2.0, ExpPoly.zero()),
                              RGDElement(D_DOUBLE, 0, 3.0, ExpPoly.zero())).lam, 6.0)
    r = RGDElement(D_DOUBLE, 1.0, 2.0, z_poly())
    assert verify.distance(rgd_act(r, (0.0, 5.0)), (1.0, 11.0)) < 1e-12
    ident = rgd_identity(D_DOUBLE)
    g = random_rgd(D_DOUBLE, rng)
    assert verify.distance(rgd_multiply(g, ident), g) < 1e-12


def test_centralizer_examples():
    c = CentralizerElement(D_LINE, 1.0, 0.0)
    assert verify.distance(cent_act(c, (0.25, 0.75)), (1.25, 0.75)) < 1e-12
    s = CentralizerElement(D_LINE, 0.0, 0.5j)
    assert verify.distance(cent_act(s, (0.25, 0.75)), (0.25, 0.75 + 0.5j)) < 1e-12
    Dpi = Divisor([(1j * math.pi, 1), (3j * math.pi, 1)])
    c1 = CentralizerElement(Dpi, 1.0, 1.0)
    prod = cent_multiply(c1, c1)
    assert close(prod.w, 2.0) and close(prod.s, 0.0)
    inv = cent_inverse(c1)
    back = cent_multiply(c1, inv)
    assert close(back.w, 0.0) and close(back.s, 0.0)
    with pytest.raises(ValueError, match="quasiperiod"):
        CentralizerElement(D_LINE, 0.37, 0.0)


def test_centralizer_commutes_with_gd(rng):
    D = D_LINE
    for _ in range(100):
        g = random_gd(D, rng, scale=0.4)
        k = int(rng.integers(-2, 3))
        c = CentralizerElement(D, k, complex(rng.normal(), rng.normal()))
        x = (complex(rng.normal(), rng.normal()) * 0.4, complex(rng.normal(), rng.normal()) * 0.4)
        lhs = cent_act(c, rgd_act(g, x))
        rhs = rgd_act(g, cent_act(c, x))
        assert verify.distance(lhs, rhs) <= 1e-9


def test_morphism_kind2_identity_pair(rng):
    D = Divisor([(0.5, 1), (1.0, 1)])
    mor = rescaling_morphism(D, mu=1.0, nu=1.0)
    g = random_gd(D, rng)
    x = (0.3, -0.2j)
    assert verify.distance(mor.delta(x), x) < 1e-12
    assert verify.distance(mor.h(g), g) < 1e-12
    assert mor.target == D


def test_morphism_kind2_rescales_divisor():
    D = Divisor([(1.0, 1), (2.0, 1)])
    mor = rescaling_morphism(D, mu=2.0, nu=1.5)
    assert mor.target == Divisor([(2.0, 1), (4.0, 1)])


def test_morphism_kind3_rgd_shifts_divisor():
    mor = translation_morphism(D_DOUBLE, 1.0)
    assert mor.target == Divisor([(1.0, 2)])
    z, w = 0.4, 0.7
    dz, dw = mor.delta((z, w))
    assert close(dz, z) and close(dw, cmath.exp(z) * w)


def test_morphism_kind3_requires_membership():
    with pytest.raises(ValueError, match="solution space"):
        shear_morphism(D_DOUBLE, ExpPoly.exponential(1.0))


def test_shear_refuses_an_element_outside_gd(rng):
    mor = shear_morphism(D_DOUBLE, z_poly())
    assert mor.h(random_gd(D_DOUBLE, rng)).lam == 1
    with pytest.raises(ValueError, match="G_D only"):
        mor.h(random_rgd(D_DOUBLE, rng))


def test_morphism_constructors_refuse_bad_parameters():
    with pytest.raises(ValueError, match="nonzero"):
        rescaling_morphism(D_DOUBLE, mu=0.0, nu=1.0)
    with pytest.raises(ValueError, match="nonzero"):
        rescaling_morphism(D_DOUBLE, mu=1.0, nu=0.0)
    with pytest.raises(ValueError, match="degree-one"):
        translation_morphism(Divisor([(0.0, 1)]), 1.0)


@pytest.mark.parametrize("group", ["gd", "rgd"])
@pytest.mark.parametrize("kind", [1, 2, 3])
def test_morphism_equivariance(group, kind, rng):
    D = Divisor([(0.2 + 0.3j, 2), (-0.4, 1)])
    rand = random_gd if group == "gd" else random_rgd
    if kind == 1:
        mor = inner_morphism(rand(D, rng, scale=0.5))
    elif kind == 2:
        mu = cmath.exp(complex(rng.normal(), rng.normal()) * 0.4)
        nu = cmath.exp(complex(rng.normal(), rng.normal()) * 0.4)
        mor = rescaling_morphism(D, mu, nu)
    elif group == "gd":
        mor = shear_morphism(D, random_member(D.plus_point(0j), rng, scale=0.5))
    else:
        mor = translation_morphism(D, complex(rng.normal(), rng.normal()) * 0.4)
    for _ in range(40):
        g = rand(D, rng, scale=0.5)
        x = (complex(rng.normal(), rng.normal()) * 0.5, complex(rng.normal(), rng.normal()) * 0.5)
        lhs = mor.delta(rgd_act(g, x))
        rhs = rgd_act(mor.h(g), mor.delta(x))
        assert verify.distance(lhs, rhs) <= 1e-9


def test_cover_b_periodicity():
    lab = BBeta1Label("B", D_LINE, n=1)
    cov = quotient_cover(lab)
    p1 = cov.cover(0.3 + 0.1j, 0.7)
    p2 = cov.cover(1.3 + 0.1j, 0.7)
    assert cov.equal(p1, p2)


def test_cover_c_example():
    D = Divisor([(TPI, 1), (2 * TPI, 1)])
    cov = quotient_cover(BBeta1Label("C", D, n=1))
    Z, W = cov.cover(0.2, 0.4)
    assert close(Z, cmath.exp(TPI * 0.2)) and close(W, 0.4 - 0.2)
    assert cov.equal(cov.cover(0.2, 0.4), cov.cover(1.2, 1.4))


def test_cover_d_double_periodicity():
    cov = quotient_cover(BBeta1Label("D", D_LINE, n=1))
    base = cov.cover(0.2, 0.4)
    assert cov.equal(base, cov.cover(1.2, 0.4))
    assert cov.equal(base, cov.cover(0.2, 1.4))
    Z, W = base
    assert close(Z, cmath.exp(TPI * 0.2)) and close(W, cmath.exp(TPI * 0.4))


def test_cover_constraint_violations():
    with pytest.raises(ValueError, match="lam = 0"):
        quotient_cover(BBeta1Label("D", Divisor([(0.5, 1), (0.5 + TPI, 1)]), n=1))
    with pytest.raises(ValueError, match="e..lam n. = -1"):
        quotient_cover(BBeta1Label("F", D_LINE, n=1))
    with pytest.raises(ValueError, match="normalized shape"):
        quotient_cover(BBeta1Label("B", Divisor([(0.0, 1), (1.0, 1)]), n=1))
    with pytest.raises(ValueError, match="upper half"):
        quotient_cover(BBeta1Label("G", D_LINE, n=1, tau=-1j))


def test_all_covers_equivariant(rng):
    for label in verify.sample_cover_labels(rng):
        cov = quotient_cover(label)
        for _ in range(25):
            g, x = verify._cover_sample(rng, label.divisor)
            lhs = cov.cover(*rgd_act(g, x))
            rhs = cov.act(g, cov.cover(*x))
            assert cov.equal(lhs, rhs), label.name
            for pg in cov.pi_generators():
                y = cent_act(pg, x)
                assert cov.equal(cov.cover(*y), cov.cover(*x)), label.name
            assert cov.jacobian_ok(*x), label.name


def test_orbit_cover_equality_f():
    D = Divisor([(1j * math.pi, 1), (1j * math.pi + TPI, 1)])  # e^{lam} = -1, n = 1
    cov = quotient_cover(BBeta1Label("F", D, n=1))
    p = cov.cover(0.3, 0.4)
    q = cov.cover(0.3 + 1, -0.4 + 2)  # (z + n, -w + s), s in Z
    assert cov.equal(p, q)
    assert not cov.equal(p, cov.cover(0.3 + 1, 0.4))


def test_cover_a_examples(rng):
    # rank-one Delta on a divisor with positive degree at the origin
    covA1 = quotient_cover(BBeta1Label("A1", D_LINE, delta=(1.0 + 0j,)))
    base = covA1.cover(0.3, 0.4)
    assert covA1.equal(base, covA1.cover(0.3, 1.4))
    assert not covA1.equal(base, covA1.cover(0.3, 0.9))
    # rank-two Delta on a divisor avoiding the origin
    E = Divisor([(0.5, 1), (0.5 + TPI, 1)])
    tau = 0.2 + 1.1j
    covA0 = quotient_cover(BBeta1Label("A0", E, delta=(1.0 + 0j, tau)))
    b2 = covA0.cover(0.3, 0.4)
    assert covA0.equal(b2, covA0.cover(0.3, 0.4 + 1 + tau))
    for cov, D in ((covA1, D_LINE), (covA0, E)):
        for _ in range(20):
            g, x = verify._cover_sample(rng, D)
            lhs = cov.cover(*rgd_act(g, x))
            rhs = cov.act(g, cov.cover(*x))
            assert cov.equal(lhs, rhs)
    with pytest.raises(ValueError, match="positive degree"):
        quotient_cover(BBeta1Label("A1", E, delta=(1.0 + 0j,)))
    with pytest.raises(ValueError, match="zero degree"):
        quotient_cover(BBeta1Label("A0", D_LINE, delta=(1.0 + 0j,)))


@pytest.mark.parametrize(
    "delta",
    [(0j,), (1.0 + 0j, 0j), (0j, 1j), (1.0 + 0j, 2.0 + 0j), (1j, -3j)],
    ids=["zero", "zero-second", "zero-first", "real-line", "imaginary-line"],
)
def test_cover_a_rejects_a_degenerate_delta(delta):
    # a zero generator, or two generators spanning no lattice of C
    with pytest.raises(ValueError):
        quotient_cover(BBeta1Label("A1", D_LINE, delta=delta))


@pytest.mark.parametrize(
    "label, field",
    [
        (BBeta1Label("B", D_LINE), "n"),
        (BBeta1Label("G", D_LINE, n=1), "tau"),
        (BBeta1Label("E", Divisor([(TPI, 1), (2 * TPI, 1)]), n=1), "s"),
        (BBeta1Label("H", Divisor([(TPI, 1), (2 * TPI, 1)]), n=1, tau=1j), "s"),
        (BBeta1Label("H", Divisor([(TPI, 1), (2 * TPI, 1)]), n=1, s=0.5), "tau"),
        (BBeta1Label("I", Divisor([(1j * math.pi, 1), (1j * math.pi + TPI, 1)]), n=1), "tau"),
    ],
    ids=["B-n", "G-tau", "E-s", "H-s", "H-tau", "I-tau"],
)
def test_cover_names_a_missing_parameter(label, field):
    with pytest.raises(ValueError, match=f"example {label.name} needs the cover parameter '{field}'"):
        quotient_cover(label)


# sha256 of repr(quotient_cover(label).pi_generators()), one line per label of
# verify.sample_cover_labels: the deck generators' values and number types, which
# the classify-mix benchmark builds its inputs from
PI_GENERATORS_SHA256 = {
    0: "ec7bc978d3883e4c0e0fdc5405f602daa99221ee182aa8efa57d7e41cb4e2816",
    1: "aa865cc55e3c13b16c7f0e5abe173d06c9ba4873d61538524e496191bbb999c8",
    2: "4621a4a44a450ac2070910c48633442e4b47384264d5e0612ba92b586718e0f8",
    3: "2afe068b4af8f675c95283c89065f4923432a332fb6cba940ba78c972000972b",
    4: "d2f8c76b4201b98ec4c1db82609b1140cd0e2b82bce915047f001170f65c423a",
    5: "ec1b8cbba800ac604a1301fd08f6110dd04797d16909efae8d1385aaba87c520",
    6: "d4d636d342cb0c8d5ef5deea2129601f89d9a3e61aadf7243c1c4cde48bcecad",
    7: "eeb42049a3539772e3afb265ce6756370d63a8908efc6ceae4389273bd52b436",
}


@pytest.mark.parametrize("seed", sorted(PI_GENERATORS_SHA256))
def test_pi_generators_match_the_digest(seed):
    import hashlib

    import numpy as np

    labels = verify.sample_cover_labels(np.random.default_rng(seed))
    text = "".join(repr(quotient_cover(label).pi_generators()) + "\n" for label in labels)
    assert hashlib.sha256(text.encode()).hexdigest() == PI_GENERATORS_SHA256[seed]


def test_classify_pi_examples():
    res = classify_pi(
        [CentralizerElement(D_LINE, 1, 0), CentralizerElement(D_LINE, 0, 1)], D_LINE
    )
    assert res.label.name == "D" and res.table_row == "Bβ1D"
    res = classify_pi([CentralizerElement(D_LINE, 2.0, 0)], D_LINE)
    assert res.label.name == "B" and res.label.n == 2
    res = classify_pi([CentralizerElement(D_LINE, 0, 0.5j)], D_LINE)
    assert res.label.name == "A1"  # positive degree at the origin
    E = Divisor([(0.5, 1), (0.5 + TPI, 1)])
    res = classify_pi([CentralizerElement(E, 0, 1.0)], E)
    assert res.label.name == "A0"
    res = classify_pi([], D_LINE)
    assert res.label.name == "trivial"


def test_classify_pi_all_labels_roundtrip(rng):
    from homsurf.bbeta import table_automorphism

    for _ in range(6):
        for label in verify.sample_cover_labels(rng):
            cov = quotient_cover(label)
            conj = table_automorphism(
                label.divisor,
                nu=cmath.exp(complex(rng.normal(), rng.normal()) * 0.5),
                t=complex(rng.normal(), rng.normal()),
            )
            gens = [conj(g) for g in cov.pi_generators()]
            got = classify_pi(gens, label.divisor)
            assert got.label.name == label.name, (label.name, got.label.name)


def test_table_automorphism_rows():
    from homsurf.bbeta import table_automorphism

    # exponential row: shift enters through 1 - e^{lam k}
    Dexp = Divisor([(0.4j, 1), (0.4j + TPI, 1)])
    conj = table_automorphism(Dexp, nu=2.0, t=1.0)
    g = conj(CentralizerElement(Dexp, 1.0, 0.5))
    assert close(g.s, 2.0 * 0.5 + (1 - cmath.exp(0.4j)))
    # linear row for the [0] + sum [2 pi i k_j] shape
    conj0 = table_automorphism(D_LINE, nu=1.0, t=0.25)
    g0 = conj0(CentralizerElement(D_LINE, 2.0, 0.0))
    assert close(g0.s, 0.5)
    # rescale-only row: lam a nonzero multiple of 2 pi i
    Drow3 = Divisor([(TPI, 1), (2 * TPI, 1)])
    conj3 = table_automorphism(Drow3, nu=3.0, t=5.0)
    g3 = conj3(CentralizerElement(Drow3, 1.0, 0.2))
    assert close(g3.s, 0.6)
    # conjugation preserves zero-set commutation: still a valid quasiperiod pair
    assert close(conj3(CentralizerElement(Drow3, 0.0, 1.0)).s, 3.0)


def test_cover_c_negative_exponent():
    # lam = -2 pi i / n gives Laurent exponents in the induced action
    n = 2
    D = Divisor([(-TPI / n, 1), (-TPI / n + TPI, 1)])
    cov = quotient_cover(BBeta1Label("C", D, n=n))
    lam, _ = _canonical_line_data(D)
    assert lam_exponent(lam, n) == -1
    rng2 = __import__("numpy").random.default_rng(5)
    for _ in range(20):
        g, x = verify._cover_sample(rng2, D)
        lhs = cov.cover(*rgd_act(g, x))
        rhs = cov.act(g, cov.cover(*x))
        assert cov.equal(lhs, rhs)


def test_classify_pi_rescaled_divisor(rng):
    # same subgroup handed over in unnormalized coordinates
    mu = 0.7 - 0.4j
    D = D_LINE.scaled(1.0 / mu)  # quasiperiod generator becomes mu... and back
    from homsurf.divisor import quasiperiod_group

    qg = quasiperiod_group(D)
    assert qg.kind == "rank1"
    gen = qg.generator
    res = classify_pi(
        [CentralizerElement(D, gen, 0), CentralizerElement(D, 0, 1)], D
    )
    assert res.label.name == "D"
    assert not close(res.normalizer["mu"], 1.0)


def test_rgd_quotient_cover():
    cov = quotient_cover(BBeta1Label("Bb2", D_LINE, n=1))  # row Bβ2′
    assert cov.equal(cov.cover(0.3, 0.5), cov.cover(1.3, 0.5))
    g = RGDElement(D_LINE, 1.0, 1.0, ExpPoly.zero())  # the quotiented generator (n,1,0)
    p = cov.cover(0.2, 0.4)
    assert cov.equal(cov.act(g, p), cov.cover(*rgd_act(g, (0.2, 0.4))))
    cov2 = quotient_cover(BBeta1Label("Bb2", D_LINE, n=2))
    assert not cov2.equal(cov2.cover(0.2, 0.4), cov2.cover(1.2, 0.4))
    assert cov2.equal(cov2.cover(0.2, 0.4), cov2.cover(2.2, 0.4))
    with pytest.raises(ValueError, match="no quotients"):
        quotient_cover(BBeta1Label("Bb2", Divisor([(0.0, 2)]), n=1))


def _two_passes(label):
    """classify_pi's label of the cover's deck generators, then its label of that label's."""
    first = classify_pi(quotient_cover(label).pi_generators(), label.divisor).label
    return first, classify_pi(quotient_cover(first).pi_generators(), first.divisor).label


def _sample_label(seed, name):
    import numpy as np

    (label,) = [x for x in verify.sample_cover_labels(np.random.default_rng(seed)) if x.name == name]
    return label


@pytest.mark.parametrize("name", "BCDEFGI")
@pytest.mark.parametrize("seed", range(8))
def test_classify_pi_of_its_own_normal_form_is_a_fixed_point(seed, name):
    first, second = _two_passes(_sample_label(seed, name))
    assert first.name == name
    assert second == first


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2 (normal forms that are not canonical): classify_pi negates the s of H on every pass",
)
@pytest.mark.parametrize("seed", range(8))
def test_classify_pi_of_its_own_normal_form_is_a_fixed_point_for_h(seed):
    first, second = _two_passes(_sample_label(seed, "H"))
    assert first.name == second.name == "H"
    assert second == first


def test_classify_pi_removes_s_by_a_shift_when_lam_is_0():
    # lam = 0 and a trivial kernel: the shift t = -s / n conjugates (2, 0.7 + 0.2i) to (2, 0), row B0
    res = classify_pi([CentralizerElement(D_LINE, 2, 0.7 + 0.2j)], D_LINE)
    assert res.table_row == "Bβ1B0" and res.label.name == "B" and res.label.n == 2
    assert close(res.normalizer["t"], -0.35 - 0.1j)


@pytest.mark.parametrize("seed", range(4))
def test_only_example_b_takes_lam_not_1_along(seed):
    """The rescaling of rG_D descends to example B's quotient (and Bβ2′, example B) only.  The induced
    action of every other row refuses an element with lam != 1: acting on one returned a point that broke
    equivariance (C, D, E, G, H, A0, A1) or that told deck-equivalent points apart (F and I)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    E = Divisor([(0.5, 1), (0.5 + TPI, 1)])
    labels = verify.sample_cover_labels(rng) + [
        BBeta1Label("A0", E, delta=(1.0 + 0j,)),
        BBeta1Label("A0", E, delta=(1.0 + 0j, 0.2 + 1.1j)),
        BBeta1Label("A1", D_LINE, delta=(1.0 + 0j,)),
        BBeta1Label("Bb2", D_LINE, n=2),
    ]
    for label in labels:
        cov = quotient_cover(label)
        for lam in (2.0, 1.5):
            g, x = verify._cover_sample(rng, label.divisor)
            g = RGDElement(g.divisor, g.t, lam, g.f)
            if label.name in ("B", "Bb2"):
                assert cov.equal(cov.cover(*rgd_act(g, x)), cov.act(g, cov.cover(*x))), label.name
            else:
                with pytest.raises(ValueError, match=f"^only G_D acts on example {label.name}: lam must be 1$"):
                    cov.act(g, cov.cover(*x))


def test_holds_refuses_a_condition_it_does_not_know():
    assert holds("e^{lam n} = 1", 0j, 1) and not holds("e^{lam n} != 1", 0j, 1)
    assert holds("e^{lam n} = 1", 0j) is None  # it reads n
    for test in ("e^{lam n} = 2", "example D requires lam = 0", ""):
        with pytest.raises(ValueError, match="^unknown condition"):
            holds(test, 0j, 1, 1j, 0)


def test_a_fault_of_the_divisor_is_a_divisor_error():
    # what `act --cover` names `element.divisor`: the shape, and the conditions that read neither n nor tau
    D_HALF = Divisor([(0.5, 1), (0.5 + TPI, 1)])
    labels = [BBeta1Label("D", D_HALF, n=1), BBeta1Label("Bb2", D_HALF), BBeta1Label("G", D_DOUBLE, n=1, tau=1j)]
    for label in labels + [BBeta1Label("A0", D_LINE, delta=(1.0 + 0j,))]:
        with pytest.raises(DivisorError):
            quotient_cover(label)
    with pytest.raises(ValueError, match="^example B0 requires e\\^\\{lam n\\} = 1$") as caught:
        quotient_cover(BBeta1Label("B0", D_HALF, n=1))
    assert not isinstance(caught.value, DivisorError)
