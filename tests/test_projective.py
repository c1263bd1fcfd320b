import cmath
import math
import operator

import numpy as np
import pytest

from homsurf.numeric import EPS, close, distance, inverse2, product2
from homsurf.projective import (
    BundlePoint,
    OnGroupElement,
    Proj2Point,
    ProjPoint,
    QuadricPoint,
    bdelta_act,
    bgamma3_element,
    bgamma12_element,
    bgamma_chart_act,
    binary_form_eval,
    binary_form_substitute,
    conic_complement_act,
    mobius_act,
    on_act,
    on_identity,
    on_inverse,
    on_multiply,
    quadric_act,
    quadric_double_cover,
    quadric_embed,
    quadric_preimages,
)


def rand_matrix(rng, special=False):
    while True:
        m = np.array(
            [
                [complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())],
                [complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())],
            ]
        )
        if abs(np.linalg.det(m)) > 0.3:
            return m / np.sqrt(np.linalg.det(m)) if special else m


def rand_distinct_pair(rng):
    while True:
        a = ProjPoint(complex(rng.normal(), rng.normal()))
        b = ProjPoint(complex(rng.normal(), rng.normal()))
        if distance(a, b) > EPS:
            return QuadricPoint(a, b)


def test_mobius_examples():
    p = ProjPoint(0.0)
    assert distance(mobius_act(np.eye(2), p), p) <= EPS
    assert distance(mobius_act(np.array([[1, 1], [0, 1]]), ProjPoint(0.0)), ProjPoint(1.0)) <= EPS
    got = mobius_act(np.array([[0, -1], [1, 0]]), ProjPoint(2.0))
    assert distance(got, ProjPoint(-0.5)) <= EPS
    with pytest.raises(ValueError, match="^matrix must be invertible$"):
        mobius_act(np.array([[1.0, 1.0], [1.0, 1.0]]), p)


def test_binary_form_substitute_respects_products(rng):
    # p(g h Z) = (p o g)(h Z): substitution is a right action of the matrices on forms
    g = rand_matrix(rng)
    a = 0.7 + 0.4j
    assert np.allclose(binary_form_substitute((0, 1, 0), np.diag([a, 1 / a])), (0, 1, 0))
    assert np.allclose(binary_form_substitute((1, 0, 0), np.diag([a, 1 / a])), (a**2, 0, 0))
    for n in (1, 2, 3):
        p = [complex(rng.normal(), rng.normal()) for _ in range(n + 1)]
        h = rand_matrix(rng)
        lhs = binary_form_substitute(p, g @ h)
        rhs = binary_form_substitute(binary_form_substitute(p, g), h)
        assert np.allclose(lhs, rhs)
        assert np.allclose(binary_form_substitute(p, np.eye(2)), p)


def test_quadric_embed_examples():
    x, y, z = quadric_embed(QuadricPoint(ProjPoint(1.0), ProjPoint(-1.0)))
    assert close(x, 0.5) and close(y, 0.0) and close(z, -0.5)
    assert close(y * y - 4 * x * z, 1.0)
    x, y, z = quadric_embed(QuadricPoint(ProjPoint(2.0), ProjPoint(0.0)))
    assert close(x, 0.5) and close(y, 1.0) and close(z, 0.0)
    xs, ys, zs = quadric_embed(QuadricPoint(ProjPoint(-1.0), ProjPoint(1.0)))
    assert close(xs, -0.5) and close(ys, 0.0) and close(zs, 0.5)


def test_quadric_identity_including_infinity(rng):
    for _ in range(200):
        q = rand_distinct_pair(rng)
        x, y, z = quadric_embed(q)
        assert abs(y * y - 4 * x * z - 1.0) <= 1e-9
    q = QuadricPoint(ProjPoint.infinity(), ProjPoint(0.7 - 0.2j))
    x, y, z = quadric_embed(q)
    assert abs(y * y - 4 * x * z - 1.0) <= 1e-12


def test_double_cover_examples(rng):
    got = quadric_double_cover(QuadricPoint(ProjPoint(1.0), ProjPoint(-1.0)))
    assert distance(got, Proj2Point((1.0, 0.0, -1.0))) <= EPS
    for _ in range(50):
        q = rand_distinct_pair(rng)
        assert distance(quadric_double_cover(q), quadric_double_cover(q.swapped())) <= EPS
        a, b, c = quadric_double_cover(q).coords
        assert abs(b * b - 4 * a * c) > 1e-9


def test_double_cover_two_to_one(rng):
    for _ in range(50):
        q = rand_distinct_pair(rng)
        img = quadric_double_cover(q)
        p1, p2 = quadric_preimages(img)
        assert distance(p1, p2) > EPS
        assert distance(p1, q) <= 1e-7 or distance(p2, q) <= 1e-7
        assert distance(quadric_double_cover(p1), img) <= 1e-8
        assert distance(quadric_double_cover(p2), img) <= 1e-8


def test_c9_equivariance_via_root_oracle(rng):
    for _ in range(100):
        g = rand_matrix(rng, special=True)
        q = rand_distinct_pair(rng)
        lhs = quadric_double_cover(quadric_act(g, q))
        rhs = conic_complement_act(g, quadric_double_cover(q))
        assert distance(lhs, rhs) <= 1e-8


def test_on_act_examples():
    e = OnGroupElement(2, np.eye(2), (1.0, 0.0, 0.0))  # p = Z1^2
    out = on_act(e, BundlePoint(2, 0, 3.0, 0.0))
    out = out.to_chart(0)
    assert close(out.z, 3.0) and close(out.w, 9.0)
    e2 = OnGroupElement(2, np.diag([1.0, 2.0]), (0.0, 0.0, 0.0))
    out2 = on_act(e2, BundlePoint(2, 0, 2.0, 8.0)).to_chart(0)
    assert close(out2.z, 1.0) and close(out2.w, 2.0)


def test_chart_transition_example():
    p = BundlePoint(2, 0, 2.0, 8.0)
    q = p.to_chart(1)
    assert close(q.z, 0.5) and close(q.w, 2.0)
    assert distance(p, q) <= EPS


def test_on_group_axioms_across_charts(rng):
    n = 2
    for _ in range(100):
        e0 = OnGroupElement(n, rand_matrix(rng), tuple(complex(rng.normal(), rng.normal()) for _ in range(n + 1)))
        e1 = OnGroupElement(n, rand_matrix(rng), tuple(complex(rng.normal(), rng.normal()) for _ in range(n + 1)))
        x = BundlePoint(n, int(rng.integers(2)), complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
        lhs = on_act(on_multiply(e0, e1), x)
        rhs = on_act(e0, on_act(e1, x))
        assert distance(lhs, rhs) <= 1e-8
        assert distance(on_multiply(e0, on_inverse(e0)), on_identity(n)) <= 1e-8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_on_products_and_inverses_are_the_validating_constructors(rng, n):
    """`OnGroupElement._of`, which on_multiply and on_inverse build with, gives the constructor's element to the bit."""
    for _ in range(200):
        e0, e1 = (
            OnGroupElement(n, rand_matrix(rng), tuple(complex(rng.normal(), rng.normal()) for _ in range(n + 1)))
            for _ in range(2)
        )
        m = product2(e0.matrix, e1.matrix)
        p = tuple(map(operator.add, e0.poly, binary_form_substitute(e1.poly, inverse2(e0.matrix))))
        assert repr(on_multiply(e0, e1)) == repr(OnGroupElement._of(n, m, p)) == repr(OnGroupElement(n, m, p))
        p = tuple(-c for c in binary_form_substitute(e0.poly, e0.matrix))
        want = OnGroupElement(n, inverse2(e0.matrix), p)
        assert repr(on_inverse(e0)) == repr(OnGroupElement._of(n, inverse2(e0.matrix), p)) == repr(want)


def test_on_zn_quotient_identification():
    n = 4
    zeta = cmath.exp(2j * math.pi / n)
    g = np.array([[1.3 + 0.2j, 0.4], [0.1j, 0.9]])
    p = (0.5, 0.0, 0.0, 0.0, 1.0j)
    assert distance(OnGroupElement(n, g, p), OnGroupElement(n, zeta * g, p)) <= EPS


def test_bgamma12_action_examples():
    # Bgamma2 rescalings move only the base coordinate
    e = bgamma12_element(2, 0.0, 0.7, 0j, (0j, 0j, 0j))
    z, w = bgamma_chart_act(e, (1.0, 1.0))
    assert close(z, cmath.exp(0.7)) and close(w, 1.0)
    # Bgamma1 with c = 2, lam = log 2 doubles z and quadruples w
    e2 = bgamma12_element(2, 2.0, math.log(2), 0j, (0j, 0j, 0j))
    z, w = bgamma_chart_act(e2, (1.0, 1.0))
    assert close(z, 2.0) and close(w, 4.0)


def test_bgamma2_distance_reads_lam_modulo_two_pi_i(rng):
    # with c = 0 the law and the action read lam only through e^lam: (2 pi i, 0, 0) is the identity
    n, turn = 2, 2j * math.pi
    one = bgamma12_element(n, 0j, 0j, 0j, (0j,) * (n + 1))
    g = bgamma12_element(n, 0j, turn, 0j, (0j,) * (n + 1))
    for _ in range(20):
        x = (complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
        assert distance(bgamma_chart_act(g, x), x) <= EPS
    assert g.distance(one) <= EPS and one.distance(g) <= EPS
    lam, b, p = 0.3 - 0.2j, 0.5j, (0.1, 0j, -0.2j)
    h = bgamma12_element(n, 0j, lam, b, p)
    shifted = bgamma12_element(n, 0j, lam - 2 * turn, b, p)
    assert h.distance(shifted) <= EPS and shifted.distance(h) <= EPS
    assert h.distance(bgamma12_element(n, 0j, lam + 0.5 * turn, b, p)) > 0.5
    # with c != 0 the element moves w: it stays far from the identity
    c = 1.7 + 0.3j
    moving = bgamma12_element(n, c, turn, 0j, (0j,) * (n + 1))
    assert moving.distance(bgamma12_element(n, c, 0j, 0j, (0j,) * (n + 1))) > 0.5
    assert distance(bgamma_chart_act(moving, (0.3, 1.0)), (0.3, 1.0)) > 0.5


def test_bgamma1_is_effective_at_rational_c():
    # at n = c = 2, lam = 2 pi i gives e^lam = e^{lam c} = 1: the element fixes every point, so it is the identity
    n, turn, zero = 2, 2j * math.pi, (0j, 0j, 0j)
    one = on_identity(n)
    g = bgamma12_element(n, 2.0, turn, 0j, zero)
    assert g.distance(one) <= EPS and one.distance(g) <= EPS
    rng = np.random.default_rng(23)
    points = [(complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())) for _ in range(50)]
    assert max(distance(bgamma_chart_act(g, x), x) for x in points) <= EPS
    # at a generic c the same lam moves w and stays far from the identity
    moving = bgamma12_element(n, 1.7 + 0.3j, turn, 0j, zero)
    assert moving.distance(one) > 0.5 and one.distance(moving) > 0.5
    assert max(distance(bgamma_chart_act(moving, x), x) for x in points) > 0.5


def test_bgamma12_group_axioms(rng):
    n, c = 2, 1.3 - 0.4j
    for _ in range(60):
        es = [
            bgamma12_element(
                n, c,
                complex(rng.normal(), rng.normal()) * 0.5,
                complex(rng.normal(), rng.normal()),
                tuple(complex(rng.normal(), rng.normal()) * 0.5 for _ in range(n + 1)),
            )
            for _ in range(3)
        ]
        g, h, k = es
        lhs = on_multiply(on_multiply(g, h), k)
        rhs = on_multiply(g, on_multiply(h, k))
        assert lhs.distance(rhs) <= EPS
        x = (complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
        assert np.allclose(bgamma_chart_act(on_multiply(g, h), x), bgamma_chart_act(g, bgamma_chart_act(h, x)))
        assert on_multiply(g, on_inverse(g)).distance(on_identity(n)) <= EPS


def test_bgamma3_identity_case():
    e = bgamma3_element(2, 0.0, 0.0, (0j, 0j))
    assert np.allclose(bgamma_chart_act(e, (0.4, 0.7)), (0.4, 0.7))
    e2 = bgamma3_element(2, 0.3, 0.0, (0j, 0j))
    z, w = bgamma_chart_act(e2, (1.0, 0.0))
    # matrix part scales, then the coupled a Z1^n term adds lam * z'^n
    assert close(z, cmath.exp(0.3))
    assert close(w, cmath.exp(0.6) * 0.0 + 0.3 * z**2)


def test_bgamma3_is_closed_under_the_law(rng):
    # the product and the inverse are the Bgamma3 elements of lam0 + lam1, b1 + b0 e^{-lam1} and of -lam, -b e^lam
    n = 3
    for _ in range(40):
        (lam0, b0, lam1, b1), r0, r1 = (
            [complex(rng.normal(), rng.normal()) * 0.5 for _ in range(k)] for k in (4, n, n)
        )
        g, h = bgamma3_element(n, lam0, b0, r0), bgamma3_element(n, lam1, b1, r1)
        gh, gi = on_multiply(g, h), on_inverse(g)
        assert close(gh.poly[0], lam0 + lam1) and close(gi.poly[0], -lam0)
        assert gh.distance(bgamma3_element(n, lam0 + lam1, b1 + b0 * cmath.exp(-lam1), gh.poly[1:])) <= EPS
        assert gi.distance(bgamma3_element(n, -lam0, -b0 * cmath.exp(lam0), gi.poly[1:])) <= EPS


def test_bgamma4_requires_upper_triangular():
    e = OnGroupElement(2, np.array([[1.0, 0.0], [1.0, 1.0]]), (0j, 0j, 0j))
    with pytest.raises(ValueError, match="infinity"):
        bgamma_chart_act(e, (0.3, 0.4))


def test_bdelta_examples():
    assert np.allclose(bdelta_act(np.eye(2), (0.3, 0.4)), (0.3, 0.4))
    got = bdelta_act(np.diag([2.0, 0.5]), (1.0, 1.0))
    assert np.allclose(got, (2.0, 0.5))
    with pytest.raises(ValueError, match="origin"):
        bdelta_act(np.eye(2), (0.0, 0.0))


def test_binary_form_substitution_consistency(rng):
    n = 3
    coeffs = tuple(complex(rng.normal(), rng.normal()) for _ in range(n + 1))
    m = rand_matrix(rng)
    z = complex(rng.normal(), rng.normal())
    w = complex(rng.normal(), rng.normal())
    sub = binary_form_substitute(coeffs, m)
    direct = binary_form_eval(coeffs, m[0, 0] * z + m[0, 1] * w, m[1, 0] * z + m[1, 1] * w)
    assert abs(binary_form_eval(sub, z, w) - direct) < 1e-9 * max(1.0, abs(direct))


def test_preimages_of_a_point_with_zero_leading_coefficient():
    # a = 0: the roots of a z^2 + b z + c are infinity and -c / b
    p1, p2 = quadric_preimages(Proj2Point((0.0, 1.0, 0.5)))
    assert distance(p1.alpha, ProjPoint.infinity()) <= EPS and distance(p1.beta, ProjPoint(-0.5)) <= EPS
    assert p2 == p1.swapped()
