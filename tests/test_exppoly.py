import cmath
import math

import numpy as np
import pytest

from homsurf.divisor import Divisor
from homsurf.exppoly import (
    ExpPoly,
    Polynomial,
    apply_operator,
    basis_of,
    contains,
    evaluate,
    monic_polynomial,
    random_member,
    translate,
)
from homsurf.numeric import EPS, distance

TWO_PI_I = 2j * math.pi


def cauchy_derivative(f, z, order, radius=1.0, n=256):
    """Numeric derivative of an entire function via the Cauchy integral."""
    total = 0j
    for j in range(n):
        theta = 2 * math.pi * j / n
        zeta = cmath.exp(1j * theta)
        total += f(z + radius * zeta) * cmath.exp(-1j * order * theta)
    return math.factorial(order) * total / (n * radius**order)


def test_evaluate_zero_function():
    assert evaluate(ExpPoly.zero(), 5.0) == 0


def test_evaluate_polynomial_case():
    f = ExpPoly.from_poly(Polynomial((1.0, 1.0)))  # 1 + z
    assert abs(evaluate(f, 2.0) - 3.0) < 1e-12


def test_evaluate_exponential_oracle():
    f = ExpPoly.exponential(1.0)
    want = cmath.exp(1j * math.pi)  # independent complex-exponential evaluation
    assert abs(evaluate(f, 1j * math.pi) - want) < 1e-12
    assert abs(want - (-1.0)) < 1e-12


def test_translate_polynomial_shift():
    f = ExpPoly.from_poly(Polynomial((0.0, 1.0)))  # z
    g = translate(f, 1.0)
    assert distance(g, ExpPoly.from_poly(Polynomial((-1.0, 1.0)))) <= EPS


def test_translate_exponential_sampled(rng):
    f = ExpPoly.exponential(1.0)
    g = translate(f, 1.0)
    expected = f.scale(cmath.exp(-1.0))
    assert distance(g, expected) <= EPS
    for _ in range(3):
        z = complex(rng.normal(), rng.normal())
        assert abs(evaluate(g, z) - evaluate(f, z - 1.0)) < 1e-10


def test_translate_identity_shift(rng):
    D = Divisor([(0.4 + 0.2j, 2), (-1.0, 1)])
    f = random_member(D, rng)
    assert distance(translate(f, 0.0), f) <= EPS


def test_translate_flow_property(rng):
    D = Divisor([(0.1 + 0.5j, 2), (1.0 - 0.3j, 2)])
    for _ in range(20):
        f = random_member(D, rng)
        s = complex(rng.normal(), rng.normal()) * 0.5
        t = complex(rng.normal(), rng.normal()) * 0.5
        assert distance(translate(translate(f, s), t), translate(f, s + t)) <= EPS


def test_translate_evaluate_compatibility(rng):
    D = Divisor([(0.1 + 0.5j, 2), (1.0 - 0.3j, 1)])
    for _ in range(100):
        f = random_member(D, rng)
        t = complex(rng.normal(), rng.normal()) * 0.5
        z = complex(rng.normal(), rng.normal()) * 0.5
        lhs = evaluate(translate(f, t), z)
        rhs = evaluate(f, z - t)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_apply_operator_derivative_of_constant():
    d = monic_polynomial(Divisor([(0.0, 1)]))  # d/dz
    assert apply_operator(d, ExpPoly.from_poly(Polynomial.const(7.0))).is_zero


def test_apply_operator_second_derivative():
    p = monic_polynomial(Divisor([(0.0, 2)]))
    f = ExpPoly.from_poly(Polynomial((1.0, 5.0)))
    assert apply_operator(p, f).is_zero


def test_apply_operator_hand_differentiation():
    # p = z^2 - z applied to 3 + 4 e^z: f'' - f' = 4e^z - 4e^z = 0
    p = monic_polynomial(Divisor([(0.0, 1), (1.0, 1)]))
    f = ExpPoly.from_poly(Polynomial.const(3.0)) + ExpPoly.exponential(1.0).scale(4.0)
    assert apply_operator(p, f).is_zero


def test_apply_operator_against_cauchy_oracle(rng):
    D = Divisor([(0.3 + 0.4j, 2), (-0.5j, 1)])
    op = monic_polynomial(Divisor([(0.2, 1), (-0.1 + 0.3j, 2)]))
    f = random_member(D, rng)
    g = apply_operator(op, f)
    for _ in range(4):
        z = complex(rng.normal(), rng.normal()) * 0.3
        want = sum(
            c * cauchy_derivative(lambda x: evaluate(f, x), z, m)
            for m, c in enumerate(op.coeffs)
        )
        got = evaluate(g, z)
        assert abs(got - want) < 1e-8 * max(1.0, abs(want))


def test_apply_operator_linearity(rng):
    D = Divisor([(0.3 + 0.4j, 2), (-0.5j, 2)])
    op = monic_polynomial(Divisor([(0.1, 1), (0.7j, 1)]))
    for _ in range(25):
        f = random_member(D, rng)
        g = random_member(D, rng)
        a = complex(rng.normal(), rng.normal())
        lhs = apply_operator(op, f.scale(a) + g)
        rhs = apply_operator(op, f).scale(a) + apply_operator(op, g)
        assert distance(lhs, rhs) <= EPS


def test_basis_of_double_origin():
    basis = basis_of(Divisor([(0.0, 2)]))
    assert distance(basis[0], ExpPoly.from_poly(Polynomial.const(1.0))) <= EPS
    assert distance(basis[1], ExpPoly.from_poly(Polynomial((0.0, 1.0)))) <= EPS


def test_basis_of_two_points():
    basis = basis_of(Divisor([(0.0, 1), (TWO_PI_I, 1)]))
    assert len(basis) == 2
    assert distance(basis[0], ExpPoly.exponential(0.0)) <= EPS
    assert distance(basis[1], ExpPoly.exponential(TWO_PI_I)) <= EPS


def test_basis_of_single_simple_root():
    basis = basis_of(Divisor([(5.0, 1)]))
    assert len(basis) == 1
    assert distance(basis[0], ExpPoly.exponential(5.0)) <= EPS


def test_basis_degenerate_divisor():
    with pytest.raises(ValueError, match="degenerate"):
        basis_of(Divisor([]))


def test_contains_examples():
    D = Divisor([(0.0, 2)])
    assert contains(D, ExpPoly.from_poly(Polynomial((3.0, 1.0))))
    assert not contains(D, ExpPoly.from_poly(Polynomial.monomial(2)))
    E = Divisor([(0.0, 1), (TWO_PI_I, 1)])
    assert contains(E, ExpPoly.exponential(TWO_PI_I))


def test_monic_polynomial_examples():
    assert monic_polynomial(Divisor([(0.0, 2)])).coeffs == (0j, 0j, 1.0 + 0j)
    got = monic_polynomial(Divisor([(1.0, 1), (-1.0, 1)])).coeffs
    want = np.array([-1.0, 0.0, 1.0])  # numpy expansion oracle: poly from roots
    assert np.allclose(np.poly([1.0, -1.0])[::-1], want)
    assert np.allclose(np.array(got, dtype=complex), want)
    got2 = monic_polynomial(Divisor([(0.0, 1), (TWO_PI_I, 1)])).coeffs
    assert np.allclose(np.array(got2), np.array([0.0, -TWO_PI_I, 1.0]))
    with pytest.raises(ValueError):
        monic_polynomial(Divisor([]))


def test_annihilator_exactness_random(rng):
    for _ in range(10):
        deg = int(rng.integers(2, 9))
        pts = []
        total = 0
        while total < deg:
            p = complex(rng.normal(), rng.normal()) * 1.5
            if all(abs(p - q) > 0.3 for q, _ in pts):
                m = int(rng.integers(1, min(3, deg - total) + 1))
                pts.append((p, m))
                total += m
        D = Divisor(pts)
        op = monic_polynomial(D)
        for f in basis_of(D):
            assert apply_operator(op, f).is_zero


def test_annihilator_exactness_high_degree(rng):
    # near the degree cap the factored application still cancels structurally
    pts = []
    while sum(m for _, m in pts) < 20:
        p = complex(rng.normal(), rng.normal()) * 2.0
        if all(abs(p - q) > 0.2 for q, _ in pts):
            pts.append((p, int(rng.integers(1, 4))))
    D = Divisor(pts)
    op = monic_polynomial(D)
    for f in basis_of(D):
        assert apply_operator(op, f).is_zero


def test_json_roundtrip(rng):
    D = Divisor([(0.3 + 0.4j, 2), (-0.5j, 1)])
    f = random_member(D, rng)
    assert distance(ExpPoly.from_json(f.to_json()), f) <= EPS
