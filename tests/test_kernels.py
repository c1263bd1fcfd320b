"""The scalar 2x2 and binary-form kernels against independent numpy references."""

import math

import numpy as np
import pytest

from homsurf import families, projective
from homsurf.numeric import distance
from homsurf.numeric import inverse2, product2
from homsurf.projective import OnGroupElement, ProjPoint, binary_form_substitute


def rand_complex_matrix(rng):
    return rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))


def _power(row, k):
    """Coefficients of (row[0] Z1 + row[1] Z2)^k, by repeated np.convolve."""
    out = np.array([1.0 + 0j])
    for _ in range(k):
        out = np.convolve(out, np.asarray(row, dtype=complex))
    return out


def substitute_reference(coeffs, m):
    m = np.asarray(m, dtype=complex)
    n = len(coeffs) - 1
    out = np.zeros(n + 1, dtype=complex)
    for j, c in enumerate(coeffs):
        out += c * np.convolve(_power(m[0], n - j), _power(m[1], j))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_binary_form_substitute_matches_convolution(rng, n):
    for _ in range(20):
        m = rand_complex_matrix(rng)
        coeffs = tuple(complex(rng.normal(), rng.normal()) for _ in range(n + 1))
        got = np.array(binary_form_substitute(coeffs, m))
        want = substitute_reference(coeffs, m)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
        # nested rows are accepted as well as arrays
        assert binary_form_substitute(coeffs, m.tolist()) == tuple(got)


def test_binary_form_substitute_skips_zero_coefficients(rng):
    m = rand_complex_matrix(rng)
    coeffs = (0j, 1.0 + 0j, 0j)
    assert np.allclose(binary_form_substitute(coeffs, m), substitute_reference(coeffs, m), atol=1e-14)


def test_closed_form_inverse_and_product(rng):
    for _ in range(50):
        g, h = rand_complex_matrix(rng), rand_complex_matrix(rng)
        assert np.allclose(np.array(inverse2(g)), np.linalg.inv(g), rtol=1e-12, atol=1e-12)
        assert np.allclose(np.array(product2(g, h)), g @ h, rtol=1e-14, atol=1e-14)
        assert np.allclose(np.array(product2(g.tolist(), inverse2(g))), np.eye(2), atol=1e-12)
    with pytest.raises(ValueError):
        inverse2(((1.0, 2.0), (2.0, 4.0)))


def canonical_reference(g, n):
    """The matrix times the n-th root of unity that puts the first entry of
    (1,1), (0,0), (0,1), (1,0) above 1e-12 of the largest into [0, 2 pi / n)."""
    g = np.asarray(g, dtype=complex)
    scale = np.abs(g).max()
    ref = next(g[i, j] for i, j in ((1, 1), (0, 0), (0, 1), (1, 0)) if abs(g[i, j]) > 1e-12 * scale)
    k = int((np.angle(ref) % (2 * math.pi)) // (2 * math.pi / n))
    return g * np.exp(-2j * math.pi * k / n)


@pytest.mark.parametrize(
    "g, ref",
    [
        ([[2.0 - 1j, 1.0], [3j, -1.0 - 2j]], (1, 1)),
        ([[2.0 - 1j, 1.0], [3j, 0.0]], (0, 0)),
        ([[2.0 - 1j, 1.0], [3j, 1e-13]], (0, 0)),
        ([[-1.0 - 1j, 1.0], [3j, 4e-12]], (1, 1)),
        ([[0.0, -1.0 + 1j], [3j, 0.0]], (0, 1)),
        ([[1e-13j, -1.0 - 1j], [3j, 0.0]], (0, 1)),
    ],
)
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_on_group_element_canonicalisation(g, ref, n):
    e = OnGroupElement(n, g, (0j,) * (n + 1))
    got = np.array(e.matrix)
    assert np.allclose(got, canonical_reference(g, n), rtol=1e-15, atol=1e-15)
    theta = np.angle(got[ref]) % (2 * math.pi)
    assert theta < 2 * math.pi / n + 1e-12
    # the canonical form does not depend on the root of unity it started from
    zeta = np.exp(2j * math.pi / n)
    assert np.allclose(np.array(OnGroupElement(n, zeta * np.array(g), (0j,) * (n + 1)).matrix), got, atol=1e-14)


def test_on_group_element_rejects_bad_matrices():
    with pytest.raises(ValueError):
        OnGroupElement(2, np.eye(3), (0j,) * 3)
    with pytest.raises(ValueError):
        OnGroupElement(2, [1.0, 0.0], (0j,) * 3)
    with pytest.raises(ValueError):
        OnGroupElement(2, [[1.0, 2.0], [2.0, 4.0]], (0j,) * 3)


def test_proj_point_tie_picks_first_coordinate():
    assert ProjPoint(1j, 1.0).coords == (1.0 + 0j, -1j)
    assert ProjPoint(-1.0, 1.0).coords == (1.0 + 0j, -1.0 + 0j)
    assert ProjPoint(3.0, 3j).coords[0] == 1.0
    # otherwise the larger coordinate is set to 1
    assert ProjPoint(1.0, 2.0).coords == (0.5 + 0j, 1.0 + 0j)
    assert ProjPoint(2.0, 1.0).coords == (1.0 + 0j, 0.5 + 0j)
    with pytest.raises(ValueError):
        ProjPoint(0.0, 0.0)


def test_mobius_act_matches_matrix_product(rng):
    for _ in range(20):
        g = rand_complex_matrix(rng)
        p = ProjPoint(complex(rng.normal(), rng.normal()))
        w = g @ np.array(p.coords)
        assert distance(projective.mobius_act(g, p), ProjPoint(w[0], w[1])) <= 1e-13


@pytest.mark.parametrize("scale", [0.7, 0.5, 1.0])
def test_cnum_draws_match_normal(scale):
    a, b = np.random.default_rng(99), np.random.default_rng(99)
    for _ in range(50):
        assert families._cnum(a, scale) == complex(b.normal(), b.normal()) * scale


def test_random_matrix_rejection_uses_the_determinant():
    rng = np.random.default_rng(3)
    for n in (2, 3):
        for _ in range(50):
            m = np.array(families._matrix(rng, n=n))
            assert abs(np.linalg.det(m)) > 0.25
    for _ in range(50):
        m = np.array(families._matrix(rng, special=True))
        assert abs(np.linalg.det(m) - 1.0) < 1e-12
