"""The benchmark's own closed forms, written apart from homsurf, that outputs are checked against.

- actions of A2/A3 (affine maps of C^2), D1 (translations of C^2) and D2
  (the universal cover of Aff(C), through the 3x3 matrix model
  [[1, 0, a], [0, e^a, b], [0, 0, 1]]);
- the group law and automorphisms of uAff(C), used to move D2 inputs;
- equality of two Z-spans of vectors in C^2 = R^4, used on the D1 transform.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

REL_TOL = 1e-9


def rel_dist(p, q):
    """Largest coordinate difference, relative to the larger point."""
    scale = max([1.0] + [abs(complex(x)) for x in p] + [abs(complex(y)) for y in q])
    return max(abs(complex(x) - complex(y)) for x, y in zip(p, q)) / scale


def act_affine(matrix, translation, point):
    """(M, t) . x = M x + t on C^2."""
    (m00, m01), (m10, m11) = matrix
    x, y = point
    return (m00 * x + m01 * y + translation[0], m10 * x + m11 * y + translation[1])


def det2(matrix):
    (m00, m01), (m10, m11) = matrix
    return m00 * m11 - m01 * m10


def act_translation(v, point):
    return (point[0] + v[0], point[1] + v[1])


def uaff_model(a, b):
    """3x3 matrix of (a, b); the product of models is the model of the product."""
    return np.array([[1, 0, a], [0, cmath.exp(a), b], [0, 0, 1]], dtype=complex)


def act_uaff(g, x):
    """Left multiplication g . x in uAff(C), read off the product of the models."""
    m = uaff_model(*g) @ uaff_model(*x)
    return (complex(m[0, 2]), complex(m[1, 2]))


def uaff_mul(g, h):
    return (g[0] + h[0], g[1] + cmath.exp(g[0]) * h[1])


def uaff_inv(g):
    return (-g[0], -cmath.exp(-g[0]) * g[1])


def uaff_aut(gamma, beta, g):
    """The automorphism (a, b) -> (a, gamma (1 - e^a) + beta b)."""
    a, b = g
    return (a, gamma * (1 - cmath.exp(a)) + beta * b)


def _real4(pair):
    return np.array([pair[0].real, pair[0].imag, pair[1].real, pair[1].imag])


def _int_det(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
            if not term:
                break
        total += term
    return total


def same_zspan(vectors, basis, tol=1e-7):
    """True when the Z-span of `vectors` equals the Z-span of the independent `basis`.

    Each vector must be an integer combination C of the basis (so the span is
    inside), and the r x r minors of C must have gcd 1 (so it is all of it).
    """
    if not basis:
        return all(max(abs(complex(c)) for c in v) <= tol for v in vectors)
    B = np.stack([_real4(b) for b in basis])  # r x 4
    scale = max(1.0, float(np.abs(B).max()))
    coeffs = []
    for v in vectors:
        x = _real4(v)
        y, *_ = np.linalg.lstsq(B.T, x, rcond=None)
        ints = np.round(y)
        if np.abs(y - ints).max() > 1e-6 or np.abs(B.T @ ints - x).max() > tol * max(scale, float(np.abs(x).max())):
            return False
        coeffs.append([int(k) for k in ints])
    r = len(basis)
    g = 0
    for rows in itertools.combinations(coeffs, r):
        g = math.gcd(g, _int_det(list(rows)))
        if g == 1:
            return True
    return False
