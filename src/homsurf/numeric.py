"""Numeric conventions shared by the whole package.

Float comparisons funnel through `close` with a relative epsilon
(overridable via the HOMSURF_EPS environment variable).  Symbolic
coefficient cancellation uses the absolute chop COEFF_CHOP.

Rational reconstruction is continued-fraction based with a hard denominator
bound.  A convergent p/q is accepted only when the residual is far below
what a generic real achieves at denominator q, so binary floats that encode
small fractions are recognized while generic reals are rejected.

Discrete subgroups (Z-modules) of R^m handed to us as float generators are
reduced exactly: coordinates over a maximal R-independent subset are
rationally reconstructed, scaled to a common integer matrix, and brought to
row Hermite normal form.  Generators whose coordinates fail reconstruction,
or whose reduced basis collapses below the noise band, raise
NonDiscreteError.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np

EPS = float(os.environ.get("HOMSURF_EPS", "1e-9"))
COEFF_CHOP = 1e-12
DENOMINATOR_BOUND = 10**6
RECON_TOL = 1e-8

# a convergent p/q must beat this / q in residual to count as rational
_STRICT_COEF = 1e-10
# reduced basis vectors inside (CHOP, BAND) * scale signal a dense subgroup
_NOISE_BAND = 1e-7
# generator coordinates beyond this would overflow the squared norms of zmodule_basis
COORD_LIMIT = 1e150
# an SL(2,C) element may have |det - 1| up to this (relative to max(1, |det|))
SL_DET_TOL = 1e-9


class NonDiscreteError(ValueError):
    """The given generators do not span a discrete subgroup."""


def close(x, y, tol=None, scale=0.0):
    """Relative comparison: |x-y| <= tol * max(1, |x|, |y|, scale)."""
    t = EPS if tol is None else tol
    return abs(x - y) <= t * max(1.0, abs(x), abs(y), scale)


def is_zero(x, tol=None, scale=0.0):
    return close(x, 0.0, tol=tol, scale=scale)


def nearest_integer(x, tol=RECON_TOL, scale=0.0):
    """Round a real to int when within tolerance, else None."""
    k = int(round(float(x)))
    if abs(x - k) <= tol * max(1.0, abs(x), scale):
        return k
    return None


def rational_reconstruct(x, max_denominator=None, tol=RECON_TOL):
    """Best rational p/q with q bounded, or None if x looks irrational."""
    bound = int(max_denominator or DENOMINATOR_BOUND)
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        return None
    p0, q0, p1, q1 = 0, 1, 1, 0
    y = x
    for _ in range(64):
        a = math.floor(y)
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > bound:
            return None
        if abs(x - p1 / q1) <= max(1.0, abs(x)) * min(tol, _STRICT_COEF / q1):
            return Fraction(p1, q1)
        rem = y - a
        if rem <= 1e-18:
            return None
        y = 1.0 / rem
    return None


def c2r(z):
    """Complex scalar as an R^2 vector."""
    z = complex(z)
    return np.array([z.real, z.imag])


def r2c(v):
    return complex(v[0], v[1])


def c2r2(pair):
    """Pair of complex scalars as an R^4 vector."""
    a, b = complex(pair[0]), complex(pair[1])
    return np.array([a.real, a.imag, b.real, b.imag])


def r2c2(v):
    return (complex(v[0], v[1]), complex(v[2], v[3]))


def real_rank(vectors, tol=1e-8):
    """Dimension of the real span, singular values below tol*scale ignored."""
    vs = [np.asarray(v, dtype=float).ravel() for v in vectors]
    if not vs:
        return 0
    a = np.stack(vs)
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * max(1.0, s[0])))


def hnf_with_transform(rows):
    """Row Hermite normal form of an integer matrix.

    Returns (H, U, rank) with U unimodular, U @ M = H, and the zero rows of
    H collected at the bottom.  Exact integer arithmetic throughout.
    """
    M = [[int(x) for x in row] for row in rows]
    n = len(M)
    m = len(M[0]) if n else 0
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    r = 0
    for col in range(m):
        if r == n:
            break
        while True:
            live = [i for i in range(r, n) if M[i][col] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(M[i][col]))
            if i0 != r:
                M[r], M[i0] = M[i0], M[r]
                U[r], U[i0] = U[i0], U[r]
            done = True
            for i in range(r + 1, n):
                q = M[i][col] // M[r][col]
                if q:
                    M[i] = [a - q * b for a, b in zip(M[i], M[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
                if M[i][col] != 0:
                    done = False
            if done:
                break
        if r < n and M[r][col] != 0:
            if M[r][col] < 0:
                M[r] = [-a for a in M[r]]
                U[r] = [-a for a in U[r]]
            for i in range(r):
                q = M[i][col] // M[r][col]
                if q:
                    M[i] = [a - q * b for a, b in zip(M[i], M[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
            r += 1
    return M, U, r


def zmodule_basis(vectors, *, max_denominator=None, tol=RECON_TOL):
    """Exact basis of the Z-module generated by float vectors in R^m.

    Returns (basis, combos, relations): `basis` is a list of vectors,
    `combos[i]` an integer row over the inputs realizing basis[i], and
    `relations` integer rows spanning the combinations that vanish.
    Raises NonDiscreteError when the module is not discrete (irrational
    coordinates, denominator blow-up, or collapsed basis vectors), and for
    generators with a non-finite coordinate or one beyond COORD_LIMIT.
    """
    vecs = [np.asarray(v, dtype=float).ravel() for v in vectors]
    n = len(vecs)
    if n == 0:
        return [], [], []
    # NaN propagates through the max, so one comparison catches NaN, inf and overflow
    top = np.abs(np.concatenate(vecs)).max(initial=0.0)
    if not top <= COORD_LIMIT:
        raise NonDiscreteError(f"generator coordinate {top} is not finite or beyond {COORD_LIMIT:.0e}")
    norms = [float(np.linalg.norm(v)) for v in vecs]
    scale = max(norms)
    unit = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if scale == 0.0:
        return [], [], unit
    live = [i for i in range(n) if norms[i] > COEFF_CHOP * max(1.0, scale)]
    dead = [i for i in range(n) if i not in live]
    if not live:
        return [], [], [unit[i] for i in dead]
    A = [vecs[i] for i in live]
    r = real_rank(A)

    residual = [a.copy() for a in A]
    pivots = []
    for _ in range(r):
        j = int(np.argmax([np.linalg.norm(v) for v in residual]))
        b = residual[j] / np.linalg.norm(residual[j])
        pivots.append(j)
        residual = [v - np.dot(v, b) * b for v in residual]
    P = np.stack([A[j] for j in pivots])

    coords = []
    for a in A:
        x, *_ = np.linalg.lstsq(P.T, a, rcond=None)
        if np.linalg.norm(a - P.T @ x) > 1e-7 * max(1.0, scale):
            raise NonDiscreteError("generator leaves the detected real span")
        coords.append(x)

    fracs = []
    for row in coords:
        frow = [rational_reconstruct(x, max_denominator=max_denominator, tol=tol) for x in row]
        if any(f is None for f in frow):
            raise NonDiscreteError("irrational generator coordinates")
        fracs.append(frow)
    L = 1
    for frow in fracs:
        for f in frow:
            L = L * f.denominator // math.gcd(L, f.denominator)
    if L > (max_denominator or DENOMINATOR_BOUND):
        raise NonDiscreteError("coordinate denominators exceed the bound")
    M = [[int(f * L) for f in frow] for frow in fracs]

    H, U, rank = hnf_with_transform(M)
    if rank != r:
        raise NonDiscreteError("rank mismatch after integer reduction")
    basis = [np.asarray(H[k], dtype=float) @ P / L for k in range(rank)]
    for b in basis:
        if np.linalg.norm(b) < _NOISE_BAND * max(1.0, scale):
            raise NonDiscreteError("reduced basis vector collapsed into noise")

    def widen(row):
        full = [0] * n
        for j, i in enumerate(live):
            full[i] = row[j]
        return full

    combos = [widen(U[k]) for k in range(rank)]
    relations = [widen(U[k]) for k in range(rank, len(U))]
    relations += [unit[i] for i in dead]

    B = np.stack(basis)
    for a in A:
        y, *_ = np.linalg.lstsq(B.T, a, rcond=None)
        ints = np.round(y)
        if np.max(np.abs(y - ints)) > 1e-6 or np.linalg.norm(a - B.T @ ints) > 1e-6 * max(1.0, scale):
            raise NonDiscreteError("generator is not an integer combination of the basis")
    return basis, combos, relations


def zmodule_coords(v, basis, tol=1e-6, scale=0.0):
    """Integer coordinates of v in the Z-span of basis, or None."""
    v = np.asarray(v, dtype=float).ravel()
    if not basis:
        return [] if np.linalg.norm(v) <= 1e-8 * max(1.0, scale) else None
    B = np.stack([np.asarray(b, dtype=float).ravel() for b in basis])
    y, *_ = np.linalg.lstsq(B.T, v, rcond=None)
    ints = np.round(y)
    s = max(1.0, scale, float(np.linalg.norm(v)))
    if np.max(np.abs(y - ints)) > tol or np.linalg.norm(v - B.T @ ints) > tol * s:
        return None
    return [int(k) for k in ints]


def zmodule_contains(v, basis, tol=1e-6, scale=0.0):
    return zmodule_coords(v, basis, tol=tol, scale=scale) is not None


def canonical_sign(z, tol=None):
    """Scale a nonzero complex by +-1 so (Re, Im) is lexicographically positive."""
    z = complex(z)
    t = EPS if tol is None else tol
    if z.real < -t * abs(z) or (abs(z.real) <= t * abs(z) and z.imag < 0):
        return -z
    return z


def lattice_reduce_tau(w1, w2, max_steps=64):
    """Oriented reduced basis of the lattice Z w1 + Z w2.

    Returns (v1, v2, tau, U) with (v1, v2) = U @ (w1, w2) over Z,
    tau = v2/v1 in the standard fundamental domain (|Re| <= 1/2, |tau| >= 1,
    boundary glued to Re >= 0 / Re = +1/2), and Im tau > 0.
    """
    w1, w2 = complex(w1), complex(w2)
    if abs(w1) == 0 or abs((w2 / w1).imag) <= 1e-12:
        raise NonDiscreteError("lattice basis is not R-independent")
    U = np.eye(2, dtype=int)
    v1, v2 = w1, w2
    if (v2 / v1).imag < 0:
        v2, U[1] = -v2, -U[1]
    for _ in range(max_steps):
        t = v2 / v1
        nshift = int(round(t.real))
        if nshift:
            v2 = v2 - nshift * v1
            U[1] = U[1] - nshift * U[0]
        if abs(v2 / v1) < 1.0 - 1e-12:
            v1, v2 = v2, -v1
            U = np.array([U[1], -U[0]])
        else:
            break
    t = v2 / v1
    if abs(abs(t) - 1.0) <= 1e-9 and t.real < -1e-9:
        v1, v2 = v2, -v1
        U = np.array([U[1], -U[0]])
        t = v2 / v1
    if abs(t.real + 0.5) <= 1e-9:
        v2 = v2 + v1
        U[1] = U[1] + U[0]
        t = v2 / v1
    return v1, v2, t, U


_OMEGA = complex(math.cos(math.pi / 3), math.sin(math.pi / 3))


def lattice_units(tau, tol=1e-6):
    """Multiplicative units of the lattice Z[1, tau], tau in fundamental domain."""
    if abs(tau - 1j) <= tol:
        return [1, 1j, -1, -1j]
    if abs(tau - _OMEGA) <= tol:
        return [_OMEGA**k for k in range(6)]
    return [1, -1]


def lattice_coords(value, w1, w2):
    """Real coordinates (x, y) with value = x*w1 + y*w2."""
    a = np.array([[w1.real, w2.real], [w1.imag, w2.imag]])
    return np.linalg.solve(a, np.array([value.real, value.imag]))


def lattice_contains(value, w1, w2, tol=1e-6):
    x, y = lattice_coords(complex(value), complex(w1), complex(w2))
    scale = max(1.0, abs(value) / max(abs(w1), abs(w2)))
    return bool(abs(x - round(x)) <= tol * scale and abs(y - round(y)) <= tol * scale)
