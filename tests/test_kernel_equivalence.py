"""The verify-path and classifier kernels against the code they replaced, bit for bit.

Each `old_*` function below is a replaced implementation, kept verbatim as
the oracle (a constructor call `Polynomial(cs)` is spelled `old_trim(cs)`,
which is what that constructor did; the numeric layer's `_qr` is `old_qr`,
and so on).  Results are compared with `==` and by
repr, so a signed zero or a difference in the last bit fails where a
tolerance would pass.  The one exception is the matrix families' group laws,
which moved from numpy arrays to Python rows and so round differently: they
are compared with the numpy handlers they replaced to a relative 1e-14.
"""

import cmath
import math
import operator
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import homsurf
from homsurf import bbeta, bundles, families, projective, uaff, verify
from homsurf.divisor import Divisor, _quasiperiod_group, quasiperiod_group
from homsurf.exppoly import (
    ExpPoly,
    Polynomial,
    _merge_sorted,
    apply_operator,
    basis_of,
    contains,
    evaluate,
    monic_polynomial,
    random_member,
    translate,
)
from homsurf import lattice, numeric
from homsurf.numeric import (
    _NOISE_BAND,
    _STRICT_COEF,
    COEFF_CHOP,
    COMBO_TOL,
    COORD_LIMIT,
    DECK_TOL,
    DENOMINATOR_BOUND,
    EMPTY_BASIS_TOL,
    JACOBI_SWEEPS,
    JACOBI_TOL,
    PIVOT_TIE,
    QR_DEPENDENT_TOL,
    RECON_TOL,
    SPAN_TOL,
    NonDiscreteError,
    check_invertible,
    distance,
    distance_for,
    flat_distance,
)
from homsurf.lattice import c2r, lattice_contains
from homsurf.numeric import binomials as _binomials
from homsurf.projective import SUBSTITUTE_CAP, OnGroupElement, binary_form_substitute


def same(a, b):
    """Equal, and equal to the last bit: reprs tell signed zeros apart."""
    return a == b and repr(a) == repr(b)


# ---------------------------------------------------------------------------
# the replaced code, and the array helpers it took from the numeric layer


def load_numpy():
    return np


def as_rows(x):
    return x.tolist() if hasattr(x, "tolist") else x


def entries2(g):
    (a, b), (c, d) = as_rows(g)
    return a, b, c, d


def old_trim(coeffs):
    cs = [complex(c) for c in coeffs]
    while cs and abs(cs[-1]) <= COEFF_CHOP:
        cs.pop()
    return tuple(cs)


def old_add(p, q):
    a, b = p.coeffs, q.coeffs
    n = max(len(a), len(b))
    return old_trim([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)])


def old_neg(p):
    return old_trim([-c for c in p.coeffs])


def old_mul(p, q):
    if p.is_zero or q.is_zero:
        return ()
    out = [0j] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return old_trim(out)


def old_scale(p, c):
    return old_trim([c * a for a in p.coeffs])


def old_derivative(p, order=1):
    cs = list(p.coeffs)
    for _ in range(order):
        cs = [k * cs[k] for k in range(1, len(cs))]
    return old_trim(cs)


def old_shifted(p, t):
    t = complex(t)
    n = len(p.coeffs)
    out = [0j] * n
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        for j in range(k + 1):
            out[j] += c * math.comb(k, j) * (-t) ** (k - j)
    return old_trim(out)


def old_exppoly_add(f, g):
    return ExpPoly._canonical(_merge_sorted(f.terms, g.terms))


def old_contains(D, f):
    if D.degree == 0:
        raise ValueError("degenerate divisor")
    return apply_operator(monic_polynomial(D), f).is_zero


def old_random_member(D, rng, scale=1.0):
    f = ExpPoly.zero()
    for b in basis_of(D):
        c = complex(rng.normal(), rng.normal()) * scale
        f = old_exppoly_add(f, b.scale(c))
    return f


def old_pair_power(u, v, k):
    return [c * u ** (k - j) * v**j for j, c in enumerate(_binomials(k))]


def old_pair_product(u, v, s, t, k, n):
    out = [0j] * (n + 1)
    right = old_pair_power(s, t, k)
    for i, x in enumerate(old_pair_power(u, v, n - k)):
        for j, y in enumerate(right):
            out[i + j] += x * y
    return out


def old_binary_form_substitute(coeffs, m):
    m00, m01, m10, m11 = entries2(m)
    n = len(coeffs) - 1
    out = [0j] * (n + 1)
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        for i, t in enumerate(old_pair_product(m00, m01, m10, m11, j, n)):
            out[i] += c * t
    return tuple(out)


def old_on_group_fields(n, matrix, poly):
    n = int(n)
    a, b, c, d = (complex(x) for x in entries2(matrix))
    check_invertible(((a, b), (c, d)))
    p = tuple(complex(x) for x in poly)
    scale = max(abs(a), abs(b), abs(c), abs(d))
    ref = next(x for x in (d, a, b, c) if abs(x) > 1e-12 * scale)
    k = int(cmath.phase(ref) % (2 * math.pi) // (2 * math.pi / n))
    if k:
        zeta = cmath.exp(-2j * math.pi * k / n)
        a, b, c, d = a * zeta, b * zeta, c * zeta, d * zeta
    return n, ((a, b), (c, d)), p


def old_cnums(rng, k, scale):
    return [complex(rng.standard_normal(), rng.standard_normal()) * scale for _ in range(k)]


def old_laurent_eval(coeffs, u):
    return sum(c * u**k for k, c in coeffs.items())


def old_biholo_apply(phi, z, w):
    data = phi.data
    case = data.case
    znew = phi.sign * z + phi.z0
    u = cmath.exp(2j * math.pi * z)
    fval = old_laurent_eval({int(k): complex(v) for k, v in phi.f}, u)  # the replaced phi.fdict
    if case == "one":
        return (znew, phi.b * w + fval)
    if case == "minus-one":
        return (znew, phi.b * w + phi.lam0 / 2 + cmath.exp(1j * math.pi * z) * fval)
    p, q = data.root_fraction()
    shear = phi.lam0 / (1 - data.c) + cmath.exp(2j * math.pi * p * z / q) * fval
    return (znew, phi.b * w + shear)


def old_biholo_inverse_apply(phi, z, w):
    z1 = phi.sign * (z - phi.z0)
    _, w_of_z1 = old_biholo_apply(phi, z1, 0j)
    return (z1, (w - w_of_z1) / phi.b)


def old_as_map(phi):
    return bundles.PlaneMap(
        lambda z, w: old_biholo_apply(phi, z, w),
        lambda z, w: old_biholo_inverse_apply(phi, z, w),
    )


def old_map_normalizes_deck(fmap, data, rng, samples=50, tol=1e-7):
    pts = list(old_sample_points(rng, samples))
    for g in bundles.deck_generators(data):
        ks = []
        lams = []
        for z, w in pts:
            z2, w2 = fmap.backward(z, w)
            z3, w3 = g(z2, w2)
            z4, w4 = fmap.forward(z3, w3)
            ks.append(z4 - z)
            lams.append((z4 - z, w4, w))
        k0 = ks[0]
        kint = round(k0.real)
        if abs(k0 - kint) > tol * max(1.0, abs(k0)):
            return False
        scale = max([abs(w) for _, w, _ in lams] + [1.0])
        lam_vals = []
        for dk, w4, w in lams:
            if abs(dk - k0) > tol * max(1.0, abs(k0), scale):
                return False
            lam_vals.append(w4 - data.c**kint * w)
        lam0 = lam_vals[0]
        if any(abs(v - lam0) > tol * max(1.0, scale) for v in lam_vals):
            return False
        if not lattice_contains(lam0, data.w1, data.w2, tol=1e-6):
            return False
    return True

# ---------------------------------------------------------------------------
# the per-degree binary-form kernels, the deck check that pulls each point back once, the scalar
# uniform draws, the fused translate, the table of roots of unity and the normal forms: the replaced code


def old_loop_binary_form_substitute(coeffs, m):
    """Coefficients of q(M Z) for a binary form q of degree n."""
    m00, m01, m10, m11 = entries2(m)
    n = len(coeffs) - 1
    # each power x**e that a nonzero coefficient's expansion takes, computed once: the first such
    # coefficient takes the most powers of m00 and m01, the last the most of m10 and m11
    p00 = p01 = None
    p10, p11 = [], []
    out = [0j] * (n + 1)
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        # (m00 Z1 + m01 Z2)^k (m10 Z1 + m11 Z2)^j over Z1^{n-i} Z2^i, k = n - j
        k = n - j
        if p00 is None:
            p00, p01 = [m00**e for e in range(k + 1)], [m01**e for e in range(k + 1)]
        while len(p10) <= j:
            p10.append(m10 ** len(p10))
            p11.append(m11 ** len(p11))
        right = [b * p10[j - l] * p11[l] for l, b in enumerate(_binomials(j))]
        prod = [0j] * (n + 1)
        i = 0
        for b in _binomials(k):
            x = b * p00[k - i] * p01[i]
            for l, y in enumerate(right, i):
                prod[l] += x * y
            i += 1
        i = 0
        for t in prod:
            out[i] += c * t
            i += 1
    return tuple(out)


def old_sample_points(rng, count):
    # imaginary parts stay small so the Laurent data keeps a tame magnitude
    for _ in range(count):
        yield (
            complex(rng.uniform(-1, 1), rng.uniform(-0.15, 0.15)),
            complex(rng.normal(), rng.normal()),
        )


def old_per_generator_map_normalizes_deck(fmap, data, rng, samples=50, tol=DECK_TOL):
    pts = list(old_sample_points(rng, samples))
    forward, backward = fmap.forward, fmap.backward
    for g in bundles.deck_generators(data):
        images = [forward(*g(*backward(z, w))) for z, w in pts]
        ks = [z4 - z for (z4, _), (z, _) in zip(images, pts)]
        k0 = ks[0]
        kint = round(k0.real)
        if abs(k0 - kint) > tol * max(1.0, abs(k0)):
            return False
        ck = data.c**kint
        scale = max([abs(w4) for _, w4 in images] + [1.0])
        bound = tol * max(1.0, abs(k0), scale)
        if any(abs(dk - k0) > bound for dk in ks):
            return False
        lam_vals = [w4 - ck * w for (_, w4), (_, w) in zip(images, pts)]
        lam0 = lam_vals[0]
        bound = tol * max(1.0, scale)
        if any(abs(v - lam0) > bound for v in lam_vals):
            return False
        if not lattice_contains(lam0, data.w1, data.w2):
            return False
    return True


def old_polynomial_shifted(p, t):  # Polynomial.shifted, with `self` spelled `p`
    """The polynomial z -> p(z - t), expanded exactly by binomials."""
    t = complex(t)
    n = len(p.coeffs)
    powers = [(-t) ** e for e in range(n)]
    out = [0j] * n
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        for j in range(k + 1):
            out[j] += c * math.comb(k, j) * powers[k - j]
    return Polynomial._of(out)


def old_translate(f, t):
    t = complex(t)
    return ExpPoly._same_frequencies(
        [(lam, old_polynomial_shifted(p, t).scale(cmath.exp(-lam * t))) for lam, p in f.terms]
    )


def old_on_distance(self, other):  # OnGroupElement.distance
    """The matrix parts compared modulo scalar n-th roots of unity, and the forms entrywise."""
    a = self.matrix[0] + self.matrix[1]
    b = other.matrix[0] + other.matrix[1]
    scale = max(1.0, *map(abs, a), *map(abs, b))
    best = math.inf
    for j in range(self.n):
        zeta = cmath.exp(2j * math.pi * j / self.n)
        best = min(best, max(abs(x - zeta * y) for x, y in zip(a, b)) / scale)
    return max(best, flat_distance(self.poly, other.poly))


def old_normal_form_generators(label):
    """Generator list of the table row with the label's parameters."""
    n, k, b, tau, a = label.name, label.k, label.b, label.tau, label.a
    w = uaff.TWO_PI_I
    UAffElement, _OMEGA = uaff.UAffElement, uaff._OMEGA
    rows = {
        "D2": [],
        "D2_1": [UAffElement(0, 1)],
        "D2_2": [UAffElement(0, 1), UAffElement(0, tau)],
        "D2_3": [UAffElement(w * k, 1)],
        "D2_4": [UAffElement(w * k, b), UAffElement(0, 1)],
        "D2_5": [UAffElement(w * k, b), UAffElement(0, 1), UAffElement(0, tau)],
        "D2_6": [UAffElement(a, 0)],
        "D2_7": [UAffElement(w * (k + 0.5), 0), UAffElement(0, 1)],
        "D2_8": [UAffElement(w * (k + 0.5), 0), UAffElement(0, 1), UAffElement(0, tau)],
        "D2_9": [UAffElement(1j * math.pi * (k + 0.5), 0), UAffElement(0, 1), UAffElement(0, 1j)],
        "D2_10": [UAffElement(w * (k + 1.0 / 6), 0), UAffElement(0, 1), UAffElement(0, _OMEGA)],
        "D2_11": [UAffElement(w * (k + 2.0 / 6), 0), UAffElement(0, 1), UAffElement(0, _OMEGA)],
        "D2_12": [UAffElement(w * (k + 4.0 / 6), 0), UAffElement(0, 1), UAffElement(0, _OMEGA)],
        "D2_13": [UAffElement(w * (k + 5.0 / 6), 0), UAffElement(0, 1), UAffElement(0, _OMEGA)],
        "D2_14": [UAffElement(label.a1, 0), UAffElement(label.a2, 0)],
    }
    return rows[n]


def old_product_cover(label, point):
    """Map a point of the group to the product surface X' for an abelian row.

    The map is constant on right cosets of the subgroup; nonabelian rows have
    no such map (the bundle is nontrivial) and raise ValueError.
    """
    NONABELIAN_LABELS = {"D2_7", "D2_8", "D2_9", "D2_10", "D2_11", "D2_12", "D2_13"}
    ABELIAN_COVER_LABELS = {"D2", "D2_1", "D2_2", "D2_3", "D2_4", "D2_5", "D2_6", "D2_14"}
    TWO_PI_I, TorusPoint = uaff.TWO_PI_I, lattice.TorusPoint
    if label.name in NONABELIAN_LABELS:
        raise ValueError("bundle is nontrivial")
    if label.name not in ABELIAN_COVER_LABELS:
        raise ValueError(f"unknown label {label.name}")
    a, b = point.a, point.b
    name = label.name
    if name == "D2":
        return (a, b)
    if name == "D2_1":
        return (a, cmath.exp(TWO_PI_I * cmath.exp(-a) * b))
    if name == "D2_2":
        return (a, TorusPoint(cmath.exp(-a) * b, 1.0, label.tau))
    if name == "D2_3":
        k = label.k
        return (cmath.exp(a / k), cmath.exp(-a) * b - a / (TWO_PI_I * k))
    if name == "D2_4":
        k, bp = label.k, label.b
        return (cmath.exp(a / k), cmath.exp(TWO_PI_I * cmath.exp(-a) * b - a * bp / k))
    if name == "D2_5":
        k, bp = label.k, label.b
        val = cmath.exp(-a) * b - a * bp / (TWO_PI_I * k)
        return (cmath.exp(a / k), TorusPoint(val, 1.0, label.tau))
    if name == "D2_6":
        return (cmath.exp(TWO_PI_I * a / label.a), b)
    if name == "D2_14":
        return (TorusPoint(a, label.a1, label.a2), b)
    raise AssertionError(name)


# ---------------------------------------------------------------------------
# the classifiers' numeric layer and the projective distance: the replaced code


def old_rational_reconstruct(x, max_denominator=None, tol=RECON_TOL):
    """Best rational p/q with q bounded, or None if x looks irrational."""
    bound = DENOMINATOR_BOUND if max_denominator is None else int(max_denominator)
    if bound < 1:
        raise ValueError(f"the denominator bound must be at least 1, got {max_denominator}")
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
            import fractions  # here only: it costs a cold call 1.5 ms; `from` would cost 0.5 us a call

            return fractions.Fraction(p1, q1)
        rem = y - a
        if rem <= 1e-18:
            return None
        y = 1.0 / rem
    return None


def old_singular_values(rows):
    """Singular values of the matrix with the given rows, largest first.

    One-sided Jacobi (Hestenes): plane rotations make the vectors of the
    shorter side pairwise orthogonal to working precision, and their norms
    are then the singular values, as accurate as LAPACK's (a pivoted QR
    diagonal only approximates them).
    """
    rows = [old_floats(r) for r in rows]
    vecs = [list(c) for c in zip(*rows)] if rows and len(rows[0]) < len(rows) else rows
    n = len(vecs)
    for _ in range(JACOBI_SWEEPS):
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                u, v = vecs[i], vecs[j]
                a, b, g = old_dot(u, u), old_dot(v, v), old_dot(u, v)
                if abs(g) <= JACOBI_TOL * math.sqrt(a) * math.sqrt(b):
                    continue
                rotated = True
                zeta = (b - a) / (2.0 * g)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                vecs[i] = [c * x - s * y for x, y in zip(u, v)]
                vecs[j] = [s * x + c * y for x, y in zip(u, v)]
        if not rotated:
            break
    return sorted(map(old_norm, vecs), reverse=True)


def old_real_rank(vectors, tol=1e-8):
    """Dimension of the real span, singular values below tol*scale ignored."""
    s = old_singular_values(vectors)
    if not s or s[0] == 0.0:
        return 0
    return sum(1 for x in s if x > tol * max(1.0, s[0]))


def old_hnf_with_transform(rows):
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


def old_floats(v):
    """A vector (tuple, list or array) as a list of Python floats."""
    if hasattr(v, "tolist"):
        return load_numpy().asarray(v, dtype=float).ravel().tolist()
    return [float(x) for x in v]


def old_dot(u, v):
    return sum(map(operator.mul, u, v))


def old_norm(v):
    return math.sqrt(old_dot(v, v))


def old_axpy(v, d, q):
    """v - d q, entrywise."""
    return [x - d * y for x, y in zip(v, q)]


def old_back_substitute(R, c):
    """x with R x = c for upper-triangular R; a zero diagonal entry gives x_k = 0."""
    n = len(c)
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        if R[k][k]:
            s = c[k]
            for j in range(k + 1, n):
                s -= R[k][j] * x[j]
            x[k] = s / R[k][k]
    return x


def old_qr(cols):
    """Thin QR of the matrix with columns `cols`, by modified Gram-Schmidt.

    Returns (Q, R): Q the orthonormal directions (None for a column within
    QR_DEPENDENT_TOL of the span of the columns before it) and R the upper
    triangular coefficients, R[j][k] the component of column k along Q[j].
    """
    n = len(cols)
    Q = []
    R = [[0.0] * n for _ in range(n)]
    top = max((old_norm(c) for c in cols), default=0.0)
    for k, col in enumerate(cols):
        w = list(col)
        for j, q in enumerate(Q):
            if q is not None:
                d = R[j][k] = old_dot(w, q)
                w = old_axpy(w, d, q)
        nrm = old_norm(w)
        if nrm <= QR_DEPENDENT_TOL * top:
            Q.append(None)
        else:
            R[k][k] = nrm
            Q.append([x / nrm for x in w])
    return Q, R


def old_qr_solve(Q, R, v):
    """Least-squares x with sum_k x_k cols_k ~ v, from the QR of the columns
    (dependent columns get 0)."""
    c = [0.0] * len(Q)
    w = list(v)
    for j, q in enumerate(Q):
        if q is not None:
            c[j] = d = old_dot(w, q)
            w = old_axpy(w, d, q)
    return old_back_substitute(R, c)


def old_integer_fit(v, cols, qr, tol, scale):
    """Nearest integer coordinates of v over cols, or None when they miss by
    more than tol or rebuild v only to more than tol * scale."""
    y = old_qr_solve(*qr, v)
    if not all(map(math.isfinite, y)):
        return None
    ints = [round(t) for t in y]
    if max(abs(t - k) for t, k in zip(y, ints)) > tol:
        return None
    w = list(v)
    for k, col in zip(ints, cols):
        if k:
            w = old_axpy(w, k, col)
    if old_norm(w) > tol * scale:
        return None
    return ints


def old_zmodule_basis(vectors, *, max_denominator=None, tol=RECON_TOL):
    """Exact basis of the Z-module generated by float vectors in R^m.

    Vectors may be tuples, lists or arrays.  Returns (basis, combos,
    relations): `basis` is a list of lists of floats, `combos[i]` an integer row over
    the inputs realizing basis[i], and `relations` integer rows spanning the
    combinations that vanish.  Raises NonDiscreteError when the module is not
    discrete (irrational coordinates, denominator blow-up, or collapsed basis
    vectors), and for generators with a non-finite coordinate or one beyond
    COORD_LIMIT.
    """
    vecs = [old_floats(v) for v in vectors]
    n = len(vecs)
    if n == 0:
        return [], [], []
    flat = [abs(x) for v in vecs for x in v]
    top = max(flat, default=0.0)
    total = sum(flat)
    if total != total:  # a NaN coordinate
        top = total
    if not top <= COORD_LIMIT:
        raise NonDiscreteError(f"generator coordinate {top} is not finite or beyond {COORD_LIMIT:.0e}")
    norms = [old_norm(v) for v in vecs]
    scale = max(norms)
    unit = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if scale == 0.0:
        return [], [], unit
    live = [i for i in range(n) if norms[i] > COEFF_CHOP * max(1.0, scale)]
    dead = [i for i in range(n) if i not in live]
    if not live:
        return [], [], [unit[i] for i in dead]
    A = [vecs[i] for i in live]
    r = old_real_rank(A)
    if r == 0:
        raise NonDiscreteError("generators lie between the zero chop and the rank threshold")

    # QR with column pivoting: each step takes as the next direction the first
    # residual whose norm is within PIVOT_TIE of the largest (so the choice does
    # not follow the last bit of a sum) and projects it off every residual
    residual = [list(a) for a in A]
    coef = [[] for _ in A]  # coef[i][k]: component of A[i] along direction k
    pivots = []
    for _ in range(r):
        rn = [old_norm(v) for v in residual]
        least = max(rn) * (1.0 - PIVOT_TIE)
        j = next(i for i, x in enumerate(rn) if x >= least)
        q = [x / rn[j] for x in residual[j]]
        pivots.append(j)
        for i, v in enumerate(residual):
            d = old_dot(v, q)
            coef[i].append(d)
            residual[i] = old_axpy(v, d, q)
    R = [[coef[j][k] for j in pivots] for k in range(r)]

    coords = []
    for c, res in zip(coef, residual):
        if old_norm(res) > SPAN_TOL * max(1.0, scale):
            raise NonDiscreteError("generator leaves the detected real span")
        coords.append(old_back_substitute(R, c))

    fracs = []
    for row in coords:
        frow = [old_rational_reconstruct(x, max_denominator=max_denominator, tol=tol) for x in row]
        if any(f is None for f in frow):
            raise NonDiscreteError("irrational generator coordinates")
        fracs.append(frow)
    L = 1
    for frow in fracs:
        for f in frow:
            L = L * f.denominator // math.gcd(L, f.denominator)
    if L > (DENOMINATOR_BOUND if max_denominator is None else max_denominator):
        raise NonDiscreteError("coordinate denominators exceed the bound")
    M = [[f.numerator * (L // f.denominator) for f in frow] for frow in fracs]

    H, U, rank = old_hnf_with_transform(M)
    if rank != r:
        raise NonDiscreteError("rank mismatch after integer reduction")
    P = list(zip(*(A[j] for j in pivots)))  # the columns of the pivot rows
    basis = [[old_dot(H[k], col) / L for col in P] for k in range(rank)]
    for b in basis:
        if old_norm(b) < _NOISE_BAND * max(1.0, scale):
            raise NonDiscreteError("reduced basis vector collapsed into noise")

    def widen(row):
        full = [0] * n
        for j, i in enumerate(live):
            full[i] = row[j]
        return full

    combos = [widen(U[k]) for k in range(rank)]
    relations = [widen(U[k]) for k in range(rank, len(U))]
    relations += [unit[i] for i in dead]

    qr = old_qr(basis)
    for a in A:
        if old_integer_fit(a, basis, qr, COMBO_TOL, max(1.0, scale)) is None:
            raise NonDiscreteError("generator is not an integer combination of the basis")
    return basis, combos, relations


def old_zmodule_coords(v, basis, tol=COMBO_TOL, scale=0.0):
    """Integer coordinates of v in the Z-span of basis, or None."""
    v = old_floats(v)
    if not basis:
        return [] if old_norm(v) <= EMPTY_BASIS_TOL * max(1.0, scale) else None
    cols = [old_floats(b) for b in basis]
    if any(len(c) != len(v) for c in cols):
        raise ValueError("basis vectors and v differ in dimension")
    return old_integer_fit(v, cols, old_qr(cols), tol, max(1.0, scale, old_norm(v)))


def old_zmodule_contains(v, basis, tol=COMBO_TOL, scale=0.0):
    return old_zmodule_coords(v, basis, tol=tol, scale=scale) is not None


def old_saturate_lattice(values, images, scale, max_rounds=16):
    """Basis of the smallest lattice of C containing `values` and closed under `images`.

    `images` are maps of C (multiplications by units of the lattice to be);
    each round adds the images of the basis vectors that are not yet in its
    Z-span, in the order of the basis, then of `images`.  Raises
    NonDiscreteError when the closure exceeds rank two or does not stabilize
    within max_rounds.
    """
    basis, _, _ = old_zmodule_basis([c2r(b) for b in values])
    for _ in range(max_rounds):
        if len(basis) > 2:
            raise NonDiscreteError("kernel closure exceeds rank two")
        new = []
        for bv in basis:
            b = complex(bv[0], bv[1])
            for image in images:
                img = image(b)
                if not old_zmodule_contains(c2r(img), basis, scale=scale):
                    new.append(img)
        if not new:
            return basis
        basis, _, _ = old_zmodule_basis(basis + [c2r(b) for b in new])
    raise NonDiscreteError("kernel closure does not stabilize")


def old_proj_distance(g, h):
    """Distance between matrices modulo a scalar."""
    xs = [complex(x) for row in as_rows(g) for x in row]
    ys = [complex(y) for row in as_rows(h) for y in row]
    i = max(range(len(xs)), key=lambda k: abs(xs[k]))
    if abs(ys[i]) == 0:
        return 1.0
    s = xs[i] / ys[i]
    return flat_distance(xs, [s * y for y in ys])


# ---------------------------------------------------------------------------
# polynomials

# finite coefficients, with zeros of both signs and values at and around COEFF_CHOP
coefficients = st.one_of(
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), -0j, 1e-12 + 0j, -1e-12j, 1.5e-12 + 0j, 7e-13 - 7e-13j]),
)
polynomials = st.lists(coefficients, max_size=7).map(Polynomial)


@given(polynomials, polynomials, coefficients)
def test_polynomial_arithmetic_matches_the_replaced_code(p, q, c):
    assert same((p + q).coeffs, old_add(p, q))
    assert same((-p).coeffs, old_neg(p))
    assert same((p * q).coeffs, old_mul(p, q))
    assert same(p.scale(c).coeffs, old_scale(p, c))
    for order in (1, 2, 3):
        assert same(p.derivative(order).coeffs, old_derivative(p, order))
    f = ExpPoly.from_poly(p)  # translate shifts in place of the deleted Polynomial.shifted
    assert same(outcome(translate, f, c), outcome(old_translate, f, c))


def test_polynomial_constructor_still_converts_and_trims():
    assert same(Polynomial([1, 2.5, 3j, 1e-12, 0.0]).coeffs, old_trim([1, 2.5, 3j, 1e-12, 0.0]))
    assert Polynomial([1e-12, -1e-13j]).is_zero


# ---------------------------------------------------------------------------
# exponential polynomials

D_MULT = Divisor([(0.3 + 0.1j, 3), (-0.4 + 0.6j, 2), (1.1 - 0.2j, 1)])


def test_same_frequency_sum_matches_merge_sorted():
    rng = np.random.default_rng(5)
    for _ in range(40):
        D = verify.random_divisor(rng)
        f, g = random_member(D, rng), random_member(D, rng)
        assert [lam for lam, _ in f.terms] == [lam for lam, _ in g.terms]
        assert same(f + g, old_exppoly_add(f, g))
        assert same(f - f, old_exppoly_add(f, -f)) and (f - f).is_zero
        h = ExpPoly._canonical(f.terms[:1])
        assert same(f + h, old_exppoly_add(f, h))


@pytest.mark.parametrize(
    "lams",
    [
        (0j, 1e-10 + 0j),  # close neighbours: no termwise sum
        (0j, 1j, 1e-10 + 0j),  # close, but not neighbours
        (complex(math.inf, 0.0),),  # a frequency is not close to itself
        (-1.0 + 0j, complex(0.0, 0.0), complex(-0.0, 2.0)),
    ],
)
def test_sum_of_unusual_canonical_forms_matches_merge_sorted(lams):
    p, q = Polynomial((1.0, 2.0 - 1j)), Polynomial((-1.0, 0.5j))
    f = ExpPoly._canonical(tuple((lam, p) for lam in lams))
    g = ExpPoly._canonical(tuple((lam, q) for lam in lams))
    assert same(f + g, old_exppoly_add(f, g))
    assert same(f + f.scale(-1), old_exppoly_add(f, f.scale(-1)))


def test_contains_matches_apply_operator_on_members():
    rng = np.random.default_rng(6)
    for _ in range(60):
        D = verify.random_divisor(rng)
        f = random_member(D, rng)
        assert contains(D, f) and old_contains(D, f)
        f = f + ExpPoly.exponential(0.123 - 0.45j)
        assert contains(D, f) == old_contains(D, f) == False  # noqa: E712


@pytest.mark.parametrize(
    "f",
    [
        # a term at a root whose multiplicity does not exceed its degree
        ExpPoly.exponential(0.3 + 0.1j, Polynomial((1.0, 2.0, -1j, 0.5))),
        ExpPoly.exponential(-0.4 + 0.6j, Polynomial((0.2, 1.0, 3.0))),
        # a term at no root
        ExpPoly.exponential(0.777, Polynomial((1.0,))),
        # top coefficients just above and at COEFF_CHOP
        ExpPoly.exponential(0.3 + 0.1j, Polynomial((1.0, 1.0, 0.5, 1.01e-12))),
        ExpPoly.exponential(0.3 + 0.1j, Polynomial((1.0, 1.0, 0.5, 1e-12))),
        # a frequency close to a root but not equal to it
        ExpPoly.exponential(0.3 + 0.1j + 1e-11, Polynomial((1.0, 2.0))),
        ExpPoly.exponential(0.3 + 0.1j + 1e-11, Polynomial((1.0, 2.0, 3.0, 4.0))),
        ExpPoly.exponential(1.1 - 0.2j, Polynomial((1.0, 2.0)))
        + ExpPoly.exponential(0.3 + 0.1j, Polynomial((1.0,))),
        ExpPoly.zero(),
    ],
)
def test_contains_matches_apply_operator_on_edge_cases(f):
    assert contains(D_MULT, f) == old_contains(D_MULT, f)


class Draws:
    """A stand-in for a Generator whose normal() hands out the given values in
    order, one at a time or as an array."""

    def __init__(self, values):
        self.values = list(values)

    def normal(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = self.values[:size], self.values[size:]
        return np.array(out)


def test_random_member_matches_the_basis_sum():
    for seed in range(30):
        D = verify.random_divisor(np.random.default_rng(seed))
        for scale in (1.0, 0.7, 0.25):
            a, b = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
            assert same(random_member(D, a, scale), old_random_member(D, b, scale))
            assert a.normal() == b.normal()


@pytest.mark.parametrize("tiny", [(1e-13, -1e-13), (1e-12, 0.0), (-7e-13, 7e-13), (0.0, -0.0)])
@pytest.mark.parametrize("index", range(6))
def test_random_member_with_draws_at_the_chop(tiny, index):
    values = [-0.5, 0.3, 0.8, -1.1, -0.2, -0.6, 1.3, 0.4, -0.9, 0.05, 0.7, -0.35]
    values[2 * index : 2 * index + 2] = tiny
    got = random_member(D_MULT, Draws(values))
    assert same(got, old_random_member(D_MULT, Draws(values)))


def test_random_member_of_a_degenerate_divisor_is_an_error():
    for member in (random_member, old_random_member):
        with pytest.raises(ValueError, match="degenerate divisor"):
            member(Divisor([]), np.random.default_rng(0))


def test_random_member_keeps_the_signed_zero_of_the_basis_sum():
    # the first draw is chopped, so the constant coefficient is the second
    # draw times 0j: a signed zero, not the chopped value
    values = [1e-13, 1e-13, -0.5, 0.3] + [0.5] * 8
    f = random_member(D_MULT, Draws(values))
    assert same(f, old_random_member(D_MULT, Draws(values)))
    c0 = f.terms[0][1].coeffs[0]
    assert c0 == 0 and math.copysign(1.0, c0.real) == -1.0


def test_random_member_drops_a_point_whose_draws_are_all_chopped():
    values = [0.5, 0.5] * 2 + [1e-13, 0.0] * 3 + [0.5, -0.5]
    f = random_member(D_MULT, Draws(values))
    assert same(f, old_random_member(D_MULT, Draws(values)))
    assert len(f.terms) == 2


@pytest.mark.parametrize("seed", range(4))
def test_array_normal_draws_equal_scalar_draws(seed):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for size in (1, 2, 7, 64):
        assert a.normal(size=size).tolist() == [b.normal() for _ in range(size)]
        assert a.standard_normal(size).tolist() == [b.standard_normal() for _ in range(size)]


def test_quasiperiod_group_is_computed_once_per_divisor():
    D, _, _ = verify.random_line_divisor(np.random.default_rng(2))
    qg = quasiperiod_group(D)
    assert quasiperiod_group(D) is qg and qg == _quasiperiod_group(D, None)
    assert quasiperiod_group(D, max_denominator=7) == _quasiperiod_group(D, 7)
    E = Divisor(D.points)
    assert E == D and quasiperiod_group(E) == qg and quasiperiod_group(E) is not qg
    assert D.degree == sum(m for _, m in D.points)


# ---------------------------------------------------------------------------
# binary forms and O(n) elements


def _matrices(rng):
    yield ((1.0, 0.0), (0.0, 1.0))
    yield ((2, 1), (0, 1))
    yield ((0.5 + 0j, -1.0 + 0j), (0.25j, 2.0 + 0j))  # the entries of a complex array, as rows
    for _ in range(6):
        yield tuple(tuple(complex(x, y) for x, y in row) for row in rng.normal(size=(2, 2, 2)))


@pytest.mark.parametrize("n", range(1, 9))
def test_binary_form_substitute_matches_the_pair_product_form(n):
    rng = np.random.default_rng(n)
    for m in _matrices(rng):
        for zeros in ((), (0,), (n,), tuple(range(0, n + 1, 2))):
            coeffs = [complex(x, y) for x, y in rng.normal(size=(n + 1, 2))]
            for j in zeros:
                coeffs[j] = 0j
            assert same(binary_form_substitute(coeffs, m), old_binary_form_substitute(coeffs, m))


def test_binary_form_substitute_takes_only_the_powers_it_uses():
    # a zero coefficient's expansion is skipped, with its powers: 1e200**2 would overflow
    m = ((1e200, 0.0), (0.0, 1.0))
    for coeffs in ((0j, 0j, 0j), (0j, 0j, 1.0 + 0j)):
        assert same(binary_form_substitute(coeffs, m), old_binary_form_substitute(coeffs, m))
    with pytest.raises(OverflowError):
        old_binary_form_substitute((1.0 + 0j, 0j, 0j), m)
    with pytest.raises(OverflowError):
        binary_form_substitute((1.0 + 0j, 0j, 0j), m)


@given(st.lists(coefficients, min_size=1, max_size=7), st.lists(coefficients, min_size=4, max_size=4))
def test_binary_form_substitute_matches_on_any_entries(coeffs, entries):
    m = (tuple(entries[:2]), tuple(entries[2:]))
    assert same(binary_form_substitute(coeffs, m), old_binary_form_substitute(coeffs, m))
    assert same(binary_form_substitute(coeffs, m), old_loop_binary_form_substitute(coeffs, m))


# the zeros a coefficient may be: int, float and complex, with either sign in either part
ZEROS = (0, 0.0, -0.0, 0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))


@pytest.mark.parametrize("n", range(SUBSTITUTE_CAP + 4))
def test_substitute_kernels_match_the_replaced_loop(n):
    """Every pattern of zero coefficients up to the cap (one kernel branch each), a sample above it."""
    rng = np.random.default_rng([n, 13])
    masks = range(1 << (n + 1)) if n <= SUBSTITUTE_CAP else rng.integers(1 << (n + 1), size=24).tolist()
    for m in _matrices(rng):
        for mask in masks:
            coeffs = [complex(x, y) for x, y in rng.normal(size=(n + 1, 2))]
            for j in range(n + 1):
                if mask >> j & 1:
                    coeffs[j] = ZEROS[int(rng.integers(len(ZEROS)))]
            assert same(binary_form_substitute(coeffs, m), old_loop_binary_form_substitute(coeffs, m))
            assert same(binary_form_substitute(tuple(coeffs), m), old_loop_binary_form_substitute(coeffs, m))
    assert projective._substitute_kernel.cache_info().currsize <= SUBSTITUTE_CAP + 1  # keyed by degree only


# real and complex values at which the loop's int factors and `0j +` starts change a result's bits
SPECIAL_REALS = (0, 1, -3, 0.0, -0.0, 2.5, math.inf, -math.inf, math.nan, 1e-300)
SPECIAL_COMPLEX = (0j, complex(-0.0, -0.0), complex(math.inf, 0.0), complex(0.0, -math.inf), complex(1.0, math.nan), 1.5 - 2j)


@pytest.mark.parametrize("pool", [SPECIAL_REALS, SPECIAL_REALS + SPECIAL_COMPLEX])
def test_substitute_kernels_match_the_replaced_loop_on_special_values(pool):
    """Infinities, NaNs, ints and real entries: with real entries and coefficients, an infinite
    product starts a complex sum from `0j +`, which keeps the imaginary part 0 where an int factor
    times the complex sum would make it NaN.  Compared by repr, since NaN != NaN."""
    rng = np.random.default_rng(len(pool))
    for _ in range(3000):
        n = int(rng.integers(SUBSTITUTE_CAP + 3))
        coeffs = [pool[i] for i in rng.integers(len(pool), size=n + 1)]
        e = [pool[i] for i in rng.integers(len(pool), size=4)]
        m = ((e[0], e[1]), (e[2], e[3]))
        assert repr(outcome(binary_form_substitute, coeffs, m)) == repr(outcome(old_loop_binary_form_substitute, coeffs, m))


@pytest.mark.parametrize("n", [0, 1, 2, SUBSTITUTE_CAP, SUBSTITUTE_CAP + 1])
def test_substitute_kernels_overflow_where_the_loop_does(n):
    """An entry whose square overflows raises exactly when an expansion takes that power, with the
    loop's message: the kernels take the loop's powers in the loop's order, and no others."""
    raised = returned = 0
    for big in (1e200, complex(1e200, 0.0), -1e160j, 10**400):
        for pos in range(4):
            entries = [0.5, 1.0 + 0j, -2.0, 0.25j]
            entries[pos] = big
            m = (tuple(entries[:2]), tuple(entries[2:]))
            for mask in range(1 << (n + 1)):
                coeffs = [0j if mask >> j & 1 else complex(j + 1, -1.0) for j in range(n + 1)]
                got = outcome(binary_form_substitute, coeffs, m)
                assert same(got, outcome(old_loop_binary_form_substitute, coeffs, m))
                raised += isinstance(got[0], str)
                returned += not isinstance(got[0], str)
    assert returned and (raised or n == 0)  # degree 0 takes no power above the zeroth


def test_on_group_element_matches_the_replaced_constructor():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 5):
        for m in _matrices(rng):
            poly = [complex(x, y) for x, y in rng.normal(size=(n + 1, 2))]
            e = OnGroupElement(n, m, poly)
            assert same((e.n, e.matrix, e.poly), old_on_group_fields(n, m, poly))
        m = ((0.0, 1e-3j), (2.0, 1e-13))  # the reference entry is (0, 1)
        e = OnGroupElement(n, m, [0] * (n + 1))
        assert same((e.n, e.matrix, e.poly), old_on_group_fields(n, m, [0] * (n + 1)))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_on_group_element_reads_a_phase_that_rounds_to_two_pi(n):
    # a phase of -1e-300 is 2 pi modulo 2 pi, so k = n: the factor read from the table is exp(-2 pi i n / n)
    m = ((2.0 + 0j, 0.5j), (0j, complex(1.0, -1e-300)))
    assert int(cmath.phase(m[1][1]) % (2 * math.pi) // (2 * math.pi / n)) == n
    e = OnGroupElement(n, m, [0] * (n + 1))
    assert same((e.n, e.matrix, e.poly), old_on_group_fields(n, m, [0] * (n + 1)))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 9])
@pytest.mark.parametrize("scale", [0.5, 0.7, 1.1])
def test_cnums_equal_scalar_draws(k, scale):
    a, b = np.random.default_rng([k, 4]), np.random.default_rng([k, 4])
    for _ in range(20):
        assert same(families._cnums(a, k, scale), old_cnums(b, k, scale))
    assert a.standard_normal() == b.standard_normal()


# ---------------------------------------------------------------------------
# the SC biholomorphisms


@pytest.mark.parametrize("c", [1.0 + 0j, -1.0 + 0j, 1j])
def test_sc_row_matches_biholo_apply(c):
    rng = np.random.default_rng(abs(hash(c)) % 1000)
    data = bundles.SCData(1.0 + 0j, 1j, c)
    for _ in range(30):
        phi = verify.random_sc_biholo(rng, data)
        for _ in range(10):
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.15, 0.15))
            w = complex(rng.normal(), rng.normal())
            assert same(bundles.biholo_apply(phi, z, w), old_biholo_apply(phi, z, w))
            assert same(bundles.biholo_inverse_apply(phi, z, w), old_biholo_inverse_apply(phi, z, w))
            fmap = bundles.as_map(phi)
            assert same(fmap(z, w), old_biholo_apply(phi, z, w))
            assert same(fmap.backward(z, w), old_biholo_inverse_apply(phi, z, w))


@pytest.mark.parametrize("c", [1.0 + 0j, -1.0 + 0j, 1j])
def test_map_normalizes_deck_matches_the_replaced_check(c):
    rng = np.random.default_rng(7)
    data = bundles.SCData(1.0 + 0j, 1j, c)
    verdicts = set()
    for _ in range(12):
        phi = verify.random_sc_biholo(rng, data)
        bad = verify.corrupt_sc_map(rng, data)
        for new_map, old_map in ((bundles.as_map(phi), old_as_map(phi)), (bad, bad)):
            seed = int(rng.integers(1 << 30))
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = bundles.map_normalizes_deck(new_map, data, a)
            assert got == old_map_normalizes_deck(old_map, data, b)
            assert a.normal() == b.normal()
            verdicts.add(got)
    assert verdicts == {True, False}


def _recording(fmap, log):
    """fmap, with each argument pair of its forward map appended to log."""
    return bundles.PlaneMap(lambda z, w: log.append((z, w)) or fmap.forward(z, w), fmap.backward)


@pytest.mark.parametrize("c", [1.0 + 0j, -1.0 + 0j, 1j])
def test_deck_check_pulling_each_point_back_once_matches_the_replaced_check(c):
    """Family members, corrupt maps and compositions: the same verdicts, the same forward images in
    the same order, bit for bit, and the same draws taken from the generator."""
    rng = np.random.default_rng(11)
    data = bundles.SCData(1.0 + 0j, 1j, c)
    verdicts = set()
    for _ in range(8):
        f1, f2 = (bundles.as_map(verify.random_sc_biholo(rng, data)) for _ in range(2))
        for fmap in (f1, verify.corrupt_sc_map(rng, data), f1.compose(f2)):
            seed = int(rng.integers(1 << 30))
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            new_log, old_log = [], []
            got = bundles.map_normalizes_deck(_recording(fmap, new_log), data, a)
            assert got == old_per_generator_map_normalizes_deck(_recording(fmap, old_log), data, b)
            assert new_log and same(new_log, old_log)
            assert a.random() == b.random()
            verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", range(3))
def test_sample_points_draw_the_replaced_stream(seed):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for count in (0, 1, 7, 50):
        assert same(bundles._sample_points(a, count), list(old_sample_points(b, count)))
    assert a.random() == b.random()


# every `lo + (hi - lo) * rng.random()` draw of the package, read from its source
UNIFORM_DRAW = re.compile(r"(-?[\d.]+) \+ \((-?[\d.]+) - (-?[\d.]+)\) \* (?:rng\.)?random\(\)")


def _uniform_draw_bounds():
    found = set()
    for path in pathlib.Path(homsurf.__file__).parent.glob("*.py"):
        for lo, hi, lo_again in UNIFORM_DRAW.findall(path.read_text(encoding="utf-8")):
            assert lo == lo_again, f"{path.name}: {lo} + ({hi} - {lo_again}) is not a uniform draw"
            found.add((float(lo), float(hi)))
    return sorted(found)


def test_the_uniform_draw_sites_are_the_pinned_bounds():
    pinned = [(-1.0, 1.0), (-0.15, 0.15), (-0.45, 0.45), (0.9, 1.6), (-0.4, 0.4), (0.9, 1.5), (-0.5, 0.5), (-0.25, 0.25), (-0.35, 0.35)]
    assert _uniform_draw_bounds() == sorted(pinned)


@pytest.mark.parametrize("lo, hi", _uniform_draw_bounds())
def test_uniform_equals_the_scalar_formula(lo, hi):
    for seed in range(3):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [repr(lo + (hi - lo) * a.random()) for _ in range(2000)]
        assert got == [repr(b.uniform(lo, hi)) for _ in range(2000)], (
            f"numpy's Generator.uniform({lo}, {hi}) no longer draws lo + (hi - lo) * random(): the verify "
            "path's scalar draws (bundles._sample_points, verify) would change every seeded report"
        )
        assert [repr(a.random()) for _ in range(200)] == [repr(b.uniform()) for _ in range(200)], (
            "numpy's Generator.uniform() no longer equals random(): the corrupt SC maps would change"
        )


@pytest.mark.parametrize("seed", range(3))
def test_normal_equals_standard_normal(seed):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    assert [repr(a.standard_normal()) for _ in range(5000)] == [repr(b.normal()) for _ in range(5000)], (
        "numpy's Generator.normal() no longer equals standard_normal(): the verify path's scalar draws "
        "would change every seeded report"
    )


# ---------------------------------------------------------------------------
# translate, the O(n) distance, the Bgamma1/2 group law and the normal forms against the replaced code

frequencies = st.sampled_from([0j, complex(-0.0, 0.0), 1j, -0.5 + 2j, 2j * math.pi, 1e-3 - 1e-3j, 30.0 + 0j])


@given(st.lists(st.tuples(frequencies, polynomials), max_size=3), coefficients)
def test_translate_matches_the_replaced_code(terms, t):
    f = ExpPoly(tuple(terms))
    assert same(outcome(translate, f, t), outcome(old_translate, f, t))


def test_translate_raises_where_the_replaced_code_does():
    f = ExpPoly(((-1.0 + 0j, Polynomial((1.0, 2.0, 3.0))), (0.5j, Polynomial((0j, -0.0, 1e-13, 2.0)))))
    for t in (0j, complex(-0.0, -0.0), 1e200, 1000.0, -1000.0 + 5j, 1e-12j):
        assert same(outcome(translate, f, t), outcome(old_translate, f, t))
    assert isinstance(outcome(translate, f, 1e200)[0], str)  # (-t) ** 2 overflows
    assert isinstance(outcome(translate, f, 1000.0)[0], str)  # e^{1000} overflows


def test_on_distance_matches_the_replaced_code():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 5, 8):
        for m in _matrices(rng):
            poly = [complex(x, y) for x, y in rng.normal(size=(n + 1, 2))]
            e = OnGroupElement(n, m, poly)
            zeta = cmath.exp(2j * math.pi * int(rng.integers(n)) / n)
            (a, b), (c, d) = e.matrix
            others = [
                e,
                OnGroupElement(n, ((zeta * a, zeta * b), (zeta * c, zeta * d)), poly),
                OnGroupElement(n, families._matrix(rng, min_det=0.3, scale=1.0), poly[::-1]),
                OnGroupElement(n, m, [math.nan] + poly[1:]),
            ]
            for o in others:
                assert same(e.distance(o), old_on_distance(e, o))
                assert same(o.distance(e), old_on_distance(o, e))


def test_normal_form_generators_match_the_replaced_table():
    rng = np.random.default_rng(12)
    for _ in range(10):
        for name in uaff.CANONICAL_ROW:
            _, label = verify.random_d2_generators(rng, name)
            assert same(uaff.normal_form_generators(label), old_normal_form_generators(label))
            label = uaff.D2Label(name, k=int(rng.integers(-3, 4)), b=-0.0, tau=1j, a=complex(-0.0, 1.0), a1=0j, a2=2j)
            assert same(uaff.normal_form_generators(label), old_normal_form_generators(label))


@pytest.mark.parametrize("seed", range(8))
def test_product_covers_and_classifier_labels_follow_the_row_table(seed):
    rng = np.random.default_rng(seed)
    for name in uaff.CANONICAL_ROW:
        gens, label = verify.random_d2_generators(rng, name)
        phi = uaff.UAffAutomorphism(complex(rng.standard_normal(), 0.5), cmath.exp(0.3j * seed))
        for subgroup in (gens, [uaff.aut_apply(phi, g) for g in gens]):
            got, _ = uaff.classify_subgroup(subgroup)
            assert same(got.generators, tuple(uaff.normal_form_generators(got))), name
        if name in uaff.NONABELIAN_LABELS:
            continue
        for _ in range(4):
            point = uaff.UAffElement(
                complex(rng.standard_normal(), rng.standard_normal()),
                complex(rng.standard_normal(), rng.standard_normal()),
            )
            assert same(uaff.product_cover(label, point), old_product_cover(label, point)), name


# ---------------------------------------------------------------------------
# the distances of the axioms suite, resolved once per suite


@pytest.mark.parametrize("label", families.BASE_FAMILY_LABELS)
def test_resolved_distances_equal_distance(label):
    handler = families.build_family(label)
    rng = verify.rng_for(3, label)
    element_distance = distance_for(handler.random_element(rng))
    point_distance = distance_for(handler.random_point(rng))
    ident = handler.identity()
    for _ in range(200):
        g, h = handler.random_element(rng), handler.random_element(rng)
        x, y = handler.random_point(rng), handler.random_point(rng)
        gh = handler.multiply(g, h)
        for a, b in ((g, h), (handler.multiply(g, handler.inverse(g)), ident), (handler.multiply(g, ident), g)):
            assert same(element_distance(a, b), distance(a, b))
        for a, b in ((x, y), (handler.act(gh, x), handler.act(g, handler.act(h, x))), (handler.act(g, x), x)):
            assert same(point_distance(a, b), distance(a, b))


def test_resolved_distance_of_each_shape():
    pairs = [
        (1.5, 2),
        (1j, 3 + 0j),
        ((1j, 2.0), (0.5j, 2.5)),
        ((1j, (2.0, 3j)), (1.5j, (2.0, -3j))),
        ((1j, 2.0, 3.0), (1j, 2.5, -3.0)),
        ((), ()),
        (projective.ProjPoint(1j), projective.ProjPoint(2.0)),
    ]
    for a, b in pairs:
        assert same(distance_for(a)(a, b), distance(a, b)), (a, b)


@pytest.mark.parametrize(
    "a, b",
    [
        (np.array([[1j, 2.0], [0.5, 3.0]]), np.array([[1j, 2.5], [0.5, -3.0]])),
        ([1j, 2.0], [1.5j, 2.0]),
        (np.float64(1.5), np.float64(2.0)),
    ],
)
def test_distance_refuses_arrays_and_lists(a, b):
    """Numbers, tuples and values with their own `distance` are the value types: nothing else is
    converted, so an array or a list raises TypeError in both forms."""
    with pytest.raises(TypeError, match="no distance"):
        distance(a, b)
    with pytest.raises(TypeError, match="no distance"):
        distance_for(a)


# ---------------------------------------------------------------------------
# the matrix families' group laws: Python rows in place of numpy arrays


def old_eye2():
    return np.eye(2, dtype=complex)


def old_inverse2(g):
    return np.array(projective.inverse2(as_rows(g)))


def old_affine_identity():
    return (np.eye(2, dtype=complex), np.zeros(2, dtype=complex))


def old_affine_multiply(g, h):
    return (g[0] @ h[0], g[1] + g[0] @ h[1])


def old_affine_inverse(g):
    mi = old_inverse2(g[0])
    return (mi, -mi @ g[1])


# label -> (identity, multiply, inverse) of the numpy handler it replaced, the matrix parts as arrays
OLD_LAWS = {
    "A1": (lambda: np.eye(3, dtype=complex), operator.matmul, np.linalg.inv),
    "A2": (old_affine_identity, old_affine_multiply, old_affine_inverse),
    "A3": (old_affine_identity, old_affine_multiply, old_affine_inverse),
    "Bδ1": (old_eye2, operator.matmul, old_inverse2),
    "Bδ2": (old_eye2, operator.matmul, old_inverse2),
    "C9": (old_eye2, operator.matmul, old_inverse2),
}


def _flat(x):
    """The complex entries of a nested value: rows, pairs and arrays."""
    if isinstance(x, (tuple, list, np.ndarray)):
        return [z for part in x for z in _flat(part)]
    return [complex(x)]


def _relative(got, want):
    """Largest entry difference over the largest entry (at least 1)."""
    a, b = _flat(got), _flat(want)
    assert len(a) == len(b)
    return max(abs(x - y) for x, y in zip(a, b)) / max(1.0, *map(abs, a), *map(abs, b))


def _as_arrays(label, g):
    return (np.array(g[0]), np.array(g[1])) if label in ("A2", "A3") else np.array(g)


@pytest.mark.parametrize("label", sorted(OLD_LAWS))
def test_matrix_group_laws_match_the_numpy_handlers(label):
    old_identity, old_multiply, old_inverse = OLD_LAWS[label]
    handler = families.build_family(label)
    assert _flat(handler.identity()) == _flat(old_identity())
    rng = np.random.default_rng(11)
    for _ in range(500):
        g, h = handler.random_element(rng), handler.random_element(rng)
        ga, ha = _as_arrays(label, g), _as_arrays(label, h)
        assert _relative(handler.multiply(g, h), old_multiply(ga, ha)) <= 1e-14
        # A1's adjugate inverse against LU: both are within a few ulps of the inverse, not of each other
        assert _relative(handler.inverse(g), old_inverse(ga)) <= (1e-12 if label == "A1" else 1e-14)


@pytest.mark.parametrize("label", ["C5", "C6", "C7"])
def test_psl2_factors_match_the_numpy_handlers(label):
    handler = families.build_family(label)
    rng = np.random.default_rng(12)
    assert _flat(handler.identity()[0]) == _flat(old_eye2())
    for _ in range(500):
        g, h = handler.random_element(rng), handler.random_element(rng)
        for i in (0, 1) if label == "C7" else (0,):
            assert _relative(handler.multiply(g, h)[i], np.array(g[i]) @ np.array(h[i])) <= 1e-14
            assert _relative(handler.inverse(g)[i], old_inverse2(np.array(g[i]))) == 0.0


def test_product3_and_inverse3_on_awkward_matrices():
    m = ((0j, 1.0, 0j), (1.0, 0j, 0j), (0j, 0j, 2j))
    assert _relative(numeric.inverse3(m), np.linalg.inv(np.array(m))) == 0.0
    assert _relative(numeric.product3(m, numeric.inverse3(m)), np.eye(3)) == 0.0
    with pytest.raises(ValueError):
        numeric.inverse3(((1.0, 2.0, 3.0), (2.0, 4.0, 6.0), (0.0, 0.0, 1.0)))


# ---------------------------------------------------------------------------
# the classifiers' numeric layer


def outcome(f, *args, **kwargs):
    """What f returns, or the type and message of what it raises."""
    try:
        return f(*args, **kwargs)
    except Exception as e:  # noqa: BLE001 - an error is an outcome to compare
        return (type(e).__name__, str(e))


def generator_lists(dim, count, seed):
    """Lists of 1 to 4 generators in R^dim: integer and rational combinations of one or two
    vectors, with near-dependent, signed-zero, tiny, irrational and zero members."""
    rng = np.random.default_rng([seed, dim])
    out = []
    for _ in range(count):
        base = rng.normal(size=(int(rng.integers(1, 3)), dim)) * 10.0 ** rng.uniform(-3, 3)
        coeffs = rng.integers(-3, 4, size=(int(rng.integers(1, 5)), len(base)))
        vecs = (coeffs @ base / (1, 2, 3, 6, 7)[int(rng.integers(5))]).tolist()
        kind = int(rng.integers(7))
        if kind == 1:
            vecs[0] = [x + 1e-9 * y for x, y in zip(vecs[0], rng.normal(size=dim))]
        elif kind == 2:
            for v in vecs:
                v[int(rng.integers(dim))] = -0.0
            vecs.append([-0.0, 0.0] * (dim // 2))
        elif kind == 3:
            vecs = [[1e-11 * x for x in v] for v in vecs]
        elif kind == 4:
            vecs.append([math.sqrt(2) * x for x in base[0]])
        elif kind == 5:
            vecs[0] = [x * (1.0 + 1e-12) for x in vecs[0]]
        out.append(vecs[:4])
    return out


# non-finite, too large and all-zero generators, in R^2 and R^4
EDGE_GENERATORS = [
    [],
    [(0.0, 0.0)],
    [(-0.0, 0.0), (0.0, -0.0)],
    [(float("nan"), 0.0)],
    [(1.0, 0.0), (0.0, float("inf"))],
    [(1e151, 0.0)],
    [(-1e150, 0.0), (0.0, 1.0)],
    [(1e300, 0.0), (0.0, 1e-300)],
    [(1e-13, 0.0), (0.0, 1e-13)],
    [(1.0, 0.0), (1.0 / 3, 0.0)],
    [(1.0, 0.0), (0.5, 0.0), (0.0, 1.0)],
    [(1.0, 0.0), (0.5, 0.0), (1.0 / 3, 0.0)],
    [(1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, -0.0)],
    [(1.0, 2.0, 0.0, 1.0), (float("-inf"), 0.0, 0.0, 0.0)],
    [(1e151, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)],
]


@pytest.mark.parametrize("bound", [1, 2, 3, None])
@pytest.mark.parametrize("dim", [2, 4])
def test_zmodule_basis_matches_the_replaced_code(dim, bound):
    for gens in generator_lists(dim, 300, 1) + EDGE_GENERATORS:
        got = outcome(lattice.zmodule_basis, gens, max_denominator=bound)
        assert same(got, outcome(old_zmodule_basis, gens, max_denominator=bound)), gens


def test_zmodule_basis_keeps_its_bound_error():
    for bound in (0, -3):
        for gens in ([(1.0, 0.0)], [(1.0, 0.0), (0.5, 1.0)]):
            got = outcome(lattice.zmodule_basis, gens, max_denominator=bound)
            assert got[0] == "ValueError" and same(got, outcome(old_zmodule_basis, gens, max_denominator=bound))
        # no coordinate to reconstruct, so no error
        assert lattice.zmodule_basis([(0.0, 0.0)], max_denominator=bound) == ([], [], [[1]])


@pytest.mark.parametrize("dim", [2, 4])
def test_zmodule_coords_matches_the_replaced_code(dim):
    def zmodule_coords(v, basis, scale=0.0):
        return lattice.zmodule_fit(basis)(v, scale=scale)

    rng = np.random.default_rng([2, dim])
    for gens in generator_lists(dim, 200, 2):
        found = outcome(lattice.zmodule_basis, gens)
        if isinstance(found[0], str):
            continue
        basis = found[0]
        combo = rng.integers(-3, 4, size=len(basis)) @ np.array(basis, dtype=float).reshape(len(basis), dim)
        probes = [list(g) for g in gens] + [
            combo.tolist(),
            [x + 0.5 * y for x, y in zip(gens[0], basis[0])] if basis else list(gens[0]),
            [float("nan")] * dim,
            [0.0] * dim,
        ]
        for v in probes:
            for scale in (0.0, 10.0):
                got = outcome(zmodule_coords, v, basis, scale=scale)
                assert same(got, old_zmodule_coords(v, basis, scale=scale))
    for v in ((0.0, 0.0), (1e-9, 0.0), (1e-7, 0.0)):
        assert same(zmodule_coords(v, []), old_zmodule_coords(v, []))
    # the rebuild residual is measured against max(1, scale, |v|): 0.5 passes beside 1e6, 2.0 does not
    for v in ((1e6, 0.5), (1e6, 2.0), (3.0, 1e-7), (3.0, 2e-6)):
        assert same(zmodule_coords(v, [(1.0, 0.0)]), old_zmodule_coords(v, [(1.0, 0.0)]))
    mismatch = ((1.0, 0.0, 5.0), [(1.0, 0.0)])
    assert same(outcome(zmodule_coords, *mismatch), outcome(old_zmodule_coords, *mismatch))


OMEGA = cmath.exp(1j * math.pi / 3)


# units of the square and hexagonal lattices, of every lattice, and two maps that are no units
UNITS = [(1j, -1j), (OMEGA, 1 / OMEGA), (-1.0, -1.0), (2.0, 0.5), (cmath.exp(1j), cmath.exp(-1j))]


@pytest.mark.parametrize("units", UNITS)
def test_saturate_lattice_matches_the_replaced_code(units):
    rng = np.random.default_rng(3)
    for _ in range(40):
        beta = complex(rng.normal(), rng.normal())
        second = (1j, OMEGA, 0.3 + 1.1j)[int(rng.integers(3))]
        values = [beta * z for z in (1.0, second, 2.0)[: int(rng.integers(1, 4))]]
        images = [lambda b, u=u: u * b for u in units]
        scale = max(1.0, max(map(abs, values)))
        got = outcome(lattice.saturate_lattice, values, images, scale)
        assert same(got, outcome(old_saturate_lattice, values, images, scale))


def test_singular_values_and_rank_match_the_replaced_code(rng):
    for _ in range(400):
        rows = rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(1, 5)))) * 10.0 ** rng.uniform(-6, 6)
        if rng.integers(3) == 0:
            rows[-1] = rows[0] * 2.0  # dependent
        if rng.integers(3) == 0:
            rows[0, 0] = -0.0
        rows = rows.tolist()
        assert same(lattice.singular_values(rows), old_singular_values(rows))
        assert lattice.real_rank(rows) == old_real_rank(rows)
    assert same(lattice.singular_values([]), old_singular_values([]))
    assert same(lattice.singular_values([(0.0, -0.0), (-0.0, 0.0)]), old_singular_values([(0.0, -0.0), (-0.0, 0.0)]))


def test_qr_solve_and_integer_fit_match_the_replaced_code(rng):
    for _ in range(400):
        dim = int(rng.choice([2, 4]))
        cols = (rng.normal(size=(int(rng.integers(1, 4)), dim)) * 10.0 ** rng.uniform(-3, 3)).tolist()
        if rng.integers(3) == 0:
            cols.append([2.0 * x - y for x, y in zip(cols[0], cols[-1])])  # dependent
        ints = rng.integers(-3, 4, size=len(cols))
        v = [sum(int(k) * c[i] for k, c in zip(ints, cols)) for i in range(dim)]
        if rng.integers(3) == 0:
            v = [x + 1e-3 * y for x, y in zip(v, rng.normal(size=dim))]
        qr = lattice._qr(cols)
        assert same(qr, old_qr(cols))
        assert same(lattice._qr_solve(*qr, v), old_qr_solve(*qr, v))
        assert same(lattice._back_substitute(qr[1], v[: len(cols)]), old_back_substitute(qr[1], v[: len(cols)]))
        for tol, scale in ((COMBO_TOL, 1.0), (1e-2, 10.0)):
            assert same(lattice._integer_fit(v, cols, qr, tol, scale), old_integer_fit(v, cols, qr, tol, scale))


def test_hnf_matches_the_replaced_code(rng):
    for _ in range(500):
        rows = rng.integers(-6, 7, size=(int(rng.integers(1, 6)), int(rng.integers(1, 5))))
        if rng.integers(3) == 0:
            rows[-1] = 0
        assert same(lattice.hnf_with_transform(rows.tolist()), old_hnf_with_transform(rows.tolist()))
    assert same(lattice.hnf_with_transform([]), old_hnf_with_transform([]))


RECONSTRUCT_INPUTS = [0.0, -0.0, 1.0, -3.0, 0.5, 1 / 3, -2 / 7, 5 / 6, 355 / 113, 1 / 999983, 0.1 + 1e-12,
                      math.sqrt(2), math.pi, math.e, 1e-13, 1e300, -1e300, 2.0**60 + 0.5, 1 - 1e-12,
                      float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("bound", [1, 2, 7, 113, None])
def test_rational_reconstruct_matches_the_replaced_code(bound):
    rng = np.random.default_rng(4)
    xs = RECONSTRUCT_INPUTS + (rng.integers(-50, 51, size=200) / rng.integers(1, 60, size=200)).tolist()
    for x in xs + [x * (1 + 1e-11) for x in xs]:
        got = lattice.rational_reconstruct(x, max_denominator=bound)
        assert same(got, old_rational_reconstruct(x, max_denominator=bound)), x
        pq = lattice._convergent(float(x), DENOMINATOR_BOUND if bound is None else bound)
        assert pq == (None if got is None else (got.numerator, got.denominator))


def test_rational_reconstruct_keeps_its_bound_error():
    for bound in (0, -1):
        assert same(outcome(lattice.rational_reconstruct, 0.5, bound), outcome(old_rational_reconstruct, 0.5, bound))


def test_proj_distance_matches_the_replaced_code(rng):
    shapes = [(2, 2), (3, 3)]
    for _ in range(500):
        n, m = shapes[int(rng.integers(2))]
        g = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        h = g * complex(rng.normal(), rng.normal()) + 1e-9 * rng.normal(size=(n, m))
        kind = int(rng.integers(4))
        if kind == 1:  # ties of the largest modulus
            g = np.array([[1.0, 1j], [-1.0, 0.5]]) if n == 2 else np.eye(3) * np.array([1.0, 1j, -1.0])
        elif kind == 2:
            h[np.unravel_index(np.abs(g).argmax(), g.shape)] = 0.0
        elif kind == 3:
            g = g.real.round()
        for a, b in ((g, h), (g.tolist(), h.tolist()), (tuple(map(tuple, g.tolist())), h)):
            assert same(families._proj_distance(a, b), old_proj_distance(a, b))
    ints = ((1, 0), (0, 1))
    assert same(families._proj_distance(ints, ((2, 0), (0, 2))), old_proj_distance(ints, ((2, 0), (0, 2))))
    nan = ((float("nan"), 1.0), (2.0, 0.0))
    assert same(repr(families._proj_distance(nan, ints)), repr(old_proj_distance(nan, ints)))


# ---------------------------------------------------------------------------
# G_D as the lam = 1 subgroup of rG_D, and the four morphism constructors, against the replaced
# G_D law and `morphism_family`


class OldGDElement(numeric.Record):
    __slots__ = ("divisor", "t", "f")

    def __init__(self, divisor, t, f):
        numeric.setfield(self, "divisor", divisor)
        numeric.setfield(self, "t", t)
        numeric.setfield(self, "f", f)
        bbeta._check_divisor(self.divisor)
        if not contains(self.divisor, self.f):
            raise ValueError("f is not in the solution space of the divisor")


def old_gd_identity(D):
    return OldGDElement(D, 0j, ExpPoly.zero())


def old_gd_multiply(g, h):
    if g.divisor != h.divisor:
        raise ValueError("divisor mismatch")
    return OldGDElement(g.divisor, g.t + h.t, g.f + translate(h.f, g.t))


def old_gd_inverse(g):
    return OldGDElement(g.divisor, -g.t, translate(g.f, -g.t).scale(-1))


def old_gd_act(g, zw):
    z, w = zw
    z1 = z + g.t
    return (z1, w + evaluate(g.f, z1))


def old_random_gd(D, rng, scale=0.7):
    t = complex(rng.standard_normal(), rng.standard_normal()) * scale
    return OldGDElement(D, t, random_member(D, rng, scale=scale))


def old_rgd_multiply(g, h):
    if g.divisor != h.divisor:
        raise ValueError("divisor mismatch")
    return bbeta.RGDElement(
        g.divisor, g.t + h.t, g.lam * h.lam, g.f + translate(h.f, g.t).scale(g.lam)
    )


def old_morphism_family(kind, group, divisor, *, g=None, mu=None, nu=None, f0=None, a=None):
    D = bbeta._check_divisor(divisor)
    if group not in ("gd", "rgd"):
        raise ValueError("group must be 'gd' or 'rgd'")
    if kind == 1:
        act = old_gd_act if group == "gd" else bbeta.rgd_act
        mult = old_gd_multiply if group == "gd" else old_rgd_multiply
        inv = old_gd_inverse if group == "gd" else bbeta.rgd_inverse
        ginv = inv(g)

        def delta(zw):
            return act(g, zw)

        def h(x):
            return mult(mult(g, x), ginv)

        return bbeta.Morphism(delta, h, D, D)
    if kind == 2:
        mu = complex(mu)
        nu = complex(nu)
        if abs(mu) == 0 or abs(nu) == 0:
            raise ValueError("mu and nu must be nonzero")
        E = D.scaled(mu)

        def delta(zw):
            return (zw[0] / mu, nu * zw[1])

        if group == "gd":

            def h(x):
                return OldGDElement(E, x.t / mu, x.f.scale_argument(mu).scale(nu))

        else:

            def h(x):
                return bbeta.RGDElement(E, x.t / mu, x.lam, x.f.scale_argument(mu).scale(nu))

        return bbeta.Morphism(delta, h, D, E)
    if kind == 3:
        if group == "gd":
            if f0 is None or not contains(D.plus_point(0j), f0):
                raise ValueError("f0 must lie in the solution space of divisor + [0]")

            def delta(zw):
                return (zw[0], zw[1] + evaluate(f0, zw[0]))

            def h(x):
                return OldGDElement(D, x.t, x.f + f0 - translate(f0, x.t))

            return bbeta.Morphism(delta, h, D, D)
        a = complex(a)
        F = D.translated(a)

        def delta(zw):
            return (zw[0], cmath.exp(a * zw[0]) * zw[1])

        def h(x):
            return bbeta.RGDElement(F, x.t, cmath.exp(a * x.t) * x.lam, x.f.modulate(a))

        return bbeta.Morphism(delta, h, D, F)
    raise ValueError("kind must be 1, 2 or 3")


def same_element(new, old):
    """An rG_D element equals a replaced one: a G_D element (no lam) when lam is 1."""
    lam = getattr(old, "lam", 1)
    return (
        new.divisor == old.divisor and same(new.t, old.t) and new.lam == lam and same(new.f, old.f)
    )


def _cnum(rng, scale):
    return complex(rng.standard_normal(), rng.standard_normal()) * scale


@pytest.mark.parametrize("seed", range(8))
def test_gd_as_the_lam_one_subgroup_matches_the_replaced_law(seed):
    rng, old_rng = np.random.default_rng([seed, 20]), np.random.default_rng([seed, 20])
    D = verify.random_divisor(rng, max_deg=4)
    assert D == verify.random_divisor(old_rng, max_deg=4)
    one, old_one = bbeta.rgd_identity(D), old_gd_identity(D)
    assert same_element(one, old_one)
    for _ in range(20):
        g, h = bbeta.random_gd(D, rng), bbeta.random_gd(D, rng)
        G, H = old_random_gd(D, old_rng), old_random_gd(D, old_rng)
        assert g.lam == 1 and same_element(g, G) and same_element(h, H)
        assert same_element(bbeta.rgd_multiply(g, h), old_gd_multiply(G, H))
        assert same_element(bbeta.rgd_multiply(one, g), old_gd_multiply(old_one, G))
        assert same_element(bbeta.rgd_inverse(g), old_gd_inverse(G))
        gh = bbeta.rgd_multiply(g, bbeta.rgd_inverse(h))
        assert same_element(gh, old_gd_multiply(G, old_gd_inverse(H)))
        x = (_cnum(rng, 0.5), _cnum(rng, 0.5))
        assert x == (_cnum(old_rng, 0.5), _cnum(old_rng, 0.5))
        assert bbeta.rgd_act(g, x) == old_gd_act(G, x)
        assert same(bbeta.rgd_act(one, x), old_gd_act(old_one, x))


@pytest.mark.parametrize("seed", range(8))
def test_the_morphism_constructors_match_morphism_family(seed):
    rng = np.random.default_rng([seed, 21])
    D = verify.random_divisor(rng, max_deg=4)
    for group in ("gd", "rgd"):
        rand, old_rand = (bbeta.random_gd, old_random_gd) if group == "gd" else (bbeta.random_rgd, bbeta.random_rgd)
        state = rng.bit_generator.state
        g0 = rand(D, rng, scale=0.5)
        rng.bit_generator.state = state
        G0 = old_rand(D, rng, scale=0.5)
        mu, nu, a = cmath.exp(_cnum(rng, 0.4)), cmath.exp(_cnum(rng, 0.4)), _cnum(rng, 0.4)
        pairs = [
            (bbeta.inner_morphism(g0), old_morphism_family(1, group, D, g=G0)),
            (bbeta.rescaling_morphism(D, mu, nu), old_morphism_family(2, group, D, mu=mu, nu=nu)),
        ]
        if group == "gd":
            f0 = random_member(D.plus_point(0j), rng, scale=0.5)
            pairs.append((bbeta.shear_morphism(D, f0), old_morphism_family(3, group, D, f0=f0)))
        else:
            pairs.append((bbeta.translation_morphism(D, a), old_morphism_family(3, group, D, a=a)))
        for kind, (mor, old) in enumerate(pairs, start=1):
            assert (mor.source, mor.target) == (old.source, old.target), (group, kind)
            for _ in range(10):
                state = rng.bit_generator.state
                g = rand(D, rng, scale=0.5)
                rng.bit_generator.state = state
                G = old_rand(D, rng, scale=0.5)
                x = (_cnum(rng, 0.5), _cnum(rng, 0.5))
                assert same(mor.delta(x), old.delta(x)), (group, kind)
                assert same_element(mor.h(g), old.h(G)), (group, kind)


# ---------------------------------------------------------------------------
# one product chart for examples B..E, G and H, and rG_D's quotients as example B's cover, against
# the closures `bbeta._line_cover` and `rgd_quotients` built per branch


def old_line_cover(label):
    """The cover map and the action of examples B..E, G and H as one closure pair per branch built
    them; the checks and the deck group, which did not change, are left out."""
    name, D = label.name, label.divisor
    lam, _ = bbeta._canonical_line_data(D)
    n = label.n
    s = complex(label.s) if name in ("E", "H") else None
    tau = complex(label.tau) if name in ("G", "H") else None
    m = bbeta.lam_exponent(lam, n) if name in ("C", "E", "H") else 0

    def zpart(z):
        return cmath.exp(numeric.TWO_PI_I * z / n)

    def lift(g, Z):
        return zpart(g.t) * Z, bbeta._fourier_coeffs(g.f, lam)

    if name == "B":

        def cover(z, w):
            return (zpart(z), cmath.exp(-lam * z) * w)

        def act(g, point):
            Z1, P = lift(g, point[0])
            return (Z1, cmath.exp(-lam * g.t) * point[1] + bbeta._eval_exponent_poly(P, Z1**n))

    elif name == "C":

        def cover(z, w):
            return (zpart(z), w - z / n)

        def act(g, point):
            Z1, P = lift(g, point[0])
            shift = bbeta._eval_exponent_poly({m + n * k: c for k, c in P.items()}, Z1)
            return (Z1, point[1] - g.t / n + shift)

    else:

        def fibre(z, w):
            return w if s is None else w - s * z / n

        def shift(g, Z1, P):
            x = bbeta._eval_exponent_poly(P, Z1**n)
            return x if s is None else -s * g.t / n + Z1**m * x

        if tau is None:

            def cover(z, w):
                return (zpart(z), cmath.exp(numeric.TWO_PI_I * fibre(z, w)))

            def act(g, point):
                Z1, P = lift(g, point[0])
                return (Z1, point[1] * cmath.exp(numeric.TWO_PI_I * shift(g, Z1, P)))

        else:

            def cover(z, w):
                return (zpart(z), lattice.TorusPoint(fibre(z, w), 1.0, tau))

            def act(g, point):
                Z1, P = lift(g, point[0])
                return (Z1, point[1].shifted(shift(g, Z1, P)))

    return cover, act


def old_rgd_quotients(D, n):
    """The cover map and the action of `rgd_quotients`, as its own closures built them."""

    def cover(z, w):
        return (cmath.exp(numeric.TWO_PI_I * z / n), w)

    def act(g, point):
        Z, W = point
        P = bbeta._fourier_coeffs(g.f, 0j)
        Z1 = cmath.exp(numeric.TWO_PI_I * g.t / n) * Z
        return (Z1, g.lam * W + bbeta._eval_exponent_poly(P, Z1**n))

    return cover, act


def _quotient_relative(got, want):
    """Largest difference of two points of a product quotient over the largest entry (at least 1),
    a point of C / (Z + tau Z) by its representative."""
    got, want = ([getattr(c, "value", c) for c in p] for p in (got, want))
    return _relative(got, want)


@pytest.mark.parametrize("seed", range(8))
def test_the_product_chart_matches_the_replaced_closures(seed):
    rng = verify.rng_for(seed, "Bβ1")
    for label in verify.sample_cover_labels(rng):
        if label.name in ("F", "I"):  # orbit representatives: no product chart, unchanged
            continue
        cov = bbeta.quotient_cover(label)
        old_cover, old_act = old_line_cover(label)
        for _ in range(20):
            g, (z, w) = verify._cover_sample(rng, label.divisor)
            point = cov.cover(z, w)
            assert repr(point) == repr(old_cover(z, w)), label.name
            assert _quotient_relative(cov.act(g, point), old_act(g, point)) <= 1e-12, label.name


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rgd_quotients_match_the_replaced_closures_and_example_b(n):
    rng = np.random.default_rng([n, 24])
    D, _, _ = verify.random_line_divisor(rng, lam=0.0, max_k=3)
    cov = bbeta.quotient_cover(bbeta.BBeta1Label("Bb2", D, n=n))  # row Bβ2′
    example_b = bbeta.quotient_cover(bbeta.BBeta1Label("B", D, n=n))
    old_cover, old_act = old_rgd_quotients(D, n)
    assert cov.deck == example_b.deck
    for _ in range(40):
        z, w = _cnum(rng, 0.5), _cnum(rng, 0.7)
        point = cov.cover(z, w)
        assert repr(point) == repr(old_cover(z, w)) == repr(example_b.cover(z, w))
        g = bbeta.random_rgd(D, rng, scale=0.4)
        assert _quotient_relative(cov.act(g, point), old_act(g, point)) <= 1e-12
        g = bbeta.random_gd(D, rng, scale=0.4)  # on G_D, rG_D's quotient is example B's
        assert repr(cov.act(g, point)) == repr(example_b.act(g, point))
