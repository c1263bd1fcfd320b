"""Projective-line machinery: Moebius actions, binary forms, the affine
quadric and its double cover, and the line-bundle surfaces O(n).

Points of the projective line are homogeneous pairs; equality is projective
(vanishing cross product).  A point of O(n) is carried in one of two affine
charts glued by (Z, W) = (1/z, w/z^n); the group action is computed on a
homogeneous carrier (v, q(v)) so chart switching near the gluing locus is
automatic.  Binary forms of degree n are coefficient vectors indexed by
descending powers of the first variable.

Convention fixed here (checked against the root-transformation oracle in the
tests): a matrix g acts on root pairs by Moebius transformation and on the
quadratic coefficient vector [a : b : c] by substituting g^{-1} into the
binary form.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator

from .numeric import CANONICAL_REF_TOL, EPS, LEADING_ZERO_TOL, ORIGIN_TOL, Record, binomials, check_invertible
from .numeric import distance, flat_distance, inverse2, product2, setfield


# ---------------------------------------------------------------------------
# projective points


class ProjPoint(Record):
    """Point of the projective line, normalized so the largest coordinate is 1.

    On equal moduli the first coordinate is the one set to 1.
    """

    __slots__ = ("coords",)

    def __init__(self, z1, z2=None):
        z1 = complex(z1)
        z2 = 1.0 + 0j if z2 is None else complex(z2)
        m1, m2 = abs(z1), abs(z2)
        if max(m1, m2) == 0:
            raise ValueError("projective point needs a nonzero representative")
        ref = z1 if m1 >= m2 else z2
        setfield(self, "coords", (z1 / ref, z2 / ref))

    @classmethod
    def infinity(cls):
        return cls(1.0, 0.0)

    def distance(self, other):
        """The cross product of the normalized coordinates: 0 exactly for the same point."""
        a1, a2 = self.coords
        b1, b2 = other.coords
        return abs(a1 * b2 - a2 * b1) / max(1.0, abs(a1), abs(a2)) / max(1.0, abs(b1), abs(b2))


class Proj2Point(Record):
    """Point of the projective plane, normalized like ProjPoint."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        v = [complex(c) for c in coords]
        if len(v) != 3:
            raise ValueError("need three homogeneous coordinates")
        m = [abs(c) for c in v]
        top = max(m)
        if top == 0:
            raise ValueError("projective point needs a nonzero representative")
        ref = v[m.index(top)]
        setfield(self, "coords", tuple(c / ref for c in v))

    def distance(self, other):
        """The largest entry of the cross product of the normalized coordinates."""
        a, b = self.coords, other.coords
        return max(map(abs, cross3(a, b))) / (max(1.0, *map(abs, a)) * max(1.0, *map(abs, b)))


def cross3(a, b):
    """Cross product of two 3-vectors of complex numbers."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def proj2_act(g3, p):
    """Linear action of an invertible 3x3 matrix on the projective plane."""
    x, y, z = p.coords
    return Proj2Point([r[0] * x + r[1] * y + r[2] * z for r in g3])


def mobius_act(g, p):
    """Moebius action of an invertible 2x2 matrix on the projective line."""
    (a, b), (c, d) = check_invertible(g)
    z1, z2 = p.coords
    return ProjPoint(a * z1 + b * z2, c * z1 + d * z2)


# ---------------------------------------------------------------------------
# binary forms


def binary_form_eval(coeffs, z1, z2):
    n = len(coeffs) - 1
    return sum(c * z1 ** (n - j) * z2**j for j, c in enumerate(coeffs))


SUBSTITUTE_CAP = 4  # degrees up to this run a straight-line kernel, higher degrees _substitute_loop


def binary_form_substitute(coeffs, m):
    """Coefficients of q(M Z) for a binary form q of degree n."""
    (m00, m01), (m10, m11) = m
    n = len(coeffs) - 1
    if 0 <= n <= SUBSTITUTE_CAP:
        return _substitute_kernel(n)(coeffs, m00, m01, m10, m11)
    return _substitute_loop(coeffs, m00, m01, m10, m11)


def _substitute_loop(coeffs, m00, m01, m10, m11):
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
        right = [b * p10[j - l] * p11[l] for l, b in enumerate(binomials(j))]
        prod = [0j] * (n + 1)
        i = 0
        for b in binomials(k):
            x = b * p00[k - i] * p01[i]
            for l, y in enumerate(right, i):
                prod[l] += x * y
            i += 1
        i = 0
        for t in prod:
            out[i] += c * t
            i += 1
    return tuple(out)


@functools.cache  # one kernel per degree, built on first use
def _substitute_kernel(n):
    """_substitute_loop at degree n as straight-line code, one branch per pattern of zero coefficients:
    the loop's operations in its order, with its `c == 0` skips, powers (A, B, C, D of m00, m01, m10,
    m11), int binomial factors and `0j +` starts, so a kernel gives its bits and raises where it raises."""
    lines = ["def kernel(coeffs, m00, m01, m10, m11):", "    " + "".join(f"c{j}, " for j in range(n + 1)) + "= coeffs"]

    def walk(j, pad, started, top):  # started: an earlier coefficient was nonzero; top: C, D powers taken
        if j > n:
            lines.append(pad + "return (" + "".join(f"o{i}, " if started else "0j, " for i in range(n + 1)) + ")")
            return
        k, body = n - j, pad + "    "
        lines.append(f"{pad}if c{j} == 0:")
        walk(j + 1, body, started, top)
        lines.append(f"{pad}else:")
        if not started:
            lines.extend(f"{body}{v}{e} = {m} ** {e}" for v, m in (("A", "m00"), ("B", "m01")) for e in range(k + 1))
        for e in range(top, j + 1):
            lines.extend((f"{body}C{e} = m10 ** {e}", f"{body}D{e} = m11 ** {e}"))
        lines.extend(f"{body}y{l} = {b} * C{j - l} * D{l}" for l, b in enumerate(binomials(j)))
        for i, b in enumerate(binomials(k)):
            lines.append(f"{body}x = {b} * A{k - i} * B{i}")
            lines.extend(f"{body}t{i + l} = {'t%d' % (i + l) if i and l < j else '0j'} + x * y{l}" for l in range(j + 1))
        lines.extend(f"{body}o{i} = {'o%d' % i if started else '0j'} + c{j} * t{i}" for i in range(n + 1))
        walk(j + 1, body, True, j + 1)

    walk(0, "    ", False, 0)
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["kernel"]


# ---------------------------------------------------------------------------
# the affine quadric (ordered distinct point pairs) and its double cover


class QuadricPoint(Record):
    """Ordered pair of distinct points of the projective line."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha, beta):
        setfield(self, "alpha", alpha)
        setfield(self, "beta", beta)
        if self.alpha.distance(self.beta) <= EPS:
            raise ValueError("quadric points need distinct entries")

    def swapped(self):
        return QuadricPoint(self.beta, self.alpha)

    def distance(self, other):
        return max(self.alpha.distance(other.alpha), self.beta.distance(other.beta))


def quadric_act(g, p):
    return QuadricPoint(mobius_act(g, p.alpha), mobius_act(g, p.beta))


def quadric_embed(p):
    """Embedding into the affine quadric y^2 - 4 x z = 1 in C^3."""
    a1, a2 = p.alpha.coords
    b1, b2 = p.beta.coords
    den = a1 * b2 - a2 * b1
    if abs(den) <= EPS * max(1.0, abs(a1) + abs(a2)) * max(1.0, abs(b1) + abs(b2)):
        raise ValueError("quadric points need distinct entries")
    return (a2 * b2 / den, (a1 * b2 + a2 * b1) / den, a1 * b1 / den)


def quadric_double_cover(p):
    """Coefficients [a : b : c] of a quadratic with roots alpha, beta."""
    a1, a2 = p.alpha.coords
    b1, b2 = p.beta.coords
    return Proj2Point((a2 * b2, -(a1 * b2 + a2 * b1), a1 * b1))


def quadric_preimages(p2):
    """Both ordered root pairs over a point of P^2 minus the conic b^2 = 4ac."""
    a, b, c = p2.coords
    scale = max(abs(a), abs(b), abs(c))
    disc = b * b - 4 * a * c
    if abs(disc) <= EPS * max(1.0, scale) ** 2:
        raise ValueError("point lies on the branch conic")
    if abs(a) > LEADING_ZERO_TOL * scale:
        s = cmath.sqrt(disc)
        top = -(b + s) if abs(b + s) >= abs(b - s) else -(b - s)
        q = top / 2
        alpha = ProjPoint(q / a)
        beta = ProjPoint(c / q) if abs(q) > 0 else ProjPoint(0.0)
    else:
        alpha = ProjPoint.infinity()
        beta = ProjPoint(-c, b)
    pt = QuadricPoint(alpha, beta)
    return pt, pt.swapped()


def conic_complement_act(g, p2):
    """The induced action on quadratic coefficients: substitute g^{-1}."""
    return Proj2Point(binary_form_substitute(p2.coords, inverse2(g)))


# ---------------------------------------------------------------------------
# O(n): total space of the n-th power of the hyperplane bundle


class BundlePoint(Record):
    """Point of O(n) in an affine chart; charts glued by (1/z, w/z^n)."""

    __slots__ = ("n", "chart", "z", "w")

    def __init__(self, n, chart, z, w):
        setfield(self, "n", n)
        setfield(self, "chart", chart)
        setfield(self, "z", z)
        setfield(self, "w", w)

    def carrier(self):
        """Homogeneous representative (v, value) with value = section(v)."""
        if self.chart == 0:
            return (complex(self.z), 1.0 + 0j), complex(self.w)
        return (1.0 + 0j, complex(self.z)), complex(self.w)

    def to_chart(self, chart):
        if chart == self.chart:
            return self
        if abs(self.z) == 0:
            raise ValueError("point is not on the chart overlap")
        return BundlePoint(self.n, chart, 1 / self.z, _over_power(self.w, self.z, self.n))

    def distance(self, other):
        """Compared in this point's chart."""
        if other.chart != self.chart:
            other = other.to_chart(self.chart)
        return max(distance(self.z, other.z), distance(self.w, other.w))


def _over_power(val, s, n):
    """val / s**n; a power s**n outside the float range is an error naming the bundle degree n."""
    try:
        p = s**n
    except OverflowError:
        raise OverflowError(f"{s}**{n} overflows: bundle degree {n} is too large for this point") from None
    if p == 0:
        raise ValueError(f"{s}**{n} underflows to 0: bundle degree {n} is too large for this point")
    return val / p


def _from_carrier(n, v, val):
    if abs(v[0]) <= abs(v[1]):
        return BundlePoint(n, 0, complex(v[0] / v[1]), complex(_over_power(val, v[1], n)))
    return BundlePoint(n, 1, complex(v[1] / v[0]), complex(_over_power(val, v[0], n)))


class OnGroupElement(Record):
    """Element (g, p) of (GL(2,C)/Z_n) acting on O(n), p a degree-n binary form.

    The matrix is stored canonicalized modulo scalar n-th roots of unity: the
    first entry of (1,1), (0,0), (0,1), (1,0) above CANONICAL_REF_TOL of the
    largest entry gets its argument into [0, 2 pi / n).
    """

    __slots__ = ("n", "matrix", "poly")

    def __init__(self, n, matrix, poly):
        n = int(n)
        try:
            (a, b), (c, d) = matrix
            a, b, c, d = complex(a), complex(b), complex(c), complex(d)
        except (TypeError, ValueError):
            raise ValueError("matrix must be 2x2") from None
        ma, mb, mc, md = abs(a), abs(b), abs(c), abs(d)
        top = max(ma, mb, mc, md)
        check_invertible(((a, b), (c, d)), top)  # each modulus taken once
        p = tuple(map(complex, poly))
        if len(p) != n + 1:
            raise ValueError("polynomial must have degree n")
        least = CANONICAL_REF_TOL * top  # invertible: some entry exceeds it
        ref = d if md > least else a if ma > least else b if mb > least else c
        k = int(cmath.phase(ref) % (2 * math.pi) // (2 * math.pi / n))
        if k:
            zeta = _unit_turns(n)[k]
            a, b, c, d = a * zeta, b * zeta, c * zeta, d * zeta
        setfield(self, "n", n)
        setfield(self, "matrix", ((a, b), (c, d)))
        setfield(self, "poly", p)

    def distance(self, other):
        """The matrix parts compared modulo scalar n-th roots of unity, and the forms entrywise."""
        (a, b), (c, d) = self.matrix
        (x, y), (z, w) = other.matrix
        scale = max(1.0, abs(a), abs(b), abs(c), abs(d), abs(x), abs(y), abs(z), abs(w))
        best = math.inf
        for zeta in _roots_of_unity(self.n):
            best = min(best, max(abs(a - zeta * x), abs(b - zeta * y), abs(c - zeta * z), abs(d - zeta * w)) / scale)
        return max(best, flat_distance(self.poly, other.poly))

    def fixing_infinity(self):
        """self, once its matrix fixes infinity as the Bgamma elements do: lower-left entry 0 to EPS at its scale."""
        (a, b), (c, d) = self.matrix
        if abs(c) > EPS * max(1.0, abs(a), abs(b), abs(c), abs(d)):
            raise ValueError("matrix must fix infinity (be upper triangular)")
        return self


@functools.lru_cache(maxsize=64)
def _roots_of_unity(n):
    """The n-th roots of unity exp(2 pi i j / n), j = 0..n-1: one table per bundle degree."""
    return tuple(cmath.exp(2j * math.pi * j / n) for j in range(n))


@functools.lru_cache(maxsize=64)
def _unit_turns(n):
    """exp(-2 pi i k / n), k = 0..n, the factors that canonicalize a matrix: k = n when a phase rounds to 2 pi."""
    return tuple(cmath.exp(-2j * math.pi * k / n) for k in range(n + 1))


def on_identity(n):
    return OnGroupElement(n, ((1.0, 0.0), (0.0, 1.0)), (0.0,) * (n + 1))


def on_multiply(e0, e1):
    """(g0, p0)(g1, p1) = (g0 g1, p0 + p1 o g0^{-1})."""
    if e0.n != e1.n:
        raise ValueError("mixed bundle degrees")
    comp = binary_form_substitute(e1.poly, inverse2(e0.matrix))
    return OnGroupElement(e0.n, product2(e0.matrix, e1.matrix), tuple(map(operator.add, e0.poly, comp)))


def on_inverse(e):
    p = tuple(map(operator.neg, binary_form_substitute(e.poly, e.matrix)))
    return OnGroupElement(e.n, inverse2(e.matrix), p)


def on_act(e, x):
    """Action on O(n); chart switching handled through the homogeneous carrier.  A point of another
    bundle degree than the element's is a ValueError that names the point, as `act` prints it."""
    if e.n != x.n:
        raise ValueError(f"point: bundle degree n = {x.n} is not the element's n = {e.n}")
    (v1, v2), val = x.carrier()
    (a, b), (c, d) = e.matrix
    u1, u2 = a * v1 + b * v2, c * v1 + d * v2
    s = max(abs(u1), abs(u2))
    u1, u2 = u1 / s, u2 / s
    val = _over_power(val, s, e.n)
    val = val + binary_form_eval(e.poly, u1, u2)
    return _from_carrier(e.n, (u1, u2), val)


# ---------------------------------------------------------------------------
# the Bgamma subgroups: upper-triangular elements of O(n), acting on the affine chart C^2


def _upper(n, log_a, b, log_d, poly):
    """The element with the matrix ((e^log_a, b), (0, e^log_d)) and the form poly."""
    try:
        a, d = cmath.exp(log_a), cmath.exp(log_d)
    except OverflowError:
        raise ValueError("the matrix overflows") from None
    return OnGroupElement(n, ((a, b), (0j, d)), poly)


def bgamma12_element(n, c, lam, b, poly):
    """(lam, b, p) of Bgamma1 (c != 0) or Bgamma2 (c = 0): the matrix
    ((e^{lam(1 - c/n)}, b), (0, e^{-lam c/n})) with the form p."""
    return _upper(n, lam * (1 - c / n), b, -lam * c / n, poly)


def bgamma3_element(n, lam, b, r):
    """(lam, b, r) of Bgamma3: the matrix ((1, b), (0, e^{-lam})) with the form lam Z1^n + Z2 r(Z1, Z2)."""
    if len(r) != n:
        raise ValueError("r must have degree n - 1")
    return _upper(n, 0j, b, -lam, (lam, *r))


def bgamma_chart_act(e, zw):
    """Action of an element of O(n) fixing infinity, one of Bgamma1 to Bgamma4, on the affine chart C^2:
    z' = (a z + b) / d, w' = w / d^n + p(z', 1)."""
    (a, b), (_, d) = e.fixing_infinity().matrix
    z, w = zw
    z1 = (a * z + b) / d
    return (z1, _over_power(w, d, e.n) + binary_form_eval(e.poly, z1, 1.0))


# ---------------------------------------------------------------------------
# Bdelta: linear actions on C^2 minus the origin


def bdelta_act(g, x):
    """Linear action on C^2 \\ 0."""
    x1, x2 = (complex(v) for v in x)
    if max(abs(x1), abs(x2)) <= ORIGIN_TOL:
        raise ValueError("the origin is not a point of the surface")
    (a, b), (c, d) = g
    return (a * x1 + b * x2, c * x1 + d * x2)

