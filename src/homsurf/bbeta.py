"""The groups attached to an effective divisor of degree >= 2 on C.

G_D is the semidirect product of translations with the solution space of the
divisor's annihilator, acting on C^2 by (t, f)(z, w) = (z + t, w + f(z + t));
rG_D adds a rescaling of w.  Their commutants are built from quasiperiods and
weights, and every quotient of the plane by a discrete subgroup of the
commutant is one of ten explicit examples (labelled A0, A1, B, ..., I), each
realized here as a covering map with the induced action on the quotient
surface.  classify_pi sends a discrete subgroup of the commutant to its
example, replaying the normalization steps (divisor rescaling, w-rescaling,
and the shift automorphisms available for each divisor shape).

Degree-one divisors are rejected throughout: those actions are the
translation plane and the affine group, handled elsewhere.
"""

from __future__ import annotations

import cmath
import math

from .divisor import Divisor, quasiperiod_group, weight
from .exppoly import ExpPoly, contains, evaluate, random_member, translate
from .numeric import (
    NonDiscreteError,
    Record,
    c2r,
    close,
    distance,
    hnf_with_transform,
    lattice_contains,
    lattice_coords,
    lattice_reduce_tau,
    saturate_lattice,
    setfield,
    zmodule_basis,
)
from .surfaces import TorusPoint, product_equal

TWO_PI_I = 2j * math.pi


def _check_divisor(D):
    if D.degree < 2:
        raise ValueError("degree-one divisors are the translation plane / affine group")
    return D


# ---------------------------------------------------------------------------
# G_D and rG_D


class GDElement(Record):
    __slots__ = ("divisor", "t", "f")

    def __init__(self, divisor, t, f):
        setfield(self, "divisor", divisor)
        setfield(self, "t", t)
        setfield(self, "f", f)
        _check_divisor(self.divisor)
        if not contains(self.divisor, self.f):
            raise ValueError("f is not in the solution space of the divisor")

    def distance(self, other):
        return max(distance(self.t, other.t), self.f.distance(other.f))


def gd_identity(D):
    return GDElement(D, 0j, ExpPoly.zero())


def gd_multiply(g, h):
    if g.divisor != h.divisor:
        raise ValueError("divisor mismatch")
    return GDElement(g.divisor, g.t + h.t, g.f + translate(h.f, g.t))


def gd_inverse(g):
    return GDElement(g.divisor, -g.t, translate(g.f, -g.t).scale(-1))


def gd_act(g, zw):
    z, w = zw
    z1 = z + g.t
    return (z1, w + evaluate(g.f, z1))


def random_gd(D, rng, scale=0.7):
    t = complex(rng.standard_normal(), rng.standard_normal()) * scale
    return GDElement(D, t, random_member(D, rng, scale=scale))


class RGDElement(Record):
    __slots__ = ("divisor", "t", "lam", "f")

    def __init__(self, divisor, t, lam, f):
        setfield(self, "divisor", divisor)
        setfield(self, "t", t)
        setfield(self, "lam", lam)
        setfield(self, "f", f)
        _check_divisor(self.divisor)
        if abs(self.lam) == 0:
            raise ValueError("the rescaling component must be nonzero")
        if not contains(self.divisor, self.f):
            raise ValueError("f is not in the solution space of the divisor")

    def distance(self, other):
        return max(distance(self.t, other.t), distance(self.lam, other.lam), self.f.distance(other.f))


def rgd_identity(D):
    return RGDElement(D, 0j, 1.0 + 0j, ExpPoly.zero())


def rgd_multiply(g, h):
    if g.divisor != h.divisor:
        raise ValueError("divisor mismatch")
    return RGDElement(
        g.divisor, g.t + h.t, g.lam * h.lam, g.f + translate(h.f, g.t).scale(g.lam)
    )


def rgd_inverse(g):
    inv = 1.0 / g.lam
    return RGDElement(g.divisor, -g.t, inv, translate(g.f, -g.t).scale(-inv))


def rgd_act(g, zw):
    z, w = zw
    z1 = z + g.t
    return (z1, g.lam * w + evaluate(g.f, z1))


def random_rgd(D, rng, scale=0.7):
    t = complex(rng.standard_normal(), rng.standard_normal()) * scale
    lam = cmath.exp(complex(rng.standard_normal(), rng.standard_normal()) * scale)
    return RGDElement(D, t, lam, random_member(D, rng, scale=scale))


# ---------------------------------------------------------------------------
# the commutant of G_D: quasiperiods semidirect w-translations


class CentralizerElement(Record):
    """Pair (w, s) acting by (z, w) -> (w + z, gamma_w w + s)."""

    __slots__ = ("divisor", "w", "s")

    def __init__(self, divisor, w, s):
        setfield(self, "divisor", divisor)
        setfield(self, "w", w)
        setfield(self, "s", s)
        if not quasiperiod_group(self.divisor).contains(self.w):
            raise ValueError("invalid quasiperiod")

    @property
    def gamma(self):
        return weight(self.divisor, self.w)


def cent_identity(D):
    return CentralizerElement(D, 0j, 0j)


def cent_multiply(c0, c1):
    if c0.divisor != c1.divisor:
        raise ValueError("divisor mismatch")
    return CentralizerElement(c0.divisor, c0.w + c1.w, c0.s + c0.gamma * c1.s)


def cent_inverse(c):
    g = c.gamma
    return CentralizerElement(c.divisor, -c.w, -c.s / g)


def cent_act(c, zw):
    z, w = zw
    return (c.w + z, c.gamma * w + c.s)


# ---------------------------------------------------------------------------
# the three morphism families


class Morphism(Record):
    """Equivariant pair: delta on the plane, h on the group."""

    __slots__ = ("delta", "h", "source", "target")

    def __init__(self, delta, h, source, target):
        setfield(self, "delta", delta)
        setfield(self, "h", h)
        setfield(self, "source", source)
        setfield(self, "target", target)


def morphism_family(kind, group, divisor, *, g=None, mu=None, nu=None, f0=None, a=None):
    """One of the three morphism families for 'gd' or 'rgd'.

    kind 1: inner, by a group element g.
    kind 2: divisor rescaling by mu with w scaled by nu.
    kind 3: gd: shear by f0 in the solution space of divisor + [0];
            rgd: divisor translation by a via (z, w) -> (z, e^{az} w).
    """
    D = _check_divisor(divisor)
    if group not in ("gd", "rgd"):
        raise ValueError("group must be 'gd' or 'rgd'")
    if kind == 1:
        act = gd_act if group == "gd" else rgd_act
        mult = gd_multiply if group == "gd" else rgd_multiply
        inv = gd_inverse if group == "gd" else rgd_inverse
        ginv = inv(g)

        def delta(zw):
            return act(g, zw)

        def h(x):
            return mult(mult(g, x), ginv)

        return Morphism(delta, h, D, D)
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
                return GDElement(E, x.t / mu, x.f.scale_argument(mu).scale(nu))

        else:

            def h(x):
                return RGDElement(E, x.t / mu, x.lam, x.f.scale_argument(mu).scale(nu))

        return Morphism(delta, h, D, E)
    if kind == 3:
        if group == "gd":
            if f0 is None or not contains(D.plus_point(0j), f0):
                raise ValueError("f0 must lie in the solution space of divisor + [0]")

            def delta(zw):
                return (zw[0], zw[1] + evaluate(f0, zw[0]))

            def h(x):
                return GDElement(D, x.t, x.f + f0 - translate(f0, x.t))

            return Morphism(delta, h, D, D)
        a = complex(a)
        F = D.translated(a)

        def delta(zw):
            return (zw[0], cmath.exp(a * zw[0]) * zw[1])

        def h(x):
            return RGDElement(F, x.t, cmath.exp(a * x.t) * x.lam, x.f.modulate(a))

        return Morphism(delta, h, D, F)
    raise ValueError("kind must be 1, 2 or 3")


# ---------------------------------------------------------------------------
# quotient examples


class BBeta1Label(Record):
    """One of the quotient examples A0, A1, B, ..., I with its parameters."""

    __slots__ = ("name", "divisor", "n", "s", "tau", "delta", "warnings")

    def __init__(self, name, divisor, n=None, s=None, tau=None, delta=(), warnings=()):
        setfield(self, "name", name)
        setfield(self, "divisor", divisor)
        setfield(self, "n", n)
        setfield(self, "s", s)
        setfield(self, "tau", tau)
        setfield(self, "delta", delta)  # generators of the w-translation group for A0/A1
        setfield(self, "warnings", warnings)

    def params(self):
        out = {"divisor": self.divisor.to_json()}
        if self.n is not None:
            out["n"] = self.n
        if self.s is not None:
            out["s"] = self.s
        if self.tau is not None:
            out["tau"] = self.tau
        if self.delta:
            out["delta"] = self.delta
        return out


def _canonical_line_data(D):
    """(lam, ks) for a divisor of the shape [lam] + sum [lam + 2 pi i k_j]."""
    qg = quasiperiod_group(D)
    if qg.kind != "rank1" or not close(qg.generator, 1.0, tol=1e-6):
        raise ValueError(
            "divisor must have the normalized shape [lam] + sum [lam + 2 pi i k_j]"
        )
    pts = D.support
    lam = pts[0]
    ks = []
    for p in pts[1:]:
        k = (p - lam) / TWO_PI_I
        kk = round(k.real)
        if abs(k - kk) > 1e-6 * max(1.0, abs(k)) or kk <= 0:
            raise ValueError("divisor points must differ from the base by 2 pi i k, k > 0")
        ks.append(kk)
    g = 0
    for k in ks:
        g = math.gcd(g, k)
    if g != 1:
        raise ValueError("the integers k_j must be relatively prime")
    return lam, ks


def _fourier_coeffs(f, lam):
    """f = e^{lam z} * sum c_k e^{2 pi i k z} as the dict {k: c_k}."""
    out = {}
    for freq, poly in f.terms:
        if poly.degree > 0:
            raise ValueError("member has a polynomial factor; divisor is not reduced")
        k = (freq - lam) / TWO_PI_I
        kk = round(k.real)
        if abs(k - kk) > 1e-6 * max(1.0, abs(k)):
            raise ValueError("member frequency off the divisor line")
        out[kk] = out.get(kk, 0j) + poly.coeffs[0]
    return out


def _eval_exponent_poly(coeffs, u):
    return sum(c * u**k for k, c in coeffs.items())


class CoveringMap:
    """A quotient X = C^2 -> X' with the induced action of G_D (or rG_D)."""

    label = None
    surface = ""

    def cover(self, z, w):
        raise NotImplementedError

    def act(self, g, point):
        raise NotImplementedError

    def equal(self, p, q, tol=None):
        return product_equal(p, q, tol=tol)

    def pi_generators(self):
        raise NotImplementedError

    def cover_c2(self, z, w):
        """Plain C^2-valued local form of the cover, for Jacobian checks."""
        p = self.cover(z, w)
        out = []
        for comp in p:
            out.append(comp.value if isinstance(comp, TorusPoint) else comp)
        return complex(out[0]), complex(out[1])

    def jacobian_ok(self, z, w, h=1e-5, tol=1e-8):
        dz = [(self.cover_c2(z + h, w)[i] - self.cover_c2(z - h, w)[i]) / (2 * h) for i in (0, 1)]
        dw = [(self.cover_c2(z, w + h)[i] - self.cover_c2(z, w - h)[i]) / (2 * h) for i in (0, 1)]
        det = dz[0] * dw[1] - dz[1] * dw[0]
        scale = max(abs(x) for x in dz + dw)
        return abs(det) > tol * max(1.0, scale)


class _LineCover(CoveringMap):
    """Shared machinery for the examples over a rank-one quasiperiod divisor."""

    def __init__(self, label):
        self.label = label
        self.D = label.divisor
        self.lam, self.ks = _canonical_line_data(self.D)
        self.n = int(label.n)
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        self.q = cmath.exp(self.lam * self.n)

    def _zpart(self, z):
        return cmath.exp(TWO_PI_I * z / self.n)

    def _pcoeffs(self, g):
        return _fourier_coeffs(g.f, self.lam)


class CoverA(CoveringMap):
    """A0/A1: w-translations by a discrete group Delta; X' = C x (C / Delta)."""

    def __init__(self, label):
        self.label = label
        self.D = label.divisor
        _check_divisor(self.D)
        self.delta = tuple(complex(d) for d in label.delta)
        if len(self.delta) not in (1, 2):
            raise ValueError("Delta must have rank one or two")
        deg0 = self.D.degree_at(0)
        if label.name == "A0" and deg0 != 0:
            raise ValueError("A0 requires zero degree at the origin")
        if label.name == "A1" and deg0 == 0:
            raise ValueError("A1 requires positive degree at the origin")
        self.surface = "C x (C/Delta)"

    def cover(self, z, w):
        if len(self.delta) == 1:
            return (z, cmath.exp(TWO_PI_I * w / self.delta[0]))
        return (z, TorusPoint(w, self.delta[0], self.delta[1]))

    def act(self, g, point):
        z, fiber = point
        z1 = z + g.t
        val = evaluate(g.f, z1)
        if len(self.delta) == 1:
            return (z1, fiber * cmath.exp(TWO_PI_I * val / self.delta[0]))
        return (z1, fiber.shifted(val))

    def pi_generators(self):
        return [CentralizerElement(self.D, 0j, d) for d in self.delta]


class CoverB(_LineCover):
    """pi = <(n, 0)>; X' = C^x x C via (e^{2 pi i z / n}, e^{-lam z} w)."""

    surface = "C^x x C"

    def cover(self, z, w):
        return (self._zpart(z), cmath.exp(-self.lam * z) * w)

    def act(self, g, point):
        Z, W = point
        P = self._pcoeffs(g)
        Z1 = self._zpart(g.t) * Z
        return (Z1, cmath.exp(-self.lam * g.t) * W + _eval_exponent_poly(P, Z1**self.n))

    def pi_generators(self):
        return [CentralizerElement(self.D, self.n, 0j)]


class CoverC(_LineCover):
    """pi = <(n, 1)> with e^{lam n} = 1; X' = C^x x C via (e^{2 pi i z/n}, w - z/n)."""

    surface = "C^x x C"

    def __init__(self, label):
        super().__init__(label)
        if not close(self.q, 1.0, tol=1e-8):
            raise ValueError("example C requires e^{lam n} = 1")
        m = self.lam * self.n / TWO_PI_I
        self.m = round(m.real)
        if abs(m - self.m) > 1e-6 * max(1.0, abs(m)) or self.m == 0:
            raise ValueError("example C requires lam = 2 pi i m / n, m nonzero")

    def _dcoeffs(self, g):
        return {self.m + self.n * k: c for k, c in self._pcoeffs(g).items()}

    def cover(self, z, w):
        return (self._zpart(z), w - z / self.n)

    def act(self, g, point):
        Z, W = point
        Z1 = self._zpart(g.t) * Z
        return (Z1, W - g.t / self.n + _eval_exponent_poly(self._dcoeffs(g), Z1))

    def pi_generators(self):
        return [CentralizerElement(self.D, self.n, 1.0)]


class CoverD(_LineCover):
    """pi = <(n, 0), (0, 1)> with lam = 0; X' = C^x x C^x."""

    surface = "C^x x C^x"

    def __init__(self, label):
        super().__init__(label)
        if not close(self.lam, 0j, tol=1e-8):
            raise ValueError("example D requires lam = 0")

    def cover(self, z, w):
        return (self._zpart(z), cmath.exp(TWO_PI_I * w))

    def act(self, g, point):
        Z, W = point
        P = self._pcoeffs(g)
        Z1 = self._zpart(g.t) * Z
        return (Z1, W * cmath.exp(TWO_PI_I * _eval_exponent_poly(P, Z1**self.n)))

    def pi_generators(self):
        return [CentralizerElement(self.D, self.n, 0j), CentralizerElement(self.D, 0j, 1.0)]


class CoverE(_LineCover):
    """pi = <(n, s), (0, 1)> with e^{lam n} = 1, lam != 0; X' = C^x x C^x."""

    surface = "C^x x C^x"

    def __init__(self, label):
        super().__init__(label)
        self.s = complex(label.s)
        m = self.lam * self.n / TWO_PI_I
        self.m = round(m.real)
        if abs(m - self.m) > 1e-6 * max(1.0, abs(m)) or self.m == 0:
            raise ValueError("example E requires lam = 2 pi i m / n, m nonzero")

    def cover(self, z, w):
        return (self._zpart(z), cmath.exp(TWO_PI_I * (self.n * w - self.s * z) / self.n))

    def act(self, g, point):
        Z, W = point
        P = self._pcoeffs(g)
        Z1 = self._zpart(g.t) * Z
        arg = -self.s * g.t / self.n + Z1**self.m * _eval_exponent_poly(P, Z1**self.n)
        return (Z1, W * cmath.exp(TWO_PI_I * arg))

    def pi_generators(self):
        return [CentralizerElement(self.D, self.n, self.s), CentralizerElement(self.D, 0j, 1.0)]


class _OrbitCover(CoveringMap):
    """Covers whose target has no global product chart: points are orbit reps."""

    def cover(self, z, w):
        return (complex(z), complex(w))

    def act(self, g, point):
        return gd_act(g, point)

    def cover_c2(self, z, w):
        return (complex(z), complex(w))


class CoverF(_LineCover, _OrbitCover):
    """pi = <(n, 0), (0, 1)> with e^{lam n} = -1: the nontrivial principal bundle."""

    surface = "C^x -> X' -> C^x"

    def __init__(self, label):
        _LineCover.__init__(self, label)
        if not close(self.q, -1.0, tol=1e-8):
            raise ValueError("example F requires e^{lam n} = -1")

    def equal(self, p, q, tol=None):
        k = (q[0] - p[0]) / self.n
        kk = round(k.real)
        if abs(k - kk) > 1e-7 * max(1.0, abs(k)):
            return False
        d = q[1] - (-1.0) ** kk * p[1]
        return abs(d - round(d.real)) <= 1e-7 * max(1.0, abs(d))

    def pi_generators(self):
        return [CentralizerElement(self.D, self.n, 0j), CentralizerElement(self.D, 0j, 1.0)]


class CoverG(_LineCover):
    """pi = <(n, 0), (0, 1), (0, tau)> with lam = 0; X' = C^x x elliptic curve."""

    surface = "C^x x (C/Lambda)"

    def __init__(self, label):
        super().__init__(label)
        if not close(self.lam, 0j, tol=1e-8):
            raise ValueError("example G requires lam = 0")
        self.tau = complex(label.tau)
        if self.tau.imag <= 0:
            raise ValueError("tau must lie in the upper half plane")

    def cover(self, z, w):
        return (self._zpart(z), TorusPoint(w, 1.0, self.tau))

    def act(self, g, point):
        Z, W = point
        P = self._pcoeffs(g)
        Z1 = self._zpart(g.t) * Z
        return (Z1, W.shifted(_eval_exponent_poly(P, Z1**self.n)))

    def pi_generators(self):
        D = self.D
        return [
            CentralizerElement(D, self.n, 0j),
            CentralizerElement(D, 0j, 1.0),
            CentralizerElement(D, 0j, self.tau),
        ]


class CoverH(_LineCover):
    """pi = <(n, s), (0, 1), (0, tau)> with e^{lam n} = 1, lam != 0."""

    surface = "C^x x (C/Lambda)"

    def __init__(self, label):
        super().__init__(label)
        self.s = complex(label.s)
        self.tau = complex(label.tau)
        if self.tau.imag <= 0:
            raise ValueError("tau must lie in the upper half plane")
        m = self.lam * self.n / TWO_PI_I
        self.m = round(m.real)
        if abs(m - self.m) > 1e-6 * max(1.0, abs(m)) or self.m == 0:
            raise ValueError("example H requires lam = 2 pi i m / n, m nonzero")

    def cover(self, z, w):
        return (self._zpart(z), TorusPoint(w - self.s * z / self.n, 1.0, self.tau))

    def act(self, g, point):
        Z, W = point
        P = self._pcoeffs(g)
        Z1 = self._zpart(g.t) * Z
        shift = -self.s * g.t / self.n + Z1**self.m * _eval_exponent_poly(P, Z1**self.n)
        return (Z1, W.shifted(shift))

    def pi_generators(self):
        D = self.D
        return [
            CentralizerElement(D, self.n, self.s),
            CentralizerElement(D, 0j, 1.0),
            CentralizerElement(D, 0j, self.tau),
        ]


class CoverI(_LineCover, _OrbitCover):
    """pi = <(n, 0), (0, 1), (0, tau)> with e^{lam n} != 1 a unit of the lattice."""

    surface = "C/Lambda -> X' -> C^x"

    def __init__(self, label):
        _LineCover.__init__(self, label)
        self.tau = complex(label.tau)
        if self.tau.imag <= 0:
            raise ValueError("tau must lie in the upper half plane")
        if close(self.q, 1.0, tol=1e-8):
            raise ValueError("example I requires e^{lam n} != 1")
        for u in (1.0, self.tau):
            if not lattice_contains(self.q * u, 1.0, self.tau) or not lattice_contains(
                u / self.q, 1.0, self.tau
            ):
                raise ValueError("example I requires e^{lam n} to preserve the lattice")

    def equal(self, p, q, tol=None):
        k = (q[0] - p[0]) / self.n
        kk = round(k.real)
        if abs(k - kk) > 1e-7 * max(1.0, abs(k)):
            return False
        d = q[1] - self.q**kk * p[1]
        return lattice_contains(d, 1.0, self.tau)

    def pi_generators(self):
        D = self.D
        return [
            CentralizerElement(D, self.n, 0j),
            CentralizerElement(D, 0j, 1.0),
            CentralizerElement(D, 0j, self.tau),
        ]


_COVERS = {
    "A0": CoverA,
    "A1": CoverA,
    "B": CoverB,
    "C": CoverC,
    "D": CoverD,
    "E": CoverE,
    "F": CoverF,
    "G": CoverG,
    "H": CoverH,
    "I": CoverI,
}


def quotient_cover(label):
    """The covering map and induced action for a quotient example label."""
    if label.name not in _COVERS:
        raise ValueError(f"unknown example {label.name}")
    return _COVERS[label.name](label)


class CoverRGD(CoveringMap):
    """The rG_D quotients: X' = C^x x C via (e^{2 pi i z / n}, w)."""

    surface = "C^x x C"

    def __init__(self, D, n):
        qg = quasiperiod_group(D)
        if qg.kind != "rank1":
            raise ValueError("no quotients")
        lam, ks = _canonical_line_data(D)
        if not close(lam, 0j, tol=1e-8):
            raise ValueError("divisor must have the normalized shape [0] + sum [2 pi i k_j]")
        self.D = D
        self.n = int(n)
        if self.n < 1:
            raise ValueError("n must be a positive integer")

    def cover(self, z, w):
        return (cmath.exp(TWO_PI_I * z / self.n), w)

    def act(self, g, point):
        Z, W = point
        P = _fourier_coeffs(g.f, 0j)
        Z1 = cmath.exp(TWO_PI_I * g.t / self.n) * Z
        return (Z1, g.lam * W + _eval_exponent_poly(P, Z1**self.n))

    def pi_generators(self):
        return [CentralizerElement(self.D, self.n, 0j)]


def rgd_quotients(D, n):
    return CoverRGD(D, n)


# ---------------------------------------------------------------------------
# classification of discrete subgroups of the commutant


class BBeta1Classification(Record):
    __slots__ = ("label", "table_row", "normalizer", "pi_cap_g")

    def __init__(self, label, table_row, normalizer, pi_cap_g=()):
        setfield(self, "label", label)
        setfield(self, "table_row", table_row)
        setfield(self, "normalizer", normalizer)
        setfield(self, "pi_cap_g", pi_cap_g)


def _qd_mult(a, b, gamma):
    return (a[0] + b[0], a[1] + gamma ** a[0] * b[1])


def _qd_power(a, m, gamma):
    if m == 0:
        return (0, 0j)
    if m < 0:
        inv = (-a[0], -gamma ** (-a[0]) * a[1])
        return _qd_power(inv, -m, gamma)
    q = gamma ** a[0]
    if abs(q - 1.0) > 1e-8:
        s = (q**m - 1.0) / (q - 1.0)
    else:
        s = sum(q**j for j in range(m))
    return (m * a[0], a[1] * s)


def table_automorphism(D, nu=1.0, t=0.0):
    """The action of an automorphism pair (nu, t) on commutant elements.

    For a divisor in the canonical shape [lam] + sum [lam + 2 pi i k_j] the
    available maps depend on the shape: with lam not in 2 pi i Z the shift
    enters through 1 - e^{lam k}; with lam = 0 it enters linearly in k; for
    the remaining shapes (lam a nonzero multiple of 2 pi i) only the
    rescaling by nu acts.
    """
    nu = complex(nu)
    t = complex(t)
    if abs(nu) == 0:
        raise ValueError("nu must be nonzero")
    lam, _ = _canonical_line_data(D)
    if abs(lam) <= 1e-9:
        mode = "linear"
    else:
        x = lam / TWO_PI_I
        mode = "rescale-only" if abs(x - round(x.real)) <= 1e-9 * max(1.0, abs(x)) else "exponential"

    def apply(c):
        k = c.w
        if mode == "exponential":
            shift = t * (1 - cmath.exp(lam * k))
        elif mode == "linear":
            shift = t * k
        else:
            shift = 0j
        return CentralizerElement(D, c.w, nu * c.s + shift)

    return apply


def _pi_cap_g(norm_gens, E, tol=1e-8):
    """Generators of the normalized pi that act as elements of G_E.

    A pair (k, s) acts by (z + k, e^{lam k} w + s); this is a G_E action
    exactly when e^{lam k} = 1 and the constant s lies in the solution space,
    i.e. s = 0 or E has positive degree at the origin.
    """
    lam = E.support[0]
    deg0 = E.degree_at(0)
    out = []
    for k, s in norm_gens:
        if not close(cmath.exp(lam * k), 1.0, tol=tol):
            continue
        if abs(s) <= tol or deg0 > 0:
            out.append((k, s))
    return tuple(out)


def classify_pi(gens, D, tol=1e-8, max_denominator=None):
    """Send a discrete subgroup of the commutant to its quotient example.

    gens are CentralizerElements over D.  Returns a BBeta1Classification with
    the normalized label (over the rescaled divisor when a rescaling was
    applied) and the normalizing data (mu, nu, t).
    """
    _check_divisor(D)
    qg = quasiperiod_group(D, max_denominator=max_denominator)
    for g in gens:
        if not qg.contains(g.w, tol=tol):
            raise ValueError("generator is not in the commutant: invalid quasiperiod")
    scale = max([abs(g.w) + abs(g.s) for g in gens] + [1.0])

    ws = [g.w for g in gens]
    if qg.kind != "rank1" or all(abs(w) <= tol * scale for w in ws):
        svals = [g.s for g in gens if abs(g.s) > 1e-12 * scale]
        if svals:
            basis, _, _ = zmodule_basis([c2r(s) for s in svals])
        else:
            basis = []
        if len(basis) > 2:
            raise NonDiscreteError("w-translation group has rank > 2")
        if not basis:
            label = BBeta1Label("trivial", D)
            return BBeta1Classification(label, "Bβ1", {"mu": 1.0, "nu": 1.0, "t": 0.0})
        deg0 = D.degree_at(0)
        name = "A1" if deg0 > 0 else "A0"
        if len(basis) == 1:
            d = complex(basis[0][0], basis[0][1])
            delta, nu = (1.0 + 0j,), 1.0 / d
        else:
            v1, _, tau, _ = lattice_reduce_tau(
                complex(basis[0][0], basis[0][1]), complex(basis[1][0], basis[1][1])
            )
            delta, nu = (1.0 + 0j, tau), 1.0 / v1
        label = BBeta1Label(name, D, delta=delta)
        pig = tuple((0, d) for d in delta) if deg0 > 0 else ()
        return BBeta1Classification(label, f"Bβ1{name}", {"mu": 1.0, "nu": nu, "t": 0.0}, pig)

    mu = qg.generator
    E = D.scaled(mu)
    lam, _ = _canonical_line_data(E)
    gamma = cmath.exp(lam)

    pairs = [(qg.index_of(g.w, tol=tol), g.s) for g in gens]
    H, U, rank = hnf_with_transform([[k] for k, _ in pairs])
    if rank == 0:
        raise AssertionError("unreachable: some quasiperiod index is nonzero")
    n = H[0][0]
    gen_n = (0, 0j)
    for c, p in zip(U[0], pairs):
        if c:
            gen_n = _qd_mult(gen_n, _qd_power(p, c, gamma), gamma)

    kernel_s = []
    for pair in pairs:
        m = pair[0] // n
        red = _qd_mult(_qd_power(gen_n, -m, gamma), pair, gamma)
        if red[0] != 0:
            raise AssertionError("gcd reduction failed")
        if abs(red[1]) > 1e-12 * scale:
            kernel_s.append(red[1])
    q = gamma**n
    try:
        pi0 = saturate_lattice(kernel_s, (lambda b: q * b, lambda b: b / q), scale) if kernel_s else []
    except NonDiscreteError as e:
        raise NonDiscreteError(f"not a discrete commutant subgroup: {e}") from e

    s_n = gen_n[1]
    lam_zero = abs(lam) <= 1e-9
    norm = {"mu": mu, "nu": 1.0 + 0j, "t": 0.0}

    def finish(name, s_val=None, tau=None):
        kw = {}
        if s_val is not None:
            kw["s"] = s_val
        if tau is not None:
            kw["tau"] = tau
        label = BBeta1Label(name, E, n=n, **kw)
        row = f"Bβ1{name}"
        if name == "B":
            row = "Bβ1B0" if close(q, 1.0, tol=1e-8) else "Bβ1B1"
        norm_gens = [(n, 0j if s_val is None else s_val)]
        if name in ("D", "E", "F"):
            norm_gens.append((0, 1.0 + 0j))
        if name in ("G", "H", "I"):
            norm_gens += [(0, 1.0 + 0j), (0, tau)]
        if name == "C":
            norm_gens = [(n, 1.0 + 0j)]
        return BBeta1Classification(label, row, dict(norm), _pi_cap_g(norm_gens, E))

    if not pi0:
        if abs(s_n) <= tol * scale:
            return finish("B")
        if not close(q, 1.0, tol=1e-8):
            norm["t"] = -s_n / (1 - q)
            return finish("B")
        if lam_zero:
            norm["t"] = -s_n / n
            return finish("B")
        norm["nu"] = 1.0 / s_n
        return finish("C", s_val=1.0 + 0j)

    if len(pi0) == 1:
        u = complex(pi0[0][0], pi0[0][1])
        nu = 1.0 / u
        norm["nu"] = nu
        s1 = nu * s_n
        if lam_zero:
            norm["t"] = -s1 / n
            return finish("D")
        if close(q, 1.0, tol=1e-8):
            s1 = s1 - round(s1.real)
            return finish("E", s_val=s1)
        if close(q, -1.0, tol=1e-8):
            norm["t"] = -s1 / 2
            return finish("F")
        raise NonDiscreteError("e^{lam n} must be a unit of the kernel group")

    v1, _, tau, _ = lattice_reduce_tau(
        complex(pi0[0][0], pi0[0][1]), complex(pi0[1][0], pi0[1][1])
    )
    nu = 1.0 / v1
    norm["nu"] = nu
    s1 = nu * s_n
    if lam_zero:
        norm["t"] = -s1 / n
        return finish("G", tau=tau)
    if close(q, 1.0, tol=1e-8):
        x, y = lattice_coords(s1, 1.0 + 0j, tau)
        s1 = s1 - round(x) - round(y) * tau
        return finish("H", s_val=s1, tau=tau)
    if lattice_contains(q, 1.0, tau) and lattice_contains(1.0 / q, 1.0, tau):
        norm["t"] = -s1 / (1 - q)
        return finish("I", tau=tau)
    raise NonDiscreteError("e^{lam n} must be a unit of the kernel lattice")
