"""The groups attached to an effective divisor of degree >= 2 on C.

G_D is the semidirect product of translations with the solution space of the
divisor's annihilator, acting on C^2 by (t, f)(z, w) = (z + t, w + f(z + t));
rG_D adds a rescaling of w, and G_D is its subgroup lam = 1, so one element
type and one group law serve both.  Every quotient of the plane by a discrete
subgroup of their commutant (see `qd`) is one of ten explicit examples
(labelled A0, A1, B, ..., I), each realized here as a `Cover`: the covering
map, the induced action on the quotient surface, and the deck group.
`quotient_cover` makes the cover of each row of the one table
`qd.QUOTIENT_ROWS`, which holds the rows' examples, fibre lattices, cover
parameters and conditions: `_delta_cover` for A0 and A1, `_line_cover` for
B..I, whose examples B..E, G and H share one product chart with one induced
action.  The quotients of rG_D by <(n, 1, 0)> (row Bβ2′) are example B's
cover.  The commutant, the example labels and their classifier
`classify_pi` live in `qd` and are re-imported here.

Degree-one divisors are rejected throughout: those actions are the
translation plane and the affine group, handled elsewhere.
"""

from __future__ import annotations

import cmath

from .divisor import quasiperiod_group
from .exppoly import ExpPoly, contains, evaluate, random_member, translate
from .lattice import TorusPoint, lattice_contains, lattice_reduce_tau, near_int
from .numeric import EPS, JACOBIAN_STEP, JACOBIAN_TOL, LINE_INDEX_TOL, ORBIT_TOL, TWO_PI_I, Record, distance
from .numeric import setfield
from .qd import QUOTIENT_ROWS, BBeta1Classification, BBeta1Label, CentralizerElement  # noqa: F401
from .qd import _canonical_line_data, _check_divisor, _deck_pairs, cent_act, cent_identity  # noqa: F401
from .qd import DivisorError, cent_inverse, cent_multiply, check_row, classify_pi, lam_exponent, quotient_row  # noqa: F401
from .qd import table_automorphism  # noqa: F401


# ---------------------------------------------------------------------------
# rG_D, and G_D as its subgroup lam = 1


class RGDElement(Record):
    """(t, lam, f) in rG_D, acting by (z, w) -> (z + t, lam w + f(z + t)); G_D is lam = 1."""

    __slots__ = ("divisor", "t", "lam", "f")

    def __init__(self, divisor, t, lam, f):
        setfield(self, "divisor", divisor)
        setfield(self, "t", t)
        setfield(self, "lam", lam)
        setfield(self, "f", f)
        _check_divisor(self.divisor)
        if self.lam == 0:
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
    f = translate(h.f, g.t)
    if g.lam != 1:  # a G_D element (lam = 1) leaves the scale out
        f = f.scale(g.lam)
    return RGDElement(g.divisor, g.t + h.t, g.lam * h.lam, g.f + f)


def rgd_inverse(g):
    inv = 1.0 / g.lam
    return RGDElement(g.divisor, -g.t, inv, translate(g.f, -g.t).scale(-inv))


def rgd_act(g, zw):
    z, w = zw
    z1 = z + g.t
    return (z1, g.lam * w + evaluate(g.f, z1))


def random_gd(D, rng, scale=0.7):
    """A random element of G_D: lam = 1."""
    t = complex(rng.standard_normal(), rng.standard_normal()) * scale
    return RGDElement(D, t, 1, random_member(D, rng, scale=scale))


def random_rgd(D, rng, scale=0.7):
    t = complex(rng.standard_normal(), rng.standard_normal()) * scale
    lam = cmath.exp(complex(rng.standard_normal(), rng.standard_normal()) * scale)
    return RGDElement(D, t, lam, random_member(D, rng, scale=scale))


# ---------------------------------------------------------------------------
# the morphisms: inner and rescaling ones of G_D and rG_D, shears of G_D, translations of rG_D


class Morphism(Record):
    """Equivariant pair: delta on the plane, h on the group."""

    __slots__ = ("delta", "h", "source", "target")

    def __init__(self, delta, h, source, target):
        setfield(self, "delta", delta)
        setfield(self, "h", h)
        setfield(self, "source", source)
        setfield(self, "target", target)


def inner_morphism(g):
    """Conjugation by g: delta is the action of g."""
    ginv = rgd_inverse(g)

    def delta(zw):
        return rgd_act(g, zw)

    def h(x):
        return rgd_multiply(rgd_multiply(g, x), ginv)

    return Morphism(delta, h, g.divisor, g.divisor)


def rescaling_morphism(D, mu, nu):
    """The divisor rescaled by mu, with w scaled by nu: onto the group of D.scaled(mu)."""
    D = _check_divisor(D)
    mu, nu = complex(mu), complex(nu)
    if abs(mu) == 0 or abs(nu) == 0:
        raise ValueError("mu and nu must be nonzero")
    E = D.scaled(mu)

    def delta(zw):
        return (zw[0] / mu, nu * zw[1])

    def h(x):
        return RGDElement(E, x.t / mu, x.lam, x.f.scale_argument(mu).scale(nu))

    return Morphism(delta, h, D, E)


def shear_morphism(D, f0):
    """The shear (z, w) -> (z, w + f0(z)) of G_D, f0 in the solution space of D + [0]."""
    D = _check_divisor(D)
    if not contains(D.plus_point(0j), f0):
        raise ValueError("f0 must lie in the solution space of divisor + [0]")

    def delta(zw):
        return (zw[0], zw[1] + evaluate(f0, zw[0]))

    def h(x):
        if x.lam != 1:
            raise ValueError("the shear normalizes G_D only: lam must be 1")
        return RGDElement(D, x.t, x.lam, x.f + f0 - translate(f0, x.t))

    return Morphism(delta, h, D, D)


def translation_morphism(D, a):
    """(z, w) -> (z, e^{az} w): rG_D onto rG of the divisor translated by a."""
    D = _check_divisor(D)
    a = complex(a)
    F = D.translated(a)

    def delta(zw):
        return (zw[0], cmath.exp(a * zw[0]) * zw[1])

    def h(x):
        return RGDElement(F, x.t, cmath.exp(a * x.t) * x.lam, x.f.modulate(a))

    return Morphism(delta, h, D, F)


# ---------------------------------------------------------------------------
# quotient examples


def _fourier_coeffs(f, lam):
    """f = e^{lam z} * sum c_k e^{2 pi i k z} as the dict {k: c_k}."""
    out = {}
    for freq, poly in f.terms:
        if poly.degree > 0:
            raise ValueError("member has a polynomial factor; divisor is not reduced")
        kk = near_int((freq - lam) / TWO_PI_I, LINE_INDEX_TOL)
        if kk is None:
            raise ValueError("member frequency off the divisor line")
        out[kk] = out.get(kk, 0j) + poly.coeffs[0]
    return out


def _eval_exponent_poly(coeffs, u):
    return sum(c * u**k for k, c in coeffs.items())


class Cover(Record):
    """A quotient X = C^2 -> X' with the induced action of G_D (or rG_D) on X'.

    cover(z, w) is the covering map, act(g, point) the action on X',
    equal(p, q) equality of points of X', and deck the generators of the
    deck group pi as CentralizerElements.
    """

    __slots__ = ("cover", "act", "equal", "deck")

    def __init__(self, cover, act, equal, deck):
        setfield(self, "cover", cover)
        setfield(self, "act", act)
        setfield(self, "equal", equal)
        setfield(self, "deck", deck)

    def pi_generators(self):
        return list(self.deck)

    def cover_c2(self, z, w):
        """Plain C^2-valued local form of the cover, for Jacobian checks."""
        a, b = (c.value if isinstance(c, TorusPoint) else c for c in self.cover(z, w))
        return complex(a), complex(b)

    def jacobian_ok(self, z, w):
        h = JACOBIAN_STEP
        dz = [(self.cover_c2(z + h, w)[i] - self.cover_c2(z - h, w)[i]) / (2 * h) for i in (0, 1)]
        dw = [(self.cover_c2(z, w + h)[i] - self.cover_c2(z, w - h)[i]) / (2 * h) for i in (0, 1)]
        det = dz[0] * dw[1] - dz[1] * dw[0]
        scale = max(abs(x) for x in dz + dw)
        return abs(det) > JACOBIAN_TOL * max(1.0, scale)


def _product_equal(p, q):
    """Equality of points of a product quotient X': their distance is at most EPS."""
    return distance(p, q) <= EPS


def _delta_cover(delta):
    """A0/A1: w-translations by a discrete group Delta; X' = C x (C / Delta)."""
    if len(delta) not in (1, 2):
        raise ValueError("Delta must have rank one or two")
    if any(abs(d) == 0 for d in delta):
        raise ValueError("the generators of Delta must be nonzero")
    if len(delta) == 1:

        def cover(z, w):
            return (z, cmath.exp(TWO_PI_I * w / delta[0]))

        def act(g, point):
            z1 = point[0] + g.t
            return (z1, point[1] * cmath.exp(TWO_PI_I * evaluate(g.f, z1) / delta[0]))

    else:
        lattice_reduce_tau(*delta)  # a NonDiscreteError (a ValueError) unless Delta is a lattice

        def cover(z, w):
            return (z, TorusPoint(w, delta[0], delta[1]))

        def act(g, point):
            z1 = point[0] + g.t
            return (z1, point[1].shifted(evaluate(g.f, z1)))

    return cover, act, _product_equal


def _line_cover(example, rank, lam, n, s, tau):
    """Examples B..I over [lam] + sum [lam + 2 pi i k_j]: X' fibres over C^x by Z = e^{2 pi i z / n}.

    B..E, G and H share one product chart.  The fibre coordinate is e^{-lam z} w
    for B and w - s z / n for the others (s = 1 for C, the label's s for E and H,
    0 for D and G); the fibre is C (B, C), C / Z through e^{2 pi i .} (D, E) or
    C / (Z + tau Z) (G, H), as the rank of the row's fibre lattice says.  F (e^{lam n} = -1)
    and I (e^{lam n} != 1 a unit of Z + tau Z) have no global product chart: a point of
    X' is an orbit representative in C^2.
    """
    if example in ("F", "I"):
        unit = -1.0 if example == "F" else cmath.exp(lam * n)

        def equal(p, q):
            k = near_int((q[0] - p[0]) / n, ORBIT_TOL)
            if k is None:
                return False
            d = q[1] - unit**k * p[1]
            if example == "F":
                return near_int(d, ORBIT_TOL) is not None
            return lattice_contains(d, 1.0, tau)

        def orbit_rep(z, w):
            return (complex(z), complex(w))

        return orbit_rep, rgd_act, equal

    m = lam_exponent(lam, n) if example in ("C", "E", "H") else 0
    rate = lam if example == "B" else 0j  # B's fibre coordinate e^{-lam z} w, the others' w - slope z / n
    slope = 1.0 if example == "C" else 0 if s is None else s

    def cover(z, w):
        f = cmath.exp(-rate * z) * w - slope * z / n
        fibre = f if rank == 0 else cmath.exp(TWO_PI_I * f) if rank == 1 else TorusPoint(f, 1.0, tau)
        return (cmath.exp(TWO_PI_I * z / n), fibre)

    def act(g, point):
        # (t, lam_g, f_g) moves Z to Z1 = e^{2 pi i t / n} Z and adds -slope t / n + Z1^m P(Z1^n) to the
        # fibre coordinate, P the Fourier coefficients of f_g; a fibre C first scales it by lam_g e^{-rate t}
        Z, W = point
        Z1 = cmath.exp(TWO_PI_I * g.t / n) * Z
        shift = -slope * g.t / n + Z1**m * _eval_exponent_poly(_fourier_coeffs(g.f, lam), Z1**n)
        if rank == 0:
            return (Z1, g.lam * cmath.exp(-rate * g.t) * W + shift)
        return (Z1, W * cmath.exp(TWO_PI_I * shift) if rank == 1 else W.shifted(shift))

    return cover, act, _product_equal


def _gd_only(act, name):
    """The action `act` on a quotient that only G_D acts on: an element of rG_D with lam != 1 is refused."""

    def gd_act(g, point):
        if g.lam != 1:
            raise ValueError(f"only G_D acts on example {name}: lam must be 1")
        return act(g, point)

    return gd_act


def quotient_cover(label):
    """The covering map and induced action of the quotient row or example the label names, whose facts
    `qd.QUOTIENT_ROWS` holds.  A parameter the row does not read, or one it reads that the label lacks and
    the row has no default for, is a ValueError naming it; C takes s only as 1, the value `classify_pi`
    gives its label.  A fault of the divisor is a `qd.DivisorError`.  Example B's action takes the
    rescaling of rG_D along (Bβ2′ is example B); the others refuse lam != 1."""
    name, D = label.name, label.divisor
    key = quotient_row(name)
    _, example, rank, reads, _ = QUOTIENT_ROWS[key]
    params = label.cover_parameters()
    for field in params:
        if field not in reads:
            raise ValueError(f"example {name} does not take the cover parameter {field!r}")
    params = {**reads, **params}
    if example == "C" and params["s"] != 1:
        raise ValueError("example C takes the cover parameter 's' only as 1")
    _check_divisor(D)
    if rank is not None and quasiperiod_group(D).kind != "rank1":
        raise DivisorError("no quotients")
    lam = None if rank is None else _canonical_line_data(D)[0]
    check_row(key, D, lam)  # the conditions on the divisor alone
    for field, value in params.items():
        if value is None:
            raise ValueError(f"example {name} needs the cover parameter {field!r}")
    n = int(params["n"]) if "n" in params else None
    if n is not None and n < 1:
        raise ValueError("n must be a positive integer")
    s, tau = (complex(params[f]) if f in params else None for f in ("s", "tau"))
    if tau is not None and tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    delta = tuple(complex(d) for d in params.get("delta", ()))
    key = quotient_row(name, lam, n)
    check_row(key, D, lam, n, tau)
    deck = tuple(CentralizerElement(D, w, shift) for w, shift in _deck_pairs(key, n, s, tau, delta))
    cover, act, equal = _delta_cover(delta) if rank is None else _line_cover(example, rank, lam, n, s, tau)
    return Cover(cover, act if example == "B" else _gd_only(act, name), equal, deck)
