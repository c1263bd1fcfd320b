"""Elliptic-curve bundles over the punctured plane and their biholomorphisms.

The deck group on C^2 is generated by (z, w) -> (z + 1, c w) and the
w-translations by a lattice preserved by c; the quotient fibers over C^x with
elliptic-curve fibers.  The biholomorphism families of the quotient depend on
whether c is 1, -1, or another root of unity; each family row is an explicit
map on C^2, and normalizing the deck group (conjugation sends generators to
deck elements) is the checkable half of the classification, verified here by
sampling.

Holomorphic data on the base is restricted to Laurent polynomials in
e^{2 pi i z} of bounded degree: a dense subfamily that suffices for the
verifiable direction.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property

from .lattice import is_unit, lattice_contains, near_int, rational_reconstruct
from .numeric import DECK_TOL, TWO_PI_I, UNIT_TOL, Record, close, setfield

LAURENT_DEGREE_CAP = 8
PI_I = 1j * math.pi


class SCData(Record):
    """Lattice basis (w1, w2) and a multiplier c with c Lambda = Lambda."""

    __slots__ = ("w1", "w2", "c", "__dict__")  # the dict holds the cached invariants

    def __init__(self, w1, w2, c):
        setfield(self, "w1", w1)
        setfield(self, "w2", w2)
        setfield(self, "c", c)
        if not is_unit(self.c, self.w1, self.w2, UNIT_TOL):
            raise ValueError("c must satisfy c Lambda = Lambda")

    # the invariants below are computed once per (frozen) instance

    @cached_property
    def case(self):
        """'one', 'minus-one', or 'root' (c = e^{2 pi i p / q}, q > 2)."""
        if close(self.c, 1.0):
            return "one"
        if close(self.c, -1.0):
            return "minus-one"
        if self._fraction is None or not close(abs(self.c), 1.0):
            raise ValueError("c must be a root of unity")
        return "root"

    @cached_property
    def _fraction(self):
        return rational_reconstruct(cmath.phase(self.c) / (2 * math.pi), max_denominator=1000)

    def root_fraction(self):
        return self._fraction.numerator, self._fraction.denominator


class DeckElement(Record):
    """(z, w) -> (z + k, c^k w + lam) for integer k and lam in the lattice."""

    __slots__ = ("data", "k", "lam")

    def __init__(self, data, k, lam):
        setfield(self, "data", data)
        setfield(self, "k", k)
        setfield(self, "lam", lam)

    def __call__(self, z, w):
        return (z + self.k, self.data.c**self.k * w + self.lam)


def deck_generators(data):
    """The three generating deck transformations (two when the twist is trivial)."""
    return [
        DeckElement(data, 1, 0j),
        DeckElement(data, 0, data.w1),
        DeckElement(data, 0, data.w2),
    ]


class SCBiholomorphism(Record):
    """A member of the biholomorphism family for the matching value of c.

    sign is +-1 (forced to +1 unless c = +-1); b satisfies b Lambda = Lambda;
    lam0 lies in the lattice; f is a Laurent polynomial in e^{2 pi i z} given
    as a dict exponent -> coefficient with |exponent| <= LAURENT_DEGREE_CAP.
    """

    __slots__ = ("data", "sign", "z0", "b", "lam0", "f", "__dict__")

    def __init__(self, data, sign=1, z0=0j, b=1.0 + 0j, lam0=0j, f=()):
        setfield(self, "data", data)
        setfield(self, "sign", sign)
        setfield(self, "z0", z0)
        setfield(self, "b", b)
        setfield(self, "lam0", lam0)
        setfield(self, "f", f)  # pairs (exponent, coefficient)
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        case = self.data.case
        if case == "root" and self.sign == -1:
            raise ValueError("only c = +-1 admits the reflection")
        if not is_unit(self.b, self.data.w1, self.data.w2, UNIT_TOL):
            raise ValueError("b must satisfy b Lambda = Lambda")
        if case != "one" and not lattice_contains(self.lam0, self.data.w1, self.data.w2):
            raise ValueError("lam0 must lie in the lattice")
        for k, _ in self.f:
            if abs(int(k)) > LAURENT_DEGREE_CAP:
                raise ValueError("Laurent degree exceeds the cap")

    @cached_property
    def row(self):
        """The family row for this map's case, as a function (z, w) -> (z', w').

        The factors that do not depend on the point (the case, sign, z0, b, the
        Laurent items, lam0 / 2 or lam0 / (1 - c), 2 pi i p) are taken once; they
        lead the row's expressions, so taking them once changes no operation.
        """
        case, sign, z0, b = self.data.case, self.sign, self.z0, self.b
        items = tuple({int(k): complex(v) for k, v in self.f}.items())  # exponent -> coefficient

        def laurent(z):
            u = cmath.exp(TWO_PI_I * z)
            return sum([c * u**k for k, c in items])

        if case == "one":
            return lambda z, w: (sign * z + z0, b * w + laurent(z))
        if case == "minus-one":
            half = self.lam0 / 2
            return lambda z, w: (sign * z + z0, b * w + half + cmath.exp(PI_I * z) * laurent(z))
        p, q = self.data.root_fraction()
        shear, twist = self.lam0 / (1 - self.data.c), TWO_PI_I * p
        return lambda z, w: (sign * z + z0, b * w + (shear + cmath.exp(twist * z / q) * laurent(z)))


def biholo_apply(phi, z, w):
    """Evaluate the family row for phi's case at a point of C^2."""
    return phi.row(z, w)


def biholo_inverse_apply(phi, z, w):
    z1 = phi.sign * (z - phi.z0)
    _, w_of_z1 = phi.row(z1, 0j)
    return (z1, (w - w_of_z1) / phi.b)


class PlaneMap(Record):
    """A biholomorphism of C^2 given by forward/backward callables."""

    __slots__ = ("forward", "backward")

    def __init__(self, forward, backward):
        setfield(self, "forward", forward)
        setfield(self, "backward", backward)

    def __call__(self, z, w):
        return self.forward(z, w)

    def compose(self, other):
        return PlaneMap(
            lambda z, w: self.forward(*other.forward(z, w)),
            lambda z, w: other.backward(*self.backward(z, w)),
        )


def as_map(phi):
    return PlaneMap(phi.row, lambda z, w: biholo_inverse_apply(phi, z, w))


# map_normalizes_deck checks each conjugate at this many sampled points
_DECK_SAMPLES = 50


def _sample_points(rng, count):
    # Im z stays small so the Laurent data keeps a tame magnitude; `lo + (hi - lo) * rng.random()` is
    # the draw of rng.uniform(lo, hi) at a third of the cost, standard_normal() the draw of normal()
    random, normal = rng.random, rng.standard_normal
    return [
        (complex(-1 + (1 - -1) * random(), -0.15 + (0.15 - -0.15) * random()), complex(normal(), normal()))
        for _ in range(count)
    ]


def map_normalizes_deck(fmap, data, rng):
    """Whether conjugation by the map sends every deck generator into the deck group.

    The conjugate is sampled; it must have the deck form (z + k, c^k w + lam)
    with k a constant integer and lam a constant lattice element (to the
    lattice_contains tolerance).
    """
    pts = _sample_points(rng, _DECK_SAMPLES)
    forward = fmap.forward
    back = [fmap.backward(z, w) for z, w in pts]  # the same for every generator: pulled back once
    for g in deck_generators(data):
        # g(z, w) = (z + k, c^k w + lam), written out with c^k taken once
        k, ckg, lam = g.k, data.c**g.k, g.lam
        images = [forward(z + k, ckg * w + lam) for z, w in back]
        ks = [z4 - z for (z4, _), (z, _) in zip(images, pts)]
        k0 = ks[0]
        kint = near_int(k0, DECK_TOL)
        if kint is None:
            return False
        ck = data.c**kint
        scale = max([abs(w4) for _, w4 in images] + [1.0])
        bound = DECK_TOL * max(1.0, abs(k0), scale)
        if any(abs(dk - k0) > bound for dk in ks):
            return False
        lam_vals = [w4 - ck * w for (_, w4), (_, w) in zip(images, pts)]
        lam0 = lam_vals[0]
        bound = DECK_TOL * max(1.0, scale)
        if any(abs(v - lam0) > bound for v in lam_vals):
            return False
        if not lattice_contains(lam0, data.w1, data.w2):
            return False
    return True


def normalizes_deck(phi, rng):
    """Sample-verify that a family member normalizes the deck group."""
    return map_normalizes_deck(as_map(phi), phi.data, rng)
