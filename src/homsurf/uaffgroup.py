"""The group law of uAff(C): (a, b)(a', b') = (a + a', b + e^a b').

All the D2 family needs, so `act --family D2` loads neither `uaff` (the
classifier of discrete subgroups, which re-imports these names) nor `lattice`.
"""

from __future__ import annotations

import cmath

from .numeric import Record, distance, setfield


class UAffElement(Record):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        setfield(self, "a", a)
        setfield(self, "b", b)

    def distance(self, other):
        return max(distance(self.a, other.a), distance(self.b, other.b))


IDENTITY = UAffElement(0j, 0j)


def uaff_multiply(g, h):
    return UAffElement(g.a + h.a, g.b + cmath.exp(g.a) * h.b)


def uaff_inverse(g):
    return UAffElement(-g.a, -cmath.exp(-g.a) * g.b)
