"""Point types for quotient surfaces built from products of C, C^x, and tori."""

from __future__ import annotations

from .lattice import lattice_contains, lattice_coords
from .numeric import Record, close, setfield


class TorusPoint(Record):
    """Point of C modulo the lattice spanned by (w1, w2); stored via a representative."""

    __slots__ = ("value", "w1", "w2")

    def __init__(self, value, w1, w2):
        setfield(self, "value", value)
        setfield(self, "w1", w1)
        setfield(self, "w2", w2)

    def same_lattice(self, other):
        return close(self.w1, other.w1) and close(self.w2, other.w2)

    def __eq__(self, other):
        if not isinstance(other, TorusPoint) or not self.same_lattice(other):
            return NotImplemented
        return lattice_contains(self.value - other.value, self.w1, self.w2)

    def distance(self, other):
        """How far the difference of the representatives is from the lattice, relative to them."""
        x, y = lattice_coords(self.value - other.value, self.w1, self.w2)
        dx, dy = x - round(x), y - round(y)
        return abs(dx * self.w1 + dy * self.w2) / max(1.0, abs(self.value), abs(other.value))

    def shifted(self, t):
        return TorusPoint(self.value + t, self.w1, self.w2)


def component_equal(a, b, tol=None):
    """Equality of product-surface components: complex values or TorusPoints."""
    if isinstance(a, TorusPoint) or isinstance(b, TorusPoint):
        return isinstance(a, TorusPoint) and isinstance(b, TorusPoint) and bool(a == b)
    return close(complex(a), complex(b), tol=tol)


def product_equal(p, q, tol=None):
    if len(p) != len(q):
        return False
    return all(component_equal(a, b, tol=tol) for a, b in zip(p, q))
