"""Effective divisors on C, their quasiperiod groups and weights.

A divisor is a finite multiset of complex points with positive integer
multiplicities.  It indexes a space of exponential polynomials (see
exppoly); a quasiperiod is a translation preserving every zero set in that
space.  The quasiperiod group is trivial, all of C (degree-one divisors), or
infinite cyclic; in the cyclic case the points are a single point plus
integer multiples of 2*pi*i/generator along a line, detected here by
rational reconstruction of difference ratios.
"""

from __future__ import annotations

import cmath
import math

from .lattice import _convergent, _denominator_bound, near_int
from .numeric import DIVISOR, EPS, QUASIPERIOD_TOL, RATIO_REAL_TOL, Record, canonical_sign, close, decode, setfield

DEGREE_CAP = 32


class Divisor(Record):
    """Effective divisor: sorted distinct points with multiplicities >= 1."""

    __slots__ = ("points", "__dict__")  # the dict holds the degree and the quasiperiod groups

    def __init__(self, points):
        pts = [(complex(p), int(m)) for p, m in points]
        if any(m < 1 for _, m in pts):
            raise ValueError("multiplicities must be positive")
        pts.sort(key=lambda pm: (pm[0].real, pm[0].imag))
        merged = []
        for p, m in pts:
            if merged and close(merged[-1][0], p):
                merged[-1][1] += m
            else:
                merged.append([p, m])
        deg = sum(m for _, m in merged)
        if deg > DEGREE_CAP:
            raise ValueError(f"divisor degree {deg} exceeds cap {DEGREE_CAP}")
        setfield(self, "points", tuple((p, m) for p, m in merged))
        setfield(self, "degree", deg)
        setfield(self, "_quasiperiod_groups", {})  # by max_denominator

    @classmethod
    def from_points(cls, *pts):
        """Divisor from points, repeats accumulating multiplicity."""
        return cls([(p, 1) for p in pts])

    def degree_at(self, z):
        for p, m in self.points:
            if close(p, complex(z)):
                return m
        return 0

    @property
    def support(self):
        return tuple(p for p, _ in self.points)

    def scaled(self, mu):
        return Divisor([(mu * p, m) for p, m in self.points])

    def translated(self, a):
        return Divisor([(p + a, m) for p, m in self.points])

    def plus_point(self, z, mult=1):
        return Divisor(list(self.points) + [(z, mult)])

    def to_json(self):
        return {"points": [{"re": p.real, "im": p.imag, "mult": m} for p, m in self.points]}

    @classmethod
    def from_json(cls, data):
        return decode(DIVISOR, data, "divisor")


class QuasiperiodGroup(Record):
    """Trivial, all of C, or rank one with a canonical generator."""

    __slots__ = ("kind", "generator")

    def __init__(self, kind, generator=None):
        setfield(self, "kind", kind)  # "trivial" | "all" | "rank1"
        setfield(self, "generator", generator)

    @property
    def is_trivial(self):
        return self.kind == "trivial"

    def contains(self, w):
        w = complex(w)
        if self.kind == "all":
            return True
        if self.kind == "trivial":
            return abs(w) <= QUASIPERIOD_TOL * max(1.0, abs(w))
        return near_int(w / self.generator, QUASIPERIOD_TOL) is not None

    def index_of(self, w):
        """Integer k with w = k * generator (rank-one groups only)."""
        if self.kind != "rank1":
            raise ValueError("not a rank-one quasiperiod group")
        k = near_int(complex(w) / self.generator, QUASIPERIOD_TOL)
        if k is None:
            raise ValueError("not a quasiperiod")
        return k


def quasiperiod_group(D, max_denominator=None):
    """Quasiperiod group of a divisor.

    Degree one gives all of C; any multiplicity >= 2 kills every nonzero
    quasiperiod; otherwise the differences from the base point must generate
    a cyclic group delta*Z (checked by rational reconstruction of their
    ratios, then re-verified), and the group is (2*pi*i/delta) * Z.  It is
    computed once per divisor and bound.
    """
    groups = D._quasiperiod_groups
    if max_denominator not in groups:
        groups[max_denominator] = _quasiperiod_group(D, max_denominator)
    return groups[max_denominator]


def _quasiperiod_group(D, max_denominator):
    if D.degree == 0:
        raise ValueError("degenerate divisor")
    if D.degree == 1:
        return QuasiperiodGroup("all")
    if any(m >= 2 for _, m in D.points):
        return QuasiperiodGroup("trivial")
    pts = D.support
    diffs = [p - pts[0] for p in pts[1:]]
    d0 = diffs[0]
    ratios = []  # each d / d0 as the integers (p, q) of p / q
    for d in diffs:
        r = d / d0
        if abs(r.imag) > RATIO_REAL_TOL * max(1.0, abs(r)):
            return QuasiperiodGroup("trivial")
        pq = _convergent(r.real, _denominator_bound(max_denominator))
        if pq is None:
            return QuasiperiodGroup("trivial")
        ratios.append(pq)
    den = math.lcm(*(q for _, q in ratios))
    delta = d0 * math.gcd(*(p * (den // q) for p, q in ratios)) / den
    if any(near_int(d / delta, QUASIPERIOD_TOL) is None for d in diffs):
        return QuasiperiodGroup("trivial")
    gen = canonical_sign(2j * cmath.pi / delta)
    return QuasiperiodGroup("rank1", gen)


def weight(D, w):
    """Multiplier gamma_w = e^{lam_1 w}; the same for every point of D."""
    qg = quasiperiod_group(D)
    if not qg.contains(w):
        raise ValueError("not a quasiperiod")
    return cmath.exp(D.support[0] * complex(w))


def _match_scaled(D, E, mu):
    taken = [False] * len(E.points)
    scale = max([abs(p) for p in D.support + E.support] + [1.0])
    for p, m in D.points:
        hit = False
        for j, (q, mm) in enumerate(E.points):
            if not taken[j] and mm == m and abs(q - mu * p) <= EPS * scale:
                taken[j] = True
                hit = True
                break
        if not hit:
            return False
    return all(taken)


def equivalent_mod_rescaling(D, E):
    """A nonzero mu with E = mu * D as multisets, or None."""
    if D.degree != E.degree:
        return None
    if sorted(m for _, m in D.points) != sorted(m for _, m in E.points):
        return None
    zero = EPS * max([1.0] + [abs(p) for p in D.support + E.support])
    nz = [(p, m) for p, m in D.points if abs(p) > zero]
    if not nz:
        if all(abs(q) <= zero for q in E.support):
            return 1.0 + 0j
        return None
    d0, m0 = nz[0]
    for q, mm in E.points:
        if mm != m0 or abs(q) <= zero:
            continue
        mu = q / d0
        if _match_scaled(D, E, mu):
            return mu
    return None


def equivalent_mod_affine(D, E):
    """A pair (mu, a), mu nonzero, with E = mu * D + a as multisets, or None."""
    if D.degree != E.degree or D.degree == 0:
        return None
    cd = sum(p * m for p, m in D.points) / D.degree
    ce = sum(p * m for p, m in E.points) / E.degree
    D0 = D.translated(-cd)
    E0 = E.translated(-ce)
    mu = equivalent_mod_rescaling(D0, E0)
    if mu is None:
        return None
    return mu, ce - mu * cd
