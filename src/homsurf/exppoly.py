"""Exact arithmetic for exponential polynomials.

An exponential polynomial is a finite sum  sum_j e^{lam_j z} q_j(z)  with
polynomial coefficients q_j and pairwise distinct frequencies lam_j.  These
are exactly the holomorphic solutions of constant-coefficient linear ODEs:
the solution space attached to an effective divisor D (points = frequencies,
multiplicities = polynomial degree bounds) is spanned by basis_of(D) and is
annihilated by the monic operator monic_polynomial(D).

Representation: frequencies are floats compared with relative tolerance EPS;
coefficients stay exact under the symbolic operations here (translation is a
binomial expansion, never sampling), and canonicalization drops terms whose
coefficients cancel below the absolute chop COEFF_CHOP.  Annihilation by an
operator built from its root divisor cancels structurally, with no residual.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math

from .numeric import COEFF_CHOP, EXPPOLY, MONIC_TOL, Record, binomials, close, decode, setfield


def _trim(cs):  # a list of complex numbers as a tuple, trailing entries at or below COEFF_CHOP dropped
    n = len(cs)
    while n and abs(cs[n - 1]) <= COEFF_CHOP:
        n -= 1
    return tuple(cs[:n])


class Polynomial(Record):
    """Dense polynomial over C; coeffs[k] multiplies z^k, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        setfield(self, "coeffs", _trim([complex(c) for c in coeffs]))

    @classmethod
    def _of(cls, cs):  # a list of complex numbers: trimmed, not converted
        out = object.__new__(cls)
        setfield(out, "coeffs", _trim(cs))
        return out

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def const(cls, c):
        return cls((complex(c),))

    @classmethod
    def monomial(cls, k):
        return cls((0.0,) * k + (1.0 + 0j,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        pairs = itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return Polynomial._of([x + y for x, y in pairs])

    def __neg__(self):
        return Polynomial._of([-c for c in self.coeffs])

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        out = [0j] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial._of(out)

    def scale(self, c):
        return Polynomial._of([c * a for a in self.coeffs])

    def derivative(self, order=1):
        cs = list(self.coeffs)
        for _ in range(order):
            cs = [k * cs[k] for k in range(1, len(cs))]
        return Polynomial._of(cs)

    def __call__(self, z):
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def max_abs(self):
        return max((abs(c) for c in self.coeffs), default=0.0)


def _canonical_terms(pairs):
    pairs = [(complex(lam), poly) for lam, poly in pairs if not poly.is_zero]
    pairs.sort(key=lambda tp: (tp[0].real, tp[0].imag))
    return _merge_close(pairs)


def _merge_sorted(a, b):
    """Canonical terms of the sum of two canonical term tuples.

    One merge of the two sorted lists, ties taking `a` first as the stable
    sort of `a + b` does, then the neighbour merge of _canonical_terms.
    """
    pairs = []
    i = j = 0
    while i < len(a) and j < len(b):
        la, lb = a[i][0], b[j][0]
        if (lb.real, lb.imag) < (la.real, la.imag):
            pairs.append(b[j])
            j += 1
        else:
            pairs.append(a[i])
            i += 1
    pairs += a[i:]
    pairs += b[j:]
    return _merge_close(pairs)


def _merge_close(pairs):
    """Sorted terms with neighbouring close frequencies summed, zero sums dropped."""
    merged = []
    for lam, poly in pairs:
        if merged and close(merged[-1][0], lam):
            merged[-1][1] = merged[-1][1] + poly
        else:
            merged.append([lam, poly])
    return tuple((lam, poly) for lam, poly in merged if not poly.is_zero)


class ExpPoly(Record):
    """Finite sum of e^{lam z} * polynomial terms in canonical form."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        setfield(self, "terms", _canonical_terms(terms))

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def _canonical(cls, terms):
        """An ExpPoly over a tuple of terms already in canonical form."""
        out = object.__new__(cls)
        setfield(out, "terms", terms)
        return out

    @classmethod
    def _same_frequencies(cls, terms):
        """Terms whose frequencies come from a canonical form, in its order:
        only the zero polynomials are dropped, with no re-sort or re-merge."""
        return cls._canonical(tuple([(lam, p) for lam, p in terms if p.coeffs]))

    @classmethod
    def exponential(cls, lam, poly=None):
        return cls(((lam, Polynomial.const(1.0) if poly is None else poly),))

    @classmethod
    def from_poly(cls, poly):
        return cls(((0.0, poly),))

    @property
    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        """The canonical sum, termwise where `_merge_sorted` merges term i of each side and nothing else:
        the frequencies agree, are finite (`close` to themselves) and no neighbours are `close`."""
        a, b = self.terms, other.terms
        if len(a) == len(b):
            out = []
            prev = None
            for (lam, p), (mu, q) in zip(a, b):
                if lam != mu or not abs(lam) < math.inf or (prev is not None and close(prev, lam)):
                    break
                prev, s = lam, p + q
                if s.coeffs:
                    out.append((lam, s))
            else:
                return ExpPoly._canonical(tuple(out))
        return ExpPoly._canonical(_merge_sorted(a, b))

    def __neg__(self):
        return ExpPoly._same_frequencies([(lam, -p) for lam, p in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = complex(c)
        return ExpPoly._same_frequencies([(lam, p.scale(c)) for lam, p in self.terms])

    def modulate(self, a):
        """Multiply by e^{a z}: shift every frequency by a."""
        a = complex(a)
        return ExpPoly(tuple((lam + a, p) for lam, p in self.terms))

    def scale_argument(self, mu):
        """The function z -> f(mu z)."""
        mu = complex(mu)
        out = []
        for lam, p in self.terms:
            out.append((lam * mu, Polynomial([c * mu**k for k, c in enumerate(p.coeffs)])))
        return ExpPoly(tuple(out))

    def max_abs(self):
        return max((p.max_abs() for _, p in self.terms), default=0.0)

    def distance(self, other):
        """The largest coefficient of the difference of the canonical forms, relative to both."""
        d = self - other
        s = max(1.0, self.max_abs(), other.max_abs())
        return max((p.max_abs() for _, p in d.terms), default=0.0) / s

    def to_json(self):
        return {
            "terms": [
                {
                    "lambda": {"re": lam.real, "im": lam.imag},
                    "coeffs": [{"re": c.real, "im": c.imag} for c in p.coeffs],
                }
                for lam, p in self.terms
            ]
        }

    @classmethod
    def from_json(cls, data):
        return decode(EXPPOLY, data, "exppoly")


def evaluate(f, z):
    """Value of the exponential polynomial at z."""
    z = complex(z)
    return sum((cmath.exp(lam * z) * p(z) for lam, p in f.terms), 0j)


def translate(f, t):
    """The function z -> f(z - t), computed symbolically.

    Frequencies are unchanged; each coefficient polynomial is binomially shifted and scaled
    by e^{-lam t} in one pass.  The shift keeps the leading coefficient, above COEFF_CHOP (or
    NaN), so only the scaled coefficients need a trim.
    """
    t = complex(t)
    terms = []
    for lam, p in f.terms:
        cs = p.coeffs
        powers = [(-t) ** e for e in range(len(cs))]
        out = [0j] * len(cs)
        for k, c in enumerate(cs):
            if c == 0:
                continue
            for j, b in enumerate(binomials(k)):
                out[j] += c * b * powers[k - j]
        s = cmath.exp(-lam * t)
        terms.append((lam, Polynomial._of([s * a for a in out])))
    return ExpPoly._same_frequencies(terms)


class DiffOperator(Record):
    """Monic constant-coefficient operator p(d/dz) with its root multiset.

    `apply_operator` goes through the roots, so that applying the operator
    to a member of its own solution space cancels structurally.
    """

    __slots__ = ("coeffs", "roots")

    def __init__(self, coeffs, roots):
        cs = _trim([complex(c) for c in coeffs])
        if not cs:
            raise ValueError("operator must be nonzero")
        lead = cs[-1]
        if abs(lead - 1.0) > MONIC_TOL:
            raise ValueError("operator must be monic")
        cs = cs[:-1] + (1.0 + 0j,)
        setfield(self, "coeffs", cs)
        setfield(self, "roots", tuple(roots))


@functools.lru_cache(maxsize=256)
def monic_polynomial(D):
    """Monic polynomial with zero locus D, counting multiplicities.

    Divisors are frozen and hashable, so the operator is built once per
    divisor (the returned operator is immutable and shared).
    """
    if D.degree == 0:
        raise ValueError("degenerate divisor")
    p = Polynomial.const(1.0)
    for lam, mult in D.points:
        factor = Polynomial((-lam, 1.0))
        for _ in range(mult):
            p = p * factor
    return DiffOperator(p.coeffs, roots=D.points)


def apply_operator(op, f):
    """Apply p(d/dz) to f symbolically; result is in canonical form.

    Each factor (d/dz - mu) of the operator's roots acting on e^{lam z} q(z)
    with lam == mu kills a degree exactly, so annihilation of basis members
    produces an exactly empty result.
    """
    out = []
    for lam, p in f.terms:
        q = p
        for mu, mult in op.roots:
            if q.is_zero:
                break
            d = lam - complex(mu)
            if close(lam, complex(mu)):
                q = q.derivative(mult)
            else:
                for _ in range(mult):
                    q = q.derivative() + q.scale(d)
        if not q.is_zero:
            out.append((lam, q))
    return ExpPoly(tuple(out))


def basis_of(D):
    """The functions e^{lam_j z} z^k, 0 <= k < n_j, spanning the solution space."""
    if D.degree == 0:
        raise ValueError("degenerate divisor")
    out = []
    for lam, mult in D.points:
        for k in range(mult):
            out.append(ExpPoly.exponential(lam, Polynomial.monomial(k)))
    return out


def contains(D, f):
    """Membership of f in the solution space of D's annihilator, as apply_operator decides it: a term
    close to a root of multiplicity above its degree is annihilated exactly (no earlier factor raises
    the degree), so only the other terms run through it."""
    if D.degree == 0:
        raise ValueError("degenerate divisor")
    rest = []
    for lam, p in f.terms:
        for mu, m in D.points:
            if m >= len(p.coeffs) and close(lam, mu):
                break
        else:
            rest.append((lam, p))
    return not rest or apply_operator(monic_polynomial(D), ExpPoly._canonical(tuple(rest))).is_zero


def random_member(D, rng, scale=1.0):
    """Random element of the solution space: the basis functions times complex(normal, normal) * scale,
    summed in one pass.  Their frequencies come sorted, so each merges with the last term or follows it,
    as ExpPoly addition merges them; one array of draws is the same stream as scalar draws."""
    if D.degree == 0:
        raise ValueError("degenerate divisor")
    draws = iter(rng.normal(size=2 * D.degree).tolist())
    terms = []
    for lam, mult in D.points:
        for k in range(mult):
            c = complex(next(draws), next(draws)) * scale
            p = Polynomial._of([c * 0j] * k + [c * (1.0 + 0j)])
            if p.coeffs and terms and close(terms[-1][0], lam):
                head, last = terms.pop()
                if (p := last + p).coeffs:
                    terms.append((head, p))
            elif p.coeffs:
                terms.append((lam, p))
    return ExpPoly._canonical(tuple(terms))
