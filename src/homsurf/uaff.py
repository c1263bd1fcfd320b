"""The universal cover of the complex affine group of C, and its discrete subgroups.

Elements are pairs (a, b) with (a, b)(a', b') = (a + a', b + e^a b'), the
simply connected nonabelian complex Lie group of dimension two.  The group
law is `uaffgroup`'s, re-imported here.  The module adds powers, the 3x3
matrix model, the automorphism group (a, b) -> (a, gamma (1 - e^a) + beta b),
the classifier of discrete subgroups into the fourteen normal forms
D2_1 .. D2_14, the intersection of each subgroup with the center
2 pi i Z x {0}, and the explicit product-cover maps that exist exactly when
the subgroup is abelian.
"""

from __future__ import annotations

import cmath
import math

from .lattice import TorusPoint, _convergent, _denominator_bound, c2r, geometric_sum, lattice_coords, lattice_frame
from .lattice import lattice_reduce_tau, lattice_residue, saturate_lattice, zmodule_basis, zmodule_fit
from .numeric import B_REMOVED_TOL, B_ZERO_TOL, CENTER_REAL_TOL, DENOMINATOR_BOUND, EXP_ONE_TOL, HALF_PHASE_TOL
from .numeric import KERNEL_A_TOL, PHASE_TOL, TAU_UNIT_TOL, NonDiscreteError, Record, canonical_sign, close
from .numeric import TWO_PI_I, setfield
from .uaffgroup import IDENTITY, UAffElement, uaff_inverse, uaff_multiply


def uaff_power(g, n):
    """g^n with the geometric-sum closed form for the b component."""
    n = int(n)
    if n == 0:
        return IDENTITY
    if n < 0:
        return uaff_inverse(uaff_power(g, -n))
    return UAffElement(n * g.a, g.b * geometric_sum(cmath.exp(g.a), n))


def uaff_is_identity(g):
    return close(g.a, 0) and close(g.b, 0)


def uaff_matrix(g):
    """3x3 matrix model as rows of complex numbers: the product of matrix(g) and matrix(h) is matrix(g h)."""
    return ((cmath.exp(g.a), 0j, complex(g.b)), (0j, 1 + 0j, complex(g.a)), (0j, 0j, 1 + 0j))


def commutator(g, h):
    return uaff_multiply(uaff_multiply(g, h), uaff_multiply(uaff_inverse(g), uaff_inverse(h)))


class UAffAutomorphism(Record):
    """(a, b) -> (a, gamma (1 - e^a) + beta b); these are all the automorphisms."""

    __slots__ = ("gamma", "beta")

    def __init__(self, gamma=0j, beta=1.0 + 0j):
        setfield(self, "gamma", gamma)
        setfield(self, "beta", beta)
        if abs(self.beta) == 0:
            raise ValueError("beta must be nonzero")


def aut_apply(phi, g):
    return UAffElement(g.a, phi.gamma * (1 - cmath.exp(g.a)) + phi.beta * g.b)


class D2Label(Record):
    """Normal form of a discrete subgroup, with its table parameters."""

    __slots__ = ("name", "k", "b", "tau", "a", "a1", "a2", "generators", "warnings")

    def __init__(self, name, k=None, b=None, tau=None, a=None, a1=None, a2=None, generators=(), warnings=()):
        setfield(self, "name", name)
        setfield(self, "k", k)
        setfield(self, "b", b)
        setfield(self, "tau", tau)
        setfield(self, "a", a)
        setfield(self, "a1", a1)
        setfield(self, "a2", a2)
        setfield(self, "generators", generators)
        setfield(self, "warnings", warnings)

    def params(self):
        out = {}
        for key in ("k", "b", "tau", "a", "a1", "a2"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out


def _row(label):
    """(the values of the parameters the label's row reads, its generators, its cover); an unknown
    label or a missing parameter is a ValueError naming it."""
    if label.name not in _ROWS:
        raise ValueError(f"unknown label {label.name}")
    reads, generators, cover = _ROWS[label.name]
    values = [getattr(label, p) for p in reads]
    if None in values:
        raise ValueError(f"row {label.name} needs the parameter {reads[values.index(None)]}")
    return values, generators, cover


def normal_form_generators(label):
    """Generator list of the table row with the label's parameters; a missing one is a ValueError."""
    values, generators, _ = _row(label)
    return list(generators(*values))


def _label(name, **params):
    """The label of a table row, with its parameters and the row's generators."""
    reads, generators, _ = _ROWS[name]
    return D2Label(name, generators=generators(*(params[p] for p in reads)), **params)


_OMEGA = cmath.exp(1j * math.pi / 3)
# the kernel translations (0, 1), (0, i) and (0, omega) of the table's rows
_B1, _BI, _BW = UAffElement(0, 1), UAffElement(0, 1j), UAffElement(0, _OMEGA)
# each row of the table: the label parameters it reads, its generators as a function of them, and
# its product cover as a function of them and of the point's (a, b); None for a nonabelian row
_ROWS = {
    "D2": ((), lambda: (), lambda a, b: (a, b)),
    "D2_1": ((), lambda: (_B1,), lambda a, b: (a, cmath.exp(TWO_PI_I * cmath.exp(-a) * b))),
    "D2_2": (
        ("tau",),
        lambda tau: (_B1, UAffElement(0, tau)),
        lambda tau, a, b: (a, TorusPoint(cmath.exp(-a) * b, 1.0, tau)),
    ),
    "D2_3": (
        ("k",),
        lambda k: (UAffElement(TWO_PI_I * k, 1),),
        lambda k, a, b: (cmath.exp(a / k), cmath.exp(-a) * b - a / (TWO_PI_I * k)),
    ),
    "D2_4": (
        ("k", "b"),
        lambda k, b: (UAffElement(TWO_PI_I * k, b), _B1),
        lambda k, bp, a, b: (cmath.exp(a / k), cmath.exp(TWO_PI_I * cmath.exp(-a) * b - a * bp / k)),
    ),
    "D2_5": (
        ("k", "b", "tau"),
        lambda k, b, tau: (UAffElement(TWO_PI_I * k, b), _B1, UAffElement(0, tau)),
        lambda k, bp, tau, a, b: (
            cmath.exp(a / k),
            TorusPoint(cmath.exp(-a) * b - a * bp / (TWO_PI_I * k), 1.0, tau),
        ),
    ),
    "D2_6": (("a",), lambda a: (UAffElement(a, 0),), lambda a6, a, b: (cmath.exp(TWO_PI_I * a / a6), b)),
    "D2_7": (("k",), lambda k: (UAffElement(TWO_PI_I * (k + 0.5), 0), _B1), None),
    "D2_8": (("k", "tau"), lambda k, tau: (UAffElement(TWO_PI_I * (k + 0.5), 0), _B1, UAffElement(0, tau)), None),
    "D2_9": (("k",), lambda k: (UAffElement(1j * math.pi * (k + 0.5), 0), _B1, _BI), None),
    "D2_10": (("k",), lambda k: (UAffElement(TWO_PI_I * (k + 1.0 / 6), 0), _B1, _BW), None),
    "D2_11": (("k",), lambda k: (UAffElement(TWO_PI_I * (k + 2.0 / 6), 0), _B1, _BW), None),
    "D2_12": (("k",), lambda k: (UAffElement(TWO_PI_I * (k + 4.0 / 6), 0), _B1, _BW), None),
    "D2_13": (("k",), lambda k: (UAffElement(TWO_PI_I * (k + 5.0 / 6), 0), _B1, _BW), None),
    "D2_14": (
        ("a1", "a2"),
        lambda a1, a2: (UAffElement(a1, 0), UAffElement(a2, 0)),
        lambda a1, a2, a, b: (TorusPoint(a, a1, a2), b),
    ),
}

NONABELIAN_LABELS = {name for name, (_, _, cover) in _ROWS.items() if cover is None}

# rows presenting the same subgroups with the generator inverted; the
# classifier only ever reports the canonical member of each pair
CANONICAL_ROW = dict(zip(_ROWS, _ROWS), D2_12="D2_11", D2_13="D2_10")


def _phase_fraction(a):
    """a as 2 pi i (k + s): requires Re a ~ 0; returns (k, s) with s in [0, 1)."""
    if abs(a.real) > PHASE_TOL * max(1.0, abs(a)):
        return None
    x = a.imag / (2 * math.pi)
    k = math.floor(x + PHASE_TOL)
    s = x - k
    if s > 1 - PHASE_TOL:
        k, s = k + 1, 0.0
    if s < PHASE_TOL:
        s = 0.0
    return k, s


def _realize(gens, combo):
    g = IDENTITY
    for gen, c in zip(gens, combo):
        if c:
            g = uaff_multiply(g, uaff_power(gen, c))
    return g


def classify_subgroup(gens, max_denominator=None):
    """Normal form of the discrete subgroup generated by gens.

    Returns (D2Label, UAffAutomorphism): the label with its parameters and an
    automorphism carrying the input generators onto the table row.  Raises
    NonDiscreteError (a ValueError) when the generators do not span one of
    the tabulated discrete subgroups, or when e^a leaves the float range.
    """
    try:
        return _classify_subgroup(gens, max_denominator)
    except OverflowError as e:
        raise NonDiscreteError(f"not a tabulated subgroup: e^a overflows ({e})") from None


def _classify_subgroup(gens, max_denominator):
    gens = [g for g in gens if not uaff_is_identity(g)]
    scale = max([abs(g.a) + abs(g.b) for g in gens] + [1.0])
    if not gens:
        return D2Label("D2"), UAffAutomorphism()

    try:
        a_basis, combos, _ = zmodule_basis(
            [c2r(g.a) for g in gens], max_denominator=max_denominator
        )
    except NonDiscreteError as e:
        raise NonDiscreteError(f"not a tabulated subgroup: {e}") from e
    L = [_realize(gens, combo) for combo in combos]

    kernel_b = []
    a_coords = zmodule_fit(a_basis)
    for g in gens:
        coords = a_coords(c2r(g.a))
        if coords is None:
            raise NonDiscreteError("not a tabulated subgroup: inconsistent a-components")
        h = g
        for elem, c in zip(L, coords):
            if c:
                h = uaff_multiply(uaff_power(elem, -c), h)
        if abs(h.a) > KERNEL_A_TOL * scale:
            raise NonDiscreteError("not a tabulated subgroup: kernel reduction failed")
        if abs(h.b) > B_ZERO_TOL * scale:
            kernel_b.append(h.b)
    for i in range(len(L)):
        for j in range(i + 1, len(L)):
            c = commutator(L[i], L[j])
            if abs(c.b) > B_ZERO_TOL * scale:
                kernel_b.append(c.b)

    pi0 = []
    try:
        if kernel_b:
            # close the b-translations under conjugation by the a-generators
            images = [lambda b, u=cmath.exp(sgn * e.a): u * b for e in L for sgn in (1, -1)]
            pi0 = saturate_lattice(kernel_b, images, scale)
    except NonDiscreteError as e:
        raise NonDiscreteError(f"not a tabulated subgroup: {e}") from e

    rbar = len(L)
    if rbar == 0:
        return _classify_kernel_only(pi0)
    if rbar == 1:
        return _classify_rank_one(L[0], pi0, scale)
    if rbar == 2:
        return _classify_rank_two(L, pi0, scale)
    raise NonDiscreteError("not a tabulated subgroup: a-components have rank > 2")


def _classify_kernel_only(pi0):
    if not pi0:
        return D2Label("D2"), UAffAutomorphism()
    beta, tau = lattice_frame(pi0)
    return _label("D2_1" if tau is None else "D2_2", tau=tau), UAffAutomorphism(0, beta)


def _kill_b(A, B, beta):
    """Gamma with gamma (1 - e^A) + beta B = 0; requires e^A != 1."""
    return -beta * B / (1 - cmath.exp(A))


def _classify_rank_one(g, pi0, scale):
    # canonicalize the generator sign: inversion flips the phase s to 1 - s,
    # so rows that only differ that way (e.g. phases 2/6 and 4/6) present the
    # same subgroup; we keep the representative with s <= 1/2 and k >= 0
    frac0 = _phase_fraction(g.a)
    if frac0 is not None:
        k0, s0 = frac0
        if s0 > 0.5 + HALF_PHASE_TOL or (k0 < 0 and (s0 == 0.0 or close(s0, 0.5, tol=PHASE_TOL))):
            g = uaff_inverse(g)
    A, B = g.a, g.b
    if not pi0:
        frac = _phase_fraction(A)
        if frac is not None and frac[1] == 0.0:
            k = frac[0]
            if abs(B) <= B_ZERO_TOL * scale:
                return _label("D2_6", a=canonical_sign(A)), UAffAutomorphism()
            return _label("D2_3", k=k), UAffAutomorphism(0, 1.0 / B)
        return _label("D2_6", a=canonical_sign(A)), UAffAutomorphism(_kill_b(A, B, 1.0), 1.0)

    # beta rescales a rank-one kernel to Z (rows D2_4, D2_7) and a rank-two one to Z + tau Z
    beta, tau = lattice_frame(pi0)
    frac = _phase_fraction(A)
    if frac is None:
        kept = "preserve the kernel" if tau is None else "fix the kernel lattice"
        raise NonDiscreteError(f"not a tabulated subgroup: e^a does not {kept}")
    k, s = frac
    if close(s, 0.0, tol=PHASE_TOL):
        b = lattice_residue(beta * B, tau)
        return _label("D2_4" if tau is None else "D2_5", k=k, b=b, tau=tau), UAffAutomorphism(0, beta)
    half = close(s, 0.5, tol=PHASE_TOL)
    if tau is None and not half:
        raise NonDiscreteError("not a tabulated subgroup: e^a is not +-1 on a rank-one kernel")
    phi = UAffAutomorphism(_kill_b(A, B, beta), beta)
    if half:
        return _label("D2_7" if tau is None else "D2_8", k=k, tau=tau), phi
    quarter = close(s, 0.25, tol=PHASE_TOL)
    if close(tau, 1j, tol=TAU_UNIT_TOL) and (quarter or close(s, 0.75, tol=PHASE_TOL)):
        return _label("D2_9", k=2 * k if quarter else 2 * k + 1, tau=1j), phi
    if close(tau, _OMEGA, tol=TAU_UNIT_TOL):
        for name, frac6 in (("D2_10", 1), ("D2_11", 2), ("D2_12", 4), ("D2_13", 5)):
            if close(s, frac6 / 6.0, tol=PHASE_TOL):
                return _label(name, k=k, tau=_OMEGA), phi
    raise NonDiscreteError("not a tabulated subgroup: e^a is not a unit of the kernel lattice")


def _classify_rank_two(L, pi0, scale):
    if pi0:
        raise NonDiscreteError("not a tabulated subgroup: rank-two image with nontrivial kernel")
    (a1, b1), (a2, b2) = (L[0].a, L[0].b), (L[1].a, L[1].b)
    e1, e2 = 1 - cmath.exp(a1), 1 - cmath.exp(a2)
    if abs(b1) <= B_ZERO_TOL * scale and abs(b2) <= B_ZERO_TOL * scale:
        phi = UAffAutomorphism()
    else:
        # kill the b of the generator with the larger |1 - e^a|, then check the other's
        e, b, other = (e1, b1, L[1]) if abs(e1) > abs(e2) else (e2, b2, L[0])
        if abs(e) <= EXP_ONE_TOL:
            raise NonDiscreteError("not a tabulated subgroup: cannot remove b-components")
        phi = UAffAutomorphism(-b / e, 1.0)
        if abs(aut_apply(phi, other).b) > B_REMOVED_TOL * scale:
            raise NonDiscreteError("not a tabulated subgroup: b-components are not removable")
    v1, v2, _, _ = lattice_reduce_tau(a1, a2)
    return _label("D2_14", a1=v1, a2=v2), phi


def center_intersection(label, max_denominator=None):
    """Generator of pi intersect Z(G) = 2 pi i Z x 0; (0,0) when trivial.  A fraction the answer
    needs whose denominator lies beyond max_denominator is a ValueError naming the bound, and so
    are an unknown label and a missing parameter."""
    _row(label)
    name = label.name
    if name in ("D2", "D2_1", "D2_2", "D2_3"):
        return IDENTITY
    if name == "D2_4":
        b = label.b
        if abs(b.imag) > CENTER_REAL_TOL * max(1.0, abs(b)):
            return IDENTITY
        pq = _center_fraction(b.real, "translation b", name, max_denominator)
        return IDENTITY if pq is None else UAffElement(TWO_PI_I * label.k * pq[1], 0)
    if name == "D2_5":
        x, y = lattice_coords(label.b, 1.0, label.tau)
        px = _center_fraction(x, "coordinate x of b = x + y tau", name, max_denominator)
        py = _center_fraction(y, "coordinate y of b = x + y tau", name, max_denominator)
        if px is None or py is None:
            return IDENTITY
        return UAffElement(TWO_PI_I * label.k * math.lcm(px[1], py[1]), 0)
    if name == "D2_6":
        x = label.a / TWO_PI_I
        if abs(x.imag) > CENTER_REAL_TOL * max(1.0, abs(x)):
            return IDENTITY
        pq = _center_fraction(x.real, "rotation a / 2 pi i", name, max_denominator)
        return IDENTITY if pq is None else UAffElement(TWO_PI_I * pq[0], 0)
    if name == "D2_14":
        return _center_d2_14(label.a1, label.a2, max_denominator)
    x = normal_form_generators(label)[0].a / TWO_PI_I  # a nonabelian row
    pq = _center_fraction(x.real, "rotation a / 2 pi i", name, max_denominator, required=True)
    return UAffElement(TWO_PI_I * pq[0], 0)


def _center_fraction(x, what, name, max_denominator, required=False):
    """x as (p, q) within the denominator bound, or None when x is irrational.  The search runs
    to DENOMINATOR_BOUND at least, so an x whose fraction lies beyond the bound is a ValueError
    naming the bound, not an irrational; so is an irrational x `required` to have a fraction."""
    bound = _denominator_bound(max_denominator)
    pq = _convergent(x, max(bound, DENOMINATOR_BOUND))
    if (pq is None and required) or (pq is not None and pq[1] > bound):
        raise ValueError(
            f"the {what} = {x:.12g} of {name} has no fraction whose denominator"
            f" is within the denominator bound {max_denominator}"
        )
    return pq


def _center_d2_14(a1, a2, max_denominator):
    """(2 pi i k, 0) for the least k > 0 with 2 pi i k in Z a1 + Z a2, or the identity when none.

    k is the gcd of the p of the integer relations m a1 + n a2 + p 2 pi i = 0.
    A pair that is not a lattice raises NonDiscreteError.  As in `_center_fraction`,
    the search runs to DENOMINATOR_BOUND at least, so relations that need a
    denominator beyond max_denominator are a ValueError naming the bound.
    """
    lattice_reduce_tau(a1, a2)  # a NonDiscreteError unless a1 and a2 are R-independent
    bound = _denominator_bound(max_denominator)
    vectors = [c2r(a1), c2r(a2), c2r(TWO_PI_I)]
    for search in (bound,) if bound >= DENOMINATOR_BOUND else (bound, DENOMINATOR_BOUND):
        try:
            _, _, relations = zmodule_basis(vectors, max_denominator=search)
        except NonDiscreteError:  # 2 pi i is no rational combination of a1 and a2 within `search`
            continue
        if search > bound:
            raise ValueError(
                "the relations of 2 pi i to a1 and a2 of D2_14 need a denominator"
                f" beyond the denominator bound {max_denominator}"
            )
        k = math.gcd(*(row[2] for row in relations))
        return UAffElement(TWO_PI_I * k, 0) if k else IDENTITY
    return IDENTITY


def product_cover(label, point):
    """Map a point of the group to the product surface X' for an abelian row.

    The map is constant on right cosets of the subgroup; nonabelian rows have
    no such map (the bundle is nontrivial) and raise ValueError, as does a
    label that misses a parameter its row reads.
    """
    values, _, cover = _row(label)
    if cover is None:
        raise ValueError("bundle is nontrivial")
    return cover(*values, point.a, point.b)
