"""The elementary families of transitive actions and the generic dispatch.

Each family label has one `Family` with a uniform interface: identity,
multiply, inverse, act, and random sampling of elements and surface points.
A factory per label builds it from the group law and action functions of
the family's module (`projective`, `bbeta`, `uaffgroup`) or from closures over
the family's parameters; the product families join the functions of two
factors.  The factories cover the matrix families (projective plane, affine
plane, special affine plane), the product families, the one-parameter
stabilizer family, the translation plane (whose discrete subgroups `d1`
classifies), the affine group, the quadric, and the divisor- and
bundle-indexed families.  A factory, or the constructor of a payload
schema, imports its family's module when it runs, so loading this module
loads none of them.

One table, `SPECS`, holds everything else known per label: the factory, the
element and point schemas of the JSON payloads, whose constructors check the
family's invariants, the element distance and the quotient policy.
"""

from __future__ import annotations

import cmath
import math
import operator
from itertools import chain

from .numeric import CHART, COMPLEX, COMPLEXES, DEGREE, DIVISOR, EPS, EXPPOLY, INVERTIBLE2, MATRIX2, MATRIX3, PAIR
from .numeric import Record, Schema, _itself, _values, check_invertible, close, determinant, distance, flat_distance
from .numeric import ORIGIN_TOL, SL_DET_TOL, _pair_distance, _scalar_distance, inverse2, inverse3, lazy, product2
from .numeric import product3, setfield


def _cnum(rng, scale=0.7):
    # the same draws as rng.normal(), at about half the cost per call
    return complex(rng.standard_normal(), rng.standard_normal()) * scale


def _cnums(rng, k, scale=0.7):
    """k consecutive _cnum draws, from one array: the same stream as 2k scalar draws."""
    xs = rng.standard_normal(2 * k).tolist()
    return [complex(x, y) * scale for x, y in zip(xs[::2], xs[1::2])]


def _matrix(rng, n=2, special=False, min_det=0.25, scale=0.7):
    """A random n x n matrix as a tuple of rows, with |det| > min_det; divided by
    a square root of the determinant when special, so that det = 1."""
    while True:
        cs = _cnums(rng, n * n, scale)
        m = ((cs[0], cs[1]), (cs[2], cs[3])) if n == 2 else tuple(tuple(cs[i : i + n]) for i in range(0, n * n, n))
        det = determinant(m)
        if abs(det) > min_det:
            break
    if special:
        root = cmath.sqrt(det)
        m = tuple(tuple(x / root for x in row) for row in m)
    return m


_EYE2 = ((1.0 + 0j, 0j), (0j, 1.0 + 0j))
_EYE3 = ((1.0 + 0j, 0j, 0j), (0j, 1.0 + 0j, 0j), (0j, 0j, 1.0 + 0j))


def _plane_point(rng):
    """A point of C^2, in the coordinates (z, w)."""
    return tuple(_cnums(rng, 2))


class Family:
    """The group law of a family and its action on the family's surface.

    `label` is the family label and `n` the bundle degree of the Bγ and Bδ
    families (None for the others).  The points are those of C^2 unless the
    factory gives its own `random_point`.  The operations are methods of this
    one class, each calling the function its factory gave, so that wrapping a
    method on the class (as perfbench's tracer does) sees every family's calls.
    """

    def __init__(self, label, identity, multiply, inverse, act, random_element, random_point=_plane_point, n=None):
        self.label, self.n = label, n
        self._identity, self._multiply, self._inverse, self._act = identity, multiply, inverse, act
        self._random_element, self._random_point = random_element, random_point

    def identity(self):
        return self._identity()

    def multiply(self, g, h):
        return self._multiply(g, h)

    def inverse(self, g):
        return self._inverse(g)

    def act(self, g, x):
        return self._act(g, x)

    def random_element(self, rng):
        return self._random_element(rng)

    def random_point(self, rng):
        return self._random_point(rng)


# ---------------------------------------------------------------------------
# the factors of the product families: (identity, multiply, inverse, act, random element, random point)


def _aff_random(rng):
    a, b = _cnums(rng, 2)
    return (cmath.exp(a), b)


# the translations z -> z + t
_TRANS_C = (lambda: 0j, operator.add, operator.neg, lambda a, z: z + a, _cnum, _cnum)
# z -> alpha z + beta as pairs (alpha, beta)
_AFF_C = (
    lambda: (1.0 + 0j, 0j),
    lambda a, b: (a[0] * b[0], a[1] + a[0] * b[1]),
    lambda a: (1.0 / a[0], -a[1] / a[0]),
    lambda a, z: a[0] * z + a[1],
    _aff_random,
    _cnum,
)


def _psl2():
    from .projective import ProjPoint, mobius_act

    return (lambda: _EYE2, product2, inverse2, mobius_act, _matrix, lambda rng: ProjPoint(_cnum(rng, 1.0)))


def _product(label, f1, f2, random_element=None):
    """The product of two factor groups acting on the product surface (on a subgroup it samples)."""
    id1, mul1, inv1, act1, rnd1, pt1 = f1
    id2, mul2, inv2, act2, rnd2, pt2 = f2
    return Family(
        label,
        lambda: (id1(), id2()),
        lambda g, h: (mul1(g[0], h[0]), mul2(g[1], h[1])),
        lambda g: (inv1(g[0]), inv2(g[1])),
        lambda g, x: (act1(g[0], x[0]), act2(g[1], x[1])),
        random_element or (lambda rng: (rnd1(rng), rnd2(rng))),
        lambda rng: (pt1(rng), pt2(rng)),
    )


# ---------------------------------------------------------------------------
# the factories of the other families


def _a1():
    from .projective import Proj2Point, proj2_act

    return Family(
        "A1",
        lambda: _EYE3,
        product3,
        inverse3,
        proj2_act,
        lambda rng: _matrix(rng, n=3),
        lambda rng: Proj2Point(_cnums(rng, 3, 1.0)),
    )


def _affine_multiply(g, h):
    (a, b), (c, d) = g[0]
    (s, t), (x, y) = g[1], h[1]
    return (product2(g[0], h[0]), (s + (a * x + b * y), t + (c * x + d * y)))


def _affine_inverse(g):
    mi = inverse2(g[0])
    (a, b), (c, d) = mi
    x, y = g[1]
    return (mi, (-(a * x + b * y), -(c * x + d * y)))


def _affine_act(g, x):
    (a, b), (c, d) = g[0]
    t1, t2 = g[1]
    return (a * x[0] + b * x[1] + t1, c * x[0] + d * x[1] + t2)


def _matrix_affine(label, special):
    """GL(2,C) (or SL(2,C) when special) semidirect translations of the plane."""

    def random_element(rng):
        return (_matrix(rng, special=special), tuple(_cnums(rng, 2)))

    return Family(label, lambda: (_EYE2, (0j, 0j)), _affine_multiply, _affine_inverse, _affine_act, random_element)


def _c8_element(t, v, alpha=2.0 + 0.5j):
    """The pair of affine maps (e^t z + v0, e^{alpha t} w + v1) in C3's group; alpha != 0, 1."""
    if close(alpha, 1.0) or close(alpha, 0.0):
        raise ValueError("C8 requires alpha different from 0 and 1")
    return ((cmath.exp(t), v[0]), (cmath.exp(alpha * t), v[1]))


def _d3_element(m, v):
    """The rescaling by m != 0 and the translation by v, as a pair of affine maps in C3's group."""
    return ((_nonzero("m", m), v[0]), (m, v[1]))


def _aff_subgroup(label):
    """C2, C8 and D3: subgroups of C3's Aff(C) x Aff(C), which run its law; only the sampler differs."""
    samplers = {
        "C2": lambda rng: ((1.0 + 0j, _cnum(rng)), _aff_random(rng)),
        "C8": lambda rng: _c8_element(_cnum(rng, 0.5), _cnums(rng, 2)),
        "D3": lambda rng: _d3_element(cmath.exp(_cnum(rng, 0.5)), _cnums(rng, 2)),
    }
    return _product(label, _AFF_C, _AFF_C, samplers[label])


def _d2():
    from . import uaffgroup as u  # here: loading families does not load it

    def random(rng):
        return u.UAffElement(*_cnums(rng, 2))

    return Family("D2", lambda: u.IDENTITY, u.uaff_multiply, u.uaff_inverse, u.uaff_multiply, random, random)


def _bbeta(label):
    """Bβ1 (G_D) or Bβ2 (rG_D) over one example divisor: both run the law of rG_D; only the sampler differs."""
    from . import bbeta  # here: loading families does not load bbeta
    from .divisor import Divisor

    D = Divisor([(0.3 + 0.1j, 2), (-0.4 + 0.6j, 1)])
    sample = bbeta.random_gd if label == "Bβ1" else bbeta.random_rgd
    return Family(
        label,
        lambda: bbeta.rgd_identity(D),
        bbeta.rgd_multiply,
        bbeta.rgd_inverse,
        bbeta.rgd_act,
        lambda rng: sample(D, rng),
    )


def _punctured_point(rng):
    while True:
        x = tuple(_cnums(rng, 2))
        if abs(x[0]) + abs(x[1]) > 0.1:
            return x


def _bdelta_linear(label, special):
    """SL(2,C) (special) or GL(2,C) acting linearly on C^2 minus the origin."""
    from .projective import bdelta_act

    return Family(
        label,
        lambda: _EYE2,
        product2,
        inverse2,
        bdelta_act,
        lambda rng: _matrix(rng, special=special),
        _punctured_point,
    )


def _c9():
    """The matrices of Bδ2 taken modulo scalars, acting on ordered pairs of distinct points of P^1."""
    from .projective import ProjPoint, QuadricPoint, quadric_act

    def random_point(rng):
        while True:
            a, b = map(ProjPoint, _cnums(rng, 2, 1.0))
            if a.distance(b) > EPS:
                return QuadricPoint(a, b)

    return Family("C9", lambda: _EYE2, product2, inverse2, quadric_act, _matrix, random_point)


def _bdelta_bundle(label, special, n=2):
    """The full or special linear group of O(n), acting on bundle points."""
    from . import projective

    n = int(n)

    def random_element(rng):
        m = _matrix(rng, special=special)
        return projective.OnGroupElement(n, m, _cnums(rng, n + 1, 0.5))

    def random_point(rng):
        z = _cnum(rng, 1.1)
        return projective.BundlePoint(n, int(rng.integers(2)), z, _cnum(rng))

    return Family(
        label,
        lambda: projective.on_identity(n),
        projective.on_multiply,
        projective.on_inverse,
        projective.on_act,
        random_element,
        random_point,
        n=n,
    )


def _bgamma(label, n=2, c=0j):
    """Bγ1 (c != 0), its subfamily Bγ2 (c = 0), Bγ3 and Bγ4: upper-triangular elements of Bδ4, acting
    on the affine chart C^2 of O(n).  All four run the law of Bδ4; only the sampler differs."""
    from . import projective

    n, c = int(n), complex(c)

    def random_element(rng):
        if label == "Bγ4":
            m = ((cmath.exp(_cnum(rng, 0.5)), _cnum(rng)), (0j, cmath.exp(_cnum(rng, 0.5))))
            return projective.OnGroupElement(n, m, _cnums(rng, n + 1, 0.5))
        if label == "Bγ3":
            *r, lam = _cnums(rng, n + 1, 0.5)
            return projective.bgamma3_element(n, lam, _cnum(rng), r)
        *p, lam = _cnums(rng, n + 2, 0.5)
        return projective.bgamma12_element(n, c, lam, _cnum(rng), p)

    return Family(
        label,
        lambda: projective.on_identity(n),
        projective.on_multiply,
        projective.on_inverse,
        projective.bgamma_chart_act,
        random_element,
        n=n,
    )


# ---------------------------------------------------------------------------
# the element and point schemas of docs/families.md; an element schema's constructor checks the invariants

_bg12 = lazy("projective", "bgamma12_element")
_on = lazy("projective", "OnGroupElement")
_proj = lazy("projective", "ProjPoint")
_quadric = lazy("projective", "QuadricPoint")
_rgd = lazy("bbeta", "RGDElement")


def _nonzero(what, value):
    """value, once it is nonzero; the error calls it `what`."""
    if value == 0:
        raise ValueError(f"{what} must be nonzero")
    return value


def _invertible_affine(affine):
    """An affine map (alpha, beta) of C, z -> alpha z + beta, once it is invertible: alpha nonzero."""
    return (_nonzero("alpha", affine[0]), affine[1])


def _det_one(m, power=1):
    """m, once det(m) ** power = 1 within SL_DET_TOL; power > 1 allows the scalars an element is taken modulo."""
    det = determinant(m) ** power
    if not close(det, 1.0, tol=SL_DET_TOL):
        raise ValueError(f"the matrix must have det 1, got |det - 1| = {abs(det - 1):.3e}")
    return m


def _bgamma1_element(n, c, *rest):
    """The Bγ1 element of a payload: Bγ2's constructor, which takes c = 0, with c = 0 refused."""
    return _bg12(n, _nonzero("c", c), *rest)


def _bdelta3_element(n, m, poly):
    """The Bδ3 element of a payload: det = 1 up to the n-th roots of unity its matrix is stored modulo."""
    g = _on(n, m, poly)
    _det_one(g.matrix, g.n // math.gcd(g.n, 2))
    return g


def _off_the_origin(x):
    """A point of C^2 minus the origin; `bdelta_act` checks the same for in-process callers."""
    if max(abs(x[0]), abs(x[1])) <= ORIGIN_TOL:
        raise ValueError("the origin is not a point of the surface")
    return x


_AFFINE = Schema({"alpha": COMPLEX, "beta": COMPLEX})
_GL2 = Schema({"matrix": MATRIX2}, make=check_invertible)
_ON = Schema({"n": DEGREE, "matrix": MATRIX2, "poly": COMPLEXES}, make=_on)
_BGAMMA4 = Schema(_ON.fields, make=lambda n, m, poly: _on(n, m, poly).fixing_infinity())  # bgamma_chart_act's test
_UAFF = Schema({"a": COMPLEX, "b": COMPLEX}, make=lazy("uaffgroup", "UAffElement"), parts=lambda g: (g.a, g.b))
# the parameters of `act --cover`, each read only by the examples that take it (bbeta.quotient_cover)
_COVER = Schema(
    {"n": DEGREE, "s": COMPLEX, "tau": COMPLEX, "delta": COMPLEXES}, make=dict, optional=("n", "s", "tau", "delta")
)
# the points
_PLANE = Schema({"z": COMPLEX, "w": COMPLEX})
_PROJ_TIMES_LINE = Schema(
    {"zproj": PAIR, "w": COMPLEX}, make=lambda z, w: (_proj(*z), w), parts=lambda x: (x[0].coords, x[1])
)
_PUNCTURED = Schema({"x": PAIR}, make=_off_the_origin, parts=_values)
_BUNDLE = Schema(
    {"n": DEGREE, "chart": CHART, "z": COMPLEX, "w": COMPLEX},
    make=lazy("projective", "BundlePoint"),
    parts=lambda x: (x.n, x.chart, x.z, x.w),
)


# ---------------------------------------------------------------------------
# element distances


def _proj_distance(g, h):
    """Distance between matrices modulo a scalar: `flat_distance` of g and s h, s the ratio of their entries at
    the first entry of g of largest modulus (the one max() picks), each maximum taken once."""
    xs = list(map(complex, chain.from_iterable(g)))
    ys = list(map(complex, chain.from_iterable(h)))
    moduli = list(map(abs, xs))
    top = max(moduli)
    i = moduli.index(top)
    if abs(ys[i]) == 0:
        return 1.0
    s = xs[i] / ys[i]
    zs = [s * y for y in ys]
    return max(map(abs, map(operator.sub, xs, zs))) / max(1.0, top, max(map(abs, zs)))


def _matrix_distance(g, h):
    """`flat_distance` over the entries of two matrices given as rows."""
    return flat_distance(list(chain.from_iterable(g)), list(chain.from_iterable(h)))


def _affine_distance(g, h):
    """The larger `flat_distance` of the matrix parts and of the translations."""
    return max(_matrix_distance(g[0], h[0]), flat_distance(g[1], h[1]))


def _psl_first_distance(second):
    """The distance of PSL(2) x (a factor whose elements `second` compares): the larger of the two."""
    return lambda g, h: max(_proj_distance(g[0], h[0]), second(g[1], h[1]))


# ---------------------------------------------------------------------------
# the family table


class FamilySpec:
    """One row of the family table: what the package knows of one base label.

    `handler(**params)` builds the family's `Family`.  `element` and `point`
    are the `numeric.Schema`s of its JSON payloads (docs/families.md), the
    plane's point by default; the one `aside` key of an element is "cover",
    the parameters of `act --cover` for Bβ1 and Bβ2, and the element schema's
    constructor refuses an element that breaks the family's invariants.
    `distance(g, h)` compares two elements.  `policy` describes the discrete
    subgroups the action has quotients by, and is empty when it has none.
    """

    __slots__ = ("handler", "element", "point", "distance", "policy")

    def __init__(self, handler, element, point=_PLANE, *, distance=distance, policy=""):
        self.handler = handler
        self.element = element
        self.point = point
        self.distance = distance
        self.policy = policy


_HOPF = "Hopf identification z ~ lam z, 0 < |lam| < 1"

# in the order of the verify suites
SPECS = {
    "A1": FamilySpec(
        _a1,
        Schema({"matrix": MATRIX3}, make=check_invertible),
        Schema({"coords": COMPLEXES}, make=lazy("projective", "Proj2Point"), parts=lambda x: (x.coords,)),
        distance=_proj_distance,
    ),
    "A2": FamilySpec(
        lambda: _matrix_affine("A2", False),
        Schema({"matrix": MATRIX2, "translation": PAIR}, make=lambda m, t: (check_invertible(m), t)),
        distance=_affine_distance,
    ),
    "A3": FamilySpec(
        lambda: _matrix_affine("A3", True),
        Schema({"matrix": MATRIX2, "translation": PAIR}, make=lambda m, t: (_det_one(m), t)),
        distance=_affine_distance,
    ),
    "Bβ1": FamilySpec(
        lambda: _bbeta("Bβ1"),
        Schema(
            {"divisor": DIVISOR, "t": COMPLEX, "f": EXPPOLY, "cover": _COVER},
            make=lambda D, t, f: _rgd(D, t, 1, f),
            optional=("cover",),
            aside=("cover",),
        ),
        policy="discrete subgroup pi of Q_D x| C, examples Bβ1A0..I",
    ),
    "Bβ2": FamilySpec(
        lambda: _bbeta("Bβ2"),
        Schema(
            {"divisor": DIVISOR, "t": COMPLEX, "lambda": COMPLEX, "f": EXPPOLY, "cover": _COVER},
            make=_rgd,
            optional=("cover",),
            aside=("cover",),
        ),
        policy="pi = n Z in the quasiperiod group, normalized divisor",
    ),
    "Bγ1": FamilySpec(
        lambda n=2, c=1.7 + 0.3j: _bgamma("Bγ1" if c else "Bγ2", n, c),
        Schema({"n": DEGREE, "c": COMPLEX, "lam": COMPLEX, "b": COMPLEX, "poly": COMPLEXES}, make=_bgamma1_element),
    ),
    "Bγ2": FamilySpec(
        lambda n=2: _bgamma("Bγ2", n),
        Schema(
            {"n": DEGREE, "lam": COMPLEX, "b": COMPLEX, "poly": COMPLEXES},
            make=lambda n, lam, b, poly: _bg12(n, 0j, lam, b, poly),
        ),
        policy="pi = {0} x Lambda, Lambda a discrete subgroup of C",
    ),
    "Bγ3": FamilySpec(
        lambda n=2: _bgamma("Bγ3", n),
        Schema({"n": DEGREE, "lam": COMPLEX, "b": COMPLEX, "r": COMPLEXES}, make=lazy("projective", "bgamma3_element")),
    ),
    "Bγ4": FamilySpec(lambda n=2: _bgamma("Bγ4", n), _BGAMMA4),
    "Bδ1": FamilySpec(
        lambda: _bdelta_linear("Bδ1", True),
        Schema({"matrix": MATRIX2}, make=_det_one),
        _PUNCTURED,
        distance=_matrix_distance,
        policy=_HOPF,
    ),
    "Bδ2": FamilySpec(
        lambda: _bdelta_linear("Bδ2", False),
        _GL2,
        _PUNCTURED,
        distance=_matrix_distance,
        policy=_HOPF,
    ),
    "Bδ3": FamilySpec(
        lambda n=2: _bdelta_bundle("Bδ3", True, n),
        Schema({"n": DEGREE, "matrix": MATRIX2, "poly": COMPLEXES}, make=_bdelta3_element),
        _BUNDLE,
    ),
    "Bδ4": FamilySpec(lambda n=2: _bdelta_bundle("Bδ4", False, n), _ON, _BUNDLE),
    "C2": FamilySpec(
        lambda: _aff_subgroup("C2"),
        Schema({"t": COMPLEX, "affine": _AFFINE}, make=lambda t, affine: ((1.0 + 0j, t), _invertible_affine(affine))),
        policy="discrete subgroup Delta of C acting on the first factor",
    ),
    "C3": FamilySpec(
        lambda: _product("C3", _AFF_C, _AFF_C),
        Schema({"first": _AFFINE, "second": _AFFINE}, make=lambda a, b: (_invertible_affine(a), _invertible_affine(b))),
    ),
    "C5": FamilySpec(
        lambda: _product("C5", _psl2(), _TRANS_C),
        Schema({"matrix": MATRIX2, "t": COMPLEX}, make=lambda m, t: (check_invertible(m), t)),
        _PROJ_TIMES_LINE,
        distance=_psl_first_distance(_scalar_distance),
        policy="discrete subgroup Delta of C acting on the second factor",
    ),
    "C6": FamilySpec(
        lambda: _product("C6", _psl2(), _AFF_C),
        Schema({"matrix": MATRIX2, "affine": _AFFINE}, make=lambda m, a: (check_invertible(m), _invertible_affine(a))),
        _PROJ_TIMES_LINE,
        distance=_psl_first_distance(_pair_distance),
    ),
    "C7": FamilySpec(
        lambda: _product("C7", _psl2(), _psl2()),
        Schema({"first": INVERTIBLE2, "second": INVERTIBLE2}),
        Schema(
            {"first": PAIR, "second": PAIR},
            make=lambda a, b: (_proj(*a), _proj(*b)),
            parts=lambda x: (x[0].coords, x[1].coords),
        ),
        distance=lambda g, h: max(_proj_distance(g[0], h[0]), _proj_distance(g[1], h[1])),
    ),
    "C8": FamilySpec(lambda: _aff_subgroup("C8"), Schema({"t": COMPLEX, "v": PAIR, "alpha": COMPLEX}, make=_c8_element)),
    "C9": FamilySpec(
        _c9,
        _GL2,
        Schema(
            {"alpha": PAIR, "beta": PAIR},
            make=lambda a, b: _quadric(_proj(*a), _proj(*b)),
            parts=lambda x: (x.alpha.coords, x.beta.coords),
        ),
        distance=_proj_distance,
        policy="the swap (alpha, beta) -> (beta, alpha): X' = P^2 minus a conic",
    ),
    # the translation plane C^2 = C x C
    "D1": FamilySpec(
        lambda: _product("D1", _TRANS_C, _TRANS_C),
        Schema({"v": PAIR}, make=_itself),
        policy="any discrete subgroup pi of C^2",
    ),
    "D2": FamilySpec(_d2, _UAFF, _UAFF, policy="any discrete subgroup pi of uAff(C), table D2_1..D2_14"),
    "D3": FamilySpec(
        lambda: _aff_subgroup("D3"),
        Schema({"m": COMPLEX, "v": PAIR}, make=_d3_element),
    ),
}

BASE_FAMILY_LABELS = tuple(SPECS)


def family_label(label, names=SPECS, what="family"):
    """The name in `names` (the family labels by default) that `label` spells:
    itself, or an alias such as Bb1 or Bbeta1.  ValueError names `what` when none does."""
    label = str(label)
    if label in names:
        return label  # an exact label needs neither the alias table nor the catalogue module
    from .catalogue import ascii_label

    key = ascii_label(label)
    for name in names:
        if ascii_label(name) == key:
            return name
    raise ValueError(f"unknown {what} {label}")


def build_family(label, **params):
    """The `Family` of a label in any spelling (see family_label); params as its factory takes them."""
    return SPECS[family_label(label)].handler(**params)


class QuotientPolicy(Record):
    __slots__ = ("kind", "description")

    def __init__(self, kind, description=""):
        setfield(self, "kind", kind)  # "none" | "policy"
        setfield(self, "description", description)


def quotient_policy(label):
    """Whether the family's action has quotients ("policy", with the data they take) or none."""
    description = SPECS[family_label(label)].policy
    return QuotientPolicy("policy" if description else "none", description)


def __getattr__(name):
    # perfbench looks the D1 classifier up here by name: the hook can go once it names `d1`
    if name == "classify_D1_subgroup":
        from .d1 import classify_D1_subgroup

        return classify_D1_subgroup
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
