"""The elementary families of transitive actions and the generic dispatch.

Each family label has one `Family` with a uniform interface: identity,
multiply, inverse, act, and random sampling of elements and surface points.
A factory per label builds it from the group law and action functions of
the family's module (`projective`, `bbeta`, `uaff`) or from closures over
the family's parameters; the product families join the functions of two
factors.  The factories cover the matrix families (projective plane, affine
plane, special affine plane), the product families, the one-parameter
stabilizer family, the translation plane and its discrete subgroup
classifier, the affine group, the quadric, and the divisor- and
bundle-indexed families.

One table, `SPECS`, holds everything else known per label: the factory, the
JSON codecs, the invariant check, the element distance and the quotient
policy.
"""

from __future__ import annotations

import cmath
import math
import operator
from itertools import chain

from . import projective
from .numeric import (
    EPS,
    INDEPENDENT_TOL,
    SL_DET_TOL,
    NonDiscreteError,
    Record,
    as_rows,
    c2r,
    c2r2,
    close,
    complex_json,
    distance,
    flat_distance,
    json_complex,
    lattice_reduce_tau,
    r2c2,
    setfield,
    zmodule_basis,
)
from .projective import BundlePoint, ProjPoint, Proj2Point, QuadricPoint, mobius_act, proj2_act, quadric_act


def _cnum(rng, scale=0.7):
    # the same draws as rng.normal(), at about half the cost per call
    return complex(rng.standard_normal(), rng.standard_normal()) * scale


def _cnums(rng, k, scale=0.7):
    """k consecutive _cnum draws, from one array: the same stream as 2k scalar draws."""
    xs = rng.standard_normal(2 * k).tolist()
    return [complex(x, y) * scale for x, y in zip(xs[::2], xs[1::2])]


def _det(m):
    """Determinant of a 2x2 or 3x3 matrix given as rows."""
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _matrix(rng, n=2, special=False, min_det=0.25, scale=0.7):
    """A random n x n matrix as a tuple of rows, with |det| > min_det; divided by
    a square root of the determinant when special, so that det = 1."""
    while True:
        cs = _cnums(rng, n * n, scale)
        m = tuple(tuple(cs[i : i + n]) for i in range(0, n * n, n))
        det = _det(m)
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
_PSL2 = (
    lambda: _EYE2, projective.product2, projective.inverse2, mobius_act, _matrix, lambda rng: ProjPoint(_cnum(rng, 1.0))
)


def _product(label, f1, f2):
    """The product of two factor groups acting on the product surface."""
    id1, mul1, inv1, act1, rnd1, pt1 = f1
    id2, mul2, inv2, act2, rnd2, pt2 = f2
    return Family(
        label,
        lambda: (id1(), id2()),
        lambda g, h: (mul1(g[0], h[0]), mul2(g[1], h[1])),
        lambda g: (inv1(g[0]), inv2(g[1])),
        lambda g, x: (act1(g[0], x[0]), act2(g[1], x[1])),
        lambda rng: (rnd1(rng), rnd2(rng)),
        lambda rng: (pt1(rng), pt2(rng)),
    )


# ---------------------------------------------------------------------------
# the factories of the other families


def _a1():
    return Family(
        "A1",
        lambda: _EYE3,
        projective.product3,
        projective.inverse3,
        proj2_act,
        lambda rng: _matrix(rng, n=3),
        lambda rng: Proj2Point(_cnums(rng, 3, 1.0)),
    )


def _affine_multiply(g, h):
    (a, b), (c, d) = g[0]
    (s, t), (x, y) = g[1], h[1]
    return (projective.product2(g[0], h[0]), (s + (a * x + b * y), t + (c * x + d * y)))


def _affine_inverse(g):
    mi = projective.inverse2(g[0])
    (a, b), (c, d) = mi
    x, y = g[1]
    return (mi, (-(a * x + b * y), -(c * x + d * y)))


def _affine_act(g, x):
    (a, b), (c, d) = as_rows(g[0])
    t1, t2 = as_rows(g[1])
    return (a * x[0] + b * x[1] + t1, c * x[0] + d * x[1] + t2)


def _matrix_affine(label, special):
    """GL(2,C) (or SL(2,C) when special) semidirect translations of the plane."""

    def random_element(rng):
        return (_matrix(rng, special=special), tuple(_cnums(rng, 2)))

    return Family(label, lambda: (_EYE2, (0j, 0j)), _affine_multiply, _affine_inverse, _affine_act, random_element)


def _c8(alpha=2.0 + 0.5j):
    """Diagonal one-parameter subgroup semidirect translations; alpha != 0, 1."""
    alpha = complex(alpha)
    if close(alpha, 1.0) or close(alpha, 0.0):
        raise ValueError("C8 requires alpha different from 0 and 1")

    def multiply(g, h):
        t0, v0 = g
        t1, v1 = h
        return (t0 + t1, (v0[0] + cmath.exp(t0) * v1[0], v0[1] + cmath.exp(alpha * t0) * v1[1]))

    def inverse(g):
        t, v = g
        return (-t, (-cmath.exp(-t) * v[0], -cmath.exp(-alpha * t) * v[1]))

    def act(g, x):
        t, v = g
        return (cmath.exp(t) * x[0] + v[0], cmath.exp(alpha * t) * x[1] + v[1])

    return Family(
        "C8", lambda: (0j, (0j, 0j)), multiply, inverse, act, lambda rng: (_cnum(rng, 0.5), tuple(_cnums(rng, 2)))
    )


def _d3_inverse(g):
    mi = 1.0 / g[0]
    return (mi, (-mi * g[1][0], -mi * g[1][1]))


def _d3():
    """Rescaling and translation plane: (m, v) with m nonzero."""
    return Family(
        "D3",
        lambda: (1.0 + 0j, (0j, 0j)),
        lambda g, h: (g[0] * h[0], (g[1][0] + g[0] * h[1][0], g[1][1] + g[0] * h[1][1])),
        _d3_inverse,
        lambda g, x: (g[0] * x[0] + g[1][0], g[0] * x[1] + g[1][1]),
        lambda rng: (cmath.exp(_cnum(rng, 0.5)), tuple(_cnums(rng, 2))),
    )


def _d2():
    from . import uaff  # here: loading families does not load uaff

    def random(rng):
        return uaff.UAffElement(*_cnums(rng, 2))

    return Family(
        "D2", lambda: uaff.IDENTITY, uaff.uaff_multiply, uaff.uaff_inverse, uaff.uaff_multiply, random, random
    )


def _example_divisor():
    from .divisor import Divisor

    return Divisor([(0.3 + 0.1j, 2), (-0.4 + 0.6j, 1)])


def _bbeta1(divisor=None):
    from . import bbeta  # here: loading families does not load bbeta

    D = _example_divisor() if divisor is None else divisor
    return Family(
        "Bβ1",
        lambda: bbeta.gd_identity(D),
        bbeta.gd_multiply,
        bbeta.gd_inverse,
        bbeta.gd_act,
        lambda rng: bbeta.random_gd(D, rng),
    )


def _bbeta2(divisor=None):
    from . import bbeta

    D = _example_divisor() if divisor is None else divisor
    return Family(
        "Bβ2",
        lambda: bbeta.rgd_identity(D),
        bbeta.rgd_multiply,
        bbeta.rgd_inverse,
        bbeta.rgd_act,
        lambda rng: bbeta.random_rgd(D, rng),
    )


def _bgamma12(n=2, c=0j):
    """Bγ1 (c != 0) or its subfamily Bγ2 (c = 0)."""
    n, c = int(n), complex(c)

    def random_element(rng):
        *p, lam = _cnums(rng, n + 2, 0.5)
        return projective.BGamma12Element(n, c, lam, _cnum(rng), tuple(p))

    return Family(
        "Bγ1" if c else "Bγ2",
        lambda: projective.bg12_identity(n, c),
        projective.bg12_multiply,
        projective.bg12_inverse,
        projective.bg12_act,
        random_element,
        n=n,
    )


def _bgamma3(n=2):
    n = int(n)

    def random_element(rng):
        *r, lam = _cnums(rng, n + 1, 0.5)
        return projective.BGamma3Element(n, lam, _cnum(rng), tuple(r))

    return Family(
        "Bγ3",
        lambda: projective.bg3_identity(n),
        projective.bg3_multiply,
        projective.bg3_inverse,
        projective.bg3_act,
        random_element,
        n=n,
    )


def _punctured_point(rng):
    while True:
        x = tuple(_cnums(rng, 2))
        if abs(x[0]) + abs(x[1]) > 0.1:
            return x


def _bdelta_linear(label, special):
    """SL(2,C) (special) or GL(2,C) acting linearly on C^2 minus the origin."""
    return Family(
        label,
        lambda: _EYE2,
        projective.product2,
        projective.inverse2,
        projective.bdelta_act,
        lambda rng: _matrix(rng, special=special),
        _punctured_point,
    )


def _quadric_point(rng):
    while True:
        a, b = map(ProjPoint, _cnums(rng, 2, 1.0))
        if a.distance(b) > EPS:
            return QuadricPoint(a, b)


def _c9():
    """The matrices of Bδ2 taken modulo scalars, acting on ordered pairs of distinct points of P^1."""
    return Family("C9", lambda: _EYE2, projective.product2, projective.inverse2, quadric_act, _matrix, _quadric_point)


def _bdelta_bundle(label, special, n=2):
    """The full or special linear group of O(n), acting on bundle points."""
    n = int(n)

    def random_element(rng):
        m = _matrix(rng, special=special)
        return projective.OnGroupElement(n, m, _cnums(rng, n + 1, 0.5))

    def random_point(rng):
        z = _cnum(rng, 1.1)
        return BundlePoint(n, int(rng.integers(2)), z, _cnum(rng))

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


def _bgamma4(n=2):
    """The upper-triangular elements of Bδ4, acting on the affine chart C^2 of O(n)."""
    n = int(n)

    def random_element(rng):
        m = [[cmath.exp(_cnum(rng, 0.5)), _cnum(rng)], [0j, cmath.exp(_cnum(rng, 0.5))]]
        return projective.OnGroupElement(n, m, _cnums(rng, n + 1, 0.5))

    return Family(
        "Bγ4",
        lambda: projective.on_identity(n),
        projective.on_multiply,
        projective.on_inverse,
        projective.bg4_act,
        random_element,
        n=n,
    )


# ---------------------------------------------------------------------------
# JSON codecs: the element and point schemas of docs/families.md


def _values(data, n=None):
    """The complex numbers of a JSON list, which must have n entries when n is given."""
    if n is not None and len(data) != n:
        raise ValueError(f"expected {n} complex numbers, got {len(data)}")
    return tuple(json_complex(x) for x in data)


def _json_matrix(data, n=2):
    """An n x n matrix as Python rows, which every handler's `act` takes as well as an array."""
    m = [[json_complex(x) for x in row] for row in data]
    if [len(row) for row in m] != [n] * n:
        raise ValueError(f"matrix must be {n}x{n}, got rows of lengths {[len(row) for row in m]}")
    return m


def _matrix_element(data):
    return _json_matrix(data["matrix"])


def _affine_map(data):
    return (_json_matrix(data["matrix"]), _values(data["translation"], 2))


def _degree(data):
    n = data["n"]
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an integer of at least 1, got {n!r}")
    return n


def _affine(data):
    return (json_complex(data["alpha"]), json_complex(data["beta"]))


def _proj(data):
    return ProjPoint(*_values(data, 2))


def _cjs(values):
    return [complex_json(z) for z in values]


def _uaff_element(data):
    from .uaff import UAffElement

    return UAffElement(json_complex(data["a"]), json_complex(data["b"]))


def _divisor_element(data, rescaled):
    from . import bbeta
    from .divisor import Divisor
    from .exppoly import ExpPoly

    D, t, f = Divisor.from_json(data["divisor"]), json_complex(data["t"]), ExpPoly.from_json(data["f"])
    return bbeta.RGDElement(D, t, json_complex(data["lambda"]), f) if rescaled else bbeta.GDElement(D, t, f)


def _c8_element(data):
    """(t, v); the payload must also carry the family parameter alpha, which `params` reads."""
    if "alpha" not in data:
        raise ValueError("a C8 element needs its family parameter alpha")
    return (json_complex(data["t"]), _values(data["v"], 2))


def _bg12_element(data, c):
    lam, b = json_complex(data["lam"]), json_complex(data["b"])
    return projective.BGamma12Element(_degree(data), c, lam, b, _values(data["poly"]))


def _on_element(data):
    return projective.OnGroupElement(_degree(data), _json_matrix(data["matrix"]), _values(data["poly"]))


def _bundle_point(data):
    chart = data["chart"]
    if type(chart) is not int or chart not in (0, 1):
        raise ValueError(f"chart must be 0 or 1, got {chart!r}")
    return BundlePoint(_degree(data), chart, json_complex(data["z"]), json_complex(data["w"]))


# (decode, encode) of each point schema
_PLANE = (
    lambda d: (json_complex(d["z"]), json_complex(d["w"])),
    lambda x: {"z": complex_json(x[0]), "w": complex_json(x[1])},
)
_PROJ_TIMES_LINE = (
    lambda d: (_proj(d["zproj"]), json_complex(d["w"])),
    lambda x: {"zproj": _cjs(x[0].coords), "w": complex_json(x[1])},
)
_PUNCTURED = (lambda d: _values(d["x"], 2), lambda x: {"x": _cjs(x)})
_BUNDLE = (_bundle_point, lambda x: {"n": x.n, "chart": x.chart, "z": complex_json(x.z), "w": complex_json(x.w)})


# ---------------------------------------------------------------------------
# invariant checks and element distances


def _no_check(g):
    pass


def _check_invertible(m):
    if abs(_det(m)) <= EPS * max(1.0, *(abs(x) for row in m for x in row)) ** len(m):
        raise ValueError("the matrix must be invertible")


def _check_det_one(m, power=1):
    """det(m) ** power = 1 within SL_DET_TOL; power > 1 allows the scalars an element is taken modulo."""
    det = _det(m) ** power
    if not close(det, 1.0, tol=SL_DET_TOL):
        raise ValueError(f"the matrix must have det 1, got |det - 1| = {abs(det - 1):.3e}")


def _check_nonzero(what, *values):
    if 0 in values:
        raise ValueError(f"{what} must be nonzero")


def _no_params(data):
    return {}


def _proj_distance(g, h):
    """Distance between matrices modulo a scalar."""
    xs = list(map(complex, chain.from_iterable(as_rows(g))))
    ys = list(map(complex, chain.from_iterable(as_rows(h))))
    i, top = 0, abs(xs[0])
    for k in range(1, len(xs)):  # the first entry of largest modulus, the one max() picks
        if abs(xs[k]) > top:
            i, top = k, abs(xs[k])
    if abs(ys[i]) == 0:
        return 1.0
    s = xs[i] / ys[i]
    return flat_distance(xs, [s * y for y in ys])


def _matrix_distance(g, h):
    """`flat_distance` over the entries of two matrices given as rows."""
    return flat_distance([x for row in g for x in row], [y for row in h for y in row])


def _affine_distance(g, h):
    """The larger `flat_distance` of the matrix parts and of the translations."""
    return max(_matrix_distance(g[0], h[0]), flat_distance(g[1], h[1]))


def _psl_first_distance(g, h):
    return max(_proj_distance(g[0], h[0]), distance(g[1], h[1]))


# ---------------------------------------------------------------------------
# the family table


class FamilySpec:
    """One row of the family table: what the package knows of one base label.

    `handler(**params)` builds the family's `Family`.  `element(data)` and
    `point(data)` decode the JSON payloads of docs/families.md, and
    `point_json(x)` encodes a point; the constructor takes the point codecs
    as one (decode, encode) pair, the plane's by default.  `params(data)` are
    the handler parameters an element payload carries (C8's `alpha`; no other
    family's `act` reads one), `check(g)` raises ValueError for an element
    that breaks the family's invariants, and `distance(g, h)` compares two
    elements.  `policy` describes the discrete subgroups the action has
    quotients by, and is empty when it has none.
    """

    __slots__ = ("handler", "element", "point", "point_json", "params", "check", "distance", "policy")

    def __init__(
        self, handler, element, point=_PLANE, *, params=_no_params, check=_no_check, distance=distance, policy=""
    ):
        self.handler = handler
        self.element = element
        self.point, self.point_json = point
        self.params = params
        self.check = check
        self.distance = distance
        self.policy = policy


_HOPF = "Hopf identification z ~ lam z, 0 < |lam| < 1"

# in the order of the verify suites
SPECS = {
    "A1": FamilySpec(
        _a1,
        lambda d: _json_matrix(d["matrix"], 3),
        (lambda d: Proj2Point(_values(d["coords"])), lambda x: {"coords": _cjs(x.coords)}),
        check=_check_invertible,
        distance=_proj_distance,
    ),
    "A2": FamilySpec(
        lambda: _matrix_affine("A2", False),
        _affine_map,
        check=lambda g: _check_invertible(g[0]),
        distance=_affine_distance,
    ),
    "A3": FamilySpec(
        lambda: _matrix_affine("A3", True),
        _affine_map,
        check=lambda g: _check_det_one(g[0]),
        distance=_affine_distance,
    ),
    "Bβ1": FamilySpec(
        _bbeta1,
        lambda d: _divisor_element(d, rescaled=False),
        policy="discrete subgroup pi of Q_D x| C, examples Bβ1A0..I",
    ),
    "Bβ2": FamilySpec(
        _bbeta2,
        lambda d: _divisor_element(d, rescaled=True),
        policy="pi = n Z in the quasiperiod group, normalized divisor",
    ),
    "Bγ1": FamilySpec(
        lambda n=2, c=1.7 + 0.3j: _bgamma12(n, c),
        lambda d: _bg12_element(d, json_complex(d["c"])),
        check=lambda g: _check_nonzero("c", g.c),
    ),
    "Bγ2": FamilySpec(
        lambda n=2: _bgamma12(n),
        lambda d: _bg12_element(d, 0j),
        policy="pi = {0} x Lambda, Lambda a discrete subgroup of C",
    ),
    "Bγ3": FamilySpec(
        _bgamma3,
        lambda d: projective.BGamma3Element(_degree(d), json_complex(d["lam"]), json_complex(d["b"]), _values(d["r"])),
    ),
    "Bγ4": FamilySpec(_bgamma4, _on_element),
    "Bδ1": FamilySpec(
        lambda: _bdelta_linear("Bδ1", True),
        _matrix_element,
        _PUNCTURED,
        check=_check_det_one,
        distance=_matrix_distance,
        policy=_HOPF,
    ),
    "Bδ2": FamilySpec(
        lambda: _bdelta_linear("Bδ2", False),
        _matrix_element,
        _PUNCTURED,
        check=_check_invertible,
        distance=_matrix_distance,
        policy=_HOPF,
    ),
    "Bδ3": FamilySpec(
        lambda n=2: _bdelta_bundle("Bδ3", True, n),
        _on_element,
        _BUNDLE,
        # the matrix is stored modulo n-th roots of unity, which multiply det by their squares
        check=lambda g: _check_det_one(g.matrix, g.n // math.gcd(g.n, 2)),
    ),
    "Bδ4": FamilySpec(lambda n=2: _bdelta_bundle("Bδ4", False, n), _on_element, _BUNDLE),
    "C2": FamilySpec(
        lambda: _product("C2", _TRANS_C, _AFF_C),
        lambda d: (json_complex(d["t"]), _affine(d["affine"])),
        check=lambda g: _check_nonzero("alpha", g[1][0]),
        policy="discrete subgroup Delta of C acting on the first factor",
    ),
    "C3": FamilySpec(
        lambda: _product("C3", _AFF_C, _AFF_C),
        lambda d: (_affine(d["first"]), _affine(d["second"])),
        check=lambda g: _check_nonzero("alpha", g[0][0], g[1][0]),
    ),
    "C5": FamilySpec(
        lambda: _product("C5", _PSL2, _TRANS_C),
        lambda d: (_json_matrix(d["matrix"]), json_complex(d["t"])),
        _PROJ_TIMES_LINE,
        distance=_psl_first_distance,
        policy="discrete subgroup Delta of C acting on the second factor",
    ),
    "C6": FamilySpec(
        lambda: _product("C6", _PSL2, _AFF_C),
        lambda d: (_json_matrix(d["matrix"]), _affine(d["affine"])),
        _PROJ_TIMES_LINE,
        check=lambda g: _check_nonzero("alpha", g[1][0]),
        distance=_psl_first_distance,
    ),
    "C7": FamilySpec(
        lambda: _product("C7", _PSL2, _PSL2),
        lambda d: (_json_matrix(d["first"]), _json_matrix(d["second"])),
        (
            lambda d: (_proj(d["first"]), _proj(d["second"])),
            lambda x: {"first": _cjs(x[0].coords), "second": _cjs(x[1].coords)},
        ),
        distance=lambda g, h: max(_proj_distance(g[0], h[0]), _proj_distance(g[1], h[1])),
    ),
    "C8": FamilySpec(
        _c8,
        _c8_element,
        params=lambda d: {"alpha": json_complex(d["alpha"])},
    ),
    "C9": FamilySpec(
        _c9,
        _matrix_element,
        (
            lambda d: QuadricPoint(_proj(d["alpha"]), _proj(d["beta"])),
            lambda x: {"alpha": _cjs(x.alpha.coords), "beta": _cjs(x.beta.coords)},
        ),
        distance=_proj_distance,
        policy="the swap (alpha, beta) -> (beta, alpha): X' = P^2 minus a conic",
    ),
    # the translation plane C^2 = C x C
    "D1": FamilySpec(
        lambda: _product("D1", _TRANS_C, _TRANS_C),
        lambda d: _values(d["v"], 2),
        policy="any discrete subgroup pi of C^2",
    ),
    "D2": FamilySpec(
        _d2,
        _uaff_element,
        (_uaff_element, lambda x: {"a": complex_json(x.a), "b": complex_json(x.b)}),
        policy="any discrete subgroup pi of uAff(C), table D2_1..D2_14",
    ),
    "D3": FamilySpec(
        _d3, lambda d: (json_complex(d["m"]), _values(d["v"], 2)), check=lambda g: _check_nonzero("m", g[0])
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


# ---------------------------------------------------------------------------
# discrete subgroups of the translation plane


# multiplication by i on C^2 = R^4, in the coordinates of c2r2
_J4 = [[0.0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]


class D1Classification(Record):
    __slots__ = ("label", "generators", "transform", "tau", "sigma", "warnings")

    def __init__(self, label, generators, transform, tau=None, sigma=None, warnings=()):
        setfield(self, "label", label)
        setfield(self, "generators", generators)  # normalized generators, pairs of complex numbers
        setfield(self, "transform", transform)  # 2x2 complex matrix applied to the inputs
        setfield(self, "tau", tau)
        setfield(self, "sigma", sigma)
        setfield(self, "warnings", warnings)


def _transform_from_images(src1, src2, img1, img2):
    """The C-linear map sending src1 -> img1, src2 -> img2, as rows."""
    try:
        inv = projective.inverse2(((src1[0], src2[0]), (src1[1], src2[1])))
    except ValueError:
        raise NonDiscreteError("the normalizing change of basis is singular") from None
    return projective.product2(((img1[0], img2[0]), (img1[1], img2[1])), inv)


def _apply(A, v):
    """The 2x2 complex matrix A (rows) applied to the pair v."""
    (a, b), (c, d) = A
    return (a * v[0] + b * v[1], c * v[0] + d * v[1])


def _complex_independent(u, v):
    det = u[0] * v[1] - u[1] * v[0]
    s = max(abs(u[0]) + abs(u[1]), abs(v[0]) + abs(v[1]), 1.0)
    return abs(det) > INDEPENDENT_TOL * s * s


def _complement(u):
    return (0j, 1.0 + 0j) if _complex_independent(u, (0j, 1.0 + 0j)) else (1.0 + 0j, 0j)


def _line_coordinates(vectors):
    """Collinear complex pairs as scalars along a common unit direction."""
    u = max(vectors, key=lambda v: abs(v[0]) + abs(v[1]))
    j = 0 if abs(u[0]) >= abs(u[1]) else 1
    norm = (abs(u[0]) ** 2 + abs(u[1]) ** 2) ** 0.5
    direction = (u[0] / norm, u[1] / norm)
    return direction, [v[j] / direction[j] for v in vectors]


def _realize(vectors, combo):
    z = 0j
    w = 0j
    for v, c in zip(vectors, combo):
        z += c * v[0]
        w += c * v[1]
    return (z, w)


def classify_D1_subgroup(gens):
    """Normal form of a discrete subgroup of the translation plane C^2.

    Returns a D1Classification with the table label (D1, D1_1 .. D1_6), a
    normalized generating set, and the change of basis that produces it.
    Raises NonDiscreteError for generators that do not span a discrete group.
    """
    pairs = [(complex(v[0]), complex(v[1])) for v in gens]
    basis, _, _ = zmodule_basis([c2r2(p) for p in pairs])
    rank = len(basis)
    bc = [r2c2(b) for b in basis]

    if rank == 0:
        return D1Classification("D1", (), ((1, 0), (0, 1)))
    if rank == 1:
        A = _transform_from_images(bc[0], _complement(bc[0]), (1, 0), (0, 1))
        return D1Classification("D1_1", ((1.0 + 0j, 0j),), _as_tuple(A))
    if rank == 2:
        if _complex_independent(bc[0], bc[1]):
            A = _transform_from_images(bc[0], bc[1], (1, 0), (0, 1))
            return D1Classification("D1_2", ((1 + 0j, 0j), (0j, 1 + 0j)), _as_tuple(A))
        direction, zs = _line_coordinates(bc)
        v1, v2, tau, _ = lattice_reduce_tau(zs[0], zs[1])
        base = (v1 * direction[0], v1 * direction[1])
        A = _transform_from_images(base, _complement(base), (1, 0), (0, 1))
        gens_out = ((1 + 0j, 0j), (tau, 0j))
        return D1Classification("D1_3", gens_out, _as_tuple(A), tau=tau)
    if rank == 3:
        return _classify_rank3(bc)
    if rank == 4:
        for i in range(4):
            for j in range(i + 1, 4):
                if _complex_independent(bc[i], bc[j]):
                    rest = [bc[k] for k in range(4) if k not in (i, j)]
                    A = _transform_from_images(bc[i], bc[j], (1, 0), (0, 1))
                    imgs = [_apply(A, v) for v in rest]
                    gens_out = ((1 + 0j, 0j), (0j, 1 + 0j)) + tuple(imgs)
                    return D1Classification("D1_6", gens_out, _as_tuple(A))
    raise NonDiscreteError("discrete subgroups of C^2 have rank at most 4")


def _as_tuple(m):
    return tuple(tuple(complex(x) for x in row) for row in as_rows(m))


def _g0_annihilator(basis):
    """Orthonormal pair spanning the annihilator of G_0 = span intersect J span.

    The unit normal n of the span is the generalized cross product of the
    unit-scaled vectors (n_i = (-1)^i times the 3x3 minor without column i),
    normalized; J n is a unit normal of J span, orthogonal to n.
    """
    sizes = [math.sqrt(sum(map(operator.mul, b, b))) for b in basis]
    rows = [[x / size for x in b] for b, size in zip(basis, sizes)]
    n = [(-1) ** i * _det([[x for k, x in enumerate(r) if k != i] for r in rows]) for i in range(4)]
    size = math.sqrt(sum(map(operator.mul, n, n)))
    if size == 0.0:
        raise NonDiscreteError("degenerate rank-three configuration")
    n = [x / size for x in n]
    return n, [sum(map(operator.mul, row, n)) for row in _J4]


def _classify_rank3(bc):
    basis4 = [c2r2(p) for p in bc]
    n1, n2 = _g0_annihilator(basis4)
    u = [(sum(map(operator.mul, b, n1)), sum(map(operator.mul, b, n2))) for b in basis4]

    try:
        _, u_combos, pi0_relations = zmodule_basis(u)
    except NonDiscreteError:
        u_combos, pi0_relations = None, None

    if pi0_relations is not None and len(pi0_relations) == 2:
        # pi_0 has rank two: the trivial-bundle row D1_4
        p1 = _realize(bc, pi0_relations[0])
        p2 = _realize(bc, pi0_relations[1])
        x1 = _realize(bc, u_combos[0])
        direction, zs = _line_coordinates([p1, p2])
        v1, v2, tau, _ = lattice_reduce_tau(zs[0], zs[1])
        base = (v1 * direction[0], v1 * direction[1])
        A = _transform_from_images(base, x1, (1, 0), (0, 1))
        gens_out = ((1 + 0j, 0j), (tau, 0j), (0j, 1 + 0j))
        return D1Classification("D1_4", gens_out, _as_tuple(A), tau=tau)

    # pi_0 has rank <= 1: the C^x-bundle row D1_5
    ip = max(range(len(u)), key=lambda i: math.sqrt(sum(map(operator.mul, u[i], u[i]))))
    p = bc[ip]
    phi = lambda v: p[1] * v[0] - p[0] * v[1]
    wvals = [phi(v) for v in bc]
    wbasis, wcombos, wrel = zmodule_basis([c2r(w) for w in wvals])
    if len(wbasis) != 2:
        raise NonDiscreteError("rank-three subgroup without a transverse lattice")
    om = [complex(b[0], b[1]) for b in wbasis]
    v1, v2, tau, U = lattice_reduce_tau(om[0], om[1])
    c1 = [int(U[0][0]) * a + int(U[0][1]) * b for a, b in zip(wcombos[0], wcombos[1])]
    c2 = [int(U[1][0]) * a + int(U[1][1]) * b for a, b in zip(wcombos[0], wcombos[1])]
    x1 = _realize(bc, c1)
    x2 = _realize(bc, c2)
    fiber = _realize(bc, wrel[0]) if wrel else p
    A = _transform_from_images(x1, fiber, (1, 0), (0, 1))
    tau_out, sigma = _apply(A, x2)
    warnings = ("sigma is numerically close to zero; near the D1_4 boundary",) if abs(sigma) <= 1e-8 else ()
    gens_out = ((1 + 0j, 0j), (tau_out, sigma), (0j, 1 + 0j))
    return D1Classification("D1_5", gens_out, _as_tuple(A), tau=tau_out, sigma=sigma, warnings=warnings)
