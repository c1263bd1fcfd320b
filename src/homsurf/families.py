"""The elementary families of transitive actions and the generic dispatch.

Each family label owns a handler with a uniform interface: identity,
multiply, inverse, act, and random sampling of elements and surface points;
distances between them live in `verify`.  The handlers cover the matrix
families (projective plane, affine plane, special affine plane), the
product families, the one-parameter stabilizer family, the translation
plane and its discrete subgroup classifier, the affine group, the quadric,
and the divisor- and bundle-indexed families implemented in their own
modules.

Quotient policies record which actions admit quotients and by what data.
"""

from __future__ import annotations

import cmath

from . import projective
from .numeric import (
    NonDiscreteError,
    Record,
    _dot,
    _norm,
    as_rows,
    c2r,
    c2r2,
    close,
    lattice_reduce_tau,
    load_numpy,
    r2c2,
    setfield,
    zmodule_basis,
)
from .projective import (
    BundlePoint,
    ProjPoint,
    Proj2Point,
    QuadricPoint,
    mobius_act,
    proj2_act,
    proj_equal,
    quadric_act,
)


def _cnum(rng, scale=0.7):
    # the same draws as rng.normal(), at about half the cost per call
    return complex(rng.standard_normal(), rng.standard_normal()) * scale


def _det(m):
    """Determinant of a 2x2 or 3x3 matrix given as rows."""
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _matrix(rng, n=2, special=False, min_det=0.25, scale=0.7):
    """Random n x n rows with |det| > min_det; divided by a square root of the
    determinant when special, so that det = 1."""
    while True:
        m = [[_cnum(rng, scale) for _ in range(n)] for _ in range(n)]
        det = _det(m)
        if abs(det) > min_det:
            break
    if special:
        root = cmath.sqrt(det)
        m = [[x / root for x in row] for row in m]
    return m


def _inverse2(g):
    return load_numpy().array(projective.inverse2(g))


# ---------------------------------------------------------------------------
# factors for the product families


class _TransC:
    def identity(self):
        return 0j

    def multiply(self, a, b):
        return a + b

    def inverse(self, a):
        return -a

    def act(self, a, z):
        return z + a

    def random(self, rng):
        return _cnum(rng)

    def random_point(self, rng):
        return _cnum(rng)


class _AffC:
    """z -> alpha z + beta as pairs (alpha, beta)."""

    def identity(self):
        return (1.0 + 0j, 0j)

    def multiply(self, a, b):
        return (a[0] * b[0], a[1] + a[0] * b[1])

    def inverse(self, a):
        return (1.0 / a[0], -a[1] / a[0])

    def act(self, a, z):
        return a[0] * z + a[1]

    def random(self, rng):
        return (cmath.exp(_cnum(rng)), _cnum(rng))

    def random_point(self, rng):
        return _cnum(rng)


class _PSL2:
    def identity(self):
        return load_numpy().eye(2, dtype=complex)

    def multiply(self, a, b):
        return a @ b

    def inverse(self, a):
        return _inverse2(a)

    def act(self, a, p):
        return mobius_act(a, p)

    def random(self, rng):
        return load_numpy().array(_matrix(rng))

    def random_point(self, rng):
        return ProjPoint(_cnum(rng, 1.0))


class _ProductFamily:
    """Product of two factor groups acting on the product surface."""

    def __init__(self, label, f1, f2):
        self.label = label
        self.f1, self.f2 = f1, f2

    def identity(self):
        return (self.f1.identity(), self.f2.identity())

    def multiply(self, g, h):
        return (self.f1.multiply(g[0], h[0]), self.f2.multiply(g[1], h[1]))

    def inverse(self, g):
        return (self.f1.inverse(g[0]), self.f2.inverse(g[1]))

    def act(self, g, x):
        return (self.f1.act(g[0], x[0]), self.f2.act(g[1], x[1]))

    def random_element(self, rng):
        return (self.f1.random(rng), self.f2.random(rng))

    def random_point(self, rng):
        return (self.f1.random_point(rng), self.f2.random_point(rng))


# ---------------------------------------------------------------------------
# individual families


class _A1:
    label = "A1"

    def identity(self):
        return load_numpy().eye(3, dtype=complex)

    def multiply(self, g, h):
        return g @ h

    def inverse(self, g):
        return load_numpy().linalg.inv(g)

    def act(self, g, x):
        return proj2_act(g, x)

    def random_element(self, rng):
        return load_numpy().array(_matrix(rng, n=3))

    def random_point(self, rng):
        return Proj2Point([_cnum(rng, 1.0) for _ in range(3)])


class _MatrixAffine:
    """GL(2,C) or SL(2,C) semidirect translations of the plane."""

    def __init__(self, label, special):
        self.label = label
        self.special = special

    def identity(self):
        np = load_numpy()
        return (np.eye(2, dtype=complex), np.zeros(2, dtype=complex))

    def multiply(self, g, h):
        return (g[0] @ h[0], g[1] + g[0] @ h[1])

    def inverse(self, g):
        mi = _inverse2(g[0])
        return (mi, -mi @ g[1])

    def act(self, g, x):
        (a, b), (c, d) = as_rows(g[0])
        t1, t2 = as_rows(g[1])
        return (a * x[0] + b * x[1] + t1, c * x[0] + d * x[1] + t2)

    def random_element(self, rng):
        np = load_numpy()
        m = np.array(_matrix(rng, special=self.special))
        return (m, np.array([_cnum(rng), _cnum(rng)]))

    def random_point(self, rng):
        return (_cnum(rng), _cnum(rng))


class _C8:
    """Diagonal one-parameter subgroup semidirect translations; alpha != 0, 1."""

    label = "C8"

    def __init__(self, alpha):
        self.alpha = complex(alpha)
        if close(self.alpha, 1.0) or close(self.alpha, 0.0):
            raise ValueError("C8 requires alpha different from 0 and 1")

    def identity(self):
        return (0j, (0j, 0j))

    def multiply(self, g, h):
        t0, v0 = g
        t1, v1 = h
        return (
            t0 + t1,
            (v0[0] + cmath.exp(t0) * v1[0], v0[1] + cmath.exp(self.alpha * t0) * v1[1]),
        )

    def inverse(self, g):
        t, v = g
        return (-t, (-cmath.exp(-t) * v[0], -cmath.exp(-self.alpha * t) * v[1]))

    def act(self, g, x):
        t, v = g
        return (cmath.exp(t) * x[0] + v[0], cmath.exp(self.alpha * t) * x[1] + v[1])

    def random_element(self, rng):
        return (_cnum(rng, 0.5), (_cnum(rng), _cnum(rng)))

    def random_point(self, rng):
        return (_cnum(rng), _cnum(rng))


class _D3:
    """Rescaling and translation plane: (m, v) with m nonzero."""

    label = "D3"

    def identity(self):
        return (1.0 + 0j, (0j, 0j))

    def multiply(self, g, h):
        return (g[0] * h[0], (g[1][0] + g[0] * h[1][0], g[1][1] + g[0] * h[1][1]))

    def inverse(self, g):
        mi = 1.0 / g[0]
        return (mi, (-mi * g[1][0], -mi * g[1][1]))

    def act(self, g, x):
        return (g[0] * x[0] + g[1][0], g[0] * x[1] + g[1][1])

    def random_element(self, rng):
        return (cmath.exp(_cnum(rng, 0.5)), (_cnum(rng), _cnum(rng)))

    def random_point(self, rng):
        return (_cnum(rng), _cnum(rng))


class _D1:
    label = "D1"

    def identity(self):
        return (0j, 0j)

    def multiply(self, g, h):
        return (g[0] + h[0], g[1] + h[1])

    def inverse(self, g):
        return (-g[0], -g[1])

    def act(self, g, x):
        return (x[0] + g[0], x[1] + g[1])

    def random_element(self, rng):
        return (_cnum(rng), _cnum(rng))

    def random_point(self, rng):
        return (_cnum(rng), _cnum(rng))


class _D2:
    label = "D2"

    def __init__(self):
        # imported with the handler: loading families does not load uaff
        from . import uaff

        self.uaff = uaff

    def identity(self):
        return self.uaff.IDENTITY

    def multiply(self, g, h):
        return self.uaff.uaff_multiply(g, h)

    def inverse(self, g):
        return self.uaff.uaff_inverse(g)

    def act(self, g, x):
        return self.uaff.uaff_multiply(g, x)

    def random_element(self, rng):
        return self.uaff.UAffElement(_cnum(rng), _cnum(rng))

    random_point = random_element


class _C9:
    label = "C9"

    def __init__(self):
        self.psl = _PSL2()

    def identity(self):
        return self.psl.identity()

    def multiply(self, g, h):
        return g @ h

    def inverse(self, g):
        return _inverse2(g)

    def act(self, g, x):
        return quadric_act(g, x)

    def random_element(self, rng):
        return load_numpy().array(_matrix(rng))

    def random_point(self, rng):
        while True:
            a, b = ProjPoint(_cnum(rng, 1.0)), ProjPoint(_cnum(rng, 1.0))
            if not proj_equal(a, b):
                return QuadricPoint(a, b)


class _BBeta1:
    label = "Bβ1"

    def __init__(self, divisor):
        # imported with the handler: loading families does not load bbeta
        from . import bbeta

        self.bbeta = bbeta
        self.divisor = divisor

    def identity(self):
        return self.bbeta.gd_identity(self.divisor)

    def multiply(self, g, h):
        return self.bbeta.gd_multiply(g, h)

    def inverse(self, g):
        return self.bbeta.gd_inverse(g)

    def act(self, g, x):
        return self.bbeta.gd_act(g, x)

    def random_element(self, rng):
        return self.bbeta.random_gd(self.divisor, rng)

    def random_point(self, rng):
        return (_cnum(rng), _cnum(rng))


class _BBeta2(_BBeta1):
    label = "Bβ2"

    def identity(self):
        return self.bbeta.rgd_identity(self.divisor)

    def multiply(self, g, h):
        return self.bbeta.rgd_multiply(g, h)

    def inverse(self, g):
        return self.bbeta.rgd_inverse(g)

    def act(self, g, x):
        return self.bbeta.rgd_act(g, x)

    def random_element(self, rng):
        return self.bbeta.random_rgd(self.divisor, rng)


class _BGamma12:
    def __init__(self, label, n, c):
        self.label = label
        self.n, self.c = int(n), complex(c)
        if label == "Bγ2" and not close(self.c, 0.0):
            raise ValueError("Bγ2 is the subfamily with c = 0")
        if label == "Bγ1" and close(self.c, 0.0):
            raise ValueError("Bγ1 requires c != 0")

    def identity(self):
        return projective.bg12_identity(self.n, self.c)

    def multiply(self, g, h):
        return projective.bg12_multiply(g, h)

    def inverse(self, g):
        return projective.bg12_inverse(g)

    def act(self, g, x):
        return projective.bg12_act(g, x)

    def random_element(self, rng):
        p = tuple(_cnum(rng, 0.5) for _ in range(self.n + 1))
        return projective.BGamma12Element(self.n, self.c, _cnum(rng, 0.5), _cnum(rng), p)

    def random_point(self, rng):
        return (_cnum(rng), _cnum(rng))


class _BGamma3:
    label = "Bγ3"

    def __init__(self, n):
        self.n = int(n)

    def identity(self):
        return projective.bg3_identity(self.n)

    def multiply(self, g, h):
        return projective.bg3_multiply(g, h)

    def inverse(self, g):
        return projective.bg3_inverse(g)

    def act(self, g, x):
        return projective.bg3_act(g, x)

    def random_element(self, rng):
        r = tuple(_cnum(rng, 0.5) for _ in range(self.n))
        return projective.BGamma3Element(self.n, _cnum(rng, 0.5), _cnum(rng), r)

    def random_point(self, rng):
        return (_cnum(rng), _cnum(rng))


class _BGamma4:
    label = "Bγ4"

    def __init__(self, n):
        self.n = int(n)

    def identity(self):
        return projective.on_identity(self.n)

    def multiply(self, g, h):
        return projective.on_multiply(g, h)

    def inverse(self, g):
        return projective.on_inverse(g)

    def act(self, g, x):
        return projective.bgamma_act(4, g, x)

    def random_element(self, rng):
        m = [[cmath.exp(_cnum(rng, 0.5)), _cnum(rng)], [0j, cmath.exp(_cnum(rng, 0.5))]]
        p = tuple(_cnum(rng, 0.5) for _ in range(self.n + 1))
        return projective.OnGroupElement(self.n, m, p)

    def random_point(self, rng):
        return (_cnum(rng), _cnum(rng))


class _BDeltaLinear:
    """SL(2,C) or GL(2,C) acting linearly on C^2 minus the origin."""

    def __init__(self, label, special):
        self.label = label
        self.special = special

    def identity(self):
        return load_numpy().eye(2, dtype=complex)

    def multiply(self, g, h):
        return g @ h

    def inverse(self, g):
        return _inverse2(g)

    def act(self, g, x):
        return projective.bdelta_act(g, x)

    def random_element(self, rng):
        return load_numpy().array(_matrix(rng, special=self.special))

    def random_point(self, rng):
        while True:
            x = (_cnum(rng), _cnum(rng))
            if abs(x[0]) + abs(x[1]) > 0.1:
                return x


class _BDeltaBundle:
    """The full or special linear group of O(n), acting on bundle points."""

    def __init__(self, label, n, special):
        self.label = label
        self.n = int(n)
        self.special = special

    def identity(self):
        return projective.on_identity(self.n)

    def multiply(self, g, h):
        return projective.on_multiply(g, h)

    def inverse(self, g):
        return projective.on_inverse(g)

    def act(self, g, x):
        return projective.on_act(g, x)

    def random_element(self, rng):
        m = _matrix(rng, special=self.special)
        p = tuple(_cnum(rng, 0.5) for _ in range(self.n + 1))
        return projective.OnGroupElement(self.n, m, p)

    def random_point(self, rng):
        z = _cnum(rng, 1.1)
        return BundlePoint(self.n, int(rng.integers(2)), z, _cnum(rng))


# ---------------------------------------------------------------------------
# registry


def _default_divisor():
    from .divisor import Divisor

    return Divisor([(0.3 + 0.1j, 2), (-0.4 + 0.6j, 1)])


def family_label(label):
    """The family label `label` spells: itself, or an alias such as Bb1 or Bbeta1."""
    label = str(label)
    if label in BASE_FAMILY_LABELS:
        return label  # an exact label needs neither the alias table nor the catalogue module
    from .catalogue import ascii_label

    by_ascii = {ascii_label(lab): lab for lab in BASE_FAMILY_LABELS}
    key = ascii_label(label)
    if key not in by_ascii:
        raise ValueError(f"unknown family {label}")
    return by_ascii[key]


def build_family(label, **params):
    """Handler for a family label in any spelling (see family_label); params as needed by the family."""
    label = family_label(label)
    if label == "A1":
        return _A1()
    if label == "A2":
        return _MatrixAffine("A2", special=False)
    if label == "A3":
        return _MatrixAffine("A3", special=True)
    if label == "C2":
        return _ProductFamily("C2", _TransC(), _AffC())
    if label == "C3":
        return _ProductFamily("C3", _AffC(), _AffC())
    if label == "C5":
        return _ProductFamily("C5", _PSL2(), _TransC())
    if label == "C6":
        return _ProductFamily("C6", _PSL2(), _AffC())
    if label == "C7":
        return _ProductFamily("C7", _PSL2(), _PSL2())
    if label == "C8":
        return _C8(params.get("alpha", 2.0 + 0.5j))
    if label == "C9":
        return _C9()
    if label == "D1":
        return _D1()
    if label == "D2":
        return _D2()
    if label == "D3":
        return _D3()
    if label == "Bβ1":
        return _BBeta1(params.get("divisor", _default_divisor()))
    if label == "Bβ2":
        return _BBeta2(params.get("divisor", _default_divisor()))
    if label == "Bγ1":
        return _BGamma12("Bγ1", params.get("n", 2), params.get("c", 1.7 + 0.3j))
    if label == "Bγ2":
        return _BGamma12("Bγ2", params.get("n", 2), 0.0)
    if label == "Bγ3":
        return _BGamma3(params.get("n", 2))
    if label == "Bγ4":
        return _BGamma4(params.get("n", 2))
    if label == "Bδ1":
        return _BDeltaLinear("Bδ1", special=True)
    if label == "Bδ2":
        return _BDeltaLinear("Bδ2", special=False)
    if label == "Bδ3":
        return _BDeltaBundle("Bδ3", params.get("n", 2), special=True)
    if label == "Bδ4":
        return _BDeltaBundle("Bδ4", params.get("n", 2), special=False)
    raise ValueError(f"unknown family {label}")


BASE_FAMILY_LABELS = (
    "A1",
    "A2",
    "A3",
    "Bβ1",
    "Bβ2",
    "Bγ1",
    "Bγ2",
    "Bγ3",
    "Bγ4",
    "Bδ1",
    "Bδ2",
    "Bδ3",
    "Bδ4",
    "C2",
    "C3",
    "C5",
    "C6",
    "C7",
    "C8",
    "C9",
    "D1",
    "D2",
    "D3",
)


# ---------------------------------------------------------------------------
# quotient policies


class QuotientPolicy(Record):
    __slots__ = ("kind", "description")

    def __init__(self, kind, description=""):
        setfield(self, "kind", kind)  # "none" | "policy"
        setfield(self, "description", description)


_POLICIES = {
    "A1": QuotientPolicy("none"),
    "A2": QuotientPolicy("none"),
    "A3": QuotientPolicy("none"),
    "C3": QuotientPolicy("none"),
    "C6": QuotientPolicy("none"),
    "C7": QuotientPolicy("none"),
    "C8": QuotientPolicy("none"),
    "D3": QuotientPolicy("none"),
    "Bγ1": QuotientPolicy("none"),
    "Bγ3": QuotientPolicy("none"),
    "Bγ4": QuotientPolicy("none"),
    "Bδ3": QuotientPolicy("none"),
    "Bδ4": QuotientPolicy("none"),
    "C2": QuotientPolicy("policy", "discrete subgroup Delta of C acting on the first factor"),
    "C5": QuotientPolicy("policy", "discrete subgroup Delta of C acting on the second factor"),
    "Bγ2": QuotientPolicy("policy", "pi = {0} x Lambda, Lambda a discrete subgroup of C"),
    "D1": QuotientPolicy("policy", "any discrete subgroup pi of C^2"),
    "D2": QuotientPolicy("policy", "any discrete subgroup pi of uAff(C), table D2_1..D2_14"),
    "Bβ1": QuotientPolicy("policy", "discrete subgroup pi of Q_D x| C, examples Bβ1A0..I"),
    "Bβ2": QuotientPolicy("policy", "pi = n Z in the quasiperiod group, normalized divisor"),
    "C9": QuotientPolicy("policy", "the swap (alpha, beta) -> (beta, alpha): X' = P^2 minus a conic"),
    "Bδ1": QuotientPolicy("policy", "Hopf identification z ~ lam z, 0 < |lam| < 1"),
    "Bδ2": QuotientPolicy("policy", "Hopf identification z ~ lam z, 0 < |lam| < 1"),
}


def quotient_policy(label):
    key = str(label)
    if key not in _POLICIES:
        raise ValueError(f"unknown family {key}")
    return _POLICIES[key]


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


def _complex_independent(u, v, tol=1e-8):
    det = u[0] * v[1] - u[1] * v[0]
    s = max(abs(u[0]) + abs(u[1]), abs(v[0]) + abs(v[1]), 1.0)
    return abs(det) > tol * s * s


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
    rows = [[x / size for x in b] for b, size in zip(basis, map(_norm, basis))]
    n = [(-1) ** i * _det([[x for k, x in enumerate(r) if k != i] for r in rows]) for i in range(4)]
    size = _norm(n)
    if size == 0.0:
        raise NonDiscreteError("degenerate rank-three configuration")
    n = [x / size for x in n]
    return n, [_dot(row, n) for row in _J4]


def _classify_rank3(bc):
    basis4 = [c2r2(p) for p in bc]
    n1, n2 = _g0_annihilator(basis4)
    u = [(_dot(b, n1), _dot(b, n2)) for b in basis4]

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
    ip = max(range(len(u)), key=lambda i: _norm(u[i]))
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
    if wrel:
        fiber = _realize(bc, wrel[0])
    else:
        fiber = p
    A = _transform_from_images(x1, fiber, (1, 0), (0, 1))
    tau_out, sigma = _apply(A, x2)
    warnings = ()
    if abs(sigma) <= 1e-8:
        warnings = ("sigma is numerically close to zero; near the D1_4 boundary",)
    gens_out = ((1 + 0j, 0j), (tau_out, sigma), (0j, 1 + 0j))
    return D1Classification("D1_5", gens_out, _as_tuple(A), tau=tau_out, sigma=sigma, warnings=warnings)
