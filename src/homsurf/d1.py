"""The discrete subgroups of the translation plane C^2: the D1 classifier.

`classify_D1_subgroup` reduces the generators to an exact Z-module basis
(`lattice.zmodule_basis`) and returns the table row D1, D1_1 .. D1_6 with a
normalized generating set and the C-linear change of basis that produces it.
"""

from __future__ import annotations

import math
from operator import mul

from .lattice import c2r, c2r2, lattice_reduce_tau, r2c2, zmodule_basis
from .numeric import INDEPENDENT_TOL, SIGMA_WARN_TOL, NonDiscreteError, Record, determinant
from .numeric import inverse2, product2, setfield


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
        inv = inverse2(((src1[0], src2[0]), (src1[1], src2[1])))
    except ValueError:
        raise NonDiscreteError("the normalizing change of basis is singular") from None
    return product2(((img1[0], img2[0]), (img1[1], img2[1])), inv)


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


def classify_D1_subgroup(gens, max_denominator=None):
    """Normal form of a discrete subgroup of the translation plane C^2.

    Returns a D1Classification with the table label (D1, D1_1 .. D1_6), a
    normalized generating set, and the change of basis that produces it.
    Raises NonDiscreteError for generators that do not span a discrete group;
    max_denominator bounds the denominators of commensurable coordinates.
    """
    pairs = [(complex(v[0]), complex(v[1])) for v in gens]
    basis, _, _ = zmodule_basis([c2r2(p) for p in pairs], max_denominator=max_denominator)
    rank = len(basis)
    bc = [r2c2(b) for b in basis]

    if rank == 0:
        return D1Classification("D1", (), ((1, 0), (0, 1)))
    if rank == 1:
        A = _transform_from_images(bc[0], _complement(bc[0]), (1, 0), (0, 1))
        return D1Classification("D1_1", ((1.0 + 0j, 0j),), A)
    if rank == 2:
        if _complex_independent(bc[0], bc[1]):
            A = _transform_from_images(bc[0], bc[1], (1, 0), (0, 1))
            return D1Classification("D1_2", ((1 + 0j, 0j), (0j, 1 + 0j)), A)
        direction, zs = _line_coordinates(bc)
        v1, v2, tau, _ = lattice_reduce_tau(zs[0], zs[1])
        base = (v1 * direction[0], v1 * direction[1])
        A = _transform_from_images(base, _complement(base), (1, 0), (0, 1))
        gens_out = ((1 + 0j, 0j), (tau, 0j))
        return D1Classification("D1_3", gens_out, A, tau=tau)
    if rank == 3:
        return _classify_rank3(bc, max_denominator)
    if rank == 4:
        for i in range(4):
            for j in range(i + 1, 4):
                if _complex_independent(bc[i], bc[j]):
                    rest = [bc[k] for k in range(4) if k not in (i, j)]
                    A = _transform_from_images(bc[i], bc[j], (1, 0), (0, 1))
                    imgs = [_apply(A, v) for v in rest]
                    gens_out = ((1 + 0j, 0j), (0j, 1 + 0j)) + tuple(imgs)
                    return D1Classification("D1_6", gens_out, A)
    raise NonDiscreteError("discrete subgroups of C^2 have rank at most 4")


def _g0_annihilator(basis):
    """Orthonormal pair spanning the annihilator of G_0 = span intersect J span.

    The unit normal n of the span is the generalized cross product of the
    unit-scaled vectors (n_i = (-1)^i times the 3x3 minor without column i),
    normalized; J n is a unit normal of J span, orthogonal to n.
    """
    sizes = [math.sqrt(sum(map(mul, b, b))) for b in basis]
    rows = [[x / size for x in b] for b, size in zip(basis, sizes)]
    n = [(-1) ** i * determinant([[x for k, x in enumerate(r) if k != i] for r in rows]) for i in range(4)]
    size = math.sqrt(sum(map(mul, n, n)))
    if size == 0.0:
        raise NonDiscreteError("degenerate rank-three configuration")
    n = [x / size for x in n]
    return n, [sum(map(mul, row, n)) for row in _J4]


def _classify_rank3(bc, max_denominator):
    basis4 = [c2r2(p) for p in bc]
    n1, n2 = _g0_annihilator(basis4)
    u = [(sum(map(mul, b, n1)), sum(map(mul, b, n2))) for b in basis4]

    try:
        _, u_combos, pi0_relations = zmodule_basis(u, max_denominator=max_denominator)
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
        return D1Classification("D1_4", gens_out, A, tau=tau)

    # pi_0 has rank <= 1: the C^x-bundle row D1_5
    ip = max(range(len(u)), key=lambda i: math.sqrt(sum(map(mul, u[i], u[i]))))
    p = bc[ip]
    phi = lambda v: p[1] * v[0] - p[0] * v[1]
    wvals = [phi(v) for v in bc]
    wbasis, wcombos, wrel = zmodule_basis([c2r(w) for w in wvals], max_denominator=max_denominator)
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
    warnings = ("sigma is numerically close to zero; near the D1_4 boundary",) if abs(sigma) <= SIGMA_WARN_TOL else ()
    gens_out = ((1 + 0j, 0j), (tau_out, sigma), (0j, 1 + 0j))
    return D1Classification("D1_5", gens_out, A, tau=tau_out, sigma=sigma, warnings=warnings)
