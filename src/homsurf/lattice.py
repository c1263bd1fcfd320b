"""The lattice layer of the discrete-subgroup classifiers.

Rational reconstruction is continued-fraction based with a hard denominator
bound.  A convergent p/q is accepted only when the residual is far below
what a generic real achieves at denominator q, so binary floats that encode
small fractions are recognized while generic reals are rejected.

Discrete subgroups (Z-modules) of R^m handed to us as float generators are
reduced exactly: coordinates over a maximal R-independent subset are
rationally reconstructed, scaled to a common integer matrix, and brought to
row Hermite normal form.  Generators whose coordinates fail reconstruction,
or whose reduced basis collapses below the noise band, raise
NonDiscreteError.

The D1, D2 and Bβ1 classifiers and the quasiperiod groups of `divisor`
import it, and the points of the torus factors of the product quotients,
`TorusPoint`, live here; an `act` call loads it only for the Bβ1 and Bβ2
families, through `bbeta`.  Its tolerances are named constants of `numeric`.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import mul, sub

from .numeric import COEFF_CHOP, COMBO_TOL, COORD_LIMIT, DENOMINATOR_BOUND, EMPTY_BASIS_TOL, GEOMETRIC_SUM_TOL
from .numeric import JACOBI_SWEEPS, JACOBI_TOL, LATTICE_TOL, PIVOT_TIE, QR_DEPENDENT_TOL, RANK_TOL, RECON_TOL
from .numeric import REDUCE_CHOP, REDUCE_EDGE_TOL, REDUCE_STEPS, SATURATE_ROUNDS, SPAN_TOL, _NOISE_BAND, _STRICT_COEF
from .numeric import NonDiscreteError, Record, setfield


def _denominator_bound(max_denominator):
    bound = DENOMINATOR_BOUND if max_denominator is None else int(max_denominator)
    if bound < 1:
        raise ValueError(f"the denominator bound must be at least 1, got {max_denominator}")
    return bound


def _convergent(x, bound):
    """The first continued-fraction convergent p / q of the float x with q <= bound (at least 1)
    that passes the rational test, as ints (p, q) in lowest terms with q > 0, or None."""
    if not math.isfinite(x):
        return None
    a = math.floor(x)
    if a == x:  # the first convergent, a / 1, has no residual
        return a, 1
    size = max(1.0, abs(x))
    p0, q0, p1, q1 = 0, 1, 1, 0
    y = x
    for _ in range(64):
        a = math.floor(y)
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > bound:
            return None
        if abs(x - p1 / q1) <= size * min(RECON_TOL, _STRICT_COEF / q1):
            return p1, q1
        rem = y - a
        if rem <= 1e-18:
            return None
        y = 1.0 / rem
    return None


def rational_reconstruct(x, max_denominator=None):
    """Best rational p/q with q bounded, as a Fraction, or None if x looks irrational."""
    pq = _convergent(float(x), _denominator_bound(max_denominator))
    if pq is None:
        return None
    import fractions  # here only: it costs a cold call 1.5 ms; `from` would cost 0.5 us a call

    return fractions.Fraction(*pq)


def c2r(z):
    """Complex scalar as an R^2 vector (a tuple of floats)."""
    z = complex(z)
    return (z.real, z.imag)


def c2r2(pair):
    """Pair of complex scalars as an R^4 vector (a tuple of floats)."""
    a, b = complex(pair[0]), complex(pair[1])
    return (a.real, a.imag, b.real, b.imag)


def r2c2(v):
    return (complex(v[0], v[1]), complex(v[2], v[3]))


def singular_values(rows):
    """Singular values of the matrix with the given rows, largest first.

    One-sided Jacobi (Hestenes): plane rotations make the vectors of the
    shorter side pairwise orthogonal to working precision, and their norms
    are then the singular values, as accurate as LAPACK's (a pivoted QR
    diagonal only approximates them).
    """
    rows = [list(map(float, r)) for r in rows]
    vecs = [list(c) for c in zip(*rows)] if rows and len(rows[0]) < len(rows) else rows
    n = len(vecs)
    sq = [sum(map(mul, v, v)) for v in vecs]  # recomputed when a rotation moves a vector
    for _ in range(JACOBI_SWEEPS):
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                u, v = vecs[i], vecs[j]
                a, b, g = sq[i], sq[j], sum(map(mul, u, v))
                if abs(g) <= JACOBI_TOL * math.sqrt(a) * math.sqrt(b):
                    continue
                rotated = True
                zeta = (b - a) / (2.0 * g)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                vecs[i] = u2 = [c * x - s * y for x, y in zip(u, v)]
                vecs[j] = v2 = [s * x + c * y for x, y in zip(u, v)]
                sq[i], sq[j] = sum(map(mul, u2, u2)), sum(map(mul, v2, v2))
        if not rotated:
            break
    return sorted(map(math.sqrt, sq), reverse=True)


def real_rank(vectors):
    """Dimension of the real span, singular values at or below RANK_TOL * scale ignored."""
    s = singular_values(vectors)
    if not s or s[0] == 0.0:
        return 0
    return len([x for x in s if x > RANK_TOL * max(1.0, s[0])])


def hnf_with_transform(rows):
    """Row Hermite normal form of an integer matrix.

    Returns (H, U, rank) with U unimodular, U @ M = H, and the zero rows of
    H collected at the bottom.  Exact integer arithmetic throughout.
    """
    M = [list(map(int, row)) for row in rows]
    n = len(M)
    m = len(M[0]) if n else 0
    U = _unit_rows(n, range(n))
    r = 0
    for col in range(m):
        if r == n:
            break
        while True:
            live = [i for i in range(r, n) if M[i][col] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(M[i][col]))
            if i0 != r:
                M[r], M[i0] = M[i0], M[r]
                U[r], U[i0] = U[i0], U[r]
            done = True
            for i in range(r + 1, n):
                q = M[i][col] // M[r][col]
                if q:
                    M[i] = [a - q * b for a, b in zip(M[i], M[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
                if M[i][col] != 0:
                    done = False
            if done:
                break
        if r < n and M[r][col] != 0:
            if M[r][col] < 0:
                M[r] = [-a for a in M[r]]
                U[r] = [-a for a in U[r]]
            for i in range(r):
                q = M[i][col] // M[r][col]
                if q:
                    M[i] = [a - q * b for a, b in zip(M[i], M[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
            r += 1
    return M, U, r


# Below, a dot product is sum(map(mul, u, v)) (from the int 0: an unrolled form must start from 0.0 +), in the
# order the replaced helpers took: on 2 to 4 entries a call per dot product or norm costs more than the arithmetic.


def _back_substitute(R, c):
    """x with R x = c for upper-triangular R; a zero diagonal entry gives x_k = 0."""
    n = len(c)
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        row = R[k]
        if row[k]:
            s = c[k]
            for j in range(k + 1, n):
                s -= row[j] * x[j]
            x[k] = s / row[k]
    return x


def _qr(cols):
    """Thin QR of the matrix with columns `cols`, by modified Gram-Schmidt.

    Returns (Q, R): Q the orthonormal directions (None for a column within
    QR_DEPENDENT_TOL of the span of the columns before it) and R the upper
    triangular coefficients, R[j][k] the component of column k along Q[j].
    """
    n = len(cols)
    Q = []
    R = [[0.0] * n for _ in range(n)]
    top = max([math.sqrt(sum(map(mul, c, c))) for c in cols], default=0.0)
    for k, w in enumerate(cols):
        for j, q in enumerate(Q):
            if q is not None:
                d = R[j][k] = sum(map(mul, w, q))
                w = [x - d * y for x, y in zip(w, q)]
        nrm = math.sqrt(sum(map(mul, w, w)))
        if nrm <= QR_DEPENDENT_TOL * top:
            Q.append(None)
        else:
            R[k][k] = nrm
            Q.append([x / nrm for x in w])
    return Q, R


def _qr_solve(Q, R, v):
    """Least-squares x with sum_k x_k cols_k ~ v, from the QR of the columns
    (dependent columns get 0)."""
    c = [0.0] * len(Q)
    w, d, last = v, 0.0, None
    for j, q in enumerate(Q):
        if q is not None:
            if last is not None:  # project off the direction before, only when another follows
                w = [x - d * y for x, y in zip(w, last)]
            c[j] = d = sum(map(mul, w, q))
            last = q
    return _back_substitute(R, c)


def _integer_fit(v, cols, qr, tol, scale):
    """Nearest integer coordinates of v over cols, given qr = _qr(cols), or None
    when they miss by more than tol or rebuild v only to more than tol * scale."""
    y = _qr_solve(*qr, v)
    if not all(map(math.isfinite, y)):
        return None
    ints = list(map(round, y))
    if max(map(abs, map(sub, y, ints))) > tol:
        return None
    w = v
    for k, col in zip(ints, cols):
        if k:
            w = [x - k * y for x, y in zip(w, col)]
    if math.sqrt(sum(map(mul, w, w))) > tol * scale:
        return None
    return ints


def _unit_rows(n, rows):  # the given rows of the n x n identity matrix
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in rows]


def zmodule_basis(vectors, *, max_denominator=None):
    """Exact basis of the Z-module generated by float vectors in R^m.

    Vectors are sequences of numbers.  Returns (basis, combos,
    relations): `basis` is a list of lists of floats, `combos[i]` an integer row over
    the inputs realizing basis[i], and `relations` integer rows spanning the
    combinations that vanish.  Raises NonDiscreteError when the module is not
    discrete (irrational coordinates, denominator blow-up, or collapsed basis
    vectors), and for generators with a non-finite coordinate or one beyond
    COORD_LIMIT.
    """
    vecs = [list(map(float, v)) for v in vectors]
    n = len(vecs)
    if n == 0:
        return [], [], []
    flat = list(map(abs, chain.from_iterable(vecs)))
    top = max(flat, default=0.0)
    total = sum(flat)
    if total != total:  # a NaN coordinate
        top = total
    if not top <= COORD_LIMIT:
        raise NonDiscreteError(f"generator coordinate {top} is not finite or beyond {COORD_LIMIT:.0e}")
    norms = [math.sqrt(sum(map(mul, v, v))) for v in vecs]
    scale = max(norms)
    chop = COEFF_CHOP * max(1.0, scale)
    live = [i for i in range(n) if norms[i] > chop]
    if not live:
        return [], [], _unit_rows(n, range(n))
    if len(live) == 1:
        # one live generator v, the general path's bits: its rank is 1 unless |v| is at most RANK_TOL,
        # its one coordinate d / d = 1.0, its HNF [[1]] and its basis [0 + 1 * x for x in v] (sum starts
        # from the int 0), of norm |v|; its span and fit checks cannot fail (README, "Numerical conventions")
        i = live[0]
        if not norms[i] > RANK_TOL * max(1.0, scale):
            raise NonDiscreteError("generators lie between the zero chop and the rank threshold")
        _denominator_bound(max_denominator)
        if norms[i] < _NOISE_BAND * max(1.0, scale):
            raise NonDiscreteError("reduced basis vector collapsed into noise")
        return [[0 + x for x in vecs[i]]], _unit_rows(n, live), _unit_rows(n, [k for k in range(n) if k != i])
    A = [vecs[i] for i in live]
    r = real_rank(A)
    if r == 0:
        raise NonDiscreteError("generators lie between the zero chop and the rank threshold")

    # QR with column pivoting: each step takes as the next direction the first
    # residual whose norm is within PIVOT_TIE of the largest (so the choice does
    # not follow the last bit of a sum) and projects it off every residual; rn
    # holds the residuals' norms, the generators' own ones at first
    residual = A
    rn = [norms[i] for i in live]
    coef = [[] for _ in A]  # coef[i][k]: component of A[i] along direction k
    pivots = []
    for _ in range(r):
        least = max(rn) * (1.0 - PIVOT_TIE)
        j = 0
        while rn[j] < least:
            j += 1
        q = [x / rn[j] for x in residual[j]]
        pivots.append(j)
        moved = []
        for v, cf in zip(residual, coef):
            d = sum(map(mul, v, q))
            cf.append(d)
            moved.append([x - d * y for x, y in zip(v, q)])
        residual = moved
        rn = [math.sqrt(sum(map(mul, v, v))) for v in residual]
    R = list(zip(*[coef[j] for j in pivots]))  # R[k][i]: component of pivot row i along direction k

    if max(rn) > SPAN_TOL * max(1.0, scale):
        raise NonDiscreteError("generator leaves the detected real span")
    coords = [_back_substitute(R, c) for c in coef]

    # each coordinate as p / q in lowest terms, then all over their common denominator L
    bound = _denominator_bound(max_denominator)
    fracs = []
    for row in coords:
        frow = [_convergent(x, bound) for x in row]
        if None in frow:
            raise NonDiscreteError("irrational generator coordinates")
        fracs.append(frow)
    L = 1
    for frow in fracs:
        for _, q in frow:
            if L % q:
                L = L * q // math.gcd(L, q)
    if L > bound:
        raise NonDiscreteError("coordinate denominators exceed the bound")
    M = [[p * (L // q) for p, q in frow] for frow in fracs]

    H, U, rank = hnf_with_transform(M)
    if rank != r:
        raise NonDiscreteError("rank mismatch after integer reduction")
    P = list(zip(*[A[j] for j in pivots]))  # the columns of the pivot rows
    basis = [[sum(map(mul, H[k], col)) / L for col in P] for k in range(rank)]
    for b in basis:
        if math.sqrt(sum(map(mul, b, b))) < _NOISE_BAND * max(1.0, scale):
            raise NonDiscreteError("reduced basis vector collapsed into noise")

    def widen(row):
        full = [0] * n
        for i, x in zip(live, row):
            full[i] = x
        return full

    combos = [widen(U[k]) for k in range(rank)]
    relations = [widen(U[k]) for k in range(rank, len(U))]
    relations += _unit_rows(n, [i for i in range(n) if not norms[i] > chop])

    qr = _qr(basis)
    for a in A:
        if _integer_fit(a, basis, qr, COMBO_TOL, max(1.0, scale)) is None:
            raise NonDiscreteError("generator is not an integer combination of the basis")
    return basis, combos, relations


def zmodule_fit(basis):
    """fit(v, scale): the integer coordinates of v in the Z-span of basis, or None.
    The QR of the basis is taken once, here; a caller keeps fit for one call's vectors."""
    cols = [list(map(float, b)) for b in basis]
    qr = _qr(cols)
    dims = {len(c) for c in cols}
    if len(cols) == 1:
        (b,), ((q,), ((r,),)) = cols, qr  # q is None and r 0.0 for a zero vector

    def fit(v, scale=0.0):
        v = list(map(float, v))
        size = math.sqrt(sum(map(mul, v, v)))
        if not cols:
            return [] if size <= EMPTY_BASIS_TOL * max(1.0, scale) else None
        if dims != {len(v)}:
            raise ValueError("basis vectors and v differ in dimension")
        if len(cols) > 1:
            return _integer_fit(v, cols, qr, COMBO_TOL, max(1.0, scale, size))
        # rank one: _qr_solve, _back_substitute and _integer_fit on the one coordinate, in their order
        y = sum(map(mul, v, q)) / r if r else 0.0
        if not math.isfinite(y):
            return None
        k = round(y)
        if abs(y - k) > COMBO_TOL:
            return None
        w = [x - k * c for x, c in zip(v, b)] if k else v
        if math.sqrt(sum(map(mul, w, w))) > COMBO_TOL * max(1.0, scale, size):
            return None
        return [k]

    return fit


def saturate_lattice(values, images, scale):
    """Basis of the smallest lattice of C containing `values` and closed under `images`.

    `images` are maps of C (multiplications by units of the lattice to be);
    each round adds the images of the basis vectors that are not yet in its
    Z-span, in the order of the basis, then of `images`.  Raises
    NonDiscreteError when the closure exceeds rank two or does not stabilize
    within SATURATE_ROUNDS.
    """
    basis, _, _ = zmodule_basis([c2r(b) for b in values])
    for _ in range(SATURATE_ROUNDS):
        if len(basis) > 2:
            raise NonDiscreteError("kernel closure exceeds rank two")
        fit = zmodule_fit(basis)
        new = []
        for bv in basis:
            b = complex(bv[0], bv[1])
            for image in images:
                img = image(b)
                if fit(c2r(img), scale=scale) is None:
                    new.append(img)
        if not new:
            return basis
        basis, _, _ = zmodule_basis(basis + [c2r(b) for b in new])
    raise NonDiscreteError("kernel closure does not stabilize")

def lattice_reduce_tau(w1, w2):
    """Oriented reduced basis of the lattice Z w1 + Z w2.

    Returns (v1, v2, tau, U) with (v1, v2) = U @ (w1, w2) for the integer
    2x2 matrix U (nested lists),
    tau = v2/v1 in the standard fundamental domain (|Re| <= 1/2, |tau| >= 1,
    boundary glued to Re >= 0 / Re = +1/2), and Im tau > 0.
    """
    w1, w2 = complex(w1), complex(w2)
    if abs(w1) == 0 or abs((w2 / w1).imag) <= REDUCE_CHOP:
        raise NonDiscreteError("lattice basis is not R-independent")
    p, q, r, s = 1, 0, 0, 1  # U = [[p, q], [r, s]]
    v1, v2 = w1, w2
    if (v2 / v1).imag < 0:
        v2, r, s = -v2, -r, -s
    for _ in range(REDUCE_STEPS):
        t = v2 / v1
        nshift = int(round(t.real))
        if nshift:
            v2 = v2 - nshift * v1
            r, s = r - nshift * p, s - nshift * q
        if abs(v2 / v1) < 1.0 - REDUCE_CHOP:
            v1, v2 = v2, -v1
            (p, q), (r, s) = (r, s), (-p, -q)
        else:
            break
    t = v2 / v1
    if abs(abs(t) - 1.0) <= REDUCE_EDGE_TOL and t.real < -REDUCE_EDGE_TOL:
        v1, v2 = v2, -v1
        (p, q), (r, s) = (r, s), (-p, -q)
        t = v2 / v1
    if abs(t.real + 0.5) <= REDUCE_EDGE_TOL:
        v2 = v2 + v1
        r, s = r + p, s + q
        t = v2 / v1
    return v1, v2, t, [[p, q], [r, s]]


def lattice_coords(value, w1, w2):
    """Real coordinates (x, y) with value = x*w1 + y*w2, by Cramer's rule."""
    value, w1, w2 = complex(value), complex(w1), complex(w2)
    det = w1.real * w2.imag - w2.real * w1.imag
    if det == 0.0:
        raise NonDiscreteError("lattice basis is not R-independent")
    return (
        (value.real * w2.imag - w2.real * value.imag) / det,
        (w1.real * value.imag - value.real * w1.imag) / det,
    )


def lattice_contains(value, w1, w2, tol=LATTICE_TOL):
    x, y = lattice_coords(value, w1, w2)
    scale = max(1.0, abs(value) / max(abs(w1), abs(w2)))
    return bool(abs(x - round(x)) <= tol * scale and abs(y - round(y)) <= tol * scale)


def is_unit(b, w1, w2, tol=LATTICE_TOL):
    """Whether b maps the lattice Z w1 + Z w2 onto itself: b and 1 / b map its basis into it, to `tol`."""
    return b != 0 and all(lattice_contains(x, w1, w2, tol=tol) for x in (b * w1, b * w2, w1 / b, w2 / b))


class TorusPoint(Record):
    """Point of C modulo the lattice spanned by (w1, w2); stored via a representative."""

    __slots__ = ("value", "w1", "w2")

    def __init__(self, value, w1, w2):
        setfield(self, "value", value)
        setfield(self, "w1", w1)
        setfield(self, "w2", w2)

    def distance(self, other):
        """How far the difference of the representatives is from the lattice, relative to them."""
        x, y = lattice_coords(self.value - other.value, self.w1, self.w2)
        dx, dy = x - round(x), y - round(y)
        return abs(dx * self.w1 + dy * self.w2) / max(1.0, abs(self.value), abs(other.value))

    def shifted(self, t):
        return TorusPoint(self.value + t, self.w1, self.w2)


# ---------------------------------------------------------------------------
# the lattice arithmetic of the D2 and Bβ1 classifiers


def near_int(x, tol):
    """The integer nearest Re x when x is within tol * max(1, |x|) of it, else None."""
    k = round(x.real)
    return None if abs(x - k) > tol * max(1.0, abs(x)) else k


def geometric_sum(q, n):
    """1 + q + ... + q^(n-1) for n >= 0: the closed form, or the sum itself when q is near 1."""
    if abs(q - 1.0) > GEOMETRIC_SUM_TOL:
        return (q**n - 1.0) / (q - 1.0)
    return sum(q**j for j in range(n))


def lattice_frame(basis):
    """(nu, tau) for a rank-one or rank-two lattice of C given as zmodule_basis rows (Re, Im):
    nu maps it onto Z (tau None) or onto Z + tau Z, tau reduced by lattice_reduce_tau."""
    vals = [complex(v[0], v[1]) for v in basis]
    if len(vals) == 1:
        return 1.0 / vals[0], None
    v1, _, tau, _ = lattice_reduce_tau(*vals)
    return 1.0 / v1, tau


def lattice_residue(z, tau=None):
    """z less the point of Z (tau None) or of Z + tau Z whose coordinates round those of z."""
    if tau is None:
        return z - round(z.real)
    x, y = lattice_coords(z, 1.0 + 0j, tau)
    return z - round(x) - round(y) * tau
