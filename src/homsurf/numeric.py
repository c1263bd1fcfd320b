"""Numeric conventions shared by the whole package.

Float comparisons funnel through `close` with the relative epsilon EPS.
Symbolic coefficient cancellation uses the absolute chop COEFF_CHOP.  `distance` is
the one relative distance between values, and every JSON payload is read
by `decode` through its schema, which refuses non-finite numbers, missing
and unknown keys and wrong shapes, naming their path.  The closed-form
2x2 and 3x3 matrix kernels live here, for the matrix families and the D1
classifier; the lattice layer of the classifiers lives in `lattice`.
"""

from __future__ import annotations

import functools
import math
from operator import sub

EPS = 1e-9
COEFF_CHOP = 1e-12
DENOMINATOR_BOUND = 10**6
RECON_TOL = 1e-8
TWO_PI_I = 2j * math.pi

# a convergent p/q must beat this / q in residual to count as rational
_STRICT_COEF = 1e-10
# reduced basis vectors inside (CHOP, BAND) * scale signal a dense subgroup
_NOISE_BAND = 1e-7
# generator coordinates beyond this would overflow the squared norms of zmodule_basis
COORD_LIMIT = 1e150
# an SL(2,C) element may have |det - 1| up to this (relative to max(1, |det|))
SL_DET_TOL = 1e-9
# a generator farther than this * max(1, scale) from the detected real span leaves it
SPAN_TOL = 1e-7
# integer coordinates may miss by this, and the vector they rebuild by this * scale
COMBO_TOL = 1e-6
# a vector is in the span of no generators when its norm is below this * scale
EMPTY_BASIS_TOL = 1e-8
# lattice coordinates may miss an integer by this * max(1, |value| / max(|w1|, |w2|))
LATTICE_TOL = 1e-6
# a column whose residual is below this * the largest column norm adds nothing to a QR solve
QR_DEPENDENT_TOL = 1e-13
# a zmodule_basis pivot is the first residual whose norm is within this (relative) of the largest
PIVOT_TIE = 1e-12
# a Jacobi rotation is skipped once |u.v| <= this * |u| |v|: the pair is orthogonal to working precision
JACOBI_TOL = 2.0**-52
JACOBI_SWEEPS = 40
# a differential operator is monic when its leading coefficient is within this of 1
MONIC_TOL = 1e-9
# an O(n) element's canonical phase comes from its first entry above this * the largest entry
CANONICAL_REF_TOL = 1e-12
# b is a unit of a lattice when b and 1/b map its basis into it to this lattice_contains tolerance
UNIT_TOL = 1e-8
# a sampled deck conjugate must keep its shift and offset constant to this (relative)
DECK_TOL = 1e-7
# a quadratic's leading coefficient counts as zero (a root at infinity) at or below this * its largest
LEADING_ZERO_TOL = 1e-8
# a point of C^2 whose coordinates are at most this in modulus (absolute) is the origin
ORIGIN_TOL = 1e-12
# bbeta: (divisor point - lam) / 2 pi i and lam n / 2 pi i are integers this close (relative)
LINE_INDEX_TOL = 1e-6
# bbeta examples F, I: orbit representatives are equal when z-difference / n is this near an integer
ORBIT_TOL = 1e-7
# real_rank counts the singular values above this * max(1, the largest)
RANK_TOL = 1e-8
SATURATE_ROUNDS = 16  # most closure rounds of saturate_lattice
REDUCE_STEPS = 64  # most reduction steps of lattice_reduce_tau
# lattice_reduce_tau: w2 / w1 is real when |Im| is at most REDUCE_CHOP, and a step swaps while
# |v2 / v1| < 1 - REDUCE_CHOP; tau within REDUCE_EDGE_TOL of the domain's edge takes the glued side
REDUCE_CHOP = 1e-12
REDUCE_EDGE_TOL = 1e-9
# a quasiperiod is an integer multiple of the generator to this (a near_int tolerance)
QUASIPERIOD_TOL = 1e-8
# geometric_sum takes the closed form when |q - 1| is above this, else the sum itself
GEOMETRIC_SUM_TOL = 1e-8
# uaff: the phase a / 2 pi i of a rotation meets a table fraction to this
PHASE_TOL = 1e-8
# uaff classifier: a b-component (of a reduced generator, a commutator or a rank-one or rank-two
# generator) at most this * scale is zero; a generator reduced by the a-basis keeps an a of at most
# KERNEL_A_TOL * scale
B_ZERO_TOL = 1e-9
KERNEL_A_TOL = 1e-7
# uaff: a rank-one generator whose phase s exceeds 1/2 by more than this is inverted
HALF_PHASE_TOL = 1e-9
# uaff: the kernel lattice's tau is i or e^{pi i / 3} when `close` to this
TAU_UNIT_TOL = 1e-6
# uaff, rank two: |1 - e^a| at most this (absolute) takes no b away; the other generator's b left
# after the one that can is at most B_REMOVED_TOL * scale
EXP_ONE_TOL = 1e-9
B_REMOVED_TOL = 1e-6
# uaff.center_intersection: b (D2_4) and a / 2 pi i (D2_6) are real when |Im| is at most this * max(1, |x|)
CENTER_REAL_TOL = 1e-9
# divisor: a ratio of differences of divisor points is real when |Im| is at most this * max(1, |r|)
RATIO_REAL_TOL = 1e-8
# qd: a divisor has the canonical line shape when its quasiperiod generator is 1 to this
LINE_SHAPE_TOL = 1e-6
# bbeta, qd: e^{lam n} = +-1 and lam = 0 to this (`close`); lam is 0, or in 2 pi i Z, to LAM_SHAPE_TOL
LAM_TOL = 1e-8
LAM_SHAPE_TOL = 1e-9
# qd.classify_pi: quasiperiods and translations at most this * scale (a deck pair's: at most
# this) are zero; a translation at most TRANSLATION_CHOP * scale is dropped from the generators
COMMUTANT_TOL = 1e-8
TRANSLATION_CHOP = 1e-12
# bbeta.Cover.jacobian_ok: central differences of this step, and |det| above this * max(1, scale)
JACOBIAN_STEP = 1e-5
JACOBIAN_TOL = 1e-8
# families: two pairs of C^2 are C-independent when |det| is above this * max(1, larger 1-norm)^2
INDEPENDENT_TOL = 1e-8
# d1: a D1_5 sigma of modulus at most this is reported as near the D1_4 boundary
SIGMA_WARN_TOL = 1e-8


class NonDiscreteError(ValueError):
    """The given generators do not span a discrete subgroup."""


# ---------------------------------------------------------------------------
# frozen value types

# sets a field inside a Record's __init__, where plain assignment is refused
setfield = object.__setattr__


class Record:
    """Base of the package's frozen value types, with a frozen dataclass's semantics.

    A subclass names its fields in `__slots__` ("__dict__" added if it caches
    properties) and sets them in an explicit `__init__` through `setfield`.
    `==` compares the tuples of fields of two instances of one class (another
    class gives NotImplemented), the hash is that of the tuple, the repr
    reads `Name(field=value, ...)`, and assigning or deleting an attribute
    raises AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # __eq__ and __hash__ written out per class, as dataclasses writes them: through
        # an attrgetter of the fields, == would cost about 1.6 times as much
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        this = "".join(f"self.{f}, " for f in cls._fields)
        that = "".join(f"other.{f}, " for f in cls._fields)
        namespace = {}
        exec(
            "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return ({this}) == ({that})\n"
            "    return NotImplemented\n"
            f"def __hash__(self):\n    return hash(({this}))\n",
            namespace,
        )
        cls.__eq__ = namespace["__eq__"]
        cls.__hash__ = namespace["__hash__"]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


@functools.lru_cache(maxsize=64)
def binomials(k):
    """The binomial coefficients of degree k as ints: one row per degree, taken once."""
    return tuple(math.comb(k, j) for j in range(k + 1))


def close(x, y, tol=None):
    """Relative comparison: |x-y| <= tol * max(1, |x|, |y|)."""
    t = EPS if tol is None else tol
    return abs(x - y) <= t * max(1.0, abs(x), abs(y))


# ---------------------------------------------------------------------------
# 2x2 and 3x3 matrices in closed form: numpy's per-call cost outweighs the arithmetic


def inverse2(g):
    """Inverse of an invertible 2x2 matrix given as rows, as a tuple of rows."""
    (a, b), (c, d) = g
    det = a * d - b * c
    if det == 0:
        raise ValueError("singular matrix")
    return ((d / det, -b / det), (-c / det, a / det))


def product2(g, h):
    """Product g h of two 2x2 matrices given as rows, as a tuple of rows."""
    (a, b), (c, d) = g
    (e, f), (p, q) = h
    return ((a * e + b * p, a * f + b * q), (c * e + d * p, c * f + d * q))


def product3(g, h):
    """Product g h of two 3x3 matrices given as rows, as a tuple of rows."""
    (a, b, c), (d, e, f), (p, q, r) = g
    (A, B, C), (D, E, F), (P, Q, R) = h
    return (
        (a * A + b * D + c * P, a * B + b * E + c * Q, a * C + b * F + c * R),
        (d * A + e * D + f * P, d * B + e * E + f * Q, d * C + e * F + f * R),
        (p * A + q * D + r * P, p * B + q * E + r * Q, p * C + q * F + r * R),
    )


def inverse3(g):
    """Inverse of an invertible 3x3 matrix given as rows: its adjugate over its determinant."""
    (a, b, c), (d, e, f), (p, q, r) = g
    c00, c01, c02 = e * r - f * q, f * p - d * r, d * q - e * p
    det = a * c00 + b * c01 + c * c02
    if det == 0:
        raise ValueError("singular matrix")
    return (
        (c00 / det, (c * q - b * r) / det, (b * f - c * e) / det),
        (c01 / det, (a * r - c * p) / det, (c * d - a * f) / det),
        (c02 / det, (b * p - a * q) / det, (a * e - b * d) / det),
    )


def determinant(m):
    """Determinant of a 2x2 or 3x3 matrix given as rows."""
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def check_invertible(m, top=None):
    """m, a 2x2 or 3x3 matrix given as rows, once it is invertible: the determinant of its entries divided by
    the largest modulus `top` (at least 1; from m when None) exceeds EPS.  Dividing first, no product leaves
    the float range.  ValueError("matrix must be invertible") otherwise."""
    s = max(1.0, *(abs(x) for row in m for x in row)) if top is None else max(1.0, top)
    det = determinant([[x / s for x in row] for row in m])
    if not abs(det) > EPS:
        raise ValueError("matrix must be invertible")
    return m


# ---------------------------------------------------------------------------
# distance: one per value type, behind one structural dispatch

_SCALAR_TYPES = frozenset((complex, float, int))


def flat_distance(xs, ys):
    """Largest entrywise difference over the largest entry (at least 1)."""
    s = max(1.0, max(map(abs, xs)), max(map(abs, ys)))
    return max(map(abs, map(sub, xs, ys))) / s


def _scalar_distance(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def distance(a, b):
    """Relative distance between structurally matching values.

    Numbers: |a - b| over max(1, |a|, |b|).  Tuples: the largest distance of
    their entries.  Every other value type defines its own `distance(other)`;
    a value with neither shape (an array, a list) raises TypeError.
    """
    ta, tb = type(a), type(b)
    if ta in _SCALAR_TYPES and tb in _SCALAR_TYPES:
        return _scalar_distance(a, b)
    if ta is tuple and tb is tuple:
        return max((distance(x, y) for x, y in zip(a, b)), default=0.0)
    own = getattr(a, "distance", None)
    if own is not None:
        return own(b)
    raise TypeError(f"no distance for {type(a)}")


def _pair_distance(a, b):
    return max(_scalar_distance(a[0], b[0]), _scalar_distance(a[1], b[1]))


def distance_for(a):
    """`distance` for values shaped like a, with its structural dispatch done here, once.

    For every b of a's shape the function returned gives `distance(a, b)` to
    the bit: the same formula for numbers, the largest part distance of a
    tuple (parts compared in order), the value type's own `distance` method.
    A value of any other type raises TypeError, as `distance` does.
    """
    t = type(a)
    if t in _SCALAR_TYPES:
        return _scalar_distance
    if t is tuple:
        parts = tuple(map(distance_for, a))
        if parts == (_scalar_distance, _scalar_distance):
            return _pair_distance
        if len(parts) == 2:
            first, second = parts
            return lambda u, v: max(first(u[0], v[0]), second(u[1], v[1]))
        return lambda u, v: max((f(x, y) for f, x, y in zip(parts, u, v)), default=0.0)
    own = getattr(t, "distance", None)
    if own is not None:
        return own
    raise TypeError(f"no distance for {t}")


# ---------------------------------------------------------------------------
# JSON payloads: every payload is read by `decode`, through its schema

# the kinds of a value: a finite number (REAL), a complex number (COMPLEX: a finite number or {"re": x, "im": y}),
# a list of complex numbers (COMPLEXES, PAIR of exactly two), an n x n matrix (("matrix", n), or ("matrix", n, check)
# when check(rows) refuses the matrices that break an invariant), an integer of at least 1 (DEGREE), a chart 0 or 1
# (CHART), a string (TEXT), a Schema (an object), or a list of one kind (a JSON list of values of that kind)
REAL, COMPLEX, COMPLEXES, PAIR, DEGREE, CHART, TEXT = "real", "complex", "complexes", "pair", "degree", "chart", "text"
MATRIX2, MATRIX3, INVERTIBLE2 = ("matrix", 2), ("matrix", 3), ("matrix", 2, check_invertible)


def _values(*values):
    return values


def _itself(value):
    return value


class Schema:
    """A JSON object: the kind of each of its keys, in order, and the constructor of its value.

    `make` takes the values of the keys in order (a tuple of them by default), those of the
    `optional` keys that are present by name.  The `aside` keys are read and checked but left
    out of `make`: the caller reads them (the "cover" parameters, a classify file's ambient).
    `parts(value)` gives back the values of the keys, in order, for `encode` (the value itself by
    default, the inverse of the default `make`).
    """

    __slots__ = ("fields", "make", "parts", "optional", "aside")

    def __init__(self, fields, make=_values, parts=_itself, optional=(), aside=()):
        self.fields, self.make, self.parts, self.optional, self.aside = fields, make, parts, optional, aside


def lazy(module, name):
    """A function calling `name` of the package module `module`, imported when it is called: a schema's
    constructor, so that a table of schemas loads no family module until a payload of that family is read."""

    def call(*args, **kwargs):
        return getattr(__import__(f"{__package__}.{module}", fromlist=(name,)), name)(*args, **kwargs)

    return call


def _json_list(data, path, n=None):
    if type(data) is not list:
        raise ValueError(f"{path}: expected a list, got {data!r}")
    if n is not None and len(data) != n:
        raise ValueError(f"{path}: expected {n} entries, got {len(data)}")
    return data


_RE_IM = Schema({"re": REAL, "im": REAL}, make=complex)
_FLOAT_MAX = 1.7976931348623157e308


def _made(path, make, *args, **kwargs):
    """make(*args, **kwargs), the constructor of the value at `path`, whose ValueError or OverflowError names it."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:  # the constructor's own check: its type kept, a NonDiscreteError stays one
        raise type(e)(f"{path}: {e}") from None
    except OverflowError as e:
        raise ValueError(f"{path}: overflows the float range ({e})") from None


def decode(schema, data, path):
    """The value that `data`, as `json.load` returns it, encodes under `schema` (a kind).

    A missing or unknown key, a value of the wrong type or shape and a non-finite number raise
    ValueError naming their path: `element: unknown key 'lambda'`, `element.translation: expected
    2 entries, got 3`, `element.v[0]: missing key 're'`; so do a ValueError and an OverflowError of a
    schema's `make`, which checks the invariants of the value it builds.
    """
    if type(schema) is Schema:
        if type(data) is not dict:
            raise ValueError(f"{path}: expected an object, got {data!r}")
        for key in data:
            if key not in schema.fields:
                raise ValueError(f"{path}: unknown key {key!r}")
        args, kwargs = [], {}
        for key, kind in schema.fields.items():
            if key not in data:
                if key in schema.optional:
                    continue
                raise ValueError(f"{path}: missing key {key!r}")
            value = decode(kind, data[key], f"{path}.{key}")
            if key in schema.aside:
                continue
            if key in schema.optional:
                kwargs[key] = value
            else:
                args.append(value)
        return _made(path, schema.make, *args, **kwargs)
    if type(schema) is list:
        return [decode(schema[0], x, f"{path}[{i}]") for i, x in enumerate(_json_list(data, path))]
    if schema == COMPLEX:
        return decode(_RE_IM, data, path) if type(data) is dict else complex(decode(REAL, data, path))
    if schema == REAL:
        if type(data) is float and math.isfinite(data) or type(data) is int and abs(data) <= _FLOAT_MAX:
            return float(data)
        raise ValueError(f"{path}: not a finite number: {data!r}")
    if schema in (COMPLEXES, PAIR):
        values = _json_list(data, path, 2 if schema == PAIR else None)
        return tuple(decode(COMPLEX, x, f"{path}[{i}]") for i, x in enumerate(values))
    if schema == DEGREE:
        if type(data) is not int or data < 1:
            raise ValueError(f"{path}: {path.rpartition('.')[2]} must be an integer of at least 1, got {data!r}")
        return data
    if schema == CHART:
        if type(data) is not int or data not in (0, 1):
            raise ValueError(f"{path}: chart must be 0 or 1, got {data!r}")
        return data
    if schema == TEXT:
        if type(data) is not str:
            raise ValueError(f"{path}: expected a string, got {data!r}")
        return data
    n = schema[1]  # ("matrix", n): the matrix as Python rows, which every handler's `act` takes
    rows = [list(decode(COMPLEXES, row, f"{path}[{i}]")) for i, row in enumerate(_json_list(data, path))]
    if [len(row) for row in rows] != [n] * n:
        raise ValueError(f"{path}: matrix must be {n}x{n}, got rows of lengths {[len(row) for row in rows]}")
    return _made(path, schema[2], rows) if len(schema) > 2 else rows


# the divisor and exponential-polynomial payloads of docs/families.md, which the Bβ elements and the qd
# classify file share
_polynomial = lazy("exppoly", "Polynomial")
DIVISOR = Schema(
    {"points": [Schema({"re": REAL, "im": REAL, "mult": DEGREE}, make=lambda re, im, mult: (complex(re, im), mult))]},
    make=lazy("divisor", "Divisor"),
)
EXPPOLY = Schema(
    {"terms": [Schema({"lambda": COMPLEX, "coeffs": COMPLEXES}, make=lambda lam, cs: (lam, _polynomial(cs)))]},
    make=lazy("exppoly", "ExpPoly"),
)


def encode(schema, value):
    """The JSON object of `value` under `schema`: `decode`'s inverse, for schemas whose keys are
    complex numbers, lists of them or integers (the point schemas)."""
    out = {}
    for (key, kind), part in zip(schema.fields.items(), schema.parts(value)):
        if kind == COMPLEX:
            part = complex_json(part)
        elif kind in (PAIR, COMPLEXES):
            part = [complex_json(z) for z in part]
        out[key] = part
    return out


def complex_json(z):
    """{"re": x, "im": y}; JSON has no NaN or infinity, so a non-finite value is an error."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"the result {z} is not finite")
    return {"re": z.real, "im": z.imag}


def canonical_sign(z):
    """Scale a nonzero complex by +-1 so (Re, Im) is lexicographically positive (to EPS)."""
    z = complex(z)
    if z.real < -EPS * abs(z) or (abs(z.real) <= EPS * abs(z) and z.imag < 0):
        return -z
    return z


def __getattr__(name):
    # perfbench/spans.py looks these up here by name: the hook can go once its spans name `lattice`
    if name in ("zmodule_basis", "rational_reconstruct", "hnf_with_transform", "real_rank", "lattice_reduce_tau"):
        from . import lattice

        return getattr(lattice, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
