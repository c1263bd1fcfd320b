"""The verify-path kernels against the code they replaced, bit for bit.

Each `old_*` function below is a replaced implementation, kept verbatim as
the oracle (a constructor call `Polynomial(cs)` is spelled `old_trim(cs)`,
which is what that constructor did).  Results are compared with `==` and by
repr, so a signed zero or a difference in the last bit fails where a
tolerance would pass.  The one exception is the matrix families' group laws,
which moved from numpy arrays to Python rows and so round differently: they
are compared with the numpy handlers they replaced to a relative 1e-14.
"""

import cmath
import math
import operator

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from homsurf import bundles, families, projective, verify
from homsurf.divisor import Divisor, _quasiperiod_group, quasiperiod_group
from homsurf.exppoly import (
    ExpPoly,
    Polynomial,
    _merge_sorted,
    apply_operator,
    basis_of,
    contains,
    monic_polynomial,
    random_member,
)
from homsurf.numeric import COEFF_CHOP, distance, distance_for, lattice_contains
from homsurf.projective import _binomials, _entries, _invertible, OnGroupElement, binary_form_substitute


def same(a, b):
    """Equal, and equal to the last bit: reprs tell signed zeros apart."""
    return a == b and repr(a) == repr(b)


# ---------------------------------------------------------------------------
# the replaced code


def old_trim(coeffs):
    cs = [complex(c) for c in coeffs]
    while cs and abs(cs[-1]) <= COEFF_CHOP:
        cs.pop()
    return tuple(cs)


def old_add(p, q):
    a, b = p.coeffs, q.coeffs
    n = max(len(a), len(b))
    return old_trim([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)])


def old_neg(p):
    return old_trim([-c for c in p.coeffs])


def old_mul(p, q):
    if p.is_zero or q.is_zero:
        return ()
    out = [0j] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return old_trim(out)


def old_scale(p, c):
    return old_trim([c * a for a in p.coeffs])


def old_derivative(p, order=1):
    cs = list(p.coeffs)
    for _ in range(order):
        cs = [k * cs[k] for k in range(1, len(cs))]
    return old_trim(cs)


def old_shifted(p, t):
    t = complex(t)
    n = len(p.coeffs)
    out = [0j] * n
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        for j in range(k + 1):
            out[j] += c * math.comb(k, j) * (-t) ** (k - j)
    return old_trim(out)


def old_exppoly_add(f, g):
    return ExpPoly._canonical(_merge_sorted(f.terms, g.terms))


def old_contains(D, f):
    if D.degree == 0:
        raise ValueError("degenerate divisor")
    return apply_operator(monic_polynomial(D), f).is_zero


def old_random_member(D, rng, scale=1.0):
    f = ExpPoly.zero()
    for b in basis_of(D):
        c = complex(rng.normal(), rng.normal()) * scale
        f = old_exppoly_add(f, b.scale(c))
    return f


def old_pair_power(u, v, k):
    return [c * u ** (k - j) * v**j for j, c in enumerate(_binomials(k))]


def old_pair_product(u, v, s, t, k, n):
    out = [0j] * (n + 1)
    right = old_pair_power(s, t, k)
    for i, x in enumerate(old_pair_power(u, v, n - k)):
        for j, y in enumerate(right):
            out[i + j] += x * y
    return out


def old_binary_form_substitute(coeffs, m):
    m00, m01, m10, m11 = _entries(m)
    n = len(coeffs) - 1
    out = [0j] * (n + 1)
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        for i, t in enumerate(old_pair_product(m00, m01, m10, m11, j, n)):
            out[i] += c * t
    return tuple(out)


def old_on_group_fields(n, matrix, poly):
    n = int(n)
    a, b, c, d = (complex(x) for x in _entries(matrix))
    assert _invertible(a, b, c, d)
    p = tuple(complex(x) for x in poly)
    scale = max(abs(a), abs(b), abs(c), abs(d))
    ref = next(x for x in (d, a, b, c) if abs(x) > 1e-12 * scale)
    k = int(cmath.phase(ref) % (2 * math.pi) // (2 * math.pi / n))
    if k:
        zeta = cmath.exp(-2j * math.pi * k / n)
        a, b, c, d = a * zeta, b * zeta, c * zeta, d * zeta
    return n, ((a, b), (c, d)), p


def old_cnums(rng, k, scale):
    return [complex(rng.standard_normal(), rng.standard_normal()) * scale for _ in range(k)]


def old_laurent_eval(coeffs, u):
    return sum(c * u**k for k, c in coeffs.items())


def old_biholo_apply(phi, z, w):
    data = phi.data
    case = data.case
    znew = phi.sign * z + phi.z0
    u = cmath.exp(2j * math.pi * z)
    fval = old_laurent_eval({int(k): complex(v) for k, v in phi.f}, u)  # the replaced phi.fdict
    if case == "one":
        return (znew, phi.b * w + fval)
    if case == "minus-one":
        return (znew, phi.b * w + phi.lam0 / 2 + cmath.exp(1j * math.pi * z) * fval)
    p, q = data.root_fraction()
    shear = phi.lam0 / (1 - data.c) + cmath.exp(2j * math.pi * p * z / q) * fval
    return (znew, phi.b * w + shear)


def old_biholo_inverse_apply(phi, z, w):
    z1 = phi.sign * (z - phi.z0)
    _, w_of_z1 = old_biholo_apply(phi, z1, 0j)
    return (z1, (w - w_of_z1) / phi.b)


def old_as_map(phi):
    return bundles.PlaneMap(
        lambda z, w: old_biholo_apply(phi, z, w),
        lambda z, w: old_biholo_inverse_apply(phi, z, w),
    )


def old_map_normalizes_deck(fmap, data, rng, samples=50, tol=1e-7):
    pts = list(bundles._sample_points(rng, samples))
    for g in bundles.deck_generators(data):
        ks = []
        lams = []
        for z, w in pts:
            z2, w2 = fmap.backward(z, w)
            z3, w3 = g(z2, w2)
            z4, w4 = fmap.forward(z3, w3)
            ks.append(z4 - z)
            lams.append((z4 - z, w4, w))
        k0 = ks[0]
        kint = round(k0.real)
        if abs(k0 - kint) > tol * max(1.0, abs(k0)):
            return False
        scale = max([abs(w) for _, w, _ in lams] + [1.0])
        lam_vals = []
        for dk, w4, w in lams:
            if abs(dk - k0) > tol * max(1.0, abs(k0), scale):
                return False
            lam_vals.append(w4 - data.c**kint * w)
        lam0 = lam_vals[0]
        if any(abs(v - lam0) > tol * max(1.0, scale) for v in lam_vals):
            return False
        if not lattice_contains(lam0, data.w1, data.w2, tol=1e-6):
            return False
    return True


# ---------------------------------------------------------------------------
# polynomials

# finite coefficients, with zeros of both signs and values at and around COEFF_CHOP
coefficients = st.one_of(
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), -0j, 1e-12 + 0j, -1e-12j, 1.5e-12 + 0j, 7e-13 - 7e-13j]),
)
polynomials = st.lists(coefficients, max_size=7).map(Polynomial)


@given(polynomials, polynomials, coefficients)
def test_polynomial_arithmetic_matches_the_replaced_code(p, q, c):
    assert same((p + q).coeffs, old_add(p, q))
    assert same((-p).coeffs, old_neg(p))
    assert same((p * q).coeffs, old_mul(p, q))
    assert same(p.scale(c).coeffs, old_scale(p, c))
    for order in (1, 2, 3):
        assert same(p.derivative(order).coeffs, old_derivative(p, order))
    assert same(p.shifted(c).coeffs, old_shifted(p, c))


def test_polynomial_constructor_still_converts_and_trims():
    assert same(Polynomial([1, 2.5, 3j, 1e-12, 0.0]).coeffs, old_trim([1, 2.5, 3j, 1e-12, 0.0]))
    assert Polynomial([1e-12, -1e-13j]).is_zero


# ---------------------------------------------------------------------------
# exponential polynomials

D_MULT = Divisor([(0.3 + 0.1j, 3), (-0.4 + 0.6j, 2), (1.1 - 0.2j, 1)])


def test_same_frequency_sum_matches_merge_sorted():
    rng = np.random.default_rng(5)
    for _ in range(40):
        D = verify.random_divisor(rng)
        f, g = random_member(D, rng), random_member(D, rng)
        assert [lam for lam, _ in f.terms] == [lam for lam, _ in g.terms]
        assert same(f + g, old_exppoly_add(f, g))
        assert same(f - f, old_exppoly_add(f, -f)) and (f - f).is_zero
        h = ExpPoly._canonical(f.terms[:1])
        assert same(f + h, old_exppoly_add(f, h))


@pytest.mark.parametrize(
    "lams",
    [
        (0j, 1e-10 + 0j),  # close neighbours: no termwise sum
        (0j, 1j, 1e-10 + 0j),  # close, but not neighbours
        (complex(math.inf, 0.0),),  # a frequency is not close to itself
        (-1.0 + 0j, complex(0.0, 0.0), complex(-0.0, 2.0)),
    ],
)
def test_sum_of_unusual_canonical_forms_matches_merge_sorted(lams):
    p, q = Polynomial((1.0, 2.0 - 1j)), Polynomial((-1.0, 0.5j))
    f = ExpPoly._canonical(tuple((lam, p) for lam in lams))
    g = ExpPoly._canonical(tuple((lam, q) for lam in lams))
    assert same(f + g, old_exppoly_add(f, g))
    assert same(f + f.scale(-1), old_exppoly_add(f, f.scale(-1)))


def test_contains_matches_apply_operator_on_members():
    rng = np.random.default_rng(6)
    for _ in range(60):
        D = verify.random_divisor(rng)
        f = random_member(D, rng)
        assert contains(D, f) and old_contains(D, f)
        f = f + ExpPoly.exponential(0.123 - 0.45j)
        assert contains(D, f) == old_contains(D, f) == False  # noqa: E712


@pytest.mark.parametrize(
    "f",
    [
        # a term at a root whose multiplicity does not exceed its degree
        ExpPoly.exponential(0.3 + 0.1j, Polynomial((1.0, 2.0, -1j, 0.5))),
        ExpPoly.exponential(-0.4 + 0.6j, Polynomial((0.2, 1.0, 3.0))),
        # a term at no root
        ExpPoly.exponential(0.777, Polynomial((1.0,))),
        # top coefficients just above and at COEFF_CHOP
        ExpPoly.exponential(0.3 + 0.1j, Polynomial((1.0, 1.0, 0.5, 1.01e-12))),
        ExpPoly.exponential(0.3 + 0.1j, Polynomial((1.0, 1.0, 0.5, 1e-12))),
        # a frequency close to a root but not equal to it
        ExpPoly.exponential(0.3 + 0.1j + 1e-11, Polynomial((1.0, 2.0))),
        ExpPoly.exponential(0.3 + 0.1j + 1e-11, Polynomial((1.0, 2.0, 3.0, 4.0))),
        ExpPoly.exponential(1.1 - 0.2j, Polynomial((1.0, 2.0)))
        + ExpPoly.exponential(0.3 + 0.1j, Polynomial((1.0,))),
        ExpPoly.zero(),
    ],
)
def test_contains_matches_apply_operator_on_edge_cases(f):
    assert contains(D_MULT, f) == old_contains(D_MULT, f)


class Draws:
    """A stand-in for a Generator whose normal() hands out the given values in
    order, one at a time or as an array."""

    def __init__(self, values):
        self.values = list(values)

    def normal(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = self.values[:size], self.values[size:]
        return np.array(out)


def test_random_member_matches_the_basis_sum():
    for seed in range(30):
        D = verify.random_divisor(np.random.default_rng(seed))
        for scale in (1.0, 0.7, 0.25):
            a, b = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
            assert same(random_member(D, a, scale), old_random_member(D, b, scale))
            assert a.normal() == b.normal()


@pytest.mark.parametrize("tiny", [(1e-13, -1e-13), (1e-12, 0.0), (-7e-13, 7e-13), (0.0, -0.0)])
@pytest.mark.parametrize("index", range(6))
def test_random_member_with_draws_at_the_chop(tiny, index):
    values = [-0.5, 0.3, 0.8, -1.1, -0.2, -0.6, 1.3, 0.4, -0.9, 0.05, 0.7, -0.35]
    values[2 * index : 2 * index + 2] = tiny
    got = random_member(D_MULT, Draws(values))
    assert same(got, old_random_member(D_MULT, Draws(values)))


def test_random_member_of_a_degenerate_divisor_is_an_error():
    for member in (random_member, old_random_member):
        with pytest.raises(ValueError, match="degenerate divisor"):
            member(Divisor([]), np.random.default_rng(0))


def test_random_member_keeps_the_signed_zero_of_the_basis_sum():
    # the first draw is chopped, so the constant coefficient is the second
    # draw times 0j: a signed zero, not the chopped value
    values = [1e-13, 1e-13, -0.5, 0.3] + [0.5] * 8
    f = random_member(D_MULT, Draws(values))
    assert same(f, old_random_member(D_MULT, Draws(values)))
    c0 = f.terms[0][1].coeffs[0]
    assert c0 == 0 and math.copysign(1.0, c0.real) == -1.0


def test_random_member_drops_a_point_whose_draws_are_all_chopped():
    values = [0.5, 0.5] * 2 + [1e-13, 0.0] * 3 + [0.5, -0.5]
    f = random_member(D_MULT, Draws(values))
    assert same(f, old_random_member(D_MULT, Draws(values)))
    assert len(f.terms) == 2


@pytest.mark.parametrize("seed", range(4))
def test_array_normal_draws_equal_scalar_draws(seed):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for size in (1, 2, 7, 64):
        assert a.normal(size=size).tolist() == [b.normal() for _ in range(size)]
        assert a.standard_normal(size).tolist() == [b.standard_normal() for _ in range(size)]


def test_quasiperiod_group_is_computed_once_per_divisor():
    D, _, _ = verify.random_line_divisor(np.random.default_rng(2))
    qg = quasiperiod_group(D)
    assert quasiperiod_group(D) is qg and qg == _quasiperiod_group(D, None)
    assert quasiperiod_group(D, max_denominator=7) == _quasiperiod_group(D, 7)
    E = Divisor(D.points)
    assert E == D and quasiperiod_group(E) == qg and quasiperiod_group(E) is not qg
    assert D.degree == sum(m for _, m in D.points)


# ---------------------------------------------------------------------------
# binary forms and O(n) elements


def _matrices(rng):
    yield ((1.0, 0.0), (0.0, 1.0))
    yield ((2, 1), (0, 1))
    yield np.array([[0.5, -1.0], [0.25j, 2.0]])
    for _ in range(6):
        yield tuple(tuple(complex(x, y) for x, y in row) for row in rng.normal(size=(2, 2, 2)))


@pytest.mark.parametrize("n", range(1, 9))
def test_binary_form_substitute_matches_the_pair_product_form(n):
    rng = np.random.default_rng(n)
    for m in _matrices(rng):
        for zeros in ((), (0,), (n,), tuple(range(0, n + 1, 2))):
            coeffs = [complex(x, y) for x, y in rng.normal(size=(n + 1, 2))]
            for j in zeros:
                coeffs[j] = 0j
            assert same(binary_form_substitute(coeffs, m), old_binary_form_substitute(coeffs, m))


def test_binary_form_substitute_takes_only_the_powers_it_uses():
    # a zero coefficient's expansion is skipped, with its powers: 1e200**2 would overflow
    m = ((1e200, 0.0), (0.0, 1.0))
    for coeffs in ((0j, 0j, 0j), (0j, 0j, 1.0 + 0j)):
        assert same(binary_form_substitute(coeffs, m), old_binary_form_substitute(coeffs, m))
    with pytest.raises(OverflowError):
        old_binary_form_substitute((1.0 + 0j, 0j, 0j), m)
    with pytest.raises(OverflowError):
        binary_form_substitute((1.0 + 0j, 0j, 0j), m)


@given(st.lists(coefficients, min_size=2, max_size=6), st.lists(coefficients, min_size=4, max_size=4))
def test_binary_form_substitute_matches_on_any_entries(coeffs, entries):
    m = (tuple(entries[:2]), tuple(entries[2:]))
    assert same(binary_form_substitute(coeffs, m), old_binary_form_substitute(coeffs, m))


def test_on_group_element_matches_the_replaced_constructor():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 5):
        for m in _matrices(rng):
            poly = [complex(x, y) for x, y in rng.normal(size=(n + 1, 2))]
            e = OnGroupElement(n, m, poly)
            assert same((e.n, e.matrix, e.poly), old_on_group_fields(n, m, poly))
        m = ((0.0, 1e-3j), (2.0, 1e-13))  # the reference entry is (0, 1)
        e = OnGroupElement(n, m, [0] * (n + 1))
        assert same((e.n, e.matrix, e.poly), old_on_group_fields(n, m, [0] * (n + 1)))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 9])
@pytest.mark.parametrize("scale", [0.5, 0.7, 1.1])
def test_cnums_equal_scalar_draws(k, scale):
    a, b = np.random.default_rng([k, 4]), np.random.default_rng([k, 4])
    for _ in range(20):
        assert same(families._cnums(a, k, scale), old_cnums(b, k, scale))
    assert a.standard_normal() == b.standard_normal()


# ---------------------------------------------------------------------------
# the SC biholomorphisms


@pytest.mark.parametrize("c", [1.0 + 0j, -1.0 + 0j, 1j])
def test_sc_row_matches_biholo_apply(c):
    rng = np.random.default_rng(abs(hash(c)) % 1000)
    data = bundles.SCData(1.0 + 0j, 1j, c)
    for _ in range(30):
        phi = verify.random_sc_biholo(rng, data)
        for _ in range(10):
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.15, 0.15))
            w = complex(rng.normal(), rng.normal())
            assert same(bundles.biholo_apply(phi, z, w), old_biholo_apply(phi, z, w))
            assert same(bundles.biholo_inverse_apply(phi, z, w), old_biholo_inverse_apply(phi, z, w))
            fmap = bundles.as_map(phi)
            assert same(fmap(z, w), old_biholo_apply(phi, z, w))
            assert same(fmap.backward(z, w), old_biholo_inverse_apply(phi, z, w))


@pytest.mark.parametrize("c", [1.0 + 0j, -1.0 + 0j, 1j])
def test_map_normalizes_deck_matches_the_replaced_check(c):
    rng = np.random.default_rng(7)
    data = bundles.SCData(1.0 + 0j, 1j, c)
    verdicts = set()
    for _ in range(12):
        phi = verify.random_sc_biholo(rng, data)
        bad = verify.corrupt_sc_map(rng, data)
        for new_map, old_map in ((bundles.as_map(phi), old_as_map(phi)), (bad, bad)):
            seed = int(rng.integers(1 << 30))
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = bundles.map_normalizes_deck(new_map, data, a)
            assert got == old_map_normalizes_deck(old_map, data, b)
            assert a.normal() == b.normal()
            verdicts.add(got)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# the distances of the axioms suite, resolved once per suite


@pytest.mark.parametrize("label", families.BASE_FAMILY_LABELS)
def test_resolved_distances_equal_distance(label):
    handler = families.build_family(label)
    rng = verify.rng_for(3, label)
    element_distance = distance_for(handler.random_element(rng))
    point_distance = distance_for(handler.random_point(rng))
    ident = handler.identity()
    for _ in range(200):
        g, h = handler.random_element(rng), handler.random_element(rng)
        x, y = handler.random_point(rng), handler.random_point(rng)
        gh = handler.multiply(g, h)
        for a, b in ((g, h), (handler.multiply(g, handler.inverse(g)), ident), (handler.multiply(g, ident), g)):
            assert same(element_distance(a, b), distance(a, b))
        for a, b in ((x, y), (handler.act(gh, x), handler.act(g, handler.act(h, x))), (handler.act(g, x), x)):
            assert same(point_distance(a, b), distance(a, b))


def test_resolved_distance_of_each_shape():
    pairs = [
        (1.5, 2),
        (1j, 3 + 0j),
        ((1j, 2.0), (0.5j, 2.5)),
        ((1j, (2.0, 3j)), (1.5j, (2.0, -3j))),
        ((1j, 2.0, 3.0), (1j, 2.5, -3.0)),
        ((), ()),
        (np.array([[1j, 2.0], [0.5, 3.0]]), np.array([[1j, 2.5], [0.5, -3.0]])),
        (projective.ProjPoint(1j), projective.ProjPoint(2.0)),
        ([1j, 2.0], [1.5j, 2.0]),
    ]
    for a, b in pairs:
        assert same(distance_for(a)(a, b), distance(a, b)), (a, b)
    assert distance_for([1j, 2.0]) is distance


# ---------------------------------------------------------------------------
# the matrix families' group laws: Python rows in place of numpy arrays


def old_eye2():
    return np.eye(2, dtype=complex)


def old_inverse2(g):
    return np.array(projective.inverse2(g))


def old_affine_identity():
    return (np.eye(2, dtype=complex), np.zeros(2, dtype=complex))


def old_affine_multiply(g, h):
    return (g[0] @ h[0], g[1] + g[0] @ h[1])


def old_affine_inverse(g):
    mi = old_inverse2(g[0])
    return (mi, -mi @ g[1])


# label -> (identity, multiply, inverse) of the numpy handler it replaced, the matrix parts as arrays
OLD_LAWS = {
    "A1": (lambda: np.eye(3, dtype=complex), operator.matmul, np.linalg.inv),
    "A2": (old_affine_identity, old_affine_multiply, old_affine_inverse),
    "A3": (old_affine_identity, old_affine_multiply, old_affine_inverse),
    "Bδ1": (old_eye2, operator.matmul, old_inverse2),
    "Bδ2": (old_eye2, operator.matmul, old_inverse2),
    "C9": (old_eye2, operator.matmul, old_inverse2),
}


def _flat(x):
    """The complex entries of a nested value: rows, pairs and arrays."""
    if isinstance(x, (tuple, list, np.ndarray)):
        return [z for part in x for z in _flat(part)]
    return [complex(x)]


def _relative(got, want):
    """Largest entry difference over the largest entry (at least 1)."""
    a, b = _flat(got), _flat(want)
    assert len(a) == len(b)
    return max(abs(x - y) for x, y in zip(a, b)) / max(1.0, *map(abs, a), *map(abs, b))


def _as_arrays(label, g):
    return (np.array(g[0]), np.array(g[1])) if label in ("A2", "A3") else np.array(g)


@pytest.mark.parametrize("label", sorted(OLD_LAWS))
def test_matrix_group_laws_match_the_numpy_handlers(label):
    old_identity, old_multiply, old_inverse = OLD_LAWS[label]
    handler = families.build_family(label)
    assert _flat(handler.identity()) == _flat(old_identity())
    rng = np.random.default_rng(11)
    for _ in range(500):
        g, h = handler.random_element(rng), handler.random_element(rng)
        ga, ha = _as_arrays(label, g), _as_arrays(label, h)
        assert _relative(handler.multiply(g, h), old_multiply(ga, ha)) <= 1e-14
        # A1's adjugate inverse against LU: both are within a few ulps of the inverse, not of each other
        assert _relative(handler.inverse(g), old_inverse(ga)) <= (1e-12 if label == "A1" else 1e-14)


@pytest.mark.parametrize("label", ["C5", "C6", "C7"])
def test_psl2_factors_match_the_numpy_handlers(label):
    handler = families.build_family(label)
    rng = np.random.default_rng(12)
    assert _flat(handler.identity()[0]) == _flat(old_eye2())
    for _ in range(500):
        g, h = handler.random_element(rng), handler.random_element(rng)
        for i in (0, 1) if label == "C7" else (0,):
            assert _relative(handler.multiply(g, h)[i], np.array(g[i]) @ np.array(h[i])) <= 1e-14
            assert _relative(handler.inverse(g)[i], old_inverse2(np.array(g[i]))) == 0.0


def test_product3_and_inverse3_on_awkward_matrices():
    m = ((0j, 1.0, 0j), (1.0, 0j, 0j), (0j, 0j, 2j))
    assert _relative(projective.inverse3(m), np.linalg.inv(np.array(m))) == 0.0
    assert _relative(projective.product3(m, projective.inverse3(m)), np.eye(3)) == 0.0
    with pytest.raises(ValueError):
        projective.inverse3(((1.0, 2.0, 3.0), (2.0, 4.0, 6.0), (0.0, 0.0, 1.0)))
