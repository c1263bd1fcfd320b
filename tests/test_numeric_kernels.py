"""The numeric layer's scalar kernels against numpy and against the search they replace."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homsurf import d1, lattice, uaff
from homsurf.exppoly import ExpPoly, Polynomial
from homsurf.lattice import lattice_coords, zmodule_basis, zmodule_fit
from homsurf.numeric import COORD_LIMIT, NonDiscreteError

TWO_PI_I = 2j * math.pi


def qr_lstsq(cols, v):
    """x and the fitted vector sum_k x_k cols_k from the Gram-Schmidt QR solve."""
    cols = [list(map(float, c)) for c in cols]
    x = lattice._qr_solve(*lattice._qr(cols), list(map(float, v)))
    return np.array(x), np.array(cols).T @ np.array(x)


def numpy_lstsq(cols, v):
    x, *_ = np.linalg.lstsq(np.array(cols, dtype=float).T, np.asarray(v, dtype=float), rcond=None)
    return x, np.array(cols, dtype=float).T @ x


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_qr_solve_matches_lstsq_on_random_columns(rng, dim):
    for _ in range(200):
        k = int(rng.integers(1, dim + 1))
        cols = rng.normal(size=(k, dim)) * 10.0 ** rng.uniform(-3, 3)
        v = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3)
        x, fit = qr_lstsq(cols, v)
        want_x, want_fit = numpy_lstsq(cols, v)
        cond = np.linalg.cond(cols.T)
        scale = np.abs(want_x).max() + np.linalg.norm(v) / np.linalg.norm(cols, axis=1).min()
        assert np.allclose(x, want_x, rtol=0, atol=1e-13 * cond * scale)
        assert np.allclose(fit, want_fit, rtol=0, atol=1e-13 * cond * (np.linalg.norm(v) + 1e-300))


@pytest.mark.parametrize("dim", [2, 4])
def test_qr_solve_fits_like_lstsq_on_rank_deficient_columns(rng, dim):
    """Dependent columns get coordinate 0; the fitted vector is the least-squares one."""
    for _ in range(100):
        base = rng.normal(size=(2, dim))
        extra = [base[0] * 2.0, base[0] - 3.0 * base[1], np.zeros(dim)][int(rng.integers(3))]
        cols = np.vstack([base, extra])[rng.permutation(3)]
        v = rng.normal(size=dim)
        x, fit = qr_lstsq(cols, v)
        _, want_fit = numpy_lstsq(cols, v)
        assert np.allclose(fit, want_fit, rtol=0, atol=1e-12 * np.linalg.norm(v))
        assert sum(1 for t in x if t == 0.0) >= 1


def test_qr_solve_matches_lstsq_on_near_degenerate_columns(rng):
    for eps in (1e-4, 1e-6, 1e-8, 1e-10):
        for _ in range(50):
            b = rng.normal(size=4)
            cols = np.vstack([b, b + eps * rng.normal(size=4)])
            v = cols.T @ rng.normal(size=2) + 1e-3 * rng.normal(size=4)
            x, fit = qr_lstsq(cols, v)
            want_x, want_fit = numpy_lstsq(cols, v)
            cond = np.linalg.cond(cols.T)
            assert np.allclose(x, want_x, rtol=0, atol=1e-14 * cond * cond * np.abs(want_x).max())
            assert np.allclose(fit, want_fit, rtol=0, atol=1e-14 * cond * np.linalg.norm(v))


def test_lattice_coords_matches_solve(rng):
    for eps in (1.0, 1e-3, 1e-6, 1e-9):
        for _ in range(200):
            w1 = complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-3, 3)
            w2 = w1 * complex(rng.normal(), eps * rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
            value = complex(*rng.normal(size=2)) * abs(w1) * 10.0 ** rng.uniform(-2, 2)
            a = np.array([[w1.real, w2.real], [w1.imag, w2.imag]])
            want = np.linalg.solve(a, np.array([value.real, value.imag]))
            got = lattice_coords(value, w1, w2)
            cond = np.linalg.cond(a)
            assert np.allclose(got, want, rtol=0, atol=1e-14 * cond * (np.abs(want).max() + 1.0))


def test_lattice_coords_rejects_a_dependent_pair():
    with pytest.raises(NonDiscreteError):
        lattice_coords(1.0, 1.0 + 1j, 2.0 + 2j)


# ---------------------------------------------------------------------------
# the D2_14 center, read from the integer relations of (a1, a2, 2 pi i), against the full
# 61 x 61 search of the combinations m a1 + n a2 on the imaginary axis it replaced


def axis_search_oracle(a1, a2):
    best = None
    for m in range(-30, 31):
        for n in range(-30, 31):
            if m == 0 and n == 0:
                continue
            v = m * a1 + n * a2
            if abs(v.real) <= 1e-9 * max(1.0, abs(v)):
                k = v.imag / (2 * math.pi)
                if abs(k - round(k)) <= 1e-8 * max(1.0, abs(k)) and round(k) != 0:
                    if best is None or abs(v) < abs(best):
                        best = TWO_PI_I * round(k)
    return [best] if best is not None else []


def _cn(rng):
    return complex(rng.normal(), rng.normal())


def axis_cases(rng):
    """(a1, a2) pairs, most with a combination m a1 + n a2 in 2 pi i Z."""
    edge = (-30, -29, 29, 30)
    for _ in range(40):
        yield _cn(rng), _cn(rng)  # random lattices, almost never a hit
    for _ in range(120):
        m0 = int(rng.choice(edge)) if rng.uniform() < 0.5 else int(rng.integers(-30, 31))
        n0 = int(rng.choice(edge)) if rng.uniform() < 0.5 else int(rng.integers(-30, 31))
        if n0 == 0:
            n0 = 1
        k = int(rng.integers(1, 4)) * int(rng.choice([-1, 1]))
        a1 = _cn(rng)
        pair = (a1, (TWO_PI_I * k - m0 * a1) / n0)
        yield pair if rng.uniform() < 0.5 else pair[::-1]
    for _ in range(40):
        m0 = int(rng.choice(edge + (1, 2, 3)))
        yield TWO_PI_I * int(rng.integers(1, 4)) / m0, _cn(rng)  # purely imaginary a1
        yield _cn(rng), 1j * rng.normal()  # Re(a2) = 0
        yield _cn(rng), TWO_PI_I * int(rng.integers(1, 4)) / m0  # Re(a2) = 0, on the axis
        yield complex(1e-12 * rng.normal(), rng.normal()), _cn(rng)
        yield _cn(rng), complex(1e-13 * rng.normal(), 2 * math.pi / m0)  # tiny Re(a2)
    for r in (math.sqrt(2), math.sqrt(3), math.pi, (1 + math.sqrt(5)) / 2):
        yield 1 + TWO_PI_I, r + TWO_PI_I * r * r
    yield 1.0 + 0j, TWO_PI_I  # both on an axis


def non_lattice_cases():
    """(a1, a2) pairs on one real line: no D2_14 row has them."""
    for r in (math.sqrt(2), math.sqrt(3), math.pi, (1 + math.sqrt(5)) / 2):
        yield TWO_PI_I, TWO_PI_I * r  # irrational ratio on the axis
        yield complex(1.0, 2.0), complex(r, 2.0 * r)  # real ratio r
    yield TWO_PI_I / 30, TWO_PI_I / 29


def d2_14_center(a1, a2):
    return uaff.center_intersection(uaff.D2Label("D2_14", a1=a1, a2=a2))


def test_axis_search_matches_the_full_search(rng):
    hits = 0
    for a1, a2 in axis_cases(rng):
        want = axis_search_oracle(a1, a2)
        got = d2_14_center(a1, a2)
        assert abs(got.a) == (abs(want[0]) if want else 0.0), (a1, a2)
        assert got.a.real == 0.0 and got.a.imag >= 0.0 and got.b == 0, (a1, a2)
        hits += bool(want)
    assert hits > 150
    for a1, a2 in non_lattice_cases():
        with pytest.raises(NonDiscreteError):
            d2_14_center(a1, a2)


def test_axis_search_keeps_hits_at_the_corner():
    a1 = 1 + 0.5j
    a2 = (TWO_PI_I - 30 * a1) / 30  # +-(30 a1 + 30 a2) = +-2 pi i, nothing shorter
    want = axis_search_oracle(a1, a2)
    assert len(want) == 1 and math.isclose(abs(want[0]), 2 * math.pi)
    assert d2_14_center(a1, a2) == uaff.UAffElement(TWO_PI_I, 0)


# ---------------------------------------------------------------------------
# Z-modules


@st.composite
def integer_lattice_points(draw):
    dim = draw(st.sampled_from([2, 4]))
    rank = draw(st.integers(1, dim))
    entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    basis = np.array([[draw(entries) for _ in range(dim)] for _ in range(rank)])
    coeffs = [draw(st.integers(-20, 20)) for _ in range(rank)]
    return basis, coeffs


@settings(max_examples=200, deadline=None)
@given(integer_lattice_points())
def test_zmodule_coords_recovers_integer_combinations(data):
    basis, coeffs = data
    assume(np.linalg.norm(basis, axis=1).min() > 0.1)
    assume(np.linalg.cond(basis.T) < 1e3)
    v = np.array(coeffs, dtype=float) @ basis
    fit = zmodule_fit(list(basis))
    assert fit(v) == coeffs
    assert zmodule_fit([tuple(b) for b in basis.tolist()])(tuple(v.tolist())) == coeffs
    assert fit(v + 0.5 * basis[0]) is None


def test_zmodule_coords_with_an_empty_basis():
    fit = zmodule_fit([])
    assert fit((0.0, 0.0)) == []
    assert fit((1e-9, 0.0)) == []
    assert fit((1e-7, 0.0)) is None


def test_zmodule_coords_rejects_a_dimension_mismatch():
    with pytest.raises(ValueError):
        zmodule_fit([(1.0, 0.0)])((1.0, 0.0, 5.0))


def test_zmodule_basis_accepts_tuples_and_arrays():
    gens = [(1.0, 0.0), (0.5, 0.5), (0.0, 1.0)]
    from_tuples = zmodule_basis(gens)
    from_arrays = zmodule_basis([np.array(g) for g in gens])
    assert from_tuples[0] == from_arrays[0]
    assert from_tuples[1:] == from_arrays[1:]
    assert len(from_tuples[0]) == 2


@pytest.mark.parametrize(
    "bad",
    [math.nan, math.inf, -math.inf, 2 * COORD_LIMIT, -1e300],
)
def test_zmodule_basis_rejects_non_finite_and_huge_coordinates(bad):
    for gens in ([(bad, 0.0)], [(1.0, 0.0), (0.0, bad)], [np.array([0.0, 1.0, bad, 0.0])]):
        with pytest.raises(NonDiscreteError):
            zmodule_basis(gens)


def test_zmodule_basis_rejects_an_irrational_pair():
    with pytest.raises(NonDiscreteError):
        zmodule_basis([(1.0, 0.0), (math.sqrt(2), 0.0)])


def test_saturate_lattice_closes_under_the_images():
    square = lattice.saturate_lattice([1.0 + 0j], (lambda b: 1j * b, lambda b: -1j * b), 1.0)
    assert len(square) == 2
    fit = zmodule_fit(square)
    for z in (1, 1j, 2 - 3j):
        assert fit(lattice.c2r(z)) is not None
    assert fit(lattice.c2r(0.5 + 0.5j)) is None
    with pytest.raises(NonDiscreteError):
        lattice.saturate_lattice([1.0 + 0j], (lambda b: 2 * b, lambda b: b / 2), 1.0)


# ---------------------------------------------------------------------------
# ExpPoly addition as a merge of canonical forms


def test_exppoly_add_matches_the_sorting_canonicalisation(rng):
    freqs = [0.0, 1.0, -1.0, 1j, 1 + 1j, 1 + 1e-12, TWO_PI_I, complex(-0.0, 0.0)]
    for _ in range(300):
        def draw():
            k = int(rng.integers(0, 5))
            picks = rng.choice(len(freqs), size=k)
            return ExpPoly(
                tuple((freqs[i], Polynomial([complex(*rng.normal(size=2)) for _ in range(int(rng.integers(1, 3)))])) for i in picks)
            )

        f, g = draw(), draw()
        # repr tells 0.0 from -0.0, so ties must keep the left operand's frequency first
        assert repr((f + g).terms) == repr(ExpPoly(f.terms + g.terms).terms)
        assert (f - f).is_zero
        assert repr((-f).terms) == repr(ExpPoly(tuple((lam, -p) for lam, p in f.terms)).terms)


# ---------------------------------------------------------------------------
# numpy as an oracle for the numpy-free rank, inverse and normal


def numpy_rank(rows, tol=1e-8):
    s = np.linalg.svd(np.array(rows, dtype=float), compute_uv=False)
    return int(np.sum(s > tol * max(1.0, s[0]))) if s.size and s[0] else 0


def test_real_rank_matches_the_svd_on_random_matrices(rng):
    for _ in range(400):
        k, m = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        rows = rng.normal(size=(k, m)) * 10.0 ** rng.uniform(-4, 4)
        assert lattice.real_rank(rows.tolist()) == numpy_rank(rows) == min(k, m)
        s = np.linalg.svd(rows, compute_uv=False)
        assert np.allclose(lattice.singular_values(rows.tolist()), s, rtol=0, atol=1e-13 * s[0])


@pytest.mark.parametrize("noise", [1e-12, 1e-9, 1e-7])
def test_real_rank_matches_the_svd_on_noisy_rank_deficient_matrices(rng, noise):
    for _ in range(300):
        k, m = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        r = int(rng.integers(1, min(k, m)))
        scale = 10.0 ** rng.uniform(-2, 2)
        rows = rng.normal(size=(k, r)) @ rng.normal(size=(r, m)) * scale
        rows += rng.normal(size=(k, m)) * noise * np.abs(rows).max()
        want = numpy_rank(rows)
        assert lattice.real_rank(rows.tolist()) == want
        if noise < 1e-8:
            assert want == r


def test_real_rank_of_empty_and_zero_input():
    assert lattice.real_rank([]) == 0
    assert lattice.real_rank([(0.0, 0.0), (0.0, 0.0)]) == 0


def test_transform_from_images_matches_numpy_inverse(rng):
    for _ in range(200):
        src1, src2, img1, img2 = (tuple(complex(*rng.normal(size=2)) for _ in range(2)) for _ in range(4))
        got = np.array(d1._transform_from_images(src1, src2, img1, img2))
        m = np.array([[src1[0], src2[0]], [src1[1], src2[1]]])
        t = np.array([[img1[0], img2[0]], [img1[1], img2[1]]])
        want = t @ np.linalg.inv(m)
        assert np.allclose(got, want, rtol=0, atol=1e-12 * np.linalg.cond(m) * np.abs(want).max())


def test_transform_from_images_rejects_a_singular_source():
    with pytest.raises(NonDiscreteError):
        d1._transform_from_images((1, 2), (2, 4), (1, 0), (0, 1))


def test_g0_annihilator_matches_the_svd_null_vector(rng):
    J = np.array(d1._J4, dtype=float)
    for _ in range(200):
        basis = rng.normal(size=(3, 4)) * 10.0 ** rng.uniform(-3, 3)
        n1, n2 = (np.array(v) for v in d1._g0_annihilator(basis.tolist()))
        null = np.linalg.svd(basis)[2][3]
        assert min(np.abs(n1 - null).max(), np.abs(n1 + null).max()) < 1e-12
        assert np.allclose(n2, J @ n1, rtol=0, atol=1e-15)
        assert np.allclose(basis @ n1, 0, rtol=0, atol=1e-12 * np.abs(basis).max())


def test_zmodule_basis_pivot_ignores_last_bit_ties():
    """Equal-norm generators give the same combinations when one coordinate moves by an ulp."""
    base = [(0.6, 0.8), (-0.8, 0.6)]
    outcomes = set()
    for i in range(2):
        for j in range(2):
            for direction in (-math.inf, math.inf, None):
                gens = [list(v) for v in base]
                if direction is not None:
                    gens[i][j] = math.nextafter(gens[i][j], direction)
                _, combos, relations = zmodule_basis(gens)
                outcomes.add((str(combos), str(relations)))
    assert outcomes == {("[[1, 0], [0, 1]]", "[]")}
    betas = set()
    for direction in (-math.inf, math.inf, None):
        b = 1.0 if direction is None else math.nextafter(1.0, direction)
        label, phi = uaff.classify_subgroup([uaff.UAffElement(0, 1), uaff.UAffElement(0, 1j * b)])
        assert label.name == "D2_2"
        betas.add(complex(round(phi.beta.real, 9), round(phi.beta.imag, 9)))
    assert len(betas) == 1


def test_lattice_reduce_tau_glues_the_edge_re_tau_minus_one_half():
    # Re tau = -1/2 and Re tau = 1/2 bound the fundamental domain; the reduced tau takes the second
    _, _, tau, U = lattice.lattice_reduce_tau(1.0, -0.5 + 1.2j)
    assert abs(tau - (0.5 + 1.2j)) <= 1e-12 and U == [[1, 0], [1, 1]]


# ---------------------------------------------------------------------------
# the rank-one shortcuts of zmodule_basis and zmodule_fit against the general path


@pytest.mark.parametrize("dim", [2, 4])
def test_zmodule_basis_of_one_vector_is_the_general_paths(rng, dim):
    """One live generator returns the basis that the general path gives for two copies of it."""
    for _ in range(500):
        v = rng.normal(size=dim) * 10.0 ** rng.uniform(-5, 100)
        v *= max(1.0, 1e-6 / np.linalg.norm(v))
        v = v.tolist()
        if rng.random() < 0.3:
            v[int(rng.integers(dim))] = -0.0
        assert repr(zmodule_basis([v])[0]) == repr(zmodule_basis([v, v])[0])
    assert repr(zmodule_basis([[-0.0, 1.0]])[0]) == "[[0.0, 1.0]]"  # as sum gives: 0 + (-0.0)


def outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except (NonDiscreteError, ValueError) as e:
        return (type(e).__name__, str(e))


@pytest.mark.parametrize(
    "norm, want",
    [
        (1e-13, ([], [], [[1]])),
        (5e-9, ("NonDiscreteError", "generators lie between the zero chop and the rank threshold")),
        (5e-8, ("NonDiscreteError", "reduced basis vector collapsed into noise")),
        (2e-7, ([[0.6 * 2e-7, 0.8 * 2e-7]], [[1]], [])),
        (1e3, ([[0.6 * 1e3, 0.8 * 1e3]], [[1]], [])),
    ],
)
def test_zmodule_basis_of_one_vector_pins_its_outcomes(norm, want):
    v = [0.6 * norm, 0.8 * norm]
    assert repr(outcome(zmodule_basis, [v])) == repr(want)
    assert repr(outcome(zmodule_basis, [v])[0]) == repr(outcome(zmodule_basis, [v, v])[0])  # the basis or the error


def test_zmodule_basis_of_one_vector_and_a_zero_generator():
    """A zero generator before or after the live one is a relation, as in the general path."""
    zero, v = [-0.0, 0.0], [600.0, 800.0]
    assert zmodule_basis([zero, v]) == ([v], [[0, 1]], [[1, 0]])
    assert zmodule_basis([v, zero]) == ([v], [[1, 0]], [[0, 1]])
    assert zmodule_basis([zero, [6e-14, 8e-14]]) == ([], [], [[1, 0], [0, 1]])


def test_zmodule_basis_of_one_vector_keeps_the_bound_error():
    for bound in (0, -3):
        with pytest.raises(ValueError, match="denominator bound must be at least 1"):
            zmodule_basis([[0.6, 0.8]], max_denominator=bound)
        with pytest.raises(ValueError, match="denominator bound must be at least 1"):
            zmodule_basis([[0.6, 0.8], [1.2, 1.6]], max_denominator=bound)


@pytest.mark.parametrize("dim", [2, 4])
def test_zmodule_fit_of_one_vector_is_the_integer_fit(rng, dim):
    """A rank-one fit gives `_integer_fit`'s answer over the QR of its one column, to the bit."""
    for _ in range(300):
        b = (rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3)).tolist()
        if rng.random() < 0.05:
            b = [0.0] * dim
        cols = [b]
        fit = zmodule_fit(cols)
        k = int(rng.integers(-50, 51))
        for off in (0.0, 1e-9, 1e-6, 2e-6, 0.5):
            v = [k * x + off * y for x, y in zip(b, rng.normal(size=dim).tolist())]
            for bad in (None, math.nan, math.inf):
                if bad is not None:
                    v[int(rng.integers(dim))] = bad
                for scale in (0.0, 10.0 ** rng.uniform(-3, 3)):
                    size = math.sqrt(sum(x * x for x in v))
                    want = lattice._integer_fit(v, cols, lattice._qr(cols), lattice.COMBO_TOL, max(1.0, scale, size))
                    assert repr(fit(v, scale=scale)) == repr(want)
