"""The numeric layer's scalar kernels against numpy and against the search they replace."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homsurf import numeric, uaff
from homsurf.exppoly import ExpPoly, Polynomial
from homsurf.numeric import COORD_LIMIT, NonDiscreteError, lattice_coords, zmodule_basis, zmodule_coords

TWO_PI_I = 2j * math.pi


def qr_lstsq(cols, v):
    """x and the fitted vector sum_k x_k cols_k from the Gram-Schmidt QR solve."""
    cols = [list(map(float, c)) for c in cols]
    x = numeric._qr_solve(*numeric._qr(cols), list(map(float, v)))
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
# the D2_14 axis search against the full 61 x 61 search it replaces


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
        yield TWO_PI_I, TWO_PI_I * r  # irrational ratio on the axis
        yield 1 + TWO_PI_I, r + TWO_PI_I * r * r
        yield complex(1.0, 2.0), complex(r, 2.0 * r)  # real ratio r: no hit
    yield 1.0 + 0j, TWO_PI_I  # both on an axis
    yield TWO_PI_I / 30, TWO_PI_I / 29


def test_axis_search_matches_the_full_search(rng):
    hits = 0
    for a1, a2 in axis_cases(rng):
        want = axis_search_oracle(a1, a2)
        assert uaff._integer_combos_on_axis(a1, a2) == want, (a1, a2)
        hits += bool(want)
    assert hits > 150


def test_axis_search_keeps_hits_at_the_corner():
    a1 = 1 + 0.5j
    a2 = (TWO_PI_I - 30 * a1) / 30  # +-(30 a1 + 30 a2) = +-2 pi i, nothing shorter
    want = axis_search_oracle(a1, a2)
    assert len(want) == 1 and math.isclose(abs(want[0]), 2 * math.pi)
    assert uaff._integer_combos_on_axis(a1, a2) == want


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
    assert zmodule_coords(v, list(basis)) == coeffs
    assert zmodule_coords(tuple(v.tolist()), [tuple(b) for b in basis.tolist()]) == coeffs
    assert zmodule_coords(v + 0.5 * basis[0], list(basis)) is None


def test_zmodule_coords_with_an_empty_basis():
    assert zmodule_coords((0.0, 0.0), []) == []
    assert zmodule_coords((1e-9, 0.0), []) == []
    assert zmodule_coords((1e-7, 0.0), []) is None


def test_zmodule_coords_rejects_a_dimension_mismatch():
    with pytest.raises(ValueError):
        zmodule_coords((1.0, 0.0, 5.0), [(1.0, 0.0)])


def test_zmodule_basis_accepts_tuples_and_arrays():
    gens = [(1.0, 0.0), (0.5, 0.5), (0.0, 1.0)]
    from_tuples = zmodule_basis(gens)
    from_arrays = zmodule_basis([np.array(g) for g in gens])
    assert [b.tolist() for b in from_tuples[0]] == [b.tolist() for b in from_arrays[0]]
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
    square = numeric.saturate_lattice([1.0 + 0j], (lambda b: 1j * b, lambda b: -1j * b), 1.0)
    assert len(square) == 2
    for z in (1, 1j, 2 - 3j):
        assert numeric.zmodule_contains(numeric.c2r(z), square)
    assert not numeric.zmodule_contains(numeric.c2r(0.5 + 0.5j), square)
    with pytest.raises(NonDiscreteError):
        numeric.saturate_lattice([1.0 + 0j], (lambda b: 2 * b, lambda b: b / 2), 1.0)


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
