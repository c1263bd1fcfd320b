import numpy as np
import pytest

from homsurf import verify
from homsurf.bundles import (
    SCBiholomorphism,
    SCData,
    as_map,
    biholo_apply,
    deck_generators,
    map_normalizes_deck,
    normalizes_deck,
)
from homsurf.numeric import close


SQUARE = (1.0 + 0j, 1j)


def test_scdata_validation():
    SCData(*SQUARE, 1.0)
    SCData(*SQUARE, -1.0)
    SCData(*SQUARE, 1j)
    with pytest.raises(ValueError, match="Lambda"):
        SCData(*SQUARE, 2.0)
    with pytest.raises(ValueError, match="Lambda"):
        SCData(1.0, 0.3 + 1.2j, 1j)  # i does not preserve a generic lattice
    assert SCData(*SQUARE, 1j).case == "root"
    assert SCData(*SQUARE, 1j).root_fraction() == (1, 4)
    assert SCData(*SQUARE, -1.0).case == "minus-one"


def test_deck_generators_trivial_twist():
    data = SCData(*SQUARE, 1.0)
    gens = deck_generators(data)
    z, w = 0.3 + 0.1j, 0.7 - 0.2j
    assert np.allclose(gens[0](z, w), (z + 1, w))
    assert np.allclose(gens[1](z, w), (z, w + 1))
    assert np.allclose(gens[2](z, w), (z, w + 1j))


def test_deck_generator_twisted_and_composite():
    data = SCData(*SQUARE, -1.0)
    t = deck_generators(data)[0]
    z, w = 0.2, 0.5
    assert np.allclose(t(z, w), (z + 1, -w))
    z2, w2 = t(*t(z, w))
    assert close(z2, z + 2) and close(w2, w)  # c^2 = 1


def test_biholo_rows():
    data1 = SCData(*SQUARE, 1.0)
    ident = SCBiholomorphism(data1, sign=1, z0=0.0, b=1.0, f=())
    z, w = 0.4 - 0.3j, 1.1 + 0.2j
    assert np.allclose(biholo_apply(ident, z, w), (z, w))
    datam = SCData(*SQUARE, -1.0)
    phi = SCBiholomorphism(datam, sign=1, z0=0.0, b=1.0, lam0=0.0, f=())
    assert np.allclose(biholo_apply(phi, z, w), (z, w))
    flip = SCBiholomorphism(datam, sign=1, z0=0.0, b=-1.0, lam0=0.0, f=())
    assert np.allclose(biholo_apply(flip, z, w), (z, -w))


def test_biholo_validation():
    datam = SCData(*SQUARE, -1.0)
    with pytest.raises(ValueError, match="lattice"):
        SCBiholomorphism(datam, lam0=1 / 3)
    with pytest.raises(ValueError, match="b must"):
        SCBiholomorphism(datam, b=1.3)
    dataroot = SCData(*SQUARE, 1j)
    with pytest.raises(ValueError, match="reflection"):
        SCBiholomorphism(dataroot, sign=-1)


def test_normalizes_deck_examples(rng):
    datam = SCData(*SQUARE, -1.0)
    ident = SCBiholomorphism(datam)
    assert normalizes_deck(ident, rng=rng)
    flip = SCBiholomorphism(datam, b=-1.0)
    assert normalizes_deck(flip, rng=rng)
    # w -> w + 1/3 conjugates the twisted generator outside the deck group
    bad = bundles_shift_map(datam, 1 / 3)
    assert not map_normalizes_deck(bad, datam, rng)


def bundles_shift_map(data, offset):
    from homsurf.bundles import PlaneMap

    return PlaneMap(lambda z, w: (z, w + offset), lambda z, w: (z, w - offset))


def test_normalizes_deck_random_members(rng):
    for c in (1.0, -1.0, 1j):
        data = SCData(*SQUARE, c)
        for _ in range(10):
            phi = verify.random_sc_biholo(rng, data)
            assert normalizes_deck(phi, rng=rng), c


def test_composition_still_normalizes(rng):
    for c in (1.0, -1.0, 1j):
        data = SCData(*SQUARE, c)
        for _ in range(5):
            f1 = as_map(verify.random_sc_biholo(rng, data))
            f2 = as_map(verify.random_sc_biholo(rng, data))
            assert map_normalizes_deck(f1.compose(f2), data, rng)


def test_corrupted_instances_fail(rng):
    for c in (1.0, -1.0, 1j):
        data = SCData(*SQUARE, c)
        for _ in range(8):
            bad = verify.corrupt_sc_map(rng, data)
            assert not map_normalizes_deck(bad, data, rng), c
