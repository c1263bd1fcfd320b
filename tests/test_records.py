"""The frozen value types: dataclass-style equality, hash, repr and immutability on slots."""

import importlib
import inspect
import pkgutil

import pytest

import homsurf
from homsurf import bundles, numeric, uaff
from homsurf.lattice import TorusPoint
from homsurf.numeric import Record

MODULES = tuple(m.name for m in pkgutil.iter_modules(homsurf.__path__))


def _records():
    for name in MODULES:
        module = importlib.import_module(f"homsurf.{name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and issubclass(cls, Record) and cls is not Record:
                yield cls


def test_every_value_type_is_a_slotted_record():
    classes = list(_records())
    assert len(classes) == 28
    for cls in classes:
        assert not hasattr(cls, "__dataclass_fields__"), cls
        assert cls._fields and set(cls._fields) <= set(cls.__slots__), cls


def test_equality_hash_and_repr_follow_the_fields():
    g, h = uaff.UAffElement(1j, 2.0), uaff.UAffElement(1j, 2.0)
    assert g == h and not g != h and g is not h
    assert g != uaff.UAffElement(1j, 3.0)
    assert hash(g) == hash((1j, 2.0))
    assert repr(g) == "UAffElement(a=1j, b=2.0)"
    assert g.__eq__((1j, 2.0)) is NotImplemented and g != (1j, 2.0)
    assert g.__eq__(uaff.UAffAutomorphism(1j, 2.0)) is NotImplemented
    label = uaff.D2Label("D2_1", generators=(g,))
    assert repr(label) == (
        "D2Label(name='D2_1', k=None, b=None, tau=None, a=None, a1=None, a2=None,"
        " generators=(UAffElement(a=1j, b=2.0),), warnings=())"
    )
    assert hash(label) == hash(("D2_1", None, None, None, None, None, None, (g,), ()))


def test_fields_are_frozen_and_there_is_no_instance_dict():
    g = uaff.UAffElement(0j, 1.0)
    with pytest.raises(AttributeError):
        g.a = 1.0
    with pytest.raises(AttributeError):
        del g.b
    with pytest.raises(AttributeError):
        g.other = 1.0
    assert not hasattr(g, "__dict__")
    assert (g.a, g.b) == (0j, 1.0)


def test_init_checks_still_run():
    with pytest.raises(ValueError):
        uaff.UAffAutomorphism(0j, 0j)
    with pytest.raises(ValueError):
        bundles.SCData(1.0, 1j, 2.0)


def test_no_record_defines_its_own_equality():
    # equality to a tolerance is `distance(a, b) <= tol`; == and the hash always follow the fields
    for cls in _records():
        assert "def __eq__" not in inspect.getsource(cls), cls
    p, q = TorusPoint(0.25, 1.0, 1j), TorusPoint(0.25, 1.0, 1j)
    assert p == q and hash(p) == hash(q) == hash((0.25, 1.0, 1j))
    r = TorusPoint(1.25 + 1j, 1.0, 1j)
    assert p != r and len({p, q, r}) == 2 and p.distance(r) <= numeric.EPS


def test_a_record_may_cache_properties():
    data = bundles.SCData(1.0, 1j, 1j)
    assert data.case == "root" and data.case is data.case
    assert repr(data) == "SCData(w1=1.0, w2=1j, c=1j)"
    with pytest.raises(AttributeError):
        data.c = 1.0


def test_a_subclass_lists_its_fields_once():
    class Pair(Record):
        __slots__ = ("x", "y")

        def __init__(self, x, y):
            numeric.setfield(self, "x", x)
            numeric.setfield(self, "y", y)

    assert Pair._fields == ("x", "y")
    assert repr(Pair(1, "a")) == f"{Pair.__qualname__}(x=1, y='a')"  # as a dataclass names it
    assert Pair(1, 2) == Pair(1, 2) and Pair(1, 2) != Pair(2, 1)
    assert {Pair(1, 2), Pair(1, 2)} == {Pair(1, 2)}
