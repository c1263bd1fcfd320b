"""perfbench traces the package's layers by name: every name it looks up must still resolve.

`perfbench/spans.py` lists (module, function) pairs in `LAYER_FUNCTIONS` and
wraps `getattr(homsurf.<module>, function)`; the tier-1 suite does not run
perfbench, so a function that moves out of a listed module would break a
traced run unnoticed.  The pairs are read from the source, not imported, so
this test needs neither numpy's tracer nor the benchmark's path setup.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

from homsurf import d1, families, lattice, numeric

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layer_functions():
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "LAYER_FUNCTIONS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py has no LAYER_FUNCTIONS")


PAIRS = _layer_functions()


def test_the_pairs_are_read():
    assert ("families", "classify_D1_subgroup") in PAIRS and ("numeric", "zmodule_basis") in PAIRS


@pytest.mark.parametrize("module, name", PAIRS)
def test_each_traced_name_is_a_homsurf_function(module, name):
    fn = getattr(importlib.import_module(f"homsurf.{module}"), name)
    assert inspect.isfunction(fn) and fn.__module__.startswith("homsurf."), (module, name)


def test_forwarded_names_are_the_home_objects():
    assert families.classify_D1_subgroup is d1.classify_D1_subgroup
    for name in ("zmodule_basis", "rational_reconstruct", "hnf_with_transform", "real_rank", "lattice_reduce_tau"):
        assert getattr(numeric, name) is getattr(lattice, name)
    with pytest.raises(AttributeError):
        numeric.saturate_lattice  # noqa: B018 - only the traced names are forwarded
    with pytest.raises(AttributeError):
        families.D1Classification  # noqa: B018
