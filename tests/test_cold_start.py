"""Cold start: `import homsurf` loads no submodule, and each CLI call loads only what it runs.

Each call runs as `python -X importtime -m homsurf.cli ...` in a fresh
process; the modules it loaded are read off the import-time report on
stderr.  The CLI module itself runs as `__main__`, so it is not listed.
"""

import ast
import importlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

import homsurf

SRC = str(pathlib.Path(homsurf.__file__).resolve().parents[1])
_IMPORTED = re.compile(r"^import time:.*\|\s*(\S+)\s*$", re.MULTILINE)


def _run(*args):
    """(exit code, stdout, the homsurf modules loaded, every module loaded)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True, env=env, timeout=120
    )
    names = set(_IMPORTED.findall(proc.stderr))
    ours = {n for n in names if n == "homsurf" or n.startswith("homsurf.")}
    return proc.returncode, proc.stdout, ours, names


def _cj(z):
    return {"re": z.real, "im": z.imag}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _act_args(tmp_path, family, element, point):
    e = _write(tmp_path, "element.json", element)
    p = _write(tmp_path, "point.json", point)
    return ["act", "--family", family, "--element", e, "--point", p]


POINT = {"z": _cj(1 + 0j), "w": _cj(2 - 1j)}
TRANSLATION = [_cj(0.5j), _cj(1 + 0j)]
A2 = {"matrix": [[_cj(1 + 1j), _cj(2 + 0j)], [_cj(0j), _cj(1 - 1j)]], "translation": TRANSLATION}
A3 = {"matrix": [[_cj(1 + 0j), _cj(2j)], [_cj(0j), _cj(1 + 0j)]], "translation": TRANSLATION}
D1_ELEMENT = {"v": [_cj(1j), _cj(-2 + 0j)]}
D2 = {"a": _cj(0.3 + 0.2j), "b": _cj(1 + 0j)}
D2_POINT = {"a": _cj(0j), "b": _cj(1j)}
# a matrix element, decoded as Python rows like A2's
C9 = {"matrix": [[_cj(1 + 1j), _cj(2 + 0j)], [_cj(0j), _cj(1 - 1j)]]}
C9_POINT = {"alpha": [_cj(0.5j), _cj(1 + 0j)], "beta": [_cj(2 + 0j), _cj(1 + 0j)]}
# the divisor [0] + [2 pi i]: lambda = 0, so e^{lambda n} = 1
DIVISOR = {"points": [{"re": 0.0, "im": 0.0, "mult": 1}, {"re": 0.0, "im": 2 * math.pi, "mult": 1}]}
W1 = {"w": _cj(1 + 0j), "s": _cj(0j)}
S1 = {"w": _cj(0j), "s": _cj(1 + 0j)}
# example B has no translation lattice, so no zmodule_basis; example D has one
QD_B = {"ambient": "qd", "divisor": DIVISOR, "generators": [W1]}
QD_D = {"ambient": "qd", "divisor": DIVISOR, "generators": [W1, S1]}
C2 = {"ambient": "C2", "generators": [[_cj(1 + 0j), _cj(0j)]]}
# rank three with an irrational sigma (the row D1_5) and rank four (D1_6)
C2_D1_5 = {
    "ambient": "C2",
    "generators": [[_cj(1), _cj(0)], [_cj(0.1 + 1.2j), _cj(0.70710678 + 0.61803399j)], [_cj(0), _cj(1)]],
}
C2_D1_6 = {
    "ambient": "C2",
    "generators": [[_cj(1), _cj(0)], [_cj(1j), _cj(0)], [_cj(0), _cj(1)], [_cj(0), _cj(1j)]],
}
UAFF = {"ambient": "uaff", "generators": [{"a": _cj(0j), "b": _cj(1 + 0j)}]}
# a kernel lattice Z + Z i, closed under e^a = i: the row D2_9, through saturate_lattice
UAFF_LATTICE = {
    "ambient": "uaff",
    "generators": [{"a": _cj(0.5j * math.pi), "b": _cj(0j)}, {"a": _cj(0j), "b": _cj(1 + 0j)}],
}

BASE = {"homsurf", "homsurf.numeric"}
ACT = BASE | {"homsurf.families"}
PROJECTIVE = ACT | {"homsurf.projective"}
QD = BASE | {"homsurf.qd", "homsurf.divisor", "homsurf.lattice"}
D1 = BASE | {"homsurf.d1", "homsurf.lattice"}
UAFF_MODULES = BASE | {"homsurf.uaff", "homsurf.uaffgroup", "homsurf.lattice"}

# call -> (argv after `homsurf`, homsurf modules loaded, expected label or None); no call loads numpy
CALLS = {
    "act-A2": (lambda t: _act_args(t, "A2", A2, POINT), ACT, None),
    "act-A3": (lambda t: _act_args(t, "A3", A3, POINT), ACT, None),
    "act-D1": (lambda t: _act_args(t, "D1", D1_ELEMENT, POINT), ACT, None),
    "act-D2": (lambda t: _act_args(t, "D2", D2, D2_POINT), ACT | {"homsurf.uaffgroup"}, None),
    "act-C9": (lambda t: _act_args(t, "C9", C9, C9_POINT), PROJECTIVE, None),
    "classify-qd": (lambda t: ["classify", _write(t, "qd.json", QD_B)], QD, "Bβ1B"),
    "classify-qd-lattice": (lambda t: ["classify", _write(t, "qd.json", QD_D)], QD, "Bβ1D"),
    "classify-C2": (lambda t: ["classify", _write(t, "c2.json", C2)], D1, "D1_1"),
    "classify-C2-D1_5": (lambda t: ["classify", _write(t, "c2.json", C2_D1_5)], D1, "D1_5"),
    "classify-C2-D1_6": (lambda t: ["classify", _write(t, "c2.json", C2_D1_6)], D1, "D1_6"),
    "classify-uaff": (lambda t: ["classify", _write(t, "uaff.json", UAFF)], UAFF_MODULES, "D2_1"),
    "classify-uaff-lattice": (lambda t: ["classify", _write(t, "uaff.json", UAFF_LATTICE)], UAFF_MODULES, "D2_9"),
    "catalogue": (lambda t: ["catalogue", "--filter", "D1", "--json"], BASE | {"homsurf.catalogue"}, None),
}
# what no act or classify call may load: numpy, `dataclasses` (which brings `inspect`), `argparse`
# (which brings `gettext` and `locale`), and `fractions` (which brings `decimal`), since every
# classifier reads its fractions as integer pairs
NOT_LOADED = {"numpy", "dataclasses", "inspect", "argparse", "gettext", "locale", "fractions", "decimal"}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_cli_call_loads_only_what_it_runs(tmp_path, name):
    argv, modules, label = CALLS[name]
    code, out, ours, names = _run("-m", "homsurf.cli", *argv(tmp_path))
    assert code == 0
    doc = json.loads(out)
    if label is not None:
        assert doc["label"] == label
    assert ours == modules
    assert not names & NOT_LOADED


def test_import_homsurf_loads_no_submodule():
    code, _, ours, names = _run("-c", "import homsurf")
    assert code == 0
    assert ours == {"homsurf"}
    assert not names & NOT_LOADED


def _imported_names(tree):
    """The modules that a module's import statements name, relative imports left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_verify_imports_numpy():
    # the package's values are Python numbers and tuples of rows; verify draws its samples with numpy's generator
    importers = set()
    for path in sorted(pathlib.Path(homsurf.__file__).parent.glob("*.py")):
        if any(name.split(".")[0] == "numpy" for name in _imported_names(ast.parse(path.read_text(encoding="utf-8")))):
            importers.add(path.name)
    assert importers == {"verify.py"}


def test_public_names_are_their_home_objects():
    for name in homsurf.__all__:
        obj = getattr(homsurf, name)
        assert obj.__module__.startswith("homsurf.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_dir_and_unknown_names():
    assert "__all__" in dir(homsurf)
    assert set(homsurf.__all__) <= set(dir(homsurf))
    with pytest.raises(AttributeError):
        homsurf.no_such_name  # noqa: B018


def test_star_import():
    namespace = {}
    exec("from homsurf import *", namespace)
    assert set(homsurf.__all__) <= set(namespace)
