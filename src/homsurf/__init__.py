"""homsurf: the classification of complex homogeneous surfaces as executable arithmetic.

Every family of transitive holomorphic group actions on a complex surface is
implemented as concrete group/action arithmetic, together with the discrete
subgroup classifiers, quotient covering maps, and the property suites that
check them.  See the README for the catalogue and the `homsurf` CLI.

`import homsurf` loads no submodule: each public name below is imported from
its home module on first access, so a `homsurf` CLI call pays only for the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> home module
_HOMES = {
    "CatalogueRow": "catalogue",
    "enumerate_catalogue": "catalogue",
    "Divisor": "divisor",
    "QuasiperiodGroup": "divisor",
    "quasiperiod_group": "divisor",
    "weight": "divisor",
    "DiffOperator": "exppoly",
    "ExpPoly": "exppoly",
    "Polynomial": "exppoly",
    "basis_of": "exppoly",
    "contains": "exppoly",
    "monic_polynomial": "exppoly",
    "build_family": "families",
    "classify_D1_subgroup": "d1",
    "quotient_policy": "families",
    "NonDiscreteError": "numeric",
    "D2Label": "uaff",
    "UAffAutomorphism": "uaff",
    "UAffElement": "uaffgroup",
    "classify_subgroup": "uaff",
    "VerificationReport": "verify",
    "run_verification": "verify",
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
