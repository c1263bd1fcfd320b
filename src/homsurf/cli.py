"""The homsurf command line.

Subcommands: `catalogue` lists the classification table, `classify` sends a
generator file to the matching discrete-subgroup classifier, `act` applies a
group element to a surface point (optionally composed with a labelled
covering map), and `verify` runs the seeded property suites.  Exit codes:
0 success, 1 verification failure, 2 input error.  Element and point JSON
schemas per family are documented in docs/families.md.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys

import numpy as np

from . import bbeta, catalogue, families, projective, uaff, verify
from .divisor import Divisor
from .exppoly import ExpPoly
from .numeric import SL_DET_TOL, NonDiscreteError, close
from .surfaces import TorusPoint


class InputError(Exception):
    pass


def _c(data):
    if isinstance(data, (int, float)):
        return complex(data)
    return complex(data["re"], data["im"])


def _cj(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _matrix(data):
    return np.array([[_c(x) for x in row] for row in data])


def _matrix_json(m):
    return [[_cj(x) for x in row] for row in np.asarray(m)]


def _norm_label(label):
    return (
        label.replace("beta", "b").replace("gamma", "g").replace("delta", "d")
        .replace("β", "b").replace("γ", "g").replace("δ", "d")
    )


_CANONICAL = {_norm_label(lab): lab for lab in families.BASE_FAMILY_LABELS}


def canonical_family(label):
    key = _norm_label(str(label))
    if key not in _CANONICAL:
        raise InputError(f"unknown family {label}")
    return _CANONICAL[key]


# ---------------------------------------------------------------------------
# element and point (de)serialization


def _affine_element(label, data):
    """An A2 (GL(2)) or A3 (SL(2)) element, its invariants checked."""
    m = _matrix(data["matrix"])
    t = np.array([_c(x) for x in data["translation"]])
    if m.shape != (2, 2):
        raise InputError(f"{label} matrix must be 2x2, got shape {m.shape}")
    if t.shape != (2,):
        raise InputError(f"{label} translation must have 2 entries, got {t.size}")
    (a, b), (c, d) = m.tolist()
    det = a * d - b * c
    if label == "A3" and not close(det, 1.0, tol=SL_DET_TOL):
        raise InputError(f"A3 matrix must have det 1, got |det - 1| = {abs(det - 1):.3e}")
    if label == "A2" and not projective.invertible2(m):
        raise InputError("A2 matrix must be invertible")
    return (m, t)


def element_from_json(label, data):
    if label == "A1":
        return _matrix(data["matrix"])
    if label in ("A2", "A3"):
        return _affine_element(label, data)
    if label == "C2":
        return (_c(data["t"]), (_c(data["affine"]["alpha"]), _c(data["affine"]["beta"])))
    if label == "C3":
        return (
            (_c(data["first"]["alpha"]), _c(data["first"]["beta"])),
            (_c(data["second"]["alpha"]), _c(data["second"]["beta"])),
        )
    if label == "C5":
        return (_matrix(data["matrix"]), _c(data["t"]))
    if label == "C6":
        return (_matrix(data["matrix"]), (_c(data["affine"]["alpha"]), _c(data["affine"]["beta"])))
    if label == "C7":
        return (_matrix(data["first"]), _matrix(data["second"]))
    if label == "C8":
        return (_c(data["t"]), (_c(data["v"][0]), _c(data["v"][1])))
    if label == "C9":
        return _matrix(data["matrix"])
    if label == "D1":
        return (_c(data["v"][0]), _c(data["v"][1]))
    if label == "D2":
        return uaff.UAffElement(_c(data["a"]), _c(data["b"]))
    if label == "D3":
        m = _c(data["m"])
        if m == 0 or not cmath.isfinite(m):
            raise InputError(f"D3 needs a finite nonzero m, got {m}")
        return (m, (_c(data["v"][0]), _c(data["v"][1])))
    if label == "Bβ1":
        D = Divisor.from_json(data["divisor"])
        return bbeta.GDElement(D, _c(data["t"]), ExpPoly.from_json(data["f"]))
    if label == "Bβ2":
        D = Divisor.from_json(data["divisor"])
        return bbeta.RGDElement(D, _c(data["t"]), _c(data["lambda"]), ExpPoly.from_json(data["f"]))
    if label == "Bγ1":
        return projective.BGamma12Element(
            int(data["n"]), _c(data["c"]), _c(data["lam"]), _c(data["b"]),
            tuple(_c(x) for x in data["poly"]),
        )
    if label == "Bγ2":
        return projective.BGamma12Element(
            int(data["n"]), 0j, _c(data["lam"]), _c(data["b"]),
            tuple(_c(x) for x in data["poly"]),
        )
    if label == "Bγ3":
        return projective.BGamma3Element(
            int(data["n"]), _c(data["lam"]), _c(data["b"]), tuple(_c(x) for x in data["r"])
        )
    if label in ("Bγ4", "Bδ3", "Bδ4"):
        return projective.OnGroupElement(
            int(data["n"]), _matrix(data["matrix"]), tuple(_c(x) for x in data["poly"])
        )
    if label in ("Bδ1", "Bδ2"):
        return _matrix(data["matrix"])
    raise InputError(f"no element schema for family {label}")


def point_from_json(label, data):
    if label == "A1":
        return projective.Proj2Point([_c(x) for x in data["coords"]])
    if label in ("C5", "C6"):
        return (projective.ProjPoint(_c(data["zproj"][0]), _c(data["zproj"][1])), _c(data["w"]))
    if label == "C7":
        return (
            projective.ProjPoint(_c(data["first"][0]), _c(data["first"][1])),
            projective.ProjPoint(_c(data["second"][0]), _c(data["second"][1])),
        )
    if label == "C9":
        return projective.QuadricPoint(
            projective.ProjPoint(_c(data["alpha"][0]), _c(data["alpha"][1])),
            projective.ProjPoint(_c(data["beta"][0]), _c(data["beta"][1])),
        )
    if label == "D2":
        return uaff.UAffElement(_c(data["a"]), _c(data["b"]))
    if label in ("Bδ1", "Bδ2"):
        return (_c(data["x"][0]), _c(data["x"][1]))
    if label in ("Bδ3", "Bδ4"):
        return projective.BundlePoint(int(data["n"]), int(data["chart"]), _c(data["z"]), _c(data["w"]))
    return (_c(data["z"]), _c(data["w"]))


def point_to_json(label, point):
    if label == "A1":
        return {"coords": [_cj(x) for x in point.coords]}
    if label in ("C5", "C6"):
        return {"zproj": [_cj(x) for x in point[0].coords], "w": _cj(point[1])}
    if label == "C7":
        return {"first": [_cj(x) for x in point[0].coords], "second": [_cj(x) for x in point[1].coords]}
    if label == "C9":
        return {"alpha": [_cj(x) for x in point.alpha.coords], "beta": [_cj(x) for x in point.beta.coords]}
    if label == "D2":
        return {"a": _cj(point.a), "b": _cj(point.b)}
    if label in ("Bδ1", "Bδ2"):
        return {"x": [_cj(point[0]), _cj(point[1])]}
    if label in ("Bδ3", "Bδ4"):
        return {"n": point.n, "chart": point.chart, "z": _cj(point.z), "w": _cj(point.w)}
    return {"z": _cj(point[0]), "w": _cj(point[1])}


def _component_json(comp):
    if isinstance(comp, TorusPoint):
        return {
            "torus": _cj(comp.value),
            "lattice": [_cj(comp.w1), _cj(comp.w2)],
        }
    return _cj(comp)


# ---------------------------------------------------------------------------
# subcommands


def cmd_catalogue(args):
    rows = catalogue.enumerate_catalogue(args.filter)
    if args.json:
        print(json.dumps([r.to_json() for r in rows], indent=2))
    else:
        for r in rows:
            extra = f"  [{r.constraint}]" if r.constraint else ""
            print(f"{r.label:8s} {r.surface:28s} {r.group}{extra}")
    return 0


def cmd_classify(args):
    with open(args.file) as fh:
        data = json.load(fh)
    ambient = data.get("ambient")
    bound = args.denominator_bound
    out = {"ambient": ambient}
    if ambient == "C2":
        gens = [(_c(v[0]), _c(v[1])) for v in data["generators"]]
        res = families.classify_D1_subgroup(gens)
        out.update(
            label=res.label,
            normalized_generators=[[_cj(a), _cj(b)] for a, b in res.generators],
            transform=_matrix_json(res.transform),
            warnings=list(res.warnings),
        )
        if res.tau is not None:
            out["tau"] = _cj(res.tau)
        if res.sigma is not None:
            out["sigma"] = _cj(res.sigma)
    elif ambient == "uaff":
        gens = [uaff.UAffElement(_c(g["a"]), _c(g["b"])) for g in data["generators"]]
        label, phi = uaff.classify_subgroup(gens, max_denominator=bound)
        center = uaff.center_intersection(label, max_denominator=bound)
        out.update(
            label=label.name,
            parameters={k: (_cj(v) if isinstance(v, complex) else v) for k, v in label.params().items()},
            normalizer={"gamma": _cj(phi.gamma), "beta": _cj(phi.beta)},
            normalized_generators=[{"a": _cj(g.a), "b": _cj(g.b)} for g in label.generators],
            center_intersection={"a": _cj(center.a), "b": _cj(center.b)},
        )
    elif ambient == "qd":
        D = Divisor.from_json(data["divisor"])
        gens = [bbeta.CentralizerElement(D, _c(g["w"]), _c(g["s"])) for g in data["generators"]]
        res = bbeta.classify_pi(gens, D, max_denominator=bound)
        params = {}
        for k, v in res.label.params().items():
            params[k] = _cj(v) if isinstance(v, complex) else v
        out.update(
            label=f"Bβ1{res.label.name}" if res.label.name != "trivial" else "Bβ1",
            example=res.label.name,
            table_row=res.table_row,
            parameters=params,
            normalizer={k: _cj(complex(v)) for k, v in res.normalizer.items()},
        )
    else:
        raise InputError(f"unknown ambient {ambient!r}")
    print(json.dumps(out, indent=2))
    return 0


def _cover_from_args(label, element_data, cover_label):
    name = cover_label
    if name.startswith("Bb1") or name.startswith("Bβ1"):
        name = name.replace("Bβ1", "").replace("Bb1", "")
    params = element_data.get("cover", {})
    D = Divisor.from_json(element_data["divisor"])
    if name in ("Bb2", "Bβ2", "Bβ2′", "Bb2'"):
        return bbeta.rgd_quotients(D, int(params.get("n", 1)))
    kwargs = {}
    if "n" in params:
        kwargs["n"] = int(params["n"])
    if "s" in params:
        kwargs["s"] = _c(params["s"])
    if "tau" in params:
        kwargs["tau"] = _c(params["tau"])
    if "delta" in params:
        kwargs["delta"] = tuple(_c(x) for x in params["delta"])
    return bbeta.quotient_cover(bbeta.BBeta1Label(name, D, **kwargs))


def cmd_act(args):
    label = canonical_family(args.family)
    with open(args.element) as fh:
        edata = json.load(fh)
    with open(args.point) as fh:
        pdata = json.load(fh)
    g = element_from_json(label, edata)
    x = point_from_json(label, pdata)
    handler_params = {}
    if label == "C8":
        handler_params["alpha"] = _c(edata.get("alpha", {"re": 2.0, "im": 0.5}))
    if label in ("Bβ1", "Bβ2"):
        handler_params["divisor"] = g.divisor
    if label in ("Bγ1", "Bγ2", "Bγ3", "Bγ4", "Bδ3", "Bδ4"):
        handler_params["n"] = g.n
    if label == "Bγ1":
        handler_params["c"] = g.c
    handler = families.build_family(label, **handler_params)
    result = handler.act(g, x)
    if args.cover:
        if label not in ("Bβ1", "Bβ2"):
            raise InputError("--cover is only available for the divisor families")
        cov = _cover_from_args(label, edata, args.cover)
        covered = cov.cover(*result)
        print(json.dumps({"cover": args.cover, "point": [_component_json(c) for c in covered]}, indent=2))
    else:
        print(json.dumps(point_to_json(label, result), indent=2))
    return 0


def cmd_verify(args):
    try:
        reports = verify.run_verification(args.family or "all", samples=args.samples, seed=args.seed)
    except ValueError as e:
        raise InputError(str(e)) from e
    if args.json:
        print(json.dumps([r.to_json() for r in reports], indent=2))
    else:
        for r in reports:
            status = "pass" if r.passed else "FAIL"
            print(
                f"{r.family:10s} {status}  checks={len(r.checks):2d} samples={r.samples}"
                f" max_error={r.max_error:.3e}"
            )
            for f in r.failures:
                print(f"    {f}")
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(prog="homsurf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalogue", help="list the classification table")
    p.add_argument("--filter", default=None, help="label prefix filter")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalogue)

    p = sub.add_parser("classify", help="classify a discrete subgroup from a JSON file")
    p.add_argument("file")
    p.add_argument("--denominator-bound", type=int, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("act", help="apply a group element to a surface point")
    p.add_argument("--family", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--cover", default=None)
    p.set_defaults(func=cmd_act)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("family", nargs="?", default=None)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, NonDiscreteError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
