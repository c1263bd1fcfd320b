"""The homsurf command line.

Subcommands: `catalogue` lists the classification table, `classify` sends a
generator file to the matching discrete-subgroup classifier, `act` applies a
group element to a surface point (optionally composed with a labelled
covering map), and `verify` runs the seeded property suites.  Exit codes:
0 success, 1 verification failure, 2 input error.  Element and point JSON
schemas per family are documented in docs/families.md.

Each subcommand, and each codec branch, imports the modules it runs, so a
call loads only those (see "Cold start" in the README).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import sys

from .numeric import SL_DET_TOL, NonDiscreteError, as_rows, close


class InputError(Exception):
    pass


def _decoder(what):
    """Report the errors a malformed JSON payload raises while decoding as input errors."""

    def wrap(fn):
        @functools.wraps(fn)
        def decode(*args):
            try:
                return fn(*args)
            except (TypeError, IndexError, AttributeError) as e:
                raise InputError(f"malformed {what}: {e}") from None

        return decode

    return wrap


def _c(data):
    """A complex number from a JSON number or a {"re": x, "im": y} object."""
    if isinstance(data, (int, float)):
        return complex(data)
    try:
        return complex(data["re"], data["im"])
    except TypeError:
        raise InputError(f"not a complex number: {data!r}") from None


def _cj(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _rows(data):
    return [[_c(x) for x in row] for row in data]


def _matrix(data, n=2):
    """An n x n matrix as Python rows, which every handler's `act` takes as well as an array."""
    m = _rows(data)
    if [len(row) for row in m] != [n] * n:
        raise InputError(f"matrix must be {n}x{n}, got rows of lengths {[len(row) for row in m]}")
    return m


def _matrix_json(m):
    return [[_cj(x) for x in row] for row in as_rows(m)]


def canonical_family(label):
    """The family label `label` spells: itself, or an alias such as Bb1 or Bbeta1."""
    from .families import family_label

    try:
        return family_label(label)
    except ValueError as e:
        raise InputError(str(e)) from None


# ---------------------------------------------------------------------------
# element and point (de)serialization


def _affine_element(label, data):
    """An A2 (GL(2)) or A3 (SL(2)) element as Python rows, its invariants checked."""
    from .projective import invertible2

    m = _matrix(data["matrix"])
    t = tuple(_c(x) for x in data["translation"])
    if len(t) != 2:
        raise InputError(f"{label} translation must have 2 entries, got {len(t)}")
    (a, b), (c, d) = m
    det = a * d - b * c
    if label == "A3" and not close(det, 1.0, tol=SL_DET_TOL):
        raise InputError(f"A3 matrix must have det 1, got |det - 1| = {abs(det - 1):.3e}")
    if label == "A2" and not invertible2(m):
        raise InputError("A2 matrix must be invertible")
    return (m, t)


@_decoder("element")
def element_from_json(label, data):
    from . import projective

    if label == "A1":
        return _matrix(data["matrix"], 3)
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
        from .uaff import UAffElement

        return UAffElement(_c(data["a"]), _c(data["b"]))
    if label == "D3":
        m = _c(data["m"])
        if m == 0 or not cmath.isfinite(m):
            raise InputError(f"D3 needs a finite nonzero m, got {m}")
        return (m, (_c(data["v"][0]), _c(data["v"][1])))
    if label in ("Bβ1", "Bβ2"):
        from . import bbeta
        from .divisor import Divisor
        from .exppoly import ExpPoly

        D = Divisor.from_json(data["divisor"])
        if label == "Bβ1":
            return bbeta.GDElement(D, _c(data["t"]), ExpPoly.from_json(data["f"]))
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


@_decoder("point")
def point_from_json(label, data):
    from . import projective

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
        from .uaff import UAffElement

        return UAffElement(_c(data["a"]), _c(data["b"]))
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
    from .surfaces import TorusPoint

    if isinstance(comp, TorusPoint):
        return {
            "torus": _cj(comp.value),
            "lattice": [_cj(comp.w1), _cj(comp.w2)],
        }
    return _cj(comp)


# ---------------------------------------------------------------------------
# subcommands


def cmd_catalogue(args):
    from .catalogue import enumerate_catalogue

    rows = enumerate_catalogue(args.filter)
    if args.json:
        print(json.dumps([r.to_json() for r in rows], indent=2))
    else:
        for r in rows:
            extra = f"  [{r.constraint}]" if r.constraint else ""
            print(f"{r.label:8s} {r.surface:28s} {r.group}{extra}")
    return 0


@_decoder("classify file")
def _classify_input(data):
    """(ambient, generators, divisor) of a classify file; the divisor is None but for qd."""
    ambient = data.get("ambient")
    if ambient == "C2":
        return ambient, [(_c(v[0]), _c(v[1])) for v in data["generators"]], None
    if ambient == "uaff":
        from .uaff import UAffElement

        return ambient, [UAffElement(_c(g["a"]), _c(g["b"])) for g in data["generators"]], None
    if ambient == "qd":
        from .bbeta import CentralizerElement
        from .divisor import Divisor

        D = Divisor.from_json(data["divisor"])
        return ambient, [CentralizerElement(D, _c(g["w"]), _c(g["s"])) for g in data["generators"]], D
    raise InputError(f"unknown ambient {ambient!r}")


def cmd_classify(args):
    with open(args.file) as fh:
        data = json.load(fh)
    ambient, gens, D = _classify_input(data)
    bound = args.denominator_bound
    out = {"ambient": ambient}
    if ambient == "C2":
        from .families import classify_D1_subgroup

        res = classify_D1_subgroup(gens)
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
        from . import uaff

        label, phi = uaff.classify_subgroup(gens, max_denominator=bound)
        center = uaff.center_intersection(label, max_denominator=bound)
        out.update(
            label=label.name,
            parameters={k: (_cj(v) if isinstance(v, complex) else v) for k, v in label.params().items()},
            normalizer={"gamma": _cj(phi.gamma), "beta": _cj(phi.beta)},
            normalized_generators=[{"a": _cj(g.a), "b": _cj(g.b)} for g in label.generators],
            center_intersection={"a": _cj(center.a), "b": _cj(center.b)},
        )
    else:
        from .bbeta import classify_pi

        res = classify_pi(gens, D, max_denominator=bound)
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
    print(json.dumps(out, indent=2))
    return 0


def _cover_from_args(D, element_data, cover_label):
    from . import bbeta
    from .catalogue import ascii_label

    name = ascii_label(cover_label)
    if name.startswith("Bb1"):
        name = name[len("Bb1"):]
    params = element_data.get("cover", {})
    if name in ("Bb2", "Bb2'"):
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
    from .families import build_family

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
    handler = build_family(label, **handler_params)
    result = handler.act(g, x)
    if args.cover:
        if label not in ("Bβ1", "Bβ2"):
            raise InputError("--cover is only available for the divisor families")
        cov = _cover_from_args(g.divisor, edata, args.cover)
        covered = cov.cover(*result)
        print(json.dumps({"cover": args.cover, "point": [_component_json(c) for c in covered]}, indent=2))
    else:
        print(json.dumps(point_to_json(label, result), indent=2))
    return 0


def cmd_verify(args):
    from .verify import run_verification

    try:
        reports = run_verification(args.family or "all", samples=args.samples, seed=args.seed)
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
