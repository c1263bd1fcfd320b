"""The homsurf command line.

Subcommands: `catalogue` lists the classification table, `classify` sends a
generator file to the matching discrete-subgroup classifier, `act` applies a
group element to a surface point (optionally composed with a labelled
covering map), and `verify` runs the seeded property suites.  Exit codes:
0 success, 1 verification failure, 2 input error.  Element and point JSON
schemas per family are documented in docs/families.md.

Each subcommand imports the modules it runs, and the codecs of a family (in
the family table, `families.SPECS`) those of their family, so a call loads
only those (see "Cold start" in the README).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .numeric import NonDiscreteError, as_rows, complex_json, json_complex


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


def _matrix_json(m):
    return [[complex_json(x) for x in row] for row in as_rows(m)]


# ---------------------------------------------------------------------------
# element and point (de)serialization


@_decoder("element")
def element_from_json(label, data):
    """The element of family `label` that the payload encodes, its invariants checked."""
    from .families import SPECS

    spec = SPECS[label]
    g = spec.element(data)
    spec.check(g)
    return g


@_decoder("point")
def point_from_json(label, data):
    from .families import SPECS

    return SPECS[label].point(data)


def point_to_json(label, point):
    from .families import SPECS

    return SPECS[label].point_json(point)


def _component_json(comp):
    from .lattice import TorusPoint

    if isinstance(comp, TorusPoint):
        return {
            "torus": complex_json(comp.value),
            "lattice": [complex_json(comp.w1), complex_json(comp.w2)],
        }
    return complex_json(comp)


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
        return ambient, [(json_complex(v[0]), json_complex(v[1])) for v in data["generators"]], None
    if ambient == "uaff":
        from .uaff import UAffElement

        gens = [UAffElement(json_complex(g["a"]), json_complex(g["b"])) for g in data["generators"]]
        return ambient, gens, None
    if ambient == "qd":
        from .bbeta import CentralizerElement
        from .divisor import Divisor

        D = Divisor.from_json(data["divisor"])
        gens = [CentralizerElement(D, json_complex(g["w"]), json_complex(g["s"])) for g in data["generators"]]
        return ambient, gens, D
    raise InputError(f"unknown ambient {ambient!r}")


def cmd_classify(args):
    bound = args.denominator_bound
    if bound is not None and bound < 1:
        raise InputError(f"--denominator-bound must be at least 1, got {bound}")
    with open(args.file) as fh:
        data = json.load(fh)
    ambient, gens, D = _classify_input(data)
    out = {"ambient": ambient}
    if ambient == "C2":
        from .d1 import classify_D1_subgroup

        res = classify_D1_subgroup(gens)
        out.update(
            label=res.label,
            normalized_generators=[[complex_json(a), complex_json(b)] for a, b in res.generators],
            transform=_matrix_json(res.transform),
            warnings=list(res.warnings),
        )
        if res.tau is not None:
            out["tau"] = complex_json(res.tau)
        if res.sigma is not None:
            out["sigma"] = complex_json(res.sigma)
    elif ambient == "uaff":
        from . import uaff

        label, phi = uaff.classify_subgroup(gens, max_denominator=bound)
        center = uaff.center_intersection(label, max_denominator=bound)
        out.update(
            label=label.name,
            parameters={k: complex_json(v) if isinstance(v, complex) else v for k, v in label.params().items()},
            normalizer={"gamma": complex_json(phi.gamma), "beta": complex_json(phi.beta)},
            normalized_generators=[{"a": complex_json(g.a), "b": complex_json(g.b)} for g in label.generators],
            center_intersection={"a": complex_json(center.a), "b": complex_json(center.b)},
        )
    else:
        from .bbeta import classify_pi

        res = classify_pi(gens, D, max_denominator=bound)
        out.update(
            label=f"Bβ1{res.label.name}" if res.label.name != "trivial" else "Bβ1",
            example=res.label.name,
            table_row=res.table_row,
            parameters={k: complex_json(v) if isinstance(v, complex) else v for k, v in res.label.params().items()},
            normalizer={k: complex_json(complex(v)) for k, v in res.normalizer.items()},
        )
    print(json.dumps(out, indent=2))
    return 0


def _cover_from_args(D, element_data, cover_label):
    from . import bbeta
    from .catalogue import ascii_label
    from .families import _degree

    name = ascii_label(cover_label)
    if name.startswith("Bb1"):
        name = name[len("Bb1"):]
    params = element_data.get("cover", {})
    if name in ("Bb2", "Bb2'"):
        return bbeta.rgd_quotients(D, _degree(params) if "n" in params else 1)
    kwargs = {}
    if "n" in params:
        kwargs["n"] = _degree(params)
    if "s" in params:
        kwargs["s"] = json_complex(params["s"])
    if "tau" in params:
        kwargs["tau"] = json_complex(params["tau"])
    if "delta" in params:
        kwargs["delta"] = tuple(json_complex(x) for x in params["delta"])
    return bbeta.quotient_cover(bbeta.BBeta1Label(name, D, **kwargs))


def cmd_act(args):
    from .families import SPECS, family_label

    label = family_label(args.family)
    with open(args.element) as fh:
        edata = json.load(fh)
    with open(args.point) as fh:
        pdata = json.load(fh)
    g = element_from_json(label, edata)
    x = point_from_json(label, pdata)
    spec = SPECS[label]
    result = spec.handler(**spec.params(edata)).act(g, x)
    if args.cover:
        if getattr(g, "divisor", None) is None:
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
    except (ValueError, NonDiscreteError, KeyError, OSError, OverflowError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
