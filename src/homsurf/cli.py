"""The homsurf command line.

Subcommands: `catalogue` lists the classification table, `classify` sends a
generator file to the matching discrete-subgroup classifier, `act` applies a
group element to a surface point (optionally composed with a labelled
covering map), and `verify` runs the seeded property suites.  Exit codes:
0 success, 1 verification failure, 2 input error.  Every JSON payload is
read by `numeric.decode` through its schema (docs/families.md): the element
and point schemas of the family table, `families.SPECS`, and the classify
files' schemas here.

Each subcommand imports the modules it runs, and the schema constructors of
a family those of their family, so a call loads only those (see "Cold
start" in the README).  One table, `COMMANDS`, drives the parsing of the
arguments, the usage lines and `--help`, without argparse.
"""

from __future__ import annotations

import json
import sys
import types

from .numeric import COMPLEX, DIVISOR, PAIR, TEXT, Schema, complex_json, decode, encode, lazy


class InputError(Exception):
    pass


def _matrix_json(m):
    return [[complex_json(x) for x in row] for row in m]


# ---------------------------------------------------------------------------
# element and point payloads, read and written through the schemas of the family table


def element_from_json(label, data):
    """The element of family `label` that the payload encodes, its invariants checked by its schema."""
    from .families import SPECS

    return decode(SPECS[label].element, data, "element")


def element_parameters(label, data):
    """The values, by key, of what an element payload that `element_from_json` has read carries
    beside the element: the "cover" parameters of Bβ1 and Bβ2."""
    from .families import SPECS

    schema = SPECS[label].element
    return {key: decode(schema.fields[key], data[key], f"element.{key}") for key in schema.aside if key in data}


def point_from_json(label, data):
    from .families import SPECS

    return decode(SPECS[label].point, data, "point")


def point_to_json(label, point):
    from .families import SPECS

    return encode(SPECS[label].point, point)


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


# the classify file of each ambient, read as (generators, divisor): the divisor is None but for qd
_centralizer = lazy("qd", "CentralizerElement")
_AMBIENTS = {
    "C2": Schema({"ambient": TEXT, "generators": [PAIR]}, make=lambda gens: (gens, None), aside=("ambient",)),
    "uaff": Schema(
        {"ambient": TEXT, "generators": [Schema({"a": COMPLEX, "b": COMPLEX}, make=lazy("uaff", "UAffElement"))]},
        make=lambda gens: (gens, None),
        aside=("ambient",),
    ),
    "qd": Schema(
        {"ambient": TEXT, "divisor": DIVISOR, "generators": [Schema({"w": COMPLEX, "s": COMPLEX})]},
        make=lambda D, gens: ([_centralizer(D, w, s) for w, s in gens], D),
        aside=("ambient",),
    ),
}


def cmd_classify(args):
    bound = args.denominator_bound
    if bound is not None and bound < 1:
        raise InputError(f"--denominator-bound must be at least 1, got {bound}")
    with open(args.file) as fh:
        data = json.load(fh)
    ambient = data.get("ambient") if type(data) is dict else None
    if ambient not in tuple(_AMBIENTS):  # a tuple: the ambient may be any JSON value, a list too
        raise InputError(f"file.ambient: expected one of {', '.join(_AMBIENTS)}, got {ambient!r}")
    gens, D = decode(_AMBIENTS[ambient], data, "file")
    out = {"ambient": ambient}
    if ambient == "C2":
        from .d1 import classify_D1_subgroup

        res = classify_D1_subgroup(gens, max_denominator=bound)
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
        from .qd import classify_pi

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


def _cover_from_args(D, params, cover_label):
    """The covering map of `--cover LABEL` over the divisor D, with the element's "cover" parameters: LABEL is
    a row of `qd.QUOTIENT_ROWS` by its catalogue label or name, or an example A0..I, also prefixed by Bβ1.  Its
    errors name what is at fault: `--cover`, the divisor (a `qd.DivisorError`) or the "cover" parameters."""
    from . import bbeta
    from .catalogue import ascii_label
    from .qd import QUOTIENT_ROWS, DivisorError

    names = {ascii_label(key): row[0] for key, row in QUOTIENT_ROWS.items()}  # Bb1A0 .. Bb1I and Bb2'
    name = {**names, **{name: name for name in names.values()}, "B": "B", "Bb1B": "B"}.get(ascii_label(cover_label))
    if name is None:
        raise InputError(f"--cover: unknown example {cover_label}")
    try:  # its errors keep their type, as numeric.decode keeps it: a NonDiscreteError stays one
        return bbeta.quotient_cover(bbeta.BBeta1Label(name, D, **params))
    except ValueError as e:
        raise type(e)(f"element.{'divisor' if isinstance(e, DivisorError) else 'cover'}: {e}") from None


def cmd_act(args):
    from .families import SPECS, family_label

    label = family_label(args.family)
    with open(args.element) as fh:
        edata = json.load(fh)
    with open(args.point) as fh:
        pdata = json.load(fh)
    g = element_from_json(label, edata)
    x = point_from_json(label, pdata)
    try:
        result = SPECS[label].handler().act(g, x)
    except OverflowError as e:
        raise OverflowError(f"the result overflows the float range ({e})") from e
    if args.cover:
        if getattr(g, "divisor", None) is None:
            raise InputError("--cover is only available for the divisor families")
        cover = element_parameters(label, edata).get("cover", {})
        covered = _cover_from_args(g.divisor, cover, args.cover).cover(*result)
        print(json.dumps({"cover": args.cover, "point": [_component_json(c) for c in covered]}, indent=2))
    else:
        print(json.dumps(point_to_json(label, result), indent=2))
    return 0


def cmd_verify(args):
    from .verify import run_verification

    reports = run_verification(args.family or "all", samples=args.samples, seed=args.seed)
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


# name -> (function, help, arguments).  An argument is (name, metavar, type, default): a positional
# unless its name starts with "--", a switch (False until given) when it has no metavar, and required
# when its default is REQUIRED.  The table drives parsing, the usage lines and --help.
REQUIRED = object()
_JSON = ("--json", None, bool, False)
COMMANDS = {
    "catalogue": (cmd_catalogue, "list the classification table", (("--filter", "PREFIX", str, None), _JSON)),
    "classify": (
        cmd_classify, "classify a discrete subgroup from a JSON file",
        (("file", "FILE", str, REQUIRED), ("--denominator-bound", "N", int, None)),
    ),
    "act": (
        cmd_act, "apply a group element to a surface point",
        (("--family", "F", str, REQUIRED), ("--element", "E.json", str, REQUIRED),
         ("--point", "P.json", str, REQUIRED), ("--cover", "LABEL", str, None)),
    ),
    "verify": (
        cmd_verify, "run the property suites",
        (("family", "FAMILY|all", str, None), ("--samples", "N", int, 100), ("--seed", "S", int, 0), _JSON),
    ),
}


class UsageError(InputError):
    pass


def usage(name):
    """The usage line of a subcommand."""
    words = ["homsurf", name]
    for flag, meta, _, default in COMMANDS[name][2]:
        word = meta if not flag.startswith("--") else flag if meta is None else f"{flag} {meta}"
        words.append(word if default is REQUIRED else f"[{word}]")
    return " ".join(words)


def parse(argv):
    """(the subcommand's function, its arguments by name) from the words after `homsurf`."""
    if not argv or argv[0] not in COMMANDS:
        raise UsageError(f"expected a subcommand, one of {', '.join(COMMANDS)}")
    fn, _, arguments = COMMANDS[argv[0]]
    values = {a[0]: a[3] for a in arguments}
    positionals, words = [a for a in arguments if not a[0].startswith("--")], argv[1:]
    while words:
        word, *words = words
        if not word.startswith("--"):
            if not positionals:
                raise UsageError(f"unexpected argument {word!r}")
            (flag, _, kind, _), value = positionals.pop(0), word
        else:
            flag, eq, value = word.partition("=")  # an option, named in full or by a unique prefix
            hits = [a for a in arguments if a[0] == flag] or [a for a in arguments if a[0].startswith(flag)]
            if len(hits) != 1 or flag == "--":
                raise UsageError(f"{'ambiguous' if len(hits) > 1 else 'unrecognized'} option {flag}")
            flag, meta, kind, _ = hits[0]
            if meta is None and eq:
                raise UsageError(f"{flag} takes no value")
            if meta is None:
                value = True
            elif not eq:
                if not words or words[0].startswith("--"):
                    raise UsageError(f"{flag} expects a value {meta}")
                value, *words = words
        try:
            values[flag] = kind(value)
        except ValueError:
            raise UsageError(f"{flag} expects an integer, got {value!r}") from None
    missing = [a[0] if a[0].startswith("--") else a[1] for a in arguments if values[a[0]] is REQUIRED]
    if missing:
        raise UsageError(f"missing {', '.join(missing)}")
    return fn, types.SimpleNamespace(**{flag.lstrip("-").replace("-", "_"): values[flag] for flag in values})


def main(argv=None):
    """Run one `homsurf` call (the words of `sys.argv` when argv is None) and return its exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    names = argv[:1] if argv and argv[0] in COMMANDS else list(COMMANDS)
    lines = ["usage:", *(f"  {usage(n)}" for n in names)]
    if "-h" in argv or "--help" in argv:
        print(*lines, "", *(f"  {n:10s} {COMMANDS[n][1]}" for n in names), sep="\n")
        return 0
    try:
        fn, args = parse(argv)
        return fn(args)
    except (InputError, ValueError, KeyError, OSError, OverflowError) as e:  # NonDiscreteError: a ValueError
        if isinstance(e, UsageError):
            print(*lines, sep="\n", file=sys.stderr)
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
