"""The catalogue of connected complex homogeneous surfaces.

One row per action, in the reference order: the simply connected model of
each family first, followed by its quotients.  Stabilizer entries that the
source table leaves as "?" are carried as "unspecified-in-paper" rather than
invented.
"""

from __future__ import annotations

from .numeric import Record, setfield


class CatalogueRow(Record):
    __slots__ = ("label", "ascii_label", "surface", "group", "stabilizer", "constraint", "quotient_policy", "anchor")

    def __init__(self, label, ascii_label, surface, group, stabilizer, constraint, quotient_policy, anchor):
        setfield(self, "label", label)
        setfield(self, "ascii_label", ascii_label)
        setfield(self, "surface", surface)
        setfield(self, "group", group)
        setfield(self, "stabilizer", stabilizer)
        setfield(self, "constraint", constraint)
        setfield(self, "quotient_policy", quotient_policy)  # "none" | "policy" | "is-quotient"
        setfield(self, "anchor", anchor)

    def to_json(self):
        return {
            "label": self.label,
            "ascii": self.ascii_label,
            "surface": self.surface,
            "group": self.group,
            "stabilizer": self.stabilizer,
            "constraint": self.constraint,
            "quotient_policy": self.quotient_policy,
            "anchor": self.anchor,
        }


# the spellings typed for the labels' Greek letters and prime, in the order replaced
_ALIASES = (("beta", "b"), ("gamma", "g"), ("delta", "d"), ("β", "b"), ("γ", "g"), ("δ", "d"), ("′", "'"))


def ascii_label(label):
    """The ASCII spelling of a label, the one key every alias of it shares.

    Bβ1, Bbeta1 and Bb1 all read Bb1; Bδ2′ reads Bd2'.  The catalogue
    filter, `homsurf act --family` and `homsurf verify` compare labels by it.
    """
    s = str(label)
    for alias, letter in _ALIASES:
        s = s.replace(alias, letter)
    return s


def _row(label, surface, group, stabilizer="", constraint="", policy="is-quotient", anchor=""):
    return CatalogueRow(label, ascii_label(label), surface, group, stabilizer, constraint, policy, anchor)


UNSPEC = "unspecified-in-paper"

ROWS = (
    _row("A1", "P^2", "PSL(3,C)", "block upper-triangular", "", "none", "quotient-free actions"),
    _row("A2", "C^2", "GL(2,C) x| C^2", "GL(2,C)", "", "none", "quotient-free actions"),
    _row("A3", "C^2", "SL(2,C) x| C^2", "SL(2,C)", "", "none", "quotient-free actions"),
    _row("Bβ1", "C^2", "G_D", "H_D", "deg D >= 2", "policy", "constant coefficient linear ODE"),
    _row("Bβ1A0", "C x (C/Δ)", "G_D", "H_D", "deg D >= 2; deg_0 D = 0", "is-quotient", "example A"),
    _row("Bβ1A1", "C x (C/Δ)", "G_D/Δ", "H_D/Δ", "deg D >= 2; deg_0 D > 0", "is-quotient", "example A"),
    _row("Bβ1B0", "C^x x C", "G_D/<(n,0)>", "H_D", "deg D >= 2; e^{λn} = 1", "is-quotient", "example B"),
    _row("Bβ1B1", "C^x x C", "G_D", "H_D", "deg D >= 2; e^{λn} != 1", "is-quotient", "example B"),
    _row("Bβ1C", "C^x x C", "G_D", "H_D", "deg D >= 2; λ = 2πim/n", "is-quotient", "example C"),
    _row("Bβ1D", "C^x x C^x", "G_D/<(n,0),(0,1)>", "H_D", "deg D >= 2; λ = 0", "is-quotient", "example D"),
    _row("Bβ1E", "C^x x C^x", "G_D/<(n,s),(0,1)>", "H_D", "deg D >= 2; λ = 2πim/n", "is-quotient", "example E"),
    _row("Bβ1F", "C^x -> X' -> C^x", "G_D", "H_D", "deg D >= 2; e^{λn} = -1", "is-quotient", "example F"),
    _row("Bβ1G", "C^x x (C/Λ)", "G_D", "H_D", "deg D >= 2; λ = 0", "is-quotient", "example G"),
    _row("Bβ1H", "C^x x (C/Λ)", "G_D", "H_D", "deg D >= 2; λ = 2πim/n", "is-quotient", "example H"),
    _row("Bβ1I", "C/Λ -> X' -> C^x", "G_D", "H_D", "deg D >= 2; e^{λn}Λ = Λ != 1", "is-quotient", "example I"),
    _row("Bβ2", "C^2", "rG_D", "rH_D", "deg D >= 2", "policy", "ODE with rescaling"),
    _row("Bβ2′", "C^x x C", "rG_D/<(n,1,0)>", "rH_D/?", "deg D >= 2", "is-quotient", "ODE with rescaling"),
    _row(
        "Bγ1",
        "C^2",
        "{e^{-a(n+α)/n} (e^a, b; 0, 1)} x| Sym^n(C^2)*",
        "(g,p): b = 0, p(1,0) = 0",
        "α != 1",
        "none",
        "restricted line-bundle actions",
    ),
    _row(
        "Bγ2",
        "C^2",
        "{(e^a, b; 0, 1)} x| Sym^n(C^2)*",
        "(g,p): b = 0, p(1,0) = 0",
        "",
        "policy",
        "restricted line-bundle actions",
    ),
    _row(
        "Bγ2′",
        "C x (C/Δ)",
        "{(e^a, b; 0, 1)} x| (Sym^n(C^2)*/Δ)",
        "(g,p): b = 0, p(1,0) = 0",
        "",
        "is-quotient",
        "restricted line-bundle actions",
    ),
    _row(
        "Bγ3",
        "C^2",
        "{((1, b; 0, e^{-a}), Z2 r + a Z1^n)}",
        "b = 0, r(0,1) = 0",
        "deg r = n - 1",
        "none",
        "coupled shear family",
    ),
    _row(
        "Bγ4",
        "C^2",
        "{(*, *; 0, *)/Z_n} x| Sym^n(C^2)*",
        "(g,p): b = 0, p(0,1) = 0",
        "",
        "none",
        "restricting line bundles to the affine chart",
    ),
    _row("Bδ1", "C^2 \\ 0", "SL(2,C)", "(1, b; 0, 1)", "", "policy", "punctured plane"),
    _row("Bδ1′", "(C^2 \\ 0)/z~λz", "SL(2,C)", "(1, b; 0, 1)", "|λ| < 1", "is-quotient", "Hopf quotient"),
    _row("Bδ2", "C^2 \\ 0", "GL(2,C)", "(1, b; 0, c)", "", "policy", "punctured plane"),
    _row("Bδ2′", "(C^2 \\ 0)/z~λz", "GL(2,C)/<λI>", "(1, b; 0, c)", "|λ| < 1", "is-quotient", "Hopf quotient"),
    _row(
        "Bδ3",
        "O(n)",
        "(SL(2,C)/±^n) x| Sym^n(C^2)*",
        "((a, b; 0, 1/a), p): p(1,0) = 1 - 1/a^n",
        "",
        "none",
        "line bundles over the projective line",
    ),
    _row(
        "Bδ4",
        "O(n)",
        "(GL(2,C)/Z_n) x| Sym^n(C^2)*",
        "((a, b; 0, d), p): p(1,0) = 1 - 1/a^n",
        "",
        "none",
        "line bundles over the projective line",
    ),
    _row("C2", "C^2", "C x Aff(C)", "{0} x C^x", "", "policy", "translation times affine line"),
    _row("C2′", "(C/Δ) x C", "(C/Δ) x Aff(C)", "{0} x C^x", "", "is-quotient", "translation times affine line"),
    _row("C3", "C^2", "Aff(C) x Aff(C)", "C^x x C^x", "", "none", "quotient-free actions"),
    _row("C5", "P^1 x C", "PSL(2,C) x C", "(a, b; 0, 1/a)", "", "policy", "projective times translation line"),
    _row("C5′", "P^1 x (C/Δ)", "PSL(2,C) x (C/Δ)", "(a, b; 0, 1/a)", "", "is-quotient", "projective times translation line"),
    _row("C6", "P^1 x C", "PSL(2,C) x (C^x x| C)", "(a, b; 0, 1/a) x C^x", "", "none", "quotient-free actions"),
    _row("C7", "P^1 x P^1", "PSL(2,C) x PSL(2,C)", "upper-triangular pair", "", "none", "quotient-free actions"),
    _row("C8", "C^2", "{diag(e^t, e^{αt})} x| C^2", "diag(e^t, e^{αt})", "α != 0, 1", "none", "affine plane, 1-dim stabilizer"),
    _row("C9", "P^1 x P^1 \\ diagonal", "PSL(2,C)", "diag(a, 1/a)", "", "policy", "the affine quadric"),
    _row("C9′", "P^2 \\ (b^2 = 4ac)", "PSL(2,C)", "diag(a, 1/a), antidiag", "", "is-quotient", "the affine quadric"),
    _row("D1", "C^2", "C^2", "0", "", "policy", "translation plane"),
    _row("D1_1", "C^x x C", "C^x x C", "0", "", "is-quotient", "translation plane"),
    _row("D1_2", "C^x x C^x", "C^x x C^x", "0", "", "is-quotient", "translation plane"),
    _row("D1_3", "(C/Δ) x C", "(C/Δ) x C", "0", "", "is-quotient", "translation plane"),
    _row("D1_4", "C^x x (C/Δ)", "C^x x (C/Δ)", "0", "", "is-quotient", "translation plane"),
    _row("D1_5", "C^x -> X' -> C/Δ", "C^x -> G' -> C/Δ", "0", "σ != 0", "is-quotient", "translation plane"),
    _row("D1_6", "C^2/Λ", "C^2/Λ", "0", "", "is-quotient", "translation plane"),
    _row("D2", "C^2", "uAff(C)", "0", "", "policy", "the affine group"),
    _row("D2_1", "C x C^x", "uAff(C)", "(0, n)", "", "is-quotient", "the affine group"),
    _row("D2_2", "C x (C/Λ)", "uAff(C)", "(0, n + mτ)", "any elliptic curve", "is-quotient", "the affine group"),
    _row("D2_3", "C^x x C", "uAff(C)", UNSPEC, "", "is-quotient", "the affine group"),
    _row("D2_4", "C^x x C^x", "uAff(C) -> G' -> Aff(C)", UNSPEC, "", "is-quotient", "the affine group"),
    _row("D2_5", "C^x x E_τ", "uAff(C) -> G' -> Aff(C)", UNSPEC, "", "is-quotient", "the affine group"),
    _row("D2_6", "C^x x C", "uAff(C) -> G' -> Aff(C)", UNSPEC, "", "is-quotient", "the affine group"),
    _row("D2_7", "C^x -> X' -> C^x", "uAff(C) -> G' -> Aff(C)", UNSPEC, "", "is-quotient", "the affine group"),
    _row("D2_8", "E_τ -> X' -> C^x", "uAff(C) -> G' -> Aff(C)", UNSPEC, "", "is-quotient", "the affine group"),
    _row("D2_9", "E_i -> X' -> C^x", "uAff(C) -> G' -> Aff(C)", UNSPEC, "", "is-quotient", "the affine group"),
    _row("D2_10", "E_ω -> X' -> C^x", "uAff(C) -> G' -> Aff(C)", UNSPEC, "", "is-quotient", "the affine group"),
    _row("D2_11", "E_ω -> X' -> C^x", "uAff(C) -> G' -> Aff(C)", UNSPEC, "", "is-quotient", "the affine group"),
    _row("D2_12", "E_ω -> X' -> C^x", "uAff(C) -> G' -> Aff(C)", UNSPEC, "", "is-quotient", "the affine group"),
    _row("D2_13", "E_ω -> X' -> C^x", "uAff(C) -> G' -> Aff(C)", UNSPEC, "", "is-quotient", "the affine group"),
    _row("D2_14", "(C/Λ) x C", "uAff(C) -> G' -> Aff(C)", UNSPEC, "", "is-quotient", "the affine group"),
    _row("D3", "C^2", "C^x x| C^2", "C^x", "", "none", "quotient-free actions"),
)


def enumerate_catalogue(prefix=None):
    """Catalogue rows in table order, optionally filtered by label prefix."""
    if prefix is None:
        return list(ROWS)
    p = str(prefix)
    pa = ascii_label(p)
    return [r for r in ROWS if r.label.startswith(p) or r.ascii_label.startswith(pa)]


def labels():
    return [r.label for r in ROWS]
