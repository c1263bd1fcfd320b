"""The commutant of G_D and its discrete subgroups, without exponential polynomials.

The commutant of G_D (see `bbeta`) is quasiperiods semidirect w-translations;
`classify_pi` sends a discrete subgroup of it to one of the quotient examples
A0, A1, B, ..., I by the normalization steps of the proof.  `bbeta`, which
builds the examples' covers, re-imports these names.
"""

from __future__ import annotations

import cmath
import math

from .divisor import quasiperiod_group, weight
from .lattice import c2r, geometric_sum, hnf_with_transform, is_unit, lattice_frame, lattice_residue, near_int
from .lattice import saturate_lattice, zmodule_basis
from .numeric import COMMUTANT_TOL, LAM_SHAPE_TOL, LAM_TOL, LINE_INDEX_TOL, LINE_SHAPE_TOL, TRANSLATION_CHOP
from .numeric import TWO_PI_I, NonDiscreteError, Record, close, setfield


class DivisorError(ValueError):
    """A divisor that a quotient row cannot be taken over: its degree, its shape or a row's condition on it."""


def _check_divisor(D):
    if D.degree < 2:
        raise DivisorError("degree-one divisors are the translation plane / affine group")
    return D


class CentralizerElement(Record):
    """Pair (w, s) acting by (z, w) -> (w + z, gamma_w w + s)."""

    __slots__ = ("divisor", "w", "s")

    def __init__(self, divisor, w, s):
        setfield(self, "divisor", divisor)
        setfield(self, "w", w)
        setfield(self, "s", s)
        if not quasiperiod_group(self.divisor).contains(self.w):
            raise ValueError("invalid quasiperiod")

    @property
    def gamma(self):
        return weight(self.divisor, self.w)


def cent_identity(D):
    return CentralizerElement(D, 0j, 0j)


def cent_multiply(c0, c1):
    if c0.divisor != c1.divisor:
        raise ValueError("divisor mismatch")
    return CentralizerElement(c0.divisor, c0.w + c1.w, c0.s + c0.gamma * c1.s)


def cent_inverse(c):
    g = c.gamma
    return CentralizerElement(c.divisor, -c.w, -c.s / g)


def cent_act(c, zw):
    z, w = zw
    return (c.w + z, c.gamma * w + c.s)


class BBeta1Label(Record):
    """A quotient example A0, A1, B, ..., I, or a row of `QUOTIENT_ROWS` by its name, with its parameters."""

    __slots__ = ("name", "divisor", "n", "s", "tau", "delta", "warnings")

    def __init__(self, name, divisor, n=None, s=None, tau=None, delta=(), warnings=()):
        setfield(self, "name", name)
        setfield(self, "divisor", divisor)
        setfield(self, "n", n)
        setfield(self, "s", s)
        setfield(self, "tau", tau)
        setfield(self, "delta", delta)  # generators of the w-translation group for A0/A1
        setfield(self, "warnings", warnings)

    def cover_parameters(self):
        """The parameters n, s, tau and delta that the label sets, by name."""
        values = {f: getattr(self, f) for f in ("n", "s", "tau", "delta")}
        return {f: v for f, v in values.items() if v not in (None, ())}

    def params(self):
        return {"divisor": self.divisor.to_json(), **self.cover_parameters()}


def _canonical_line_data(D):
    """(lam, ks) for a divisor of the shape [lam] + sum [lam + 2 pi i k_j]."""
    qg = quasiperiod_group(D)
    if qg.kind != "rank1" or not close(qg.generator, 1.0, tol=LINE_SHAPE_TOL):
        raise DivisorError("divisor must have the normalized shape [lam] + sum [lam + 2 pi i k_j]")
    pts = D.support
    lam = pts[0]
    ks = []
    for p in pts[1:]:
        kk = near_int((p - lam) / TWO_PI_I, LINE_INDEX_TOL)
        if kk is None or kk <= 0:
            raise DivisorError("divisor points must differ from the base by 2 pi i k, k > 0")
        ks.append(kk)
    if math.gcd(*ks) != 1:
        raise DivisorError("the integers k_j must be relatively prime")
    return lam, ks


# The quotient rows of the divisor families, by catalogue label: (the name `bbeta.quotient_cover` and
# `act --cover` know the row by, its example, the rank of its fibre lattice, the cover parameters it
# reads with their defaults (None: the label must give it), its conditions).  The deck group's fibre
# lattice is none (rank 0), Z (1), Z + tau Z (2) or, for A0 and A1, the parameter Delta (None).  A
# condition on the divisor [lam] + sum [lam + 2 pi i k_j] and n is the error its failure raises, whose
# words after "requires" name its test in `holds`.  Example B is two rows, B0 and B1; Bβ2′ is example B
# of rG_D over lam = 0, by default its quotient by <(1, 1, 0)>.
_M, _UNIT = "lam = 2 pi i m / n, m nonzero", "e^{lam n} to preserve the lattice"
_ZERO_SHAPE = "divisor must have the normalized shape [0] + sum [2 pi i k_j]"
QUOTIENT_ROWS = {
    "Bβ1A0": ("A0", "A0", None, {"delta": None}, ("A0 requires zero degree at the origin",)),
    "Bβ1A1": ("A1", "A1", None, {"delta": None}, ("A1 requires positive degree at the origin",)),
    "Bβ1B0": ("B0", "B", 0, {"n": None}, ("example B0 requires e^{lam n} = 1",)),
    "Bβ1B1": ("B1", "B", 0, {"n": None}, ("example B1 requires e^{lam n} != 1",)),
    "Bβ1C": ("C", "C", 0, {"n": None, "s": 1.0}, ("example C requires e^{lam n} = 1", "example C requires " + _M)),
    "Bβ1D": ("D", "D", 1, {"n": None}, ("example D requires lam = 0",)),
    "Bβ1E": ("E", "E", 1, {"n": None, "s": None}, ("example E requires " + _M,)),
    "Bβ1F": ("F", "F", 1, {"n": None}, ("example F requires e^{lam n} = -1",)),
    "Bβ1G": ("G", "G", 2, {"n": None, "tau": None}, ("example G requires lam = 0",)),
    "Bβ1H": ("H", "H", 2, {"n": None, "s": None, "tau": None}, ("example H requires " + _M,)),
    "Bβ1I": ("I", "I", 2, {"n": None, "tau": None}, ("example I requires e^{lam n} != 1", "example I requires " + _UNIT)),
    "Bβ2′": ("Bb2", "B", 0, {"n": 1}, (_ZERO_SHAPE,)),
}
_NAMES = {row[0]: key for key, row in QUOTIENT_ROWS.items()}


def lam_exponent(lam, n):
    """The integer m with lam = 2 pi i m / n, or None."""
    return near_int(lam * n / TWO_PI_I, LINE_INDEX_TOL)


def holds(test, lam=None, n=None, tau=None, deg0=None):
    """Whether the condition `test` of QUOTIENT_ROWS holds for the degree deg0 of the divisor at 0, or for its
    lam, n and tau (None when it reads n and n is None): lam = 0 and e^{lam n} = 1 or -1 when `close` to
    LAM_TOL, e^{lam n} a unit of Z + tau Z by `is_unit`."""
    if test == "zero degree at the origin":
        return deg0 == 0
    if test == "positive degree at the origin":
        return deg0 > 0
    if test in ("lam = 0", _ZERO_SHAPE):
        return close(lam, 0j, tol=LAM_TOL)
    if test not in (_M, _UNIT, "e^{lam n} = 1", "e^{lam n} != 1", "e^{lam n} = -1"):
        raise ValueError(f"unknown condition {test}")
    if n is None:
        return None
    if test == _M:
        return lam_exponent(lam, n) not in (None, 0)
    q = cmath.exp(lam * n)
    if test == _UNIT:
        return is_unit(q, 1.0, tau)
    if test == "e^{lam n} = -1":
        return close(q, -1.0, tol=LAM_TOL)
    return close(q, 1.0, tol=LAM_TOL) == (test == "e^{lam n} = 1")


def quotient_row(name, lam=None, n=None):
    """The catalogue label of the quotient row named `name`.  Example B names two rows, B0 where
    e^{lam n} = 1 and B1 where not; before lam is known B0 stands for both, which read the same."""
    if name == "B":
        name = "B1" if lam is not None and not holds("e^{lam n} = 1", lam, n) else "B0"
    if name not in _NAMES:
        raise ValueError(f"unknown example {name}")
    return _NAMES[name]


def check_row(key, D, lam, n=None, tau=None):
    """Raise the error of the first condition of quotient row `key` that D, its lam, n and tau fail; with n
    None, of those that read neither n nor tau, as a DivisorError."""
    for error in QUOTIENT_ROWS[key][4]:
        if holds(error.partition(" requires ")[2] or error, lam, n, tau, D.degree_at(0)) is False:
            raise (DivisorError if n is None else ValueError)(error)


def _deck_pairs(key, n=None, s=None, tau=None, delta=()):
    """The deck generators (w, s) of quotient row `key`, with the number types pi_generators gives: A0/A1's
    w-translations by Delta, else (n, s) (s = 1 for C, 0 if absent) and the translations by 1, or 1 and tau."""
    _, example, rank, _, _ = QUOTIENT_ROWS[key]
    if rank is None:
        return [(0j, d) for d in delta]
    return [(n, 1.0 if example == "C" else (0j if s is None else s))] + [(0j, u) for u in (1.0, tau)[:rank]]


# ---------------------------------------------------------------------------
# classification of discrete subgroups of the commutant


class BBeta1Classification(Record):
    __slots__ = ("label", "table_row", "normalizer", "pi_cap_g")

    def __init__(self, label, table_row, normalizer, pi_cap_g=()):
        setfield(self, "label", label)
        setfield(self, "table_row", table_row)
        setfield(self, "normalizer", normalizer)
        setfield(self, "pi_cap_g", pi_cap_g)


def _qd_mult(a, b, gamma):
    return (a[0] + b[0], a[1] + gamma ** a[0] * b[1])


def _qd_power(a, m, gamma):
    if m == 0:
        return (0, 0j)
    if m < 0:
        inv = (-a[0], -gamma ** (-a[0]) * a[1])
        return _qd_power(inv, -m, gamma)
    return (m * a[0], a[1] * geometric_sum(gamma ** a[0], m))


def table_automorphism(D, nu=1.0, t=0.0):
    """The action of an automorphism pair (nu, t) on commutant elements.

    For a divisor in the canonical shape [lam] + sum [lam + 2 pi i k_j] the
    available maps depend on the shape: with lam not in 2 pi i Z the shift
    enters through 1 - e^{lam k}; with lam = 0 it enters linearly in k; for
    the remaining shapes (lam a nonzero multiple of 2 pi i) only the
    rescaling by nu acts.
    """
    nu = complex(nu)
    t = complex(t)
    if abs(nu) == 0:
        raise ValueError("nu must be nonzero")
    lam, _ = _canonical_line_data(D)
    if abs(lam) <= LAM_SHAPE_TOL:
        mode = "linear"
    elif near_int(lam / TWO_PI_I, LAM_SHAPE_TOL) is not None:
        mode = "rescale-only"
    else:
        mode = "exponential"

    def apply(c):
        k = c.w
        if mode == "exponential":
            shift = t * (1 - cmath.exp(lam * k))
        elif mode == "linear":
            shift = t * k
        else:
            shift = 0j
        return CentralizerElement(D, c.w, nu * c.s + shift)

    return apply


def _pi_cap_g(norm_gens, E):
    """Generators of the normalized pi that act as elements of G_E.

    A pair (k, s) acts by (z + k, e^{lam k} w + s); this is a G_E action
    exactly when e^{lam k} = 1 and the constant s lies in the solution space,
    i.e. s = 0 or E has positive degree at the origin.  The pairs come from
    `_deck_pairs`; they are returned as (int, complex).
    """
    lam = E.support[0]
    deg0 = E.degree_at(0)
    out = []
    for k, s in norm_gens:
        k, s = round(k.real), complex(s)
        if not close(cmath.exp(lam * k), 1.0, tol=LAM_TOL):
            continue
        if abs(s) <= COMMUTANT_TOL or deg0 > 0:
            out.append((k, s))
    return tuple(out)


def classify_pi(gens, D, max_denominator=None):
    """Send a discrete subgroup of the commutant to its quotient example.

    gens are CentralizerElements over D.  Returns a BBeta1Classification with
    the normalized label (over the rescaled divisor when a rescaling was
    applied) and the normalizing data (mu, nu, t).
    """
    _check_divisor(D)
    qg = quasiperiod_group(D, max_denominator=max_denominator)
    for g in gens:
        if not qg.contains(g.w):
            raise ValueError("generator is not in the commutant: invalid quasiperiod")
    scale = max([abs(g.w) + abs(g.s) for g in gens] + [1.0])

    ws = [g.w for g in gens]
    if qg.kind != "rank1" or all(abs(w) <= COMMUTANT_TOL * scale for w in ws):
        svals = [g.s for g in gens if abs(g.s) > TRANSLATION_CHOP * scale]
        basis, _, _ = zmodule_basis([c2r(s) for s in svals])
        if len(basis) > 2:
            raise NonDiscreteError("w-translation group has rank > 2")
        if not basis:
            label = BBeta1Label("trivial", D)
            return BBeta1Classification(label, "Bβ1", {"mu": 1.0, "nu": 1.0, "t": 0.0})
        name = "A1" if D.degree_at(0) > 0 else "A0"
        nu, tau = lattice_frame(basis)
        delta = (1.0 + 0j,) if tau is None else (1.0 + 0j, tau)
        key = quotient_row(name)
        pig = _pi_cap_g(_deck_pairs(key, delta=delta), D)
        return BBeta1Classification(BBeta1Label(name, D, delta=delta), key, {"mu": 1.0, "nu": nu, "t": 0.0}, pig)

    mu = qg.generator
    E = D.scaled(mu)
    lam, _ = _canonical_line_data(E)
    gamma = cmath.exp(lam)

    pairs = [(qg.index_of(g.w), g.s) for g in gens]
    H, U, rank = hnf_with_transform([[k] for k, _ in pairs])
    if rank == 0:
        raise AssertionError("unreachable: some quasiperiod index is nonzero")
    n = H[0][0]
    gen_n = (0, 0j)
    for c, p in zip(U[0], pairs):
        if c:
            gen_n = _qd_mult(gen_n, _qd_power(p, c, gamma), gamma)

    kernel_s = []
    for pair in pairs:
        m = pair[0] // n
        red = _qd_mult(_qd_power(gen_n, -m, gamma), pair, gamma)
        if red[0] != 0:
            raise AssertionError("gcd reduction failed")
        if abs(red[1]) > TRANSLATION_CHOP * scale:
            kernel_s.append(red[1])
    q = gamma**n
    try:
        pi0 = saturate_lattice(kernel_s, (lambda b: q * b, lambda b: b / q), scale) if kernel_s else []
    except NonDiscreteError as e:
        raise NonDiscreteError(f"not a discrete commutant subgroup: {e}") from e

    s_n = gen_n[1]
    lam_zero = abs(lam) <= LAM_SHAPE_TOL
    norm = {"mu": mu, "nu": 1.0 + 0j, "t": 0.0}

    def finish(name, s_val=None, tau=None):
        key = quotient_row(name, lam, n)
        pig = _pi_cap_g(_deck_pairs(key, n, s_val, tau), E)
        return BBeta1Classification(BBeta1Label(name, E, n=n, s=s_val, tau=tau), key, dict(norm), pig)

    if not pi0:
        if abs(s_n) <= COMMUTANT_TOL * scale:
            return finish("B")
        if not close(q, 1.0, tol=LAM_TOL):
            norm["t"] = -s_n / (1 - q)
            return finish("B")
        if lam_zero:
            norm["t"] = -s_n / n
            return finish("B")
        norm["nu"] = 1.0 / s_n
        return finish("C", s_val=1.0 + 0j)

    # nu rescales a rank-one kernel to Z (examples D, E, F) and a rank-two one to Z + tau Z
    nu, tau = lattice_frame(pi0)
    norm["nu"] = nu
    s1 = nu * s_n
    if lam_zero:
        norm["t"] = -s1 / n
        return finish("D" if tau is None else "G", tau=tau)
    if close(q, 1.0, tol=LAM_TOL):
        return finish("E" if tau is None else "H", s_val=lattice_residue(s1, tau), tau=tau)
    if tau is None:
        if close(q, -1.0, tol=LAM_TOL):
            norm["t"] = -s1 / 2
            return finish("F")
        raise NonDiscreteError("e^{lam n} must be a unit of the kernel group")
    if holds(_UNIT, lam, n, tau):
        norm["t"] = -s1 / (1 - q)
        return finish("I", tau=tau)
    raise NonDiscreteError("e^{lam n} must be a unit of the kernel lattice")
