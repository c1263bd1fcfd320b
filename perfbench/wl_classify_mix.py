"""classify-mix: a seeded stream of inputs to the three discrete-subgroup classifiers.

One round holds 35 operations, shuffled:

- 6 D1 inputs, one per row D1_1 .. D1_6: the row's generators in C^2, moved
  by a random matrix of GL2(C) with |det| > 0.3 and permuted;
- 14 D2 inputs, one per row D2_1 .. D2_14: the row's generators in uAff(C),
  moved by a random automorphism (a, b) -> (a, gamma (1 - e^a) + beta b) and
  shuffled by six random products, inversions and swaps; each op also asks
  for `center_intersection` of the result, as `homsurf classify` does;
- 8 Bβ1 inputs, one per quotient example B .. I: the generators of pi for
  that example, moved by `bbeta.table_automorphism` and shuffled;
- 4 non-discrete inputs, whose right answer is NonDiscreteError, each a
  pair of generators with an irrational ratio: two C^2 translations, two uAff
  kernel translations, two uAff elements (ratio of the a-components), and
  two commutant translations.  The ratios are sqrt(m) p / q with m in
  {2, 3, 5, 6, 7} and 1 <= p, q <= 4, whose continued fractions have small
  partial quotients, so no convergent under the denominator bound passes the
  rational test;
- 3 inputs the program gets wrong (see KNOWN_FAULTS): counted as failed.

The expected D2 rows are those the inputs were built from, except that the
classifier reports the canonical member of the pairs of rows that present the
same subgroups: D2_12 as D2_11 and D2_13 as D2_10 (stated here, not read from
the program).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

import harness
import oracle

POOL_ROUNDS = 8
TWO_PI_I = 2j * math.pi
OMEGA = cmath.exp(1j * math.pi / 3)
D1_ROWS = tuple(f"D1_{i}" for i in range(1, 7))
D2_ROWS = tuple(f"D2_{i}" for i in range(1, 15))
D2_EXPECTED = {name: name for name in D2_ROWS} | {"D2_12": "D2_11", "D2_13": "D2_10"}
BB1_ROWS = ("B", "C", "D", "E", "F", "G", "H", "I")
REJECT = "NonDiscreteError"

# generators the classifier should reject but classifies as the trivial row D1
KNOWN_FAULTS = (
    ("nan-generator", [(complex(float("nan"), 0.0), 0j)]),
    ("inf-generator", [(complex(float("inf"), 0.0), 0j)]),
    ("overflow-scale", [(1e300 + 0j, 0j), (0j, 1e-300 + 0j)]),
)


def _cn(rng, scale=1.0):
    return complex(rng.normal(), rng.normal()) * scale


def _tau(rng):
    return complex(rng.uniform(-0.45, 0.45), rng.uniform(0.9, 1.6))


def _irrational(rng):
    m = (2, 3, 5, 6, 7)[int(rng.integers(5))]
    return math.sqrt(m) * int(rng.integers(1, 5)) / int(rng.integers(1, 5))


def _gl2(rng):
    while True:
        m = np.array([[_cn(rng), _cn(rng)], [_cn(rng), _cn(rng)]])
        if abs(np.linalg.det(m)) > 0.3:
            return m


# ---------------------------------------------------------------------------
# D1: discrete subgroups of the translation plane


def d1_row(rng, name):
    tau = _tau(rng)
    if name == "D1_1":
        return [(1, 0)]
    if name == "D1_2":
        return [(1, 0), (0, 1)]
    if name == "D1_3":
        return [(1, 0), (tau, 0)]
    if name == "D1_4":
        return [(1, 0), (tau, 0), (0, 1)]
    if name == "D1_5":
        sigma = _cn(rng)
        if abs(sigma.imag) < 0.3:
            sigma += 0.5j
        return [(1, 0), (tau, sigma), (0, 1)]
    return [(1, 0), (tau, 0), (0, 1), (0, _tau(rng))]


def move_d1(rng, gens):
    m = _gl2(rng)
    moved = [tuple(complex(x) for x in m @ np.array(g, dtype=complex)) for g in gens]
    return [moved[i] for i in rng.permutation(len(moved))]


# ---------------------------------------------------------------------------
# D2: discrete subgroups of uAff(C), generated as (a, b) pairs


def d2_row(rng, name):
    k = int(rng.integers(1, 4))
    tau = _tau(rng)
    b = _cn(rng)
    a = _cn(rng)
    if abs(a) < 0.2:
        a += 0.5
    w = TWO_PI_I
    rows = {
        "D2_1": [(0, 1)],
        "D2_2": [(0, 1), (0, tau)],
        "D2_3": [(w * k, 1)],
        "D2_4": [(w * k, b), (0, 1)],
        "D2_5": [(w * k, b), (0, 1), (0, tau)],
        "D2_6": [(a, 0)],
        "D2_7": [(w * (k + 0.5), 0), (0, 1)],
        "D2_8": [(w * (k + 0.5), 0), (0, 1), (0, tau)],
        "D2_9": [(1j * math.pi * (k + 0.5), 0), (0, 1), (0, 1j)],
        "D2_10": [(w * (k + 1 / 6), 0), (0, 1), (0, OMEGA)],
        "D2_11": [(w * (k + 2 / 6), 0), (0, 1), (0, OMEGA)],
        "D2_12": [(w * (k + 4 / 6), 0), (0, 1), (0, OMEGA)],
        "D2_13": [(w * (k + 5 / 6), 0), (0, 1), (0, OMEGA)],
        "D2_14": [(1, 0), (complex(rng.uniform(-0.4, 0.4), rng.uniform(0.9, 1.5)), 0)],
    }
    return [(complex(a_), complex(b_)) for a_, b_ in rows[name]]


def shuffle(rng, gens, mul, inv):
    gens = list(gens)
    for _ in range(6):
        op = int(rng.integers(3))
        i = int(rng.integers(len(gens)))
        j = int(rng.integers(len(gens)))
        if op == 0 and i != j:
            gens[i] = mul(gens[i], gens[j])
        elif op == 1:
            gens[i] = inv(gens[i])
        else:
            gens[i], gens[j] = gens[j], gens[i]
    return gens


def move_d2(rng, gens):
    gamma, beta = _cn(rng), cmath.exp(_cn(rng, 0.5))
    gens = [oracle.uaff_aut(gamma, beta, g) for g in gens]
    return shuffle(rng, gens, oracle.uaff_mul, oracle.uaff_inv)


# ---------------------------------------------------------------------------
# Bβ1: discrete subgroups of the commutant Q_D x| C


def line_divisor(rng, lam):
    """[lam] + sum [lam + 2 pi i k] over coprime k in 1..2."""
    from homsurf.divisor import Divisor

    while True:
        ks = sorted(set(int(k) for k in rng.integers(1, 3, size=int(rng.integers(1, 3)))))
        if math.gcd(*ks) == 1:
            return Divisor([(lam, 1)] + [(lam + TWO_PI_I * k, 1) for k in ks])


def bb1_label(rng, name):
    from homsurf import bbeta

    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    tau = _tau(rng)
    s = _cn(rng, 0.4)
    lam = {
        "B": _cn(rng, 0.4),
        "C": TWO_PI_I * m / n,
        "E": TWO_PI_I * m / n,
        "H": TWO_PI_I * m / n,
        "F": 1j * math.pi * (2 * m + 1) / n,
        "I": 1j * math.pi * (2 * m + 1) / n,
    }.get(name, 0.0)
    D = line_divisor(rng, lam)
    kw = {"n": n}
    if name in ("E", "H"):
        kw["s"] = s
    if name in ("G", "H", "I"):
        kw["tau"] = tau
    return bbeta.BBeta1Label(name, D, **kw)


def bb1_generators(rng, name):
    from homsurf import bbeta

    label = bb1_label(rng, name)
    D = label.divisor
    conj = bbeta.table_automorphism(D, nu=cmath.exp(_cn(rng, 0.5)), t=_cn(rng))
    gens = [conj(g) for g in bbeta.quotient_cover(label).pi_generators()]
    return shuffle(rng, gens, bbeta.cent_multiply, bbeta.cent_inverse), D


# ---------------------------------------------------------------------------
# the stream


class Case:
    """One classifier input: ambient, the row it was built from (or REJECT), payload."""

    __slots__ = ("ambient", "expected", "payload", "fault")

    def __init__(self, ambient, expected, payload, fault=None):
        self.ambient, self.expected, self.payload, self.fault = ambient, expected, payload, fault


def make_round(rng):
    from homsurf import bbeta, uaff

    cases = [Case("C2", name, move_d1(rng, d1_row(rng, name))) for name in D1_ROWS]
    for name in D2_ROWS:
        gens = move_d2(rng, d2_row(rng, name))
        cases.append(Case("uaff", D2_EXPECTED[name], [uaff.UAffElement(a, b) for a, b in gens]))
    for name in BB1_ROWS:
        cases.append(Case("qd", name, bb1_generators(rng, name)))

    r = _irrational(rng)
    cases.append(Case("C2", REJECT, move_d1(rng, [(1, 0), (r, 0)])))
    r = _irrational(rng)
    gens = move_d2(rng, [(0j, 1 + 0j), (0j, complex(r))])
    cases.append(Case("uaff", REJECT, [uaff.UAffElement(a, b) for a, b in gens]))
    r = _irrational(rng)
    gens = move_d2(rng, [(1 + 0j, 0j), (complex(r), 0j)])
    cases.append(Case("uaff", REJECT, [uaff.UAffElement(a, b) for a, b in gens]))
    r = _irrational(rng)
    D = line_divisor(rng, _cn(rng, 0.4))
    nu = cmath.exp(_cn(rng, 0.5))
    cases.append(Case("qd", REJECT, ([bbeta.CentralizerElement(D, 0j, nu), bbeta.CentralizerElement(D, 0j, nu * r)], D)))

    cases += [Case("C2", REJECT, gens, fault=name) for name, gens in KNOWN_FAULTS]
    return [cases[i] for i in rng.permutation(len(cases))]


def classify(case):
    """What `homsurf classify` computes for the case; an exception is returned, not raised."""
    from homsurf import bbeta, families, uaff

    try:
        if case.ambient == "C2":
            return families.classify_D1_subgroup(case.payload)
        if case.ambient == "uaff":
            label, phi = uaff.classify_subgroup(case.payload)
            return label, phi, uaff.center_intersection(label)
        gens, D = case.payload
        return bbeta.classify_pi(gens, D)
    except Exception as e:  # noqa: BLE001 - every outcome is checked, exceptions included
        return e


class Workload(harness.Workload):
    known_faults = tuple(name for name, _ in KNOWN_FAULTS)

    def __init__(self, seed, smoke=False):
        from homsurf.numeric import NonDiscreteError

        self.non_discrete = NonDiscreteError
        rng = np.random.default_rng([seed, 2])
        self.pool = [make_round(rng) for _ in range(1 if smoke else POOL_ROUNDS)]
        self.trace_rounds = len(self.pool)

    def round_ops(self, r):
        return [lambda c=c: classify(c) for c in self.pool[r % len(self.pool)]]

    def check(self, r, i, out):
        case = self.pool[r % len(self.pool)][i]
        if case.fault:
            # fixed once the input is rejected with an input error
            return "ok" if isinstance(out, ValueError) else "known-fault"
        if case.expected == REJECT:
            return "ok" if isinstance(out, self.non_discrete) else "wrong"
        if isinstance(out, Exception):
            return "wrong"
        if case.ambient == "C2":
            return "ok" if out.label == case.expected and d1_transform_ok(case.payload, out) else "wrong"
        if case.ambient == "uaff":
            return "ok" if out[0].name == case.expected else "wrong"
        return "ok" if out.label.name == case.expected else "wrong"


def d1_transform_ok(gens, res):
    """The transform maps the input lattice onto the Z-span of the normalized generators."""
    A = np.array(res.transform, dtype=complex)
    images = [tuple(A @ np.array(g, dtype=complex)) for g in gens]
    return oracle.same_zspan(images, list(res.generators))
