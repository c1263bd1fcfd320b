"""Seeded property suites behind `homsurf verify`.

Each family label gets a suite: the group and action axioms at randomly
sampled elements, a faithfulness probe, and whatever family-specific checks
apply (matrix oracle and subgroup classification for the affine group,
annihilator exactness and covering equivariance for the divisor families,
quadric geometry for the point-pair surface, chart consistency for the line
bundles, and so on).  Suites are deterministic given (seed, family).  Each
suite, and each helper that draws a family's values, imports the family's
modules when it runs, so loading this module loads only `numeric` and `families`.
"""

from __future__ import annotations

import cmath
import math
import zlib

import numpy as np

from . import families
from .numeric import TWO_PI_I, Record, close, distance, distance_for, product3, setfield


# ---------------------------------------------------------------------------
# the report


class VerificationReport(Record):
    __slots__ = ("family", "checks", "samples", "max_error", "passed", "failures")

    def __init__(self, family, checks, samples, max_error, passed, failures=()):
        setfield(self, "family", family)
        setfield(self, "checks", checks)
        setfield(self, "samples", samples)
        setfield(self, "max_error", max_error)
        setfield(self, "passed", passed)
        setfield(self, "failures", failures)

    def to_json(self):
        return {
            "family": self.family,
            "checks": list(self.checks),
            "samples": self.samples,
            "max_error": self.max_error,
            "passed": self.passed,
            "failures": list(self.failures),
        }


class Recorder:
    def __init__(self):
        self.checks = {}  # check names in the order first recorded; the values are unused
        self.max_error = 0.0
        self.failures = []

    def value(self, name, err, tol):
        self.checks[name] = None
        self.max_error = max(self.max_error, float(err))
        if err > tol:
            self.failures.append(f"{name}: error {err:.3e} > {tol:.1e}")

    def boolean(self, name, ok, detail=""):
        self.checks[name] = None
        if not ok:
            self.failures.append(f"{name}: {detail or 'failed'}")


# ---------------------------------------------------------------------------
# shared random data


def rng_for(seed, family):
    return np.random.default_rng([int(seed), zlib.crc32(family.encode())])


def random_line_divisor(rng, lam=None, max_k=4):
    """Divisor [lam] + sum [lam + 2 pi i k_j] with coprime positive k_j."""
    from .divisor import Divisor
    if lam is None:
        lam = complex(rng.standard_normal(), rng.standard_normal()) * 0.5
    count = int(rng.integers(1, 3))
    while True:
        ks = sorted(set(int(k) for k in rng.integers(1, max_k + 1, size=count)))
        if math.gcd(*ks) == 1:
            break
    return Divisor([(lam, 1)] + [(lam + TWO_PI_I * k, 1) for k in ks]), lam, ks


def random_divisor(rng, max_deg=6):
    from .divisor import Divisor
    deg = int(rng.integers(2, max_deg + 1))
    pts = []
    total = 0
    while total < deg:
        p = complex(rng.standard_normal(), rng.standard_normal()) * 1.2
        if all(abs(p - q) > 0.25 for q, _ in pts):
            m = int(rng.integers(1, min(3, deg - total) + 1))
            pts.append((p, m))
            total += m
    return Divisor(pts)


def random_tau(rng):
    return complex(-0.45 + (0.45 - -0.45) * rng.random(), 0.9 + (1.6 - 0.9) * rng.random())


# ---------------------------------------------------------------------------
# axioms common to every family

# the largest distance the group laws and the action law may leave at a sample
AXIOMS_TOL = 1e-9


def axioms_suite(label, handler, rng, samples, rec):
    element_distance = families.SPECS[label].distance
    point_distance = None
    ident = handler.identity()
    for _ in range(samples):
        g = handler.random_element(rng)
        h = handler.random_element(rng)
        k = handler.random_element(rng)
        x = handler.random_point(rng)  # the group law draws nothing: x is the fourth draw of a sample either way
        if point_distance is None:
            # the first sample fixes the shapes: both distances skip the dispatch of `distance` from here on
            point_distance = distance_for(x)
            if element_distance is distance:
                element_distance = distance_for(g)
        gh = handler.multiply(g, h)
        lhs = handler.multiply(gh, k)
        rhs = handler.multiply(g, handler.multiply(h, k))
        rec.value("associativity", element_distance(lhs, rhs), AXIOMS_TOL)
        rec.value("identity", element_distance(handler.multiply(g, ident), g), AXIOMS_TOL)
        gi = handler.inverse(g)
        rec.value("inverse", element_distance(handler.multiply(g, gi), ident), AXIOMS_TOL)
        rec.value("action", point_distance(handler.act(gh, x), handler.act(g, handler.act(h, x))), AXIOMS_TOL)
    for _ in range(max(1, samples // 50)):
        g = handler.random_element(rng)
        if element_distance(g, ident) < 1e-6:
            continue
        moved = any(
            point_distance(handler.act(g, p), p) > 1e-6
            for p in (handler.random_point(rng) for _ in range(20))
        )
        rec.boolean("faithfulness", moved, "non-identity element fixed all probes")


# ---------------------------------------------------------------------------
# family-specific suites


def suite_exppoly(rng, samples, rec):
    from .exppoly import apply_operator, basis_of, evaluate, monic_polynomial, random_member, translate
    for _ in range(max(5, samples // 10)):
        D = random_divisor(rng)
        op = monic_polynomial(D)
        for f in basis_of(D):
            out = apply_operator(op, f)
            rec.boolean("annihilator-exact", out.is_zero, "basis member not annihilated")
        f = random_member(D, rng)
        g = random_member(D, rng)
        a = complex(rng.standard_normal(), rng.standard_normal())
        lin = apply_operator(op, f.scale(a) + g)
        rhs = apply_operator(op, f).scale(a) + apply_operator(op, g)
        rec.value("operator-linearity", distance(lin, rhs), 1e-9)
        s = complex(rng.standard_normal(), rng.standard_normal()) * 0.5
        t = complex(rng.standard_normal(), rng.standard_normal()) * 0.5
        rec.value(
            "translation-flow", distance(translate(translate(f, s), t), translate(f, s + t)), 1e-9
        )
        z = complex(rng.standard_normal(), rng.standard_normal()) * 0.5
        rec.value(
            "translate-evaluate", distance(evaluate(translate(f, t), z), evaluate(f, z - t)), 1e-9
        )


def suite_divisor(rng, samples, rec):
    from .divisor import equivalent_mod_affine, equivalent_mod_rescaling, quasiperiod_group, weight
    for _ in range(max(5, samples // 10)):
        D, lam, ks = random_line_divisor(rng)
        qg = quasiperiod_group(D)
        rec.boolean("quasiperiod-rank1", qg.kind == "rank1" and close(qg.generator, 1.0, tol=1e-8))
        shift = complex(rng.standard_normal(), rng.standard_normal())
        qg2 = quasiperiod_group(D.translated(shift))
        rec.boolean("quasiperiod-translation-invariant", qg2.kind == "rank1" and close(qg2.generator, qg.generator, tol=1e-8))
        mu = cmath.exp(complex(rng.standard_normal(), rng.standard_normal()) * 0.5)
        qg3 = quasiperiod_group(D.scaled(mu))
        err = min(
            distance(qg3.generator, qg.generator / mu),
            distance(qg3.generator, -qg.generator / mu),
        )
        rec.value("quasiperiod-rescaling", err, 1e-8)
        w1 = float(rng.integers(1, 4))
        w2 = float(rng.integers(1, 4))
        rec.value(
            "weight-multiplicative",
            distance(weight(D, w1 + w2), weight(D, w1) * weight(D, w2)),
            1e-9,
        )
        E = random_divisor(rng, max_deg=5)
        mu = cmath.exp(complex(rng.standard_normal(), rng.standard_normal()) * 0.5)
        a = complex(rng.standard_normal(), rng.standard_normal())
        got = equivalent_mod_rescaling(E, E.scaled(mu))
        ok = got is not None and equivalent_mod_rescaling(E.scaled(got), E.scaled(mu)) is not None
        rec.boolean("rescaling-detected", ok)
        F = E.scaled(mu).translated(a)
        got2 = equivalent_mod_affine(E, F)
        ok2 = got2 is not None and all(
            any(close(q, got2[0] * p + got2[1], tol=1e-6) and mm == m for q, mm in F.points)
            for p, m in E.points
        )
        rec.boolean("affine-detected", ok2)
        rec.boolean("rescaling-reflexive", equivalent_mod_rescaling(E, E) is not None)


def suite_uaff_extra(rng, samples, rec):
    from . import uaff
    for _ in range(samples):
        g = uaff.UAffElement(complex(rng.standard_normal(), rng.standard_normal()), complex(rng.standard_normal(), rng.standard_normal()))
        h = uaff.UAffElement(complex(rng.standard_normal(), rng.standard_normal()), complex(rng.standard_normal(), rng.standard_normal()))
        m = product3(uaff.uaff_matrix(g), uaff.uaff_matrix(h))
        want = uaff.uaff_matrix(uaff.uaff_multiply(g, h))
        rec.value("matrix-oracle", families._matrix_distance(want, m), 1e-10)
        phi = uaff.UAffAutomorphism(complex(rng.standard_normal(), rng.standard_normal()), cmath.exp(complex(rng.standard_normal(), rng.standard_normal())))
        lhs = uaff.aut_apply(phi, uaff.uaff_multiply(g, h))
        rhs = uaff.uaff_multiply(uaff.aut_apply(phi, g), uaff.aut_apply(phi, h))
        rec.value("automorphism-homomorphism", distance(lhs, rhs), 1e-10)
        com = uaff.commutator(g, uaff.UAffElement(0, 1))
        rec.value(
            "commutator-identity",
            distance(com, uaff.UAffElement(0, cmath.exp(g.a) - 1)),
            1e-10,
        )
    _uaff_classify_stability(rng, max(3, samples // 20), rec)
    _uaff_product_covers(rng, max(3, samples // 10), rec)


def random_d2_generators(rng, name):
    from . import uaff
    k = int(rng.integers(1, 4))
    tau = random_tau(rng)
    b = complex(rng.standard_normal(), rng.standard_normal())
    a = complex(rng.standard_normal(), rng.standard_normal())
    if abs(a) < 0.2:
        a = a + 0.5
    label = uaff.D2Label(
        name,
        k=k,
        b=b,
        tau=tau,
        a=a,
        a1=1.0 + 0j if name == "D2_14" else None,
        a2=complex(-0.4 + (0.4 - -0.4) * rng.random(), 0.9 + (1.5 - 0.9) * rng.random()) if name == "D2_14" else None,
    )
    return list(uaff.normal_form_generators(label)), label


D2_NAMES = tuple(f"D2_{i}" for i in range(1, 15))


def _shuffle_generators(gens, rng, mult, inv):
    gens = list(gens)
    for _ in range(6):
        op = int(rng.integers(3))
        i = int(rng.integers(len(gens)))
        j = int(rng.integers(len(gens)))
        if op == 0 and i != j:
            gens[i] = mult(gens[i], gens[j])
        elif op == 1:
            gens[i] = inv(gens[i])
        else:
            gens[i], gens[j] = gens[j], gens[i]
    return gens


def _uaff_classify_stability(rng, trials, rec):
    from . import uaff
    for _ in range(trials):
        name = D2_NAMES[int(rng.integers(len(D2_NAMES)))]
        gens, _ = random_d2_generators(rng, name)
        phi = uaff.UAffAutomorphism(
            complex(rng.standard_normal(), rng.standard_normal()), cmath.exp(complex(rng.standard_normal(), rng.standard_normal()) * 0.5)
        )
        gens = [uaff.aut_apply(phi, g) for g in gens]
        gens = _shuffle_generators(gens, rng, uaff.uaff_multiply, uaff.uaff_inverse)
        try:
            got, _ = uaff.classify_subgroup(gens)
            rec.boolean(
                "classify-stability",
                got.name == uaff.CANONICAL_ROW[name],
                f"{name} -> {got.name}",
            )
        except Exception as e:  # noqa: BLE001
            rec.boolean("classify-stability", False, f"{name}: {e}")
        nonabelian = name in uaff.NONABELIAN_LABELS
        base, _ = random_d2_generators(rng, name)
        some = any(
            not uaff.uaff_is_identity(uaff.commutator(x, y)) for x in base for y in base
        )
        rec.boolean("nonabelian-detection", some == nonabelian, name)


def _uaff_product_covers(rng, trials, rec):
    from . import uaff
    for _ in range(trials):
        name = ("D2_1", "D2_2", "D2_3", "D2_4", "D2_5", "D2_6", "D2_14")[int(rng.integers(7))]
        gens, label = random_d2_generators(rng, name)
        pt = uaff.UAffElement(complex(rng.standard_normal(), rng.standard_normal()), complex(rng.standard_normal(), rng.standard_normal()))
        img = uaff.product_cover(label, pt)
        for g in gens:
            img2 = uaff.product_cover(label, uaff.uaff_multiply(pt, g))
            rec.value("product-cover-coset", distance(img, img2), 1e-7)


def suite_d1_extra(rng, samples, rec):
    from .d1 import classify_D1_subgroup
    labels = ("D1", "D1_1", "D1_2", "D1_3", "D1_4", "D1_5", "D1_6")
    for _ in range(max(3, samples // 10)):
        name = labels[int(rng.integers(len(labels)))]
        gens, _ = random_d1_generators(rng, name)
        (a, b), (c, d) = families._matrix(rng, min_det=0.3, scale=1.0)
        gens = [(a * x + b * y, c * x + d * y) for x, y in gens]
        if gens:
            order = rng.permutation(len(gens))
            gens = [gens[i] for i in order]
        try:
            got = classify_D1_subgroup(gens)
            rec.boolean("classify-stability", got.label == name, f"{name} -> {got.label}")
        except Exception as e:  # noqa: BLE001
            rec.boolean("classify-stability", False, f"{name}: {e}")


def random_d1_generators(rng, name):
    tau = random_tau(rng)
    if name == "D1":
        return [], {}
    if name == "D1_1":
        return [(1, 0)], {}
    if name == "D1_2":
        return [(1, 0), (0, 1)], {}
    if name == "D1_3":
        return [(1, 0), (tau, 0)], {"tau": tau}
    if name == "D1_4":
        return [(1, 0), (tau, 0), (0, 1)], {"tau": tau}
    if name == "D1_5":
        if rng.integers(2):
            sigma = complex(rng.standard_normal(), rng.standard_normal())
            if abs(sigma.imag) < 0.1:
                sigma += 0.3j
        else:
            sigma = math.sqrt(2) * (1 + float(rng.integers(1, 4)))
        return [(1, 0), (tau, sigma), (0, 1)], {"tau": tau, "sigma": sigma}
    if name == "D1_6":
        t2 = random_tau(rng)
        return [(1, 0), (tau, 0), (0, 1), (0, t2)], {"tau": tau}
    raise ValueError(name)


def suite_bbeta1_extra(rng, samples, rec):
    suite_exppoly(rng, samples, rec)
    _quasiperiod_oracle(rng, max(4, samples // 25), rec)
    _weight_consistency(rng, max(4, samples // 25), rec)
    _gd_structure(rng, max(10, samples // 4), rec)
    _covers_suite(rng, max(10, samples // 2), rec)
    _classify_pi_stability(rng, max(4, samples // 20), rec)


def _gd_structure(rng, samples, rec):
    from . import bbeta, exppoly
    D, _, _ = random_line_divisor(rng, max_k=2)
    E = random_divisor(rng, max_deg=4)
    for _ in range(samples):
        g = bbeta.random_gd(E, rng, scale=0.5)
        h = bbeta.random_gd(E, rng, scale=0.5)
        rec.boolean("vd-closure-exact", exppoly.contains(E, bbeta.rgd_multiply(g, h).f))
        gg = bbeta.random_gd(D, rng, scale=0.4)
        k = int(rng.integers(-2, 3))
        c = bbeta.CentralizerElement(D, k, complex(rng.standard_normal(), rng.standard_normal()))
        x = (complex(rng.standard_normal(), rng.standard_normal()) * 0.4, complex(rng.standard_normal(), rng.standard_normal()) * 0.4)
        lhs = bbeta.cent_act(c, bbeta.rgd_act(gg, x))
        rhs = bbeta.rgd_act(gg, bbeta.cent_act(c, x))
        rec.value("centralizer-commutes", distance(lhs, rhs), 1e-9)


def _quasiperiod_oracle(rng, trials, rec):
    from .divisor import quasiperiod_group
    from .exppoly import ExpPoly, evaluate
    for _ in range(trials):
        D, lam, ks = random_line_divisor(rng)
        qg = quasiperiod_group(D)
        rec.boolean("quasiperiod-shape", qg.kind == "rank1" and close(qg.generator, 1.0, tol=1e-8))
        pts = D.support
        c1 = complex(rng.standard_normal(), rng.standard_normal()) + 2.0
        c2 = complex(rng.standard_normal(), rng.standard_normal()) + 2.0
        i, j = 0, int(rng.integers(1, len(pts)))
        la, lb = pts[i], pts[j]
        root = (cmath.log(-c2 / c1)) / (la - lb)
        f = ExpPoly.exponential(la).scale(c1) + ExpPoly.exponential(lb).scale(c2)
        rec.value("oracle-root", abs(evaluate(f, root)) / max(1.0, abs(c1) + abs(c2)), 1e-8)
        rec.value(
            "oracle-translated-root",
            abs(evaluate(f, root + qg.generator)) / max(1.0, abs(c1) + abs(c2)),
            1e-8,
        )
        M = random_divisor(rng)
        if all(m == 1 for _, m in M.points):
            M = M.plus_point(M.support[0])
        rec.boolean("multiplicity-trivial", quasiperiod_group(M).is_trivial)


def _weight_consistency(rng, trials, rec):
    from . import divisor, exppoly
    for _ in range(trials):
        D, lam, ks = random_line_divisor(rng)
        w = float(rng.integers(1, 4))
        gw = divisor.weight(D, w)
        for _ in range(5):
            f = exppoly.random_member(D, rng)
            f0 = exppoly.evaluate(f, 0.0)
            if abs(f0) < 1e-3:
                continue
            rec.value("weight-vs-ratio", distance(exppoly.evaluate(f, w) / f0, gw), 1e-9)
        rec.value("weight-multiplicative", distance(divisor.weight(D, w + 1), gw * divisor.weight(D, 1.0)), 1e-9)


def sample_cover_labels(rng):
    """One label instance per quotient example B..I, with admissible parameters."""
    from . import bbeta
    out = []
    n = int(rng.integers(1, 4))
    tau = random_tau(rng)
    lam_gen = complex(rng.standard_normal(), rng.standard_normal()) * 0.4
    D, _, _ = random_line_divisor(rng, lam=lam_gen, max_k=2)
    out.append(bbeta.BBeta1Label("B", D, n=n))
    m = int(rng.integers(1, 3))
    DC, _, _ = random_line_divisor(rng, lam=TWO_PI_I * m / n, max_k=2)
    out.append(bbeta.BBeta1Label("C", DC, n=n))
    D0, _, _ = random_line_divisor(rng, lam=0.0, max_k=2)
    out.append(bbeta.BBeta1Label("D", D0, n=n))
    s = complex(rng.standard_normal(), rng.standard_normal()) * 0.4
    out.append(bbeta.BBeta1Label("E", DC, n=n, s=s))
    DF, _, _ = random_line_divisor(rng, lam=1j * math.pi * (2 * m + 1) / n, max_k=2)
    out.append(bbeta.BBeta1Label("F", DF, n=n))
    out.append(bbeta.BBeta1Label("G", D0, n=n, tau=tau))
    out.append(bbeta.BBeta1Label("H", DC, n=n, s=s, tau=tau))
    DI, _, _ = random_line_divisor(rng, lam=1j * math.pi * (2 * m + 1) / n, max_k=2)
    out.append(bbeta.BBeta1Label("I", DI, n=n, tau=tau))
    return out


def _cover_sample(rng, D):
    """A bounded sample (g, (z, w)) keeping the exponential covers in range."""
    from . import bbeta
    for _ in range(64):
        z = complex(-0.5 + (0.5 - -0.5) * rng.random(), -0.25 + (0.25 - -0.25) * rng.random())
        w = complex(rng.standard_normal(), rng.standard_normal()) * 0.5
        g = bbeta.random_gd(D, rng, scale=0.25)
        y = bbeta.rgd_act(g, (z, w))
        if abs(y[1]) < 12 and abs(y[0].imag) < 0.8:
            return g, (z, w)
    raise AssertionError("could not sample a bounded cover point")


def _covers_suite(rng, samples, rec):
    from . import bbeta
    for label in sample_cover_labels(rng):
        cov = bbeta.quotient_cover(label)
        D = label.divisor
        for _ in range(max(3, samples // 8)):
            g, (z, w) = _cover_sample(rng, D)
            lhs = cov.cover(*bbeta.rgd_act(g, (z, w)))
            rhs = cov.act(g, cov.cover(z, w))
            rec.boolean(
                f"cover-equivariance-{label.name}", cov.equal(lhs, rhs), label.name
            )
            for pg in cov.pi_generators():
                moved = bbeta.cent_act(pg, (z, w))
                rec.boolean(
                    f"cover-invariance-{label.name}",
                    cov.equal(cov.cover(*moved), cov.cover(z, w)),
                    label.name,
                )
            rec.boolean(f"cover-jacobian-{label.name}", cov.jacobian_ok(z, w), label.name)


def _classify_pi_stability(rng, trials, rec):
    from . import bbeta
    for _ in range(trials):
        labels = sample_cover_labels(rng)
        label = labels[int(rng.integers(len(labels)))]
        cov = bbeta.quotient_cover(label)
        gens = cov.pi_generators()
        D = label.divisor
        conj = bbeta.table_automorphism(
            D,
            nu=cmath.exp(complex(rng.standard_normal(), rng.standard_normal()) * 0.5),
            t=complex(rng.standard_normal(), rng.standard_normal()),
        )
        gens = [conj(g) for g in gens]
        gens = _shuffle_generators(gens, rng, bbeta.cent_multiply, bbeta.cent_inverse)
        try:
            got = bbeta.classify_pi(gens, D)
            rec.boolean("classify-pi-stability", got.label.name == label.name, f"{label.name} -> {got.label.name}")
        except Exception as e:  # noqa: BLE001
            rec.boolean("classify-pi-stability", False, f"{label.name}: {e}")


def suite_bbeta2_extra(rng, samples, rec):
    from . import bbeta
    D0, _, _ = random_line_divisor(rng, lam=0.0, max_k=3)
    n = int(rng.integers(1, 4))
    cov = bbeta.quotient_cover(bbeta.BBeta1Label("Bb2", D0, n=n))
    for _ in range(max(5, samples // 4)):
        z = complex(-0.5 + (0.5 - -0.5) * rng.random(), -0.35 + (0.35 - -0.35) * rng.random())
        w = complex(rng.standard_normal(), rng.standard_normal()) * 0.7
        g = bbeta.random_rgd(D0, rng, scale=0.4)
        lhs = cov.cover(*bbeta.rgd_act(g, (z, w)))
        rhs = cov.act(g, cov.cover(z, w))
        rec.boolean("rgd-cover-equivariance", cov.equal(lhs, rhs))
        rec.boolean(
            "rgd-cover-invariance",
            cov.equal(cov.cover(z + n, w), cov.cover(z, w)),
        )
    _morphism_suite(rng, max(5, samples // 4), rec)


def _morphism_suite(rng, samples, rec):
    from . import bbeta, exppoly
    D = random_divisor(rng, max_deg=4)
    for group in ("gd", "rgd"):
        rand = bbeta.random_gd if group == "gd" else bbeta.random_rgd
        g0 = rand(D, rng, scale=0.5)
        morphs = [
            bbeta.inner_morphism(g0),
            bbeta.rescaling_morphism(
                D,
                mu=cmath.exp(complex(rng.standard_normal(), rng.standard_normal()) * 0.4),
                nu=cmath.exp(complex(rng.standard_normal(), rng.standard_normal()) * 0.4),
            ),
        ]
        if group == "gd":
            morphs.append(bbeta.shear_morphism(D, exppoly.random_member(D.plus_point(0j), rng, scale=0.5)))
        else:
            morphs.append(bbeta.translation_morphism(D, complex(rng.standard_normal(), rng.standard_normal()) * 0.4))
        for kind, mor in enumerate(morphs, start=1):
            for _ in range(max(3, samples // 6)):
                g = rand(D, rng, scale=0.5)
                x = (complex(rng.standard_normal(), rng.standard_normal()) * 0.5, complex(rng.standard_normal(), rng.standard_normal()) * 0.5)
                lhs = mor.delta(bbeta.rgd_act(g, x))
                rhs = bbeta.rgd_act(mor.h(g), mor.delta(x))
                rec.value(f"morphism-{group}-kind{kind}", distance(lhs, rhs), 1e-8)


def suite_c9_extra(rng, samples, rec):
    from . import projective
    handler = families.build_family("C9")
    for _ in range(samples):
        x = handler.random_point(rng)
        ex, ey, ez = projective.quadric_embed(x)
        # the rounding error of the embedding grows like |y|^2: the bound is relative to it above |y| = 1
        rec.value("quadric-identity", abs(ey * ey - 4 * ex * ez - 1.0), 1e-9 * max(1.0, abs(ey) ** 2))
        c = projective.quadric_double_cover(x)
        cs = projective.quadric_double_cover(x.swapped())
        rec.boolean("double-cover-swap", c.distance(cs) <= 1e-9)
        p1, p2 = projective.quadric_preimages(c)
        rec.boolean("double-cover-preimages", min(p1.distance(x), p2.distance(x)) <= 1e-6)
        g = handler.random_element(rng)
        lhs = projective.quadric_double_cover(projective.quadric_act(g, x))
        rhs = projective.conic_complement_act(g, projective.quadric_double_cover(x))
        rec.boolean("c9-equivariance", lhs.distance(rhs) <= 1e-8)


def suite_bundle_charts(rng, samples, rec, n):
    from . import projective
    handler = families.build_family("Bδ4", n=n)
    for _ in range(samples):
        e = handler.random_element(rng)
        z = complex(rng.standard_normal(), rng.standard_normal())
        if abs(z) < 0.05:
            z += 0.3
        w = complex(rng.standard_normal(), rng.standard_normal())
        p0 = projective.BundlePoint(n, 0, z, w)
        p1 = p0.to_chart(1)
        r0 = projective.on_act(e, p0)
        r1 = projective.on_act(e, p1)
        rec.value("chart-consistency", distance(r0, r1), 1e-8)


def suite_sc(rng, samples, rec):
    from . import bundles
    lam1, lam2 = 1.0 + 0j, 1j
    for c in (1.0 + 0j, -1.0 + 0j, 1j):
        data = bundles.SCData(lam1, lam2, c)
        for _ in range(max(3, samples // 10)):
            phi = random_sc_biholo(rng, data)
            rec.boolean(f"sc-normalizes-c={c}", bundles.normalizes_deck(phi, rng=rng), str(c))
        for _ in range(max(2, samples // 25)):
            bad = corrupt_sc_map(rng, data)
            rec.boolean(
                f"sc-corrupt-fails-c={c}",
                not bundles.map_normalizes_deck(bad, data, rng),
                str(c),
            )
        for _ in range(max(2, samples // 33)):
            f1 = bundles.as_map(random_sc_biholo(rng, data))
            f2 = bundles.as_map(random_sc_biholo(rng, data))
            rec.boolean(
                f"sc-composition-c={c}",
                bundles.map_normalizes_deck(f1.compose(f2), data, rng),
                str(c),
            )


def random_sc_biholo(rng, data):
    from . import bundles
    case = data.case
    units = [1, -1, 1j, -1j] if abs(data.w2 - 1j) < 1e-9 and abs(data.w1 - 1) < 1e-9 else [1, -1]
    b = units[int(rng.integers(len(units)))]
    sign = 1 if case == "root" else int(rng.choice([1, -1]))
    lam0 = float(rng.integers(-2, 3)) * data.w1 + float(rng.integers(-2, 3)) * data.w2
    deg = int(rng.integers(0, 3))
    f = tuple((k, complex(rng.standard_normal(), rng.standard_normal()) * 0.5) for k in range(-deg, deg + 1))
    z0 = complex(rng.standard_normal() * 0.4, -0.15 + (0.15 - -0.15) * rng.random())
    return bundles.SCBiholomorphism(data, sign=sign, z0=z0, b=b, lam0=lam0, f=f)


def corrupt_sc_map(rng, data):
    from . import bundles
    kind = int(rng.integers(3))
    phi = random_sc_biholo(rng, data)
    if kind == 0:
        bad_b = phi.b * (1.3 + 0.1 * rng.random())

        def fwd(z, w):
            zn, wn = bundles.biholo_apply(phi, z, w)
            return (zn, wn + (bad_b - phi.b) * w)

        def bwd(z, w):
            z1 = phi.sign * (z - phi.z0)
            _, f0 = bundles.biholo_apply(phi, z1, 0j)
            return (z1, (w - f0) / bad_b)

        return bundles.PlaneMap(fwd, bwd)
    if kind == 1:
        if close(data.c, 1.0):
            # constant w-offsets are honest biholomorphisms when c = 1;
            # corrupt the base coordinate instead
            s = 1.5 + 0.2 * rng.random()

            def fwd(z, w):
                zn, wn = bundles.biholo_apply(phi, z, w)
                return (s * zn, wn)

            def bwd(z, w):
                return bundles.biholo_inverse_apply(phi, z / s, w)

            return bundles.PlaneMap(fwd, bwd)
        off = (0.37 + 0.11 * rng.random()) * data.w1

        def fwd(z, w):
            zn, wn = bundles.biholo_apply(phi, z, w)
            return (zn, wn + off)

        def bwd(z, w):
            return bundles.biholo_inverse_apply(phi, z, w - off)

        return bundles.PlaneMap(fwd, bwd)
    # wrong fiberwise twist: anti-periodic term for c = 1, untwisted for c != 1
    amp = 0.5 + rng.random()
    freq = 1j * math.pi if close(data.c, 1.0) else 2j * math.pi

    def extra(z):
        return amp * cmath.exp(freq * z)

    def fwd(z, w):
        zn, wn = bundles.biholo_apply(phi, z, w)
        return (zn, wn + extra(z))

    def bwd(z, w):
        z1 = phi.sign * (z - phi.z0)
        _, f0 = bundles.biholo_apply(phi, z1, 0j)
        return (z1, (w - f0 - extra(z1)) / phi.b)

    return bundles.PlaneMap(fwd, bwd)


def suite_bgamma2_center(rng, samples, rec):
    from . import projective
    handler = families.build_family("Bγ2")
    n = handler.n
    for _ in range(max(3, samples // 10)):
        s = complex(rng.standard_normal(), rng.standard_normal())
        shift = projective.bgamma12_element(n, 0.0, 0j, 0j, (0j,) * n + (s,))
        g = handler.random_element(rng)
        x = handler.random_point(rng)
        lhs = handler.act(g, handler.act(shift, x))
        rhs = handler.act(shift, handler.act(g, x))
        rec.value("central-w-translations", distance(lhs, rhs), 1e-9)


# ---------------------------------------------------------------------------
# the runner


EXTRA_SUITES = {
    "D2": suite_uaff_extra,
    "D1": suite_d1_extra,
    "Bβ1": suite_bbeta1_extra,
    "Bβ2": suite_bbeta2_extra,
    "C9": suite_c9_extra,
    "Bδ3": lambda rng, samples, rec: suite_bundle_charts(rng, samples, rec, 2),
    "Bδ4": lambda rng, samples, rec: suite_bundle_charts(rng, samples, rec, 3),
    "Bγ2": suite_bgamma2_center,
}

PSEUDO_SUITES = {
    "exppoly": suite_exppoly,
    "divisor": suite_divisor,
    "SC": suite_sc,
}


def suite_names():
    return list(families.BASE_FAMILY_LABELS) + list(PSEUDO_SUITES)


def run_suite(name, samples=100, seed=0):
    rec = Recorder()
    rng = rng_for(seed, name)
    if name in PSEUDO_SUITES:
        PSEUDO_SUITES[name](rng, samples, rec)
    else:
        handler = families.build_family(name)
        axioms_suite(name, handler, rng, samples, rec)
        extra = EXTRA_SUITES.get(name)
        if extra:
            extra(rng, samples, rec)
    return VerificationReport(
        family=name,
        checks=tuple(rec.checks),
        samples=samples,
        max_error=rec.max_error,
        passed=not rec.failures,
        failures=tuple(rec.failures[:8]),
    )


def run_verification(target="all", samples=100, seed=0):
    """Reports for one suite or all of them; deterministic given the seed."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    names = suite_names()
    if target != "all":
        names = [families.family_label(target, names, "verification suite")]
    return [run_suite(n, samples=samples, seed=seed) for n in names]
