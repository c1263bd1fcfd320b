"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here and never loosened at runtime; random data is
seeded so every run exercises the same cases.
"""

import cmath
import math
import time

import numpy as np

from homsurf import bbeta, bundles, cli, d1, families, projective, uaff, verify
from homsurf.divisor import Divisor, quasiperiod_group, weight
from homsurf.exppoly import apply_operator, basis_of, evaluate, monic_polynomial, random_member
from homsurf.numeric import EPS, distance

TPI = 2j * math.pi
SEED = 20240817


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} ({name}): {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_group_axioms():
    t0 = time.monotonic()
    worst = 0.0
    for label in families.BASE_FAMILY_LABELS:
        handler = families.build_family(label)
        element_distance = families.SPECS[label].distance
        rng = verify.rng_for(SEED, label)
        ident = handler.identity()
        for _ in range(1000):
            g = handler.random_element(rng)
            h = handler.random_element(rng)
            k = handler.random_element(rng)
            lhs = handler.multiply(handler.multiply(g, h), k)
            rhs = handler.multiply(g, handler.multiply(h, k))
            worst = max(worst, element_distance(lhs, rhs))
            worst = max(worst, element_distance(handler.multiply(g, ident), g))
            worst = max(worst, element_distance(handler.multiply(g, handler.inverse(g)), ident))
        assert worst <= 1e-9, (label, worst)
    elapsed = time.monotonic() - t0
    _report(
        1,
        "group axioms, 1000 triples per family",
        worst <= 1e-9 and elapsed < 60.0,
        f"max err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_action_axioms():
    worst = 0.0
    for label in families.BASE_FAMILY_LABELS:
        handler = families.build_family(label)
        rng = verify.rng_for(SEED + 1, label)
        for _ in range(1000):
            g = handler.random_element(rng)
            h = handler.random_element(rng)
            x = handler.random_point(rng)
            lhs = handler.act(handler.multiply(g, h), x)
            rhs = handler.act(g, handler.act(h, x))
            worst = max(worst, verify.distance(lhs, rhs))
        assert worst <= 1e-9, (label, worst)
    _report(2, "action axioms, 1000 samples per family", worst <= 1e-9, f"max err {worst:.2e}")


def test_criterion_03_uaff_matrix_oracle():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(10000):
        g = uaff.UAffElement(complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
        h = uaff.UAffElement(complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
        lhs = np.array(uaff.uaff_matrix(uaff.uaff_multiply(g, h)))
        rhs = np.array(uaff.uaff_matrix(g)) @ np.array(uaff.uaff_matrix(h))
        err = float(np.abs(lhs - rhs).max()) / max(1.0, float(np.abs(rhs).max()))
        worst = max(worst, err)
    _report(3, "uAff 3x3 matrix oracle, 10000 pairs", worst <= 1e-10, f"max err {worst:.2e}")


def test_criterion_04_automorphism_lemma():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        phi = uaff.UAffAutomorphism(
            complex(rng.normal(), rng.normal()), cmath.exp(complex(rng.normal(), rng.normal()))
        )
        for _ in range(100):
            g = uaff.UAffElement(complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
            h = uaff.UAffElement(complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
            lhs = uaff.aut_apply(phi, uaff.uaff_multiply(g, h))
            rhs = uaff.uaff_multiply(uaff.aut_apply(phi, g), uaff.aut_apply(phi, h))
            worst = max(worst, verify.distance(lhs, rhs))
    comm_worst = 0.0
    for _ in range(1000):
        g = uaff.UAffElement(complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
        got = uaff.commutator(g, uaff.UAffElement(0, 1))
        want = uaff.UAffElement(0, cmath.exp(g.a) - 1)
        comm_worst = max(comm_worst, verify.distance(got, want))
    ok = worst <= 1e-10 and comm_worst <= 1e-10
    _report(4, "automorphism lemma + commutator identity", ok, f"{worst:.2e} / {comm_worst:.2e}")


def test_criterion_05_annihilator_exactness():
    rng = np.random.default_rng(SEED)
    ok = True
    for _ in range(50):
        deg = int(rng.integers(2, 9))
        pts = []
        total = 0
        while total < deg:
            p = complex(rng.normal(), rng.normal()) * 1.5
            if all(abs(p - q) > 0.3 for q, _ in pts):
                m = int(rng.integers(1, min(3, deg - total) + 1))
                pts.append((p, m))
                total += m
        D = Divisor(pts)
        op = monic_polynomial(D)
        for f in basis_of(D):
            out = apply_operator(op, f)
            # canonicalization chops at 1e-12 absolute; anything surviving fails
            ok = ok and out.is_zero
    _report(5, "annihilator exactness on 50 random divisors", ok)


def test_criterion_06_quasiperiod_oracle():
    rng = np.random.default_rng(SEED)
    ok = True
    for _ in range(20):
        lam = complex(rng.normal(), rng.normal()) * 0.5
        while True:
            ks = sorted(set(int(k) for k in rng.integers(1, 21, size=int(rng.integers(1, 4)))))
            g = 0
            for k in ks:
                g = math.gcd(g, k)
            if g == 1:
                break
        D = Divisor([(lam, 1)] + [(lam + TPI * k, 1) for k in ks])
        qg = quasiperiod_group(D)
        ok = ok and qg.kind == "rank1" and abs(qg.generator - 1.0) <= 1e-8
        # brute-force two-term root-difference oracle, in normalized form
        pts = D.support
        for b in range(1, len(pts)):
            c1 = complex(rng.normal(), rng.normal()) + 1.5
            c2 = complex(rng.normal(), rng.normal()) + 1.5
            d = pts[b] - pts[0]
            root = cmath.log(-c2 / c1) / (pts[0] - pts[b])

            def fn(z):
                return c1 + c2 * cmath.exp(d * z)

            ok = ok and abs(fn(root)) <= 1e-8
            ok = ok and abs(fn(root + qg.generator)) <= 1e-8
        # minimality: 1/m is not a quasiperiod for any m >= 2
        for m in range(2, max(ks) + 1):
            breaks = any(abs(cmath.exp(TPI * k / m) - 1.0) > 1e-3 for k in ks)
            ok = ok and breaks
    for _ in range(20):
        pts = [(complex(rng.normal(), rng.normal()), int(rng.integers(2, 4)))]
        if rng.integers(2):
            q = pts[0][0] + 1.5 + 0.5j
            pts.append((q, 1))
        ok = ok and quasiperiod_group(Divisor(pts)).is_trivial
    _report(6, "quasiperiod group vs brute-force root oracle", ok)


def test_criterion_07_weight_consistency():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(20):
        D, lam, ks = verify.random_line_divisor(rng)
        w = float(rng.integers(1, 4))
        gw = weight(D, w)
        done = 0
        while done < 5:
            f = random_member(D, rng)
            f0 = evaluate(f, 0.0)
            if abs(f0) < 1e-2:
                continue
            done += 1
            worst = max(worst, verify.distance(evaluate(f, w) / f0, gw))
        w2 = float(rng.integers(1, 4))
        worst = max(worst, verify.distance(weight(D, w + w2), gw * weight(D, w2)))
    _report(7, "weight = f(w)/f(0) and multiplicativity", worst <= 1e-9, f"max err {worst:.2e}")


def test_criterion_08_covering_equivariance():
    rng = np.random.default_rng(SEED)
    ok = True
    tested = set()
    for label in verify.sample_cover_labels(rng):
        cov = bbeta.quotient_cover(label)
        tested.add(label.name)
        for _ in range(500):
            g, x = verify._cover_sample(rng, label.divisor)
            lhs = cov.cover(*bbeta.rgd_act(g, x))
            rhs = cov.act(g, cov.cover(*x))
            ok = ok and cov.equal(lhs, rhs)
            for pg in cov.pi_generators():
                y = bbeta.cent_act(pg, x)
                ok = ok and cov.equal(cov.cover(*y), cov.cover(*x))
        assert ok, label.name
    assert tested == {"B", "C", "D", "E", "F", "G", "H", "I"}
    D0, _, _ = verify.random_line_divisor(rng, lam=0.0, max_k=2)
    cov = bbeta.quotient_cover(bbeta.BBeta1Label("Bb2", D0, n=2))
    for _ in range(500):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.25, 0.25))
        w = complex(rng.normal(), rng.normal()) * 0.5
        g = bbeta.random_rgd(D0, rng, scale=0.25)
        lhs = cov.cover(*bbeta.rgd_act(g, (z, w)))
        rhs = cov.act(g, cov.cover(z, w))
        ok = ok and cov.equal(lhs, rhs)
        ok = ok and cov.equal(cov.cover(z + 2, w), cov.cover(z, w))
    _report(8, "covering equivariance for Bβ1B..I and Bβ2", ok)


def test_criterion_09_classification_roundtrips():
    rng = np.random.default_rng(SEED)
    d1_names = ("D1", "D1_1", "D1_2", "D1_3", "D1_4", "D1_5", "D1_6")
    bad = []
    for trial in range(200):
        name = d1_names[trial % len(d1_names)]
        gens, _ = verify.random_d1_generators(rng, name)
        m = families._matrix(rng, min_det=0.3, scale=1.0)
        gg = [tuple(m @ np.array(v)) for v in gens]
        order = rng.permutation(len(gg))
        gg = [gg[i] for i in order]
        got = d1.classify_D1_subgroup(gg)
        if got.label != name:
            bad.append(("D1", name, got.label))
    d2_names = verify.D2_NAMES
    for trial in range(200):
        name = d2_names[trial % len(d2_names)]
        gens, _ = verify.random_d2_generators(rng, name)
        phi = uaff.UAffAutomorphism(
            complex(rng.normal(), rng.normal()), cmath.exp(complex(rng.normal(), rng.normal()) * 0.6)
        )
        gens = [uaff.aut_apply(phi, g) for g in gens]
        gens = verify._shuffle_generators(gens, rng, uaff.uaff_multiply, uaff.uaff_inverse)
        got, _ = uaff.classify_subgroup(gens)
        if got.name != uaff.CANONICAL_ROW[name]:
            bad.append(("D2", name, got.name))
    count = 0
    while count < 200:
        for label in verify.sample_cover_labels(rng):
            cov = bbeta.quotient_cover(label)
            conj = bbeta.table_automorphism(
                label.divisor,
                nu=cmath.exp(complex(rng.normal(), rng.normal()) * 0.5),
                t=complex(rng.normal(), rng.normal()),
            )
            gens = [conj(g) for g in cov.pi_generators()]
            gens = verify._shuffle_generators(gens, rng, bbeta.cent_multiply, bbeta.cent_inverse)
            got = bbeta.classify_pi(gens, label.divisor)
            if got.label.name != label.name:
                bad.append(("Bβ1", label.name, got.label.name))
            count += 1
    _report(9, "classification round-trips (200 per classifier)", not bad, str(bad[:4]))


def test_criterion_10_c9_geometry():
    rng = np.random.default_rng(SEED)
    handler = families.build_family("C9")
    worst = 0.0
    ok = True
    for _ in range(1000):
        q = handler.random_point(rng)
        x, y, z = projective.quadric_embed(q)
        worst = max(worst, abs(y * y - 4 * x * z - 1.0))
    for _ in range(100):
        q = handler.random_point(rng)
        img = projective.quadric_double_cover(q)
        ok = ok and distance(img, projective.quadric_double_cover(q.swapped())) <= 1e-9
        p1, p2 = projective.quadric_preimages(img)
        ok = ok and distance(p1, p2) > EPS
        ok = ok and (distance(p1, q) <= 1e-7 or distance(p2, q) <= 1e-7)
        ok = ok and distance(projective.quadric_double_cover(p1), img) <= 1e-8
        ok = ok and distance(projective.quadric_double_cover(p2), img) <= 1e-8
    _report(10, "quadric identity and 2:1 double cover", worst <= 1e-9 and ok, f"max err {worst:.2e}")


def test_criterion_11_chart_consistency():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for n in (1, 2, 3):
        handler = families.build_family("Bδ4", n=n)
        for _ in range(500):
            e = handler.random_element(rng)
            z = complex(rng.normal(), rng.normal())
            if abs(z) < 0.05:
                z += 0.3
            w = complex(rng.normal(), rng.normal())
            p0 = projective.BundlePoint(n, 0, z, w)
            r0 = projective.on_act(e, p0)
            r1 = projective.on_act(e, p0.to_chart(1))
            worst = max(worst, verify.distance(r0, r1))
    _report(11, "O(n) chart consistency, n in {1,2,3}", worst <= 1e-8, f"max err {worst:.2e}")


def test_criterion_12_sc_normalizer():
    rng = np.random.default_rng(SEED)
    ok = True
    for c in (1.0 + 0j, -1.0 + 0j, 1j):
        data = bundles.SCData(1.0, 1j, c)
        for _ in range(100):
            phi = verify.random_sc_biholo(rng, data)
            ok = ok and bundles.normalizes_deck(phi, rng=rng)
        assert ok, f"valid instance rejected for c={c}"
        for _ in range(20):
            bad = verify.corrupt_sc_map(rng, data)
            ok = ok and not bundles.map_normalizes_deck(bad, data, rng)
        assert ok, f"corrupted instance accepted for c={c}"
    _report(12, "S_c biholomorphisms normalize the deck group", ok)


def test_criterion_13_catalogue_and_verify_all(capsys):
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "catalogue_labels.txt"
    want = golden.read_text().split()
    assert cli.main(["catalogue", "--json"]) == 0
    import json

    rows = json.loads(capsys.readouterr().out)
    got = [r["label"] for r in rows]
    t0 = time.monotonic()
    rc = cli.main(["verify", "--samples", "100", "--seed", "7"])
    elapsed = time.monotonic() - t0
    capsys.readouterr()
    ok = got == want and rc == 0 and elapsed < 300.0
    with capsys.disabled():
        _report(13, "catalogue golden set + verify all", ok, f"verify {elapsed:.1f}s")
