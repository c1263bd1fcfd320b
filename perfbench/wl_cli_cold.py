"""cli-cold: one fresh `python -m homsurf.cli` process per operation, one at a time.

A round is seven calls on files the benchmark writes: `classify` on a C2, a
uaff and a qd generator file (built like the classify-mix inputs, cycling
through the rows), and `act` for A2, A3, D1 and D2 on a seeded element and
point.  Checks: every call exits 0 and prints JSON; a classify label is the
row its input was built from; an act point equals the benchmark's own
closed-form result.  Peak RSS is the largest of the child processes.
"""

from __future__ import annotations

import cmath
import json
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import harness
import oracle
import wl_classify_mix as mix

POOL_ROUNDS = 4
CALL_TIMEOUT_S = 60


def _cj(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _cn(rng, scale=0.7):
    return complex(rng.normal(), rng.normal()) * scale


def classify_files(rng, r):
    """(document, expected label) for the three ambients of round r."""
    d1 = mix.D1_ROWS[r % len(mix.D1_ROWS)]
    gens = mix.move_d1(rng, mix.d1_row(rng, d1))
    yield {"ambient": "C2", "generators": [[_cj(a), _cj(b)] for a, b in gens]}, d1
    d2 = mix.D2_ROWS[(3 * r + 1) % len(mix.D2_ROWS)]
    gens = mix.move_d2(rng, mix.d2_row(rng, d2))
    yield {"ambient": "uaff", "generators": [{"a": _cj(a), "b": _cj(b)} for a, b in gens]}, mix.D2_EXPECTED[d2]
    bb = mix.BB1_ROWS[r % len(mix.BB1_ROWS)]
    gens, D = mix.bb1_generators(rng, bb)
    doc = {"ambient": "qd", "divisor": D.to_json(), "generators": [{"w": _cj(g.w), "s": _cj(g.s)} for g in gens]}
    yield doc, f"Bβ1{bb}"


def _matrix(rng, special):
    while True:
        m = [[_cn(rng), _cn(rng)], [_cn(rng), _cn(rng)]]
        d = oracle.det2(m)
        if abs(d) > 0.25:
            break
    if special:
        root = cmath.sqrt(d)
        m = [[x / root for x in row] for row in m]
    return m


def act_files(rng):
    """(family, element, point, expected point) for A2, A3, D1 and D2."""
    for family in ("A2", "A3"):
        m, t, x = _matrix(rng, family == "A3"), (_cn(rng), _cn(rng)), (_cn(rng), _cn(rng))
        elem = {"matrix": [[_cj(v) for v in row] for row in m], "translation": [_cj(v) for v in t]}
        yield family, elem, {"z": _cj(x[0]), "w": _cj(x[1])}, oracle.act_affine(m, t, x)
    v, x = (_cn(rng), _cn(rng)), (_cn(rng), _cn(rng))
    yield "D1", {"v": [_cj(c) for c in v]}, {"z": _cj(x[0]), "w": _cj(x[1])}, oracle.act_translation(v, x)
    g, x = (_cn(rng), _cn(rng)), (_cn(rng), _cn(rng))
    yield "D2", {"a": _cj(g[0]), "b": _cj(g[1])}, {"a": _cj(x[0]), "b": _cj(x[1])}, oracle.act_uaff(g, x)


class Workload(harness.Workload):
    children = True  # peak RSS is the largest child's

    def __init__(self, seed, smoke=False):
        rng = np.random.default_rng([seed, 3])
        harness.OUT_DIR.mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="cli-", dir=harness.OUT_DIR)
        self.env = harness.child_env()
        self.trace_dir = None
        self.pool = []  # rounds of (argv after the program, check)
        for r in range(1 if smoke else POOL_ROUNDS):
            calls = []
            for j, (doc, label) in enumerate(classify_files(rng, r)):
                path = self._write(f"r{r}-classify{j}.json", doc)
                calls.append((["classify", path], ("label", label)))
            for family, elem, point, want in act_files(rng):
                e = self._write(f"r{r}-{family}-element.json", elem)
                p = self._write(f"r{r}-{family}-point.json", point)
                calls.append((["act", "--family", family, "--element", e, "--point", p], (family, want)))
            self.pool.append(calls)
        self.trace_rounds = len(self.pool)
        self._summaries = []

    def _write(self, name, doc):
        path = f"{self.workdir}/{name}"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def start_trace(self):
        """From now on each call runs under the span recorder of cli_child.py."""
        self.trace_dir = tempfile.mkdtemp(prefix="trace-", dir=self.workdir)

    def child_summaries(self):
        return self._summaries

    def _call(self, argv):
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "homsurf.cli", *argv]
        else:
            out = f"{self.trace_dir}/{len(self._summaries)}.json"
            cmd = [sys.executable, str(harness.BENCH_DIR / "cli_child.py"), out, *argv]
        proc = subprocess.run(
            cmd, cwd=harness.ROOT, env=self.env, capture_output=True, text=True, timeout=CALL_TIMEOUT_S
        )
        if self.trace_dir is not None:
            with open(out) as fh:
                self._summaries.append(json.load(fh))
        return proc.returncode, proc.stdout

    def round_ops(self, r):
        return [lambda argv=argv: self._call(argv) for argv, _ in self.pool[r % len(self.pool)]]

    def check(self, r, i, out):
        code, stdout = out
        if code != 0:
            return "wrong"
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return "wrong"
        kind, want = self.pool[r % len(self.pool)][i][1]
        if kind == "label":
            return "ok" if doc.get("label") == want else "wrong"
        if kind == "D2":
            got = (complex(doc["a"]["re"], doc["a"]["im"]), complex(doc["b"]["re"], doc["b"]["im"]))
        else:
            got = (complex(doc["z"]["re"], doc["z"]["im"]), complex(doc["w"]["re"], doc["w"]["im"]))
        return "ok" if oracle.rel_dist(got, want) <= oracle.REL_TOL else "wrong"

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
