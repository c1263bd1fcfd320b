"""verify-all: the seeded property suites, one `verify.run_suite` call per operation.

A round is the 26 suites at one suite seed, in `verify.suite_names()` order.
A run with `--seed n` cycles through the suite seeds 8n .. 8n+7, one per
round, so every (suite, seed) pair repeats within a run and its report must
repeat exactly.  Checks: every report passes with at least one check, a
repeated pair gives an identical report, and the `act` of A2, A3, D1 and D2
agrees with the benchmark's own closed forms.
"""

from __future__ import annotations

import numpy as np

import harness
import oracle

SUITE_SAMPLES = 100
SEEDS_PER_RUN = 8
TRACE_ROUNDS = 4  # a traced pass: the first four suite seeds
ACT_SAMPLES = 200


class Workload(harness.Workload):
    def __init__(self, seed, smoke=False):
        from homsurf import verify

        self.verify = verify
        self.seed = seed
        self.samples = 5 if smoke else SUITE_SAMPLES
        self.suite_seeds = [SEEDS_PER_RUN * seed + i for i in range(SEEDS_PER_RUN)]
        self.suites = verify.suite_names()
        self.trace_rounds = 1 if smoke else TRACE_ROUNDS
        self.reference = {}

    def round_ops(self, r):
        s = self.suite_seeds[r % len(self.suite_seeds)]
        # `self.verify.run_suite` is looked up at call time, so a traced run sees its wrapper
        return [lambda n=n: self.verify.run_suite(n, samples=self.samples, seed=s) for n in self.suites]

    def check(self, r, i, report):
        """'ok' or 'wrong' for the report of suite i in round r."""
        key = (self.suites[i], self.suite_seeds[r % len(self.suite_seeds)])
        if report.family != key[0] or not report.passed or len(report.checks) < 1:
            return "wrong"
        body = report.to_json()
        first = self.reference.setdefault(key, body)
        return "ok" if body == first else "wrong"

    def final_check(self):
        """The act of A2, A3, D1 and D2 against closed forms, on the handlers' own samples."""
        from homsurf import families, uaff

        rng = np.random.default_rng([self.seed, 11])
        worst = 0.0
        for label in ("A2", "A3", "D1", "D2"):
            handler = families.build_family(label)
            for _ in range(ACT_SAMPLES):
                g = handler.random_element(rng)
                x = handler.random_point(rng)
                got = handler.act(g, x)
                if label in ("A2", "A3"):
                    m = [[complex(v) for v in row] for row in g[0]]
                    want = oracle.act_affine(m, [complex(v) for v in g[1]], x)
                    if label == "A3":
                        worst = max(worst, abs(oracle.det2(m) - 1.0))
                elif label == "D1":
                    want = oracle.act_translation(g, x)
                else:
                    want = oracle.act_uaff((g.a, g.b), (x.a, x.b))
                    got = (got.a, got.b) if isinstance(got, uaff.UAffElement) else got
                worst = max(worst, oracle.rel_dist(got, want))
        return worst <= oracle.REL_TOL
