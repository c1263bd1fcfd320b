"""Shared pieces of the benchmark: paths, machine facts, set-up timing, the timed loop.

Every workload is a closed loop with one client: the next operation starts
only when the previous one has returned.  Operations come in whole rounds,
so the share of failed operations is the same in every run.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "homsurf"
# scratch space for files a run writes; listed in the root .gitignore
OUT_DIR = ROOT / ".perfbench-out"

SETUP_REPEATS = 5


class BenchError(Exception):
    """The benchmark cannot run here (no sources, a child that failed, ...)."""


def use_sources():
    """Make `import homsurf` load the checkout's own sources."""
    if not (PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no homsurf sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def source_digest():
    """sha256 over the package sources: names the code when there is no git checkout."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_facts():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def peak_rss_mb(children=False):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def measure_setup(workload, seed, smoke, importtime=False, repeats=SETUP_REPEATS):
    """Set up `repeats` times, each in a fresh interpreter, and return the samples.

    One sample is the package import plus the workload's input generation,
    timed inside the child, so interpreter start-up is not part of it.  With
    `importtime` the children run under `-X importtime` and their reports are
    returned as well.
    """
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    if smoke:
        cmd.append("--smoke")
    samples, reports = [], []
    for _ in range(repeats):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        reports.append(proc.stderr)
    return samples, reports


_NUMPY_IMPORT = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"


def interpreter_floors(repeats):
    """What every CLI call pays before homsurf: a bare interpreter, and the numpy import."""
    bare, numpy_s = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        bare.append(time.perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", _NUMPY_IMPORT], check=True, capture_output=True, text=True, timeout=60)
        numpy_s.append(float(out.stdout))
    return {
        "cli.interpreter_ms": statistics.median(bare) * 1e3,
        "cli.numpy_import_ms": statistics.median(numpy_s) * 1e3,
    }


def timed_loop(round_ops, seconds, max_rounds=None, on_round=None):
    """Run whole rounds until `seconds` have passed (or `max_rounds` are done).

    `round_ops(r)` gives the operations of round r, each a zero-argument
    callable.  After each round, `on_round(r, outputs)` checks its outputs;
    that time is left out of the returned wall time, and no output outlives
    its round.  Returns (latencies, wall, rounds).
    """
    clock = time.perf_counter
    latencies = []
    start = clock()
    unclocked = 0.0
    r = 0
    while True:
        outputs = []
        for op in round_ops(r):
            t0 = clock()
            outputs.append(op())
            latencies.append(clock() - t0)
        if on_round is not None:
            t0 = clock()
            on_round(r, outputs)
            unclocked += clock() - t0
        r += 1
        if max_rounds is not None:
            if r >= max_rounds:
                break
        elif clock() - start - unclocked >= seconds:
            break
    return latencies, clock() - start - unclocked, r


class Workload:
    """What run.py needs of a workload; the defaults fit one that runs in this process.

    A subclass sets `trace_rounds` (the round set of one traced pass) and
    defines `round_ops(r)` and `check(r, i, output)`, which returns 'ok',
    'known-fault' or 'wrong'.
    """

    children = False  # peak RSS is this process's, not its children's
    known_faults = ()

    def start_trace(self):
        """Called once before the traced passes."""

    def child_summaries(self):
        """Span summaries recorded by child processes."""
        return []

    def final_check(self):
        """Checks made once, after the loop."""
        return True

    def close(self):
        """Remove what the workload wrote."""


class Verdicts:
    """Counts of 'ok', 'known-fault' and 'wrong' outputs; use `record` as on_round."""

    def __init__(self, workload):
        self.workload = workload
        self.counts = {"ok": 0, "known-fault": 0, "wrong": 0}

    def record(self, r, outputs):
        for i, out in enumerate(outputs):
            self.counts[self.workload.check(r, i, out)] += 1

    @property
    def failed(self):
        return self.counts["known-fault"] + self.counts["wrong"]

    @property
    def correct(self):
        return self.counts["wrong"] == 0


def end_to_end(latencies, wall, setup_samples, rss_mb):
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "ops_per_s": {"value": len(latencies) / wall, "unit": "ops/s"},
        "op_median_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
    }


def quartiles_ms(latencies):
    q1, q2, q3 = statistics.quantiles([x * 1e3 for x in latencies], n=4)
    return {"q1": q1, "median": q2, "q3": q3, "samples": len(latencies)}
