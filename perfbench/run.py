"""The homsurf benchmark: one closed-loop workload per run, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload classify-mix --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload cli-cold --seed 1 --smoke

Workloads: verify-all, classify-mix, cli-cold (see README.md).  With
`--trace 0` the run reports the end-to-end metrics, with `--trace 1` the
per-layer metrics from a separate traced pass.  `--smoke` runs one tiny round.
The machine facts and run details are printed as one JSON line, and the
result as the last line: {"correct", "attempted", "failed", "metrics"}.
Exit code 0 when the result line is printed (an output found wrong reads
"correct": false), 2 when the run could not start or finish.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
import warnings

import harness

WORKLOADS = {
    "verify-all": "wl_verify_all",
    "classify-mix": "wl_classify_mix",
    "cli-cold": "wl_cli_cold",
}


def load(workload):
    return importlib.import_module(WORKLOADS[workload])


def setup_only(args):
    """One set-up in this fresh interpreter: package import, then input generation."""
    t0 = time.perf_counter()
    import homsurf.cli  # noqa: F401 - the import is what is timed

    t1 = time.perf_counter()
    module = load(args.workload)
    t2 = time.perf_counter()
    wl = module.Workload(args.seed, smoke=args.smoke)
    t3 = time.perf_counter()
    wl.close()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t3 - t2}))
    return 0


def plain_run(args, module):
    repeats = 1 if args.smoke else harness.SETUP_REPEATS
    setup = harness.measure_setup(args.workload, args.seed, args.smoke, repeats=repeats)[0]
    setup_samples = [s["import_s"] + s["inputs_s"] for s in setup]
    wl = module.Workload(args.seed, smoke=args.smoke)
    try:
        warm = harness.Verdicts(wl)
        harness.timed_loop(wl.round_ops, 0, max_rounds=1, on_round=warm.record)  # fills caches
        verdicts = harness.Verdicts(wl)
        lat, wall, rounds = harness.timed_loop(
            wl.round_ops, args.seconds, max_rounds=1 if args.smoke else None, on_round=verdicts.record
        )
        correct = verdicts.correct and warm.correct and wl.final_check()
        metrics = harness.end_to_end(lat, wall, setup_samples, harness.peak_rss_mb(children=wl.children))
    finally:
        wl.close()
    details = {
        "rounds": rounds,
        "wall_s": wall,
        "latency_ms": harness.quartiles_ms(lat) if len(lat) > 1 else None,
        "setup_samples_s": setup_samples,
        "outcomes": verdicts.counts,
    }
    return correct, len(lat), verdicts.failed, metrics, details


def traced_run(args, module):
    """Untraced passes, then traced passes, over the same fixed round set.

    Each pass runs the workload's `trace_rounds` rounds; passes repeat for
    half of `--seconds` each (at least one).  The tracing overhead is the
    ratio of the median pass times.
    """
    import layers
    import spans

    repeats = 1 if args.smoke else 3
    setup = harness.measure_setup(args.workload, args.seed, args.smoke, repeats=repeats)[0]
    _, reports = harness.measure_setup(args.workload, args.seed, args.smoke, importtime=True, repeats=repeats)
    imports = layers.import_figures(reports)
    imports["cli.import_ms"] = statistics.median(s["import_s"] for s in setup) * 1e3
    imports.update(harness.interpreter_floors(repeats))

    wl = module.Workload(args.seed, smoke=args.smoke)
    tracer = spans.Tracer()
    verdicts = harness.Verdicts(wl)
    budget = 0 if args.smoke else args.seconds / 2

    def passes(round_ops):
        walls, ops = [], 0
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < budget:
            lat, wall, _ = harness.timed_loop(round_ops, 0, max_rounds=wl.trace_rounds, on_round=verdicts.record)
            walls.append(wall)
            ops += len(lat)
        return walls, ops

    try:
        warm = harness.Verdicts(wl)
        harness.timed_loop(wl.round_ops, 0, max_rounds=1, on_round=warm.record)  # fills caches
        plain_walls, plain_ops = passes(wl.round_ops)
        wl.start_trace()
        tracer.install()
        try:
            traced_walls, traced_ops = passes(lambda r: [tracer.op(op) for op in wl.round_ops(r)])
        finally:
            tracer.uninstall()
        correct = verdicts.correct and warm.correct and wl.final_check()
        summary = spans.merge([tracer.summary()] + wl.child_summaries())
        overhead = (statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0) * 100.0
        metrics = layers.from_summary(summary, len(traced_walls), overhead, imports)
        tracer.save(harness.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
    finally:
        wl.close()
    details = {
        "trace_rounds_per_pass": wl.trace_rounds,
        "plain_passes": {"count": len(plain_walls), "median_s": statistics.median(plain_walls)},
        "traced_passes": {"count": len(traced_walls), "median_s": statistics.median(traced_walls)},
        "spans": summary["spans"],
        "outcomes": verdicts.counts,
    }
    return correct, plain_ops + traced_ops, verdicts.failed, metrics, details


def seed_arg(text):
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be a non-negative integer")
    return seed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=seed_arg, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one tiny round, for the benchmark's own test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        harness.use_sources()
    except harness.BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    # overflow warnings from the known-fault inputs would otherwise flood stderr
    warnings.simplefilter("ignore", RuntimeWarning)
    if args.setup_only:
        return setup_only(args)

    module = load(args.workload)
    try:
        run = traced_run if args.trace else plain_run
        correct, attempted, failed, metrics, details = run(args, module)
    except harness.BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "known_faults": list(module.Workload.known_faults),
        "machine": harness.machine_facts(),
        **details,
    }
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
