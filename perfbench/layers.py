"""Per-layer metrics: their names and units, and how they come out of a span summary.

Times per call are means over the traced passes; counts are per pass of the
traced round set, so they repeat exactly for a seed.  A layer that a workload
does not reach reads 0.
"""

from __future__ import annotations

import re
import statistics

from spans import HANDLER_METHODS, ROOT_SPAN

LAYERS = ("numeric", "exppoly", "divisor", "families", "uaff", "bbeta", "projective", "bundles", "verify", "cli")
SUITES = (
    "A1", "A2", "A3", "Bb1", "Bb2", "Bg1", "Bg2", "Bg3", "Bg4", "Bd1", "Bd2", "Bd3", "Bd4",
    "C2", "C3", "C5", "C6", "C7", "C8", "C9", "D1", "D2", "D3", "exppoly", "divisor", "SC",
)
NUMERIC = ("zmodule_basis", "rational_reconstruct", "hnf_with_transform", "real_rank", "lattice_reduce_tau")
KERNELS = (
    "exppoly.translate", "exppoly.apply_operator", "exppoly.evaluate",
    "projective.binary_form_substitute", "projective.on_act",
    "bundles.map_normalizes_deck", "divisor.quasiperiod_group",
)
CLASSIFIERS = (
    "families.classify_D1_subgroup", "uaff.classify_subgroup", "uaff.center_intersection", "bbeta.classify_pi",
)
CODECS = ("cli.element_from_json", "cli.point_from_json", "cli.point_to_json")


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {f"families.{m}_us": "us" for m in HANDLER_METHODS}
    units["families.calls"] = "count"
    units["verify.distance_us"] = "us"
    units["verify.distance_calls"] = "count"
    units.update({f"verify.suite_ms.{s}": "ms" for s in SUITES})
    units.update({f"{k}_us": "us" for k in KERNELS})
    units["exppoly.calls"] = "count"
    units.update({f"{k}_us": "us" for k in CLASSIFIERS})
    units["classify.reject_us"] = "us"
    for fn in NUMERIC:
        units[f"numeric.{fn}_us"] = "us"
        units[f"numeric.{fn}_calls"] = "count"
    units["numeric.zmodule_basis_ok_ratio"] = "ratio"
    units["numeric.rational_reconstruct_hit_ratio"] = "ratio"
    units.update({f"{layer}.self_ms": "ms" for layer in LAYERS})
    units["cli.codec_us"] = "us"
    units["cli.import_ms"] = "ms"
    units["cli.interpreter_ms"] = "ms"
    units["cli.numpy_import_ms"] = "ms"
    units.update({f"import.{layer}_ms": "ms" for layer in LAYERS})
    units["trace.overhead_pct"] = "%"
    return units


def _row(names, name):
    return names.get(name, [0, 0.0, 0.0, 0, 0.0, 0])


def from_summary(summary, passes, overhead_pct, imports):
    """All per-layer values; `imports` holds the cli.* and import.* figures in ms."""
    names = summary["names"]

    def mean_us(*keys):
        calls = sum(_row(names, k)[0] for k in keys)
        return sum(_row(names, k)[1] for k in keys) / calls * 1e6 if calls else 0.0

    def per_pass(*keys):
        return sum(_row(names, k)[0] for k in keys) / passes

    ops = _row(names, ROOT_SPAN)[0]
    values = {f"families.{m}_us": mean_us(f"families.{m}") for m in HANDLER_METHODS}
    values["families.calls"] = per_pass(*(f"families.{m}" for m in HANDLER_METHODS))
    values["verify.distance_us"] = mean_us("verify.distance")
    values["verify.distance_calls"] = per_pass("verify.distance")
    suite_time = {}
    for name, tag, calls, total in summary["tags"]:
        if name == "verify.run_suite":
            ascii_tag = tag.replace("β", "b").replace("γ", "g").replace("δ", "d")
            acc = suite_time.setdefault(ascii_tag, [0, 0.0])
            acc[0] += calls
            acc[1] += total
    for s in SUITES:
        calls, total = suite_time.get(s, (0, 0.0))
        values[f"verify.suite_ms.{s}"] = total / calls * 1e3 if calls else 0.0
    values.update({f"{k}_us": mean_us(k) for k in KERNELS})
    values["exppoly.calls"] = per_pass(*(k for k in KERNELS if k.startswith("exppoly.")))
    values.update({f"{k}_us": mean_us(k) for k in CLASSIFIERS})
    rejects = sum(_row(names, k)[3] for k in CLASSIFIERS)
    values["classify.reject_us"] = (
        sum(_row(names, k)[4] for k in CLASSIFIERS) / rejects * 1e6 if rejects else 0.0
    )
    for fn in NUMERIC:
        values[f"numeric.{fn}_us"] = mean_us(f"numeric.{fn}")
        values[f"numeric.{fn}_calls"] = per_pass(f"numeric.{fn}")
    zb = _row(names, "numeric.zmodule_basis")
    values["numeric.zmodule_basis_ok_ratio"] = (zb[0] - zb[3]) / zb[0] if zb[0] else 0.0
    rr = _row(names, "numeric.rational_reconstruct")
    values["numeric.rational_reconstruct_hit_ratio"] = (rr[0] - rr[5]) / rr[0] if rr[0] else 0.0
    for layer in LAYERS:
        self_s = sum(row[2] for name, row in names.items() if name.split(".", 1)[0] == layer)
        values[f"{layer}.self_ms"] = self_s / ops * 1e3 if ops else 0.0
    values["cli.codec_us"] = mean_us(*CODECS)
    values.update(imports)
    values["trace.overhead_pct"] = overhead_pct
    units = metric_units()
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)")


def import_figures(reports):
    """import.<layer>_ms: each module's own import time (not its imports'), from
    `-X importtime` reports, median over the reports.  The instrumentation
    inflates these times; compare them only with each other."""
    samples = {layer: [] for layer in LAYERS}
    for text in reports:
        self_us = {m.group(3): int(m.group(1)) for m in _IMPORT_LINE.finditer(text)}
        for layer in LAYERS:
            samples[layer].append(self_us.get(f"homsurf.{layer}", 0) / 1e3)
    return {f"import.{layer}_ms": statistics.median(v) for layer, v in samples.items()}
