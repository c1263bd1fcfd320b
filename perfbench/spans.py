"""Spans around the public functions of each homsurf layer, installed from outside.

`Tracer.install` replaces a function by a wrapper in every `homsurf` module
namespace that holds it (so `from .numeric import zmodule_basis` call sites
are traced too), and handler methods on their classes.  Each wrapper call
records a span: name, start, end and parent.  A call made directly inside a
span of the same name (recursion) is not a span of its own.  Spans are kept
in compact arrays in memory, and aggregated as they close: calls, total time,
self time (the span minus its child spans), calls that raised and calls that
returned None.  `uninstall` puts the original functions back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, function) pairs traced by name; handler methods are added separately
LAYER_FUNCTIONS = (
    ("numeric", "zmodule_basis"),
    ("numeric", "rational_reconstruct"),
    ("numeric", "hnf_with_transform"),
    ("numeric", "real_rank"),
    ("numeric", "lattice_reduce_tau"),
    ("exppoly", "translate"),
    ("exppoly", "apply_operator"),
    ("exppoly", "evaluate"),
    ("divisor", "quasiperiod_group"),
    ("families", "classify_D1_subgroup"),
    ("uaff", "classify_subgroup"),
    ("uaff", "center_intersection"),
    ("bbeta", "classify_pi"),
    ("projective", "binary_form_substitute"),
    ("projective", "on_act"),
    ("bundles", "map_normalizes_deck"),
    ("verify", "distance"),
    ("verify", "run_suite"),
    ("cli", "main"),
    ("cli", "element_from_json"),
    ("cli", "point_from_json"),
    ("cli", "point_to_json"),
)
HANDLER_METHODS = ("multiply", "inverse", "act", "random_element")
ROOT_SPAN = "bench.op"

_RAISED, _EMPTY = 1, 2


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_flags = array("B")
        self._stack = []  # [span index, name id, child time]
        # per name id: calls, total s, self s, calls that raised, their total s, calls returning None
        self.calls, self.total, self.self_time = [], [], []
        self.raised, self.raised_time, self.empty = [], [], []
        self.tags = {}  # (name, tag) -> [calls, total seconds]
        self._patched = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            for col in (self.calls, self.raised, self.empty):
                col.append(0)
            for col in (self.total, self.self_time, self.raised_time):
                col.append(0.0)
        return self._ids[name]

    def wrap(self, fn, name, tag=None):
        nid = self._id(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == nid:
                return fn(*args, **kwargs)
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_flags.append(0)
            frame = [idx, nid, 0.0]
            stack.append(frame)
            flag = 0
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if out is None:
                    flag = _EMPTY
                return out
            except BaseException:
                flag = _RAISED
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.span_start[idx] = t0
                self.span_end[idx] = t1
                self.span_flags[idx] = flag
                if stack:
                    stack[-1][2] += dur
                self.calls[nid] += 1
                self.total[nid] += dur
                self.self_time[nid] += dur - frame[2]
                if flag == _RAISED:
                    self.raised[nid] += 1
                    self.raised_time[nid] += dur
                elif flag == _EMPTY:
                    self.empty[nid] += 1
                if tag is not None:
                    entry = self.tags.setdefault((name, tag(args)), [0, 0.0])
                    entry[0] += 1
                    entry[1] += dur

        return traced

    def op(self, fn):
        """A root span around one benchmark operation."""
        return self.wrap(fn, ROOT_SPAN)

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every function in LAYER_FUNCTIONS that is loaded, and the family handlers."""
        homsurf_modules = [
            m for k, m in list(sys.modules.items()) if m is not None and (k == "homsurf" or k.startswith("homsurf."))
        ]
        for mod_name, fn_name in LAYER_FUNCTIONS:
            mod = sys.modules.get(f"homsurf.{mod_name}")
            if mod is None:
                continue
            orig = getattr(mod, fn_name)
            tag = (lambda args: str(args[0])) if fn_name == "run_suite" else None
            wrapper = self.wrap(orig, f"{mod_name}.{fn_name}", tag)
            for m in homsurf_modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, attr, wrapper)
        families = sys.modules.get("homsurf.families")
        if families is not None:
            for cls in list(vars(families).values()):
                # the family handlers; their product factors expose `random`, not `random_element`
                if isinstance(cls, type) and cls.__module__ == families.__name__ and hasattr(cls, "random_element"):
                    for meth in HANDLER_METHODS:
                        if meth in vars(cls):
                            self._patch(cls, meth, self.wrap(vars(cls)[meth], f"families.{meth}"))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def summary(self):
        """Aggregates by span name, in a form that can be merged across processes."""
        return {
            "names": {
                name: [
                    self.calls[i], self.total[i], self.self_time[i],
                    self.raised[i], self.raised_time[i], self.empty[i],
                ]
                for i, name in enumerate(self.names)
                if self.calls[i]
            },
            "tags": [[name, tag, c, t] for (name, tag), (c, t) in self.tags.items()],
            "spans": len(self.span_name),
        }

    def save(self, path):
        """Write the spans themselves: name ids, parents, start, end, flags."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            flags=np.frombuffer(self.span_flags, dtype=np.uint8),
        )


def merge(summaries):
    names, tags, spans = {}, {}, 0
    for s in summaries:
        for name, row in s["names"].items():
            acc = names.setdefault(name, [0, 0.0, 0.0, 0, 0.0, 0])
            for k, v in enumerate(row):
                acc[k] += v
        for name, tag, c, t in s["tags"]:
            acc = tags.setdefault((name, tag), [0, 0.0])
            acc[0] += c
            acc[1] += t
        spans += s["spans"]
    return {"names": names, "tags": [[n, t, c, x] for (n, t), (c, x) in tags.items()], "spans": spans}
