"""Span tracing of fracbeam's layers, recorded from outside the package.

``install`` wraps the public functions of each module (``cli``, ``fracode``,
``multiscale``, ``modes``, ``constitutive``) so that every call records a span
(name, start, end, parent span, job id) and, where the call's arguments or
result tell how much work it did, a work count.  ``fracbeam.cli`` imports the
library names directly, so each wrapper is bound both in the defining module
and in every other fracbeam module holding the same function object.

Spans stay in memory until ``write`` dumps them; ``per_pass`` turns them into
per-layer self times (span duration minus the time its child spans cover).
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  A dotted attribute is a method.
TRACED = [
    ("fracbeam.cli", "main", "cli.main"),
    ("fracbeam.cli", "ResultTable.to_csv", "cli.format"),
    ("fracbeam.cli", "ResultTable.to_json", "cli.format"),
    ("fracbeam.fracode", "integrate_linear", "fracode.integrate_linear"),
    ("fracbeam.fracode", "integrate_nonlinear", "fracode.integrate_nonlinear"),
    ("fracbeam.fracode", "caputo_l1_series", "fracode.caputo_l1_series"),
    ("fracbeam.constitutive", "stress_history_l1", "constitutive.stress_history_l1"),
    ("fracbeam.constitutive", "complex_modulus", "constitutive.moduli"),
    ("fracbeam.constitutive", "tangent_loss", "constitutive.moduli"),
    ("fracbeam.constitutive", "ramp_hold_stress", "constitutive.ramp_hold_stress"),
    ("fracbeam.multiscale", "frequency_sweep", "multiscale.frequency_sweep"),
    ("fracbeam.multiscale", "free_envelope", "multiscale.free_envelope"),
    ("fracbeam.multiscale", "critical_alpha", "multiscale.critical_alpha"),
    ("fracbeam.modes", "solve_eigen", "modes.solve_eigen"),
    ("fracbeam.modes", "build_mode", "modes.build_mode"),
    ("fracbeam.modes", "modal_coefficients", "modes.modal_coefficients"),
    ("fracbeam.modes", "mode_shape_eval", "modes.mode_shape_eval"),
]

# Called thousands of times per eigen search: counted, not spanned.
COUNTED = [("fracbeam.modes", "characteristic_residual", "modes.char_evals")]

# The job span's self time is the CLI's own work: argument parsing, config
# resolution, row building and the file write.
RENAMED = {"cli.main_s": "cli.self_s"}

# Counts derived from call arguments or result sizes rather than counted
# inside the program.
COMPUTED_COUNTS = ("fracode.steps", "fracode.history_madds",
                   "constitutive.samples", "multiscale.sweep_points")
COUNTED_COUNTS = ("modes.char_evals", "multiscale.bifurcations", "cli.rows", "cli.bytes")


def _count_integration(histories):
    """Steps from the trajectory length; N(N-1)/2 multiply-adds per L1 history."""
    def make(fn):
        sig = inspect.signature(fn)

        def count(args, kwargs, result):
            bound = sig.bind(*args, **kwargs).arguments
            alpha = bound["alpha"] if "alpha" in bound else bound["mat"].alpha
            n = len(result.q) - 1
            madds = 0 if alpha == 1.0 else histories * n * (n - 1) // 2
            return {"fracode.steps": n, "fracode.history_madds": madds}
        return count
    return make


def _count_stress(args, kwargs, result):
    return {"constitutive.samples": len(result)}


def _count_sweep(args, kwargs, result):
    return {"multiscale.sweep_points": len(result.deltas),
            "multiscale.bifurcations": len(result.bifurcations)}


def _count_format(args, kwargs, result):
    return {"cli.rows": len(args[0].rows), "cli.bytes": len(result)}


_COUNTERS = {
    "integrate_linear": _count_integration(1),          # q
    "integrate_nonlinear": _count_integration(2),       # q and q^3
    "stress_history_l1": lambda fn: _count_stress,
    "frequency_sweep": lambda fn: _count_sweep,
    "ResultTable.to_csv": lambda fn: _count_format,
    "ResultTable.to_json": lambda fn: _count_format,
}


class Tracer:
    """In-memory span recorder; the caller sets ``job`` before each job."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job]
        self.counts = defaultdict(lambda: defaultdict(int))   # job -> key -> n
        self.job = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    self.counts[self.job][key] += n
            return result
        return traced

    def _count_calls(self, key, fn):
        def counted(*args, **kwargs):
            self.counts[self.job][key] += 1
            return fn(*args, **kwargs)
        return counted

    def _bind(self, modname, attr, make):
        owner = sys.modules[modname]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapper = make(original)
        targets = [owner]
        if not path:
            targets += [m for name, m in list(sys.modules.items())
                        if name.startswith("fracbeam") and m is not owner
                        and getattr(m, leaf, None) is original]
        for target in targets:
            setattr(target, leaf, wrapper)
            self._undo.append((target, leaf, original))

    def install(self):
        for modname, attr, name in TRACED:
            counter = _COUNTERS.get(attr)
            self._bind(modname, attr, lambda fn, n=name, c=counter:
                       self._wrap(n, fn, c(fn) if c else None))
        for modname, attr, key in COUNTED:
            self._bind(modname, attr, lambda fn, k=key: self._count_calls(k, fn))

    def uninstall(self):
        for target, leaf, original in reversed(self._undo):
            setattr(target, leaf, original)
        self._undo.clear()

    def per_pass(self):
        """Per-pass totals: '<span>_s' self seconds, '<span>_calls', and counts.

        A job id is (pass index, job index).
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, job in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        totals = defaultdict(lambda: defaultdict(float))
        for i, (name, t0, t1, parent, job) in enumerate(self.spans):
            agg = totals[job[0]]
            agg[RENAMED.get(name + "_s", name + "_s")] += (t1 - t0) - child[i]
            agg[name + "_calls"] += 1
        for job, counts in self.counts.items():
            for key, n in counts.items():
                totals[job[0]][key] += n
        return totals

    def write(self, path):
        """One JSON array per line: name, start, end, parent index, job id."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def metric_names():
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for span in sorted({name for _, _, name in TRACED}):
        names += [RENAMED.get(span + "_s", span + "_s"), span + "_calls"]
    return names + list(COMPUTED_COUNTS) + list(COUNTED_COUNTS) + [
        "fracode.ns_per_step", "multiscale.us_per_point",
        "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.self_sum_s"]


def unit(name):
    if name.endswith("_s"):
        return "s"
    if name == "fracode.ns_per_step":
        return "ns"
    if name == "multiscale.us_per_point":
        return "us"
    return "count.computed" if name in COMPUTED_COUNTS else "count"
