"""Spans around edgefail's public functions, recorded from outside the program.

`patch` swaps a function for a wrapper at every edgefail module
attribute bound to it, so a call through `edgefail.solvers.solve_primary_mapping`
and a call through the name the simulation imported are both seen.  A
name that a later change removes is skipped, and its layer reports zero
calls.  Spans stay in memory until the workload process ends.
"""

from __future__ import annotations

import sys
import time

# layer -> (module, attribute) the program calls it through
LAYERS = {
    "mobility.generate": ("edgefail.mobility", "generate_synthetic"),
    "mobility.ingest": ("edgefail.mobility", "ingest_trace"),
    "mobility.demand": ("edgefail.mobility", "derive_demand"),
    "mobility.delay_matrix": ("edgefail.mobility", "derive_delay_matrix"),
    "placement.place": ("edgefail.placement", "place_services"),
    "placement.recover": ("edgefail.placement", "recover_placement"),
    "placement.reserve": ("edgefail.placement", "reserve_backup"),
    "solvers.primary": ("edgefail.solvers", "solve_primary_mapping"),
    "solvers.lbpsvm_build": ("edgefail.solvers", "build_lb_psvm"),
    "solvers.lbpsvm_solve": ("edgefail.solvers", "solve_lb_psvm"),
    "solvers.psvm": ("edgefail.solvers", "solve_psvm"),
    "simulation.step": ("edgefail.simulation", "Simulation.step"),
    "simulation.inject": ("edgefail.simulation", "Simulation.inject_attack"),
    "simulation.recover": ("edgefail.simulation", "Simulation.recover"),
    "simulation.heal": ("edgefail.simulation", "Simulation.heal"),
    "metrics.service_delay": ("edgefail.metrics", "service_delay"),
    "metrics.edge_load_factor": ("edgefail.metrics", "edge_load_factor"),
    "metrics.jain_fairness": ("edgefail.metrics", "jain_fairness"),
    "metrics.evaluate_quality": ("edgefail.simulation", "evaluate_quality"),
    "experiment.run": ("edgefail.experiment", "run"),
    "experiment.build_requests": ("edgefail.experiment", "build_requests"),
    "experiment.simulate_policy": ("edgefail.experiment", "simulate_policy"),
}


def arg(args, kwargs, pos: int, name: str):
    """The argument at position ``pos`` or keyword ``name``, else None."""
    return args[pos] if len(args) > pos else kwargs.get(name)


def patch(module: str, path: str, make):
    """Replace ``module.path`` by ``make(original)`` wherever edgefail binds it.

    ``path`` is a function name or ``Class.method``.  Returns the
    original, or None when the name no longer exists.
    """
    owner = sys.modules.get(module)
    fn = owner
    for part in path.split("."):
        owner, fn = fn, getattr(fn, part, None)
        if fn is None:
            return None
    wrapper = make(fn)
    if "." in path:
        setattr(owner, path.rsplit(".", 1)[1], wrapper)
        return fn
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "edgefail" or name.startswith("edgefail.")):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
    return fn


def observe(hook):
    """A ``patch`` maker that calls ``hook(None, args, kwargs, result)`` after each call."""

    def make(fn):
        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(None, args, kwargs, result)
            return result

        return observed

    return make


class Tracer:
    """Span recorder: one span per call of a wrapped function.

    A span is ``[layer id, parent span index, start, end]``; the parent is
    the span open when the call began (-1 at top level).  ``hooks`` maps a
    layer to ``hook(span index, args, kwargs, result)``, called after the
    span closes, to take counts from arguments and results.
    """

    def __init__(self):
        self.layers: list[str] = []
        self.spans: list[list] = []
        self.stack = [-1]
        self.originals: dict = {}

    def install(self, hooks: dict) -> None:
        for layer, (module, path) in LAYERS.items():
            self.originals[layer] = patch(
                module, path, lambda fn, layer=layer: self.wrap(layer, fn, hooks.get(layer))
            )

    def wrap(self, layer: str, fn, hook=None):
        lid = len(self.layers)
        self.layers.append(layer)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [lid, stack[-1], 0.0, 0.0]
            spans.append(rec)
            stack.append(idx)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                hook(idx, args, kwargs, result)
            return result

        return traced

    def duration(self, idx: int) -> float:
        rec = self.spans[idx]
        return rec[3] - rec[2]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its child
        spans, which never overlap in this single-threaded program.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for lid, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for layer in LAYERS}
        for i, (lid, _parent, start, end) in enumerate(spans):
            row = out[self.layers[lid]]
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def write(self, path: str, t0: float) -> None:
        """Write the spans as CSV, times in seconds from ``t0``."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span,layer,parent,start_s,end_s\n")
            for i, (lid, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{self.layers[lid]},{parent},{start - t0:.9f},{end - t0:.9f}\n")


# highest percentile a tail is read at; the first that leaves ten samples beyond it
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float:
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0:
            return p
    return 50.0


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of ``values``; 0 when empty."""
    if not values:
        return 0.0
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)
