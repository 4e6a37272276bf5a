"""Span tracer that wraps fastmix's public functions from outside the package.

install() replaces every public function of each fastmix module, in every
fastmix namespace that binds it, with a wrapper that records a span: name,
tag, start, end and the index of the enclosing span. It also wraps
DistributionSpec.moments and the two variance_fn callables. uninstall()
puts the originals back, so untraced passes run the program as shipped.

Spans stay in memory; per-name totals (count, inclusive and self time, and
a work count such as quadrature evaluations or path steps) are folded in as
each span closes, and the raw spans of the last pass are written out at the
end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
import tracemalloc

import numpy as np

MODULES = ("numerics", "distributions", "optimal", "spectral", "sim",
           "pearson", "cli")


def _size_tag(n):
    return "n%dk" % (n // 1000) if n % 1000 == 0 else "n%d" % n


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# name -> probe(args, kwargs, result) giving (tag, work count)
def _simulate_probe(args, kwargs, result):
    cfg = _arg(args, kwargs, 1, "cfg")
    tag = ("reject" if cfg.boundary_mode == "reject-step"
           else "w%d" % cfg.n_paths)
    return tag, cfg.n_steps * cfg.n_paths


def _evolve_probe(args, kwargs, result):
    start = _arg(args, kwargs, 1, "initial").time
    t_end = float(_arg(args, kwargs, 2, "t_end"))
    dt = float(_arg(args, kwargs, 3, "dt"))
    return "", int(math.ceil((t_end - start) / dt - 1e-12))


_PROBES = {
    "sim.simulate": _simulate_probe,
    "numerics.integrate": lambda a, k, r: ("", r.evaluations),
    "numerics.tridiag_eigs": lambda a, k, r: (_size_tag(len(a[0])), 1),
    "spectral.spectrum": lambda a, k, r: (_size_tag(a[0].grid.n), 1),
    "spectral.discretize_generator": lambda a, k, r: (_size_tag(a[1].n), 1),
    "spectral.evolve_fpe": _evolve_probe,
    "optimal.quad_variance": lambda a, k, r: ("", int(np.size(r))),
}


class Tracer:
    def __init__(self):
        self.spans = []        # [name, tag, start, end, parent]
        self.stats = {}        # (name, tag) -> [count, total, self, work]
        self.alloc_tags = ()   # sim.simulate tags run under tracemalloc
        self.alloc_peaks = {}  # tag -> peak traced bytes inside simulate
        self._stack = []       # [span index, child time]
        self._patches = []

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        probe = _PROBES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1][0] if tracer._stack else -1
            span = [name, "", 0.0, 0.0, parent]
            tracer.spans.append(span)
            tracer._stack.append([len(tracer.spans) - 1, 0.0])
            alloc = (name == "sim.simulate" and tracer.alloc_tags and
                     _simulate_probe(args, kwargs, None)[0] in tracer.alloc_tags)
            if alloc:
                tracemalloc.start()
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                _, child = tracer._stack.pop()
                dur = span[3] - span[2]
                if tracer._stack:
                    tracer._stack[-1][1] += dur
            tag, work = probe(args, kwargs, result) if probe else ("", 1)
            span[1] = tag
            st = tracer.stats.setdefault((name, tag), [0, 0.0, 0.0, 0])
            st[0] += 1
            st[1] += dur
            st[2] += dur - child
            st[3] += work
            if alloc:
                tracer.alloc_peaks[tag] = max(peak,
                                              tracer.alloc_peaks.get(tag, 0))
            return result

        return traced

    def install(self):
        if self._patches:
            return
        pkg = importlib.import_module("fastmix")
        mods = [importlib.import_module("fastmix." + m) for m in MODULES]
        wrapped = {}
        for layer, mod in zip(MODULES, mods):
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(layer + "." + attr,
                                                        obj))
        # rebind in every namespace that holds the function
        for ns in [pkg] + mods:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrapped[id(obj)][1])
        dist = importlib.import_module("fastmix.distributions")
        opt = importlib.import_module("fastmix.optimal")
        for cls, attr, name in (
                (dist.DistributionSpec, "moments", "distributions.moments"),
                (opt._QuadratureVariance, "__call__", "optimal.quad_variance"),
                (opt._ClosedVariance, "__call__", "optimal.closed_variance")):
            orig = cls.__dict__[attr]
            self._patches.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig))

    def uninstall(self):
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches = []

    # --- reading -----------------------------------------------------------

    def reset(self, keep_stats=False):
        """Drop the recorded spans, and the totals unless keep_stats."""
        self.spans = []
        if not keep_stats:
            self.stats = {}

    def total(self, name, tag=None, field=1):
        """Sum of one stats field (0 count, 1 time, 2 self, 3 work)."""
        return sum(st[field] for (n, t), st in self.stats.items()
                   if n == name and (tag is None or t == tag))

    def self_time(self, prefix):
        return sum(st[2] for (n, _), st in self.stats.items()
                   if n.startswith(prefix))

    def write(self, path, extra):
        doc = dict(extra)
        doc["stats"] = [[n, t] + st for (n, t), st in sorted(self.stats.items())]
        doc["spans_fields"] = ["name", "tag", "start", "end", "parent"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
