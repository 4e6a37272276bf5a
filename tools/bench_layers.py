"""Time fastmix's quadrature and synthesis layers on fixed inputs and write
BENCH_<pr>.json.

    python3 tools/bench_layers.py --pr N [--repeats 5]

Times, under the fastmix of this tree (src/ beside tools/):
- the density's adaptive quadrature: the construction of one density of
  every catalog kind, which is its mass check, and moments_quadrature() of
  the `synth` benchmark workload's tables and mixtures (perfbench/inputs.py,
  seed 1);
- synthesis plus the first variance_fn call, for one density of every
  catalog kind on both variance routes ("closed" and "quadrature"); the
  call is at 64 Chebyshev points of the density's truncated support;
- the build of the quadrature route's V table on the same tables and
  mixtures.

Every repeat starts from a freshly parsed density, so nothing the library
computes once per density carries over; one untimed run before them lets
the process's lazy imports finish. Each entry records every repeat's raw
wall time and their median. A quadrature entry records its evaluations of
the integrand, summed from the QuadratureResult of every
numerics.integrate call of the untimed run, and the calls of the
integrand that made them; a synthesis entry on the quadrature route
records the table's cell count and evaluations. The file also records
nproc and the Python, numpy and scipy versions. It is written at the root
of the tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time

import numpy as np
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_REPEATS = 5
POINTS = 64
INPUT_SEED = 1

# one density per catalog kind, away from the poles the table cannot take
CATALOG = (
    ("beta", {"alpha": 2.0, "beta": 3.0}),
    ("jacobi", {"alpha": 0.3, "beta": 2.0}),
    ("gamma", {"alpha": 2.0}),
    ("normal", {"x0": 0.0, "sigma": 1.0}),
    ("student", {"alpha": 3.0}),
    ("inversegamma", {"alpha": 3.0}),
    ("fisher", {"nu1": 5.0, "nu2": 12.0}),
    ("hyperexponential", {"p1": 0.5, "p2": 0.5, "eta1": 1.0, "eta2": 2.0}),
    ("cubicpearson", {"alpha": 2.0, "beta": 3.0, "a": -0.5}),
)


def _fastmix():
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import fastmix
    return fastmix


def _synth_densities(fastmix):
    """{name: zero-argument maker of a fresh density} for the synth
    workload's tables and mixtures."""
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    try:
        from perfbench import inputs
    finally:
        sys.dont_write_bytecode = write_bytecode

    makers = {}
    with tempfile.TemporaryDirectory() as tmp:
        for job in inputs.generate("synth", INPUT_SEED, tmp):
            ref = job.get("ref") or {}
            if "table" in ref:
                with open(ref["table"]) as fh:
                    doc = json.load(fh)
                makers[job["name"].split("-", 1)[1]] = (
                    lambda doc=doc: fastmix.parse_spec(doc))
            elif "mixture" in ref:
                makers[job["name"]] = (
                    lambda ref=ref: fastmix.mixture(
                        [fastmix.parse_spec({"kind": k, "params": p})
                         for k, p in ref["mixture"]], ref["weights"]))
    return makers


def _counts(fastmix, call):
    """The integrand evaluations of every numerics.integrate call made by
    call(), summed from their QuadratureResults, and the calls of those
    integrands."""
    numerics = fastmix.numerics
    integrate = numerics.integrate
    count = {"evaluations": 0, "calls": 0}

    def counted(f, *args, **kwargs):
        def g(x):
            count["calls"] += 1
            return f(x)

        res = integrate(g, *args, **kwargs)
        count["evaluations"] += res.evaluations
        return res

    numerics.integrate = counted
    try:
        call()
    finally:
        numerics.integrate = integrate
    return count


def _quadrature_entry(fastmix, name, call_name, call, make, repeats):
    """call(make()) counted once untimed, then timed on fresh arguments
    (make() is not timed)."""
    counts = _counts(fastmix, lambda: call(make()))
    times = []
    for _ in range(repeats):
        arg = make()
        t0 = time.perf_counter()
        call(arg)
        times.append(time.perf_counter() - t0)
    return dict({"target": name, "call": call_name,
                 "median_s": statistics.median(times), "times_s": times},
                **counts)


def _table_counts(proc):
    table = proc.variance_fn.table
    return {"cells": int(table.cells), "evaluations": int(table.evaluations)}


def _entry(name, route, times, counts):
    return dict({"target": name, "route": route,
                 "median_s": statistics.median(times), "times_s": times},
                **counts)


def run(pr, repeats=MIN_REPEATS):
    """The benchmark document, as written to BENCH_<pr>.json."""
    if repeats < MIN_REPEATS:
        raise ValueError("need at least %d repeats" % MIN_REPEATS)
    fastmix = _fastmix()
    synth = _synth_densities(fastmix)
    quadrature = []
    for kind, params in CATALOG:
        doc = {"kind": kind, "params": params}
        quadrature.append(_quadrature_entry(
            fastmix, repr(fastmix.parse_spec(doc)), "construct",
            fastmix.parse_spec, lambda doc=doc: doc, repeats))
    for name, make in synth.items():
        quadrature.append(_quadrature_entry(
            fastmix, name, "moments_quadrature",
            lambda spec: spec.moments_quadrature(), make, repeats))

    synthesis = []
    for kind, params in CATALOG:
        doc = {"kind": kind, "params": params}
        name = repr(fastmix.parse_spec(doc))
        a, b = fastmix.parse_spec(doc).truncated_support()
        x = fastmix.numerics.chebyshev_points(a, b, POINTS)
        for route in ("closed", "quadrature"):
            times, counts = [], {"cells": None, "evaluations": None}
            for _ in range(1 + repeats):
                spec = fastmix.parse_spec(doc)
                t0 = time.perf_counter()
                proc = fastmix.synthesize(spec, variance_mode=route)
                proc.variance_fn(x)
                times.append(time.perf_counter() - t0)
            times = times[1:]
            if route == "quadrature":
                counts = _table_counts(proc)
            synthesis.append(_entry(name, route, times, counts))

    table_build = []
    for name, make in synth.items():
        times = []
        for _ in range(1 + repeats):
            proc = fastmix.synthesize(make(), variance_mode="quadrature")
            t0 = time.perf_counter()
            proc.variance_fn.table
            times.append(time.perf_counter() - t0)
        times = times[1:]
        table_build.append(_entry(name, "quadrature", times,
                                  _table_counts(proc)))

    return {
        "pr": int(pr),
        "repeats": int(repeats),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "layers": {"numerics.quadrature": quadrature,
                   "optimal.synthesis": synthesis,
                   "optimal.table_build": table_build},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True,
                   help="number of the change; names BENCH_<pr>.json")
    p.add_argument("--repeats", type=int, default=MIN_REPEATS,
                   help="timed repeats per entry (at least %d)" % MIN_REPEATS)
    args = p.parse_args(argv)
    if args.repeats < MIN_REPEATS:
        p.error("--repeats must be at least %d" % MIN_REPEATS)
    doc = run(args.pr, args.repeats)
    path = os.path.join(ROOT, "BENCH_%d.json" % args.pr)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for layer, entries in doc["layers"].items():
        for e in entries:
            print("%-20s %-52s %-18s %9.3f ms  evaluations %s%s" % (
                layer, e["target"], e.get("route", e.get("call")),
                1e3 * e["median_s"], e["evaluations"],
                "  calls %d" % e["calls"] if "calls" in e else ""))
    print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
