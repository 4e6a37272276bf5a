"""Time fastmix's quadrature, synthesis, sampler, generator and evolution
layers on fixed inputs and write BENCH_<pr>.json.

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 \
        python3 tools/bench_layers.py --pr N [--repeats 5]

The thread counts are pinned as perfbench/run.py pins them, so that the
eigensolver runs on one thread as it does in the benchmark's jobs.

Times, under the fastmix of this tree (src/ beside tools/):
- the density's adaptive quadrature: the construction of one density of
  every catalog kind, which is its mass check, and moments_quadrature() of
  the `synth` benchmark workload's tables and mixtures (perfbench/inputs.py,
  seed 1);
- synthesis plus the first variance_fn call, for one density of every
  catalog kind on both variance routes ("closed" and "quadrature"); the
  call is at 64 Chebyshev points of the density's truncated support;
- the build of the quadrature route's V table on the same tables and
  mixtures;
- the sampler's kernels on the optimal process of every catalog kind (all
  have a closed variance shape; reflect mode, dt = 0.01 / lambda1) at each
  width in WIDTHS, PATH_STEPS path-steps a reading but at least 500 steps:
  sim._step_major from STEP_MAJOR_MIN_PATHS paths up, sim._path_major
  walking every path in this process ("path-major"), and, where the run is
  long enough to fork, sim._path_major as simulate runs it, one worker per
  core on blocks of paths ("path-major forked"; sim._workers). The
  readings alternate between the kernels, so that a slow stretch of a
  shared host falls on all. Each entry records its path-steps per second
  and names the kernel with the lower median and the one simulate picks,
  read off its routing; the widest width at which path-major still wins,
  per kind, is what sim.PATH_MAJOR_MAX_PATHS is set from. The quadrature
  route's processes of the synth workload's SIM_TABLES are timed the same
  way on step-major alone, the kernel simulate picks for them, from
  STEP_MAJOR_MIN_PATHS paths up;
- path-major walking every path in this process and forked as simulate
  runs it, on the dome (Beta(1, 1)) and the Normal(0, 1), at 16 paths on
  each run of FORK_RUNS: the paths workload's 16-path jobs, and criterion
  08 of tests/test_acceptance.py, whose walks are 80 times longer. The
  readings alternate between the two;
- what simulate does after the walk, on the dome (Beta(1, 1)) at the
  lengths of the `paths` workload's jobs (SIM_RUNS): the autocorrelation
  (sim._mean_lag_products) and np.histogram within one simulate call, then
  sim.write_autocorr_csv of its result;
- the discretized generator of the `spectral` workload's spectrum jobs,
  and of its four targets at the spectrum command's default of 2000
  points (SPECTRAL_RUNS, parameters from perfbench/inputs.py, seed 1): the
  grid and discretize_generator on it, then spectrum(disc, 5,
  vectors=False), each timed on its own after one untimed run. Each
  spectrum entry names the route that ran ("certified" or "bisection"),
  the dgtsv solves of each mode past the first and the cells of the
  coarsening the seeds came from, read off one more untimed call;
- the same spectrum call on every SWEEP_TARGETS entry (the catalog targets
  tests/test_spectral.py certifies): at each of SEED_POINTS with the seeds'
  coarsening spectral._SEED_CELLS at each of SEED_CELLS, and at each of
  ROUTE_POINTS made to run each route by spectral._ROUTE_CELLS. Those two
  constants are set from these sweeps;
- density evolution: evolve_fpe on each evolve job of the `spectral`
  workload (seed 1), as perfbench/workload.py calls it, timed after one
  untimed run. The grid and the start bump are built untimed; the bump's
  centre and width read the process's own moments.

Every repeat of the first three starts from a freshly parsed density, so
nothing the library computes once per density carries over; one untimed
run before them lets the process's lazy imports finish. Each entry records
every repeat's raw wall time and their median. A quadrature entry records
its evaluations of the integrand, summed from the QuadratureResult of every
numerics.integrate call of the untimed run, and the calls of the
integrand that made them; a synthesis entry on the quadrature route
records the table's cell count and evaluations. The file also records
nproc and the Python, numpy and scipy versions. It is written at the root
of the tree. A full run takes about 140 s on two cores, a third of it in
the sampler's kernels and half in the spectral sweeps.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
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
WIDTHS = (1, 8, 16, 32, 64, 256)
# step-major is timed from this width up: below it path-major is 10-45
# times faster and no routing decision is near (BENCH_30.json)
STEP_MAJOR_MIN_PATHS = 8
# the synth workload's tables and mixtures the sampler is timed on, on the
# quadrature route
SIM_TABLES = ("bimodal", "mixture-beta")
# 8192 steps at 16 paths, about the paths workload's 16-path jobs, which
# fork on two cores or more
PATH_STEPS = 131072
DOME = {"kind": "beta", "params": {"alpha": 1.0, "beta": 1.0}}
OU = {"kind": "normal", "params": {"x0": 0.0, "sigma": 1.0}}
# (paths, steps, dt, burn-in) of the runs path-major is timed on, serial
# and forked: the paths workload's 16-path dome job and criterion 08
FORK_RUNS = ((16, 8000, 0.01, 125), (16, 625000, 1e-3, 20000))
# (paths, steps, burn-in) of the paths workload's jobs, dt = 0.01: the
# dome's three widths, then the 256-path length of the OU and Gamma jobs
SIM_RUNS = ((1, 20000, 125), (16, 8000, 125), (256, 16000, 125),
            (256, 3000, 500))
# (kind, grid points) of the spectral workload's spectrum jobs, and its
# four targets at the spectrum command's default of 2000 points
SPECTRAL_RUNS = (("beta", 20000), ("jacobi", 20000), ("normal", 20000),
                 ("gamma", 20000), ("normal", 200000), ("beta", 2000),
                 ("jacobi", 2000), ("normal", 2000), ("gamma", 2000))
# the catalog targets the certified spectrum is swept on, one or more per
# kind, singular ends and heavy tails among them
SWEEP_TARGETS = (
    ("beta", {"alpha": 1.0, "beta": 1.0}),
    ("beta", {"alpha": 2.0, "beta": 5.0}),
    ("jacobi", {"alpha": 0.5, "beta": 1.5}),
    ("jacobi", {"alpha": -0.5, "beta": -0.5}),
    ("gamma", {"alpha": 1.0}),
    ("gamma", {"alpha": 3.0}),
    ("gamma", {"alpha": -0.5}),
    ("normal", {"x0": 0.0, "sigma": 1.0}),
    ("student", {"alpha": 3.0}),
    ("inversegamma", {"alpha": 2.0}),
    ("inversegamma", {"alpha": 3.0}),
    ("inversegamma", {"alpha": 10.0}),
    ("fisher", {"nu1": 6.0, "nu2": 10.0}),
    ("fisher", {"nu1": 1.5, "nu2": 9.0}),
    ("hyperexponential", {"p1": 0.5, "p2": 0.5, "eta1": 1.0, "eta2": 2.0}),
    ("cubicpearson", {"alpha": 1.0, "beta": 2.0, "a": 0.5}),
    ("cubicpearson", {"alpha": 2.0, "beta": 0.5, "a": -0.5}),
)
# grid points and seed cells (spectral._SEED_CELLS) of the coarsening sweep
SEED_POINTS = (2000, 20000, 200000)
SEED_CELLS = (250, 500, 1000, 2000)
# grid points of the routing sweep, each timed on both routes
ROUTE_POINTS = (1000, 1250, 1500, 1501, 1750, 2000)
# eigenvalues asked of every spectrum reading, as the spectral workload asks
SPECTRUM_K = 5


def _fastmix():
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import fastmix
    return fastmix


def _workload_jobs(workload, tmp):
    """The jobs of a benchmark workload at INPUT_SEED, inputs under tmp."""
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    try:
        from perfbench import inputs
    finally:
        sys.dont_write_bytecode = write_bytecode
    return inputs.generate(workload, INPUT_SEED, tmp)


def _synth_densities(fastmix):
    """{name: zero-argument maker of a fresh density} for the synth
    workload's tables and mixtures."""
    makers = {}
    with tempfile.TemporaryDirectory() as tmp:
        for job in _workload_jobs("synth", tmp):
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


@contextlib.contextmanager
def _wrapped(owner, name, wrap):
    """owner.<name> replaced by wrap(<the original>) inside the block."""
    real = getattr(owner, name)
    setattr(owner, name, wrap(real))
    try:
        yield
    finally:
        setattr(owner, name, real)


def _counts(fastmix, call):
    """The integrand evaluations of every numerics.integrate call made by
    call(), summed from their QuadratureResults, and the calls of those
    integrands."""
    count = {"evaluations": 0, "calls": 0}

    def counted(integrate):
        def run(f, *args, **kwargs):
            def g(x):
                count["calls"] += 1
                return f(x)

            res = integrate(g, *args, **kwargs)
            count["evaluations"] += res.evaluations
            return res
        return run

    with _wrapped(fastmix.numerics, "integrate", counted):
        call()
    return count


def _entry(target, times, **fields):
    return dict(target=target, **fields, median_s=statistics.median(times),
                times_s=times)


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
    return _entry(name, times, call=call_name, **counts)


def _table_counts(proc):
    table = proc.variance_fn.table
    return {"cells": int(table.cells), "evaluations": int(table.evaluations)}


class _Routed(Exception):
    """Raised in place of the walk once simulate has routed it."""


def _picked(sim, proc, cfg):
    """The kernel simulate runs for proc at cfg, read off its routing: the
    kernel it calls and the workers that kernel hands sim._run, which
    raises before it walks."""
    seen = []

    def spy(kernel):
        return lambda real: lambda *a: seen.append(kernel) or real(*a)

    def routed(real):
        def run(cfg, x0, walk, workers=1, pids=None):
            seen.append(workers)
            raise _Routed
        return run

    with _wrapped(sim, "_path_major", spy("path-major")), \
            _wrapped(sim, "_step_major", spy("step-major")), \
            _wrapped(sim, "_run", routed), \
            contextlib.suppress(_Routed):
        sim.simulate(proc, cfg)
    kernel, workers = seen
    return kernel + " forked" if workers > 1 else kernel


def _kernels(fastmix, repeats, synth):
    """The kernels on every catalog kind, path-major forked only where the
    run forks, and step-major, the kernel simulate picks for them, on the
    quadrature route's SIM_TABLES; step-major only from
    STEP_MAJOR_MIN_PATHS paths up. Each walks the drift and sigma^2/2 that
    simulate hands it."""
    sim = fastmix.sim

    def serial(*args):
        with _wrapped(sim, "_workers", lambda real: lambda cfg: 1):
            return sim._path_major(*args)

    kernels = {"path-major": serial, "path-major forked": sim._path_major,
               "step-major": sim._step_major}
    targets = [(fastmix.synthesize(fastmix.parse_spec(
        {"kind": kind, "params": params})), None, kernels)
        for kind, params in CATALOG]
    targets += [(fastmix.synthesize(synth[name](),
                                    variance_mode="quadrature"), name,
                 {"step-major": sim._step_major}) for name in SIM_TABLES]
    entries = []
    for proc, name, offered in targets:
        drift, variance, (lo, hi), _ = sim._unpack_target(proc)
        for n_paths in WIDTHS:
            cfg = sim.SimConfig(dt=0.01 / proc.lambda1,
                                n_steps=max(500, PATH_STEPS // n_paths),
                                n_paths=n_paths, seed=3)
            walks = {kernel: walk for kernel, walk in offered.items()
                     if (kernel != "path-major forked"
                         or sim._workers(cfg) > 1)
                     and (kernel != "step-major"
                          or n_paths >= STEP_MAJOR_MIN_PATHS)}
            if not walks:
                continue
            picked = _picked(sim, proc, cfg)
            times = {kernel: [] for kernel in walks}
            for _ in range(repeats):
                for kernel, walk in walks.items():
                    t0 = time.perf_counter()
                    walk(drift, variance, lo, hi, proc.moments.m1, cfg)
                    times[kernel].append(time.perf_counter() - t0)
            faster = min(times, key=lambda kernel: statistics.median(
                times[kernel]))
            entries += [_entry(name or repr(proc.source), times[kernel],
                               kernel=kernel, paths=n_paths,
                               steps=cfg.n_steps,
                               path_steps_per_s=n_paths * cfg.n_steps
                               / statistics.median(times[kernel]),
                               faster=faster, picked=picked)
                        for kernel in walks]
    return entries


def _fork(fastmix, repeats):
    """Path-major on the dome and the Normal at each run of FORK_RUNS,
    walking every path in this process and forked as simulate runs it."""
    sim = fastmix.sim
    entries = []
    for doc in (DOME, OU):
        proc = fastmix.synthesize(fastmix.parse_spec(doc))
        drift, variance, (lo, hi), _ = sim._unpack_target(proc)
        for n_paths, n_steps, dt, burn_in in FORK_RUNS:
            cfg = sim.SimConfig(dt=dt, n_steps=n_steps, n_paths=n_paths,
                                seed=3, burn_in=burn_in)
            times = {1: [], sim._workers(cfg): []}
            for _ in range(repeats):
                for workers, readings in times.items():
                    with _wrapped(sim, "_workers",
                                  lambda real: lambda cfg: workers):
                        t0 = time.perf_counter()
                        sim._path_major(drift, variance, lo, hi,
                                        proc.moments.m1, cfg)
                        readings.append(time.perf_counter() - t0)
            entries += [_entry(repr(proc.source), readings,
                               kernel="path-major" + (
                                   " forked" if workers > 1 else ""),
                               paths=n_paths, steps=n_steps, workers=workers,
                               path_steps_per_s=n_paths * n_steps
                               / statistics.median(readings))
                        for workers, readings in times.items()]
    return entries


def _post_processing_reading(sim, proc, cfg, path):
    """{call: seconds} of the autocorrelation and the histogram in one
    simulate call, and of writing its autocorr.csv to path."""
    spent = {}

    def timed(name):
        def wrap(fn):
            def call(*args, **kwargs):
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                spent[name] = time.perf_counter() - t0
                return out
            return call
        return wrap

    with _wrapped(sim, "_mean_lag_products", timed("acf")), \
            _wrapped(np, "histogram", timed("histogram")):
        res = sim.simulate(proc, cfg)
    timed("autocorr.csv")(sim.write_autocorr_csv)(path, res.acf_lags,
                                                  res.acf)
    return spent


def _post_processing(fastmix, repeats):
    sim = fastmix.sim
    proc = fastmix.synthesize(fastmix.parse_spec(DOME))
    entries = []
    with tempfile.TemporaryDirectory() as out_dir:
        path = os.path.join(out_dir, "autocorr.csv")
        for n_paths, n_steps, burn_in in SIM_RUNS:
            cfg = sim.SimConfig(dt=0.01, n_steps=n_steps, n_paths=n_paths,
                                seed=3, burn_in=burn_in)
            readings = [_post_processing_reading(sim, proc, cfg, path)
                        for _ in range(repeats)]
            entries += [_entry(repr(proc.source), [r[call] for r in readings],
                               call=call, paths=n_paths, steps=n_steps,
                               burn_in=burn_in)
                        for call in ("acf", "histogram", "autocorr.csv")]
    return entries


def _route(fastmix, disc):
    """Which route spectrum(disc, SPECTRUM_K, vectors=False) ran,
    "certified" or "bisection", the solves each mode past the first took,
    in order (empty on bisection, or when the attempt was given up before
    any solve), and the cells of the coarsening the seeds came from
    (coarse_cells, 0 when no coarsening gave seeds), read off one untimed
    call."""
    spectral = fastmix.spectral
    solves, certified, cells = [], [], [0]

    def started(real):
        def start(*args):
            solves.append(0)
            return real(*args)
        return start

    def counted(real):
        def solve(*args):
            solves[-1] += 1
            return real(*args)
        return solve

    def seeded(real):
        def seeds(disc, *args):
            found = real(disc, *args)
            if found is not None:
                cells[0] = -(-disc.grid.n // found[0])
            return found
        return seeds

    def attempted(real):
        def attempt(*args):
            found = real(*args)
            certified.append(found is not None)
            return found
        return attempt

    with _wrapped(spectral, "_start", started), \
            _wrapped(spectral, "_shifted_solve", counted), \
            _wrapped(spectral, "_coarse_modes", seeded), \
            _wrapped(spectral, "_certified_low_modes", attempted):
        fastmix.spectrum(disc, SPECTRUM_K, vectors=False)
    route = "certified" if certified == [True] else "bisection"
    return {"route": route, "solves": solves, "coarse_cells": cells[0]}


def _spectrum_times(fastmix, disc, repeats):
    """repeats timings of spectrum(disc, SPECTRUM_K, vectors=False)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fastmix.spectrum(disc, SPECTRUM_K, vectors=False)
        times.append(time.perf_counter() - t0)
    return times


def _generator(fastmix, repeats):
    """discretize_generator, with its grid, and spectrum at every run of
    SPECTRAL_RUNS, on the optimal process of the run's target; each
    spectrum entry names the route it ran, its solves per mode and the
    cells of its seeds' coarsening."""
    with tempfile.TemporaryDirectory() as tmp:
        params = {job["ref"]["catalog"]: job["ref"]["params"]
                  for job in _workload_jobs("spectral", tmp)
                  if job["type"] == "spectrum"}
    entries = []
    for kind, n in SPECTRAL_RUNS:
        proc = fastmix.synthesize(fastmix.parse_spec(
            {"kind": kind, "params": params[kind]}))
        times = {"discretize_generator": [], "spectrum": []}
        for _ in range(1 + repeats):
            t0 = time.perf_counter()
            disc = fastmix.discretize_generator(
                proc, fastmix.default_grid(proc, n))
            t1 = time.perf_counter()
            fastmix.spectrum(disc, SPECTRUM_K, vectors=False)
            times["discretize_generator"].append(t1 - t0)
            times["spectrum"].append(time.perf_counter() - t1)
        name = repr(proc.source)
        entries += [_entry(name, times["discretize_generator"][1:],
                           call="discretize_generator", points=n),
                    _entry(name, times["spectrum"][1:], call="spectrum",
                           points=n, **_route(fastmix, disc))]
    return entries


def _sweep_discs(fastmix, points):
    """(name, generator) of every SWEEP_TARGETS entry at each of points."""
    for kind, params in SWEEP_TARGETS:
        proc = fastmix.synthesize(fastmix.parse_spec(
            {"kind": kind, "params": params}))
        for n in points:
            yield repr(proc.source), fastmix.discretize_generator(
                proc, fastmix.default_grid(proc, n))


def _seeds(fastmix, repeats):
    """spectrum on every SWEEP_TARGETS entry at each of SEED_POINTS, with
    the seeds' coarsening (spectral._SEED_CELLS) at each of SEED_CELLS:
    the sweep _SEED_CELLS is set from. Each entry names the route that
    ran and its solves per mode."""
    spectral = fastmix.spectral
    entries = []
    for name, disc in _sweep_discs(fastmix, SEED_POINTS):
        for cells in SEED_CELLS:
            with _wrapped(spectral, "_SEED_CELLS", lambda real: cells):
                fastmix.spectrum(disc, SPECTRUM_K, vectors=False)
                entries.append(_entry(
                    name, _spectrum_times(fastmix, disc, repeats),
                    points=disc.grid.n, seed_cells=cells,
                    **_route(fastmix, disc)))
    return entries


def _routing(fastmix, repeats):
    """spectrum on every SWEEP_TARGETS entry at each of ROUTE_POINTS, made
    to run each route by spectral._ROUTE_CELLS: the sweep _ROUTE_CELLS is
    set from. A certified entry that gave up names the route that ran."""
    spectral = fastmix.spectral
    entries = []
    for name, disc in _sweep_discs(fastmix, ROUTE_POINTS):
        for asked, route_cells in (("certified", 0),
                                   ("bisection", disc.grid.n)):
            with _wrapped(spectral, "_ROUTE_CELLS",
                          lambda real: route_cells):
                fastmix.spectrum(disc, SPECTRUM_K, vectors=False)
                entries.append(_entry(
                    name, _spectrum_times(fastmix, disc, repeats),
                    points=disc.grid.n, asked=asked,
                    **_route(fastmix, disc)))
    return entries


def _evolution(fastmix, repeats):
    """evolve_fpe on every evolve job of the spectral workload: a Gaussian
    bump offset_sd standard deviations from the mean, width_sd wide, on
    grid_points cells, evolved to t_end_tau relaxation times with records
    dt_tau apart."""
    with tempfile.TemporaryDirectory() as tmp:
        jobs = [job for job in _workload_jobs("spectral", tmp)
                if job["type"] == "evolve"]
    spectral = fastmix.spectral
    entries = []
    for job in jobs:
        proc = fastmix.synthesize(fastmix.parse_spec(
            {"kind": job["ref"]["catalog"], "params": job["ref"]["params"]}))
        m1, sd = proc.moments.m1, math.sqrt(proc.moments.variance)
        grid = fastmix.default_grid(proc, job["grid_points"])
        start = spectral.EvolutionState(grid=grid, density=(
            spectral.gaussian_bump(grid, m1 + job["offset_sd"] * sd,
                                   job["width_sd"] * sd)))
        tau = 1.0 / proc.lambda1
        times = []
        for _ in range(1 + repeats):
            t0 = time.perf_counter()
            _, recorded, _ = fastmix.evolve_fpe(
                proc, start, job["t_end_tau"] * tau, job["dt_tau"] * tau)
            times.append(time.perf_counter() - t0)
        entries.append(_entry(repr(proc.source), times[1:], job=job["name"],
                              points=job["grid_points"],
                              records=len(recorded)))
    return entries


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
            synthesis.append(_entry(name, times, route=route, **counts))

    table_build = []
    for name, make in synth.items():
        times = []
        for _ in range(1 + repeats):
            proc = fastmix.synthesize(make(), variance_mode="quadrature")
            t0 = time.perf_counter()
            proc.variance_fn.table
            times.append(time.perf_counter() - t0)
        times = times[1:]
        table_build.append(_entry(name, times, route="quadrature",
                                  **_table_counts(proc)))

    return {
        "pr": int(pr),
        "repeats": int(repeats),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "layers": {"numerics.quadrature": quadrature,
                   "optimal.synthesis": synthesis,
                   "optimal.table_build": table_build,
                   "sim.kernels": _kernels(fastmix, repeats, synth),
                   "sim.fork": _fork(fastmix, repeats),
                   "sim.post_processing": _post_processing(fastmix,
                                                           repeats),
                   "spectral.generator": _generator(fastmix, repeats),
                   "spectral.seeds": _seeds(fastmix, repeats),
                   "spectral.routing": _routing(fastmix, repeats),
                   "spectral.evolution": _evolution(fastmix, repeats)},
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
            print("%-20s %-52s %9.3f ms  %s" % (
                layer, e["target"], 1e3 * e["median_s"], "  ".join(
                    "%s %s" % kv for kv in e.items()
                    if kv[0] not in ("target", "median_s", "times_s"))))
    print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
