"""The schema of BENCH_<pr>.json, as tools/bench_layers.py writes it: on a
short run, and on the files at the root of the tree."""

import glob
import importlib.util
import json
import os
import statistics
import tempfile

import pytest

from fastmix import sim, spectral

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "bench_layers", os.path.join(ROOT, "tools", "bench_layers.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_tool()
TABLES = {"bimodal", "skewed", "mixture-beta", "mixture-jacobi",
          "mixture-gamma"}


LAYERS = {"numerics.quadrature", "optimal.synthesis", "optimal.table_build",
          "sim.kernels", "sim.fork", "sim.post_processing",
          "spectral.generator", "spectral.seeds", "spectral.routing",
          "spectral.evolution"}
# layers that files written before they were timed lack
LATER = {"numerics.quadrature", "sim.kernels", "sim.fork",
         "sim.post_processing", "spectral.generator", "spectral.seeds",
         "spectral.routing", "spectral.evolution"}
GENERATOR_CALLS = ("discretize_generator", "spectrum")
KERNELS = {"path-major", "path-major forked", "step-major"}
ROUTES = {"certified", "bisection"}
# the spectral workload's spectrum jobs, all that files written before the
# 2000-point runs were timed hold
WORKLOAD_SPECTRA = 5


def _check_times(e, repeats):
    assert len(e["times_s"]) == repeats
    assert all(t > 0.0 for t in e["times_s"])
    assert e["median_s"] == statistics.median(e["times_s"])


def _workers(paths, steps, nproc):
    """The processes a path-major run forks into on nproc cores, by
    sim._workers' rule."""
    return max(1, min(paths, nproc, paths * steps // sim._FORK_PATH_STEPS))


def _check_sim_layers(layers, repeats, nproc):
    """Serial path-major and step-major on every kind at every width, plus
    path-major forked wherever the run forks, and step-major on each table
    of SIM_TABLES (files written before they were timed lack them), each
    entry naming the faster of its kernels and the kernel simulate's rule
    gives; then each post-processing call at every run length. A file's
    readings take the 1-path run's steps as path-steps, but at least 500
    steps (files written before the forked runs were timed, and their
    path-steps per second recorded, took 32768 and timed no forked run).
    Step-major is timed from bench.STEP_MAJOR_MIN_PATHS paths up, or, in
    files written before that, at every width."""
    kernels = layers.get("sim.kernels", ())
    groups, tables = {}, {}
    path_steps = {e["steps"] for e in kernels if e["paths"] == 1}
    assert len(path_steps) <= 1
    forked = all("path_steps_per_s" in e for e in kernels)
    step_from = 1 if any(e["kernel"] == "step-major" and e["paths"] <
                         bench.STEP_MAJOR_MIN_PATHS for e in kernels) \
        else bench.STEP_MAJOR_MIN_PATHS
    step_widths = [w for w in bench.WIDTHS if w >= step_from]
    for e in kernels:
        assert set(e) == {"target", "kernel", "paths", "steps", "median_s",
                          "times_s", "faster", "picked"} | (
            {"path_steps_per_s"} if forked else set())
        _check_times(e, repeats)
        assert e["kernel"] in KERNELS
        assert e["steps"] == max(500, min(path_steps) // e["paths"])
        if forked:
            assert e["path_steps_per_s"] == \
                e["paths"] * e["steps"] / e["median_s"]
        if e["target"] in bench.SIM_TABLES:
            assert e["kernel"] == e["faster"] == e["picked"] == "step-major"
            tables[(e["target"], e["paths"])] = e
            continue
        forks = _workers(e["paths"], e["steps"], nproc) > 1
        assert e["picked"] == (
            "step-major" if e["paths"] > sim.PATH_MAJOR_MAX_PATHS
            else "path-major forked" if forks else "path-major")
        groups.setdefault((e["target"], e["paths"]), {})[e["kernel"]] = e
    if kernels:
        assert {paths for _, paths in groups} == set(bench.WIDTHS)
        assert len(groups) == len(bench.CATALOG) * len(bench.WIDTHS)
        assert len(tables) in (0, len(bench.SIM_TABLES) * len(step_widths))
        assert {paths for _, paths in tables} <= set(step_widths)
    for group in groups.values():
        e = next(iter(group.values()))
        forks = forked and _workers(e["paths"], e["steps"], nproc) > 1
        assert set(group) == (KERNELS if forks
                              else KERNELS - {"path-major forked"}) - (
            set() if e["paths"] >= step_from else {"step-major"})
        faster = min(group, key=lambda k: group[k]["median_s"])
        assert all(e["faster"] == faster for e in group.values())
    fork = layers.get("sim.fork", ())
    for e in fork:
        assert set(e) == {"target", "kernel", "paths", "steps", "workers",
                          "path_steps_per_s", "median_s", "times_s"}
        _check_times(e, repeats)
        assert e["path_steps_per_s"] == e["paths"] * e["steps"] / e["median_s"]
        workers = _workers(e["paths"], e["steps"], nproc)
        assert (e["kernel"], e["workers"]) in (
            ("path-major", 1), ("path-major forked", workers))
        assert workers > 1 or e["kernel"] == "path-major"
    if fork:
        runs = [(e["target"], e["paths"], e["steps"]) for e in fork]
        assert len({run[0] for run in runs}) == 2
        assert sorted(runs) == sorted(
            (target, paths, steps) for target in {run[0] for run in runs}
            for paths, steps, _, _ in bench.FORK_RUNS
            for workers in {1, _workers(paths, steps, nproc)})
    post = layers.get("sim.post_processing", ())
    for e in post:
        assert set(e) == {"target", "call", "paths", "steps", "burn_in",
                          "median_s", "times_s"}
        _check_times(e, repeats)
    if post:
        assert sorted((e["paths"], e["steps"], e["burn_in"], e["call"])
                      for e in post) == sorted(
            run + (call,) for run in bench.SIM_RUNS
            for call in ("acf", "histogram", "autocorr.csv"))


def _check_route(e, k=None):
    """A spectrum entry's route and its solves per mode past the first: k - 1
    modes of 1 to _MAX_SOLVES solves each when certified, a partial count
    (an attempt that failed) or none on bisection; and the cells of the
    seeds' coarsening, at most the grid's, which any solve needs, or 0
    where no coarsening gave seeds."""
    k = bench.SPECTRUM_K if k is None else k
    assert e["route"] in ROUTES
    assert isinstance(e["coarse_cells"], int)
    assert 0 <= e["coarse_cells"] <= e["points"]
    if e["solves"] or e["route"] == "certified":
        assert e["coarse_cells"] > 0
    assert all(isinstance(n, int) and 1 <= n <= spectral._MAX_SOLVES
               for n in e["solves"])
    if e["route"] == "certified":
        assert len(e["solves"]) == k - 1
    else:
        assert len(e["solves"]) <= k - 1


def _check_generator_layer(layers, repeats):
    """Both calls at every run of SPECTRAL_RUNS, one target per run; each
    spectrum names its route and solves (files written before the routes
    were recorded lack them, and time the workload's runs alone)."""
    entries = layers.get("spectral.generator", ())
    routed = any("route" in e for e in entries)
    for e in entries:
        spectrum_fields = ({"route", "solves", "coarse_cells"}
                           if routed and e["call"] == "spectrum" else set())
        assert set(e) == {"target", "call", "points", "median_s",
                          "times_s"} | spectrum_fields
        _check_times(e, repeats)
        if spectrum_fields:
            _check_route(e)
    if entries:
        runs = bench.SPECTRAL_RUNS if routed else \
            bench.SPECTRAL_RUNS[:WORKLOAD_SPECTRA]
        assert [(e["points"], e["call"]) for e in entries] == [
            (n, call) for _, n in runs for call in GENERATOR_CALLS]
        assert all(a["target"] == b["target"]
                   for a, b in zip(entries[::2], entries[1::2]))


def _check_sweep_layers(layers, repeats):
    """spectral.seeds: every SWEEP_TARGETS entry at every SEED_POINTS and
    SEED_CELLS; spectral.routing: every entry at every ROUTE_POINTS on
    both routes, bisection asked of a route that makes no attempt."""
    seeds = layers.get("spectral.seeds", ())
    for e in seeds:
        assert set(e) == {"target", "points", "seed_cells", "route",
                          "solves", "coarse_cells", "median_s", "times_s"}
        _check_times(e, repeats)
        _check_route(e)
    if seeds:
        assert len({e["target"] for e in seeds}) == len(bench.SWEEP_TARGETS)
        assert [(e["points"], e["seed_cells"]) for e in seeds] == [
            (n, cells) for _ in bench.SWEEP_TARGETS
            for n in bench.SEED_POINTS for cells in bench.SEED_CELLS]
    routing = layers.get("spectral.routing", ())
    for e in routing:
        assert set(e) == {"target", "points", "asked", "route", "solves",
                          "coarse_cells", "median_s", "times_s"}
        _check_times(e, repeats)
        _check_route(e)
        if e["asked"] == "bisection":
            assert e["route"] == "bisection" and e["solves"] == []
            assert e["coarse_cells"] == 0
    if routing:
        assert len({e["target"] for e in routing}) == \
            len(bench.SWEEP_TARGETS)
        assert [(e["points"], e["asked"]) for e in routing] == [
            (n, asked) for _ in bench.SWEEP_TARGETS
            for n in bench.ROUTE_POINTS
            for asked in ("certified", "bisection")]



def _evolve_jobs():
    """(name, grid points) of the spectral workload's evolve jobs."""
    with tempfile.TemporaryDirectory() as tmp:
        return [(job["name"], job["grid_points"])
                for job in bench._workload_jobs("spectral", tmp)
                if job["type"] == "evolve"]


def _check_evolution_layer(layers, repeats):
    """One entry per evolve job of the spectral workload, in its order,
    each with the records evolve_fpe returned."""
    entries = layers.get("spectral.evolution", ())
    for e in entries:
        assert set(e) == {"target", "job", "points", "records", "median_s",
                          "times_s"}
        _check_times(e, repeats)
        assert e["records"] >= 2
    if entries:
        assert [(e["job"], e["points"]) for e in entries] == _evolve_jobs()


def _check_schema(doc):
    """Every layer a file holds has its schema; a file written before a
    layer of LATER was timed lacks it."""
    assert set(doc) == {"pr", "repeats", "nproc", "python", "numpy",
                        "scipy", "layers"}
    assert isinstance(doc["pr"], int)
    assert doc["repeats"] >= 5 and doc["nproc"] >= 1
    assert all(isinstance(doc[k], str) for k in ("python", "numpy", "scipy"))
    assert LAYERS - LATER <= set(doc["layers"]) <= LAYERS
    _check_sim_layers(doc["layers"], doc["repeats"], doc["nproc"])
    _check_generator_layer(doc["layers"], doc["repeats"])
    _check_sweep_layers(doc["layers"], doc["repeats"])
    _check_evolution_layer(doc["layers"], doc["repeats"])
    for e in doc["layers"].get("numerics.quadrature", ()):
        # files written before the integrand's calls were counted lack them
        assert set(e) - {"calls"} == {"target", "call", "median_s",
                                      "times_s", "evaluations"}
        if "calls" in e:
            # each call of an integrand evaluates at least one panel
            assert 1 <= e["calls"] <= e["evaluations"] // 15
        _check_times(e, doc["repeats"])
        # at least one 15-point Kronrod panel per integral
        assert e["evaluations"] >= 15 and e["evaluations"] % 15 == 0
    synthesis = doc["layers"]["optimal.synthesis"]
    assert len({(e["target"], e["route"]) for e in synthesis}) == \
        len(synthesis) == 2 * len(bench.CATALOG)
    builds = doc["layers"]["optimal.table_build"]
    assert {e["target"] for e in builds} == TABLES
    for e in synthesis + builds:
        assert set(e) == {"target", "route", "median_s", "times_s", "cells",
                          "evaluations"}
        _check_times(e, doc["repeats"])
        if e["route"] == "quadrature":
            assert e["cells"] > 0
            assert e["evaluations"] >= 15 * e["cells"]
        else:
            assert e["route"] == "closed"
            assert e["cells"] is None and e["evaluations"] is None


def test_a_short_run_has_the_schema(monkeypatch):
    """One kind and one table, the sampler at 1 and 16 paths on short
    runs, which fork at 16 paths on two cores or more, a 1000- and a
    2000-point generator, the sweeps on two targets at two sizes and every
    evolution: the full sampler sweep takes about a minute."""
    monkeypatch.setattr(sim, "_FORK_PATH_STEPS", 1024)
    monkeypatch.setattr(bench, "CATALOG", bench.CATALOG[:1])
    monkeypatch.setattr(bench, "WIDTHS", (1, 16))
    monkeypatch.setattr(bench, "SIM_TABLES", ("bimodal",))
    monkeypatch.setattr(bench, "PATH_STEPS", 2048)
    monkeypatch.setattr(bench, "SIM_RUNS", ((16, 1000, 100),))
    monkeypatch.setattr(bench, "FORK_RUNS", ((16, 1000, 0.01, 100),))
    monkeypatch.setattr(bench, "SPECTRAL_RUNS", (("beta", 1000),
                                                 ("beta", 2000)))
    monkeypatch.setattr(bench, "SWEEP_TARGETS", bench.SWEEP_TARGETS[:2])
    monkeypatch.setattr(bench, "SEED_POINTS", (2000,))
    monkeypatch.setattr(bench, "SEED_CELLS", (250, 500))
    monkeypatch.setattr(bench, "ROUTE_POINTS", (1000, 2000))
    doc = bench.run(0)
    _check_schema(json.loads(json.dumps(doc)))
    assert doc["pr"] == 0 and doc["repeats"] == 5
    assert set(doc["layers"]) == LAYERS
    kernels = doc["layers"]["sim.kernels"]
    # step-major is timed from STEP_MAJOR_MIN_PATHS paths up
    assert [(e["target"], e["paths"]) for e in kernels
            if e["target"] == "bimodal"] == [("bimodal", 16)]
    assert [e["paths"] for e in kernels if e["kernel"] == "step-major"] == [
        16, 16]
    assert [(e["points"], e["route"], len(e["solves"]))
            for e in doc["layers"]["spectral.generator"]
            if e["call"] == "spectrum"] == [(1000, "bisection", 0),
                                            (2000, "certified", 4)]
    assert [(e["points"], e["asked"], e["route"])
            for e in doc["layers"]["spectral.routing"]] == 2 * [
        (1000, "certified", "certified"), (1000, "bisection", "bisection"),
        (2000, "certified", "certified"), (2000, "bisection", "bisection")]
    assert [e["paths"] for e in kernels
            if e["kernel"] == "path-major forked"] == (
        [16] if doc["nproc"] > 1 else [])
    assert [e["kernel"] for e in doc["layers"]["sim.fork"]] == 2 * (
        ["path-major", "path-major forked"] if doc["nproc"] > 1
        else ["path-major"])
    quadrature = doc["layers"]["numerics.quadrature"]
    assert all("calls" in e for e in quadrature)
    assert [(e["target"], e["call"]) for e in quadrature] == [
        (e["target"], "construct") for e in
        doc["layers"]["optimal.synthesis"][::2]] + [
        (name, "moments_quadrature") for name in
        [e["target"] for e in doc["layers"]["optimal.table_build"]]]


def test_the_sweep_targets_are_the_catalog_targets():
    """The sweeps run on the targets tests/test_spectral.py certifies."""
    from test_spectral import CATALOG_TARGETS

    fastmix = bench._fastmix()
    assert [repr(fastmix.parse_spec({"kind": kind, "params": params}))
            for kind, params in bench.SWEEP_TARGETS] == [
        repr(spec) for spec in CATALOG_TARGETS]


def test_quadrature_evaluations_are_counted_per_call():
    """Beta(2, 3)'s mass check is one exact Kronrod panel, one call of its
    integrand; the count is read from the QuadratureResults and leaves
    numerics.integrate as it was."""
    fastmix = bench._fastmix()
    integrate = fastmix.numerics.integrate
    doc = {"kind": "beta", "params": {"alpha": 2.0, "beta": 3.0}}
    assert bench._counts(fastmix, lambda: fastmix.parse_spec(doc)) == \
        {"evaluations": 15, "calls": 1}
    assert fastmix.numerics.integrate is integrate


def test_fewer_than_five_repeats_are_refused():
    with pytest.raises(ValueError):
        bench.run(0, repeats=4)


@pytest.mark.parametrize("path", sorted(glob.glob(
    os.path.join(ROOT, "BENCH_*.json"))), ids=os.path.basename)
def test_the_written_files_have_the_schema(path):
    with open(path) as fh:
        doc = json.load(fh)
    _check_schema(doc)
    assert os.path.basename(path) == "BENCH_%d.json" % doc["pr"]
