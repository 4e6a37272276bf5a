"""The schema of BENCH_<pr>.json, as tools/bench_layers.py writes it: on a
short run, and on the files at the root of the tree."""

import glob
import importlib.util
import json
import os
import statistics

import pytest

from fastmix import sim

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
          "sim.kernels", "sim.post_processing", "spectral.generator"}
# layers that files written before they were timed lack
LATER = {"numerics.quadrature", "sim.kernels", "sim.post_processing",
         "spectral.generator"}
GENERATOR_CALLS = ("discretize_generator", "spectrum")
KERNELS = {"path-major", "step-major"}


def _check_times(e, repeats):
    assert len(e["times_s"]) == repeats
    assert all(t > 0.0 for t in e["times_s"])
    assert e["median_s"] == statistics.median(e["times_s"])


def _check_sim_layers(layers, repeats):
    """Both kernels on every kind at every width, each entry naming the
    faster of its pair and the kernel simulate's rule gives; then each
    post-processing call at every run length."""
    kernels = layers.get("sim.kernels", ())
    pairs = {}
    for e in kernels:
        assert set(e) == {"target", "kernel", "paths", "steps", "median_s",
                          "times_s", "faster", "picked"}
        _check_times(e, repeats)
        assert e["kernel"] in KERNELS
        assert e["steps"] == max(500, bench.PATH_STEPS // e["paths"])
        assert e["picked"] == ("path-major" if e["paths"]
                               <= sim.PATH_MAJOR_MAX_PATHS else "step-major")
        pairs.setdefault((e["target"], e["paths"]), {})[e["kernel"]] = e
    if kernels:
        assert len(kernels) == 2 * len(pairs) == \
            2 * len(bench.CATALOG) * len(bench.WIDTHS)
        assert {paths for _, paths in pairs} == set(bench.WIDTHS)
    for pair in pairs.values():
        assert set(pair) == KERNELS
        faster = min(pair, key=lambda k: pair[k]["median_s"])
        assert all(e["faster"] == faster for e in pair.values())
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


def _check_generator_layer(layers, repeats):
    """Both calls at every run of SPECTRAL_RUNS, one target per run."""
    entries = layers.get("spectral.generator", ())
    for e in entries:
        assert set(e) == {"target", "call", "points", "median_s", "times_s"}
        _check_times(e, repeats)
    if entries:
        assert [(e["points"], e["call"]) for e in entries] == [
            (n, call) for _, n in bench.SPECTRAL_RUNS
            for call in GENERATOR_CALLS]
        assert all(a["target"] == b["target"]
                   for a, b in zip(entries[::2], entries[1::2]))


def _check_schema(doc):
    """Every layer a file holds has its schema; a file written before a
    layer of LATER was timed lacks it."""
    assert set(doc) == {"pr", "repeats", "nproc", "python", "numpy",
                        "scipy", "layers"}
    assert isinstance(doc["pr"], int)
    assert doc["repeats"] >= 5 and doc["nproc"] >= 1
    assert all(isinstance(doc[k], str) for k in ("python", "numpy", "scipy"))
    assert LAYERS - LATER <= set(doc["layers"]) <= LAYERS
    _check_sim_layers(doc["layers"], doc["repeats"])
    _check_generator_layer(doc["layers"], doc["repeats"])
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
    """One kind, the sampler at 1 and 16 paths on short runs and one
    2000-point generator: the full sampler sweep takes about 30 s."""
    monkeypatch.setattr(bench, "CATALOG", bench.CATALOG[:1])
    monkeypatch.setattr(bench, "WIDTHS", (1, 16))
    monkeypatch.setattr(bench, "PATH_STEPS", 2048)
    monkeypatch.setattr(bench, "SIM_RUNS", ((16, 1000, 100),))
    monkeypatch.setattr(bench, "SPECTRAL_RUNS", (("beta", 2000),))
    doc = bench.run(0)
    _check_schema(json.loads(json.dumps(doc)))
    assert doc["pr"] == 0 and doc["repeats"] == 5
    assert set(doc["layers"]) == LAYERS
    quadrature = doc["layers"]["numerics.quadrature"]
    assert all("calls" in e for e in quadrature)
    assert [(e["target"], e["call"]) for e in quadrature] == [
        (e["target"], "construct") for e in
        doc["layers"]["optimal.synthesis"][::2]] + [
        (name, "moments_quadrature") for name in
        [e["target"] for e in doc["layers"]["optimal.table_build"]]]


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
