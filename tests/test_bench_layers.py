"""The schema of BENCH_<pr>.json, as tools/bench_layers.py writes it: on a
short run, and on the file at the root of the tree."""

import glob
import importlib.util
import json
import os
import statistics

import pytest

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


LAYERS = {"numerics.quadrature", "optimal.synthesis", "optimal.table_build"}


def _check_schema(doc):
    """Every layer a file holds has its schema; a file written before the
    quadrature layer was timed lacks only that one."""
    assert set(doc) == {"pr", "repeats", "nproc", "python", "numpy",
                        "scipy", "layers"}
    assert isinstance(doc["pr"], int)
    assert doc["repeats"] >= 5 and doc["nproc"] >= 1
    assert all(isinstance(doc[k], str) for k in ("python", "numpy", "scipy"))
    assert LAYERS - {"numerics.quadrature"} <= set(doc["layers"]) <= LAYERS
    for e in doc["layers"].get("numerics.quadrature", ()):
        # files written before the integrand's calls were counted lack them
        assert set(e) - {"calls"} == {"target", "call", "median_s",
                                      "times_s", "evaluations"}
        if "calls" in e:
            # each call of an integrand evaluates at least one panel
            assert 1 <= e["calls"] <= e["evaluations"] // 15
        assert len(e["times_s"]) == doc["repeats"]
        assert all(t > 0.0 for t in e["times_s"])
        assert e["median_s"] == statistics.median(e["times_s"])
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
        assert len(e["times_s"]) == doc["repeats"]
        assert all(t > 0.0 for t in e["times_s"])
        assert e["median_s"] == statistics.median(e["times_s"])
        if e["route"] == "quadrature":
            assert e["cells"] > 0
            assert e["evaluations"] >= 15 * e["cells"]
        else:
            assert e["route"] == "closed"
            assert e["cells"] is None and e["evaluations"] is None


def test_a_short_run_has_the_schema():
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
