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


def _check_schema(doc):
    assert set(doc) == {"pr", "repeats", "nproc", "python", "numpy",
                        "scipy", "layers"}
    assert isinstance(doc["pr"], int)
    assert doc["repeats"] >= 5 and doc["nproc"] >= 1
    assert all(isinstance(doc[k], str) for k in ("python", "numpy", "scipy"))
    assert set(doc["layers"]) == {"optimal.synthesis", "optimal.table_build"}
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
