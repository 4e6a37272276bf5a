"""The benchmark's span tracer (perfbench/tracer.py) still finds every hook it
wraps.

The tracer reads DistributionSpec.moments and the __call__ of both variance
routes from the class dicts, and wraps the public functions of each module.
A refactor that moves one of them breaks the traced benchmark mode with a
KeyError or drops its spans; this test runs a tiny pipeline under the
tracer and checks that each hook still records.
"""

import importlib.util
import json
import os

import numpy as np
import pytest

import fastmix

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracer.py")


def _new_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.Tracer()


@pytest.fixture
def tracer():
    tr = _new_tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


def test_traced_pipeline_records_every_hook(tracer):
    pts = np.linspace(0.0, 1.0, 9)
    table = fastmix.Custom.from_table(pts, 1.0 + 0.5 * np.sin(3.0 * pts),
                                      rescale=True)
    proc = fastmix.synthesize(table)
    proc.variance_fn(np.linspace(0.1, 0.9, 5))
    grid = fastmix.default_grid(proc, 60)
    fastmix.spectrum(fastmix.discretize_generator(proc, grid), 3)
    fastmix.simulate(proc, fastmix.SimConfig(dt=1e-3, n_steps=50, n_paths=2,
                                             seed=1))
    names = {span[0] for span in tracer.spans}
    for name in ("optimal.synthesize", "distributions.moments",
                 "optimal.quad_variance", "numerics.tridiag_eigs",
                 "sim.simulate"):
        assert name in names, name
    assert tracer.total("numerics.tridiag_eigs", "n60", field=0) == 1
    assert tracer.total("sim.simulate", "w2", field=3) == 100


def test_traced_spectrum_command_tags_its_size(tracer, tmp_path):
    """The traced benchmark reads its spectral per-layer rows from the
    spans of `fastmix spectrum`, tagged by grid size."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "beta",
                                "params": {"alpha": 1.0, "beta": 1.0}}))
    assert fastmix.cli.main(["spectrum", str(spec), "--k", "3",
                             "--grid-points", "2000",
                             "--out", str(tmp_path / "out")]) == 0
    for name in ("spectral.spectrum", "numerics.tridiag_eigs"):
        assert tracer.total(name, "n2k", field=0) == 1, name


def test_uninstall_restores_the_originals():
    synthesize = fastmix.synthesize
    moments = fastmix.DistributionSpec.__dict__["moments"]
    tr = _new_tracer()
    tr.install()
    try:
        assert fastmix.synthesize is not synthesize
    finally:
        tr.uninstall()
    assert fastmix.synthesize is synthesize
    assert fastmix.optimal.synthesize is synthesize
    assert fastmix.DistributionSpec.__dict__["moments"] is moments
