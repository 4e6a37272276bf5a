"""Path-steps per second of the two sampler kernels on every closed kind.

For each catalog kind with a closed variance shape, and each width in
1, 8, 16, 32, 64 and 256 paths, runs `sim._path_major` and
`sim._step_major` on the kind's optimal process (reflect mode,
dt = 0.01 / lambda1) and prints the median of 5 readings of path-steps per
second for each, the faster kernel, and the one `simulate` picks. The
readings alternate between the kernels, so that a slow stretch of a shared
host falls on both. The widest width at which path-major still wins, per
kind, is what `PATH_MAJOR_MAX_PATHS` and `NUMPY_PROFILE_MAX_PATHS` in
`src/fastmix/sim.py` are set from.

It then times what `simulate` does after the walk, on the dome (Beta(1, 1))
at the lengths of the benchmark's `paths` jobs: 1, 16 and 256 paths, and
the 256-path length of its OU and Gamma jobs. For each it prints the median
of 5 readings of the seconds `simulate` spends in the autocorrelation
(`sim._mean_lag_products`) and in `np.histogram`, and of the seconds
`sim.write_autocorr_csv` takes to write the result.

    PYTHONPATH=src python3 tools/sampler_speed.py

A full run takes under a minute on one core.
"""

from __future__ import annotations

import os
import statistics
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from fastmix import sim  # noqa: E402
from fastmix.distributions import (  # noqa: E402
    Beta, CubicPearson, FisherSnedecor, Gamma, Hyperexponential,
    InverseGamma, Jacobi, Normal, StudentCauchy)
from fastmix.optimal import synthesize  # noqa: E402

KINDS = (Beta(1.0, 1.0), Jacobi(0.5, 1.5), Gamma(1.0), Normal(0.3, 2.0),
         StudentCauchy(2.2), InverseGamma(3.0), FisherSnedecor(3.0, 9.0),
         Hyperexponential(0.5, 0.5, 1.0, 2.0), CubicPearson(1.0, 2.0, 0.5))
WIDTHS = (1, 8, 16, 32, 64, 256)
REPEATS = 5
PATH_STEPS = 32768  # per reading, but at least 500 steps
# (paths, steps, burn-in) of the benchmark's paths jobs, dt = 0.01: the
# dome's three widths, then the 256-path length of the OU and Gamma jobs
LAYER_RUNS = ((1, 20000, 125), (16, 8000, 125), (256, 16000, 125),
              (256, 3000, 500))


def _reading(kernel, proc, cfg):
    sup = proc.source.support
    t0 = time.perf_counter()
    kernel(proc.drift, proc.variance_fn, sup.lower, sup.upper,
           proc.moments.m1, cfg)
    return cfg.n_steps * cfg.n_paths / (time.perf_counter() - t0)


def _picked(proc, n_paths):
    """The kernel simulate runs for proc at n_paths, read off its routing."""
    seen = []
    real = sim._path_major, sim._step_major
    try:
        sim._path_major = lambda *a: seen.append("path") or real[0](*a)
        sim._step_major = lambda *a: seen.append("step") or real[1](*a)
        sim.simulate(proc, sim.SimConfig(dt=0.01 / proc.lambda1, n_steps=2,
                                         n_paths=n_paths))
    finally:
        sim._path_major, sim._step_major = real
    return seen[0]


def _layer_reading(proc, cfg, out_dir):
    """{layer: seconds} of one simulate call and its autocorr.csv write."""
    spent = {}

    def timed(name, fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] = time.perf_counter() - t0
        return call

    real = sim._mean_lag_products, np.histogram
    try:
        sim._mean_lag_products = timed("acf", real[0])
        np.histogram = timed("histogram", real[1])
        res = sim.simulate(proc, cfg)
    finally:
        sim._mean_lag_products, np.histogram = real
    timed("autocorr.csv", sim.write_autocorr_csv)(
        os.path.join(out_dir, "autocorr.csv"), res.acf_lags, res.acf)
    return spent


def post_processing():
    proc = synthesize(Beta(1.0, 1.0))
    print("post-processing seconds on the dome, median of %d" % REPEATS)
    print("%5s %6s %9s %9s %12s"
          % ("paths", "steps", "acf", "histogram", "autocorr.csv"))
    with tempfile.TemporaryDirectory() as out_dir:
        for n_paths, n_steps, burn_in in LAYER_RUNS:
            cfg = sim.SimConfig(dt=0.01, n_steps=n_steps, n_paths=n_paths,
                                seed=3, burn_in=burn_in)
            readings = [_layer_reading(proc, cfg, out_dir)
                        for _ in range(REPEATS)]
            print("%5d %6d %9.4f %9.4f %12.4f" % ((n_paths, n_steps) + tuple(
                statistics.median(r[layer] for r in readings)
                for layer in ("acf", "histogram", "autocorr.csv"))))


def main():
    print("nproc %d, numpy %s; path-steps per second, median of %d"
          % (os.cpu_count(), np.__version__, REPEATS))
    print("%-17s %5s %12s %12s %7s %7s"
          % ("kind", "paths", "path-major", "step-major", "faster",
             "picked"))
    for spec in KINDS:
        proc = synthesize(spec)
        widest, leading = 0, True
        for n_paths in WIDTHS:
            cfg = sim.SimConfig(dt=0.01 / proc.lambda1,
                                n_steps=max(500, PATH_STEPS // n_paths),
                                n_paths=n_paths, seed=3)
            rates = {"path": [], "step": []}
            for _ in range(REPEATS):
                rates["path"].append(_reading(sim._path_major, proc, cfg))
                rates["step"].append(_reading(sim._step_major, proc, cfg))
            path = statistics.median(rates["path"])
            step = statistics.median(rates["step"])
            leading = leading and path > step
            if leading:
                widest = n_paths
            print("%-17s %5d %12.4g %12.4g %7s %7s"
                  % (spec.kind, n_paths, path, step,
                     "path" if path > step else "step",
                     _picked(proc, n_paths)))
        print("%-17s path-major wins at every width up to %d paths"
              % (spec.kind, widest))
    post_processing()


if __name__ == "__main__":
    main()
