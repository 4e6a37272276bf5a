"""Seeded input generator for the fastmix benchmark.

generate(workload, seed, out_dir) writes every file a workload's jobs read
(density files, `sim` sections, custom tables, the table command's row file)
and returns the workload's ordered job list. The program under test sees
only these generated files, plus the parameters a library job lists.

The seed moves parameters inside narrow ranges, so that the work of one pass
stays nearly the same from seed to seed while the numbers checked change.

Run on its own to look at the inputs:

    python3 perfbench/inputs.py --workload synth --seed 1 --out .perfbench_out/inputs
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np
from scipy.interpolate import PchipInterpolator

WORKLOADS = ("paths", "synth", "spectral")

# paths: (label, kind, params, lambda1 at the family's own budget)
_PATH_TARGETS = (
    ("dome", "beta", {"alpha": 1.0, "beta": 1.0}, 4.0),
    ("ou", "normal", {"x0": 0.0, "sigma": 1.0}, 1.0),
    ("gamma", "gamma", {"alpha": 1.0}, 1.0),
)
_SIM_DT = 0.01
# (paths, steps); the wide dome job is long enough for the rate check
_PATH_WIDTHS = ((1, 20000), (16, 8000), (256, 3000))
_DOME_W256_STEPS = 16000
_BURN_IN_TIME = 5.0  # in units of the relaxation time 1/lambda1


def _write_json(out_dir, name, doc):
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return path


def unit_mass_table(x, y):
    """Scale samples so that their PCHIP interpolant has unit mass."""
    return y / PchipInterpolator(x, y).integrate(x[0], x[-1])


def _paths(rng, out_dir):
    jobs = []
    for label, kind, params, lam in _PATH_TARGETS:
        spec = _write_json(out_dir, label + ".json",
                           {"kind": kind, "params": params})
        burn_in = int(round(_BURN_IN_TIME / (lam * _SIM_DT)))
        for paths, steps in _PATH_WIDTHS:
            if label == "dome" and paths == 256:
                steps = _DOME_W256_STEPS
            sim = {"dt": _SIM_DT, "steps": steps, "paths": paths,
                   "seed": int(rng.integers(1 << 31)), "burn_in": burn_in,
                   "boundary_mode": "reflect"}
            argv = ["simulate", spec, "--dt", repr(_SIM_DT),
                    "--steps", str(steps), "--paths", str(paths),
                    "--seed", str(sim["seed"]), "--burn-in", str(burn_in)]
            jobs.append({"name": "simulate-%s-w%d" % (label, paths),
                         "type": "simulate", "argv": argv, "sim": sim,
                         "ref": {"catalog": kind, "params": params}})
    # reject-step, set only through the density file's sim section
    label, kind, params, lam = _PATH_TARGETS[0]
    sim = {"dt": _SIM_DT, "steps": 8000, "paths": 16,
           "seed": int(rng.integers(1 << 31)),
           "burn_in": int(round(_BURN_IN_TIME / (lam * _SIM_DT))),
           "boundary_mode": "reject-step"}
    spec = _write_json(out_dir, "dome_reject.json",
                       {"kind": kind, "params": params, "sim": sim})
    jobs.append({"name": "simulate-dome-reject", "type": "simulate",
                 "argv": ["simulate", spec], "sim": sim,
                 "ref": {"catalog": kind, "params": params}})
    jobs.append({"name": "replay-dome-reject", "type": "replay",
                 "of": "simulate-dome-reject"})
    return jobs


def _synth(rng, out_dir):
    jobs = []
    # tabulated densities with no closed variance shape
    x = np.linspace(0.0, 1.0, 101)
    amp = rng.uniform(0.6, 0.7)
    shift = rng.uniform(-0.02, 0.02)
    y = 0.3 + np.sin(np.pi * x) * (1.0 + amp * np.cos(3.0 * np.pi * (x - shift)))
    tables = [("bimodal", x, y)]
    x = np.linspace(0.0, 4.0, 81)
    power = rng.uniform(1.45, 1.55)
    tables.append(("skewed", x, 0.02 + x ** power * np.exp(-2.0 * x)))
    # four cheaper jobs, table and its replay, four dearer ones: the median
    # job time is the middle of the table's and replay's samples (the skewed
    # spectrum's grid keeps it among the dearer ones)
    for (label, x, y), spectrum_points in zip(tables, ("60", "100")):
        spec = _write_json(out_dir, label + ".json", {
            "kind": "custom", "grid": x.tolist(),
            "pdf": unit_mass_table(x, y).tolist()})
        shalf = float(rng.uniform(0.4, 0.6))
        ref = {"table": spec, "sigma_hat": shalf}
        budget = ["--sigma-hat", repr(shalf)]
        jobs.append({"name": "optimal-" + label, "type": "optimal",
                     "argv": ["optimal", spec, "--grid-points", "60"] + budget,
                     "ref": ref})
        jobs.append({"name": "spectrum-" + label, "type": "spectrum",
                     "argv": ["spectrum", spec, "--k", "2",
                              "--grid-points", spectrum_points] + budget,
                     "ref": ref})
    # Beta(1,1) that declares its own support; must keep the family's lambda1
    spec = _write_json(out_dir, "dome_support.json", {
        "kind": "beta", "params": {"alpha": 1.0, "beta": 1.0},
        "support": [0.0, 1.0]})
    jobs.append({"name": "optimal-dome-support", "type": "optimal",
                 "argv": ["optimal", spec, "--grid-points", "60"],
                 "ref": {"catalog": "beta",
                         "params": {"alpha": 1.0, "beta": 1.0}}})
    # library mixtures (the density file format has no mixture kind)
    w = float(rng.uniform(0.35, 0.65))
    jobs.append({"name": "mixture-beta", "type": "mixture",
                 "grid_points": 400,
                 "ref": {"mixture": [["beta", {"alpha": 2.0, "beta": 5.0}],
                                     ["beta", {"alpha": 5.0, "beta": 2.0}]],
                         "weights": [w, 1.0 - w],
                         "sigma_hat": float(rng.uniform(0.4, 0.6))}})
    w = float(rng.uniform(0.35, 0.65))
    jobs.append({"name": "mixture-jacobi", "type": "mixture",
                 "grid_points": 400,
                 "ref": {"mixture": [["jacobi", {"alpha": 1.0, "beta": 3.0}],
                                     ["jacobi", {"alpha": 3.0, "beta": 1.0}]],
                         "weights": [w, 1.0 - w],
                         "sigma_hat": float(rng.uniform(0.4, 0.6))}})
    w = float(rng.uniform(0.35, 0.65))
    jobs.append({"name": "mixture-gamma", "type": "mixture",
                 "grid_points": 400,
                 "ref": {"mixture": [["gamma", {"alpha": 1.0}],
                                     ["gamma", {"alpha": 4.0}]],
                         "weights": [w, 1.0 - w],
                         "sigma_hat": float(rng.uniform(0.4, 0.6))}})
    # the table job holds the median job time, and its quadrature work
    # moves with the rows' parameters (by up to 8% from seed to seed when
    # they were drawn from [1, 2]), so the ranges are narrow
    rows = [
        {"name": "Beta", "params": {"alpha": float(rng.uniform(1.45, 1.55)),
                                    "beta": float(rng.uniform(1.45, 1.55))}},
        {"name": "Jacobi", "params": {"alpha": float(rng.uniform(1.45, 1.55)),
                                      "beta": float(rng.uniform(1.45, 1.55))}},
        {"name": "Gamma", "params": {"alpha": float(rng.uniform(1.45, 1.55))}},
        {"name": "Normal", "params": {"x0": float(rng.uniform(-0.1, 0.1)),
                                      "sigma": float(rng.uniform(0.95, 1.05))}},
    ]
    rows_file = _write_json(out_dir, "table_rows.json", rows)
    jobs.append({"name": "table", "type": "table",
                 "argv": ["table", "--params-file", rows_file],
                 "rows": rows})
    jobs.append({"name": "replay-table", "type": "replay", "of": "table"})
    return jobs


def _spectral(rng, out_dir):
    targets = {
        "beta": {"alpha": float(rng.uniform(0.5, 2.0)),
                 "beta": float(rng.uniform(0.5, 2.0))},
        "jacobi": {"alpha": float(rng.uniform(0.5, 2.0)),
                   "beta": float(rng.uniform(0.5, 2.0))},
        "normal": {"x0": float(rng.uniform(-1.0, 1.0)),
                   "sigma": float(rng.uniform(0.5, 2.0))},
        "gamma": {"alpha": float(rng.uniform(0.5, 2.0))},
    }
    files = {kind: _write_json(out_dir, kind + ".json",
                               {"kind": kind, "params": params})
             for kind, params in targets.items()}
    # four cheaper jobs (the 20k spectra), two short evolutions, four dearer
    # jobs (the 200k spectrum, three long evolutions): the median job time
    # is the middle of the short evolutions' samples. Those are interpreter
    # work, which the speed probe follows; the eigensolver is compiled work,
    # which it does not
    jobs = []
    for kind, n in (("beta", 20000), ("jacobi", 20000), ("normal", 20000),
                    ("gamma", 20000), ("normal", 200000)):
        jobs.append({"name": "spectrum-%s-n%dk" % (kind, n // 1000),
                     "type": "spectrum",
                     "argv": ["spectrum", files[kind], "--k", "5",
                              "--grid-points", str(n)],
                     "ref": {"catalog": kind, "params": targets[kind]}})
    # Crank-Nicolson survives these starts: a bump half a standard deviation
    # wide, one standard deviation from the mean, on 400 cells, at
    # dt = 1e-3 / lambda1 (8000 steps) or 4e-3 / lambda1 (2000 steps)
    for name, kind, params, side, dt_tau in (
            ("gamma-short", "gamma", {"alpha": 1.0}, 1.0, 4e-3),
            ("ou-short", "normal", {"x0": 0.0, "sigma": 1.0}, -1.0, 4e-3),
            ("dome", "beta", {"alpha": 1.0, "beta": 1.0}, 1.0, 1e-3),
            ("dome-left", "beta", {"alpha": 1.0, "beta": 1.0}, -1.0, 1e-3),
            ("ou", "normal", {"x0": 0.0, "sigma": 1.0}, 1.0, 1e-3)):
        jobs.append({"name": "evolve-" + name, "type": "evolve",
                     "grid_points": 400,
                     "offset_sd": side * float(rng.uniform(0.9, 1.1)),
                     "width_sd": 0.5, "t_end_tau": 8.0, "dt_tau": dt_tau,
                     "ref": {"catalog": kind, "params": params}})
    return jobs


def generate(workload, seed, out_dir):
    """Write the inputs of one workload under out_dir; return its job list."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    make = {"paths": _paths, "synth": _synth, "spectral": _spectral}[workload]
    return make(rng, out_dir)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    jobs = generate(args.workload, args.seed, args.out)
    print(json.dumps(jobs, indent=1))


if __name__ == "__main__":
    main()
