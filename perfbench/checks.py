"""Reference values computed apart from fastmix, and the checks that compare
the program's outputs with them.

lambda1 = budget / var(pi) comes from scipy.stats moments for catalog kinds,
from exact Gauss-Legendre integration of the PCHIP pieces for tables, and
from scipy quadrature for mixtures. Every check raises CheckFailed.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy import integrate, stats
from scipy.interpolate import PchipInterpolator

GAP_REL_TOL = 0.01        # spectral gap against lambda1
EVOLVE_RATE_REL_TOL = 0.05
SIM_RATE_REL_TOL = 0.10
# A fitted rate is checked only when the job holds at least this many
# relaxation times of path (lambda1 * dt * kept steps * paths). Over 30
# seeds at about 1.6e5 the fit missed lambda1 by +2.1% on average, with a
# standard deviation of 1.2%, so a 10% miss is more than six away.
SIM_RATE_MIN_RELAXATIONS = 1.5e5
SIGMAS = 6.0              # width of the sampling bounds
# lambda1 and the moments; fastmix's own quadrature of a PCHIP table was
# seen to miss the exact mean by 3e-9 (relative), though it asks for 1e-11
LAMBDA_REL_TOL = 1e-7


class CheckFailed(Exception):
    """A program output disagrees with its independent reference."""


def _scipy_dist(kind, params):
    """Frozen scipy distribution and canonical sigma^2/2 budget of a kind."""
    if kind == "beta":
        a, b = params["alpha"] + 1.0, params["beta"] + 1.0
        d = stats.beta(a, b)
        return d, float(d.mean() - (d.var() + d.mean() ** 2)), -1.0
    if kind == "jacobi":
        d = stats.beta(params["beta"] + 1.0, params["alpha"] + 1.0,
                       loc=-1.0, scale=2.0)
        return d, float(1.0 - (d.var() + d.mean() ** 2)), -1.0
    if kind == "gamma":
        d = stats.gamma(params["alpha"] + 1.0)
        return d, float(d.mean()), 0.0
    if kind == "normal":
        d = stats.norm(params["x0"], params["sigma"])
        return d, float(params["sigma"] ** 2), 0.0
    raise ValueError("no reference for kind %r" % kind)


def _table_moments(path):
    """Mean and variance of the PCHIP interpolant of a table, integrated
    exactly (4-point Gauss-Legendre per knot interval; degree <= 5)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    x = np.asarray(doc["grid"], float)
    interp = PchipInterpolator(x, np.asarray(doc["pdf"], float))
    t, w = np.polynomial.legendre.leggauss(4)
    half = 0.5 * np.diff(x)
    nodes = (0.5 * (x[:-1] + x[1:]))[:, None] + half[:, None] * t[None, :]
    wts = half[:, None] * w[None, :]
    p = interp(nodes)
    mass = float(np.sum(wts * p))
    m1 = float(np.sum(wts * p * nodes)) / mass
    var = float(np.sum(wts * p * (nodes - m1) ** 2)) / mass
    return m1, var


def _mixture_moments(components, weights):
    dists = [_scipy_dist(kind, params)[0] for kind, params in components]

    def pdf(x):
        return sum(w * d.pdf(x) for w, d in zip(weights, dists))

    lo = min(d.support()[0] for d in dists)
    hi = max(d.support()[1] for d in dists)
    m1 = integrate.quad(lambda x: x * pdf(x), lo, hi, epsabs=0,
                        epsrel=1e-12, limit=200)[0]
    var = integrate.quad(lambda x: (x - m1) ** 2 * pdf(x), lo, hi, epsabs=0,
                         epsrel=1e-12, limit=200)[0]
    return m1, var


def reference(ref):
    """Independent m1, variance, budget and lambda1 of a job's target.

    ref is a job's "ref" mapping: {"catalog": kind, "params": ...},
    {"table": path, "sigma_hat": S} or {"mixture": [[kind, params], ...],
    "weights": [...], "sigma_hat": S}. Without "sigma_hat" the budget is
    the family's canonical level.
    """
    out = {"cdf": None, "ladder_b2": None}
    if "catalog" in ref:
        dist, budget, b2 = _scipy_dist(ref["catalog"], ref["params"])
        m1, var = float(dist.mean()), float(dist.var())
        out.update(cdf=dist.cdf, ladder_b2=b2)
    elif "table" in ref:
        m1, var = _table_moments(ref["table"])
        budget = None
    else:
        m1, var = _mixture_moments(ref["mixture"], ref["weights"])
        budget = None
    if ref.get("sigma_hat") is not None:
        budget = float(ref["sigma_hat"])
        out["ladder_b2"] = None  # the ladder holds at the canonical level
    out.update(m1=m1, var=var, budget=budget, lam=budget / var)
    return out


# --- comparisons --------------------------------------------------------------

def close(what, got, want, rel):
    got = float(got)
    if not (math.isfinite(got) and abs(got - want) <= rel * abs(want)):
        raise CheckFailed("%s is %.12g, reference %.12g (rel tol %g)"
                          % (what, got, want, rel))


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_optimal(out_dir, ref):
    proc = _read_json(os.path.join(out_dir, "process.json"))
    close("lambda1", proc["lambda1"], ref["lam"], LAMBDA_REL_TOL)
    close("variance", proc["moments"]["variance"], ref["var"], LAMBDA_REL_TOL)
    if not (abs(proc["moments"]["m1"] - ref["m1"])
            <= LAMBDA_REL_TOL * math.sqrt(ref["var"])):
        raise CheckFailed("m1 is %r, reference %r"
                          % (proc["moments"]["m1"], ref["m1"]))
    if _read_json(os.path.join(out_dir, "checks.json"))["passed"] is not True:
        raise CheckFailed("checks.json does not pass")


def check_spectrum(out_dir, ref):
    lams = [float(r["lambda"]) for r in
            _read_csv(os.path.join(out_dir, "spectrum.csv"))]
    if len(lams) < 2:
        raise CheckFailed("spectrum.csv holds no gap")
    close("spectral gap", lams[1], ref["lam"], GAP_REL_TOL)
    if ref["ladder_b2"] is not None:
        # closed ladder of the Pearson families at their canonical budget
        for n, lam in enumerate(lams[2:], start=2):
            close("eigenvalue %d" % n, lam,
                  n * ref["lam"] - ref["ladder_b2"] * n * (n - 1),
                  GAP_REL_TOL)


def check_simulation(out_dir, ref, sim):
    """Rate, mean and histogram of a simulate run against pi.

    Every observable of a reversible process decorrelates at least as fast
    as the slowest mode, so kept * paths samples hold at least
    lambda1 * T / 2 independent ones, T the total path time.
    """
    kept = sim["steps"] - sim["burn_in"]
    relax = ref["lam"] * sim["dt"] * kept * sim["paths"]
    sd = math.sqrt(ref["var"])
    rate = _read_json(os.path.join(out_dir, "rate.json"))
    close("lambda1_analytic", rate["lambda1_analytic"], ref["lam"],
          LAMBDA_REL_TOL)
    if rate["n_samples"] != kept * sim["paths"]:
        raise CheckFailed("n_samples is %r, expected %d"
                          % (rate["n_samples"], kept * sim["paths"]))
    # 1% of a standard deviation allows for the Euler-Maruyama bias
    mean_bound = SIGMAS * sd * math.sqrt(2.0 / relax) + 0.01 * sd
    if not abs(rate["m1_hat"] - ref["m1"]) <= mean_bound:
        raise CheckFailed("sample mean %.6g is more than %.3g from %.6g"
                          % (rate["m1_hat"], mean_bound, ref["m1"]))
    rows = _read_csv(os.path.join(out_dir, "hist.csv"))
    lo = np.array([float(r["bin_lo"]) for r in rows])
    hi = np.array([float(r["bin_hi"]) for r in rows])
    freq = np.array([float(r["freq"]) for r in rows])
    ecdf = np.cumsum(freq * (hi - lo))
    cdf_bound = SIGMAS * math.sqrt(0.5 / relax) + 0.01
    dist = float(np.max(np.abs(ecdf - ref["cdf"](hi))))
    if not dist <= cdf_bound:
        raise CheckFailed("histogram cdf is %.3g from pi, bound %.3g"
                          % (dist, cdf_bound))
    if relax >= SIM_RATE_MIN_RELAXATIONS:
        close("fitted rate", rate["rate"], ref["lam"], SIM_RATE_REL_TOL)


def check_evolution(times, dists, mass_start, mass_end, ref):
    """Decay rate and mass of a density evolution.

    The rate is a least-squares line through log distance over the samples
    between 1e-6 and a tenth of the first distance, where the slowest mode
    dominates.
    """
    t = np.asarray(times, float)
    d = np.asarray(dists, float)
    window = (d >= 1e-6) & (d <= 0.1 * d[0])
    if np.count_nonzero(window) < 5:
        raise CheckFailed("fewer than 5 distances inside the fit window")
    slope = np.polyfit(t[window], np.log(d[window]), 1)[0]
    close("decay rate", -slope, ref["lam"], EVOLVE_RATE_REL_TOL)
    close("mass", mass_end, mass_start, 1e-9)


def check_table(out_dir, rows):
    got = _read_csv(os.path.join(out_dir, "table1.csv"))
    if len(got) != len(rows):
        raise CheckFailed("table1.csv has %d rows, expected %d"
                          % (len(got), len(rows)))
    for line, row in zip(got, rows):
        if line["verified"] != "true":
            raise CheckFailed("row %s is not verified" % line["name"])
        ref = reference({"catalog": row["name"].lower(),
                         "params": row["params"]})
        close(line["name"] + " var", line["var"], ref["var"], LAMBDA_REL_TOL)
        close(line["name"] + " lambda1", line["lambda1"], ref["lam"],
              LAMBDA_REL_TOL)
        close(line["name"] + " sigma_hat_sq_half",
              line["sigma_hat_sq_half"], ref["budget"], LAMBDA_REL_TOL)


def check_same_artifacts(first_dir, second_dir, skip=("manifest.json",)):
    """A replay's artifacts must match the original run's byte for byte."""
    a = sorted(os.listdir(first_dir))
    b = sorted(os.listdir(second_dir))
    if a != b:
        raise CheckFailed("replay wrote %s, original %s" % (b, a))
    for name in a:
        if name in skip:
            continue
        with open(os.path.join(first_dir, name), "rb") as fh:
            want = fh.read()
        with open(os.path.join(second_dir, name), "rb") as fh:
            if fh.read() != want:
                raise CheckFailed("replayed %s differs" % name)
