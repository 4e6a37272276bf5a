"""One workload process of the fastmix benchmark: a closed loop that runs the
workload's fixed, ordered job list pass after pass, checking every job.

    python3 perfbench/workload.py --workload paths --seed 1 --seconds 30 \\
        --trace 0 --work DIR

perfbench/run.py starts this file with fastmix's sources on PYTHONPATH and
BLAS/OpenMP pinned to one thread. The first pass is a warm-up and is not
timed; each timed sample is a whole pass, the sum of its jobs' wall times
scaled to one reference machine speed (see speed.py). After each timed pass
one set-up start runs (a fresh interpreter that imports fastmix and writes
the inputs, setup_probe.py), so that the set-up samples are spread over the
run. With --trace 1 there are no set-up starts; untraced and traced passes
alternate and the per-layer numbers come from the traced ones.
The last line of standard output is one JSON object: the benchmark's result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

_T0 = time.perf_counter()
import fastmix.cli as cli  # noqa: E402  (import time is measured)
_IMPORT_S = time.perf_counter() - _T0

import fastmix  # noqa: E402
import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402
from checks import CheckFailed  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")
MIN_TIMED_PASSES = 3  # of each kind (untraced, traced)
MIN_SETUP_STARTS = 5
# the declared-support Beta(1,1) gets lambda1 = 1 instead of the family's 4:
# parse_spec wraps it in Custom, whose budget defaults to the variance
KNOWN_FAULTS = ("optimal-dome-support",)

# CLI job type -> check of its artifacts
_CLI_CHECKS = {
    "simulate": lambda job, out, ref: checks.check_simulation(out, ref,
                                                              job["sim"]),
    "optimal": lambda job, out, ref: checks.check_optimal(out, ref),
    "spectrum": lambda job, out, ref: checks.check_spectrum(out, ref),
    "table": lambda job, out, ref: checks.check_table(out, job["rows"]),
}


def _cli(argv):
    code = cli.main(argv)
    if code != 0:
        raise CheckFailed("fastmix %s exited with %d" % (argv[0], code))


def _run_cli(job, out, ctx):
    _cli(job["argv"] + ["--out", out])
    _CLI_CHECKS[job["type"]](job, out, ctx["refs"].get(job["name"]))


def _run_replay(job, out, ctx):
    first = ctx["outs"][job["of"]]
    _cli(["replay", os.path.join(first, "manifest.json"), "--out", out])
    checks.check_same_artifacts(first, out)


def _run_mixture(job, out, ctx):
    ref = ctx["refs"][job["name"]]
    spec = fastmix.mixture([fastmix.parse_spec({"kind": k, "params": p})
                            for k, p in job["ref"]["mixture"]],
                           job["ref"]["weights"])
    proc = fastmix.synthesize(spec, job["ref"]["sigma_hat"])
    positive, vmin = fastmix.optimal.check_variance_positivity(proc)
    mean = fastmix.optimal.check_variance_mean(proc)
    disc = fastmix.discretize_generator(
        proc, fastmix.default_grid(proc, job["grid_points"]))
    gap = fastmix.spectrum(disc, 2).eigenvalues[1]
    checks.close("lambda1", proc.lambda1, ref["lam"], checks.LAMBDA_REL_TOL)
    if not positive:
        raise CheckFailed("sigma^2/2 reaches %g" % vmin)
    checks.close("mean of sigma^2/2", mean, ref["budget"], 1e-6)
    checks.close("spectral gap", gap, ref["lam"], checks.GAP_REL_TOL)


def _run_evolve(job, out, ctx):
    ref = ctx["refs"][job["name"]]
    proc = fastmix.synthesize(fastmix.parse_spec(
        {"kind": job["ref"]["catalog"], "params": job["ref"]["params"]}))
    sd = np.sqrt(ref["var"])
    grid = fastmix.default_grid(proc, job["grid_points"])
    start = fastmix.spectral.EvolutionState(
        grid=grid, density=fastmix.spectral.gaussian_bump(
            grid, ref["m1"] + job["offset_sd"] * sd, job["width_sd"] * sd))
    tau = 1.0 / proc.lambda1
    state, times, dists = fastmix.evolve_fpe(
        proc, start, job["t_end_tau"] * tau, job["dt_tau"] * tau)
    checks.check_evolution(times, dists, float(np.sum(start.density)),
                           float(np.sum(state.density)), ref)


_RUNNERS = {"simulate": _run_cli, "optimal": _run_cli, "spectrum": _run_cli,
            "table": _run_cli, "replay": _run_replay, "mixture": _run_mixture,
            "evolve": _run_evolve}


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def run_pass(jobs, ctx, devnull):
    """Run every job once, in order.

    Returns each job's wall seconds, the same at the reference speed, and
    the failures as (job, reason) pairs. Any exception a job raises is one
    failed operation; the pass goes on.
    """
    times, probes, failures = [], [], []
    for job in jobs:
        out = ctx["outs"][job["name"]]
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        probes.append(speed.probe())
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(devnull):
                _RUNNERS[job["type"]](job, out, ctx)
        except (Exception, SystemExit) as exc:
            failures.append((job["name"], "%s: %s" % (type(exc).__name__, exc)))
        times.append(time.perf_counter() - t0)
    probes.append(speed.probe())
    ctx["artifact_bytes"] = sum(_dir_bytes(ctx["outs"][j["name"]])
                                for j in jobs)
    return times, speed.scale(times, probes), failures


def setup_start(workload, seed, work):
    """Wall seconds of one fresh interpreter that imports fastmix's CLI and
    writes the workload's inputs (setup_probe.py), raw and at the reference
    speed.

    There is no timeout: with one, Popen.wait polls the child every 50 ms,
    and the times came out in 50 ms steps.
    """
    before = speed.probe()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                    workload, str(seed), work], check=True,
                   stdout=subprocess.DEVNULL)
    seconds = time.perf_counter() - t0
    shutil.rmtree(work, ignore_errors=True)
    return seconds, speed.scale([seconds], [before, speed.probe()])[0]


def _per_layer(tr, n_passes, overhead_s, import_s, artifact_bytes):
    """Per-layer metrics from the traced passes' totals."""
    def per_pass(name, tag=None, field=1):
        return tr.total(name, tag, field) / n_passes

    def per_call(name, tag=None):
        n = tr.total(name, tag, 0)
        return tr.total(name, tag) / n if n else 0.0

    def rate(name, tag=None):
        t = tr.total(name, tag)
        return tr.total(name, tag, 3) / t if t else 0.0

    qv_points = tr.total("optimal.quad_variance", field=3)
    m = {
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (tr.self_time("cli.") / n_passes, "s/pass"),
        "cli.artifact_bytes": (artifact_bytes, "bytes/pass"),
    }
    for cmd in ("simulate", "optimal", "spectrum", "table", "replay"):
        m["cli.%s_s" % cmd] = (per_call("cli.run_" + cmd), "s/call")
    for tag in ("w1", "w16", "w256", "reject"):
        m["sim.path_steps_per_s." + tag] = (rate("sim.simulate", tag), "1/s")
    m["sim.peak_alloc_mb.w256"] = (tr.alloc_peaks.get("w256", 0) / 2 ** 20,
                                   "MB")
    m["sim.rate_from_acf_s"] = (per_pass("sim.rate_from_acf"), "s")
    m["sim.write_csv_s"] = (per_pass("sim.write_autocorr_csv")
                            + per_pass("sim.write_hist_csv"), "s")
    m["optimal.synthesize_s"] = (per_pass("optimal.synthesize"), "s")
    m["optimal.checks_s"] = (sum(per_pass("optimal." + f) for f in (
        "verify_detailed_balance", "check_variance_positivity",
        "check_variance_mean")), "s")
    m["optimal.quad_variance_points"] = (qv_points / n_passes, "count/pass")
    m["optimal.quad_variance_us_per_point"] = (
        1e6 * tr.total("optimal.quad_variance") / qv_points
        if qv_points else 0.0, "us")
    m["numerics.integrate_calls"] = (per_pass("numerics.integrate", field=0),
                                     "count/pass")
    m["numerics.integrate_evals"] = (per_pass("numerics.integrate", field=3),
                                     "count/pass")
    m["numerics.integrate_s"] = (per_pass("numerics.integrate", field=2),
                                 "s/pass")
    m["numerics.truncated_interval_s"] = (
        per_pass("numerics.truncated_interval", field=2), "s/pass")
    for tag in ("n20k", "n200k"):
        m["numerics.tridiag_eigs_s." + tag] = (
            per_call("numerics.tridiag_eigs", tag), "s")
        m["spectral.spectrum_s." + tag] = (per_call("spectral.spectrum", tag),
                                           "s")
    m["spectral.discretize_s.n200k"] = (
        per_call("spectral.discretize_generator", "n200k"), "s")
    m["distributions.load_spec_s"] = (per_pass("distributions.load_spec"),
                                      "s")
    m["distributions.moments_s"] = (per_pass("distributions.moments"),
                                    "s")
    m["spectral.evolve_steps_per_s"] = (rate("spectral.evolve_fpe"), "1/s")
    m["spectral.evolve_s"] = (per_pass("spectral.evolve_fpe"), "s")
    m["pearson.verify_row_s"] = (
        per_call("pearson.verify_row_against_synthesis"), "s/row")
    m["trace.overhead_s"] = (overhead_s, "s")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def _report(name, samples, raw):
    """The samples behind a metric, scaled and raw, on standard error."""
    print("%s: %d samples: %s; raw wall: %s"
          % (name, len(samples), " ".join("%.4f" % t for t in samples),
             " ".join("%.4f" % t for t in raw)), file=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work", required=True,
                   help="directory for inputs and artifacts")
    args = p.parse_args()

    jobs = inputs.generate(args.workload, args.seed,
                           os.path.join(args.work, "inputs"))
    ctx = {"refs": {j["name"]: checks.reference(j["ref"])
                    for j in jobs if "ref" in j},
           "outs": {j["name"]: os.path.join(args.work, "out", j["name"])
                    for j in jobs}}
    tr = Tracer() if args.trace else None
    attempted = 0
    failures = []
    # traced? -> per timed pass: sum of scaled job seconds, raw sum
    passes = {False: [], True: []}
    raw_passes = {False: [], True: []}
    job_times = []  # scaled seconds of each untraced timed job
    setup, raw_setup = [], []  # seconds of the set-up starts
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        # warm-up; in a traced run it also takes the allocation peak
        if tr:
            tr.alloc_tags = ("w256",)
            tr.install()
        _, _, failed = run_pass(jobs, ctx, devnull)
        attempted += len(jobs)
        failures += failed
        if tr:
            tr.uninstall()
            tr.alloc_tags = ()
            tr.reset()
        t_start = time.perf_counter()
        traced = False
        while True:
            elapsed = time.perf_counter() - t_start
            kinds = (False, True) if tr else (False,)
            enough = (min(len(passes[k]) for k in kinds) >= MIN_TIMED_PASSES
                      and (args.trace or len(setup) >= MIN_SETUP_STARTS))
            # past twice the run length, one timed pass of each kind is
            # enough, so that a slow program still gets measured
            if elapsed >= args.seconds and (
                    enough or (elapsed >= 2 * args.seconds
                               and min(len(passes[k]) for k in kinds))):
                break
            if tr:
                traced = not traced
                if traced:
                    tr.reset(keep_stats=True)
                    tr.install()
            times, scaled, failed = run_pass(jobs, ctx, devnull)
            if tr and traced:
                tr.uninstall()
            passes[traced].append(sum(scaled))
            raw_passes[traced].append(sum(times))
            if not traced:
                job_times += scaled
            attempted += len(jobs)
            failures += failed
            if not tr:
                raw, scaled = setup_start(args.workload, args.seed,
                                          os.path.join(args.work, "setup"))
                raw_setup.append(raw)
                setup.append(scaled)

    unexpected = sorted({f for f in failures if f[0] not in KNOWN_FAULTS})
    for name, why in sorted(set(failures)):
        print("failed: %s: %s" % (name, why), file=sys.stderr)
    _report("pass_s", passes[False], raw_passes[False])
    if tr:
        _report("traced pass_s", passes[True], raw_passes[True])
        overhead = (statistics.median(passes[True])
                    - statistics.median(passes[False]))
        metrics = _per_layer(tr, len(passes[True]), overhead, _IMPORT_S,
                             ctx["artifact_bytes"])
        os.makedirs(TRACE_DIR, exist_ok=True)
        tr.write(os.path.join(TRACE_DIR, "trace-%s.json" % args.workload),
                 {"workload": args.workload, "seed": args.seed,
                  "traced_pass_s": passes[True],
                  "untraced_pass_s": passes[False]})
    else:
        _report("setup_s", setup, raw_setup)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "pass_s": {"value": statistics.median(passes[False]), "unit": "s"},
            "job_p50_s": {"value": statistics.median(job_times), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
