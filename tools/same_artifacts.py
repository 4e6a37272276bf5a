"""Check that two source trees write the same CLI artifacts.

Generates each workload's benchmark inputs once (perfbench/inputs.py), runs
every CLI job of it, replay included, under both trees with
`python3 -m fastmix.cli`, and compares each job's exit code, its stdout and
every artifact it wrote except manifest.json, byte for byte. The library
jobs run in one subprocess per tree, making the benchmark's library calls,
and are compared by the repr of what they compute: a mixture's lambda1,
positivity and its minimum, budget and spectral gap; an evolution's
recorded times and distances. The default seven-row `fastmix table` (no
params file) is run and compared once as well. A differing stdout, library
result or CSV/JSON artifact is named with how far its numbers, paired in
order of appearance, moved.

    python3 tools/same_artifacts.py PARENT_CHECKOUT \\
        --workloads paths synth spectral --seeds 1 2

Exits 0 when everything matches and 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI_JOBS = ("simulate", "optimal", "spectrum", "table", "replay")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _inputs():
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, ROOT)
    from perfbench import inputs
    return inputs


def _run(tree, argv):
    env = dict(os.environ,
               PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run([sys.executable, "-m", "fastmix.cli"] + argv,
                          env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout


def _library_values(job):
    """The repr of each value a library job computes, one per line; the
    calls are those of perfbench/workload.py."""
    import fastmix
    from perfbench import checks

    if job["type"] == "mixture":
        ref = job["ref"]
        spec = fastmix.mixture([fastmix.parse_spec({"kind": k, "params": p})
                                for k, p in ref["mixture"]], ref["weights"])
        proc = fastmix.synthesize(spec, ref["sigma_hat"])
        positive, vmin = fastmix.optimal.check_variance_positivity(proc)
        budget = fastmix.optimal.check_variance_mean(proc)
        disc = fastmix.discretize_generator(
            proc, fastmix.default_grid(proc, job["grid_points"]))
        gap = fastmix.spectrum(disc, 2).eigenvalues[1]
        values = (("lambda1", proc.lambda1), ("positive", positive),
                  ("min", vmin), ("budget", budget), ("gap", gap))
    else:
        ref = checks.reference(job["ref"])
        proc = fastmix.synthesize(fastmix.parse_spec(
            {"kind": job["ref"]["catalog"], "params": job["ref"]["params"]}))
        sd = math.sqrt(ref["var"])
        grid = fastmix.default_grid(proc, job["grid_points"])
        start = fastmix.spectral.EvolutionState(
            grid=grid, density=fastmix.spectral.gaussian_bump(
                grid, ref["m1"] + job["offset_sd"] * sd, job["width_sd"] * sd))
        tau = 1.0 / proc.lambda1
        _, times, dists = fastmix.evolve_fpe(
            proc, start, job["t_end_tau"] * tau, job["dt_tau"] * tau)
        values = (("times", times.tolist()), ("distances", dists.tolist()))
    return "".join("%s %r\n" % (name, value) for name, value in values)


def _library_child():
    """Run the library jobs read as JSON from stdin, under the fastmix on
    PYTHONPATH; print {job name: [failed?, values]} as JSON."""
    out = {}
    for job in json.load(sys.stdin):
        try:
            out[job["name"]] = [0, _library_values(job)]
        except Exception as exc:  # a failure is a result to compare
            out[job["name"]] = [1, "%s: %s\n" % (type(exc).__name__, exc)]
    json.dump(out, sys.stdout)


def _run_library(tree, jobs):
    """{job name: (1 if it raised else 0, values, None)} for the library
    jobs, run in one subprocess under tree's sources."""
    jobs = [job for job in jobs if job["type"] not in CLI_JOBS]
    if not jobs:
        return {}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.abspath(tree), "src"), ROOT]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c",
         "from tools import same_artifacts; same_artifacts._library_child()"],
        input=json.dumps(jobs), env=env, capture_output=True, text=True,
        check=True)
    return {name: (code, values, None)
            for name, (code, values) in json.loads(proc.stdout).items()}


def _run_jobs(tree, jobs, out_root):
    """{job name: (exit code, stdout, out dir)} for the CLI jobs, then
    (failed?, values, None) for the library jobs."""
    done = {}
    for job in jobs:
        if job["type"] not in CLI_JOBS:
            continue
        out = os.path.join(out_root, job["name"])
        if job["type"] == "replay":
            first = done[job["of"]][2]
            argv = ["replay", os.path.join(first, "manifest.json")]
        else:
            argv = list(job["argv"])
        done[job["name"]] = _run(tree, argv + ["--out", out]) + (out,)
    done.update(_run_library(tree, jobs))
    return done


def _artifacts(out):
    if out is None or not os.path.isdir(out):
        return {}
    found = {}
    for base, _, files in os.walk(out):
        for name in files:
            path = os.path.join(base, name)
            rel = os.path.relpath(path, out)
            if rel != "manifest.json":
                with open(path, "rb") as fh:
                    found[rel] = fh.read()
    return found


def _moves(a, b):
    """How the numbers of two texts, paired in order, differ: how many
    moved, the largest relative move with its pair, and the largest
    absolute move of a number below 1e-6 of the texts' largest (a residual
    or an eigenvalue that is 0 but for roundoff, whose relative move says
    nothing); or how many numbers each holds when the counts differ."""
    x, y = NUMBER.findall(a), NUMBER.findall(b)
    if len(x) != len(y):
        return "%d vs %d numbers" % (len(x), len(y))
    x, y = [float(v) for v in x], [float(v) for v in y]
    moved = [(s, t) for s, t in zip(x, y) if s != t]
    floor = 1e-6 * max(map(abs, x + y), default=0.0)
    rel = max(((abs(s - t) / max(abs(s), abs(t)), s, t) for s, t in moved
               if max(abs(s), abs(t)) >= floor), default=None)
    tiny = max((abs(s - t) for s, t in moved
                if max(abs(s), abs(t)) < floor), default=None)
    out = ["%d of %d numbers differ" % (len(moved), len(x))]
    if rel:
        out.append("max rel %.2g at %.17g -> %.17g" % rel)
    if tiny is not None:
        out.append("near 0 max abs %.2g" % tiny)
    return ", ".join(out)


def _differences(old, new):
    """What differs between two (exit code, stdout, out dir) results."""
    diffs = []
    if old[0] != new[0]:
        diffs.append("exit code %d != %d" % (old[0], new[0]))
    if old[1] != new[1]:
        diffs.append("%s (%s)" % ("values" if old[2] is None else "stdout",
                                  _moves(old[1], new[1])))
    a, b = _artifacts(old[2]), _artifacts(new[2])
    diffs += ["only in one tree: " + name for name in sorted(set(a) ^ set(b))]
    for name in sorted(set(a) & set(b)):
        if a[name] == b[name]:
            continue
        if name.endswith((".csv", ".json")):
            name += " (%s)" % _moves(a[name].decode(), b[name].decode())
        diffs.append(name)
    return diffs


def _compare(trees, case, jobs, label):
    """Run jobs under the parent and the tree under test, print one line per
    job, and return (jobs that differ, jobs compared)."""
    runs = [_run_jobs(tree, jobs, os.path.join(case, side))
            for side, tree in zip(("parent", "tree"), trees)]
    failed = 0
    for name in runs[0]:
        diffs = _differences(runs[0][name], runs[1][name])
        failed += bool(diffs)
        print("%-6s %s %s%s" % ("DIFF" if diffs else "same", label, name,
                                ": " + ", ".join(diffs) if diffs else ""))
    return failed, len(runs[0])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="checkout of the tree to compare against")
    p.add_argument("--tree", default=ROOT,
                   help="tree under test (default: this checkout)")
    p.add_argument("--workloads", nargs="+",
                   help="default: every workload perfbench/inputs.py knows")
    p.add_argument("--seeds", nargs="+", type=int, default=[1])
    args = p.parse_args(argv)
    inputs = _inputs()
    work = tempfile.mkdtemp(prefix="same_artifacts-")
    trees = (args.parent, args.tree)
    counts = []
    try:
        for workload in args.workloads or inputs.WORKLOADS:
            for seed in args.seeds:
                case = os.path.join(work, "%s-%d" % (workload, seed))
                jobs = inputs.generate(workload, seed,
                                       os.path.join(case, "inputs"))
                counts.append(_compare(trees, case, jobs,
                                       "%s seed %d" % (workload, seed)))
        # every catalog row, where the workloads' table jobs hold only some
        counts.append(_compare(trees, os.path.join(work, "catalog"),
                               [{"type": "table", "name": "table-default",
                                 "argv": ["table"]}], "catalog"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed, checked = map(sum, zip(*counts))
    print("%d of %d jobs differ" % (failed, checked))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
