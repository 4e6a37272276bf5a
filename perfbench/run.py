"""Benchmark of fastmix's paths, synth and spectral pipelines.

    python3 perfbench/run.py --workload {paths,synth,spectral} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source tree that holds src/fastmix. With --trace 0
the last line of standard output is a JSON object with the end-to-end
metrics pass_s, job_p50_s, peak_rss_mb and setup_s; with --trace 1 it holds
the per-layer metrics of a traced run instead. The samples behind each
metric go to standard error. Run outputs go to .perfbench_out/ under the
root. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# one BLAS/OpenMP thread: on 2 cores threaded OpenBLAS spread the n=20000
# spectrum between 0.048 and 0.088 s (quartiles); pinned, 0.039 to 0.040 s
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for name in PINNED:
        env[name] = "1"
    return env


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("paths", "synth", "spectral"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "fastmix", "cli.py")):
        print("error: no fastmix sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench_out", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "workload.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", work],
            env=_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        print("error: the workload process exited with %d"
              % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    print(json.dumps(json.loads(lines[-1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
