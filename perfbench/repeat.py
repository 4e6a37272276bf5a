"""Repeat the benchmark over several seeds and summarize every metric.

    python3 perfbench/repeat.py --workload paths --seeds 1-10 --trace 0

Runs perfbench/run.py once per seed, one run after another, for the
run_seconds that BENCHMARK.json gives. Prints for each metric its median,
quartiles (statistics.quantiles, n=4) and the quartile distance as a share
of the median, as a Markdown table. The raw
results go to .perfbench_out/repeat-<workload>-trace<n>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    results = []
    for seed in _seeds(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["seed"] = seed
        res["wall_s"] = time.perf_counter() - t0
        results.append(res)
        print("seed %d: %.1f s, correct %s, failed %d of %d"
              % (seed, res["wall_s"], res["correct"], res["failed"],
                 res["attempted"]), file=sys.stderr)
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "repeat-%s-trace%d.json"
                           % (args.workload, args.trace)), "w",
              encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)

    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print("%s, %d runs, seeds %s, failed share %s, all correct: %s\n"
          % (args.workload, len(results), args.seeds,
             " ".join("%.6g" % s for s in shares),
             all(r["correct"] for r in results)))
    print("| metric | unit | median | q1 | q3 | (q3-q1)/median |")
    print("|---|---|---|---|---|---|")
    for name, first in results[0]["metrics"].items():
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (med, med, med))
        spread = "%.1f%%" % (100 * (q3 - q1) / med) if med else "-"
        print("| %s | %s | %.4g | %.4g | %.4g | %s |"
              % (name, first["unit"], med, q1, q3, spread))


if __name__ == "__main__":
    main()
