"""Set-up probe: a fresh interpreter imports fastmix's CLI and writes one
workload's inputs, then exits. perfbench/workload.py times it from start to
exit after each timed pass; the median of those times is setup_s.

    python3 perfbench/setup_probe.py WORKLOAD SEED OUT_DIR
"""

import sys

import fastmix.cli  # noqa: F401  (importing it is the set-up being timed)

import inputs

if __name__ == "__main__":
    inputs.generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
