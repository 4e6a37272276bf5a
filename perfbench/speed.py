"""Machine-speed probe.

On a shared host the same code runs up to half again slower for stretches
of seconds to minutes, so raw wall times of identical runs drift apart.
probe() times a fixed mix of interpreter and small-array numpy work, the
kind fastmix's loops do; it takes about REFERENCE_S on an uncontended core
of the reference host. The benchmark runs it just before every job and
set-up start and after the last, and scales each wall time by REFERENCE_S
over the mean of the probes on either side of it. That reports times at one
reference speed; the raw wall times go to standard error.
"""

import time

import numpy as np

REFERENCE_S = 0.02
_ITERS = 4000


def probe():
    """Wall seconds of one fixed unit of mixed Python and numpy work."""
    x = np.linspace(0.0, 1.0, 64)
    acc = 0
    t0 = time.perf_counter()
    for i in range(_ITERS):
        x = np.abs(np.sin(x * 1.0001 + 0.5))
        for j in range(40):
            acc += i * j
    return time.perf_counter() - t0


def scale(times, probes):
    """Wall times at the reference speed; probes[i] and probes[i + 1] are
    the probe times just before and just after times[i]."""
    return [t * 2.0 * REFERENCE_S / (probes[i] + probes[i + 1])
            for i, t in enumerate(times)]
