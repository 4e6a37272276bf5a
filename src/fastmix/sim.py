"""Euler-Maruyama simulation of a synthesized process and rate estimation
from the lag autocorrelation of the slow mode.

Noise comes from counter-based Philox streams keyed by (seed, path index).
A path's n_steps step normals are the first n_steps draws of its stream;
its reject-step re-draws are the draws after them, in step order. So
results for a given config are bit-identical across runs.

One chunk loop, _walk, serves both kernels. It fills a (_CHUNK, paths)
buffer from each path's stream (a Generator gives the same numbers in
chunks as in one call), _BLOCK paths at a time through a small row buffer,
has a kernel walk the chunk, writing each position over its normal, and
copies the kept rows into the series. A path's first re-draw opens a copy
of its stream's state after that chunk, moved past the step normals still
ahead. A run holds one array the size of its series plus buffers of
_CHUNK x n_paths.

_run walks a path-major run long enough to pay for a fork on several
cores: the paths go in contiguous blocks to _workers(cfg) = min(n_paths,
cores this process may run on, path-steps // _FORK_PATH_STEPS) workers.
The parent walks the first block into its series while a forked child
walks each other block into its own array, keying its streams by the
global path index, and sends it through a pipe; the parent reads it a
chunk of rows at a time into the series. So the series is the serial
one, bit for bit. Where os.fork or os.sched_getaffinity is missing, or a
fork fails, the parent walks the blocks itself, as it walks the block of
a child that died before sending it. simulate reaps every child before it
returns or raises, after its work on the series, which a child's exit
overlaps. Step-major is not split: its cost is per ufunc call, not per
path.

The check of the finished series reads its min and max, which simulate
passes on as the histogram's range. simulate then writes the slow mode of
a block of paths at a time into held buffers and transforms them
(_power_sum); those take less than the noise chunk _walk has freed. It
squares the series in place for m2_hat (a bare triple adds one centered
copy). The kernels do the same float operations on the same draws, so they
agree bit for bit.

Both kernels take one Euler step, x <- det + s xi. The optimal drift is
linear for every target, mu = a0 + a1 x, so every synthesized target,
closed or quadrature route, steps by det = c0 + c1 x with c0 = a0 dt and
c1 = 1 + a1 dt; only a bare (mu, sigma2half, support) triple's callable mu
keeps det = x + mu(x) dt. The kick scale is s = sqrt(max(v, 0)) with
v = 2 dt sigma^2/2, and the target's sigma^2/2 declaration picks one of
three kick rules. _step_rule folds the constants of all of them once per
run:

- quadratic: the Pearson kinds whose profile is a polynomial of degree one
  or two (Beta, Jacobi, Gamma, StudentCauchy, InverseGamma,
  FisherSnedecor) declare it as (p0, p1, p2), and
  v = (q2 x + q1) x + q0 with qk = 2 lambda1 dt pk.
- constant: the Normal declares (s2, 0, 0). With q1 = q2 = 0 the kick
  sqrt(q0) xi scales each chunk of normals once.
- profile: v = q profile(x), the profile called on the state at every
  step: q = 2 lambda1 dt for a closed callable profile (the
  Hyperexponential, CubicPearson), 2 dt for a quadrature target's
  tabulated sigma^2/2 or a bare triple's sigma2half.

Folding moves roundings: a step is the unfolded x + mu dt +
sqrt(2 sigma^2/2 dt) xi within a few ulps of the size of its terms, fewer
digits of the kick near a root of sigma^2 away from 0.

Two kernels walk a chunk:

- path-major walks each path's column on Python floats, one loop per kick
  rule, a few flops per step where a numpy call costs microseconds; with
  no finite end it skips the bounds test. simulate picks it for a target
  with a closed variance shape and at most PATH_MAJOR_MAX_PATHS paths.
- step-major steps all paths a row at a time: a step is about ten
  in-place ufuncs on held buffers, plus a call of the profile on the
  profile rule and of mu on a bare triple. Their scalar operands are 0-d
  arrays made once, as numpy converts a Python float at every call. Its
  cost is per call, not per path. It serves wider batches, quadrature
  targets (whose table is a scipy PCHIP) and bare triples.

A proposal that leaves a finite end of the support is folded back by the
triangle wave (reflect) or re-drawn (reject-step); points inside are left
untouched. A run fails by one rule: a reject-step proposal that takes more
than _MAX_TRIES draws fails it at the earliest such step across paths,
and across the blocks of a forked run (BoundaryViolation). Otherwise the
finished series, assembled from every block, is checked once: a path
that is not finite fails the run as NonFiniteState, naming the first kept
step at which some path is not finite.
"""

from __future__ import annotations

import math
import os
import signal
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import BoundaryViolation, InsufficientDecay, NonFiniteState
from .numerics import Grid, RateEstimate
from .optimal import OptimalProcess, _ClosedVariance, _QuadratureVariance

_MAX_TRIES = 100     # reject-step re-draws per step before giving up
_CHUNK = 1000        # steps per noise draw and per path-major float walk
# paths whose normals are drawn into rows of one small buffer, then copied
# into the chunk's columns together: at 256 paths, a strided copy per path
# took about a third of the time to fill a chunk
_BLOCK = 16
# the widest batch the path-major kernel takes, for every closed kind. The
# sim.kernels layer of tools/bench_layers.py (BENCH_28.json; 2 shared cores,
# numpy 2.4.6) read step-major against path-major forked on two cores, as
# simulate runs it from 8 paths at 131072 path-steps. On the six quadratic
# kinds and CubicPearson path-major leads at 16 paths by 41-181%; at 32 it
# leads by 8-55% on Jacobi, InverseGamma and CubicPearson and trails by
# 2-23% on the others; step-major leads from 64 paths on all seven. On
# the Normal's constant kick path-major leads at 8 paths in every file
# from BENCH_28.json to BENCH_32.json, by 40-50%. At 16 paths the sign of
# the lead changes from run to run: step-major against path-major forked
# read 13.9 against 16.9 ms (BENCH_28.json), 15.0 against 23.4
# (BENCH_30.json) and 11.5 against 16.0 (BENCH_32.json), but 22.1 against
# 19.3 (BENCH_31.json), so no limit of its own is set from them. The
# Hyperexponential's profile calls numpy: path-major leads by 76% at 8
# paths, step-major by 5% at 16, and no benchmark job samples it. One
# limit for every kind keeps one rule.
PATH_MAJOR_MAX_PATHS = 16
# bytes of the held blocks _power_sum transforms paths in, about 16 x the
# FFT size per path: 4 paths at the 2500 kept steps of the paths
# benchmark's 256-path OU and Gamma jobs, 1 at the dome job's 15875, where
# its buffers take 0.8 MB, inside the 2 MB noise chunk that _walk frees.
# Larger blocks gain little there, where the transforms take the time
_ACF_BYTES = 1 << 19
# path-steps a path-major run needs per worker it forks (_workers). Whole
# simulate calls on the dome, the Normal and Gamma, in a process that had
# run a paths benchmark pass (117 MB; 2 shared cores): two workers took
# 1.2-1.5x the serial time at 32000 path-steps and 0.8-1.3x at 100000 to
# 128000, a noisy break-even; forking the paths benchmark's 16 x 8000 jobs
# lowered its job_p50_s in 10 of 10 pairs
_FORK_PATH_STEPS = 50000


@dataclass(frozen=True)
class SimConfig:
    dt: float
    n_steps: int
    n_paths: int = 1
    seed: int = 0
    burn_in: int = 0
    boundary_mode: str = "reflect"

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("dt must be finite and positive")
        if self.n_steps < 1 or self.n_paths < 1:
            raise ValueError("n_steps and n_paths must be >= 1")
        if not 0 <= self.burn_in < self.n_steps:
            raise ValueError("burn_in must be in [0, n_steps)")
        if not 0 <= self.seed < 2 ** 64:
            # the first word of a path's Philox key (_path_rng)
            raise ValueError("seed must be in [0, 2**64)")
        if self.boundary_mode not in ("reflect", "reject-step"):
            raise ValueError("boundary_mode must be 'reflect' or 'reject-step'")


@dataclass(frozen=True)
class SimResult:
    m1_hat: float
    m2_hat: float
    hist_edges: np.ndarray
    hist_freq: np.ndarray  # density-normalized bin heights
    acf_lags: np.ndarray
    acf: np.ndarray  # normalized to acf[0] = 1
    n_samples: int


def _unpack_target(target):
    """(drift, sigma2half, support bounds, phi1). drift is the (a0, a1) of
    a synthesized target's linear drift, else a bare triple's callable mu;
    phi1 is the (slope, intercept) of the slow mode. A bare triple has no
    phi1: its slow mode is taken as x itself, centered and scaled."""
    if isinstance(target, OptimalProcess):
        var_fn = target.variance_fn
        if isinstance(var_fn, _QuadratureVariance):
            # a Kronrod panel per path and step is too slow inside the
            # loop; tabulate once and interpolate
            a, b = target.source.truncated_support()
            grid = Grid.uniform(a, b, 4001)
            var_fn = numerics.GridFunction(grid, np.maximum(
                np.asarray(target.variance_fn(grid.points), float), 0.0))
        sup = target.source.support
        return target.drift, var_fn, (sup.lower, sup.upper), target.phi1
    mu, var_fn, support = target
    lo, hi = float(support[0]), float(support[1])
    return mu, var_fn, (lo, hi), None


def _reflect(x, lo, hi):
    """Fold points that left [lo, hi] back in by the triangle wave (exact
    reflection). One numpy route serves a float and an array alike."""
    if math.isfinite(lo) and math.isfinite(hi):
        period = 2.0 * (hi - lo)
        y = np.mod(x - lo, period)
        return lo + np.minimum(y, period - y)
    if math.isfinite(lo):
        return lo + np.abs(x - lo)
    return hi - np.abs(hi - x)


def _path_rng(seed, i):
    # two-word key: path streams stay distinct across seeds as well; built
    # as uint64, as a list of words past int64 would pass through float64
    key = np.array([seed, i], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rejected(step, dt):
    return BoundaryViolation(
        "step rejected %d times at t=%g" % (_MAX_TRIES, step * dt))


def _finite(series, burn):
    """The (min, max) of series, or NonFiniteState naming the first kept
    step at which some path is not finite. A finite series passes on its
    min and max, with no temporary the size of the series."""
    span = series.min(), series.max()
    if math.isfinite(span[0]) and math.isfinite(span[1]):
        return span
    row = int(np.argmin(np.isfinite(series).all(axis=1)))
    raise NonFiniteState("state became non-finite by step %d" % (burn + row))


def _redraw(rng, det, s, lo, hi):
    """A reject-step proposal det + s xi re-drawn into [lo, hi], or None if
    it takes more than _MAX_TRIES draws. det is the step's deterministic
    part and s its noise scale, as the kernel's step forms them."""
    for _ in range(_MAX_TRIES):
        prop = det + s * rng.standard_normal()
        if not (prop < lo or prop > hi):
            return prop
    return None


def _run(cfg, x0, walk, workers=1, pids=None):
    """The (kept, n_paths) series and its (min, max), walked by workers
    processes, each on a contiguous block of paths (_walk).

    The parent walks the first block while forked children walk the
    others, each sending its block through a pipe (_fork). If a fork fails,
    the parent walks that block and the ones after it; if a child dies
    before it has sent its block, the parent walks that block after the
    others. Either way the series is the serial run's. The
    earliest give-up step across blocks fails the run, as it fails a
    serial one. A child that has sent its block is reaped here, or, given
    a list pids, left to the caller to reap: its pid is appended to pids.
    Any other child is killed and reaped before this returns or raises.
    """
    series = np.empty((cfg.n_steps - cfg.burn_in, cfg.n_paths))
    edges = [cfg.n_paths * k // workers for k in range(workers + 1)]
    blocks = list(zip(edges[:-1], edges[1:]))
    children = []  # [first, end, pid, read end of its pipe] until reaped
    try:
        for first, end in blocks[1:]:
            try:
                children.append(_fork(cfg, x0, walk, first, end))
            except OSError:
                break
        here = blocks[:1] + blocks[1 + len(children):]
        gave_up = [_walk(cfg, x0, walk, series[:, a:b], a) for a, b in here]
        lost = []
        while children:
            a, b, pid, pipe = children[-1]
            try:
                gave_up.append(_receive(pipe, series[:, a:b]))
            except EOFError:
                lost.append((a, b))
            children.pop()
            if pids is None:
                os.waitpid(pid, 0)
            else:
                pids.append(pid)
        gave_up += [_walk(cfg, x0, walk, series[:, a:b], a) for a, b in lost]
    finally:
        for _, _, pid, pipe in children:
            # the run is failing: no child's block is wanted
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    steps = [step for step in gave_up if step is not None]
    if steps:
        raise _rejected(min(steps), cfg.dt)
    return series, _finite(series, cfg.burn_in)


def _walk(cfg, x0, walk, series, first):
    """Step paths first, first + 1, ... from x0 through cfg's steps, a
    chunk at a time, into the columns of series, one per path; the step of
    the earliest give-up, or None.

    walk(chunk, x, redraws) steps every path from its state in x through
    chunk, an (m, paths) buffer of step normals, writing each position over
    its normal; redraws(i) is the re-draw stream of the block's path i. It
    returns how many rows every path completed.
    """
    n_steps, burn, n_paths = cfg.n_steps, cfg.burn_in, series.shape[1]
    noise = np.empty((_CHUNK, n_paths))
    block = np.empty((min(_BLOCK, n_paths), _CHUNK))
    rngs = [_path_rng(cfg.seed, first + i) for i in range(n_paths)]
    streams = {}  # path -> its re-draw stream, opened at its first re-draw
    x = np.full(n_paths, float(x0))

    def redraws(i):
        if i not in streams:
            # a copy of the path's stream after this chunk, moved past the
            # step normals still ahead
            rng = streams[i] = _path_rng(cfg.seed, first + i)
            rng.bit_generator.state = rngs[i].bit_generator.state
            for s in range(drawn, n_steps, _CHUNK):
                rng.standard_normal(min(_CHUNK, n_steps - s))
        return streams[i]

    # a diverging run overflows to inf and nan; the check of the finished
    # series reports it, so numpy need not warn on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, _CHUNK):
            drawn = min(start + _CHUNK, n_steps)
            chunk = noise[:drawn - start]
            for at in range(0, n_paths, len(block)):
                rows = block[:n_paths - at, :len(chunk)]
                for rng, row in zip(rngs[at:], rows):
                    rng.standard_normal(out=row)
                chunk[:, at:at + len(rows)] = rows.T
            done = walk(chunk, x, redraws)
            if done < len(chunk):
                return start + done
            if drawn > burn:
                keep = max(start, burn)
                series[keep - burn:drawn - burn] = chunk[keep - start:]
            x[:] = chunk[-1]
    return None


def _workers(cfg):
    """How many processes walk a path-major run: one per core this process
    may run on, but at most one per path and one per _FORK_PATH_STEPS
    path-steps; one where os.fork or os.sched_getaffinity is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(cfg.n_paths, len(os.sched_getaffinity(0)),
                      cfg.n_steps * cfg.n_paths // _FORK_PATH_STEPS))


def _fork(cfg, x0, walk, first, end):
    """[first, end, pid, read end of its pipe] of a forked child that walks
    paths first .. end - 1, then sends its give-up step as an int64 (-1 for
    none) and, if none, its (kept, end - first) block. The child leaves by
    os._exit: it runs no exit handler and flushes no buffer it shares with
    the parent."""
    fd, out = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(fd)
        os.close(out)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(fd)
            block = np.empty((cfg.n_steps - cfg.burn_in, end - first))
            step = _walk(cfg, x0, walk, block, first)
            _send(out, np.array([-1 if step is None else step], np.int64))
            if step is None:
                _send(out, block)
            status = 0
        finally:
            os._exit(status)
    os.close(out)
    return [first, end, pid, open(fd, "rb", buffering=0)]


def _send(fd, array):
    view = memoryview(array).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _receive(pipe, out):
    """A child's give-up step, or None once its block is read into out, a
    chunk of rows at a time; the pipe is closed on return. EOFError if the
    pipe ends early."""
    with pipe:
        head = np.empty(1, np.int64)
        _fill(pipe, head)
        if head[0] >= 0:
            return int(head[0])
        rows = np.empty((min(_CHUNK, len(out)), out.shape[1]))
        for at in range(0, len(out), len(rows)):
            part = rows[:len(out) - at]
            _fill(pipe, part)
            out[at:at + len(part)] = part
    return None


def _fill(pipe, array):
    """array's bytes read from pipe, looping on short reads."""
    view = memoryview(array).cast("B")
    while view:
        n = pipe.readinto(view)
        if not n:
            raise EOFError("a sampler worker's pipe ended early")
        view = view[n:]


def _step_rule(drift, variance, dt):
    """The constants of a run's Euler step x <- det + s xi (the module
    docstring), folded once: (fold, rule, k). fold is (c0, c1), or None
    for a callable mu. rule names the kick rule: "quadratic" with k =
    (q0, q1, q2), "constant" with k = s, or "profile" with k = (q,
    profile)."""
    fold = None
    if not callable(drift):
        a0, a1 = drift
        fold = (a0 * dt, 1.0 + a1 * dt)
    if not isinstance(variance, _ClosedVariance):
        return fold, "profile", (2.0 * dt, variance)
    scale = 2.0 * variance.lambda1 * dt
    if variance.coeffs is None:
        return fold, "profile", (scale, variance._profile)
    q0, q1, q2 = (scale * p for p in variance.coeffs)
    if q1 == q2 == 0.0:
        return fold, "constant", math.sqrt(0.0 if q0 < 0.0 else q0)
    return fold, "quadratic", (q0, q1, q2)


def _path_major(drift, variance, lo, hi, x0, cfg, pids=None):
    """The (kept, n_paths) series and its (min, max), each path walked on
    Python floats, in forked processes too on a long run (_run, which
    takes pids).

    drift is the (a0, a1) of mu = a0 + a1 x and variance a _ClosedVariance;
    the float operations are those of _step_major, in the same order. Each
    kick rule has its own loop: one loop that branched on the rule at
    every step made the dome 5% slower at 1 and 16 paths."""
    (c0, c1), rule, k = _step_rule(drift, variance, cfg.dt)
    if rule == "quadratic":
        q0, q1, q2 = k
    elif rule == "profile":
        q, profile = k
    reflect = cfg.boundary_mode == "reflect"
    bounded = math.isfinite(lo) or math.isfinite(hi)
    sqrt = math.sqrt

    def walk(chunk, starts, redraws):
        def settle(prop, det, s, i):
            # a proposal det + s xi that left: folded back, or re-drawn
            # (None on a give-up)
            if reflect:
                return float(_reflect(prop, lo, hi))
            return _redraw(redraws(i), det, s, lo, hi)

        if rule == "constant":
            # the kick s xi, once for the chunk
            np.multiply(chunk, k, out=chunk)
        done = len(chunk)
        # a path after another's give-up walks only up to it
        for i, x in enumerate(starts.tolist()):
            walked = []
            append = walked.append
            if rule == "quadratic":
                for xi in chunk[:done, i].tolist():
                    v = (q2 * x + q1) * x + q0
                    prop = c0 + c1 * x + sqrt(0.0 if v < 0.0 else v) * xi
                    if bounded and (prop < lo or prop > hi):
                        prop = settle(prop, c0 + c1 * x,
                                      sqrt(0.0 if v < 0.0 else v), i)
                        if prop is None:
                            break
                    x = prop
                    append(x)
            elif rule == "constant":
                for kick in chunk[:done, i].tolist():
                    prop = c0 + c1 * x + kick
                    if bounded and (prop < lo or prop > hi):
                        prop = settle(prop, c0 + c1 * x, k, i)
                        if prop is None:
                            break
                    x = prop
                    append(x)
            else:
                for xi in chunk[:done, i].tolist():
                    v = q * profile(x)
                    s = sqrt(0.0 if v < 0.0 else v)
                    prop = c0 + c1 * x + s * xi
                    if bounded and (prop < lo or prop > hi):
                        prop = settle(prop, c0 + c1 * x, s, i)
                        if prop is None:
                            break
                    x = prop
                    append(x)
            done = len(walked)
            chunk[:done, i] = walked
        return done

    return _run(cfg, x0, walk, _workers(cfg), pids)


def _step_major(drift, variance, lo, hi, x0, cfg):
    """The (kept, n_paths) series and its (min, max), all paths at once,
    one step at a time. Each step writes its proposal over its row of noise
    and folds or re-draws only the points that left.

    drift is the (a0, a1) of mu = a0 + a1 x or a bare triple's callable mu,
    and variance a _ClosedVariance or a callable sigma^2/2. Each step
    leaves its deterministic part in det and its kick scale in s, which
    re-draws read."""
    fold, rule, k = _step_rule(drift, variance, cfg.dt)
    reflect = cfg.boundary_mode == "reflect"
    low_end, high_end = math.isfinite(lo), math.isfinite(hi)
    s, det = np.empty((2, cfg.n_paths))
    # a step's cost is per ufunc call, so the calls are bound to local names
    # and their scalar operands held as 0-d float64 arrays, made once: numpy
    # converts a Python float operand at every call. At 256 paths
    # np.multiply took 0.42 us with a 0-d operand and 0.65 us with a float,
    # and 0.35 us called by a local name (2 cores, numpy 2.4.6). Re-draws
    # keep the floats.
    multiply, add, maximum, sqrt = np.multiply, np.add, np.maximum, np.sqrt
    # np.minimum.reduce took 0.93 us by a local name, prop.min() 1.03 us
    min_of, max_of = np.minimum.reduce, np.maximum.reduce
    zero, dt_ = np.array(0.0), np.array(float(cfg.dt))
    if fold is not None:
        c0, c1 = (np.array(v, float) for v in fold)
    quadratic, varying = rule == "quadratic", rule != "constant"
    if quadratic:
        q0, q1, q2 = (np.array(v, float) for v in k)
    elif varying:
        q, profile = np.array(k[0], float), k[1]
    else:
        s.fill(k)  # read only by re-draws

    def walk(chunk, x, redraws):
        if not varying:
            # the kick s xi, once for the chunk
            np.multiply(chunk, k, out=chunk)
        for row, prop in enumerate(chunk):
            if quadratic:
                # v = (q2 x + q1) x + q0
                multiply(x, q2, out=s)
                add(s, q1, out=s)
                multiply(s, x, out=s)
                add(s, q0, out=s)
            elif varying:
                multiply(profile(x), q, out=s)
            if varying:
                # s = sqrt(max(v, 0)), the kick s xi over the normals
                maximum(s, zero, out=s)
                sqrt(s, out=s)
                multiply(s, prop, out=prop)
            if fold is None:
                # det = x + mu dt
                multiply(drift(x), dt_, out=det)
                add(x, det, out=det)
            else:
                # det = c0 + c1 x
                multiply(x, c1, out=det)
                add(det, c0, out=det)
            add(det, prop, out=prop)
            # written so that a NaN fails the test: the other points still
            # fold
            if (low_end and not min_of(prop) >= lo) or \
                    (high_end and not max_of(prop) <= hi):
                bad = (prop < lo) | (prop > hi)
                if reflect:
                    prop[bad] = _reflect(prop[bad], lo, hi)
                else:
                    for i in np.nonzero(bad)[0].tolist():
                        p = _redraw(redraws(i), det[i], s[i], lo, hi)
                        if p is None:
                            return row
                        prop[i] = p
            x = prop
        return len(chunk)

    return _run(cfg, x0, walk)


def _takes_path_major(drift, variance, cfg):
    """Whether simulate walks a run path-major: a closed variance shape, a
    linear drift and at most PATH_MAJOR_MAX_PATHS paths; else step-major."""
    return (isinstance(variance, _ClosedVariance) and not callable(drift)
            and cfg.n_paths <= PATH_MAJOR_MAX_PATHS)


def simulate(target, cfg: SimConfig, x0=None, *, n_bins=50,
             max_lag=None) -> SimResult:
    """Euler-Maruyama paths X += mu dt + sqrt(2 (sigma^2/2) dt) xi.

    target is an OptimalProcess or a (mu, sigma2half, (lo, hi)) triple of
    callables plus bounds. Reports moment estimates, a density-normalized
    histogram, and the lag autocorrelation of the slow-mode observable over
    the retained (post burn-in) samples, at lags 0..max_lag (by default
    the kept steps less one, at most 50000).
    """
    kept = cfg.n_steps - cfg.burn_in
    if max_lag is None:
        max_lag = min(kept - 1, 50000)
    max_lag = int(max_lag)
    if not 0 <= max_lag < kept:
        raise ValueError("max_lag must be in [0, %d], the kept steps less one"
                         % (kept - 1))
    drift, var_fn, (lo, hi), phi1 = _unpack_target(target)
    if x0 is None:
        if isinstance(target, OptimalProcess):
            x0 = target.moments.m1
        else:
            raise ValueError("x0 is required for a bare (mu, var) target")
    # the walk's forked children, reaped as simulate returns or raises: a
    # child's exit takes a few ms in a large process, and overlaps the
    # work on the series
    pids = []
    try:
        if _takes_path_major(drift, var_fn, cfg):
            series, span = _path_major(drift, var_fn, lo, hi, x0, cfg, pids)
        else:
            series, span = _step_major(drift, var_fn, lo, hi, x0, cfg)
        n_samples = series.size
        m1_hat = float(series.mean())
        freq, edges = np.histogram(series.ravel(), bins=int(n_bins),
                                   range=span, density=True)
        # series is squared in place for m2_hat once its values are read
        if phi1 is None:
            # one centered copy, scaled in place; the squared series then
            # serves as the buffer for its squares
            obs = series - m1_hat
            m2_hat = float(np.multiply(series, series, out=series).mean())
            sd = float(np.sqrt(np.multiply(obs, obs, out=series).mean()))
            if sd > 0:
                np.divide(obs, sd, out=obs)
            acf = _mean_lag_products(obs, max_lag)
        else:
            acf = _mean_lag_products(series, max_lag, phi1)
            m2_hat = float(np.multiply(series, series, out=series).mean())
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
    if acf[0] <= 0:
        raise NonFiniteState("autocorrelation normalization is not positive")
    lags = np.arange(max_lag + 1)
    return SimResult(m1_hat=m1_hat, m2_hat=m2_hat, hist_edges=edges,
                     hist_freq=freq, acf_lags=lags, acf=acf / acf[0],
                     n_samples=n_samples)


def _mean_lag_products(series, max_lag, phi1=None):
    """Average of y_t y_(t+s) over paths and t, for s = 0..max_lag (FFT),
    where y is slope x + intercept for phi1 = (slope, intercept), as
    OptimalProcess.phi1_at computes it, or x itself when phi1 is None."""
    kept, n_paths = series.shape
    size = 1
    while size < 2 * kept:
        size *= 2
    raw = np.fft.irfft(_power_sum(series, size, phi1), n=size)[:max_lag + 1]
    counts = n_paths * (kept - np.arange(max_lag + 1)).astype(float)
    return raw / counts


def _power_sum(series, size, phi1):
    """The sum over paths, in path order, of |f|^2 for f the size-point
    rfft of each path's y, as _mean_lag_products defines y.

    Paths go through held buffers a block at a time. y of the block's paths
    is written in place into the rows of one buffer, one rfft call pads and
    transforms them all, and each f times its conjugate is formed in one
    held row. That is the sum of one transform per path, bit for bit;
    f.real**2 + f.imag**2 would not give those bits. The buffers are freed
    on return, before the inverse transform."""
    kept, n_paths = series.shape
    rows = max(1, min(n_paths, _ACF_BYTES // (16 * size)))
    block = np.empty((rows, kept))
    spectra = np.empty((rows, size // 2 + 1), complex)
    power = np.empty(size // 2 + 1, complex)
    spec_sum = np.zeros(size // 2 + 1)
    for first in range(0, n_paths, rows):
        y = block[:n_paths - first]
        x = series[:, first:first + len(y)].T
        if phi1 is None:
            np.copyto(y, x)
        else:
            np.add(np.multiply(x, phi1[0], out=y), phi1[1], out=y)
        for f in np.fft.rfft(y, n=size, axis=1, out=spectra[:len(y)]):
            np.multiply(f, np.conjugate(f, out=power), out=power)
            spec_sum += power.real
    return spec_sum


def rate_from_acf(lags, acf, dt, window=(0.05, 0.8)) -> RateEstimate:
    """Log-linear rate over the leading window where acf traverses the band.

    The fit covers the contiguous block from the first lag at or below the
    upper edge to the lag before the first dip below the lower edge; later
    lags are statistical noise around zero and re-enter the band by chance,
    so they never count. Fewer than 4 such lags raises InsufficientDecay.
    """
    rho = np.asarray(acf, dtype=float)
    lags = np.asarray(lags)
    low, high = float(window[0]), float(window[1])
    inside = np.nonzero(rho <= high)[0]
    if inside.size == 0:
        raise InsufficientDecay("autocorrelation never fell to %g" % high)
    i0 = int(inside[0])
    below = np.nonzero(rho[i0:] < low)[0]
    i1 = i0 + (int(below[0]) if below.size else rho.size - i0)
    if i1 - i0 < 4:
        raise InsufficientDecay("only %d lags inside the fit window"
                                % (i1 - i0))
    times = np.asarray(lags[i0:i1], dtype=float) * float(dt)
    return numerics.fit_exponential_decay(times, rho[i0:i1])


def estimate_rate(target, cfg: SimConfig, x0=None, *,
                  window=(0.05, 0.8)) -> RateEstimate:
    """Simulate, then fit the decay rate of the slow-mode autocorrelation."""
    res = simulate(target, cfg, x0=x0)
    return rate_from_acf(res.acf_lags, res.acf, cfg.dt, window=window)


def write_autocorr_csv(path, lags, acf):
    numerics.write_csv(path, "lag,autocorr\n", "%d,%.17g\n", lags, acf)


def write_hist_csv(path, edges, freq):
    edges = np.asarray(edges, dtype=float)
    numerics.write_csv(path, "bin_lo,bin_hi,freq\n", "%.17g,%.17g,%.17g\n",
                       edges, edges[1:], np.asarray(freq, dtype=float))
