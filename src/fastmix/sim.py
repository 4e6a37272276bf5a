"""Euler-Maruyama simulation of a synthesized process and rate estimation
from the lag autocorrelation of the slow mode.

Noise comes from counter-based Philox streams keyed by (seed, path index).
A path's n_steps step normals are the first n_steps draws of its stream,
taken _CHUNK at a time; a Generator gives the same numbers in chunks as in
one call. Reject-step re-draws are the draws after those n_steps, in step
order: a path's first re-draw opens a second generator on the same key and
discards its first n_steps normals, in chunks. So results for a given
config are bit-identical across runs.

A run holds one array the size of its series plus buffers of
_CHUNK x n_paths: simulate applies the observable one path at a time and
squares the series in place for m2_hat. A bare triple adds one centered
copy.

Two kernels run the step loop. They see the same draws in the same order
and do the same float operations, so they agree bit for bit:

- path-major: one path at a time, stepped on Python floats. simulate picks
  it for an OptimalProcess with a closed variance shape and at most
  PATH_MAJOR_MAX_PATHS paths. Its drift is linear and its sigma^2/2 a
  polynomial, a few flops per step, where a numpy call costs microseconds.
- step-major: all paths at once, one step at a time, in numpy with in-place
  buffers. It serves wider batches, quadrature targets and bare
  (mu, sigma2half, support) triples.

A proposal that leaves a finite end of the support is folded back by the
triangle wave (reflect) or re-drawn (reject-step). Points inside are left
untouched. A run fails by one rule, whichever kernel steps it:

- a reject-step proposal that takes more than _MAX_TRIES draws fails the
  run at the earliest such step across paths (BoundaryViolation);
- otherwise the finished series is checked once: a path that is not finite
  fails the run as NonFiniteState, naming the first kept step at which some
  path is not finite. A diverging run steps to its last step first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import (
    BoundaryViolation,
    InsufficientDecay,
    NonFiniteState,
)
from .numerics import Grid, RateEstimate
from .optimal import OptimalProcess, _ClosedVariance, _QuadratureVariance

_MAX_TRIES = 100     # reject-step re-draws per step before giving up
_CHUNK = 1000        # steps per noise draw and per path-major float walk
# the widest batch the path-major kernel takes. It costs about 0.4 us per
# path-step, the step-major loop about 15 us per step below 64 paths; on
# Beta, Normal and Gamma targets the two meet between 32 and 40 paths
PATH_MAJOR_MAX_PATHS = 32


@dataclass(frozen=True)
class SimConfig:
    dt: float
    n_steps: int
    n_paths: int = 1
    seed: int = 0
    burn_in: int = 0
    boundary_mode: str = "reflect"

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.n_steps < 1 or self.n_paths < 1:
            raise ValueError("n_steps and n_paths must be >= 1")
        if not 0 <= self.burn_in < self.n_steps:
            raise ValueError("burn_in must be in [0, n_steps)")
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
    """(mu, sigma2half, support bounds, observable). A bare triple has no
    observable: its slow mode is taken as x itself, centered and scaled."""
    if isinstance(target, OptimalProcess):
        var_fn = target.variance_fn
        if isinstance(var_fn, _QuadratureVariance):
            # a Kronrod panel per path and step is too slow inside the
            # loop; tabulate once and interpolate
            a, b = target.source.truncated_support()
            grid = Grid.uniform(a, b, 4001)
            var_fn = numerics.GridFunction(grid, np.maximum(
                np.asarray(target.variance_fn(grid.points), float), 0.0))
        slope, intercept = target.phi1

        def observable(x):
            return slope * x + intercept

        sup = target.source.support
        return target.drift_at, var_fn, (sup.lower, sup.upper), observable
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
    # two-word key: path streams stay distinct across seeds as well
    return np.random.Generator(
        np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, i]))


def _redraw_rng(seed, i, n_steps):
    """Path i's stream past its n_steps step normals, where its reject-step
    re-draws start."""
    rng = _path_rng(seed, i)
    for s in range(0, n_steps, _CHUNK):
        rng.standard_normal(min(_CHUNK, n_steps - s))
    return rng


def _rejected(step, dt):
    return BoundaryViolation(
        "step rejected %d times at t=%g" % (_MAX_TRIES, step * dt))


def _finite(series, burn):
    """series, or NonFiniteState naming the first kept step at which some
    path is not finite. A finite series passes on its min and max, with no
    temporary the size of the series."""
    if math.isfinite(series.min()) and math.isfinite(series.max()):
        return series
    row = int(np.argmin(np.isfinite(series).all(axis=1)))
    raise NonFiniteState("state became non-finite by step %d" % (burn + row))


def _redraw(rng, x, mu, sigma, dt, rootdt, lo, hi):
    """A reject-step proposal re-drawn into [lo, hi], or None if it takes
    more than _MAX_TRIES draws."""
    for _ in range(_MAX_TRIES):
        prop = x + mu * dt + sigma * rootdt * rng.standard_normal()
        if not (prop < lo or prop > hi):
            return prop
    return None


def _path_major(drift, variance, lo, hi, x0, cfg):
    """The (kept, n_paths) series, one path at a time on Python floats.

    drift is the (a0, a1) of mu = a0 + a1 x and variance a _ClosedVariance.
    The float operations are those of _step_major, in the same order.
    """
    a0, a1 = drift
    lam, profile = variance.lambda1, variance._profile
    n_steps, burn, dt = cfg.n_steps, cfg.burn_in, cfg.dt
    rootdt = math.sqrt(dt)
    reflect = cfg.boundary_mode == "reflect"
    sqrt = math.sqrt
    series = np.empty((n_steps - burn, cfg.n_paths))
    limit = n_steps  # the earliest reject-step give-up so far
    for i in range(cfg.n_paths):
        rng = _path_rng(cfg.seed, i)
        redraws = None
        x = float(x0)
        # a chunk of noise at a time bounds the float list and each write
        # into series
        for s in range(0, limit, _CHUNK):
            e = min(s + _CHUNK, limit)
            walked = []
            append = walked.append
            for xi in rng.standard_normal(e - s).tolist():
                v = lam * profile(x)
                sigma = sqrt(2.0 * (0.0 if v < 0.0 else v))
                mu = a0 + a1 * x
                prop = x + mu * dt + sigma * rootdt * xi
                if prop < lo or prop > hi:
                    if reflect:
                        prop = float(_reflect(prop, lo, hi))
                    else:
                        if redraws is None:
                            redraws = _redraw_rng(cfg.seed, i, n_steps)
                        prop = _redraw(redraws, x, mu, sigma, dt, rootdt,
                                       lo, hi)
                        if prop is None:
                            break
                x = prop
                append(x)
            if len(walked) < e - s:
                limit = s + len(walked)
                break
            if e > burn:
                k = max(s, burn)
                series[k - burn:e - burn, i] = walked[k - s:]
    if limit < n_steps:
        raise _rejected(limit, dt)
    return _finite(series, burn)


def _step_major(mu_fn, var_fn, lo, hi, x0, cfg):
    """The (kept, n_paths) series, all paths at once, one step at a time.

    Each step writes its proposal straight into its row of the series (or a
    burn-in buffer) and folds or re-draws only the points that left. Every
    _CHUNK steps the noise buffer is refilled from each path's stream.
    """
    n_paths, n_steps, burn = cfg.n_paths, cfg.n_steps, cfg.burn_in
    dt = cfg.dt
    rootdt = math.sqrt(dt)
    reflect = cfg.boundary_mode == "reflect"
    low_end, high_end = math.isfinite(lo), math.isfinite(hi)
    series = np.empty((n_steps - burn, n_paths))
    noise = np.empty((_CHUNK, n_paths))
    rngs = [_path_rng(cfg.seed, i) for i in range(n_paths)]
    redraws = {}  # path -> its re-draw stream, opened at its first re-draw
    burn_bufs = (np.empty(n_paths), np.empty(n_paths))
    sigma = np.empty(n_paths)
    kick = np.empty(n_paths)
    x = np.full(n_paths, float(x0))
    # a diverging run overflows to inf and nan; the check of the finished
    # series reports it, so numpy need not warn on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            row = step % _CHUNK
            if row == 0:
                m = min(_CHUNK, n_steps - step)
                for i, rng in enumerate(rngs):
                    noise[:m, i] = rng.standard_normal(m)
            prop = series[step - burn] if step >= burn else burn_bufs[step % 2]
            drift = mu_fn(x)
            np.maximum(var_fn(x), 0.0, out=sigma)
            np.multiply(sigma, 2.0, out=sigma)
            np.sqrt(sigma, out=sigma)
            np.multiply(drift, dt, out=prop)
            np.add(x, prop, out=prop)
            np.multiply(sigma, rootdt, out=kick)
            np.multiply(kick, noise[row], out=kick)
            np.add(prop, kick, out=prop)
            # written so that a NaN fails the test: the other points still fold
            if (low_end and not prop.min() >= lo) or \
                    (high_end and not prop.max() <= hi):
                bad = (prop < lo) | (prop > hi)
                if reflect:
                    prop[bad] = _reflect(prop[bad], lo, hi)
                else:
                    drift = np.broadcast_to(drift, prop.shape)
                    for i in np.nonzero(bad)[0].tolist():
                        if i not in redraws:
                            redraws[i] = _redraw_rng(cfg.seed, i, n_steps)
                        p = _redraw(redraws[i], x[i], drift[i], sigma[i], dt,
                                    rootdt, lo, hi)
                        if p is None:
                            raise _rejected(step, dt)
                        prop[i] = p
            x = prop
    return _finite(series, burn)


def simulate(target, cfg: SimConfig, x0=None, *, n_bins=50,
             max_lag=None) -> SimResult:
    """Euler-Maruyama paths X += mu dt + sqrt(2 (sigma^2/2) dt) xi.

    target is an OptimalProcess or a (mu, sigma2half, (lo, hi)) triple of
    callables plus bounds. Reports moment estimates, a density-normalized
    histogram, and the lag autocorrelation of the slow-mode observable over
    the retained (post burn-in) samples.
    """
    mu_fn, var_fn, (lo, hi), observable = _unpack_target(target)
    if x0 is None:
        if isinstance(target, OptimalProcess):
            x0 = target.moments.m1
        else:
            raise ValueError("x0 is required for a bare (mu, var) target")
    if isinstance(target, OptimalProcess) and \
            isinstance(var_fn, _ClosedVariance) and \
            cfg.n_paths <= PATH_MAJOR_MAX_PATHS:
        series = _path_major(target.drift, var_fn, lo, hi, x0, cfg)
    else:
        series = _step_major(mu_fn, var_fn, lo, hi, x0, cfg)
    kept, n_paths = series.shape
    n_samples = kept * n_paths
    m1_hat = float(series.mean())
    freq, edges = np.histogram(series.ravel(), bins=int(n_bins), density=True)
    if max_lag is None:
        max_lag = min(kept - 1, 50000)
    max_lag = int(max_lag)
    # series is squared in place for m2_hat once its values are read; the
    # observable is applied one path at a time
    if observable is None:
        # one centered copy, scaled in place; the squared series then
        # serves as the buffer for its squares
        obs = series - m1_hat
        m2_hat = float(np.multiply(series, series, out=series).mean())
        sd = float(np.sqrt(np.multiply(obs, obs, out=series).mean()))
        if sd > 0:
            np.divide(obs, sd, out=obs)
        acf = _mean_lag_products(obs, max_lag, lambda y: y)
    else:
        acf = _mean_lag_products(series, max_lag, observable)
        m2_hat = float(np.multiply(series, series, out=series).mean())
    if acf[0] <= 0:
        raise NonFiniteState("autocorrelation normalization is not positive")
    lags = np.arange(max_lag + 1)
    return SimResult(m1_hat=m1_hat, m2_hat=m2_hat, hist_edges=edges,
                     hist_freq=freq, acf_lags=lags, acf=acf / acf[0],
                     n_samples=n_samples)


def _mean_lag_products(series, max_lag, observable):
    """Average of y_t y_(t+s) over paths and t, for s = 0..max_lag (FFT),
    where y = observable(series) is taken one path at a time."""
    kept, n_paths = series.shape
    size = 1
    while size < 2 * kept:
        size *= 2
    spec_sum = np.zeros(size // 2 + 1)
    for i in range(n_paths):
        f = np.fft.rfft(observable(series[:, i]), n=size)
        spec_sum += (f * f.conj()).real
    raw = np.fft.irfft(spec_sum, n=size)[:max_lag + 1]
    counts = n_paths * (kept - np.arange(max_lag + 1)).astype(float)
    return raw / counts


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
