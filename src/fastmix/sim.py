"""Euler-Maruyama simulation of a synthesized process and rate estimation
from the lag autocorrelation of the slow mode.

Noise comes from counter-based Philox streams keyed by (seed, path index).
Each path draws its n_steps normals up front; reject-step re-draws come
after them from the same stream, in step order. So results for a given
config are bit-identical across runs.

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
untouched. The earliest failure across all paths is the one raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import numerics
from .errors import (
    BoundaryViolation,
    InsufficientDecay,
    NonFiniteState,
)
from .numerics import Grid, RateEstimate
from .optimal import OptimalProcess, _ClosedVariance, _QuadratureVariance

_CHECK_EVERY = 1000  # steps between finiteness checks
_MAX_TRIES = 100     # reject-step re-draws per step before giving up
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
    """(mu, sigma2half, support bounds, observable, center_obs)."""
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
        return (target.drift_at, var_fn, (sup.lower, sup.upper),
                observable, False)
    mu, var_fn, support = target
    lo, hi = float(support[0]), float(support[1])
    return mu, var_fn, (lo, hi), (lambda x: x), True


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


def _rejected(step, dt):
    return BoundaryViolation(
        "step rejected %d times at t=%g" % (_MAX_TRIES, step * dt))


def _non_finite(step):
    if step % _CHECK_EVERY == 0:
        return NonFiniteState("state became non-finite at step %d" % step)
    return NonFiniteState("state became non-finite")


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
    # chunks end on the steps where _step_major checks finiteness
    checks = range(1, n_steps, _CHECK_EVERY)
    first = None  # the earliest failure: (step, order within the step, error)
    for i in range(cfg.n_paths):
        rng = _path_rng(cfg.seed, i)
        noise = rng.standard_normal(n_steps)
        x = float(x0)
        for s, e in zip(chain((0,), checks), chain(checks, (n_steps,))):
            if first is not None and s > first[0]:
                break  # nothing later in this path can fail earlier
            walked = []
            append = walked.append
            failure = None
            for xi in noise[s:e].tolist():
                v = lam * profile(x)
                sigma = sqrt(2.0 * (0.0 if v < 0.0 else v))
                mu = a0 + a1 * x
                prop = x + mu * dt + sigma * rootdt * xi
                if prop < lo or prop > hi:
                    if reflect:
                        prop = float(_reflect(prop, lo, hi))
                    else:
                        prop = _redraw(rng, x, mu, sigma, dt, rootdt, lo, hi)
                        if prop is None:
                            step = s + len(walked)
                            failure = (step, 0, _rejected(step, dt))
                            break
                x = prop
                append(x)
            if failure is None and not math.isfinite(x):
                failure = (e - 1, 1, _non_finite(e - 1))
            if failure is not None:
                if first is None or failure[:2] < first[:2]:
                    first = failure
                break
            if e > burn:
                k = max(s, burn)
                series[k - burn:e - burn, i] = walked[k - s:]
    if first is not None:
        raise first[2]
    return series


def _step_major(mu_fn, var_fn, lo, hi, x0, cfg):
    """The (kept, n_paths) series, all paths at once, one step at a time.

    Each step writes its proposal straight into its row of the series (or a
    burn-in buffer) and folds or re-draws only the points that left.
    """
    n_paths, n_steps, burn = cfg.n_paths, cfg.n_steps, cfg.burn_in
    dt = cfg.dt
    rootdt = math.sqrt(dt)
    reflect = cfg.boundary_mode == "reflect"
    low_end, high_end = math.isfinite(lo), math.isfinite(hi)
    series = np.empty((n_steps - burn, n_paths))
    noise = np.empty((n_steps, n_paths))
    rngs = [_path_rng(cfg.seed, i) for i in range(n_paths)]
    for i, rng in enumerate(rngs):
        noise[:, i] = rng.standard_normal(n_steps)
    burn_bufs = (np.empty(n_paths), np.empty(n_paths))
    sigma = np.empty(n_paths)
    kick = np.empty(n_paths)
    x = np.full(n_paths, float(x0))
    for step in range(n_steps):
        prop = series[step - burn] if step >= burn else burn_bufs[step % 2]
        drift = mu_fn(x)
        np.maximum(var_fn(x), 0.0, out=sigma)
        np.multiply(sigma, 2.0, out=sigma)
        np.sqrt(sigma, out=sigma)
        np.multiply(drift, dt, out=prop)
        np.add(x, prop, out=prop)
        np.multiply(sigma, rootdt, out=kick)
        np.multiply(kick, noise[step], out=kick)
        np.add(prop, kick, out=prop)
        # written so that a NaN fails the test: the other points still fold
        if (low_end and not prop.min() >= lo) or \
                (high_end and not prop.max() <= hi):
            bad = (prop < lo) | (prop > hi)
            if reflect:
                prop[bad] = _reflect(prop[bad], lo, hi)
            else:
                drift = np.broadcast_to(drift, prop.shape)
                tries = 0
                while np.any(bad):
                    tries += 1
                    if tries > _MAX_TRIES:
                        raise _rejected(step, dt)
                    for i in np.nonzero(bad)[0]:
                        xi = rngs[i].standard_normal()
                        prop[i] = x[i] + drift[i] * dt + sigma[i] * rootdt * xi
                    bad = (prop < lo) | (prop > hi)
        x = prop
        if step % _CHECK_EVERY == 0 and not np.isfinite(x).all():
            raise _non_finite(step)
    if not np.isfinite(x).all():
        raise _non_finite(n_steps - 1)
    return series


def simulate(target, cfg: SimConfig, x0=None, *, n_bins=50,
             max_lag=None) -> SimResult:
    """Euler-Maruyama paths X += mu dt + sqrt(2 (sigma^2/2) dt) xi.

    target is an OptimalProcess or a (mu, sigma2half, (lo, hi)) triple of
    callables plus bounds. Reports moment estimates, a density-normalized
    histogram, and the lag autocorrelation of the slow-mode observable over
    the retained (post burn-in) samples.
    """
    mu_fn, var_fn, (lo, hi), observable, center = _unpack_target(target)
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
    m2_hat = float(np.mean(series * series))
    freq, edges = np.histogram(series.ravel(), bins=int(n_bins), density=True)
    obs = observable(series)
    if center:
        obs = obs - obs.mean()
        sd = float(np.sqrt(np.mean(obs * obs)))
        if sd > 0:
            obs = obs / sd
    if max_lag is None:
        max_lag = min(kept - 1, 50000)
    max_lag = int(max_lag)
    acf = _mean_lag_products(obs, max_lag)
    if acf[0] <= 0:
        raise NonFiniteState("autocorrelation normalization is not positive")
    lags = np.arange(max_lag + 1)
    return SimResult(m1_hat=m1_hat, m2_hat=m2_hat, hist_edges=edges,
                     hist_freq=freq, acf_lags=lags, acf=acf / acf[0],
                     n_samples=n_samples)


def _mean_lag_products(obs, max_lag):
    """Average of y_t y_(t+s) over paths and t, for s = 0..max_lag (FFT)."""
    kept, n_paths = obs.shape
    size = 1
    while size < 2 * kept:
        size *= 2
    spec_sum = np.zeros(size // 2 + 1)
    for i in range(n_paths):
        f = np.fft.rfft(obs[:, i], n=size)
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("lag,autocorr\n")
        for lag, a in zip(np.asarray(lags), np.asarray(acf)):
            fh.write("%d,%.17g\n" % (int(lag), a))


def write_hist_csv(path, edges, freq):
    edges = np.asarray(edges, dtype=float)
    freq = np.asarray(freq, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_lo,bin_hi,freq\n")
        for i in range(freq.size):
            fh.write("%.17g,%.17g,%.17g\n" % (edges[i], edges[i + 1], freq[i]))
