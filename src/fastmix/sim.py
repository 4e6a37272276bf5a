"""Euler-Maruyama simulation of a synthesized process and rate estimation
from the lag autocorrelation of the slow mode.

Noise comes from counter-based Philox streams keyed by (seed, path index),
and every draw happens in a fixed order, so results for a given config are
bit-identical across runs.
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
from .optimal import OptimalProcess, _QuadratureVariance

_CHECK_EVERY = 1000


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
    """Fold positions into [lo, hi] by the triangle wave (exact reflection)."""
    if not (math.isfinite(lo) or math.isfinite(hi)):
        return x
    if math.isfinite(lo) and math.isfinite(hi):
        period = 2.0 * (hi - lo)
        y = np.mod(x - lo, period)
        return lo + np.minimum(y, period - y)
    if math.isfinite(lo):
        return lo + np.abs(x - lo)
    return hi - np.abs(hi - x)


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
    n_paths = cfg.n_paths
    n_steps = cfg.n_steps
    kept = n_steps - cfg.burn_in
    noise = np.empty((n_steps, n_paths))
    rngs = []
    for i in range(n_paths):
        # two-word key: path streams stay distinct across seeds as well
        rng = np.random.Generator(
            np.random.Philox(key=[cfg.seed & 0xFFFFFFFFFFFFFFFF, i]))
        rngs.append(rng)
        noise[:, i] = rng.standard_normal(n_steps)
    x = np.full(n_paths, float(x0))
    series = np.empty((kept, n_paths))
    dt = cfg.dt
    rootdt = math.sqrt(dt)
    finite_ends = math.isfinite(lo) or math.isfinite(hi)
    for step in range(n_steps):
        drift = np.asarray(mu_fn(x), dtype=float)
        half_sq = np.maximum(np.asarray(var_fn(x), dtype=float), 0.0)
        sigma = np.sqrt(2.0 * half_sq)
        prop = x + drift * dt + sigma * rootdt * noise[step]
        if finite_ends:
            if cfg.boundary_mode == "reflect":
                prop = _reflect(prop, lo, hi)
            else:
                bad = (prop < lo) | (prop > hi)
                tries = 0
                while np.any(bad):
                    tries += 1
                    if tries > 100:
                        raise BoundaryViolation(
                            "step rejected 100 times at t=%g" % (step * dt))
                    for i in np.nonzero(bad)[0]:
                        xi = rngs[i].standard_normal()
                        prop[i] = x[i] + drift[i] * dt + sigma[i] * rootdt * xi
                    bad = (prop < lo) | (prop > hi)
        x = prop
        if step % _CHECK_EVERY == 0 and not np.all(np.isfinite(x)):
            raise NonFiniteState("state became non-finite at step %d" % step)
        if step >= cfg.burn_in:
            series[step - cfg.burn_in] = x
    if not np.all(np.isfinite(x)):
        raise NonFiniteState("state became non-finite")
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
