"""Euler-Maruyama simulation of a synthesized process and rate estimation
from the lag autocorrelation of the slow mode.

Noise comes from counter-based Philox streams keyed by (seed, path index).
A path's n_steps step normals are the first n_steps draws of its stream;
its reject-step re-draws are the draws after them, in step order. So
results for a given config are bit-identical across runs.

One chunk loop, _run, serves both kernels. It fills a (_CHUNK, n_paths)
buffer from each path's stream (a Generator gives the same numbers in
chunks as in one call), _BLOCK paths at a time through a small row buffer,
has a kernel walk the chunk, writing each position over its normal, and
copies the kept rows into the series. A path's first re-draw opens a copy
of its stream's state after that chunk, moved past the step normals still
ahead. A run holds one array the size of its series plus buffers of
_CHUNK x n_paths; simulate applies the observable one path at a
time and squares the series in place for m2_hat (a bare triple adds one
centered copy). The kernels do the same float operations on the same draws,
so they agree bit for bit.

Both kernels read a closed target (an OptimalProcess with a closed variance
shape) in one form: its drift as the (a0, a1) of mu = a0 + a1 x, and its
sigma^2/2 as lambda1 times the density's declared profile, a float s2 when
the shape is constant (the Normal), else a callable of float arithmetic. A
constant sigma scales each chunk of normals once by sigma sqrt(dt), so a
step only adds its drift and that kick:

- path-major walks each path's column on Python floats, a few flops per
  step where a numpy call costs microseconds; with no finite end it skips
  the bounds test. simulate picks it for a closed target with at most
  PATH_MAJOR_MAX_PATHS paths, or NUMPY_PROFILE_MAX_PATHS when the profile
  calls numpy functions (the Hyperexponential), which a Python float pays
  numpy's scalar overhead for.
- step-major steps all paths a row at a time. On a closed target a step is
  a dozen in-place ufuncs on held buffers plus one call of the profile. It
  serves wider batches, and by its generic route, which calls mu and
  sigma^2/2 on the state at every step, quadrature targets and bare
  (mu, sigma2half, support) triples.

A proposal that leaves a finite end of the support is folded back by the
triangle wave (reflect) or re-drawn (reject-step); points inside are left
untouched. A run fails by one rule: a reject-step proposal that takes more
than _MAX_TRIES draws fails it at the earliest such step across paths
(BoundaryViolation). Otherwise the finished series is checked once: a path
that is not finite fails the run as NonFiniteState, naming the first kept
step at which some path is not finite.
"""

from __future__ import annotations

import math
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
# the widest batch the path-major kernel takes, and the widest when the
# profile calls numpy. Measured by tools/sampler_speed.py (2 cores, numpy
# 2.4.6): path-major runs 1.5e6 to 3.3e6 path-steps/s on the plain closed
# kinds (5.8e6 on the Normal), step-major about 2.4e6 at 32 paths and 9e6 at
# 256 on Beta. Path-major still wins at 32 paths and loses at 64 for Beta,
# Jacobi, Gamma, FisherSnedecor and CubicPearson; for the Normal,
# StudentCauchy and InverseGamma it loses at 32, by 4 to 30%. The
# Hyperexponential's profile runs at 0.3e6 to 0.4e6 path-steps/s on Python
# floats: path-major wins at 8 paths and loses at 16.
PATH_MAJOR_MAX_PATHS = 32
NUMPY_PROFILE_MAX_PATHS = 8


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
    """(drift, sigma2half, support bounds, observable). drift is the
    (a0, a1) of a closed target's linear drift, else a callable mu. A bare
    triple has no observable: its slow mode is taken as x itself, centered
    and scaled."""
    if isinstance(target, OptimalProcess):
        var_fn = target.variance_fn
        drift = (target.drift if isinstance(var_fn, _ClosedVariance)
                 else target.drift_at)
        if isinstance(var_fn, _QuadratureVariance):
            # a Kronrod panel per path and step is too slow inside the
            # loop; tabulate once and interpolate
            a, b = target.source.truncated_support()
            grid = Grid.uniform(a, b, 4001)
            var_fn = numerics.GridFunction(grid, np.maximum(
                np.asarray(target.variance_fn(grid.points), float), 0.0))
        sup = target.source.support
        return drift, var_fn, (sup.lower, sup.upper), target.phi1_at
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
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, i], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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


def _run(cfg, x0, walk):
    """The (kept, n_paths) series, stepped a chunk at a time by walk.

    walk(chunk, x, redraws) steps every path from its state in x through
    chunk, an (m, n_paths) buffer of step normals, writing each position
    over its normal; redraws(i) is path i's re-draw stream. It returns how
    many rows every path completed.
    """
    n_steps, burn, n_paths = cfg.n_steps, cfg.burn_in, cfg.n_paths
    series = np.empty((n_steps - burn, n_paths))
    noise = np.empty((_CHUNK, n_paths))
    block = np.empty((min(_BLOCK, n_paths), _CHUNK))
    rngs = [_path_rng(cfg.seed, i) for i in range(n_paths)]
    streams = {}  # path -> its re-draw stream, opened at its first re-draw
    x = np.full(n_paths, float(x0))

    def redraws(i):
        if i not in streams:
            # a copy of the path's stream after this chunk, moved past the
            # step normals still ahead
            rng = streams[i] = _path_rng(cfg.seed, i)
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
            for first in range(0, n_paths, len(block)):
                rows = block[:n_paths - first, :len(chunk)]
                for rng, row in zip(rngs[first:], rows):
                    rng.standard_normal(out=row)
                chunk[:, first:first + len(rows)] = rows.T
            done = walk(chunk, x, redraws)
            if done < len(chunk):
                raise _rejected(start + done, cfg.dt)
            if drawn > burn:
                keep = max(start, burn)
                series[keep - burn:drawn - burn] = chunk[keep - start:]
            x[:] = chunk[-1]
    return _finite(series, burn)


def _constant_sigma(variance):
    """sigma of a constant closed profile, as the kernels compute it at a
    finite state, or None for a profile that varies."""
    if variance.constant is None:
        return None
    v = variance.lambda1 * variance.constant
    return math.sqrt(2.0 * (0.0 if v < 0.0 else v))


def _path_major(drift, variance, lo, hi, x0, cfg):
    """The (kept, n_paths) series, each path walked on Python floats.
    drift is the (a0, a1) of mu = a0 + a1 x and variance a _ClosedVariance;
    the float operations are those of _step_major, in the same order."""
    a0, a1 = drift
    lam, profile = variance.lambda1, variance._profile
    sigma0 = _constant_sigma(variance)
    dt = cfg.dt
    rootdt = math.sqrt(dt)
    reflect = cfg.boundary_mode == "reflect"
    bounded = math.isfinite(lo) or math.isfinite(hi)
    sqrt = math.sqrt

    def walk(chunk, starts, redraws):
        def settle(prop, x, mu, sigma, i):
            # a proposal that left: folded back, or re-drawn (None on a
            # give-up)
            if reflect:
                return float(_reflect(prop, lo, hi))
            return _redraw(redraws(i), x, mu, sigma, dt, rootdt, lo, hi)

        if sigma0 is not None:
            # the kick sigma rootdt xi, once for the chunk
            np.multiply(chunk, sigma0 * rootdt, out=chunk)
        done = len(chunk)
        # a path after another's give-up walks only up to it
        for i, x in enumerate(starts.tolist()):
            walked = []
            append = walked.append
            if sigma0 is None:
                for xi in chunk[:done, i].tolist():
                    v = lam * profile(x)
                    sigma = sqrt(2.0 * (0.0 if v < 0.0 else v))
                    mu = a0 + a1 * x
                    prop = x + mu * dt + sigma * rootdt * xi
                    if prop < lo or prop > hi:
                        prop = settle(prop, x, mu, sigma, i)
                        if prop is None:
                            break
                    x = prop
                    append(x)
            else:
                for kick in chunk[:done, i].tolist():
                    mu = a0 + a1 * x
                    prop = x + mu * dt + kick
                    if bounded and (prop < lo or prop > hi):
                        prop = settle(prop, x, mu, sigma0, i)
                        if prop is None:
                            break
                    x = prop
                    append(x)
            done = len(walked)
            chunk[:done, i] = walked
        return done

    return _run(cfg, x0, walk)


def _step_major(drift, variance, lo, hi, x0, cfg):
    """The (kept, n_paths) series, all paths at once, one step at a time.
    Each step writes its proposal over its row of noise and folds or
    re-draws only the points that left.

    drift is the (a0, a1) of a closed target's mu = a0 + a1 x, with
    variance its _ClosedVariance: each step is then a few in-place ufuncs
    on held buffers. Otherwise drift and variance are callables of x (the
    generic route)."""
    dt = cfg.dt
    rootdt = math.sqrt(dt)
    reflect = cfg.boundary_mode == "reflect"
    low_end, high_end = math.isfinite(lo), math.isfinite(hi)
    sigma, shift, mu = np.empty((3, cfg.n_paths))
    generic = callable(drift)
    if not generic:
        a0, a1 = drift
        lam, profile = variance.lambda1, variance._profile
    sigma0 = None if generic else _constant_sigma(variance)
    if sigma0 is not None:
        sigma.fill(sigma0)  # read only by re-draws

    def walk(chunk, x, redraws):
        if sigma0 is not None:
            # the kick sigma rootdt xi, once for the chunk
            np.multiply(chunk, sigma0 * rootdt, out=chunk)
        for row, prop in enumerate(chunk):
            if generic:
                m = drift(x)
                np.maximum(variance(x), 0.0, out=sigma)
            else:
                m = np.add(np.multiply(x, a1, out=mu), a0, out=mu)
                if sigma0 is None:
                    np.multiply(profile(x), lam, out=sigma)
                    np.maximum(sigma, 0.0, out=sigma)
            if sigma0 is None:
                np.multiply(sigma, 2.0, out=sigma)
                np.sqrt(sigma, out=sigma)
                # the kick sigma rootdt xi over the normals
                np.multiply(sigma, rootdt, out=shift)
                np.multiply(shift, prop, out=prop)
            # then x + mu dt
            np.multiply(m, dt, out=shift)
            np.add(x, shift, out=shift)
            np.add(shift, prop, out=prop)
            # written so that a NaN fails the test: the other points still fold
            if (low_end and not np.minimum.reduce(prop) >= lo) or \
                    (high_end and not np.maximum.reduce(prop) <= hi):
                bad = (prop < lo) | (prop > hi)
                if reflect:
                    prop[bad] = _reflect(prop[bad], lo, hi)
                else:
                    m = np.broadcast_to(m, prop.shape)
                    for i in np.nonzero(bad)[0].tolist():
                        p = _redraw(redraws(i), x[i], m[i], sigma[i], dt,
                                    rootdt, lo, hi)
                        if p is None:
                            return row
                        prop[i] = p
            x = prop
        return len(chunk)

    return _run(cfg, x0, walk)


def simulate(target, cfg: SimConfig, x0=None, *, n_bins=50,
             max_lag=None) -> SimResult:
    """Euler-Maruyama paths X += mu dt + sqrt(2 (sigma^2/2) dt) xi.

    target is an OptimalProcess or a (mu, sigma2half, (lo, hi)) triple of
    callables plus bounds. Reports moment estimates, a density-normalized
    histogram, and the lag autocorrelation of the slow-mode observable over
    the retained (post burn-in) samples.
    """
    drift, var_fn, (lo, hi), observable = _unpack_target(target)
    if x0 is None:
        if isinstance(target, OptimalProcess):
            x0 = target.moments.m1
        else:
            raise ValueError("x0 is required for a bare (mu, var) target")
    closed = not callable(drift)
    if closed and cfg.n_paths <= (NUMPY_PROFILE_MAX_PATHS if var_fn.calls_numpy
                                  else PATH_MAJOR_MAX_PATHS):
        series = _path_major(drift, var_fn, lo, hi, x0, cfg)
    else:
        series = _step_major(drift, var_fn, lo, hi, x0, cfg)
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
