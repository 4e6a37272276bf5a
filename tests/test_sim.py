"""Tests for the Euler-Maruyama sampler and autocorrelation rate fits."""

import functools
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from fastmix import sim
from fastmix.distributions import (
    Beta,
    CubicPearson,
    DistributionSpec,
    FisherSnedecor,
    Gamma,
    Hyperexponential,
    InverseGamma,
    Jacobi,
    Normal,
    StudentCauchy,
)
from fastmix.errors import BoundaryViolation, InsufficientDecay, NonFiniteState
from fastmix.optimal import _ClosedVariance, synthesize
from fastmix.sim import (
    PATH_MAJOR_MAX_PATHS,
    SimConfig,
    SimResult,
    _path_major,
    _step_major,
    _unpack_target,
    estimate_rate,
    rate_from_acf,
    simulate,
    write_autocorr_csv,
    write_hist_csv,
)


@functools.lru_cache(maxsize=None)
def _dome_process():
    """Optimal process for the 6x(1-x) dome target (lambda1 = 4)."""
    return synthesize(Beta(1.0, 1.0))


@functools.lru_cache(maxsize=None)
def _dome_run():
    """One shared medium-length equilibrium run of the dome process."""
    cfg = SimConfig(dt=1e-3, n_steps=100000, n_paths=8, seed=11,
                    burn_in=4000)
    return simulate(_dome_process(), cfg)


def _ou_target():
    """Unit-rate Ornstein-Uhlenbeck as a bare (mu, var, support) triple."""
    mu = lambda x: -np.asarray(x, dtype=float)
    var = lambda x: np.ones_like(np.asarray(x, dtype=float))
    return (mu, var, (-np.inf, np.inf))


class TestSimConfig:
    """Run-configuration defaults and validation."""

    def test_defaults(self):
        """Only dt and n_steps are required; the rest have safe defaults."""
        cfg = SimConfig(dt=1e-3, n_steps=100)
        assert cfg.n_paths == 1
        assert cfg.seed == 0
        assert cfg.burn_in == 0
        assert cfg.boundary_mode == "reflect"

    def test_nonpositive_dt_rejected(self):
        """Zero or negative time steps are configuration errors."""
        with pytest.raises(ValueError):
            SimConfig(dt=0.0, n_steps=100)
        with pytest.raises(ValueError):
            SimConfig(dt=-1e-3, n_steps=100)

    @pytest.mark.parametrize("dt", [math.inf, -math.inf, math.nan])
    def test_non_finite_dt_rejected(self, dt):
        """A time step that is not finite is a configuration error, not a
        run that fails at its first step."""
        with pytest.raises(ValueError, match="finite"):
            SimConfig(dt=dt, n_steps=100)

    def test_step_and_path_counts_validated(self):
        """At least one step and one path are required."""
        with pytest.raises(ValueError):
            SimConfig(dt=1e-3, n_steps=0)
        with pytest.raises(ValueError):
            SimConfig(dt=1e-3, n_steps=100, n_paths=0)

    def test_burn_in_bounds(self):
        """Burn-in must be non-negative and leave at least one sample."""
        with pytest.raises(ValueError):
            SimConfig(dt=1e-3, n_steps=100, burn_in=-1)
        with pytest.raises(ValueError):
            SimConfig(dt=1e-3, n_steps=100, burn_in=100)

    def test_unknown_boundary_mode_rejected(self):
        """Only the two documented boundary modes are accepted."""
        with pytest.raises(ValueError):
            SimConfig(dt=1e-3, n_steps=100, boundary_mode="bounce")


class TestDeterminism:
    """Seed handling: bitwise reproducibility and genuine seed separation."""

    def test_same_seed_is_bitwise_identical(self):
        """Two runs with identical config agree to the last bit."""
        cfg = SimConfig(dt=1e-3, n_steps=5000, n_paths=2, seed=42,
                        burn_in=500)
        a = simulate(_dome_process(), cfg)
        b = simulate(_dome_process(), cfg)
        assert a.m1_hat == b.m1_hat
        assert a.m2_hat == b.m2_hat
        assert np.array_equal(a.acf, b.acf)
        assert np.array_equal(a.hist_freq, b.hist_freq)

    def test_nearby_seeds_give_distinct_streams(self):
        """Seeds 1, 2, 3 must not share noise even with multiple paths.

        Per-path streams are keyed by the (seed, path index) pair, so no
        permutation of paths can make two different seeds coincide.
        """
        cfg = dict(dt=1e-3, n_steps=5000, n_paths=4, burn_in=500)
        means = [simulate(_dome_process(),
                          SimConfig(seed=s, **cfg)).m1_hat
                 for s in (1, 2, 3)]
        assert len(set(means)) == 3

    def test_seed_is_one_uint64_key_word(self):
        """Seeds from 2^63 up to 2^64 - 1 each get their own stream (none
        falls back to seed 0's), and every seed keeps the stream of the key
        words (seed, path index)."""
        draws = {tuple(sim._path_rng(s, 0).standard_normal(4))
                 for s in (0, 5, 2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1)}
        assert len(draws) == 5
        for seed in (7, 2 ** 64 - 1):
            for i in (0, 1, 17):
                ref = np.random.Generator(np.random.Philox(
                    key=seed + (i << 64)))
                np.testing.assert_array_equal(
                    sim._path_rng(seed, i).standard_normal(8),
                    ref.standard_normal(8))

    @pytest.mark.parametrize("seed", [-1, -5, 2 ** 64, 2 ** 64 + 5])
    def test_seed_outside_64_bits_is_refused(self, seed):
        """A seed outside [0, 2^64) is not one key word: masked into 64
        bits it would alias another seed's paths."""
        with pytest.raises(ValueError, match="seed"):
            SimConfig(dt=1e-3, n_steps=100, seed=seed)
        assert SimConfig(dt=1e-3, n_steps=100, seed=2 ** 64 - 1).seed > 0


class TestStationaryMoments:
    """Long-run sample statistics against the target law 6x(1-x)."""

    def test_sample_mean(self):
        """The equilibrium sample mean sits near the target mean 1/2."""
        res = _dome_run()
        assert abs(res.m1_hat - 0.5) < 0.02

    def test_sample_variance(self):
        """The equilibrium sample variance matches the target var 1/20."""
        res = _dome_run()
        var_hat = res.m2_hat - res.m1_hat ** 2
        assert 0.95 < var_hat / 0.05 < 1.05

    def test_sample_count(self):
        """n_samples counts retained steps times paths."""
        res = _dome_run()
        assert res.n_samples == (100000 - 4000) * 8

    def test_histogram_is_normalized_density(self):
        """Histogram frequencies integrate to one over the bins."""
        res = _dome_run()
        widths = np.diff(res.hist_edges)
        np.testing.assert_allclose(np.sum(res.hist_freq * widths), 1.0,
                                   rtol=1e-12)

    def test_histogram_within_support(self):
        """Reflected paths never leave [0, 1]."""
        res = _dome_run()
        assert res.hist_edges[0] >= 0.0
        assert res.hist_edges[-1] <= 1.0

    def test_histogram_close_to_target_density(self):
        """Total variation against 6x(1-x) is small at this run length."""
        res = _dome_run()
        mids = 0.5 * (res.hist_edges[:-1] + res.hist_edges[1:])
        widths = np.diff(res.hist_edges)
        target = 6.0 * mids * (1.0 - mids)
        tv = 0.5 * np.sum(np.abs(res.hist_freq - target) * widths)
        assert tv < 0.05


class TestAutocorrelation:
    """Shape of the slow-mode autocorrelation sequence."""

    def test_normalized_at_lag_zero(self):
        """The autocorrelation starts at exactly one."""
        res = _dome_run()
        assert res.acf[0] == 1.0

    def test_head_decays_monotonically(self):
        """Early lags decrease steadily before noise matters."""
        res = _dome_run()
        head = res.acf[:30]
        assert np.all(np.diff(head) < 0.0)

    def test_lags_are_consecutive_integers(self):
        """Lag axis is 0..max_lag inclusive."""
        res = _dome_run()
        assert res.acf_lags[0] == 0
        np.testing.assert_array_equal(np.diff(res.acf_lags), 1)

    def test_max_lag_override(self):
        """A small max_lag truncates the reported sequence."""
        cfg = SimConfig(dt=1e-3, n_steps=3000, n_paths=1, seed=5)
        res = simulate(_dome_process(), cfg, max_lag=10)
        assert res.acf.shape == (11,)
        assert res.acf_lags[-1] == 10

    @pytest.mark.parametrize("max_lag", [20, 25, 40, -1])
    def test_max_lag_outside_the_kept_steps(self, max_lag):
        """20 kept steps give lags 0..19. Past them the counts are 0 or
        negative, so any other max_lag is refused before the run."""
        cfg = SimConfig(dt=1e-3, n_steps=30, n_paths=2, seed=5, burn_in=10)
        with pytest.raises(ValueError, match=r"max_lag must be in \[0, 19\]"):
            simulate(_dome_process(), cfg, max_lag=max_lag)

    @pytest.mark.parametrize("max_lag", [0, 19])
    def test_max_lag_at_the_ends_of_its_range(self, max_lag):
        """Lags 0 and kept - 1 are the ends of the range, and both run."""
        cfg = SimConfig(dt=1e-3, n_steps=30, n_paths=2, seed=5, burn_in=10)
        res = simulate(_dome_process(), cfg, max_lag=max_lag)
        assert res.acf.shape == (max_lag + 1,) and res.acf[0] == 1.0


class TestRateRecovery:
    """Measured mixing rates against the analytic lambda1."""

    def test_optimal_process_rate(self):
        """The dome process mixes at lambda1 = 4 within 15 percent."""
        cfg = SimConfig(dt=1e-3, n_steps=100000, n_paths=8, seed=7,
                        burn_in=4000)
        est = estimate_rate(_dome_process(), cfg)
        lam = _dome_process().lambda1
        assert abs(est.rate - lam) / lam < 0.15

    def test_rate_stable_under_step_doubling(self):
        """Halving dt at fixed horizon moves the fitted rate only a little."""
        lam = _dome_process().lambda1
        fine = estimate_rate(_dome_process(),
                             SimConfig(dt=1e-3, n_steps=100000, n_paths=8,
                                       seed=7, burn_in=4000))
        coarse = estimate_rate(_dome_process(),
                               SimConfig(dt=2e-3, n_steps=50000, n_paths=8,
                                         seed=7, burn_in=2000))
        assert abs(coarse.rate - lam) / lam < 0.15
        assert abs(fine.rate - coarse.rate) < 0.15 * lam

    def test_bare_pair_target_rate(self):
        """A hand-built unit OU pair recovers rate 1 within 10 percent."""
        cfg = SimConfig(dt=1e-3, n_steps=200000, n_paths=8, seed=3,
                        burn_in=5000)
        est = estimate_rate(_ou_target(), cfg, x0=0.0)
        assert abs(est.rate - 1.0) < 0.10
        assert est.stderr >= 0.0
        assert est.fit_window[0] < est.fit_window[1]

    def test_pair_target_requires_x0(self):
        """Bare drift/variance targets have no default starting point."""
        cfg = SimConfig(dt=1e-3, n_steps=1000)
        with pytest.raises(ValueError):
            simulate(_ou_target(), cfg)


class TestBoundaryModes:
    """Reflecting versus reject-step handling of finite endpoints."""

    def _crossing_target(self, half_sq):
        """Flat density on (0, 1) with constant sigma^2/2 = half_sq."""
        mu = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        var = lambda x: np.full_like(np.asarray(x, dtype=float), half_sq)
        return (mu, var, (0.0, 1.0))

    def test_modes_differ_when_boundary_is_active(self):
        """With frequent crossings the two modes give different samples."""
        target = self._crossing_target(0.5)
        kw = dict(dt=0.01, n_steps=5000, n_paths=2, seed=9)
        ra = simulate(target, SimConfig(boundary_mode="reflect", **kw),
                      x0=0.5)
        rb = simulate(target, SimConfig(boundary_mode="reject-step", **kw),
                      x0=0.5)
        assert ra.m1_hat != rb.m1_hat

    def test_both_modes_stay_inside_support(self):
        """Neither mode lets a sample escape the interval."""
        target = self._crossing_target(0.5)
        kw = dict(dt=0.01, n_steps=5000, n_paths=2, seed=9)
        for mode in ("reflect", "reject-step"):
            res = simulate(target, SimConfig(boundary_mode=mode, **kw),
                           x0=0.5)
            assert res.hist_edges[0] >= 0.0
            assert res.hist_edges[-1] <= 1.0

    def test_reject_step_gives_up_after_many_tries(self):
        """A step that cannot stay inside raises a typed error."""
        target = self._crossing_target(5e8)
        cfg = SimConfig(dt=1.0, n_steps=3, n_paths=2, seed=0,
                        boundary_mode="reject-step")
        with pytest.raises(BoundaryViolation, match="rejected"):
            simulate(target, cfg, x0=0.5)

    def test_reflect_with_only_an_upper_end(self):
        """On (-inf, hi] a point above hi folds back below it, for a float
        and an array alike."""
        assert sim._reflect(0.5, -np.inf, 0.0) == -0.5
        np.testing.assert_array_equal(
            sim._reflect(np.array([-3.0, 0.0, 2.5]), -np.inf, 1.0),
            [-3.0, 0.0, -0.5])

    def test_upper_end_only_run_stays_below_it(self):
        """A bare triple on (-inf, 0] with drift toward -0.5 crosses 0
        often and is reflected back each time."""
        mu = lambda x: -(np.asarray(x, dtype=float) + 0.5)
        var = lambda x: np.ones_like(np.asarray(x, dtype=float))
        cfg = SimConfig(dt=0.01, n_steps=5000, n_paths=2, seed=9)
        res = simulate((mu, var, (-np.inf, 0.0)), cfg, x0=-0.5)
        assert res.hist_edges[-1] <= 0.0
        assert res.m1_hat < 0.0

    def test_non_finite_state_is_typed(self):
        """A NaN drift is reported as a simulation failure, not a crash."""
        mu = lambda x: np.full_like(np.asarray(x, dtype=float), np.nan)
        var = lambda x: np.ones_like(np.asarray(x, dtype=float))
        cfg = SimConfig(dt=1e-3, n_steps=10)
        with pytest.raises(NonFiniteState):
            simulate((mu, var, (-np.inf, np.inf)), cfg, x0=0.0)


# the folded step against the unfolded one, in ulps of |x| + |mu dt| +
# |kick|
FOLDED_ULPS = 6

# the step at which Normal(0, 1)'s process at dt = 3 (c1 = -2) leaves the
# floats, seed 5: on path 0 alone, and on the earliest of 3 paths
STEP_1, STEP_3 = 1023, 1022

# one of each catalog kind with a closed variance shape
CLOSED_KINDS = [
    Beta(1.0, 1.0), Jacobi(0.5, 1.5), Gamma(1.0), Normal(0.3, 2.0),
    StudentCauchy(2.2), InverseGamma(3.0), FisherSnedecor(3.0, 9.0),
    Hyperexponential(0.5, 0.5, 1.0, 2.0), CubicPearson(1.0, 2.0, 0.5),
]


def _bare(proc):
    """proc as a bare (mu, sigma2half, support) triple of callables: the
    kernels step it by x + mu(x) dt and v = 2 dt sigma^2/2."""
    sup = proc.source.support
    return (proc.drift_at, lambda x: proc.variance_fn(x),
            (sup.lower, sup.upper))


def _kernel_runs(proc, cfg, runs, bounds=None, x0=None):
    sup = proc.source.support
    lo, hi = bounds or (sup.lower, sup.upper)
    x0 = proc.moments.m1 if x0 is None else x0
    out = []
    for kernel, drift, variance in runs:
        try:
            out.append(kernel(drift, variance, lo, hi, x0, cfg)[0])
        except (BoundaryViolation, NonFiniteState) as exc:
            out.append("%s: %s" % (type(exc).__name__, exc))
    return out


def _both_kernels(proc, cfg, bounds=None, x0=None):
    """The path-major and step-major series, or the message each raised."""
    return _kernel_runs(proc, cfg, [
        (_path_major, proc.drift, proc.variance_fn),
        (_step_major, proc.drift, proc.variance_fn)], bounds, x0)


def _bare_run(proc, cfg):
    """The step-major series, or the message raised, of proc's bare
    triple."""
    return _kernel_runs(proc, cfg, [(_step_major,) + _bare(proc)[:2]])[0]


def _step_parts(drift, variance, dt):
    """The step from a float x as (det, s), the proposal being det + s xi,
    formed from sim._step_rule's constants one float at a time."""
    fold, rule, k = sim._step_rule(drift, variance, dt)

    def parts(x):
        if fold is None:
            det = x + float(drift(x)) * dt
        else:
            det = fold[0] + fold[1] * x
        if rule == "constant":
            return det, k
        if rule == "quadratic":
            q0, q1, q2 = k
            v = (q2 * x + q1) * x + q0
        else:
            v = k[0] * float(k[1](x))
        return det, math.sqrt(0.0 if v < 0.0 else v)

    return parts


def _one_call_path(proc, cfg, i, bare=False, bounds=None, x0=None):
    """Path i stepped on draws taken in one call: its n_steps step normals,
    then its reject-step re-draws from the same generator. A step is the
    one the kernels take on proc (on its bare triple if bare), on [lo, hi]
    = bounds, by default the support, from x0, by default m1; a proposal
    that left is folded back in reflect mode. Returns the kept series and
    the steps that re-drew."""
    rng = sim._path_rng(cfg.seed, i)
    noise = rng.standard_normal(cfg.n_steps)
    target = _bare(proc) if bare else proc
    step = _step_parts(*_unpack_target(target)[:2], cfg.dt)
    sup = proc.source.support
    lo, hi = bounds or (sup.lower, sup.upper)
    x = float(proc.moments.m1 if x0 is None else x0)
    walked, redrawn = [], []
    for n, xi in enumerate(noise.tolist()):
        det, s = step(x)
        prop = det + s * xi
        if cfg.boundary_mode == "reflect" and (prop < lo or prop > hi):
            prop = float(sim._reflect(prop, lo, hi))
        while prop < lo or prop > hi:
            redrawn.append(n)
            prop = det + s * rng.standard_normal()
        x = prop
        walked.append(x)
    return np.array(walked[cfg.burn_in:]), redrawn


def _references(proc, cfg, **kwargs):
    """The (kept, n_paths) series of _one_call_path's paths."""
    return np.column_stack([_one_call_path(proc, cfg, i, **kwargs)[0]
                            for i in range(cfg.n_paths)])


def _non_finite(proc, cfg):
    """The message of a run whose references leave the finite floats:
    the first kept step at which some path is not finite."""
    finite = np.isfinite(_references(proc, cfg)).all(axis=1)
    assert not finite.all()
    return ("NonFiniteState: state became non-finite by step %d"
            % (cfg.burn_in + int(np.argmin(finite))))


class TestKernels:
    """The path-major and step-major loops agree bit for bit."""

    def test_every_closed_kind_is_covered(self):
        kinds = {type(spec) for spec in CLOSED_KINDS}
        closed = {cls for cls in DistributionSpec.__subclasses__()
                  if cls.closed_profile is not DistributionSpec.closed_profile}
        assert kinds == closed

    @pytest.mark.parametrize("mode", ["reflect", "reject-step"])
    @pytest.mark.parametrize("spec", CLOSED_KINDS, ids=lambda s: s.kind)
    def test_identical_series(self, spec, mode):
        """Every path of both kernels is the folded step's path, stepped on
        its own: c0 + c1 x plus the kick of the kind's rule (quadratic,
        constant or profile). A path's draws do not depend on the width,
        so one reference per path serves every width."""
        proc = synthesize(spec)
        refs = {}
        for n_paths in (1, 8, PATH_MAJOR_MAX_PATHS, PATH_MAJOR_MAX_PATHS + 1,
                        256):
            cfg = SimConfig(dt=0.05 / proc.lambda1, n_steps=1200,
                            n_paths=n_paths, seed=3, burn_in=150,
                            boundary_mode=mode)
            a, b = _both_kernels(proc, cfg)
            assert a.shape == (1050, n_paths)
            assert np.array_equal(a, b)
            for i in range(n_paths):
                if i not in refs:
                    refs[i] = _one_call_path(proc, cfg, i)[0]
                assert np.array_equal(a[:, i], refs[i])

    @pytest.mark.parametrize("spec,route", [
        (s, "closed") for s in CLOSED_KINDS] + [
        (Beta(1.0, 1.0), "quadrature")],
        ids=lambda v: getattr(v, "kind", v))
    def test_folded_step_is_the_generic_step(self, spec, route):
        """One folded step c0 + c1 x + sqrt(max(v, 0)) xi is the unfolded
        step x + mu dt + kick, kick = sqrt(2 sigma^2/2 dt) xi from drift_at
        and the sigma^2/2 the kernels read (variance_fn, or on the
        quadrature route its table), within FOLDED_ULPS ulps of |x| +
        |mu dt| + |kick|, the size of the terms the step sums. It holds at
        2000 random states across the truncated support, each with both
        signs of xi, at two step sizes, on every kick rule. Near a root of
        sigma^2 away from 0 (Beta's 1, Jacobi's -1 and 1) the expanded
        polynomial cancels, and the kick keeps fewer digits than the
        factored profile's: a sweep toward those roots at |xi| = 4 read 4.5
        ulps at 1e-3 from one, 91 at 1e-6 and 1.3e3 at 1e-8. So the states
        keep 1e-3 from a finite end."""
        proc = synthesize(spec, variance_mode=route)
        drift, var = _unpack_target(proc)[:2]
        lo, hi = spec.truncated_support()
        rng = np.random.default_rng(17)
        x = rng.uniform(lo, hi, 4000)
        x = x[(np.abs(x - spec.support.lower) >= 1e-3)
              & (np.abs(x - spec.support.upper) >= 1e-3)][:2000]
        assert x.size == 2000
        z = np.abs(rng.standard_normal(x.size))
        for dt in (0.05 / proc.lambda1, 1e-3 / proc.lambda1):
            step = _step_parts(drift, var, dt)
            scale = np.sqrt(2.0 * np.maximum(var(x), 0.0)) * math.sqrt(dt)
            drift_dt = proc.drift_at(x) * dt
            parts = [step(p) for p in x.tolist()]
            for sign in (1.0, -1.0):
                xi = sign * z
                kick = scale * xi
                folded = np.array([det + s * e for (det, s), e in
                                   zip(parts, xi.tolist())])
                err = np.abs(folded - (x + drift_dt + kick))
                terms = np.abs(x) + np.abs(drift_dt) + np.abs(kick)
                assert np.all(err <= FOLDED_ULPS * np.spacing(terms))

    @pytest.mark.parametrize("mode", ["reflect", "reject-step"])
    def test_constant_sigma_with_finite_ends(self, mode):
        """The constant kick scales the normals once even where points fold
        or re-draw: the Normal's process walked on [-1, 1.5] gives each
        path's reference on both kernels, at widths on either side of the
        crossover."""
        proc = synthesize(Normal(0.0, 1.0))
        bounds = (-1.0, 1.5)
        for n_paths in (3, PATH_MAJOR_MAX_PATHS + 1):
            cfg = SimConfig(dt=0.05, n_steps=1200, n_paths=n_paths, seed=3,
                            boundary_mode=mode)
            a, b = _both_kernels(proc, cfg, bounds, 0.0)
            assert np.array_equal(a, b)
            assert np.array_equal(a, _references(proc, cfg, bounds=bounds,
                                                 x0=0.0))
            assert a.min() >= -1.0 and a.max() <= 1.5
            assert np.any(a < -0.99) and np.any(a > 1.49)

    @pytest.mark.parametrize("spec", [
        s for s in CLOSED_KINDS if math.isfinite(s.support.lower)
        and not isinstance(s, InverseGamma)], ids=lambda s: s.kind)
    def test_boundary_is_active(self, spec):
        """The agreement above covers folds and re-draws: with a finite
        end the two modes part ways. (Under InverseGamma sigma is
        proportional to x, so no step reaches 0.)"""
        proc = synthesize(spec)
        runs = [_both_kernels(proc, SimConfig(
            dt=0.05 / proc.lambda1, n_steps=1200,
            n_paths=PATH_MAJOR_MAX_PATHS, seed=3, burn_in=150,
            boundary_mode=mode))[0] for mode in ("reflect", "reject-step")]
        assert not np.array_equal(*runs)

    def test_simulate_picks_by_target_and_width(self, monkeypatch):
        """Closed targets up to the crossover go path-major, whatever their
        profile calls (the Hyperexponential's calls numpy); wider batches
        take step-major. A quadrature target goes step-major at any width,
        with its linear drift folded like a closed target's; only a bare
        triple hands the kernel a callable drift."""
        seen = []
        for name in ("_path_major", "_step_major"):
            real = getattr(sim, name)

            def spy(*args, _name=name, _real=real):
                seen.append((_name, "callable" if callable(args[0])
                             else "linear"))
                return _real(*args)

            monkeypatch.setattr(sim, name, spy)
        closed = _dome_process()
        ou = synthesize(Normal(0.0, 1.0))
        hyper = synthesize(Hyperexponential(0.5, 0.5, 1.0, 2.0))
        quad = synthesize(Beta(1.0, 1.0), variance_mode="quadrature")
        for target, n_paths in ((closed, PATH_MAJOR_MAX_PATHS),
                                (ou, PATH_MAJOR_MAX_PATHS),
                                (hyper, PATH_MAJOR_MAX_PATHS),
                                (closed, PATH_MAJOR_MAX_PATHS + 1),
                                (ou, PATH_MAJOR_MAX_PATHS + 1),
                                (hyper, PATH_MAJOR_MAX_PATHS + 1),
                                (quad, 1), (quad, PATH_MAJOR_MAX_PATHS + 1),
                                (_ou_target(), 1)):
            simulate(target, SimConfig(dt=1e-2, n_steps=300,
                                       n_paths=n_paths, seed=1), x0=0.5)
        assert seen == ([("_path_major", "linear")] * 3
                        + [("_step_major", "linear")] * 5
                        + [("_step_major", "callable")])

    def test_same_rejection_error(self):
        """Paths give up at different steps; both report the earliest, and
        with 8 paths that is not the first path's."""
        proc = synthesize(Beta(1.0, 1.0))
        msgs = []
        for n_paths in (4, 8):
            a, b = _both_kernels(proc, SimConfig(
                dt=1.0, n_steps=3000, n_paths=n_paths, seed=5,
                boundary_mode="reject-step"))
            assert a == b
            msgs.append(a)
        assert msgs[0] != msgs[1]
        assert msgs[1].startswith("BoundaryViolation: step rejected")

    def test_same_early_rejection_error(self):
        """A give-up during burn-in still fails the run, at its step."""
        proc = synthesize(Gamma(1.0))
        a, b = _both_kernels(proc, SimConfig(
            dt=5.0, n_steps=3000, n_paths=4, seed=5, burn_in=10,
            boundary_mode="reject-step"))
        assert a == b == "BoundaryViolation: step rejected 100 times at t=5"

    @pytest.mark.parametrize("n_steps,burn_in,step", [
        (3000, 0, STEP_3), (1500, 0, STEP_3), (3000, 1500, 1500)])
    def test_same_non_finite_error(self, n_steps, burn_in, step):
        """An unstable step size overflows; both kernels step to the end
        and name the first kept step at which some path is not finite, the
        step at which the paths stepped on their own leave the floats."""
        proc = synthesize(Normal(0.0, 1.0))
        cfg = SimConfig(dt=3.0, n_steps=n_steps, n_paths=3, seed=5,
                        burn_in=burn_in)
        a, b = _both_kernels(proc, cfg)
        msg = "NonFiniteState: state became non-finite by step %d" % step
        assert a == b == _non_finite(proc, cfg) == msg

    def test_same_non_finite_error_at_width(self):
        """The overflow test above, at a width past path-major's: the
        constant kick of the Normal scales each chunk once on both
        kernels, and the step named is the one at which the paths stepped
        on their own leave the floats."""
        proc = synthesize(Normal(0.0, 1.0))
        cfg = SimConfig(dt=3.0, n_steps=1500, n_paths=256, seed=5)
        a, b = _both_kernels(proc, cfg)
        assert a == b == _non_finite(proc, cfg)
        assert a.startswith("NonFiniteState: state became non-finite by")

    def test_earliest_non_finite_path_is_reported(self):
        """Alone, path 0 overflows at step STEP_1; with 3 paths another one
        overflows at step STEP_3, and every path is finite before it."""
        proc = synthesize(Normal(0.0, 1.0))
        msgs = []
        for n_paths, n_steps in ((1, 1500), (3, STEP_3 + 1)):
            a, b = _both_kernels(proc, SimConfig(
                dt=3.0, n_steps=n_steps, n_paths=n_paths, seed=5))
            assert a == b
            msgs.append(a)
        assert [m.rsplit(" ", 1)[1] for m in msgs] == [str(STEP_1),
                                                       str(STEP_3)]
        cfg = SimConfig(dt=3.0, n_steps=STEP_3, n_paths=3, seed=5)
        a, b = _both_kernels(proc, cfg)
        assert np.isfinite(a).all() and np.array_equal(a, b)
        assert np.array_equal(a, _references(proc, cfg))

    @pytest.mark.parametrize("mode", ["reflect", "reject-step"])
    @pytest.mark.parametrize("n_steps,burn_in", [
        (999, 0), (1000, 0), (1001, 0), (2001, 0), (2001, 1001)])
    def test_identical_across_chunk_edges(self, n_steps, burn_in, mode):
        """Noise is drawn 1000 steps at a time; runs that end or start
        keeping on either side of a chunk edge agree in both kernels."""
        proc = _dome_process()
        cfg = SimConfig(dt=0.01, n_steps=n_steps, n_paths=40, seed=3,
                        burn_in=burn_in, boundary_mode=mode)
        a, b = _both_kernels(proc, cfg)
        assert a.shape == (n_steps - burn_in, 40)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kernel", ["path-major", "step-major", "bare"])
    def test_redraws_after_a_chunk_edge(self, kernel):
        """Re-draws after step 1000 still take a path's draws after all of
        its step draws: each kernel's series matches paths stepped on
        draws taken in one call, by the folded step for the two kernels
        and by x + mu(x) dt for the dome's bare triple. Some paths first
        re-draw after step 1000, some on both sides of it."""
        proc = _dome_process()
        cfg = SimConfig(dt=0.01, n_steps=2001, n_paths=40, seed=3,
                        burn_in=1001, boundary_mode="reject-step")
        if kernel == "bare":
            series = _bare_run(proc, cfg)
        else:
            series = _both_kernels(proc, cfg)[kernel == "step-major"]
        late = both = 0
        for i in range(cfg.n_paths):
            want, redrawn = _one_call_path(proc, cfg, i,
                                           bare=kernel == "bare")
            assert np.array_equal(series[:, i], want)
            late += bool(redrawn) and redrawn[0] >= 1000
            both += bool(redrawn) and redrawn[0] < 1000 <= redrawn[-1]
        assert late > 0 and both > 0

    @pytest.mark.parametrize("mode", ["reflect", "reject-step"])
    def test_points_inside_are_not_folded(self, mode):
        """Only a proposal that left the interval is folded: at rest at
        1e-20 on (-1, 1), x stays exactly 1e-20, on each kick rule (the
        quadratic one clamps its negative v to 0) and on a bare triple."""
        cfg = SimConfig(dt=0.01, n_steps=20, n_paths=2, boundary_mode=mode)
        zero = lambda x: x * 0.0
        for still in (_ClosedVariance(zero, 1.0),
                      _ClosedVariance(zero, 1.0, (0.0, 0.0, 0.0)),
                      _ClosedVariance(zero, 1.0, (0.0, 0.0, -1.0))):
            for series, _ in (
                    _path_major((0.0, 0.0), still, -1.0, 1.0, 1e-20, cfg),
                    _step_major((0.0, 0.0), still, -1.0, 1.0, 1e-20, cfg),
                    _step_major(zero, zero, -1.0, 1.0, 1e-20, cfg)):
                assert np.all(series == 1e-20)


@pytest.fixture
def forking(monkeypatch):
    """Path-major runs fork at any length on 4 cores: the pids of the
    forks the test's process makes are appended to the list returned."""
    monkeypatch.setattr(sim, "_FORK_PATH_STEPS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    real, pids = os.fork, []

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _serial(monkeypatch, call):
    """call() with path-major runs walked in one process."""
    with monkeypatch.context() as m:
        m.setattr(sim, "_workers", lambda cfg: 1)
        return call()


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


class TestFork:
    """A long path-major run forks one worker per core (at most one per
    path and per _FORK_PATH_STEPS path-steps), each on a contiguous block
    of paths; the series and the failures are the serial run's."""

    @pytest.mark.parametrize("mode", ["reflect", "reject-step"])
    @pytest.mark.parametrize("spec", CLOSED_KINDS, ids=lambda s: s.kind)
    def test_identical_series(self, spec, mode, forking, monkeypatch):
        """Blocks of 1, 1 and 2 paths (2 and 3 paths) or 4 (16 paths),
        with a burn-in that ends past the first chunk: the forked series
        is the serial one, bit for bit."""
        proc = synthesize(spec)
        for n_paths in (2, 3, PATH_MAJOR_MAX_PATHS):
            cfg = SimConfig(dt=0.05 / proc.lambda1, n_steps=2100,
                            n_paths=n_paths, seed=3, burn_in=1100,
                            boundary_mode=mode)
            forked = len(forking)
            a = _both_kernels(proc, cfg)[0]
            assert len(forking) - forked == min(n_paths, 4) - 1
            b = _serial(monkeypatch, lambda: _both_kernels(proc, cfg)[0])
            assert a.shape == (1000, n_paths)
            assert np.array_equal(a, b)
        assert _no_children()

    @pytest.mark.parametrize("n_paths", [8, 6])
    def test_give_up_in_a_child_block(self, n_paths, forking, monkeypatch):
        """Path 4 of the dome at dt = 1, seed 5, gives up first, at step
        4, in a child's block (paths 4 and 5 at both widths); the forked
        run names that step, as the serial run and step-major do."""
        proc = _dome_process()
        cfg = SimConfig(dt=1.0, n_steps=3000, n_paths=n_paths, seed=5,
                        boundary_mode="reject-step")
        a = _both_kernels(proc, cfg)
        assert len(forking) == 3
        assert a == _serial(monkeypatch, lambda: _both_kernels(proc, cfg))
        assert a[0] == a[1] == \
            "BoundaryViolation: step rejected 100 times at t=4"
        with pytest.raises(BoundaryViolation, match="t=4$"):
            simulate(proc, cfg)
        assert _no_children()

    @pytest.mark.parametrize("n_steps,burn_in", [(3000, 0), (3000, 1500)])
    def test_same_non_finite_error(self, n_steps, burn_in, forking,
                                   monkeypatch):
        """The Normal's overflow at dt = 3 (test_same_non_finite_error in
        TestKernels) at 3 paths, one block each: the forked run names the
        step the paths stepped on their own leave the floats."""
        proc = synthesize(Normal(0.0, 1.0))
        cfg = SimConfig(dt=3.0, n_steps=n_steps, n_paths=3, seed=5,
                        burn_in=burn_in)
        a = _both_kernels(proc, cfg)[0]
        assert len(forking) == 2
        assert a == _serial(monkeypatch, lambda: _both_kernels(proc, cfg)[0])
        assert a == _non_finite(proc, cfg)
        with pytest.raises(NonFiniteState):
            simulate(proc, cfg)
        assert _no_children()

    def test_every_child_is_reaped(self, forking, monkeypatch):
        """After a run that returns and after one whose parent fails while
        its children walk, no child is left, not even a zombie."""
        proc = _dome_process()
        cfg = SimConfig(dt=0.01, n_steps=2000, n_paths=8, seed=3)
        simulate(proc, cfg)
        assert len(forking) == 3 and _no_children()
        parent, walk = os.getpid(), sim._walk

        def failing(*args):
            if os.getpid() == parent:
                raise RuntimeError("the parent's walk failed")
            return walk(*args)

        monkeypatch.setattr(sim, "_walk", failing)
        with pytest.raises(RuntimeError):
            simulate(proc, cfg)
        assert len(forking) == 6 and _no_children()

    def test_a_child_that_dies_is_walked_by_the_parent(self, forking,
                                                       monkeypatch):
        """A child that exits before it has sent its block leaves the pipe
        short; the parent walks that block itself, and the series is the
        serial one."""
        proc = _dome_process()
        cfg = SimConfig(dt=0.01, n_steps=2000, n_paths=8, seed=3)
        want = _serial(monkeypatch, lambda: _both_kernels(proc, cfg)[0])
        parent, walk = os.getpid(), sim._walk

        def dying(cfg, x0, step, series, first):
            if os.getpid() != parent and first == 4:
                os._exit(0)
            return walk(cfg, x0, step, series, first)

        monkeypatch.setattr(sim, "_walk", dying)
        assert np.array_equal(_both_kernels(proc, cfg)[0], want)
        assert len(forking) == 3 and _no_children()

    def test_a_failed_fork_walks_serially(self, forking, monkeypatch):
        """With os.fork raising OSError, the parent walks every block."""
        proc = _dome_process()
        cfg = SimConfig(dt=0.01, n_steps=2000, n_paths=8, seed=3,
                        boundary_mode="reject-step")
        want = _serial(monkeypatch, lambda: _both_kernels(proc, cfg)[0])

        def fork():
            raise OSError("no more processes")

        monkeypatch.setattr(os, "fork", fork)
        assert np.array_equal(_both_kernels(proc, cfg)[0], want)
        assert _no_children()

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_a_fork_that_warns_after_forking(self, action, forking,
                                             monkeypatch):
        """From Python 3.12 os.fork in a process with more than one thread
        (a threaded BLAS's workers count) warns with a DeprecationWarning,
        in the parent, after the child exists. Under -W error CPython
        drops the exception the warning becomes, so os.fork still returns
        the pid. With os.fork made to do the same, the run is the serial
        one and every child is reaped."""
        proc = _dome_process()
        cfg = SimConfig(dt=0.01, n_steps=2000, n_paths=8, seed=3)
        want = _serial(monkeypatch, lambda: _both_kernels(proc, cfg)[0])
        fork = os.fork
        message = ("This process is multi-threaded, use of fork() may lead "
                   "to deadlocks in the child.")

        def warning_fork():
            pid = fork()
            if pid:
                try:
                    warnings.warn(message, DeprecationWarning)
                except DeprecationWarning:
                    pass
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter(action, DeprecationWarning)
            got = _both_kernels(proc, cfg)[0]
        assert np.array_equal(got, want)
        assert len(forking) == 3 and _no_children()
        # -W default shows the warning once, where sim forks
        assert [str(w.message) for w in seen] == (
            [message] if action == "default" else [])

    def test_short_runs_do_not_fork(self, monkeypatch):
        """Below _FORK_PATH_STEPS path-steps a worker, one path, or a
        step-major run: os.fork is never called."""
        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)
        per_worker = sim._FORK_PATH_STEPS
        for target, n_paths, n_steps in (
                (_dome_process(), PATH_MAJOR_MAX_PATHS,
                 2 * per_worker // PATH_MAJOR_MAX_PATHS - 1),
                (_dome_process(), 1, 2 * per_worker),
                (_dome_process(), PATH_MAJOR_MAX_PATHS + 1,
                 2 * per_worker // PATH_MAJOR_MAX_PATHS)):
            simulate(target, SimConfig(dt=0.01, n_steps=n_steps,
                                       n_paths=n_paths, seed=1))

    def test_workers_never_exceed_paths_or_cores(self, monkeypatch):
        """min(paths, cores, path-steps // _FORK_PATH_STEPS), at least 1;
        one where os.fork or os.sched_getaffinity is missing."""
        per_worker = sim._FORK_PATH_STEPS
        for cores, n_paths, n_steps, want in (
                (64, 3, 100 * per_worker, 3), (2, 16, 100 * per_worker, 2),
                (64, 16, per_worker // 2, 8), (64, 16, per_worker // 16, 1),
                (1, 16, 100 * per_worker, 1)):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=cores: set(range(n)))
            assert sim._workers(SimConfig(dt=0.01, n_steps=n_steps,
                                          n_paths=n_paths)) == want
        cfg = SimConfig(dt=0.01, n_steps=100 * per_worker, n_paths=16)
        for name in ("fork", "sched_getaffinity"):
            with monkeypatch.context() as m:
                m.delattr(os, name)
                assert sim._workers(cfg) == 1


def _old_post_processing(series, phi1, n_bins=50):
    """m1, m2, histogram and acf by the formulas that made temporaries the
    size of the series: y = slope x + intercept for phi1 = (slope,
    intercept), as phi1_at computes it; phi1 None centers and scales x
    itself."""
    m1 = float(series.mean())
    m2 = float(np.mean(series * series))
    freq, edges = np.histogram(series.ravel(), bins=n_bins, density=True)
    if phi1 is None:
        obs = series - series.mean()
        sd = float(np.sqrt(np.mean(obs * obs)))
        obs = obs / sd
    else:
        obs = phi1[0] * series + phi1[1]
    kept, n_paths = obs.shape
    max_lag = min(kept - 1, 50000)
    size = 1
    while size < 2 * kept:
        size *= 2
    spec_sum = np.zeros(size // 2 + 1)
    for i in range(n_paths):
        f = np.fft.rfft(obs[:, i], n=size)
        spec_sum += (f * f.conj()).real
    raw = np.fft.irfft(spec_sum, n=size)[:max_lag + 1]
    acf = raw / (n_paths * (kept - np.arange(max_lag + 1)).astype(float))
    return m1, m2, freq, edges, acf / acf[0]


def _traced_peak(fn):
    """The peak of memory traced by tracemalloc while fn runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPostProcessing:
    """simulate streams its series: one array the size of the series plus
    buffers of 1000 x paths, with the old formulas' results bit for bit."""

    @pytest.mark.parametrize("target", ["dome", "bare"])
    def test_same_as_the_series_sized_formulas(self, target):
        if target == "dome":
            proc = _dome_process()
            x0 = proc.moments.m1
        else:
            proc = _ou_target()[:2] + ((-1.5, 1.5),)
            x0 = 0.3
        cfg = SimConfig(dt=0.01, n_steps=2001, n_paths=40, seed=3,
                        burn_in=501)
        res = simulate(proc, cfg, x0=x0)
        mu, var, (lo, hi), phi1 = _unpack_target(proc)
        m1, m2, freq, edges, acf = _old_post_processing(
            _step_major(mu, var, lo, hi, x0, cfg)[0], phi1)
        assert res.m1_hat == m1 and res.m2_hat == m2
        assert np.array_equal(res.hist_freq, freq)
        assert np.array_equal(res.hist_edges, edges)
        assert np.array_equal(res.acf, acf)

    @pytest.mark.parametrize("n_paths", [1, 3, 5, 17])
    @pytest.mark.parametrize("target", ["dome", "bare", "reject"])
    def test_same_as_the_old_formulas_at_any_width(self, target, n_paths):
        """Widths that leave a partial block of paths in the ACF (8 paths
        a block at 1500 kept steps) give the old results bit for bit."""
        proc, x0, mode = _dome_process(), None, "reflect"
        if target == "bare":
            proc = _ou_target()[:2] + ((-1.5, 1.5),)
            x0 = 0.3
        elif target == "reject":
            mode = "reject-step"
        cfg = SimConfig(dt=0.01, n_steps=2001, n_paths=n_paths, seed=3,
                        burn_in=501, boundary_mode=mode)
        res = simulate(proc, cfg, x0=x0)
        mu, var, (lo, hi), phi1 = _unpack_target(proc)
        x0 = proc.moments.m1 if x0 is None else x0
        m1, m2, freq, edges, acf = _old_post_processing(
            _step_major(mu, var, lo, hi, x0, cfg)[0], phi1)
        assert res.m1_hat == m1 and res.m2_hat == m2
        assert np.array_equal(res.hist_freq, freq)
        assert np.array_equal(res.hist_edges, edges)
        assert np.array_equal(res.acf, acf)

    def test_acf_blocks_fit_in_the_freed_noise_chunk(self):
        """On the widest benchmark series (15875 kept steps of 256 paths)
        the ACF's held blocks and temporaries peak within the 1000 x 256
        noise chunk that _walk has freed: 0.79 MB, where one path at a time
        with fresh temporaries peaked at 0.92 MB."""
        series = np.random.default_rng(1).random((15875, 256))
        phi1 = _dome_process().phi1
        peak = _traced_peak(
            lambda: sim._mean_lag_products(series, 15874, phi1))
        assert peak <= sim._CHUNK * 256 * 8

    def test_closed_run_holds_one_series(self):
        """Parent: about 2.0 x the series (noise array, then the squares)."""
        cfg = SimConfig(dt=1e-3, n_steps=8000, n_paths=256, seed=1)
        proc = _dome_process()
        peak = _traced_peak(lambda: simulate(proc, cfg))
        assert peak <= 1.15 * cfg.n_steps * cfg.n_paths * 8

    def test_bare_run_holds_one_copy_beside_the_series(self):
        """A bare triple keeps one centered copy. Parent: about 3.0 x."""
        cfg = SimConfig(dt=1e-3, n_steps=8000, n_paths=256, seed=1)
        target = _ou_target()[:2] + ((-1.5, 1.5),)
        peak = _traced_peak(lambda: simulate(target, cfg, x0=0.0))
        assert peak <= 2.15 * cfg.n_steps * cfg.n_paths * 8


class TestRateFromAcf:
    """Log-linear fitting over the decaying band of the autocorrelation."""

    def test_exact_exponential(self):
        """A pure exponential sequence returns its rate almost exactly."""
        dt = 0.01
        lags = np.arange(500)
        rho = np.exp(-2.0 * lags * dt)
        est = rate_from_acf(lags, rho, dt)
        np.testing.assert_allclose(est.rate, 2.0, rtol=1e-9)

    def test_clipped_head_is_excluded(self):
        """Lags above the upper band edge never enter the fit.

        The sequence is 3 exp(-2 t) clipped at 1, so its head is flat and
        would wreck a fit that included it; the fitted rate is exact only
        if the fit starts at the first lag at or below 0.8.
        """
        dt = 0.01
        lags = np.arange(400)
        rho = np.minimum(1.0, 3.0 * np.exp(-2.0 * lags * dt))
        est = rate_from_acf(lags, rho, dt)
        np.testing.assert_allclose(est.rate, 2.0, rtol=1e-9)

    def test_noisy_tail_is_excluded(self):
        """Late lags that wander back above the lower edge are ignored."""
        dt = 0.01
        lags = np.arange(400)
        rho = np.exp(-2.0 * lags * dt)
        rho[260:] = 0.06 * (1 + np.cos(lags[260:]))  # noise back in band
        est = rate_from_acf(lags, rho, dt)
        np.testing.assert_allclose(est.rate, 2.0, rtol=1e-6)

    def test_never_decaying_sequence_raises(self):
        """A sequence that never reaches the band is a typed failure."""
        lags = np.arange(100)
        rho = np.full(100, 0.95)
        rho[0] = 1.0
        with pytest.raises(InsufficientDecay):
            rate_from_acf(lags, rho, 0.01)

    def test_too_few_lags_in_band_raises(self):
        """A cliff through the band leaves too few points to fit."""
        lags = np.arange(10)
        rho = np.array([1.0, 0.9, 0.6, 0.02, 0.01, 0.01, 0.005, 0.004,
                        0.003, 0.002])
        with pytest.raises(InsufficientDecay, match="lags"):
            rate_from_acf(lags, rho, 0.01)

    def test_custom_window(self):
        """The band edges are configurable."""
        dt = 0.01
        lags = np.arange(800)
        rho = np.exp(-2.0 * lags * dt)
        est = rate_from_acf(lags, rho, dt, window=(0.01, 0.5))
        np.testing.assert_allclose(est.rate, 2.0, rtol=1e-9)


class TestResultShape:
    """SimResult field consistency."""

    def test_fields_and_shapes(self):
        """Histogram and autocorrelation arrays have matching sizes."""
        cfg = SimConfig(dt=1e-3, n_steps=2000, n_paths=2, seed=1,
                        burn_in=100)
        res = simulate(_dome_process(), cfg, n_bins=25)
        assert isinstance(res, SimResult)
        assert res.hist_edges.shape == (26,)
        assert res.hist_freq.shape == (25,)
        assert res.acf.shape == res.acf_lags.shape
        assert res.n_samples == (2000 - 100) * 2
        assert math.isfinite(res.m1_hat) and math.isfinite(res.m2_hat)


class TestCsvWriters:
    """Plain-text artifact formats."""

    def test_autocorr_csv(self, tmp_path):
        """Lag file has an integer lag column and full-precision values."""
        path = tmp_path / "autocorr.csv"
        write_autocorr_csv(path, [0, 1, 2], [1.0, 0.5, 0.25])
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "lag,autocorr"
        assert lines[1] == "0,1"
        assert lines[2] == "1,0.5"
        assert lines[3] == "2,0.25"

    def test_hist_csv(self, tmp_path):
        """Histogram file carries bin edges and densities row by row."""
        path = tmp_path / "hist.csv"
        write_hist_csv(path, [0.0, 0.5, 1.0], [0.5, 1.5])
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,freq"
        assert lines[1] == "0,0.5,0.5"
        assert lines[2] == "0.5,1,1.5"

    AWKWARD = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308,
               -1.7976931348623157e308, math.nan, math.inf, -math.inf,
               0.1, 1.0 / 3.0, -2.5e-17]

    def test_autocorr_bytes_match_the_row_format(self, tmp_path):
        """Rows formatted from Python numbers and written in chunks are the
        bytes the per-row format of numpy scalars wrote, across chunk
        boundaries."""
        acf = np.tile(self.AWKWARD, 200)
        lags = np.arange(acf.size)
        path = tmp_path / "autocorr.csv"
        write_autocorr_csv(path, lags, acf)
        rows = "".join("%d,%.17g\n" % (int(lag), a)
                       for lag, a in zip(lags, acf))
        assert path.read_bytes() == ("lag,autocorr\n" + rows).encode()

    @pytest.mark.parametrize("n_bins", [0, 1, 11, 2100])
    def test_hist_bytes_match_the_row_format(self, tmp_path, n_bins):
        """Awkward edges and heights, and a histogram with no bins."""
        edges = np.tile(self.AWKWARD, 200)[:n_bins + 1]
        freq = np.tile(self.AWKWARD[::-1], 200)[:n_bins]
        path = tmp_path / "hist.csv"
        write_hist_csv(path, edges, freq)
        rows = "".join("%.17g,%.17g,%.17g\n"
                       % (edges[i], edges[i + 1], freq[i])
                       for i in range(freq.size))
        assert path.read_bytes() == ("bin_lo,bin_hi,freq\n" + rows).encode()
