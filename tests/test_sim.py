"""Tests for the Euler-Maruyama sampler and autocorrelation rate fits."""

import functools
import math
import tracemalloc

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
    NUMPY_PROFILE_MAX_PATHS,
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
        """Negative seeds and seeds from 2^63 up each get their own stream
        (none falls back to seed 0's), and a seed below 2^63 keeps the
        stream of the key words (seed, path index)."""
        draws = {tuple(sim._path_rng(s, 0).standard_normal(4))
                 for s in (0, -1, -5, 2 ** 63, 2 ** 63 + 1)}
        assert len(draws) == 5
        for i in (0, 1, 17):
            ref = np.random.Generator(np.random.Philox(key=7 + (i << 64)))
            np.testing.assert_array_equal(
                sim._path_rng(7, i).standard_normal(8),
                ref.standard_normal(8))


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


# one of each catalog kind with a closed variance shape
CLOSED_KINDS = [
    Beta(1.0, 1.0), Jacobi(0.5, 1.5), Gamma(1.0), Normal(0.3, 2.0),
    StudentCauchy(2.2), InverseGamma(3.0), FisherSnedecor(3.0, 9.0),
    Hyperexponential(0.5, 0.5, 1.0, 2.0), CubicPearson(1.0, 2.0, 0.5),
]


def _kernel_runs(proc, cfg, runs):
    sup = proc.source.support
    out = []
    for kernel, drift, variance in runs:
        try:
            out.append(kernel(drift, variance, sup.lower, sup.upper,
                              proc.moments.m1, cfg))
        except (BoundaryViolation, NonFiniteState) as exc:
            out.append("%s: %s" % (type(exc).__name__, exc))
    return out


def _both_kernels(proc, cfg):
    """The path-major and step-major series, or the message each raised."""
    return _kernel_runs(proc, cfg, [
        (_path_major, proc.drift, proc.variance_fn),
        (_step_major, proc.drift, proc.variance_fn)])


def _generic(proc, cfg):
    """The series, or the message raised, of the generic step-major route:
    drift and sigma^2/2 called as functions of the state at every step."""
    return _kernel_runs(proc, cfg, [
        (_step_major, proc.drift_at, proc.variance_fn)])[0]


def _one_call_path(proc, cfg, i):
    """Path i stepped on draws taken in one call: its n_steps step normals,
    then its reject-step re-draws from the same generator. Returns the kept
    series and the steps that re-drew."""
    rng = sim._path_rng(cfg.seed, i)
    noise = rng.standard_normal(cfg.n_steps)
    a0, a1 = proc.drift
    lam, profile = proc.variance_fn.lambda1, proc.variance_fn._profile
    lo, hi = proc.source.support.lower, proc.source.support.upper
    dt = cfg.dt
    rootdt = math.sqrt(dt)
    x, walked, redrawn = float(proc.moments.m1), [], []
    for step, xi in enumerate(noise.tolist()):
        v = lam * profile(x)
        sigma = math.sqrt(2.0 * (0.0 if v < 0.0 else v))
        mu = a0 + a1 * x
        prop = x + mu * dt + sigma * rootdt * xi
        while prop < lo or prop > hi:
            redrawn.append(step)
            prop = x + mu * dt + sigma * rootdt * rng.standard_normal()
        x = prop
        walked.append(x)
    return np.array(walked[cfg.burn_in:]), redrawn


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
        """Both kernels also match the generic route, which calls the drift
        and sigma^2/2 at every step: a constant sigma scales the normals
        once, and neither kernel moves a rounding."""
        proc = synthesize(spec)
        for n_paths in (1, NUMPY_PROFILE_MAX_PATHS, PATH_MAJOR_MAX_PATHS,
                        PATH_MAJOR_MAX_PATHS + 1, 256):
            cfg = SimConfig(dt=0.05 / proc.lambda1, n_steps=1200,
                            n_paths=n_paths, seed=3, burn_in=150,
                            boundary_mode=mode)
            a, b = _both_kernels(proc, cfg)
            assert a.shape == (1050, n_paths)
            assert np.array_equal(a, b)
            assert np.array_equal(a, _generic(proc, cfg))

    @pytest.mark.parametrize("mode", ["reflect", "reject-step"])
    def test_constant_sigma_with_finite_ends(self, mode):
        """A constant sigma scales the normals once even where points fold
        or re-draw: the Normal's process walked on [-1, 1.5] gives the
        generic route's series on both kernels, at widths on either side
        of the crossover."""
        proc = synthesize(Normal(0.0, 1.0))
        for n_paths in (3, PATH_MAJOR_MAX_PATHS + 1):
            cfg = SimConfig(dt=0.05, n_steps=1200, n_paths=n_paths, seed=3,
                            boundary_mode=mode)
            runs = [kernel(drift, proc.variance_fn, -1.0, 1.5, 0.0, cfg)
                    for kernel, drift in ((_path_major, proc.drift),
                                          (_step_major, proc.drift),
                                          (_step_major, proc.drift_at))]
            assert np.array_equal(runs[0], runs[1])
            assert np.array_equal(runs[0], runs[2])
            assert runs[0].min() >= -1.0 and runs[0].max() <= 1.5
            assert np.any(runs[0] < -0.99) and np.any(runs[0] > 1.49)

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
        """Closed targets up to the crossover go path-major, those whose
        profile calls numpy only up to a narrower one; wider batches take
        step-major's closed route. Quadrature targets and bare triples take
        step-major's generic route, with the drift as a callable."""
        seen = []
        for name in ("_path_major", "_step_major"):
            real = getattr(sim, name)

            def spy(*args, _name=name, _real=real):
                seen.append((_name, "generic" if callable(args[0])
                             else "closed"))
                return _real(*args)

            monkeypatch.setattr(sim, name, spy)
        closed = _dome_process()
        ou = synthesize(Normal(0.0, 1.0))
        hyper = synthesize(Hyperexponential(0.5, 0.5, 1.0, 2.0))
        quad = synthesize(Beta(1.0, 1.0), variance_mode="quadrature")
        for target, n_paths in ((closed, PATH_MAJOR_MAX_PATHS),
                                (ou, PATH_MAJOR_MAX_PATHS),
                                (hyper, NUMPY_PROFILE_MAX_PATHS),
                                (closed, PATH_MAJOR_MAX_PATHS + 1),
                                (ou, PATH_MAJOR_MAX_PATHS + 1),
                                (hyper, NUMPY_PROFILE_MAX_PATHS + 1),
                                (quad, 1), (_ou_target(), 1)):
            simulate(target, SimConfig(dt=1e-2, n_steps=300,
                                       n_paths=n_paths, seed=1), x0=0.5)
        assert seen == ([("_path_major", "closed")] * 3
                        + [("_step_major", "closed")] * 3
                        + [("_step_major", "generic")] * 2)
        assert NUMPY_PROFILE_MAX_PATHS < PATH_MAJOR_MAX_PATHS

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
        (3000, 0, 1021), (1500, 0, 1021), (3000, 1500, 1500)])
    def test_same_non_finite_error(self, n_steps, burn_in, step):
        """An unstable step size overflows; both kernels step to the end
        and name the first kept step at which some path is not finite."""
        proc = synthesize(Normal(0.0, 1.0))
        cfg = SimConfig(dt=3.0, n_steps=n_steps, n_paths=3, seed=5,
                        burn_in=burn_in)
        a, b = _both_kernels(proc, cfg)
        msg = "NonFiniteState: state became non-finite by step %d" % step
        assert a == b == _generic(proc, cfg) == msg

    def test_same_non_finite_error_at_width(self):
        """The overflow test above, at a width past path-major's: the
        constant sigma of the Normal scales each chunk once on both
        kernels, and the step named is the generic route's too."""
        proc = synthesize(Normal(0.0, 1.0))
        cfg = SimConfig(dt=3.0, n_steps=1500, n_paths=256, seed=5)
        a, b = _both_kernels(proc, cfg)
        assert a == b == _generic(proc, cfg)
        assert a.startswith("NonFiniteState: state became non-finite by")

    def test_earliest_non_finite_path_is_reported(self):
        """Alone, path 0 overflows at step 1022; with 3 paths another one
        overflows at step 1021, and every path is finite before it."""
        proc = synthesize(Normal(0.0, 1.0))
        msgs = []
        for n_paths, n_steps in ((1, 1500), (3, 1022)):
            a, b = _both_kernels(proc, SimConfig(
                dt=3.0, n_steps=n_steps, n_paths=n_paths, seed=5))
            assert a == b
            msgs.append(a)
        assert [m.rsplit(" ", 1)[1] for m in msgs] == ["1022", "1021"]
        cfg = SimConfig(dt=3.0, n_steps=1021, n_paths=3, seed=5)
        a, b = _both_kernels(proc, cfg)
        assert np.isfinite(a).all() and np.array_equal(a, b)
        assert np.array_equal(a, _generic(proc, cfg))

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

    @pytest.mark.parametrize("kernel", ["path-major", "step-major",
                                        "generic"],
                             ids=["path-major", "step-major", "generic"])
    def test_redraws_after_a_chunk_edge(self, kernel):
        """Re-draws after step 1000 still take a path's draws after all of
        its step draws: each kernel's series matches paths stepped on
        draws taken in one call. Some paths first re-draw after step 1000,
        some on both sides of it."""
        proc = _dome_process()
        cfg = SimConfig(dt=0.01, n_steps=2001, n_paths=40, seed=3,
                        burn_in=1001, boundary_mode="reject-step")
        if kernel == "generic":
            series = _generic(proc, cfg)
        else:
            series = _both_kernels(proc, cfg)[kernel == "step-major"]
        late = both = 0
        for i in range(cfg.n_paths):
            want, redrawn = _one_call_path(proc, cfg, i)
            assert np.array_equal(series[:, i], want)
            late += bool(redrawn) and redrawn[0] >= 1000
            both += bool(redrawn) and redrawn[0] < 1000 <= redrawn[-1]
        assert late > 0 and both > 0

    @pytest.mark.parametrize("mode", ["reflect", "reject-step"])
    def test_points_inside_are_not_folded(self, mode):
        """Only a proposal that left the interval is folded: at rest at
        1e-20 on (-1, 1), x stays exactly 1e-20."""
        cfg = SimConfig(dt=0.01, n_steps=20, n_paths=2, boundary_mode=mode)
        zero = lambda x: x * 0.0
        for still in (_ClosedVariance(zero, 1.0), _ClosedVariance(0.0, 1.0)):
            for series in (
                    _path_major((0.0, 0.0), still, -1.0, 1.0, 1e-20, cfg),
                    _step_major((0.0, 0.0), still, -1.0, 1.0, 1e-20, cfg),
                    _step_major(zero, still, -1.0, 1.0, 1e-20, cfg)):
                assert np.all(series == 1e-20)


def _old_post_processing(series, observable, n_bins=50):
    """m1, m2, histogram and acf by the formulas that made temporaries the
    size of the series; observable None centers and scales x itself."""
    m1 = float(series.mean())
    m2 = float(np.mean(series * series))
    freq, edges = np.histogram(series.ravel(), bins=n_bins, density=True)
    if observable is None:
        obs = series - series.mean()
        sd = float(np.sqrt(np.mean(obs * obs)))
        obs = obs / sd
    else:
        obs = observable(series)
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
        mu, var, (lo, hi), observable = _unpack_target(proc)
        m1, m2, freq, edges, acf = _old_post_processing(
            _step_major(mu, var, lo, hi, x0, cfg), observable)
        assert res.m1_hat == m1 and res.m2_hat == m2
        assert np.array_equal(res.hist_freq, freq)
        assert np.array_equal(res.hist_edges, edges)
        assert np.array_equal(res.acf, acf)

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
