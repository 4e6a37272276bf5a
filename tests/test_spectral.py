"""Tests for the finite-volume generator discretization: spectrum accuracy
and convergence order, Rayleigh-quotient minimality of the linear slow mode,
and the mass-conserving forward evolution in the generator's eigenbasis.
"""

import math

import numpy as np
import pytest

from fastmix import spectral
from fastmix.distributions import Beta, Gamma, Jacobi, Normal, StudentCauchy
from fastmix.errors import GridTooCoarse, ZeroDenominator
from fastmix.numerics import Grid, GridFunction
from fastmix.optimal import synthesize
from fastmix.spectral import (
    EvolutionState,
    default_grid,
    discretize_generator,
    evolve_fpe,
    fit_decay_rate,
    gaussian_bump,
    rayleigh_quotient,
    spectrum,
    write_decay_csv,
    write_spectrum_csv,
)


class TestDiscretization:
    def test_shapes_and_signs(self):
        proc = synthesize(Beta(1.0, 1.0))
        g = default_grid(proc, 200)
        d = discretize_generator(proc, g)
        assert d.diag.shape == (200,)
        assert d.offdiag.shape == (199,)
        assert d.faces.shape == (199,)
        assert np.all(d.diag > 0) and np.all(d.offdiag < 0)

    def test_constant_function_is_in_the_kernel(self):
        """L(const) = 0: the weight vector is an exact null vector of the
        symmetric form."""
        proc = synthesize(Beta(2.0, 2.0))
        g = default_grid(proc, 300)
        d = discretize_generator(proc, g)
        w = d.weights
        r = d.diag * w
        r[:-1] += d.offdiag * w[1:]
        r[1:] += d.offdiag * w[:-1]
        assert np.max(np.abs(r)) < 1e-9 * np.max(d.diag * w)

    def test_too_coarse(self):
        proc = synthesize(Beta(1.0, 1.0))
        with pytest.raises(GridTooCoarse):
            discretize_generator(proc, Grid.cell_centers(0.0, 1.0, 49))

    def test_accepts_pdf_variance_pair(self):
        spec = Beta(1.0, 1.0)
        proc = synthesize(spec)
        g = default_grid(proc, 100)
        d = discretize_generator((spec._pdf, proc.variance_fn), g)
        assert d.grid is g


class TestDefaultGrid:
    def test_clipped_to_finite_support(self):
        proc = synthesize(Beta(1.0, 1.0))
        g = default_grid(proc, 128)
        assert 0.0 < g.a < g.b < 1.0
        assert g.n == 128

    def test_gaussian_window(self):
        proc = synthesize(Normal(0.0, 1.0))
        g = default_grid(proc, 100)
        assert -9.0 < g.a < -7.5 and 7.5 < g.b < 9.0

    def test_heavy_tail_pushes_out(self):
        proc = synthesize(StudentCauchy(3.0))
        s = math.sqrt(proc.moments.variance)
        g = default_grid(proc, 100)
        assert g.b > 8.0 * s  # density at 8 sd still above the cutoff


class TestSpectrum:
    def test_zero_mode_and_orthonormality(self):
        proc = synthesize(Beta(1.0, 1.0))
        g = default_grid(proc, 500)
        s = spectrum(discretize_generator(proc, g), 4)
        assert abs(s.eigenvalues[0]) < 1e-8
        np.testing.assert_allclose(s.eigenfunctions[0], 1.0, atol=1e-6)
        pi = proc.source._pdf(g.points)
        gram = (s.eigenfunctions * pi) @ s.eigenfunctions.T * g.h
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)

    @pytest.mark.parametrize("spec,lam", [
        (Beta(1.0, 1.0), 4.0),
        (Jacobi(1.0, 1.0), 4.0),
        (Gamma(1.0), 1.0),
        (Normal(0.0, 1.0), 1.0),
    ], ids=lambda v: getattr(v, "kind", str(v)))
    def test_gap_matches_analytic_rate(self, spec, lam):
        proc = synthesize(spec)
        g = default_grid(proc, 2000)
        s = spectrum(discretize_generator(proc, g), 2)
        assert abs(s.eigenvalues[1] - lam) <= 0.01 * lam

    def test_slow_mode_is_linear(self):
        proc = synthesize(Beta(1.0, 1.0))
        g = default_grid(proc, 1000)
        s = spectrum(discretize_generator(proc, g), 2)
        phi = s.eigenfunctions[1]
        truth = proc.phi1_at(g.points)
        if float(phi @ truth) < 0:
            phi = -phi
        err = np.abs(phi - truth)
        assert np.max(err) < 5e-3  # zero-flux ends distort the last cells
        assert np.max(err[20:-20]) < 1e-4

    def test_second_excited_level(self):
        # flat density, sigma^2/2 = x(1-x): levels n(n+3), so 4, 10, ...
        proc = synthesize(Beta(1.0, 1.0))
        g = default_grid(proc, 2000)
        s = spectrum(discretize_generator(proc, g), 3)
        assert abs(s.eigenvalues[2] - 10.0) <= 0.01 * 10.0

    @pytest.mark.parametrize("spec", [Beta(1.0, 1.0), Jacobi(1.0, 1.0)],
                             ids=lambda s: s.kind)
    def test_second_order_convergence(self, spec):
        """Gap errors shrink ~4x per grid doubling (second-order faces)."""
        proc = synthesize(spec)
        gaps = []
        for n in (500, 1000, 2000):
            g = default_grid(proc, n)
            s = spectrum(discretize_generator(proc, g), 2)
            gaps.append(s.eigenvalues[1])
        d1 = abs(gaps[0] - gaps[1])
        d2 = abs(gaps[1] - gaps[2])
        assert d2 > 0
        assert 3.0 <= d1 / d2 <= 5.0


class TestRayleigh:
    def test_linear_mode_attains_the_gap(self):
        proc = synthesize(Beta(1.0, 1.0))
        g = default_grid(proc, 1200)
        r = rayleigh_quotient(proc, GridFunction(g, proc.phi1_at(g.points)))
        assert abs(r - proc.lambda1) <= 1e-3 * proc.lambda1

    def test_random_functions_never_beat_the_gap(self):
        proc = synthesize(Beta(1.0, 1.0))
        g = default_grid(proc, 1200)
        rng = np.random.default_rng(99)
        x = g.points
        for _ in range(100):
            c = rng.uniform(-1.0, 1.0, 5)
            q = (c[0] * x + c[1] * x ** 2 + c[2] * np.sin(math.pi * x)
                 + c[3] * np.cos(2.0 * math.pi * x) + c[4] * x ** 3)
            r = rayleigh_quotient(proc, GridFunction(g, q))
            assert r >= proc.lambda1 * (1.0 - 0.01)

    def test_constant_rejected(self):
        proc = synthesize(Beta(1.0, 1.0))
        g = default_grid(proc, 100)
        with pytest.raises(ZeroDenominator):
            rayleigh_quotient(proc, GridFunction(g, np.full(g.n, 2.5)))


class TestSuboptimalVariance:
    def test_sine_perturbation_lowers_the_gap(self):
        """Rescaling a perturbed sigma^2/2 back to the same average budget
        must produce a strictly smaller spectral gap than the synthesized
        variance: the optimum is unique."""
        spec = Beta(1.0, 1.0)
        proc = synthesize(spec)
        g = default_grid(proc, 1500)
        pts = g.points
        pi = spec._pdf(pts)
        pert = np.asarray(proc.variance_fn(pts)) \
            * (1.0 + 0.5 * np.sin(2.0 * math.pi * pts))
        mean = float(np.sum(pert * pi) / np.sum(pi))
        pert *= proc.sigma_hat_sq_half / mean
        var_fn = GridFunction(g, pert)
        s = spectrum(discretize_generator((spec._pdf, var_fn), g), 2)
        assert 0.0 < s.eigenvalues[1] <= 3.5  # optimal gap is 4


class TestEvolveFpe:
    def test_mass_conservation_and_decay(self):
        proc = synthesize(Beta(1.0, 1.0))
        g = default_grid(proc, 800)
        p0 = gaussian_bump(g, 0.3, 0.05)
        state0 = EvolutionState(grid=g, density=p0)
        m0 = state0.mass()
        state, times, dists = evolve_fpe(proc, state0, t_end=1.5, dt=1e-3,
                                         record_every=10)
        assert abs(state.mass() - m0) <= 1e-8 * m0
        assert state.time == pytest.approx(1.5, abs=1e-9)
        assert dists[-1] < 1e-2 * dists[0]
        est = fit_decay_rate(times, dists)
        assert abs(est.rate - proc.lambda1) <= 0.05 * proc.lambda1

    def test_stationary_density_stays_put(self):
        proc = synthesize(Beta(2.0, 2.0))
        g = default_grid(proc, 400)
        pi = proc.source._pdf(g.points)
        pi = pi / (np.sum(pi) * g.h)
        state, times, dists = evolve_fpe(
            proc, EvolutionState(grid=g, density=pi), t_end=0.2, dt=1e-3)
        assert np.max(dists) < 1e-10

    def test_narrow_start_on_a_fine_grid(self):
        """A start whose fast modes a fixed step cannot resolve still
        evolves: the density stays nonnegative and mass holds."""
        proc = synthesize(Beta(1.0, 1.0))
        g = default_grid(proc, 2000)
        state0 = EvolutionState(grid=g, density=gaussian_bump(g, 0.3, 0.1))
        state, times, dists = evolve_fpe(proc, state0, t_end=1.5, dt=1e-3)
        assert np.min(state.density) >= -1e-12 * np.max(state.density)
        assert abs(state.mass() - state0.mass()) <= 1e-9 * state0.mass()
        est = fit_decay_rate(times, dists)
        assert abs(est.rate - proc.lambda1) <= 0.05 * proc.lambda1

    def test_dt_sets_only_the_recording_cadence(self):
        """Quartering dt while recording 4x less often gives the same
        distances at the same times."""
        proc = synthesize(Gamma(1.0))
        g = default_grid(proc, 300)
        state0 = EvolutionState(grid=g, density=gaussian_bump(g, 1.0, 0.2))
        _, t1, d1 = evolve_fpe(proc, state0, 3.0, 1e-2, record_every=4)
        _, t2, d2 = evolve_fpe(proc, state0, 3.0, 2.5e-3, record_every=16)
        np.testing.assert_allclose(t1, t2, rtol=1e-12)
        keep = d1 > 1e-10
        assert np.count_nonzero(keep) > 10
        np.testing.assert_allclose(d1[keep], d2[keep], rtol=1e-12)

    def test_argument_validation(self):
        proc = synthesize(Beta(1.0, 1.0))
        g = default_grid(proc, 100)
        state = EvolutionState(grid=g, density=gaussian_bump(g, 0.5, 0.1))
        with pytest.raises(ValueError):
            evolve_fpe(proc, state, t_end=1.0, dt=0.0)
        with pytest.raises(ValueError):
            evolve_fpe(proc, state, t_end=-1.0, dt=1e-3)
        with pytest.raises(ValueError):
            evolve_fpe(proc, state, t_end=1.0, dt=1e-3, record_every=0)
        with pytest.raises(ValueError):
            EvolutionState(grid=g, density=np.ones(5))
        # a non-finite t_end or dt, or a record count that overflows, is
        # one ValueError, not an OverflowError or a nan time
        for t_end, dt in [(math.inf, 1e-3), (-math.inf, 1e-3),
                          (math.nan, 1e-3), (1.0, math.inf),
                          (1.0, -math.inf), (1.0, math.nan),
                          (math.nan, math.nan), (1e300, 1e-300)]:
            with pytest.raises(ValueError, match="finite dt > 0"):
                evolve_fpe(proc, state, t_end=t_end, dt=dt)


def _full_modes(proc, state0):
    """lambda (lambda_0 = 0), phi, the start's coefficients c, the L1
    weights w_k = |c_k| h sum_i pi_i |phi_k(i)| and pi, from all n modes."""
    g = state0.grid
    disc = discretize_generator(proc, g)
    modes = spectrum(disc, g.n)
    lams = modes.eigenvalues.copy()
    lams[0] = 0.0
    phi = modes.eigenfunctions
    coeffs = g.h * (phi @ state0.density)
    weights = np.abs(coeffs) * (g.h * (np.abs(phi) @ disc.pi))
    return lams, phi, coeffs, weights, disc.pi


def _drop_tol(state0):
    return spectral._DROP_TOL * state0.grid.h * np.sum(np.abs(state0.density))


class TestModeTruncation:
    """evolve_fpe sums only the modes that can still move the density; every
    distance and the final density stay within the stated L1 bound of the
    untruncated sum over all n modes."""

    @staticmethod
    def _starts(name):
        dist = {"dome": Beta(1.0, 1.0), "ou": Normal(0.0, 1.0),
                "gamma": Gamma(1.0)}[name.split("-")[0]]
        proc = synthesize(dist)
        g = default_grid(proc, 400)
        mom = proc.moments
        sd = math.sqrt(mom.variance)
        if name.endswith("spike"):
            p0 = np.zeros(g.n)
            p0[g.n // 2] = 1.0 / g.h
        elif name.endswith("pi"):
            p0 = proc.source._pdf(g.points)
            p0 = p0 / (np.sum(p0) * g.h)
        else:
            p0 = gaussian_bump(g, mom.m1 + sd, 0.5 * sd)
        return proc, EvolutionState(grid=g, density=p0)

    @pytest.mark.parametrize("name", [
        "dome", "ou", "gamma", "dome-spike", "ou-spike", "gamma-spike",
        "dome-pi", "ou-pi", "gamma-pi"])
    def test_within_the_bound_of_the_full_sum(self, name):
        proc, state0 = self._starts(name)
        g = state0.grid
        h = g.h
        tau = 1.0 / proc.lambda1
        state, times, dists = evolve_fpe(proc, state0, 8.0 * tau, 1e-2 * tau)
        assert times.size == 801  # blocks of 8, 16, ..., 256, 256, ...

        lams, phi, coeffs, weights, pi = _full_modes(proc, state0)
        decay = np.exp(-np.outer(lams, times - times[0]))
        p_ref = pi[:, None] * (phi.T @ (coeffs[:, None] * decay))
        target = pi * (np.sum(state0.density) / np.sum(pi))
        d_ref = np.sum(np.abs(p_ref - target[:, None]), axis=0) * h
        # the bound is tol in exact arithmetic. Each sum also rounds, here by
        # at most 0.3 unit roundoffs of its summed L1 weight
        # sum_k w_k e^{-lambda_k t}; allow two
        roundoff = 2 * np.finfo(float).eps * (weights @ decay)
        allow = _drop_tol(state0) + roundoff
        assert np.all(np.abs(dists - d_ref) <= allow)
        assert np.sum(np.abs(state.density - p_ref[:, -1])) * h <= allow[-1]

    def test_a_spike_keeps_nearly_all_modes(self):
        """A one-cell start has coefficients that do not decay with k."""
        proc, state0 = self._starts("dome-spike")
        lams, _, _, weights, _ = _full_modes(proc, state0)
        kept = spectral._modes_kept(weights, lams, 0.0, _drop_tol(state0))
        assert kept >= 0.95 * state0.grid.n

    def test_kept_prefix_is_minimal_and_bounds_its_tail(self):
        """On the dome at n = 400 the dropped tail's weight is at most tol
        at t and every later time, the next shorter prefix would break that,
        and the count falls with t to at most 50 once t >= 1 / lambda1."""
        proc, state0 = self._starts("dome")
        g = state0.grid
        lams, phi, coeffs, weights, pi = _full_modes(proc, state0)
        tol = _drop_tol(state0)
        ts = np.linspace(0.0, 8.0, 161) / proc.lambda1
        counts = [spectral._modes_kept(weights, lams, t, tol) for t in ts]
        assert np.all(np.diff(counts) <= 0)
        assert counts[0] > 300
        assert max(c for c, t in zip(counts, ts)
                   if t >= 1.0 / proc.lambda1) <= 50
        for m, t in zip(counts, ts):
            tail = np.exp(-np.outer(ts[ts >= t], lams[m:])) @ weights[m:]
            assert np.all(np.diff(tail) <= 0) and tail[0] <= tol
            assert m == 1 or weights[m - 1:] @ np.exp(-lams[m - 1:] * t) > tol
            # and it bounds the L1 norm of the density the tail carries
            p_tail = pi * ((coeffs[m:] * np.exp(-lams[m:] * t)) @ phi[m:])
            assert np.sum(np.abs(p_tail)) * g.h <= tol


class TestFitDecayRate:
    def test_window_filters_head_and_floor(self):
        t = np.linspace(0.0, 10.0, 400)
        d = 3.0 * np.exp(-2.0 * t)
        est = fit_decay_rate(t, d, floor=1e-6, frac=0.1)
        assert abs(est.rate - 2.0) < 1e-9
        assert est.fit_window[0] > 0.0  # the head d > 0.1 d0 is excluded

    def test_too_few_points_in_window(self):
        t = np.linspace(0.0, 1.0, 10)
        d = np.exp(-0.01 * t)  # never decays into the window
        with pytest.raises(ValueError):
            fit_decay_rate(t, d)


class TestCsvWriters:
    def test_decay_csv(self, tmp_path):
        p = tmp_path / "decay.csv"
        write_decay_csv(str(p), [0.0, 0.1], [1.0, 0.5])
        lines = p.read_text().splitlines()
        assert lines[0] == "t,d"
        assert len(lines) == 3
        assert float(lines[2].split(",")[1]) == 0.5

    def test_spectrum_csv(self, tmp_path):
        p = tmp_path / "spec.csv"
        write_spectrum_csv(str(p), [0.0, 4.0, 10.0])
        lines = p.read_text().splitlines()
        assert lines[0] == "n,lambda"
        assert lines[1].startswith("0,")
        assert float(lines[2].split(",")[1]) == 4.0

    AWKWARD = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308,
               -1.7976931348623157e308, math.nan, math.inf, -math.inf,
               0.1, 1.0 / 3.0, -2.5e-17]

    def test_bytes_match_the_row_format(self, tmp_path):
        """Rows formatted from Python numbers are the bytes the per-row
        format of numpy scalars wrote."""
        vals = np.array(self.AWKWARD)
        times = vals[::-1].copy()
        write_decay_csv(str(tmp_path / "decay.csv"), times, vals)
        rows = "".join("%.17g,%.17g\n" % (t, d) for t, d in zip(times, vals))
        assert ((tmp_path / "decay.csv").read_bytes()
                == ("t,d\n" + rows).encode())
        write_spectrum_csv(str(tmp_path / "spec.csv"), vals)
        rows = "".join("%d,%.17g\n" % (i, lam) for i, lam in enumerate(vals))
        assert ((tmp_path / "spec.csv").read_bytes()
                == ("n,lambda\n" + rows).encode())
