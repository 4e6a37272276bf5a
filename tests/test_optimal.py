"""Tests for the synthesis of the rate-optimal process: the rate formula,
the linear slow mode, the linear drift, the two variance routes, and the
structural identities (detailed balance, zero boundary flux, scaling and
translation behavior, mixture concavity of the relaxation time).
"""

import math

import numpy as np
import pytest
from scipy import integrate

from fastmix.distributions import (
    Beta,
    Custom,
    FisherSnedecor,
    Gamma,
    Hyperexponential,
    InverseGamma,
    Normal,
    StudentCauchy,
    Support,
    mixture,
)
from fastmix.errors import DegenerateDistribution, OutOfSupport
from fastmix.numerics import Grid
from fastmix.optimal import (
    OptimalProcess,
    check_variance_mean,
    check_variance_positivity,
    mixture_tau_concavity,
    phi1_from_moments,
    synthesize,
    variance_at,
    verify_detailed_balance,
)

SWEEP = [
    (Beta(1.0, 2.0), 0.2),
    (Beta(0.0, 0.0), 0.5),
    (Gamma(1.0), 2.0),
    (Normal(0.0, 1.0), 1.0),
    (StudentCauchy(3.0), 1.25),
    (Hyperexponential(0.5, 0.5, 1.0, 2.0), 0.6875),
]


class TestRateFormula:
    @pytest.mark.parametrize("spec,shalf", SWEEP, ids=lambda v: str(v))
    def test_lambda1_is_budget_over_variance(self, spec, shalf):
        proc = synthesize(spec, shalf)
        var = spec.moments().variance
        assert abs(proc.lambda1 - shalf / var) <= 1e-12 * proc.lambda1
        assert abs(proc.tau * proc.lambda1 - 1.0) <= 1e-14

    def test_frozen_rates(self):
        # Beta(1,2): shalf 0.2, var 0.04 -> lambda1 = 5
        assert abs(synthesize(Beta(1.0, 2.0)).lambda1 - 5.0) < 1e-12
        # Gamma(1): shalf 2, var 2 -> 1
        assert abs(synthesize(Gamma(1.0)).lambda1 - 1.0) < 1e-12
        # budget 0.4 on the flat density: 0.4 / (1/12) = 4.8
        assert abs(synthesize(Beta(0.0, 0.0), 0.4).lambda1 - 4.8) < 1e-12

    def test_scaling_law(self):
        """Scaling the budget by k scales lambda1 and sigma^2/2 by exactly k
        and leaves the slow mode untouched."""
        base = synthesize(Beta(1.0, 2.0), 0.2)
        for k in (0.5, 2.0, 7.25):
            scaled = synthesize(Beta(1.0, 2.0), 0.2 * k)
            assert abs(scaled.lambda1 - k * base.lambda1) < 1e-12 * k
            assert scaled.phi1 == base.phi1
            x = np.linspace(0.05, 0.95, 17)
            np.testing.assert_allclose(scaled.variance_fn(x),
                                       k * np.asarray(base.variance_fn(x)),
                                       rtol=1e-13)

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            synthesize(Beta(1.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            synthesize(Beta(1.0, 1.0), -1.0)
        with pytest.raises(ValueError):
            synthesize(Beta(1.0, 1.0), math.inf)


class TestSlowMode:
    @pytest.mark.parametrize("spec,shalf", SWEEP, ids=lambda v: str(v))
    def test_standardized_under_pi(self, spec, shalf):
        proc = synthesize(spec, shalf)
        mean = spec._integral(lambda x: proc.phi1_at(x))
        norm = spec._integral(lambda x: proc.phi1_at(x) ** 2)
        assert abs(mean) <= 1e-8
        assert abs(norm - 1.0) <= 1e-8

    def test_zero_at_the_mean(self):
        proc = synthesize(Beta(1.0, 2.0))
        assert abs(proc.phi1_at(proc.moments.m1)) < 1e-14

    def test_degenerate_moments(self):
        with pytest.raises(DegenerateDistribution):
            phi1_from_moments(1.0, 1.0)


class TestDrift:
    @pytest.mark.parametrize("spec,shalf", SWEEP, ids=lambda v: str(v))
    def test_linear_restoring_form(self, spec, shalf):
        proc = synthesize(spec, shalf)
        mom = spec.moments()
        x = np.linspace(*spec.truncated_support(), 13)
        np.testing.assert_allclose(proc.drift_at(x),
                                   proc.lambda1 * (mom.m1 - x),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("spec,shalf", SWEEP, ids=lambda v: str(v))
    def test_mean_drift_vanishes(self, spec, shalf):
        proc = synthesize(spec, shalf)
        mean_mu = spec._integral(lambda x: proc.drift_at(x))
        assert abs(mean_mu) <= 1e-8 * proc.lambda1

    def test_drift_is_minus_lambda_times_centered_x(self):
        proc = synthesize(Gamma(1.0), 2.0)
        # mu(x) = 1 * (2 - x)
        assert abs(proc.drift_at(0.0) - 2.0) < 1e-13
        assert abs(proc.drift_at(5.0) + 3.0) < 1e-13


def _exact_table_v(spec, m1, x):
    """V(x) of a PCHIP table from the near side, by 4-point Gauss-Legendre
    on each knot interval: (m1 - z) pi(z) is a quartic there, so exact."""
    knots = np.asarray((spec.support.lower,) + spec.breakpoints()
                       + (spec.support.upper,))
    t, w = np.polynomial.legendre.leggauss(4)
    out = []
    for xi in x:
        if xi <= m1:
            lo, hi, sign = knots[:-1], np.minimum(knots[1:], xi), 1.0
        else:
            lo, hi, sign = np.maximum(knots[:-1], xi), knots[1:], -1.0
        keep = hi > lo
        lo, hi = lo[keep, None], hi[keep, None]
        z = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t
        out.append(sign * np.sum(0.5 * (hi - lo) * w * (m1 - z)
                                 * spec.pdf(z)))
    return np.array(out)


class TestVarianceRoutes:
    @pytest.mark.parametrize("spec,window", [
        (Beta(1.0, 2.0), (0.02, 0.98)),
        (Gamma(1.0), (0.05, 12.0)),
        (Normal(0.0, 1.0), (-6.0, 6.0)),
        (Hyperexponential(0.5, 0.5, 1.0, 2.0), (0.05, 20.0)),
        # a root at a finite end, roots at both, heavy and essential tails
        (Gamma(0.5), "support"),
        (Beta(0.5, 0.7), "support"),
        (StudentCauchy(3.0), "support"),
        (InverseGamma(3.0), "support"),
        (FisherSnedecor(5.0, 12.0), "support"),
    ], ids=lambda v: getattr(v, "kind", str(v)))
    def test_closed_and_quadrature_agree(self, spec, window):
        closed = synthesize(spec, variance_mode="closed")
        quad = synthesize(spec, variance_mode="quadrature")
        if window != "support":
            x = np.linspace(window[0], window[1], 41)
            vc = np.asarray(closed.variance_fn(x))
            vq = np.asarray(quad.variance_fn(x))
            assert np.max(np.abs(vc - vq)) <= \
                1e-7 * max(1.0, np.max(np.abs(vc)))
        # relative agreement over the whole truncated support, down to 1e-6
        # of its width from each end (nearer an end at 1, the rounding of a
        # node's distance to it exceeds the gate)
        a, b = spec.truncated_support()
        near = (b - a) * np.geomspace(1e-6, 1e-2, 25)
        x = np.concatenate([np.linspace(a, b, 801)[1:-1], a + near, b - near])
        rel = np.abs(np.asarray(quad.variance_fn(x))
                     / np.asarray(closed.variance_fn(x)) - 1.0)
        pi = spec.pdf(x)
        bulk = pi > 1e-8 * np.max(pi)
        assert np.max(rel[bulk]) <= 1e-9
        assert np.max(rel[~bulk], initial=0.0) <= 1e-7

    def test_table_matches_exact_pchip_integration(self):
        pts = np.linspace(0.0, 4.0, 81)
        spec = Custom.from_table(pts, 0.02 + pts ** 1.5 * np.exp(-2.0 * pts),
                                 rescale=True)
        proc = synthesize(spec, 0.5)
        x = np.concatenate([np.linspace(0.0, 4.0, 399)[1:-1], pts[1:-1],
                            [1e-9, 4.0 - 1e-9]])
        want = (proc.lambda1 * _exact_table_v(spec, proc.moments.m1, x)
                / spec.pdf(x))
        got = np.asarray(proc.variance_fn(x))
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12

    @pytest.mark.parametrize("specs", [
        (Beta(2.0, 5.0), Beta(5.0, 2.0)), (Gamma(1.0), Gamma(4.0)),
    ], ids=lambda v: v[0].kind)
    def test_table_matches_the_pointwise_route(self, specs):
        """Mixtures have no closed shape; scipy's adaptive quadrature of V
        from the near side, one integral per point, is the reference."""
        spec = mixture(specs, [0.4, 0.6])
        proc = synthesize(spec, 0.5)
        m1, sup = proc.moments.m1, spec.support
        x = np.linspace(*spec.truncated_support(), 83)[1:-1]

        def g(z):
            return (m1 - z) * spec.pdf(z)

        def v(t):
            a, b, sign = (sup.lower, t, 1.0) if t <= m1 else \
                (t, sup.upper, -1.0)
            return sign * integrate.quad(g, a, b, epsabs=0.0, epsrel=1e-12,
                                         limit=200)[0]

        want = proc.lambda1 * np.array([v(t) for t in x]) / spec.pdf(x)
        np.testing.assert_allclose(proc.variance_fn(x), want, rtol=1e-9)

    @pytest.mark.parametrize("spec", [
        Normal(0.0, 1e-4), Normal(5.0, 1e-3), Normal(0.0, 1.0),
    ], ids=lambda v: "sd%g" % v.params["sigma"])
    def test_beyond_a_cut_end_matches_the_closed_route(self, spec):
        """Past the table's cut ends V is the tail integral, mapped at the
        density's own length scale: a narrow normal keeps sigma^2/2."""
        a, b = spec.truncated_support()
        off = spec.params["sigma"] * np.array([1e-6, 1e-3, 0.5, 1.0, 2.0, 4.0])
        x = np.concatenate([a - off, b + off])
        x = x[spec.pdf(x) >= 1e-300]
        assert x.size == 2 * off.size
        closed = synthesize(spec, variance_mode="closed")
        by_table = synthesize(spec, variance_mode="quadrature")
        np.testing.assert_allclose(by_table.variance_fn(x),
                                   closed.variance_fn(x), rtol=1e-9)

    @pytest.mark.parametrize("spec", [
        Normal(0.0, 1e-4), Normal(5.0, 1e-3),
    ], ids=lambda v: "sd%g" % v.params["sigma"])
    def test_beyond_a_cut_end_where_v_is_tiny(self, spec):
        """37 sd past the mean pi is about 2e-294 and V about 2e-302: the
        tail integral is held to a relative tolerance alone."""
        x0, sd = spec.params["x0"], spec.params["sigma"]
        x = np.array([x0 - 37.0 * sd, x0 + 37.0 * sd])
        closed = synthesize(spec, variance_mode="closed")
        by_table = synthesize(spec, variance_mode="quadrature")
        np.testing.assert_allclose(by_table.variance_fn(x),
                                   closed.variance_fn(x), rtol=1e-11)

    def test_mean_level_quadrature_with_a_pole(self):
        """x^-1/2 e^-x: the mean of sigma^2/2 takes in the whole tail."""
        proc = synthesize(Gamma(-0.5), variance_mode="quadrature")
        mean = check_variance_mean(proc)
        assert abs(mean / proc.sigma_hat_sq_half - 1.0) <= 1e-9

    @pytest.mark.parametrize("spec", [
        StudentCauchy(2.2), FisherSnedecor(1.5, 9.0),
    ], ids=lambda v: v.kind)
    def test_mean_level_quadrature_takes_in_the_cut_tails(self, spec):
        """Heavy tails: V beyond the table's cut ends counts as well."""
        proc = synthesize(spec, variance_mode="quadrature")
        mean = check_variance_mean(proc)
        assert abs(mean / proc.sigma_hat_sq_half - 1.0) <= 1e-12

    def test_hyperexponential_shape_near_zero(self):
        """The closed shape keeps its digits where V is of size x: it
        matches the table of V from 6.5e-11 to 20."""
        spec = Hyperexponential(0.5, 0.5, 1.0, 2.0)
        closed = synthesize(spec, variance_mode="closed")
        quad = synthesize(spec, variance_mode="quadrature")
        x = np.geomspace(6.5e-11, 20.0, 60)
        rel = np.asarray(closed.variance_fn(x)) / quad.variance_fn(x) - 1.0
        assert np.max(np.abs(rel)) <= 1e-14

    def test_closed_route_required_but_absent(self):
        spec = Custom(lambda x: np.ones_like(np.asarray(x, float)),
                      (0.0, 1.0))
        with pytest.raises(ValueError):
            synthesize(spec, 0.5, variance_mode="closed")

    def test_beta_closed_shape(self):
        # Beta(1,2) at its canonical budget: sigma^2/2 = x(1-x)
        proc = synthesize(Beta(1.0, 2.0))
        x = np.linspace(0.05, 0.95, 19)
        np.testing.assert_allclose(proc.variance_fn(x), x * (1.0 - x),
                                   rtol=1e-12)

    def test_variance_at_endpoint_clamp_and_domain(self):
        proc = synthesize(Beta(1.0, 1.0))
        assert variance_at(proc, 0.0) == variance_at(proc, 1.0) == 0.0
        assert variance_at(proc, 0.5) > 0.1
        with pytest.raises(OutOfSupport):
            variance_at(proc, -0.01)
        with pytest.raises(OutOfSupport):
            variance_at(proc, 1.01)

    def test_positivity_check(self):
        ok, vmin = check_variance_positivity(synthesize(Beta(1.0, 2.0)))
        assert ok and vmin > 0.0

    def test_mean_level_closed(self):
        proc = synthesize(Beta(1.0, 2.0), 0.37)
        assert abs(check_variance_mean(proc) - 0.37) <= 1e-10

    def test_mean_level_quadrature(self):
        spec = Custom(lambda x: 6.0 * np.asarray(x, float)
                      * (1.0 - np.asarray(x, float)), (0.0, 1.0))
        proc = synthesize(spec, 0.37)
        assert abs(check_variance_mean(proc) - 0.37) <= 1e-6


class TestStructuralIdentities:
    def test_detailed_balance_residual_shrinks_quadratically(self):
        proc = synthesize(Beta(2.0, 2.0))
        r1 = verify_detailed_balance(proc, Grid.uniform(0.05, 0.95, 201))
        r2 = verify_detailed_balance(proc, Grid.uniform(0.05, 0.95, 401))
        assert r1 < 1e-3
        assert r2 < r1 / 3.0  # second-order stencil: ratio ~ 4

    def test_detailed_balance_gaussian(self):
        proc = synthesize(Normal(0.0, 1.0))
        resid = verify_detailed_balance(proc, Grid.uniform(-6.0, 6.0, 2001))
        assert resid < 1e-4

    @pytest.mark.parametrize("spec", [Beta(1.0, 2.0), Beta(0.5, 0.5)],
                             ids=lambda s: str(s.params))
    def test_boundary_flux_vanishes(self, spec):
        """(sigma^2/2) pi -> 0 at both finite endpoints."""
        proc = synthesize(spec)
        interior = float(proc.variance_fn(0.5) * spec.pdf(0.5))
        for x in (1e-6, 1.0 - 1e-6):
            flux = float(proc.variance_fn(x) * spec.pdf(x))
            assert flux < 1e-3 * interior

    def test_translation_equivariance(self):
        """Shifting the density shifts drift and slow mode, keeps lambda1."""
        f = lambda y: 6.0 * y * (1.0 - y)
        base = Custom(lambda x: f(np.asarray(x, float)), (0.0, 1.0))
        shift = Custom(lambda x: f(np.asarray(x, float) - 3.0), (3.0, 4.0))
        pb = synthesize(base, 0.25)
        ps = synthesize(shift, 0.25)
        assert abs(pb.lambda1 - ps.lambda1) <= 1e-9 * pb.lambda1
        x = np.linspace(0.1, 0.9, 9)
        np.testing.assert_allclose(ps.drift_at(x + 3.0), pb.drift_at(x),
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(np.asarray(ps.variance_fn(x + 3.0)),
                                   np.asarray(pb.variance_fn(x)),
                                   rtol=0, atol=1e-9)


class TestRandomTargets:
    """Synthesis on arbitrary smooth densities: the variance stays positive,
    averages to the requested budget, and the rate follows the formula."""

    @staticmethod
    def _random_density(rng):
        pts = np.linspace(0.0, 1.0, 513)
        coef = rng.uniform(-1.0, 1.0, 4)
        logp = (coef[0] * pts + coef[1] * pts ** 2
                + coef[2] * np.sin(2.0 * math.pi * pts)
                + coef[3] * np.cos(4.0 * math.pi * pts))
        return Custom.from_table(pts, np.exp(logp), rescale=True)

    def test_seeded_sweep(self):
        rng = np.random.default_rng(31415)
        shalf = 0.37
        for _ in range(5):
            spec = self._random_density(rng)
            proc = synthesize(spec, shalf)
            assert abs(proc.lambda1 * spec.moments().variance
                       - shalf) <= 1e-12 * shalf
            ok, vmin = check_variance_positivity(proc, n_points=48)
            assert ok and vmin > 0.0
            assert abs(check_variance_mean(proc) - shalf) <= 1e-6


class TestMixtureConcavity:
    def test_two_exponentials_frozen_values(self):
        """Exponential rates 1 and 2, equal weights, budget 1: the mixture
        relaxes in 0.6875 while the weighted component average is 0.625."""
        e1 = Hyperexponential(1.0, 0.0, 1.0, 2.0)   # plain Exp(1)
        e2 = Hyperexponential(0.0, 1.0, 1.0, 2.0)   # plain Exp(2)
        tau_mix, tau_avg = mixture_tau_concavity([e1, e2], [0.5, 0.5], 1.0)
        assert abs(tau_mix - 0.6875) < 1e-12
        assert abs(tau_avg - 0.625) < 1e-12
        assert tau_mix > tau_avg

    def test_equality_iff_means_coincide(self):
        same = mixture_tau_concavity([Beta(1.0, 1.0), Beta(2.0, 2.0)],
                                     [0.5, 0.5], 0.3)
        assert abs(same[0] - same[1]) < 1e-12
        diff = mixture_tau_concavity([Beta(1.0, 2.0), Beta(2.0, 1.0)],
                                     [0.5, 0.5], 0.3)
        assert diff[0] > diff[1] + 1e-6

    def test_single_component_degenerates_to_equality(self):
        t = mixture_tau_concavity([Beta(1.0, 2.0)], [1.0], 0.2)
        assert abs(t[0] - t[1]) < 1e-14

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            mixture_tau_concavity([Beta(1.0, 1.0), Beta(2.0, 2.0)],
                                  [0.5, 0.5], 0.0)
