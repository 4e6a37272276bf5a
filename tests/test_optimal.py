"""Tests for the synthesis of the rate-optimal process: the rate formula,
the linear slow mode, the linear drift, the two variance routes, and the
structural identities (detailed balance, zero boundary flux, scaling and
translation behavior, mixture concavity of the relaxation time).
"""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from fastmix import numerics
from fastmix.distributions import (
    Beta,
    CubicPearson,
    Custom,
    FisherSnedecor,
    Gamma,
    Hyperexponential,
    InverseGamma,
    Jacobi,
    Normal,
    StudentCauchy,
    Support,
    mixture,
)
from fastmix.errors import (
    DegenerateDistribution,
    NonConvergence,
    NumericalFailure,
    OutOfSupport,
)
from fastmix.numerics import Grid
from fastmix.optimal import (
    OptimalProcess,
    _QuadratureVariance,
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

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "closed moments travel as raw (m1, m2) and MomentSummary.from_raw "
        "forms the variance m2 - m1^2, which cancels when |m1| >> sd: "
        "Normal(1e5, 0.01) gives lambda1 = 1.0082461538461538"))
    def test_rate_far_from_zero(self):
        """Normal(x0, sd) at its own budget sd^2 relaxes at rate 1
        wherever x0 is."""
        assert synthesize(Normal(1e5, 0.01)).lambda1 == \
            pytest.approx(1.0, rel=1e-12)

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            synthesize(Beta(1.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            synthesize(Beta(1.0, 1.0), -1.0)
        with pytest.raises(ValueError):
            synthesize(Beta(1.0, 1.0), math.inf)

    def test_a_rate_or_drift_that_overflows_is_a_typed_failure(self):
        """A finite budget over a small variance can overflow lambda1 (the
        dome's 0.05), and a finite lambda1 times a large mean the drift's
        a0; synthesize refuses both."""
        with pytest.raises(NumericalFailure, match="overflows"):
            synthesize(Beta(1.0, 1.0), 1e307)
        with pytest.raises(NumericalFailure, match="overflows"):
            synthesize(Normal(1e6, 1.0), 1e303)
        assert synthesize(Normal(0.0, 1.0), 1e307).lambda1 == 1e307

    def test_a_residual_that_overflows_is_a_typed_failure(self):
        """On the Normal at lambda1 = 1e308 the drift at the grid's ends
        overflows: the residual raises, and numpy does not warn."""
        proc = synthesize(Normal(0.0, 1.0), 1e308)
        grid = Grid.uniform(-8.0, 8.0, 101)
        with np.errstate(all="raise"):
            with pytest.raises(NumericalFailure, match="overflows"):
                verify_detailed_balance(proc, grid)


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


def _normal_mixture_errors(parts, lo, hi):
    """The relative error of the quadrature route's sigma^2/2 for the
    mixture of w N(mu, sd) over parts (w, mu, sd), and the density, at 799
    points inside its truncated support and 401 on [lo, hi]. The closed V
    is sum_i w_i [(m1 - mu_i) Phi(t_i) + s_i phi(t_i)], t_i = (x - mu_i)/s_i,
    written from the right above m1."""
    spec = mixture([Normal(mu, sd) for _, mu, sd in parts],
                   [w for w, _, _ in parts])
    proc = synthesize(spec, variance_mode="quadrature")
    m1 = proc.moments.m1
    x = np.concatenate([np.linspace(*spec.truncated_support(), 801)[1:-1],
                        np.linspace(lo, hi, 401)])
    v = sum(w * (np.where(x <= m1, (m1 - mu) * ndtr((x - mu) / sd),
                          (mu - m1) * ndtr((mu - x) / sd))
                 + sd * np.exp(-0.5 * ((x - mu) / sd) ** 2)
                 / math.sqrt(2.0 * math.pi))
            for w, mu, sd in parts)
    pi = spec.pdf(x)
    return np.abs(np.asarray(proc.variance_fn(x))
                  / (proc.lambda1 * v / pi) - 1.0), pi


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
        # vanishing ends away from 0, where the graded end cell is a few
        # ulps wide
        pytest.param(Beta(1.5, 1.5), "support", id="Beta(1.5,1.5)"),
        pytest.param(Jacobi(1.5, 1.5), "support", id="Jacobi(1.5,1.5)"),
        pytest.param(Jacobi(0.3, 2.0), "support", id="Jacobi(0.3,2)"),
        pytest.param(Jacobi(3.0, 1.0), "support", id="Jacobi(3,1)"),
        pytest.param(Beta(3.0, 0.2), "support", id="Beta(3,0.2)"),
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
        # the table's cell bound holds both well inside those gates
        assert np.max(rel[bulk]) <= 1e-10
        assert np.max(rel[~bulk], initial=0.0) <= 3e-10

    @pytest.mark.parametrize("spec", [
        Beta(1.5, 1.5), Jacobi(1.5, 1.5), Jacobi(0.3, 2.0),
        mixture([Jacobi(1.0, 3.0), Jacobi(3.0, 1.0)], [0.4, 0.6]),
    ], ids=["Beta(1.5,1.5)", "Jacobi(1.5,1.5)", "Jacobi(0.3,2)",
            "Jacobi-mixture"])
    def test_end_cells_converge_at_the_table_scale(self, spec, monkeypatch):
        """Each finite end's graded cell takes at most 2 Kronrod panels.
        Held to a tolerance relative to its own value, the cell at an end
        away from 0, a few ulps wide, took 75 to 277 panels chasing the
        rounding of b - u*u."""
        proc = synthesize(spec, variance_mode="quadrature")
        spent = []
        integrate_ = numerics.integrate

        def counted(*args, **kwargs):
            r = integrate_(*args, **kwargs)
            spent.append(r.evaluations)
            return r

        monkeypatch.setattr(numerics, "integrate", counted)
        table = proc.variance_fn.table
        assert len(spent) == 2
        assert max(spent) <= 2 * 15
        assert table.cells == table.edges.size - 1
        # one panel per cell, and two more per halved cell
        assert table.evaluations == \
            15 * (table.cells + table.splits) + sum(spent)

    @pytest.mark.parametrize("spec,where", [
        (Jacobi(-0.5, -0.5), "2.10734e-08"), (Beta(0.5, -0.5), "1.49012e-08"),
    ], ids=lambda v: getattr(v, "kind", v))
    def test_a_pole_at_an_end_away_from_0_is_a_typed_failure(self, spec,
                                                              where):
        """b - u*u rounds onto the pole, so the end cell sees inf; the table
        scale must not turn that into a non-finite sigma^2/2."""
        proc = synthesize(spec, variance_mode="quadrature")
        with pytest.raises(NumericalFailure,
                           match=r"non-finite values on \(0, %s\)" % where):
            proc.variance_fn(0.5)

    def test_non_finite_cells_are_a_typed_failure(self, monkeypatch):
        """A table with a non-finite value of (m1 - z) pi outside its end
        cells is not built."""
        spec = mixture([Beta(2.0, 5.0), Beta(5.0, 2.0)], [0.4, 0.6])
        proc = synthesize(spec, variance_mode="quadrature")
        pdf = spec._pdf
        monkeypatch.setattr(spec, "_pdf", lambda x: np.where(
            (x > 0.1) & (x < 0.2), np.inf, pdf(x)))
        with pytest.raises(NumericalFailure, match="non-finite values"):
            proc.variance_fn(0.5)

    @pytest.mark.parametrize("spec", [
        Beta(2.0, 3.0), Jacobi(0.3, 2.0), Gamma(2.0), Normal(0.0, 1.0),
        StudentCauchy(3.0), InverseGamma(3.0), FisherSnedecor(5.0, 12.0),
        Hyperexponential(0.5, 0.5, 1.0, 2.0), CubicPearson(2.0, 3.0, -0.5),
    ], ids=lambda v: v.kind)
    def test_a_table_costs_a_quarter_of_4096_cells(self, spec):
        """Cells are halved only where K15 and G7 disagree: every closed
        family's table spends at most a quarter of the 15 * 4096
        evaluations of 4096 uniform cells."""
        table = synthesize(spec, variance_mode="quadrature").variance_fn.table
        assert table.evaluations <= 15 * 4096 // 4

    def test_a_narrow_component_is_resolved(self):
        """0.3 N(0.5, 1e-4) on 0.7 N(0, 1). 0.5 is an edge of the start
        cells, where the Kronrod nodes crowd: the nearest lie about 5 sd
        from it, so K15 and G7 disagree there and the cells around it are
        halved until it is resolved. 4096 fixed cells, never checked, put
        sigma^2/2 off by up to 1.7e-2."""
        rel, _ = _normal_mixture_errors(((0.7, 0.0, 1.0), (0.3, 0.5, 1e-4)),
                                        0.4, 0.6)
        assert np.max(rel) <= 1e-10

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 2: no start edge at a mixture's narrow component; "
        "sigma^2/2 is off by up to 0.14 within 5e-4 of 0.4937, and by up "
        "to 0.32 across the support"))
    def test_a_narrow_component_off_the_start_edges_is_resolved(self):
        """As above with the component at 0.4937: no Kronrod node of the
        start cells sees it, so nothing halves the cells around it."""
        mu = 0.4937
        rel, _ = _normal_mixture_errors(((0.7, 0.0, 1.0), (0.3, mu, 1e-4)),
                                        mu - 5e-4, mu + 5e-4)
        assert np.max(rel) <= 1e-10

    @pytest.mark.parametrize("weight,mu", [(1e-9, 6.0), (1e-11, 7.0)])
    def test_a_faint_far_component_is_resolved(self, weight, mu):
        """A component of N(mu, 1e-2) with a tiny weight, far out in the
        tail of N(0, 1): the table's target is set on the whole table, yet
        sigma^2/2 there, where that component is all of V's change, keeps
        the gates of test_closed_and_quadrature_agree against the closed V
        of the mixture."""
        rel, pi = _normal_mixture_errors(
            ((1.0 - weight, 0.0, 1.0), (weight, mu, 1e-2)),
            mu - 0.08, mu + 0.08)
        bulk = pi > 1e-8 * np.max(pi)
        assert np.max(rel[bulk]) <= 1e-10
        assert np.max(rel[~bulk], initial=0.0) <= 3e-10

    @pytest.mark.parametrize("spec", [
        Beta(1.5, 1.5), Jacobi(0.3, 2.0), Gamma(-0.5),
    ], ids=lambda v: v.kind)
    def test_graded_end_cells_are_never_split(self, spec):
        """A finite end keeps GRADING halvings of the first of GRADED_SPAN
        uniform cells: split further, b - u*u would round onto a few
        floats."""
        table = synthesize(spec, variance_mode="quadrature").variance_fn.table
        span, n = _QuadratureVariance.GRADED_SPAN, _QuadratureVariance.GRADING
        a, b = table.edges[0], table.edges[-1]
        step = (b - a) / span
        grading = 0.5 ** np.arange(n, -1, -1)
        np.testing.assert_array_equal(table.edges[1:n + 2], a + step * grading)
        if b == spec.support.upper:
            np.testing.assert_array_equal(
                table.edges[-n - 2:-1],
                b - (b - (a + (span - 1) * step)) * grading[::-1])

    @pytest.mark.parametrize("spec", [
        Jacobi(-0.5, -0.5), Beta(0.5, -0.5),
    ], ids=["Jacobi(-0.5,-0.5)", "Beta(0.5,-0.5)"])
    def test_graded_cells_beside_a_pole_are_never_split(self, spec,
                                                        monkeypatch):
        """Beside a pole at an end away from 0, the graded cells are a few
        ulps wide and K15 - G7 there is the rounding of their nodes, which
        halving does not reduce: refined, they were cut into ulp cells by
        the hundred. The end cells, which see the pole, are left out."""
        proc = synthesize(spec, variance_mode="quadrature")
        monkeypatch.setattr(numerics, "integrate", lambda *args, **kwargs:
                            numerics.QuadratureResult(0.0, 0.0, 0))
        table = proc.variance_fn.table
        span, n = _QuadratureVariance.GRADED_SPAN, _QuadratureVariance.GRADING
        a, b = table.edges[0], table.edges[-1]
        step = (b - a) / span
        grading = 0.5 ** np.arange(n, -1, -1)
        np.testing.assert_array_equal(table.edges[1:n + 2], a + step * grading)
        np.testing.assert_array_equal(
            table.edges[-n - 2:-1],
            b - (b - (a + (span - 1) * step)) * grading[::-1])
        assert table.splits <= 16

    def test_a_jump_is_halved_down_to_resolution(self):
        """K15 and G7 never agree on a cell that holds a jump of the pdf: it
        is halved until its error estimate is below its share of the
        table's, or it is too narrow to halve. V of the step density is
        exact."""
        c1, c2 = 0.5, 0.85 / 0.7
        spec = Custom(lambda x: np.where(np.asarray(x) < 0.3, c1, c2),
                      (0.0, 1.0))
        proc = synthesize(spec, 0.1)
        m1 = proc.moments.m1
        x = np.linspace(0.01, 0.95, 95)
        v = np.where(x < 0.3, c1 * (m1 * x - x ** 2 / 2),
                     c1 * (0.3 * m1 - 0.045)
                     + c2 * (m1 * (x - 0.3) - (x ** 2 - 0.09) / 2))
        np.testing.assert_allclose(proc.variance_fn(x),
                                   proc.lambda1 * v / spec.pdf(x), rtol=1e-10)

    def test_a_table_that_keeps_halving_is_an_error(self, monkeypatch):
        """A density whose cells never settle exhausts the cell budget
        rather than give an inexact table."""
        spec = Normal(0.0, 1.0)
        proc = synthesize(spec, variance_mode="quadrature")
        pdf = spec._pdf
        monkeypatch.setattr(spec, "_pdf", lambda x: pdf(x) * (
            1.0 + 0.5 * np.sin(1e9 * np.asarray(x))))
        with pytest.raises(NonConvergence, match="above tolerance"):
            proc.variance_fn(0.5)

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
