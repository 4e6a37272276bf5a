"""Tests for the numerics layer: quadrature, tridiagonal eigenpairs,
hypergeometric series, exponential-decay fitting, and grid utilities.

Every expected value is either exact (polynomial / known antiderivative) or
derived by hand and frozen as a literal.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.special

from fastmix import default_grid, discretize_generator, numerics, synthesize
from fastmix.distributions import Beta, Gamma, Jacobi, Normal
from fastmix.errors import (
    ConvergenceFailure,
    FastmixError,
    InvalidInterval,
    NonConvergence,
    NonPositiveValues,
    NumericalFailure,
    PoleAtC,
    SeriesDivergence,
)
from fastmix.numerics import (
    Grid,
    GridFunction,
    QuadratureResult,
    RateEstimate,
    chebyshev_points,
    fit_exponential_decay,
    hyp1f1,
    hyp2f1,
    integrate,
    moment_window,
    tridiag_eigs,
    truncated_interval,
    write_csv,
)


class TestIntegrate:
    def test_polynomial_exact(self):
        """int_0^1 6x(1-x) dx = 1, a degree-2 polynomial one panel nails."""
        res = integrate(lambda x: 6.0 * x * (1.0 - x), 0.0, 1.0)
        assert abs(res.value - 1.0) < 1e-13
        assert res.abs_error_estimate < 1e-10
        assert res.evaluations % 15 == 0

    def test_exponential_moment(self):
        # int_0^2 x e^-x dx = 1 - 3 e^-2
        res = integrate(lambda x: x * np.exp(-x), 0.0, 2.0)
        assert abs(res.value - 0.5939941502901619) < 1e-13

    def test_error_estimate_covers_true_error(self):
        res = integrate(lambda x: np.cos(7.0 * x), 0.0, 3.0)
        truth = math.sin(21.0) / 7.0
        assert abs(res.value - truth) <= max(5e-14, 10.0 * res.abs_error_estimate)

    def test_vectorized_calls(self):
        """The integrand receives arrays, one value per node."""
        seen = []

        def f(x):
            seen.append(np.asarray(x).shape)
            return np.exp(-x)

        integrate(f, 0.0, 1.0)
        assert all(len(s) == 1 and s[0] >= 15 for s in seen)

    def test_left_singularity(self):
        # int_0^1 x^(-1/2) dx = 2
        res = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0,
                        singular_left=True)
        assert abs(res.value - 2.0) < 1e-10

    def test_right_singularity(self):
        # int_0^1 (1-x)^(-1/2) dx = 2
        res = integrate(lambda x: 1.0 / np.sqrt(1.0 - x), 0.0, 1.0,
                        singular_right=True)
        assert abs(res.value - 2.0) < 1e-10

    def test_both_singularities(self):
        # int_0^1 dx / sqrt(x(1-x)) = pi
        res = integrate(lambda x: 1.0 / np.sqrt(x * (1.0 - x)), 0.0, 1.0,
                        singular_left=True, singular_right=True)
        assert abs(res.value - math.pi) < 1e-10

    def test_linearity_within_reported_error(self):
        f = lambda x: np.exp(-x * x)
        g = lambda x: np.cos(5.0 * x)
        rf = integrate(f, 0.0, 3.0)
        rg = integrate(g, 0.0, 3.0)
        rfg = integrate(lambda x: f(x) + g(x), 0.0, 3.0)
        budget = rf.abs_error_estimate + rg.abs_error_estimate \
            + rfg.abs_error_estimate + 5e-15
        assert abs(rfg.value - rf.value - rg.value) <= budget

    def test_relative_tolerance_drives_large_magnitudes(self):
        big = 1e6
        res = integrate(lambda x: big * np.exp(x), 0.0, 1.0,
                        tol=0.0, rel_tol=1e-12)
        truth = big * (math.e - 1.0)
        assert abs(res.value - truth) / truth < 1e-11

    def test_invalid_interval(self):
        for a, b in [(1.0, 1.0), (2.0, 1.0), (-math.inf, math.inf),
                     (-math.inf, -math.inf), (math.nan, 1.0)]:
            with pytest.raises(InvalidInterval):
                integrate(lambda x: x, a, b)

    def test_singular_flags_need_a_finite_interval(self):
        with pytest.raises(InvalidInterval):
            integrate(lambda x: np.exp(-x), 0.0, math.inf, singular_left=True)
        with pytest.raises(InvalidInterval):
            integrate(lambda x: np.exp(x), -math.inf, 0.0, singular_right=True)

    def test_infinite_upper_end(self):
        res = integrate(lambda x: np.exp(-x), 0.0, math.inf)
        assert abs(res.value - 1.0) < 1e-12

    def test_infinite_lower_end(self):
        res = integrate(lambda x: 1.0 / (1.0 + x * x), -math.inf, 0.0)
        assert abs(res.value - 0.5 * math.pi) < 1e-10

    def test_infinite_end_is_the_mapped_call(self):
        """integrate(f, c, inf) is the hand-written map x = c + t/(1-t) on
        [0, 1), bit for bit."""
        f = lambda x: x * x * np.exp(-0.5 * x)
        c = 0.75
        direct = integrate(f, c, math.inf)
        mapped = integrate(lambda t: f(c + t / (1 - t)) / (1 - t) ** 2,
                           0, 1)
        assert direct == mapped

    def test_scaled_map_finds_a_narrow_tail(self):
        """The tail of a normal with sd 1e-4 past one sd holds 15.9% of the
        mass; a unit-length map steps over it, one scaled to the sd does
        not."""
        sd = 1e-4
        f = lambda x: (np.exp(-0.5 * (x / sd) ** 2)
                       / (sd * math.sqrt(2.0 * math.pi)))
        truth = 0.5 * math.erfc(1.0 / math.sqrt(2.0))
        assert integrate(f, sd, math.inf, tol=1e-13).value < 0.1
        res = integrate(f, sd, math.inf, tol=1e-13, scale=sd)
        assert abs(res.value - truth) < 1e-12
        res = integrate(f, -math.inf, -sd, tol=1e-13, scale=sd)
        assert abs(res.value - truth) < 1e-12

    def test_breakpoints_start_one_panel_per_piece(self):
        """|x - 1/3| has a kink that no bisection point hits: split there,
        each piece is a polynomial and the first panels are exact."""
        f = lambda x: np.abs(x - 1.0 / 3.0)
        truth = 0.5 * ((1.0 / 3.0) ** 2 + (2.0 / 3.0) ** 2)
        res = integrate(f, 0.0, 1.0, tol=1e-15, rel_tol=1e-14,
                        points=[1.0 / 3.0, 5.0])
        assert abs(res.value - truth) < 1e-15
        assert res.evaluations == 2 * 15
        plain = integrate(f, 0.0, 1.0, tol=1e-15, rel_tol=1e-14)
        assert plain.evaluations > 10 * res.evaluations

    def test_breakpoints_follow_the_endpoint_substitution(self):
        """|x - c| / sqrt(x) under x = u^2 is 2 |u^2 - c|, a polynomial on
        each side of u = sqrt(c): with the kink mapped there, two panels are
        exact. The same holds at the right end with x = 1 - u^2."""
        c = 0.3
        truth = 2.0 * (2.0 / 3.0 * c ** 1.5 + (1.0 / 3.0 - c)
                       + 2.0 / 3.0 * c ** 1.5)
        left = integrate(lambda x: np.abs(x - c) / np.sqrt(x), 0.0, 1.0,
                         tol=1e-15, rel_tol=1e-14, singular_left=True,
                         points=[c])
        right = integrate(lambda x: np.abs(1.0 - c - x) / np.sqrt(1.0 - x),
                          0.0, 1.0, tol=1e-15, rel_tol=1e-14,
                          singular_right=True, points=[1.0 - c])
        for res in (left, right):
            assert abs(res.value - truth) < 1e-14
            assert res.evaluations == 2 * 15

    def test_breakpoints_need_a_finite_interval(self):
        with pytest.raises(InvalidInterval):
            integrate(lambda x: np.exp(-x), 0.0, math.inf, points=[1.0])

    def test_kronrod_panels_are_vectorized_panels(self):
        """One panel per interval; exact on a degree-10 polynomial."""
        lo = np.array([0.0, -1.0, 2.0])
        hi = np.array([1.0, 3.0, 2.5])
        nodes, weights = numerics.kronrod_panels(lo, hi)
        assert nodes.shape == weights.shape == (3, 15)
        got = np.sum(weights * nodes ** 10, axis=1)
        np.testing.assert_allclose(got, (hi ** 11 - lo ** 11) / 11.0,
                                   rtol=1e-14)

    def test_divergent_half_line_is_an_error(self):
        """int_0^inf x dx: the map meets t = 1 on a typed error path, without
        a division warning on the way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FastmixError):
                integrate(lambda x: x, 0.0, math.inf)

    def test_nonconvergence_on_interval_budget(self):
        with pytest.raises(NonConvergence):
            integrate(lambda x: np.sin(1000.0 * x), 0.0, 10.0,
                      tol=1e-14, rel_tol=0.0, max_intervals=4)

    def test_nonfinite_integrand_rejected(self):
        def f(x):
            with np.errstate(divide="ignore"):
                return 1.0 / (x - 0.5)

        with pytest.raises(NumericalFailure):
            integrate(f, 0.0, 1.0)

    def test_result_type(self):
        res = integrate(lambda x: x, 0.0, 1.0)
        assert isinstance(res, QuadratureResult)
        assert res.evaluations > 0


def _values(d, e, k):
    """tridiag_eigs(vectors=False), checking that it returns no vectors."""
    vals, vecs = tridiag_eigs(d, e, k, vectors=False)
    assert vecs is None
    return vals


class TestTridiagEigs:
    def test_three_point_laplacian(self):
        """diag [2,2,2], offdiag [-1,-1] has eigenvalues 2 -+ sqrt(2), 2."""
        vals, _ = tridiag_eigs([2.0, 2.0, 2.0], [-1.0, -1.0], k=3)
        expect = [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]
        np.testing.assert_allclose(vals, expect, rtol=0, atol=1e-13)
        assert np.array_equal(_values([2.0, 2.0, 2.0], [-1.0, -1.0], 3),
                              vals)

    def test_eigenpairs_satisfy_residual_and_ordering(self):
        """The split inputs zero two offdiagonal entries, so the bisection
        splits the matrix into blocks and orders their eigenvalues across
        the blocks."""
        rng = np.random.default_rng(2024)
        for n, split in ((5, False), (40, False), (200, False),
                         (40, True), (200, True)):
            d = rng.uniform(0.5, 3.0, n)
            e = rng.uniform(-1.0, 1.0, n - 1)
            if split:
                e[[n // 3, 2 * n // 3]] = 0.0
            k = min(4, n)
            vals, vecs = tridiag_eigs(d, e, k=k)
            assert vals.shape == (k,) and vecs.shape == (n, k)
            A = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
            assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(k - 1))
            dense = np.linalg.eigvalsh(A)[:k]
            np.testing.assert_allclose(vals, dense, rtol=0,
                                       atol=1e-10 * max(1.0, abs(dense[-1])))
            for lam, vec in zip(vals, vecs.T):
                assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
                resid = A @ vec - lam * vec
                assert np.max(np.abs(resid)) < 1e-10 * max(1.0, abs(lam))
            assert np.array_equal(_values(d, e, k), vals)

    @pytest.mark.parametrize("spec", [Beta(2.0, 3.0), Jacobi(1.0, 1.0),
                                      Normal(0.0, 1.0), Gamma(2.0)],
                             ids=["beta", "jacobi", "normal", "gamma"])
    @pytest.mark.parametrize("n", [2000, 20000])
    def test_values_only_route_matches_the_pairs_route(self, spec, n):
        """Bisection alone gives the eigenvalues the pairs route gives, bit
        for bit, on the generators that `fastmix spectrum` discretizes."""
        proc = synthesize(spec)
        disc = discretize_generator(proc, default_grid(proc, n))
        for k in (2, 5):
            pairs, _ = tridiag_eigs(disc.diag, disc.offdiag, k)
            assert np.array_equal(_values(disc.diag, disc.offdiag, k), pairs)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            tridiag_eigs([], [])
        with pytest.raises(ValueError):
            tridiag_eigs([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            tridiag_eigs([1.0, 2.0], [0.5], k=3)
        with pytest.raises(ValueError):
            tridiag_eigs([1.0, 2.0], [0.5], k=3, vectors=False)

    def test_single_point(self):
        vals, vecs = tridiag_eigs([3.5], [], k=1)
        assert vals[0] == 3.5
        assert vecs.shape == (1, 1) and abs(vecs[0, 0]) == 1.0
        assert np.array_equal(_values([3.5], [], 1), vals)

    def test_all_pairs_agree_with_the_index_route(self):
        """k = n takes the all-pairs driver; it matches k = n - 1. Without
        vectors it still returns that driver's eigenvalues exactly."""
        rng = np.random.default_rng(11)
        d = rng.uniform(0.5, 3.0, 60)
        e = rng.uniform(-1.0, 1.0, 59)
        every, vecs = tridiag_eigs(d, e, k=60)
        some, _ = tridiag_eigs(d, e, k=59)
        np.testing.assert_allclose(every[:59], some, rtol=0, atol=1e-12)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(60), atol=1e-12)
        assert np.array_equal(_values(d, e, 60), every)

    @pytest.mark.parametrize("k, vectors", [(2, True), (2, False),
                                            (5, True), (5, False)],
                             ids=["index-pairs", "index-values",
                                  "all-pairs", "all-values"])
    def test_non_finite_output_raises(self, monkeypatch, k, vectors):
        """A non-finite eigenvalue from LAPACK is a ConvergenceFailure on
        every route."""
        def nan_pairs(d, e, **kw):
            return np.full(5, np.nan), np.ones((5, 5))

        def nan_values(d, e, **kw):
            return np.full(k, np.nan)

        monkeypatch.setattr(numerics.scipy.linalg, "eigh_tridiagonal",
                            nan_pairs)
        monkeypatch.setattr(numerics.scipy.linalg, "eigvalsh_tridiagonal",
                            nan_values)
        with pytest.raises(ConvergenceFailure):
            tridiag_eigs(np.full(5, 2.0), np.full(4, -1.0), k,
                         vectors=vectors)


class TestHyp2f1:
    def test_value_at_origin(self):
        assert hyp2f1(0.3, 1.7, 2.2, 0.0) == 1.0

    def test_binomial_family(self):
        """2F1(a, b; b; z) = (1-z)^-a."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = rng.uniform(-3.0, 3.0)
            b = rng.uniform(0.5, 4.0)
            z = rng.uniform(-0.9, 0.9)
            truth = (1.0 - z) ** (-a)
            assert abs(hyp2f1(a, b, b, z) - truth) <= 1e-12 * abs(truth)

    def test_log_family(self):
        """2F1(1, 1; 2; z) = -ln(1-z)/z."""
        rng = np.random.default_rng(8)
        for _ in range(100):
            z = rng.uniform(-0.9, 0.9)
            if abs(z) < 1e-3:
                continue
            truth = -math.log1p(-z) / z
            assert abs(hyp2f1(1.0, 1.0, 2.0, z) - truth) <= 1e-12 * abs(truth)

    def test_terminating_polynomial_outside_unit_disk(self):
        # 2F1(-3, 2.5; 1.5; 2) = 1 - 10 + 28 - 24 = -5 by direct expansion
        assert abs(hyp2f1(-3.0, 2.5, 1.5, 2.0) - (-5.0)) < 1e-12

    def test_symmetry_in_upper_parameters(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            a = rng.uniform(-2.0, 2.0)
            b = rng.uniform(-2.0, 2.0)
            c = rng.uniform(0.5, 3.0)
            z = rng.uniform(-0.8, 0.8)
            assert hyp2f1(a, b, c, z) == hyp2f1(b, a, c, z)

    def test_divergence_outside_unit_disk(self):
        with pytest.raises(SeriesDivergence):
            hyp2f1(0.5, 0.5, 1.5, 1.0)
        with pytest.raises(SeriesDivergence):
            hyp2f1(0.5, 0.5, 1.5, -1.2)

    def test_pole_at_nonpositive_c(self):
        for c in (0.0, -1.0, -5.0):
            with pytest.raises(PoleAtC):
                hyp2f1(0.5, 0.5, c, 0.3)

    def test_series_budget_is_an_error(self):
        """Near z = 1 the 10000-term budget runs out before the terms
        fall below 1e-15 of the sum: an error, never a truncated sum. Just
        inside the budget the sum is accurate."""
        with pytest.raises(NonConvergence, match="did not converge"):
            hyp2f1(0.5, 0.5, 1.5, 0.999)
        for a, b, c in ((0.5, 0.5, 1.5), (1.0, 1.0, 2.0), (2.5, 0.5, 1.2)):
            truth = scipy.special.hyp2f1(a, b, c, 0.99)
            assert abs(hyp2f1(a, b, c, 0.99) - truth) <= 1e-12 * abs(truth)


class TestHyp1f1:
    def test_exponential(self):
        assert abs(hyp1f1(1.0, 1.0, 1.0) - math.e) < 1e-14

    def test_expm1_family(self):
        # 1F1(1; 2; z) = (e^z - 1)/z
        for z in (0.25, 1.0, -2.0, 5.0):
            truth = math.expm1(z) / z
            assert abs(hyp1f1(1.0, 2.0, z) - truth) <= 1e-13 * abs(truth)

    def test_negative_z_by_kummer_transformation(self):
        # 1F1(1; 2; -40) = (1 - e^-40)/40; the plain series cancels to 0.0145
        assert abs(hyp1f1(1.0, 2.0, -40.0) - 0.025) <= 1e-14
        # scipy.special.hyp1f1(2.5, 3, -60); the plain series gave 2.5e8
        truth = 4.13471648163733e-05
        assert abs(hyp1f1(2.5, 3.0, -60.0) - truth) <= 1e-13 * truth

    def test_terminating_series_is_summed_as_is(self):
        # 1F1(-3; 2; z) = 1 - 3z/2 + z^2/2 - z^3/24, at z = -40
        assert abs(hyp1f1(-3.0, 2.0, -40.0) - 10583.0 / 3.0) <= 1e-12

    def test_overflow_is_an_error(self):
        """e^1000 does not fit a float; the sum used to return inf."""
        with pytest.raises(NumericalFailure):
            hyp1f1(1.0, 2.0, 1000.0)

    def test_pole(self):
        with pytest.raises(PoleAtC):
            hyp1f1(1.0, -2.0, 0.5)

    def test_series_budget_is_an_error(self, monkeypatch):
        """e = 1F1(1; 1; 1) needs about 18 terms; a 5-term budget raises."""
        monkeypatch.setattr(numerics, "_SERIES_BUDGET", 5)
        with pytest.raises(NonConvergence):
            hyp1f1(1.0, 1.0, 1.0)


class TestFitExponentialDecay:
    def test_exact_decay(self):
        t = np.array([0.0, 0.5, 1.0, 1.5])
        est = fit_exponential_decay(t, np.exp(-2.0 * t))
        assert abs(est.rate - 2.0) < 1e-10
        assert est.stderr < 1e-10
        assert est.fit_window == (0.0, 1.5)

    def test_scale_invariance(self):
        t = np.linspace(0.0, 4.0, 9)
        a = fit_exponential_decay(t, np.exp(-0.7 * t))
        b = fit_exponential_decay(t, 3.0 * np.exp(-0.7 * t))
        assert abs(a.rate - 0.7) < 1e-10
        assert abs(b.rate - a.rate) < 1e-12

    def test_noisy_decay_recovers_rate(self):
        rng = np.random.default_rng(1234)
        t = np.linspace(0.0, 3.0, 50)
        v = np.exp(-t) * (1.0 + 0.01 * rng.standard_normal(50))
        est = fit_exponential_decay(t, v)
        assert 0.97 <= est.rate <= 1.03
        assert est.stderr > 0.0

    def test_rejects_nonpositive_values(self):
        t = np.array([0.0, 1.0, 2.0])
        with pytest.raises(NonPositiveValues):
            fit_exponential_decay(t, np.array([1.0, 0.0, 0.1]))
        with pytest.raises(NonPositiveValues):
            fit_exponential_decay(t, np.array([1.0, -0.5, 0.1]))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_exponential_decay([0.0, 1.0], [1.0, 0.5])

    def test_returns_rate_estimate(self):
        t = np.linspace(0.0, 1.0, 5)
        assert isinstance(fit_exponential_decay(t, np.exp(-t)), RateEstimate)


class TestGrid:
    def test_uniform_properties(self):
        g = Grid.uniform(-1.0, 3.0, 9)
        assert (g.a, g.b, g.n) == (-1.0, 3.0, 9)
        assert abs(g.h - 0.5) < 1e-15

    def test_cell_centers_interior(self):
        g = Grid.cell_centers(0.0, 1.0, 4)
        np.testing.assert_allclose(g.points, [0.125, 0.375, 0.625, 0.875])
        assert g.a > 0.0 and g.b < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(np.array([0.0, 1.0]))  # too short
        with pytest.raises(ValueError):
            Grid(np.array([0.0, 1.0, 0.5]))  # not increasing
        with pytest.raises(ValueError):
            Grid(np.array([0.0, 0.3, 1.0]))  # uneven
        with pytest.raises(ValueError):
            Grid(np.array([0.0, np.inf, 1.0]))


class TestGridFunction:
    def test_reproduces_nodes_and_stays_monotone(self):
        g = Grid.uniform(0.0, 1.0, 11)
        vals = g.points ** 2
        gf = GridFunction(g, vals)
        np.testing.assert_allclose(gf(g.points), vals, atol=1e-14)
        fine = np.linspace(0.0, 1.0, 301)
        y = gf(fine)
        assert np.all(np.diff(y) >= -1e-12)  # monotone data stays monotone

    def test_shape_mismatch(self):
        g = Grid.uniform(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            GridFunction(g, np.zeros(4))


class TestTruncatedInterval:
    def test_gaussian_window_is_finite_and_tight(self):
        pdf = lambda x: np.exp(-0.5 * np.asarray(x) ** 2)
        a, b = truncated_interval(pdf, -math.inf, math.inf, 0.0, 1.0)
        assert math.isfinite(a) and math.isfinite(b)
        assert a < -8.0 and b > 8.0  # tails below 1e-14 need |x| > 8
        assert -40.0 < a and b < 40.0
        assert float(pdf(a)) < 1e-13 and float(pdf(b)) < 1e-13

    def test_finite_edges_kept_when_representable(self):
        pdf = lambda x: np.ones_like(np.asarray(x, dtype=float))
        a, b = truncated_interval(pdf, 0.0, 1.0, 0.5, 0.2)
        assert a == 0.0 and b == 1.0

    def test_ordinary_zero_edge_nudged_negligibly(self):
        """A polynomial zero at the edge moves the window in by < 1e-12."""
        pdf = lambda x: np.asarray(6.0 * x * (1.0 - x))
        a, b = truncated_interval(pdf, 0.0, 1.0, 0.5, 0.2)
        assert 0.0 < a < 1e-12 and 1.0 - 1e-12 < b < 1.0

    def test_essential_zero_edge_pulled_inward(self):
        """exp(-1/x - x) underflows at x=0; the window must start past it."""
        def pdf(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            pos = x > 0
            out[pos] = np.exp(-1.0 / x[pos] - x[pos])
            return out

        a, b = truncated_interval(pdf, 0.0, math.inf, 1.0, 1.0)
        assert a > 0.0
        assert float(pdf(np.asarray(a))) > 0.0
        assert math.isfinite(b)

    def test_pole_at_a_finite_end_is_no_peak(self):
        """x^-1/2 e^-x is infinite at 0; the window still reaches the tail
        where the density is 1e-14 of its finite values."""
        def pdf(x):
            with np.errstate(divide="ignore"):
                return np.asarray(x, float) ** -0.5 * np.exp(-np.asarray(x))

        a, b = truncated_interval(pdf, 0.0, math.inf, 0.5, 1.7)
        assert a == 0.0
        assert b > 30.0 and float(pdf(np.asarray(b))) < 1e-13

    def test_zero_density_probe_fails(self):
        with pytest.raises(NumericalFailure):
            truncated_interval(lambda x: np.zeros_like(np.asarray(x, float)),
                               0.0, 1.0, 0.5, 0.2)


class TestMomentWindow:
    def test_eight_sd_inside_the_bounds(self):
        pdf = lambda x: np.exp(-0.5 * np.asarray(x) ** 2)
        assert moment_window(pdf, 0.0, 1.0, -math.inf, math.inf) == (-8.0, 8.0)

    def test_clipped_to_the_bounds(self):
        pdf = lambda x: np.ones_like(np.asarray(x, dtype=float))
        assert moment_window(pdf, 0.5, 0.2, 0.0, 1.0) == (0.0, 1.0)

    def test_heavy_side_doubles_outward(self):
        """Only the side whose density is still >= 1e-10 moves, by
        doubling its distance from the mean."""
        pdf = lambda x: np.where(np.asarray(x) > 0, 1e-3, 0.0)
        lo, hi = moment_window(pdf, 0.0, 1.0, -math.inf, 100.0)
        assert lo == -8.0 and hi == 100.0
        lo, hi = moment_window(pdf, 0.0, 1.0, -math.inf, 1e3)
        assert hi == 1e3  # 8, 16, ..., 1024 clipped


class TestChebyshevPoints:
    def test_interior_ascending_symmetric(self):
        pts = chebyshev_points(0.0, 1.0, 17)
        assert pts.shape == (17,)
        assert np.all(np.diff(pts) > 0)
        assert pts[0] > 0.0 and pts[-1] < 1.0
        np.testing.assert_allclose(pts + pts[::-1], 1.0, atol=1e-14)


class TestWriteCsv:
    """Rows are formatted 8 at a time by one %; the bytes are those of one
    % per row, up to the shortest column."""

    @pytest.mark.parametrize("n", [0, 1, 7, 9, numerics._CSV_ROWS,
                                   2 * numerics._CSV_ROWS + 37])
    def test_bytes_match_one_format_per_row(self, tmp_path, n):
        rng = np.random.default_rng(n)
        ints = np.arange(n + 5)
        floats = np.concatenate([[math.nan, -0.0, -math.inf],
                                 rng.standard_normal(n + 3) * 1e-7])
        short = rng.random(n)
        path = tmp_path / "t.csv"
        write_csv(path, "i,x,y\n", "%d,%.17g,%.17g\n", ints, floats, short)
        rows = "".join("%d,%.17g,%.17g\n" % (int(i), x, y)
                       for i, x, y in zip(ints, floats, short))
        assert rows.count("\n") == n
        assert path.read_bytes() == ("i,x,y\n" + rows).encode()
