"""Tests for the linear-drift catalog: eigenvalue ladders, polynomial
eigenfunctions (values, orthogonality, and the generator ODE), per-row
agreement with the independent synthesis route, and the two worked examples
with non-quadratic diffusion coefficients.
"""

import dataclasses
import math

import numpy as np
import pytest

from fastmix import distributions
from fastmix.distributions import Beta as BetaDist
from fastmix.errors import (
    BeyondDiscreteSpectrum,
    ParamOutOfRange,
    RowMismatch,
    SpecFileError,
)
from fastmix.optimal import synthesize
from fastmix.pearson import (
    ROW_NAMES,
    cubic_example,
    eigenfunction,
    hyperexp_example,
    row,
    verify_row_against_synthesis,
)

DEFAULT_PARAMS = {
    "Beta": {"alpha": 1.0, "beta": 2.0},
    "Jacobi": {"alpha": 1.0, "beta": 1.0},
    "Gamma": {"alpha": 1.0},
    "Normal": {"x0": 0.0, "sigma": 1.0},
    "StudentCauchy": {"alpha": 3.0},
    "InverseGamma": {"alpha": 3.0},
    "FisherSnedecor": {"nu1": 6.0, "nu2": 10.0},
}

EXPECTED_LAMBDA1 = {
    "Beta": 5.0,
    "Jacobi": 4.0,
    "Gamma": 1.0,
    "Normal": 1.0,
    "StudentCauchy": 5.0,
    "InverseGamma": 5.0,
    "FisherSnedecor": 2.4,
}


def default_row(name):
    return row(name, DEFAULT_PARAMS[name])


class TestEigenvalueLadders:
    @pytest.mark.parametrize("name", ROW_NAMES)
    def test_lambda1_frozen(self, name):
        r = default_row(name)
        assert abs(r.lambda1 - EXPECTED_LAMBDA1[name]) < 1e-12

    @pytest.mark.parametrize("name", ROW_NAMES)
    def test_lambda1_equals_budget_over_variance(self, name):
        """The whole catalog obeys lambda1 = shalf / var exactly."""
        r = default_row(name)
        mom = r.spec.moments()
        assert abs(r.lambda1 * mom.variance
                   - r.sigma_hat_sq_half) <= 1e-12 * r.sigma_hat_sq_half

    def test_beta_ladder(self):
        # drift slope 5, variance x(1-x): lambda_n = 5n + n(n-1)
        r = default_row("Beta")
        assert [r.lambda_n(n) for n in range(5)] == [0.0, 5.0, 12.0, 21.0,
                                                     32.0]

    def test_gamma_and_normal_ladders_are_integers(self):
        for name in ("Gamma", "Normal"):
            r = default_row(name)
            for n in range(5):
                assert r.lambda_n(n) == float(n)

    def test_student_ladder(self):
        # lambda_n = n(2 alpha - n) at alpha = 3
        r = default_row("StudentCauchy")
        assert [r.lambda_n(n) for n in range(4)] == [0.0, 5.0, 8.0, 9.0]

    def test_fisher_ladder(self):
        # lambda_n = (nu1/(2 nu2)) n (nu2 - 2n) at (6, 10): 0.3 n (10 - 2n)
        r = default_row("FisherSnedecor")
        assert abs(r.lambda_n(1) - 2.4) < 1e-13
        assert abs(r.lambda_n(2) - 3.6) < 1e-13

    def test_zero_mode_rate_vanishes(self):
        for name in ROW_NAMES:
            assert default_row(name).lambda_n(0) == 0.0


class TestRowFactory:
    def test_aliases(self):
        assert row("ou", {"x0": 0.0, "sigma": 1.0}).name == "Normal"
        assert row("cir", {"alpha": 1.0}).name == "Gamma"
        assert row("f", {"nu1": 6.0, "nu2": 10.0}).name == "FisherSnedecor"
        assert row("inverse_gamma", {"alpha": 3.0}).name == "InverseGamma"

    def test_unknown_row(self):
        with pytest.raises(ParamOutOfRange):
            row("lognormal", {})

    def test_catalog_kind_without_a_row(self):
        params = {"p1": 0.5, "p2": 0.5, "eta1": 1.0, "eta2": 2.0}
        assert distributions.parse_spec(
            {"kind": "hyperexponential", "params": params}).kind == \
            "Hyperexponential"
        for name in ("hyperexponential", "cubic_pearson", "custom"):
            with pytest.raises(ParamOutOfRange):
                row(name, params)

    def test_aliases_agree_with_density_files(self):
        """Every alias of a row family selects the same family in a
        density file as in a table row."""
        for alias, cls in distributions._KINDS.items():
            if cls.kind in ROW_NAMES:
                params = DEFAULT_PARAMS[cls.kind]
                spec = distributions.parse_spec({"kind": alias,
                                                 "params": params})
                assert row(alias, params).name == spec.kind, alias

    def test_params_are_checked_like_density_files(self):
        for params in ({"alpha": 1.0, "gamma": 2.0}, {"alpha": None},
                       {"alpha": True}, {}):
            with pytest.raises(SpecFileError):
                row("gamma", params)

    def test_fisher_needs_finite_budget(self):
        with pytest.raises(ParamOutOfRange):
            row("fisher", {"nu1": 6.0, "nu2": 4.0})

    def test_discrete_spectrum_bounds(self):
        """A mode of degree n exists only for n < alpha (n < nu2/4 for the
        F row): at alpha = 3 the top mode is 2, not 3."""
        assert default_row("StudentCauchy").n_max_discrete == 2
        assert default_row("InverseGamma").n_max_discrete == 2
        assert default_row("FisherSnedecor").n_max_discrete == 2
        assert default_row("Beta").n_max_discrete is None


class TestEigenfunctions:
    @pytest.mark.parametrize("name", ROW_NAMES)
    def test_mode_zero_is_one(self, name):
        r = default_row(name)
        lo, hi = r.spec.truncated_support()
        x = np.linspace(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), 7)
        np.testing.assert_allclose(eigenfunction(r, 0, x), 1.0, atol=1e-14)

    @pytest.mark.parametrize("name", ROW_NAMES)
    def test_mode_one_vanishes_at_the_mean(self, name):
        r = default_row(name)
        m1 = r.spec.moments().m1
        scale = abs(eigenfunction(r, 1, m1 + math.sqrt(
            r.spec.moments().variance)))
        assert abs(eigenfunction(r, 1, m1)) <= 1e-10 * max(1.0, scale)

    def test_flat_beta_mode_one_is_x_minus_half(self):
        """Every mode is monic in x - m1; the flat Beta has m1 = 0.5."""
        r = row("beta", {"alpha": 0.0, "beta": 0.0})
        x = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(eigenfunction(r, 1, x), x - 0.5,
                                   atol=1e-14)

    def test_exponential_mode_one_is_x_minus_one(self):
        r = row("gamma", {"alpha": 0.0})
        x = np.linspace(0.0, 5.0, 11)
        np.testing.assert_allclose(eigenfunction(r, 1, x), x - 1.0,
                                   atol=1e-13)

    def test_hermite_values(self):
        """Normal(x0, sigma) modes are sigma^n He_n((x - x0)/sigma), the
        probabilists' Hermite polynomials made monic in x - x0; a scalar
        gives a float."""
        r = row("normal", {"x0": 1.5, "sigma": 2.0})
        x = np.linspace(-4.0, 7.0, 23)
        for n in range(7):
            he = np.polynomial.hermite_e.hermeval((x - 1.5) / 2.0,
                                                  [0.0] * n + [1.0])
            np.testing.assert_allclose(eigenfunction(r, n, x),
                                       2.0 ** n * he, rtol=1e-13,
                                       atol=1e-13 * 2.0 ** n)
        assert type(eigenfunction(r, 3, 0.5)) is float

    def test_chebyshev_modes_of_the_arcsine_jacobi(self):
        """Jacobi(-1/2, -1/2) modes are the Chebyshev T_n made monic,
        T_n = 2^(n-1) phi_n; high degrees catch an evaluation that
        cancels."""
        r = row("jacobi", {"alpha": -0.5, "beta": -0.5})
        x = np.linspace(-1.0, 1.0, 101)
        for n in range(1, 11):
            t_n = np.polynomial.chebyshev.chebval(x, [0.0] * n + [1.0])
            err = np.max(np.abs(2.0 ** (n - 1) * eigenfunction(r, n, x)
                                - t_n))
            assert err <= 1e-12, (n, err)

    @pytest.mark.parametrize("name", ROW_NAMES)
    def test_orthogonality_under_pi(self, name):
        """Distinct modes are pi-orthogonal (checked by quadrature), up to
        degree 4 or the discrete spectrum's bound: the check of each row
        that does not go through its own coefficients."""
        r = default_row(name)
        top = 4 if r.n_max_discrete is None else min(4, r.n_max_discrete)
        norms = {}
        for n in range(top + 1):
            norms[n] = r.spec._integral(
                lambda x, n=n: eigenfunction(r, n, x) ** 2)
        for m in range(top + 1):
            for n in range(m + 1, top + 1):
                inner = r.spec._integral(
                    lambda x, m=m, n=n: eigenfunction(r, m, x)
                    * eigenfunction(r, n, x))
                assert abs(inner) <= 1e-7 * math.sqrt(norms[m] * norms[n])

    @pytest.mark.parametrize("name", ROW_NAMES)
    def test_generator_ode(self, name):
        """(sigma^2/2) phi_n'' + mu phi_n' + lambda_n phi_n = 0.

        Modes are polynomials of degree n, so an exact polynomial refit gives
        analytic derivatives and the residual is pure roundoff.
        """
        r = default_row(name)
        lo, hi = r.spec.truncated_support()
        n_top = min(3, r.n_max_discrete if r.n_max_discrete is not None else 3)
        pts = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 60)
        for n in range(1, n_top + 1):
            vals = eigenfunction(r, n, pts)
            c = np.polynomial.polynomial.polyfit(pts, vals, n)
            d1 = np.polynomial.polynomial.polyder(c)
            d2 = np.polynomial.polynomial.polyder(c, 2)
            P = np.polynomial.polynomial.polyval
            resid = (r.variance_half(pts) * P(pts, d2)
                     + r.drift(pts) * P(pts, d1)
                     + r.lambda_n(n) * vals)
            scale = r.lambda_n(n) * np.max(np.abs(vals)) + 1.0
            assert np.max(np.abs(resid)) <= 1e-6 * scale, (name, n)

    def test_beyond_discrete_spectrum(self):
        with pytest.raises(BeyondDiscreteSpectrum):
            eigenfunction(default_row("StudentCauchy"), 4, 0.0)
        with pytest.raises(BeyondDiscreteSpectrum):
            eigenfunction(default_row("FisherSnedecor"), 3, 1.0)
        # unbounded ladders never raise
        eigenfunction(default_row("Beta"), 8, 0.5)

    def test_negative_mode_rejected(self):
        with pytest.raises(ValueError):
            eigenfunction(default_row("Beta"), -1, 0.5)


class TestRowVerification:
    @pytest.mark.parametrize("name", ROW_NAMES)
    def test_rows_match_synthesis(self, name):
        """The printed drift/variance/rate agree with a synthesis that sees
        only the density and the budget (variance via quadrature)."""
        rep = verify_row_against_synthesis(default_row(name))
        assert rep.ok
        assert rep.dev_lambda1 <= 1e-10
        assert rep.dev_drift <= 1e-10
        assert rep.dev_variance <= 1e-7

    def test_tampered_row_is_caught(self):
        r = default_row("Beta")
        bad = dataclasses.replace(r, drift_coeffs=(r.drift_coeffs[0] + 1e-3,
                                                   r.drift_coeffs[1]))
        with pytest.raises(RowMismatch) as exc:
            verify_row_against_synthesis(bad)
        assert exc.value.report is not None
        assert not exc.value.report.ok
        assert exc.value.report.dev_drift > 1e-10

    @pytest.mark.parametrize("name", ROW_NAMES)
    def test_wrong_density_budget_is_caught(self, name, monkeypatch):
        """Each row runs at its density's canonical diffusion level, so a
        level 1 percent off in the density class fails the row check."""
        cls = distributions.kind_class(name)
        level = cls.default_sigma_hat_sq_half
        monkeypatch.setattr(cls, "default_sigma_hat_sq_half",
                            lambda self: 1.01 * level(self))
        with pytest.raises(RowMismatch):
            verify_row_against_synthesis(default_row(name))


class TestCubicExample:
    def test_flat_limit_reduces_to_quadratic(self):
        ex = cubic_example(1.0, 1.0, 0.0)
        x = np.linspace(0.0, 1.0, 9)
        np.testing.assert_allclose(ex.variance_half(x), x * (1.0 - x),
                                   atol=1e-14)
        assert abs(ex.lambda1 - 2.0) < 1e-14

    @pytest.mark.parametrize("params,lam", [
        ((1.0, 2.0, 0.5), 2.0),
        ((2.0, 3.0, -0.3), 5.9),
        ((0.5, 1.0, 0.9), 0.6),
    ])
    def test_rate_formula(self, params, lam):
        ex = cubic_example(*params)
        assert abs(ex.lambda1 - lam) < 1e-12
        assert ex.drift_coeffs == (params[0], -lam)

    @pytest.mark.parametrize("params", [
        (1.0, 2.0, 0.5), (2.0, 3.0, -0.3), (0.5, 1.0, 0.9),
    ])
    def test_closed_moments_against_quadrature(self, params):
        ex = cubic_example(*params)
        quad = ex.spec.moments_quadrature()
        assert abs(ex.m1 - quad.m1) <= 1e-6
        assert abs(ex.m2 - quad.m2) <= 1e-6

    def test_cubic_variance_matches_synthesis(self):
        ex = cubic_example(1.0, 2.0, 0.5)
        proc = synthesize(ex.spec, ex.sigma_hat_sq_half,
                          variance_mode="quadrature")
        assert abs(proc.lambda1 - ex.lambda1) <= 1e-8 * ex.lambda1
        x = np.linspace(0.02, 0.98, 33)
        np.testing.assert_allclose(np.asarray(proc.variance_fn(x)),
                                   ex.variance_half(x), atol=1e-7)


class TestHyperexpExample:
    def test_frozen_moments(self):
        ex = hyperexp_example(0.5, 0.5, 1.0, 2.0)
        assert abs(ex.m1 - 0.75) < 1e-14
        assert abs(ex.variance - 0.6875) < 1e-14

    def test_unit_rate_at_the_reference_budget(self):
        ex = hyperexp_example(0.5, 0.5, 1.0, 2.0)
        assert abs(ex.lambda1(0.6875) - 1.0) <= 1e-12

    def test_closed_variance_vs_quadrature(self):
        ex = hyperexp_example(0.5, 0.5, 1.0, 2.0)
        proc = synthesize(ex.spec, 0.6875, variance_mode="quadrature")
        x = np.linspace(0.05, 20.0, 41)
        vq = np.asarray(proc.variance_fn(x))
        vc = ex.variance_half(x, 0.6875)
        assert np.max(np.abs(vq - vc)) <= 1e-8 * max(1.0, float(np.max(vc)))

    def test_equal_rates_degenerate_to_linear_variance(self):
        ex = hyperexp_example(0.5, 0.5, 1.0, 1.0)
        x = np.linspace(0.1, 10.0, 21)
        np.testing.assert_allclose(ex.variance_half(x, 1.0), x, rtol=1e-12)

    def test_positivity_on_a_wide_window(self):
        ex = hyperexp_example(0.5, 0.5, 1.0, 2.0)
        x = np.linspace(1e-3, 40.0, 200)
        assert np.all(ex.variance_half(x, 0.6875) > 0.0)

    def test_v_vanishes_at_both_ends(self):
        ex = hyperexp_example(0.3, 0.7, 0.5, 3.0)
        assert abs(float(ex.v_closed(0.0))) < 1e-15
        assert float(ex.v_closed(80.0)) < 1e-12
