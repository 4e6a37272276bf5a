"""Tests for the distribution catalog, custom densities, mixtures, and the
JSON spec-file parser.

Closed-form moments are cross-checked against the independent quadrature
route; hand-computed literals pin the conventions (exponent parametrization,
normalizers) so a silent reparametrization cannot pass.
"""

import json
import math
import warnings

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator
from scipy.special import betainc, gammainc, gammaincc, ndtr

from fastmix.distributions import (
    Beta,
    CubicPearson,
    Custom,
    FisherSnedecor,
    Gamma,
    Hyperexponential,
    InverseGamma,
    Jacobi,
    MomentSummary,
    Mixture,
    Normal,
    StudentCauchy,
    Support,
    load_spec,
    mixture,
    parse_spec,
    read_json,
)
from fastmix.errors import (
    BadWeights,
    NotNormalized,
    OutOfSupport,
    ParamOutOfRange,
    SpecFileError,
    SupportMismatch,
)

CATALOG_SWEEP = [
    Beta(1.0, 2.0),
    Beta(0.0, 0.0),
    Beta(-0.5, -0.5),  # integrable endpoint singularities
    Beta(2.5, 0.5),
    Jacobi(1.0, 1.0),
    Jacobi(0.5, 2.0),
    Gamma(1.0),
    Gamma(-0.5),
    Gamma(3.0),
    Normal(0.0, 1.0),
    Normal(-2.0, 0.5),
    Normal(0.0, 1e-4),  # tails far narrower than a unit-length map
    StudentCauchy(2.0),
    StudentCauchy(3.0),
    InverseGamma(2.0),
    InverseGamma(3.0),
    FisherSnedecor(6.0, 10.0),
    FisherSnedecor(2.0, 6.0),
    Hyperexponential(0.5, 0.5, 1.0, 2.0),
    Hyperexponential(0.3, 0.7, 0.5, 3.0),
    CubicPearson(1.0, 2.0, 0.5),
    CubicPearson(2.0, 3.0, -0.3),
]


class TestMomentConventions:
    """Hand-computed literals that pin each family's parametrization."""

    def test_beta_exponent_convention(self):
        # density x (1-x)^2 * 12 on [0,1]: m1 = 2/5, m2 = 1/5
        mom = Beta(1.0, 2.0).moments()
        assert abs(mom.m1 - 0.4) < 1e-14
        assert abs(mom.m2 - 0.2) < 1e-14
        assert abs(mom.variance - 0.04) < 1e-14
        assert abs(Beta(1.0, 2.0).pdf(0.5) - 12.0 * 0.5 * 0.25) < 1e-12

    def test_jacobi_symmetric_case(self):
        # density ~ ((1-x^2))^1 on [-1,1]: m1 = 0, m2 = 1/5
        mom = Jacobi(1.0, 1.0).moments()
        assert abs(mom.m1) < 1e-14
        assert abs(mom.m2 - 0.2) < 1e-14

    def test_gamma_shape_convention(self):
        # density x e^-x on (0, inf): m1 = 2, m2 = 6
        mom = Gamma(1.0).moments()
        assert abs(mom.m1 - 2.0) < 1e-13
        assert abs(mom.m2 - 6.0) < 1e-13

    def test_normal_moments(self):
        mom = Normal(0.0, 1.0).moments()
        assert abs(mom.m1) < 1e-14 and abs(mom.m2 - 1.0) < 1e-14
        mom = Normal(-2.0, 0.5).moments()
        assert abs(mom.m1 + 2.0) < 1e-14
        assert abs(mom.variance - 0.25) < 1e-14

    def test_student_moments(self):
        # density (1+x^2)^-3.5 / B(3, 1/2): m1 = 0, m2 = 1/4
        mom = StudentCauchy(3.0).moments()
        assert abs(mom.m1) < 1e-14
        assert abs(mom.m2 - 0.25) < 1e-14

    def test_inverse_gamma_moments(self):
        # density x^-7 e^(-1/x) / 120: m1 = 1/5, m2 = 1/20
        mom = InverseGamma(3.0).moments()
        assert abs(mom.m1 - 0.2) < 1e-14
        assert abs(mom.m2 - 0.05) < 1e-14
        assert abs(mom.variance - 0.01) < 1e-15

    def test_fisher_moments(self):
        # m1 = nu2/(nu2-2), m2 = nu2^2 (nu1+2) / (nu1 (nu2-2)(nu2-4))
        mom = FisherSnedecor(6.0, 10.0).moments()
        assert abs(mom.m1 - 1.25) < 1e-14
        assert abs(mom.m2 - 800.0 / 288.0) < 1e-13

    def test_hyperexponential_moments(self):
        mom = Hyperexponential(0.5, 0.5, 1.0, 2.0).moments()
        assert abs(mom.m1 - 0.75) < 1e-14
        assert abs(mom.m2 - 1.25) < 1e-14
        assert abs(mom.variance - 0.6875) < 1e-14

    def test_cubic_reduces_to_beta_at_a_zero(self):
        cub = CubicPearson(2.0, 3.0, 0.0)
        bet = Beta(1.0, 2.0)
        x = np.linspace(0.01, 0.99, 25)
        np.testing.assert_allclose(cub.pdf(x), bet.pdf(x), rtol=1e-12)
        assert abs(cub.moments().m1 - bet.moments().m1) < 1e-13


def _mp_density(spec, x):
    """spec's density at x from its closed form, in 40-digit mpmath."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        return float(_mp_closed_form(mp, spec, mp.mpf(x)))


def _mp_closed_form(mp, spec, x):
    p = {k: mp.mpf(v) for k, v in spec.params.items()}
    if spec.kind == "Beta":
        a, b = p["alpha"], p["beta"]
        return x ** a * (1 - x) ** b / mp.beta(a + 1, b + 1)
    if spec.kind == "Jacobi":
        a, b = p["alpha"], p["beta"]
        return ((1 - x) ** a * (1 + x) ** b
                / (2 ** (a + b + 1) * mp.beta(a + 1, b + 1)))
    if spec.kind == "Gamma":
        return x ** p["alpha"] * mp.exp(-x) / mp.gamma(p["alpha"] + 1)
    if spec.kind == "Normal":
        return mp.npdf(x, p["x0"], p["sigma"])
    if spec.kind == "StudentCauchy":
        a = p["alpha"]
        return (1 + x * x) ** -(a + mp.mpf(0.5)) / mp.beta(a, mp.mpf(0.5))
    if spec.kind == "InverseGamma":
        a = p["alpha"]
        return x ** -(2 * a + 1) * mp.exp(-1 / x) / mp.gamma(2 * a)
    if spec.kind == "FisherSnedecor":
        n1, n2 = p["nu1"], p["nu2"]
        return ((n1 / n2) ** (n1 / 2) * x ** (n1 / 2 - 1)
                * (1 + n1 * x / n2) ** (-(n1 + n2) / 2)
                / mp.beta(n1 / 2, n2 / 2))
    al, be, a = p["alpha"], p["beta"], p["a"]  # CubicPearson

    def kernel(t):
        return (t ** (al - 1) * (1 - t) ** (be - 1)
                * (1 - a * t) ** -(al + be + 1))

    return kernel(x) / mp.quad(kernel, [0, 1])


class TestDensityValues:
    """Each closed family's exp(log density) at its ends and inside."""

    @pytest.mark.parametrize("spec, x, want", [
        (FisherSnedecor(1.5, 6.0), 0.0, math.inf),
        (FisherSnedecor(2.0, 6.0), 0.0, 1.0),  # (nu1/nu2) / B(1, nu2/2)
        (FisherSnedecor(6.0, 6.0), 0.0, 0.0),
        (InverseGamma(2.0), 0.0, 0.0),
        (Beta(0.0, 2.0), 0.0, 3.0),  # 1 / B(1, 3)
        (Beta(2.0, 0.0), 1.0, 3.0),
        (Jacobi(0.0, 1.0), 1.0, 1.0),  # (1 + x) / 2
        (Jacobi(1.0, 0.0), -1.0, 1.0),
        (CubicPearson(1.0, 2.0, 0.5), 0.0, None),
        (CubicPearson(2.0, 1.0, 0.5), 1.0, None),
    ], ids=lambda v: repr(v) if hasattr(v, "kind") else None)
    def test_endpoint_limits(self, spec, x, want):
        """A zero exponent at an end gives the finite limit, a positive one
        0 and a negative one inf, for a scalar and inside an array, with no
        numpy warning."""
        if want is None:
            want = _mp_density(spec, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = spec.pdf(x)
            arr = spec.pdf(np.array([x, 0.5]))
        assert isinstance(scalar, float)
        assert scalar == pytest.approx(want, rel=1e-12)
        assert arr[0] == scalar and math.isfinite(arr[1]) and arr[1] > 0.0

    @pytest.mark.parametrize("spec, xs", [
        (Gamma(300.0), (250.0, 299.0, 300.0, 330.0)),  # x**300 overflows
        (Gamma(150.0), (120.0, 150.0, 190.0)),
        (Beta(2.5, 0.5), (1e-6, 0.3, 0.999)),
        (Jacobi(0.5, 2.0), (-0.9, 0.0, 0.7)),
        (Normal(-2.0, 0.5), (-2.0, -1.1, 0.5)),
        (StudentCauchy(3.0), (0.0, 2.0, 40.0)),
        (InverseGamma(3.0), (0.05, 0.2, 3.0)),
        (FisherSnedecor(6.0, 10.0), (0.01, 1.3, 9.0)),
        (CubicPearson(2.0, 3.0, -0.3), (0.05, 0.4, 0.95)),
    ], ids=lambda v: repr(v) if hasattr(v, "kind") else None)
    def test_interior_matches_mpmath(self, spec, xs):
        want = np.array([_mp_density(spec, x) for x in xs])
        np.testing.assert_allclose(spec.pdf(np.array(xs)), want, rtol=1e-12)
        for x, w in zip(xs, want):
            assert spec.pdf(x) == pytest.approx(w, rel=1e-12)


class TestClosedVsQuadrature:
    @pytest.mark.parametrize("spec", CATALOG_SWEEP,
                             ids=lambda s: "%s%s" % (s.kind, s.params))
    def test_moment_routes_agree(self, spec):
        closed = spec.moments()
        quad = spec.moments_quadrature()
        scale = max(1.0, abs(closed.m1), abs(closed.m2))
        assert abs(closed.m1 - quad.m1) <= 1e-8 * scale
        assert abs(closed.m2 - quad.m2) <= 1e-8 * scale

    @pytest.mark.parametrize("spec", CATALOG_SWEEP,
                             ids=lambda s: "%s%s" % (s.kind, s.params))
    def test_unit_mass(self, spec):
        mass = spec._integral(lambda t: np.ones_like(t))
        assert abs(mass - 1.0) <= 1e-8


POLYNOMIAL_KINDS = {Beta, Jacobi, Gamma, Normal, StudentCauchy,
                    InverseGamma, FisherSnedecor}


class TestProfileCoefficients:
    """profile_coeffs() declares the closed profile once more, expanded to
    p0 + p1 x + p2 x^2, for the sampler's folded step."""

    def test_declared_by_the_polynomial_kinds_only(self):
        """The six Pearson kinds with a quadratic or linear shape and the
        Normal, whose shape is the constant (sigma^2, 0, 0), declare it;
        the Hyperexponential and the cubic CubicPearson declare none, nor
        does an F density without a closed shape (nu2 <= 2)."""
        declared = {type(s) for s in CATALOG_SWEEP
                    if s.profile_coeffs() is not None}
        assert declared == POLYNOMIAL_KINDS
        assert all(s.profile_coeffs() is None for s in CATALOG_SWEEP
                   if type(s) not in POLYNOMIAL_KINDS)
        assert Normal(0.3, 2.0).profile_coeffs() == (4.0, 0.0, 0.0)
        f = FisherSnedecor(3.0, 2.0)
        assert f.closed_profile() is None and f.profile_coeffs() is None

    @pytest.mark.parametrize("spec", [
        s for s in CATALOG_SWEEP if type(s) in POLYNOMIAL_KINDS] + [
        Beta(7.0, 0.2), Jacobi(-0.5, 3.0), FisherSnedecor(0.5, 2.5)],
        ids=lambda s: "%s%s" % (s.kind, s.params))
    def test_same_polynomial_as_the_factored_callable(self, spec):
        """At 1001 points across the truncated support, and at the finite
        ends, p0 + p1 x + p2 x^2 is the factored closed_profile() within 4
        ulps of the sum of its terms' sizes."""
        p0, p1, p2 = spec.profile_coeffs()
        a, b = spec.truncated_support()
        x = np.linspace(a, b, 1001)
        terms = abs(p0) + np.abs(p1 * x) + np.abs(p2 * x * x)
        err = np.abs(p0 + p1 * x + p2 * x * x - spec.closed_profile()(x))
        assert np.all(err <= 4.0 * np.spacing(terms))


# a normal's length scale from 1e-100 to 1e100; x -> c x changes no
# relative accuracy of the density's own quadrature
SCALES = [1e-100, 1e-30, 1e-12, 1e-8, 1e-6, 1.0, 1e30, 1e100]


class TestIntegralAtTheDensityScale:
    @pytest.mark.parametrize("sd", SCALES)
    def test_normal_moments_at_any_scale(self, sd):
        """The mass check passes, m2 is sd^2 to 1e-12 and m1 is 0 to 1e-12
        of sd: no absolute tolerance or scale floor sets the accuracy."""
        mom = Normal(0.0, sd).moments_quadrature()
        assert abs(mom.m2 / (sd * sd) - 1.0) <= 1e-12
        assert abs(mom.m1) <= 1e-12 * sd

    def test_an_empty_range_is_zero(self):
        spec = Normal(0.0, 1.0)
        assert spec._integral(np.ones_like, 1.0, 1.0) == 0.0
        assert spec._integral(np.ones_like, 2.0, -3.0) == 0.0
        assert Beta(1.0, 2.0)._integral(np.ones_like, None, 0.0) == 0.0

    @pytest.mark.parametrize("spec, lo, hi, want", [
        (Normal(0.0, 1.0), -math.inf, -9.0, ndtr(-9.0)),
        (Normal(0.0, 1.0), -math.inf, 0.5, ndtr(0.5)),
        (Normal(0.0, 1.0), -0.5, 2.0, ndtr(2.0) - ndtr(-0.5)),
        (Normal(0.0, 1.0), 3.0, math.inf, ndtr(-3.0)),
        (Gamma(-0.5), 0.0, 0.25, gammainc(0.5, 0.25)),
        (Gamma(-0.5), 20.0, math.inf, gammaincc(0.5, 20.0)),
        (Beta(-0.5, -0.5), 0.0, 0.3, betainc(0.5, 0.5, 0.3)),
        (Beta(-0.5, -0.5), 0.3, 1.0, betainc(0.5, 0.5, 0.7)),
    ], ids=str)
    def test_a_range_matches_the_closed_mass(self, spec, lo, hi, want):
        """Over a range, with its infinite ends mapped and its singular
        support ends substituted, the mass is the closed one."""
        got = spec._integral(np.ones_like, lo, hi)
        assert abs(got / want - 1.0) < 1e-10

    @pytest.mark.parametrize("alpha", [2.0, 3.0, 10.0, 100.0, 200.0, 1000.0])
    def test_inverse_gamma_at_its_own_width(self, alpha):
        """bulk() gives the scale m1 = 1/(2 alpha - 1), near which the mass
        lies: at scale 1 the core's first panels missed it, and the mass
        check read 0 for alpha >= 100."""
        spec = InverseGamma(alpha)  # the mass check passes
        quad, closed = spec.moments_quadrature(), spec.moments()
        assert abs(quad.m1 / closed.m1 - 1.0) <= 1e-10
        assert abs(quad.variance / closed.variance - 1.0) <= 1e-8

    @pytest.mark.parametrize("eta1, eta2", [
        (1.0, 2.0), (1e3, 1e-3), (1e-3, 1e3), (1e6, 1.0)])
    def test_hyperexponential_with_rates_far_apart(self, eta1, eta2):
        """The breakpoints run from the short decay length to the long one
        in steps of at most 4, so the fast rate's mass near 0 is seen: with
        only the slow length, the mass check read 0.5 at rates 1e3, 1e-3."""
        spec = Hyperexponential(0.5, 0.5, eta1, eta2)
        knots = np.asarray(spec.breakpoints())
        assert knots[0] == pytest.approx(1.0 / max(eta1, eta2), rel=1e-15)
        assert knots[-1] == pytest.approx(1.0 / min(eta1, eta2), rel=1e-15)
        assert np.all(knots[1:] / knots[:-1] <= 4.0 * (1.0 + 1e-15))
        quad, closed = spec.moments_quadrature(), spec.moments()
        assert abs(quad.m1 / closed.m1 - 1.0) <= 1e-10
        assert abs(quad.variance / closed.variance - 1.0) <= 1e-10

    @pytest.mark.parametrize("cls, args, per_panel_calls, evaluations", [
        (Normal, (0.0, 1.0), 29, 435), (Jacobi, (0.3, 2.0), 57, 855)],
        ids=["Normal", "Jacobi"])
    def test_the_density_is_called_once_per_round(
            self, monkeypatch, cls, args, per_panel_calls, evaluations):
        """The mass check evaluates the density once per refinement round,
        on the nodes of every panel the round needs: fewer calls than one
        per panel would make, for the same panels and evaluations."""
        pdf, sizes = cls._pdf, []

        def counted(self, x):
            sizes.append(np.size(x))
            return pdf(self, x)

        monkeypatch.setattr(cls, "_pdf", counted)
        cls(*args)
        assert len(sizes) < per_panel_calls
        assert sum(sizes) == evaluations


class TestCdf:
    def test_uniform_cdf_is_identity(self):
        u = Beta(0.0, 0.0)
        assert abs(u.cdf(0.3) - 0.3) < 1e-14
        assert u.cdf(0.0) == 0.0 and u.cdf(1.0) == 1.0

    @pytest.mark.parametrize("spec", [
        Beta(1.0, 2.0), Gamma(1.0), Normal(0.0, 1.0), StudentCauchy(3.0),
        InverseGamma(3.0), FisherSnedecor(6.0, 10.0),
        Hyperexponential(0.5, 0.5, 1.0, 2.0),
    ], ids=lambda s: s.kind)
    def test_monotone_with_correct_limits(self, spec):
        lo, hi = spec.truncated_support()
        x = np.linspace(lo, hi, 200)
        c = spec.cdf(x)
        assert np.all(np.diff(c) >= -1e-12)
        assert c[0] < 1e-10 and c[-1] > 1.0 - 1e-10

    def test_quadrature_cdf_matches_closed(self):
        """A tabulated uniform density goes through the quadrature cdf."""
        pts = np.linspace(0.0, 1.0, 33)
        tab = Custom.from_table(pts, np.ones_like(pts))
        for x in (0.1, 0.42, 0.9):
            assert abs(tab.cdf(x) - x) < 1e-9

    def test_cubic_cdf_quadrature_route(self):
        spec = CubicPearson(1.0, 2.0, 0.5)
        assert abs(spec.cdf(1.0) - 1.0) < 1e-9
        assert spec.cdf(0.0) < 1e-12

    def test_quadrature_cdf_from_minus_infinity(self):
        """Left of the bulk the left tail is integrated itself, not as 1
        minus the rest: Phi(-8) = 6.22096057427174e-16 keeps its digits.
        Right of it, points far out still see all of the mass."""
        spec = Custom(lambda x: np.exp(-0.5 * np.asarray(x) ** 2)
                      / math.sqrt(2.0 * math.pi),
                      Support(-math.inf, math.inf))
        assert abs(spec.cdf(-8.0) / 6.22096057427174e-16 - 1.0) < 1e-6
        assert abs(spec.cdf(60.0) - 1.0) < 1e-12
        assert spec.cdf(1e4) == 1.0

    def test_quadrature_cdf_of_a_heavy_tail(self):
        """Student t with 3 degrees of freedom: the left tail keeps its
        digits far out, and far right points still see all of the mass."""
        spec = Custom(lambda x: 6.0 * math.sqrt(3.0)
                      / (math.pi * (3.0 + np.asarray(x) ** 2) ** 2),
                      Support(-math.inf, math.inf))
        for y in (10.0, 1e3, 1e4, 1e6):
            tail = 0.5 * betainc(1.5, 0.5, 3.0 / (3.0 + y * y))
            assert abs(spec.cdf(-y) / tail - 1.0) < 1e-9
            assert abs(spec.cdf(y) - (1.0 - tail)) < 1e-15


    def test_quadrature_cdf_on_a_half_line(self):
        """exp(-x) on (0, inf): right of the bulk the cdf is 1 minus the
        tail from x, which a single integral from 0 would step over."""
        spec = Custom(lambda x: np.exp(-np.asarray(x, float)),
                      Support(0.0, math.inf))
        assert spec.cdf(1e4) == 1.0
        assert abs(spec.cdf(2.0) - (1.0 - math.exp(-2.0))) < 1e-12
        assert abs(spec.cdf(0.5) - (1.0 - math.exp(-0.5))) < 1e-12


class TestSupportAndValidation:
    def test_pdf_out_of_support(self):
        with pytest.raises(OutOfSupport):
            Beta(1.0, 1.0).pdf(1.5)
        with pytest.raises(OutOfSupport):
            Gamma(1.0).pdf(-0.1)

    def test_support_validation(self):
        with pytest.raises(ValueError):
            Support(1.0, 1.0)
        with pytest.raises(ValueError):
            Support(math.nan, 1.0)
        s = Support(0.0, math.inf)
        assert not s.finite and s.contains([0.0, 10.0, 1e9])

    def test_param_ranges(self):
        with pytest.raises(ParamOutOfRange):
            Beta(-1.0, 0.0)
        with pytest.raises(ParamOutOfRange):
            Gamma(-1.0)
        with pytest.raises(ParamOutOfRange):
            Normal(0.0, 0.0)
        with pytest.raises(ParamOutOfRange):
            StudentCauchy(0.5)
        with pytest.raises(ParamOutOfRange):
            FisherSnedecor(0.0, 10.0)
        with pytest.raises(ParamOutOfRange):
            Hyperexponential(0.5, 0.6, 1.0, 2.0)  # weights must sum to 1
        with pytest.raises(ParamOutOfRange):
            Hyperexponential(-0.1, 1.1, 1.0, 2.0)
        with pytest.raises(ParamOutOfRange):
            CubicPearson(1.0, 1.0, 1.0)  # needs |a| < 1

    def test_divergent_second_moment_is_typed(self):
        """F(6,4) is a fine density but has no variance; asking for moments
        raises the dedicated error instead of returning garbage."""
        from fastmix.errors import MomentDivergence
        spec = FisherSnedecor(6.0, 4.0)
        with pytest.raises(MomentDivergence):
            spec.moments()

    def test_truncated_support_is_finite_and_inside(self):
        for spec in CATALOG_SWEEP:
            lo, hi = spec.truncated_support()
            assert math.isfinite(lo) and math.isfinite(hi) and lo < hi
            assert lo >= spec.support.lower and hi <= spec.support.upper

    def test_moment_summary(self):
        m = MomentSummary.from_raw(2.0, 5.0)
        assert m.variance == 1.0


class TestCustom:
    def test_callable_density(self):
        spec = Custom(lambda x: 2.0 * np.asarray(x, float), (0.0, 1.0))
        mom = spec.moments()
        assert abs(mom.m1 - 2.0 / 3.0) < 1e-10
        assert abs(mom.m2 - 0.5) < 1e-10

    def test_tuple_support_coerced(self):
        spec = Custom(lambda x: np.ones_like(np.asarray(x, float)),
                      (0.0, 1.0))
        assert spec.support == Support(0.0, 1.0)

    def test_unnormalized_rejected(self):
        with pytest.raises(NotNormalized):
            Custom(lambda x: 2.0 * np.ones_like(np.asarray(x, float)),
                   (0.0, 1.0))

    def test_from_table_rescale(self):
        pts = np.linspace(0.0, 2.0, 21)
        vals = np.exp(-pts)  # mass 1 - e^-2, not normalized
        with pytest.raises(NotNormalized):
            Custom.from_table(pts, vals)
        spec = Custom.from_table(pts, vals, rescale=True)
        mass = spec._integral(lambda t: np.ones_like(t))
        assert abs(mass - 1.0) < 1e-9

    def test_from_table_rescale_uses_the_exact_mass(self):
        """The rescaled table is the samples over the interpolant's own
        integral, which the quadrature reproduces to roundoff."""
        pts = np.linspace(0.0, 3.0, 31)
        vals = 1.0 + np.sin(2.0 * pts) ** 2
        spec = Custom.from_table(pts, vals, rescale=True)
        mass = PchipInterpolator(pts, vals).integrate(0.0, 3.0)
        np.testing.assert_allclose(spec.pdf(pts), vals / mass, rtol=1e-15)
        assert abs(spec._integral(np.ones_like) - 1.0) < 1e-14

    def test_table_moments_are_exact(self):
        """A PCHIP table is integrated knot by knot: mass, m1 and m2 match
        4-point Gauss-Legendre on each knot interval (exact for the cubic
        pieces times x^2) to 1e-13."""
        pts = np.linspace(0.0, 4.0, 81)
        spec = Custom.from_table(pts, 0.02 + pts ** 1.5 * np.exp(-2.0 * pts),
                                 rescale=True)
        t, w = np.polynomial.legendre.leggauss(4)
        half = 0.5 * np.diff(pts)[:, None]
        nodes = 0.5 * (pts[:-1] + pts[1:])[:, None] + half * t
        weights = half * w
        dens = spec.pdf(nodes)
        mass = np.sum(weights * dens)
        m1 = np.sum(weights * dens * nodes)
        m2 = np.sum(weights * dens * nodes ** 2)
        assert spec.breakpoints() == tuple(pts[1:-1])
        assert abs(spec._integral(lambda x: np.ones_like(x)) - mass) < 1e-13
        mom = spec.moments()
        assert abs(mom.m1 / m1 - 1.0) < 1e-13
        assert abs(mom.m2 / m2 - 1.0) < 1e-13
        x = 1.234
        k = int(np.searchsorted(pts, x)) - 1
        part = 0.5 * (x - pts[k]) * (t + 1.0) + pts[k]
        cdf = np.sum((weights * dens)[:k]) + np.sum(
            0.5 * (x - pts[k]) * w * spec.pdf(part))
        assert abs(spec.cdf(x) - cdf) < 1e-13

    def test_from_table_validation(self):
        with pytest.raises(ValueError):
            Custom.from_table([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])  # too short
        with pytest.raises(ValueError):
            Custom.from_table([0.0, 1.0, 0.5, 2.0], [1.0] * 4)
        with pytest.raises(ValueError):
            Custom.from_table([0.0, 1.0, 2.0, 3.0], [1.0, -1.0, 1.0, 1.0])


class TestMixture:
    def test_mean_is_weighted_average(self):
        mix = mixture([Beta(1.0, 2.0), Beta(2.0, 1.0)], [0.25, 0.75])
        # m1 = 0.25 * 0.4 + 0.75 * 0.6 = 0.55
        assert abs(mix.moments().m1 - 0.55) < 1e-13

    def test_variance_superadditivity(self):
        """var(mix) - sum w_i var_i = sum w_i (m1_i - m1_mix)^2 >= 0,
        vanishing exactly when the component means coincide."""
        a, b = Beta(1.0, 2.0), Beta(2.0, 1.0)
        w = np.array([0.5, 0.5])
        mix = mixture([a, b], w)
        avg = float(w @ [a.moments().variance, b.moments().variance])
        spread = mix.moments().variance - avg
        means = np.array([a.moments().m1, b.moments().m1])
        expect = float(w @ (means - float(w @ means)) ** 2)
        assert spread >= 0.0
        assert abs(spread - expect) < 1e-13

        c, d = Beta(1.0, 1.0), Beta(2.0, 2.0)  # both have mean 1/2
        mix2 = mixture([c, d], [0.5, 0.5])
        avg2 = 0.5 * (c.moments().variance + d.moments().variance)
        assert abs(mix2.moments().variance - avg2) < 1e-13

    def test_mixture_pdf_is_convex_combination(self):
        a, b = Beta(1.0, 2.0), Beta(2.0, 1.0)
        mix = mixture([a, b], [0.3, 0.7])
        x = np.linspace(0.05, 0.95, 11)
        np.testing.assert_allclose(mix.pdf(x),
                                   0.3 * a.pdf(x) + 0.7 * b.pdf(x),
                                   rtol=1e-13)

    def test_mixture_cdf_closed(self):
        mix = mixture([Beta(0.0, 0.0), Beta(1.0, 1.0)], [0.5, 0.5])
        x = np.linspace(0.0, 1.0, 50)
        c = mix.cdf(x)
        assert np.all(np.diff(c) >= -1e-13)
        assert abs(mix.cdf(1.0) - 1.0) < 1e-13

    def test_weight_validation(self):
        with pytest.raises(BadWeights):
            mixture([Beta(1.0, 1.0)], [0.5, 0.5])
        with pytest.raises(BadWeights):
            mixture([Beta(1.0, 1.0), Beta(2.0, 2.0)], [0.7, 0.7])
        with pytest.raises(BadWeights):
            mixture([Beta(1.0, 1.0), Beta(2.0, 2.0)], [-0.5, 1.5])
        with pytest.raises(BadWeights):
            mixture([], [])

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatch):
            mixture([Beta(1.0, 1.0), Gamma(1.0)], [0.5, 0.5])

    def test_is_custom(self):
        mix = mixture([Beta(1.0, 1.0), Beta(2.0, 2.0)], [0.5, 0.5])
        assert isinstance(mix, Mixture) and isinstance(mix, Custom)

    def test_mass_lies_where_the_first_component_puts_it(self):
        g1, g2 = Gamma(2.0), Gamma(5.0)
        mix = mixture([g1, g2], [0.4, 0.6])
        assert mix.bulk() == g1.bulk() == (3.0, math.sqrt(3.0) + 1.0)
        assert mix.support == g1.support

    def test_quadrature_starts_at_every_component_knot(self):
        """A mixture of tables integrates knot by knot over the union of
        its components' knots, so both moment routes agree to roundoff."""
        x1, x2 = np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 13)
        a = Custom.from_table(x1, 1.0 + 0.5 * np.sin(7.0 * x1), rescale=True)
        b = Custom.from_table(x2, 1.0 + 0.3 * np.cos(5.0 * x2), rescale=True)
        mix = mixture([a, b], [0.3, 0.7])
        assert mix.breakpoints() == tuple(np.union1d(x1[1:-1], x2[1:-1]))
        assert abs(mix.moments_quadrature().m1 - mix.moments().m1) <= 1e-15


class TestParseSpec:
    def test_catalog_kinds_and_aliases(self):
        for kind, cls in [("beta", Beta), ("Beta", Beta), ("BETA", Beta),
                          ("jacobi", Jacobi), ("gamma", Gamma),
                          ("normal", Normal),
                          ("studentcauchy", StudentCauchy),
                          ("student_cauchy", StudentCauchy),
                          ("student", StudentCauchy),
                          ("inversegamma", InverseGamma),
                          ("inverse-gamma", InverseGamma),
                          ("reciprocalgamma", InverseGamma),
                          ("fishersnedecor", FisherSnedecor),
                          ("fisher", FisherSnedecor),
                          ("ou", Normal), ("Ornstein-Uhlenbeck", Normal),
                          ("cir", Gamma), ("cauchy", StudentCauchy),
                          ("f", FisherSnedecor), ("hypergeometric", Beta),
                          ("hyperexponential", Hyperexponential),
                          ("cubicpearson", CubicPearson)]:
            doc = {"kind": kind, "params": _defaults_for(cls)}
            assert isinstance(parse_spec(doc), cls), kind

    def test_param_values_applied(self):
        spec = parse_spec({"kind": "beta",
                           "params": {"alpha": 1.0, "beta": 2.0}})
        assert spec.params == {"alpha": 1.0, "beta": 2.0}

    def test_infinite_bounds_as_strings(self):
        spec = parse_spec({"kind": "normal", "params": {},
                           "support": ["-inf", "inf"]})
        assert spec.support == Support(-math.inf, math.inf)

    def test_support_override_narrows_the_family(self):
        doc = {"kind": "normal", "params": {"x0": 0.0, "sigma": 1.0},
               "support": [-8.0, 8.0]}
        spec = parse_spec(doc)
        assert isinstance(spec, Normal)
        assert spec.support == Support(-8.0, 8.0)
        assert abs(spec.moments().m1) < 1e-10
        assert spec.default_sigma_hat_sq_half() == 1.0

    def test_support_override_keeps_the_mass_check(self):
        doc = {"kind": "normal", "params": {"x0": 0.0, "sigma": 1.0},
               "support": [-1.0, 8.0]}
        with pytest.raises(NotNormalized):
            parse_spec(doc)

    def test_custom_from_arrays(self):
        pts = list(np.linspace(0.0, 1.0, 9))
        doc = {"kind": "custom", "grid": pts, "pdf": [1.0] * 9}
        spec = parse_spec(doc)
        assert isinstance(spec, Custom)
        assert spec.support == Support(0.0, 1.0)

    def test_error_taxonomy(self):
        bad = [
            {},  # no kind
            {"kind": 3},
            {"kind": "nosuchfamily"},
            {"kind": "beta", "params": {"alpha": 1.0, "gamma": 2.0}},
            {"kind": "beta", "params": {"alpha": "one", "beta": 1.0}},
            {"kind": "beta", "params": {"alpha": True, "beta": 1.0}},
            {"kind": "beta", "params": {"alpha": None, "beta": 1.0}},
            {"kind": "beta", "params": {"alpha": [2.0], "beta": 1.0}},
            {"kind": "beta", "params": "alpha=1"},
            {"kind": "beta", "params": {"alpha": 1.0}},  # missing beta
            {"kind": "beta", "params": {"alpha": 1.0, "beta": 1.0},
             "support": [0.0]},
            {"kind": "beta", "params": {"alpha": 1.0, "beta": 1.0},
             "support": ["zero", 1.0]},
            {"kind": "custom", "grid": [0.0, 1.0]},  # missing pdf
            {"kind": "custom", "grid": [0.0, 0.5, 1.0],
             "pdf": [1.0, 1.0, 1.0]},  # table too short
        ]
        for doc in bad:
            with pytest.raises(SpecFileError):
                parse_spec(doc)
        with pytest.raises(SpecFileError):
            parse_spec(["kind", "beta"])

    def test_extra_top_level_keys_ignored(self):
        spec = parse_spec({"kind": "beta",
                           "params": {"alpha": 1.0, "beta": 1.0},
                           "sim": {"dt": 0.01}, "note": "x"})
        assert isinstance(spec, Beta)


class TestLoadSpec:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"kind": "gamma", "params": {"alpha": 1.0}}))
        spec = load_spec(str(p))
        assert isinstance(spec, Gamma)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecFileError):
            load_spec(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(SpecFileError):
            load_spec(str(p))


class TestReadJson:
    def test_document_of_any_shape(self, tmp_path):
        p = tmp_path / "rows.json"
        p.write_text(json.dumps([{"name": "gamma"}, 2.5]))
        assert read_json(str(p)) == [{"name": "gamma"}, 2.5]

    def test_unreadable_or_malformed_files(self, tmp_path):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe[")
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2")
        for path in (tmp_path / "nope.json", tmp_path, bad, binary):
            with pytest.raises(SpecFileError):
                read_json(str(path))


def _defaults_for(cls):
    return {
        Beta: {"alpha": 1.0, "beta": 1.0},
        Jacobi: {"alpha": 1.0, "beta": 1.0},
        Gamma: {"alpha": 1.0},
        Normal: {"x0": 0.0, "sigma": 1.0},
        StudentCauchy: {"alpha": 3.0},
        InverseGamma: {"alpha": 3.0},
        FisherSnedecor: {"nu1": 6.0, "nu2": 10.0},
        Hyperexponential: {"p1": 0.5, "p2": 0.5, "eta1": 1.0, "eta2": 2.0},
        CubicPearson: {"alpha": 1.0, "beta": 2.0, "a": 0.5},
    }[cls]
