"""Tests for the distribution catalog, custom densities, mixtures, and the
JSON spec-file parser.

Closed-form moments are cross-checked against the independent quadrature
route; hand-computed literals pin the conventions (exponent parametrization,
normalizers) so a silent reparametrization cannot pass.
"""

import json
import math

import numpy as np
import pytest
from scipy.special import betainc

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
