"""Stationary density catalog.

Each spec owns a normalized pdf on a fixed support, a cdf (closed form where
one exists, quadrature otherwise), first and second moments through both a
closed route and an independent quadrature route, and, where available, the
closed shape of the rate-optimal diffusion coefficient (per unit relaxation
rate). Construction verifies unit mass to 1e-8; a mixture's mass is that of
its normalized components.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import betainc, erf, gammainc, gammaincc, xlog1py, xlogy

from . import numerics
from .errors import (
    BadWeights,
    MomentDivergence,
    NotNormalized,
    OutOfSupport,
    ParamOutOfRange,
    SpecFileError,
    SupportMismatch,
)

_MASS_TOL = 1e-8


def _lnbeta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


@dataclass(frozen=True)
class Support:
    lower: float
    upper: float

    def __post_init__(self):
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError("support bounds must not be NaN")
        if not self.lower < self.upper:
            raise ValueError("support needs lower < upper")

    @property
    def finite(self) -> bool:
        return math.isfinite(self.lower) and math.isfinite(self.upper)

    def contains(self, x) -> bool:
        return bool(np.all(np.asarray(x) >= self.lower)
                    and np.all(np.asarray(x) <= self.upper))


@dataclass(frozen=True)
class MomentSummary:
    m1: float
    m2: float
    variance: float

    @classmethod
    def from_raw(cls, m1, m2):
        return cls(m1=float(m1), m2=float(m2), variance=float(m2) - float(m1) ** 2)


class DistributionSpec:
    """Base class; subclasses fill kind, params, support and the density.

    A closed family gives its log density, _log_pdf: a log kernel plus the
    constant _log_norm, with a power written through xlogy or xlog1py, so
    that a zero exponent at an end reads 0 log 0 = 0 and a pole +inf, with
    no numpy warning. _pdf is its exp, so a density whose powers overflow
    a float on their own (Gamma(150) near its mode) stays finite. A density
    that is a sum (the Hyperexponential, a mixture, a table) gives _pdf.
    """

    kind = "Custom"

    # flags for integrable endpoint singularities of the pdf
    singular_left = False
    singular_right = False
    _window = None  # truncated_support(), once searched

    def __repr__(self):
        inner = ", ".join("%s=%g" % kv for kv in self.params.items())
        return "%s(%s)" % (self.kind, inner)

    # --- evaluation -------------------------------------------------------

    def _log_pdf(self, x):
        raise NotImplementedError

    def _pdf(self, x):
        return np.exp(self._log_pdf(x))

    def pdf(self, x):
        arr = np.asarray(x, dtype=float)
        if np.any(arr < self.support.lower) or np.any(arr > self.support.upper):
            raise OutOfSupport(
                "point outside support [%g, %g]" % (self.support.lower,
                                                    self.support.upper))
        out = self._pdf(arr)
        return float(out) if arr.ndim == 0 else out

    def _cdf(self, x):
        return None  # closed form unavailable

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        fin = np.atleast_1d(arr)
        fin = fin[np.isfinite(fin)]
        if np.any(fin < self.support.lower) or np.any(fin > self.support.upper):
            raise OutOfSupport("point outside support")
        closed = self._cdf(arr)
        if closed is not None:
            out = np.clip(closed, 0.0, 1.0)
            return float(out) if arr.ndim == 0 else out
        flat = np.atleast_1d(arr)
        out = np.array([self._cdf_quad(t) for t in flat])
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    def _cdf_quad(self, x):
        lo, hi = self.support.lower, self.support.upper
        if x <= lo:
            return 0.0
        if x >= hi:
            return 1.0
        # right of the bulk, 1 minus the tail from x: a finite range from
        # the left end is one piece, whose first panels can miss the mass
        c0, s = self.bulk()
        if self.support.finite or x <= c0 + (s if math.isfinite(lo) else 0.0):
            return min(max(self._integral(np.ones_like, lo, x), 0.0), 1.0)
        return min(max(1.0 - self._integral(np.ones_like, x, hi), 0.0), 1.0)

    # --- moments ----------------------------------------------------------

    def _closed_moments(self):
        return None  # (m1, m2) where available

    def moments(self) -> MomentSummary:
        closed = self._closed_moments()
        if closed is not None:
            return MomentSummary.from_raw(*closed)
        return self.moments_quadrature()

    def moments_quadrature(self) -> MomentSummary:
        """Independent quadrature route for m1 and m2."""
        m1 = self._integral(lambda x: x)
        m2 = self._integral(lambda x: x * x)
        return MomentSummary.from_raw(m1, m2)

    # --- quadrature helpers -----------------------------------------------

    def bulk(self):
        """(centre, length scale) of where the density's mass lies: the
        support cut, the quadrature splits and the infinite-range map all
        start from it. A finite support gives its midpoint and a quarter of
        its width."""
        s = self.support
        if s.finite:
            return 0.5 * (s.lower + s.upper), 0.25 * (s.upper - s.lower)
        return 0.0, 1.0

    def breakpoints(self):
        """Points inside the support where the pdf is only piecewise smooth
        (the knots of a table) or where its length scale changes (the
        decay lengths of a Hyperexponential's two rates, and a geometric
        ladder between them): the density's quadrature and the V table
        start with one panel per piece."""
        return ()

    def truncated_support(self):
        """Finite window holding all but ~1e-14 of the density's peak scale.

        The search runs once per density, on the first call; the grids, the
        positivity check, the V table and the sampler all read its result.
        """
        if self._window is None:
            self._window = numerics.truncated_interval(
                self._pdf, self.support.lower, self.support.upper,
                *self.bulk())
        return self._window

    def _integral(self, g, lo=None, hi=None):
        """The integral of g(x) pdf(x) over [lo, hi], the support by default.

        The one split rule of the density's quadrature: an infinite end is
        cut at c0 -+ s of bulk() where that falls inside the range, and the
        tail beyond is mapped at s. The finite core takes the endpoint
        substitution at a singular support end and starts from the
        breakpoints. Each piece converges to 1e-11 of the sum of its
        panels' |integrals|, the density's own scale: no absolute tolerance.
        """
        sup = self.support
        lo = sup.lower if lo is None else lo
        hi = sup.upper if hi is None else hi
        c0, s = self.bulk()
        core_lo = c0 - s if math.isinf(lo) and c0 - s < hi else lo
        core_hi = c0 + s if math.isinf(hi) and lo < c0 + s else hi

        def weighted(x):
            return g(x) * self._pdf(x)

        total = 0.0
        for a, b in ((core_lo, core_hi), (core_hi, hi), (lo, core_lo)):
            if a < b:  # an empty range or piece adds nothing
                finite = math.isfinite(a) and math.isfinite(b)
                total += numerics.integrate(
                    weighted, a, b, tol=0.0, rel_tol=1e-11, scale=s,
                    singular_left=(finite and self.singular_left
                                   and a == sup.lower),
                    singular_right=(finite and self.singular_right
                                    and b == sup.upper),
                    points=self.breakpoints() if finite else ()).value
        return total

    def _check_normalized(self):
        mass = self._integral(np.ones_like)
        if not math.isfinite(mass) or abs(mass - 1.0) > _MASS_TOL:
            raise NotNormalized("density mass is %.12g, not 1" % mass)

    # --- optimal-diffusion hooks -------------------------------------------

    def closed_profile(self):
        """Closed diffusion-coefficient shape per unit rate, or None.

        When available the synthesized optimal process has
        sigma^2(x)/2 = lambda1 * p(x), and this returns p, a closed form of
        V(x)/pi(x) that divides no density values, so it stays finite where
        exp(_log_pdf) underflows: a float when the shape is constant, else
        a callable written as arithmetic on its argument, so that a Python
        float and a float array give the same value bit for bit. The
        sampler calls it at every step, so constants of the shape are
        computed once, outside the callable. A callable that returns a
        numpy scalar for a float (it calls numpy functions, as the
        Hyperexponential's does) is walked path by path only for few paths.
        """
        return None

    def default_sigma_hat_sq_half(self) -> float:
        return self.moments().variance


class Beta(DistributionSpec):
    """Density x^alpha (1-x)^beta / B(alpha+1, beta+1) on [0, 1]."""

    kind = "Beta"

    def __init__(self, alpha, beta):
        alpha = float(alpha)
        beta = float(beta)
        if not (alpha > -1.0 and beta > -1.0):
            raise ParamOutOfRange("need alpha > -1 and beta > -1")
        self.params = {"alpha": alpha, "beta": beta}
        self.support = Support(0.0, 1.0)
        self._log_norm = -_lnbeta(alpha + 1.0, beta + 1.0)
        self.singular_left = alpha < 0.0
        self.singular_right = beta < 0.0
        self._check_normalized()

    def _log_pdf(self, x):
        return (xlogy(self.params["alpha"], x)
                + xlog1py(self.params["beta"], -x) + self._log_norm)

    def _cdf(self, x):
        return betainc(self.params["alpha"] + 1.0, self.params["beta"] + 1.0,
                       np.clip(x, 0.0, 1.0))

    def _closed_moments(self):
        a = self.params["alpha"]
        b = self.params["beta"]
        m1 = (a + 1.0) / (a + b + 2.0)
        m2 = (a + 1.0) * (a + 2.0) / ((a + b + 2.0) * (a + b + 3.0))
        return m1, m2

    def closed_profile(self):
        c = self.params["alpha"] + self.params["beta"] + 2.0
        return lambda x: x * (1.0 - x) / c

    def default_sigma_hat_sq_half(self):
        a = self.params["alpha"]
        b = self.params["beta"]
        return (a + 1.0) * (b + 1.0) / ((a + b + 3.0) * (a + b + 2.0))


class Jacobi(DistributionSpec):
    """Density (1-x)^alpha (1+x)^beta on [-1, 1], normalized."""

    kind = "Jacobi"

    def __init__(self, alpha, beta):
        alpha = float(alpha)
        beta = float(beta)
        if not (alpha > -1.0 and beta > -1.0):
            raise ParamOutOfRange("need alpha > -1 and beta > -1")
        self.params = {"alpha": alpha, "beta": beta}
        self.support = Support(-1.0, 1.0)
        self._log_norm = (-(alpha + beta + 1.0) * math.log(2.0)
                          - _lnbeta(alpha + 1.0, beta + 1.0))
        self.singular_left = beta < 0.0
        self.singular_right = alpha < 0.0
        self._check_normalized()

    def _log_pdf(self, x):
        return (xlog1py(self.params["alpha"], -x)
                + xlog1py(self.params["beta"], x) + self._log_norm)

    def _cdf(self, x):
        # (1+X)/2 is Beta-distributed with parameters (beta+1, alpha+1)
        return betainc(self.params["beta"] + 1.0, self.params["alpha"] + 1.0,
                       np.clip(0.5 * (1.0 + x), 0.0, 1.0))

    def _closed_moments(self):
        a = self.params["alpha"]
        b = self.params["beta"]
        m1 = (b - a) / (a + b + 2.0)
        var = 4.0 * (a + 1.0) * (b + 1.0) / ((a + b + 2.0) ** 2 * (a + b + 3.0))
        return m1, var + m1 * m1

    def closed_profile(self):
        c = self.params["alpha"] + self.params["beta"] + 2.0
        return lambda x: (1.0 - x * x) / c

    def default_sigma_hat_sq_half(self):
        a = self.params["alpha"]
        b = self.params["beta"]
        return 4.0 * (a + 1.0) * (b + 1.0) / ((a + b + 3.0) * (a + b + 2.0))


class Gamma(DistributionSpec):
    """Density x^alpha e^-x / Gamma(alpha+1) on [0, inf)."""

    kind = "Gamma"

    def __init__(self, alpha):
        alpha = float(alpha)
        if not alpha > -1.0:
            raise ParamOutOfRange("need alpha > -1")
        self.params = {"alpha": alpha}
        self.support = Support(0.0, math.inf)
        self._log_norm = -math.lgamma(alpha + 1.0)
        self.singular_left = alpha < 0.0
        self._check_normalized()

    def _log_pdf(self, x):
        return xlogy(self.params["alpha"], x) - x + self._log_norm

    def _cdf(self, x):
        return gammainc(self.params["alpha"] + 1.0,
                        np.clip(x, 0.0, None))

    def _closed_moments(self):
        a = self.params["alpha"]
        return a + 1.0, (a + 1.0) * (a + 2.0)

    def closed_profile(self):
        return lambda x: x * 1.0

    def default_sigma_hat_sq_half(self):
        return self.params["alpha"] + 1.0

    def bulk(self):
        a = self.params["alpha"]
        return a + 1.0, math.sqrt(a + 1.0) + 1.0


class Normal(DistributionSpec):
    """Gaussian with mean x0 and standard deviation sigma."""

    kind = "Normal"

    def __init__(self, x0=0.0, sigma=1.0):
        x0 = float(x0)
        sigma = float(sigma)
        if not sigma > 0.0:
            raise ParamOutOfRange("need sigma > 0")
        self.params = {"x0": x0, "sigma": sigma}
        self.support = Support(-math.inf, math.inf)
        self._log_norm = -math.log(sigma * math.sqrt(2.0 * math.pi))
        self._check_normalized()

    def _log_pdf(self, x):
        z = (x - self.params["x0"]) / self.params["sigma"]
        return -0.5 * z * z + self._log_norm

    def _cdf(self, x):
        x0 = self.params["x0"]
        s = self.params["sigma"]
        return 0.5 * (1.0 + erf((np.asarray(x, float) - x0) / (s * math.sqrt(2.0))))

    def _closed_moments(self):
        x0 = self.params["x0"]
        s = self.params["sigma"]
        return x0, x0 * x0 + s * s

    def closed_profile(self):
        return self.params["sigma"] ** 2

    def default_sigma_hat_sq_half(self):
        return self.params["sigma"] ** 2

    def bulk(self):
        return self.params["x0"], self.params["sigma"]


class StudentCauchy(DistributionSpec):
    """Density (1+x^2)^-(alpha+1/2) / B(alpha, 1/2) on the line, alpha >= 2."""

    kind = "StudentCauchy"

    def __init__(self, alpha):
        alpha = float(alpha)
        if not alpha >= 2.0:
            raise ParamOutOfRange("need alpha >= 2")
        self.params = {"alpha": alpha}
        self.support = Support(-math.inf, math.inf)
        self._log_norm = -_lnbeta(alpha, 0.5)
        self._check_normalized()

    def _log_pdf(self, x):
        return -(self.params["alpha"] + 0.5) * np.log1p(x * x) + self._log_norm

    def _cdf(self, x):
        a = self.params["alpha"]
        x = np.asarray(x, float)
        tail = 0.5 * betainc(a, 0.5, 1.0 / (1.0 + x * x))
        return np.where(x >= 0.0, 1.0 - tail, tail)

    def _closed_moments(self):
        a = self.params["alpha"]
        return 0.0, 1.0 / (2.0 * (a - 1.0))

    def closed_profile(self):
        c = 2.0 * self.params["alpha"] - 1.0
        return lambda x: (1.0 + x * x) / c

    def default_sigma_hat_sq_half(self):
        a = self.params["alpha"]
        return (2.0 * a - 1.0) / (2.0 * (a - 1.0))

    def bulk(self):
        return 0.0, 2.0


class InverseGamma(DistributionSpec):
    """Density x^-(2 alpha + 1) e^(-1/x) / Gamma(2 alpha) on (0, inf)."""

    kind = "InverseGamma"

    def __init__(self, alpha):
        alpha = float(alpha)
        if not alpha >= 2.0:
            raise ParamOutOfRange("need alpha >= 2")
        self.params = {"alpha": alpha}
        self.support = Support(0.0, math.inf)
        self._log_norm = -math.lgamma(2.0 * alpha)
        self._check_normalized()

    def _log_pdf(self, x):
        # the density tends to 0 at x = 0, where its log terms are inf - inf
        inside = x > 0.0
        s = np.where(inside, x, 1.0)
        kernel = -(2.0 * self.params["alpha"] + 1.0) * np.log(s) - 1.0 / s
        return np.where(inside, kernel, -math.inf) + self._log_norm

    def _cdf(self, x):
        a = self.params["alpha"]
        x = np.asarray(x, float)
        with np.errstate(divide="ignore"):
            inv = np.where(x > 0.0, 1.0 / np.where(x > 0.0, x, 1.0), np.inf)
        return gammaincc(2.0 * a, inv)

    def _closed_moments(self):
        a = self.params["alpha"]
        m1 = 1.0 / (2.0 * a - 1.0)
        m2 = 1.0 / ((2.0 * a - 1.0) * (2.0 * a - 2.0))
        return m1, m2

    def closed_profile(self):
        c = 2.0 * self.params["alpha"] - 1.0
        return lambda x: x * x / c

    def default_sigma_hat_sq_half(self):
        a = self.params["alpha"]
        return 1.0 / (2.0 * (a - 1.0) * (2.0 * a - 1.0))

    def bulk(self):
        m1 = 1.0 / (2.0 * self.params["alpha"] - 1.0)
        return m1, m1


class FisherSnedecor(DistributionSpec):
    """F-density with nu1, nu2 degrees of freedom on (0, inf)."""

    kind = "FisherSnedecor"

    def __init__(self, nu1, nu2):
        nu1 = float(nu1)
        nu2 = float(nu2)
        if not (nu1 > 0.0 and nu2 > 0.0):
            raise ParamOutOfRange("need nu1 > 0 and nu2 > 0")
        self.params = {"nu1": nu1, "nu2": nu2}
        self.support = Support(0.0, math.inf)
        self._log_norm = (0.5 * nu1 * (math.log(nu1) - math.log(nu2))
                          - _lnbeta(0.5 * nu1, 0.5 * nu2))
        self.singular_left = nu1 < 2.0
        self._check_normalized()

    def _log_pdf(self, x):
        n1 = self.params["nu1"]
        n2 = self.params["nu2"]
        return (xlogy(0.5 * n1 - 1.0, x)
                - xlog1py(0.5 * (n1 + n2), n1 * x / n2)
                + self._log_norm)

    def _cdf(self, x):
        n1 = self.params["nu1"]
        n2 = self.params["nu2"]
        x = np.clip(np.asarray(x, float), 0.0, None)
        with np.errstate(invalid="ignore"):
            z = np.where(np.isinf(x), 1.0, n1 * x / (n2 + n1 * x))
        return betainc(0.5 * n1, 0.5 * n2, z)

    def _closed_moments(self):
        n1 = self.params["nu1"]
        n2 = self.params["nu2"]
        if n2 <= 4.0:
            raise MomentDivergence("second moment needs nu2 > 4")
        m1 = n2 / (n2 - 2.0)
        m2 = n2 * n2 * (n1 + 2.0) / (n1 * (n2 - 2.0) * (n2 - 4.0))
        return m1, m2

    def closed_profile(self):
        n1 = self.params["nu1"]
        n2 = self.params["nu2"]
        if n2 <= 2.0:
            return None
        ratio, scale = n1 / n2, 2.0 * n2 / (n1 * (n2 - 2.0))
        return lambda x: (x + ratio * x * x) * scale

    def default_sigma_hat_sq_half(self):
        n1 = self.params["nu1"]
        n2 = self.params["nu2"]
        if n2 <= 4.0:
            raise MomentDivergence("mean diffusion level needs nu2 > 4")
        return n2 * (n1 + n2 - 2.0) / ((n2 - 2.0) * (n2 - 4.0))

    def bulk(self):
        n2 = self.params["nu2"]
        c0 = n2 / (n2 - 2.0) if n2 > 2.0 else 1.0
        return c0, max(1.0, 2.0 * c0)


class Hyperexponential(DistributionSpec):
    """Mixture of two exponentials: p1 eta1 e^(-eta1 x) + p2 eta2 e^(-eta2 x)."""

    kind = "Hyperexponential"

    def __init__(self, p1, p2, eta1, eta2):
        p1 = float(p1)
        p2 = float(p2)
        eta1 = float(eta1)
        eta2 = float(eta2)
        if not (p1 >= 0.0 and p2 >= 0.0):
            raise ParamOutOfRange("need p1, p2 >= 0")
        if abs(p1 + p2 - 1.0) > 1e-12:
            raise ParamOutOfRange("need p1 + p2 = 1")
        if not (eta1 > 0.0 and eta2 > 0.0):
            raise ParamOutOfRange("need eta1, eta2 > 0")
        self.params = {"p1": p1, "p2": p2, "eta1": eta1, "eta2": eta2}
        self.support = Support(0.0, math.inf)
        self._check_normalized()

    def _pdf(self, x):
        p1, p2, e1, e2 = (self.params[k] for k in ("p1", "p2", "eta1", "eta2"))
        x = np.asarray(x, float)
        return p1 * e1 * np.exp(-e1 * x) + p2 * e2 * np.exp(-e2 * x)

    def _cdf(self, x):
        p1, p2, e1, e2 = (self.params[k] for k in ("p1", "p2", "eta1", "eta2"))
        x = np.asarray(x, float)
        return 1.0 - p1 * np.exp(-e1 * x) - p2 * np.exp(-e2 * x)

    def _closed_moments(self):
        p1, p2, e1, e2 = (self.params[k] for k in ("p1", "p2", "eta1", "eta2"))
        m1 = p1 / e1 + p2 / e2
        m2 = 2.0 * (p1 / e1 ** 2 + p2 / e2 ** 2)
        return m1, m2

    def closed_profile(self):
        p1, p2, e1, e2 = (self.params[k] for k in ("p1", "p2", "eta1", "eta2"))
        emin = min(e1, e2)

        def profile(x):
            # V(x)/pi(x) with V the integral of (m1 - z) pi(z) dz from 0 to x
            # in closed form; both share a factor exp(-emin x), divided out so
            # the ratio stays finite deep in the tail. V is
            # x (p1 w1 + p2 w2) + p1 p2 (1/e1 - 1/e2) (w1 - w2), with w1 - w2
            # from expm1 so that it keeps its digits near x = 0
            w1 = np.exp(-(e1 - emin) * x)
            w2 = np.exp(-(e2 - emin) * x)
            dw = np.expm1(-(e1 - emin) * x) - np.expm1(-(e2 - emin) * x)
            v = (x * (p1 * w1 + p2 * w2)
                 + p1 * p2 * (1.0 / e1 - 1.0 / e2) * dw)
            return v / (p1 * e1 * w1 + p2 * e2 * w2)

        return profile

    def bulk(self):
        p1, p2, e1, e2 = (self.params[k] for k in ("p1", "p2", "eta1", "eta2"))
        return p1 / e1 + p2 / e2, 1.0 / min(e1, e2)

    def breakpoints(self):
        # both decay lengths and a geometric ladder between them, each rung
        # at most 4 times the last, so that a fast rate's mass near 0 is not
        # lost in panels sized for the slow one
        short, long_ = sorted((1.0 / self.params["eta1"],
                               1.0 / self.params["eta2"]))
        rungs = math.ceil(math.log(long_ / short) / math.log(4.0))
        return tuple(np.geomspace(short, long_, rungs + 1).tolist())


class CubicPearson(DistributionSpec):
    """Density ~ x^(alpha-1) (1-x)^(beta-1) (1-a x)^-(alpha+beta+1) on [0, 1].

    The normalizer and the closed moments are Gauss hypergeometric values;
    the quadrature route stays fully independent of them.
    """

    kind = "CubicPearson"

    def __init__(self, alpha, beta, a):
        alpha = float(alpha)
        beta = float(beta)
        a = float(a)
        if not (alpha > 0.0 and beta > 0.0):
            raise ParamOutOfRange("need alpha > 0 and beta > 0")
        if not abs(a) < 1.0:
            raise ParamOutOfRange("need |a| < 1")
        self.params = {"alpha": alpha, "beta": beta, "a": a}
        self.support = Support(0.0, 1.0)
        self._norm_f = numerics.hyp2f1(alpha + beta + 1.0, alpha,
                                       alpha + beta, a)
        self._ln_b = _lnbeta(alpha, beta)
        self._log_norm = -self._ln_b - math.log(self._norm_f)
        self.singular_left = alpha < 1.0
        self.singular_right = beta < 1.0
        self._check_normalized()

    def _log_pdf(self, x):
        al = self.params["alpha"]
        be = self.params["beta"]
        return (xlogy(al - 1.0, x) + xlog1py(be - 1.0, -x)
                - xlog1py(al + be + 1.0, -self.params["a"] * x)
                + self._log_norm)

    def _closed_moments(self):
        al = self.params["alpha"]
        be = self.params["beta"]
        a = self.params["a"]
        m1 = (math.exp(_lnbeta(al + 1.0, be) - self._ln_b)
              * numerics.hyp2f1(al + be + 1.0, al + 1.0, al + be + 1.0, a)
              / self._norm_f)
        m2 = (math.exp(_lnbeta(al + 2.0, be) - self._ln_b)
              * numerics.hyp2f1(al + be + 1.0, al + 2.0, al + be + 2.0, a)
              / self._norm_f)
        return m1, m2

    def closed_profile(self):
        al = self.params["alpha"]
        be = self.params["beta"]
        a = self.params["a"]
        rate = al + be * (1.0 - a)

        def profile(x):
            return x * (1.0 - x) * (1.0 - a * x) / rate

        return profile

    def default_sigma_hat_sq_half(self):
        al = self.params["alpha"]
        be = self.params["beta"]
        a = self.params["a"]
        return (math.exp(_lnbeta(al + 1.0, be + 1.0) - self._ln_b)
                * numerics.hyp2f1(al + be, al + 1.0, al + be + 2.0, a)
                / self._norm_f)


class Custom(DistributionSpec):
    """Density given as a callable or a table on an explicit support."""

    kind = "Custom"

    def __init__(self, pdf, support: Support, *, knots=()):
        if not callable(pdf):
            raise ValueError("pdf must be callable")
        if not isinstance(support, Support):
            lo, hi = support
            support = Support(float(lo), float(hi))
        self.params = {}
        self.support = support
        self._pdf_fn = pdf
        self._knots = tuple(float(k) for k in knots)
        self._check_normalized()

    @classmethod
    def from_table(cls, points, values, *, rescale=False):
        """Monotone-cubic interpolant of tabulated nonnegative samples."""
        pts = np.asarray(points, dtype=float)
        vals = np.asarray(values, dtype=float)
        if pts.ndim != 1 or pts.shape != vals.shape or pts.size < 4:
            raise ValueError("need matching 1-d arrays of at least 4 samples")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise ValueError("pdf samples must be finite and nonnegative")
        interp = PchipInterpolator(pts, vals)
        if rescale:
            mass = float(interp.integrate(pts[0], pts[-1]))
            if mass <= 0:
                raise ValueError("table has zero mass")
            interp = PchipInterpolator(pts, vals / mass)
        return cls(interp, Support(float(pts[0]), float(pts[-1])),
                   knots=pts[1:-1])

    def _pdf(self, x):
        return np.asarray(self._pdf_fn(np.asarray(x, float)), dtype=float)

    def breakpoints(self):
        return self._knots


class Mixture(Custom):
    """Convex combination of specs sharing one support; behaves as Custom.

    Its mass is that of its normalized components, so it is not checked; its
    mass lies where the first component's does.
    """

    def __init__(self, components, weights):
        self.components = list(components)
        self.weights = np.asarray(weights, dtype=float)
        self.params = {}
        self.support = self.components[0].support

    def _pdf(self, x):
        x = np.asarray(x, float)
        return sum(w * c._pdf(x) for w, c in zip(self.weights, self.components))

    def bulk(self):
        return self.components[0].bulk()

    def breakpoints(self):
        knots = [np.asarray(c.breakpoints(), float) for c in self.components]
        return tuple(np.unique(np.concatenate(knots)).tolist())

    def _cdf(self, x):
        parts = [c._cdf(x) for c in self.components]
        if any(p is None for p in parts):
            return None
        return sum(w * p for w, p in zip(self.weights, parts))

    def _closed_moments(self):
        mom = [c.moments() for c in self.components]
        m1 = float(np.sum(self.weights * np.array([m.m1 for m in mom])))
        m2 = float(np.sum(self.weights * np.array([m.m2 for m in mom])))
        return m1, m2


def mixture(specs, weights) -> Mixture:
    """Convex mixture of distribution specs with a common support."""
    specs = list(specs)
    w = np.asarray(weights, dtype=float)
    if len(specs) == 0 or w.shape != (len(specs),):
        raise BadWeights("need one weight per component")
    if np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-12:
        raise BadWeights("weights must be nonnegative and sum to 1")
    s0 = specs[0].support
    for s in specs[1:]:
        if s.support != s0:
            raise SupportMismatch(
                "components must share one support, got %r vs %r"
                % (s.support, s0))
    return Mixture(specs, w)


# every spelling a density file's "kind" or a table row's "name" may use,
# after kind_class folds case, "_" and "-"
_KINDS = {
    "beta": Beta, "hypergeometric": Beta,
    "jacobi": Jacobi,
    "gamma": Gamma, "cir": Gamma,
    "normal": Normal, "ou": Normal, "ornsteinuhlenbeck": Normal,
    "studentcauchy": StudentCauchy, "student": StudentCauchy,
    "cauchy": StudentCauchy,
    "inversegamma": InverseGamma, "reciprocalgamma": InverseGamma,
    "fishersnedecor": FisherSnedecor, "fisher": FisherSnedecor,
    "f": FisherSnedecor,
    "hyperexponential": Hyperexponential,
    "cubicpearson": CubicPearson,
    "custom": Custom,
}


def kind_class(name):
    """The density class that a kind name or alias selects, or None."""
    return _KINDS.get(name.strip().lower().replace("_", "").replace("-", ""))


def numeric_params(params) -> dict:
    """params as {name: float}; SpecFileError unless a mapping of numbers."""
    if not isinstance(params, dict):
        raise SpecFileError("'params' must be a mapping")
    for name, v in params.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SpecFileError("param %r must be numeric" % name)
    return {str(k): float(v) for k, v in params.items()}


def catalog_spec(cls, params) -> DistributionSpec:
    """Family cls built from a mapping of its named (constructor) params."""
    params = numeric_params(params)
    unknown = set(params) - set(inspect.signature(cls).parameters)
    if unknown:
        raise SpecFileError("unknown params for %s: %s"
                            % (cls.kind, ", ".join(sorted(unknown))))
    try:
        return cls(**params)
    except TypeError as exc:
        raise SpecFileError("missing required params for %s"
                            % cls.kind) from exc


def _parse_bound(v):
    if isinstance(v, str):
        s = v.strip().lower()
        if s in ("inf", "+inf", "infinity"):
            return math.inf
        if s in ("-inf", "-infinity"):
            return -math.inf
        try:
            return float(v)
        except ValueError as exc:
            raise SpecFileError("bad support bound %r" % (v,)) from exc
    if isinstance(v, (int, float)):
        return float(v)
    raise SpecFileError("bad support bound %r" % (v,))


def parse_spec(doc: dict) -> DistributionSpec:
    """Build a spec from a parsed key-value document."""
    if not isinstance(doc, dict):
        raise SpecFileError("spec document must be a mapping")
    kind = doc.get("kind")
    if not isinstance(kind, str):
        raise SpecFileError("missing or non-string 'kind'")
    cls = kind_class(kind)
    support = None
    if "support" in doc:
        raw = doc["support"]
        if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
            raise SpecFileError("'support' must be a [lower, upper] pair")
        support = Support(_parse_bound(raw[0]), _parse_bound(raw[1]))
    if cls is Custom:
        if "grid" not in doc or "pdf" not in doc:
            raise SpecFileError("Custom spec needs 'grid' and 'pdf' arrays")
        try:
            spec = Custom.from_table(doc["grid"], doc["pdf"])
        except ValueError as exc:
            raise SpecFileError(str(exc)) from exc
        if support is not None and (support.lower != spec.support.lower
                                    or support.upper != spec.support.upper):
            raise SpecFileError("declared support does not match the grid")
        return spec
    if cls is None:
        raise SpecFileError("unknown kind %r" % kind)
    spec = catalog_spec(cls, doc.get("params", {}))
    if support is not None:
        # a declared window truncates evaluation; it must keep the full mass
        spec.support = Support(max(support.lower, spec.support.lower),
                               min(support.upper, spec.support.upper))
        spec._check_normalized()
    return spec


def read_json(path):
    """The parsed JSON document in the file at path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecFileError("cannot read %s: %s" % (path, exc)) from exc
    except ValueError as exc:
        raise SpecFileError("invalid JSON in %s: %s" % (path, exc)) from exc


def load_spec(path) -> DistributionSpec:
    """Read a JSON spec file; see parse_spec for the document shape."""
    return parse_spec(read_json(path))
