"""Synthesis of the fastest-relaxing reversible diffusion for a target density.

Given a stationary density pi with mean m1 and variance var, and a prescribed
average diffusion level shalf = mean of sigma^2/2 under pi, the optimal
process has

    lambda1 = shalf / var,
    mu(x) = lambda1 * (m1 - x),
    sigma^2(x)/2 = lambda1 * V(x) / pi(x),   V(x) = int_lo^x (m1 - z) pi dz,

and its slowest mode is the standardized linear function phi1. Catalog
densities carry V/pi in closed form; everything else goes through quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .distributions import DistributionSpec, MomentSummary, mixture
from .errors import DegenerateDistribution, OutOfSupport

_EDGE_EPS = 1e-8  # endpoint clamp, as a fraction of the support width


def phi1_from_moments(m1, m2):
    """Slope and intercept of the standardized linear slow mode."""
    var = m2 - m1 * m1
    if not var > 0.0:
        raise DegenerateDistribution("need m2 > m1^2, got variance %g" % var)
    s = math.sqrt(var)
    return 1.0 / s, -m1 / s


@dataclass(frozen=True)
class OptimalProcess:
    lambda1: float
    tau: float
    phi1: tuple
    drift: tuple
    variance_fn: object
    sigma_hat_sq_half: float
    source: DistributionSpec
    moments: MomentSummary

    def drift_at(self, x):
        a0, a1 = self.drift
        return a0 + a1 * np.asarray(x, float)

    def phi1_at(self, x):
        slope, intercept = self.phi1
        return slope * np.asarray(x, float) + intercept


class _ClosedVariance:
    """sigma^2/2 from a catalog closed shape scaled by lambda1."""

    def __init__(self, profile, lambda1):
        self._profile = profile
        self.lambda1 = lambda1

    def __call__(self, x):
        return self.lambda1 * self._profile(x)


class _QuadratureVariance:
    """sigma^2(x)/2 = lambda1 V(x) / pi(x) with V evaluated by quadrature.

    V is always integrated from the support side nearest to x; by parts the
    two one-sided integrals agree, and the near-side integrand keeps one sign,
    so the ratio V/pi stays relatively accurate deep in the tails where both
    factors underflow together.
    """

    def __init__(self, spec, m1, lambda1):
        self.spec = spec
        self.m1 = m1
        self.lambda1 = lambda1

    def v(self, x):
        x = float(x)
        m1 = self.m1
        pdf = self.spec._pdf
        left = x <= m1
        if left:
            a, b, g = self.spec.support.lower, x, lambda z: (m1 - z) * pdf(z)
        else:
            a, b, g = x, self.spec.support.upper, lambda z: (z - m1) * pdf(z)
        if b <= a:
            return 0.0
        return numerics.integrate(
            g, a, b, tol=1e-300, rel_tol=1e-11,
            singular_left=left and self.spec.singular_left,
            singular_right=not left and self.spec.singular_right).value

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        flat = np.atleast_1d(arr)
        vals = np.array([self.v(t) for t in flat])
        dens = np.atleast_1d(np.asarray(self.spec._pdf(flat), dtype=float))
        with np.errstate(invalid="ignore", divide="ignore"):
            out = self.lambda1 * vals / dens
        # where the density underflows V does too; the true limit is 0
        out = np.where((dens == 0.0) & (vals == 0.0), 0.0, out)
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    def integral_of_v(self, n_cells=8192):
        """integral of V over the (truncated) support by a composite table.

        Cell integrals of (m1-z) pi come from one vectorized Kronrod pass,
        V at the cell edges from their running sum, and the outer integral
        from composite Simpson on the edges. Singular end cells fall back to
        adaptive quadrature with the endpoint substitution.
        """
        a, b = self.spec.truncated_support()
        n = int(n_cells)
        if n % 2:
            n += 1
        edges = np.linspace(a, b, n + 1)
        h = (b - a) / n
        mids = 0.5 * (edges[:-1] + edges[1:])
        nodes = mids[:, None] + 0.5 * h * numerics._XK[None, :]
        f = (self.m1 - nodes) * self.spec._pdf(nodes.ravel()).reshape(nodes.shape)
        cells = 0.5 * h * f @ numerics._WK
        if self.spec.singular_left:
            cells[0] = numerics.integrate(
                lambda z: (self.m1 - z) * self.spec._pdf(z), edges[0], edges[1],
                tol=1e-300, rel_tol=1e-10, singular_left=True).value
        if self.spec.singular_right:
            cells[-1] = numerics.integrate(
                lambda z: (self.m1 - z) * self.spec._pdf(z), edges[-2], edges[-1],
                tol=1e-300, rel_tol=1e-10, singular_right=True).value
        v_edges = np.concatenate([[0.0], np.cumsum(cells)])
        return float(h / 3.0 * (v_edges[0] + v_edges[-1]
                                + 4.0 * np.sum(v_edges[1:-1:2])
                                + 2.0 * np.sum(v_edges[2:-1:2])))


def synthesize(spec: DistributionSpec, sigma_hat_sq_half=None, *,
               variance_mode="auto") -> OptimalProcess:
    """Build the rate-optimal process for spec at the given diffusion budget.

    sigma_hat_sq_half defaults to the density's canonical level (its variance
    for kinds without one). variance_mode picks the sigma^2/2 route: "auto"
    prefers the closed catalog shape, "closed" requires it, "quadrature"
    forces the independent integral route.
    """
    if sigma_hat_sq_half is None:
        sigma_hat_sq_half = spec.default_sigma_hat_sq_half()
    shalf = float(sigma_hat_sq_half)
    if not (shalf > 0.0 and math.isfinite(shalf)):
        raise ValueError("sigma_hat_sq_half must be positive and finite")
    mom = spec.moments()
    if not mom.variance > 0.0:
        raise DegenerateDistribution("density variance %g is not positive"
                                     % mom.variance)
    lam = shalf / mom.variance
    slope, intercept = phi1_from_moments(mom.m1, mom.m2)
    profile = spec.closed_profile() if variance_mode in ("auto", "closed") else None
    if variance_mode == "closed" and profile is None:
        raise ValueError("no closed variance shape for kind %r" % spec.kind)
    if profile is not None:
        variance_fn = _ClosedVariance(profile, lam)
    else:
        variance_fn = _QuadratureVariance(spec, mom.m1, lam)
    return OptimalProcess(
        lambda1=lam,
        tau=1.0 / lam,
        phi1=(slope, intercept),
        drift=(lam * mom.m1, -lam),
        variance_fn=variance_fn,
        sigma_hat_sq_half=shalf,
        source=spec,
        moments=mom,
    )


def variance_at(proc: OptimalProcess, x):
    """sigma^2(x)/2, clamped to an epsilon inset at finite endpoints."""
    arr = np.asarray(x, dtype=float)
    sup = proc.source.support
    if np.any(np.atleast_1d(arr) < sup.lower) or \
            np.any(np.atleast_1d(arr) > sup.upper):
        raise OutOfSupport("point outside support [%g, %g]"
                           % (sup.lower, sup.upper))
    lo, hi = sup.lower, sup.upper
    if math.isfinite(lo) and math.isfinite(hi):
        eps = _EDGE_EPS * (hi - lo)
        lo, hi = lo + eps, hi - eps
    elif math.isfinite(lo):
        lo = lo + _EDGE_EPS * max(1.0, abs(lo))
        hi = math.inf
    elif math.isfinite(hi):
        hi = hi - _EDGE_EPS * max(1.0, abs(hi))
        lo = -math.inf
    out = proc.variance_fn(np.clip(arr, lo, hi))
    return float(out) if arr.ndim == 0 else np.asarray(out)


def verify_detailed_balance(proc: OptimalProcess, grid: numerics.Grid):
    """Max residual of mu pi - d/dx[(sigma^2/2) pi] on the grid (centered)."""
    pts = grid.points
    h = grid.h
    pi = proc.source._pdf(pts)
    g = np.asarray(proc.variance_fn(pts), dtype=float) * pi
    mu = proc.drift_at(pts)
    resid = mu[1:-1] * pi[1:-1] - (g[2:] - g[:-2]) / (2.0 * h)
    return float(np.max(np.abs(resid)))


def check_variance_positivity(proc: OptimalProcess, n_points=64):
    """(all positive?, min value) of sigma^2/2 on interior Chebyshev points."""
    a, b = proc.source.truncated_support()
    pts = numerics.chebyshev_points(a, b, int(n_points))
    vals = np.asarray(proc.variance_fn(pts), dtype=float)
    return bool(np.all(vals > 0.0)), float(np.min(vals))


def check_variance_mean(proc: OptimalProcess):
    """integral of (sigma^2/2) pi over the support; compare to shalf."""
    fn = proc.variance_fn
    if isinstance(fn, _QuadratureVariance):
        # (sigma^2/2) pi == lambda1 V: integrate the table of V, no division
        return fn.lambda1 * fn.integral_of_v()
    return proc.source._integral(lambda x: np.asarray(fn(x), dtype=float),
                                 rel_tol=1e-10)


def mixture_tau_concavity(specs, weights, sigma_hat_sq_half):
    """Relaxation times (mixture, weighted component average) at fixed budget.

    tau = var / shalf, and the mixture variance picks up the spread of the
    component means, so tau_mix >= tau_avg with equality iff all means agree.
    """
    shalf = float(sigma_hat_sq_half)
    if not shalf > 0.0:
        raise ValueError("sigma_hat_sq_half must be positive")
    mix = mixture(specs, weights)
    tau_mix = mix.moments().variance / shalf
    tau_avg = float(sum(w * s.moments().variance
                        for w, s in zip(np.asarray(weights, float), specs))) / shalf
    return tau_mix, tau_avg
