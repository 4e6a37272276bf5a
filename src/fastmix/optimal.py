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
from .errors import DegenerateDistribution, NumericalFailure, OutOfSupport


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
    """sigma^2/2 from a catalog closed shape scaled by lambda1.

    _profile is the density's closed_profile(), a callable of float
    arithmetic, and calls read it. coeffs is the density's
    profile_coeffs(), (p0, p1, p2) or None: the sampler's form of a
    polynomial shape, read only by simulate.
    """

    def __init__(self, profile, lambda1, coeffs=None):
        self._profile = profile
        self.lambda1 = lambda1
        self.coeffs = coeffs

    def __call__(self, x):
        return self.lambda1 * self._profile(np.asarray(x, float))


@dataclass(frozen=True)
class _VTable:
    edges: np.ndarray
    v: np.ndarray     # V at the edges, summed from the near side
    integral: float   # of V over [edges[0], edges[-1]]
    cells: int        # cells between the edges
    splits: int       # cells halved on the way: each took 2 more panels
    evaluations: int  # of (m1 - z) pi by the build: panels plus end cells


class _QuadratureVariance:
    """sigma^2(x)/2 = lambda1 V(x) / pi(x) with V evaluated by quadrature.

    V is always integrated from the support side nearest to x, from the left
    for x <= m1 and from the right above it; by parts the two one-sided
    integrals agree, and the near-side integrand keeps one sign, so the ratio
    V/pi stays relatively accurate deep in the tails where both factors
    underflow together.

    Every call reads V from a table built once, on the first call. It spans
    the support, cut where an infinite end's density falls below 1e-14 of
    its peak. It starts from START_CELLS uniform cells, split at the
    density's breakpoints. At a finite end, where the pdf may be a power of
    the distance (a root or a pole), the first 1/GRADED_SPAN of the table
    is halved GRADING times toward the end instead; the last cell there is
    integrated adaptively with the endpoint substitution. The cells of
    g = (m1 - z) pi come from numerics._kronrod_cells, the adaptive Kronrod
    refinement that numerics.integrate runs too. Every other graded cell
    is frozen there: it takes one 15-point panel, and its estimate is
    dropped. The cells between the graded ends are refined to 1e-11 of the
    cells' summed |integrals|, the density's own tolerance: each round
    evaluates g once on every panel it needs, and halves the cells whose
    error estimate is above an equal share of that target. The target is
    set on the whole table, not on each cell, so a far tail's cells are
    held to the scale of V, not to their own. A non-finite g
    outside an end cell raises NumericalFailure, and a target still unmet
    after the cell budget raises NonConvergence. The running sums of the
    cell integrals from the near side, plus the exact remainder beyond a
    cut end, give V at the cell edges, and V at a point is the value at its
    near edge plus one Kronrod panel over the partial cell. A point beyond
    a cut end takes its tail integral from the support end, and the tails
    beyond the cut ends are the density's own integrals
    (DistributionSpec._integral).

    The graded cells are never halved: at an end b away from 0 they are a
    few ulps wide, so b - u*u rounds onto a few floats, and beside a pole
    their K15 - G7 is that rounding, which halving does not reduce. For the
    same reason an end cell converges to an absolute tolerance at the
    table's own scale: 1e-11 of the summed |integrals| of the cells, about
    the integral of |m1 - z| pi and so the scale of V. A tolerance relative
    to the end cell's own value would make bisection chase that staircase
    for hundreds of panels toward a value far below anything V can
    resolve.
    """

    # from 64 or 128 start cells, no node came near enough to see a mixture
    # component of sd 1e-4 centred on a cell edge, and it was missed
    START_CELLS = 256
    GRADED_SPAN = 4096
    GRADING = 40

    def __init__(self, spec, m1, lambda1):
        self.spec = spec
        self.m1 = m1
        self.lambda1 = lambda1
        self._table = None

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        flat = np.atleast_1d(arr).ravel()
        vals = self._table_v(flat)
        dens = np.atleast_1d(np.asarray(self.spec._pdf(flat), dtype=float))
        with np.errstate(invalid="ignore", divide="ignore"):
            out = self.lambda1 * vals / dens
        # where the density underflows V does too; the true limit is 0
        out = np.where((dens == 0.0) & (vals == 0.0), 0.0, out)
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    # --- the table of V ---------------------------------------------------

    @property
    def table(self) -> _VTable:
        if self._table is None:
            self._table = self._build()
        return self._table

    def _g(self, z):
        return (self.m1 - z) * self.spec._pdf(z.ravel()).reshape(z.shape)

    def _build(self):
        spec, m1 = self.spec, self.m1
        lo, hi = spec.support.lower, spec.support.upper
        cut_lo, cut_hi = spec.truncated_support()
        a = lo if math.isfinite(lo) else cut_lo
        b = hi if math.isfinite(hi) else cut_hi
        knots = np.asarray(spec.breakpoints(), dtype=float)
        edges = np.union1d(np.linspace(a, b, self.START_CELLS + 1),
                           knots[(knots > a) & (knots < b)])
        # a finite end is graded across the first of GRADED_SPAN uniform
        # cells, or up to the nearest knot
        step = (b - a) / self.GRADED_SPAN
        halves = 0.5 ** np.arange(self.GRADING, 0, -1)
        first, last = a, b
        if a == lo:
            first = min(a + step, edges[1])
            edges = np.concatenate([[a], a + (first - a) * halves, [first],
                                    edges[edges > first]])
        if b == hi:
            last = max(a + (self.GRADED_SPAN - 1) * step, edges[-2])
            edges = np.concatenate([edges[edges < last], [last],
                                    b - (b - last) * halves[::-1], [b]])
        edges = np.unique(edges)
        ends = [i for i, at_end in ((0, a == lo), (-1, b == hi)) if at_end]

        # a graded cell takes one panel and is never halved; an end cell
        # sees g at its inner edge, a finite constant, and its own integral
        # at the table's scale replaces it below
        inner = (edges[1] if a == lo else a, edges[-2] if b == hi else b)
        start = edges.size - 1
        c = numerics._kronrod_cells(
            lambda z: self._g(np.clip(z, *inner)), edges, 0.0, 1e-11,
            frozen=(edges[:-1] < first) | (edges[1:] > last))
        left, right, z, f = c.left, c.right, c.nodes, c.values
        edges = np.append(left, right[-1])
        cells = f.sum(axis=1)
        tol = 1e-11 * float(np.sum(np.abs(cells)))
        evaluations = c.evaluations
        for i in ends:
            r = numerics.integrate(
                self._g, left[i], right[i], tol=tol, rel_tol=1e-11,
                singular_left=i == 0, singular_right=i == -1)
            cells[i] = r.value
            evaluations += r.evaluations

        # V at the edges, from the near side: the tail beyond a cut end
        # plus the running sum of the cells
        v = np.where(
            edges <= m1,
            spec._integral(lambda t: m1 - t, lo, a)
            + np.concatenate([[0.0], np.cumsum(cells)]),
            spec._integral(lambda t: t - m1, b, hi)
            - np.concatenate([np.cumsum(cells[::-1])[::-1], [0.0]]))
        # by parts, V over a cell is its width times V at the near edge plus
        # int (right - z) g from the left, int (z - left) (-g) from the right
        int_v = np.where(
            left <= m1,
            (right - left) * v[:-1] + np.sum(f * (right[:, None] - z), 1),
            (right - left) * v[1:] - np.sum(f * (z - left[:, None]), 1))
        return _VTable(edges, v, float(np.sum(int_v)), cells.size,
                       cells.size - start,
                       evaluations)

    def v_integral(self):
        """The integral of V over the support.

        The table gives it over its cells. Beyond a cut end c, V is the
        integral of (z - m1) pi from the far side, so by parts its integral
        there is that of (z - c)(z - m1) pi.
        """
        t, m1, spec = self.table, self.m1, self.spec
        a, b = t.edges[0], t.edges[-1]
        return (t.integral
                + spec._integral(lambda z: (z - a) * (z - m1), None, a)
                + spec._integral(lambda z: (z - b) * (z - m1), b))

    def _tail_v(self, x):
        """V at a point beyond the table, from the support end on its side;
        0 outside the support."""
        m1 = self.m1
        if x <= m1:
            return self.spec._integral(lambda z: m1 - z, None, x)
        return self.spec._integral(lambda z: z - m1, x)

    def _table_v(self, x):
        t = self.table
        out = np.empty_like(x)
        inside = (x >= t.edges[0]) & (x <= t.edges[-1])
        out[~inside] = [self._tail_v(p) for p in x[~inside]]
        xs = x[inside]
        k = np.clip(np.searchsorted(t.edges, xs, side="right") - 1,
                    0, t.edges.size - 2)
        from_left = xs <= self.m1
        lo = np.where(from_left, t.edges[k], xs)
        hi = np.where(from_left, xs, t.edges[k + 1])
        part = np.zeros_like(xs)
        wide = hi > lo
        z, w = numerics.kronrod_panels(lo[wide], hi[wide])
        part[wide] = np.sum(w * self._g(z), axis=1)
        out[inside] = np.where(from_left, t.v[k] + part, t.v[k + 1] - part)
        return out


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
    drift = (lam * mom.m1, -lam)
    if not (math.isfinite(lam) and math.isfinite(drift[0])):
        raise NumericalFailure(
            "lambda1 = budget / variance = %g / %g, or the drift it scales, "
            "overflows" % (shalf, mom.variance))
    slope, intercept = phi1_from_moments(mom.m1, mom.m2)
    profile = spec.closed_profile() if variance_mode in ("auto", "closed") else None
    if variance_mode == "closed" and profile is None:
        raise ValueError("no closed variance shape for kind %r" % spec.kind)
    if profile is not None:
        variance_fn = _ClosedVariance(profile, lam, spec.profile_coeffs())
    else:
        variance_fn = _QuadratureVariance(spec, mom.m1, lam)
    return OptimalProcess(
        lambda1=lam,
        tau=1.0 / lam,
        phi1=(slope, intercept),
        drift=drift,
        variance_fn=variance_fn,
        sigma_hat_sq_half=shalf,
        source=spec,
        moments=mom,
    )


def variance_at(proc: OptimalProcess, x):
    """sigma^2(x)/2 at points of the closed support (0 at a finite end)."""
    arr = np.asarray(x, dtype=float)
    sup = proc.source.support
    if np.any(arr < sup.lower) or np.any(arr > sup.upper):
        raise OutOfSupport("point outside support [%g, %g]"
                           % (sup.lower, sup.upper))
    out = proc.variance_fn(arr)
    return float(out) if arr.ndim == 0 else np.asarray(out)


def verify_detailed_balance(proc: OptimalProcess, grid: numerics.Grid):
    """Max residual of mu pi - d/dx[(sigma^2/2) pi] on the grid (centered).
    A residual that overflows raises NumericalFailure."""
    pts = grid.points
    h = grid.h
    pi = proc.source._pdf(pts)
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.asarray(proc.variance_fn(pts), dtype=float) * pi
        mu = proc.drift_at(pts)
        resid = np.max(np.abs(mu[1:-1] * pi[1:-1]
                              - (g[2:] - g[:-2]) / (2.0 * h)))
    if not math.isfinite(resid):
        raise NumericalFailure("the detailed-balance residual overflows")
    return float(resid)


def check_variance_positivity(proc: OptimalProcess, n_points=64):
    """(all positive?, min value) of sigma^2/2 on interior Chebyshev points."""
    a, b = proc.source.truncated_support()
    pts = numerics.chebyshev_points(a, b, int(n_points))
    vals = np.asarray(proc.variance_fn(pts), dtype=float)
    return bool(np.all(vals > 0.0)), float(np.min(vals))


def check_variance_mean(proc: OptimalProcess):
    """integral of (sigma^2/2) pi over the support; compare to shalf.

    On the quadrature route (sigma^2/2) pi is lambda1 V, so the integral is
    lambda1 times the integral of V, with no division by pi.
    """
    fn = proc.variance_fn
    if isinstance(fn, _QuadratureVariance):
        return fn.lambda1 * fn.v_integral()
    return proc.source._integral(lambda x: np.asarray(fn(x), dtype=float))


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
