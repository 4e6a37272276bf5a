"""Catalog of stationary densities whose optimal process has linear drift and
an (at most) quadratic diffusion coefficient, with their discrete spectra and
eigenfunctions, plus two worked non-quadratic examples (a cubic diffusion
coefficient on [0,1] and the hyperexponential family on [0,inf)).

Every row's mode n is the degree-n polynomial monic in x - m1 (m1 the mean),
which one recurrence gives from the row's own drift and sigma^2/2
coefficients: phi_0 = 1 and phi_1 = x - m1. Callers who need pi-orthonormal
modes normalize numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import optimal, spectral
from .distributions import (
    CubicPearson,
    Hyperexponential,
    catalog_spec,
    kind_class,
)
from .errors import BeyondDiscreteSpectrum, ParamOutOfRange, RowMismatch


@dataclass(frozen=True)
class PearsonRow:
    name: str
    params: dict
    spec: object
    drift_coeffs: tuple      # (a0, a1): mu(x) = a0 + a1 x
    variance_coeffs: tuple   # (b0, b1, b2): sigma^2(x)/2 = b0 + b1 x + b2 x^2
    sigma_hat_sq_half: float
    n_max_discrete: object   # int bound of the discrete spectrum, or None

    def lambda_n(self, n) -> float:
        """Eigenvalue of the degree-n mode: -(a1 n + b2 n (n-1))."""
        n = int(n)
        a1 = self.drift_coeffs[1]
        b2 = self.variance_coeffs[2]
        return -(a1 * n + b2 * n * (n - 1.0))

    @property
    def lambda1(self) -> float:
        return self.lambda_n(1)

    def variance_half(self, x):
        b0, b1, b2 = self.variance_coeffs
        x = np.asarray(x, float)
        return b0 + b1 * x + b2 * x * x

    def drift(self, x):
        a0, a1 = self.drift_coeffs
        return a0 + a1 * np.asarray(x, float)


def _below(bound):
    """The largest mode degree n < bound: a polynomial mode of degree n is
    square-integrable under a heavy tail only for n below its bound."""
    return int(math.ceil(bound)) - 1


def _fisher(nu1, nu2):
    if nu2 <= 4.0:
        raise ParamOutOfRange("row needs nu2 > 4 for a finite diffusion level")
    return ((0.5 * nu1, -nu1 * (nu2 - 2.0) / (2.0 * nu2)),
            (0.0, 1.0, nu1 / nu2), _below(nu2 / 4.0))


# family: (standard params, params -> (drift (a0, a1), sigma^2/2 (b0, b1, b2),
# bound of the discrete spectrum or None)), in table order
_ROWS = {
    "Beta": ({"alpha": 1.0, "beta": 2.0}, lambda alpha, beta: (
        (alpha + 1.0, -(alpha + beta + 2.0)), (0.0, 1.0, -1.0), None)),
    "Jacobi": ({"alpha": 1.0, "beta": 1.0}, lambda alpha, beta: (
        (beta - alpha, -(alpha + beta + 2.0)), (1.0, 0.0, -1.0), None)),
    "Gamma": ({"alpha": 1.0}, lambda alpha: (
        (alpha + 1.0, -1.0), (0.0, 1.0, 0.0), None)),
    "Normal": ({"x0": 0.0, "sigma": 1.0}, lambda x0, sigma: (
        (x0, -1.0), (sigma * sigma, 0.0, 0.0), None)),
    "StudentCauchy": ({"alpha": 3.0}, lambda alpha: (
        (0.0, -(2.0 * alpha - 1.0)), (1.0, 0.0, 1.0), _below(alpha))),
    "InverseGamma": ({"alpha": 3.0}, lambda alpha: (
        (1.0, -(2.0 * alpha - 1.0)), (0.0, 0.0, 1.0), _below(alpha))),
    "FisherSnedecor": ({"nu1": 6.0, "nu2": 10.0}, _fisher),
}

ROW_DEFAULTS = {name: params for name, (params, _) in _ROWS.items()}

ROW_NAMES = tuple(_ROWS)


def row(name: str, params: dict) -> PearsonRow:
    """Catalog row by name or alias; params use the distribution parameter
    names and are checked like a density file's. The diffusion level is the
    density's canonical one, so the row check tests that level too."""
    cls = kind_class(name)
    if cls is None or cls.kind not in _ROWS:
        raise ParamOutOfRange("unknown catalog row %r" % name)
    spec = catalog_spec(cls, params)
    drift, variance, n_max = _ROWS[cls.kind][1](**spec.params)
    return PearsonRow(
        name=cls.kind, params=spec.params, spec=spec, drift_coeffs=drift,
        variance_coeffs=variance,
        sigma_hat_sq_half=spec.default_sigma_hat_sq_half(),
        n_max_discrete=n_max)


def eigenfunction(row_: PearsonRow, n: int, x):
    """Mode n at x: the degree-n polynomial sum c_k y^k, y = x - c, c =
    -a0/a1 the mean. With mu = a1 y and sigma^2/2 = s0 + s1 y + b2 y^2, the
    generator gives c_n = 1, c_{n+1} = 0 and, for k = n-1 down to 0,
    c_k = -[s1 k(k+1) c_{k+1} + s0 (k+1)(k+2) c_{k+2}]
          / [(k - n)(a1 + b2 (k + n - 1))],
    whose denominator is nonzero below the discrete spectrum's bound."""
    n = int(n)
    if n < 0:
        raise ValueError("mode index must be >= 0")
    if row_.n_max_discrete is not None and n > row_.n_max_discrete:
        raise BeyondDiscreteSpectrum(
            "mode %d exceeds the discrete spectrum bound %d"
            % (n, row_.n_max_discrete))
    a0, a1 = row_.drift_coeffs
    b0, b1, b2 = row_.variance_coeffs
    c = -a0 / a1
    s0 = b0 + (b1 + b2 * c) * c
    s1 = b1 + 2.0 * b2 * c
    coeffs = [0.0] * (n + 2)
    coeffs[n] = 1.0
    for k in range(n - 1, -1, -1):
        coeffs[k] = -(s1 * k * (k + 1) * coeffs[k + 1]
                      + s0 * (k + 1) * (k + 2) * coeffs[k + 2]) \
            / ((k - n) * (a1 + b2 * (k + n - 1)))
    y = np.asarray(x, dtype=float) - c
    out = np.zeros_like(y)
    for ck in reversed(coeffs[:n + 1]):
        out = out * y + ck
    return float(out) if out.ndim == 0 else out


# the row check's gates: lambda1 and the drift coefficients relative to
# max(1, |lambda1|), sigma^2/2 absolute
TOL_LAMBDA = 1e-10
TOL_DRIFT = 1e-10
TOL_VARIANCE = 1e-7


@dataclass(frozen=True)
class RowReport:
    name: str
    lambda1_row: float
    lambda1_synth: float
    dev_lambda1: float
    dev_drift: float
    dev_variance: float
    ok: bool


def verify_row_against_synthesis(row_: PearsonRow, n_points=200) -> RowReport:
    """Check the printed row against an independent synthesis.

    The synthesized process takes only the row's density and diffusion level;
    its variance function goes through the quadrature route, the table of V
    that every command on a non-catalog density uses, so agreement with the
    row's polynomial is a genuine two-route check. Raises RowMismatch
    (report attached) when any deviation exceeds its tolerance.
    """
    proc = optimal.synthesize(row_.spec, row_.sigma_hat_sq_half,
                              variance_mode="quadrature")
    lam_row = row_.lambda1
    dev_lambda = abs(proc.lambda1 - lam_row) / max(1.0, abs(lam_row))
    a0_s, a1_s = proc.drift
    a0_r, a1_r = row_.drift_coeffs
    dev_drift = max(abs(a0_s - a0_r), abs(a1_s - a1_r)) / max(1.0, abs(lam_row))
    pts = spectral.default_grid(proc, int(n_points)).points
    v_q = np.asarray(proc.variance_fn(pts), dtype=float)
    v_row = row_.variance_half(pts)
    dev_var = float(np.max(np.abs(v_q - v_row)))
    ok = (dev_lambda <= TOL_LAMBDA and dev_drift <= TOL_DRIFT
          and dev_var <= TOL_VARIANCE)
    report = RowReport(name=row_.name, lambda1_row=lam_row,
                       lambda1_synth=proc.lambda1, dev_lambda1=dev_lambda,
                       dev_drift=dev_drift, dev_variance=dev_var, ok=ok)
    if not ok:
        raise RowMismatch(
            "row %s deviates: lambda1 %.3e, drift %.3e, variance %.3e"
            % (row_.name, dev_lambda, dev_drift, dev_var), report=report)
    return report


@dataclass(frozen=True)
class CubicExample:
    """Density ~ x^(alpha-1)(1-x)^(beta-1)(1-ax)^-(alpha+beta+1) whose optimal
    diffusion coefficient is the cubic x(1-x)(1-ax)."""

    spec: CubicPearson
    drift_coeffs: tuple
    lambda1: float
    sigma_hat_sq_half: float
    m1: float
    m2: float

    def variance_half(self, x):
        a = self.spec.params["a"]
        x = np.asarray(x, float)
        return x * (1.0 - x) * (1.0 - a * x)


def cubic_example(alpha, beta, a) -> CubicExample:
    spec = CubicPearson(alpha, beta, a)
    al, be = spec.params["alpha"], spec.params["beta"]
    av = spec.params["a"]
    lam = al + be * (1.0 - av)
    m1, m2 = spec._closed_moments()
    return CubicExample(
        spec=spec,
        drift_coeffs=(al, -lam),
        lambda1=lam,
        sigma_hat_sq_half=spec.default_sigma_hat_sq_half(),
        m1=m1, m2=m2)


@dataclass(frozen=True)
class HyperexpExample:
    """Two-rate exponential mixture with closed optimal variance."""

    spec: Hyperexponential
    m1: float
    variance: float

    def v_closed(self, x):
        """V(x) = integral from 0 to x of (m1 - z) pi(z) dz, closed form."""
        p = self.spec.params
        p1, p2, e1, e2 = p["p1"], p["p2"], p["eta1"], p["eta2"]
        x = np.asarray(x, float)
        return (p1 * np.exp(-e1 * x) * (x + p2 * (1.0 / e1 - 1.0 / e2))
                + p2 * np.exp(-e2 * x) * (x + p1 * (1.0 / e2 - 1.0 / e1)))

    def lambda1(self, sigma_hat_sq_half) -> float:
        return float(sigma_hat_sq_half) / self.variance

    def variance_half(self, x, sigma_hat_sq_half):
        return self.lambda1(sigma_hat_sq_half) * self.v_closed(x) \
            / self.spec._pdf(np.asarray(x, float))


def hyperexp_example(p1, p2, eta1, eta2) -> HyperexpExample:
    spec = Hyperexponential(p1, p2, eta1, eta2)
    mom = spec.moments()
    return HyperexpExample(spec=spec, m1=mom.m1, variance=mom.variance)
