"""Catalog of stationary densities whose optimal process has linear drift and
an (at most) quadratic diffusion coefficient, with their discrete spectra and
eigenfunctions, plus two worked non-quadratic examples (a cubic diffusion
coefficient on [0,1] and the hyperexponential family on [0,inf)).

Eigenfunctions are returned un-normalized, pinned to phi_0 = 1; callers who
need pi-orthonormal modes normalize numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics, optimal
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


# one standard parameter set per catalog row, in table order
ROW_DEFAULTS = {
    "Beta": {"alpha": 1.0, "beta": 2.0},
    "Jacobi": {"alpha": 1.0, "beta": 1.0},
    "Gamma": {"alpha": 1.0},
    "Normal": {"x0": 0.0, "sigma": 1.0},
    "StudentCauchy": {"alpha": 3.0},
    "InverseGamma": {"alpha": 3.0},
    "FisherSnedecor": {"nu1": 6.0, "nu2": 10.0},
}

ROW_NAMES = tuple(ROW_DEFAULTS)


def row(name: str, params: dict) -> PearsonRow:
    """Catalog row by name or alias; params use the distribution parameter
    names and are checked like a density file's."""
    cls = kind_class(name)
    if cls is None or cls.kind not in ROW_NAMES:
        raise ParamOutOfRange("unknown catalog row %r" % name)
    canon = cls.kind
    spec = catalog_spec(cls, params)
    if canon == "Beta":
        a, b = spec.params["alpha"], spec.params["beta"]
        return PearsonRow(
            name=canon, params=spec.params, spec=spec,
            drift_coeffs=(a + 1.0, -(a + b + 2.0)),
            variance_coeffs=(0.0, 1.0, -1.0),
            sigma_hat_sq_half=spec.default_sigma_hat_sq_half(),
            n_max_discrete=None)
    if canon == "Jacobi":
        a, b = spec.params["alpha"], spec.params["beta"]
        return PearsonRow(
            name=canon, params=spec.params, spec=spec,
            drift_coeffs=(b - a, -(a + b + 2.0)),
            variance_coeffs=(1.0, 0.0, -1.0),
            sigma_hat_sq_half=spec.default_sigma_hat_sq_half(),
            n_max_discrete=None)
    if canon == "Gamma":
        a = spec.params["alpha"]
        return PearsonRow(
            name=canon, params=spec.params, spec=spec,
            drift_coeffs=(a + 1.0, -1.0),
            variance_coeffs=(0.0, 1.0, 0.0),
            sigma_hat_sq_half=a + 1.0,
            n_max_discrete=None)
    if canon == "Normal":
        x0, s = spec.params["x0"], spec.params["sigma"]
        return PearsonRow(
            name=canon, params=spec.params, spec=spec,
            drift_coeffs=(x0, -1.0),
            variance_coeffs=(s * s, 0.0, 0.0),
            sigma_hat_sq_half=s * s,
            n_max_discrete=None)
    if canon == "StudentCauchy":
        a = spec.params["alpha"]
        return PearsonRow(
            name=canon, params=spec.params, spec=spec,
            drift_coeffs=(0.0, -(2.0 * a - 1.0)),
            variance_coeffs=(1.0, 0.0, 1.0),
            sigma_hat_sq_half=(2.0 * a - 1.0) / (2.0 * (a - 1.0)),
            n_max_discrete=int(math.floor(a)))
    if canon == "InverseGamma":
        a = spec.params["alpha"]
        return PearsonRow(
            name=canon, params=spec.params, spec=spec,
            drift_coeffs=(1.0, -(2.0 * a - 1.0)),
            variance_coeffs=(0.0, 0.0, 1.0),
            sigma_hat_sq_half=1.0 / (2.0 * (a - 1.0) * (2.0 * a - 1.0)),
            n_max_discrete=int(math.floor(a)))
    # FisherSnedecor
    n1, n2 = spec.params["nu1"], spec.params["nu2"]
    if n2 <= 4.0:
        raise ParamOutOfRange("row needs nu2 > 4 for a finite diffusion level")
    return PearsonRow(
        name=canon, params=spec.params, spec=spec,
        drift_coeffs=(0.5 * n1, -n1 * (n2 - 2.0) / (2.0 * n2)),
        variance_coeffs=(0.0, 1.0, n1 / n2),
        sigma_hat_sq_half=n2 * (n1 + n2 - 2.0) / ((n2 - 2.0) * (n2 - 4.0)),
        n_max_discrete=int(math.floor(n2 / 4.0)))


def hermite_he(n: int, y):
    """Probabilists' Hermite polynomial He_n evaluated at y."""
    n = int(n)
    coeffs = np.zeros(n + 1)  # descending powers for polyval
    for k in range(n // 2 + 1):
        c = ((-1) ** k * math.factorial(n)
             / (math.factorial(k) * math.factorial(n - 2 * k) * 2.0 ** k))
        coeffs[2 * k] = c  # position of power n-2k in descending order
    return np.polyval(coeffs, np.asarray(y, float))


def _poly_derivative(p):
    # ascending coefficients
    if p.size <= 1:
        return np.zeros(1)
    return p[1:] * np.arange(1, p.size)


def _student_poly(n: int, alpha: float):
    """Ascending coefficients of the degree-n Rodrigues polynomial P_n with
    d^n/dx^n (1+x^2)^(n-alpha-1/2) = P_n(x) (1+x^2)^(-alpha-1/2)."""
    q = n - alpha - 0.5
    p = np.array([1.0])
    for k in range(n):
        dp = _poly_derivative(p)
        term1 = np.convolve(dp, np.array([1.0, 0.0, 1.0]))  # (1+x^2) P'
        term2 = 2.0 * (q - k) * np.convolve(p, np.array([0.0, 1.0]))  # 2(q-k)x P
        size = max(term1.size, term2.size)
        out = np.zeros(size)
        out[:term1.size] += term1
        out[:term2.size] += term2
        p = out
    return p[:n + 1]


def _invgamma_poly(n: int, alpha: float):
    """Ascending coefficients of x^(2 alpha + 1) e^(1/x) times the n-th
    derivative of x^(2n - 2 alpha - 1) e^(-1/x)."""
    m0 = 2.0 * n - 2.0 * alpha - 1.0
    # coefficient table keyed by integer offset j: term c_j x^(m0 - j) e^(-1/x)
    c = {0: 1.0}
    for _ in range(n):
        nxt = {}
        for off, v in c.items():
            m = m0 - off
            nxt[off + 1] = nxt.get(off + 1, 0.0) + v * m
            nxt[off + 2] = nxt.get(off + 2, 0.0) + v
        c = nxt
    out = np.zeros(n + 1)
    for off, v in c.items():
        power = 2 * n - off  # exponent after multiplying by x^(2 alpha + 1)
        out[power] = v
    return out


def eigenfunction(row_: PearsonRow, n: int, x):
    """Un-normalized eigenfunction of mode n at x; eigenfunction(row, 0) = 1."""
    n = int(n)
    if n < 0:
        raise ValueError("mode index must be >= 0")
    if row_.n_max_discrete is not None and n > row_.n_max_discrete:
        raise BeyondDiscreteSpectrum(
            "mode %d exceeds the discrete spectrum bound %d"
            % (n, row_.n_max_discrete))
    arr = np.asarray(x, dtype=float)
    flat = np.atleast_1d(arr).astype(float)
    p = row_.params
    if row_.name == "Beta":
        a, b = p["alpha"], p["beta"]
        out = np.array([numerics.hyp2f1(-n, n + a + b + 1.0, a + 1.0, t)
                        for t in flat])
    elif row_.name == "Jacobi":
        a, b = p["alpha"], p["beta"]
        out = np.array([numerics.hyp2f1(-n, n + a + b + 1.0, a + 1.0,
                                        0.5 * (1.0 - t)) for t in flat])
    elif row_.name == "Gamma":
        a = p["alpha"]
        out = np.array([numerics.hyp1f1(-n, a + 1.0, t) for t in flat])
    elif row_.name == "Normal":
        out = hermite_he(n, (flat - p["x0"]) / p["sigma"])
    elif row_.name == "StudentCauchy":
        coeffs = _student_poly(n, p["alpha"])
        out = np.polyval(coeffs[::-1], flat)
    elif row_.name == "InverseGamma":
        coeffs = _invgamma_poly(n, p["alpha"])
        out = np.polyval(coeffs[::-1], flat)
    elif row_.name == "FisherSnedecor":
        n1, n2 = p["nu1"], p["nu2"]
        out = np.array([numerics.hyp2f1(-n, n - 0.5 * n2, 0.5 * n1,
                                        -n1 * t / n2) for t in flat])
    else:
        raise ParamOutOfRange("no eigenfunctions for row %r" % row_.name)
    out = np.asarray(out, dtype=float)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


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
    # inside the truncated support the density stays representable, so the
    # quadrature V/pi is 0/0-free
    mom = row_.spec.moments()
    lo, hi = numerics.moment_window(row_.spec._pdf, mom.m1,
                                    math.sqrt(mom.variance),
                                    *row_.spec.truncated_support())
    pad = 1e-6 * (hi - lo)
    pts = np.linspace(lo + pad, hi - pad, int(n_points))
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
