"""End-to-end acceptance checks, one test per shipped claim.

Each test exercises one acceptance criterion at its stated tolerance and
time budget and prints a single summary line with the measured numbers.
Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion.
"""

import math
import time

import numpy as np
import pytest

from fastmix.distributions import Beta, Custom
from fastmix.numerics import Grid, hyp2f1, integrate
from fastmix.optimal import (
    check_variance_mean,
    check_variance_positivity,
    mixture_tau_concavity,
    synthesize,
)
from fastmix.pearson import (
    cubic_example,
    hyperexp_example,
    row,
    verify_row_against_synthesis,
)
from fastmix.sim import SimConfig, estimate_rate
from fastmix.spectral import (
    EvolutionState,
    default_grid,
    discretize_generator,
    evolve_fpe,
    fit_decay_rate,
    gaussian_bump,
    spectrum,
)

CATALOG_DEFAULTS = [
    ("Beta", {"alpha": 1.0, "beta": 2.0}),
    ("Jacobi", {"alpha": 1.0, "beta": 1.0}),
    ("Gamma", {"alpha": 1.0}),
    ("Normal", {"x0": 0.0, "sigma": 1.0}),
    ("StudentCauchy", {"alpha": 3.0}),
    ("InverseGamma", {"alpha": 3.0}),
    ("FisherSnedecor", {"nu1": 6.0, "nu2": 10.0}),
]


def _gap(proc, n):
    """Smallest nonzero eigenvalue of the discretized generator."""
    disc = discretize_generator(proc, default_grid(proc, n))
    return float(spectrum(disc, 2).eigenvalues[1])


def test_criterion_01_catalog_row_reproduction():
    """Each catalog row at default parameters is recovered by synthesis:
    variance within 1e-7 (sup over 200 interior points), drift within
    1e-10, rate within 1e-12, all rows inside 10 seconds."""
    t0 = time.perf_counter()
    worst = {"lambda": 0.0, "drift": 0.0, "var": 0.0}
    for name, params in CATALOG_DEFAULTS:
        r = row(name, params)
        report = verify_row_against_synthesis(r)
        assert report.ok
        assert report.dev_lambda1 <= 1e-12
        assert report.dev_drift <= 1e-10
        assert report.dev_variance <= 1e-7
        mom = r.spec.moments()
        lam_formula = r.sigma_hat_sq_half / mom.variance
        assert r.lambda1 == pytest.approx(lam_formula, rel=1e-12)
        worst["lambda"] = max(worst["lambda"], report.dev_lambda1)
        worst["drift"] = max(worst["drift"], report.dev_drift)
        worst["var"] = max(worst["var"], report.dev_variance)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print("criterion 01 PASS: 7 rows, worst dev lambda %.1e drift %.1e "
          "variance %.1e, %.1fs"
          % (worst["lambda"], worst["drift"], worst["var"], elapsed))


def test_criterion_02_spectral_gap_optimality():
    """For the four light-tailed catalog rows the discrete spectral gap
    matches the analytic rate within 1 percent at 2000 grid points and
    improves about 4x under grid halving, inside 30 seconds."""
    t0 = time.perf_counter()
    lines = []
    for name, params in CATALOG_DEFAULTS[:4]:
        r = row(name, params)
        proc = synthesize(r.spec, r.sigma_hat_sq_half)
        err = {n: abs(_gap(proc, n) - r.lambda1) / r.lambda1
               for n in (1000, 2000)}
        assert err[2000] <= 0.01
        if name == "Normal":
            # window truncation error dominates and shrinks faster than h^2
            assert err[2000] <= err[1000]
        else:
            assert 3.0 <= err[1000] / err[2000] <= 5.0
        lines.append("%s %.1e" % (name, err[2000]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print("criterion 02 PASS: rel err at N=2000 (%s), %.1fs"
          % (", ".join(lines), elapsed))


def test_criterion_03_gap_upper_bound_under_perturbation():
    """Random rescaled multiplicative perturbations of the optimal
    variance never beat the optimal gap by more than the 1 percent
    numerical tolerance, over 20 seeded cases inside 2 minutes."""
    t0 = time.perf_counter()
    proc = synthesize(Beta(1.0, 1.0))
    shalf = proc.sigma_hat_sq_half
    lam = proc.lambda1
    grid = Grid.cell_centers(0.0, 1.0, 1000)
    x = grid.points
    pdf = proc.source._pdf
    pi_g = np.asarray(pdf(x), dtype=float)
    base = np.asarray(proc.variance_fn(x), dtype=float)
    gaps = []
    for k in range(20):
        rng = np.random.default_rng(1000 + k)
        a = rng.uniform(-0.5, 0.5, 3)
        b = rng.uniform(-0.5, 0.5, 3)
        mod = np.exp(sum(a[j] * np.sin((j + 1) * np.pi * x)
                         + b[j] * np.cos((j + 1) * np.pi * x)
                         for j in range(3)))
        pert = base * mod
        pert *= shalf / (np.sum(pert * pi_g) * grid.h)
        var_fn = lambda q, v=pert: np.interp(np.asarray(q, float), x, v)
        disc = discretize_generator((pdf, var_fn), grid)
        gaps.append(float(spectrum(disc, 2).eigenvalues[1]))
    gaps = np.asarray(gaps)
    assert np.all(gaps > 0.0)
    assert np.all(gaps <= lam * 1.01)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print("criterion 03 PASS: 20 perturbed gaps in [%.4f, %.4f] <= %.4f, "
          "%.1fs" % (gaps.min(), gaps.max(), lam * 1.01, elapsed))


def test_criterion_04_variance_positivity_and_mean():
    """For 50 randomized custom densities on [0, 1] the synthesized
    variance stays positive on the interior and its density-weighted
    mean hits the budget within 1e-6, inside 1 minute."""
    t0 = time.perf_counter()
    shalf = 0.3
    worst_rel = 0.0
    min_val = np.inf
    for k in range(50):
        rng = np.random.default_rng(500 + k)
        c = rng.uniform(-1.5, 1.5, 4)
        raw = lambda x, c=c: np.exp(c[0] * x + c[1] * x ** 2
                                    + c[2] * np.sin(3.0 * x)
                                    + c[3] * np.cos(2.0 * x))
        z = integrate(raw, 0.0, 1.0, tol=1e-12).value
        spec = Custom(lambda x, raw=raw, z=z: raw(x) / z, (0.0, 1.0))
        proc = synthesize(spec, shalf)
        positive, vmin = check_variance_positivity(proc)
        assert positive
        mean_val = check_variance_mean(proc)
        rel = abs(mean_val - shalf) / shalf
        assert rel <= 1e-6
        worst_rel = max(worst_rel, rel)
        min_val = min(min_val, vmin)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print("criterion 04 PASS: 50 targets, min variance %.2e, worst mean "
          "rel err %.1e, %.1fs" % (min_val, worst_rel, elapsed))


def test_criterion_05_mixture_relaxation_concavity():
    """Over 30 seeded two-component mixtures at a shared budget the
    mixture relaxation time is never below the weighted component
    average, with equality exactly when the component means coincide."""
    t0 = time.perf_counter()
    shalf = 0.3
    rng = np.random.default_rng(77)
    min_gap_distinct = np.inf
    max_gap_equal = 0.0
    for k in range(30):
        w = float(rng.uniform(0.2, 0.8))
        if k % 3 == 2:
            a, b = rng.uniform(0.6, 3.0, 2)
            specs = [Beta(a, a), Beta(b, b)]
            same_means = True
        else:
            while True:
                a1, b1, a2, b2 = rng.uniform(0.6, 3.0, 4)
                m1 = (a1 + 1.0) / (a1 + b1 + 2.0)
                m2 = (a2 + 1.0) / (a2 + b2 + 2.0)
                if abs(m1 - m2) >= 0.05:
                    break
            specs = [Beta(a1, b1), Beta(a2, b2)]
            same_means = False
        tau_mix, tau_avg = mixture_tau_concavity(specs, [w, 1.0 - w], shalf)
        gap = tau_mix - tau_avg
        assert gap >= -1e-10
        if same_means:
            assert abs(gap) <= 1e-9
            max_gap_equal = max(max_gap_equal, abs(gap))
        else:
            assert gap > 1e-9
            min_gap_distinct = min(min_gap_distinct, gap)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print("criterion 05 PASS: 30 mixtures, distinct-mean min gap %.1e, "
          "equal-mean max gap %.1e, %.1fs"
          % (min_gap_distinct, max_gap_equal, elapsed))


def test_criterion_06_hyperexponential_example():
    """The closed variance of the two-rate exponential mixture matches
    the quadrature route within 1e-8 across (0, 40), and the rate
    formula gives exactly 1 at the quoted budget."""
    t0 = time.perf_counter()
    ex = hyperexp_example(0.5, 0.5, 1.0, 2.0)
    shalf = 0.6875
    assert abs(ex.lambda1(shalf) - 1.0) <= 1e-12
    proc = synthesize(ex.spec, shalf, variance_mode="quadrature")
    pts = np.linspace(40.0 / 201.0, 40.0 * (1.0 - 1.0 / 201.0), 200)
    closed = np.asarray(ex.variance_half(pts, shalf), dtype=float)
    quad = np.asarray(proc.variance_fn(pts), dtype=float)
    sup = float(np.max(np.abs(closed - quad)))
    assert sup <= 1e-8
    # the rate formula is budget / variance for any parameter choice
    other = hyperexp_example(0.3, 0.7, 0.5, 4.0)
    for s in (0.25, 1.0, 2.5):
        assert other.lambda1(s) * other.variance == pytest.approx(s,
                                                                  rel=1e-14)
    elapsed = time.perf_counter() - t0
    print("criterion 06 PASS: sup |closed - quadrature| = %.1e, "
          "lambda1(0.6875) = 1, %.1fs" % (sup, elapsed))


def test_criterion_07_cubic_example():
    """The hypergeometric moments of the cubic-diffusion density agree
    with direct quadrature within 1e-6 for three parameter triples, and
    the discrete spectral gap matches the closed rate within 1 percent."""
    t0 = time.perf_counter()
    lines = []
    for (al, be, a) in [(1.0, 2.0, 0.5), (2.0, 3.0, -0.3), (0.5, 1.0, 0.9)]:
        ex = cubic_example(al, be, a)
        m1_q = ex.spec._integral(lambda x: x)
        m2_q = ex.spec._integral(lambda x: x * x)
        assert abs(ex.m1 - m1_q) <= 1e-6
        assert abs(ex.m2 - m2_q) <= 1e-6
        proc = synthesize(ex.spec, ex.sigma_hat_sq_half)
        gap = _gap(proc, 2000)
        rel = abs(gap - ex.lambda1) / ex.lambda1
        assert rel <= 0.01
        lines.append("(%g,%g,%g) %.1e" % (al, be, a, rel))
    elapsed = time.perf_counter() - t0
    print("criterion 07 PASS: gap rel err %s, %.1fs"
          % ("; ".join(lines), elapsed))


def test_criterion_08_sde_rate_recovery():
    """Sampled paths of the Gaussian and dome optimal processes recover
    their analytic rates within 10 percent from 1e7 total steps at
    dt = 1e-3 under a fixed seed, inside 5 minutes."""
    t0 = time.perf_counter()
    cfg = SimConfig(dt=1e-3, n_steps=625000, n_paths=16, seed=2026,
                    burn_in=20000)
    lines = []
    for name, spec in (("OU", row("Normal",
                                  {"x0": 0.0, "sigma": 1.0}).spec),
                       ("dome", Beta(1.0, 1.0))):
        proc = synthesize(spec)
        est = estimate_rate(proc, cfg)
        rel = abs(est.rate - proc.lambda1) / proc.lambda1
        assert rel <= 0.10
        lines.append("%s rate %.4f rel %.3f" % (name, est.rate, rel))
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print("criterion 08 PASS: %s, %.1fs" % ("; ".join(lines), elapsed))


def test_criterion_09_density_evolution_rate():
    """Exact eigenbasis evolution from a narrow bump decays toward the
    stationary density at the analytic rate within 5 percent for the
    dome target and a truncated Gaussian, inside 2 minutes."""
    t0 = time.perf_counter()
    lines = []

    mass = math.erf(2.0 / math.sqrt(2.0))
    trunc_pdf = lambda x: (np.exp(-0.5 * np.asarray(x, float) ** 2)
                           / (math.sqrt(2.0 * math.pi) * mass))
    cases = [
        ("dome", synthesize(Beta(1.0, 1.0)), 0.3, 0.05, 1.5),
        ("truncated OU", synthesize(Custom(trunc_pdf, (-2.0, 2.0))),
         -1.0, 0.1, 6.0),
    ]
    for name, proc, center, width, t_end in cases:
        g = default_grid(proc, 800)
        state0 = EvolutionState(grid=g, density=gaussian_bump(g, center,
                                                              width))
        _, times, dists = evolve_fpe(proc, state0, t_end=t_end, dt=1e-3,
                                     record_every=10)
        est = fit_decay_rate(times, dists)
        rel = abs(est.rate - proc.lambda1) / proc.lambda1
        assert rel <= 0.05
        lines.append("%s rel %.1e" % (name, rel))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print("criterion 09 PASS: %s, %.1fs" % ("; ".join(lines), elapsed))


def test_criterion_10_hypergeometric_identities():
    """The series implementation reproduces the binomial and logarithm
    families at 100 random points each within 1e-12 relative."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(100):
        z = float(rng.uniform(0.001, 0.9) * rng.choice([-1.0, 1.0]))
        a = float(rng.uniform(-3.0, 3.0))
        b = float(rng.uniform(0.5, 3.0))
        got = hyp2f1(a, b, b, z)
        want = (1.0 - z) ** (-a)
        rel = abs(got - want) / abs(want)
        assert rel <= 1e-12
        worst = max(worst, rel)
    for _ in range(100):
        z = float(rng.uniform(0.001, 0.9) * rng.choice([-1.0, 1.0]))
        got = hyp2f1(1.0, 1.0, 2.0, z)
        want = -math.log1p(-z) / z
        rel = abs(got - want) / abs(want)
        assert rel <= 1e-12
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    print("criterion 10 PASS: 200 identity points, worst rel err %.1e, "
          "%.1fs" % (worst, elapsed))
