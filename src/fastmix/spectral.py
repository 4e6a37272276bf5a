"""Finite-volume discretization of the diffusion generator, its low spectrum,
and mass-conserving forward evolution of densities.

The generator in divergence form, L f = (1/pi) d/dx[(sigma^2/2) pi df/dx]
with zero-flux ends, is discretized on cell centers with arithmetic face
averages of g = pi sigma^2/2. Conjugating by sqrt(pi_i h) makes the matrix
symmetric tridiagonal, so eigenvectors of unit Euclidean norm map directly to
pi-orthonormal eigenfunctions. The forward (Fokker-Planck) operator is the
transpose of the same matrix, so densities evolve exactly in that eigenbasis,
which conserves discrete mass and holds the discrete pi stationary to machine
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import GridTooCoarse, ZeroDenominator
from .numerics import Grid, GridFunction
from .optimal import OptimalProcess

# evolve_fpe evolves its recorded times in blocks of _FIRST_BLOCK records,
# doubling up to _RECORD_BLOCK, which bounds memory at O(n * block). Each
# block drops the modes that cannot move the density by more than _DROP_TOL
# of the start's L1 norm; the small first blocks hold the all-modes work
# near t = 0 to a few records
_FIRST_BLOCK = 8
_RECORD_BLOCK = 256
# below the roundoff of the sum itself (unit roundoff is 1.1e-16)
_DROP_TOL = 1e-17


@dataclass(frozen=True)
class Discretization:
    grid: Grid
    diag: np.ndarray
    offdiag: np.ndarray
    weights: np.ndarray  # sqrt(pi_i h); v / weights is the eigenfunction
    pi: np.ndarray
    faces: np.ndarray  # g at interior cell faces, length n - 1


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray  # rows, pi-weighted orthonormal on the grid
    grid: Grid


@dataclass
class EvolutionState:
    grid: Grid
    density: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.density, dtype=float)
        if vals.shape != self.grid.points.shape:
            raise ValueError("density shape does not match grid")
        self.density = vals

    def mass(self) -> float:
        return float(np.sum(self.density) * self.grid.h)


def _target_functions(target):
    if isinstance(target, OptimalProcess):
        return target.source._pdf, target.variance_fn
    pdf, var = target
    return pdf, var


def default_grid(proc: OptimalProcess, n: int) -> Grid:
    """Cell-center grid on numerics.moment_window within the support."""
    mom = proc.moments
    sup = proc.source.support
    lo, hi = numerics.moment_window(proc.source._pdf, mom.m1,
                                    math.sqrt(mom.variance),
                                    sup.lower, sup.upper)
    return Grid.cell_centers(lo, hi, n)


def discretize_generator(target, grid: Grid) -> Discretization:
    """Symmetric tridiagonal of the (negated) generator on cell centers.

    target is an OptimalProcess or a (pdf, variance) pair of callables.
    """
    pdf, var = _target_functions(target)
    if grid.n < 50:
        raise GridTooCoarse("need at least 50 grid points, got %d" % grid.n)
    h = grid.h
    pts = grid.points
    pi = np.asarray(pdf(pts), dtype=float)
    if np.any(pi <= 0.0) or not np.all(np.isfinite(pi)):
        raise ValueError("density must be positive and finite on the grid")
    g = pi * np.asarray(var(pts), dtype=float)
    faces = 0.5 * (g[:-1] + g[1:])
    w_left = np.concatenate([[0.0], faces])   # zero-flux outer faces
    w_right = np.concatenate([faces, [0.0]])
    diag = (w_left + w_right) / (pi * h * h)
    offdiag = -faces / (h * h * np.sqrt(pi[:-1] * pi[1:]))
    weights = np.sqrt(pi * h)
    return Discretization(grid=grid, diag=diag, offdiag=offdiag,
                          weights=weights, pi=pi, faces=faces)


def spectrum(disc: Discretization, k: int) -> SpectrumResult:
    """k smallest eigenvalues with pi-orthonormal eigenfunctions."""
    pairs = numerics.tridiag_eigs(disc.diag, disc.offdiag, k)
    lams = np.array([lam for lam, _ in pairs])
    funcs = np.empty((k, disc.grid.n))
    for j, (_, vec) in enumerate(pairs):
        phi = vec / disc.weights
        if phi[np.argmax(np.abs(phi))] < 0:
            phi = -phi
        funcs[j] = phi
    return SpectrumResult(eigenvalues=lams, eigenfunctions=funcs,
                          grid=disc.grid)


def rayleigh_quotient(proc: OptimalProcess, q: GridFunction) -> float:
    """Dirichlet form over variance of q after re-centering to zero pi-mean."""
    grid = q.grid
    pts = grid.points
    h = grid.h
    pi = np.asarray(proc.source._pdf(pts), dtype=float)
    mass = float(np.sum(pi) * h)
    u = q.values - float(np.sum(pi * q.values) * h) / mass
    den = float(np.sum(pi * u * u) * h)
    scale = float(np.max(np.abs(q.values))) + 1.0
    if den <= 1e-24 * scale * scale * mass:
        raise ZeroDenominator("test function is pi-a.e. constant on the grid")
    du = np.gradient(u, h)
    half_sq = np.asarray(proc.variance_fn(pts), dtype=float)
    num = float(np.sum(half_sq * pi * du * du) * h)
    return num / den


def gaussian_bump(grid: Grid, center, width) -> np.ndarray:
    """Normalized (discrete unit mass) Gaussian bump on the grid."""
    z = (grid.points - float(center)) / float(width)
    p = np.exp(-0.5 * z * z)
    return p / (np.sum(p) * grid.h)


def _modes_kept(weights, lams, t, tol) -> int:
    """Length of the shortest prefix of modes whose dropped tail has L1
    weight at most tol at time t and later.

    weights[k] e^{-lams[k] t} bounds mode k's L1 norm at time t, and it only
    falls as t grows. Mode 0, which carries the mass, is always kept.
    """
    tail = np.cumsum((weights * np.exp(-lams * t))[::-1])[::-1]
    return max(1, int(np.count_nonzero(tail > tol)))


def evolve_fpe(proc: OptimalProcess, initial: EvolutionState, t_end, dt,
               record_every=1):
    """Exact forward evolution in the generator's eigenbasis; returns
    (state, times, distances).

    The forward operator is the transpose of the discrete generator, so with
    the pi-orthonormal eigenpairs (lambda_k, phi_k) of `spectrum`,
    p(t) = pi * sum_k exp(-lambda_k t) c_k phi_k, c_k = h sum_i p0_i phi_k(i).
    lambda_0 is pinned to 0, so the discrete mass is conserved up to the
    eigenvectors' roundoff (6e-13 relative on the dome at n = 400, 2e-14 on
    the OU and Gamma(1) targets). The density is recorded every
    record_every steps of dt and at t_end; dt sets only that cadence, so no
    step size can be unstable. dt and t_end must be finite. All n
    eigenpairs are held, which costs O(n^2) memory: about 65 MB peak at
    n = 2000.

    The sum runs only over the modes that can still move the density. Mode
    k adds at most w_k e^{-lambda_k t} to the L1 norm h sum_i |p_i| of p(t),
    with w_k = |c_k| h sum_i pi_i |phi_k(i)|. The recorded times are
    evolved in blocks of 8 records, doubling up to 256. Each block keeps the
    shortest prefix of modes (in lambda order) whose dropped suffix has
    sum_k w_k e^{-lambda_k t_b} <= tol at the block's first time t_b, and
    so at every later time in it. tol is 1e-17 times the start's L1 norm
    h sum_i |p0_i| (its mass, for a density). So every distance, and the
    final density, is within tol in L1 of the sum over all n modes. On top
    of that comes the floating-point roundoff of either sum, of the order
    of the unit roundoff times sum_k w_k e^{-lambda_k t}.

    distances[i] is the discrete L1 distance between the density at times[i]
    and the grid-stationary density scaled to the evolving mass, so it decays
    to roundoff rather than to a truncation floor.
    """
    grid = initial.grid
    h = grid.h
    dt = float(dt)
    t_end = float(t_end)
    if record_every < 1 or not (
            math.isfinite(dt) and math.isfinite(t_end) and dt > 0
            and t_end > initial.time
            and math.isfinite((t_end - initial.time) / dt)):
        raise ValueError("need finite dt > 0, finite t_end > start time, "
                         "record_every >= 1")
    n_steps = int(math.ceil((t_end - initial.time) / dt - 1e-12))
    steps = np.arange(record_every, n_steps + 1, record_every)
    if steps.size == 0 or steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    times = np.concatenate([[initial.time], initial.time + steps * dt])

    disc = discretize_generator(proc, grid)
    modes = spectrum(disc, grid.n)
    lams = modes.eigenvalues.copy()
    lams[0] = 0.0
    phi = modes.eigenfunctions
    p0 = initial.density
    coeffs = h * (phi @ p0)
    pi = disc.pi
    weights = np.abs(coeffs) * (h * (np.abs(phi) @ pi))
    tol = _DROP_TOL * h * float(np.sum(np.abs(p0)))
    target = pi * (float(np.sum(p0) * h) / (float(np.sum(pi)) * h))
    dists = np.empty(times.size)
    lo, size = 0, _FIRST_BLOCK
    while lo < times.size:
        elapsed = times[lo:lo + size] - initial.time
        m = _modes_kept(weights, lams, elapsed[0], tol)
        decay = np.exp(-np.outer(lams[:m], elapsed))
        p = pi[:, None] * (phi[:m].T @ (coeffs[:m, None] * decay))
        dists[lo:lo + elapsed.size] = np.sum(np.abs(p - target[:, None]),
                                             axis=0) * h
        lo += elapsed.size
        size = min(2 * size, _RECORD_BLOCK)
    state = EvolutionState(grid=grid, density=p[:, -1].copy(),
                           time=float(times[-1]))
    return state, times, dists


def fit_decay_rate(times, dists, floor=1e-6, frac=0.1) -> numerics.RateEstimate:
    """Log-linear rate over the window dists in [floor, frac * dists[0]]."""
    t = np.asarray(times, dtype=float)
    d = np.asarray(dists, dtype=float)
    mask = (d >= floor) & (d <= frac * d[0])
    if int(mask.sum()) < 5:
        raise ValueError("fewer than 5 samples inside the fit window")
    return numerics.fit_exponential_decay(t[mask], d[mask])


def write_decay_csv(path, times, dists):
    numerics.write_csv(path, "t,d\n", "%.17g,%.17g\n", times, dists)


def write_spectrum_csv(path, eigenvalues):
    lams = np.asarray(eigenvalues, dtype=float)
    numerics.write_csv(path, "n,lambda\n", "%d,%.17g\n",
                       np.arange(lams.size), lams)
