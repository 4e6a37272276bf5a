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

spectrum takes one of two routes, by grid size. The low spectrum of a
generator of at most 1500 cells (_ROUTE_CELLS), and every spectrum of all n
modes, comes from LAPACK's bisection (numerics.tridiag_eigs). That is
accurate to eps ||T|| in absolute terms, and ||T|| grows like 1/h^2. A
finer generator's k < n lowest modes, the spectrum command's default of
2000 points included, come from certified inverse iteration seeded by its
coarsening to about 500 cells (_SEED_CELLS), with each eigenvalue taken as
a Dirichlet form, to high relative accuracy. A mode stops once the
Kato-Temple bound puts its eigenvalue within 5e-13 relative. Where those
seeds cannot tell the modes apart (heavy tails at larger k), are rough, or
leave a mode whose residual's rounding rules the bound out, the seeds come
from the coarsening four times finer (about 2000 cells). What cannot be
certified falls back to bisection, as do seeds that cannot tell the modes
apart on either coarsening, before any solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from . import numerics
from .errors import GridTooCoarse, NumericalFailure, ZeroDenominator
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
# spectrum bisects generators of at most _ROUTE_CELLS cells; a finer one
# takes its low modes by inverse iteration, seeded from its coarsening to
# about _SEED_CELLS cells, or, where those seeds fall short, from the
# coarsening _REFINE times finer (_coarse_modes). The first two are set
# from the spectral.routing and spectral.seeds layers of
# tools/bench_layers.py: at 1500 points and below bisection is the faster
# route, above it the certified one; 500 seed cells are the fewest that
# leave no mode of a swept target more solves than 2000-cell seeds took, at
# about the time of the alternatives (250 cells leave three (target, size)
# cases more). _REFINE = 4 makes the finer seeds about 2000 cells. A mode
# stops once its Rayleigh quotient is known to within half _RQ_RTOL
# relative, or moves by less than _RQ_RTOL, in at most _MAX_SOLVES solves
_ROUTE_CELLS = 1500
_SEED_CELLS = 500
_REFINE = 4
_RQ_RTOL = 1e-12
_MAX_SOLVES = 6


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
    # rows, pi-weighted orthonormal on the grid; None when vectors=False
    eigenfunctions: np.ndarray | None
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
    """Cell-center grid on numerics.moment_window within the truncated
    support: the one window of every generator grid and the row check."""
    mom = proc.moments
    # inside the truncated support the density stays representable, so the
    # quadrature V/pi is 0/0-free
    lo, hi = numerics.moment_window(proc.source._pdf, mom.m1,
                                    math.sqrt(mom.variance),
                                    *proc.source.truncated_support())
    return Grid.cell_centers(lo, hi, n)


def discretize_generator(target, grid: Grid) -> Discretization:
    """Symmetric tridiagonal of the (negated) generator on cell centers.

    target is an OptimalProcess or a (pdf, variance) pair of callables. An
    entry that is not finite (pi h^2 underflows) raises NumericalFailure.
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
    with np.errstate(all="ignore"):
        diag = (w_left + w_right) / (pi * h * h)
        offdiag = -faces / (h * h * np.sqrt(pi[:-1] * pi[1:]))
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(offdiag))):
        raise NumericalFailure("generator entries are not finite on (%.6g,"
                               " %.6g)" % (grid.a, grid.b))
    weights = np.sqrt(pi * h)
    return Discretization(grid=grid, diag=diag, offdiag=offdiag,
                          weights=weights, pi=pi, faces=faces)


def spectrum(disc: Discretization, k: int, *,
             vectors: bool = True) -> SpectrumResult:
    """k smallest eigenvalues with pi-orthonormal eigenfunctions.

    With vectors=False only the eigenvalues are computed (the same values,
    bit for bit) and eigenfunctions is None.

    On a grid of at most 1500 points (_ROUTE_CELLS), or for k = n, they
    are numerics.tridiag_eigs's bisection values, accurate to about
    eps ||T|| (||T|| ~ g / (pi h^2)). On a finer grid, the spectrum
    command's default of 2000 points included, the k < n lowest modes come
    from _certified_low_modes: lambda_0 is 0 and each other lambda_j the
    Dirichlet form of its inverse-iteration vector, whose relative
    accuracy does not depend on ||T||. At 200000 points that takes
    lambda_1's distance from the closed rate from 1.4e-7 to 6e-11 on
    Beta(1, 1), and from 3.6e-8 to 8e-14 on the Normal: what is left is
    the discretization error. When the pairs cannot be certified (two
    modes found at one eigenvalue, say), or the coarse seeds cannot tell
    the modes apart (heavy tails at larger k), bisection's result is
    returned.
    """
    found = None
    if _ROUTE_CELLS < disc.grid.n and 0 < k < disc.grid.n:
        found = _certified_low_modes(disc, k, vectors)
    if found is None:
        found = numerics.tridiag_eigs(disc.diag, disc.offdiag, k,
                                      vectors=vectors)
    lams, vecs = found
    if vecs is None:
        return SpectrumResult(eigenvalues=lams, eigenfunctions=None,
                              grid=disc.grid)
    vecs /= disc.weights[:, None]
    funcs = vecs.T
    # each eigenfunction's largest entry is positive
    peaks = funcs[np.arange(k), np.argmax(np.abs(funcs), axis=1)]
    funcs[peaks < 0] *= -1.0
    return SpectrumResult(eigenvalues=lams, eigenfunctions=funcs,
                          grid=disc.grid)


def _coarsening(disc: Discretization, r: int):
    """diag, offdiag and cell masses of disc's generator coarsened by r.

    Each coarse cell is r fine cells, the last maybe fewer; its mass is the
    sum of theirs. Each coarse face keeps g of the fine face there, over
    the coarse spacing r h.
    """
    n = disc.grid.n
    h = disc.grid.h
    # pi h is weights^2; summing pi makes no temporary of length n
    mass = np.add.reduceat(disc.pi, np.arange(0, n, r)) * h
    cond = disc.faces[r - 1::r] / (r * h)
    flux = np.concatenate([[0.0], cond, [0.0]])
    diag = (flux[:-1] + flux[1:]) / mass
    offdiag = -cond / np.sqrt(mass[:-1] * mass[1:])
    return diag, offdiag, mass


def _seed_ratio(n: int) -> int:
    """Fine cells to a cell of the seeds' coarsening of an n-cell
    generator."""
    return -(-n // _SEED_CELLS)


def _coarse_modes(disc: Discretization, m: int, slack: float):
    """Seeds for the m lowest eigenvalues of disc's generator T, and the
    rows of the coarse eigenfunctions they come from, as (r, seeds, rows),
    from T's coarsening by r fine cells to a cell (_richardson_seeds); None
    when no coarsening tried gives seeds that tell T's modes apart.

    The seeds come from the coarsening to about _SEED_CELLS cells. Where
    those cannot tell the modes apart, or are rough, or where some mode
    j < m - 1 cannot stop on its residual (slack, the rounding allowance of
    _certified_low_modes, already fails the bound), they come from the
    coarsening _REFINE times finer instead, if that is still a coarsening
    by 2 or more and its seeds tell the modes apart: rough seeds converge
    slowly, and the modes that stop on the quotient rule stop sooner from
    finer seeds.
    """
    r = _seed_ratio(disc.grid.n)
    found = _richardson_seeds(disc, r, m)
    if found is not None:
        seeds, rows, rough = found
        floor = np.any(slack * slack > _stop_tolerances(seeds) * seeds[1:-1])
        if not (rough or floor):
            return r, seeds, rows
    if r >= 2 * _REFINE:
        finer = _richardson_seeds(disc, r // _REFINE, m)
        if finer is not None:
            return r // _REFINE, finer[0], finer[1]
    return None if found is None else (r, seeds, rows)


def _richardson_seeds(disc: Discretization, r: int, m: int):
    """Seeds for the m lowest eigenvalues of disc's generator T from its
    coarsening by r fine cells to a cell (_coarsening), the rows of that
    coarsening's eigenfunctions, and whether the seeds are rough, as
    (seeds, rows, rough); None when the twice coarser generator has fewer
    than m cells, or when the seeds cannot tell T's modes apart.

    The coarse eigenvalues converge at second order in the cell size, so a
    coarse eigenvalue's error is about a third of its distance d_j from the
    twice coarser generator's eigenvalue j; each seed is the coarse
    eigenvalue less that estimate (Richardson extrapolation). Inverse
    iteration from a seed reaches its own mode when the seed's error is
    below half the gap to the seeds on either side (the last seed, which
    only bounds the Sturm count, below the gap to the one before it). The
    seeds tell the modes apart when each d_j but the first is below that
    gap, a margin for the estimate, which a target with too few discrete
    modes fails (InverseGamma(2) at k = 12, say). They are rough when some
    d_j of a mode 1..m - 2 reaches half that gap.
    """
    diag, offdiag, mass = _coarsening(disc, r)
    coarser_diag, coarser_offdiag, _ = _coarsening(disc, 2 * r)
    if m > coarser_diag.size:
        return None
    lams, vecs = numerics.tridiag_eigs(diag, offdiag, m)
    coarser = numerics.tridiag_eigs(coarser_diag, coarser_offdiag, m,
                                    vectors=False)[0]
    moved = lams - coarser
    gaps = np.diff(lams)
    near = np.append(np.minimum(gaps[:-1], gaps[1:]), gaps[-1])
    if not np.all(np.abs(moved[1:]) < near):
        return None
    rough = np.any(np.abs(moved[1:-1]) >= 0.5 * near[:-1])
    return (lams + moved / 3.0, (vecs / np.sqrt(mass)[:, None]).T,
            bool(rough))


def _stop_tolerances(seeds):
    """tol_j for modes 1..m - 2 of seeds: half _RQ_RTOL times the gap to the
    nearer neighbouring seed. A mode stops once ||r||^2 <= tol_j rho."""
    gaps = np.diff(seeds)
    return 0.5 * _RQ_RTOL * np.minimum(gaps[:-1], gaps[1:])


def _certified_low_modes(disc: Discretization, k: int, vectors: bool):
    """The k lowest eigenpairs of disc's generator T by shifted inverse
    iteration, seeded from the k + 1 lowest modes of its coarsening by r
    fine cells to a cell (_coarse_modes); None when they cannot be
    certified, or when the seeds cannot tell the modes apart, which is
    found before any solve.

    Mode 0 is weights itself, with eigenvalue 0, and takes no solve. Mode
    j >= 1 starts from coarse eigenfunction j, linear between the coarse
    cells' centres (_start), and from sigma = seeds[j]. Each step solves
    (T - sigma) y = x (LAPACK dgtsv), normalizes y into x and resets sigma
    to x's Rayleigh quotient rho. rho is taken as the Dirichlet form
    sum_j (g_j / h) (u_{j+1} - u_j)^2 / sum_i x_i^2, u = x / weights: a sum
    of positive terms, so its relative accuracy does not depend on the norm
    of T, as bisection's does.

    A mode stops once rho is known to within half _RQ_RTOL relative. The
    Kato-Temple bound (Parlett, The Symmetric Eigenvalue Problem, ch. 10)
    gives |lambda - rho| <= ||r||^2 / gap for r = T x - rho x, with the
    gap from rho to the rest of the spectrum, here that to the nearer
    neighbouring seed. So the mode stops once
    (||r|| + 3 eps ||T||)^2 <= gap _RQ_RTOL rho / 2, 3 eps ||T|| being the
    allowance for the rounding of T x. Where that allowance alone fails
    the test (compact supports at 200000 points) the residual is not
    taken until the mode stops, and the seeds come from the finer
    coarsening, about 2000 cells, from which the next rule stops a mode
    sooner. Any mode also
    stops once rho moves by less than _RQ_RTOL relative, within
    _MAX_SOLVES solves.

    The result is certified when every solve succeeds and every mode
    stops; when the intervals rho_j +- (||r_j|| + 3 eps ||T||) (each holds
    an eigenvalue of T) are disjoint and lie below
    mu = (rho_{k-1} + seeds[k]) / 2; and when the Sturm count of T below mu
    is k. Then the intervals hold the k lowest eigenvalues, one each.

    With vectors=True the eigenvectors are the unit-norm columns of an
    (n, k) array. A mode stopped by the bound takes one more solve, at its
    rho, for its vector alone: the bound settles rho before the vector has
    converged as far. The eigenvalues are those of vectors=False bit for
    bit. With vectors=False one iteration vector is held at a time, and the
    Sturm count runs after it and the coarse modes are dropped.
    """
    d, e, w = disc.diag, disc.offdiag, disc.weights
    n = d.size
    # reductions, not np.abs, so that no temporary of length n is made
    d_min, d_max = float(np.min(d)), float(np.max(d))
    e_max = max(float(np.max(e)), -float(np.min(e)))
    # 3 eps ||T||, the allowance for the rounding of T x
    slack = 3.0 * np.finfo(float).eps * (max(d_max, -d_min) + 2.0 * e_max)
    coarse = _coarse_modes(disc, k + 1, slack)
    if coarse is None:
        return None
    r, seeds, starts = coarse
    tols = _stop_tolerances(seeds)
    lams = np.zeros(k)
    radii = np.empty(k)
    vecs = np.empty((k, n)).T if vectors else None
    # dgtsv overwrites the three diagonals it is given; between solves they
    # are the scratch of the quotient and the residual
    lower, middle, upper = np.empty(n - 1), np.empty(n), np.empty(n - 1)
    x = w / math.sqrt(float(w @ w))
    radii[0] = _residual_norm(d, e, x, 0.0, middle, lower) + slack
    if vectors:
        vecs[:, 0] = x
    for j in range(1, k):
        _start(x, w, starts[j], r)
        sigma = float(seeds[j])
        tol = float(tols[j - 1])
        bounded = slack * slack <= tol * sigma
        by_bound = False
        for _ in range(_MAX_SOLVES):
            x = _shifted_solve(d, e, sigma, x, lower, middle, upper)
            if x is None:
                return None
            with np.errstate(all="ignore"):  # a non-finite rho fails below
                x /= math.sqrt(float(x @ x))
                rho = _dirichlet_quotient(disc, x, middle, lower)
            if not math.isfinite(rho):
                return None
            moved = abs(rho - sigma) > _RQ_RTOL * rho
            sigma = rho
            if bounded:
                radius = _residual_norm(d, e, x, rho, middle, lower) + slack
                by_bound = radius * radius <= tol * rho
            if by_bound or not moved:
                break
        else:
            return None
        if not bounded:
            radius = _residual_norm(d, e, x, rho, middle, lower) + slack
        lams[j] = rho
        radii[j] = radius
        if not lams[j] - radii[j] > lams[j - 1] + radii[j - 1]:
            return None
        if vectors:
            v = vecs[:, j]
            v[:] = x
            if by_bound:
                _refine(d, e, rho, v, x, lower, middle, upper)
            # the solves leave the modes orthogonal only to about
            # eps ||T|| / gap; one Gram-Schmidt pass restores it
            v -= vecs[:, :j] @ (vecs[:, :j].T @ v)
            v /= math.sqrt(float(v @ v))
    mu = 0.5 * (lams[-1] + float(seeds[k]))
    del x, lower, middle, upper, coarse, seeds, starts
    if not lams[-1] + radii[-1] < mu:
        return None
    # dstebz counts the eigenvalues in (vl, mu]; with abstol that large it
    # stops at the count. vl lies below Gershgorin's bound
    vl = d_min - 3.0 * e_max - 1.0
    count, _, _, _, info = lapack.dstebz(d, e, 1, vl, mu, 0, 0, 1e300, "E")
    if info != 0 or count != k:
        return None
    return lams, vecs


def _start(x, w, start, r):
    """x set to w times start, given at the centres of the coarse cells of r
    fine cells: linear between the centres of the full coarse cells and
    constant beyond the outer ones; a last, partial coarse cell is constant.

    A start constant on each coarse cell jumps at every cell edge. One
    solve leaves the fast modes of those jumps in the residual, more than
    the bound that stops a mode allows.
    """
    whole = x.size // r * r  # fine cells in full coarse cells
    m = whole // r
    steps = np.diff(start[:m])
    # per full coarse cell, the slopes towards the centres on either side,
    # and each fine cell's offset from its coarse cell's centre, in cells
    left = np.concatenate([[0.0], steps])
    right = np.concatenate([steps, [0.0]])
    offset = (np.arange(r) - 0.5 * (r - 1)) / r
    half = r // 2  # fine cells left of the centre
    cells = x[:whole].reshape(m, r)
    np.multiply.outer(left, offset[:half], out=cells[:, :half])
    np.multiply.outer(right, offset[half:], out=cells[:, half:])
    cells += start[:m, None]
    x[whole:] = start[-1]
    x *= w


def _shifted_solve(d, e, sigma, x, lower, middle, upper):
    """The solution y of (T - sigma) y = x for T = (d, e), written over x
    (LAPACK dgtsv, which overwrites the three scratch diagonals); None
    when the solve fails."""
    np.copyto(lower, e)
    np.copyto(upper, e)
    np.subtract(d, sigma, out=middle)
    _, _, _, x, info = lapack.dgtsv(lower, middle, upper, x, overwrite_dl=1,
                                    overwrite_d=1, overwrite_du=1,
                                    overwrite_b=1)
    return x if info == 0 else None


def _refine(d, e, rho, v, x, lower, middle, upper):
    """v, a copy of the unit vector x, replaced by the normalized solution
    of (T - rho) y = x; left as x when the solve fails or overflows."""
    y = _shifted_solve(d, e, rho, v, lower, middle, upper)
    with np.errstate(all="ignore"):
        norm = math.sqrt(float(y @ y)) if y is not None else math.nan
    if not (math.isfinite(norm) and norm > 0.0):
        v[:] = x
        return
    if y is not v:
        v[:] = y
    v /= norm


def _dirichlet_quotient(disc: Discretization, x, scratch, face_scratch):
    """sum_j (g_j / h) (u_{j+1} - u_j)^2 / sum_i x_i^2, u = x / weights,
    computed in the two scratch arrays (lengths n and n - 1)."""
    u = np.divide(x, disc.weights, out=scratch)
    du = np.subtract(u[1:], u[:-1], out=face_scratch)
    np.multiply(du, du, out=du)
    np.multiply(du, disc.faces, out=du)
    return float(np.sum(du)) / (disc.grid.h * float(x @ x))


def _residual_norm(d, e, x, rho, scratch, face_scratch):
    """||T x - rho x|| for T = (d, e), computed in the two scratch arrays
    (lengths n and n - 1)."""
    r = np.subtract(d, rho, out=scratch)
    np.multiply(r, x, out=r)
    np.multiply(e, x[1:], out=face_scratch)
    r[:-1] += face_scratch
    np.multiply(e, x[:-1], out=face_scratch)
    r[1:] += face_scratch
    return math.sqrt(float(r @ r))


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
