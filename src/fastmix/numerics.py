"""Shared numeric kernels: grids, adaptive quadrature, tridiagonal eigenpairs,
hypergeometric series, log-linear decay fits, and the CSV table writer.

Integrands passed to :func:`integrate` are evaluated on numpy arrays of nodes
(15 at a time), so they must be vectorized.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    ConvergenceFailure,
    InvalidInterval,
    NonConvergence,
    NonPositiveValues,
    NumericalFailure,
    PoleAtC,
    SeriesDivergence,
)

_SERIES_EPS = 1e-15
_SERIES_BUDGET = 10000
# rows per write in write_csv, and rows per % within a write. Formatting a
# whole file's rows in one % held about 190 bytes of Python objects per row
# (3.8 MB at 20k rows) and raised the peak RSS of a simulate run; so did one
# % per chunk of 32 to 4096 rows, by about 0.3 MB: strings and tuples of a
# few KB go to malloc, and their churn fragments the heap. At 8 rows of the
# autocorrelation they stay under the 512 bytes that Python's small-object
# allocator serves. In 10 pairs of paths benchmark runs, 256 rows a % read
# 0.47 MB higher in peak RSS (in 10 of 10); 8 rows did not (lower in 7 of
# 10), and a 19875-row autocorr.csv took about 15% less time than with one
# % per row.
_CSV_ROWS = 256
_FORMAT_ROWS = 8

# 15-point Kronrod extension of 7-point Gauss (QUADPACK DQK15 constants).
_XK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
# Gauss-7 weights aligned with the odd Kronrod nodes (indices 1,3,...,13).
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


@dataclass(frozen=True)
class Grid:
    """Strictly increasing, evenly spaced 1-d grid of at least 3 points
    (spacing deviations at most 1e-12 relative to the span)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 3:
            raise ValueError("grid needs at least 3 points in 1-d")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        d = np.diff(pts)
        if np.any(d <= 0):
            raise ValueError("grid points must be strictly increasing")
        h = (pts[-1] - pts[0]) / (pts.size - 1)
        if np.max(np.abs(d - h)) > 1e-12 * max(1.0, pts[-1] - pts[0]):
            raise ValueError("spacing is not uniform")

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])

    @property
    def n(self) -> int:
        return int(self.points.size)

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n - 1)

    @classmethod
    def uniform(cls, a: float, b: float, n: int) -> "Grid":
        return cls(np.linspace(a, b, n))

    @classmethod
    def cell_centers(cls, a: float, b: float, n: int) -> "Grid":
        """Midpoints of n equal cells of [a, b]; strictly interior."""
        if n < 3:
            raise ValueError("grid needs at least 3 points in 1-d")
        h = (b - a) / n
        return cls(a + h * (np.arange(n) + 0.5))


@dataclass
class GridFunction:
    """Sampled function on a grid, evaluable off-grid by monotone cubics."""

    grid: Grid
    values: np.ndarray
    _interp: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.points.shape:
            raise ValueError("values shape does not match grid")
        self.values = vals

    def __call__(self, x):
        if self._interp is None:
            from scipy.interpolate import PchipInterpolator

            self._interp = PchipInterpolator(self.grid.points, self.values)
        return self._interp(x)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class RateEstimate:
    rate: float
    stderr: float
    fit_window: tuple


def _gk15(f, a, b):
    """One Gauss-Kronrod panel: (kronrod, error estimate, evaluations)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _XK
    y = f(x)
    y = np.asarray(y, dtype=float)
    if y.shape != x.shape:
        raise ValueError("integrand must return one value per node")
    if not np.all(np.isfinite(y)):
        raise NumericalFailure(
            "integrand returned non-finite values on (%.6g, %.6g)" % (a, b))
    resk = half * float(_WK @ y)
    resg = half * float(_WG @ y[1::2])
    # QUADPACK-style error scaling keeps the estimate honest when the
    # plain |K - G| difference is accidentally tiny.
    resasc = half * float(_WK @ np.abs(y - (resk / (b - a) if b != a else 0.0)))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk, err, x.size


def _adaptive(f, edges, tol, rel_tol, max_intervals):
    """Bisect the worst panel until the summed error estimate is small; the
    heap starts with one panel per piece between consecutive edges."""
    heap = []
    total_val = total_err = 0.0
    n_eval = 0
    for a, b in zip(edges[:-1], edges[1:]):
        val, err, k = _gk15(f, a, b)
        total_val += val
        total_err += err
        n_eval += k
        heap.append((-err, a, b, val))
    heapq.heapify(heap)
    count = len(heap)
    while total_err > max(tol, rel_tol * abs(total_val)):
        if count >= max_intervals:
            raise NonConvergence(
                "quadrature error %.3e above tolerance after %d intervals"
                % (total_err, count))
        neg_err, lo, hi, old_val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval exhausted floating point resolution; accept it
            total_err += neg_err  # removes this interval's error from the sum
            if not heap:
                break
            continue
        v1, e1, k1 = _gk15(f, lo, mid)
        v2, e2, k2 = _gk15(f, mid, hi)
        total_val += v1 + v2 - old_val
        total_err += e1 + e2 + neg_err
        n_eval += k1 + k2
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        count += 1
    return total_val, max(total_err, 0.0), n_eval


def integrate(f, a, b, tol=1e-10, *, rel_tol=1e-12, singular_left=False,
              singular_right=False, max_intervals=4096, scale=1.0,
              points=()) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integral of a vectorized f over [a, b].

    Refinement bisects the interval with the largest error estimate until the
    summed estimate drops below max(tol, rel_tol * |value|). One end may be
    infinite: [a, inf) is mapped onto [0, 1) by x = a + scale t/(1-t), and
    (-inf, b] by x = b - scale t/(1-t), as in QUADPACK's QAGI, which keeps
    polynomially decaying tails integrable to full precision; scale should be
    the length over which the tail's mass lies. On a finite interval,
    integrable endpoint singularities are handled by the substitution
    x = a + u**2 (resp. x = b - u**2) when the corresponding flag is set; the
    Kronrod nodes themselves never touch the endpoints. Breakpoints inside a
    finite (a, b), such as the knots of a piecewise density, start the
    refinement with one panel per piece, as QUADPACK's QAGP does.
    """
    a = float(a)
    b = float(b)
    if not a < b or math.isinf(a) and math.isinf(b):
        raise InvalidInterval("need a < b with a finite end, got (%r, %r)"
                              % (a, b))
    infinite = math.isinf(a) or math.isinf(b)
    if (singular_left or singular_right or len(points)) and infinite:
        raise InvalidInterval("singular endpoint flags and breakpoints need "
                              "a finite interval")
    s = float(scale)
    if not s > 0.0:
        raise ValueError("scale must be positive")
    inner = np.asarray(points, dtype=float)
    inner = np.unique(inner[(inner > a) & (inner < b)])
    pieces = []
    if infinite:
        def mapped(t):
            if t[-1] == 1.0:  # bisection ran out of resolution at infinity
                raise NumericalFailure("integrand does not decay at infinity")
            st = s * t / (1.0 - t)
            return s * f(a + st if math.isinf(b) else b - st) / (1.0 - t) ** 2
        pieces.append((mapped, [0.0, 1.0]))
    elif singular_left and singular_right:
        mid = 0.5 * (a + b)
        pieces.append((lambda u, _a=a: 2.0 * u * f(_a + u * u),
                       _cuts(np.sqrt(inner[inner < mid] - a), mid - a)))
        pieces.append((lambda u, _b=b: 2.0 * u * f(_b - u * u),
                       _cuts(np.sqrt(b - inner[inner > mid])[::-1], b - mid)))
    elif singular_left:
        pieces.append((lambda u, _a=a: 2.0 * u * f(_a + u * u),
                       _cuts(np.sqrt(inner - a), b - a)))
    elif singular_right:
        pieces.append((lambda u, _b=b: 2.0 * u * f(_b - u * u),
                       _cuts(np.sqrt(b - inner)[::-1], b - a)))
    else:
        pieces.append((f, [a] + inner.tolist() + [b]))
    value = err = 0.0
    n_eval = 0
    per_tol = tol / len(pieces)
    for g, edges in pieces:
        v, e, k = _adaptive(g, edges, per_tol, rel_tol, max_intervals)
        value += v
        err += e
        n_eval += k
    return QuadratureResult(value=value, abs_error_estimate=err,
                            evaluations=n_eval)


def _cuts(inner_u, width):
    """Edges [0, *inner_u, sqrt(width)] of a substituted piece."""
    return [0.0] + [float(u) for u in inner_u] + [math.sqrt(width)]


def kronrod_panels(lo, hi):
    """Nodes and weights of one 15-point Kronrod panel on each [lo, hi].

    lo and hi are arrays of n interval ends; the result is a pair of (n, 15)
    arrays with sum(weights * f(nodes), axis=1) the n panel integrals of f.
    """
    lo = np.asarray(lo, dtype=float)[:, None]
    hi = np.asarray(hi, dtype=float)[:, None]
    half = 0.5 * (hi - lo)
    return 0.5 * (lo + hi) + half * _XK, half * _WK


def tridiag_eigs(diag, offdiag, k=1, *, vectors=True):
    """k smallest eigenpairs of the symmetric tridiagonal (diag, offdiag).

    Returns (eigenvalues, vectors): the k eigenvalues in ascending order and
    an (n, k) array whose columns are the matching unit-norm eigenvectors.
    With vectors=False the second item is None. For k < n the eigenvalues
    then come from bisection alone (LAPACK dstebz), without the inverse
    iteration that gives the vectors; they are the same bit for bit. For
    k == n the all-pairs driver still runs and its vectors are dropped:
    the values-only all-pairs driver (dsterf) is a different algorithm and
    its low eigenvalues differ.
    """
    d = np.asarray(diag, dtype=float)
    e = np.asarray(offdiag, dtype=float)
    if d.ndim != 1 or d.size < 1:
        raise ValueError("diag must be a nonempty 1-d array")
    if e.shape != (d.size - 1,):
        raise ValueError("offdiag must have length len(diag) - 1")
    if not (1 <= k <= d.size):
        raise ValueError("k must be in [1, %d]" % d.size)
    try:
        if d.size == 1:
            w, v = np.array([d[0]]), np.ones((1, 1))
        elif k == d.size:
            # the index-range driver is 10-30x slower when asked for all pairs
            w, v = scipy.linalg.eigh_tridiagonal(d, e)
        elif vectors:
            w, v = scipy.linalg.eigh_tridiagonal(
                d, e, select="i", select_range=(0, k - 1))
        else:
            w = scipy.linalg.eigvalsh_tridiagonal(
                d, e, select="i", select_range=(0, k - 1))
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise ConvergenceFailure(str(exc)) from exc
    if not vectors:
        v = None  # the n == 1 and k == n routes compute them either way
    if not (np.all(np.isfinite(w)) and (v is None or np.all(np.isfinite(v)))):
        raise ConvergenceFailure("eigensolver returned non-finite output")
    if v is not None:
        # column norms by einsum, which makes no temporary the size of v
        v /= np.sqrt(np.einsum("ij,ij->j", v, v))
    return w, v


def _is_nonpositive_integer(x) -> bool:
    return x <= 0 and float(x) == math.floor(x)


def _series(ratio, name, z):
    """1 + t_1 + t_2 + ... with t_r = t_{r-1} ratio(r-1), t_0 = 1.

    Terms are accumulated until below 1e-15 of the partial sum (twice in a
    row, so a single small coefficient cannot stop the sum early) or zero;
    running out of the 10000-term budget first raises NonConvergence, and a
    partial sum that overflows raises NumericalFailure.
    """
    total = term = 1.0
    small = 0
    for r in range(_SERIES_BUDGET):
        term *= ratio(r)
        total += term
        if not math.isfinite(total):
            raise NumericalFailure("%s series overflowed at z=%g" % (name, z))
        if term == 0.0:
            return total
        if abs(term) <= _SERIES_EPS * abs(total):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    raise NonConvergence("%s series did not converge in %d terms at z=%g"
                         % (name, _SERIES_BUDGET, z))


def hyp2f1(a, b, c, z) -> float:
    """Gauss hypergeometric series sum_r (a)_r (b)_r z^r / ((c)_r r!).

    Terminating cases (a or b a nonpositive integer) are polynomials and are
    evaluated for any z; otherwise |z| >= 1 raises SeriesDivergence. The
    sum stops as described in _series; near z = 1 it can exhaust the term
    budget and raise NonConvergence.
    """
    a = float(a)
    b = float(b)
    c = float(c)
    z = float(z)
    if _is_nonpositive_integer(c):
        raise PoleAtC("lower parameter c=%g is a nonpositive integer" % c)
    terminating = _is_nonpositive_integer(a) or _is_nonpositive_integer(b)
    if not terminating and abs(z) >= 1.0:
        raise SeriesDivergence("series needs |z| < 1, got z=%g" % z)
    return _series(lambda r: (a + r) * (b + r) / ((c + r) * (r + 1.0)) * z,
                   "hyp2f1", z)


def hyp1f1(a, c, z) -> float:
    """Confluent hypergeometric series sum_r (a)_r z^r / ((c)_r r!).

    Unless a is a nonpositive integer (a polynomial), z < 0 goes through
    Kummer's 1F1(a; c; z) = e^z 1F1(c - a; c; -z), which does not cancel.
    The sum stops as described in _series; |z| beyond about 700 overflows.
    """
    a = float(a)
    c = float(c)
    z = float(z)
    if _is_nonpositive_integer(c):
        raise PoleAtC("lower parameter c=%g is a nonpositive integer" % c)
    if z < 0.0 and not _is_nonpositive_integer(a):
        return math.exp(z) * hyp1f1(c - a, c, -z)
    return _series(lambda r: (a + r) / ((c + r) * (r + 1.0)) * z, "hyp1f1", z)


def fit_exponential_decay(times, values) -> RateEstimate:
    """Least-squares slope of log(values) against times.

    Returns RateEstimate(rate = -slope, stderr of the slope, (t_min, t_max)).
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != v.shape:
        raise ValueError("times and values must be 1-d arrays of equal length")
    if t.size < 3:
        raise ValueError("need at least 3 points to fit a slope with stderr")
    if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
        raise NonPositiveValues("values must be positive and finite")
    y = np.log(v)
    tbar = t.mean()
    sxx = float(np.sum((t - tbar) ** 2))
    if sxx == 0.0:
        raise ValueError("times are all identical")
    slope = float(np.sum((t - tbar) * (y - y.mean())) / sxx)
    resid = y - (y.mean() + slope * (t - tbar))
    dof = t.size - 2
    stderr = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx) if dof > 0 else 0.0
    return RateEstimate(rate=-slope, stderr=stderr,
                        fit_window=(float(t.min()), float(t.max())))


def truncated_interval(pdf, lower, upper, anchor, scale):
    """Finite window outside of which pdf is below 1e-14 of its peak.

    Infinite endpoints are pushed out by doubling the distance from the
    anchor until the density on the newly added segment falls below
    1e-14 * (running max). A finite endpoint is kept unless the density
    underflows there (an essential zero), in which case it is pulled inward
    by bisection to where the density becomes representable again.
    """
    rel = 1e-14
    scale = max(float(scale), 1e-12)
    lo = float(lower)
    hi = float(upper)
    x0 = float(anchor)
    probe_lo = x0 - 4.0 * scale if not math.isfinite(lo) else lo
    probe_hi = x0 + 4.0 * scale if not math.isfinite(hi) else hi
    probe = np.asarray(pdf(np.linspace(probe_lo, probe_hi, 513)), dtype=float)
    # a pole at a finite end is no peak: 1e-14 of it would cut any tail short
    pmax = float(np.max(probe[np.isfinite(probe)], initial=0.0))
    if not (pmax > 0.0):
        raise NumericalFailure("density is zero on the probe window")

    def grow(side):
        nonlocal pmax
        step = scale
        edge = x0 + step if side > 0 else x0 - step
        for _ in range(64):
            nxt = x0 + 2 * (edge - x0)
            seg = np.linspace(edge, nxt, 65) if side > 0 else np.linspace(nxt, edge, 65)
            seg_max = float(np.max(pdf(seg)))
            pmax = max(pmax, seg_max)
            edge = nxt
            if seg_max < rel * pmax:
                return edge
        raise NonConvergence("support truncation search did not terminate")

    def pull_in(edge):
        if float(pdf(np.asarray(edge))) >= rel * pmax:
            return edge
        outer, inner = edge, x0
        for _ in range(200):
            mid = 0.5 * (outer + inner)
            if float(pdf(np.asarray(mid))) >= rel * pmax:
                inner = mid
            else:
                outer = mid
            if abs(inner - outer) <= 1e-13 * max(1.0, abs(inner)):
                break
        return inner

    a = pull_in(lo) if math.isfinite(lo) else grow(-1)
    b = pull_in(hi) if math.isfinite(hi) else grow(+1)
    return a, b


def moment_window(pdf, m1, sd, lower, upper):
    """[m1 - 8 sd, m1 + 8 sd], clipped to [lower, upper].

    A side whose density is still at least 1e-10 at its edge (heavy tails)
    is pushed out by doubling its distance from m1.
    """
    def push(edge):
        for _ in range(60):
            if not lower < edge < upper or float(pdf(np.asarray(edge))) < 1e-10:
                break
            edge = m1 + 2.0 * (edge - m1)
        return edge

    return max(push(m1 - 8.0 * sd), lower), min(push(m1 + 8.0 * sd), upper)


def chebyshev_points(a, b, n):
    """n Chebyshev points of the first kind on (a, b), ascending, interior."""
    k = np.arange(n)
    x = np.cos(np.pi * (2 * k + 1) / (2 * n))
    return 0.5 * (a + b) + 0.5 * (b - a) * x[::-1]


def write_csv(path, header, row_format, *columns):
    """Write header, then row_format % (one value of each column) per row,
    up to the shortest column.

    Rows are formatted from Python numbers (tolist values), which give the
    text the numpy scalars give, _FORMAT_ROWS at a time by one % of the
    repeated row_format over their values, and written _CSV_ROWS at a time.
    """
    cols = [np.asarray(c) for c in columns]
    n = min(len(c) for c in cols)
    k, step = len(cols), _FORMAT_ROWS
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for lo in range(0, n, _CSV_ROWS):
            m = min(_CSV_ROWS, n - lo)
            values = [None] * (m * k)  # row by row
            for j, c in enumerate(cols):
                values[j::k] = c[lo:lo + m].tolist()
            fh.write("".join([
                (row_format * min(step, m - r))
                % tuple(values[r * k:(r + step) * k])
                for r in range(0, m, step)]))
