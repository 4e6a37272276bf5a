"""Tests for the finite-volume generator discretization: spectrum accuracy
and convergence order, Rayleigh-quotient minimality of the linear slow mode,
and the mass-conserving forward evolution in the generator's eigenbasis.
"""

import math

import numpy as np
import pytest

from fastmix import spectral
from fastmix.distributions import (
    _KINDS,
    Beta,
    CubicPearson,
    Custom,
    FisherSnedecor,
    Gamma,
    Hyperexponential,
    InverseGamma,
    Jacobi,
    Normal,
    StudentCauchy,
)
from fastmix.errors import GridTooCoarse, NumericalFailure, ZeroDenominator
from fastmix.numerics import Grid, GridFunction, tridiag_eigs
from fastmix.optimal import synthesize
from fastmix.spectral import (
    EvolutionState,
    default_grid,
    discretize_generator,
    evolve_fpe,
    fit_decay_rate,
    gaussian_bump,
    rayleigh_quotient,
    spectrum,
    write_decay_csv,
    write_spectrum_csv,
)


class TestDiscretization:
    def test_shapes_and_signs(self):
        proc = synthesize(Beta(1.0, 1.0))
        g = default_grid(proc, 200)
        d = discretize_generator(proc, g)
        assert d.diag.shape == (200,)
        assert d.offdiag.shape == (199,)
        assert d.faces.shape == (199,)
        assert np.all(d.diag > 0) and np.all(d.offdiag < 0)

    def test_constant_function_is_in_the_kernel(self):
        """L(const) = 0: the weight vector is an exact null vector of the
        symmetric form."""
        proc = synthesize(Beta(2.0, 2.0))
        g = default_grid(proc, 300)
        d = discretize_generator(proc, g)
        w = d.weights
        r = d.diag * w
        r[:-1] += d.offdiag * w[1:]
        r[1:] += d.offdiag * w[:-1]
        assert np.max(np.abs(r)) < 1e-9 * np.max(d.diag * w)

    def test_too_coarse(self):
        proc = synthesize(Beta(1.0, 1.0))
        with pytest.raises(GridTooCoarse):
            discretize_generator(proc, Grid.cell_centers(0.0, 1.0, 49))

    @pytest.mark.parametrize("sd", [1e-60, 1e-100])
    def test_entries_that_underflow_are_a_typed_failure(self, sd):
        """On a grid a few 1e-100 wide pi h^2 underflows at the edges: a
        NumericalFailure, not a division warning."""
        proc = synthesize(Normal(0.0, sd))
        with pytest.raises(NumericalFailure):
            discretize_generator(proc, default_grid(proc, 2000))

    def test_accepts_pdf_variance_pair(self):
        spec = Beta(1.0, 1.0)
        proc = synthesize(spec)
        g = default_grid(proc, 100)
        d = discretize_generator((spec._pdf, proc.variance_fn), g)
        assert d.grid is g


# catalog targets, among them ends where the density vanishes (Beta(2, 5),
# Gamma(3)), underflows (InverseGamma at 0) or has a pole (Gamma(-0.5))
CATALOG_TARGETS = [
    Beta(1.0, 1.0), Beta(2.0, 5.0), Jacobi(0.5, 1.5), Jacobi(-0.5, -0.5),
    Gamma(1.0), Gamma(3.0), Gamma(-0.5), Normal(0.0, 1.0),
    StudentCauchy(3.0), InverseGamma(2.0), InverseGamma(3.0),
    InverseGamma(10.0), FisherSnedecor(6.0, 10.0), FisherSnedecor(1.5, 9.0),
    Hyperexponential(0.5, 0.5, 1.0, 2.0), CubicPearson(1.0, 2.0, 0.5),
    CubicPearson(2.0, 0.5, -0.5),
]


class TestDefaultGrid:
    def test_clipped_to_finite_support(self):
        proc = synthesize(Beta(1.0, 1.0))
        g = default_grid(proc, 128)
        assert 0.0 < g.a < g.b < 1.0
        assert g.n == 128

    def test_gaussian_window(self):
        proc = synthesize(Normal(0.0, 1.0))
        g = default_grid(proc, 100)
        assert -9.0 < g.a < -7.5 and 7.5 < g.b < 9.0

    def test_heavy_tail_pushes_out(self):
        proc = synthesize(StudentCauchy(3.0))
        s = math.sqrt(proc.moments.variance)
        g = default_grid(proc, 100)
        assert g.b > 8.0 * s  # density at 8 sd still above the cutoff

    def test_every_catalog_kind_is_covered(self):
        kinds = {type(s) for s in CATALOG_TARGETS}
        assert kinds == set(_KINDS.values()) - {Custom}

    @pytest.mark.parametrize("spec", [
        s for s in CATALOG_TARGETS
        if math.isfinite(s.support.lower) or math.isfinite(s.support.upper)],
        ids=lambda s: "%s%s" % (s.kind, tuple(s.params.values())))
    def test_inside_the_truncated_support(self, spec):
        """The grid lies where the density is representable, the
        precondition of discretize_generator."""
        proc = synthesize(spec)
        lo, hi = spec.truncated_support()
        for n in (2000, 20000):
            grid = default_grid(proc, n)
            assert lo <= grid.a and grid.b <= hi
            pi = spec._pdf(grid.points)
            assert np.all(np.isfinite(pi)) and np.all(pi > 0.0)
            discretize_generator(proc, grid)


class TestSpectrum:
    def test_zero_mode_and_orthonormality(self):
        proc = synthesize(Beta(1.0, 1.0))
        g = default_grid(proc, 500)
        s = spectrum(discretize_generator(proc, g), 4)
        assert abs(s.eigenvalues[0]) < 1e-8
        np.testing.assert_allclose(s.eigenfunctions[0], 1.0, atol=1e-6)
        pi = proc.source._pdf(g.points)
        gram = (s.eigenfunctions * pi) @ s.eigenfunctions.T * g.h
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)

    @pytest.mark.parametrize("spec,lam", [
        (Beta(1.0, 1.0), 4.0),
        (Jacobi(1.0, 1.0), 4.0),
        (Gamma(1.0), 1.0),
        (Normal(0.0, 1.0), 1.0),
    ], ids=lambda v: getattr(v, "kind", str(v)))
    def test_gap_matches_analytic_rate(self, spec, lam):
        proc = synthesize(spec)
        g = default_grid(proc, 2000)
        s = spectrum(discretize_generator(proc, g), 2)
        assert abs(s.eigenvalues[1] - lam) <= 0.01 * lam

    def test_slow_mode_is_linear(self):
        proc = synthesize(Beta(1.0, 1.0))
        g = default_grid(proc, 1000)
        s = spectrum(discretize_generator(proc, g), 2)
        phi = s.eigenfunctions[1]
        truth = proc.phi1_at(g.points)
        if float(phi @ truth) < 0:
            phi = -phi
        err = np.abs(phi - truth)
        assert np.max(err) < 5e-3  # zero-flux ends distort the last cells
        assert np.max(err[20:-20]) < 1e-4

    def test_second_excited_level(self):
        # flat density, sigma^2/2 = x(1-x): levels n(n+3), so 4, 10, ...
        proc = synthesize(Beta(1.0, 1.0))
        g = default_grid(proc, 2000)
        s = spectrum(discretize_generator(proc, g), 3)
        assert abs(s.eigenvalues[2] - 10.0) <= 0.01 * 10.0

    @pytest.mark.parametrize("spec", [Beta(1.0, 1.0), Jacobi(1.0, 1.0)],
                             ids=lambda s: s.kind)
    def test_second_order_convergence(self, spec):
        """Gap errors shrink ~4x per grid doubling (second-order faces)."""
        proc = synthesize(spec)
        gaps = []
        for n in (500, 1000, 2000):
            g = default_grid(proc, n)
            s = spectrum(discretize_generator(proc, g), 2)
            gaps.append(s.eigenvalues[1])
        d1 = abs(gaps[0] - gaps[1])
        d2 = abs(gaps[1] - gaps[2])
        assert d2 > 0
        assert 3.0 <= d1 / d2 <= 5.0


def _target_id(spec):
    return "%s%s" % (spec.kind, tuple(spec.params.values()))


# solves per mode past the first at the parent of the bound-stopped
# iteration, which seeded from about 2000 coarse cells and stopped a mode
# once its Rayleigh quotient moved by less than 1e-12 relative: at 20000
# points, then at 200000, for each CATALOG_TARGETS entry in order
RATE_RULE_SOLVES = [
    ((2, 2, 2, 2), (2, 2, 2, 2)), ((2, 2, 2, 2), (2, 2, 2, 2)),
    ((2, 2, 2, 2), (2, 2, 2, 2)), ((2, 2, 2, 2), (2, 2, 2, 2)),
    ((2, 2, 2, 2), (2, 2, 2, 2)), ((2, 2, 2, 2), (2, 2, 2, 2)),
    ((2, 2, 2, 2), (2, 2, 3, 3)), ((2, 2, 2, 2), (2, 2, 2, 2)),
    ((2, 2, 2, 2), (2, 2, 2, 2)), ((3, 3, 3, 3), (3, 3, 3, 3)),
    ((3, 3, 3, 3), (3, 3, 3, 3)), ((2, 2, 2, 2), (2, 2, 2, 2)),
    ((3, 3, 3, 3), (3, 3, 3, 3)), ((3, 3, 3, 3), (3, 3, 3, 3)),
    ((2, 2, 2, 2), (2, 2, 2, 2)), ((2, 2, 2, 2), (2, 2, 2, 2)),
    ((2, 2, 2, 2), (2, 2, 2, 2)),
]


class TestFineSpectrum:
    """Above 1500 points (the spectrum command's default of 2000 among
    them) the low modes come from certified inverse iteration; on failure,
    from bisection unchanged."""

    @staticmethod
    def _spy(monkeypatch):
        """Record whether each call of the inverse iteration certified."""
        certified = []
        real = spectral._certified_low_modes

        def spy(*args):
            found = real(*args)
            certified.append(found is not None)
            return found

        monkeypatch.setattr(spectral, "_certified_low_modes", spy)
        return certified

    @staticmethod
    def _solves(monkeypatch):
        """Record the dgtsv solves: first those before any start vector
        (there should be none), then those of each mode past the first, a
        new count at each start vector."""
        solves = [0]
        start, dgtsv = spectral._start, spectral.lapack.dgtsv

        def started(*args):
            solves.append(0)
            return start(*args)

        def solve(*args, **kwargs):
            solves[-1] += 1
            return dgtsv(*args, **kwargs)

        monkeypatch.setattr(spectral, "_start", started)
        monkeypatch.setattr(spectral.lapack, "dgtsv", solve)
        return solves

    @pytest.mark.parametrize("spec", [Beta(1.0, 1.0), Normal(0.0, 1.0)],
                             ids=lambda s: s.kind)
    def test_gap_at_200k_points_is_the_closed_rate(self, spec):
        """Bisection misses lambda1 by 1.4e-7 (Beta) and 3.6e-8 (Normal)
        relative at 200000 points, and prints lambda0 as noise of 1e-8 to
        1e-6; what is left here is the discretization error."""
        proc = synthesize(spec)
        disc = discretize_generator(proc, default_grid(proc, 200000))
        lams = spectrum(disc, 5, vectors=False).eigenvalues
        assert abs(lams[1] - proc.lambda1) <= 1e-10 * proc.lambda1
        assert abs(lams[0]) <= 1e-12 * lams[1]

    @pytest.mark.parametrize("n", [2000, 20000, 200000])
    @pytest.mark.parametrize("spec", CATALOG_TARGETS, ids=_target_id)
    def test_every_catalog_target_is_certified(self, spec, n, monkeypatch):
        certified = self._spy(monkeypatch)
        proc = synthesize(spec)
        disc = discretize_generator(proc, default_grid(proc, n))
        lams = spectrum(disc, 5, vectors=False).eigenvalues
        assert certified == [True]
        assert lams[0] == 0.0
        ref = tridiag_eigs(disc.diag, disc.offdiag, 5, vectors=False)[0]
        # bisection's absolute error is about eps ||T||
        np.testing.assert_allclose(lams, ref, rtol=0.0,
                                   atol=1e-14 * np.max(np.abs(disc.diag)))

    @pytest.mark.parametrize("spec,n,per_mode", [
        (Normal(0.0, 1.0), 20000, 1), (Beta(2.0, 3.0), 20000, 1),
        (Gamma(1.5), 20000, 1), (Jacobi(1.5, 2.5), 20000, 1),
        (Normal(0.0, 1.0), 200000, 1), (Beta(1.0, 1.0), 200000, 2)],
        ids=lambda v: _target_id(v) if hasattr(v, "kind") else str(v))
    def test_the_bound_stops_a_mode_after_one_solve(self, spec, n, per_mode,
                                                    monkeypatch):
        """Where the Kato-Temple bound holds after the first solve, each
        mode takes that one solve; Beta(1, 1) at 200000 points, where the
        rounding allowance 3 eps ||T|| alone fails the bound, takes the two
        of the quotient rule."""
        solves = self._solves(monkeypatch)
        proc = synthesize(spec)
        disc = discretize_generator(proc, default_grid(proc, n))
        spectrum(disc, 5, vectors=False)
        assert solves[1:] == [per_mode] * 4

    @pytest.mark.parametrize("n,column", [(20000, 0), (200000, 1)])
    @pytest.mark.parametrize("spec,before", [
        pytest.param(spec, before, id=_target_id(spec))
        for spec, before in zip(CATALOG_TARGETS, RATE_RULE_SOLVES)])
    def test_no_mode_takes_more_solves_than_the_quotient_rule(
            self, spec, before, n, column, monkeypatch):
        solves = self._solves(monkeypatch)
        proc = synthesize(spec)
        disc = discretize_generator(proc, default_grid(proc, n))
        spectrum(disc, 5, vectors=False)
        assert len(solves) == 5
        assert all(a <= b for a, b in zip(solves[1:], before[column]))

    @staticmethod
    def _bisected(monkeypatch):
        """Record the size of every matrix numerics.tridiag_eigs bisects."""
        bisected = []
        real = spectral.numerics.tridiag_eigs

        def spy(diag, *args, **kwargs):
            bisected.append(diag.size)
            return real(diag, *args, **kwargs)

        monkeypatch.setattr(spectral.numerics, "tridiag_eigs", spy)
        return bisected

    @staticmethod
    def _seed_cells(n, r):
        """Cells of an n-cell generator's coarsening by r and by 2 r."""
        return [-(-n // r), -(-n // (2 * r))]

    @pytest.mark.parametrize("spec,n,k,refined", [
        (Normal(0.0, 1.0), 20000, 5, False),
        (Normal(0.0, 1.0), 200000, 5, False),
        (Beta(2.0, 5.0), 20000, 5, False), (Beta(2.0, 5.0), 200000, 5, True),
        (InverseGamma(2.0), 2000, 5, False),
        (InverseGamma(2.0), 20000, 5, True),
        (InverseGamma(2.0), 20000, 8, True),
        (InverseGamma(2.0), 200000, 8, True),
        (StudentCauchy(3.0), 20000, 40, True)],
        ids=lambda v: _target_id(v) if hasattr(v, "kind") else str(v))
    def test_seeds_are_refined_where_the_coarse_ones_fall_short(
            self, spec, n, k, refined, monkeypatch):
        """Beta(2, 5) at 200000 points (the rounding allowance alone fails
        the bound), InverseGamma(2) at 20000 (Richardson corrections of
        most of a gap), and, at larger k, InverseGamma(2) (its last
        correction a whole gap) and StudentCauchy(3) (most of one at mode
        29), whose 500-cell seeds cannot tell the modes apart, take their
        seeds from the coarsening four times finer, bisected against the
        one twice as coarse as that, and certify. At 2000 points, 4 fine
        cells to a seed cell, that would be no coarsening. No solve is made
        before the first mode's start."""
        bisected = self._bisected(monkeypatch)
        solves = self._solves(monkeypatch)
        certified = self._spy(monkeypatch)
        proc = synthesize(spec)
        disc = discretize_generator(proc, default_grid(proc, n))
        lams = spectrum(disc, k, vectors=False).eigenvalues
        r = spectral._seed_ratio(n)
        assert certified == [True] and solves[0] == 0
        assert bisected == self._seed_cells(n, r) + (
            self._seed_cells(n, r // 4) if refined else [])
        ref = tridiag_eigs(disc.diag, disc.offdiag, k, vectors=False)[0]
        np.testing.assert_allclose(lams, ref, rtol=0.0,
                                   atol=1e-14 * np.max(np.abs(disc.diag)))

    @pytest.mark.parametrize("spec,k", [
        (InverseGamma(2.0), 12), (InverseGamma(3.0), 20),
        (FisherSnedecor(6.0, 10.0), 40), (FisherSnedecor(1.5, 9.0), 40)],
        ids=lambda v: _target_id(v) if hasattr(v, "kind") else str(v))
    def test_seeds_that_cannot_tell_the_modes_apart_make_no_solve(
            self, spec, k, monkeypatch):
        """Heavy tails past their discrete spectrum: the seeds of both
        coarsenings, about 500 and about 2000 cells, sit further from their
        fine eigenvalues than from each other, so the attempt is given up
        before any solve, and spectrum returns bisection's values bit for
        bit."""
        bisected = self._bisected(monkeypatch)
        certified = self._spy(monkeypatch)
        solves = self._solves(monkeypatch)
        proc = synthesize(spec)
        disc = discretize_generator(proc, default_grid(proc, 20000))
        lams = spectrum(disc, k, vectors=False).eigenvalues
        assert certified == [False] and solves == [0]
        r = spectral._seed_ratio(20000)
        assert bisected == (self._seed_cells(20000, r)
                            + self._seed_cells(20000, r // 4) + [20000])
        ref = tridiag_eigs(disc.diag, disc.offdiag, k, vectors=False)[0]
        assert np.array_equal(lams, ref)

    def test_more_seeds_than_coarser_cells_make_no_solve(self, monkeypatch):
        """At 2000 points k = 250 needs 251 seeds, more than the 250 cells
        of the generator twice as coarse as the seeds' 500-cell one, and no
        finer coarsening is left: the attempt is given up before any solve
        or coarse bisection, and bisection's values come back bit for
        bit."""
        bisected = self._bisected(monkeypatch)
        certified = self._spy(monkeypatch)
        solves = self._solves(monkeypatch)
        proc = synthesize(Normal(0.0, 1.0))
        disc = discretize_generator(proc, default_grid(proc, 2000))
        lams = spectrum(disc, 250, vectors=False).eigenvalues
        assert certified == [False] and solves == [0] and bisected == [2000]
        ref = tridiag_eigs(disc.diag, disc.offdiag, 250, vectors=False)[0]
        assert np.array_equal(lams, ref)

    @pytest.mark.parametrize("how", ["skip", "repeat"])
    @pytest.mark.parametrize("vectors", [False, True])
    def test_seeds_that_miss_a_mode_fall_back_to_bisection(
            self, monkeypatch, how, vectors):
        """Seeds that skip lambda1 find lambda2..lambda4 and fail the Sturm
        count; seeds that repeat it find lambda1 twice and fail the
        disjoint intervals. Either way spectrum returns bisection's
        values, bit for bit."""
        real = spectral._coarse_modes

        def coarse_modes(disc, m, slack):
            r, seeds, starts = real(disc, m + 1, slack)
            keep = ([0] + list(range(2, m + 1)) if how == "skip"
                    else [0, 1] + list(range(1, m)))
            return r, seeds[keep], starts[keep]

        monkeypatch.setattr(spectral, "_coarse_modes", coarse_modes)
        certified = self._spy(monkeypatch)
        proc = synthesize(Beta(1.0, 1.0))
        disc = discretize_generator(proc, default_grid(proc, 5000))
        got = spectrum(disc, 4, vectors=vectors)
        assert certified == [False]
        ref, vecs = tridiag_eigs(disc.diag, disc.offdiag, 4, vectors=vectors)
        assert np.array_equal(got.eigenvalues, ref)
        assert (got.eigenfunctions is None) == (vecs is None)

    @pytest.mark.parametrize("spec", [Beta(1.0, 1.0), Normal(0.0, 1.0),
                                      InverseGamma(2.0)],
                             ids=lambda s: s.kind)
    def test_eigenfunctions_above_2000_points(self, spec, monkeypatch):
        """Both routes give the same values bit for bit; the functions are
        pi-orthonormal and are bisection's vectors up to sign."""
        certified = self._spy(monkeypatch)
        proc = synthesize(spec)
        g = default_grid(proc, 20000)
        disc = discretize_generator(proc, g)
        pairs = spectrum(disc, 5)
        values = spectrum(disc, 5, vectors=False)
        assert certified == [True, True]
        assert np.array_equal(pairs.eigenvalues, values.eigenvalues)
        phi = pairs.eigenfunctions
        gram = (phi * disc.pi) @ phi.T * g.h
        np.testing.assert_allclose(gram, np.eye(5), rtol=0.0, atol=1e-10)
        ref = tridiag_eigs(disc.diag, disc.offdiag, 5)[1]
        got = (phi * disc.weights).T
        sign = np.sign(np.sum(got * ref, axis=0))
        np.testing.assert_allclose(got, ref * sign, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("spec", CATALOG_TARGETS, ids=_target_id)
    def test_both_routes_give_the_same_eigenvalues(self, spec, monkeypatch):
        """At the spectrum command's default of 2000 points, with and
        without vectors: the vectors' extra solve leaves lambda as it is."""
        certified = self._spy(monkeypatch)
        proc = synthesize(spec)
        g = default_grid(proc, 2000)
        disc = discretize_generator(proc, g)
        pairs = spectrum(disc, 5)
        values = spectrum(disc, 5, vectors=False)
        assert certified == [True, True]
        assert np.array_equal(pairs.eigenvalues, values.eigenvalues)
        phi = pairs.eigenfunctions
        gram = (phi * disc.pi) @ phi.T * g.h
        np.testing.assert_allclose(gram, np.eye(5), rtol=0.0, atol=1e-10)

    def test_grids_above_the_routing_size_are_certified(self, monkeypatch):
        """Bisection, bit for bit, up to 1500 points, the synth workload's
        60-, 100- and 400-point spectra among them; certified values above
        it, where lambda0 is exactly 0 and bisection's is noise."""
        certified = self._spy(monkeypatch)
        proc = synthesize(Normal(0.0, 1.0))
        for n in (60, 100, 400, 1500, 1501, 2000):
            disc = discretize_generator(proc, default_grid(proc, n))
            lams = spectrum(disc, 5, vectors=False).eigenvalues
            ref = tridiag_eigs(disc.diag, disc.offdiag, 5, vectors=False)[0]
            assert np.array_equal(lams, ref) == (n <= 1500)
            assert (lams[0] == 0.0) == (n > 1500)
        assert certified == [True, True]
        for k in (0, -1, disc.grid.n + 1):
            with pytest.raises(ValueError, match="k must be in"):
                spectrum(disc, k)


class TestRayleigh:
    def test_linear_mode_attains_the_gap(self):
        proc = synthesize(Beta(1.0, 1.0))
        g = default_grid(proc, 1200)
        r = rayleigh_quotient(proc, GridFunction(g, proc.phi1_at(g.points)))
        assert abs(r - proc.lambda1) <= 1e-3 * proc.lambda1

    def test_random_functions_never_beat_the_gap(self):
        proc = synthesize(Beta(1.0, 1.0))
        g = default_grid(proc, 1200)
        rng = np.random.default_rng(99)
        x = g.points
        for _ in range(100):
            c = rng.uniform(-1.0, 1.0, 5)
            q = (c[0] * x + c[1] * x ** 2 + c[2] * np.sin(math.pi * x)
                 + c[3] * np.cos(2.0 * math.pi * x) + c[4] * x ** 3)
            r = rayleigh_quotient(proc, GridFunction(g, q))
            assert r >= proc.lambda1 * (1.0 - 0.01)

    def test_constant_rejected(self):
        proc = synthesize(Beta(1.0, 1.0))
        g = default_grid(proc, 100)
        with pytest.raises(ZeroDenominator):
            rayleigh_quotient(proc, GridFunction(g, np.full(g.n, 2.5)))


class TestSuboptimalVariance:
    def test_sine_perturbation_lowers_the_gap(self):
        """Rescaling a perturbed sigma^2/2 back to the same average budget
        must produce a strictly smaller spectral gap than the synthesized
        variance: the optimum is unique."""
        spec = Beta(1.0, 1.0)
        proc = synthesize(spec)
        g = default_grid(proc, 1500)
        pts = g.points
        pi = spec._pdf(pts)
        pert = np.asarray(proc.variance_fn(pts)) \
            * (1.0 + 0.5 * np.sin(2.0 * math.pi * pts))
        mean = float(np.sum(pert * pi) / np.sum(pi))
        pert *= proc.sigma_hat_sq_half / mean
        var_fn = GridFunction(g, pert)
        s = spectrum(discretize_generator((spec._pdf, var_fn), g), 2)
        assert 0.0 < s.eigenvalues[1] <= 3.5  # optimal gap is 4


class TestEvolveFpe:
    def test_mass_conservation_and_decay(self):
        proc = synthesize(Beta(1.0, 1.0))
        g = default_grid(proc, 800)
        p0 = gaussian_bump(g, 0.3, 0.05)
        state0 = EvolutionState(grid=g, density=p0)
        m0 = state0.mass()
        state, times, dists = evolve_fpe(proc, state0, t_end=1.5, dt=1e-3,
                                         record_every=10)
        assert abs(state.mass() - m0) <= 1e-8 * m0
        assert state.time == pytest.approx(1.5, abs=1e-9)
        assert dists[-1] < 1e-2 * dists[0]
        est = fit_decay_rate(times, dists)
        assert abs(est.rate - proc.lambda1) <= 0.05 * proc.lambda1

    def test_stationary_density_stays_put(self):
        proc = synthesize(Beta(2.0, 2.0))
        g = default_grid(proc, 400)
        pi = proc.source._pdf(g.points)
        pi = pi / (np.sum(pi) * g.h)
        state, times, dists = evolve_fpe(
            proc, EvolutionState(grid=g, density=pi), t_end=0.2, dt=1e-3)
        assert np.max(dists) < 1e-10

    def test_narrow_start_on_a_fine_grid(self):
        """A start whose fast modes a fixed step cannot resolve still
        evolves: the density stays nonnegative and mass holds."""
        proc = synthesize(Beta(1.0, 1.0))
        g = default_grid(proc, 2000)
        state0 = EvolutionState(grid=g, density=gaussian_bump(g, 0.3, 0.1))
        state, times, dists = evolve_fpe(proc, state0, t_end=1.5, dt=1e-3)
        assert np.min(state.density) >= -1e-12 * np.max(state.density)
        assert abs(state.mass() - state0.mass()) <= 1e-9 * state0.mass()
        est = fit_decay_rate(times, dists)
        assert abs(est.rate - proc.lambda1) <= 0.05 * proc.lambda1

    def test_dt_sets_only_the_recording_cadence(self):
        """Quartering dt while recording 4x less often gives the same
        distances at the same times."""
        proc = synthesize(Gamma(1.0))
        g = default_grid(proc, 300)
        state0 = EvolutionState(grid=g, density=gaussian_bump(g, 1.0, 0.2))
        _, t1, d1 = evolve_fpe(proc, state0, 3.0, 1e-2, record_every=4)
        _, t2, d2 = evolve_fpe(proc, state0, 3.0, 2.5e-3, record_every=16)
        np.testing.assert_allclose(t1, t2, rtol=1e-12)
        keep = d1 > 1e-10
        assert np.count_nonzero(keep) > 10
        np.testing.assert_allclose(d1[keep], d2[keep], rtol=1e-12)

    def test_end_off_the_recording_cadence(self):
        """A t_end between two recordings is recorded as the last time."""
        proc = synthesize(Beta(1.0, 1.0))
        g = default_grid(proc, 100)
        state0 = EvolutionState(grid=g, density=gaussian_bump(g, 0.5, 0.1))
        state, times, dists = evolve_fpe(proc, state0, t_end=1.0, dt=0.1,
                                         record_every=3)
        np.testing.assert_allclose(times, [0.0, 0.3, 0.6, 0.9, 1.0],
                                   rtol=1e-15)
        assert times[-1] == state.time == 1.0
        assert dists.shape == times.shape

    def test_argument_validation(self):
        proc = synthesize(Beta(1.0, 1.0))
        g = default_grid(proc, 100)
        state = EvolutionState(grid=g, density=gaussian_bump(g, 0.5, 0.1))
        with pytest.raises(ValueError):
            evolve_fpe(proc, state, t_end=1.0, dt=0.0)
        with pytest.raises(ValueError):
            evolve_fpe(proc, state, t_end=-1.0, dt=1e-3)
        with pytest.raises(ValueError):
            evolve_fpe(proc, state, t_end=1.0, dt=1e-3, record_every=0)
        with pytest.raises(ValueError):
            EvolutionState(grid=g, density=np.ones(5))
        # a non-finite t_end or dt, or a record count that overflows, is
        # one ValueError, not an OverflowError or a nan time
        for t_end, dt in [(math.inf, 1e-3), (-math.inf, 1e-3),
                          (math.nan, 1e-3), (1.0, math.inf),
                          (1.0, -math.inf), (1.0, math.nan),
                          (math.nan, math.nan), (1e300, 1e-300)]:
            with pytest.raises(ValueError, match="finite dt > 0"):
                evolve_fpe(proc, state, t_end=t_end, dt=dt)


def _full_modes(proc, state0):
    """lambda (lambda_0 = 0), phi, the start's coefficients c, the L1
    weights w_k = |c_k| h sum_i pi_i |phi_k(i)| and pi, from all n modes."""
    g = state0.grid
    disc = discretize_generator(proc, g)
    modes = spectrum(disc, g.n)
    lams = modes.eigenvalues.copy()
    lams[0] = 0.0
    phi = modes.eigenfunctions
    coeffs = g.h * (phi @ state0.density)
    weights = np.abs(coeffs) * (g.h * (np.abs(phi) @ disc.pi))
    return lams, phi, coeffs, weights, disc.pi


def _drop_tol(state0):
    return spectral._DROP_TOL * state0.grid.h * np.sum(np.abs(state0.density))


class TestModeTruncation:
    """evolve_fpe sums only the modes that can still move the density; every
    distance and the final density stay within the stated L1 bound of the
    untruncated sum over all n modes."""

    @staticmethod
    def _starts(name):
        dist = {"dome": Beta(1.0, 1.0), "ou": Normal(0.0, 1.0),
                "gamma": Gamma(1.0)}[name.split("-")[0]]
        proc = synthesize(dist)
        g = default_grid(proc, 400)
        mom = proc.moments
        sd = math.sqrt(mom.variance)
        if name.endswith("spike"):
            p0 = np.zeros(g.n)
            p0[g.n // 2] = 1.0 / g.h
        elif name.endswith("pi"):
            p0 = proc.source._pdf(g.points)
            p0 = p0 / (np.sum(p0) * g.h)
        else:
            p0 = gaussian_bump(g, mom.m1 + sd, 0.5 * sd)
        return proc, EvolutionState(grid=g, density=p0)

    @pytest.mark.parametrize("name", [
        "dome", "ou", "gamma", "dome-spike", "ou-spike", "gamma-spike",
        "dome-pi", "ou-pi", "gamma-pi"])
    def test_within_the_bound_of_the_full_sum(self, name):
        proc, state0 = self._starts(name)
        g = state0.grid
        h = g.h
        tau = 1.0 / proc.lambda1
        state, times, dists = evolve_fpe(proc, state0, 8.0 * tau, 1e-2 * tau)
        assert times.size == 801  # blocks of 8, 16, ..., 256, 256, ...

        lams, phi, coeffs, weights, pi = _full_modes(proc, state0)
        decay = np.exp(-np.outer(lams, times - times[0]))
        p_ref = pi[:, None] * (phi.T @ (coeffs[:, None] * decay))
        target = pi * (np.sum(state0.density) / np.sum(pi))
        d_ref = np.sum(np.abs(p_ref - target[:, None]), axis=0) * h
        # the bound is tol in exact arithmetic. Each sum also rounds, here by
        # at most 0.3 unit roundoffs of its summed L1 weight
        # sum_k w_k e^{-lambda_k t}; allow two
        roundoff = 2 * np.finfo(float).eps * (weights @ decay)
        allow = _drop_tol(state0) + roundoff
        assert np.all(np.abs(dists - d_ref) <= allow)
        assert np.sum(np.abs(state.density - p_ref[:, -1])) * h <= allow[-1]

    def test_a_spike_keeps_nearly_all_modes(self):
        """A one-cell start has coefficients that do not decay with k."""
        proc, state0 = self._starts("dome-spike")
        lams, _, _, weights, _ = _full_modes(proc, state0)
        kept = spectral._modes_kept(weights, lams, 0.0, _drop_tol(state0))
        assert kept >= 0.95 * state0.grid.n

    def test_kept_prefix_is_minimal_and_bounds_its_tail(self):
        """On the dome at n = 400 the dropped tail's weight is at most tol
        at t and every later time, the next shorter prefix would break that,
        and the count falls with t to at most 50 once t >= 1 / lambda1."""
        proc, state0 = self._starts("dome")
        g = state0.grid
        lams, phi, coeffs, weights, pi = _full_modes(proc, state0)
        tol = _drop_tol(state0)
        ts = np.linspace(0.0, 8.0, 161) / proc.lambda1
        counts = [spectral._modes_kept(weights, lams, t, tol) for t in ts]
        assert np.all(np.diff(counts) <= 0)
        assert counts[0] > 300
        assert max(c for c, t in zip(counts, ts)
                   if t >= 1.0 / proc.lambda1) <= 50
        for m, t in zip(counts, ts):
            tail = np.exp(-np.outer(ts[ts >= t], lams[m:])) @ weights[m:]
            assert np.all(np.diff(tail) <= 0) and tail[0] <= tol
            assert m == 1 or weights[m - 1:] @ np.exp(-lams[m - 1:] * t) > tol
            # and it bounds the L1 norm of the density the tail carries
            p_tail = pi * ((coeffs[m:] * np.exp(-lams[m:] * t)) @ phi[m:])
            assert np.sum(np.abs(p_tail)) * g.h <= tol


class TestFitDecayRate:
    def test_window_filters_head_and_floor(self):
        t = np.linspace(0.0, 10.0, 400)
        d = 3.0 * np.exp(-2.0 * t)
        est = fit_decay_rate(t, d, floor=1e-6, frac=0.1)
        assert abs(est.rate - 2.0) < 1e-9
        assert est.fit_window[0] > 0.0  # the head d > 0.1 d0 is excluded

    def test_too_few_points_in_window(self):
        t = np.linspace(0.0, 1.0, 10)
        d = np.exp(-0.01 * t)  # never decays into the window
        with pytest.raises(ValueError):
            fit_decay_rate(t, d)


class TestCsvWriters:
    def test_decay_csv(self, tmp_path):
        p = tmp_path / "decay.csv"
        write_decay_csv(str(p), [0.0, 0.1], [1.0, 0.5])
        lines = p.read_text().splitlines()
        assert lines[0] == "t,d"
        assert len(lines) == 3
        assert float(lines[2].split(",")[1]) == 0.5

    def test_spectrum_csv(self, tmp_path):
        p = tmp_path / "spec.csv"
        write_spectrum_csv(str(p), [0.0, 4.0, 10.0])
        lines = p.read_text().splitlines()
        assert lines[0] == "n,lambda"
        assert lines[1].startswith("0,")
        assert float(lines[2].split(",")[1]) == 4.0

    AWKWARD = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308,
               -1.7976931348623157e308, math.nan, math.inf, -math.inf,
               0.1, 1.0 / 3.0, -2.5e-17]

    def test_bytes_match_the_row_format(self, tmp_path):
        """Rows formatted from Python numbers are the bytes the per-row
        format of numpy scalars wrote."""
        vals = np.array(self.AWKWARD)
        times = vals[::-1].copy()
        write_decay_csv(str(tmp_path / "decay.csv"), times, vals)
        rows = "".join("%.17g,%.17g\n" % (t, d) for t, d in zip(times, vals))
        assert ((tmp_path / "decay.csv").read_bytes()
                == ("t,d\n" + rows).encode())
        write_spectrum_csv(str(tmp_path / "spec.csv"), vals)
        rows = "".join("%d,%.17g\n" % (i, lam) for i, lam in enumerate(vals))
        assert ((tmp_path / "spec.csv").read_bytes()
                == ("n,lambda\n" + rows).encode())
