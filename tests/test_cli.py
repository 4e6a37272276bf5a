"""Tests for the command line interface and its on-disk artifacts."""

import argparse
import filecmp
import inspect
import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from fastmix import (
    __version__,
    cli,
    default_grid,
    discretize_generator,
    pearson,
    spectrum,
    synthesize,
)
from fastmix.cli import COMMANDS, _jtext, main
from fastmix.distributions import _KINDS, Custom
from fastmix.optimal import _QuadratureVariance
from fastmix.pearson import row, verify_row_against_synthesis

BETA_DOME = {"kind": "beta", "params": {"alpha": 1.0, "beta": 1.0}}
STANDARD_NORMAL = {"kind": "normal", "params": {"x0": 0.0, "sigma": 1.0}}


def _spec(tmp_path, doc, name="spec.json"):
    """Write a density file and return its path as a string."""
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _load(out_dir, name):
    with open(os.path.join(str(out_dir), name), "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestOptimalCommand:
    """Synthesis artifacts, overrides, and failure exits."""

    def test_writes_all_artifacts(self, tmp_path):
        """A successful run leaves manifest, process, variance, checks."""
        spec = _spec(tmp_path, BETA_DOME)
        out = tmp_path / "out"
        assert main(["optimal", spec, "--out", str(out)]) == 0
        for name in ("manifest.json", "process.json", "variance.csv",
                     "checks.json"):
            assert (out / name).is_file()

    def test_manifest_records_request(self, tmp_path):
        """The manifest stores the command and fully resolved arguments."""
        spec = _spec(tmp_path, BETA_DOME)
        out = tmp_path / "out"
        main(["optimal", spec, "--out", str(out)])
        man = _load(out, "manifest.json")
        assert man["command"] == "optimal"
        assert man["version"] == __version__
        assert man["spec_file"] == os.path.abspath(spec)
        assert man["out_dir"] == os.path.abspath(str(out))
        assert man["seed"] is None
        assert "timestamp" in man
        res = man["resolved"]
        assert res["grid_points"] == 2000
        assert res["strict"] is False
        assert res["sigma_hat_sq_half"] == pytest.approx(0.2)

    def test_process_summary_values(self, tmp_path):
        """The dome target synthesizes to rate 4 with a closed variance."""
        spec = _spec(tmp_path, BETA_DOME)
        out = tmp_path / "out"
        main(["optimal", spec, "--out", str(out)])
        doc = _load(out, "process.json")
        assert doc["kind"] == "Beta"
        assert doc["lambda1"] == pytest.approx(4.0, rel=1e-12)
        assert doc["tau"] == pytest.approx(0.25, rel=1e-12)
        assert doc["variance_route"] == "closed"
        assert doc["moments"]["m1"] == pytest.approx(0.5, rel=1e-12)
        assert doc["moments"]["variance"] == pytest.approx(0.05, rel=1e-12)
        assert doc["drift"]["a1"] == pytest.approx(-doc["lambda1"], rel=1e-12)
        mid = doc["phi1"]["slope"] * 0.5 + doc["phi1"]["intercept"]
        assert abs(mid) < 1e-10
        assert doc["support"] == [0.0, 1.0]

    def test_variance_csv_layout(self, tmp_path):
        """variance.csv holds one header plus one row per grid point."""
        spec = _spec(tmp_path, BETA_DOME)
        out = tmp_path / "out"
        main(["optimal", spec, "--grid-points", "500", "--out", str(out)])
        lines = (out / "variance.csv").read_text().strip().split("\n")
        assert lines[0] == "x,sigma2half"
        assert len(lines) == 1 + 500
        xs = [float(l.split(",")[0]) for l in lines[1:]]
        vals = [float(l.split(",")[1]) for l in lines[1:]]
        assert xs == sorted(xs)
        assert all(v > 0.0 for v in vals)

    def test_sigma_hat_scales_rate(self, tmp_path):
        """Doubling the diffusion budget doubles lambda1."""
        spec = _spec(tmp_path, BETA_DOME)
        out = tmp_path / "out"
        main(["optimal", spec, "--sigma-hat", "0.4", "--out", str(out)])
        doc = _load(out, "process.json")
        assert doc["lambda1"] == pytest.approx(8.0, rel=1e-12)
        assert doc["sigma_hat_sq_half"] == pytest.approx(0.4)

    def test_checks_pass_under_strict(self, tmp_path):
        """Synthesis checks succeed, so --strict still exits 0."""
        spec = _spec(tmp_path, BETA_DOME)
        out = tmp_path / "out"
        assert main(["optimal", spec, "--strict", "--out", str(out)]) == 0
        checks = _load(out, "checks.json")
        assert checks["passed"] is True
        assert checks["variance_positive"] is True
        assert checks["variance_mean_rel_err"] < 1e-6

    def test_narrow_normal_runs(self, tmp_path):
        """sd 1e-4: the tails lie far inside a unit length, and the mass
        check still finds them."""
        doc = {"kind": "normal", "params": {"x0": 0.0, "sigma": 1e-4}}
        out = tmp_path / "out"
        assert main(["optimal", _spec(tmp_path, doc), "--grid-points", "200",
                     "--out", str(out)]) == 0
        assert _load(out, "process.json")["lambda1"] == \
            pytest.approx(1.0, rel=1e-12)
        assert _load(out, "checks.json")["passed"] is True

    @pytest.mark.parametrize("sd", [1e-100, 1e-30, 1e-12, 1e-8, 1e-6, 1.0,
                                    1e30, 1e100])
    def test_normal_passes_strict_at_any_scale(self, tmp_path, sd):
        """x -> c x scales every integral of the density; the budget check
        holds to 1e-12 from sd 1e-100 to 1e100."""
        doc = {"kind": "normal", "params": {"x0": 0.0, "sigma": sd}}
        out = tmp_path / "out"
        assert main(["optimal", _spec(tmp_path, doc), "--strict",
                     "--grid-points", "200", "--out", str(out)]) == 0
        assert _load(out, "checks.json")["variance_mean_rel_err"] <= 1e-12

    def test_normal_far_from_zero_passes_strict(self, tmp_path):
        """The grid's cell centres near 1.2e6 deviate from even spacing by
        1.4e-10, their rounding; the grid check used to refuse them (exit 2,
        "spacing is not uniform")."""
        doc = {"kind": "normal", "params": {"x0": 1234567.89, "sigma": 0.5}}
        assert main(["optimal", _spec(tmp_path, doc), "--strict",
                     "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("support", [["-inf", 1e6], [-1e6, "inf"],
                                         [-1e6, 1e6]])
    def test_a_far_declared_end_keeps_the_mass(self, tmp_path, support):
        """Student t (alpha 3) cut at 1e6 on one side or on both: the core
        out to a far end misses the peak in its first panel, and a relative
        tolerance, unlike an absolute one, does not stop there."""
        doc = {"kind": "student", "params": {"alpha": 3.0},
               "support": support}
        assert main(["optimal", _spec(tmp_path, doc), "--strict",
                     "--grid-points", "200",
                     "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("doc", [
        {"kind": "inversegamma", "params": {"alpha": 200.0}},
        {"kind": "hyperexponential",
         "params": {"p1": 0.5, "p2": 0.5, "eta1": 1e3, "eta2": 1e-3}},
    ], ids=["InverseGamma(200)", "Hyperexponential(1e3,1e-3)"])
    def test_a_density_far_from_unit_scale_passes_strict(self, tmp_path, doc):
        """The density's quadrature starts from its own length scales, not
        from 1: both mass checks failed (exit 2) when it did."""
        assert main(["optimal", _spec(tmp_path, doc), "--strict",
                     "--grid-points", "200",
                     "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("alpha", [150.0, 200.0])
    def test_high_shape_gamma(self, tmp_path, alpha):
        """x**alpha overflows a float near the mode; the log density does
        not, so optimal passes its checks, spectrum its 1 percent bound,
        and the quadrature moments match the closed ones."""
        spec = _spec(tmp_path, {"kind": "gamma", "params": {"alpha": alpha}})
        out = tmp_path / "out"
        assert main(["optimal", spec, "--out", str(out)]) == 0
        assert _load(out, "checks.json")["passed"] is True
        assert main(["spectrum", spec, "--strict",
                     "--out", str(tmp_path / "s")]) == 0
        gamma = cli.load_spec(spec)
        closed, quad = gamma.moments(), gamma.moments_quadrature()
        assert quad.m1 == pytest.approx(closed.m1, rel=1e-8)
        assert quad.m2 == pytest.approx(closed.m2, rel=1e-8)

    def test_cubic_pearson_with_negative_a(self, tmp_path):
        """CubicPearson's normalizer and moments are 2F1 values at z = a.
        At a = -0.99 the alternating series lost digits (mass 1.000075,
        exit 2); through Pfaff's transformation optimal passes its checks
        at the closed rate alpha + beta (1 - a) = 6.99."""
        doc = {"kind": "CubicPearson",
               "params": {"alpha": 5.0, "beta": 1.0, "a": -0.99}}
        out = tmp_path / "out"
        assert main(["optimal", _spec(tmp_path, doc), "--strict",
                     "--out", str(out)]) == 0
        assert _load(out, "checks.json")["passed"] is True
        assert _load(out, "process.json")["lambda1"] == \
            pytest.approx(6.99, rel=1e-12)

    def test_declared_support_keeps_the_family(self, tmp_path):
        """Declaring the family's own support changes nothing: the kind,
        the budget and the closed variance route carry over."""
        plain, declared = tmp_path / "plain", tmp_path / "declared"
        main(["optimal", _spec(tmp_path, BETA_DOME), "--out", str(plain)])
        doc = dict(BETA_DOME, support=[0.0, 1.0])
        assert main(["optimal", _spec(tmp_path, doc, "declared.json"),
                     "--out", str(declared)]) == 0
        assert _load(declared, "process.json")["lambda1"] == \
            pytest.approx(4.0, rel=1e-12)
        for name in ("process.json", "variance.csv", "checks.json"):
            assert filecmp.cmp(str(plain / name), str(declared / name),
                               shallow=False), name

    def test_narrowing_support_keeps_the_rate(self, tmp_path):
        """A window that keeps the mass keeps the family's lambda1."""
        doc = {"kind": "studentcauchy", "params": {"alpha": 3.0},
               "support": [-1e4, 1e4]}
        out = tmp_path / "out"
        assert main(["optimal", _spec(tmp_path, doc), "--out", str(out)]) == 0
        res = _load(out, "process.json")
        assert res["kind"] == "StudentCauchy"
        assert res["support"] == [-1e4, 1e4]
        assert res["lambda1"] == pytest.approx(5.0, rel=1e-12)

    def test_support_cutting_mass_exits_2(self, tmp_path):
        """A window that cuts off probability mass is an input error."""
        doc = dict(BETA_DOME, support=[0.0, 0.5])
        assert main(["optimal", _spec(tmp_path, doc),
                     "--out", str(tmp_path / "o")]) == 2

    def test_infinite_support_is_a_json_string(self, tmp_path):
        """process.json writes an infinite endpoint as the string 'inf'."""
        out = tmp_path / "out"
        main(["optimal", _spec(tmp_path, STANDARD_NORMAL), "--out", str(out)])
        assert _load(out, "process.json")["support"] == ["-inf", "inf"]

    def test_missing_spec_file_exits_2(self, tmp_path):
        """A nonexistent density file is an input error."""
        out = tmp_path / "out"
        rc = main(["optimal", str(tmp_path / "nope.json"),
                   "--out", str(out)])
        assert rc == 2

    def test_invalid_json_exits_2(self, tmp_path):
        """A malformed density file is an input error."""
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["optimal", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_overflow_exits_3(self, tmp_path, capsys):
        """A parameter whose normalizer overflows is a numerical failure."""
        spec = _spec(tmp_path, {"kind": "beta",
                                "params": {"alpha": 1e308, "beta": 1.0}})
        assert main(["optimal", spec, "--out", str(tmp_path / "o")]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_series_budget_exits_3(self, tmp_path, capsys):
        """A normalizer whose series runs out of terms is a numerical
        failure, not a mass error."""
        spec = _spec(tmp_path, {"kind": "cubicpearson",
                                "params": {"alpha": 2.0, "beta": 2.0,
                                           "a": 0.999}})
        assert main(["optimal", spec, "--out", str(tmp_path / "o")]) == 3
        assert "did not converge" in capsys.readouterr().err

    def test_divergent_moments_exit_3(self, tmp_path, capsys):
        """Valid parameters with no finite variance are a numerical
        failure, not an input error."""
        spec = _spec(tmp_path, {"kind": "fisher",
                                "params": {"nu1": 6.0, "nu2": 3.0}})
        rc = main(["optimal", spec, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command, points", [
        *(pytest.param("optimal", p, id=p) for p in ("0", "2", "-3")),
        *(pytest.param("spectrum", p, id="spectrum" + p)
          for p in ("0", "2", "-3"))])
    def test_too_few_grid_points_exit_2(self, tmp_path, capsys, command,
                                        points):
        """A grid of fewer than 3 points is an input error, 0 included, and
        the message names the grid size (for spectrum too, not --k)."""
        spec = _spec(tmp_path, BETA_DOME)
        assert main([command, spec, "--grid-points", points,
                     "--out", str(tmp_path / "o")]) == 2
        assert "at least 3 points" in capsys.readouterr().err


class TestSpectrumCommand:
    """Discretized-generator eigenvalues through the CLI."""

    def test_gap_for_dome_target(self, tmp_path, capsys):
        """The numeric spectral gap lands within 1 percent of 4."""
        spec = _spec(tmp_path, BETA_DOME)
        out = tmp_path / "out"
        assert main(["spectrum", spec, "--k", "4", "--out", str(out)]) == 0
        lines = (out / "spectrum.csv").read_text().strip().split("\n")
        assert lines[0] == "n,lambda"
        assert len(lines) == 1 + 4
        lam = [float(l.split(",")[1]) for l in lines[1:]]
        assert abs(lam[0]) < 1e-8
        assert lam[1] == pytest.approx(4.0, rel=0.01)
        assert "rel_err=" in capsys.readouterr().out

    def test_harmonic_ladder(self, tmp_path):
        """The Gaussian target shows the evenly spaced ladder 1, 2, 3."""
        spec = _spec(tmp_path, STANDARD_NORMAL)
        out = tmp_path / "out"
        assert main(["spectrum", spec, "--k", "4", "--out", str(out)]) == 0
        lines = (out / "spectrum.csv").read_text().strip().split("\n")
        lam = [float(l.split(",")[1]) for l in lines[1:]]
        for n in (1, 2, 3):
            assert lam[n] == pytest.approx(float(n), rel=1e-3)

    def test_k_out_of_range_exits_2(self, tmp_path, capsys):
        """Asking for more eigenvalues than grid points is an input error."""
        spec = _spec(tmp_path, BETA_DOME)
        rc = main(["spectrum", spec, "--k", "200", "--grid-points", "100",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "--k must be in" in capsys.readouterr().err
        rc = main(["spectrum", spec, "--k", "0",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "--k must be in" in capsys.readouterr().err

    def test_strict_inaccurate_gap_exits_4(self, tmp_path, capsys):
        """A 50-point grid misses Gamma(0.5)'s gap by more than 1 percent;
        --strict turns that into exit 4, after spectrum.csv is written."""
        spec = _spec(tmp_path, {"kind": "gamma", "params": {"alpha": 0.5}})
        out = tmp_path / "o"
        rc = main(["spectrum", spec, "--strict", "--grid-points", "50",
                   "--k", "2", "--out", str(out)])
        assert rc == 4
        rel_err = float(capsys.readouterr().out.split("rel_err=")[1])
        assert rel_err > 0.01
        assert (out / "spectrum.csv").is_file()

    def test_strict_accurate_gap_exits_0(self, tmp_path):
        """--strict passes when the gap is inside the 1 percent band."""
        spec = _spec(tmp_path, BETA_DOME)
        rc = main(["spectrum", spec, "--strict",
                   "--out", str(tmp_path / "o")])
        assert rc == 0

    @pytest.mark.parametrize("sd", [1e-60, 1e-100])
    def test_a_grid_too_narrow_for_floats_exits_3(self, tmp_path, capsys,
                                                  sd):
        """sd 1e-60 and 1e-100 load, but pi h^2 underflows at the grid's
        edges: a typed failure and exit 3, with no numpy warning."""
        doc = {"kind": "normal", "params": {"x0": 0.0, "sigma": sd}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["spectrum", _spec(tmp_path, doc), "--strict",
                       "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_strict_passes_at_a_tiny_scale(self, tmp_path):
        """sd 1e-30 keeps its grid's entries finite, and lambda1 within the
        1 percent band."""
        doc = {"kind": "normal", "params": {"x0": 0.0, "sigma": 1e-30}}
        assert main(["spectrum", _spec(tmp_path, doc), "--strict",
                     "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("name", pearson.ROW_NAMES)
    def test_strict_passes_on_every_table_row(self, tmp_path, name):
        """At the default 2000 points the gap is within 1 percent on every
        default row of `fastmix table`. The grid ends where the density is
        representable: InverseGamma(3)'s cells near 0, where pi underflows,
        once put lambda1 at 2e25 against 5."""
        doc = {"kind": name, "params": pearson.ROW_DEFAULTS[name]}
        assert main(["spectrum", _spec(tmp_path, doc), "--strict",
                     "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("name", pearson.ROW_NAMES)
    def test_lambda0_is_zero_on_every_table_row(self, tmp_path, name):
        """The default 2000 points take the certified route, whose lambda0
        is the weights' exact 0; bisection printed noise of 3e-12 to
        1e-9 there."""
        doc = {"kind": name, "params": pearson.ROW_DEFAULTS[name]}
        out = tmp_path / "o"
        assert main(["spectrum", _spec(tmp_path, doc), "--out",
                     str(out)]) == 0
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[1] == "0,0"

    @pytest.mark.parametrize("alpha, n", [(10.0, 2000), (2.0, 20000)])
    def test_inverse_gamma_gap_within_one_percent(self, tmp_path, capsys,
                                                  alpha, n):
        """InverseGamma(10) at 2000 points had cells where pi is 0 (exit
        2); InverseGamma(2) at 20000 points had lambda1 wrong by 5e76."""
        doc = {"kind": "inversegamma", "params": {"alpha": alpha}}
        assert main(["spectrum", _spec(tmp_path, doc), "--strict",
                     "--grid-points", str(n), "--k", "2",
                     "--out", str(tmp_path / "o")]) == 0
        assert float(capsys.readouterr().out.split("rel_err=")[1]) <= 0.01

    @pytest.mark.parametrize("doc, k, n", [(STANDARD_NORMAL, 5, 2000),
                                           (BETA_DOME, 50, 50)],
                             ids=["k-below-n", "k-equals-n"])
    def test_csv_matches_the_pairs_route(self, tmp_path, capsys, doc, k, n):
        """The command computes eigenvalues only; its spectrum.csv and
        printed line are byte-equal to those of the eigenpairs route."""
        spec = _spec(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["spectrum", spec, "--k", str(k), "--grid-points",
                     str(n), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        proc = synthesize(cli.load_spec(spec))
        pairs = spectrum(discretize_generator(proc, default_grid(proc, n)),
                         max(k, 2))
        assert pairs.eigenfunctions is not None
        ref = tmp_path / "ref.csv"
        cli.write_spectrum_csv(str(ref), pairs.eigenvalues[:k])
        assert (out / "spectrum.csv").read_bytes() == ref.read_bytes()
        assert "lambda1_numeric=%.17g " % pairs.eigenvalues[1] in printed

    def test_memory_stays_below_the_eigenvector_route(self, tmp_path, capsys):
        """At 20000 points the command's traced peak stays below 2.5 MB:
        2.2 MB for the eigenvalues alone, 3.0 MB when the 5 eigenvectors
        were computed as well."""
        spec = _spec(tmp_path, STANDARD_NORMAL)
        args = ["spectrum", spec, "--k", "5", "--grid-points", "20000",
                "--out", str(tmp_path / "out")]
        assert main(args) == 0  # imports and caches settle
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6, peak


class TestSimulateCommand:
    """Path sampling through the CLI: artifacts, defaults, determinism."""

    _ARGS = ["--dt", "0.002", "--steps", "30000", "--paths", "2",
             "--seed", "7", "--burn-in", "500"]

    def test_artifacts_and_manifest(self, tmp_path, capsys):
        """A run writes the manifest first plus three result files."""
        spec = _spec(tmp_path, BETA_DOME)
        out = tmp_path / "out"
        rc = main(["simulate", spec, *self._ARGS, "--out", str(out)])
        assert rc == 0
        for name in ("manifest.json", "autocorr.csv", "hist.csv",
                     "rate.json"):
            assert (out / name).is_file()
        man = _load(out, "manifest.json")
        assert man["command"] == "simulate"
        assert man["seed"] == 7
        res = man["resolved"]
        assert res["dt"] == pytest.approx(0.002)
        assert res["steps"] == 30000
        assert res["paths"] == 2
        assert res["burn_in"] == 500
        assert res["boundary_mode"] == "reflect"
        rate = _load(out, "rate.json")
        for key in ("rate", "stderr", "fit_window", "lambda1_analytic",
                    "rel_err", "m1_hat", "m2_hat", "n_samples"):
            assert key in rate
        assert rate["n_samples"] == (30000 - 500) * 2
        assert rate["lambda1_analytic"] == pytest.approx(4.0, rel=1e-12)
        assert "rate=" in capsys.readouterr().out

    def test_bitwise_determinism(self, tmp_path):
        """Identical arguments give byte-identical result files."""
        spec = _spec(tmp_path, BETA_DOME)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", spec, *self._ARGS, "--out", str(a)]) == 0
        assert main(["simulate", spec, *self._ARGS, "--out", str(b)]) == 0
        for name in ("autocorr.csv", "hist.csv", "rate.json"):
            assert filecmp.cmp(str(a / name), str(b / name), shallow=False)

    def test_sim_section_supplies_defaults(self, tmp_path):
        """Run parameters can live in the density file's sim section."""
        doc = dict(BETA_DOME)
        doc["sim"] = {"dt": 0.002, "steps": 20000, "paths": 2, "seed": 7,
                      "burn_in": 400}
        spec = _spec(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["simulate", spec, "--out", str(out)]) == 0
        res = _load(out, "manifest.json")["resolved"]
        assert res["dt"] == pytest.approx(0.002)
        assert res["steps"] == 20000
        assert res["paths"] == 2
        assert res["seed"] == 7
        assert res["burn_in"] == 400

    def test_flags_override_sim_section(self, tmp_path):
        """An explicit flag wins over the file's sim section."""
        doc = dict(BETA_DOME)
        doc["sim"] = {"dt": 0.002, "steps": 20000, "paths": 2, "seed": 7,
                      "burn_in": 400}
        spec = _spec(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["simulate", spec, "--seed", "9",
                     "--out", str(out)]) == 0
        res = _load(out, "manifest.json")["resolved"]
        assert res["seed"] == 9
        assert res["steps"] == 20000

    def test_bad_sim_section_exits_2(self, tmp_path):
        """A non-numeric sim section value is an input error."""
        doc = dict(BETA_DOME)
        doc["sim"] = {"dt": "fast"}
        spec = _spec(tmp_path, doc)
        rc = main(["simulate", spec, "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("field", ["steps", "paths", "seed", "burn_in"])
    def test_sim_section_counts_must_be_integers(self, tmp_path, capsys,
                                                 field):
        """A count with a fraction is an input error naming the field:
        int() used to truncate it, and the manifest recorded the truncated
        count."""
        sim = {"dt": 0.01, "steps": 2000, "paths": 2, "seed": 3,
               "burn_in": 100}
        sim[field] += 0.7
        spec = _spec(tmp_path, dict(BETA_DOME, sim=sim))
        out = tmp_path / "o"
        assert main(["simulate", spec, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: sim section field %r must be an integer\n" % field)
        assert not out.exists()

    def test_sim_section_whole_floats_are_counts(self, tmp_path):
        """A count written as a whole float runs, recorded as an integer."""
        sim = {"dt": 0.01, "steps": 2000.0, "paths": 2.0, "seed": 3.0,
               "burn_in": 100.0}
        spec = _spec(tmp_path, dict(BETA_DOME, sim=sim))
        out = tmp_path / "o"
        assert main(["simulate", spec, "--out", str(out)]) == 0
        res = _load(out, "manifest.json")["resolved"]
        assert [res[k] for k in ("steps", "paths", "seed", "burn_in")] == \
            [2000, 2, 3, 100]
        assert all(type(res[k]) is int
                   for k in ("steps", "paths", "seed", "burn_in"))

    def test_sim_section_must_be_a_mapping(self, tmp_path):
        """A sim section that is not a mapping is an input error."""
        spec = _spec(tmp_path, dict(BETA_DOME, sim=[0.002]))
        assert main(["simulate", spec, "--out", str(tmp_path / "o")]) == 2

    def test_run_too_large_to_allocate_exits_3(self, tmp_path, capsys):
        """A step count no machine can hold is one line on stderr and exit
        3; numpy refuses the allocation at once and touches no memory."""
        spec = _spec(tmp_path, BETA_DOME)
        rc = main(["simulate", spec, "--steps", "1000000000000000",
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("out of memory:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("seed", ["-5", "18446744073709551616"])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, seed):
        """A seed outside [0, 2^64) is bad input: one line on stderr and
        exit 2. Masked into 64 bits, 2^64 used to replay seed 0's paths
        and -5 to run those of 2^64 - 5."""
        spec = _spec(tmp_path, BETA_DOME)
        rc = main(["simulate", spec, "--dt", "0.002", "--steps", "3000",
                   "--seed", seed, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: seed must be in [0, 2**64)\n"

    def test_diverging_wide_batch_prints_one_line(self, tmp_path, capsys):
        """dt = 3 on a standard normal overflows. At 64 paths the run steps
        all paths at once in numpy, and still prints no numpy warning
        before its one-line error."""
        spec = _spec(tmp_path, STANDARD_NORMAL)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["simulate", spec, "--dt", "3", "--steps", "1500",
                       "--paths", "64", "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: state became non-finite")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("dt", ["inf", "nan"])
    def test_non_finite_dt_exits_2(self, tmp_path, capsys, dt):
        """A time step that is not finite is bad input: one line on stderr
        and exit 2, with no numpy warning and no run. --dt inf used to
        step and fail as a non-finite state (exit 3)."""
        spec = _spec(tmp_path, BETA_DOME)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["simulate", spec, "--dt", dt, "--steps", "100",
                       "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: dt must be finite and positive\n"
        assert not out.exists()

    def test_strict_coarse_fit_exits_4(self, tmp_path):
        """A coarse time step biases the fit past 10 percent under
        --strict."""
        spec = _spec(tmp_path, BETA_DOME)
        out = tmp_path / "out"
        rc = main(["simulate", spec, "--dt", "0.05", "--steps", "4000",
                   "--paths", "4", "--seed", "5", "--strict",
                   "--out", str(out)])
        assert rc == 4
        assert _load(out, "rate.json")["rel_err"] > 0.10


class TestQuadratureWork:
    """The quadrature route reads every call from its table of V, built once
    per process: the commands and the table command's row check alike."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        calls = []
        build = _QuadratureVariance._build

        def counted(self):
            calls.append(self.spec.kind)
            return build(self)

        monkeypatch.setattr(_QuadratureVariance, "_build", counted)
        return calls

    def test_commands_on_a_table_integrate_no_point(self, tmp_path, builds):
        x = np.linspace(0.0, 2.0, 41)
        y = x * (2.0 - x) + 0.01
        y /= PchipInterpolator(x, y).integrate(0.0, 2.0)
        doc = {"kind": "custom", "grid": x.tolist(), "pdf": y.tolist(),
               "sim": {"dt": 0.01, "steps": 500, "paths": 2}}
        spec = _spec(tmp_path, doc)
        for argv in (["optimal", spec, "--grid-points", "200"],
                     ["spectrum", spec, "--grid-points", "200", "--k", "2"],
                     ["simulate", spec]):
            assert main(argv + ["--out", str(tmp_path / argv[0])]) == 0
        assert _load(tmp_path / "optimal", "process.json")[
            "variance_route"] == "quadrature"
        assert builds == ["Custom"] * 3

    def test_row_check_builds_one_table(self, builds):
        verify_row_against_synthesis(
            row("Gamma", {"alpha": 1.5}), n_points=37)
        assert builds == ["Gamma"]


class TestTableCommand:
    """Catalog summary table with per-row verification."""

    def test_default_catalog(self, tmp_path):
        """The built-in table verifies one row per catalog family."""
        out = tmp_path / "out"
        assert main(["table", "--out", str(out)]) == 0
        lines = (out / "table1.csv").read_text().strip().split("\n")
        assert lines[0] == "name,params,m1,var,lambda1,sigma_hat_sq_half,verified"
        assert len(lines) == 1 + 7
        names = [l.split(",")[0] for l in lines[1:]]
        assert names == ["Beta", "Jacobi", "Gamma", "Normal",
                         "StudentCauchy", "InverseGamma", "FisherSnedecor"]
        assert all(l.endswith(",true") for l in lines[1:])

    def test_params_file_rows(self, tmp_path):
        """A params file selects families and parameters by alias."""
        rows = [{"name": "gamma", "params": {"alpha": 2.0}},
                {"name": "ou", "params": {"x0": 1.0, "sigma": 0.5}}]
        pf = tmp_path / "rows.json"
        pf.write_text(json.dumps(rows), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["table", "--params-file", str(pf),
                     "--out", str(out)]) == 0
        lines = (out / "table1.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 2
        assert all(l.endswith(",true") for l in lines[1:])

    def test_unknown_family_is_recorded_not_fatal(self, tmp_path):
        """An unknown row is marked unverified; --strict turns it into
        exit 4."""
        rows = [{"name": "zeta", "params": {}}]
        pf = tmp_path / "rows.json"
        pf.write_text(json.dumps(rows), encoding="utf-8")
        out1 = tmp_path / "o1"
        assert main(["table", "--params-file", str(pf),
                     "--out", str(out1)]) == 0
        lines = (out1 / "table1.csv").read_text().strip().split("\n")
        assert lines[1].endswith(",false")
        assert main(["table", "--params-file", str(pf), "--strict",
                     "--out", str(tmp_path / "o2")]) == 4

    def test_bad_params_file_exits_2(self, tmp_path):
        """A params file that is not a list is an input error."""
        pf = tmp_path / "rows.json"
        pf.write_text(json.dumps({"name": "gamma"}), encoding="utf-8")
        assert main(["table", "--params-file", str(pf),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("value", [None, [2.0], "2", True],
                             ids=["null", "list", "text", "bool"])
    def test_param_values_must_be_numbers(self, tmp_path, capsys, value):
        """A row parameter that is not a JSON number is an input error, as
        it is in a density file."""
        pf = tmp_path / "rows.json"
        pf.write_text(json.dumps([{"name": "gamma",
                                   "params": {"alpha": value}}]),
                      encoding="utf-8")
        assert main(["table", "--params-file", str(pf),
                     "--out", str(tmp_path / "o")]) == 2
        assert "must be numeric" in capsys.readouterr().err

    def test_unknown_param_name_fails_its_row(self, tmp_path):
        """A parameter the family does not have fails that row only, and so
        does a parameter whose moments or diffusion level overflow."""
        for bad in ({"name": "gamma", "params": {"beta": 2.0}},
                    {"name": "Beta", "params": {"alpha": 1e308, "beta": 1}},
                    {"name": "normal", "params": {"sigma": 1e200}}):
            pf = tmp_path / "rows.json"
            pf.write_text(json.dumps([bad, {"name": "gamma",
                                            "params": {"alpha": 2.0}}]),
                          encoding="utf-8")
            out = tmp_path / "out"
            assert main(["table", "--params-file", str(pf),
                         "--out", str(out)]) == 0
            lines = (out / "table1.csv").read_text().strip().split("\n")
            assert lines[1].endswith(",nan,nan,nan,nan,false")
            assert lines[2].endswith(",true")

    def test_mismatched_row_is_recorded(self, tmp_path, capsys,
                                        monkeypatch):
        """A row that fails its check is written as verified=false and
        printed as MISMATCH; the command exits 0, or 4 under --strict."""
        monkeypatch.setattr(pearson, "TOL_VARIANCE", 0.0)
        pf = tmp_path / "rows.json"
        pf.write_text(json.dumps([{"name": "gamma",
                                   "params": {"alpha": 1.0}}]),
                      encoding="utf-8")
        out = tmp_path / "o1"
        assert main(["table", "--params-file", str(pf),
                     "--out", str(out)]) == 0
        lines = (out / "table1.csv").read_text().strip().split("\n")
        assert lines[1] == "Gamma,alpha=1,2,2,1,2,false"
        assert "Gamma           MISMATCH" in capsys.readouterr().out
        assert main(["table", "--params-file", str(pf), "--strict",
                     "--out", str(tmp_path / "o2")]) == 4


# one small run per command, with arguments that exercise every field
_RUNS = {
    "optimal": lambda d: ["optimal", _spec(d, BETA_DOME), "--sigma-hat", "1",
                          "--grid-points", "300"],
    "spectrum": lambda d: ["spectrum", _spec(d, STANDARD_NORMAL), "--k", "3",
                           "--grid-points", "300"],
    "simulate": lambda d: ["simulate", _spec(d, dict(BETA_DOME, sim={
        "boundary_mode": "reject-step"})), "--dt", "0.002", "--steps",
        "20000", "--paths", "2", "--seed", "3", "--burn-in", "100"],
    "table": lambda d: ["table", "--params-file", _rows_file(d)],
}


def _rows_file(d):
    path = d / "rows.json"
    path.write_text(json.dumps([{"name": "ou", "params": {"sigma": 2}},
                                {"name": "zeta", "params": {}}]),
                    encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """Output directory of one run of each command."""
    outs = {}
    for command, argv in _RUNS.items():
        d = tmp_path_factory.mktemp(command)
        assert main(argv(d) + ["--out", str(d / "out")]) == 0
        outs[command] = d / "out"
    return outs


def _bad_manifest(tmp_path, recorded, command, edit):
    doc = _load(recorded[command], "manifest.json")
    edit(doc)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return ["replay", str(path), "--out", str(tmp_path / "replayed")]


class TestReplayCommand:
    """Reproducing a recorded run from its manifest."""

    @pytest.mark.parametrize("command", sorted(_RUNS))
    def test_replay_is_byte_identical(self, tmp_path, recorded, command):
        """Every artifact of a replay matches the recorded run byte for
        byte; the manifest differs only in its timestamp and out_dir."""
        first, again = recorded[command], tmp_path / "again"
        assert main(["replay", str(first / "manifest.json"),
                     "--out", str(again)]) == 0
        names = sorted(os.listdir(str(first)))
        assert sorted(os.listdir(str(again))) == names
        for name in names:
            if name != "manifest.json":
                assert filecmp.cmp(str(first / name), str(again / name),
                                   shallow=False), name
        a, b = _load(first, "manifest.json"), _load(again, "manifest.json")
        for doc in (a, b):
            del doc["timestamp"], doc["out_dir"]
        assert a == b

    @pytest.mark.parametrize("command,edit", [
        ("optimal", lambda m: m["resolved"].update(grid_points=None)),
        ("optimal", lambda m: m["resolved"].update(sigma_hat_sq_half=[1.0])),
        ("optimal", lambda m: m.update(spec_file=None)),
        ("spectrum", lambda m: m["resolved"].update(strict="no")),
        ("spectrum", lambda m: m["resolved"].update(k=True)),
        ("optimal", lambda m: m["resolved"].update(grid=300)),
        ("optimal", lambda m: m["resolved"].pop("strict")),
        ("simulate", lambda m: m["resolved"].pop("boundary_mode")),
        ("table", lambda m: m["resolved"].update(rows={})),
        ("table", lambda m: m.update(spec_file=3)),
        ("table", lambda m: m.update(command=["table"])),
    ], ids=["null-int", "list-float", "null-spec-file", "text-bool",
            "bool-int", "unknown-field", "missing-strict",
            "missing-boundary-mode", "mapping-rows", "number-spec-file",
            "list-command"])
    def test_mismatched_manifest_exits_2(self, tmp_path, capsys, recorded,
                                         command, edit):
        """A manifest whose fields differ from the command's declaration,
        in name or in JSON type, is an input error, not a traceback or a
        default."""
        argv = _bad_manifest(tmp_path, recorded, command, edit)
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "replayed").exists()

    def test_integral_float_replays(self, tmp_path, recorded):
        """A float written as a JSON integer (1.0 as 1) is still a float."""
        man = recorded["optimal"] / "manifest.json"
        value = json.loads(man.read_text())["resolved"]["sigma_hat_sq_half"]
        assert value == 1 and isinstance(value, int)
        assert main(["replay", str(man), "--out", str(tmp_path / "b")]) == 0

    def test_simulate_replay_is_bit_identical(self, tmp_path):
        """Replaying a simulate manifest reproduces every artifact."""
        spec = _spec(tmp_path, BETA_DOME)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", spec, "--dt", "0.002", "--steps", "30000",
                     "--paths", "2", "--seed", "7", "--burn-in", "500",
                     "--out", str(a)]) == 0
        assert main(["replay", str(a / "manifest.json"),
                     "--out", str(b)]) == 0
        for name in ("autocorr.csv", "hist.csv", "rate.json"):
            assert filecmp.cmp(str(a / name), str(b / name), shallow=False)
        man = _load(b, "manifest.json")
        assert man["command"] == "simulate"
        assert man["resolved"]["seed"] == 7

    def test_table_replay_matches(self, tmp_path):
        """Replaying the default table rebuilds the same CSV."""
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["table", "--out", str(a)]) == 0
        assert _load(a, "manifest.json")["spec_file"] is None
        assert main(["replay", str(a / "manifest.json"),
                     "--out", str(b)]) == 0
        assert (a / "table1.csv").read_text() == (b / "table1.csv").read_text()

    def test_table_replay_uses_recorded_rows(self, tmp_path):
        """Editing the params file after the run does not change the
        replayed table."""
        pf = tmp_path / "rows.json"
        pf.write_text(json.dumps([{"name": "gamma", "params": {"alpha": 2.0}}]),
                      encoding="utf-8")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["table", "--params-file", str(pf), "--out", str(a)]) == 0
        pf.write_text(json.dumps([{"name": "beta",
                                   "params": {"alpha": 1.0, "beta": 3.0}}]),
                      encoding="utf-8")
        assert main(["replay", str(a / "manifest.json"),
                     "--out", str(b)]) == 0
        assert filecmp.cmp(str(a / "table1.csv"), str(b / "table1.csv"),
                           shallow=False)
        assert _load(b, "manifest.json")["spec_file"] == os.path.abspath(pf)

    def test_missing_manifest_exits_2(self, tmp_path):
        """A nonexistent manifest is an input error."""
        assert main(["replay", str(tmp_path / "nope.json")]) == 2

    def test_manifest_without_resolved_exits_2(self, tmp_path):
        """A manifest missing its resolved mapping is rejected."""
        man = tmp_path / "manifest.json"
        man.write_text(json.dumps({"command": "table"}), encoding="utf-8")
        assert main(["replay", str(man)]) == 2

    def test_unknown_command_exits_2(self, tmp_path):
        """A manifest naming an unknown command is rejected."""
        man = tmp_path / "manifest.json"
        man.write_text(json.dumps({"command": "dance", "resolved": {},
                                   "out_dir": str(tmp_path)}),
                       encoding="utf-8")
        assert main(["replay", str(man)]) == 2


class TestCommandTable:
    """The command declaration is the single source of the CLI's names."""

    def test_manifests_record_the_declared_fields(self, recorded):
        for command, out in recorded.items():
            man = _load(out, "manifest.json")
            assert man["command"] == command
            assert list(man["resolved"]) == list(COMMANDS[command].fields)

    def test_run_functions_take_the_declared_fields(self):
        for command, cmd in COMMANDS.items():
            params = list(inspect.signature(
                getattr(cli, "run_" + command)).parameters)
            assert params[:2] == ["spec_file", "out_dir"]
            assert sorted(params[2:]) == sorted(cmd.fields), command

    def test_parser_matches_the_declaration(self):
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(COMMANDS) | {"replay"}
        for command, cmd in COMMANDS.items():
            dests = {a.dest for a in sub.choices[command]._actions
                     if a.dest != "help"}
            assert dests <= {"spec_file", "out_dir"} | set(cmd.fields)
            assert {"spec_file", "out_dir", "strict"} <= dests

    def test_dispatch_reads_the_module_attribute(self, tmp_path,
                                                 monkeypatch, recorded):
        """main and replay look run_<command> up when called, so a wrapper
        bound in its place (a tracer, say) sees every call."""
        calls = []

        def fake(spec_file, out_dir, **fields):
            calls.append((spec_file, out_dir, fields))
            return 0

        monkeypatch.setattr(cli, "run_table", fake)
        assert main(["table", "--out", str(tmp_path / "a")]) == 0
        assert main(["replay", str(recorded["table"] / "manifest.json"),
                     "--out", str(tmp_path / "b")]) == 0
        assert calls[0] == (None, str(tmp_path / "a"), {"strict": False})
        assert set(calls[1][2]) == set(COMMANDS["table"].fields)


class TestJsonText:
    """The JSON writer behind every artifact."""

    def test_output_is_strict_json(self):
        """Non-finite floats become strings, so every output parses without
        NaN or Infinity literals; finite floats keep 17 digits."""
        def reject(name):
            raise ValueError("non-standard JSON constant %s" % name)

        doc = {"nan": math.nan, "inf": math.inf, "ninf": -math.inf,
               "np": [np.float64(np.nan), np.float32(-np.inf), np.int64(3)],
               "x": 0.1, "flag": np.bool_(True), "none": None, "empty": [],
               "nested": {"y": [1.5, {}]}}
        for obj in (doc, math.nan, [math.inf], {}, 0.1, "text"):
            json.loads(_jtext(obj), parse_constant=reject)
        back = json.loads(_jtext(doc), parse_constant=reject)
        assert back["nan"] == "nan"
        assert back["inf"] == "inf" and back["ninf"] == "-inf"
        assert back["np"] == ["nan", "-inf", 3]
        assert _jtext(0.1) == "0.10000000000000001"


class TestTopLevel:
    """Parser-level behavior."""

    def test_version_flag(self, capsys):
        """--version prints the package version and exits cleanly."""
        assert main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_no_command_is_input_error(self, capsys):
        """Calling without a subcommand exits 2."""
        assert main([]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("sigma_hat", ["1e307", "1e308"])
    @pytest.mark.parametrize("doc", [BETA_DOME, STANDARD_NORMAL],
                             ids=["dome", "normal"])
    @pytest.mark.parametrize("command", ["optimal", "spectrum", "simulate"])
    def test_a_huge_budget_is_a_typed_failure(self, tmp_path, capsys,
                                              command, doc, sigma_hat):
        """With numpy's warnings as errors, a budget near the float range
        ends in exit 3 and no warning. On the dome lambda1 = S / 0.05
        overflows, and synthesize says so; on the Normal lambda1 = S is
        finite, and the detailed-balance residual (optimal at 1e308), the
        generator or the paths overflow. The one exception is optimal on
        the Normal at 1e307: lambda1 = 1e307 and every check is finite, so
        it passes."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([command, _spec(tmp_path, doc), "--sigma-hat",
                         sigma_hat, "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert "Warning" not in out + err
        if (command, doc, sigma_hat) == ("optimal", STANDARD_NORMAL,
                                         "1e307"):
            assert code == 0 and "checks: pass" in out
        else:
            assert code == 3 and err.startswith("numerical failure: ")


# edge values for params, table entries and support bounds
_EDGE = st.sampled_from([
    0.0, -0.0, 1, -1, 0.5, 2.0, 3, -0.999999, 0.999999, 1.000001, 1e-8,
    1e-300, 5e-324, 500.0, 1e6, 1e300, -1e300, 1.7976931348623157e308,
    math.inf, -math.inf, math.nan])
_PARAM = st.one_of(st.floats(0.1, 10.0), _EDGE, st.floats(-1e3, 1e3),
                   st.sampled_from([True, None, "1", [1.0]]))
_BOUND = st.one_of(_EDGE, st.sampled_from(["inf", "-inf", "x", None]))


@st.composite
def _density_documents(draw):
    """A density file of any kind or alias, with edge-valued params, an
    optional support and, for custom, a tiny table."""
    kind = draw(st.sampled_from(sorted(_KINDS)))
    doc = {"kind": draw(st.sampled_from([kind, kind.upper()]))}
    cls = _KINDS[kind]
    if cls is Custom:
        unit = [0.0, 0.5, 1.0]
        doc["grid"] = draw(st.one_of(st.just(unit), st.lists(_EDGE, max_size=5)))
        doc["pdf"] = draw(st.one_of(st.just([1.0] * 3), st.lists(_EDGE, max_size=5)))
    else:
        # each param is present nine times in ten; an unknown one rarely
        names = list(inspect.signature(cls).parameters)
        doc["params"] = {name: draw(_PARAM) for name in names
                         if draw(st.integers(0, 9))}
        if not draw(st.integers(0, 9)):
            doc["params"]["bogus"] = 1.0
    if not draw(st.integers(0, 3)):
        doc["support"] = [draw(_BOUND), draw(_BOUND)]
    return doc


def _open_row(reason, raises=AssertionError):
    return pytest.mark.xfail(strict=True, raises=raises, reason=reason)


_POLE = _open_row("ROADMAP item 2: b - u*u rounds onto the pole at b; exit 3, "
                  "non-finite values on (0, 1.3487e-06)")
_HYP2F1 = _open_row("ROADMAP item 2: hyp2f1 does not converge in 10000 "
                    "terms at z = 0.999; exit 3")
_OVERFLOW = _open_row("ROADMAP item 2: the density overflows at subnormal "
                      "nodes near 0; 'overflow encountered in exp' escapes "
                      "main", raises=RuntimeWarning)
_TWO_SCALES = _open_row("ROADMAP item 9: 2000 uniform cells miss lambda1 by "
                        "more than 1 percent; exit 4")


class TestOpenRows:
    """Inputs the CLI fails on today, each pinned as a strict xfail that
    asserts the right outcome: a fix turns its xfail into a failure, and
    the mark goes with the fix."""

    @pytest.mark.parametrize("command,doc", [
        pytest.param("optimal", {"kind": "beta",
                                 "params": {"alpha": -0.5, "beta": -0.3}},
                     marks=_POLE, id="Beta(-0.5,-0.3)"),
        pytest.param("optimal", {"kind": "jacobi",
                                 "params": {"alpha": -0.3, "beta": 2.0}},
                     marks=_POLE, id="Jacobi(-0.3,2)"),
        pytest.param("optimal", {"kind": "cubicpearson", "params": {
            "alpha": 2.0, "beta": 2.0, "a": 0.999}},
            marks=_HYP2F1, id="CubicPearson(2,2,0.999)"),
        pytest.param("optimal", {"kind": "cubicpearson", "params": {
            "alpha": 1.0, "beta": 0.3, "a": 0.999}},
            marks=_HYP2F1, id="CubicPearson(1,0.3,0.999)"),
        pytest.param("optimal", {"kind": "beta",
                                 "params": {"alpha": -0.999999, "beta": 1.0}},
                     marks=_OVERFLOW, id="Beta(-0.999999,1)"),
        pytest.param("optimal", {"kind": "gamma",
                                 "params": {"alpha": -0.999999}},
                     marks=_OVERFLOW, id="Gamma(-0.999999)"),
        pytest.param("spectrum", {"kind": "hyperexponential", "params": {
            "p1": 0.5, "p2": 0.5, "eta1": 1e3, "eta2": 1e-3}},
            marks=_TWO_SCALES, id="Hyperexponential(1e3,1e-3)"),
        pytest.param("spectrum", {"kind": "fisher",
                                  "params": {"nu1": 5.0, "nu2": 4.5}},
                     marks=_TWO_SCALES, id="FisherSnedecor(5,4.5)"),
        pytest.param("spectrum", {"kind": "gamma", "params": {"alpha": -0.5}},
                     marks=_TWO_SCALES, id="Gamma(-0.5)"),
    ])
    def test_passes_strict(self, tmp_path, command, doc):
        """optimal or spectrum --strict at the default 2000 points exits 0,
        with no numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, _spec(tmp_path, doc), "--strict",
                         "--out", str(tmp_path / "o")]) == 0


class TestFuzzedDensityFiles:
    """Every density file ends in a result or a typed exit code."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(doc=_density_documents())
    def test_optimal_never_raises(self, tmp_path_factory, doc):
        work = tmp_path_factory.mktemp("fuzz")
        spec = _spec(work, doc)
        argv = ["optimal", spec, "--out", str(work / "out"),
                "--grid-points", "60"]
        assert main(argv) in {0, 2, 3, 4}
