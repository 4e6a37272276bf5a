"""The benchmark's checks pass on fastmix's outputs and catch a perturbed
reference value.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import json
import os

import fastmix
import fastmix.cli as cli
import numpy as np
import pytest

import checks
import inputs
from checks import CheckFailed

NORMAL = {"catalog": "normal", "params": {"x0": 0.5, "sigma": 2.0}}
OU = {"catalog": "normal", "params": {"x0": 0.0, "sigma": 1.0}}


@pytest.fixture(scope="module")
def normal_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("normal")
    spec = str(d / "normal.json")
    with open(spec, "w", encoding="utf-8") as fh:
        fh.write('{"kind": "normal", "params": {"x0": 0.5, "sigma": 2.0}}')
    for cmd, extra in (("optimal", ["--grid-points", "200"]),
                       ("spectrum", ["--grid-points", "400", "--k", "3"])):
        assert cli.main([cmd, spec, "--out", str(d / cmd)] + extra) == 0
    return d


@pytest.fixture(scope="module")
def ou_simulation(tmp_path_factory):
    d = tmp_path_factory.mktemp("ou")
    spec = d / "ou.json"
    spec.write_text('{"kind": "normal", "params": {"x0": 0.0, "sigma": 1.0}}')
    sim = {"dt": 0.01, "steps": 20000, "paths": 64, "burn_in": 500}
    out = str(d / "sim")
    assert cli.main(["simulate", str(spec), "--dt", "0.01", "--steps", "20000",
                     "--paths", "64", "--burn-in", "500", "--seed", "5",
                     "--out", out]) == 0
    return out, sim


def _perturbed(ref, key, factor):
    out = dict(ref)
    out[key] = ref[key] * factor
    return out


def test_lambda1_reference_perturbation_is_caught(normal_run):
    ref = checks.reference(NORMAL)
    assert ref["lam"] == pytest.approx(1.0)
    checks.check_optimal(str(normal_run / "optimal"), ref)
    with pytest.raises(CheckFailed, match="lambda1"):
        checks.check_optimal(str(normal_run / "optimal"),
                             _perturbed(ref, "lam", 1.0 + 1e-6))


def test_spectral_gap_perturbation_is_caught(normal_run):
    ref = checks.reference(NORMAL)
    checks.check_spectrum(str(normal_run / "spectrum"), ref)
    with pytest.raises(CheckFailed, match="gap"):
        checks.check_spectrum(str(normal_run / "spectrum"),
                              _perturbed(ref, "lam", 1.02))


def test_sample_mean_perturbation_is_caught(ou_simulation):
    out, sim = ou_simulation
    ref = checks.reference(OU)
    checks.check_simulation(out, ref, sim)
    with pytest.raises(CheckFailed, match="sample mean"):
        checks.check_simulation(out, dict(ref, m1=ref["m1"] + 0.5), sim)


def test_histogram_cdf_perturbation_is_caught(ou_simulation):
    out, sim = ou_simulation
    ref = checks.reference(OU)
    shifted = checks.reference({"catalog": "normal",
                                "params": {"x0": 0.3, "sigma": 1.0}})
    with pytest.raises(CheckFailed, match="histogram cdf"):
        checks.check_simulation(out, dict(ref, cdf=shifted["cdf"]), sim)


def test_pchip_table_variance_perturbation_is_caught(tmp_path):
    jobs = inputs.generate("synth", 3, str(tmp_path / "inputs"))
    job = next(j for j in jobs if j["name"] == "optimal-bimodal")
    out = str(tmp_path / "optimal")
    assert cli.main(job["argv"] + ["--out", out]) == 0
    ref = checks.reference(job["ref"])
    checks.check_optimal(out, ref)
    with pytest.raises(CheckFailed, match="variance"):
        checks.check_optimal(out, _perturbed(ref, "var", 1.0 + 1e-6))


def test_table_row_perturbation_is_caught(tmp_path):
    rows = [{"name": "Gamma", "params": {"alpha": 1.5}},
            {"name": "Normal", "params": {"x0": 0.2, "sigma": 1.3}}]
    rows_file = tmp_path / "rows.json"
    rows_file.write_text(json.dumps(rows))
    out = str(tmp_path / "table")
    assert cli.main(["table", "--params-file", str(rows_file),
                     "--out", out]) == 0
    checks.check_table(out, rows)
    moved = [rows[0], {"name": "Normal",
                       "params": {"x0": 0.2, "sigma": 1.3 * (1.0 + 1e-6)}}]
    with pytest.raises(CheckFailed, match="Normal var"):
        checks.check_table(out, moved)


def test_evolution_rate_and_mass_perturbations_are_caught():
    dome = {"catalog": "beta", "params": {"alpha": 1.0, "beta": 1.0}}
    ref = checks.reference(dome)
    proc = fastmix.synthesize(fastmix.parse_spec(
        {"kind": "beta", "params": dome["params"]}))
    grid = fastmix.default_grid(proc, 400)
    sd = np.sqrt(ref["var"])
    start = fastmix.spectral.EvolutionState(
        grid=grid, density=fastmix.spectral.gaussian_bump(
            grid, ref["m1"] + sd, 0.5 * sd))
    state, times, dists = fastmix.evolve_fpe(proc, start, 2.0, 2.5e-4)
    mass0, mass1 = float(np.sum(start.density)), float(np.sum(state.density))
    checks.check_evolution(times, dists, mass0, mass1, ref)
    with pytest.raises(CheckFailed, match="decay rate"):
        checks.check_evolution(times, dists, mass0, mass1,
                               _perturbed(ref, "lam", 1.06))
    with pytest.raises(CheckFailed, match="mass"):
        checks.check_evolution(times, dists, mass0 * (1.0 + 1e-8), mass1, ref)


def test_replay_byte_change_is_caught(normal_run, tmp_path):
    first = normal_run / "optimal"
    second = tmp_path / "replayed"
    second.mkdir()
    for name in os.listdir(first):
        (second / name).write_bytes((first / name).read_bytes())
    checks.check_same_artifacts(str(first), str(second))
    data = bytearray((second / "process.json").read_bytes())
    data[-2] ^= 1
    (second / "process.json").write_bytes(bytes(data))
    with pytest.raises(CheckFailed, match="process.json"):
        checks.check_same_artifacts(str(first), str(second))
