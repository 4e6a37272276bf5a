"""Command line interface for synthesizing and verifying optimal diffusions.

Subcommands
  optimal   synthesize the process for a density file and check it
  spectrum  discretize the generator and write its lowest eigenvalues
  simulate  integrate sample paths and estimate the decay rate
  table     build the catalog summary and verify each row
  replay    rerun a previous manifest.json

Every command writes manifest.json into --out before any other artifact, so
an interrupted run still records what was asked for, and `fastmix replay`
can reproduce the artifacts bit for bit (only the manifest timestamp moves).

Exit codes: 0 success, 2 bad input, 3 numerical failure, 4 verification
failure under --strict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .distributions import load_spec
from .errors import (
    FastmixError,
    BadWeights,
    GridTooCoarse,
    InvalidInterval,
    NotNormalized,
    OutOfSupport,
    ParamOutOfRange,
    RowMismatch,
    SpecFileError,
    SupportMismatch,
)
from .optimal import (
    _QuadratureVariance,
    check_variance_mean,
    check_variance_positivity,
    synthesize,
    variance_at,
    verify_detailed_balance,
)
from .pearson import ROW_NAMES, row, verify_row_against_synthesis
from .sim import (
    SimConfig,
    rate_from_acf,
    simulate,
    write_autocorr_csv,
    write_hist_csv,
)
from .spectral import (
    default_grid,
    discretize_generator,
    spectrum,
    write_spectrum_csv,
)

_EXIT_OK = 0
_EXIT_INPUT = 2
_EXIT_NUMERICAL = 3
_EXIT_VERIFY = 4

# anything the user can fix by changing arguments or the input file
_INPUT_ERRORS = (
    SpecFileError,
    ParamOutOfRange,
    BadWeights,
    SupportMismatch,
    NotNormalized,
    OutOfSupport,
    InvalidInterval,
    GridTooCoarse,
    OSError,
    ValueError,
)

_TABLE_DEFAULTS = (
    ("Beta", {"alpha": 1.0, "beta": 2.0}),
    ("Jacobi", {"alpha": 1.0, "beta": 1.0}),
    ("Gamma", {"alpha": 1.0}),
    ("Normal", {"x0": 0.0, "sigma": 1.0}),
    ("StudentCauchy", {"alpha": 3.0}),
    ("InverseGamma", {"alpha": 3.0}),
    ("FisherSnedecor", {"nu1": 6.0, "nu2": 10.0}),
)


# --- serialization helpers --------------------------------------------------

def _jtext(obj, indent=0):
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = ",\n".join("%s%s: %s" % (inner, json.dumps(str(k)),
                                        _jtext(v, indent + 2))
                          for k, v in obj.items())
        return "{\n%s\n%s}" % (rows, pad)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = ",\n".join("%s%s" % (inner, _jtext(v, indent + 2))
                          for v in obj)
        return "[\n%s\n%s]" % (rows, pad)
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # JSON has no non-finite numbers; write them as "nan", "inf", "-inf"
        x = float(obj)
        return "%.17g" % x if math.isfinite(x) else json.dumps(str(x))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_jtext(obj))
        fh.write("\n")


def _write_manifest(out_dir, command, spec_file, seed, resolved):
    doc = {
        "command": command,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "spec_file": os.path.abspath(spec_file) if spec_file else None,
        "out_dir": os.path.abspath(out_dir),
        "seed": seed,
        "resolved": resolved,
    }
    _write_json(os.path.join(out_dir, "manifest.json"), doc)


def _resolve_shalf(spec, sigma_hat):
    if sigma_hat is not None:
        return float(sigma_hat)
    return float(spec.default_sigma_hat_sq_half())


# --- commands ---------------------------------------------------------------

def run_optimal(spec_file, out_dir, sigma_hat=None, grid_points=2000,
                strict=False):
    spec = load_spec(spec_file)
    shalf = _resolve_shalf(spec, sigma_hat)
    grid_points = int(grid_points)
    os.makedirs(out_dir, exist_ok=True)
    _write_manifest(out_dir, "optimal", spec_file, None, {
        "sigma_hat_sq_half": shalf,
        "grid_points": grid_points,
        "strict": bool(strict),
    })

    proc = synthesize(spec, shalf)
    grid = default_grid(proc, grid_points)
    vals = np.asarray(variance_at(proc, grid.points), dtype=float)
    with open(os.path.join(out_dir, "variance.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("x,sigma2half\n")
        for x, v in zip(grid.points, vals):
            fh.write("%.17g,%.17g\n" % (x, v))

    mom = proc.moments
    route = ("quadrature" if isinstance(proc.variance_fn, _QuadratureVariance)
             else "closed")
    _write_json(os.path.join(out_dir, "process.json"), {
        "kind": spec.kind,
        "support": [spec.support.lower, spec.support.upper],
        "moments": {"m1": mom.m1, "m2": mom.m2, "variance": mom.variance},
        "sigma_hat_sq_half": proc.sigma_hat_sq_half,
        "lambda1": proc.lambda1,
        "tau": proc.tau,
        "drift": {"a0": proc.drift[0], "a1": proc.drift[1]},
        "phi1": {"slope": proc.phi1[0], "intercept": proc.phi1[1]},
        "variance_route": route,
    })

    db_resid = verify_detailed_balance(proc, grid)
    positive, vmin = check_variance_positivity(proc)
    mean_val = float(check_variance_mean(proc))
    mean_rel_err = abs(mean_val - shalf) / shalf
    passed = positive and mean_rel_err <= 1e-6
    _write_json(os.path.join(out_dir, "checks.json"), {
        "detailed_balance_residual": db_resid,
        "variance_positive": positive,
        "variance_min": vmin,
        "variance_mean": mean_val,
        "variance_mean_rel_err": mean_rel_err,
        "passed": passed,
    })

    print("lambda1=%.17g tau=%.17g route=%s" % (proc.lambda1, proc.tau, route))
    print("checks: %s (variance_min=%.3g, mean_rel_err=%.3g)"
          % ("pass" if passed else "FAIL", vmin, mean_rel_err))
    if strict and not passed:
        return _EXIT_VERIFY
    return _EXIT_OK


def run_spectrum(spec_file, out_dir, k=5, grid_points=2000, sigma_hat=None,
                 strict=False):
    spec = load_spec(spec_file)
    shalf = _resolve_shalf(spec, sigma_hat)
    k = int(k)
    grid_points = int(grid_points)
    if k < 1 or k > grid_points:
        print("error: --k must be in [1, --grid-points]", file=sys.stderr)
        return _EXIT_INPUT
    os.makedirs(out_dir, exist_ok=True)
    _write_manifest(out_dir, "spectrum", spec_file, None, {
        "k": k,
        "grid_points": grid_points,
        "sigma_hat_sq_half": shalf,
        "strict": bool(strict),
    })

    proc = synthesize(spec, shalf)
    grid = default_grid(proc, grid_points)
    disc = discretize_generator(proc, grid)
    res = spectrum(disc, max(k, 2))
    write_spectrum_csv(os.path.join(out_dir, "spectrum.csv"),
                       res.eigenvalues[:k])
    lam_num = float(res.eigenvalues[1])
    lam_an = proc.lambda1
    rel_err = abs(lam_num - lam_an) / lam_an
    print("lambda1_analytic=%.17g lambda1_numeric=%.17g rel_err=%.17g"
          % (lam_an, lam_num, rel_err))
    if strict and rel_err > 0.01:
        return _EXIT_VERIFY
    return _EXIT_OK


def _sim_section(spec_file):
    """The spec file's optional 'sim' mapping of default run parameters."""
    try:
        with open(spec_file, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return {}
    sec = doc.get("sim") if isinstance(doc, dict) else None
    return sec if isinstance(sec, dict) else {}


def run_simulate(spec_file, out_dir, dt=None, steps=None, paths=None,
                 seed=None, burn_in=None, sigma_hat=None, strict=False,
                 boundary=None):
    spec = load_spec(spec_file)
    shalf = _resolve_shalf(spec, sigma_hat)
    sec = _sim_section(spec_file)

    def pick(flag, key, fallback):
        # explicit flag beats the file's sim section beats the default
        if flag is not None:
            return flag
        v = sec.get(key, fallback)
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise SpecFileError("sim section field %r must be numeric" % key)
        return v

    mode = boundary if boundary is not None else sec.get("boundary_mode",
                                                         "reflect")
    if not isinstance(mode, str):
        raise SpecFileError("sim section field 'boundary_mode' must be text")
    cfg = SimConfig(dt=float(pick(dt, "dt", 1e-3)),
                    n_steps=int(pick(steps, "steps", 200000)),
                    n_paths=int(pick(paths, "paths", 4)),
                    seed=int(pick(seed, "seed", 0)),
                    burn_in=int(pick(burn_in, "burn_in", 0)),
                    boundary_mode=mode)
    os.makedirs(out_dir, exist_ok=True)
    _write_manifest(out_dir, "simulate", spec_file, cfg.seed, {
        "dt": cfg.dt,
        "steps": cfg.n_steps,
        "paths": cfg.n_paths,
        "seed": cfg.seed,
        "burn_in": cfg.burn_in,
        "boundary_mode": cfg.boundary_mode,
        "sigma_hat_sq_half": shalf,
        "strict": bool(strict),
    })

    proc = synthesize(spec, shalf)
    res = simulate(proc, cfg)
    write_autocorr_csv(os.path.join(out_dir, "autocorr.csv"),
                       res.acf_lags, res.acf)
    write_hist_csv(os.path.join(out_dir, "hist.csv"),
                   res.hist_edges, res.hist_freq)
    est = rate_from_acf(res.acf_lags, res.acf, cfg.dt)
    rel_err = abs(est.rate - proc.lambda1) / proc.lambda1
    _write_json(os.path.join(out_dir, "rate.json"), {
        "rate": est.rate,
        "stderr": est.stderr,
        "fit_window": [est.fit_window[0], est.fit_window[1]],
        "lambda1_analytic": proc.lambda1,
        "rel_err": rel_err,
        "m1_hat": res.m1_hat,
        "m2_hat": res.m2_hat,
        "n_samples": res.n_samples,
    })
    print("rate=%.17g lambda1_analytic=%.17g rel_err=%.17g"
          % (est.rate, proc.lambda1, rel_err))
    if strict and rel_err > 0.10:
        return _EXIT_VERIFY
    return _EXIT_OK


def _read_rows(params_file):
    if params_file is None:
        return [{"name": n, "params": dict(p)} for n, p in _TABLE_DEFAULTS]
    try:
        with open(params_file, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecFileError("cannot read %s: %s" % (params_file, exc)) from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError("invalid JSON in %s: %s"
                            % (params_file, exc)) from exc
    return _table_rows(doc)


def _table_rows(doc):
    if not isinstance(doc, list):
        raise SpecFileError("params file must hold a list of rows")
    rows = []
    for entry in doc:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("params"), dict)):
            raise SpecFileError(
                "each row needs a 'name' string and a 'params' mapping")
        rows.append({"name": entry["name"],
                     "params": {str(k): float(v)
                                for k, v in entry["params"].items()}})
    return rows


def run_table(out_dir, params_file=None, strict=False, rows=None):
    """Catalog table of the rows in params_file, or of rows when given
    (replay passes the recorded ones; params_file is then only recorded)."""
    rows = _read_rows(params_file) if rows is None else _table_rows(rows)
    os.makedirs(out_dir, exist_ok=True)
    _write_manifest(out_dir, "table", params_file, None, {
        "rows": rows,
        "strict": bool(strict),
    })

    all_ok = True
    lines = ["name,params,m1,var,lambda1,sigma_hat_sq_half,verified"]
    for entry in rows:
        name, params = entry["name"], entry["params"]
        pstr = ";".join("%s=%.17g" % (k, v) for k, v in params.items())
        try:
            r = row(name, params)
            mom = r.spec.moments()
            try:
                verify_row_against_synthesis(r)
                ok = True
            except (RowMismatch, FastmixError):
                ok = False
            lines.append("%s,%s,%.17g,%.17g,%.17g,%.17g,%s"
                         % (r.name, pstr, mom.m1, mom.variance, r.lambda1,
                            r.sigma_hat_sq_half, "true" if ok else "false"))
            print("%-15s %s" % (r.name, "verified" if ok else "MISMATCH"))
        except FastmixError as exc:
            ok = False
            lines.append("%s,%s,nan,nan,nan,nan,false" % (name, pstr))
            print("%-15s failed: %s" % (name, exc))
        all_ok = all_ok and ok
    with open(os.path.join(out_dir, "table1.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    if strict and not all_ok:
        return _EXIT_VERIFY
    return _EXIT_OK


def run_replay(manifest_path, out_dir=None):
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecFileError("cannot read %s: %s"
                            % (manifest_path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError("invalid JSON in %s: %s"
                            % (manifest_path, exc)) from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("resolved"), dict):
        raise SpecFileError("manifest lacks a 'resolved' mapping")
    command = doc.get("command")
    out = out_dir if out_dir is not None else doc.get("out_dir")
    if not isinstance(out, str) or not out:
        raise SpecFileError("manifest lacks an output directory")
    r = doc["resolved"]
    spec_file = doc.get("spec_file")
    try:
        if command == "optimal":
            return run_optimal(spec_file, out,
                               sigma_hat=r["sigma_hat_sq_half"],
                               grid_points=r["grid_points"],
                               strict=bool(r.get("strict", False)))
        if command == "spectrum":
            return run_spectrum(spec_file, out, k=r["k"],
                                grid_points=r["grid_points"],
                                sigma_hat=r["sigma_hat_sq_half"],
                                strict=bool(r.get("strict", False)))
        if command == "simulate":
            return run_simulate(spec_file, out, dt=r["dt"], steps=r["steps"],
                                paths=r["paths"], seed=r["seed"],
                                burn_in=r["burn_in"],
                                sigma_hat=r["sigma_hat_sq_half"],
                                strict=bool(r.get("strict", False)),
                                boundary=r.get("boundary_mode", "reflect"))
        if command == "table":
            return run_table(out, spec_file, rows=r["rows"],
                             strict=bool(r.get("strict", False)))
    except KeyError as exc:
        raise SpecFileError("manifest is missing field %s" % exc) from exc
    raise SpecFileError("unknown command %r in manifest" % command)


# --- argument parsing -------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(
        prog="fastmix",
        description="Synthesize and verify the fastest-mixing diffusion "
                    "for a target stationary density.")
    p.add_argument("--version", action="version",
                   version="%(prog)s " + __version__)
    sub = p.add_subparsers(dest="command", required=True)

    po = sub.add_parser(
        "optimal", help="synthesize the optimal process for a density file")
    po.add_argument("spec_file", help="JSON density file")
    po.add_argument("--sigma-hat", type=float, default=None, metavar="S",
                    help="average of sigma^2/2 under the density "
                         "(default: the density's canonical level)")
    po.add_argument("--grid-points", type=int, default=2000, metavar="N")
    po.add_argument("--out", required=True, metavar="DIR")
    po.add_argument("--strict", action="store_true",
                    help="exit 4 if the synthesis checks fail")

    ps = sub.add_parser(
        "spectrum", help="low eigenvalues of the discretized generator")
    ps.add_argument("spec_file")
    ps.add_argument("--k", type=int, default=5, metavar="K",
                    help="number of eigenvalues (default 5)")
    ps.add_argument("--grid-points", type=int, default=2000, metavar="N")
    ps.add_argument("--sigma-hat", type=float, default=None, metavar="S")
    ps.add_argument("--out", required=True, metavar="DIR")
    ps.add_argument("--strict", action="store_true",
                    help="exit 4 if the numeric gap misses the analytic "
                         "one by more than 1%%")

    pm = sub.add_parser(
        "simulate", help="sample paths and an empirical decay rate")
    pm.add_argument("spec_file")
    # numeric flags default to None so a value in the spec file's "sim"
    # section can fill them; hard defaults live in run_simulate
    pm.add_argument("--dt", type=float, default=None,
                    help="time step (default 1e-3)")
    pm.add_argument("--steps", type=int, default=None,
                    help="steps per path (default 200000)")
    pm.add_argument("--paths", type=int, default=None,
                    help="independent paths (default 4)")
    pm.add_argument("--seed", type=int, default=None,
                    help="RNG seed (default 0)")
    pm.add_argument("--burn-in", type=int, default=None,
                    help="steps discarded per path (default 0)")
    pm.add_argument("--sigma-hat", type=float, default=None, metavar="S")
    pm.add_argument("--out", required=True, metavar="DIR")
    pm.add_argument("--strict", action="store_true",
                    help="exit 4 if the fitted rate misses lambda1 by "
                         "more than 10%%")

    pt = sub.add_parser(
        "table", help="catalog summary table with per-row verification")
    pt.add_argument("--params-file", default=None, metavar="FILE",
                    help="JSON list of {name, params} rows "
                         "(default: one standard row per catalog family)")
    pt.add_argument("--out", required=True, metavar="DIR")
    pt.add_argument("--strict", action="store_true",
                    help="exit 4 if any row fails verification")

    pr = sub.add_parser("replay", help="rerun a manifest.json")
    pr.add_argument("manifest", help="path to a manifest.json")
    pr.add_argument("--out", default=None, metavar="DIR",
                    help="write artifacts here instead of the recorded "
                         "output directory")
    return p


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "optimal":
            return run_optimal(args.spec_file, args.out,
                               sigma_hat=args.sigma_hat,
                               grid_points=args.grid_points,
                               strict=args.strict)
        if args.command == "spectrum":
            return run_spectrum(args.spec_file, args.out, k=args.k,
                                grid_points=args.grid_points,
                                sigma_hat=args.sigma_hat, strict=args.strict)
        if args.command == "simulate":
            return run_simulate(args.spec_file, args.out, dt=args.dt,
                                steps=args.steps, paths=args.paths,
                                seed=args.seed, burn_in=args.burn_in,
                                sigma_hat=args.sigma_hat, strict=args.strict)
        if args.command == "table":
            return run_table(args.out, params_file=args.params_file,
                             strict=args.strict)
        if args.command == "replay":
            return run_replay(args.manifest, out_dir=args.out)
        parser.error("unknown command %r" % args.command)
    except _INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return _EXIT_INPUT
    except FastmixError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return _EXIT_NUMERICAL
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
