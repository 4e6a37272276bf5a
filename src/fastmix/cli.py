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
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from . import __version__, numerics
from .distributions import load_spec, numeric_params, parse_spec, read_json
from .errors import FastmixError, InputError, RowMismatch, SpecFileError
from .optimal import (
    _QuadratureVariance,
    check_variance_mean,
    check_variance_positivity,
    synthesize,
    variance_at,
    verify_detailed_balance,
)
from .pearson import ROW_DEFAULTS, row, verify_row_against_synthesis
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

def _arg(*flags, **kw):
    return flags, kw


_GRID_POINTS = _arg("--grid-points", type=int, default=2000, metavar="N")
_SIGMA_HAT = dict(dest="sigma_hat_sq_half", type=float, default=None,
                  metavar="S")


class Command(NamedTuple):
    """One subcommand.

    fields are the arguments its manifest records under "resolved" (name ->
    JSON type, in record order). run_<command>(spec_file, out_dir, **fields)
    runs it, and replay calls it with exactly the recorded fields. args are
    its parser arguments before --out and --strict; each dest is spec_file
    or a field name.
    """

    help: str
    fields: dict
    args: tuple
    strict_help: str
    spec_optional: bool = False


COMMANDS = {
    "optimal": Command(
        help="synthesize the optimal process for a density file",
        fields={"sigma_hat_sq_half": float, "grid_points": int,
                "strict": bool},
        args=(_arg("spec_file", help="JSON density file"),
              _arg("--sigma-hat", **_SIGMA_HAT,
                   help="average of sigma^2/2 under the density "
                        "(default: the density's canonical level)"),
              _GRID_POINTS),
        strict_help="exit 4 if the synthesis checks fail"),
    "spectrum": Command(
        help="low eigenvalues of the discretized generator",
        fields={"k": int, "grid_points": int, "sigma_hat_sq_half": float,
                "strict": bool},
        args=(_arg("spec_file"),
              _arg("--k", type=int, default=5, metavar="K",
                   help="number of eigenvalues (default 5)"),
              _GRID_POINTS,
              _arg("--sigma-hat", **_SIGMA_HAT)),
        strict_help="exit 4 if the numeric gap misses the analytic one by "
                    "more than 1%%"),
    "simulate": Command(
        help="sample paths and an empirical decay rate",
        fields={"dt": float, "steps": int, "paths": int, "seed": int,
                "burn_in": int, "boundary_mode": str,
                "sigma_hat_sq_half": float, "strict": bool},
        # numeric flags default to None so a value in the spec file's "sim"
        # section can fill them; hard defaults live in run_simulate
        args=(_arg("spec_file"),
              _arg("--dt", type=float, default=None,
                   help="time step (default 1e-3)"),
              _arg("--steps", type=int, default=None,
                   help="steps per path (default 200000)"),
              _arg("--paths", type=int, default=None,
                   help="independent paths (default 4)"),
              _arg("--seed", type=int, default=None,
                   help="RNG seed (default 0)"),
              _arg("--burn-in", type=int, default=None,
                   help="steps discarded per path (default 0)"),
              _arg("--sigma-hat", **_SIGMA_HAT)),
        strict_help="exit 4 if the fitted rate misses lambda1 by more than "
                    "10%%"),
    "table": Command(
        help="catalog summary table with per-row verification",
        fields={"rows": list, "strict": bool},
        args=(_arg("--params-file", dest="spec_file", default=None,
                   metavar="FILE",
                   help="JSON list of {name, params} rows "
                        "(default: one standard row per catalog family)"),),
        strict_help="exit 4 if any row fails verification",
        spec_optional=True),
}


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
    # in the declared order and types, which is what replay accepts
    fields = COMMANDS[command].fields
    doc = {
        "command": command,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "spec_file": os.path.abspath(spec_file) if spec_file else None,
        "out_dir": os.path.abspath(out_dir),
        "seed": seed,
        "resolved": {name: kind(resolved[name])
                     for name, kind in fields.items()},
    }
    _write_json(os.path.join(out_dir, "manifest.json"), doc)


def _resolve_shalf(spec, sigma_hat_sq_half):
    if sigma_hat_sq_half is not None:
        return float(sigma_hat_sq_half)
    return float(spec.default_sigma_hat_sq_half())


# --- commands ---------------------------------------------------------------

def run_optimal(spec_file, out_dir, sigma_hat_sq_half=None, grid_points=2000,
                strict=False):
    spec = load_spec(spec_file)
    shalf = _resolve_shalf(spec, sigma_hat_sq_half)
    grid_points = int(grid_points)
    os.makedirs(out_dir, exist_ok=True)
    _write_manifest(out_dir, "optimal", spec_file, None, {
        "sigma_hat_sq_half": shalf,
        "grid_points": grid_points,
        "strict": strict,
    })

    proc = synthesize(spec, shalf)
    grid = default_grid(proc, grid_points)
    vals = np.asarray(variance_at(proc, grid.points), dtype=float)
    numerics.write_csv(os.path.join(out_dir, "variance.csv"),
                       "x,sigma2half\n", "%.17g,%.17g\n", grid.points, vals)

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


def run_spectrum(spec_file, out_dir, k=5, grid_points=2000,
                 sigma_hat_sq_half=None, strict=False):
    spec = load_spec(spec_file)
    shalf = _resolve_shalf(spec, sigma_hat_sq_half)
    k = int(k)
    grid_points = int(grid_points)
    # a grid of fewer than 3 points fails, and says so, when it is built
    if grid_points >= 3 and not 1 <= k <= grid_points:
        print("error: --k must be in [1, --grid-points]", file=sys.stderr)
        return _EXIT_INPUT
    os.makedirs(out_dir, exist_ok=True)
    _write_manifest(out_dir, "spectrum", spec_file, None, {
        "k": k,
        "grid_points": grid_points,
        "sigma_hat_sq_half": shalf,
        "strict": strict,
    })

    proc = synthesize(spec, shalf)
    grid = default_grid(proc, grid_points)
    disc = discretize_generator(proc, grid)
    res = spectrum(disc, max(k, 2), vectors=False)
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


def run_simulate(spec_file, out_dir, dt=None, steps=None, paths=None,
                 seed=None, burn_in=None, boundary_mode=None,
                 sigma_hat_sq_half=None, strict=False):
    doc = read_json(spec_file)
    spec = parse_spec(doc)
    shalf = _resolve_shalf(spec, sigma_hat_sq_half)
    sec = doc.get("sim", {})
    if not isinstance(sec, dict):
        raise SpecFileError("the 'sim' section must be a mapping")

    def pick(value, key, fallback, count=True):
        # an explicit argument beats the file's sim section beats the default
        if value is not None:
            return value
        v = sec.get(key, fallback)
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise SpecFileError("sim section field %r must be numeric" % key)
        if count and isinstance(v, float) and not v.is_integer():
            # int() would truncate it, and the manifest record the result
            raise SpecFileError("sim section field %r must be an integer"
                                % key)
        return v

    mode = (boundary_mode if boundary_mode is not None
            else sec.get("boundary_mode", "reflect"))
    if not isinstance(mode, str):
        raise SpecFileError("sim section field 'boundary_mode' must be text")
    cfg = SimConfig(dt=float(pick(dt, "dt", 1e-3, count=False)),
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
        "strict": strict,
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
                     "params": numeric_params(entry["params"])})
    return rows


def run_table(spec_file, out_dir, rows=None, strict=False):
    """Catalog table of the rows in the params file spec_file (one standard
    row per family without one), or of rows when given (replay passes the
    recorded ones; spec_file is then only recorded)."""
    if rows is None:
        rows = (read_json(spec_file) if spec_file is not None else
                [{"name": n, "params": p} for n, p in ROW_DEFAULTS.items()])
    rows = _table_rows(rows)
    os.makedirs(out_dir, exist_ok=True)
    _write_manifest(out_dir, "table", spec_file, None, {
        "rows": rows,
        "strict": strict,
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
            except (RowMismatch, FastmixError, ArithmeticError):
                ok = False
            lines.append("%s,%s,%.17g,%.17g,%.17g,%.17g,%s"
                         % (r.name, pstr, mom.m1, mom.variance, r.lambda1,
                            r.sigma_hat_sq_half, "true" if ok else "false"))
            print("%-15s %s" % (r.name, "verified" if ok else "MISMATCH"))
        except (FastmixError, ArithmeticError) as exc:
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


def run_replay(manifest, out_dir=None):
    """Rerun the command a manifest.json records, with exactly its recorded
    arguments. A manifest whose fields do not match the command's
    declaration in COMMANDS raises SpecFileError."""
    doc = read_json(manifest)
    if not isinstance(doc, dict) or not isinstance(doc.get("resolved"), dict):
        raise SpecFileError("manifest lacks a 'resolved' mapping")
    command = doc.get("command")
    if not isinstance(command, str) or command not in COMMANDS:
        raise SpecFileError("unknown command %r in manifest" % (command,))
    cmd = COMMANDS[command]
    out = out_dir if out_dir is not None else doc.get("out_dir")
    if not isinstance(out, str) or not out:
        raise SpecFileError("manifest lacks an output directory")
    spec_file = doc.get("spec_file")
    if not (isinstance(spec_file, str)
            or spec_file is None and cmd.spec_optional):
        raise SpecFileError("manifest 'spec_file' must be a path")
    resolved = doc["resolved"]
    if set(resolved) != set(cmd.fields):
        raise SpecFileError("manifest of %s must resolve exactly: %s"
                            % (command, ", ".join(cmd.fields)))
    for name, kind in cmd.fields.items():
        # a float may be written as a JSON integer (1.0 as 1); a bool is
        # never a number
        value = resolved[name]
        accepted = (int, float) if kind is float else kind
        if (not isinstance(value, accepted)
                or isinstance(value, bool) != (kind is bool)):
            raise SpecFileError("manifest field %r must be a JSON %s"
                                % (name, kind.__name__))
    return globals()["run_" + command](spec_file, out, **resolved)


# --- argument parsing -------------------------------------------------------

@functools.cache  # one parser per process, however many commands main runs
def _build_parser():
    p = argparse.ArgumentParser(
        prog="fastmix",
        description="Synthesize and verify the fastest-mixing diffusion "
                    "for a target stationary density.")
    p.add_argument("--version", action="version",
                   version="%(prog)s " + __version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        for flags, kw in cmd.args:
            sp.add_argument(*flags, **kw)
        sp.add_argument("--out", dest="out_dir", required=True, metavar="DIR")
        sp.add_argument("--strict", action="store_true", help=cmd.strict_help)

    pr = sub.add_parser("replay", help="rerun a manifest.json")
    pr.add_argument("manifest", help="path to a manifest.json")
    pr.add_argument("--out", dest="out_dir", default=None, metavar="DIR",
                    help="write artifacts here instead of the recorded "
                         "output directory")
    return p


def main(argv=None):
    try:
        args = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        # looked up when called, so a rebound run_<command> is the one run
        return globals()["run_" + args.pop("command")](**args)
    except (InputError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return _EXIT_INPUT
    except (FastmixError, ArithmeticError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return _EXIT_NUMERICAL
    except MemoryError as exc:
        print("out of memory: %s" % exc, file=sys.stderr)
        return _EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
