"""Command-line front end: JSON configs in, CSV traces and JSON summaries out.

Usage: ``uotcone --config run.json --out results --seed 0``.  The command
itself lives inside the config (``"command": "pde-evolve"`` etc.); without
``--config`` the invariant suite (``check``) runs with defaults.  Outputs are
deterministic: identical configs and seeds give byte-identical files.

Exit codes: 0 success, 1 configuration/schema error (also a usage error and
an output directory or file that cannot be written), 2 numerical failure
(the JSON summary then carries a machine-readable reason; any other
exception is reported there as kind ``internal``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from . import checks
from .bb import BBPath, bb_action, from_small_trace
from .cone import (ConeProblem, ConeState, circle_base, cone_geodesic_ray, flat_base,
                   integrate_cone)
from .config import validate_config
from .errors import ConfigError, NonFiniteError, NumericsError
from .gaussian import (GaussianCotangentState, geodesic_ray, require_spd,
                       require_symmetric, shoot_bvp, spd_base)
from .pde import (Grid1D, PdeState, fisher_rao_cone_geodesic, gdiv_metric_eval,
                  integrate_pde, small_metric_eval, total_mass)
from .trace import GeodesicTrace, mass_quadratic_fit, relative_energy_drift


def _jsonable(value, bad, key=""):
    """A strict-JSON copy of a summary or a reason: numpy values become
    Python values, and each non-finite number its str ("nan", "inf"), whose
    key path ("mass_fit.rms_residual", "P0[2]") and str are appended to bad."""
    if isinstance(value, dict):
        return {k: _jsonable(v, bad, f"{key}.{k}" if key else k) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, bad, f"{key}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        value = str(value)
        bad.append((key, value))
    return value


# every file name a run writes into its directory
_OUTPUTS = ("trace.csv", "result.csv", "summary.json")


def _write_output(path, content=None):
    """Write one output file: a trace as CSV, a string as UTF-8 text; None
    removes the file, if there is one.  An OSError (the path is a directory,
    the disk is full) is a config error that names the file, as for an
    output directory that cannot be created."""
    try:
        if content is None:
            path.unlink(missing_ok=True)
        elif isinstance(content, GeodesicTrace):
            content.write_csv(path)
        else:
            path.write_text(content, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write the output file {path}: "
                          f"{exc.strerror or exc}", path=str(path)) from None


def _field(cfg, key, *shape):
    """cfg[key] as an array of the given shape, a matrix from its row-major
    entries."""
    values = np.asarray(cfg[key], dtype=float)
    if values.size != math.prod(shape):
        raise ConfigError(f"key {key!r} must hold {math.prod(shape)} values",
                          got=int(values.size))
    return values.reshape(shape)


def _fields(cfg, *keys):
    """n (by default the length of the first key) and the grid fields of
    keys, each of n values."""
    n = cfg.get("n", len(cfg[keys[0]]))
    return n, *(_field(cfg, key, n) for key in keys)


# The one owner of each trace command's H convention: mass_fit's
# expected_leading is factor H(0), so m'' = 2 factor H along its geodesics.
# The Gaussian and density traces write the Hamiltonian (m'' = H for both
# PDE models); cone-geodesic the bare-cone |v|^2 (p = 1: m = alpha^2 and
# alpha'' = alpha |qdot|^2, so m'' = 2H; other p have no constant m'' and
# pass no factor); fr-geodesic the flat energy 4 int (d sqrt(rho)/dt)^2,
# twice the Hamiltonian (m'' = H/2).
_LEADING_FACTOR = {"gauss-geodesic": 0.5, "gauss-connect": 0.5, "pde-evolve": 0.5,
                   "cone-geodesic": 1.0, "fr-geodesic": 0.25}


def _trace_summary(trace, factor):
    """final {t, m, xi, H}, H_drift_rel and mass_fit of a trace; with a
    factor, mass_fit holds expected_leading = factor H(0)."""
    mass_fit = mass_quadratic_fit(trace)
    if factor is not None:
        mass_fit["expected_leading"] = factor * float(trace.column("H")[0])
    return {"final": {name: float(trace.column(name)[-1]) for name in ("t", "m", "xi", "H")},
            "H_drift_rel": relative_energy_drift(trace),
            "mass_fit": mass_fit}


def _handle_gauss_geodesic(cfg, seed):
    n = cfg["n"]
    state = GaussianCotangentState(V=_field(cfg, "V", n, n), m=float(cfg["m"]),
                                   P=_field(cfg, "P", n, n), xi=float(cfg["xi"]))
    trace = geodesic_ray(state, dt=cfg["dt"], steps=cfg["steps"])
    return _trace_summary(trace, _LEADING_FACTOR["gauss-geodesic"]), 0, {"trace.csv": trace}


def _handle_gauss_connect(cfg, seed):
    n = cfg["n"]
    Sigma0 = _field(cfg, "Sigma0", n, n)
    Sigma1 = _field(cfg, "Sigma1", n, n)
    P0, xi0, trace, residual = shoot_bvp(Sigma0, float(cfg["m0"]), Sigma1,
                                         float(cfg["m1"]), tol=cfg["tol"], dt=cfg["dt"])
    return {**_trace_summary(trace, _LEADING_FACTOR["gauss-connect"]),
            "P0": P0.ravel().tolist(),
            "xi0": float(xi0),
            "endpoint_residual": residual,
            "min_mass": float(np.min(trace.column("m")))}, 0, {"trace.csv": trace}


def _handle_pde_evolve(cfg, seed):
    n, rho, theta = _fields(cfg, "rho", "theta")
    state = PdeState(Grid1D(n=n, length=float(cfg["length"])), rho, theta)
    trace = integrate_pde(state, cfg["model"], dt=cfg["dt"], steps=cfg["steps"])
    return ({"model": cfg["model"], **_trace_summary(trace, _LEADING_FACTOR["pde-evolve"])},
            0, {"trace.csv": trace})


def _handle_pde_metric(cfg, seed):
    n, rho, rhodot = _fields(cfg, "rho", "rhodot")
    grid = Grid1D(n=n, length=float(cfg["length"]))
    evaluate = small_metric_eval if cfg["metric"] == "small" else gdiv_metric_eval
    value = evaluate(grid, rho, rhodot)
    rate = float(grid.h * np.sum(rhodot) / total_mass(grid, rho))
    return ({"metric": cfg["metric"], "value": value, "rate": rate}, 0,
            {"result.csv": f"value,rate\n{value!r},{rate!r}\n"})


def _handle_fr_geodesic(cfg, seed):
    n, rho0, rho1 = _fields(cfg, "rho0", "rho1")
    grid = Grid1D(n=n, length=float(cfg["length"]))
    t = np.linspace(0.0, 1.0, cfg["num_times"])[:, None]
    rho_t = fisher_rao_cone_geodesic(rho0, rho1, t)
    m_t = total_mass(grid, rho_t)
    # sqrt(rho) is affine in t: d sqrt(rho)/dt = sqrt(rho1) - sqrt(rho0)
    rate = np.sqrt(rho1) - np.sqrt(rho0)
    mdot = 2.0 * grid.h * np.sum(np.sqrt(rho_t) * rate, axis=-1)
    # flat-coordinate energy 4 int (d sqrt(rho)/dt)^2 is constant on the line
    energy = 4.0 * grid.h * float(np.sum(rate**2))
    cols = ["t", "m", "xi", "H"] + [f"rho{i}" for i in range(n)]
    data = np.column_stack([t, m_t, mdot / m_t, np.full(t.size, energy), rho_t])
    trace = GeodesicTrace(columns=tuple(cols), data=data)
    end_err = max(float(np.max(np.abs(rho_t[0] - rho0))),
                  float(np.max(np.abs(rho_t[-1] - rho1))))
    return {"m0": float(total_mass(grid, rho0)),
            "m1": float(total_mass(grid, rho1)),
            "endpoint_error": end_err,
            **_trace_summary(trace, _LEADING_FACTOR["fr-geodesic"])}, 0, {"trace.csv": trace}


def _cone_base(cfg):
    q = np.asarray(cfg["q"], dtype=float)
    if cfg["base"] == "circle":
        if q.size != 1:
            raise ConfigError("circle base expects a single angle coordinate")
        return circle_base()
    if cfg["base"] == "flat":
        return flat_base(q.size)
    n = int(round(np.sqrt(q.size)))
    if n < 1 or n * n != q.size:
        raise ConfigError("spd base expects a flattened square matrix",
                          got=int(q.size))
    # the SPD base symmetrizes q and q_dot, so an initial point that is no
    # SPD matrix, or a velocity that is not symmetric, is refused here,
    # before any step
    require_spd(q.reshape(n, n), "q")
    require_symmetric(_field(cfg, "q_dot", n, n), "q_dot")
    return spd_base(n)


def _handle_cone_geodesic(cfg, seed):
    base = _cone_base(cfg)
    state = ConeState(q=_field(cfg, "q", base.dim),
                      q_dot=_field(cfg, "q_dot", base.dim),
                      alpha=float(cfg["alpha"]), alpha_dot=float(cfg["alpha_dot"]))
    problem = ConeProblem(p=float(cfg["p"]), dt=cfg["dt"], steps=cfg["steps"])
    if problem.p == 1.0:
        # the geodesic is a ray of the flat picture, in closed form
        engine, trace = "closed-form", cone_geodesic_ray(state, problem, base)
    else:
        engine, trace = "rk4", integrate_cone(state, problem, base)
    factor = _LEADING_FACTOR["cone-geodesic"] if problem.p == 1.0 else None
    return {"base": cfg["base"], "p": problem.p, **_trace_summary(trace, factor),
            "diagnostics": {"engine": engine}}, 0, {"trace.csv": trace}


def _handle_bb_action(cfg, seed):
    explicit = cfg["source"] == "explicit"
    for key in ("times", "rhobar", "w", "r") if explicit else ("rho", "theta"):
        if key not in cfg:
            raise ConfigError(f"{cfg['source']} bb-action needs key {key!r}")
    if explicit:
        # ragged rows, a single time sample and shapes that disagree with
        # each other or with n are config errors, not numerical ones
        try:
            rhobar = np.asarray(cfg["rhobar"], dtype=float)
            if rhobar.ndim != 2:
                raise ValueError("'rhobar' must be a list of per-time rows")
            grid = Grid1D(n=cfg.get("n", rhobar.shape[1]), length=float(cfg["length"]))
            path = BBPath(grid=grid, times=np.asarray(cfg["times"], dtype=float),
                          rhobar=rhobar, w=np.asarray(cfg["w"], dtype=float),
                          r=np.asarray(cfg["r"], dtype=float)).validate()
        except ValueError as exc:
            raise ConfigError(f"explicit bb-action path: {exc}") from None
        energy_integral = None
    else:
        n, rho, theta = _fields(cfg, "rho", "theta")
        grid = Grid1D(n=n, length=float(cfg["length"]))
        state = PdeState(grid, rho, theta)
        trace = integrate_pde(state, "small", dt=cfg["dt"], steps=cfg["steps"])
        path = from_small_trace(trace, grid)
        energy_integral = float(np.trapezoid(2.0 * trace.column("H"), trace.t))
    result = bb_action(path, continuity_tol=cfg["continuity_tol"])
    summary = {"source": cfg["source"],
               "action": result.action,
               "transport_part": result.transport_part,
               "radial_part": result.radial_part,
               "continuity_residual": result.continuity_residual}
    if energy_integral is not None:
        summary["energy_integral"] = energy_integral
        summary["action_vs_energy_gap"] = abs(result.action - energy_integral)
    return summary, 0, {"result.csv": "action,transport,radial,continuity_residual\n"
                                      f"{result.action!r},{result.transport_part!r},"
                                      f"{result.radial_part!r},{result.continuity_residual!r}\n"}


def _handle_check(cfg, seed):
    results = []
    for r, seconds in checks.run_all(seed=seed, quick=cfg["quick"]):
        print(("PASS" if r.passed else "FAIL") + f" {r.name} - {r.detail}")
        # wall-clock numbers go to stderr only, so the outputs stay reproducible
        print(f"{r.name} {seconds:.3f}", file=sys.stderr)
        results.append(r)
    all_passed = all(r.passed for r in results)
    summary = {"seed": seed, "quick": cfg["quick"], "all_passed": all_passed,
               "results": [{"name": r.name, "passed": r.passed,
                            "detail": r.detail} for r in results]}
    return summary, 0 if all_passed else 2, {}


_HANDLERS = {
    "gauss-geodesic": _handle_gauss_geodesic,
    "gauss-connect": _handle_gauss_connect,
    "pde-evolve": _handle_pde_evolve,
    "pde-metric": _handle_pde_metric,
    "fr-geodesic": _handle_fr_geodesic,
    "cone-geodesic": _handle_cone_geodesic,
    "bb-action": _handle_bb_action,
    "check": _handle_check,
}


def _run_one(cfg, outdir, seed):
    """Run one config; the only code that writes into outdir.  Every
    output of an earlier run is removed first, and summary.json is written
    last, so the directory holds this run's outputs only, and a failed
    run's error summary alone."""
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory: {exc}") from None
    for name in _OUTPUTS:
        _write_output(outdir / name)
    try:
        summary, code, outputs = _HANDLERS[cfg["command"]](cfg, seed)
        summary = {"command": cfg["command"], **summary}
        summary.setdefault("status", "ok" if code == 0 else "failed")
        bad = []
        summary = _jsonable(summary, bad)
        if bad:
            # an overflowed diagnostic is no result to report as success
            key, value = bad[0]
            raise NonFiniteError(f"summary value {key!r} is not finite",
                                 key=key, value=value)
        for name, content in outputs.items():
            _write_output(outdir / name, content)
    except NumericsError as exc:
        summary, code = _fail(cfg, exc.to_json(), f"numerical failure in {cfg['command']}")
    except ConfigError:
        raise
    except Exception as exc:
        # the last resort: a bug, reported as a reason with the innermost
        # frame that raised it instead of a traceback; a trace whose writing
        # failed is removed
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        reason = {"kind": "internal", "message": f"{type(exc).__name__}: {exc}",
                  "where": f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}"}
        summary, code = _fail(cfg, reason, f"internal error in {cfg['command']}")
        for name in _OUTPUTS:
            _write_output(outdir / name)
    _write_output(outdir / "summary.json", json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return code


def _fail(cfg, reason, what):
    """The summary of a failed run and exit code 2."""
    print(f"{what}: {reason['message']}", file=sys.stderr)
    return _jsonable({"command": cfg["command"], "status": "error", "reason": reason}, []), 2


def _config_fail(exc):
    """Print a config error as one JSON line on stderr; exit code 1."""
    print(json.dumps(_jsonable(exc.to_json(), []), sort_keys=True), file=sys.stderr)
    return 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a config error: exit 1
        raise ConfigError(f"usage: {message}")


# Built once: parsing leaves the parser as it was, and building it took
# 0.12 ms of every call of main.
_PARSER = _Parser(
    prog="uotcone",
    description="Conical unbalanced-transport geodesics: run a JSON-configured "
                "computation or the invariant suite.")
_PARSER.add_argument("--config", type=Path, default=None,
                     help="path to a JSON run configuration "
                          "(default: run the 'check' suite)")
_PARSER.add_argument("--out", type=Path, default=Path("out"),
                     help="output directory (default: ./out)")
_PARSER.add_argument("--seed", type=int, default=0,
                     help="seed for the randomized property suites")


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
        if args.seed < 0:
            raise ConfigError("--seed must be a non-negative integer", seed=args.seed)
        if args.config is None:
            doc = {"command": "check"}
        else:
            try:
                doc = json.loads(args.config.read_text(encoding="utf-8"))
            except OSError as exc:  # not found, a directory, no read permission
                raise ConfigError(f"cannot read the config: {exc}", path=str(args.config))
            except ValueError as exc:  # also a file not in UTF-8, or an overlong integer
                raise ConfigError(f"config is not valid JSON: {exc}")
        runs = validate_config(doc)
        names = [run.get("name", f"run_{i:03d}") for i, run in enumerate(runs)]
        if len(set(names)) != len(names):
            raise ConfigError("run names must be unique", names=names)
    except ConfigError as exc:
        return _config_fail(exc)

    codes = []
    for run, name in zip(runs, names):
        outdir = args.out if len(runs) == 1 else args.out / name
        try:
            codes.append(_run_one(run, outdir, args.seed))
        except ConfigError as exc:
            codes.append(_config_fail(exc))
    return max(codes)


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
