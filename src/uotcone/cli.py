"""Command-line front end: JSON configs in, CSV traces and JSON summaries out.

Usage: ``uotcone --config run.json --out results --seed 0``.  The command
itself lives inside the config (``"command": "pde-evolve"`` etc.); without
``--config`` the invariant suite (``check``) runs with defaults.  Outputs are
deterministic: identical configs and seeds give byte-identical files.

Exit codes: 0 success, 1 configuration/schema error (also an output
directory or file that cannot be written), 2 numerical failure (the JSON
summary then carries a machine-readable reason; any other exception is
reported there as kind ``internal``).
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
from .cone import ConeProblem, ConeState, circle_base, flat_base, integrate_cone
from .config import validate_config
from .errors import ConfigError, NonFiniteError, NumericsError
from .gaussian import (GaussianCotangentState, geodesic_ray, require_spd,
                       require_symmetric, shoot_bvp, spd_base)
from .pde import (Grid1D, PdeState, fisher_rao_cone_geodesic, gdiv_metric_eval,
                  integrate_pde, small_metric_eval, total_mass)
from .trace import GeodesicTrace, mass_quadratic_fit, relative_energy_drift


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value


def _non_finite(value, key=""):
    """(path, value) of the first non-finite number in a JSON-ready summary,
    or None."""
    if isinstance(value, dict):
        items = ((f"{key}.{k}" if key else k, v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((f"{key}[{i}]", v) for i, v in enumerate(value))
    else:
        bad = isinstance(value, float) and not math.isfinite(value)
        return (key, value) if bad else None
    for k, v in items:
        found = _non_finite(v, k)
        if found is not None:
            return found
    return None


def _write_output(path, content):
    """Write one output file: a trace as CSV, a string as UTF-8 text.  An
    OSError (the path is a directory, the disk is full) is a config error
    that names the file, as for an output directory that cannot be
    created."""
    try:
        if isinstance(content, GeodesicTrace):
            content.write_csv(path)
        else:
            path.write_text(content, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write the output file {path}: "
                          f"{exc.strerror or exc}", path=str(path)) from None


def _write_summary(outdir, summary):
    _write_output(outdir / "summary.json",
                  json.dumps(summary, sort_keys=True, indent=2) + "\n")


def _matrix(cfg, key, n):
    flat = np.asarray(cfg[key], dtype=float)
    if flat.size != n * n:
        raise ConfigError(f"key {key!r} must hold {n * n} row-major entries",
                          got=int(flat.size))
    return flat.reshape(n, n)


def _field(cfg, key, n=None):
    values = np.asarray(cfg[key], dtype=float)
    if n is not None and values.size != n:
        raise ConfigError(f"key {key!r} must hold {n} values", got=int(values.size))
    return values


def _field_n(cfg, *keys):
    n = cfg.get("n", len(cfg[keys[0]]))
    for key in keys:
        if len(cfg[key]) != n:
            raise ConfigError(f"key {key!r} must hold {n} values",
                              got=len(cfg[key]))
    return n


def _trace_summary(trace):
    return {
        "final": {"t": float(trace.t[-1]),
                  "m": float(trace.column("m")[-1]),
                  "xi": float(trace.column("xi")[-1]),
                  "H": float(trace.column("H")[-1])},
        "H_drift_rel": relative_energy_drift(trace),
        "mass_fit": mass_quadratic_fit(trace),
    }


def _handle_gauss_geodesic(cfg, outdir, seed):
    n = cfg["n"]
    state = GaussianCotangentState(V=_matrix(cfg, "V", n), m=float(cfg["m"]),
                                   P=_matrix(cfg, "P", n), xi=float(cfg["xi"]))
    trace = geodesic_ray(state, dt=cfg["dt"], steps=cfg["steps"])
    _write_output(outdir / "trace.csv", trace)
    summary = {"command": cfg["command"], **_trace_summary(trace)}
    summary["mass_fit"]["expected_leading"] = 0.5 * float(trace.column("H")[0])
    return summary, 0


def _handle_gauss_connect(cfg, outdir, seed):
    n = cfg["n"]
    Sigma0 = _matrix(cfg, "Sigma0", n)
    Sigma1 = _matrix(cfg, "Sigma1", n)
    P0, xi0, trace = shoot_bvp(Sigma0, float(cfg["m0"]), Sigma1, float(cfg["m1"]),
                               tol=cfg["tol"], dt=cfg["dt"])
    _write_output(outdir / "trace.csv", trace)
    V1 = trace.data[-1, 4:4 + n * n].reshape(n, n)
    residual = float(np.linalg.norm(V1 - Sigma1)
                     + abs(trace.column("m")[-1] - float(cfg["m1"])))
    summary = {"command": cfg["command"], **_trace_summary(trace)}
    summary.update({
        "P0": P0.ravel().tolist(),
        "xi0": float(xi0),
        "endpoint_residual": residual,
        "min_mass": float(np.min(trace.column("m"))),
    })
    return summary, 0


def _handle_pde_evolve(cfg, outdir, seed):
    n = _field_n(cfg, "rho", "theta")
    grid = Grid1D(n=n, length=float(cfg["length"]))
    state = PdeState(grid, _field(cfg, "rho", n), _field(cfg, "theta", n))
    trace = integrate_pde(state, cfg["model"], dt=cfg["dt"], steps=cfg["steps"])
    _write_output(outdir / "trace.csv", trace)
    summary = {"command": cfg["command"], "model": cfg["model"],
               **_trace_summary(trace)}
    # m'' = H holds for both models
    summary["mass_fit"]["expected_leading"] = 0.5 * float(trace.column("H")[0])
    return summary, 0


def _handle_pde_metric(cfg, outdir, seed):
    n = _field_n(cfg, "rho", "rhodot")
    grid = Grid1D(n=n, length=float(cfg["length"]))
    rho = _field(cfg, "rho", n)
    rhodot = _field(cfg, "rhodot", n)
    evaluate = small_metric_eval if cfg["metric"] == "small" else gdiv_metric_eval
    value = evaluate(grid, rho, rhodot)
    if not np.isfinite(value):
        raise NonFiniteError("the metric value overflows", value=str(value))
    rate = float(grid.h * np.sum(rhodot) / total_mass(grid, rho))
    _write_output(outdir / "result.csv", f"value,rate\n{value!r},{rate!r}\n")
    return {"command": cfg["command"], "metric": cfg["metric"],
            "value": float(value), "rate": rate}, 0


def _handle_fr_geodesic(cfg, outdir, seed):
    n = _field_n(cfg, "rho0", "rho1")
    grid = Grid1D(n=n, length=float(cfg["length"]))
    rho0 = _field(cfg, "rho0", n)
    rho1 = _field(cfg, "rho1", n)
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
    _write_output(outdir / "trace.csv", trace)
    end_err = max(float(np.max(np.abs(rho_t[0] - rho0))),
                  float(np.max(np.abs(rho_t[-1] - rho1))))
    return {"command": cfg["command"],
            "m0": float(total_mass(grid, rho0)),
            "m1": float(total_mass(grid, rho1)),
            "flat_energy": energy,
            "endpoint_error": end_err}, 0


def _cone_base(cfg):
    q = np.asarray(cfg["q"], dtype=float)
    if cfg["base"] == "circle":
        if q.size != 1:
            raise ConfigError("circle base expects a single angle coordinate")
        return circle_base()
    if cfg["base"] == "flat":
        return flat_base(q.size)
    n = int(round(np.sqrt(q.size)))
    if n * n != q.size:
        raise ConfigError("spd base expects a flattened square matrix",
                          got=int(q.size))
    # the SPD base symmetrizes q and q_dot, so an initial point that is no
    # SPD matrix, or a velocity that is not symmetric, is refused here,
    # before any step
    require_spd(q.reshape(n, n), "q")
    require_symmetric(_field(cfg, "q_dot", q.size).reshape(n, n), "q_dot")
    return spd_base(n)


def _handle_cone_geodesic(cfg, outdir, seed):
    base = _cone_base(cfg)
    state = ConeState(q=_field(cfg, "q", base.dim),
                      q_dot=_field(cfg, "q_dot", base.dim),
                      alpha=float(cfg["alpha"]), alpha_dot=float(cfg["alpha_dot"]))
    problem = ConeProblem(p=float(cfg["p"]), dt=cfg["dt"], steps=cfg["steps"])
    trace = integrate_cone(state, problem, base)
    _write_output(outdir / "trace.csv", trace)
    mass_fit = mass_quadratic_fit(trace)
    if problem.p == 1.0:
        # m = alpha^2 and alpha'' = alpha g(qdot, qdot), so m'' = 2H
        mass_fit["expected_leading"] = float(trace.column("H")[0])
    return {"command": cfg["command"], "base": cfg["base"], "p": problem.p,
            "energy_drift_rel": relative_energy_drift(trace),
            "mass_fit": mass_fit,
            "final": {"t": float(trace.t[-1]),
                      "alpha": float(trace.column("alpha")[-1]),
                      "H": float(trace.column("H")[-1])}}, 0


def _handle_bb_action(cfg, outdir, seed):
    if cfg["source"] == "explicit":
        for key in ("times", "rhobar", "w", "r"):
            if key not in cfg:
                raise ConfigError(f"explicit bb-action needs key {key!r}")
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
        for key in ("rho", "theta"):
            if key not in cfg:
                raise ConfigError(f"small-run bb-action needs key {key!r}")
        n = _field_n(cfg, "rho", "theta")
        grid = Grid1D(n=n, length=float(cfg["length"]))
        state = PdeState(grid, _field(cfg, "rho", n), _field(cfg, "theta", n))
        trace = integrate_pde(state, "small", dt=cfg["dt"], steps=cfg["steps"])
        path = from_small_trace(trace, grid)
        energy_integral = float(np.trapezoid(2.0 * trace.column("H"), trace.t))
    result = bb_action(path, continuity_tol=cfg["continuity_tol"])
    _write_output(outdir / "result.csv",
                  "action,transport,radial,continuity_residual\n"
                  f"{result.action!r},{result.transport_part!r},"
                  f"{result.radial_part!r},{result.continuity_residual!r}\n")
    summary = {"command": cfg["command"], "source": cfg["source"],
               "action": result.action,
               "transport_part": result.transport_part,
               "radial_part": result.radial_part,
               "continuity_residual": result.continuity_residual}
    if energy_integral is not None:
        summary["energy_integral"] = energy_integral
        summary["action_vs_energy_gap"] = abs(result.action - energy_integral)
    return summary, 0


def _handle_check(cfg, outdir, seed):
    results = []
    for r, seconds in checks.run_all(seed=seed, quick=cfg["quick"]):
        print(("PASS" if r.passed else "FAIL") + f" {r.name} - {r.detail}")
        # wall-clock numbers go to stderr only, so the outputs stay reproducible
        print(f"{r.name} {seconds:.3f}", file=sys.stderr)
        results.append(r)
    all_passed = all(r.passed for r in results)
    summary = {"command": "check", "seed": seed, "quick": cfg["quick"],
               "all_passed": all_passed,
               "results": [{"name": r.name, "passed": r.passed,
                            "detail": r.detail} for r in results]}
    return summary, 0 if all_passed else 2


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
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory: {exc}") from None
    try:
        summary, code = _HANDLERS[cfg["command"]](cfg, outdir, seed)
        summary.setdefault("status", "ok" if code == 0 else "failed")
        summary = _jsonable(summary)
        found = _non_finite(summary)
        if found is not None:
            # an overflowed diagnostic is no result to report as success
            raise NonFiniteError(f"summary value {found[0]!r} is not finite",
                                 key=found[0], value=str(found[1]))
    except NumericsError as exc:
        return _fail(cfg, outdir, exc.to_json(), f"numerical failure in {cfg['command']}")
    except ConfigError:
        raise
    except Exception as exc:
        # the last resort: a bug, reported as a reason with the innermost
        # frame that raised it instead of a traceback
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        reason = {"kind": "internal", "message": f"{type(exc).__name__}: {exc}",
                  "where": f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}"}
        return _fail(cfg, outdir, reason, f"internal error in {cfg['command']}")
    _write_summary(outdir, summary)
    return code


def _fail(cfg, outdir, reason, what):
    """Write the summary of a failed run and return exit code 2."""
    _write_summary(outdir, _jsonable({"command": cfg["command"], "status": "error",
                                      "reason": reason}))
    print(f"{what}: {reason['message']}", file=sys.stderr)
    return 2


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="uotcone",
        description="Conical unbalanced-transport geodesics: run a JSON-configured "
                    "computation or the invariant suite.")
    parser.add_argument("--config", type=Path, default=None,
                        help="path to a JSON run configuration "
                             "(default: run the 'check' suite)")
    parser.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (default: ./out)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized property suites")
    args = parser.parse_args(argv)

    try:
        if args.config is None:
            doc = {"command": "check"}
        else:
            try:
                doc = json.loads(args.config.read_text(encoding="utf-8"))
            except FileNotFoundError:
                raise ConfigError(f"config file not found: {args.config}")
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}")
        runs = validate_config(doc)
        names = [run.get("name", f"run_{i:03d}") for i, run in enumerate(runs)]
        if len(set(names)) != len(names):
            raise ConfigError("run names must be unique", names=names)
    except ConfigError as exc:
        print(json.dumps(_jsonable(exc.to_json()), sort_keys=True), file=sys.stderr)
        return 1

    codes = []
    for run, name in zip(runs, names):
        outdir = args.out if len(runs) == 1 else args.out / name
        try:
            codes.append(_run_one(run, outdir, args.seed))
        except ConfigError as exc:
            print(json.dumps(_jsonable(exc.to_json()), sort_keys=True),
                  file=sys.stderr)
            codes.append(1)
    return max(codes)


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
