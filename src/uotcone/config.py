"""Run-configuration schema: strict validation with centralized defaults.

A configuration is one JSON object per run (or ``{"runs": [...]}`` for a
sweep).  Unknown keys are rejected before any computation.  Matrices are
given as flat row-major arrays next to their size ``n``; grid fields are
plain value arrays.
"""

from __future__ import annotations

import math
import os

from .errors import ConfigError

#: central defaults used by every command that does not override them
DEFAULTS = {
    "length": 2.0 * math.pi,
    "dt": 1e-3,        # integrator step; sampling step of the gauss-connect trace
    "steps": 1000,
    "tol": 1e-8,       # gauss-connect: relative landing tolerance of the closed-form ray
    "continuity_tol": 1e-5,
    "num_times": 11,   # samples of closed-form interpolations
    "p": 1.0,          # cone exponent
    "model": "small",
    "metric": "small",
    "quick": False,
}

_NUMBER = (int, float)

#: fewest points of a periodic grid (the staggered differences need them)
MIN_GRID = 8

#: most entries (rows x columns) of the trace one run may write: 2**25
#: doubles are 256 MiB, and a run holds a few arrays of that size
MAX_TRACE_ENTRIES = 2**25


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _float(v):
    """A JSON number as a float; an integer beyond the float range is infinite."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


# json.loads accepts NaN and Infinity, so every number is checked for finiteness
def _is_finite(v):
    return isinstance(v, _NUMBER) and not isinstance(v, bool) and math.isfinite(_float(v))


def _is_number_list(v):
    # one type test per distinct element type, not two per element
    try:
        return (isinstance(v, list)
                and all(issubclass(t, _NUMBER) and not issubclass(t, bool)
                        for t in set(map(type, v)))
                and all(map(math.isfinite, v)))
    except OverflowError:  # an integer beyond the float range
        return False


def _is_grid(v):
    return _is_number_list(v) and len(v) >= MIN_GRID


# kind -> (predicate, description for the error message)
_KINDS = {
    "count": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "samples": (lambda v: _is_int(v) and v >= 2, "an integer >= 2"),
    "gridsize": (lambda v: _is_int(v) and v >= MIN_GRID,
                 f"an integer >= {MIN_GRID}"),
    "float": (_is_finite, "a finite number"),
    "positive": (lambda v: _is_finite(v) and v > 0, "a finite number > 0"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "floats": (_is_number_list, "a list of finite numbers"),
    "grid": (_is_grid, f"a list of at least {MIN_GRID} finite numbers"),
    "grids": (lambda v: isinstance(v, list) and all(_is_grid(row) for row in v),
              f"a list of rows of at least {MIN_GRID} finite numbers"),
}

# key -> (kind, required); optional keys fall back to DEFAULTS when present.
# Range rules live in the kinds, so no run starts with a value the numerics
# would refuse.
_SCHEMAS = {
    "gauss-geodesic": {
        "n": ("count", True), "V": ("floats", True), "m": ("float", True),
        "P": ("floats", True), "xi": ("float", True),
        "dt": ("positive", False), "steps": ("count", False),
    },
    "gauss-connect": {
        "n": ("count", True), "Sigma0": ("floats", True), "m0": ("float", True),
        "Sigma1": ("floats", True), "m1": ("float", True),
        "tol": ("positive", False), "dt": ("positive", False),
    },
    "pde-evolve": {
        "model": ("str", False), "n": ("gridsize", False),
        "length": ("positive", False),
        "rho": ("grid", True), "theta": ("grid", True),
        "dt": ("positive", False), "steps": ("count", False),
    },
    "pde-metric": {
        "metric": ("str", False), "n": ("gridsize", False),
        "length": ("positive", False),
        "rho": ("grid", True), "rhodot": ("grid", True),
    },
    "fr-geodesic": {
        "n": ("gridsize", False), "length": ("positive", False),
        "rho0": ("grid", True), "rho1": ("grid", True),
        "num_times": ("samples", False),
    },
    "cone-geodesic": {
        "base": ("str", True), "p": ("float", False),
        "q": ("floats", True), "q_dot": ("floats", True),
        "alpha": ("float", True), "alpha_dot": ("float", True),
        "dt": ("positive", False), "steps": ("count", False),
    },
    "bb-action": {
        "n": ("gridsize", False), "length": ("positive", False),
        "source": ("str", True), "continuity_tol": ("positive", False),
        # explicit paths
        "times": ("floats", False), "rhobar": ("grids", False),
        "w": ("grids", False), "r": ("floats", False),
        # paths derived from a conical-model run
        "rho": ("grid", False), "theta": ("grid", False),
        "dt": ("positive", False), "steps": ("count", False),
    },
    "check": {
        "quick": ("bool", False),
    },
}

_CHOICES = {
    "model": ("small", "wfr"),
    "metric": ("small", "gdiv"),
    "base": ("circle", "flat", "spd"),
    "source": ("explicit", "small-run"),
}

COMMANDS = tuple(sorted(_SCHEMAS))

# (rows, columns) of the trace a validated run writes: t, m, xi, H and the
# model state per row; gauss-connect samples unit time every dt, so its row
# count is a float and may be inf
_TRACE_SHAPES = {
    "gauss-geodesic": lambda c: (c["steps"] + 1, 4 + 2 * c["n"] ** 2),
    "gauss-connect": lambda c: (1.0 / c["dt"] + 1.0, 4 + 2 * c["n"] ** 2),
    "pde-evolve": lambda c: (c["steps"] + 1, 4 + 2 * len(c["rho"])),
    "fr-geodesic": lambda c: (c["num_times"], 4 + len(c["rho0"])),
    "cone-geodesic": lambda c: (c["steps"] + 1, 6 + 2 * len(c["q"])),
    "bb-action": lambda c: (c["steps"] + 1 if c["source"] == "small-run" else 0,
                            4 + 2 * len(c.get("rho", ()))),
}


def _require_trace_size(cfg):
    """Refuse a run whose trace would exceed MAX_TRACE_ENTRIES, before
    anything is allocated."""
    if cfg["command"] not in _TRACE_SHAPES:
        return
    rows, columns = map(_float, _TRACE_SHAPES[cfg["command"]](cfg))
    if rows * columns > MAX_TRACE_ENTRIES:
        raise ConfigError(
            f"the trace would hold {rows:.4g} rows x {columns:.0f} columns, more "
            f"than {MAX_TRACE_ENTRIES} entries", command=cfg["command"],
            limit=MAX_TRACE_ENTRIES)


def validate_run(cfg):
    """Validate one run object and apply defaults; returns a plain dict."""
    if not isinstance(cfg, dict):
        raise ConfigError("a run configuration must be a JSON object")
    if "command" not in cfg:
        raise ConfigError("missing required key 'command'",
                          expected=list(COMMANDS))
    command = cfg["command"]
    if command not in _SCHEMAS:
        raise ConfigError(f"unknown command {command!r}", expected=list(COMMANDS))
    schema = _SCHEMAS[command]
    allowed = set(schema) | {"command", "name"}
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys for {command}: {unknown}",
                          allowed=sorted(allowed))
    name = cfg.get("name", "run")  # a sweep writes each run into the directory of its name
    if (not isinstance(name, str) or name in ("", ".", "..")
            or {os.sep, os.altsep, "\0"} & set(name)):
        raise ConfigError("'name' must be one plain path component", name=name)

    out = {"command": command}
    if "name" in cfg:
        out["name"] = cfg["name"]
    for key, (kind, required) in schema.items():
        if key in cfg:
            value = cfg[key]
            accepts, description = _KINDS[kind]
            if not accepts(value):
                raise ConfigError(f"key {key!r} must be {description}",
                                  command=command)
            if key in _CHOICES and value not in _CHOICES[key]:
                raise ConfigError(
                    f"key {key!r} must be one of {list(_CHOICES[key])}",
                    command=command)
            out[key] = value
        elif required:
            raise ConfigError(f"missing required key {key!r} for {command}")
        elif key in DEFAULTS:
            out[key] = DEFAULTS[key]
    _require_trace_size(out)
    return out


def validate_config(doc):
    """Validate a whole config document; returns a list of run dicts."""
    if isinstance(doc, dict) and "runs" in doc:
        if set(doc) != {"runs"}:
            raise ConfigError("a sweep config may only contain the key 'runs'")
        runs = doc["runs"]
        if not isinstance(runs, list) or not runs:
            raise ConfigError("'runs' must be a non-empty list")
        return [validate_run(r) for r in runs]
    return [validate_run(doc)]
