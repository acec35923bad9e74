"""Seeded inputs of the three benchmark workloads and the checks of their outputs.

A workload is a fixed list of CLI ops, one round.  Each op carries its JSON
config and a check that reads the op's output directory back and compares it
with the closed forms in ``oracles``; the check returns a list of problems,
empty when the outputs are right.  Inputs are drawn from the benchmark seed
in a way that keeps the work of every op independent of that seed, so that
timings of different seeds measure the same computation:

* integrators always take 1000 steps and grids have fixed sizes, whatever
  the drawn values;
* a Gaussian two-point pair is a fixed pair of spectra seen in a seeded
  orthogonal frame.  The shooting problem is then the same problem in
  rotated coordinates, and Newton takes the same number of steps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)

# Tolerances, each from the accuracy of the method that produced the value.
# RK4 at dt = 1e-3 is exact to O(dt^4) ~ 1e-12; 1e-8 sits between that and
# the O(dt^2) = 1e-6 error a degraded (second-order) integrator would show.
TOL_FLOW = 1e-8
# The shooter stops at an endpoint residual of 1e-8; parameters inherit that
# times the condition of the endpoint map, so two orders of headroom.
TOL_SHOOT = 1e-6
# The same formula evaluated twice, plus a repr round trip through CSV.
TOL_ROUNDOFF = 1e-12
# Trapezoid rule and interval differences of the action are second order in
# time: dt^2 = 1e-6 bounds the gap to int 2H dt.
TOL_ACTION = 1e-6
# Elliptic solves lose digits with the condition number ~ (n / pi)^2.
ELLIPTIC_ROUNDOFF = 64.0 * EPS

# every integrating op runs the same fixed-step flow
DT, STEPS = 1e-3, 1000


@dataclass
class Op:
    command: str
    name: str
    cfg: dict
    check: Callable[[Path], list]
    seed: int = 0  # the CLI --seed, used by the check suite only

    def paths(self, workdir):
        """(config path, output dir) of this op under workdir."""
        return workdir / self.name / "config.json", workdir / self.name / "out"

    def write(self, workdir):
        config, outdir = self.paths(workdir)
        outdir.mkdir(parents=True, exist_ok=True)
        config.write_text(json.dumps(self.cfg), encoding="utf-8")


def _summary(outdir):
    return json.loads((outdir / "summary.json").read_text(encoding="utf-8"))


def _trace_head(outdir):
    """t, m, xi, H columns of trace.csv, without parsing the state columns."""
    with open(outdir / "trace.csv", encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split(",")[:4]
        rows = [line.split(",", 4)[:4] for line in f]
    if header != ["t", "m", "xi", "H"]:
        raise ValueError(f"unexpected trace header {header}")
    return np.array(rows, dtype=float).T


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


def _parabola_problems(t, m, curvature, tol=TOL_FLOW):
    """m(t) must be a parabola whose leading coefficient is ``curvature``."""
    lead, rms = oracles.mass_parabola(t, m)
    out = []
    if abs(lead - curvature) > tol * max(1.0, abs(curvature)):
        out.append(f"mass parabola leading {lead!r} != {curvature!r}")
    if rms > tol * max(1.0, float(np.max(np.abs(m)))):
        out.append(f"mass is not a parabola: rms residual {rms:.3e}")
    return out


def _flow_check(H0, curvature):
    """Integrating commands: H(0) from the inputs, m(t) with m'' = curvature."""

    def check(outdir):
        if _summary(outdir)["status"] != "ok":
            return ["status is not ok"]
        t, m, _, H = _trace_head(outdir)
        out = _parabola_problems(t, m, curvature)
        if abs(H[0] - H0) > TOL_ROUNDOFF * max(1.0, abs(H0)):
            out.append(f"H(0) {H[0]!r} != {H0!r}")
        return out

    return check


def _frame(rng, n):
    """Haar-random orthogonal matrix."""
    Q, R = np.linalg.qr(rng.normal(size=(n, n)))
    return Q * np.sign(np.diag(R))


def _rotation(n, angle):
    """Fixed rotation mixing every pair of axes, so endpoint pairs do not commute."""
    R = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            G = np.eye(n)
            c, s = math.cos(angle * (i + j + 1)), math.sin(angle * (i + j + 1))
            G[i, i] = G[j, j] = c
            G[i, j], G[j, i] = -s, s
            R = R @ G
    return R


def _sym(M):
    return 0.5 * (M + M.T)


def _spd(rng, n, lo=0.5, hi=2.0):
    Q = _frame(rng, n)
    return _sym((Q * rng.uniform(lo, hi, size=n)) @ Q.T)


def _small_sym(rng, n, norm):
    S = _sym(rng.normal(size=(n, n)))
    return S * (norm / max(float(np.linalg.norm(S, 2)), 1e-12))


def _flat(M):
    return [float(v) for v in np.asarray(M).ravel()]


# ---------------------------------------------------------------- gauss-cone

# (spectrum of Sigma0, spectrum of Sigma1, relative angle, m0, m1)
CONNECT_SLOTS = (
    ((1.0,), (2.2,), 0.0, 1.0, 1.8),
    ((0.7, 1.6), (1.4, 0.6), 0.6, 1.3, 0.7),
    ((1.0, 1.9), (0.6, 1.1), 1.1, 0.8, 1.5),
    ((0.5, 1.2), (1.7, 0.9), 0.3, 1.6, 1.1),
    ((0.6, 1.1, 1.8), (1.5, 0.7, 1.2), 0.4, 0.9, 1.6),
)

# I, m0 = 1 to diag(9, 0.01), m1 = 0.01: theta ~ 1.10 < pi, so the geodesic
# exists, but the shooter fails on it every time.
FAILING_CONNECT = (np.eye(2), 1.0, np.diag([9.0, 0.01]), 0.01)


def _connect_op(name, S0, m0, S1, m1):
    n = S0.shape[0]
    cf = oracles.cone_connection(S0, m0, S1, m1)
    cfg = {"command": "gauss-connect", "n": n, "Sigma0": _flat(S0), "m0": m0,
           "Sigma1": _flat(S1), "m1": m1}

    def check(outdir):
        s = _summary(outdir)
        if s["status"] != "ok":
            return ["status is not ok"]
        out = []
        if _rel(s["xi0"], cf["xi0"]) > TOL_SHOOT:
            out.append(f"xi0 {s['xi0']!r} != closed form {cf['xi0']!r}")
        P0 = np.array(s["P0"]).reshape(n, n)
        if float(np.max(np.abs(P0 - cf["P0"]))) > TOL_SHOOT * max(1.0, float(np.max(np.abs(cf["P0"])))):
            out.append("P0 differs from (T - I) / s1")
        t, m, _, H = _trace_head(outdir)
        if float(np.max(np.abs(H - cf["H"]))) > TOL_SHOOT * max(1.0, cf["H"]):
            out.append(f"trace H differs from closed form {cf['H']!r}")
        if float(np.max(np.abs(m - cf["mass"](t)))) > TOL_SHOOT * max(m0, m1):
            out.append("m(t) leaves the straight line of the flat picture")
        out += _parabola_problems(t, m, 0.5 * cf["H"], tol=TOL_SHOOT)
        return out

    return Op("gauss-connect", name, cfg, check)


def gauss_cone(rng):
    connect = []
    for i, (a, d, angle, m0, m1) in enumerate(CONNECT_SLOTS):
        n = len(a)
        Q = _frame(rng, n)
        R = _rotation(n, angle)
        S0 = _sym((Q * np.array(a)) @ Q.T)
        S1 = _sym((Q @ R * np.array(d)) @ (Q @ R).T)
        connect.append(_connect_op(f"gauss-connect-{i}-n{n}", S0, m0, S1, m1))
    connect.append(_connect_op("gauss-connect-failing", *FAILING_CONNECT))

    geodesic = []
    for n in (1, 2, 3, 4):
        V = _spd(rng, n)
        m = float(rng.uniform(0.5, 2.0))
        P = 0.5 * m * _small_sym(rng, n, 0.3)
        xi = float(rng.uniform(-0.5, 0.5))
        cfg = {"command": "gauss-geodesic", "n": n, "V": _flat(V), "m": m,
               "P": _flat(P), "xi": xi, "dt": DT, "steps": STEPS}
        H0 = oracles.gaussian_energy(V, m, P, xi)
        geodesic.append(Op("gauss-geodesic", f"gauss-geodesic-n{n}", cfg,
                           _flow_check(H0, 0.5 * H0)))

    # two circle runs put the cone median between them, clear of the cheaper
    # flat run and the costlier spd run
    cone = []
    for _ in range(2):
        q_dot = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5))
        cone.append(({"base": "circle", "q": [float(rng.uniform(0.0, TWO_PI))],
                      "q_dot": [q_dot]}, float(rng.uniform(0.8, 1.4)),
                     float(rng.uniform(-0.3, 0.3)), q_dot * q_dot))
    qd = rng.uniform(-1.0, 1.0, size=3)
    cone.append(({"base": "flat", "q": _flat(rng.normal(size=3)), "q_dot": _flat(qd)},
                 float(rng.uniform(0.8, 1.4)), float(rng.uniform(-0.3, 0.3)),
                 float(qd @ qd)))
    V = _spd(rng, 2)
    X = _small_sym(rng, 2, 0.3)
    cone.append(({"base": "spd", "q": _flat(V), "q_dot": _flat(X)},
                 float(rng.uniform(0.8, 1.4)), float(rng.uniform(-0.3, 0.3)),
                 oracles.spd_base_speed2(V, X)))
    cone_ops = []
    for i, (base_cfg, a0, ad0, speed2) in enumerate(cone):
        cfg = {"command": "cone-geodesic", "p": 1.0, "alpha": a0, "alpha_dot": ad0,
               "dt": DT, "steps": STEPS, **base_cfg}
        H0 = oracles.cone_energy(a0, ad0, speed2)
        # m = alpha^2 and (alpha^2)'' = 2H for p = 1: leading coefficient H
        cone_ops.append(Op("cone-geodesic", f"cone-geodesic-{i}-{base_cfg['base']}", cfg,
                           _flow_check(H0, H0)))
    return [connect, geodesic, cone_ops]


# ------------------------------------------------------------------- density

PDE_N = 256


def _pde_fields(rng, n=PDE_N):
    """Smooth positive density and a potential with max |grad theta| <= 0.1,
    inside the dt = 1e-3 step guard 0.2 h^2 / max|grad theta| at n = 256."""
    x = np.arange(n) * (TWO_PI / n)
    rho = 1.0 + rng.uniform(0.1, 0.3) * np.cos(rng.integers(1, 4) * x + rng.uniform(0.0, TWO_PI))
    j = int(rng.integers(1, 4))
    theta = rng.uniform(-0.5, 0.5) + rng.uniform(0.02, 0.1) / j * np.sin(
        j * x + rng.uniform(0.0, TWO_PI))
    return rho, theta


def _metric_op(name, metric, rho, rhodot):
    n = rho.size
    expected = oracles.metric_value(metric, rho, rhodot, TWO_PI)
    cfg = {"command": "pde-metric", "metric": metric, "rho": _flat(rho),
           "rhodot": _flat(rhodot)}

    def check(outdir):
        s = _summary(outdir)
        if s["status"] != "ok":
            return ["status is not ok"]
        if _rel(s["value"], expected) > ELLIPTIC_ROUNDOFF * n * n:
            return [f"value {s['value']!r} != cumulative-sum solve {expected!r}"]
        return []

    return Op("pde-metric", name, cfg, check)


# Grids where the program's absolute residual threshold rejects every
# well-posed problem; the inputs are fixed so the failure repeats exactly.
FAILING_METRIC_N = ((16384, "small"), (65536, "gdiv"))
FR_N = 16384


def density(rng):
    evolve = []
    for model in ("small", "wfr"):
        rho, theta = _pde_fields(rng)
        cfg = {"command": "pde-evolve", "model": model, "rho": _flat(rho),
               "theta": _flat(theta), "dt": DT, "steps": STEPS}
        H0 = oracles.pde_energy(model, rho, theta, TWO_PI)
        # dm/dt = int theta rho and d^2m/dt^2 = H in both models
        evolve.append(Op("pde-evolve", f"pde-evolve-{model}", cfg, _flow_check(H0, 0.5 * H0)))

    # the program's residual threshold rejects some of these inputs from
    # n = 2048 on (2 of 300 seeds at 2048), so seeded grids stay at 1024,
    # where the worst of 300 seeds used a quarter of the threshold
    metric = []
    n = 1024
    x = np.arange(n) * (TWO_PI / n)
    for i in range(3):
        rho = 1.0 + rng.uniform(0.1, 0.4) * np.cos(rng.integers(1, 4) * x + rng.uniform(0.0, TWO_PI))
        rhodot = (rng.uniform(-0.2, 0.2)
                  + rng.uniform(0.5, 1.0) * np.sin(rng.integers(1, 5) * x + rng.uniform(0.0, TWO_PI))
                  + rng.uniform(0.1, 0.5) * np.cos(rng.integers(1, 5) * x + rng.uniform(0.0, TWO_PI)))
        for kind in ("small", "gdiv"):
            metric.append(_metric_op(f"pde-metric-{i}-n{n}-{kind}", kind, rho, rhodot))
    for n, kind in FAILING_METRIC_N:
        x = np.arange(n) * (TWO_PI / n)
        metric.append(_metric_op(f"pde-metric-failing-n{n}-{kind}", kind,
                                 1.0 + 0.3 * np.cos(x), np.sin(2.0 * x) + 0.1))

    action = []
    for i in range(2):
        rho, theta = _pde_fields(rng)
        cfg = {"command": "bb-action", "source": "small-run", "rho": _flat(rho),
               "theta": _flat(theta), "dt": DT, "steps": STEPS}
        energy = 2.0 * oracles.pde_energy("small", rho, theta, TWO_PI) * DT * STEPS

        def check(outdir, energy=energy):
            s = _summary(outdir)
            if s["status"] != "ok":
                return ["status is not ok"]
            if abs(s["action"] - energy) > TOL_ACTION * energy:
                return [f"action {s['action']!r} != int 2H dt = {energy!r}"]
            return []

        action.append(Op("bb-action", f"bb-action-{i}", cfg, check))

    flat = []
    x = np.arange(FR_N) * (TWO_PI / FR_N)
    for i in range(2):
        rho0 = rng.uniform(0.5, 1.5) + 0.3 * np.cos(rng.integers(1, 6) * x + rng.uniform(0.0, TWO_PI))
        rho1 = rng.uniform(0.5, 3.0) + 0.4 * np.sin(rng.integers(1, 6) * x + rng.uniform(0.0, TWO_PI))
        cfg = {"command": "fr-geodesic", "rho0": _flat(rho0), "rho1": _flat(rho1),
               "num_times": 11}
        lead = TWO_PI / FR_N * float(np.sum((np.sqrt(rho1) - np.sqrt(rho0)) ** 2))

        def check(outdir, rho0=rho0, rho1=rho1, lead=lead):
            if _summary(outdir)["status"] != "ok":
                return ["status is not ok"]
            with open(outdir / "trace.csv", encoding="utf-8") as f:
                f.readline()
                rows = np.array([line.split(",") for line in f], dtype=float)
            out = _parabola_problems(rows[:, 0], rows[:, 1], lead, tol=TOL_ROUNDOFF)
            scale = max(float(np.max(rho0)), float(np.max(rho1)))
            for row in rows:
                dev = float(np.max(np.abs(row[4:] - oracles.flat_cone_line(rho0, rho1, row[0]))))
                if dev > TOL_ROUNDOFF * scale:
                    out.append(f"rho(t={row[0]}) is off the flat-cone line by {dev:.3e}")
            return out

        flat.append(Op("fr-geodesic", f"fr-geodesic-{i}", cfg, check))
    return [evolve, metric, action, flat]


# ---------------------------------------------------------------- acceptance

# The suite's own draws make a pass 14-18 s depending on its seed, so every
# pass uses the same suite seed and wall time compares like with like.
SUITE_SEED = 0
NUM_CHECKS = 10


def _check_suite(outdir):
    s = _summary(outdir)
    results = s.get("results", [])
    failed = [r["name"] for r in results if not r["passed"]]
    if len(results) != NUM_CHECKS or failed or s.get("all_passed") is not True:
        return [f"{len(results)} checks reported, failing: {failed}"]
    return []


def acceptance(rng):
    return [[Op("check", "check", {"command": "check", "quick": False}, _check_suite,
                seed=SUITE_SEED)]]


def acceptance_warmup():
    """A quick pass runs every check's code path at a fraction of the cost."""
    return Op("check", "check-warmup", {"command": "check", "quick": True},
              lambda outdir: [], seed=SUITE_SEED)


WORKLOADS = {
    "gauss-cone": gauss_cone,
    "density": density,
    "acceptance": acceptance,
}


def interleave(groups):
    """Round-robin over the per-command lists, so each command samples the
    whole round."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out += [g[i] for g in groups if i < len(g)]
    return out
