"""Named acceptance checks runnable from the CLI and the test suite.

Each check returns a CheckResult with a pass flag and a one-line detail
string carrying the measured numbers next to their tolerances.  The
``quick`` flag shrinks sample counts for smoke runs; the default sizes are
the ones the acceptance gate is scored at.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bb import antiderivative_half, bb_action, from_small_trace, BBPath
from .cone import ConeProblem, ConeState, circle_base, cone_line, integrate_cone
from .gaussian import (AffineGaussian, GaussianCotangentState, connect_affine, geodesic_ray,
                       hamiltonian, integrate_geodesics, lyapunov_solve, mccann_geodesic,
                       submersion_consistency, symmetrize)
from .pde import (Grid1D, PdeState, gdiv_metric_eval, hamiltonian_small,
                  integrate_pde, integrate_pdes, small_metric_eval, small_rhs,
                  total_mass, xi_of)
from .trace import _cores, _forked, mass_quadratic_fit, relative_energy_drift

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_spd(rng, n, lam_min=0.5, lam_max=2.0):
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = rng.uniform(lam_min, lam_max, size=n)
    return symmetrize(Q @ np.diag(lam) @ Q.T)


def random_sym(rng, n):
    return symmetrize(rng.normal(size=(n, n)))


def random_gaussian_state(rng, s_norm=0.4):
    """Random cotangent state whose unit-time flow stays inside the SPD cone.

    The momentum is drawn through S = 2P/m with spectral norm bounded by
    s_norm; larger momenta can drive the covariance into the boundary in
    finite time (the space is geodesically incomplete).
    """
    n = int(rng.integers(1, 5))
    m = float(rng.uniform(0.5, 2.0))
    S = random_sym(rng, n)
    norm = float(np.linalg.norm(S, 2))
    if norm > 0.0:
        S *= rng.uniform(0.2, 1.0) * s_norm / norm
    return GaussianCotangentState(V=random_spd(rng, n), m=m,
                                  P=0.5 * m * S,
                                  xi=float(rng.uniform(-0.8, 0.8)))


def random_pde_state(rng):
    """Smooth random fields whose gradient respects the dt = 1e-3 step guard."""
    grid = Grid1D(n=256)
    rho = 1.0 + rng.uniform(0.1, 0.3) * np.cos(
        rng.integers(1, 4) * grid.x + rng.uniform(0.0, TWO_PI))
    j = int(rng.integers(1, 4))
    amp = rng.uniform(0.02, 0.1) / j  # keeps max |grad theta| below ~0.1
    theta = rng.uniform(-0.5, 0.5) + amp * np.sin(
        j * grid.x + rng.uniform(0.0, TWO_PI))
    return PdeState(grid, rho, theta)


#: band of the observed RK4 order log2(e(0.1) / e(0.05)) of the Gaussian
#: flows against the closed-form ray; over seeds 0-9 it read 3.91-4.13 (and
#: 3.95-4.21 in quick mode), and a second- or third-order stepper falls out
ORDER_BAND = (3.5, 4.5)


def _ray_deviations(states, dt, steps):
    """RK4 traces of the Gaussian flows and the largest deviation of each
    from its closed-form ray, over every row and column, relative to
    max(1, |value|)."""
    traces = integrate_geodesics(states, dt, steps)
    devs = []
    for state, trace in zip(states, traces):
        ray = geodesic_ray(state, dt=dt, steps=steps).data
        devs.append(float(np.max(np.abs(trace.data - ray)
                                 / np.maximum(1.0, np.abs(ray)))))
    return traces, devs


def _mass_law_deviation(trace):
    """How far m(t) is from a parabola with leading coefficient H(0)/2."""
    fit = mass_quadratic_fit(trace)
    return max(abs(fit["leading"] - 0.5 * trace.column("H")[0]), fit["rms_residual"])


def check_constant_acceleration(rng, quick=False):
    """m(t) is a parabola with leading coefficient H(0)/2 in both models, and
    the Gaussian RK4 flows follow the closed-form ray (``cone.cone_ray``)
    pointwise, with fourth-order errors under dt halving."""
    start = time.perf_counter()
    states = [random_gaussian_state(rng) for _ in range(4 if quick else 20)]
    pde_states = [random_pde_state(rng) for _ in range(2 if quick else 5)]
    traces, devs = _ray_deviations(states, 1e-3, 250 if quick else 1000)
    worst_ode = max(map(_mass_law_deviation, traces))
    worst_ray = max(devs)
    # the largest deviations at dt = 0.1 and 0.05
    order = math.log2(max(_ray_deviations(states, 0.1, 10)[1])
                      / max(_ray_deviations(states, 0.05, 20)[1]))
    worst_pde = max(map(_mass_law_deviation, integrate_pdes(
        pde_states, "small", dt=1e-3, steps=200 if quick else 500)))
    elapsed = time.perf_counter() - start
    in_budget = elapsed < 10.0
    lo, hi = ORDER_BAND
    passed = (worst_ode <= 1e-6 and worst_ray <= 1e-10 and lo <= order <= hi
              and worst_pde <= 1e-4 and in_budget)
    # the detail stays free of wall-clock numbers so outputs are reproducible
    return CheckResult(
        "constant-acceleration",
        passed,
        f"ode dev {worst_ode:.2e} (tol 1e-06), ray dev {worst_ray:.2e} "
        f"(tol 1e-10), order {order:.2f} under dt halving (band {lo}-{hi}), "
        f"pde dev {worst_pde:.2e} (tol 1e-04), within the 10s budget: "
        f"{'yes' if in_budget else 'no'}")


def check_energy_conservation(rng, quick=False):
    """Relative Hamiltonian drift along integrated geodesics."""
    states = [random_gaussian_state(rng) for _ in range(2 if quick else 5)]
    worst_ode = max(map(relative_energy_drift,
                        integrate_geodesics(states, 1e-3, 250 if quick else 1000)))
    worst_pde = 0.0
    for model in ("small", "wfr"):
        trace = integrate_pde(random_pde_state(rng), model,
                              dt=1e-3, steps=200 if quick else 500)
        worst_pde = max(worst_pde, relative_energy_drift(trace))
    passed = worst_ode <= 1e-8 and worst_pde <= 1e-6
    return CheckResult(
        "energy-conservation",
        passed,
        f"ode drift {worst_ode:.2e} (tol 1e-08), pde drift {worst_pde:.2e} "
        f"(tol 1e-06)")


def check_lyapunov_residual(rng, quick=False):
    worst = 0.0
    for _ in range(20 if quick else 100):
        n = int(rng.integers(1, 9))
        V = random_spd(rng, n, lam_min=0.3, lam_max=3.0)
        X = random_sym(rng, n)
        S = lyapunov_solve(V, X)
        rel = np.linalg.norm(S @ V + V @ S - X) / max(np.linalg.norm(X), 1e-300)
        worst = max(worst, rel)
    return CheckResult("lyapunov-residual", worst <= 1e-12,
                       f"max relative residual {worst:.2e} (tol 1e-12)")


def check_mccann_oracle(rng, quick=False):
    worst_end = 0.0
    worst_rev = 0.0
    for _ in range(5 if quick else 20):
        n = int(rng.integers(1, 5))
        U = random_spd(rng, n)
        V = random_spd(rng, n)
        worst_end = max(worst_end,
                        float(np.linalg.norm(mccann_geodesic(U, V, 1.0) - U)),
                        float(np.linalg.norm(mccann_geodesic(U, V, 0.0) - V)))
        for t in (0.25, 0.5, 0.75):
            worst_rev = max(worst_rev, float(np.linalg.norm(
                mccann_geodesic(V, U, 1.0 - t) - mccann_geodesic(U, V, t))))
    mid = mccann_geodesic(np.array([[1.0]]), np.array([[4.0]]), 0.5)[0, 0]
    mid_err = abs(mid - 2.25)
    passed = worst_end <= 1e-12 and worst_rev <= 1e-12 and mid_err <= 1e-12
    return CheckResult(
        "mccann-oracle", passed,
        f"endpoint {worst_end:.2e}, reversal {worst_rev:.2e}, "
        f"midpoint |W(1/2)-2.25| = {mid_err:.2e} (tol 1e-12)")


def check_flat_cone_oracle(rng, quick=False):
    state = ConeState(q=np.zeros(1), q_dot=np.ones(1), alpha=1.0, alpha_dot=0.0)
    trace = integrate_cone(state, ConeProblem(p=1.0, dt=1e-3, steps=1000),
                           circle_base())
    # the line (1, t) runs from mass 1 to mass 2 through the angle pi/4
    m, s = cone_line(1.0, 2.0, 0.25 * np.pi, trace.t)
    dev = max(float(np.max(np.abs(trace.column("alpha") - np.sqrt(m)))),
              float(np.max(np.abs(trace.column("q0") - 0.25 * np.pi * s))))
    return CheckResult("flat-cone-oracle", dev <= 1e-6,
                       f"max deviation from the straight line {dev:.2e} (tol 1e-06)")


def _solved_start(S0, m0, S1, m1, tol=1e-8):
    """The solved initial data of the zero-mean two-point problem, as a state
    whose unit-time RK4 flow at dt = 1e-3 is an oracle independent of the
    closed form the solver evaluates."""
    zero = np.zeros(S0.shape[0])
    conn = connect_affine(AffineGaussian(S0, zero, m0), AffineGaussian(S1, zero, m1), tol)
    return GaussianCotangentState(V=S0, m=m0, P=conn.P0, xi=conn.xi0)


def check_shooting(rng, quick=False):
    one = np.array([[1.0]])
    start = _solved_start(one, 1.0, one, 4.0, tol=1e-10)
    scaling_err = max(abs(start.xi - 2.0), abs(start.P[0, 0]))

    # (S0, S1, m0, m1) in the draw order; the last pair is the equal-mass dip
    pairs = [(random_spd(rng, 2), random_spd(rng, 2), float(rng.uniform(0.5, 2.0)),
              float(rng.uniform(0.5, 2.0))) for _ in range(2 if quick else 10)]
    pairs.append((random_spd(rng, 2), random_spd(rng, 2), 1.0, 1.0))
    traces = integrate_geodesics([_solved_start(S0, m0, S1, m1)
                                  for S0, S1, m0, m1 in pairs], dt=1e-3, steps=1000)
    worst_endpoint = max(float(np.linalg.norm(trace.data[-1, 4:8].reshape(2, 2) - S1))
                         + abs(trace.column("m")[-1] - m1)
                         for (_, S1, _, m1), trace in zip(pairs[:-1], traces))
    dip = float(np.min(traces[-1].column("m")))
    passed = scaling_err <= 1e-8 and worst_endpoint <= 1e-6 and dip < 1.0
    return CheckResult(
        "shooting-bvp", passed,
        f"scaling case |(P0, xi0) - (0, 2)| = {scaling_err:.2e} (tol 1e-08), "
        f"endpoint error {worst_endpoint:.2e} (tol 1e-06), "
        f"equal-mass dip min m = {dip:.6f} (< 1)")


def check_submersion_consistency(rng, quick=False):
    worst_matrix = 0.0
    for _ in range(10 if quick else 25):
        n = int(rng.integers(1, 5))
        A = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        g, b = submersion_consistency(A, float(rng.uniform(0.3, 2.0)),
                                      random_sym(rng, n),
                                      float(rng.uniform(-1.0, 1.0)),
                                      random_spd(rng, n))
        worst_matrix = max(worst_matrix, abs(g - b) / max(1.0, abs(g)))
    worst_density = 0.0
    for _ in range(2 if quick else 5):
        state = random_pde_state(rng)
        drho, _ = small_rhs(state)
        value = small_metric_eval(state.grid, state.rho, drho)
        target = 2.0 * hamiltonian_small(state)
        worst_density = max(worst_density, abs(value - target) / max(1.0, abs(target)))
    passed = worst_matrix <= 1e-10 and worst_density <= 1e-6
    return CheckResult(
        "submersion-consistency", passed,
        f"matrix level {worst_matrix:.2e} (tol 1e-10), density level "
        f"{worst_density:.2e} (tol 1e-06)")


def check_energy_lower_bound(rng, quick=False):
    count = 100 if quick else 1000
    ok = True
    for _ in range(count):
        state = random_gaussian_state(rng, s_norm=2.0)
        if hamiltonian(state) < 0.5 * state.m * state.xi**2:
            ok = False
    zero_p = GaussianCotangentState(V=random_spd(rng, 3), m=1.4,
                                    P=np.zeros((3, 3)), xi=0.6)
    eq_matrix = hamiltonian(zero_p) == 0.5 * 1.4 * 0.6**2

    grid = Grid1D(n=64)
    # one draw in the order of count (rho, theta) draws, as one stack
    draws = rng.normal(size=(count, 2, 64))
    states = PdeState(grid, np.abs(1.0 + 0.5 * draws[:, 0]) + 0.1, draws[:, 1])
    m = total_mass(grid, states.rho)
    if np.any(hamiltonian_small(states) < 0.5 * m * xi_of(states) ** 2):
        ok = False
    flat = PdeState(grid, np.abs(1.0 + 0.2 * np.sin(grid.x)), np.full(64, 0.9))
    m = total_mass(grid, flat.rho)
    eq_density = abs(hamiltonian_small(flat) - 0.5 * m * 0.81) <= 1e-14 * m
    passed = ok and eq_matrix and eq_density
    return CheckResult(
        "energy-lower-bound", passed,
        f"H >= m xi^2/2 on {2 * count} random states, equality on P = 0 "
        f"({eq_matrix}) and constant theta ({eq_density})")


def check_elliptic_closed_forms(rng, quick=False):
    n = 512
    grid = Grid1D(n=n)
    c = 0.8
    const_small = abs(small_metric_eval(grid, np.ones(n), np.full(n, c))
                      - TWO_PI * c * c)
    const_gdiv = abs(gdiv_metric_eval(grid, np.ones(n), np.full(n, c))
                     - TWO_PI * c * c)

    def sine_values(m):
        g = Grid1D(n=m)
        vs = small_metric_eval(g, np.ones(m), np.sin(g.x))
        vg = gdiv_metric_eval(g, np.ones(m), np.sin(g.x))
        discrete = np.pi * ((g.h / 2.0) / np.sin(g.h / 2.0)) ** 2
        return vs, vg, discrete

    vs1, vg1, d1 = sine_values(512)
    vs2, vg2, d2 = sine_values(1024)
    solver_err = max(abs(vs1 - d1), abs(vg1 - d1 - np.pi),
                     abs(vs2 - d2), abs(vg2 - d2 - np.pi))
    ratio_small = abs(vs1 - np.pi) / abs(vs2 - np.pi)
    ratio_gdiv = abs(vg1 - 2.0 * np.pi) / abs(vg2 - 2.0 * np.pi)
    passed = (const_small <= 1e-6 and const_gdiv <= 1e-6
              and solver_err <= 1e-9
              and 3.6 <= ratio_small <= 4.4 and 3.6 <= ratio_gdiv <= 4.4)
    return CheckResult(
        "elliptic-closed-forms", passed,
        f"constant cases {max(const_small, const_gdiv):.2e} (tol 1e-06); "
        f"sine cases vs discrete closed form {solver_err:.2e} (tol 1e-09); "
        f"continuum gap {abs(vs1 - np.pi):.2e} at n=512 halves x"
        f"{ratio_small:.2f}/x{ratio_gdiv:.2f} under doubling (expect ~4)")


def check_bb_action(rng, quick=False):
    grid = Grid1D(n=128 if quick else 256)
    rho = 1.0 + 0.2 * np.cos(grid.x)
    theta = 0.3 + 0.1 * np.sin(grid.x)
    trace = integrate_pde(PdeState(grid, rho, theta), "small",
                          dt=1e-3, steps=200 if quick else 1000)
    path = from_small_trace(trace, grid)
    base = bb_action(path, continuity_tol=1e-6)
    energy_integral = float(np.trapezoid(2.0 * trace.column("H"), trace.t))
    gap = abs(base.action - energy_integral)

    exceed = 0
    t = path.times
    tau = (t - t[0]) / (t[-1] - t[0])
    for _ in range(3 if quick else 10):
        k = int(rng.integers(1, 4))
        s = np.cos(k * grid.x + rng.uniform(0.0, TWO_PI))
        s_flux = antiderivative_half(grid, s)
        a = np.sin(np.pi * tau)
        scale = 0.2 * float(np.min(path.rhobar))
        drho = scale * a[:, None] * s[None, :]
        cc = -scale * np.diff(a) / np.diff(t)
        d = np.empty(t.size)
        d[0] = cc[0]
        for i in range(cc.size):
            d[i + 1] = 2.0 * cc[i] - d[i]
        dw = d[:, None] * s_flux[None, :]
        dr = 0.02 * np.sin(np.pi * tau) * float(rng.normal())
        perturbed = BBPath(grid, t, path.rhobar + drho, path.w + dw,
                           path.r + dr).validate()
        if bb_action(perturbed).action >= base.action:
            exceed += 1
    total = 3 if quick else 10
    passed = gap <= 1e-4 and exceed == total
    return CheckResult(
        "bb-action", passed,
        f"|action - int 2H dt| = {gap:.2e} (tol 1e-04); geodesic below "
        f"{exceed}/{total} admissible perturbations")


ALL_CHECKS = (
    check_constant_acceleration,
    check_energy_conservation,
    check_lyapunov_residual,
    check_mccann_oracle,
    check_flat_cone_oracle,
    check_shooting,
    check_submersion_consistency,
    check_energy_lower_bound,
    check_elliptic_closed_forms,
    check_bb_action,
)


def run_all(seed=0, quick=False):
    """Run every check on its own generator of the seed, yielding each
    CheckResult with the wall-clock seconds its check took, in ALL_CHECKS
    order.

    The checks run on every available core: this process and one forked
    worker per further core (``trace._forked``) claim check indices from one
    ticket pipe until it is empty, and the workers send back what they ran.
    So nothing is yielded before every check has run, and the seconds are
    each check's own, on contended cores.  On one core nothing is forked.
    A check that raised is run again here at its turn, so it raises after
    the same results as in a serial run; a worker that died raises
    RuntimeError.
    """
    checks = ALL_CHECKS
    tickets, w = os.pipe()
    os.write(w, bytes(range(len(checks))))
    os.close(w)
    try:
        claim = partial(_claim, checks, tickets, seed, quick)
        jobs = [lambda: pickle.dumps(claim())] * (min(_cores(), len(checks)) - 1)
        with _forked(jobs, "running checks") as pipes:
            done = claim()
            sent = [b"".join(iter(partial(os.read, fd, 1 << 16), b"")) for fd in pipes]
    finally:
        os.close(tickets)
    for data in sent:
        done.update(pickle.loads(data))
    for i, check in enumerate(checks):
        yield done[i] if i in done else _timed(check, seed, quick)


def _claim(checks, tickets, seed, quick):
    """Run the checks whose indices this process reads, one byte at a time,
    from the ticket pipe, until it is empty: {index: (CheckResult,
    seconds)}.  A check that raises an Exception is left out."""
    done = {}
    while ticket := os.read(tickets, 1):
        try:
            done[ticket[0]] = _timed(checks[ticket[0]], seed, quick)
        except Exception:
            pass  # run_all runs it again at its turn and raises there
    return done


def _timed(check, seed, quick):
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    result = check(rng, quick=quick)
    return result, time.perf_counter() - start
