"""Named acceptance checks runnable from the CLI and the test suite.

Each check ends in ``_result``: a CheckResult whose pass flag and one-line
detail come from one list of measured values, each next to its bound.  The
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


@dataclass(frozen=True)
class _Below:
    """A strict upper bound for ``_result``."""
    limit: float


def _result(name, *measured):
    """The CheckResult of ``(label, value, bound)`` measurements, which passes
    when every value keeps its bound.  A value is a number or all its draws
    (a list or an array).  A bound is an upper bound or a strict one
    (``_Below``), which judge the largest draw, a closed ``(low, high)`` band
    of one value, or True for a flag, which must hold on every draw.  A NaN
    keeps no bound, and one NaN draw makes the largest draw NaN.  The detail
    shows each value next to its bound and marks each one that fails."""
    passed, parts = True, []
    for label, value, bound in measured:
        if bound is True:
            ok = value = np.asarray(value).dtype == bool and bool(np.all(value))
            shown = "must hold"
        elif isinstance(bound, _Below):
            ok, shown = np.max(value) < bound.limit, f"< {bound.limit:g}"
        elif isinstance(bound, tuple):
            ok, shown = bound[0] <= value <= bound[1], f"in [{bound[0]:g}, {bound[1]:g}]"
        else:
            ok, shown = np.max(value) <= bound, f"<= {bound:g}"
        passed = passed and bool(ok)
        value = value if bound is True else f"{np.max(value):.3g}"
        parts.append(f"{label} {value} ({shown})" + ("" if ok else " FAILED"))
    return CheckResult(name, passed, "; ".join(parts))


# random_spd and random_sym draw one matrix, or a stack of the shape
# ``stack`` with the draws of the stack in one call each
def random_spd(rng, n, lam_min=0.5, lam_max=2.0, stack=()):
    Q, _ = np.linalg.qr(rng.normal(size=stack + (n, n)))
    lam = rng.uniform(lam_min, lam_max, size=stack + (n,))
    return symmetrize((Q * lam[..., None, :]) @ np.swapaxes(Q, -1, -2))


def random_sym(rng, n, stack=()):
    return symmetrize(rng.normal(size=stack + (n, n)))


def random_gaussian_stacks(rng, count, s_norm):
    """``count`` random cotangent states, as one state per covariance size
    n = 1..4 with stacked V and P and arrays m and xi, each quantity of a
    size drawn in one call: m in [0.5, 2], V from ``random_spd``, xi in
    [-0.8, 0.8], and S = 2P/m from ``random_sym`` scaled to a spectral norm
    of s_norm times a uniform factor in [0.2, 1].  At s_norm = 0.4 the
    unit-time flow stays in the SPD cone; larger momenta can reach its
    boundary in finite time (the space is geodesically incomplete)."""
    sizes = rng.integers(1, 5, size=count)
    for n in range(1, 5):
        k = (int(np.count_nonzero(sizes == n)),)
        m = rng.uniform(0.5, 2.0, k)
        S = random_sym(rng, n, k)
        norm = np.linalg.norm(S, 2, axis=(-2, -1))
        scale = rng.uniform(0.2, 1.0, k) * s_norm / np.where(norm > 0.0, norm, 1.0)
        S *= scale[:, None, None]
        yield GaussianCotangentState(V=random_spd(rng, n, stack=k), m=m,
                                     P=0.5 * m[:, None, None] * S,
                                     xi=rng.uniform(-0.8, 0.8, k))


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
#: flows against the closed-form ray; over seeds 0-9 it read 3.95-4.03 (and
#: 3.88-4.08 in quick mode), and a second- or third-order stepper falls out
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


def _mass_law_deviations(trace):
    """How far m(t) is from the parabola of the trace's mass law, as its
    leading coefficient's error and the fit's rms residual."""
    fit = mass_quadratic_fit(trace)
    return abs(fit["leading"] - fit["expected_leading"]), fit["rms_residual"]


def check_constant_acceleration(rng, quick=False):
    """m(t) is a parabola with leading coefficient H(0)/2 in both models, the
    Gaussian and ``small`` RK4 flows conserve H, and the Gaussian ones follow
    the closed-form ray (``cone.cone_ray``) pointwise, with fourth-order
    errors under dt halving; all in a fixed budget of RK4 state-steps."""
    states = [GaussianCotangentState(s.V[i], s.m[i], s.P[i], s.xi[i]) for s in
              random_gaussian_stacks(rng, 4 if quick else 20, 0.4) for i in range(s.m.size)]
    pde_states = [random_pde_state(rng) for _ in range(2 if quick else 5)]
    traces, devs = _ray_deviations(states, 1e-3, 250 if quick else 1000)
    ode_devs = [_mass_law_deviations(trace) for trace in traces]
    # the largest deviations at dt = 0.1 and 0.05
    coarse, fine = (_ray_deviations(states, dt, steps) for dt, steps in ((0.1, 10), (0.05, 20)))
    order = math.log2(np.max(coarse[1]) / np.max(fine[1]))
    pde_traces = integrate_pdes(pde_states, "small", dt=1e-3, steps=200 if quick else 500)
    pde_devs = [_mass_law_deviations(trace) for trace in pde_traces]
    # the work, members x steps over every stack stepped, not the seconds,
    # so the verdict stays reproducible: 23,100 in full mode at every seed
    work = sum(t.t.size - 1 for t in (*traces, *coarse[0], *fine[0], *pde_traces))
    return _result("constant-acceleration",
                   ("ode dev", ode_devs, 1e-6),
                   ("ode drift", [relative_energy_drift(t) for t in traces], 1e-8),
                   ("ray dev", devs, 1e-10),
                   ("order under dt halving", order, ORDER_BAND),
                   ("small pde dev", pde_devs, 1e-4),
                   ("small pde drift", [relative_energy_drift(t) for t in pde_traces], 1e-6),
                   ("RK4 state-steps", work, 23_100))


def check_energy_conservation(rng, quick=False):
    """Relative Hamiltonian drift along a ``wfr`` PDE flow; that of the
    ``small`` flows is judged where ``check_constant_acceleration`` steps them."""
    trace = integrate_pde(random_pde_state(rng), "wfr", dt=1e-3, steps=200 if quick else 500)
    return _result("energy-conservation", ("wfr pde drift", relative_energy_drift(trace), 1e-6))


def check_lyapunov_residual(rng, quick=False):
    residuals = []
    for _ in range(20 if quick else 100):
        n = int(rng.integers(1, 9))
        V = random_spd(rng, n, lam_min=0.3, lam_max=3.0)
        X = random_sym(rng, n)
        S = lyapunov_solve(V, X)
        residuals.append(np.linalg.norm(S @ V + V @ S - X) / max(np.linalg.norm(X), 1e-300))
    return _result("lyapunov-residual", ("max relative residual", residuals, 1e-12))


def check_mccann_oracle(rng, quick=False):
    ends, reversals = [], []
    for _ in range(5 if quick else 20):
        n = int(rng.integers(1, 5))
        U = random_spd(rng, n)
        V = random_spd(rng, n)
        ends += [np.linalg.norm(mccann_geodesic(U, V, 1.0) - U),
                 np.linalg.norm(mccann_geodesic(U, V, 0.0) - V)]
        reversals += [np.linalg.norm(mccann_geodesic(V, U, 1.0 - t) - mccann_geodesic(U, V, t))
                      for t in (0.25, 0.5, 0.75)]
    mid = mccann_geodesic(np.array([[1.0]]), np.array([[4.0]]), 0.5)[0, 0]
    return _result("mccann-oracle",
                   ("endpoint", ends, 1e-12),
                   ("reversal", reversals, 1e-12),
                   ("midpoint |W(1/2)-2.25|", abs(mid - 2.25), 1e-12))


def check_flat_cone_oracle(rng, quick=False):
    state = ConeState(q=np.zeros(1), q_dot=np.ones(1), alpha=1.0, alpha_dot=0.0)
    trace = integrate_cone(state, ConeProblem(p=1.0, dt=1e-3, steps=1000),
                           circle_base())
    # the line (1, t) runs from mass 1 to mass 2 through the angle pi/4
    m, s = cone_line(1.0, 2.0, 0.25 * np.pi, trace.t)
    devs = [np.abs(trace.column("alpha") - np.sqrt(m)),
            np.abs(trace.column("q0") - 0.25 * np.pi * s)]
    return _result("flat-cone-oracle", ("max deviation from the straight line", devs, 1e-6))


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
    scaling_errs = [abs(start.xi - 2.0), abs(start.P[0, 0])]

    # (S0, S1, m0, m1) in the draw order; the last pair is the equal-mass dip
    pairs = [(random_spd(rng, 2), random_spd(rng, 2), float(rng.uniform(0.5, 2.0)),
              float(rng.uniform(0.5, 2.0))) for _ in range(2 if quick else 10)]
    pairs.append((random_spd(rng, 2), random_spd(rng, 2), 1.0, 1.0))
    traces = integrate_geodesics([_solved_start(S0, m0, S1, m1)
                                  for S0, S1, m0, m1 in pairs], dt=1e-3, steps=1000)
    endpoint_errs = [np.linalg.norm(trace.block("V_")[-1].reshape(2, 2) - S1)
                     + abs(trace.column("m")[-1] - m1)
                     for (_, S1, _, m1), trace in zip(pairs[:-1], traces)]
    return _result("shooting-bvp",
                   ("scaling case |(P0, xi0) - (0, 2)|", scaling_errs, 1e-8),
                   ("endpoint error", endpoint_errs, 1e-6),
                   ("equal-mass dip min m", float(np.min(traces[-1].column("m"))),
                    _Below(1.0)))


def check_submersion_consistency(rng, quick=False):
    matrix_errs = []
    for _ in range(10 if quick else 25):
        n = int(rng.integers(1, 5))
        A = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        g, b = submersion_consistency(A, float(rng.uniform(0.3, 2.0)),
                                      random_sym(rng, n),
                                      float(rng.uniform(-1.0, 1.0)),
                                      random_spd(rng, n))
        matrix_errs.append(abs(g - b) / max(1.0, abs(g)))
    density_errs = []
    for _ in range(2 if quick else 5):
        state = random_pde_state(rng)
        drho, _ = small_rhs(state)
        value = small_metric_eval(state.grid, state.rho, drho)
        target = 2.0 * hamiltonian_small(state)
        density_errs.append(abs(value - target) / max(1.0, abs(target)))
    return _result("submersion-consistency",
                   ("matrix level", matrix_errs, 1e-10),
                   ("density level", density_errs, 1e-6))


def check_energy_lower_bound(rng, quick=False):
    count = 100 if quick else 1000
    above_matrix = np.concatenate([hamiltonian(s) >= 0.5 * s.m * s.xi**2
                                   for s in random_gaussian_stacks(rng, count, 2.0)])
    zero_p = GaussianCotangentState(V=random_spd(rng, 3), m=1.4,
                                    P=np.zeros((3, 3)), xi=0.6)

    grid = Grid1D(n=64)
    # one draw in the order of count (rho, theta) draws, as one stack
    draws = rng.normal(size=(count, 2, 64))
    states = PdeState(grid, np.abs(1.0 + 0.5 * draws[:, 0]) + 0.1, draws[:, 1])
    m = total_mass(grid, states.rho)
    above_density = hamiltonian_small(states) >= 0.5 * m * xi_of(states) ** 2
    flat = PdeState(grid, np.abs(1.0 + 0.2 * np.sin(grid.x)), np.full(64, 0.9))
    m = total_mass(grid, flat.rho)
    return _result("energy-lower-bound",
                   (f"H >= m xi^2/2 on {count} random Gaussian states", above_matrix, True),
                   (f"H >= m xi^2/2 on {count} random density states", above_density, True),
                   ("H = m xi^2/2 on P = 0", hamiltonian(zero_p) == 0.5 * 1.4 * 0.6**2, True),
                   ("constant theta |H - m xi^2/2|",
                    abs(hamiltonian_small(flat) - 0.5 * m * 0.81), 1e-14 * m))


def check_elliptic_closed_forms(rng, quick=False):
    n = 512
    grid = Grid1D(n=n)
    c = 0.8
    const_small, const_gdiv = (abs(f(grid, np.ones(n), np.full(n, c)) - TWO_PI * c * c)
                               for f in (small_metric_eval, gdiv_metric_eval))

    def sine_values(m):
        g = Grid1D(n=m)
        vs = small_metric_eval(g, np.ones(m), np.sin(g.x))
        vg = gdiv_metric_eval(g, np.ones(m), np.sin(g.x))
        discrete = np.pi * ((g.h / 2.0) / np.sin(g.h / 2.0)) ** 2
        return vs, vg, discrete

    vs1, vg1, d1 = sine_values(512)
    vs2, vg2, d2 = sine_values(1024)
    solver_errs = [abs(vs1 - d1), abs(vg1 - d1 - np.pi), abs(vs2 - d2), abs(vg2 - d2 - np.pi)]
    ratio_small = abs(vs1 - np.pi) / abs(vs2 - np.pi)
    ratio_gdiv = abs(vg1 - 2.0 * np.pi) / abs(vg2 - 2.0 * np.pi)
    return _result("elliptic-closed-forms",
                   ("constant case small", const_small, 1e-6),
                   ("constant case gdiv", const_gdiv, 1e-6),
                   ("sine cases vs discrete closed form", solver_errs, 1e-9),
                   ("continuum gap ratio under doubling, small", ratio_small, (3.6, 4.4)),
                   ("continuum gap ratio under doubling, gdiv", ratio_gdiv, (3.6, 4.4)))


def check_bb_action(rng, quick=False):
    grid = Grid1D(n=128 if quick else 256)
    rho = 1.0 + 0.2 * np.cos(grid.x)
    theta = 0.3 + 0.1 * np.sin(grid.x)
    trace = integrate_pde(PdeState(grid, rho, theta), "small",
                          dt=1e-3, steps=200 if quick else 1000)
    path = from_small_trace(trace, grid)
    base = bb_action(path, continuity_tol=1e-6)
    energy_integral = float(np.trapezoid(2.0 * trace.column("H"), trace.t))

    # each perturbation moves rhobar by scale a(t) s(x), with a = sin(pi tau)
    # zero at both ends, and w by d(t) S(x) with S' = s, where the interval
    # mean cc of d cancels scale da/dt, so the path stays admissible
    t = path.times
    tau = (t - t[0]) / (t[-1] - t[0])
    a = np.sin(np.pi * tau)
    scale = 0.2 * float(np.min(path.rhobar))
    cc = -scale * np.diff(a) / np.diff(t)
    # d[i + 1] = 2 cc[i] - d[i] from d[0] = cc[0]: (-1)^i d[i] is the running
    # sum of cc[0] and the (-1)^(i+1) 2 cc[i], and as negation is exact,
    # each step of the sum rounds as the recurrence's does
    sign = np.where(np.arange(t.size) % 2 == 0, 1.0, -1.0)
    d = sign * np.cumsum(np.append(cc[0], 2.0 * cc * sign[1:]))
    exceed = 0
    total = 3 if quick else 10
    for _ in range(total):
        k = int(rng.integers(1, 4))
        s = np.cos(k * grid.x + rng.uniform(0.0, TWO_PI))
        rhobar = (scale * a[:, None]) * s
        rhobar += path.rhobar
        w = d[:, None] * antiderivative_half(grid, s)
        w += path.w
        r = path.r + 0.02 * a * float(rng.normal())
        perturbed = BBPath(grid, t, rhobar, w, r).validate()
        if bb_action(perturbed).action >= base.action:
            exceed += 1
    return _result("bb-action",
                   ("|action - int 2H dt|", abs(base.action - energy_integral), 1e-4),
                   ("perturbed actions >= the geodesic's", exceed, (total, total)))


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

#: the order in which run_all hands the checks out, longest first, so the
#: last check claimed is a short one and the cores finish together (Graham's
#: LPT list schedule).  Serially at seed 0, full mode, they took 0.242,
#: 0.104, 0.086, 0.024, 0.019, 0.010, 0.009, 0.006, 0.006 and 0.001 s
#: (medians of 9 runs in one process, 2-core Xeon).  Checks not named here
#: are claimed after these, in ALL_CHECKS order.
CLAIM_ORDER = (
    check_constant_acceleration,
    check_bb_action,
    check_shooting,
    check_energy_conservation,
    check_mccann_oracle,
    check_flat_cone_oracle,
    check_lyapunov_residual,
    check_energy_lower_bound,
    check_submersion_consistency,
    check_elliptic_closed_forms,
)


def run_all(seed=0, quick=False):
    """Run every check on a fresh generator of the seed, yielding each
    CheckResult with the wall-clock seconds its check took, in ALL_CHECKS
    order.

    The checks run on every available core: this process and one forked
    worker per further core (``trace._forked``) claim check indices from one
    ticket pipe until it is empty, and the workers send back what they ran.
    The tickets are in CLAIM_ORDER, longest check first (its comment gives
    the seconds behind that order).  So nothing is yielded before every
    check has run, no result depends on the claim order, and the seconds
    are each check's own, on contended cores.  On one core nothing is
    forked.  A check that raised is run again here at its turn, so it
    raises after the same results as in a serial run; a worker that died
    raises RuntimeError.
    """
    checks = ALL_CHECKS
    rank = {check: k for k, check in enumerate(CLAIM_ORDER)}
    order = sorted(range(len(checks)), key=lambda i: rank.get(checks[i], len(rank)))
    tickets, w = os.pipe()
    os.write(w, bytes(order))
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
