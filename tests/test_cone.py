import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

from uotcone import checks, cone, gaussian
from uotcone.cone import (BaseManifold, ConeProblem, ConeState, _clairaut_rhs,
                          circle_base, cone_geodesic_ray, cone_line, cone_ray, flat_base,
                          integrate_cone, scaled_base)
from uotcone.errors import ApexCrossingError, NonFiniteError, SpdError
from uotcone.trace import relative_energy_drift


def circle_state(phi=0.0, phidot=1.0, alpha=1.0, alphadot=0.0):
    return ConeState(q=np.array([phi]), q_dot=np.array([phidot]),
                     alpha=alpha, alpha_dot=alphadot)


def reduced_rhs(state, p, base=None):
    """(alphadot, alphaddot, sdot) of the reduced flow at a cone state."""
    base = base or circle_base()
    return _clairaut_rhs(np.array([state.alpha, state.alpha_dot, 0.0]), p, state.alpha,
                         base.speed(state.q, state.q_dot))


# -- the reduced flow (alpha, alphadot, s) ------------------------------------

def test_rhs_pure_radial_motion_is_straight():
    state = ConeState(q=np.array([0.3]), q_dot=np.zeros(1), alpha=2.0, alpha_dot=-0.5)
    dalpha, dalphadot, ds = reduced_rhs(state, p=1.0)
    assert ds == 0.0  # the base point stands still
    assert dalphadot == 0.0
    assert dalpha == -0.5


def test_rhs_flat_cone_initial_acceleration():
    # cartesian straight line (1, t): alpha(t) = sqrt(1 + t^2) so alphaddot(0) = 1
    dalpha, dalphadot, ds = reduced_rhs(circle_state(), p=1.0)
    npt.assert_allclose(ds, 1.0)
    assert dalpha == 0.0
    assert dalphadot == pytest.approx(1.0)


def test_rhs_p_zero_decouples():
    state = circle_state(phidot=0.7, alphadot=0.4)
    _, dalphadot, ds = reduced_rhs(state, p=0.0)
    npt.assert_allclose(ds, 0.7)  # the base moves at its own constant speed
    assert dalphadot == 0.0


def test_rhs_rejects_apex():
    with pytest.raises(ApexCrossingError):
        _clairaut_rhs(np.array([-0.1, 0.0, 0.0]), 1.0, 1.0, 1.0)


def test_general_p_radial_equation():
    # alphaddot = p alpha^(2p-1) g(qdot,qdot)
    state = circle_state(phidot=2.0, alpha=1.5)
    for p in (-0.5, 0.0, 0.5, 1.0, 2.0):
        _, dalphadot, _ = reduced_rhs(state, p=p)
        assert dalphadot == pytest.approx(p * 1.5 ** (2 * p - 1) * 4.0)


# -- integrate_cone -----------------------------------------------------------

@pytest.mark.parametrize("base, q", [
    (circle_base(), [0.4]),
    (flat_base(3), [0.4, -1.0, 2.5]),
    (gaussian.spd_base(2), [1.2, 0.3, 0.3, 0.8]),
], ids=["circle", "flat", "spd"])
def test_integrate_zero_velocity_is_constant(base, q):
    # no base speed to divide by: q stays, qdot is 0 and alpha is affine
    q = np.array(q)
    state = ConeState(q=q, q_dot=np.zeros(q.size), alpha=1.3, alpha_dot=-0.2)
    trace = integrate_cone(state, ConeProblem(p=1.0, dt=1e-2, steps=50), base)
    npt.assert_allclose(trace.column("alpha"), 1.3 - 0.2 * trace.t)
    assert np.array_equal(trace.block("q")[:, :q.size], np.tile(q, (51, 1)))
    assert np.array_equal(trace.block("qdot"), np.zeros((51, q.size)))


def test_flat_cone_over_circle_matches_cartesian_line():
    # unfolding the p=1 cone over S^1 into the plane, the geodesic from
    # (phi=0, phidot=1, alpha=1, alphadot=0) is the straight line (1, t)
    trace = integrate_cone(circle_state(),
                           ConeProblem(p=1.0, dt=1e-3, steps=1000), circle_base())
    t = trace.t
    alpha_exact = np.sqrt(1.0 + t**2)
    phi_exact = np.arctan(t)
    assert np.max(np.abs(trace.column("alpha") - alpha_exact)) <= 1e-6
    assert np.max(np.abs(trace.column("q0") - phi_exact)) <= 1e-6


def test_p_one_cone_is_scale_invariant_down_to_tiny_radii():
    # scaling alpha and alphadot by 1e-170 scales the p = 1 geodesic and
    # keeps its base path, although alpha0^2 |qdot0| underflows
    problem = ConeProblem(p=1.0, dt=1e-3, steps=1000)
    unit = integrate_cone(circle_state(alphadot=0.5), problem, circle_base())
    tiny = integrate_cone(circle_state(alpha=1e-170, alphadot=0.5e-170), problem,
                          circle_base())
    npt.assert_allclose(tiny.column("q0"), unit.column("q0"), rtol=1e-14, atol=0.0)
    npt.assert_allclose(tiny.column("alpha"), 1e-170 * unit.column("alpha"), rtol=1e-14)


def test_energy_drift_small_and_fourth_order():
    state = circle_state(phidot=1.2, alphadot=0.3)
    trace = integrate_cone(state, ConeProblem(p=1.0, dt=1e-3, steps=1000), circle_base())
    assert relative_energy_drift(trace) <= 1e-8

    coarse = integrate_cone(state, ConeProblem(p=1.0, dt=4e-2, steps=25), circle_base())
    fine = integrate_cone(state, ConeProblem(p=1.0, dt=2e-2, steps=50), circle_base())
    ratio = relative_energy_drift(coarse) / relative_energy_drift(fine)
    assert ratio > 8.0  # RK4: halving dt should shrink the drift ~16x


def test_cylinder_p_zero_is_product():
    state = circle_state(phidot=0.7, alphadot=0.25)
    trace = integrate_cone(state, ConeProblem(p=0.0, dt=1e-2, steps=100), circle_base())
    t = trace.t
    npt.assert_allclose(trace.column("q0"), 0.7 * t, atol=1e-12)
    npt.assert_allclose(trace.column("alpha"), 1.0 + 0.25 * t, atol=1e-12)


def test_projection_property_circle():
    # the base path of a cone geodesic is the base geodesic traversed at the
    # cumulative base arc length
    trace = integrate_cone(circle_state(),
                           ConeProblem(p=1.0, dt=1e-3, steps=1000), circle_base())
    phidot = trace.column("qdot0")
    dt = trace.t[1] - trace.t[0]
    arc = np.concatenate([[0.0], np.cumsum(0.5 * (np.abs(phidot[1:]) + np.abs(phidot[:-1])) * dt)])
    npt.assert_allclose(trace.column("q0"), arc, atol=1e-6)


def test_apex_crossing_reports_step():
    # alpha(t) = 0.107 - t: the step from t = 0.10 to 0.11 is the first to
    # leave the cone (its last RK4 stage sees alpha = -0.003), and a failure
    # inside the step from k to k + 1 is stamped k + 1
    state = ConeState(q=np.zeros(1), q_dot=np.zeros(1), alpha=0.107, alpha_dot=-1.0)
    with pytest.raises(ApexCrossingError) as exc:
        integrate_cone(state, ConeProblem(p=1.0, dt=1e-2, steps=100), circle_base())
    assert exc.value.details["step"] == 11


def test_spd_boundary_is_exact_for_p_zero():
    # at p = 0 the arc is s = |qdot0| t, and the balanced curve leaves the
    # SPD cone at s* = -|qdot0| / min eig(S0), S0 the representer of qdot0:
    # the first step whose arc reaches it is ceil(-1 / (min eig(S0) dt)),
    # and it is reported before the apex that alpha = 1 - t / 2 reaches later
    V0 = np.array([[1.0, 0.2], [0.2, 2.0]])
    X0 = np.array([[-1.3, 0.1], [0.1, 0.4]])
    dt = 1e-3
    steps_to_edge = -1.0 / (np.linalg.eigvalsh(gaussian.lyapunov_solve(V0, X0))[0] * dt)
    assert 0.2 < steps_to_edge % 1.0 < 0.8  # clear of a knife edge
    step = math.ceil(steps_to_edge)
    state = ConeState(q=V0.ravel(), q_dot=X0.ravel(), alpha=1.0, alpha_dot=-0.5)
    base = gaussian.spd_base(2)
    inside = integrate_cone(state, ConeProblem(p=0.0, dt=dt, steps=step - 1), base)
    assert np.linalg.eigvalsh(inside.block("q")[-1, :4].reshape(2, 2))[0] > 0.0
    with pytest.raises(SpdError) as exc:
        integrate_cone(state, ConeProblem(p=0.0, dt=dt, steps=2500), base)
    assert exc.value.details["step"] == step
    assert exc.value.details["min_eigenvalue"] <= 0.0


def test_non_finite_base_reported():
    # a base whose exponential map returns NaN points off the start: the
    # first row past it is not finite
    def exp(q0, qdot0, s):
        q, u = circle_base().exp(q0, qdot0, s)
        return np.where(s[:, None] > 0.0, np.nan, q), u

    bad = BaseManifold(dim=1, speed=circle_base().speed, exp=exp)
    with pytest.raises(NonFiniteError) as exc:
        integrate_cone(circle_state(), ConeProblem(p=1.0, dt=1e-2, steps=10), bad)
    assert exc.value.details["step"] == 1


@pytest.mark.parametrize("base, q, q_dot", [
    (circle_base(), [0.0], [1.2]),
    (gaussian.spd_base(2), [1.2, 0.3, 0.3, 0.8], [0.1, -0.05, -0.05, 0.2]),
], ids=["circle", "spd"])
def test_cone_flow_calls_exp_once_per_trace(base, q, q_dot):
    # the base's exponential map runs over the whole arc column at once, so
    # no per-step base call creeps back into the flow or its closed form
    calls = []

    def exp(*args):
        calls.append(1)
        return base.exp(*args)

    counted = dataclasses.replace(base, exp=exp)
    state = ConeState(q=np.array(q), q_dot=np.array(q_dot), alpha=1.1, alpha_dot=0.1)
    counts = []
    for flow in (integrate_cone, cone_geodesic_ray):
        for steps in (10, 1000):
            calls.clear()
            flow(state, ConeProblem(p=1.0, dt=1e-3, steps=steps), counted)
            counts.append(len(calls))
    assert counts == [1] * 4


def test_recorded_energy_column():
    state = circle_state(phidot=1.2, alphadot=0.3)
    base = circle_base()
    trace = integrate_cone(state, ConeProblem(p=1.0, dt=1e-2, steps=5), base)
    # energy = alpha^2 g(qdot, qdot) + alphadot^2 at the start
    speed = base.speed(state.q, state.q_dot)
    assert trace.column("H")[0] == pytest.approx(state.alpha**2 * speed**2 + 0.3**2)
    assert trace.column("H")[0] == pytest.approx(1.2**2 + 0.3**2)


def test_euclidean_exp_takes_a_stack_of_arcs():
    base = flat_base(3)
    q0 = np.array([1.0, -2.0, 0.5])
    qdot0 = np.array([1.0, 2.0, 2.0])
    assert base.speed(q0, qdot0) == 3.0
    s = np.array([0.0, 1.5, 3.0, 1e-3])
    q, u = base.exp(q0, qdot0, s)
    assert q.shape == u.shape == (4, 3)
    assert np.array_equal(q, q0 + s[:, None] * (qdot0 / 3.0))
    assert np.array_equal(u, np.tile(qdot0 / 3.0, (4, 1)))
    # a zero velocity stays at q0 with no direction
    assert base.speed(q0, np.zeros(3)) == 0.0
    q, u = base.exp(q0, np.zeros(3), s)
    assert np.array_equal(q, np.tile(q0, (4, 1)))
    assert np.array_equal(u, np.zeros((4, 3)))


def test_energy_column_is_the_energy_of_each_row():
    state = circle_state(phidot=1.2, alphadot=0.3)
    base = scaled_base(circle_base(), 0.25)
    p = 0.5
    trace = integrate_cone(state, ConeProblem(p=p, dt=1e-2, steps=20), base)
    c = state.alpha ** (2 * p) * base.speed(state.q, state.q_dot)
    for row in trace.data:
        alpha, alphadot = row[6], row[7]
        speed = base.speed(row[4:5], row[5:6])
        assert row[3] == pytest.approx(alpha ** (2 * p) * speed**2 + alphadot**2,
                                       rel=1e-15, abs=0.0)
        # Clairaut's integral alpha^{2p} |qdot|_g = c
        assert alpha ** (2 * p) * speed == pytest.approx(c, rel=1e-15, abs=0.0)


def test_spd_cone_flow_calls_no_public_lyapunov_solve(monkeypatch):
    # the speed and the exponential map of the SPD base solve the Lyapunov
    # equation of q_dot on the one eigendecomposition of q, not through the
    # validating public solver
    def refuse(V, X):
        raise AssertionError("lyapunov_solve called")

    monkeypatch.setattr(gaussian, "lyapunov_solve", refuse)
    state = ConeState(q=np.array([1.2, 0.3, 0.3, 0.8]),
                      q_dot=np.array([0.1, -0.05, -0.05, 0.2]), alpha=1.1, alpha_dot=0.1)
    trace = integrate_cone(state, ConeProblem(p=1.0, dt=1e-2, steps=10),
                           gaussian.spd_base(2))
    assert relative_energy_drift(trace) <= 1e-8


# -- cone_geodesic_ray: the closed form for p = 1 ----------------------------

BASES = [
    (circle_base(), [0.4], [1.3]),
    (flat_base(3), [0.4, -1.0, 2.5], [0.3, -0.7, 0.2]),
    (gaussian.spd_base(2), [1.2, 0.3, 0.3, 0.8], [0.1, -0.05, -0.05, 0.2]),
]
BASE_IDS = ["circle", "flat", "spd"]


@pytest.mark.parametrize("alpha_dot", [0.2, -0.3])
@pytest.mark.parametrize("base, q, q_dot", BASES, ids=BASE_IDS)
def test_closed_form_cone_agrees_with_rk4(base, q, q_dot, alpha_dot):
    # every column, relative to its own largest entry: xi and alphadot pass
    # through 0 on the way in
    state = ConeState(q=np.array(q), q_dot=np.array(q_dot), alpha=1.1, alpha_dot=alpha_dot)
    problem = ConeProblem(p=1.0, dt=1e-3, steps=1000)
    rk4 = integrate_cone(state, problem, base)
    ray = cone_geodesic_ray(state, problem, base)
    assert ray.columns == rk4.columns
    scale = np.max(np.abs(rk4.data), axis=0)
    assert np.all(np.abs(ray.data - rk4.data) <= 1e-11 * scale)
    assert np.array_equal(ray.data[0, 4:], rk4.data[0, 4:])  # the start exactly


@pytest.mark.parametrize("k", [500, -500])
@pytest.mark.parametrize("base, q, q_dot", BASES, ids=BASE_IDS)
def test_closed_form_cone_scales_exactly(base, q, q_dot, k):
    # alpha -> 2^k alpha maps cone geodesics to cone geodesics: the mass is
    # exactly 4^k times, the base path the same
    problem = ConeProblem(p=1.0, dt=1e-3, steps=1000)

    def trace(scale):
        return cone_geodesic_ray(ConeState(q=np.array(q), q_dot=np.array(q_dot),
                                           alpha=scale * 1.1, alpha_dot=scale * -0.3),
                                 problem, base)

    unit, scaled = trace(1.0), trace(2.0**k)
    assert np.array_equal(scaled.column("m"), 4.0**k * unit.column("m"))
    assert np.array_equal(scaled.block("q"), unit.block("q"))
    assert np.array_equal(scaled.column("alpha"), 2.0**k * unit.column("alpha"))


def test_closed_form_cone_starts_next_to_the_apex():
    # from alpha0 = 1e-160 the radius grows 1e160-fold, and (alpha / alpha0)^2
    # would overflow: the ray z(t) = (alpha0 + t, alpha0 t) sweeps the angle
    # atan2(alpha0 t, alpha0 + t) ~ alpha0 (RK4 steps it to 1.7e-4)
    state = ConeState(q=np.zeros(1), q_dot=np.ones(1), alpha=1e-160, alpha_dot=1.0)
    trace = cone_geodesic_ray(state, ConeProblem(p=1.0, dt=1e-3, steps=1000), circle_base())
    t = trace.t
    npt.assert_allclose(trace.column("alpha"), 1e-160 + t, rtol=1e-15)
    npt.assert_allclose(trace.column("q0")[1:], 1e-160 * t[1:] / (1e-160 + t[1:]),
                        rtol=1e-15)
    npt.assert_allclose(trace.column("H"), 1.0, rtol=1e-15)


@pytest.mark.parametrize("alpha, alpha_dot, dt, step", [
    (0.107, -1.0, 1e-2, 11), (1.0, -0.37, 1e-3, 2703)])
def test_closed_form_cone_apex_step_is_the_rk4_step(alpha, alpha_dot, dt, step):
    # a radial collapse reaches the apex at t = -alpha / alphadot: the same
    # kind and step from both engines
    state = ConeState(q=np.zeros(1), q_dot=np.zeros(1), alpha=alpha, alpha_dot=alpha_dot)
    problem = ConeProblem(p=1.0, dt=dt, steps=5000)
    for flow in (integrate_cone, cone_geodesic_ray):
        with pytest.raises(ApexCrossingError) as exc:
            flow(state, problem, circle_base())
        assert exc.value.details["step"] == step


@pytest.mark.parametrize("p", [0.0, 0.5])
def test_closed_form_cone_refuses_other_cones(p):
    with pytest.raises(ValueError):
        cone_geodesic_ray(circle_state(), ConeProblem(p=p, dt=1e-3, steps=10),
                          circle_base())


def test_flat_cone_oracle_still_steps_rk4(monkeypatch):
    # the check compares the RK4 integrator that every p other than 1
    # depends on against the straight line: it must not run the closed form
    calls = []

    def counted(*args):
        calls.append(len(args[2]) - 1)
        return cone_rk4(*args)

    cone_rk4 = cone._rk4
    monkeypatch.setattr(cone, "_rk4", counted)
    result = checks.check_flat_cone_oracle(np.random.default_rng(0))
    assert result.passed
    assert calls == [1000]


# -- the pure-scaling line: cone_line at theta = 0 --------------------------

def test_radial_constant():
    for t in np.linspace(0.0, 1.0, 7):
        assert cone_line(3.0, 3.0, 0.0, t)[0] == pytest.approx(3.0)


def test_radial_midpoint():
    # sqrt(m) is affine: r(1/2) = 1.5 so m = 2.25
    assert cone_line(1.0, 4.0, 0.0, 0.5)[0] == pytest.approx(2.25)


def test_radial_reversal():
    for t in np.linspace(0.0, 1.0, 9):
        assert cone_line(4.0, 1.0, 0.0, t)[0] == pytest.approx(
            cone_line(1.0, 4.0, 0.0, 1.0 - t)[0])


def test_radial_is_quadratic_with_affine_sqrt():
    ts = np.linspace(0.0, 1.0, 21)
    m = np.array([cone_line(2.0, 5.0, 0.0, t)[0] for t in ts])
    root = np.sqrt(m)
    second = root[2:] - 2.0 * root[1:-1] + root[:-2]
    npt.assert_allclose(second, 0.0, atol=1e-12)
    coeffs = np.polyfit(ts, m, 2)
    npt.assert_allclose(m, np.polyval(coeffs, ts), atol=1e-12)


# -- cone_line ----------------------------------------------------------------

def test_cone_line_theta_zero_is_the_radial_formula():
    t = np.linspace(0.0, 1.0, 11)[:, None]
    m0 = np.array([0.5, 1.0, 3.0])
    m1 = np.array([2.0, 1.0, 0.1])
    m, s = cone_line(m0, m1, 0.0, t)
    assert m.shape == s.shape == (11, 3)
    assert np.array_equal(m, ((1.0 - t) * np.sqrt(m0) + t * np.sqrt(m1)) ** 2)
    npt.assert_allclose(s, t * np.sqrt(m1) / np.sqrt(m), rtol=1e-15)


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.2, 3.0])
def test_cone_line_endpoints_and_reversal(theta):
    t = np.linspace(0.0, 1.0, 17)
    m, s = cone_line(0.7, 2.3, theta, t)
    npt.assert_allclose([m[0], m[-1], s[0], s[-1]], [0.7, 2.3, 0.0, 1.0],
                        rtol=1e-14, atol=1e-15)
    assert np.all(np.diff(s) > 0.0)
    m_rev, s_rev = cone_line(2.3, 0.7, theta, 1.0 - t)
    npt.assert_allclose(m_rev, m, rtol=1e-14)
    npt.assert_allclose(s_rev, 1.0 - s, atol=1e-14)


def test_cone_line_unit_square_diagonal():
    # (1, 0) to (1, 1): masses 1 and 2 at angle pi/4, z(t) = (1, t)
    t = np.linspace(0.0, 1.0, 101)
    m, s = cone_line(1.0, 2.0, 0.25 * np.pi, t)
    npt.assert_allclose(m, 1.0 + t**2, rtol=1e-15)
    npt.assert_allclose(0.25 * np.pi * s, np.arctan(t), atol=1e-15)


def test_cone_line_fraction_is_continuous_at_theta_zero():
    t = np.linspace(0.0, 1.0, 33)
    _, s0 = cone_line(0.4, 3.0, 0.0, t)
    _, s = cone_line(0.4, 3.0, 1e-9, t)
    npt.assert_allclose(s, s0, atol=1e-15)


@pytest.mark.parametrize("theta", [np.pi, 4.0])
def test_cone_line_through_the_apex_is_typed(theta):
    with pytest.raises(ApexCrossingError) as exc:
        cone_line(1.0, 1.0, theta, 0.5)
    assert exc.value.details["theta"] == theta


# -- cone_ray -----------------------------------------------------------------

def test_cone_ray_unit_square_side():
    # from (1, 0) with velocity (0, 1): m = 1 + t^2, swept angle arctan t
    t = np.linspace(0.0, 3.0, 61)
    m, sigma = cone_ray(1.0, 0.0, 1.0, t)
    npt.assert_allclose(m, 1.0 + t**2, rtol=1e-15)
    npt.assert_allclose(sigma, np.arctan(t), rtol=1e-15, atol=0.0)


def test_cone_ray_has_constant_acceleration():
    # m'' = 2 m0 (xi0^2 / 4 + omega0^2) and sigma' = m0 / m, by differences
    m0, xi0, omega0 = 1.7, -0.6, 0.8
    t = np.linspace(0.0, 4.0, 4001)
    m, sigma = cone_ray(m0, xi0, omega0, t)
    dt = t[1] - t[0]
    acc = (m[2:] - 2.0 * m[1:-1] + m[:-2]) / dt**2
    npt.assert_allclose(acc, 2.0 * m0 * (0.25 * xi0**2 + omega0**2), rtol=1e-6)
    npt.assert_allclose(np.gradient(sigma, dt)[1:-1], (m0 / m)[1:-1], rtol=1e-5)


def test_cone_ray_angle_is_continuous_at_omega_zero():
    t = np.linspace(0.0, 2.0, 41)
    for xi0 in (-0.9, 0.0, 1.5):
        m0, s0 = cone_ray(0.4, xi0, 0.0, t)
        m, s = cone_ray(0.4, xi0, 1e-9, t)
        npt.assert_allclose(s, s0, rtol=1e-15, atol=0.0)
        npt.assert_allclose(m, m0, rtol=1e-15)


def test_radial_ray_reaches_the_apex_at_minus_two_over_xi0():
    # omega0 = 0, xi0 = -0.8: 1 + xi0 t / 2 vanishes at t = 2.5
    t = np.linspace(0.0, 2.4, 25)
    m, s = cone_ray(1.3, -0.8, 0.0, t)
    npt.assert_allclose(m, 1.3 * (1.0 - 0.4 * t) ** 2, rtol=1e-15)
    npt.assert_allclose(s, t / (1.0 - 0.4 * t), rtol=1e-15)
    for end in (2.5, 3.0):
        with pytest.raises(ApexCrossingError) as exc:
            cone_ray(1.3, -0.8, 0.0, np.linspace(0.0, end, 11))
        assert exc.value.details["theta"] == np.pi
        assert exc.value.details["xi0"] == -0.8
    # an angular speed keeps the ray off the apex
    assert np.min(cone_ray(1.3, -0.8, 1e-3, np.linspace(0.0, 3.0, 31))[0]) > 0.0


def test_trace_invariants_enforced():
    from uotcone.trace import GeodesicTrace
    with pytest.raises(NonFiniteError):
        GeodesicTrace(columns=("t", "m"), data=np.array([[0.0, np.inf]]))
    with pytest.raises(ValueError):
        GeodesicTrace(columns=("t", "m"),
                      data=np.array([[0.0, 1.0], [0.0, 2.0]]))
