import numpy as np
import numpy.testing as npt
import pytest

from uotcone.cone import (ConeProblem, ConeState, circle_base, cone_energy,
                          cone_line, cone_ray, cone_rhs, flat_base,
                          integrate_cone, radial_mass_geodesic)
from uotcone.errors import ApexCrossingError, MassError, NonFiniteError
from uotcone.trace import relative_energy_drift


def circle_state(phi=0.0, phidot=1.0, alpha=1.0, alphadot=0.0):
    return ConeState(q=np.array([phi]), q_dot=np.array([phidot]),
                     alpha=alpha, alpha_dot=alphadot)


# -- cone_rhs -----------------------------------------------------------------

def test_rhs_pure_radial_motion_is_straight():
    state = ConeState(q=np.array([0.3]), q_dot=np.zeros(1), alpha=2.0, alpha_dot=-0.5)
    dq, dqdot, dalpha, dalphadot = cone_rhs(state, p=1.0, base=circle_base())
    npt.assert_allclose(dqdot, 0.0)
    assert dalphadot == 0.0
    assert dalpha == -0.5


def test_rhs_flat_cone_initial_acceleration():
    # cartesian straight line (1, t): alpha(t) = sqrt(1 + t^2) so alphaddot(0) = 1
    dq, dqdot, dalpha, dalphadot = cone_rhs(circle_state(), p=1.0, base=circle_base())
    npt.assert_allclose(dq, [1.0])
    npt.assert_allclose(dqdot, [0.0])
    assert dalphadot == pytest.approx(1.0)


def test_rhs_p_zero_decouples():
    state = circle_state(phidot=0.7, alphadot=0.4)
    dq, dqdot, dalpha, dalphadot = cone_rhs(state, p=0.0, base=circle_base())
    npt.assert_allclose(dqdot, 0.0)  # base rhs of the circle is zero
    assert dalphadot == 0.0


def test_rhs_rejects_apex():
    state = ConeState(q=np.zeros(1), q_dot=np.ones(1), alpha=1.0, alpha_dot=0.0)
    bad = ConeState(q=state.q, q_dot=state.q_dot, alpha=-0.1, alpha_dot=0.0)
    with pytest.raises(ApexCrossingError):
        cone_rhs(bad, p=1.0, base=circle_base())


def test_general_p_radial_equation():
    # alphaddot = p alpha^(2p-1) g(qdot,qdot)
    state = circle_state(phidot=2.0, alpha=1.5)
    for p in (-0.5, 0.0, 0.5, 1.0, 2.0):
        _, _, _, dalphadot = cone_rhs(state, p=p, base=circle_base())
        assert dalphadot == pytest.approx(p * 1.5 ** (2 * p - 1) * 4.0)


# -- integrate_cone -----------------------------------------------------------

def test_integrate_zero_velocity_is_constant():
    state = ConeState(q=np.array([0.4]), q_dot=np.zeros(1), alpha=1.3, alpha_dot=0.0)
    trace = integrate_cone(state, ConeProblem(p=1.0, dt=1e-2, steps=50), circle_base())
    npt.assert_allclose(trace.column("alpha"), 1.3)
    npt.assert_allclose(trace.column("q0"), 0.4)


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


def test_non_finite_base_reported():
    base = circle_base()
    bad = type(base)(dim=1, metric_eval=base.metric_eval,
                     geodesic_rhs=lambda q, qdot: np.array([np.nan]))
    with pytest.raises(NonFiniteError):
        integrate_cone(circle_state(), ConeProblem(p=1.0, dt=1e-2, steps=10), bad)


def test_recorded_energy_column():
    state = circle_state(phidot=1.2, alphadot=0.3)
    trace = integrate_cone(state, ConeProblem(p=1.0, dt=1e-2, steps=5), circle_base())
    assert trace.column("H")[0] == pytest.approx(cone_energy(state, 1.0, circle_base()))
    # energy = alpha^2 phidot^2 + alphadot^2 at the start
    assert trace.column("H")[0] == pytest.approx(1.2**2 + 0.3**2)


# -- radial_mass_geodesic -----------------------------------------------------

def test_radial_constant():
    for t in np.linspace(0.0, 1.0, 7):
        assert radial_mass_geodesic(3.0, 3.0, t) == pytest.approx(3.0)


def test_radial_midpoint():
    # sqrt(m) is affine: r(1/2) = 1.5 so m = 2.25
    assert radial_mass_geodesic(1.0, 4.0, 0.5) == pytest.approx(2.25)


def test_radial_reversal():
    for t in np.linspace(0.0, 1.0, 9):
        assert radial_mass_geodesic(4.0, 1.0, t) == pytest.approx(
            radial_mass_geodesic(1.0, 4.0, 1.0 - t))


def test_radial_is_quadratic_with_affine_sqrt():
    ts = np.linspace(0.0, 1.0, 21)
    m = np.array([radial_mass_geodesic(2.0, 5.0, t) for t in ts])
    root = np.sqrt(m)
    second = root[2:] - 2.0 * root[1:-1] + root[:-2]
    npt.assert_allclose(second, 0.0, atol=1e-12)
    coeffs = np.polyfit(ts, m, 2)
    npt.assert_allclose(m, np.polyval(coeffs, ts), atol=1e-12)


def test_radial_rejects_nonpositive_mass():
    with pytest.raises(MassError):
        radial_mass_geodesic(0.0, 1.0, 0.5)
    with pytest.raises(MassError):
        radial_mass_geodesic(1.0, -2.0, 0.5)


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
