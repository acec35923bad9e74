import numpy as np
import numpy.testing as npt
import pytest

from uotcone import gaussian
from uotcone.cone import (ConeProblem, ConeState, cone_line, cone_line_start, cone_ray,
                          integrate_cone, scaled_base)
from uotcone.errors import (ApexCrossingError, MassError, NonFiniteError, ShootingError,
                            SingularSystemError, SpdError, SymmetryError)
from uotcone.gaussian import (AffineGaussian, GaussianCotangentState, _gauss_rhs,
                              _pack_state, base_metric_eval, connect_affine,
                              geodesic_ray, group_metric_eval, hamiltonian,
                              integrate_geodesic, integrate_geodesics,
                              lyapunov_solve, mccann_geodesic, shoot_bvp,
                              spd_base, submersion_consistency, symmetrize)
from uotcone.trace import _rk4, mass_quadratic_fit, relative_energy_drift


def random_spd(rng, n, lam_min=0.5, lam_max=2.0):
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = rng.uniform(lam_min, lam_max, size=n)
    return symmetrize(Q @ np.diag(lam) @ Q.T)


def random_sym(rng, n, scale=1.0):
    M = rng.normal(scale=scale, size=(n, n))
    return symmetrize(M)


def bures_sq(S0, S1):
    """W2^2 = tr S0 + tr S1 - 2 tr (S1^(1/2) S0 S1^(1/2))^(1/2)."""
    def root(M):
        lam, Q = np.linalg.eigh(M)
        return (Q * np.sqrt(lam)) @ Q.T
    r1 = root(S1)
    return np.trace(S0) + np.trace(S1) - 2.0 * np.trace(root(r1 @ S0 @ r1))


def polar_mass_curve(m0, m1, gap, t):
    """Exact mass along the conical geodesic when the base motion covers a
    flat-coordinate gap: straight chord in the plane with radius 2 sqrt(m)
    and angle gap/2."""
    t = np.asarray(t, dtype=float)
    phi = 0.5 * gap
    return (1.0 - t) ** 2 * m0 + t**2 * m1 \
        + 2.0 * t * (1.0 - t) * np.sqrt(m0 * m1) * np.cos(phi)


def polar_scalar_covariance_curve(sigma0, sigma1, m0, m1, t):
    """Exact n=1 covariance path: angle of the chord in the flat plane,
    unfolded back through u = sqrt(V) = 2 * angle offset."""
    t = np.asarray(t, dtype=float)
    u0, u1 = np.sqrt(sigma0), np.sqrt(sigma1)
    phi = 0.5 * (u1 - u0)
    x = (1.0 - t) * 2.0 * np.sqrt(m0) + t * 2.0 * np.sqrt(m1) * np.cos(phi)
    y = t * 2.0 * np.sqrt(m1) * np.sin(phi)
    return (u0 + 2.0 * np.arctan2(y, x)) ** 2


# -- lyapunov_solve -----------------------------------------------------------

def test_lyapunov_identity_case():
    S = lyapunov_solve(np.eye(2), np.diag([2.0, 4.0]))
    npt.assert_allclose(S, np.diag([1.0, 2.0]), atol=1e-14)


def test_lyapunov_diagonal_example():
    V = np.diag([1.0, 3.0])
    X = np.array([[2.0, 4.0], [4.0, 12.0]])
    S = lyapunov_solve(V, X)
    npt.assert_allclose(S, [[1.0, 1.0], [1.0, 2.0]], atol=1e-14)
    npt.assert_allclose(S @ V + V @ S, X, atol=1e-13)


def test_lyapunov_scalar():
    npt.assert_allclose(lyapunov_solve(np.array([[2.0]]), np.array([[8.0]])),
                        [[2.0]], atol=1e-14)


def test_lyapunov_residual_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = rng.integers(1, 9)
        V = random_spd(rng, n)
        X = random_sym(rng, n)
        S = lyapunov_solve(V, X)
        res = np.linalg.norm(S @ V + V @ S - X)
        assert res <= 1e-12 * max(np.linalg.norm(X), 1e-30)


def test_lyapunov_rejects_bad_inputs():
    with pytest.raises(SpdError):
        lyapunov_solve(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(SymmetryError):
        lyapunov_solve(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("scale", 10.0 ** np.arange(-12, 13, 3))
def test_symmetry_check_is_scale_free(scale):
    M = scale * np.array([[2.0, 1.0], [1.0, 3.0]])
    np.testing.assert_array_equal(gaussian.require_symmetric(M), M)
    with pytest.raises(SymmetryError):
        gaussian.require_symmetric(M + [[0.0, 3e-10 * scale], [0.0, 0.0]])
    with pytest.raises(SymmetryError):
        gaussian.require_symmetric(scale * np.array([[1.0, 0.0], [1.0, 1.0]]))
    np.testing.assert_array_equal(gaussian.require_symmetric(0.0 * M), 0.0)


# -- metric evaluations -------------------------------------------------------

def test_group_metric_zero_vector():
    assert group_metric_eval(np.eye(2), 1.5, np.zeros((2, 2)), 0.0, np.eye(2)) == 0.0


def test_group_metric_scalar_examples():
    one = np.array([[1.0]])
    assert group_metric_eval(one, 1.0, np.array([[2.0]]), 0.0, one) == pytest.approx(4.0)
    assert group_metric_eval(one, 4.0, np.array([[0.0]]), 2.0, one) == pytest.approx(1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is expected
def test_metric_overflow_is_non_finite():
    # the squares of xi and of mdot leave the range of doubles
    with pytest.raises(NonFiniteError):
        base_metric_eval(np.eye(2), 1.0, np.zeros((2, 2)), 1e200)
    with pytest.raises(NonFiniteError):
        group_metric_eval(np.eye(2), 1.0, np.zeros((2, 2)), 1e200, np.eye(2))


def test_group_metric_rejects_singular_A():
    with pytest.raises(SingularSystemError):
        group_metric_eval(np.zeros((2, 2)), 1.0, np.eye(2), 0.0, np.eye(2))
    with pytest.raises(MassError):
        group_metric_eval(np.eye(2), -1.0, np.eye(2), 0.0, np.eye(2))


def test_base_metric_examples():
    one = np.array([[1.0]])
    assert base_metric_eval(one, 1.0, np.zeros((1, 1)), 0.0) == 0.0
    assert base_metric_eval(one, 1.0, np.array([[2.0]]), 0.0) == pytest.approx(1.0)
    assert base_metric_eval(one, 2.0, np.zeros((1, 1)), 3.0) == pytest.approx(18.0)


def test_legendre_momentum_examples():
    # the momentum dual to the covariance velocity X is P = m S / 2, with
    # X = S V + V S
    def momentum(V, m, X):
        return 0.5 * m * lyapunov_solve(V, X)

    one = np.array([[1.0]])
    npt.assert_allclose(momentum(one, 2.0, np.zeros((1, 1))), 0.0)
    npt.assert_allclose(momentum(one, 2.0, np.array([[2.0]])), [[1.0]])
    npt.assert_allclose(momentum(np.eye(2), 2.0, 2.0 * np.eye(2)),
                        np.eye(2), atol=1e-14)


# -- hamiltonian and canonical flow -------------------------------------------

def scalar_state(V=1.0, m=1.0, P=1.0, xi=0.0):
    return GaussianCotangentState(V=np.array([[V]]), m=m, P=np.array([[P]]), xi=xi)


def test_hamiltonian_examples():
    assert hamiltonian(scalar_state(P=0.0, xi=0.0)) == 0.0
    assert hamiltonian(scalar_state()) == pytest.approx(2.0)
    assert hamiltonian(scalar_state(P=0.0, m=3.0, xi=2.0)) == pytest.approx(6.0)


def test_hamiltonian_is_half_metric_of_reconstructed_velocity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = rng.integers(1, 5)
        V = random_spd(rng, n)
        P = random_sym(rng, n)
        m = rng.uniform(0.5, 2.0)
        xi = rng.uniform(-1.0, 1.0)
        state = GaussianCotangentState(V=V, m=m, P=P, xi=xi)
        X = (2.0 / m) * (P @ V + V @ P)
        assert hamiltonian(state) == pytest.approx(
            0.5 * base_metric_eval(V, m, X, xi), rel=1e-12)


def test_hamiltonian_lower_bound_and_equality():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = rng.integers(1, 5)
        state = GaussianCotangentState(V=random_spd(rng, n),
                                       m=rng.uniform(0.2, 3.0),
                                       P=random_sym(rng, n),
                                       xi=rng.uniform(-2.0, 2.0))
        assert hamiltonian(state) >= 0.5 * state.m * state.xi**2
    zero_p = GaussianCotangentState(V=random_spd(rng, 3), m=1.3,
                                    P=np.zeros((3, 3)), xi=0.7)
    assert hamiltonian(zero_p) == 0.5 * 1.3 * 0.7**2


def geodesic_rhs(state):
    """(dV, dm, dP, dxi) of the canonical equations at one state."""
    n = state.n
    dy = _gauss_rhs(_pack_state(state, n), n)
    return (dy[:n * n].reshape(n, n), dy[-2], dy[n * n:2 * n * n].reshape(n, n), dy[-1])


def test_geodesic_rhs_trivial_and_radial():
    dV, dm, dP, dxi = geodesic_rhs(scalar_state(P=0.0, xi=0.0))
    npt.assert_allclose(dV, 0.0)
    assert dm == 0.0 and dxi == 0.0
    dV, dm, dP, dxi = geodesic_rhs(scalar_state(P=0.0, xi=2.0))
    assert dm == pytest.approx(2.0)
    assert dxi == pytest.approx(-2.0)
    npt.assert_allclose(dV, 0.0)
    npt.assert_allclose(dP, 0.0)


def test_geodesic_rhs_scalar_example():
    state = scalar_state()  # V=1, m=1, P=1, xi=0
    dV, dm, dP, dxi = geodesic_rhs(state)
    assert dV[0, 0] == pytest.approx(4.0)
    assert dm == 0.0
    assert dP[0, 0] == pytest.approx(-2.0)
    assert dxi == pytest.approx(2.0)
    # mddot = dxi*m + xi*dm must equal H
    assert dxi * state.m + state.xi * dm == pytest.approx(hamiltonian(state))


def test_geodesic_rhs_is_canonical_flow_of_hamiltonian():
    rng = np.random.default_rng(11)
    eps = 1e-6
    for _ in range(5):
        n = rng.integers(1, 5)
        V = random_spd(rng, n)
        P = random_sym(rng, n, scale=0.5)
        m = rng.uniform(0.5, 2.0)
        xi = rng.uniform(-1.0, 1.0)
        state = GaussianCotangentState(V=V, m=m, P=P, xi=xi)
        dV, dm, dP, dxi = geodesic_rhs(state)

        Z = random_sym(rng, n)
        hp = hamiltonian(GaussianCotangentState(V=V, m=m, P=P + eps * Z, xi=xi))
        hm = hamiltonian(GaussianCotangentState(V=V, m=m, P=P - eps * Z, xi=xi))
        assert (hp - hm) / (2 * eps) == pytest.approx(np.sum(dV * Z), abs=1e-6)

        W = random_sym(rng, n)
        hp = hamiltonian(GaussianCotangentState(V=V + eps * W, m=m, P=P, xi=xi))
        hm = hamiltonian(GaussianCotangentState(V=V - eps * W, m=m, P=P, xi=xi))
        assert (hp - hm) / (2 * eps) == pytest.approx(-np.sum(dP * W), abs=1e-6)

        hp = hamiltonian(GaussianCotangentState(V=V, m=m + eps, P=P, xi=xi))
        hm = hamiltonian(GaussianCotangentState(V=V, m=m - eps, P=P, xi=xi))
        assert (hp - hm) / (2 * eps) == pytest.approx(-dxi, abs=1e-6)

        hp = hamiltonian(GaussianCotangentState(V=V, m=m, P=P, xi=xi + eps))
        hm = hamiltonian(GaussianCotangentState(V=V, m=m, P=P, xi=xi - eps))
        assert (hp - hm) / (2 * eps) == pytest.approx(dm, abs=1e-6)


# -- integration --------------------------------------------------------------

def test_integrate_zero_momentum_constant():
    trace = integrate_geodesic(scalar_state(P=0.0, xi=0.0), dt=1e-2, steps=50)
    npt.assert_allclose(trace.column("m"), 1.0)
    npt.assert_allclose(trace.column("V_0_0"), 1.0)


def test_integrate_radial_closed_form():
    # P = 0, xi0 = 2, m0 = 1: m(t) = (1+t)^2, xi(t) = 2/(1+t)
    trace = integrate_geodesic(scalar_state(P=0.0, xi=2.0), dt=1e-3, steps=1000)
    t = trace.t
    assert abs(trace.column("m")[-1] - 4.0) <= 1e-8
    npt.assert_allclose(trace.column("m"), (1.0 + t) ** 2, atol=1e-8)
    npt.assert_allclose(trace.column("xi"), 2.0 / (1.0 + t), atol=1e-8)


def test_integrate_conserves_hamiltonian_random():
    rng = np.random.default_rng(5)
    for _ in range(4):
        n = rng.integers(1, 5)
        state = GaussianCotangentState(V=random_spd(rng, n),
                                       m=rng.uniform(0.5, 2.0),
                                       P=random_sym(rng, n, scale=0.3),
                                       xi=rng.uniform(-0.8, 0.8))
        trace = integrate_geodesic(state, dt=1e-3, steps=1000)
        assert relative_energy_drift(trace) <= 1e-8


@pytest.mark.parametrize("dt, error", [(1e-2, SpdError), (1e-1, MassError)],
                         ids=["spd-loss", "mass-loss"])
def test_integrate_post_step_failure_reports_step(dt, error):
    # P < 0 drives the covariance to the boundary of the SPD cone in finite
    # time; the post-step check of the step from k to k + 1 stamps k + 1, so
    # the run of step - 1 steps succeeds and the run of step steps fails
    state = scalar_state(P=-1.0, xi=0.0)
    with pytest.raises(error) as exc:
        integrate_geodesic(state, dt=dt, steps=400)
    step = exc.value.details["step"]
    trace = integrate_geodesic(state, dt=dt, steps=step - 1)
    assert trace.column("m")[-1] > 0.0 and trace.column("V_0_0")[-1] > 0.0
    with pytest.raises(error) as exc:
        integrate_geodesic(state, dt=dt, steps=step)
    assert exc.value.details["step"] == step


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_flows_equal_the_single_flows(n):
    # the stack runs the same RHS and hook with the matrix products broadcast
    # over its member axis: every member trace is the single-state trace
    rng = np.random.default_rng(30 + n)
    states = [GaussianCotangentState(V=random_spd(rng, n), m=rng.uniform(0.5, 2.0),
                                     P=random_sym(rng, n, scale=0.2),
                                     xi=rng.uniform(-0.8, 0.8)) for _ in range(5)]
    traces = integrate_geodesics(states, dt=1e-3, steps=300)
    assert len(traces) == 5
    for state, trace in zip(states, traces):
        single = integrate_geodesic(state, dt=1e-3, steps=300)
        assert trace.columns == single.columns
        assert np.array_equal(trace.data, single.data)


@pytest.mark.parametrize("dt, error", [(1e-2, SpdError), (1e-1, MassError)],
                         ids=["spd-loss", "mass-loss"])
def test_stacked_flow_failure_names_step_and_member(dt, error):
    # the failing state of test_integrate_post_step_failure_reports_step as
    # member 2 of a stack of healthy ones fails at its own step, also when
    # it runs padded to n = 3 next to n = 2 and n = 3 states
    bad = scalar_state(P=-1.0, xi=0.0)
    with pytest.raises(error) as exc:
        integrate_geodesic(bad, dt=dt, steps=400)
    step = exc.value.details["step"]
    assert "member" not in exc.value.details
    scalars = [scalar_state(P=0.1), scalar_state(P=0.0, xi=0.5), bad, scalar_state(P=0.2)]
    mixed = [GaussianCotangentState(V=np.eye(2), m=1.0, P=0.1 * np.eye(2), xi=0.0),
             GaussianCotangentState(V=np.eye(3), m=1.0, P=np.zeros((3, 3)), xi=0.5),
             bad,
             GaussianCotangentState(V=np.eye(2), m=1.0, P=0.2 * np.eye(2), xi=0.0)]
    for stack in (scalars, mixed):
        with pytest.raises(error) as exc:
            integrate_geodesics(stack, dt=dt, steps=400)
        assert exc.value.details["step"] == step
        assert exc.value.details["member"] == 2


def test_padded_member_fails_only_through_its_own_block():
    # the hook's Cholesky check of diag(V, I) fails exactly when that of V
    # does: a non-SPD block is named as its member, and the padded identity
    # of a healthy member never fails on its own
    tiny = scalar_state(V=1e-300, P=0.0)  # SPD, far below its padded identity
    broken = GaussianCotangentState(V=np.diag([1.0, -1.0]), m=1.0,
                                    P=np.zeros((2, 2)), xi=0.0)
    y = np.stack([gaussian._pack_state(s, 3) for s in (tiny, broken, scalar_state())])
    with pytest.raises(SpdError) as exc:
        gaussian._project(y.copy(), 3)
    assert exc.value.details == {"member": 1}
    gaussian._project(np.delete(y, 1, axis=0), 3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is expected
def test_stacked_flow_non_finite_names_member():
    # xi = 1e300 overflows xi^2 in the first stage of member 1
    stack = [scalar_state(P=0.1), scalar_state(P=0.0, xi=1e300)]
    with pytest.raises(NonFiniteError) as exc:
        integrate_geodesics(stack, dt=1e-3, steps=10)
    assert exc.value.details == {"member": 1, "step": 1}


def test_mixed_size_stack_equals_the_single_flows():
    # each state runs padded to the largest n as diag(V, I), diag(P, 0);
    # sizes up to 9 give rows of more than 8 entries, where a pairwise sum
    # of tr(V P^2) would regroup its terms around the padded zeros
    rng = np.random.default_rng(40)
    sizes = [1, 9, 3, 2, 8, 4, 1, 5, 7, 6, 3, 9]
    states = [GaussianCotangentState(V=random_spd(rng, n), m=rng.uniform(0.5, 2.0),
                                     P=random_sym(rng, n, scale=0.2),
                                     xi=rng.uniform(-0.8, 0.8)) for n in sizes]
    traces = integrate_geodesics(states, dt=1e-3, steps=300)
    assert len(traces) == len(states)
    for state, trace in zip(states, traces):
        single = integrate_geodesic(state, dt=1e-3, steps=300)
        assert trace.columns == single.columns
        assert np.array_equal(trace.data, single.data)


def test_mass_is_quadratic_with_leading_coefficient_H_over_2():
    rng = np.random.default_rng(6)
    state = GaussianCotangentState(V=random_spd(rng, 3), m=1.2,
                                   P=random_sym(rng, 3, scale=0.3), xi=0.4)
    trace = integrate_geodesic(state, dt=1e-3, steps=1000)
    fit = mass_quadratic_fit(trace)
    H0 = trace.column("H")[0]
    assert abs(fit["leading"] - 0.5 * H0) <= 1e-8
    assert fit["rms_residual"] <= 1e-8
    m = trace.column("m")
    acc = (m[2:] - 2.0 * m[1:-1] + m[:-2]) / 1e-3**2
    assert np.max(np.abs(acc - H0)) <= 1e-6


# -- mccann -------------------------------------------------------------------

def test_mccann_equal_endpoints_constant():
    rng = np.random.default_rng(8)
    V = random_spd(rng, 3)
    for t in np.linspace(0.0, 1.0, 5):
        npt.assert_allclose(mccann_geodesic(V, V, t), V, atol=1e-13)


def test_mccann_scalar_midpoint():
    U = np.array([[1.0]])
    V = np.array([[4.0]])
    # T = 1/2, W(t) = 4 (1 - t/2)^2
    assert mccann_geodesic(U, V, 0.5)[0, 0] == pytest.approx(2.25)
    for t in np.linspace(0.0, 1.0, 7):
        assert mccann_geodesic(U, V, t)[0, 0] == pytest.approx(4.0 * (1 - t / 2) ** 2)


def test_mccann_endpoints_random():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = rng.integers(1, 5)
        U = random_spd(rng, n)
        V = random_spd(rng, n)
        npt.assert_allclose(mccann_geodesic(U, V, 0.0), V, atol=1e-12)
        assert np.linalg.norm(mccann_geodesic(U, V, 1.0) - U) <= 1e-12


def test_mccann_time_reversal():
    rng = np.random.default_rng(10)
    for _ in range(5):
        n = rng.integers(1, 5)
        U = random_spd(rng, n)
        V = random_spd(rng, n)
        for t in (0.25, 0.5, 0.75):
            assert np.linalg.norm(mccann_geodesic(V, U, 1.0 - t)
                                  - mccann_geodesic(U, V, t)) <= 1e-12


def test_mccann_stays_spd():
    rng = np.random.default_rng(12)
    U = random_spd(rng, 4)
    V = random_spd(rng, 4)
    for t in np.linspace(0.0, 1.0, 9):
        lam = np.linalg.eigvalsh(mccann_geodesic(U, V, t))
        assert lam[0] > 0.0


# -- shooting -----------------------------------------------------------------

def test_shoot_equal_endpoints_trivial():
    rng = np.random.default_rng(13)
    V = random_spd(rng, 2)
    P0, xi0, _, _ = shoot_bvp(V, 1.5, V, 1.5, tol=1e-8)
    npt.assert_allclose(P0, 0.0, atol=1e-8)
    assert abs(xi0) <= 1e-8


def test_shoot_pure_scaling_case():
    one = np.array([[1.0]])
    P0, xi0, _, _ = shoot_bvp(one, 1.0, one, 4.0, tol=1e-10)
    assert abs(xi0 - 2.0) <= 1e-8
    assert abs(P0[0, 0]) <= 1e-8


def test_shoot_scalar_closed_form_oracle():
    # equal masses, covariance 1 -> 4: the (sqrt(V), m) pair moves on a flat
    # plane; compare the solver's trace (dt = 1e-3) against the exact chord
    one = np.array([[1.0]])
    four = np.array([[4.0]])
    _, _, trace, _ = shoot_bvp(one, 1.0, four, 1.0, tol=1e-10)
    t = trace.t
    assert t.size == 1001 and t[-1] == pytest.approx(1.0, abs=1e-12)
    m_exact = polar_mass_curve(1.0, 1.0, np.sqrt(4.0) - np.sqrt(1.0), t)
    V_exact = polar_scalar_covariance_curve(1.0, 4.0, 1.0, 1.0, t)
    assert np.max(np.abs(trace.column("m") - m_exact)) <= 1e-6
    assert np.max(np.abs(trace.column("V_0_0") - V_exact)) <= 1e-6
    # strict interior mass dip below both endpoints
    assert np.min(trace.column("m")) < 1.0
    assert np.min(trace.column("m")) == pytest.approx(0.5 + 0.5 * np.cos(0.5), abs=1e-5)


def test_trace_energy_column_matches_rowwise_hamiltonian():
    # the whole-array H column against hamiltonian() row by row; the
    # arithmetic order may differ, so a few units of roundoff are allowed
    rng = np.random.default_rng(23)
    state = GaussianCotangentState(V=random_spd(rng, 3), m=1.2,
                                   P=random_sym(rng, 3, scale=0.2), xi=0.4)
    trace = integrate_geodesic(state, dt=1e-3, steps=200)
    V, P = trace.block("V_"), trace.block("P_")
    ref = [hamiltonian(GaussianCotangentState(V=v.reshape(3, 3), m=row[1],
                                              P=p.reshape(3, 3), xi=row[2]))
           for row, v, p in zip(trace.data, V, P)]
    npt.assert_allclose(trace.column("H"), ref, rtol=16 * np.finfo(float).eps, atol=0.0)


def test_shoot_random_n2_endpoints():
    rng = np.random.default_rng(14)
    for _ in range(3):
        S0 = random_spd(rng, 2)
        S1 = random_spd(rng, 2)
        m0 = rng.uniform(0.5, 2.0)
        m1 = rng.uniform(0.5, 2.0)
        P0, xi0, trace, _ = shoot_bvp(S0, m0, S1, m1, tol=1e-8)
        npt.assert_array_equal(trace.data[0, 2], xi0)
        npt.assert_array_equal(trace.block("P_")[0], P0.ravel())
        V1 = trace.data[-1, 4:8].reshape(2, 2)
        err = np.linalg.norm(V1 - S1) + abs(trace.column("m")[-1] - m1)
        assert err <= 1e-6


def test_shoot_is_the_zero_mean_connection():
    # the zero means add exact zeros to the two-point solve and the ray, so
    # the initial data keep their bits
    rng = np.random.default_rng(26)
    for n in (1, 2, 3):
        S0, S1 = random_spd(rng, n), random_spd(rng, n)
        m0, m1 = rng.uniform(0.5, 2.0, size=2)
        P0, xi0, _, residual = shoot_bvp(S0, m0, S1, m1)
        conn = connect_affine(AffineGaussian(Sigma=S0, mean=np.zeros(n), m=m0),
                              AffineGaussian(Sigma=S1, mean=np.zeros(n), m=m1))
        npt.assert_array_equal(P0, conn.P0)
        assert xi0 == conn.xi0
        assert residual == conn.residual
        npt.assert_array_equal(conn.v0, 0.0)


def test_shoot_trace_rows_lie_on_the_cone_line():
    # every row of the solver's trace is the two-point path: mass m(t) and
    # covariance on the balanced curve at the base-arc fraction s(t)
    rng = np.random.default_rng(21)
    S0 = random_spd(rng, 2)
    S1 = random_spd(rng, 2)
    m0, m1 = rng.uniform(0.5, 2.0, size=2)
    _, _, trace, _ = shoot_bvp(S0, m0, S1, m1)
    m, s = cone_line(m0, m1, 0.5 * np.sqrt(bures_sq(S0, S1)), trace.t)
    V = np.array([mccann_geodesic(S1, S0, sk).ravel() for sk in s])
    npt.assert_allclose(trace.block("V_"), V, rtol=0.0, atol=1e-10)
    npt.assert_allclose(trace.column("m"), m, rtol=0.0, atol=1e-10)


def test_geodesic_ray_matches_the_rk4_flow():
    # the closed form against the canonical flow, every column of every row;
    # the initial row is the initial state itself
    rng = np.random.default_rng(24)
    for n in (1, 2, 3, 4):
        state = GaussianCotangentState(V=random_spd(rng, n), m=rng.uniform(0.5, 2.0),
                                       P=random_sym(rng, n, scale=0.2),
                                       xi=rng.uniform(-0.8, 0.8))
        ray = geodesic_ray(state, dt=1e-3, steps=1000)
        flow = integrate_geodesic(state, dt=1e-3, steps=1000)
        assert ray.columns == flow.columns
        npt.assert_array_equal(ray.data[0], flow.data[0])
        npt.assert_allclose(ray.data, flow.data, rtol=1e-10, atol=1e-10)


def test_geodesic_ray_spd_loss_reports_the_first_time():
    # S0 = -2: C = 1 - 2 sigma vanishes at sigma = atan(t) = 1/2
    with pytest.raises(SpdError) as exc:
        geodesic_ray(scalar_state(P=-1.0, xi=0.0), dt=1e-2, steps=100)
    assert exc.value.details["step"] == int(np.ceil(np.tan(0.5) / 1e-2))


def test_ray_of_the_two_point_data_is_the_cone_line():
    # the ray from (P0, xi0) alone runs along the line of the two-point
    # solve: the same mass, sigma(t) / sigma(1) is the base-arc fraction,
    # and sigma(1) = 1 / sdot0
    rng = np.random.default_rng(25)
    t = np.linspace(0.0, 1.0, 101)
    for n in (1, 2, 3):
        S0, S1 = random_spd(rng, n), random_spd(rng, n)
        m0, m1 = rng.uniform(0.5, 2.0, size=2)
        P0, xi0, _, _ = shoot_bvp(S0, m0, S1, m1)
        theta = 0.5 * np.sqrt(bures_sq(S0, S1))
        xi0_line, sdot0 = cone_line_start(m0, m1, theta)
        assert xi0 == pytest.approx(xi0_line, rel=1e-12)
        S = 2.0 * P0 / m0
        m_ray, sigma = cone_ray(m0, xi0, 0.5 * np.sqrt(np.sum((S0 @ S) * S)), t)
        m_line, s = cone_line(m0, m1, theta, t)
        npt.assert_allclose(m_ray, m_line, rtol=1e-13, atol=0.0)
        npt.assert_allclose(sigma / sigma[-1], s, rtol=0.0, atol=1e-13)
        assert sigma[-1] == pytest.approx(1.0 / sdot0, rel=1e-13)


def test_affine_mean_is_the_ray_mean():
    # with means the ray's angular speed includes |v0|^2 / 4, and the mean
    # b0 + sigma(t) v0 is the mean of the closed-form path
    g0, g1 = roadmap_pair()
    conn = connect_affine(g0, g1)
    S = 2.0 * conn.P0 / g0.m
    omega0 = 0.5 * np.sqrt(np.sum((g0.Sigma @ S) * S) + conn.v0 @ conn.v0)
    ts = np.linspace(0.0, 1.0, 11)
    m, sigma = cone_ray(g0.m, conn.xi0, omega0, ts)
    for t, mk, sk in zip(ts, m, sigma):
        out = conn.at(t)
        npt.assert_allclose(out.mean, g0.mean + sk * conn.v0, rtol=0.0, atol=1e-13)
        assert out.m == pytest.approx(mk, rel=1e-13)


def test_shoot_equal_mass_dip():
    rng = np.random.default_rng(15)
    S0 = random_spd(rng, 2)
    S1 = random_spd(rng, 2)
    _, _, trace, _ = shoot_bvp(S0, 1.0, S1, 1.0, tol=1e-8)
    assert np.min(trace.column("m")) < 1.0


def test_two_point_apex_crossing_is_typed():
    # scalar covariances 1 -> (1 + 2 pi)^2 are W2 = 2 pi apart, so the cone
    # angle is theta = pi and the straight line runs through the apex; the
    # same angle from a mean shift of 2 pi in the affine extension
    one = np.array([[1.0]])
    with pytest.raises(ApexCrossingError) as exc:
        shoot_bvp(one, 1.0, np.array([[(1.0 + 2.0 * np.pi) ** 2]]), 1.0)
    assert exc.value.details["theta"] == pytest.approx(np.pi, abs=1e-12)
    g0 = AffineGaussian(Sigma=one, mean=np.zeros(1), m=1.0)
    g1 = AffineGaussian(Sigma=one, mean=np.array([2.0 * np.pi]), m=2.0)
    with pytest.raises(ApexCrossingError) as exc:
        connect_affine(g0, g1)
    assert exc.value.details["theta"] == pytest.approx(np.pi, abs=1e-12)


def test_covariance_path_lies_on_mccann_curve():
    # projection property: with matched arc length the covariance component
    # of the conical geodesic reproduces the balanced interpolation curve
    one = np.array([[1.0]])
    four = np.array([[4.0]])
    _, _, trace, _ = shoot_bvp(one, 1.0, four, 1.0, tol=1e-10)
    V = trace.column("V_0_0")
    # arc length in the balanced metric: |d sqrt(V)| for scalars
    s = np.abs(np.sqrt(V) - 1.0) / abs(np.sqrt(V[-1]) - 1.0)
    expected = np.array([mccann_geodesic(four, one, si)[0, 0] for si in s])
    assert np.max(np.abs(V - expected)) <= 1e-5


@pytest.mark.parametrize("theta, m", [
    (1e-8, 2.0),              # the angle of covariances 1 -> (1 + 2e-8)^2
    (5.4e-18, 2.3e-248),      # of 2.3e-248 -> 1.15e-34, between tiny masses
], ids=["small-angle", "tiny-masses"])
def test_two_point_xi0_keeps_its_relative_accuracy(theta, m):
    # with m0 = m1 = m, xi0 = 2 (cos(theta) - 1) = -4 sin^2(theta / 2), which
    # the form 2 (sqrt(m0 m1) cos(theta) - m0) / m0 loses to cancellation
    xi0, _ = cone_line_start(m, m, theta)
    assert xi0 == pytest.approx(-4.0 * np.sin(0.5 * theta) ** 2, rel=1e-14, abs=0.0)


def test_hamiltonian_of_tiny_states_does_not_underflow():
    # tr(V P^2) ~ 1e-528 underflows, but H = 2 tr(V P^2) / m is a normal
    # number: the final state of the tiny-mass two-point geodesic
    m, V, P = 2.3e-248, 1.15e-34, -1.1e-247
    expected = 2.0 * V * (P / m) * P
    assert expected > 1e-300
    H = hamiltonian(scalar_state(V=V, m=m, P=P))
    assert H == pytest.approx(expected, rel=1e-14, abs=0.0)


# -- cone over the SPD base ---------------------------------------------------

def test_gaussian_flow_matches_cone_over_spd_base():
    # the (V, m) flow is the cone over Sym_+ with base metric scaled by 1/4
    # and radial coordinate alpha = 2 sqrt(m)
    rng = np.random.default_rng(16)
    n = 2
    V0 = random_spd(rng, n)
    P0 = random_sym(rng, n, scale=0.2)
    m0, xi0 = 1.3, 0.3
    state = GaussianCotangentState(V=V0, m=m0, P=P0, xi=xi0)
    trace = integrate_geodesic(state, dt=1e-3, steps=500)

    X0 = (2.0 / m0) * (P0 @ V0 + V0 @ P0)
    alpha0 = 2.0 * np.sqrt(m0)
    alphadot0 = xi0 * np.sqrt(m0)  # d(2 sqrt m)/dt = mdot/sqrt(m) ... /1
    cone_state = ConeState(q=V0.ravel(), q_dot=X0.ravel(),
                           alpha=alpha0, alpha_dot=alphadot0)
    base = scaled_base(spd_base(n), 0.25)
    cone_trace = integrate_cone(cone_state, ConeProblem(p=1.0, dt=1e-3, steps=500), base)

    m_cone = cone_trace.column("alpha") ** 2 / 4.0
    npt.assert_allclose(trace.column("m"), m_cone, atol=1e-8)
    V_cone = cone_trace.block("q")[:, : n * n]
    V_ham = trace.block("V_")
    assert np.max(np.abs(V_cone - V_ham)) <= 1e-7


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cone_over_spd_base_matches_the_ray(n):
    # the closed form of the Gaussian flow is an oracle for the cone flow over
    # the SPD base: alpha = 2 sqrt(m), alphadot = xi sqrt(m), qdot = Xdot
    rng = np.random.default_rng(40 + n)
    V0 = random_spd(rng, n)
    P0 = random_sym(rng, n, scale=0.4)
    m0, xi0 = 1.3, 0.3
    ray = geodesic_ray(GaussianCotangentState(V=V0, m=m0, P=P0, xi=xi0),
                       dt=1e-3, steps=1000)
    X0 = (2.0 / m0) * (P0 @ V0 + V0 @ P0)
    state = ConeState(q=V0.ravel(), q_dot=X0.ravel(), alpha=2.0 * np.sqrt(m0),
                      alpha_dot=xi0 * np.sqrt(m0))
    trace = integrate_cone(state, ConeProblem(p=1.0, dt=1e-3, steps=1000),
                           scaled_base(spd_base(n), 0.25))
    npt.assert_allclose(trace.column("alpha") ** 2 / 4.0, ray.column("m"),
                        rtol=1e-10, atol=0.0)
    npt.assert_allclose(trace.block("q")[:, :n * n], ray.block("V_"),
                        rtol=0.0, atol=1e-10)


def test_spd_base_exp_is_the_balanced_geodesic():
    # speed sqrt(tr(S X) / 2), with S the solution of X = SV + VS; along the
    # arcs the curve has unit speed and solves the geodesic equation
    # Vddot = 2 T V T, T the representer of its velocity at V(s)
    rng = np.random.default_rng(17)
    n = 3
    V = random_spd(rng, n)
    X = random_sym(rng, n)
    S = lyapunov_solve(V, X)
    base = spd_base(n)
    speed = base.speed(V.ravel(), X.ravel())
    assert speed**2 == pytest.approx(0.5 * np.sum(S * X), rel=1e-14)
    s = np.array([0.0, 0.05, 0.1, 0.2])
    q, u = base.exp(V.ravel(), X.ravel(), s)
    assert q.shape == u.shape == (4, n * n)
    assert np.array_equal(q[0], V.ravel())
    npt.assert_allclose(u[0], X.ravel() / speed, rtol=1e-13, atol=1e-15)
    Su = S / speed
    for Vs, U in zip(q.reshape(4, n, n), u.reshape(4, n, n)):
        T = lyapunov_solve(Vs, U)
        assert 0.5 * np.sum(T * U) == pytest.approx(1.0, rel=1e-14)
        npt.assert_allclose(2.0 * T @ Vs @ T, 2.0 * Su @ V @ Su, rtol=1e-13, atol=1e-15)


def test_spd_base_exp_stops_at_the_boundary():
    with pytest.raises(SpdError) as exc:
        spd_base(2).speed(np.array([1.0, 0.0, 0.0, -0.5]), np.zeros(4))
    assert exc.value.details["min_eigenvalue"] == -0.5
    # X = diag(-2, 1) at V = I: S = diag(-1, 1/2) / |X| with |X|^2 = 5/4, so
    # the arc s* = sqrt(5/4) makes C = I + s S singular; the first arc at or
    # beyond it names its index and the smallest eigenvalue of its C
    s = np.array([0.0, 0.5, 1.0, 1.2, 1.5])
    with pytest.raises(SpdError) as exc:
        spd_base(2).exp(np.eye(2).ravel(), np.diag([-2.0, 1.0]).ravel(), s)
    assert exc.value.details["step"] == 3
    assert exc.value.details["min_eigenvalue"] == pytest.approx(1.0 - 1.2 / np.sqrt(1.25),
                                                                rel=1e-14)


# -- affine extension ---------------------------------------------------------

def test_affine_equal_endpoints_constant():
    g = AffineGaussian(Sigma=np.eye(2), mean=np.zeros(2), m=1.0)
    conn = connect_affine(g, g, tol=1e-8)
    for t in (0.0, 0.4, 1.0):
        out = conn.at(t)
        npt.assert_allclose(out.Sigma, np.eye(2), atol=1e-8)
        npt.assert_allclose(out.mean, 0.0, atol=1e-12)
        assert out.m == pytest.approx(1.0, abs=1e-8)


def test_affine_mean_shift_mass_dip():
    # equal covariances and masses, means 0 and e1: the mean motion carries
    # kinetic energy, so the mass follows the flat-plane chord with angular
    # gap |b1 - b0| / 2 while the covariance stays put
    # and the mean moves at the rate of the cone angle, by the base-arc
    # fraction s(t)
    g0 = AffineGaussian(Sigma=np.eye(2), mean=np.zeros(2), m=1.0)
    g1 = AffineGaussian(Sigma=np.eye(2), mean=np.array([1.0, 0.0]), m=1.0)
    conn = connect_affine(g0, g1, tol=1e-10)
    ts = np.linspace(0.0, 1.0, 11)
    m_exact = polar_mass_curve(1.0, 1.0, 1.0, ts)
    _, s = cone_line(1.0, 1.0, 0.5, ts)
    for t, me, st in zip(ts, m_exact, s):
        out = conn.at(t)
        npt.assert_allclose(out.mean, st * np.array([1.0, 0.0]), atol=1e-12)
        npt.assert_allclose(out.Sigma, np.eye(2), atol=1e-6)
        assert out.m == pytest.approx(me, abs=1e-6)


def test_affine_mean_midpoint():
    g0 = AffineGaussian(Sigma=np.eye(2), mean=np.array([0.2, -0.4]), m=1.0)
    g1 = AffineGaussian(Sigma=2.0 * np.eye(2), mean=np.array([1.0, 0.6]), m=2.0)
    conn = connect_affine(g0, g1, tol=1e-8)
    mid = conn.at(0.5)
    shift = g1.mean - g0.mean
    theta = 0.5 * np.sqrt(bures_sq(g0.Sigma, g1.Sigma) + shift @ shift)
    _, s = cone_line(1.0, 2.0, theta, 0.5)
    npt.assert_allclose(mid.mean, g0.mean + s * shift, atol=1e-12)


def affine_rhs(y, n):
    """The canonical flow of the affine model, the definition the closed form
    is tested against.  Layout: V (n^2), P (n^2), b (n), pb (n), m, xi.
    (V, P, m, xi) follow the Gaussian flow, whose dxi gains the mean term
    |pb|^2 / (2 m^2); the mean momentum pb is conserved."""
    nn = n * n
    gauss = gaussian._gauss_rhs(np.concatenate([y[:2 * nn], y[-2:]]), n)
    pb = y[2 * nn + n:2 * nn + 2 * n]
    m = y[-2]
    out = np.zeros_like(y)
    out[:2 * nn] = gauss[:-2]
    out[2 * nn:2 * nn + n] = pb / m
    out[-2] = gauss[-2]
    out[-1] = gauss[-1] + 0.5 * (pb @ pb) / m**2
    return out


def roadmap_pair():
    return (AffineGaussian(Sigma=np.eye(2), mean=np.zeros(2), m=1.0),
            AffineGaussian(Sigma=2.0 * np.eye(2), mean=np.array([1.0, 0.5]), m=3.0))


@pytest.mark.parametrize("scale", [*10.0 ** np.arange(-12, 13, 3), 1e-200, 1e-250, 1e-300])
def test_landing_check_is_scale_free(scale, monkeypatch):
    # covariances and masses times scale, means times sqrt(scale): the exact
    # pair lands at every scale, and a landing that misses by a relative
    # 1e-6 in any one part is refused at every scale.  The cone angle grows
    # as sqrt(scale), so the endpoints differ by a relative 1e-6 (theta 0.4
    # at scale 1e12).  At 1e-200 the squares of the entries underflow.  The
    # mean velocity sdot0 (b1 - b0) carries no power of the mass, so the
    # means land at 1e-300 too.
    Sigma0 = np.array([[2.0, 0.3], [0.3, 1.0]])
    Sigma1 = Sigma0 + [[0.0, 0.0], [0.0, 1e-6]]
    b1 = np.array([1e-6, -5e-7])
    g0 = AffineGaussian(Sigma=scale * Sigma0, mean=np.zeros(2), m=scale)
    g1 = AffineGaussian(Sigma=scale * Sigma1, mean=np.sqrt(scale) * b1, m=1.5 * scale)
    connect_affine(g0, g1, tol=1e-8)
    at = gaussian.AffineConnection.at
    mean_scale = np.sqrt(scale) * (np.sqrt(np.linalg.norm(Sigma1)) + np.linalg.norm(b1))
    misses = [lambda end: (end.Sigma * (1.0 + 1e-6), end.mean, end.m),
              lambda end: (end.Sigma, end.mean + [1e-6 * mean_scale, 0.0], end.m),
              lambda end: (end.Sigma, end.mean, end.m * (1.0 + 1e-6))]
    for miss in misses:
        monkeypatch.setattr(gaussian.AffineConnection, "at",
                            lambda self, t, miss=miss: AffineGaussian(*miss(at(self, t))))
        with pytest.raises(ShootingError) as exc:
            connect_affine(g0, g1, tol=1e-8)
        assert exc.value.details["residual"] == pytest.approx(1e-6, rel=1e-3)


def test_non_finite_landing_is_refused(monkeypatch):
    # a ray end that is not finite reads a NaN residual, which compares
    # false with tol either way: it is refused as non-finite
    at = gaussian.AffineConnection.at
    monkeypatch.setattr(gaussian.AffineConnection, "at", lambda self, t: AffineGaussian(
        Sigma=np.full((2, 2), np.nan), mean=at(self, t).mean, m=at(self, t).m))
    with pytest.raises(NonFiniteError) as exc:
        connect_affine(*roadmap_pair())
    assert np.isnan(exc.value.details["residual"])


@pytest.mark.parametrize("scale", [1e-250, 1e-300])
def test_zero_mean_pair_lands_at_tiny_masses_and_angle(scale):
    # covariances and masses times scale: the cone angle, about 6e-157 at
    # 1e-300, times sqrt(m0 m1) underflows, so the solve must not form that
    # product
    Sigma0 = np.array([[2.0, 0.3], [0.3, 1.0]])
    Sigma1 = Sigma0 + [[0.0, 0.0], [0.0, 1e-6]]
    P0, xi0, trace, residual = shoot_bvp(scale * Sigma0, scale, scale * Sigma1, 1.5 * scale)
    assert residual <= 1e-12
    assert np.all(P0 != 0.0)


def test_landing_check_is_relative_at_large_entries():
    # entries near 1e8 land about 7e-8 off in absolute terms, 4e-16 of
    # |Sigma1|: within the relative tol
    Sigma0 = np.array([[2e8, 3e7], [3e7, 1e8]])
    Sigma1 = np.array([[2e8, 3e7], [3e7, 1.0000000001e8]])
    P0, xi0, trace, _ = shoot_bvp(Sigma0, 1.0, Sigma1, 1.5, tol=1e-8)
    npt.assert_allclose(trace.data[-1, 4:8].reshape(2, 2), Sigma1, rtol=1e-12)


def test_affine_at_matches_the_recorded_flow():
    # the closed form of at() against the canonical flow from the solved
    # initial data, recorded by the shared RK4 driver at dt = 1e-3
    rng = np.random.default_rng(22)
    pairs = [roadmap_pair()]
    for n in (1, 2, 3):
        pairs.append(tuple(AffineGaussian(Sigma=random_spd(rng, n),
                                          mean=rng.uniform(-0.5, 0.5, size=n),
                                          m=float(rng.uniform(0.5, 2.0)))
                           for _ in range(2)))
    for g0, g1 in pairs:
        conn = connect_affine(g0, g1)
        n = g0.Sigma.shape[0]
        nn = n * n
        states = np.empty((1001, 2 * nn + 2 * n + 2))
        states[0] = np.concatenate([g0.Sigma.ravel(), conn.P0.ravel(), g0.mean,
                                    g0.m * conn.v0, [g0.m, conn.xi0]])
        _rk4(lambda y: affine_rhs(y, n),
             lambda y: gaussian._project(y, n), states, 1e-3)
        for k in range(0, 1001, 50):
            out = conn.at(k / 1000)
            y = states[k]
            npt.assert_allclose(out.Sigma.ravel(), y[:nn], rtol=0.0, atol=1e-10)
            npt.assert_allclose(out.mean, y[2 * nn:2 * nn + n], rtol=0.0, atol=1e-10)
            assert out.m == pytest.approx(y[-2], rel=0.0, abs=1e-10)
    mid = connect_affine(*roadmap_pair()).at(0.5)
    npt.assert_allclose(mid.mean, [0.638, 0.319], atol=5e-4)


def test_affine_at_runs_no_flow(monkeypatch):
    # at() reads the ray of the solved data: neither an RK4 flow nor a
    # second two-point solve runs
    g0, g1 = roadmap_pair()
    conn = connect_affine(g0, g1)

    def forbidden(*args):
        raise AssertionError("an RK4 flow or a two-point solve ran")

    for name in ("_rk4", "cone_line_start", "_mccann_map"):
        monkeypatch.setattr(gaussian, name, forbidden)
    ts = np.linspace(0.0, 1.0, 101)
    m = [conn.at(t).m for t in ts]
    gap = np.sqrt(bures_sq(g0.Sigma, g1.Sigma) + 1.25)
    npt.assert_allclose(m, polar_mass_curve(1.0, 3.0, gap, ts), rtol=0.0, atol=1e-12)


# -- submersion consistency ---------------------------------------------------

def test_submersion_zero_vector():
    g, b = submersion_consistency(np.eye(2), 1.0, np.zeros((2, 2)), 0.0, np.eye(2))
    assert g == 0.0 and b == 0.0


def test_submersion_scalar_example():
    one = np.array([[1.0]])
    for m in (1.0, 2.5):
        g, b = submersion_consistency(one, m, one, 0.0, one)
        assert g == pytest.approx(m)
        assert b == pytest.approx(m)


def test_submersion_agreement_random():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = rng.integers(1, 5)
        A = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        Sigma = random_spd(rng, n)
        S = random_sym(rng, n)
        m = rng.uniform(0.3, 2.0)
        xi = rng.uniform(-1.0, 1.0)
        g, b = submersion_consistency(A, m, S, xi, Sigma)
        assert abs(g - b) <= 1e-10 * max(1.0, abs(g))


def test_vertical_perturbations_increase_group_value_only():
    rng = np.random.default_rng(18)
    n = 3
    A = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
    Sigma = random_spd(rng, n)
    S = random_sym(rng, n)
    m, xi = 1.2, 0.5
    Vbase = 0.5 * ((A @ Sigma @ A.T) + (A @ Sigma @ A.T).T)
    group_value, base_value = submersion_consistency(A, m, S, xi, Sigma)
    for _ in range(5):
        Omega = rng.normal(size=(n, n))
        Omega = Omega - Omega.T  # antisymmetric
        Z = Omega @ np.linalg.inv(Vbase)  # Z Vbase is antisymmetric -> vertical
        lifted = (S + Z) @ A
        perturbed = group_metric_eval(A, m, lifted, xi * m, Sigma)
        # the projection is unchanged by the vertical part
        X = (S + Z) @ Vbase + Vbase @ (S + Z).T
        npt.assert_allclose(X, S @ Vbase + Vbase @ S, atol=1e-10)
        assert perturbed > group_value + 1e-10
