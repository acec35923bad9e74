import gc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from uotcone import pde
from uotcone.cone import cone_line
from uotcone.config import MIN_GRID
from uotcone.errors import (MassError, NonFiniteError, PositivityError,
                            SingularSystemError, StepGuardError)
from uotcone.pde import (Grid1D, PdeState, _dminus, _dplus, _flow, _half,
                         _mean, fisher_rao_cone_geodesic,
                         gdiv_metric_eval, hamiltonian_small, hamiltonian_wfr,
                         integrate_pde, integrate_pdes, small_metric_eval,
                         small_rhs, solve_potential, total_mass, xi_of)
from uotcone.trace import mass_quadratic_fit, relative_energy_drift

TWO_PI = 2.0 * np.pi


def uniform_state(n=64, theta_value=0.0):
    grid = Grid1D(n=n)
    return PdeState(grid, np.ones(n), np.full(n, theta_value))


def lam_h(h):
    """Symbol of the periodic 3-point Laplacian on the first Fourier mode."""
    return (2.0 - 2.0 * np.cos(h)) / h**2


# -- quadrature and xi --------------------------------------------------------

def test_total_mass_uniform():
    grid = Grid1D(n=128)
    assert total_mass(grid, np.ones(128)) == pytest.approx(TWO_PI, abs=1e-14)


def test_total_mass_rejects_nonpositive():
    grid = Grid1D(n=16)
    rho = np.ones(16)
    rho[3] = 0.0
    with pytest.raises(PositivityError):
        total_mass(grid, rho)


def test_total_mass_of_a_stack_is_rowwise():
    grid = Grid1D(n=16)
    rho = 1.0 + np.random.default_rng(27).uniform(size=(5, 16))
    m = total_mass(grid, rho)
    assert m.shape == (5,)
    assert np.array_equal(m, [total_mass(grid, row) for row in rho])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_total_mass_overflow_is_non_finite():
    # finite densities whose mass h sum(rho) overflows
    with pytest.raises(NonFiniteError):
        total_mass(Grid1D(n=8, length=1e308), np.full(8, 1e10))
    with pytest.raises(NonFiniteError):
        total_mass(Grid1D(n=8), np.full(8, 1e308))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is expected
def test_hamiltonian_small_overflow_is_non_finite():
    # a single state: the square of the pairing int theta rho overflows
    grid = Grid1D(n=8)
    with pytest.raises(NonFiniteError):
        hamiltonian_small(PdeState(grid, np.ones(8), np.full(8, 1e200)))


def test_xi_constant_theta():
    state = uniform_state(theta_value=1.7)
    assert xi_of(state) == pytest.approx(1.7, abs=1e-14)


def test_list_fields_read_as_the_validated_state():
    # the fields become float arrays when the state is made, so every reader
    # sees plain lists as the validated state's arrays
    state = PdeState(Grid1D(8), [1.0] * 8, [0.5] * 8)
    valid = state.validate()
    for energy in (xi_of, hamiltonian_small, hamiltonian_wfr):
        assert energy(state) == energy(valid)
    assert hamiltonian_small(state) == 0.7853981633974483
    assert xi_of(state) == 0.5


def test_xi_sine_theta_is_zero():
    grid = Grid1D(n=64)
    state = PdeState(grid, np.ones(64), np.sin(grid.x))
    assert xi_of(state) == pytest.approx(0.0, abs=1e-14)


# -- hamiltonians -------------------------------------------------------------

def test_hamiltonian_small_zero():
    assert hamiltonian_small(uniform_state()) == 0.0


def test_hamiltonian_small_uniform_scaling():
    # only the mass term: (1/2m) m^2 = m/2 = pi
    assert hamiltonian_small(uniform_state(theta_value=1.0)) == pytest.approx(np.pi)


def test_hamiltonian_small_sine_second_order():
    errs = []
    for n in (64, 128):
        grid = Grid1D(n=n)
        state = PdeState(grid, np.ones(n), np.sin(grid.x))
        errs.append(abs(hamiltonian_small(state) - np.pi / 2))
    assert errs[1] < errs[0]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


def test_hamiltonian_wfr_values():
    assert hamiltonian_wfr(uniform_state()) == 0.0
    assert hamiltonian_wfr(uniform_state(theta_value=1.0)) == pytest.approx(np.pi)
    grid = Grid1D(n=256)
    state = PdeState(grid, np.ones(256), np.sin(grid.x))
    assert hamiltonian_wfr(state) == pytest.approx(np.pi, abs=2e-4)


# -- right-hand sides ---------------------------------------------------------

def wfr_rhs(state):
    """(rhodot, thetadot) of the large-model flow at one state:
    rhodot = -div(rho grad theta) + rho theta,
    thetadot = -|grad theta|^2 / 2 - theta^2 / 2."""
    n = state.grid.n
    y = np.append(state.rho, state.theta)
    d = _flow("wfr", state.grid, y.shape)(y, np.empty_like(y))
    return d[:n], d[n:]


def test_small_rhs_zero_theta():
    drho, dtheta = small_rhs(uniform_state())
    npt.assert_allclose(drho, 0.0)
    npt.assert_allclose(dtheta, 0.0)


def test_small_rhs_uniform_scaling():
    # xi = 2: rhodot = 2, thetadot = -xi theta + xi^2/2 = -2
    drho, dtheta = small_rhs(uniform_state(theta_value=2.0))
    npt.assert_allclose(drho, 2.0, atol=1e-13)
    npt.assert_allclose(dtheta, -2.0, atol=1e-13)


def test_small_rhs_sine_second_order():
    errs_rho, errs_theta = [], []
    for n in (64, 128):
        grid = Grid1D(n=n)
        state = PdeState(grid, np.ones(n), np.sin(grid.x))
        drho, dtheta = small_rhs(state)
        errs_rho.append(np.max(np.abs(drho - np.sin(grid.x))))
        errs_theta.append(np.max(np.abs(dtheta + 0.5 * np.cos(grid.x) ** 2)))
    assert errs_rho[0] / errs_rho[1] == pytest.approx(4.0, rel=0.15)
    assert errs_theta[0] / errs_theta[1] == pytest.approx(4.0, rel=0.15)


def test_small_mass_law_exact():
    rng = np.random.default_rng(21)
    grid = Grid1D(n=128)
    rho = 1.0 + 0.5 * np.sin(grid.x) + 0.1 * rng.normal(size=128)
    rho = np.abs(rho) + 0.2
    theta = rng.normal(size=128)
    state = PdeState(grid, rho, theta)
    drho, _ = small_rhs(state)
    m = total_mass(grid, rho)
    # flux telescoping: d(m)/dt equals xi m to rounding
    assert grid.h * np.sum(drho) == pytest.approx(xi_of(state) * m, abs=1e-12)


def test_wfr_mass_law_exact():
    rng = np.random.default_rng(22)
    grid = Grid1D(n=128)
    rho = np.abs(1.0 + 0.4 * np.cos(grid.x) + 0.1 * rng.normal(size=128)) + 0.2
    theta = rng.normal(size=128)
    state = PdeState(grid, rho, theta)
    drho, _ = wfr_rhs(state)
    assert grid.h * np.sum(drho) == pytest.approx(
        grid.h * np.sum(rho * theta), abs=1e-12)


def test_wfr_rhs_uniform_and_sine():
    drho, dtheta = wfr_rhs(uniform_state(theta_value=0.5))
    npt.assert_allclose(drho, 0.5, atol=1e-14)
    npt.assert_allclose(dtheta, -0.125, atol=1e-14)

    errs_rho, errs_theta = [], []
    for n in (64, 128):
        grid = Grid1D(n=n)
        state = PdeState(grid, np.ones(n), np.sin(grid.x))
        drho, dtheta = wfr_rhs(state)
        errs_rho.append(np.max(np.abs(drho - 2.0 * np.sin(grid.x))))
        errs_theta.append(np.max(np.abs(dtheta + 0.5)))
    assert errs_rho[0] / errs_rho[1] == pytest.approx(4.0, rel=0.15)
    assert errs_theta[0] / errs_theta[1] == pytest.approx(4.0, rel=0.15)


def slice_stencil_rhs(model, grid, rho, theta):
    """The flows written with np.roll (a copy from two slices): forward
    difference, half-point flux, backward difference, and the node mean of
    the two adjacent half-point squares |g|^2."""
    h = grid.h
    g = (np.roll(theta, -1, axis=-1) - theta) / h
    flux = 0.5 * (np.roll(rho, -1, axis=-1) + rho) * g
    div = (flux - np.roll(flux, 1, axis=-1)) / h
    grad_sq = 0.5 * (g**2 + np.roll(g**2, 1, axis=-1))
    if model == "wfr":
        return -div + rho * theta, -0.5 * grad_sq - 0.5 * theta**2
    m = h * np.sum(rho, axis=-1, keepdims=True)
    xi = h * np.sum(theta * rho, axis=-1, keepdims=True) / m
    return -div + xi * rho, -0.5 * grad_sq - xi * theta + 0.5 * xi**2


def assert_same_bits(got, want):
    npt.assert_array_equal(np.ascontiguousarray(got).view(np.int64),
                           np.ascontiguousarray(want).view(np.int64))


@pytest.mark.parametrize("n", [MIN_GRID, 9, 256])
@pytest.mark.parametrize("model", ["small", "wfr"])
def test_packed_rhs_equals_the_slice_stencils(model, n):
    # the exact mass law and the energy conservation rest on the flow and
    # the elliptic solve sharing one stencil, so the packed flow must equal
    # the np.roll formula bit for bit, for one state and for a stack, on
    # odd grids and lengths other than 2 pi, and for a theta whose squared
    # gradients are subnormal, where the scalings by (2 | h) and (-h | -4)
    # round most delicately
    rng = np.random.default_rng(37)
    rhs = small_rhs if model == "small" else wfr_rhs
    for length in (TWO_PI, 0.5, 10.0):
        grid = Grid1D(n=n, length=length)
        rho = 0.5 + rng.uniform(size=(3, n))
        for amplitude in (1.0, 1e-160):
            theta = amplitude * rng.normal(size=(3, n))
            for r, t in zip(rho, theta):
                for got, want in zip(rhs(PdeState(grid, r, t)),
                                     slice_stencil_rhs(model, grid, r, t)):
                    assert_same_bits(got, want)
            y = np.concatenate([rho, theta], axis=-1)
            packed = _flow(model, grid, y.shape)(y, np.empty_like(y))
            assert_same_bits(packed, np.concatenate(
                slice_stencil_rhs(model, grid, rho, theta), axis=-1))
            if amplitude < 1.0:
                dtheta = np.abs(packed[:, n:])
                assert 0.0 < dtheta.min() and dtheta.max() < np.finfo(float).tiny


# -- time integration ---------------------------------------------------------

def test_integrate_frozen_state():
    trace = integrate_pde(uniform_state(), "small", dt=1e-2, steps=20)
    npt.assert_allclose(trace.block("rho"), 1.0)
    npt.assert_allclose(trace.block("theta"), 0.0)


@pytest.mark.parametrize("model, energy", [("small", hamiltonian_small),
                                           ("wfr", hamiltonian_wfr)])
def test_integrate_columns_match_rowwise_reference(model, energy):
    # the whole-array m, xi and H columns against the public functions row by
    # row: m and xi in the same arithmetic, H within a few units of roundoff
    n = 64
    grid = Grid1D(n=n)
    state = PdeState(grid, 1.0 + 0.3 * np.cos(grid.x), 0.2 + 0.05 * np.sin(2.0 * grid.x))
    trace = integrate_pde(state, model, dt=1e-3, steps=100)
    rows = [PdeState(grid, row[4:4 + n], row[4 + n:]) for row in trace.data]
    assert np.array_equal(trace.column("m"), [total_mass(grid, s.rho) for s in rows])
    assert np.array_equal(trace.column("xi"), [xi_of(s) for s in rows])
    npt.assert_allclose(trace.column("H"), [energy(s) for s in rows],
                        rtol=16 * np.finfo(float).eps, atol=0.0)


def test_integrate_small_pure_scaling_matches_radial_law():
    # rho = 1, theta = 1: xi0 = 1, pure scaling, m(t) = 2 pi (1 + t/2)^2
    n = 256
    state = uniform_state(n=n, theta_value=1.0)
    trace = integrate_pde(state, "small", dt=1e-3, steps=1000)
    t = trace.t
    m_exact = np.array([cone_line(TWO_PI, TWO_PI * 2.25, 0.0, ti)[0]
                        for ti in t])  # endpoint (1 + 1/2)^2 = 2.25 at t=1
    npt.assert_allclose(trace.column("m"), TWO_PI * (1.0 + 0.5 * t) ** 2, atol=1e-6)
    npt.assert_allclose(trace.column("m"), m_exact, atol=1e-6)


def test_integrate_small_energy_conserved_and_mass_quadratic():
    n = 256
    grid = Grid1D(n=n)
    rho = 1.0 + 0.2 * np.cos(grid.x)
    theta = 0.3 + 0.1 * np.sin(grid.x)
    trace = integrate_pde(PdeState(grid, rho, theta), "small", dt=1e-3, steps=500)
    assert relative_energy_drift(trace) <= 1e-6
    fit = mass_quadratic_fit(trace)
    H0 = trace.column("H")[0]
    assert abs(fit["leading"] - 0.5 * H0) <= 1e-4
    assert fit["rms_residual"] <= 1e-4
    m = trace.column("m")
    acc = (m[2:] - 2.0 * m[1:-1] + m[:-2]) / 1e-3**2
    assert np.max(np.abs(acc - H0)) <= 1e-4


def test_integrate_wfr_riccati_oracle():
    # uniform fields: theta(t) = 2 c / (2 + c t), m(t) = m0 (1 + c t / 2)^2
    c = 0.8
    n = 64
    trace = integrate_pde(uniform_state(n=n, theta_value=c), "wfr",
                          dt=1e-3, steps=1000)
    t = trace.t
    theta_exact = 2.0 * c / (2.0 + c * t)
    npt.assert_allclose(trace.block("theta")[:, 0], theta_exact, atol=1e-9)
    npt.assert_allclose(trace.column("m"), TWO_PI * (1.0 + 0.5 * c * t) ** 2,
                        atol=1e-8)


def test_integrate_wfr_energy_conserved():
    n = 256
    grid = Grid1D(n=n)
    rho = 1.0 + 0.3 * np.sin(2.0 * grid.x)
    theta = 0.2 + 0.1 * np.cos(grid.x)
    trace = integrate_pde(PdeState(grid, rho, theta), "wfr", dt=1e-3, steps=500)
    assert relative_energy_drift(trace) <= 1e-6


def test_integrate_guard_refuses_large_dt():
    n = 256
    grid = Grid1D(n=n)
    state = PdeState(grid, np.ones(n), np.sin(grid.x))
    # max |grad theta| ~ 1 so the bound is 0.2 h^2 ~ 1.2e-4 < 1e-3
    with pytest.raises(StepGuardError):
        integrate_pde(state, "small", dt=1e-3, steps=10)


def test_integrate_positivity_abort_with_step():
    grid = Grid1D(n=16)
    rho = 1.0 + 0.95 * np.sin(grid.x)
    theta = 0.15 * np.cos(grid.x)
    state = PdeState(grid, rho, theta)
    with pytest.raises(PositivityError) as exc:
        integrate_pde(state, "small", dt=4e-3, steps=4000)
    step = exc.value.details["step"]
    assert step > 0
    # the post-step check of the step from k to k + 1 stamps k + 1: one step
    # fewer still ends on a positive density
    trace = integrate_pde(state, "small", dt=4e-3, steps=step - 1)
    assert np.min(trace.block("rho")[-1]) > 0.0
    with pytest.raises(PositivityError) as exc:
        integrate_pde(state, "small", dt=4e-3, steps=step)
    assert exc.value.details["step"] == step


def test_integrate_stage_failure_reports_step():
    # constant theta = -1000 on a uniform density: xi = -1000, so an RK4
    # stage soon sees a total mass below zero; a stage failure of the step
    # from k to k + 1 is stamped k + 1
    grid = Grid1D(n=16)
    state = PdeState(grid, np.ones(16), np.full(16, -1000.0))
    with pytest.raises(MassError) as exc:
        integrate_pde(state, "small", dt=1e-3, steps=50)
    step = exc.value.details["step"]
    assert step > 1
    assert integrate_pde(state, "small", dt=1e-3, steps=step - 1).column("m")[-1] > 0.0
    with pytest.raises(MassError) as exc:
        integrate_pde(state, "small", dt=1e-3, steps=step)
    assert exc.value.details["step"] == step


def smooth_state(grid, phase, amp=0.05):
    return PdeState(grid, 1.0 + 0.3 * np.cos(grid.x + phase),
                    0.2 + amp * np.sin(2.0 * grid.x + phase))


@pytest.mark.parametrize("model", ["small", "wfr"])
def test_stacked_flows_equal_the_single_flows(model):
    # the stack runs the same RHS and hook, reducing the last axis: every
    # member trace is the single-state trace
    grid = Grid1D(n=64)
    states = [smooth_state(grid, phase) for phase in (0.0, 0.7, 1.9, 4.0)]
    traces = integrate_pdes(states, model, dt=1e-3, steps=200)
    assert len(traces) == 4
    for state, trace in zip(states, traces):
        single = integrate_pde(state, model, dt=1e-3, steps=200)
        assert trace.columns == single.columns
        assert np.array_equal(trace.data, single.data)


def test_stacked_positivity_failure_names_step_and_member():
    # the state of test_integrate_positivity_abort_with_step as member 1
    grid = Grid1D(n=16)
    bad = PdeState(grid, 1.0 + 0.95 * np.sin(grid.x), 0.15 * np.cos(grid.x))
    with pytest.raises(PositivityError) as exc:
        integrate_pde(bad, "small", dt=4e-3, steps=4000)
    single = exc.value.details
    assert "member" not in single
    with pytest.raises(PositivityError) as exc:
        integrate_pdes([smooth_state(grid, 0.3), bad], "small", dt=4e-3, steps=4000)
    assert exc.value.details == {**single, "member": 1}


def test_stacked_stage_failure_names_step_and_member():
    # the state of test_integrate_stage_failure_reports_step as member 2
    grid = Grid1D(n=16)
    bad = PdeState(grid, np.ones(16), np.full(16, -1000.0))
    with pytest.raises(MassError) as exc:
        integrate_pde(bad, "small", dt=1e-3, steps=50)
    single = exc.value.details
    with pytest.raises(MassError) as exc:
        integrate_pdes([uniform_state(16), uniform_state(16, 0.5), bad], "small",
                       dt=1e-3, steps=50)
    assert exc.value.details == {**single, "member": 2}


def test_stacked_step_guard_names_member():
    grid = Grid1D(n=256)
    steep = PdeState(grid, np.ones(256), np.sin(grid.x))
    with pytest.raises(StepGuardError) as exc:
        integrate_pdes([smooth_state(grid, 0.0, amp=0.01), steep], "small",
                       dt=1e-3, steps=10)
    assert exc.value.details["member"] == 1


def test_stacked_flows_need_one_grid():
    with pytest.raises(ValueError):
        integrate_pdes([uniform_state(16), uniform_state(32)], "small", dt=1e-3, steps=5)


def test_layout_follows_the_stack_size(monkeypatch):
    # a stack of one steps on the faster 1-D layout, whichever entry point
    # it came through, and gives the bytes of the single flow
    ndims = []
    rk4 = pde._rk4
    monkeypatch.setattr(pde, "_rk4", lambda rhs, post, ys, dt: ndims.append(ys.ndim)
                        or rk4(rhs, post, ys, dt))
    state = smooth_state(Grid1D(n=16), 0.3)
    single = integrate_pde(state, "small", dt=1e-3, steps=20)
    stack_of_one, = integrate_pdes([state], "small", dt=1e-3, steps=20)
    integrate_pdes([state, state], "small", dt=1e-3, steps=20)
    assert ndims == [2, 2, 3]
    assert single.data.tobytes() == stack_of_one.data.tobytes()


def textbook_rk4(model, grid, rho, theta, dt, steps):
    """Classical RK4 over slice_stencil_rhs from (rho, theta), one state or
    a stack: stages y + (0.5 dt) k and y + dt k, update
    y + (dt / 6)(k1 + 2 k2 + 2 k3 + k4).  Returns (rho, theta) after each
    step, along a leading axis of steps + 1."""
    def rhs(y):
        return np.array(slice_stencil_rhs(model, grid, *y))

    y = np.array([rho, theta])
    ys = [y]
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + (0.5 * dt) * k1)
        k3 = rhs(y + (0.5 * dt) * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ys.append(y)
    return np.array(ys)


@pytest.mark.parametrize("n", [MIN_GRID, 9, 64])
@pytest.mark.parametrize("model", ["small", "wfr"])
def test_integration_is_the_textbook_rk4(model, n):
    # the driver's arithmetic, pinned apart from its buffers: every row of
    # a single or stacked trace is the textbook RK4 step, bit for bit
    rng = np.random.default_rng(43)
    for length in (TWO_PI, 0.5, 10.0):
        grid = Grid1D(n=n, length=length)
        wave = 2.0 * np.pi * grid.x / length + rng.uniform(0.0, TWO_PI, size=(3, 1))
        rho = 1.0 + rng.uniform(0.1, 0.3, size=(3, 1)) * np.cos(wave)
        theta = rng.uniform(-0.5, 0.5, size=(3, 1)) + 0.1 * np.sin(2.0 * wave)
        dt = min(1e-3, 0.1 * grid.h**2 / np.max(np.abs(_dplus(grid, theta))))
        want = textbook_rk4(model, grid, rho, theta, dt, 100)
        states = [PdeState(grid, r, t) for r, t in zip(rho, theta)]
        traces = [integrate_pde(states[0], model, dt, 100),
                  *integrate_pdes(states, model, dt, 100)]
        for trace, i in zip(traces, [0, 0, 1, 2]):
            assert_same_bits(trace.block("rho"), want[:, 0, i])
            assert_same_bits(trace.block("theta"), want[:, 1, i])


@pytest.mark.parametrize("members", [1, 3])
def test_integrations_share_no_scratch(members):
    # a later integration on the same grid and shape, and one that fails
    # mid-run, leave an earlier trace as a fresh run gives it
    grid = Grid1D(n=16)
    first = [smooth_state(grid, 0.4 * i) for i in range(members)]
    later = [smooth_state(grid, 1.0 + 0.4 * i, amp=0.02) for i in range(members)]
    failing = [PdeState(grid, np.ones(16), np.full(16, -1000.0))] * members
    for model in ("small", "wfr"):
        kept = integrate_pdes(first, model, dt=1e-3, steps=60)
        copies = [t.data.copy() for t in kept]
        integrate_pdes(later, model, dt=1e-3, steps=60)
        with pytest.raises(MassError):
            integrate_pdes(failing, "small", dt=1e-3, steps=50)
        for trace, copy, fresh in zip(kept, copies,
                                      integrate_pdes(first, model, dt=1e-3, steps=60)):
            assert trace.data.tobytes() == copy.tobytes() == fresh.data.tobytes()


# -- elliptic solves and metric evaluations -----------------------------------

def test_solve_potential_reproduces_discrete_mode():
    # -div(grad theta) = sin on rho = 1: theta = sin / lam_h exactly
    for n in (64, 256):
        grid = Grid1D(n=n)
        theta, xi = solve_potential(grid, np.ones(n), np.sin(grid.x))
        assert xi == pytest.approx(0.0, abs=1e-14)
        npt.assert_allclose(theta, np.sin(grid.x) / lam_h(grid.h), atol=1e-12)


@pytest.mark.parametrize("n", [16384, 65536])
def test_solve_potential_fine_grids_match_discrete_mode(n):
    # roundoff of the operator grows like 1/h^2, so an absolute residual
    # threshold fails here; the backward-error check scales with the problem
    grid = Grid1D(n=n)
    theta, xi = solve_potential(grid, np.ones(n), np.sin(grid.x))
    assert xi == pytest.approx(0.0, abs=1e-14)
    lam = (2.0 * np.sin(grid.h / 2.0) / grid.h) ** 2  # lam_h without cancellation
    npt.assert_allclose(theta, np.sin(grid.x) / lam, atol=1e-12)
    value = small_metric_eval(grid, np.ones(n), np.sin(grid.x))
    assert value == pytest.approx(np.pi * ((grid.h / 2.0) / np.sin(grid.h / 2.0)) ** 2,
                                  abs=1e-10)


def test_solve_potential_matches_dense_reference():
    # the cumulative-sum solve against a dense solve of the operator whose
    # last row is replaced by the zero-mean gauge
    rng = np.random.default_rng(28)
    for n in (8, 64, 256):
        grid = Grid1D(n=n, length=float(rng.uniform(0.5, 10.0)))
        rho = np.abs(1.0 + 0.5 * rng.normal(size=n)) + 0.1
        rhodot = rng.normal(size=n)
        theta, xi = solve_potential(grid, rho, rhodot)
        rh = 0.5 * (rho + np.roll(rho, -1))
        A = np.zeros((n, n))
        for i in range(n):
            A[i, (i - 1) % n] -= rh[i - 1]
            A[i, i] += rh[i - 1] + rh[i]
            A[i, (i + 1) % n] -= rh[i]
        A /= grid.h**2
        A[-1] = 1.0
        b = rhodot - xi * rho
        b[-1] = 0.0
        reference = np.linalg.solve(A, b)
        npt.assert_allclose(theta, reference, rtol=0.0,
                            atol=1e-12 * np.max(np.abs(reference)))


def test_stencil_primitives_match_np_roll():
    rng = np.random.default_rng(29)
    for n in (8, 9):
        grid = Grid1D(n=n, length=float(rng.uniform(0.5, 10.0)))
        for f in (rng.normal(size=n), rng.normal(size=(4, n))):
            up = np.roll(f, -1, axis=-1)
            down = np.roll(f, 1, axis=-1)
            npt.assert_array_equal(_dplus(grid, f), (up - f) / grid.h)
            npt.assert_array_equal(_half(grid, f), 0.5 * (up + f))
            npt.assert_array_equal(_dminus(grid, f), (f - down) / grid.h)
            npt.assert_array_equal(_mean(grid, f), 0.5 * (f + down))


def closure_arrays(f):
    """The arrays held in the closure of f and of the functions it holds."""
    arrays, todo = [], [f]
    while todo:
        for cell in todo.pop().__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray):
                arrays.append(value)
            elif getattr(value, "__closure__", None):
                todo.append(value)
    return arrays


def test_grid_frees_its_neighbour_indices():
    # the index arrays are built once per grid and live exactly as long as
    # it, and the packed rows of a flow are the flow's own and live exactly
    # as long as it, so the arrays of a fine grid do not outlive its
    # computation and the grid holds no packed row after flows ran on it
    grid = Grid1D(n=65536)
    rho = 1.0 + 0.3 * np.cos(grid.x)
    solve_potential(grid, rho, np.sin(2.0 * grid.x))
    assert grid.up is grid.up and grid.down is grid.down
    npt.assert_array_equal(grid.up[[0, -1]], [1, 0])
    npt.assert_array_equal(grid.down[[0, -1]], [65535, 65534])
    small_rhs(PdeState(grid, rho, np.sin(grid.x)))
    integrate_pde(PdeState(grid, rho, np.zeros(65536)), "wfr", dt=1e-3, steps=1)
    flow = _flow("small", grid, (2 * 65536,))
    assert set(vars(grid)) == {"n", "length", "h", "up", "down"}
    packed = ("up2", "down2", "sign2", "edge_div2", "node_div2")
    assert not any(hasattr(grid, name) for name in packed)
    arrays = closure_arrays(flow)
    up2, down2 = sorted((a for a in arrays if a.dtype.kind == "i"), key=lambda a: a[0])
    npt.assert_array_equal(up2[[0, 65535, 65536, -1]], [1, 0, 65537, 65536])
    npt.assert_array_equal(down2[[0, 65535, 65536, -1]], [65535, 65534, 131071, 131070])
    rows = [weakref.ref(a) for a in arrays]
    del flow, arrays, up2, down2
    gc.collect()
    assert all(ref() is None for ref in rows)
    assert grid == Grid1D(n=65536) and hash(grid) == hash(Grid1D(n=65536))
    refs = [weakref.ref(a) for a in (grid.up, grid.down)]
    del grid
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_solve_potential_is_scale_free():
    # the backward-error check is relative: scaled data give the scaled
    # potential at every n
    rng = np.random.default_rng(27)
    for n in (64, 4096, 65536):
        grid = Grid1D(n=n)
        rho = 1.0 + 0.5 * np.cos(grid.x + rng.uniform(0.0, TWO_PI))
        rhodot = np.sin(3.0 * grid.x) + 0.2 * np.cos(grid.x) + 0.1
        theta, _ = solve_potential(grid, rho, rhodot)
        for scale in (1e-8, 1e8):
            scaled, _ = solve_potential(grid, rho, scale * rhodot)
            npt.assert_allclose(scaled / scale, theta, rtol=0.0,
                                atol=1e-13 * np.max(np.abs(theta)))


def test_solve_potential_non_finite_is_singular_system():
    grid = Grid1D(n=16)
    rhodot = np.zeros(16)
    rhodot[3] = np.inf
    with pytest.raises(SingularSystemError), np.errstate(invalid="ignore"):
        solve_potential(grid, np.ones(16), rhodot)


def test_solve_potential_rejects_nonpositive_density():
    grid = Grid1D(n=16)
    rho = np.ones(16)
    rho[0] = -1.0
    with pytest.raises(PositivityError):
        solve_potential(grid, rho, np.zeros(16))


def test_small_metric_zero_velocity():
    grid = Grid1D(n=64)
    assert small_metric_eval(grid, np.ones(64), np.zeros(64)) == pytest.approx(0.0, abs=1e-24)


def test_small_metric_constant_rate_exact():
    # rhodot = c rho: xi = c, theta = 0, value = m xi^2 = 2 pi c^2
    grid = Grid1D(n=512)
    for c in (0.5, -1.2):
        value = small_metric_eval(grid, np.ones(512), np.full(512, c))
        assert value == pytest.approx(TWO_PI * c * c, abs=1e-12)


def test_small_metric_sine_discrete_and_continuum():
    # discrete closed form: pi ((h/2) / sin(h/2))^2, continuum pi + O(h^2)
    errs = []
    for n in (512, 1024):
        grid = Grid1D(n=n)
        value = small_metric_eval(grid, np.ones(n), np.sin(grid.x))
        assert small_metric_eval(grid, [1.0] * n, list(np.sin(grid.x))) == value
        exact_discrete = np.pi * ((grid.h / 2.0) / np.sin(grid.h / 2.0)) ** 2
        assert value == pytest.approx(exact_discrete, abs=1e-10)
        errs.append(abs(value - np.pi))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def test_gdiv_metric_values():
    grid = Grid1D(n=512)
    assert gdiv_metric_eval(grid, np.ones(512), np.zeros(512)) == pytest.approx(0.0, abs=1e-24)
    # constant rate: S = 0, value = int (rhodot/rho)^2 rho = 2 pi c^2
    c = 0.7
    assert gdiv_metric_eval(grid, np.ones(512), np.full(512, c)) == \
        pytest.approx(TWO_PI * c * c, abs=1e-12)
    # sine: gradient part pi ((h/2)/sin(h/2))^2 plus exactly pi from the
    # squared-rate part
    errs = []
    for n in (512, 1024):
        g = Grid1D(n=n)
        value = gdiv_metric_eval(g, np.ones(n), np.sin(g.x))
        exact_discrete = np.pi * ((g.h / 2.0) / np.sin(g.h / 2.0)) ** 2 + np.pi
        assert value == pytest.approx(exact_discrete, abs=1e-10)
        errs.append(abs(value - 2.0 * np.pi))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def test_density_level_submersion_consistency():
    # metric value of the projected horizontal velocity equals twice the
    # Hamiltonian of the generating state
    rng = np.random.default_rng(23)
    grid = Grid1D(n=256)
    for _ in range(5):
        rho = np.abs(1.0 + 0.4 * np.sin(grid.x + rng.uniform(0, TWO_PI))) + 0.3
        theta = 0.5 * rng.normal() + 0.3 * np.cos(grid.x + rng.uniform(0, TWO_PI))
        state = PdeState(grid, rho, theta)
        drho, _ = small_rhs(state)
        value = small_metric_eval(grid, rho, drho)
        assert value == pytest.approx(2.0 * hamiltonian_small(state), abs=1e-6)


def test_state_from_velocity_roundtrip():
    rng = np.random.default_rng(24)
    grid = Grid1D(n=128)
    rho = np.abs(1.0 + 0.3 * np.cos(grid.x)) + 0.2
    rhodot = 0.4 * np.sin(2.0 * grid.x) + 0.1
    # the horizontal lift of rhodot: the solved potential, with the additive
    # constant that makes the mass pairing give the solved xi
    theta, xi = solve_potential(grid, rho, rhodot)
    theta += xi - grid.h * np.sum(theta * rho) / total_mass(grid, rho)
    state = PdeState(grid, rho, theta)
    drho, _ = small_rhs(state)
    npt.assert_allclose(drho, rhodot, atol=1e-10)
    assert xi_of(state) == pytest.approx(
        grid.h * np.sum(rhodot) / total_mass(grid, rho), abs=1e-12)


def test_small_energy_lower_bound_and_equality():
    rng = np.random.default_rng(25)
    grid = Grid1D(n=64)
    for _ in range(25):
        rho = np.abs(1.0 + 0.5 * rng.normal(size=64)) + 0.1
        theta = rng.normal(size=64)
        state = PdeState(grid, rho, theta)
        m = total_mass(grid, rho)
        assert hamiltonian_small(state) >= 0.5 * m * xi_of(state) ** 2
    flat = PdeState(grid, np.abs(1.0 + 0.2 * np.sin(grid.x)), np.full(64, 0.9))
    m = total_mass(grid, flat.rho)
    assert hamiltonian_small(flat) == pytest.approx(0.5 * m * 0.9**2, rel=1e-14)


# -- flat-cone geodesics ------------------------------------------------------

def test_fisher_rao_constant_and_pointwise():
    grid = Grid1D(n=32)
    rho0 = np.ones(32)
    npt.assert_allclose(fisher_rao_cone_geodesic(rho0, rho0, 0.37), rho0)
    npt.assert_allclose(fisher_rao_cone_geodesic(rho0, 4.0 * rho0, 0.5), 2.25)
    npt.assert_allclose(fisher_rao_cone_geodesic(rho0, 9.0 * rho0, 0.5), 4.0)


def test_fisher_rao_endpoints_exact():
    rng = np.random.default_rng(26)
    rho0 = np.abs(rng.normal(size=64)) + 0.5
    rho1 = np.abs(rng.normal(size=64)) + 0.5
    npt.assert_allclose(fisher_rao_cone_geodesic(rho0, rho1, 0.0), rho0)
    npt.assert_allclose(fisher_rao_cone_geodesic(rho0, rho1, 1.0), rho1)


def test_fisher_rao_mass_matches_radial_for_proportional_fields():
    grid = Grid1D(n=64)
    rho0 = 1.0 + 0.5 * np.sin(grid.x)
    rho1 = 3.0 * rho0
    m0 = total_mass(grid, rho0)
    m1 = total_mass(grid, rho1)
    for t in np.linspace(0.0, 1.0, 7):
        mt = total_mass(grid, fisher_rao_cone_geodesic(rho0, rho1, t))
        assert mt == pytest.approx(cone_line(m0, m1, 0.0, t)[0], rel=1e-13)


def test_fisher_rao_broadcasts_over_times():
    rng = np.random.default_rng(28)
    rho0 = rng.uniform(0.1, 3.0, size=32)
    rho1 = rng.uniform(0.1, 3.0, size=32)
    t = np.linspace(0.0, 1.0, 9)
    stacked = fisher_rao_cone_geodesic(rho0, rho1, t[:, None])
    assert np.array_equal(stacked, [fisher_rao_cone_geodesic(rho0, rho1, ti) for ti in t])


def test_fisher_rao_rejects_nonpositive():
    with pytest.raises(PositivityError):
        fisher_rao_cone_geodesic(np.zeros(8), np.ones(8), 0.5)
