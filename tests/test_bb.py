import numpy as np
import pytest

from uotcone.bb import BBPath, antiderivative_half, bb_action, from_small_trace
from uotcone.errors import ContinuityError, PositivityError
from uotcone import pde
from uotcone.pde import (Grid1D, PdeState, _dminus, _dplus, _half, hamiltonian_small,
                         hamiltonian_wfr, integrate_pde, integrate_pdes, total_mass, xi_of)

TWO_PI = 2.0 * np.pi


def make_path(grid, times, rhobar, w, r):
    return BBPath(grid=grid, times=times, rhobar=rhobar, w=w, r=r).validate()


def perturb_admissible(path, eps_rho, eps_r, seed):
    """Perturb the density (with an exactly continuity-preserving flux
    correction) and the radius, keeping endpoints fixed."""
    rng = np.random.default_rng(seed)
    t = path.times
    tau = (t - t[0]) / (t[-1] - t[0])
    k = int(rng.integers(1, 4))
    s = np.cos(k * path.grid.x + rng.uniform(0.0, TWO_PI))
    s_flux = antiderivative_half(path.grid, s)
    a = np.sin(np.pi * tau)
    scale = eps_rho * float(np.min(path.rhobar))
    drho = scale * a[:, None] * s[None, :]
    # interval targets div(dw_bar) = c_k s; the node recursion keeps the
    # time-averaged flux exactly consistent
    c = -scale * np.diff(a) / np.diff(t)
    d = np.empty(t.size)
    d[0] = c[0]
    for i in range(c.size):
        d[i + 1] = 2.0 * c[i] - d[i]
    dw = d[:, None] * s_flux[None, :]
    dr = eps_r * np.sin(np.pi * tau) * float(rng.normal())
    return make_path(path.grid, t, path.rhobar + drho, path.w + dw, path.r + dr)


def test_constant_path_zero_action():
    grid = Grid1D(n=32)
    times = np.linspace(0.0, 1.0, 11)
    rhobar = np.full((11, 32), 1.0 / TWO_PI)
    w = np.zeros((11, 32))
    r = np.ones(11)
    res = bb_action(make_path(grid, times, rhobar, w, r))
    assert res.action == 0.0
    assert res.continuity_residual == 0.0


def test_pure_scaling_action_is_four():
    # r(t) = 1 + t contributes int 4 rdot^2 = 4; piecewise-linear r is exact
    grid = Grid1D(n=32)
    times = np.linspace(0.0, 1.0, 21)
    rhobar = np.full((21, 32), 1.0 / TWO_PI)
    w = np.zeros((21, 32))
    r = 1.0 + times
    res = bb_action(make_path(grid, times, rhobar, w, r))
    assert res.action == pytest.approx(4.0, abs=1e-12)
    assert res.radial_part == pytest.approx(4.0, abs=1e-12)
    assert res.transport_part == 0.0


def small_geodesic_path(n=256, dt=1e-3, steps=1000):
    grid = Grid1D(n=n)
    rho = 1.0 + 0.2 * np.cos(grid.x)
    theta = 0.3 + 0.1 * np.sin(grid.x)
    trace = integrate_pde(PdeState(grid, rho, theta), "small", dt, steps)
    return grid, trace, from_small_trace(trace, grid)


def test_geodesic_action_equals_energy_integral():
    grid, trace, path = small_geodesic_path()
    res = bb_action(path, continuity_tol=1e-6)
    energy_integral = float(np.trapezoid(2.0 * trace.column("H"), trace.t))
    assert abs(res.action - energy_integral) <= 1e-4
    assert res.continuity_residual <= 1e-8


def test_geodesic_action_does_not_exceed_perturbed_paths():
    grid, trace, path = small_geodesic_path()
    base = bb_action(path).action
    for seed in range(10):
        perturbed = perturb_admissible(path, eps_rho=0.2, eps_r=0.02, seed=seed)
        res = bb_action(perturbed)
        assert res.action > base


def test_continuity_violation_raises():
    grid = Grid1D(n=32)
    times = np.linspace(0.0, 1.0, 5)
    rhobar = np.full((5, 32), 1.0 / TWO_PI) * (1.0 + times)[:, None]
    w = np.zeros((5, 32))
    r = np.ones(5)
    with pytest.raises(ContinuityError):
        bb_action(make_path(grid, times, rhobar, w, r), continuity_tol=1e-5)


def test_path_validation_rejects_nonpositive():
    grid = Grid1D(n=16)
    times = np.linspace(0.0, 1.0, 3)
    good = np.full((3, 16), 0.5)
    with pytest.raises(PositivityError):
        make_path(grid, times, -good, np.zeros((3, 16)), np.ones(3))
    with pytest.raises(PositivityError):
        make_path(grid, times, good, np.zeros((3, 16)), np.array([1.0, -0.1, 1.0]))


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
def test_antiderivative_zero_sum_is_judged_at_any_scale(scale):
    # the zero-sum check is relative to max |s|: a zero-mean cosine closes
    # up at every scale and a one-node spike, whose sum is all of its size,
    # is refused at every scale
    grid = Grid1D(n=16)
    s = scale * np.cos(3.0 * grid.x + 0.7)
    S = antiderivative_half(grid, s)
    np.testing.assert_allclose(_dminus(grid, S), s, rtol=0.0, atol=1e-13 * scale)
    spike = np.zeros(16)
    spike[0] = scale
    with pytest.raises(ValueError, match="zero sum"):
        antiderivative_half(grid, spike)
    assert np.array_equal(antiderivative_half(grid, np.zeros(16)), np.zeros(16))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_antiderivative_refuses_a_non_finite_source(bad):
    # one NaN or infinity among the cosine's nodes: its sum is no number
    # the zero-sum bound can judge, and S would be NaN
    grid = Grid1D(n=16)
    s = np.cos(grid.x)
    s[5] = bad
    with pytest.raises(ValueError, match="finite and have zero sum"):
        antiderivative_half(grid, s)


# rows of 256 nodes per block of the row-blocked passes
BLOCK = pde._row_blocks(10**6, 256)[0].stop


@pytest.mark.parametrize("rows", [2, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1])
@pytest.mark.parametrize("model", ["small", "wfr"])
def test_row_blocks_give_the_whole_array_values(rows, model):
    # the m, xi and H columns, the path variables and the action, formed a
    # block of rows at a time, equal the formulas on the whole arrays bit for
    # bit, on one state and on a stack
    grid = Grid1D(n=256)
    states = [PdeState(grid, 1.0 + a * np.cos(grid.x), 0.3 + 0.1 * np.sin(grid.x))
              for a in (0.2, 0.1)]
    energy = {"small": hamiltonian_small, "wfr": hamiltonian_wfr}[model]
    for trace in (integrate_pdes(states[:1], model, 1e-3, rows - 1)
                  + integrate_pdes(states, model, 1e-3, rows - 1)):
        whole = PdeState(grid, trace.block("rho"), trace.block("theta"))
        assert np.array_equal(trace.column("m"), total_mass(grid, whole.rho))
        assert np.array_equal(trace.column("xi"), xi_of(whole))
        assert np.array_equal(trace.column("H"), energy(whole))

    grid, trace, path = small_geodesic_path(steps=rows - 1)
    m = trace.column("m")
    rhobar = trace.block("rho") / m[:, None]
    assert np.array_equal(path.rhobar, rhobar)
    assert np.array_equal(path.w, _half(grid, rhobar) * _dplus(grid, trace.block("theta")))
    assert np.array_equal(path.r, np.sqrt(m))

    res = bb_action(path)
    dts = np.diff(path.times)
    wbar = 0.5 * (path.w[1:] + path.w[:-1])
    drho = (path.rhobar[1:] - path.rhobar[:-1]) / dts[:, None]
    assert res.continuity_residual == float(np.max(np.abs(drho + _dminus(grid, wbar))))
    nodes = grid.h * np.sum((path.r[:, None] * path.w) ** 2 / _half(grid, path.rhobar), axis=1)
    assert res.transport_part == float(np.sum(0.5 * (nodes[1:] + nodes[:-1]) * dts))
