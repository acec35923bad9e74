import numpy as np
import pytest

from uotcone.bb import BBPath, antiderivative_half, bb_action, from_small_trace
from uotcone.errors import ContinuityError, PositivityError
from uotcone.pde import Grid1D, PdeState, _dminus, integrate_pde

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
