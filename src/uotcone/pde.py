"""1D periodic-grid simulator for the density-level Hamiltonian systems.

Discretization notes.  The transport term div(rho grad theta) uses the
conservative flux form with half-point densities, and every quadratic
gradient quantity uses the matching staggered (half-point) differences.
With that pairing the semi-discrete system is exactly canonical for the
discrete Hamiltonian, so the discrete mass law d(m)/dt = xi m (flux
telescoping), the energy conservation, and the constant-acceleration law
d^2 m/dt^2 = H all hold to time-integrator accuracy rather than O(h^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cone import cone_line
from .errors import (MassError, NonFiniteError, PositivityError,
                     SingularSystemError, StepGuardError)
from .trace import GeodesicTrace, _finite, _first_member, _rk4

DT_GUARD_FACTOR = 0.2

#: bound on the normwise backward error of an elliptic solve, a fixed
#: multiple of the unit roundoff
SOLVE_BACKWARD_ERROR_BOUND = 256.0 * np.finfo(float).eps


@dataclass(frozen=True)
class Grid1D:
    """Periodic grid of n nodes; the spacing and the neighbour indices are
    computed on first use and live as long as the grid."""
    n: int
    length: float = 2.0 * np.pi

    def __post_init__(self):
        if self.n < 8:
            raise ValueError("grid needs at least 8 points")
        if not (self.length > 0.0):
            raise ValueError("domain length must be positive")

    @cached_property
    def h(self):
        return self.length / self.n

    @property
    def x(self):
        return np.arange(self.n) * self.h

    @cached_property
    def up(self):
        """Indices (i + 1) mod n."""
        return (np.arange(self.n) + 1) % self.n

    @cached_property
    def down(self):
        """Indices (i - 1) mod n."""
        return (np.arange(self.n) - 1) % self.n

    # The rows of the packed stencil pass, over the last axis of a packed
    # state (rho | theta) of length 2n; only the flows build them.
    @cached_property
    def up2(self):
        """Indices of (rho_{i+1} | theta_{i+1}) in (rho | theta)."""
        return np.concatenate([self.up, self.up + self.n])

    @cached_property
    def down2(self):
        """Indices of (F_{i-1/2} | G_{i-1/2}) in (F | G)."""
        return np.concatenate([self.down, self.down + self.n])

    @cached_property
    def sign2(self):
        """(+1 | -1)."""
        return np.repeat([1.0, -1.0], self.n)

    @cached_property
    def edge_div2(self):
        """(2 | h): (f_{i+1} + f_i) / 2 and (f_{i+1} - f_i) / h."""
        return np.repeat([2.0, self.h], self.n)

    @cached_property
    def node_div2(self):
        """(-h | -4): -(F_{i+1/2} - F_{i-1/2}) / h and
        -(G_{i+1/2} + G_{i-1/2}) / 4."""
        return np.repeat([-self.h, -4.0], self.n)


# The staggered stencil of the periodic last axis, one field or a stack of
# them: node values go to the edges (the half-point i + 1/2 at index i) and
# edge values come back to the nodes.  These four, and the packed pass of
# the flows (_transport_flow), which gives their values bit for bit, are the
# only places where a neighbour is read.
def _dplus(grid, f):
    """Forward difference (f_{i+1} - f_i) / h, at i + 1/2."""
    return (f.take(grid.up, axis=-1) - f) / grid.h


def _half(grid, f):
    """Average (f_{i+1} + f_i) / 2, at i + 1/2."""
    return 0.5 * (f.take(grid.up, axis=-1) + f)


def _dminus(grid, F):
    """Backward difference (F_{i+1/2} - F_{i-1/2}) / h of edge values, at
    node i: the conservative divergence of a flux."""
    return (F - F.take(grid.down, axis=-1)) / grid.h


def _mean(grid, F):
    """Mean (F_{i+1/2} + F_{i-1/2}) / 2 of edge values, at node i."""
    return 0.5 * (F + F.take(grid.down, axis=-1))


# The grid integrals below reduce the last axis, so they take one field or
# a stack of them (one per row) and return a float or an array.
def _integral(h, f):
    s = h * np.sum(f, axis=-1)
    return s if s.ndim else float(s)


def kinetic_energy(grid, rho, theta):
    """h * sum of rho_{i+1/2} ((theta_{i+1} - theta_i)/h)^2, the discrete
    integral of |grad theta|^2 rho."""
    rho, theta = np.asarray(rho, dtype=float), np.asarray(theta, dtype=float)
    return _integral(grid.h, _half(grid, rho) * _dplus(grid, theta) ** 2)


def total_mass(grid, rho):
    """h * sum(rho); every density value must be positive and the mass
    finite."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise PositivityError("density must be strictly positive",
                              min_value=float(np.min(rho)))
    m = _integral(grid.h, rho)
    if not np.all(np.isfinite(m)):
        raise NonFiniteError("total mass is not finite",
                             max_value=float(np.max(rho)))
    if np.any(m <= 0.0):
        raise MassError("total mass must be positive", m=float(np.min(m)))
    return m


@dataclass(frozen=True)
class PdeState:
    grid: Grid1D
    rho: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", np.asarray(self.rho, dtype=float))
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))

    def validate(self):
        if self.rho.shape != (self.grid.n,) or self.theta.shape != (self.grid.n,):
            raise ValueError("fields must match the grid size")
        if not np.all(np.isfinite(self.theta)) or not np.all(np.isfinite(self.rho)):
            raise NonFiniteError("fields must be finite")
        total_mass(self.grid, self.rho)
        return self


# The private energies below take the checked total mass m of the state and
# its pairing h sum theta rho, which _evolve computes once per trace block
# for both the xi and the H column.
def xi_of(state):
    """Logarithmic mass rate xi = (h sum theta rho) / m."""
    m = total_mass(state.grid, state.rho)
    return _integral(state.grid.h, state.theta * state.rho) / m


def hamiltonian_small(state):
    """H = (1/2) int |grad theta|^2 rho + (1/(2m)) (int theta rho)^2."""
    m = total_mass(state.grid, state.rho)
    return _hamiltonian_small(state, m, _integral(state.grid.h, state.theta * state.rho))


def _hamiltonian_small(state, m, pairing):
    # a numpy square overflows to inf instead of raising OverflowError, and
    # underflows: only where the square of the pairing leaves the normal
    # range (beyond 1.3e154 or below 1.5e-154), pairing (pairing / m) gives
    # the term, so every other value keeps its bits
    pairing = np.float64(pairing)
    square = pairing**2
    term = 0.5 * square / m
    normal = (square >= np.finfo(float).tiny) & (square <= np.finfo(float).max)
    if not np.all(normal):
        term = np.where(normal, term, 0.5 * pairing * (pairing / m))
    H = 0.5 * kinetic_energy(state.grid, state.rho, state.theta) + term
    if not np.all(np.isfinite(H)):
        raise NonFiniteError("the Hamiltonian overflows")
    return H if np.ndim(H) else float(H)


def hamiltonian_wfr(state):
    """H = (1/2) int (|grad theta|^2 + theta^2) rho."""
    total_mass(state.grid, state.rho)  # checks the density
    return _hamiltonian_wfr(state)


def _hamiltonian_wfr(state, *_):
    # the mass and the pairing do not enter this energy
    reaction = _integral(state.grid.h, state.theta**2 * state.rho)
    return 0.5 * (kinetic_energy(state.grid, state.rho, state.theta) + reaction)


def _transport_flow(grid, y):
    """Packed (-div(rho grad theta), -|grad theta|^2 / 2) of the packed
    state y = (rho, theta), one state or a stack, in one pass over the last
    axis; returns the new array and its two halves.

    Each entry is the value the four primitives give, rounded the same
    way, signed zeros included: x / 2 is 0.5 x, (a - b) / -h is
    -((a - b) / h), and x / -4 is -0.5 (0.5 x).
    """
    n = grid.n
    sign = grid.sign2
    e = y.take(grid.up2, axis=-1)
    e += sign * y
    e /= grid.edge_div2               # (rho_{i+1/2} | g = D+ theta)
    e[..., :n] *= e[..., n:]          # (F = rho_{i+1/2} g | g)
    e[..., n:] *= e[..., n:]          # (F | G = g^2)
    out = e.take(grid.down2, axis=-1)
    out *= sign
    np.subtract(e, out, out=out)      # (F - F_{i-1/2} | G + G_{i-1/2})
    out /= grid.node_div2
    return out, out[..., :n], out[..., n:]


def _small_flow(grid, y):
    # RK4 stage states may dip negative; only the total mass must stay
    # positive for the division defining xi.  m and xi stay numpy values
    # (scalars for one state, a column for a stack): xi^2 overflows to inf.
    n, h = grid.n, grid.h
    rho, theta = y[..., :n], y[..., n:]
    stack = y.ndim > 1
    m = h * np.add.reduce(rho, -1, keepdims=stack)
    if (m.min() if stack else m) <= 0.0:
        m = m.ravel()
        where = _first_member(m <= 0.0)
        raise MassError("total mass became nonpositive",
                        m=float(m[where.get("member", 0)]), **where)
    xi = h * np.add.reduce(theta * rho, -1, keepdims=stack) / m
    out, drho, dtheta = _transport_flow(grid, y)
    drho += xi * rho
    dtheta -= xi * theta
    dtheta += 0.5 * (xi * xi)
    return out


def _wfr_flow(grid, y):
    n = grid.n
    rho, theta = y[..., :n], y[..., n:]
    out, drho, dtheta = _transport_flow(grid, y)
    drho += rho * theta
    dtheta -= 0.5 * theta**2
    return out


def small_rhs(state):
    """Conical-model flow: rhodot = -div(rho grad theta) + xi rho,
    thetadot = -|grad theta|^2 / 2 - xi theta + xi^2 / 2."""
    state = state.validate()
    n = state.grid.n
    d = _small_flow(state.grid, np.append(state.rho, state.theta))
    return d[:n], d[n:]


_MODELS = {
    "small": (_small_flow, _hamiltonian_small),
    "wfr": (_wfr_flow, _hamiltonian_wfr),
}


def integrate_pde(state, model, dt, steps):
    """Fixed-step RK4 evolution of the density/potential pair.

    Refuses dt above the stability heuristic 0.2 h^2 / max|grad theta_0| and
    aborts with the step index when the density loses positivity.  The trace
    columns are t, m, xi, H followed by rho and theta node values.
    """
    return integrate_pdes([state], model, dt, steps)[0]


def integrate_pdes(states, model, dt, steps):
    """``integrate_pde`` for states on one grid, stepped as one stack.

    Returns one trace per state, equal entry for entry to its own
    ``integrate_pde`` trace; the traces are views of one array.  A failure,
    or a state refused by the step guard, aborts the whole stack and carries
    the index ``member`` of the first failing state (in a stack of more than
    one).
    """
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}; expected 'small' or 'wfr'")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be a positive integer")
    states = [s.validate() for s in states]
    grid = states[0].grid
    if any(s.grid != grid for s in states):
        raise ValueError("stacked states must share one grid")
    rhs, energy = _MODELS[model]
    n = grid.n
    h = grid.h
    for i, state in enumerate(states):
        gmax = float(np.max(np.abs(_dplus(grid, state.theta))))
        if gmax > 0.0 and dt > DT_GUARD_FACTOR * h * h / gmax:
            raise StepGuardError(
                "time step exceeds the stability guard",
                dt=dt, bound=DT_GUARD_FACTOR * h * h / gmax, max_grad=gmax,
                **({"member": i} if len(states) > 1 else {}))

    def post(y):
        rho = y[..., :n]
        if rho.min() <= 0.0:
            where = _first_member((rho <= 0.0).any(-1))
            raise PositivityError("density lost positivity",
                                  min_value=float(rho[where.get("member", ())].min()),
                                  **where)

    cols = (["t", "m", "xi", "H"]
            + [f"rho{i}" for i in range(n)] + [f"theta{i}" for i in range(n)])
    data = np.empty((len(states), steps + 1, len(cols)))
    data[:, 0, 4:4 + n] = [s.rho for s in states]
    data[:, 0, 4 + n:] = [s.theta for s in states]
    # a stack of one runs on the 1-D layout, with no member axis: the
    # member axis gives the same bytes but is slower (n = 256, 1000 steps,
    # 30 interleaved pairs on one Xeon core: medians small 0.161 s against
    # 0.125 s, the median pair +31%; wfr 0.122 s against 0.107 s, +18%)
    ys = data[:, :, 4:].swapaxes(0, 1) if len(states) > 1 else data[0, :, 4:]
    _rk4(lambda y: rhs(grid, y), post, ys, dt)
    for d in data:  # one member at a time keeps the temporaries small
        rows = PdeState(grid=grid, rho=d[:, 4:4 + n], theta=d[:, 4 + n:])
        d[:, 0] = np.arange(steps + 1) * dt
        d[:, 1] = m = total_mass(grid, rows.rho)
        pairing = _integral(h, rows.theta * rows.rho)
        d[:, 2] = pairing / m
        d[:, 3] = energy(rows, m, pairing)
    return [GeodesicTrace(columns=tuple(cols), data=d) for d in data]


def solve_potential(grid, rho, rhodot):
    """Solve -div(rho grad theta) = rhodot - xi rho on the periodic grid.

    xi = (h sum rhodot) / m is forced by solvability (the flux divergence
    integrates to zero), and theta carries the zero-mean gauge.

    The solve is O(n).  With b = rhodot - xi rho, the half-point flux
    F = rho_{i+1/2} (theta_{i+1} - theta_i) / h is F = c - h cumsum(b), the
    constant c closes the periodic loop sum_i F_{i+1/2} / rho_{i+1/2} = 0,
    and theta is the cumulative sum of h F / rho_{i+1/2}.  Every solve must
    have a normwise backward error |r| / (|A| |theta| + |b|) (infinity
    norms, r the residual on every node; Rigal-Gaches, see Higham, Accuracy
    and Stability of Numerical Algorithms, sec. 7.1) of at most
    SOLVE_BACKWARD_ERROR_BOUND, else SingularSystemError.  Returns
    (theta, xi).
    """
    rho = np.asarray(rho, dtype=float)
    rhodot = np.asarray(rhodot, dtype=float)
    m = total_mass(grid, rho)
    h = grid.h
    xi = float(h * np.sum(rhodot) / m)
    # the rounding of xi leaves b a mean of order eps |xi rho|, which no
    # periodic flux can produce; project it out
    b = rhodot - xi * rho
    b -= np.mean(b)
    rh = _half(grid, rho)  # rho_{i+1/2}
    run = h * np.cumsum(b)
    F = float(np.sum(run / rh) / np.sum(1.0 / rh)) - run
    theta = np.zeros_like(b)
    np.cumsum(h * F[:-1] / rh[:-1], out=theta[1:])
    theta -= np.mean(theta)
    if not np.all(np.isfinite(theta)):
        raise SingularSystemError("elliptic solve produced non-finite values")
    residual = float(np.max(np.abs(-_dminus(grid, rh * _dplus(grid, theta)) - b)))
    # row i of A holds -rho_{i-1/2}, rho_{i-1/2} + rho_{i+1/2}, -rho_{i+1/2}
    # over h^2, so its absolute sum is 4 _mean(rh)_i / h^2 (numpy scalars:
    # h^2 may under- or overflow on extreme grids)
    norm_A = 4.0 * np.max(_mean(grid, rh)) / np.square(h)
    scale = float(norm_A * np.max(np.abs(theta)) + np.max(np.abs(b)))
    if not residual <= SOLVE_BACKWARD_ERROR_BOUND * scale:  # a NaN fails too
        raise SingularSystemError("elliptic solve failed the backward-error check",
                                  backward_error=residual / scale,
                                  bound=SOLVE_BACKWARD_ERROR_BOUND)
    return theta, xi


def small_metric_eval(grid, rho, rhodot):
    """Squared length of a density velocity in the conical metric:
    int |grad theta|^2 rho + m xi^2 for the solved potential."""
    theta, xi = solve_potential(grid, rho, rhodot)
    m = total_mass(grid, rho)
    return _finite(kinetic_energy(grid, rho, theta) + m * np.float64(xi) ** 2)


def gdiv_metric_eval(grid, rho, rhodot):
    """Divergence-supplemented metric: int |grad S|^2 rho + int (rhodot/rho)^2 rho,
    with S solving the same elliptic problem (multiplier kappa = xi)."""
    S, _ = solve_potential(grid, rho, rhodot)
    rho = np.asarray(rho, dtype=float)
    rhodot = np.asarray(rhodot, dtype=float)
    fisher_rao = float(grid.h * np.sum(rhodot**2 / rho))
    return _finite(kinetic_energy(grid, rho, S) + fisher_rao)


def fisher_rao_cone_geodesic(rho0, rho1, t):
    """Flat-cone geodesic of the scaling metric: pointwise
    ((1-t) sqrt(rho0) + t sqrt(rho1))^2, the theta = 0 case of
    ``cone.cone_line``; broadcasts over t."""
    rho0 = np.asarray(rho0, dtype=float)
    rho1 = np.asarray(rho1, dtype=float)
    if np.any(rho0 <= 0.0) or np.any(rho1 <= 0.0):
        raise PositivityError("endpoint densities must be strictly positive")
    return cone_line(rho0, rho1, 0.0, t)[0]
