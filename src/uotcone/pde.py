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
from .config import MIN_GRID
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
        if self.n < MIN_GRID:
            raise ValueError(f"grid needs at least {MIN_GRID} points")
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


# The staggered stencil of the periodic last axis, one field or a stack of
# them: node values go to the edges (the half-point i + 1/2 at index i) and
# edge values come back to the nodes.  These four, and the packed pass of
# the flows (_flow), which gives their values bit for bit, are the
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


# The passes over whole traces (the m, xi and H columns here, the path
# variables and the action in bb) work on blocks of consecutive rows of
# about this many entries, so their temporaries stay small and are reused.
# On a 1001 x 256 small-run path (medians of 40 interleaved rounds in one
# process, one core of a 2-core Xeon, numpy 2.4.6), blocks of 2**12, 2**13,
# 2**14, 2**15, 2**16 and 2**20 entries (the whole path) took 4.5, 4.3,
# 4.2, 4.2, 4.6 and 6.5 ms in from_small_trace and 7.6, 5.2, 4.0, 3.5, 3.7
# and 6.6 ms in the column pass, and in a separate, slower run 6.3, 5.0,
# 4.3, 4.8, 5.0 and 10.1 ms in bb_action; 2**14 is 64 rows of 256 nodes, a
# 128 KiB temporary, where 2**15 doubles the peak of bb_action (0.55 to
# 1.07 MB) and faults in about 220 new pages on every call
_ROW_BLOCK_ENTRIES = 2**14


def _row_blocks(rows, n):
    """Slices of consecutive rows, in order, each of about _ROW_BLOCK_ENTRIES
    entries of n nodes and at least one row, covering ``rows`` rows."""
    size = max(1, _ROW_BLOCK_ENTRIES // n)
    return [slice(start, min(start + size, rows)) for start in range(0, rows, size)]


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


# xi_of and the energies take one state or a stack of rows (integrate_pdes)
def xi_of(state):
    """Logarithmic mass rate xi = (h sum theta rho) / m."""
    m = total_mass(state.grid, state.rho)
    return _integral(state.grid.h, state.theta * state.rho) / m


def hamiltonian_small(state):
    """H = (1/2) int |grad theta|^2 rho + (1/(2m)) (int theta rho)^2."""
    m = total_mass(state.grid, state.rho)
    pairing = _integral(state.grid.h, state.theta * state.rho)
    # pairing (pairing / m): the quotient carries no mass, so the term is
    # lam times as large for a density lam times as large, wherever it is
    # representable (the square of the pairing overflows from 1.3e154 on)
    term = 0.5 * pairing * (pairing / m)
    H = 0.5 * kinetic_energy(state.grid, state.rho, state.theta) + term
    if not np.all(np.isfinite(H)):
        raise NonFiniteError("the Hamiltonian overflows")
    return H if np.ndim(H) else float(H)


def hamiltonian_wfr(state):
    """H = (1/2) int (|grad theta|^2 + theta^2) rho."""
    total_mass(state.grid, state.rho)  # checks the density
    reaction = _integral(state.grid.h, state.theta**2 * state.rho)
    return 0.5 * (kinetic_energy(state.grid, state.rho, state.theta) + reaction)


def _flow(model, grid, shape):
    """The flow ``flow(y, out)`` of ``model`` ('small' or 'wfr') on packed
    states y = (rho | theta) of ``shape``, (2n,) for one state or
    (members, 2n) for a stack: it writes (rhodot | thetadot) into ``out``
    and returns it.

    An integration builds its flow once: the layout, the packed rows, and
    the scratch arrays (the signed state, the edge array and the theta rho
    product) with their views are fixed here, so a call makes its numpy
    calls and no other choice.  The rows and the scratch are the flow's own
    and die with it, so one flow serves one integration at a time.

    The transport part (-div(rho grad theta) | -|grad theta|^2 / 2) is one
    packed pass over the last axis.  Each entry is the value the four
    primitives give, rounded the same way, signed zeros included: x / 2 is
    0.5 x, (a - b) / -h is -((a - b) / h), and x / -4 is -0.5 (0.5 x).
    """
    n, h = grid.n, grid.h
    # the packed rows: neighbour indices, signs, edge and node divisors
    up2 = np.concatenate([grid.up, grid.up + n])
    down2 = np.concatenate([grid.down, grid.down + n])
    sign = np.repeat([1.0, -1.0], n)
    edge_div2 = np.repeat([2.0, h], n)
    node_div2 = np.repeat([-h, -4.0], n)
    half = np.asarray(0.5)  # a 0-d operand is cheaper than a Python float
    # m and xi are numpy scalars for one state, whose float takes 0.02 us
    # where their min takes 1.7 us, and columns for a stack
    stack = len(shape) > 1
    lowest = np.ndarray.min if stack else float
    lo, hi = (np.s_[:, :n], np.s_[:, n:]) if stack else (np.s_[:n], np.s_[n:])
    signed, e = np.empty(shape), np.empty(shape)
    e_lo, e_hi = e[lo], e[hi]
    rho_theta = np.empty(shape[:-1] + (n,))

    # The neighbour reads clip: every index is in range, and numpy buffers
    # a take into out= in its default mode, 'raise'.
    def transport(y, out):
        np.multiply(y, sign, signed)        # (rho | -theta)
        y.take(up2, -1, e, "clip")
        np.add(e, signed, e)
        np.divide(e, edge_div2, e)          # (rho_{i+1/2} | g = D+ theta)
        np.multiply(e_lo, e_hi, e_lo)       # (F = rho_{i+1/2} g | g)
        np.multiply(e_hi, e_hi, e_hi)       # (F | G = g^2)
        e.take(down2, -1, out, "clip")
        np.multiply(out, sign, out)
        np.subtract(e, out, out)            # (F - F_{i-1/2} | G + G_{i-1/2})
        np.divide(out, node_div2, out)

    def small(y, out):
        # RK4 stage states may dip negative; only the total mass must stay
        # positive for the division defining xi.  m and xi stay numpy
        # values: xi^2 overflows to inf.
        m = h * np.add.reduce(y[lo], -1, None, None, stack)
        if lowest(m) <= 0.0:
            m = m.ravel()
            where = _first_member(m <= 0.0)
            raise MassError("total mass became nonpositive",
                            m=float(m[where.get("member", 0)]), **where)
        np.multiply(y[hi], y[lo], rho_theta)
        xi = h * np.add.reduce(rho_theta, -1, None, None, stack) / m
        transport(y, out)
        # (+ xi rho | - xi theta) in one pass, bit for bit: xi (-theta) is
        # -(xi theta) and a + (-b) is a - b exactly
        np.add(out, np.multiply(signed, xi, signed), out)
        out_hi = out[hi]
        np.add(out_hi, 0.5 * (xi * xi), out_hi)
        return out

    def wfr(y, out):
        transport(y, out)
        rho, theta, out_lo, out_hi = y[lo], y[hi], out[lo], out[hi]
        np.add(out_lo, np.multiply(rho, theta, rho_theta), out_lo)
        np.multiply(np.multiply(theta, theta, rho_theta), half, rho_theta)
        np.subtract(out_hi, rho_theta, out_hi)
        return out

    return {"small": small, "wfr": wfr}[model]


def small_rhs(state):
    """Conical-model flow: rhodot = -div(rho grad theta) + xi rho,
    thetadot = -|grad theta|^2 / 2 - xi theta + xi^2 / 2."""
    state = state.validate()
    n = state.grid.n
    y = np.append(state.rho, state.theta)
    d = _flow("small", state.grid, y.shape)(y, np.empty_like(y))
    return d[:n], d[n:]


_ENERGIES = {"small": hamiltonian_small, "wfr": hamiltonian_wfr}


def integrate_pde(state, model, dt, steps):
    """Fixed-step RK4 evolution of the density/potential pair.

    Refuses dt above the stability heuristic 0.2 h^2 / max|grad theta_0| and
    aborts with the step index when the density loses positivity.  The trace
    columns are t, m, xi, H followed by rho and theta node values.
    """
    return integrate_pdes([state], model, dt, steps)[0]


def integrate_pdes(states, model, dt, steps):
    """``integrate_pde`` for states on one grid, stepped as one stack.

    Builds one flow (``_flow``) for the layout, one state or a stack, and
    steps it in one ``trace._rk4`` loop, which copies each state into the
    trace.  Returns one trace per state, equal entry for entry to its own
    ``integrate_pde`` trace; the traces are views of one array.  A failure,
    or a state refused by the step guard, aborts the whole stack and carries
    the index ``member`` of the first failing state (in a stack of more than
    one).
    """
    if model not in _ENERGIES:
        raise ValueError(f"unknown model {model!r}; expected 'small' or 'wfr'")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be a positive integer")
    states = [s.validate() for s in states]
    grid = states[0].grid
    if any(s.grid != grid for s in states):
        raise ValueError("stacked states must share one grid")
    n, h = grid.n, grid.h
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
    # member axis gives the same bytes but is slower (the RK4 loop alone,
    # n = 256, 1000 steps, 30 interleaved pairs on one Xeon core: medians
    # small 124 ms against 84 ms, the median pair +46%; wfr 78 ms against
    # 66 ms, +22%)
    ys = data[:, :, 4:].swapaxes(0, 1) if len(states) > 1 else data[0, :, 4:]
    _rk4(_flow(model, grid, ys.shape[1:]), post, ys, dt)
    energy = _ENERGIES[model]
    for d in data:  # a block of rows at a time keeps the temporaries small
        d[:, 0] = np.arange(steps + 1) * dt
        for b in _row_blocks(steps + 1, n):
            rows = PdeState(grid=grid, rho=d[b, 4:4 + n], theta=d[b, 4 + n:])
            d[b, 1] = total_mass(grid, rows.rho)
            d[b, 2] = xi_of(rows)
            d[b, 3] = energy(rows)
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
    # the loop weights 1 / rho_{i+1/2} in units of the power of two of
    # max rho_{i+1/2}, exactly: their common scale cancels, and 1 / rho
    # overflows for densities below about 1e-308
    rh_unit = np.ldexp(rh, -np.frexp(np.max(rh))[1])
    F = float(np.sum(run / rh_unit) / np.sum(1.0 / rh_unit)) - run
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
    fisher_rao = float(grid.h * np.sum(rhodot * (rhodot / rho)))
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
