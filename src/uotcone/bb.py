"""Dynamic (Benamou-Brenier style) action of admissible unbalanced paths.

A path sample holds the normalized density rhobar = rho/m at the nodes, the
flux w = rhobar * grad theta at the half-points x_{i+1/2}, and the radius
r = sqrt(m).  In these variables the action

    integral of ( r^2 int |w|^2 / rhobar + 4 rdot^2 ) dt

is convex and equals the time-integrated metric energy of the conical model,
subject to the continuity constraint d(rhobar)/dt + div w = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContinuityError, PositivityError
from .pde import Grid1D, _dminus, _dplus, _half

DEFAULT_CONTINUITY_TOL = 1e-5


@dataclass(frozen=True)
class BBPath:
    grid: Grid1D
    times: np.ndarray    # (T+1,), strictly increasing
    rhobar: np.ndarray   # (T+1, n) node values, positive
    w: np.ndarray        # (T+1, n) half-point flux values
    r: np.ndarray        # (T+1,), positive radii sqrt(m)

    def validate(self):
        t = np.asarray(self.times, dtype=float)
        rb = np.asarray(self.rhobar, dtype=float)
        w = np.asarray(self.w, dtype=float)
        r = np.asarray(self.r, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("a path needs at least two time samples")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be strictly increasing")
        shape = (t.size, self.grid.n)
        if rb.shape != shape or w.shape != shape or r.shape != (t.size,):
            raise ValueError("path arrays do not match times/grid")
        if np.any(rb <= 0.0):
            raise PositivityError("normalized density must stay positive")
        if np.any(r <= 0.0):
            raise PositivityError("radius sqrt(m) must stay positive")
        return BBPath(grid=self.grid, times=t, rhobar=rb, w=w, r=r)


@dataclass(frozen=True)
class BBResult:
    action: float
    transport_part: float
    radial_part: float
    continuity_residual: float


def continuity_residual(path):
    """Max norm of d(rhobar)/dt + div w over the path intervals.

    The time derivative uses interval differences and w is averaged onto the
    interval midpoint; div at node i is (w_{i+1/2} - w_{i-1/2}) / h.
    """
    dts = np.diff(path.times)[:, None]
    drho = (path.rhobar[1:] - path.rhobar[:-1]) / dts
    wbar = 0.5 * (path.w[1:] + path.w[:-1])
    return float(np.max(np.abs(drho + _dminus(path.grid, wbar))))


def bb_action(path, continuity_tol=DEFAULT_CONTINUITY_TOL):
    """Trapezoidal action of an admissible path; raises on constraint violation.

    Returns the action together with its transport and radial parts and the
    measured continuity residual.
    """
    path = path.validate()
    res = continuity_residual(path)
    if res > continuity_tol:
        raise ContinuityError("path violates the continuity constraint",
                              residual=res, tol=continuity_tol)
    rb_half = _half(path.grid, path.rhobar)
    transport_nodes = path.r**2 * path.grid.h * np.sum(path.w**2 / rb_half, axis=1)
    dts = np.diff(path.times)
    transport = float(np.sum(0.5 * (transport_nodes[1:] + transport_nodes[:-1]) * dts))
    rdot = np.diff(path.r) / dts
    # 4 rdot (rdot dt) only where rdot^2 leaves the normal range (on times
    # 1e-300 apart it overflows, the action need not), so every other term
    # keeps its bits
    with np.errstate(over="ignore"):
        square = rdot**2
    normal = (square >= np.finfo(float).tiny) & (square <= np.finfo(float).max)
    radial = float(np.sum(np.where(normal, 4.0 * square * dts, 4.0 * rdot * (rdot * dts))))
    return BBResult(action=transport + radial, transport_part=transport,
                    radial_part=radial, continuity_residual=res)


def from_small_trace(trace, grid):
    """Convert a conical-model trace into path variables.

    rhobar = rho / m, r = sqrt(m), and w = rhobar * grad theta evaluated on
    the half-points, matching the flux discretization of the simulator.
    """
    t = trace.t.copy()
    rho = trace.block("rho")
    theta = trace.block("theta")
    m = trace.column("m")[:, None]
    rhobar = rho / m
    w = _half(grid, rhobar) * _dplus(grid, theta)
    r = np.sqrt(trace.column("m"))
    return BBPath(grid=grid, times=t, rhobar=rhobar, w=w, r=r).validate()


def antiderivative_half(grid, s):
    """Half-point field whose flux divergence is the zero-mean node field s.

    Solves (S_{i+1/2} - S_{i-1/2}) / h = s_i by cumulative summation; the
    input must be finite and sum to zero for the periodic problem to close
    up, which is judged against max |s| alone, so at any scale of s.
    """
    s = np.asarray(s, dtype=float)
    bound = 1e-12 * float(np.max(np.abs(s)))
    # a NaN fails the comparison, an infinity the finite bound
    if not abs(float(np.sum(s))) <= bound < np.inf:
        raise ValueError("source must be finite and have zero sum on the periodic grid")
    S = grid.h * np.cumsum(s)
    return S - np.mean(S)
