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

from .config import DEFAULTS
from .errors import ContinuityError, PositivityError
from .pde import Grid1D, _dminus, _dplus, _half, _row_blocks


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


def bb_action(path, continuity_tol=DEFAULTS["continuity_tol"]):
    """Trapezoidal action of an admissible path; raises on constraint violation.

    Returns the action together with its transport and radial parts and the
    measured continuity residual, the max norm of d(rhobar)/dt + div w over
    the path intervals: the time derivative uses interval differences and w
    is averaged onto the interval midpoint; div at node i is
    (w_{i+1/2} - w_{i-1/2}) / h.
    """
    path = path.validate()
    grid, rb, w = path.grid, path.rhobar, path.w
    dts = np.diff(path.times)
    # one pass over blocks of rows (pde._row_blocks) in one reused block of
    # scratch forms each interval's largest residual and each row's transport
    # integrand h sum (r w)^2 / rhobar; the radius scales the flux before the
    # square, so a flux of 1e160 on radii of 1e-100 gives the action it
    # carries, not an overflow
    worst = np.empty(dts.size)
    transport_nodes = np.empty(path.times.size)
    blocks = _row_blocks(path.times.size, grid.n)
    scratch = np.empty((blocks[0].stop, grid.n))
    for b in blocks:
        rows = scratch[:b.stop - b.start]
        span = slice(b.start, min(b.stop, dts.size))  # the intervals from b
        after = slice(span.start + 1, span.stop + 1)
        drho = np.subtract(rb[after], rb[span], rows[:span.stop - span.start])
        drho /= dts[span, None]
        drho += _dminus(grid, 0.5 * (w[after] + w[span]))
        np.max(np.abs(drho, drho), axis=1, out=worst[span])
        rw = np.multiply(path.r[b, None], w[b], rows)
        rw *= rw
        rw /= _half(grid, rb[b])
        np.multiply(grid.h, np.sum(rw, axis=1), transport_nodes[b])
    res = float(np.max(worst))
    if res > continuity_tol:
        raise ContinuityError("path violates the continuity constraint",
                              residual=res, tol=continuity_tol)
    transport = float(np.sum(0.5 * (transport_nodes[1:] + transport_nodes[:-1]) * dts))
    # 4 rdot (rdot dt): on times 1e-300 apart rdot^2 overflows, the action
    # need not
    rdot = np.diff(path.r) / dts
    radial = float(np.sum(4.0 * rdot * (rdot * dts)))
    return BBResult(action=transport + radial, transport_part=transport,
                    radial_part=radial, continuity_residual=res)


def from_small_trace(trace, grid):
    """Convert a conical-model trace into path variables.

    rhobar = rho / m, r = sqrt(m), and w = rhobar * grad theta evaluated on
    the half-points, matching the flux discretization of the simulator;
    formed a block of rows at a time into the path's arrays.
    """
    rho = trace.block("rho")
    theta = trace.block("theta")
    m = trace.column("m")
    rhobar = np.empty(rho.shape)
    w = np.empty(rho.shape)
    for b in _row_blocks(len(m), grid.n):
        np.divide(rho[b], m[b, None], rhobar[b])
        np.multiply(_half(grid, rhobar[b]), _dplus(grid, theta[b]), w[b])
    return BBPath(grid=grid, times=trace.t.copy(), rhobar=rhobar, w=w,
                  r=np.sqrt(m)).validate()


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
