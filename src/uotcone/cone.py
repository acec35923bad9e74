"""Geodesics of warped-product cones r^{2p} g + dr^2 over a pluggable base.

The base manifold enters only through one callback, its ``jet`` (squared
speed and coordinate geodesic acceleration), so a circle, a flat space, or
the space of SPD matrices plug in interchangeably.  p = 1 is the standard
cone, p = 0 the product cylinder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ApexCrossingError, MassError, NonFiniteError
from .trace import GeodesicTrace, _rk4


@dataclass(frozen=True)
class BaseManifold:
    """Base (Q, g) seen through one callback.

    ``jet(q, qdot)`` returns (g_q(qdot, qdot), qddot): the squared speed and
    the coordinate acceleration of the unforced base geodesic, i.e. the base
    geodesic equation reads qddot = jet(q, qdot)[1].  q and qdot hold dim
    entries, or a stack of points along a leading axis, which gives one
    speed and one acceleration per point.
    """

    dim: int
    jet: Callable


@dataclass(frozen=True)
class ConeState:
    q: np.ndarray
    q_dot: np.ndarray
    alpha: float
    alpha_dot: float

    def validate(self, dim):
        if self.q.shape != (dim,) or self.q_dot.shape != (dim,):
            raise ValueError(f"cone state needs base vectors of length {dim}")
        if not np.all(np.isfinite(self.q)) or not np.all(np.isfinite(self.q_dot)):
            raise NonFiniteError("non-finite base point or velocity")
        if not np.isfinite(self.alpha) or not np.isfinite(self.alpha_dot):
            raise NonFiniteError("non-finite radial coordinate")
        if self.alpha <= 0.0:
            raise ApexCrossingError("radial coordinate must be positive",
                                    alpha=float(self.alpha))


@dataclass(frozen=True)
class ConeProblem:
    p: float
    dt: float
    steps: int

    def validate(self):
        if not (self.dt > 0.0):
            raise ValueError("dt must be positive")
        if self.steps < 1:
            raise ValueError("steps must be a positive integer")


def _euclidean_jet(q, qdot):
    # straight coordinate lines; vecdot is the BLAS dot of qdot @ qdot
    return np.vecdot(qdot, qdot), np.zeros_like(qdot)


def circle_base():
    """Unit circle S^1 with angle coordinate and metric dphi^2."""
    return BaseManifold(dim=1, jet=_euclidean_jet)


def flat_base(dim):
    """Flat R^dim with the Euclidean metric."""
    return BaseManifold(dim=dim, jet=_euclidean_jet)


def scaled_base(base, factor):
    """Same geodesics, metric multiplied by a positive constant.

    Rescaling g changes the radial coupling of the cone, which is how the
    mass-weighted metrics (with their factor-4 radial normalization) are
    realized on top of a unit-normalized base.
    """
    if factor <= 0.0:
        raise ValueError("metric scale factor must be positive")

    def jet(q, qdot):
        speed2, qddot = base.jet(q, qdot)
        return factor * speed2, qddot

    return BaseManifold(dim=base.dim, jet=jet)


def _pack(state):
    return np.array([*state.q, *state.q_dot, state.alpha, state.alpha_dot],
                    dtype=float)


def _cone_rhs(y, p, base):
    """Time derivative of the packed cone state y = (q, qdot, alpha,
    alphadot): qddot = base acceleration - (2p/alpha) alphadot qdot and
    alphaddot = p alpha^(2p-1) g(qdot, qdot).  The stage must lie off the
    apex (alpha > 0) with finite entries, and so must its derivative."""
    dim = base.dim
    alpha = y[2 * dim]
    alphadot = y[2 * dim + 1]
    if alpha <= 0.0:
        raise ApexCrossingError("apex crossing: alpha <= 0", alpha=float(alpha))
    if not np.isfinite(y).all():
        raise NonFiniteError("non-finite cone state")
    qdot = y[dim:2 * dim]
    speed2, acc = base.jet(y[:dim], qdot)
    out = np.empty_like(y)
    out[:dim] = qdot
    out[dim:2 * dim] = acc - (2.0 * p / alpha) * alphadot * qdot
    out[2 * dim] = alphadot
    out[2 * dim + 1] = p * alpha ** (2.0 * p - 1.0) * speed2
    if not np.isfinite(out).all():
        raise NonFiniteError("non-finite cone derivative")
    return out


def _cone_energy(y, p, base):
    """alpha^{2p} g(qdot, qdot) + alphadot^2 of packed states, one or a
    stack along a leading axis."""
    dim = base.dim
    alpha = y[..., 2 * dim]
    alphadot = y[..., 2 * dim + 1]
    speed2, _ = base.jet(y[..., :dim], y[..., dim:2 * dim])
    return alpha ** (2.0 * p) * speed2 + alphadot ** 2


def cone_rhs(state, p, base):
    """Time derivative (qdot, qddot, alphadot, alphaddot) of the cone flow.

    qddot = base acceleration - (2p/alpha) * alphadot * qdot and
    alphaddot = p * alpha^(2p-1) * g(qdot, qdot); for p = 1 the radial
    equation is alphaddot = alpha * g(qdot, qdot).
    """
    dim = base.dim
    dy = _cone_rhs(_pack(state), p, base)
    return dy[:dim], dy[dim:2 * dim], float(dy[2 * dim]), float(dy[2 * dim + 1])


def cone_energy(state, p, base):
    """Squared speed alpha^{2p} g(qdot,qdot) + alphadot^2, conserved along geodesics."""
    return float(_cone_energy(_pack(state), p, base))


def integrate_cone(initial, problem, base):
    """Fixed-step RK4 integration of the cone geodesic flow.

    Returns a trace with columns t, m (= alpha^2), xi (= 2 alphadot/alpha),
    H (the cone energy), then q, qdot, alpha, alphadot.  One packed RHS
    (``_cone_rhs``) feeds ``trace._rk4``.  Aborts with the step index on
    apex crossing (alpha <= 0), non-finite values, or a failure of the
    base's jet (SpdError on the SPD base).
    """
    problem.validate()
    initial.validate(base.dim)
    dim = base.dim
    p = problem.p

    def post(y):
        if y[2 * dim] <= 0.0:
            raise ApexCrossingError("apex crossing during integration",
                                    alpha=float(y[2 * dim]))

    cols = (["t", "m", "xi", "H"]
            + [f"q{i}" for i in range(dim)]
            + [f"qdot{i}" for i in range(dim)]
            + ["alpha", "alphadot"])
    data = np.empty((problem.steps + 1, len(cols)))
    ys = data[:, 4:]
    ys[0] = _pack(initial)
    _rk4(lambda y: _cone_rhs(y, p, base), post, ys, problem.dt)
    alpha = ys[:, 2 * dim]
    data[:, 0] = np.arange(problem.steps + 1) * problem.dt
    data[:, 1] = alpha ** 2
    data[:, 2] = 2.0 * ys[:, 2 * dim + 1] / alpha
    data[:, 3] = _cone_energy(ys, p, base)
    return GeodesicTrace(columns=tuple(cols), data=data)


def _require_off_apex(angle, **details):
    """A straight path of a cone's flat picture that sweeps an angle >= pi
    runs through the apex, where no geodesic of the model continues:
    ApexCrossingError."""
    if angle >= np.pi:
        raise ApexCrossingError("the geodesic runs through the cone apex "
                                "(theta >= pi)", theta=float(angle), **details)


def cone_line(m0, m1, theta, t):
    """Straight line z(t) = (1 - t) a + t b of a cone's flat picture.

    Every model here is a Euclidean cone, so its two-point geodesic is this
    line in a flat plane, with |a|^2 = m0, |b|^2 = m1 and angle theta
    between a and b (Liero-Mielke-Savare, Invent. Math. 2018, sec. 7).
    Returns the mass m(t) = |z(t)|^2 and the base-arc fraction
    s(t) = phi(t) / theta in [0, 1], phi(t) the angle of z(t) from a; at
    theta = 0, s takes its limit t sqrt(m1) / sqrt(m(t)).  Broadcasts over t
    and over array masses.  For theta >= pi the line runs through the apex
    and no geodesic of the model connects the endpoints: ApexCrossingError.
    """
    _require_off_apex(theta)
    r0 = np.sqrt(m0)
    r1 = np.sqrt(m1)
    x = (1.0 - t) * r0 + t * r1 * np.cos(theta)
    y = t * r1 * np.sin(theta)
    m = x * x + y * y
    s = np.arctan2(y, x) / theta if theta > 0.0 else t * r1 / np.sqrt(m)
    return m, s


def cone_ray(m0, xi0, omega0, t):
    """Ray z(t) = a + t v of a cone's flat picture: the initial-value geodesic.

    |a|^2 = m0, and v = sqrt(m0) (xi0 / 2, omega0) in the frame of a, with
    xi0 = mdot(0) / m0 and omega0 >= 0 the initial angular speed (the base
    speed over the radius).  Returns the mass
    m(t) = |z(t)|^2 = m0 ((1 + xi0 t / 2)^2 + omega0^2 t^2), whose constant
    acceleration 2 m0 (xi0^2 / 4 + omega0^2) is the energy H, and the
    cone angle sigma(t) = int_0^t m0 / m = atan2(omega0 t, 1 + xi0 t / 2) /
    omega0 swept by z, with its limit t / (1 + xi0 t / 2) at omega0 = 0.
    Broadcasts over t >= 0.  A radial ray (omega0 = 0) with xi0 < 0 reaches
    the apex at t = -2 / xi0, where its angle jumps to pi: ApexCrossingError
    for any t from there on, whose ``step`` is the index of the first such t.
    """
    x = 1.0 + 0.5 * xi0 * t
    y = omega0 * t
    phi = np.arctan2(y, x) if omega0 > 0.0 else np.where(x > 0.0, 0.0, np.pi)
    # phi <= pi, so the first maximum is the first t at the apex, if any
    _require_off_apex(np.max(phi), xi0=float(xi0), omega0=float(omega0),
                      step=int(np.argmax(phi)))
    m = m0 * (x * x + y * y)
    sigma = phi / omega0 if omega0 > 0.0 else t / x
    return m, sigma


def radial_mass_geodesic(m0, m1, t):
    """Pure-scaling geodesic of total mass: ((1-t) sqrt(m0) + t sqrt(m1))^2.

    sqrt(m) is the flat radial coordinate, so it is affine in t and the mass
    itself is a quadratic in t: the theta = 0 case of ``cone_line``.
    """
    if m0 <= 0.0 or m1 <= 0.0:
        raise MassError("masses must be positive", m0=float(m0), m1=float(m1))
    return cone_line(m0, m1, 0.0, t)[0]
