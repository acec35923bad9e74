"""Geodesics of warped-product cones r^{2p} g + dr^2 over a pluggable base.

The base manifold enters only through two callbacks (metric evaluation and
coordinate geodesic acceleration), so a circle, a flat space, or the space of
SPD matrices plug in interchangeably.  p = 1 is the standard cone, p = 0 the
product cylinder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ApexCrossingError, MassError, NonFiniteError
from .trace import GeodesicTrace, _rk4


@dataclass(frozen=True)
class BaseManifold:
    """Base (Q, g) seen through callbacks.

    ``metric_eval(q, u, v)`` evaluates g_q(u, v).  ``geodesic_rhs(q, qdot)``
    returns the coordinate acceleration of the unforced base geodesic, i.e.
    the base geodesic equation reads qddot = geodesic_rhs(q, qdot).
    """

    dim: int
    metric_eval: Callable
    geodesic_rhs: Callable


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


def circle_base():
    """Unit circle S^1 with angle coordinate and metric dphi^2."""
    return BaseManifold(
        dim=1,
        metric_eval=lambda q, u, v: float(u @ v),
        geodesic_rhs=lambda q, qdot: np.zeros(1),
    )


def flat_base(dim):
    """Flat R^dim with the Euclidean metric."""
    return BaseManifold(
        dim=dim,
        metric_eval=lambda q, u, v: float(u @ v),
        geodesic_rhs=lambda q, qdot: np.zeros(dim),
    )


def scaled_base(base, factor):
    """Same geodesics, metric multiplied by a positive constant.

    Rescaling g changes the radial coupling of the cone, which is how the
    mass-weighted metrics (with their factor-4 radial normalization) are
    realized on top of a unit-normalized base.
    """
    if factor <= 0.0:
        raise ValueError("metric scale factor must be positive")
    return BaseManifold(
        dim=base.dim,
        metric_eval=lambda q, u, v: factor * base.metric_eval(q, u, v),
        geodesic_rhs=base.geodesic_rhs,
    )


def cone_rhs(state, p, base):
    """Time derivative (qdot, qddot, alphadot, alphaddot) of the cone flow.

    qddot = base acceleration - (2p/alpha) * alphadot * qdot and
    alphaddot = p * alpha^(2p-1) * g(qdot, qdot); for p = 1 the radial
    equation is alphaddot = alpha * g(qdot, qdot).
    """
    if state.alpha <= 0.0:
        raise ApexCrossingError("apex crossing: alpha <= 0", alpha=float(state.alpha))
    g_speed2 = base.metric_eval(state.q, state.q_dot, state.q_dot)
    qddot = base.geodesic_rhs(state.q, state.q_dot) \
        - (2.0 * p / state.alpha) * state.alpha_dot * state.q_dot
    alphaddot = p * state.alpha ** (2.0 * p - 1.0) * g_speed2
    out = (state.q_dot, qddot, state.alpha_dot, alphaddot)
    if not all(np.all(np.isfinite(np.atleast_1d(v))) for v in out):
        raise NonFiniteError("non-finite cone derivative")
    return out


def cone_energy(state, p, base):
    """Squared speed alpha^{2p} g(qdot,qdot) + alphadot^2, conserved along geodesics."""
    return state.alpha ** (2.0 * p) * base.metric_eval(state.q, state.q_dot, state.q_dot) \
        + state.alpha_dot**2


def _unpack(y, dim):
    # numpy scalars: an overflow becomes inf, which the finiteness checks type
    return ConeState(q=y[:dim], q_dot=y[dim:2 * dim],
                     alpha=y[2 * dim], alpha_dot=y[2 * dim + 1])


def integrate_cone(initial, problem, base):
    """Fixed-step RK4 integration of the cone geodesic flow.

    Returns a trace with columns t, m (= alpha^2), xi (= 2 alphadot/alpha),
    H (the cone energy), then q, qdot, alpha, alphadot.  Aborts with the step
    index on apex crossing (alpha <= 0) or non-finite values.
    """
    problem.validate()
    initial.validate(base.dim)
    dim = base.dim

    def f(y):
        return np.concatenate([np.atleast_1d(np.asarray(v, dtype=float))
                               for v in cone_rhs(_unpack(y, dim), problem.p, base)])

    def post(y):
        if not np.all(np.isfinite(y)):
            raise NonFiniteError("non-finite state during integration")
        if y[2 * dim] <= 0.0:
            raise ApexCrossingError("apex crossing during integration",
                                    alpha=float(y[2 * dim]))

    cols = (["t", "m", "xi", "H"]
            + [f"q{i}" for i in range(dim)]
            + [f"qdot{i}" for i in range(dim)]
            + ["alpha", "alphadot"])
    data = np.empty((problem.steps + 1, len(cols)))
    data[0, 4:] = np.concatenate([initial.q, initial.q_dot,
                                  [initial.alpha, initial.alpha_dot]])
    _rk4(f, post, data[:, 4:], problem.dt)
    for k, row in enumerate(data):
        state = _unpack(row[4:], dim)
        row[0] = k * problem.dt
        row[1] = state.alpha**2
        row[2] = 2.0 * state.alpha_dot / state.alpha
        row[3] = cone_energy(state, problem.p, base)
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
    for any t from there on.
    """
    x = 1.0 + 0.5 * xi0 * t
    y = omega0 * t
    phi = np.arctan2(y, x) if omega0 > 0.0 else np.where(x > 0.0, 0.0, np.pi)
    _require_off_apex(np.max(phi), xi0=float(xi0), omega0=float(omega0))
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
