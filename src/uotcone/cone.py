"""Geodesics of warped-product cones dalpha^2 + alpha^{2p} g over a base.

Every geodesic of such a cone runs along a reparametrized geodesic of the
base, and Clairaut's integral alpha^{2p} |qdot|_g = c holds along it
(Bishop-O'Neill, Trans. AMS 1969).  So the flow is three scalars, the radius
alpha, its rate and the base arc length s:

    alphaddot = p c^2 alpha^{-2p-1},    sdot = c alpha^{-2p},

and the base point is q(t) = exp_{q0}(s(t) qdot0 / |qdot0|_g).  The base
enters only through its speed and its exponential map (``BaseManifold``),
so a circle, a flat space, or the space of SPD matrices plug in
interchangeably.  p = 1 is the standard cone, p = 0 the product cylinder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ApexCrossingError, NonFiniteError, NumericsError
from .trace import GeodesicTrace, _norm, _rk4


@dataclass(frozen=True)
class BaseManifold:
    """Base (Q, g) seen through its geodesics.

    ``speed(q0, qdot0)`` is |qdot0|_g.  ``exp(q0, qdot0, s)`` returns the
    points and the unit velocities of the unit-speed geodesic from q0 along
    qdot0 at the arc lengths s (a 1-D array), one row of dim entries per
    arc; for qdot0 = 0 they are q0 and 0.  A base with a boundary raises its
    own NumericsError at the first arc at or beyond it, with that arc's
    index as ``step``.
    """

    dim: int
    speed: Callable
    exp: Callable


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


def _euclidean_speed(q0, qdot0):
    return _norm(qdot0)  # |qdot0|^2 overflows from 1.3e154 on


def _euclidean_exp(q0, qdot0, s):
    # straight coordinate lines; a zero velocity has no direction and stays 0
    speed = _euclidean_speed(q0, qdot0)
    u = qdot0 / speed if speed > 0.0 else qdot0
    return q0 + np.multiply.outer(s, u), np.broadcast_to(u, (s.size, u.size))


def circle_base():
    """Unit circle S^1 with angle coordinate and metric dphi^2."""
    return BaseManifold(dim=1, speed=_euclidean_speed, exp=_euclidean_exp)


def flat_base(dim):
    """Flat R^dim with the Euclidean metric."""
    return BaseManifold(dim=dim, speed=_euclidean_speed, exp=_euclidean_exp)


def scaled_base(base, factor):
    """Same geodesics, metric multiplied by a positive constant.

    Rescaling g changes the radial coupling of the cone, which is how the
    mass-weighted metrics (with their factor-4 radial normalization) are
    realized on top of a unit-normalized base.  Speeds and arc lengths
    scale by sqrt(factor).
    """
    if factor <= 0.0:
        raise ValueError("metric scale factor must be positive")
    root = np.sqrt(factor)

    def exp(q0, qdot0, s):
        q, u = base.exp(q0, qdot0, s / root)
        return q, u / root

    return BaseManifold(dim=base.dim, exp=exp,
                        speed=lambda q0, qdot0: root * base.speed(q0, qdot0))


def _clairaut_rhs(y, p, alpha0, speed):
    """Time derivative of the reduced state y = (alpha, alphadot, s) from
    radius alpha0 and base speed |qdot0|_g: Clairaut's integral gives
    sdot = speed (alpha0 / alpha)^{2p}, a ratio in which c = alpha0^{2p} speed
    cannot under- or overflow, and alphaddot = p alpha^{2p-1} sdot^2.  A
    stage at or below the apex (alpha <= 0) raises ApexCrossingError."""
    alpha = y[0]
    if alpha <= 0.0:
        raise ApexCrossingError("apex crossing: alpha <= 0", alpha=float(alpha))
    sdot = speed * (alpha0 / alpha) ** (2.0 * p)
    return np.array([y[1], p * alpha ** (2.0 * p - 1.0) * sdot * sdot, sdot])


def integrate_cone(initial, problem, base):
    """Fixed-step RK4 integration of the cone geodesic flow, for any p.

    Returns a trace with columns t, m (= alpha^2), xi (= 2 alphadot/alpha),
    H (the cone energy alphadot^2 + alpha^{2p} sdot^2), then q, qdot, alpha,
    alphadot.  ``trace._rk4`` steps the reduced state (alpha, alphadot, s)
    through ``_clairaut_rhs``, and ``_cone_trace`` makes the columns.  Aborts
    with the step index on apex crossing (alpha <= 0), non-finite values, or
    an arc beyond the base's boundary (not-spd on the SPD base), whichever
    comes first.  For p = 1, ``cone_geodesic_ray`` gives the same trace in
    closed form.
    """
    problem.validate()
    initial.validate(base.dim)
    p = problem.p
    ys = np.zeros((problem.steps + 1, 3))
    ys[0, :2] = initial.alpha, initial.alpha_dot
    speed = base.speed(initial.q, initial.q_dot)

    def post(y):
        if y[0] <= 0.0:
            raise ApexCrossingError("apex crossing during integration",
                                    alpha=float(y[0]))

    try:
        _rk4(lambda y: _clairaut_rhs(y, p, initial.alpha, speed), post, ys, problem.dt)
    except NumericsError as exc:
        # an arc past the base's boundary before that step fails first
        base.exp(initial.q, initial.q_dot, ys[:exc.details["step"], 2])
        raise
    return _cone_trace(initial, problem, base, speed, *ys.T)


def cone_geodesic_ray(initial, problem, base):
    """The closed form of ``integrate_cone`` for p = 1: the same trace
    columns on the same time grid, with no RK4 step.

    p = 1 is the standard cone, whose flat picture is the plane in polar
    coordinates (alpha, s): the geodesic is the ray of ``cone_ray`` with
    xi0 = 2 alphadot0 / alpha0 and omega0 = |qdot0|_g, in units of alpha0,
    and its angle is the base arc s.  The radius alpha0 |(x, y)| is taken
    with hypot, not from the mass of ``cone_ray``, so a start next to the
    apex, where (alpha / alpha0)^2 overflows, stays finite; alpha0 and
    alphadot0 enter only as factors: scaling both by a power of two scales
    alpha, alphadot exactly and leaves the base path bit for bit.  A radial
    collapse is the ApexCrossingError of ``cone_ray``, at the first sample
    at or past the apex; a radial ray leaves the base point where it is, so
    no base boundary comes before it.  Any other p raises ValueError.
    """
    if problem.p != 1.0:
        raise ValueError("the cone geodesic has a closed form only for p = 1")
    problem.validate()
    initial.validate(base.dim)
    speed = base.speed(initial.q, initial.q_dot)
    t = np.arange(problem.steps + 1) * problem.dt
    a0, adot0 = initial.alpha, initial.alpha_dot
    x, y, s = _ray_picture(2.0 * (adot0 / a0), speed, t)
    r = np.hypot(x, y)
    alpha = a0 * r
    alphadot = adot0 * (x / r) + (a0 * speed) * (y / r)
    return _cone_trace(initial, problem, base, speed, alpha, alphadot, s)


def _cone_trace(initial, problem, base, speed, alpha, alphadot, s):
    """The trace of a cone geodesic from its reduced state along the time
    grid: one call of the base's ``exp`` over the arc column s gives q and
    the direction u of qdot = sdot u, with sdot = |qdot0|_g
    (alpha0 / alpha)^{2p} from Clairaut's integral, and
    H = alphadot^2 + alpha^{2p} sdot^2.  A non-finite entry raises the
    NonFiniteError of ``GeodesicTrace``, which names its row as ``step``."""
    p = problem.p
    q, u = base.exp(initial.q, initial.q_dot, s)
    sdot = speed * (initial.alpha / alpha) ** (2.0 * p)
    data = np.column_stack([np.arange(problem.steps + 1) * problem.dt, alpha ** 2,
                            2.0 * alphadot / alpha,
                            alphadot ** 2 + alpha ** (2.0 * p) * sdot * sdot,
                            q, sdot[:, None] * u, alpha, alphadot])
    cols = (["t", "m", "xi", "H"] + [f"q{i}" for i in range(base.dim)]
            + [f"qdot{i}" for i in range(base.dim)] + ["alpha", "alphadot"])
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


def cone_line_start(m0, m1, theta):
    """The initial data of ``cone_line(m0, m1, theta, t)``: xi0 = mdot(0) / m0
    and the rate sdot0 = sqrt(m1) sin(theta) / (sqrt(m0) theta) of its
    base-arc fraction s (sqrt(m1) / sqrt(m0) at theta = 0), so the line is
    the ray ``cone_ray(m0, xi0, theta sdot0, t)``, whose angle reaches
    1 / sdot0 at t = 1.  For theta >= pi: ApexCrossingError."""
    _require_off_apex(theta)
    r0, r1 = math.sqrt(m0), math.sqrt(m1)
    # xi0 = 2 (r1 cos(theta) - r0) / r0, written without the cancellation of
    # r1 cos(theta) against r0 when m0 ~ m1 and theta is small:
    # r1 cos(theta) - r0 = (m1 - m0) / (r0 + r1) - 2 r1 sin^2(theta / 2)
    xi0 = 2.0 * ((m1 - m0) / (r0 + r1) - 2.0 * r1 * math.sin(0.5 * theta) ** 2) / r0
    sdot0 = r1 / r0 * (math.sin(theta) / theta if theta > 0.0 else 1.0)
    return xi0, sdot0


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
    x, y, phi = _ray_picture(xi0, omega0, t)
    m = m0 * (x * x + y * y)
    sigma = phi / omega0 if omega0 > 0.0 else t / x
    return m, sigma


def _ray_picture(xi0, omega0, t):
    """The ray of ``cone_ray`` in units of |a|: its coordinates (x, y) in
    the frame of a and the angle phi it has swept, or ApexCrossingError."""
    x = 1.0 + 0.5 * xi0 * t
    y = omega0 * t
    phi = np.arctan2(y, x) if omega0 > 0.0 else np.where(x > 0.0, 0.0, np.pi)
    # phi <= pi, so the first maximum is the first t at the apex, if any
    _require_off_apex(np.max(phi), xi0=float(xi0), omega0=float(omega0),
                      step=int(np.argmax(phi)))
    return x, y, phi
