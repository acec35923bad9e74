"""Finite-dimensional conical model on Gaussian densities.

Points are (covariance, total mass) pairs on Sym_+(n) x R_+.  Velocities of
the covariance are encoded through the continuous Lyapunov equation
X = SV + VS, the momentum dual to Xdot is P = m S / 2, and the Hamiltonian

    H = (2/m) tr(V P^2) + m xi^2 / 2

is the Legendre transform of the kinetic energy m (tr(V S S) + xi^2) / 2.
Along the canonical flow the total mass satisfies d^2 m / dt^2 = H exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cone import BaseManifold
from .errors import (ApexCrossingError, MassError, NonFiniteError, ShootingError,
                     SingularSystemError, SpdError, SymmetryError)
from .trace import GeodesicTrace, _rk4

_SYM_TOL = 1e-12


def symmetrize(M):
    return 0.5 * (M + M.T)


def require_symmetric(M, what="matrix", tol=_SYM_TOL):
    """Validate symmetry up to tol (relative to the matrix scale), return the
    symmetrized copy."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise SymmetryError(f"{what} must be square", shape=list(M.shape))
    scale = max(1.0, float(np.max(np.abs(M))) if M.size else 1.0)
    if float(np.max(np.abs(M - M.T))) > tol * scale:
        raise SymmetryError(f"{what} is not symmetric",
                            asymmetry=float(np.max(np.abs(M - M.T))))
    return symmetrize(M)


def require_spd(M, what="matrix"):
    """Validate symmetric positive-definiteness (by Cholesky), return the
    symmetrized copy."""
    M = require_symmetric(M, what)
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise SpdError(f"{what} is not positive definite") from None
    return M


def _spd_eigh(M, what="matrix"):
    M = require_symmetric(M, what)
    lam, Q = np.linalg.eigh(M)
    if lam[0] <= 0.0:
        raise SpdError(f"{what} is not positive definite", min_eigenvalue=float(lam[0]))
    return lam, Q


def spd_power(M, exponent, what="matrix"):
    """M^exponent through the symmetric eigendecomposition."""
    lam, Q = _spd_eigh(M, what)
    return symmetrize((Q * lam**exponent) @ Q.T)


def lyapunov_solve(V, X):
    """Solve X = SV + VS for symmetric S, with V SPD.

    Uses the eigendecomposition V = Q diag(lam) Q^T; in the eigenbasis the
    solution is elementwise X~_ij / (lam_i + lam_j).
    """
    lam, Q = _spd_eigh(V, "V")
    X = require_symmetric(X, "X")
    Xt = Q.T @ X @ Q
    St = Xt / (lam[:, None] + lam[None, :])
    return symmetrize(Q @ St @ Q.T)


def group_metric_eval(A, m, Adot, mdot, Sigma):
    """Squared length of (Adot, mdot) at (A, m) for the mass-weighted metric.

    The Gaussian integral of |Adot x|^2 against the reference density with
    covariance Sigma evaluates in closed form to tr(Sigma Adot^T Adot), so the
    value is m tr(Sigma Adot^T Adot) + mdot^2 / m.
    """
    if m <= 0.0:
        raise MassError("mass must be positive", m=float(m))
    A = np.asarray(A, dtype=float)
    sign, _ = np.linalg.slogdet(A)
    if sign == 0.0:
        raise SingularSystemError("A must be invertible")
    Sigma = require_spd(Sigma, "Sigma")
    Adot = np.asarray(Adot, dtype=float)
    return float(m * np.trace(Sigma @ (Adot.T @ Adot)) + mdot**2 / m)


def base_metric_eval(V, m, X, xi):
    """Squared length of (X, xi m) at (V, m): m (tr(V S S) + xi^2), X = SV + VS."""
    if m <= 0.0:
        raise MassError("mass must be positive", m=float(m))
    S = lyapunov_solve(V, X)
    return float(m * (np.sum((V @ S) * S) + xi**2))


def legendre_momentum(V, m, X):
    """Momentum dual to the covariance velocity X: P = m S / 2."""
    if m <= 0.0:
        raise MassError("mass must be positive", m=float(m))
    return 0.5 * m * lyapunov_solve(V, X)


@dataclass(frozen=True)
class GaussianCotangentState:
    V: np.ndarray
    m: float
    P: np.ndarray
    xi: float

    @property
    def n(self):
        return self.V.shape[0]

    def validate(self):
        V = require_spd(self.V, "V")
        P = require_symmetric(self.P, "P")
        if self.m <= 0.0:
            raise MassError("mass must be positive", m=float(self.m))
        if not np.isfinite(self.m) or not np.isfinite(self.xi):
            raise NonFiniteError("non-finite scalar state")
        return GaussianCotangentState(V=V, m=float(self.m), P=P, xi=float(self.xi))


def hamiltonian(state):
    """H = (2/m) tr(V P^2) + m xi^2 / 2; equals half the metric energy of the
    velocity reconstructed from P."""
    if state.m <= 0.0:
        raise MassError("mass must be positive", m=float(state.m))
    kinetic = np.sum((state.V @ state.P) * state.P)
    return float(2.0 * kinetic / state.m + 0.5 * state.m * state.xi**2)


def _pack_state(state):
    n = state.n
    y = np.empty(2 * n * n + 2)
    y[:n * n] = state.V.ravel()
    y[n * n:2 * n * n] = state.P.ravel()
    y[-2] = state.m
    y[-1] = state.xi
    return y


def _unpack_state(y, n):
    nn = n * n
    return GaussianCotangentState(
        V=y[:nn].reshape(n, n).copy(),
        m=float(y[-2]),
        P=y[nn:2 * nn].reshape(n, n).copy(),
        xi=float(y[-1]),
    )


def _gauss_rhs(y, n):
    nn = n * n
    V = y[:nn].reshape(n, n)
    P = y[nn:2 * nn].reshape(n, n)
    m = y[-2]
    xi = y[-1]
    PV = P @ V
    P2 = P @ P
    out = np.empty_like(y)
    out[:nn] = ((2.0 / m) * (PV + PV.T)).ravel()
    out[nn:2 * nn] = ((-2.0 / m) * P2).ravel()
    out[-2] = xi * m
    out[-1] = (2.0 / m**2) * np.sum(V * P2) - 0.5 * xi * xi
    return out


def geodesic_rhs(state):
    """Canonical equations of the Hamiltonian: returns (dV, dm, dP, dxi).

    dV = (2/m)(PV + VP), dm = xi m, dP = -(2/m) P^2,
    dxi = (2/m^2) tr(V P^2) - xi^2 / 2.
    """
    state = state.validate()
    dy = _gauss_rhs(_pack_state(state), state.n)
    n = state.n
    nn = n * n
    return (symmetrize(dy[:nn].reshape(n, n)), float(dy[-2]),
            symmetrize(dy[nn:2 * nn].reshape(n, n)), float(dy[-1]))


def _project(y, n):
    """Post-step hook of the Gaussian flows: re-symmetrize V and P in place,
    then require finite entries, positive mass and an SPD covariance."""
    nn = n * n
    V = y[:nn].reshape(n, n)
    P = y[nn:2 * nn].reshape(n, n)
    y[:nn] = (0.5 * (V + V.T)).ravel()
    y[nn:2 * nn] = (0.5 * (P + P.T)).ravel()
    if not np.all(np.isfinite(y)):
        raise NonFiniteError("non-finite state during integration")
    if y[-2] <= 0.0:
        raise MassError("mass became nonpositive during integration", m=float(y[-2]))
    try:
        np.linalg.cholesky(y[:nn].reshape(n, n))
    except np.linalg.LinAlgError:
        raise SpdError("covariance lost positive-definiteness") from None


def integrate_geodesic(initial, dt, steps):
    """Fixed-step RK4 integration of the cotangent geodesic flow.

    The trace columns are t, m, xi, H followed by the row-major entries of V
    and P.  SPD loss of V, nonpositive mass, or non-finite values abort with
    the offending step index.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    state = initial.validate()
    n = state.n
    nn = n * n
    states = np.empty((steps + 1, 2 * nn + 2))
    states[0] = _pack_state(state)
    _rk4(lambda y: _gauss_rhs(y, n), lambda y: _project(y, n), states, dt)
    cols = (["t", "m", "xi", "H"]
            + [f"V_{i}_{j}" for i in range(n) for j in range(n)]
            + [f"P_{i}_{j}" for i in range(n) for j in range(n)])
    data = np.empty((steps + 1, len(cols)))
    data[:, 0] = np.arange(steps + 1) * dt
    data[:, 1] = states[:, -2]
    data[:, 2] = states[:, -1]
    data[:, 3] = [hamiltonian(_unpack_state(y, n)) for y in states]
    data[:, 4:] = states[:, :2 * nn]
    return GeodesicTrace(columns=tuple(cols), data=data)


def _mccann_map(Sigma0, Sigma1):
    """Balanced transport map T with T Sigma0 T = Sigma1:
    T = Sigma1^{1/2} (Sigma1^{1/2} Sigma0 Sigma1^{1/2})^{-1/2} Sigma1^{1/2}."""
    Uh = spd_power(Sigma1, 0.5, "Sigma1")
    mid = spd_power(Uh @ Sigma0 @ Uh, -0.5, "Sigma1^(1/2) Sigma0 Sigma1^(1/2)")
    return symmetrize(Uh @ mid @ Uh)


def mccann_geodesic(U, V, t):
    """Balanced-transport geodesic between covariances: W(0) = V, W(1) = U.

    T = U^{1/2} (U^{1/2} V U^{1/2})^{-1/2} U^{1/2} and
    W(t) = [(1-t) I + t T] V [(1-t) I + t T].
    """
    U = require_spd(U, "U")
    V = require_spd(V, "V")
    T = _mccann_map(V, U)
    C = (1.0 - t) * np.eye(U.shape[0]) + t * T
    return symmetrize(C @ V @ C.T)


def _cone_line(m0, m1, d):
    """Straight line of the flat picture between the two-point endpoints.

    The endpoints sit at |a| = sqrt(m0) and |b| = sqrt(m1) with angle
    theta = d / 2 between them (d the base distance).  Returns theta,
    s1 = int_0^1 2/m dt (the swept angle over |a x b|, doubled) and the
    initial log-mass rate xi0 = 2 (sqrt(m0 m1) cos theta - m0) / m0.  For
    theta >= pi the line runs through the apex and no geodesic of the model
    connects the endpoints.
    """
    theta = 0.5 * d
    if theta >= math.pi:
        raise ApexCrossingError("the two-point geodesic runs through the cone apex "
                                "(theta >= pi)", theta=theta)
    g = math.sqrt(m0 * m1)
    s1 = 2.0 * theta / (g * math.sin(theta)) if theta > 0.0 else 2.0 / g
    return theta, s1, 2.0 * (g * math.cos(theta) - m0) / m0


def _require_landing(miss, tol, theta):
    """Endpoint check of the verification flow: the norm of the stacked
    endpoint mismatches (Frobenius for matrices) must not exceed tol."""
    residual = float(np.linalg.norm(miss))
    if residual > tol:
        raise ShootingError("the verification flow misses the endpoint",
                            residual=residual, tol=tol, theta=theta)


def shoot_bvp(Sigma0, m0, Sigma1, m1, tol=1e-8, dt=1e-3):
    """Solve the two-point geodesic problem on (covariance, mass) in closed form.

    The model is the Euclidean cone over the covariances with the balanced
    metric scaled by 1/4, so the geodesic is a straight line in a flat 2D
    picture with angle theta = W2(Sigma0, Sigma1) / 2 (see ``_cone_line``).
    The initial data are P0 = (T - I) / s1, with T the balanced transport
    map, and xi0 = 2 (sqrt(m0 m1) cos theta - m0) / m0.  The recorded RK4
    flow from (Sigma0, m0, P0, xi0) over unit time at dt verifies them: it
    must land on (Sigma1, m1) within tol in the combined
    Frobenius/absolute-mass norm, else ShootingError.  theta >= pi raises
    ApexCrossingError.  Returns P0, xi0 and the trace of that flow.
    """
    Sigma0 = require_spd(Sigma0, "Sigma0")
    Sigma1 = require_spd(Sigma1, "Sigma1")
    if m0 <= 0.0 or m1 <= 0.0:
        raise MassError("endpoint masses must be positive", m0=float(m0), m1=float(m1))
    n = Sigma0.shape[0]
    if Sigma1.shape != (n, n):
        raise ValueError("endpoint covariances must have equal shapes")
    D = _mccann_map(Sigma0, Sigma1) - np.eye(n)
    # W2^2 = tr(D Sigma0 D)
    theta, s1, xi0 = _cone_line(m0, m1, math.sqrt(max(np.sum((D @ Sigma0) * D), 0.0)))
    P0 = D / s1
    steps = max(1, round(1.0 / dt))
    trace = integrate_geodesic(GaussianCotangentState(V=Sigma0, m=m0, P=P0, xi=xi0),
                               1.0 / steps, steps)
    end = trace.data[-1]
    _require_landing(np.append(end[4:4 + n * n] - Sigma1.ravel(), end[1] - m1), tol, theta)
    return P0, xi0, trace


@dataclass(frozen=True)
class AffineGaussian:
    Sigma: np.ndarray
    mean: np.ndarray
    m: float

    def validate(self):
        Sigma = require_spd(self.Sigma, "Sigma")
        mean = np.asarray(self.mean, dtype=float)
        if mean.shape != (Sigma.shape[0],):
            raise ValueError("mean length must match the covariance size")
        if self.m <= 0.0:
            raise MassError("mass must be positive", m=float(self.m))
        return AffineGaussian(Sigma=Sigma, mean=mean, m=float(self.m))


def _affine_rhs(y, n):
    # layout: V (n^2), P (n^2), b (n), pb (n), m, xi
    nn = n * n
    V = y[:nn].reshape(n, n)
    P = y[nn:2 * nn].reshape(n, n)
    pb = y[2 * nn + n:2 * nn + 2 * n]
    m = y[-2]
    xi = y[-1]
    PV = P @ V
    P2 = P @ P
    out = np.empty_like(y)
    out[:nn] = ((2.0 / m) * (PV + PV.T)).ravel()
    out[nn:2 * nn] = ((-2.0 / m) * P2).ravel()
    out[2 * nn:2 * nn + n] = pb / m
    out[2 * nn + n:2 * nn + 2 * n] = 0.0
    out[-2] = xi * m
    out[-1] = (2.0 / m**2) * np.sum(V * P2) + 0.5 * (pb @ pb) / m**2 - 0.5 * xi * xi
    return out


def _affine_flow(y0, n, dt, steps):
    """End state of the affine flow from y0 after steps RK4 steps of dt."""
    states = np.empty((steps + 1, y0.size))
    states[0] = y0
    return _rk4(lambda y: _affine_rhs(y, n), lambda y: _project(y, n), states, dt)


@dataclass(frozen=True)
class AffineConnection:
    """Solved two-point problem between Gaussians with means.

    The covariance/mass pair follows the conical geodesic flow over the
    product base (covariances x means), where the mean motion enters through
    its conserved linear momentum; the reported mean itself is the affine
    interpolation of the endpoints.
    """

    g0: AffineGaussian
    g1: AffineGaussian
    P0: np.ndarray
    pb0: np.ndarray
    xi0: float
    dt: float

    def at(self, t):
        g0, g1 = self.g0, self.g1
        mean = (1.0 - t) * g0.mean + t * g1.mean
        if t == 0.0:
            return AffineGaussian(Sigma=g0.Sigma.copy(), mean=mean, m=g0.m)
        n = g0.Sigma.shape[0]
        steps = max(1, round(abs(t) / self.dt))
        y0 = np.concatenate([g0.Sigma.ravel(), self.P0.ravel(), g0.mean,
                             self.pb0, [g0.m, self.xi0]])
        y = _affine_flow(y0, n, t / steps, steps)
        return AffineGaussian(Sigma=symmetrize(y[:n * n].reshape(n, n)),
                              mean=mean, m=float(y[-2]))

    def mass_path(self, num=101):
        ts = np.linspace(0.0, 1.0, num)
        return ts, np.array([self.at(t).m for t in ts])


def connect_affine(g0, g1, tol=1e-8, dt=1e-3):
    """Solve the two-point problem for Gaussians with means (zero-mean reference).

    The base is the product of the covariances and the means, so the cone
    angle is theta = sqrt(W2^2 + |b1 - b0|^2) / 2 and the closed form of
    ``shoot_bvp`` carries over, with the conserved mean momentum
    pb0 = 2 (b1 - b0) / s1.  One unrecorded RK4 flow at dt verifies the
    covariance, mean and mass endpoints within tol, else ShootingError;
    theta >= pi raises ApexCrossingError.
    """
    g0 = g0.validate()
    g1 = g1.validate()
    n = g0.Sigma.shape[0]
    if g1.Sigma.shape != (n, n):
        raise ValueError("endpoint covariances must have equal shapes")
    D = _mccann_map(g0.Sigma, g1.Sigma) - np.eye(n)
    db = g1.mean - g0.mean
    theta, s1, xi0 = _cone_line(
        g0.m, g1.m, math.sqrt(max(np.sum((D @ g0.Sigma) * D), 0.0) + db @ db))
    P0 = D / s1
    pb0 = 2.0 * db / s1
    steps = max(1, round(1.0 / dt))
    y0 = np.concatenate([g0.Sigma.ravel(), P0.ravel(), g0.mean, pb0, [g0.m, xi0]])
    y1 = _affine_flow(y0, n, 1.0 / steps, steps)
    nn = n * n
    _require_landing(np.concatenate([y1[:nn] - g1.Sigma.ravel(),
                                     y1[2 * nn:2 * nn + n] - g1.mean,
                                     [y1[-2] - g1.m]]), tol, theta)
    return AffineConnection(g0=g0, g1=g1, P0=P0, pb0=pb0, xi0=xi0, dt=dt)


def affine_geodesic(g0, g1, t, tol=1e-8, dt=1e-3):
    """Interpolate Gaussians with means: affine mean motion, conical (Sigma, m).

    Solves the two-point problem on each call; reuse ``connect_affine`` when
    evaluating many parameter values of the same endpoint pair.
    """
    return connect_affine(g0, g1, tol=tol, dt=dt).at(t)


def submersion_consistency(A, m, thetaS, xi, Sigma):
    """Group metric of a horizontal lift vs base metric of its projection.

    The lift of the symmetric generator thetaS at (A, m) is (thetaS A, xi m);
    its projection moves the base covariance A Sigma A^T with velocity
    X = thetaS V + V thetaS.  Both numbers agree for horizontal data.
    """
    thetaS = require_symmetric(thetaS, "thetaS")
    A = np.asarray(A, dtype=float)
    Adot = thetaS @ A
    group_value = group_metric_eval(A, m, Adot, xi * m, Sigma)
    Vbase = symmetrize(A @ require_spd(Sigma, "Sigma") @ A.T)
    X = symmetrize(thetaS @ Vbase + Vbase @ thetaS)
    base_value = base_metric_eval(Vbase, m, X, xi)
    return group_value, base_value


def spd_base(n):
    """BaseManifold over Sym_+(n) with the balanced-transport metric.

    Points and tangents are row-major flattened n x n symmetric matrices.
    The metric is tr(V S_u S_v) with S_u the Lyapunov representer of u, and
    the geodesic acceleration is 2 S V S (whose integral curves are the
    balanced interpolation curves).
    """

    def metric(q, u, v):
        V = symmetrize(q.reshape(n, n))
        Su = lyapunov_solve(V, symmetrize(u.reshape(n, n)))
        return 0.5 * float(np.sum(Su * symmetrize(v.reshape(n, n))))

    def rhs(q, qdot):
        V = symmetrize(q.reshape(n, n))
        S = lyapunov_solve(V, symmetrize(qdot.reshape(n, n)))
        return (2.0 * S @ V @ S).ravel()

    return BaseManifold(dim=n * n, metric_eval=metric, geodesic_rhs=rhs)
