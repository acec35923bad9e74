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

from .cone import BaseManifold, cone_line, cone_ray
from .errors import (MassError, NonFiniteError, ShootingError, SingularSystemError,
                     SpdError, SymmetryError)
from .trace import GeodesicTrace, _first_member, _rk4

_SYM_TOL = 1e-12


def symmetrize(M):
    """Symmetric part of a matrix, or of each matrix of a stack."""
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def require_symmetric(M, what="matrix", tol=_SYM_TOL):
    """Validate finite entries and symmetry up to tol (relative to the matrix
    scale), return the symmetrized copy."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise SymmetryError(f"{what} must be square", shape=list(M.shape))
    if not np.all(np.isfinite(M)):
        raise NonFiniteError(f"{what} has non-finite entries")
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


def _finite(value):
    # numpy scalar squares overflow to inf instead of raising OverflowError
    if not np.isfinite(value):
        raise NonFiniteError("the metric value overflows", value=str(value))
    return float(value)


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
    return _finite(m * np.trace(Sigma @ (Adot.T @ Adot)) + np.float64(mdot) ** 2 / m)


def base_metric_eval(V, m, X, xi):
    """Squared length of (X, xi m) at (V, m): m (tr(V S S) + xi^2), X = SV + VS."""
    if m <= 0.0:
        raise MassError("mass must be positive", m=float(m))
    S = lyapunov_solve(V, X)
    return _finite(m * (np.sum((V @ S) * S) + np.float64(xi) ** 2))


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
    velocity reconstructed from P.  A state of stacked V, P (leading axis)
    and arrays m, xi gives an array."""
    if np.any(state.m <= 0.0):
        raise MassError("mass must be positive", m=float(np.min(state.m)))
    # 2 tr(V P^2) / m with P scaled by a power of two near 1 / m: tr(V P^2)
    # underflows for tiny masses, whose momenta are tiny too, and the exact
    # scaling gives the bits of the direct formula wherever that formula
    # stays clear of the subnormal range
    frac, e = np.frexp(state.m)
    Ps = np.ldexp(state.P, -np.expand_dims(e, (-2, -1)))
    kinetic = np.sum((state.V @ Ps) * Ps, axis=(-2, -1))
    H = np.ldexp(2.0 * kinetic / frac, e) + 0.5 * state.m * state.xi**2
    return H if np.ndim(H) else float(H)


def _pack_state(state):
    n = state.n
    y = np.empty(2 * n * n + 2)
    y[:n * n] = state.V.ravel()
    y[n * n:2 * n * n] = state.P.ravel()
    y[-2] = state.m
    y[-1] = state.xi
    return y


def _gauss_rhs(y, n):
    """The canonical equations on packed states: one state (2n^2 + 2 entries)
    or a stack of them along a leading member axis, with the matrix products
    broadcast over the stack."""
    nn = n * n
    lead = y.shape[:-1]
    mat = (*lead, n, n)
    flat = (*lead, nn)
    V = y[..., :nn].reshape(mat)
    P = y[..., nn:2 * nn].reshape(mat)
    m = y[..., -2][()]  # numpy scalars for one state, whose arithmetic is fast
    xi = y[..., -1][()]
    mm = m[..., None, None] if lead else m
    PV = P @ V
    P2 = P @ P
    out = np.empty_like(y)
    out[..., :nn] = ((2.0 / mm) * (PV + PV.swapaxes(-1, -2))).reshape(flat)
    out[..., nn:2 * nn] = ((-2.0 / mm) * P2).reshape(flat)
    out[..., -2] = xi * m
    out[..., -1] = (2.0 / m**2) * (V * P2).reshape(flat).sum(-1) - 0.5 * xi * xi
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
    """Post-step hook of the Gaussian flows, on one packed state or a stack
    of them: re-symmetrize V and P in place, then require finite entries,
    positive mass and an SPD covariance.  A failing stack names its first
    failing member."""
    nn = n * n
    lead = y.shape[:-1]
    VP = y[..., :2 * nn].reshape(*lead, 2, n, n)
    y[..., :2 * nn] = (0.5 * (VP + VP.swapaxes(-1, -2))).reshape(*lead, 2 * nn)
    if not np.isfinite(y).all():
        raise NonFiniteError("non-finite state during integration",
                             **_first_member(~np.isfinite(y).all(-1)))
    m = y[..., -2]
    if m.min() <= 0.0:
        where = _first_member(m <= 0.0)
        raise MassError("mass became nonpositive during integration",
                        m=float(m[where.get("member", ())]), **where)
    V = y[..., :nn].reshape(*lead, n, n)
    try:
        np.linalg.cholesky(V)
    except np.linalg.LinAlgError:
        where = _first_member(_cholesky_fails(V)) if lead else {}
        raise SpdError("covariance lost positive-definiteness", **where) from None


def _cholesky_fails(V):
    """One flag per matrix of a stack: its Cholesky factorization fails."""
    flags = np.zeros(len(V), dtype=bool)
    for i, Vi in enumerate(V):
        try:
            np.linalg.cholesky(Vi)
        except np.linalg.LinAlgError:
            flags[i] = True
    return flags


def integrate_geodesic(initial, dt, steps):
    """Fixed-step RK4 integration of the cotangent geodesic flow.

    The trace columns are t, m, xi, H followed by the row-major entries of V
    and P.  SPD loss of V, nonpositive mass, or non-finite values abort with
    the offending step index.  ``geodesic_ray`` is its closed form.
    """
    return _flows([initial], dt, steps, stacked=False)[0]


def integrate_geodesics(states, dt, steps):
    """``integrate_geodesic`` for states of equal n, stepped as one stack.

    Returns one trace per state, equal entry for entry to its own
    ``integrate_geodesic`` trace.  A failure aborts the whole stack and
    carries, next to the step index, the index ``member`` of the first
    failing state.
    """
    return _flows(states, dt, steps, stacked=True)


def _flows(initials, dt, steps, stacked):
    # a single state runs on the 1-D layout, where numpy scalar arithmetic
    # keeps the per-step cost of one small state down
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    states = [s.validate() for s in initials]
    n = states[0].n
    if any(s.n != n for s in states):
        raise ValueError("stacked states must have equal n")
    nn = n * n
    ys = np.empty((len(states), steps + 1, 2 * nn + 2))
    ys[:, 0] = [_pack_state(s) for s in states]
    _rk4(lambda y: _gauss_rhs(y, n), lambda y: _project(y, n),
         ys.swapaxes(0, 1) if stacked else ys[0], dt)
    t = np.arange(steps + 1) * dt
    return [_geodesic_trace(t, y[:, :nn].reshape(-1, n, n), y[:, -2],
                            y[:, nn:2 * nn].reshape(-1, n, n), y[:, -1]) for y in ys]


def _geodesic_trace(t, V, m, P, xi):
    """Trace of stacked Gaussian states: columns t, m, xi, H, then the
    row-major entries of V and P."""
    n = V.shape[-1]
    nn = n * n
    cols = (["t", "m", "xi", "H"]
            + [f"V_{i}_{j}" for i in range(n) for j in range(n)]
            + [f"P_{i}_{j}" for i in range(n) for j in range(n)])
    data = np.empty((t.size, len(cols)))
    data[:, 0] = t
    data[:, 1] = m
    data[:, 2] = xi
    data[:, 3] = hamiltonian(GaussianCotangentState(V=V, m=m, P=P, xi=xi))
    data[:, 4:4 + nn] = V.reshape(-1, nn)
    data[:, 4 + nn:] = P.reshape(-1, nn)
    return GeodesicTrace(columns=tuple(cols), data=data)


def _ray(V0, m0, P0, xi0, t, pb0=None):
    """The geodesic from (V0, m0, P0, xi0) at the times t >= 0, in closed form.

    In the cone's flat picture it is the ray ``cone_ray(m0, xi0, omega0, t)``
    with S0 = 2 P0 / m0 and omega0^2 = tr(V0 S0^2) / 4 (plus
    |pb0|^2 / (4 m0^2) with a mean momentum pb0), both H0 / (2 m0) - xi0^2 / 4.
    The covariance runs along the balanced curve by the cone angle sigma(t)
    (Takatsu, Osaka J. Math. 2011): V = C V0 C and P = P0 C^{-1} with
    C = I + sigma S0; the mass rate is mdot = m0 xi0 + H0 t.  Returns m, xi,
    sigma and the stacked V, P; row t = 0 is the initial state exactly.  A
    singular C (the covariance leaves the SPD cone) raises SpdError with the
    index of the first such time.
    """
    S0 = (2.0 / m0) * P0
    omega2 = 0.25 * np.sum((V0 @ S0) * S0)
    if pb0 is not None:
        omega2 = omega2 + 0.25 * (pb0 @ pb0) / m0 / m0
    m, sigma = cone_ray(m0, xi0, np.sqrt(omega2), t)
    xi = (m0 / m) * (xi0 + (0.5 * xi0 * xi0 + 2.0 * omega2) * t)
    lam, Q = np.linalg.eigh(S0)
    c = 1.0 + np.multiply.outer(sigma, lam)  # eigenvalues of C
    lost = np.flatnonzero(np.min(c, axis=-1) <= 0.0)
    if lost.size:
        raise SpdError("covariance lost positive-definiteness", step=int(lost[0]))
    C = np.eye(lam.size) + sigma[:, None, None] * S0
    V = symmetrize(C @ V0 @ C)
    P = symmetrize((Q * (0.5 * m0 * lam / c)[:, None, :]) @ Q.T)  # P0 C^{-1}
    P[sigma == 0.0] = P0  # C = I
    return m, xi, sigma, V, P


def geodesic_ray(initial, dt, steps):
    """The closed form of ``integrate_geodesic``: the same trace columns on
    the same time grid, from the flat-picture ray of ``_ray`` instead of RK4
    steps."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    state = initial.validate()
    t = np.arange(steps + 1) * dt
    m, xi, _, V, P = _ray(state.V, state.m, state.P, state.xi, t)
    return _geodesic_trace(t, V, m, P, xi)


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


def _two_point(Sigma0, m0, Sigma1, m1, shift2=0.0):
    """D = T - I (T the balanced transport map), the cone angle
    theta = sqrt(W2^2 + shift2) / 2 (W2^2 = tr(D Sigma0 D), shift2 =
    |b1 - b0|^2 with means), and the initial data of the line
    ``cone_line(m0, m1, theta, t)``, which raises ApexCrossingError for
    theta >= pi: s1 = int_0^1 2/m dt (so int_0^t 2/m = s1 s(t)) and
    xi0 = mdot(0) / m0."""
    D = _mccann_map(Sigma0, Sigma1) - np.eye(Sigma0.shape[0])
    theta = 0.5 * math.sqrt(max(np.sum((D @ Sigma0) * D), 0.0) + shift2)
    cone_line(m0, m1, theta, 1.0)
    r0, r1 = math.sqrt(m0), math.sqrt(m1)
    g = r0 * r1  # m0 m1 itself may under- or overflow
    # a numpy division: g sin(theta) may underflow to 0, giving s1 = inf
    s1 = 2.0 * theta / np.float64(g * math.sin(theta)) if theta > 0.0 else 2.0 / g
    # xi0 = 2 (r1 cos(theta) - r0) / r0, written without the cancellation of
    # r1 cos(theta) against r0 when m0 ~ m1 and theta is small:
    # r1 cos(theta) - r0 = (m1 - m0) / (r0 + r1) - 2 r1 sin^2(theta / 2)
    xi0 = 2.0 * ((m1 - m0) / (r0 + r1) - 2.0 * r1 * math.sin(0.5 * theta) ** 2) / r0
    return D, theta, s1, xi0


def _require_landing(miss, tol, theta):
    """Endpoint check of the ray from the solved initial data: the norm of
    the stacked endpoint mismatches (Frobenius for matrices) must not exceed
    tol."""
    residual = float(np.linalg.norm(miss))
    if residual > tol:
        raise ShootingError("the ray from the solved initial data misses the endpoint",
                            residual=residual, tol=tol, theta=theta)


def shoot_bvp(Sigma0, m0, Sigma1, m1, tol=1e-8, dt=1e-3):
    """Solve the two-point geodesic problem on (covariance, mass) in closed form.

    The model is the Euclidean cone over the covariances with the balanced
    metric scaled by 1/4, so the geodesic is a straight line in a flat 2D
    picture with angle theta = W2(Sigma0, Sigma1) / 2 (``cone.cone_line``).
    The initial data are P0 = (T - I) / s1, with T the balanced transport
    map, and xi0 = 2 (sqrt(m0 m1) cos theta - m0) / m0, evaluated in a form
    that does not cancel when m0 ~ m1 and theta is small.  The geodesic from
    (Sigma0, m0, P0, xi0) is then the ray ``cone.cone_ray`` of the flat
    picture, built from those initial data alone (``geodesic_ray``), and
    sampled over unit time every dt (round(1 / dt) steps).  Its last sample
    must land on (Sigma1, m1) within tol in the combined
    Frobenius/absolute-mass norm, else ShootingError; this checks the
    two-point formulas independently.  theta >= pi raises ApexCrossingError.
    Returns P0, xi0 and the trace of the ray, with the columns of
    ``integrate_geodesic``; no RK4 step runs.
    """
    Sigma0 = require_spd(Sigma0, "Sigma0")
    Sigma1 = require_spd(Sigma1, "Sigma1")
    if m0 <= 0.0 or m1 <= 0.0:
        raise MassError("endpoint masses must be positive", m0=float(m0), m1=float(m1))
    n = Sigma0.shape[0]
    if Sigma1.shape != (n, n):
        raise ValueError("endpoint covariances must have equal shapes")
    D, theta, s1, xi0 = _two_point(Sigma0, m0, Sigma1, m1)
    P0 = D / s1
    steps = max(1, round(1.0 / dt))
    trace = geodesic_ray(GaussianCotangentState(V=Sigma0, m=m0, P=P0, xi=xi0),
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


@dataclass(frozen=True)
class AffineConnection:
    """Solved two-point problem between Gaussians with means.

    The path is the line ``cone.cone_line`` of the flat picture over the
    product base (covariances x means): the mass is m(t), and the base point
    moves along the base geodesic at the rate of the cone angle, by the
    base-arc fraction s(t).  So Sigma(t) = C Sigma0 C with
    C = I + s(t) (T - I), T the balanced transport map, and the mean is
    b0 + s(t) (b1 - b0), as the conserved mean momentum pb0 of the
    canonical flow gives it (bdot = pb0 / m).
    """

    g0: AffineGaussian
    g1: AffineGaussian
    P0: np.ndarray
    pb0: np.ndarray
    xi0: float

    def _line(self, t):
        g0, g1 = self.g0, self.g1
        db = g1.mean - g0.mean
        D, theta, _, _ = _two_point(g0.Sigma, g0.m, g1.Sigma, g1.m, db @ db)
        m, s = cone_line(g0.m, g1.m, theta, t)
        return D, db, m, s

    def at(self, t):
        D, db, m, s = self._line(t)
        C = np.eye(D.shape[0]) + s * D
        return AffineGaussian(Sigma=symmetrize(C @ self.g0.Sigma @ C),
                              mean=self.g0.mean + s * db, m=float(m))

    def mass_path(self, num=101):
        ts = np.linspace(0.0, 1.0, num)
        return ts, self._line(ts)[2]


def connect_affine(g0, g1, tol=1e-8):
    """Solve the two-point problem for Gaussians with means (zero-mean reference).

    The base is the product of the covariances and the means, so the cone
    angle is theta = sqrt(W2^2 + |b1 - b0|^2) / 2 and the closed form of
    ``shoot_bvp`` carries over, with the conserved mean momentum
    pb0 = 2 (b1 - b0) / s1.  The ray of the flat picture from
    (P0, xi0, pb0) alone, with the mean b(t) = b0 + sigma(t) pb0 / m0, must
    land on the covariance, mean and mass endpoints at t = 1 within tol,
    else ShootingError; theta >= pi raises ApexCrossingError.  No RK4 step
    runs.
    """
    g0 = g0.validate()
    g1 = g1.validate()
    n = g0.Sigma.shape[0]
    if g1.Sigma.shape != (n, n):
        raise ValueError("endpoint covariances must have equal shapes")
    db = g1.mean - g0.mean
    D, theta, s1, xi0 = _two_point(g0.Sigma, g0.m, g1.Sigma, g1.m, db @ db)
    P0 = D / s1
    pb0 = 2.0 * db / s1
    m, _, sigma, V, _ = _ray(g0.Sigma, g0.m, P0, xi0, np.ones(1), pb0)
    _require_landing(np.concatenate([V[0].ravel() - g1.Sigma.ravel(),
                                     g0.mean + sigma[0] * pb0 / g0.m - g1.mean,
                                     m - g1.m]), tol, theta)
    return AffineConnection(g0=g0, g1=g1, P0=P0, pb0=pb0, xi0=xi0)


def affine_geodesic(g0, g1, t, tol=1e-8):
    """Interpolate Gaussians with means along the closed-form two-point path.

    Solves the two-point problem on each call; reuse ``connect_affine`` when
    evaluating many parameter values of the same endpoint pair.
    """
    return connect_affine(g0, g1, tol=tol).at(t)


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
