"""Finite-dimensional conical model on Gaussian densities.

Points are (covariance, total mass) pairs on Sym_+(n) x R_+.  The velocity
is the mass-free pair (S, xi): the covariance moves by Vdot = SV + VS (the
continuous Lyapunov equation) and the mass by mdot = xi m.  The momentum
P = m S / 2 is only its Legendre dual: every formula divides P by the mass
first and works in S = 2 P / m, and the Hamiltonian is the kinetic energy

    H = m (tr(V S^2) + xi^2) / 2.

Along the canonical flow the total mass satisfies d^2 m / dt^2 = H exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cone import BaseManifold, cone_line_start, cone_ray
from .config import DEFAULTS, unit_time_steps
from .errors import (MassError, NonFiniteError, ShootingError, SingularSystemError,
                     SpdError, SymmetryError)
from .trace import GeodesicTrace, _finite, _first_member, _norm, _rk4

_SYM_TOL = 1e-12


def symmetrize(M):
    """Symmetric part of a matrix, or of each matrix of a stack."""
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def require_symmetric(M, what="matrix"):
    """Validate symmetry up to _SYM_TOL relative to max |M|, at every scale
    (an all-zero matrix passes), and return the symmetrized copy, whose
    entries must be finite: M + M^T overflows from entries near 1e308 on."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise SymmetryError(f"{what} must be square", shape=list(M.shape))
    S = symmetrize(M)
    if not np.all(np.isfinite(S)):
        raise NonFiniteError(f"{what} has non-finite entries or overflows")
    asymmetry = float(np.max(np.abs(M - M.T), initial=0.0))
    if asymmetry > _SYM_TOL * float(np.max(np.abs(M), initial=0.0)):
        raise SymmetryError(f"{what} is not symmetric", asymmetry=asymmetry)
    return S


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
    """Ascending eigendecomposition of a symmetric positive-definite matrix:
    SpdError with the smallest eigenvalue if it is <= 0."""
    lam, Q = np.linalg.eigh(require_symmetric(M, what))
    if lam[0] <= 0.0:
        raise SpdError(f"{what} is not positive definite", min_eigenvalue=float(lam[0]))
    return lam, Q


def _spd_power(M, exponent, what="matrix"):
    """M^exponent through the symmetric eigendecomposition."""
    lam, Q = _spd_eigh(M, what)
    return symmetrize((Q * lam**exponent) @ Q.T)


def lyapunov_solve(V, X):
    """Solve X = SV + VS for symmetric S, with V SPD.

    Uses the eigendecomposition V = Q diag(lam) Q^T; in the eigenbasis the
    solution is elementwise X~_ij / (lam_i + lam_j).
    """
    lam, Q = _spd_eigh(V, "V")
    return _lyapunov_eig(lam, Q, require_symmetric(X, "X"))


def _lyapunov_eig(lam, Q, X):
    """The solution S of X = SV + VS from the eigendecomposition
    V = Q diag(lam) Q^T: in the eigenbasis S is elementwise
    X~_ij / (lam_i + lam_j).  No validation."""
    St = (Q.T @ X @ Q) / (lam[:, None] + lam[None, :])
    return symmetrize(Q @ St @ Q.T)


def group_metric_eval(A, m, Adot, mdot, Sigma):
    """Squared length of (Adot, mdot) at (A, m) for the mass-weighted metric.

    The Gaussian integral of |Adot x|^2 against the reference density with
    covariance Sigma evaluates in closed form to tr(Sigma Adot^T Adot), so the
    value is m tr(Sigma Adot^T Adot) + mdot (mdot / m), with the mass divided
    out before the square.
    """
    if m <= 0.0:
        raise MassError("mass must be positive", m=float(m))
    A = np.asarray(A, dtype=float)
    sign, _ = np.linalg.slogdet(A)
    if sign == 0.0:
        raise SingularSystemError("A must be invertible")
    Sigma = require_spd(Sigma, "Sigma")
    Adot = np.asarray(Adot, dtype=float)
    return _finite(m * np.trace(Sigma @ (Adot.T @ Adot)) + mdot * (mdot / m))


def base_metric_eval(V, m, X, xi):
    """Squared length of (X, xi m) at (V, m): m (tr(V S S) + xi^2), X = SV + VS."""
    if m <= 0.0:
        raise MassError("mass must be positive", m=float(m))
    S = lyapunov_solve(V, X)
    return _finite(m * (np.sum((V @ S) * S) + np.float64(xi) ** 2))


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
    """H = m (tr(V S^2) + xi^2) / 2 with S = 2 P / m: half the metric energy
    of the velocity reconstructed from P.  A state of stacked V, P (leading
    axis) and arrays m, xi gives an array."""
    if np.any(state.m <= 0.0):
        raise MassError("mass must be positive", m=float(np.min(state.m)))
    S = 2.0 * (state.P / np.expand_dims(state.m, (-2, -1)))
    H = 0.5 * state.m * (np.sum((state.V @ S) * S, axis=(-2, -1)) + state.xi**2)
    return H if np.ndim(H) else float(H)


def _pack_state(state, n):
    """The packed state embedded in size n >= state.n as diag(V, I),
    diag(P, 0): that block form is invariant under the canonical flow, and
    its leading block follows the flow of the state itself."""
    k = state.n
    V = np.eye(n)
    V[:k, :k] = state.V
    P = np.zeros((n, n))
    P[:k, :k] = state.P
    return np.concatenate([V.ravel(), P.ravel(), [state.m, state.xi]])


def _gauss_rhs(y, n, out):
    """The canonical equations on packed states, written into ``out``: one
    state (2n^2 + 2 entries) or a stack of them along a leading member axis,
    with the matrix products broadcast over the stack.

    They are written in the velocity S = 2 P / m, which carries no mass:
    Vdot = SV + VS, Pdot = -P S and xidot = tr(V P S) / m - xi^2 / 2, so no
    product holds a power of the mass above one."""
    nn = n * n
    lead = y.shape[:-1]
    mat = (*lead, n, n)
    flat = (*lead, nn)
    V = y[..., :nn].reshape(mat)
    P = y[..., nn:2 * nn].reshape(mat)
    m = y[..., -2]
    xi = y[..., -1]
    S = 2.0 * (P / m[..., None, None])
    SV = S @ V
    PS = P @ S
    out[..., :nn] = (SV + SV.swapaxes(-1, -2)).reshape(flat)
    out[..., nn:2 * nn] = (-PS).reshape(flat)
    out[..., -2] = xi * m
    # tr(V P S) summed in entry order: the pairwise .sum regroups the terms
    # of more than 8 entries, so the zeros of a padded state (_pack_state)
    # would change the rounding; a sequential sum only adds exact zeros
    out[..., -1] = (V * PS).reshape(flat).cumsum(-1)[..., -1] / m - 0.5 * xi * xi
    return out


def _project(y, n):
    """Post-step hook of the Gaussian flows, on one packed state or a stack
    of them: re-symmetrize V and P in place, then require positive mass and
    an SPD covariance.  A failing stack names its first failing member."""
    nn = n * n
    lead = y.shape[:-1]
    VP = y[..., :2 * nn].reshape(*lead, 2, n, n)
    y[..., :2 * nn] = (0.5 * (VP + VP.swapaxes(-1, -2))).reshape(*lead, 2 * nn)
    m = y[..., -2]
    if m.min() <= 0.0:
        raise MassError("mass became nonpositive during integration",
                        m=float(m[m <= 0.0][0]), **_first_member(m <= 0.0))
    V = y[..., :nn].reshape(*lead, n, n)
    try:
        np.linalg.cholesky(V)
    except np.linalg.LinAlgError:
        raise SpdError("covariance lost positive-definiteness",
                       **_first_member(_cholesky_fails(V))) from None


def _cholesky_fails(V):
    """One flag per matrix of a stack (one for a single matrix): its
    Cholesky factorization fails."""
    V = V.reshape(-1, *V.shape[-2:])
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
    return integrate_geodesics([initial], dt, steps)[0]


def integrate_geodesics(states, dt, steps):
    """``integrate_geodesic`` for states of any sizes, stepped as one stack.

    Each state runs embedded in the largest size n of the stack as
    diag(V, I), diag(P, 0) (``_pack_state``): off the leading block the flow
    is exactly 0, tr(V P^2) is unchanged and the Cholesky check of diag(V, I)
    fails exactly when that of V does.  Returns one trace per state, from its
    own block, equal entry for entry to its own ``integrate_geodesic``
    trace.  A failure aborts the whole stack and carries, next to the step
    index, the index ``member`` of the first failing state (in a stack of
    more than one).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    states = [s.validate() for s in states]
    n = max(s.n for s in states)
    nn = n * n
    ys = np.empty((len(states), steps + 1, 2 * nn + 2))
    ys[:, 0] = [_pack_state(s, n) for s in states]
    _rk4(lambda y, out: _gauss_rhs(y, n, out), lambda y: _project(y, n),
         ys.swapaxes(0, 1), dt)
    t = np.arange(steps + 1) * dt
    return [_geodesic_trace(t, y[:, :nn].reshape(-1, n, n)[:, :s.n, :s.n], y[:, -2],
                            y[:, nn:2 * nn].reshape(-1, n, n)[:, :s.n, :s.n], y[:, -1])
            for s, y in zip(states, ys)]


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


def _balanced_factor(S, sigma):
    """The factors C = I + sigma S of the balanced curve C V0 C, one per
    arc sigma >= 0, with the eigendecomposition S = Q diag(lam) Q^T and the
    eigenvalues c = 1 + sigma lam of each C: returns lam, Q, c, C.

    The curve leaves the SPD cone where C turns singular, at
    sigma = -1 / min(lam) (never if min(lam) >= 0): the first sigma whose C
    has an eigenvalue <= 0 raises SpdError, with its index as ``step`` and
    that eigenvalue as ``min_eigenvalue``.
    """
    lam, Q = np.linalg.eigh(S)
    c = 1.0 + np.multiply.outer(sigma, lam)
    low = np.min(c, axis=-1)
    lost = np.flatnonzero(low <= 0.0)
    if lost.size:
        raise SpdError("covariance lost positive-definiteness", step=int(lost[0]),
                       min_eigenvalue=float(low[lost[0]]))
    return lam, Q, c, np.eye(lam.size) + sigma[:, None, None] * S


def _ray(V0, m0, P0, S0, xi0, v0, t):
    """The geodesic from (V0, m0, P0, xi0) with the mean velocity v0 at the
    times t >= 0, in closed form.

    In the cone's flat picture it is the ray ``cone_ray(m0, xi0, omega0, t)``
    with omega0^2 = (tr(V0 S0^2) + |v0|^2) / 4 = H0 / (2 m0) - xi0^2 / 4.
    S0 = 2 P0 / m0 carries no mass, and the caller forms it by dividing by
    the mass first: ``geodesic_ray`` as 2 (P0 / m0) with v0 = 0,
    ``connect_affine`` as sdot0 (T - I); both stay representable at a
    subnormal m0.
    The covariance runs along the balanced curve by the cone angle sigma(t)
    (Takatsu, Osaka J. Math. 2011): V = C V0 C and P = P0 C^{-1} with
    C = I + sigma S0; the mass rate is mdot = m0 xi0 + H0 t.  Returns m, xi,
    sigma and the stacked V, P; row t = 0 is the initial state exactly.  A
    singular C (the covariance leaves the SPD cone) raises SpdError with the
    index of the first such time (``_balanced_factor``).
    """
    omega2 = 0.25 * (np.sum((V0 @ S0) * S0) + v0 @ v0)
    m, sigma = cone_ray(m0, xi0, np.sqrt(omega2), t)
    xi = (m0 / m) * (xi0 + (0.5 * xi0 * xi0 + 2.0 * omega2) * t)
    lam, Q, c, C = _balanced_factor(S0, sigma)
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
    S0 = 2.0 * (state.P / state.m)
    m, xi, _, V, P = _ray(state.V, state.m, state.P, S0, state.xi, np.zeros(state.n), t)
    return _geodesic_trace(t, V, m, P, xi)


def _mccann_map(Sigma0, Sigma1):
    """Balanced transport map T with T Sigma0 T = Sigma1:
    T = Sigma1^{1/2} (Sigma1^{1/2} Sigma0 Sigma1^{1/2})^{-1/2} Sigma1^{1/2}.

    T is unchanged by a common scaling of Sigma0 and Sigma1: where the
    middle product, of the order max|Sigma0| max|Sigma1| = 2^(e-2) .. 2^e,
    may underflow, both are scaled by 2^(-e/2) first, exactly.  (Beyond
    1e154, where it overflows, the cone angle W2 / 2 passes pi anyway.)
    """
    e = np.frexp(np.max(np.abs(Sigma0)))[1] + np.frexp(np.max(np.abs(Sigma1)))[1]
    if e - 2 < -1022:
        Sigma0, Sigma1 = np.ldexp(Sigma0, -e // 2), np.ldexp(Sigma1, -e // 2)
    Uh = _spd_power(Sigma1, 0.5, "Sigma1")
    mid = _spd_power(Uh @ Sigma0 @ Uh, -0.5, "Sigma1^(1/2) Sigma0 Sigma1^(1/2)")
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


def shoot_bvp(Sigma0, m0, Sigma1, m1, tol=DEFAULTS["tol"], dt=DEFAULTS["dt"]):
    """Solve the two-point geodesic problem on (covariance, mass) in closed form.

    The zero-mean case of ``connect_affine``, which validates the endpoints,
    solves the initial data (P0, xi0) and checks that the ray from them
    lands on (Sigma1, m1) within the relative tol, else ShootingError; theta >= pi raises
    ApexCrossingError.  Returns P0, xi0, the trace of that ray
    (``geodesic_ray``) over unit time in ``unit_time_steps(dt)`` steps of
    about dt, with the columns of ``integrate_geodesic``, and the relative
    landing miss (``AffineConnection.residual``); no RK4 step runs.  A dt
    that is not a positive, finite step with a finite step count raises
    ValueError.
    """
    if not 0.0 < dt < math.inf or unit_time_steps(dt) == math.inf:
        raise ValueError("dt must be a positive, finite step")
    zero = np.zeros(np.shape(Sigma0)[:1])
    c = connect_affine(AffineGaussian(Sigma0, zero, m0), AffineGaussian(Sigma1, zero, m1), tol)
    t = np.linspace(0.0, 1.0, unit_time_steps(dt) + 1)
    m, xi, _, V, P = _ray(c.g0.Sigma, c.g0.m, c.P0, c.S0, c.xi0, c.v0, t)
    return c.P0, c.xi0, _geodesic_trace(t, V, m, P, xi), c.residual


@dataclass(frozen=True)
class AffineGaussian:
    Sigma: np.ndarray
    mean: np.ndarray
    m: float


@dataclass(frozen=True)
class AffineConnection:
    """Solved two-point problem between Gaussians with means.

    The path is the ray of the flat picture from the solved initial data
    (P0, v0, xi0) at g0 (``_ray``): the mass is m(t), the covariance runs
    along the balanced curve Sigma(t) = C Sigma0 C with C = I + sigma(t) S0,
    S0 = 2 P0 / m0 = sdot0 (T - I), and the mean is b0 + sigma(t) v0, as the
    conserved mean momentum m bdot = m0 v0 of the canonical flow gives it.
    """

    g0: AffineGaussian
    g1: AffineGaussian
    P0: np.ndarray
    S0: np.ndarray  # sdot0 (T - I) = 2 P0 / m0
    v0: np.ndarray
    xi0: float

    def at(self, t):
        m, _, sigma, V, _ = _ray(self.g0.Sigma, self.g0.m, self.P0, self.S0, self.xi0,
                                 self.v0, np.array([t], dtype=float))
        mean = self.g0.mean + sigma[0] * self.v0
        return AffineGaussian(Sigma=V[0], mean=mean, m=float(m[0]))

    @cached_property
    def residual(self):
        """The relative miss of the path's end at t = 1 from g1: each part
        against its own endpoint data, the covariance against |Sigma1|
        (Frobenius), the mass against m1 and the mean against
        sqrt(|Sigma1|) + |b1|, so it reads the same at any scale."""
        end, g1 = self.at(1.0), self.g1
        scale = _norm(g1.Sigma)
        b1 = g1.mean
        return float(max(_norm(end.Sigma - g1.Sigma) / scale,
                         _norm(end.mean - b1) / (np.sqrt(scale) + _norm(b1)),
                         abs(end.m - g1.m) / g1.m))


def connect_affine(g0, g1, tol=DEFAULTS["tol"]):
    """Solve the two-point problem for Gaussians with means in closed form.

    The model is the Euclidean cone over the covariances (balanced metric
    scaled by 1/4) times the means, so the geodesic is a straight line in a
    flat 2D picture (``cone.cone_line``) with angle
    theta = sqrt(W2(Sigma0, Sigma1)^2 + |b1 - b0|^2) / 2.  Its initial
    velocity is the base displacement (T - I, b1 - b0), T the balanced
    transport map, times the rate sdot0 of ``cone.cone_line_start``:
    S0 = 2 P0 / m0 = sdot0 (T - I) and v0 = sdot0 (b1 - b0).  The ray from
    those data and xi0 alone (``_ray``) must land on the endpoints at t = 1
    within the relative tol (``AffineConnection.residual``), else
    ShootingError: an independent check of the two-point formulas.
    theta >= pi raises ApexCrossingError.  No RK4 step runs.
    """
    Sigma0 = require_spd(g0.Sigma, "Sigma0")
    Sigma1 = require_spd(g1.Sigma, "Sigma1")
    if g0.m <= 0.0 or g1.m <= 0.0:
        raise MassError("endpoint masses must be positive", m0=float(g0.m), m1=float(g1.m))
    n = Sigma0.shape[0]
    if Sigma1.shape != (n, n):
        raise ValueError("endpoint covariances must have equal shapes")
    b0 = np.asarray(g0.mean, dtype=float)
    b1 = np.asarray(g1.mean, dtype=float)
    if b0.shape != (n,) or b1.shape != (n,):
        raise ValueError("mean length must match the covariance size")
    g0 = AffineGaussian(Sigma=Sigma0, mean=b0, m=float(g0.m))
    g1 = AffineGaussian(Sigma=Sigma1, mean=b1, m=float(g1.m))
    db = b1 - b0
    D = _mccann_map(Sigma0, Sigma1) - np.eye(n)
    theta = 0.5 * math.sqrt(max(np.sum((D @ Sigma0) * D), 0.0) + db @ db)
    xi0, sdot0 = cone_line_start(g0.m, g1.m, theta)
    conn = AffineConnection(g0, g1, P0=(0.5 * g0.m * sdot0) * D, S0=sdot0 * D,
                            v0=sdot0 * db, xi0=xi0)
    if not np.isfinite(conn.residual):
        raise NonFiniteError("the ray from the solved initial data is not finite",
                             residual=conn.residual, theta=theta)
    if conn.residual > tol:
        raise ShootingError("the ray from the solved initial data misses the endpoint",
                            residual=conn.residual, tol=tol, theta=theta)
    return conn


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
    The metric is tr(V S_u S_v) with S_u the Lyapunov representer of u
    (u = S_u V + V S_u), so the speed of X at V is sqrt(tr(S X) / 2), from
    one eigendecomposition of V; a V that is not positive definite raises
    SpdError.  The unit-speed geodesic from V0 along X is the balanced curve
    V(s) = C V0 C with C = I + s S, S the representer of X / |X| (Takatsu,
    Osaka J. Math. 2011), and its unit velocity is S V0 C + C V0 S.  It
    leaves the SPD cone at the arc s* = -1 / min eig(S), and ``exp`` raises
    SpdError at the first arc at or beyond it (``_balanced_factor``).
    """

    def start(q0, qdot0):
        V = symmetrize(q0.reshape(n, n))
        X = symmetrize(qdot0.reshape(n, n))
        S = _lyapunov_eig(*_spd_eigh(V, "V"), X)
        return V, S, np.sqrt(0.5 * np.sum(S * X))

    def exp(q0, qdot0, s):
        V, S, speed = start(q0, qdot0)
        if speed > 0.0:  # a zero velocity has no direction and stays 0
            S = S / speed
        C = _balanced_factor(S, s)[3]
        SVC = S @ V @ C
        return (symmetrize(C @ V @ C).reshape(-1, n * n),
                (SVC + SVC.swapaxes(-1, -2)).reshape(-1, n * n))

    return BaseManifold(dim=n * n, exp=exp, speed=lambda q0, qdot0: start(q0, qdot0)[2])
