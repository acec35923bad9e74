"""Closed-form oracles for the outputs of the uotcone CLI.

Every function here is written from the mathematics of the conical metrics,
with numpy only, and never calls into ``uotcone``: the benchmark checks the
program against these, not against a stored copy of its own output.

* Gaussian two-point problem.  The Gaussian model is the Euclidean cone over
  Bures-Wasserstein space with its metric scaled by 1/4, so the unit-time
  geodesic is the planar straight line from a to b with |a| = sqrt(m0),
  |b| = sqrt(m1) and angle theta = W2(Sigma0, Sigma1) / 2 between them.
* Constant acceleration.  Along every geodesic the total mass is a parabola
  in time whose curvature the conserved energy fixes.
* Elliptic metric.  The periodic flux equation -div(rho grad theta) = b is
  solved in O(n) by a cumulative sum of the half-point flux.
* Flat cone.  The scaling-metric geodesic is pointwise
  ((1 - t) sqrt(rho0) + t sqrt(rho1))^2.
"""

from __future__ import annotations

import math

import numpy as np


def _sym(M):
    return 0.5 * (M + M.T)


def _spd_power(M, exponent):
    lam, Q = np.linalg.eigh(_sym(np.asarray(M, dtype=float)))
    if lam[0] <= 0.0:
        raise ValueError("matrix is not positive definite")
    return _sym((Q * lam**exponent) @ Q.T)


def bures_distance(S0, S1):
    """W2 distance between centred Gaussians with covariances S0 and S1."""
    r1 = _spd_power(S1, 0.5)
    cross = _spd_power(r1 @ S0 @ r1, 0.5)
    d2 = float(np.trace(S0) + np.trace(S1) - 2.0 * np.trace(cross))
    return math.sqrt(max(d2, 0.0))


def cone_connection(S0, m0, S1, m1):
    """Closed form of the Gaussian two-point problem from (S0, m0) to (S1, m1).

    Returns theta, the conserved energy H, the initial log-mass rate xi0, the
    initial momentum P0 = (T - I) / s1 (T the balanced transport map,
    s1 = int_0^1 2/m dt), and m(t) on the straight line of the flat picture.
    Valid for theta < pi; beyond it the geodesic runs through the apex.
    """
    S0 = np.asarray(S0, dtype=float)
    S1 = np.asarray(S1, dtype=float)
    theta = 0.5 * bures_distance(S0, S1)
    g = math.sqrt(m0 * m1)
    c = math.cos(theta)
    r1 = _spd_power(S1, 0.5)
    T = _sym(r1 @ _spd_power(r1 @ S0 @ r1, -0.5) @ r1)
    # int_0^1 dt / |(1-t) a + t b|^2 is the swept angle over |a x b|
    s1 = 2.0 * theta / (g * math.sin(theta)) if theta > 0.0 else 2.0 / g
    return {
        "theta": theta,
        "H": 2.0 * (m0 + m1 - 2.0 * g * c),
        "xi0": 2.0 * (g * c - m0) / m0,
        "P0": (T - np.eye(S0.shape[0])) / s1,
        "mass": lambda t: (1.0 - t) ** 2 * m0 + t**2 * m1 + 2.0 * t * (1.0 - t) * g * c,
    }


def gaussian_energy(V, m, P, xi):
    """H = (2/m) tr(V P^2) + m xi^2 / 2 of the Gaussian cotangent state."""
    V = np.asarray(V, dtype=float)
    P = np.asarray(P, dtype=float)
    return float(2.0 / m * np.trace(V @ P @ P) + 0.5 * m * xi * xi)


def spd_base_speed2(V, X):
    """g_V(X, X) = tr(S X) / 2 of the SPD base, where X = SV + VS."""
    lam, Q = np.linalg.eigh(_sym(np.asarray(V, dtype=float)))
    Xt = Q.T @ _sym(np.asarray(X, dtype=float)) @ Q
    S = Q @ (Xt / (lam[:, None] + lam[None, :])) @ Q.T
    return 0.5 * float(np.sum(S * X))


def cone_energy(alpha, alpha_dot, speed2):
    """alpha^2 g(qdot, qdot) + alphadot^2 of the cone with p = 1."""
    return alpha * alpha * speed2 + alpha_dot**2


def _dplus(f, h):
    return (np.roll(f, -1) - f) / h


def _half(f):
    return 0.5 * (f + np.roll(f, -1))


def pde_energy(model, rho, theta, length):
    """Discrete Hamiltonian of the density/potential pair (staggered form)."""
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    h = length / rho.size
    kinetic = h * float(np.sum(_half(rho) * _dplus(theta, h) ** 2))
    if model == "small":
        m = h * float(np.sum(rho))
        pairing = h * float(np.sum(theta * rho))
        return 0.5 * kinetic + 0.5 * pairing**2 / m
    return 0.5 * (kinetic + h * float(np.sum(theta**2 * rho)))


def periodic_flux_energy(rho, b, h):
    """h sum rho_{i+1/2} (grad theta)^2 for -div(rho grad theta) = b, in O(n).

    The half-point flux F = rho_{i+1/2} (theta_{i+1} - theta_i) / h satisfies
    F_{i+1/2} = c - h cumsum(b)_i; the constant c closes the periodic loop,
    sum_i h F_{i+1/2} / rho_{i+1/2} = 0.  b must sum to zero.
    """
    inv = 1.0 / _half(np.asarray(rho, dtype=float))
    run = h * np.cumsum(b)
    c = float(np.sum(run * inv) / np.sum(inv))
    F = c - run
    return h * float(np.sum(F * F * inv))


def metric_value(metric, rho, rhodot, length):
    """Squared length of rhodot at rho: the 'small' conical metric
    int |grad theta|^2 rho + m xi^2, or the divergence-supplemented 'gdiv'
    metric int |grad S|^2 rho + int rhodot^2 / rho."""
    rho = np.asarray(rho, dtype=float)
    rhodot = np.asarray(rhodot, dtype=float)
    h = length / rho.size
    m = h * float(np.sum(rho))
    xi = h * float(np.sum(rhodot)) / m
    kinetic = periodic_flux_energy(rho, rhodot - xi * rho, h)
    if metric == "small":
        return kinetic + m * xi * xi
    return kinetic + h * float(np.sum(rhodot**2 / rho))


def flat_cone_line(rho0, rho1, t):
    """((1 - t) sqrt(rho0) + t sqrt(rho1))^2, pointwise."""
    r = (1.0 - t) * np.sqrt(rho0) + t * np.sqrt(rho1)
    return r * r


def mass_parabola(t, m):
    """Least-squares parabola of m(t): (leading coefficient, rms residual)."""
    t = np.asarray(t, dtype=float)
    m = np.asarray(m, dtype=float)
    A = np.stack([t * t, t, np.ones_like(t)], axis=1)
    coeffs = np.linalg.lstsq(A, m, rcond=None)[0]
    resid = m - A @ coeffs
    return float(coeffs[0]), float(np.sqrt(np.mean(resid**2)))
