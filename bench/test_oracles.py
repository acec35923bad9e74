"""Analytic cases for the benchmark's oracles.

    python3 -m pytest bench/test_oracles.py -q
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles  # noqa: E402

TWO_PI = 2.0 * math.pi


def test_pure_scaling_connection():
    cf = oracles.cone_connection(np.eye(1), 1.0, np.eye(1), 4.0)
    assert cf["theta"] == 0.0
    assert abs(cf["xi0"] - 2.0) < 1e-15
    assert np.all(cf["P0"] == 0.0)
    assert abs(cf["H"] - 2.0) < 1e-15
    t = np.linspace(0.0, 1.0, 5)
    assert np.allclose(cf["mass"](t), (1.0 + t) ** 2, rtol=0, atol=1e-15)


def test_commuting_covariances_have_the_diagonal_bures_distance():
    a, b = np.array([0.5, 2.0]), np.array([1.5, 0.3])
    d = oracles.bures_distance(np.diag(a), np.diag(b))
    assert abs(d - np.linalg.norm(np.sqrt(a) - np.sqrt(b))) < 1e-14


def test_connection_energy_is_twice_the_flat_chord_squared():
    # |b - a|^2 with |a|^2 = m0, |b|^2 = m1 at angle theta is m(t)'' / 2
    cf = oracles.cone_connection(np.diag([1.0, 2.0]), 0.7, np.diag([3.0, 0.5]), 1.9)
    t = np.linspace(0.0, 1.0, 101)
    lead, rms = oracles.mass_parabola(t, cf["mass"](t))
    assert abs(lead - 0.5 * cf["H"]) < 1e-12 and rms < 1e-14
    assert abs(cf["mass"](0.0) - 0.7) < 1e-15 and abs(cf["mass"](1.0) - 1.9) < 1e-15


def test_constant_rate_gives_two_pi_c_squared():
    n, c = 512, 0.8
    for metric in ("small", "gdiv"):
        value = oracles.metric_value(metric, np.ones(n), np.full(n, c), TWO_PI)
        assert abs(value - TWO_PI * c * c) < 1e-12


def test_sine_rate_matches_the_discrete_closed_form():
    n = 512
    h = TWO_PI / n
    x = np.arange(n) * h
    discrete = math.pi * ((h / 2.0) / math.sin(h / 2.0)) ** 2
    assert abs(oracles.metric_value("small", np.ones(n), np.sin(x), TWO_PI) - discrete) < 1e-12
    assert abs(oracles.metric_value("gdiv", np.ones(n), np.sin(x), TWO_PI)
               - discrete - math.pi) < 1e-12


def test_flat_cone_line_endpoints_and_constant_density_energy():
    rho0, rho1 = np.full(8, 1.0), np.full(8, 4.0)
    assert np.all(oracles.flat_cone_line(rho0, rho1, 0.0) == rho0)
    assert np.all(oracles.flat_cone_line(rho0, rho1, 1.0) == rho1)
    assert np.allclose(oracles.flat_cone_line(rho0, rho1, 0.5), 2.25)


def test_energies_of_states_at_rest_in_the_base():
    # P = 0 and constant theta leave only the radial part m xi^2 / 2
    assert oracles.gaussian_energy(np.eye(2), 1.4, np.zeros((2, 2)), 0.6) == 0.5 * 1.4 * 0.36
    rho = 1.0 + 0.2 * np.sin(np.arange(64) * TWO_PI / 64)
    m = TWO_PI / 64 * float(np.sum(rho))
    h_small = oracles.pde_energy("small", rho, np.full(64, 0.9), TWO_PI)
    assert abs(h_small - 0.5 * m * 0.81) < 1e-14
    assert oracles.cone_energy(2.0, 0.5, 0.0) == 0.25
