"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
and the measured numbers for each criterion.  The same checks back the CLI
``check`` command.
"""

import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from uotcone import checks, cone, gaussian, pde
from uotcone.checks import (ALL_CHECKS, _Below, _result, check_constant_acceleration,
                            check_elliptic_closed_forms, check_energy_conservation,
                            check_energy_lower_bound, check_flat_cone_oracle,
                            check_lyapunov_residual, check_mccann_oracle,
                            check_submersion_consistency)
from uotcone.pde import Grid1D, small_metric_eval, gdiv_metric_eval

SEED = 0
NAN = float("nan")


@pytest.mark.parametrize("check", ALL_CHECKS, ids=[c.__name__ for c in ALL_CHECKS])
def test_criterion(check):
    rng = np.random.default_rng(SEED)
    result = check(rng, quick=False)
    print(("PASS " if result.passed else "FAIL ") + result.name + " - " + result.detail)
    assert result.passed, f"{result.name}: {result.detail}"


def test_result_judges_each_value_against_its_bound():
    nan = float("nan")
    for bound in (1.0, (0.0, 1.0), True, _Below(1.0)):
        assert not _result("x", ("v", nan, bound)).passed
    assert _result("x", ("low", 3.6, (3.6, 4.4)), ("high", 4.4, (3.6, 4.4)),
                   ("at the upper bound", 1e-6, 1e-6), ("flag", np.True_, True),
                   ("below", 0.999, _Below(1.0))).passed
    assert not _result("x", ("v", 1.0, _Below(1.0))).passed
    assert not _result("x", ("v", np.False_, True)).passed
    assert not _result("x", ("v", 1, True)).passed  # a flag is a bool
    r = _result("x", ("dev", 2e-6, 1e-6), ("order", 4.02, (3.5, 4.5)),
                ("flag", True, True), ("dip", 0.976317, _Below(1.0)))
    assert (r.name, r.passed) == ("x", False)
    assert r.detail == ("dev 2e-06 (<= 1e-06) FAILED; order 4.02 (in [3.5, 4.5]); "
                        "flag True (must hold); dip 0.976 (< 1)")
    # all draws of a value: the largest is judged, and a flag needs every draw
    assert _result("x", ("v", [0.5, 1.0], 1.0), ("f", np.array([True, True]), True),
                   ("dip", (0.5, 0.9), _Below(1.0))).passed
    r = _result("x", ("v", [0.5, nan, 0.1], 1.0), ("f", [True, np.False_], True),
                ("dip", np.array([0.5, 1.0]), _Below(1.0)))
    assert r.detail == "v nan (<= 1) FAILED; f False (must hold) FAILED; dip 1 (< 1) FAILED"


def test_elliptic_detail_shows_a_nan_constant_case(monkeypatch):
    # max(const_small, nan) is const_small: the NaN must show on its own
    gdiv = checks.gdiv_metric_eval

    def nan_on_constants(grid, rho, drho):
        return float("nan") if np.all(drho == drho[0]) else gdiv(grid, rho, drho)
    monkeypatch.setattr(checks, "gdiv_metric_eval", nan_on_constants)
    result = check_elliptic_closed_forms(np.random.default_rng(SEED), quick=True)
    assert not result.passed
    assert "constant case gdiv nan (<= 1e-06) FAILED" in result.detail


def test_energy_lower_bound_detail_shows_the_broken_inequality(monkeypatch):
    # H below m xi^2 / 2 on every state with momentum; P = 0 stays exact
    hamiltonian = checks.hamiltonian
    monkeypatch.setattr(checks, "hamiltonian",
                        lambda s: hamiltonian(s) - (1.0 if s.P.any() else 0.0))
    result = check_energy_lower_bound(np.random.default_rng(SEED), quick=True)
    assert not result.passed
    assert "on 100 random Gaussian states False (must hold) FAILED" in result.detail
    assert "on 100 random density states True (must hold);" in result.detail


@pytest.mark.parametrize("check, name, call, poison, shown", [
    (check_lyapunov_residual, "lyapunov_solve", 7, lambda S: S * NAN,
     "max relative residual nan (<= 1e-12) FAILED"),
    (check_mccann_oracle, "mccann_geodesic", 12, lambda W: W * NAN,
     "reversal nan (<= 1e-12) FAILED"),
    (check_energy_lower_bound, "hamiltonian", 3, lambda H: NAN,
     "on 100 random Gaussian states False (must hold) FAILED"),
    (check_submersion_consistency, "submersion_consistency", 3, lambda gb: (NAN, NAN),
     "matrix level nan (<= 1e-10) FAILED"),
    (check_constant_acceleration, "relative_energy_drift", 2, lambda drift: NAN,
     "ode drift nan (<= 1e-08) FAILED"),
    (check_energy_conservation, "relative_energy_drift", 2, lambda drift: NAN,
     "pde drift nan (<= 1e-06) FAILED"),
    (check_constant_acceleration, "mass_quadratic_fit", 2,
     lambda fit: {**fit, "rms_residual": NAN}, "ode dev nan (<= 1e-06) FAILED"),
    (check_flat_cone_oracle, "cone_line", 1, lambda ms: (ms[0], ms[1] * NAN),
     "max deviation from the straight line nan (<= 1e-06) FAILED"),
], ids=["lyapunov", "mccann", "hamiltonian", "submersion", "ode-drift", "pde-drift",
        "mass-fit", "cone-line"])
def test_one_nan_draw_fails_its_check(monkeypatch, check, name, call, poison, shown):
    # the NaN comes after finite draws, which Python's max(worst, nan) keeps over it
    real, calls = getattr(checks, name), []

    def nan_on_one_call(*args, **kwargs):
        calls.append(name)
        value = real(*args, **kwargs)
        return poison(value) if len(calls) == call else value
    monkeypatch.setattr(checks, name, nan_on_one_call)
    result = check(np.random.default_rng(SEED), quick=True)
    assert len(calls) >= call
    assert not result.passed
    assert shown in result.detail


def test_benchmark_counts_every_check():
    # bench/workloads.py accepts a check run only with NUM_CHECKS results;
    # read without importing it, as the benchmark is no package
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    counts = [ast.literal_eval(node.value) for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "NUM_CHECKS" for t in node.targets)]
    assert counts == [len(ALL_CHECKS)], (
        f"bench/workloads.py expects NUM_CHECKS = {counts} checks but checks.ALL_CHECKS "
        f"has {len(ALL_CHECKS)}: a change that adds or removes a check needs a benchmark "
        "change that updates NUM_CHECKS first")


@pytest.mark.parametrize("check, loops", [
    # the Gaussian flows at dt = 1e-3, 0.1 and 0.05, and the PDE stack
    (check_constant_acceleration, {"gaussian": 3, "pde": 1}),
    # one PDE flow per model; the Gaussian drift is judged on the stack above
    (check_energy_conservation, {"pde": 2}),
], ids=["constant-acceleration", "energy-conservation"])
def test_one_rk4_loop_per_flow_family(monkeypatch, check, loops):
    # the random Gaussian states of mixed sizes run as one stack, not one
    # stack per size
    calls = []
    for module in (cone, gaussian, pde):
        def counted(*args, rk4=module._rk4, name=module.__name__.rsplit(".", 1)[1]):
            calls.append(name)
            return rk4(*args)
        monkeypatch.setattr(module, "_rk4", counted)
    assert check(np.random.default_rng(SEED), quick=False).passed
    assert {name: calls.count(name) for name in set(calls)} == loops


def test_no_random_gaussian_flow_is_stepped_twice(monkeypatch):
    # every check starts from a generator in the same state, so two checks
    # that draw the same Gaussian states would step the same flows twice
    stepped = {}
    for check in ALL_CHECKS:
        def recorded(states, *args, name=check.__name__, **kwargs):
            stepped.setdefault(name, set()).update(
                b"".join(np.asarray(a).tobytes() for a in (s.V, s.m, s.P, s.xi))
                for s in states)
            return gaussian.integrate_geodesics(states, *args, **kwargs)
        monkeypatch.setattr(checks, "integrate_geodesics", recorded)
        assert check(np.random.default_rng(SEED), quick=True).passed
    times = Counter(state for states in stepped.values() for state in states)
    assert set(times.values()) == {1}, f"Gaussian states stepped in {sorted(stepped)}"


@pytest.mark.xfail(
    strict=True,
    reason="The non-constant elliptic closed forms carry the O(h^2) "
    "discretization error of the prescribed second-order scheme "
    "(pi h^2 / 12 ~ 3.9e-05 at n = 512, quartering under grid doubling as "
    "the halving clause itself requires), so a blanket 1e-06 tolerance at "
    "n = 512 is unattainable for them.  The acceptance check instead pins "
    "the exact constant cases at 1e-06, the sine cases against their "
    "independently derived discrete closed forms at 1e-09, and the x4 "
    "error reduction under doubling.")
def test_elliptic_sine_cases_at_blanket_tolerance():
    n = 512
    grid = Grid1D(n=n)
    v_small = small_metric_eval(grid, np.ones(n), np.sin(grid.x))
    v_gdiv = gdiv_metric_eval(grid, np.ones(n), np.sin(grid.x))
    assert abs(v_small - np.pi) <= 1e-6
    assert abs(v_gdiv - 2.0 * np.pi) <= 1e-6
