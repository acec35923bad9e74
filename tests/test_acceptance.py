"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
and the measured numbers for each criterion.  The same checks back the CLI
``check`` command.
"""

import numpy as np
import pytest

from uotcone import cone, gaussian, pde
from uotcone.checks import (ALL_CHECKS, check_constant_acceleration,
                            check_energy_conservation)
from uotcone.pde import Grid1D, small_metric_eval, gdiv_metric_eval

SEED = 0


@pytest.mark.parametrize("check", ALL_CHECKS, ids=[c.__name__ for c in ALL_CHECKS])
def test_criterion(check):
    rng = np.random.default_rng(SEED)
    result = check(rng, quick=False)
    print(("PASS " if result.passed else "FAIL ") + result.name + " - " + result.detail)
    assert result.passed, f"{result.name}: {result.detail}"


@pytest.mark.parametrize("check, loops", [
    # the Gaussian flows at dt = 1e-3, 0.1 and 0.05, and the PDE stack
    (check_constant_acceleration, {"gaussian": 3, "pde": 1}),
    # one Gaussian stack, and one PDE flow per model
    (check_energy_conservation, {"gaussian": 1, "pde": 2}),
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
