import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import uotcone
from test_trace import cores, no_child_left  # noqa: F401 (a fixture)
from uotcone import checks, cli, gaussian
from uotcone.cli import main
from uotcone.checks import CheckResult
from uotcone.config import _CHOICES, _SCHEMAS, MAX_TRACE_ENTRIES, validate_run
from uotcone.errors import ConfigError, NonFiniteError, NumericsError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

TWO_PI = 2.0 * np.pi


def run_cli(tmp_path, config, name="cfg.json", out="out", seed=0):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    outdir = tmp_path / out
    code = main(["--config", str(path), "--out", str(outdir), "--seed", str(seed)])
    return code, outdir


def strict_json(text):
    """Parse text as strict JSON: NaN, Infinity and -Infinity fail the test."""
    return json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in {text!r}"))


def load_summary(outdir):
    return strict_json((outdir / "summary.json").read_text(encoding="utf-8"))


def test_unknown_key_rejected(tmp_path, capsys):
    code, _ = run_cli(tmp_path, {"command": "check", "bogus": 1})
    assert code == 1
    assert "unknown keys" in capsys.readouterr().err


def test_missing_command_rejected(tmp_path):
    code, _ = run_cli(tmp_path, {"n": 1})
    assert code == 1


def test_unknown_command_rejected(tmp_path):
    code, _ = run_cli(tmp_path, {"command": "fly"})
    assert code == 1


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("text", [
    b'{"command": "gauss-geodesic", "m": 1' + b"0" * 5000 + b"}",
    b'{"command": "check", "quick": tru\xff}',
], ids=["integer-of-5001-digits", "not-utf-8"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, text):
    path = tmp_path / "unreadable.json"
    path.write_bytes(text)
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert strict_json(capsys.readouterr().err)["kind"] == "config"


@pytest.mark.parametrize("directory", [False, True], ids=["missing", "a-directory"])
def test_config_path_that_cannot_be_read_is_a_config_error(tmp_path, capsys, directory):
    path = tmp_path / "run.json"
    if directory:
        path.mkdir()
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = strict_json(capsys.readouterr().err)
    assert (err["kind"], err["path"]) == ("config", str(path))


def gauss_config(**overrides):
    cfg = {"command": "gauss-geodesic", "n": 1, "V": [1.0], "m": 1.0,
           "P": [0.0], "xi": 2.0, "dt": 1e-3, "steps": 200}
    cfg.update(overrides)
    return cfg


def test_gauss_geodesic_run_and_determinism(tmp_path):
    code1, out1 = run_cli(tmp_path, gauss_config(), out="o1")
    code2, out2 = run_cli(tmp_path, gauss_config(), out="o2")
    assert code1 == 0 and code2 == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    summary = load_summary(out1)
    assert summary["status"] == "ok"
    # radial run: m(t) = (1 + t)^2
    assert summary["final"]["m"] == pytest.approx((1.2) ** 2, abs=1e-8)
    assert summary["H_drift_rel"] <= 1e-8
    assert summary["mass_fit"]["leading"] == pytest.approx(
        summary["mass_fit"]["expected_leading"], abs=1e-8)


def test_gauss_geodesic_default_steps(tmp_path):
    # without "steps" the schema default of 1000 steps applies
    cfg = gauss_config()
    del cfg["steps"]
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    assert len((out / "trace.csv").read_text().splitlines()) == 1 + 1001


def test_gauss_geodesic_csv_shape(tmp_path):
    code, out = run_cli(tmp_path, gauss_config(steps=10))
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,m,xi,H,V_0_0,P_0_0"
    assert len(lines) == 12


@pytest.mark.parametrize("cfg, kind, step", [
    # the covariance leaves the SPD cone at step 536 while the mass stays
    # above 1 (an RK4 flow steps past it and fails on a mass of -2e32 at
    # step 537)
    (gauss_config(n=2, V=[1.0, 0.0, 0.0, 1.0], P=[-1.0, 0.2, 0.2, 0.3], xi=0.0,
                  steps=1000), "not-spd", 536),
    # a radial collapse reaches the apex at t = -2 / xi = 0.5, step 500 (an
    # RK4 flow fails on non-finite values at step 503)
    (gauss_config(xi=-4.0, steps=1000), "apex-crossing", 500),
], ids=["spd-loss", "apex"])
def test_gauss_geodesic_failure_names_its_exact_step(tmp_path, cfg, kind, step):
    code, out = run_cli(tmp_path, cfg)
    assert code == 2
    reason = load_summary(out)["reason"]
    assert reason["kind"] == kind
    assert reason["step"] == step


def test_gauss_connect_scaling_case(tmp_path):
    cfg = {"command": "gauss-connect", "n": 1, "Sigma0": [1.0], "m0": 1.0,
           "Sigma1": [1.0], "m1": 4.0, "tol": 1e-10}
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    summary = load_summary(out)
    assert summary["xi0"] == pytest.approx(2.0, abs=1e-8)
    assert abs(summary["P0"][0]) <= 1e-8
    assert summary["endpoint_residual"] <= 1e-8


@pytest.mark.parametrize("scale", [1.0, 1e-24, 1e-212, 1e-312],
                         ids=["1e12", "1e-12", "1e-200", "1e-300"])
def test_gauss_connect_residual_is_relative(tmp_path, scale):
    # the same pair at covariance scales 1e12 down to 1e-300 reads the same
    # roundoff-level residual, relative to the endpoint: an absolute
    # |V(1) - Sigma1| + |m(1) - m1| once read 1.0e-3 at 1e12.  Below 1e-154
    # the squares of the entries and Sigma1^(1/2) Sigma0 Sigma1^(1/2)
    # underflow
    sigma = np.array([2e12, 3e11, 3e11, 1e12]) * scale
    cfg = {"command": "gauss-connect", "n": 2, "Sigma0": sigma.tolist(), "m0": 1.0,
           "Sigma1": (sigma + [0.0, 0.0, 0.0, 1e6 * scale]).tolist(), "m1": 1.5}
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    assert load_summary(out)["endpoint_residual"] <= 1e-12


@pytest.mark.parametrize("n, Sigma0, Sigma1", [
    (1, [2e-200], [1.5e-200]),
    (2, [2e-200, 3e-201, 3e-201, 1e-200], [1.5e-200, -2e-201, -2e-201, 7e-201]),
    (2, [1e-150, 0.0, 0.0, 1e-150], [1e-150, 0.0, 0.0, 1e-150]),
    (2, [1e150, 0.0, 0.0, 1e150], [1e150, 0.0, 0.0, 1e150]),
], ids=["n1-1e-200", "n2-1e-200", "equal-1e-150", "equal-1e150"])
def test_gauss_connect_solves_at_extreme_covariance_scales(tmp_path, n, Sigma0, Sigma1):
    # Sigma1^(1/2) Sigma0 Sigma1^(1/2) scales as the square of the
    # covariances: at 1e-200 it underflows to a singular matrix unless both
    # are rescaled first, which the map T does not see
    m1 = 1.0 if Sigma0 == Sigma1 else 1.5
    cfg = {"command": "gauss-connect", "n": n, "Sigma0": Sigma0, "m0": 1.0,
           "Sigma1": Sigma1, "m1": m1}
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    assert load_summary(out)["endpoint_residual"] <= 1e-12


def test_gauss_connect_apex_crossing_is_structured(tmp_path):
    cfg = {"command": "gauss-connect", "n": 1, "Sigma0": [1.0], "m0": 1.0,
           "Sigma1": [(1.0 + TWO_PI) ** 2], "m1": 1.0}
    code, out = run_cli(tmp_path, cfg)
    assert code == 2
    reason = load_summary(out)["reason"]
    assert reason["kind"] == "apex-crossing"
    assert reason["theta"] == pytest.approx(np.pi, abs=1e-12)


def test_gauss_connect_lands_where_rk4_missed(tmp_path):
    # theta ~ 1.10 < pi: an RK4 flow at dt = 1e-3 lands about 4e-8 off this
    # endpoint, above the default tol = 1e-8; the closed-form ray lands
    cfg = {"command": "gauss-connect", "n": 2, "Sigma0": [1.0, 0.0, 0.0, 1.0],
           "m0": 1.0, "Sigma1": [9.0, 0.0, 0.0, 0.01], "m1": 0.01}
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    assert load_summary(out)["endpoint_residual"] <= 1e-12


def test_gauss_connect_missed_endpoint_is_structured(tmp_path, capsys):
    # no landing meets tol = 1e-20: the roundoff of the ray exceeds it
    cfg = {"command": "gauss-connect", "n": 2, "Sigma0": [1.3, 0.2, 0.2, 0.8],
           "m0": 1.1, "Sigma1": [0.7, -0.1, -0.1, 1.6], "m1": 0.6, "tol": 1e-20}
    code, out = run_cli(tmp_path, cfg)
    assert code == 2
    reason = load_summary(out)["reason"]
    assert reason["kind"] == "shooting-no-convergence"
    assert reason["tol"] == 1e-20
    assert reason["residual"] > reason["tol"]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("config, summary_holds", [
    ("gauss_connect_scaling.json",
     lambda s: s["xi0"] == 2.0 and s["endpoint_residual"] <= 1e-12),
    ("gauss_geodesic_radial.json", lambda s: s["final"]["m"] == 4.0),
], ids=["gauss-connect", "gauss-geodesic"])
def test_gauss_commands_run_no_flow(tmp_path, monkeypatch, config, summary_holds):
    def no_flow(*args):
        raise AssertionError("an RK4 flow ran")

    monkeypatch.setattr(gaussian, "_rk4", no_flow)
    out = tmp_path / "out"
    code = main(["--config", str(CONFIGS / config), "--out", str(out)])
    assert code == 0
    assert summary_holds(load_summary(out))
    # the pure-scaling geodesic m(t) = (1 + t)^2 on 1001 samples
    rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
    assert rows.shape[0] == 1001
    np.testing.assert_allclose(rows[:, 1], (1.0 + rows[:, 0]) ** 2, rtol=1e-15)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is expected
def test_non_finite_summary_is_a_typed_failure(tmp_path):
    # every trace entry is finite, but m ~ 1e300 moves by single ulps over a
    # time span of 2e-14, which the fit reads as a curvature beyond 1e308
    code, out = run_cli(tmp_path, gauss_config(m=1e300, xi=1e-2, dt=1e-15, steps=20))
    assert code == 2
    reason = load_summary(out)["reason"]
    assert reason["kind"] == "non-finite"
    assert reason["key"] == "mass_fit.leading"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is expected
def test_non_finite_top_level_summary_is_a_typed_failure(tmp_path):
    # every entry of the path is finite, but its action, with |w|^2 ~ 1e400,
    # is not
    code, out = run_cli(tmp_path, bb_explicit_config(w=[[1e200] * 8] * 2))
    assert code == 2
    reason = load_summary(out)["reason"]
    assert reason["kind"] == "non-finite"
    assert reason["key"] == "action"


def test_internal_failure_is_structured(tmp_path, monkeypatch, capsys):
    # an exception that is neither typed kind is a bug: exit 2 with a reason
    # of kind internal, not a traceback
    def broken(cfg, outdir, seed):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "gauss-geodesic", broken)
    code, out = run_cli(tmp_path, gauss_config())
    assert code == 2
    summary = load_summary(out)
    assert summary["status"] == "error"
    reason = summary["reason"]
    assert reason["kind"] == "internal"
    assert reason["message"] == "RuntimeError: boom"
    assert reason["where"].startswith("test_cli.py:")
    assert "Traceback" not in capsys.readouterr().err


def test_non_finite_reason_details_are_strict_json(tmp_path, monkeypatch, capsys):
    # a reason's non-finite details are written as their str, so
    # summary.json stays strict JSON
    def overflows(cfg, outdir, seed):
        raise NumericsError("x", value=float("nan"), bound=float("inf"))

    monkeypatch.setitem(cli._HANDLERS, "gauss-geodesic", overflows)
    code, out = run_cli(tmp_path, gauss_config())
    assert code == 2
    reason = load_summary(out)["reason"]
    assert (reason["kind"], reason["value"], reason["bound"]) == ("numerical", "nan", "inf")
    assert capsys.readouterr().err == "numerical failure in gauss-geodesic: x\n"


@pytest.mark.parametrize("argv", [["--seed", "-1"], None], ids=["setup", "handler"])
def test_config_error_line_is_strict_json(tmp_path, monkeypatch, capsys, argv):
    # a config error found before the runs and one raised by a run print
    # the same strict JSON line
    def refuses(cfg, outdir, seed):
        raise ConfigError("refused", bound=float("-inf"))

    monkeypatch.setitem(cli._HANDLERS, "gauss-geodesic", refuses)
    if argv is None:
        code, _ = run_cli(tmp_path, gauss_config())
    else:
        code = main(argv + ["--out", str(tmp_path / "out")])
    assert code == 1
    line = strict_json(capsys.readouterr().err)
    assert line["kind"] == "config"
    if argv is None:
        assert line["bound"] == "-inf"


def test_unusable_output_directory_is_a_config_error(tmp_path, capsys):
    (tmp_path / "file").write_text("", encoding="utf-8")
    code, _ = run_cli(tmp_path, gauss_config(), out="file/out")
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert strict_json(err)["kind"] == "config"


@pytest.mark.parametrize("name", ["summary.json", "trace.csv"])
def test_unwritable_output_file_is_a_config_error(tmp_path, capsys, name):
    # an output path that is a directory: one JSON line naming the file,
    # exit 1, no traceback
    (tmp_path / "out" / name).mkdir(parents=True)
    code, _ = run_cli(tmp_path, gauss_config(steps=10))
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    reason = strict_json(err)
    assert reason["kind"] == "config"
    assert reason["path"] == str(tmp_path / "out" / name)
    assert name in reason["message"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_disk_is_a_config_error(tmp_path, capsys, monkeypatch):
    # the disk fills while forked workers format the trace: the error names
    # the file, and no worker is left behind
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "trace.csv").symlink_to("/dev/full")
    # a header shorter than the file buffer, so the first failing write comes
    # after the fork
    cfg = {"command": "fr-geodesic", "rho0": [1.0] * 512, "rho1": [2.0] * 512,
           "num_times": 201}
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    code, _ = run_cli(tmp_path, cfg)
    assert forks == [1]
    assert code == 1
    reason = strict_json(capsys.readouterr().err)
    assert reason["kind"] == "config"
    assert reason["path"] == str(tmp_path / "out" / "trace.csv")
    assert "No space left on device" in reason["message"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_config_error_in_a_handler_still_exits_1(tmp_path, monkeypatch, capsys):
    def refuses(cfg, outdir, seed):
        raise ConfigError("refused", key="V")

    monkeypatch.setitem(cli._HANDLERS, "gauss-geodesic", refuses)
    code, out = run_cli(tmp_path, gauss_config())
    assert code == 1
    assert strict_json(capsys.readouterr().err)["kind"] == "config"
    assert not (out / "summary.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is expected
@pytest.mark.parametrize("cfg, kind", [
    # the mass h sum(rho) overflows
    ({"command": "fr-geodesic", "rho0": [1e308] * 8, "rho1": [1.0] * 8},
     "non-finite"),
    ({"command": "pde-metric", "length": 1e308, "rho": [1e10] * 8,
      "rhodot": [1.0] * 8}, "non-finite"),
    # h^2 underflows in the backward-error check of the elliptic solve
    ({"command": "pde-metric", "length": 1e-264, "rho": [1.0] * 8,
      "rhodot": [1.0] * 4 + [2.0] * 4}, "singular-system"),
    # the rate xi squares beyond the largest double
    ({"command": "pde-metric", "rho": [1e-300] + [1.0] * 7,
      "rhodot": [1e200] + [1.0] * 7}, "non-finite"),
    ({"command": "pde-evolve", "rho": [1.0] * 8, "theta": [1e200] * 8,
      "steps": 2}, "non-finite"),
    # the cone radial acceleration 3 alpha^5 |q_dot|^2 and the mass column
    # overflow
    ({"command": "cone-geodesic", "base": "circle", "p": 3.0, "q": [0.0],
      "q_dot": [1e300], "alpha": 8.0, "alpha_dot": 105.0}, "non-finite"),
    ({"command": "cone-geodesic", "base": "circle", "q": [0.0], "q_dot": [0.0],
      "alpha": 1.3407807929942597e154, "alpha_dot": 0.0}, "non-finite"),
    # t^2 underflows in the least-squares fit of m(t)
    (gauss_config(dt=5e-324), "singular-system"),
    # Sigma1^(1/2) Sigma0 Sigma1^(1/2), or its symmetrization, overflows
    # before its eigendecomposition
    ({"command": "gauss-connect", "n": 2, "Sigma0": [1e154, 0.0, 0.0, 1e154], "m0": 1.0,
      "Sigma1": [1e154, 0.0, 0.0, 1e154], "m1": 1.0}, "non-finite"),
    ({"command": "gauss-connect", "n": 3, "m0": 1.37, "m1": 1.0, "dt": 0.05,
      "Sigma0": [7.444680261402063, 0.36891467162913055, 1.6159451695627658,
                 0.36891467162913055, 1.6732950748369885e218, 1.1064513145290602,
                 1.6159451695627658, 1.1064513145290602, 0.36891467162913055],
      "Sigma1": [4.4, 4.4, 0.36891467162913055, 4.4, 1.6732950748369885e218,
                 1.6159451695627658, 0.36891467162913055, 1.6159451695627658,
                 1.6159451695627658]}, "non-finite"),
], ids=["fr-mass", "pde-metric-mass", "pde-metric-h2", "pde-metric-xi2",
        "pde-evolve-xi2", "cone-rhs", "cone-mass", "gauss-fit",
        "connect-symmetrize", "connect-eigh"])
def test_overflow_is_a_typed_failure(tmp_path, capsys, cfg, kind):
    # finite, schema-valid inputs whose intermediate values leave the range
    # of doubles
    code, out = run_cli(tmp_path, cfg)
    assert code == 2
    assert load_summary(out)["reason"]["kind"] == kind
    assert "Traceback" not in capsys.readouterr().err


def test_gauss_connect_tiny_masses_solve(tmp_path):
    # m0 m1 and m^2 underflow, but the closed form needs neither: the ray
    # lands relative to the endpoint's own scale
    cfg = {"command": "gauss-connect", "n": 1, "Sigma0": [2.3e-248], "m0": 2.3e-248,
           "Sigma1": [1.15e-34], "m1": 2.3e-248}
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    assert load_summary(out)["endpoint_residual"] <= 1e-12
    rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
    assert rows[-1, 4] == pytest.approx(1.15e-34, rel=1e-12)
    assert rows[-1, 1] == pytest.approx(2.3e-248, rel=1e-12)
    # P = P0 / C with C = 1 + sigma S0 growing to sqrt(Sigma1 / Sigma0)
    np.testing.assert_allclose(rows[:, 5], rows[0, 5] * np.sqrt(rows[0, 4] / rows[:, 4]),
                               rtol=1e-12)
    # m0 = m1 and theta = (sqrt(Sigma1) - sqrt(Sigma0)) / 2 ~ 5.4e-18: the
    # closed forms are xi0 = -4 sin^2(theta / 2) ~ -theta^2 (a cancelling
    # xi0 once read -3.5e-16 here) and H = 8 m0 sin^2(theta / 2)
    half_sin2 = math.sin(0.25 * (math.sqrt(1.15e-34) - math.sqrt(2.3e-248))) ** 2
    summary = load_summary(out)
    assert summary["xi0"] == pytest.approx(-4.0 * half_sin2, rel=1e-12, abs=0.0)
    H = summary["final"]["H"]
    assert H == pytest.approx(8.0 * 2.3e-248 * half_sin2, rel=1e-12, abs=0.0)


def test_gauss_connect_lands_at_subnormal_masses(tmp_path):
    # 2 / m0 overflows at m0 = 1e-310, but the ray takes its covariance rate
    # sdot0 (T - I) from the two-point solve, not 2 P0 / m0
    cfg = {"command": "gauss-connect", "n": 1, "Sigma0": [1.0], "m0": 1e-310,
           "Sigma1": [1.000000000000001], "m1": 1e-310}
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    summary = load_summary(out)
    assert summary["endpoint_residual"] <= 1e-8
    rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
    np.testing.assert_allclose(rows[:, 1], 1e-310, rtol=1e-12, atol=0.0)
    assert rows[-1, 4] == pytest.approx(1.000000000000001, rel=1e-15, abs=0.0)


def bb_explicit_config(**overrides):
    cfg = {"command": "bb-action", "source": "explicit", "times": [0.0, 1.0],
           "rhobar": [[1.0] * 8] * 2, "w": [[0.0] * 8] * 2, "r": [1.0, 2.0]}
    cfg.update(overrides)
    return cfg


@pytest.mark.parametrize("cfg", [
    {"command": "pde-evolve", "rho": [1.0] * 4, "theta": [0.0] * 4},
    gauss_config(dt=0.0),
    gauss_config(dt=-1e-3),
    gauss_config(steps=0),
    {"command": "fr-geodesic", "rho0": [1.0] * 8, "rho1": [2.0] * 8,
     "num_times": 1},
    gauss_config(xi=float("nan")),
    {"command": "pde-metric", "rho": [1.0] * 7 + [float("inf")],
     "rhodot": [0.0] * 8},
    {"command": "pde-metric", "rho": [1.0] * 7 + [True], "rhodot": [0.0] * 8},
    gauss_config(V=["1.0"]),
    {"command": "gauss-connect", "n": 1, "Sigma0": [1.0], "m0": 1.0,
     "Sigma1": [1.0], "m1": 4.0, "max_iter": 50},
    {"command": "gauss-connect", "n": 1, "Sigma0": [1.0], "m0": 1.0,
     "Sigma1": [1.0], "m1": 4.0, "steps": 1000},
    bb_explicit_config(times=[0.0], rhobar=[[1.0] * 8], w=[[0.0] * 8], r=[1.0]),
    bb_explicit_config(n=16),
    bb_explicit_config(rhobar=[[1.0] * 8, [1.0] * 9]),
    # traces beyond MAX_TRACE_ENTRIES, refused before they are allocated
    {"command": "gauss-connect", "n": 1, "Sigma0": [1.0], "m0": 1.0,
     "Sigma1": [1.0], "m1": 4.0, "dt": 1e-300},
    {"command": "gauss-connect", "n": 1, "Sigma0": [1.0], "m0": 1.0,
     "Sigma1": [1.0], "m1": 4.0, "dt": 5e-324},
    gauss_config(steps=10**9),
    {"command": "pde-evolve", "rho": [1.0] * 8, "theta": [0.0] * 8,
     "steps": MAX_TRACE_ENTRIES},
    {"command": "cone-geodesic", "base": "circle", "q": [0.0], "q_dot": [1.0],
     "alpha": 1.0, "alpha_dot": 0.0, "steps": MAX_TRACE_ENTRIES},
    {"command": "bb-action", "source": "small-run", "rho": [1.0] * 8,
     "theta": [0.0] * 8, "steps": MAX_TRACE_ENTRIES},
    {"command": "fr-geodesic", "rho0": [1.0] * 8, "rho1": [2.0] * 8,
     "num_times": MAX_TRACE_ENTRIES},
    # an empty matrix is no point of the SPD base
    {"command": "cone-geodesic", "base": "spd", "q": [], "q_dot": [],
     "alpha": 1.0, "alpha_dot": 0.0},
    # no residual is below a negative tolerance
    {"command": "gauss-connect", "n": 1, "Sigma0": [1.0], "m0": 1.0,
     "Sigma1": [1.0], "m1": 4.0, "tol": -1.0},
    bb_explicit_config(continuity_tol=-1.0),
], ids=["grid-n4", "dt-zero", "dt-negative", "steps-zero", "num-times-1",
        "nan", "inf-in-grid", "bool-in-grid", "str-in-floats",
        "connect-max-iter", "connect-steps",
        "bb-one-time", "bb-n-mismatch", "bb-ragged-rows",
        "connect-dt-1e-300", "connect-dt-subnormal", "gauss-steps-1e9",
        "pde-steps", "cone-steps", "bb-steps", "fr-num-times", "cone-spd-empty",
        "connect-tol-negative", "bb-continuity-tol-negative"])
def test_config_rejected_before_any_computation(tmp_path, capsys, cfg):
    code, out = run_cli(tmp_path, cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert strict_json(err)["kind"] == "config"
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("argv", [["--seed", "-1"], ["--seed", "abc"], ["--bogus"]],
                         ids=["seed-negative", "seed-not-integer", "unknown-flag"])
def test_usage_errors_are_config_errors(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert strict_json(err)["kind"] == "config"
    assert not (tmp_path / "out").exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: uotcone")


@pytest.mark.filterwarnings("error")  # no RankWarning from a fit of 2 rows
@pytest.mark.parametrize("cfg", [
    gauss_config(V=[1.0], m=1.0, P=[0.1], xi=0.1, steps=1),
    {"command": "gauss-connect", "n": 1, "Sigma0": [1.0], "m0": 1.0,
     "Sigma1": [1.0], "m1": 4.0, "dt": 0.7},
], ids=["geodesic-one-step", "connect-dt-0.7"])
def test_mass_fit_of_two_rows_is_a_singular_system(tmp_path, cfg):
    # a parabola through 2 samples is not determined: no mass fit is reported
    code, out = run_cli(tmp_path, cfg)
    assert code == 2
    reason = load_summary(out)["reason"]
    assert reason["kind"] == "singular-system"
    assert reason["samples"] == 2


@pytest.mark.parametrize("overrides", [
    {"m": 1e300, "xi": 1e4, "dt": 1e-160},
    {"m": 1e-300, "xi": 1.0, "dt": 1e80},
], ids=["t4-underflows", "t4-overflows"])
def test_mass_fit_refuses_quietly_where_t4_leaves_the_range(tmp_path, capfd, overrides):
    # polyfit divides the t^2 column by sqrt(sum t^4): where that is 0 or
    # inf, LAPACK got NaN and wrote to stdout, or the fit lost its t^2 term,
    # with numpy warnings on stderr; the fit is refused before it runs
    cfg = gauss_config(steps=20, **overrides)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(tmp_path, cfg)
    assert code == 2
    reason = load_summary(out)["reason"]
    assert reason["kind"] == "singular-system"
    assert reason["t_end"] == 20 * overrides["dt"]
    assert caught == []
    assert capfd.readouterr() == (
        "", "numerical failure in gauss-geodesic: least-squares fit of m(t) failed\n")


def test_trace_size_limit_is_inclusive():
    # a circle cone trace has 8 columns: t, m, xi, H, q0, qdot0, alpha, alphadot
    cfg = {"command": "cone-geodesic", "base": "circle", "q": [0.0], "q_dot": [1.0],
           "alpha": 1.0, "alpha_dot": 0.0}
    validate_run({**cfg, "steps": MAX_TRACE_ENTRIES // 8 - 1})
    with pytest.raises(ConfigError):
        validate_run({**cfg, "steps": MAX_TRACE_ENTRIES // 8})


def test_pde_evolve_scaling_matches_radial_law(tmp_path):
    n = 64
    cfg = {"command": "pde-evolve", "model": "small", "rho": [1.0] * n,
           "theta": [1.0] * n, "dt": 1e-3, "steps": 500}
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
    t, m = rows[:, 0], rows[:, 1]
    assert np.max(np.abs(m - TWO_PI * (1.0 + 0.5 * t) ** 2)) <= 1e-6


def test_pde_evolve_wfr_mass_fit(tmp_path):
    # m'' = H holds for the wfr flow too, so its parabola has leading H0 / 2
    x = np.arange(128) * TWO_PI / 128
    cfg = {"command": "pde-evolve", "model": "wfr",
           "rho": list(1.0 + 0.3 * np.cos(x + 0.4)),
           "theta": list(0.2 + 0.1 * np.sin(2.0 * x)), "dt": 1e-3, "steps": 500}
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    fit = load_summary(out)["mass_fit"]
    assert fit["leading"] == pytest.approx(fit["expected_leading"], abs=1e-8)
    assert fit["expected_leading"] > 0.01


def test_pde_evolve_guard_failure_is_structured(tmp_path):
    n = 64
    grid_x = np.arange(n) * TWO_PI / n
    cfg = {"command": "pde-evolve", "model": "small",
           "rho": [1.0] * n, "theta": list(np.sin(grid_x)),
           "dt": 0.05, "steps": 10}
    code, out = run_cli(tmp_path, cfg)
    assert code == 2
    summary = load_summary(out)
    assert summary["status"] == "error"
    assert summary["reason"]["kind"] == "dt-guard"


def test_pde_metric_constant_rate(tmp_path):
    n = 128
    cfg = {"command": "pde-metric", "metric": "small",
           "rho": [1.0] * n, "rhodot": [0.5] * n}
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    summary = load_summary(out)
    assert summary["value"] == pytest.approx(TWO_PI * 0.25, abs=1e-12)
    assert summary["rate"] == pytest.approx(0.5, abs=1e-14)


def test_fr_geodesic_outputs(tmp_path):
    n = 32
    cfg = {"command": "fr-geodesic", "rho0": [1.0] * n, "rho1": [4.0] * n,
           "num_times": 5}
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    summary = load_summary(out)
    assert summary["endpoint_error"] == 0.0
    rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
    # midpoint density 2.25 everywhere
    mid = rows[2]
    assert mid[0] == pytest.approx(0.5)
    np.testing.assert_allclose(mid[4:], 2.25, atol=1e-12)


def test_cone_geodesic_circle(tmp_path):
    cfg = {"command": "cone-geodesic", "base": "circle", "q": [0.0],
           "q_dot": [1.0], "alpha": 1.0, "alpha_dot": 0.0,
           "dt": 1e-3, "steps": 500}
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    assert load_summary(out)["energy_drift_rel"] <= 1e-8


def test_cone_geodesic_mass_fit(tmp_path):
    # p = 1: m = alpha^2 has m'' = 2H, so the parabola's leading coefficient
    # is H(0); for other p the mass is no parabola and no value is expected
    cfg = {"command": "cone-geodesic", "base": "spd", "q": [1.2, 0.3, 0.3, 0.8],
           "q_dot": [0.1, -0.05, -0.05, 0.2], "alpha": 1.1, "alpha_dot": 0.2,
           "dt": 1e-3, "steps": 1000}
    code, out = run_cli(tmp_path, cfg, out="p1")
    assert code == 0
    fit = load_summary(out)["mass_fit"]
    assert fit["leading"] == pytest.approx(fit["expected_leading"], abs=1e-8)
    code, out = run_cli(tmp_path, {**cfg, "p": 0.0}, out="p0")
    assert code == 0
    fit = load_summary(out)["mass_fit"]
    assert "expected_leading" not in fit
    assert set(fit) == {"leading", "linear", "constant", "rms_residual"}


def test_cone_geodesic_spd_loss_failure(tmp_path):
    # q_dot = -20 I shrinks the covariance through the boundary of the SPD
    # cone; the stage that first sees it lies in step 448
    cfg = {"command": "cone-geodesic", "base": "spd", "q": [1.0, 0.0, 0.0, 1.0],
           "q_dot": [-20.0, 0.0, 0.0, -20.0], "alpha": 1.0, "alpha_dot": 0.0,
           "p": 1.0, "dt": 1e-3, "steps": 1000}
    code, out = run_cli(tmp_path, cfg)
    assert code == 2
    reason = load_summary(out)["reason"]
    assert reason["kind"] == "not-spd"
    assert reason["step"] == 448
    assert reason["min_eigenvalue"] <= 0.0


def test_cone_geodesic_spd_boundary_is_exact(tmp_path):
    # the base geodesic leaves the SPD cone where C = I + s S turns singular,
    # at the arc s* = -1 / min eig(S), which the flow reaches at step 1613; a
    # flow that stepped over that pole of the Lyapunov representer ran on to
    # exit 0 with an energy drift of 44.6
    cfg = {"command": "cone-geodesic", "base": "spd", "q": [1.0, 0.0, 0.0, 1.0],
           "q_dot": [-2.0, 0.4, 0.4, 0.6], "alpha": 1.0, "alpha_dot": 0.0,
           "p": 1.0, "dt": 1e-3, "steps": 2000}
    code, out = run_cli(tmp_path, cfg)
    assert code == 2
    reason = load_summary(out)["reason"]
    assert reason["kind"] == "not-spd"
    assert reason["step"] == 1613
    assert reason["min_eigenvalue"] <= 0.0
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize("q, q_dot, kind, key", [
    # the flow would symmetrize both and run on (exit 0, H ~ 0.01)
    ([1.0, 0.5, -0.5, 1.0], [0.0, 0.3, -0.3, 0.0], "asymmetric-matrix", "asymmetry"),
    ([1.0, 0.0, 0.0, 1.0], [0.0, 0.3, -0.3, 0.0], "asymmetric-matrix", "asymmetry"),
    # once reported as not-spd at step 1
    ([1.0, 0.0, 0.0, -1.0], [0.0, 0.0, 0.0, 0.0], "not-spd", None),
], ids=["asymmetric-q", "asymmetric-qdot", "indefinite-q"])
def test_cone_geodesic_spd_input_is_validated(tmp_path, q, q_dot, kind, key):
    cfg = {"command": "cone-geodesic", "base": "spd", "q": q, "q_dot": q_dot,
           "alpha": 1.0, "alpha_dot": 0.0, "dt": 1e-3, "steps": 100}
    code, out = run_cli(tmp_path, cfg)
    assert code == 2
    reason = load_summary(out)["reason"]
    assert reason["kind"] == kind
    assert "step" not in reason
    assert key is None or key in reason
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize("p, engine", [(1.0, "closed-form"), (0.0, "rk4"), (0.5, "rk4")])
def test_cone_geodesic_diagnostics_name_the_engine(tmp_path, p, engine):
    cfg = {"command": "cone-geodesic", "base": "circle", "q": [0.0], "q_dot": [1.0],
           "alpha": 1.0, "alpha_dot": 0.1, "p": p, "dt": 1e-3, "steps": 200}
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    assert load_summary(out)["diagnostics"] == {"engine": engine}


def dilated(cfg, keys, scale):
    """cfg with the values of keys multiplied by scale."""
    return {**cfg, **{k: ([scale * v for v in cfg[k]] if isinstance(cfg[k], list)
                          else scale * cfg[k]) for k in keys}}


@pytest.mark.parametrize("cfg, keys, lam", [
    # alpha -> 2^e alpha multiplies the mass by 4^e
    ({"command": "cone-geodesic", "base": "circle", "q": [0.0], "q_dot": [1.0],
      "alpha": 1.0, "alpha_dot": 0.1, "p": 1.0}, ("alpha", "alpha_dot"), 2.0**300),
    ({"command": "cone-geodesic", "base": "circle", "q": [0.0], "q_dot": [1.0],
      "alpha": 1.0, "alpha_dot": 0.1, "p": 1.0}, ("alpha", "alpha_dot"), 2.0**-300),
    (gauss_config(m=1.0, P=[0.1], xi=0.0), ("m", "P"), 2.0**600),
    (gauss_config(m=1.0, P=[0.1], xi=0.0), ("m", "P"), 2.0**-600),
    (gauss_config(m=1.0, P=[0.1], xi=0.0), ("m", "P"), 2.0**1000),
    (gauss_config(m=1.0, P=[0.1], xi=0.0), ("m", "P"), 2.0**-1000),
], ids=["cone-2^600", "cone-2^-600", "gauss-2^600", "gauss-2^-600", "gauss-2^1000",
        "gauss-2^-1000"])
def test_mass_fit_scales_with_the_mass(tmp_path, cfg, keys, lam):
    # the residuals of a mass of 1e180 once overflowed when squared (exit 2,
    # non-finite rms_residual), and those of 1e-180 underflowed to 0; at
    # 1e+-301 LAPACK rescaled the masses, and the roundoff-level residuals
    # read 0.42 of the scaled ones
    code, out = run_cli(tmp_path, cfg, out="unit")
    assert code == 0
    unit = load_summary(out)["mass_fit"]
    code, out = run_cli(tmp_path, dilated(cfg, keys, lam), out="scaled")
    assert code == 0
    m_scale = lam * lam if cfg["command"] == "cone-geodesic" else lam
    fit = load_summary(out)["mass_fit"]
    for key in ("leading", "linear", "constant", "rms_residual"):
        assert fit[key] == pytest.approx(m_scale * unit[key], rel=1e-15, abs=0.0)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # the plain square
@pytest.mark.parametrize("lam", [2.0**600, 2.0**-600], ids=["2^600", "2^-600"])
def test_pde_evolve_hamiltonian_scales_with_the_density(tmp_path, lam):
    # H = int |grad theta|^2 rho / 2 + (int theta rho)^2 / (2m) is 1-homogeneous
    # in rho; the square of the pairing once overflowed from 2^512 on (exit 2,
    # "the Hamiltonian overflows") and underflowed below 2^-512 (H lost the
    # second term)
    x = np.arange(32) * TWO_PI / 32
    cfg = {"command": "pde-evolve", "model": "small", "rho": list(1.0 + 0.3 * np.cos(x)),
           "theta": list(0.2 + 0.05 * np.sin(x)), "steps": 10}
    code, out = run_cli(tmp_path, cfg, out="unit")
    assert code == 0
    unit = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)[:, 3]
    code, out = run_cli(tmp_path, dilated(cfg, ("rho",), lam), out="scaled")
    assert code == 0
    H = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)[:, 3]
    np.testing.assert_allclose(H, lam * unit, rtol=1e-15, atol=0.0)


def test_cone_geodesic_apex_failure(tmp_path):
    cfg = {"command": "cone-geodesic", "base": "circle", "q": [0.0],
           "q_dot": [0.0], "alpha": 0.05, "alpha_dot": -1.0,
           "dt": 1e-2, "steps": 100}
    code, out = run_cli(tmp_path, cfg)
    assert code == 2
    assert load_summary(out)["reason"]["kind"] == "apex-crossing"


def test_bb_action_explicit_scaling_path(tmp_path):
    n = 16
    times = np.linspace(0.0, 1.0, 9)
    cfg = {"command": "bb-action", "source": "explicit",
           "times": times.tolist(),
           "rhobar": [[1.0 / TWO_PI] * n for _ in times],
           "w": [[0.0] * n for _ in times],
           "r": (1.0 + times).tolist()}
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    summary = load_summary(out)
    assert summary["action"] == pytest.approx(4.0, abs=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is expected
def test_non_finite_trace_names_its_step(tmp_path):
    # H0 = 2 V P^2 / m = 5e308 overflows in the first row of the trace
    code, out = run_cli(tmp_path, gauss_config(V=[1e307], m=1.0, P=[5.0], xi=0.0))
    assert code == 2
    reason = load_summary(out)["reason"]
    assert reason["kind"] == "non-finite"
    assert reason["step"] == 0


@pytest.mark.filterwarnings("error")  # no overflow warning on the way
def test_cone_base_speed_beyond_the_square_range(tmp_path):
    # |qdot0| = 1e160 squares beyond the largest double, but the cone
    # energy alpha^2 |qdot0|^2 = 1e20 does not
    cfg = {"command": "cone-geodesic", "base": "flat", "q": [0.0, 0.0],
           "q_dot": [1e160, 0.0], "alpha": 1e-150, "alpha_dot": 0.0}
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    assert load_summary(out)["final"]["H"] == pytest.approx(1e20, rel=1e-15)


@pytest.mark.filterwarnings("error")  # no overflow warning on the way
def test_bb_action_radial_part_of_a_tiny_time_step(tmp_path):
    # r from 1 to 2 over 1e-300: rdot^2 = 1e600 overflows, the action
    # 4 rdot^2 dt = 4e300 does not
    code, out = run_cli(tmp_path, bb_explicit_config(times=[0.0, 1e-300]))
    assert code == 0
    summary = load_summary(out)
    assert summary["radial_part"] == pytest.approx(4e300, rel=1e-15)
    assert summary["action"] == summary["radial_part"]


@pytest.mark.parametrize("w, r, action", [(1e160, 1e-100, 1e120), (1e-170, 1e100, 1e-140)],
                         ids=["square-overflows", "square-underflows"])
def test_bb_action_transport_part_of_an_extreme_flux(tmp_path, w, r, action):
    # w^2 = 1e320 overflows and w^2 = 1e-340 underflows, but the transport
    # action r^2 h sum w^2 / rhobar = 2 pi (r w)^2 does not
    code, out = run_cli(tmp_path, bb_explicit_config(w=[[w] * 8] * 2, r=[r] * 2))
    assert code == 0
    summary = load_summary(out)
    assert summary["transport_part"] == pytest.approx(TWO_PI * action, rel=1e-15, abs=0.0)
    assert summary["action"] == summary["transport_part"]


def test_bb_action_from_small_run(tmp_path):
    n = 64
    x = np.arange(n) * TWO_PI / n
    cfg = {"command": "bb-action", "source": "small-run",
           "rho": (1.0 + 0.2 * np.cos(x)).tolist(),
           "theta": (0.3 + 0.05 * np.sin(x)).tolist(),
           "dt": 1e-3, "steps": 200}
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    summary = load_summary(out)
    assert summary["action_vs_energy_gap"] <= 1e-4


def test_check_quick_suite(tmp_path, capsys):
    code, out = run_cli(tmp_path, {"command": "check", "quick": True})
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("PASS") == 10
    summary = load_summary(out)
    assert summary["all_passed"] is True
    assert len(summary["results"]) == 10
    # one "<name> <seconds>" line per check, on stderr
    timed = re.findall(r"^(\S+) (\d+\.\d{3})$", captured.err, flags=re.M)
    assert [name for name, _ in timed] == [r["name"] for r in summary["results"]]


def test_sweep_runs_in_subdirectories(tmp_path):
    doc = {"runs": [gauss_config(name="a"), gauss_config(name="b", xi=1.0)]}
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    assert (out / "a" / "trace.csv").exists()
    assert (out / "b" / "summary.json").exists()


def test_sweep_duplicate_names_rejected(tmp_path):
    doc = {"runs": [gauss_config(name="a"), gauss_config(name="a")]}
    code, _ = run_cli(tmp_path, doc)
    assert code == 1


@pytest.mark.parametrize("name", ["a/", "../x", "", ".", "..", "b\0"],
                         ids=["slash", "escape", "empty", "dot", "dot-dot", "nul"])
def test_sweep_run_name_is_one_path_component(tmp_path, capsys, name):
    # any other name aliases another run's directory or escapes --out
    doc = {"runs": [gauss_config(name="a"), gauss_config(name=name, xi=1.0)]}
    assert run_cli(tmp_path, doc)[0] == 1
    assert strict_json(capsys.readouterr().err)["kind"] == "config"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_check_outputs_are_deterministic(tmp_path):
    code1, out1 = run_cli(tmp_path, {"command": "check", "quick": True}, out="c1")
    code2, out2 = run_cli(tmp_path, {"command": "check", "quick": True}, out="c2")
    assert code1 == 0 and code2 == 0
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def run_check(tmp_path, capsys, out):
    """The exit code, stdout, summary.json bytes and stderr check names of a
    quick check run, and the stderr lines that are no timing."""
    code, outdir = run_cli(tmp_path, {"command": "check", "quick": True}, out=out)
    captured = capsys.readouterr()
    timed = re.compile(r"^(\S+) \d+\.\d{3}$")
    lines = captured.err.splitlines()
    names = [m[1] for m in map(timed.match, lines) if m]
    rest = [line for line in lines if not timed.match(line)]
    return code, captured.out, (outdir / "summary.json").read_bytes(), names, rest


def test_check_suite_is_the_same_on_any_core_count(tmp_path, capsys, cores, monkeypatch):
    # and in any claim order
    fork = os.fork
    order = checks.CLAIM_ORDER
    runs = []
    for k, claims in ((1, order), (2, order), (3, order), (2, order[::-1])):
        cores(k)
        monkeypatch.setattr(os, "fork", fork if k > 1 else
                            lambda: pytest.fail("forked on one core"))
        monkeypatch.setattr(checks, "CLAIM_ORDER", claims)
        runs.append(run_check(tmp_path, capsys, f"c{len(runs)}"))
        no_child_left()
    assert runs[0][0] == 0
    assert runs[0][3] == [r["name"] for r in json.loads(runs[0][2])["results"]]
    assert all(run == runs[0] for run in runs)


def test_checks_are_claimed_longest_first(cores, monkeypatch):
    cores(1)  # this process claims every ticket, in the ticket order
    claimed = []

    def record(check, seed, quick):
        claimed.append(check)
        return CheckResult("stub", True, ""), 0.0

    def claims(suite):
        monkeypatch.setattr(checks, "ALL_CHECKS", suite)
        claimed.clear()
        list(checks.run_all(0, quick=True))
        return claimed.copy()

    monkeypatch.setattr(checks, "_timed", record)
    suite = checks.ALL_CHECKS
    order = claims(suite)
    assert sorted(order, key=suite.index) == list(suite)
    assert order[:2] == [checks.check_constant_acceleration, checks.check_bb_action]
    # checks missing from CLAIM_ORDER come after it, in ALL_CHECKS order
    stubs = tuple(stub(i) for i in range(3))
    assert claims(stubs) == list(stubs)
    assert (claims((stubs[0], checks.check_bb_action, stubs[1], checks.check_shooting))
            == [checks.check_bb_action, checks.check_shooting, stubs[0], stubs[1]])


def stub(i, delay_in=None):
    """A check that passes at once, or after 0.2 s in the process named by
    ``delay_in`` (a predicate on the pid), which then claims few tickets."""
    def check(rng, quick=False):
        if delay_in is not None and delay_in(os.getpid()):
            time.sleep(0.2)
        return CheckResult(f"stub-{i}", True, f"draw {rng.integers(10**6)}")
    return check


@pytest.mark.parametrize("exc", [NonFiniteError("stub overflow", step=3),
                                 ValueError("stub bug")], ids=["numerics", "internal"])
@pytest.mark.parametrize("claimant", ["parent", "worker"])
def test_failing_check_fails_as_in_a_serial_run(tmp_path, capsys, cores, monkeypatch,
                                                exc, claimant):
    # the last check raises, and the parent runs it again at its turn
    parent = os.getpid()
    attempts = tmp_path / "attempts"

    def failing(rng, quick=False):
        with open(attempts, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()}\n")
        raise exc

    def run(k, slow=None):
        cores(k)
        monkeypatch.setattr(checks, "ALL_CHECKS",
                            (*(stub(i, slow) for i in range(9)), failing))
        attempts.unlink(missing_ok=True)
        result = run_check(tmp_path, capsys, f"c{k}")
        no_child_left()
        return result, [int(line) for line in attempts.read_text(encoding="utf-8").split()]

    serial, pids = run(1)
    assert serial[0] == 2 and serial[1].count("PASS") == 9
    assert pids == [parent, parent]
    # stubs that are slow in the other process steer the ticket to the
    # claimant; a race may still hand it over, so up to 5 runs
    slow = (lambda pid: pid != parent) if claimant == "parent" else (lambda pid: pid == parent)
    for _ in range(5):
        result, pids = run(2, slow)
        assert result == serial
        assert len(pids) == 2 and pids[1] == parent
        if (pids[0] == parent) == (claimant == "parent"):
            break
    else:
        pytest.fail(f"the {claimant} claimed the failing check in none of 5 runs")


def test_killed_check_worker_is_an_internal_reason(tmp_path, capsys, cores, monkeypatch):
    cores(2)
    parent = os.getpid()

    def killed(check):
        def run(rng, quick=False):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return check(rng, quick=quick)
        return run

    # every check kills a worker that claims it, and the parent takes long
    # enough over its first that the worker claims one
    monkeypatch.setattr(checks, "ALL_CHECKS", tuple(map(killed, checks.ALL_CHECKS)))
    code, out = run_cli(tmp_path, {"command": "check", "quick": True})
    assert code == 2
    assert capsys.readouterr().out == ""
    reason = load_summary(out)["reason"]
    assert reason["kind"] == "internal"
    assert reason["message"].endswith(f"failed: exit codes [{-signal.SIGKILL}]")
    no_child_left()


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")
                                         if p.name != "check.json"))
def test_shipped_configs_are_deterministic(tmp_path, name):
    # check.json runs in test_check_outputs_are_deterministic
    trees = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert main(["--config", str(CONFIGS / name), "--out", str(out)]) == 0
        trees.append({p.relative_to(out): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert trees[0] and trees[0] == trees[1]


def subnormal_pde_metric(metric):
    # 1 / rho overflows below about 1e-308, the solved potential does not
    x = np.arange(16) * (TWO_PI / 16)
    return {"command": "pde-metric", "metric": metric,
            "rho": (1e-308 * (1.0 + 0.3 * np.cos(x))).tolist(),
            "rhodot": (1e-308 * np.sin(2.0 * x)).tolist()}


WARNING_FREE_RUNS = {
    **{p.stem: json.loads(p.read_text(encoding="utf-8"))
       for p in sorted(CONFIGS.glob("*.json"))},
    "gauss-geodesic-subnormal-mass": gauss_config(V=[1.0], m=1e-310, P=[1e-311], xi=0.1,
                                                  dt=0.1, steps=10),
    "pde-metric-subnormal-small": subnormal_pde_metric("small"),
    "pde-metric-subnormal-gdiv": subnormal_pde_metric("gdiv"),
}


@pytest.mark.parametrize("name", sorted(WARNING_FREE_RUNS))
def test_successful_runs_print_no_runtime_warning(tmp_path, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _ = run_cli(tmp_path, WARNING_FREE_RUNS[name])
    assert code == 0


def test_cli_import_loads_numpy_only():
    # a fresh interpreter: numpy is the only third-party runtime dependency
    src = str(Path(uotcone.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, uotcone.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# -- fuzzed configs -----------------------------------------------------------

FINITE = st.floats(min_value=-1e308, max_value=1e308)
POSITIVE = st.floats(min_value=0.0, max_value=1e308, exclude_min=True)
# tame values reach past the input checks into the numerics
NUMBER = st.one_of(FINITE, st.floats(min_value=0.01, max_value=10.0))
# JSON integers have no range, and one beyond the float range is no finite number
BEYOND_FLOATS = st.integers(min_value=2**1024, max_value=10**400) | st.integers(
    min_value=-10**400, max_value=-2**1024)


@st.composite
def fuzz_configs(draw):
    """A schema-valid run of any command but ``check``: grids of 8-32 points,
    at most 20 steps, matrices of size 1-3 and finite numbers up to 1e308; in
    about one run of four, a number may also be an integer beyond the float
    range, so the other runs still reach the numerics."""
    command = draw(st.sampled_from(sorted(set(_SCHEMAS) - {"check"})))
    n_grid = draw(st.integers(8, 32))
    n_mat = draw(st.integers(1, 3))
    rows = draw(st.integers(2, 4))
    number = st.one_of(NUMBER, BEYOND_FLOATS) if draw(st.integers(0, 3)) == 0 else NUMBER
    grid = st.one_of(st.lists(number, min_size=n_grid, max_size=n_grid),
                     st.lists(POSITIVE, min_size=n_grid, max_size=n_grid))
    cfg = {"command": command}
    for key, (kind, required) in _SCHEMAS[command].items():
        # "steps" is always drawn: its default of 1000 would break the promise
        # of at most 20 steps (test_gauss_geodesic_default_steps covers it)
        if not required and key != "steps" and not draw(st.booleans()):
            continue
        if key in _CHOICES:
            value = st.sampled_from(_CHOICES[key])
        elif kind == "positive":
            # gauss-connect samples unit time every dt: a dt under
            # 1 / MAX_TRACE_ENTRIES is refused, one of 1e-3 or more is cheap
            value = (st.one_of(st.floats(min_value=0.0, max_value=1.0 / MAX_TRACE_ENTRIES,
                                         exclude_min=True),
                               st.floats(min_value=1e-3, max_value=1e308))
                     if command == "gauss-connect" and key == "dt" else POSITIVE)
        elif kind == "float":
            value = number
        elif kind == "count":
            value = st.integers(1, 20) if key == "steps" else st.just(n_mat)
        elif kind == "gridsize":
            value = st.just(n_grid)
        elif kind == "samples":
            value = st.integers(2, 20)
        elif kind == "grid":
            value = grid
        elif kind == "grids":
            value = st.lists(grid, min_size=rows, max_size=rows)
        elif key in ("times", "r"):
            value = st.lists(number, min_size=rows, max_size=rows)
        elif key in ("q", "q_dot"):
            size = {"circle": 1, "flat": n_mat}.get(cfg["base"], n_mat * n_mat)
            value = st.lists(number, min_size=size, max_size=size)
        else:  # row-major matrices
            value = st.lists(number, min_size=n_mat * n_mat, max_size=n_mat * n_mat)
        cfg[key] = draw(value)
    return cfg


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is expected
@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=fuzz_configs())
@example(cfg={"command": "fr-geodesic", "rho0": [1e308] * 8, "rho1": [1.0] * 8})
@example(cfg={"command": "pde-metric", "length": 1e308, "rho": [1e10] * 8,
              "rhodot": [1.0] * 8})
@example(cfg=gauss_config(V=[2.2e177], m=2.2e177, P=[7.5], xi=7.5, steps=20))
@example(cfg={"command": "gauss-connect", "n": 1, "Sigma0": [1.0], "m0": 1.0,
              "Sigma1": [1.0], "m1": 4.0, "dt": 1e-300})
@example(cfg={"command": "cone-geodesic", "base": "spd", "q": [], "q_dot": [],
              "alpha": 1.0, "alpha_dot": 0.0, "steps": 20})
# a start next to the apex that runs off at once, in closed form and by RK4
@example(cfg={"command": "cone-geodesic", "base": "circle", "q": [0.0], "q_dot": [1.0],
              "alpha": 1e-300, "alpha_dot": 1e300, "p": 1.0, "steps": 20})
@example(cfg={"command": "cone-geodesic", "base": "circle", "q": [0.0], "q_dot": [1.0],
              "alpha": 1e-300, "alpha_dot": 1e300, "p": 0.0, "steps": 20})
# the symmetrization of Sigma1^(1/2) Sigma0 Sigma1^(1/2) overflows: its NaN
# once reached an apex-crossing reason with NaN details
@example(cfg={"command": "gauss-connect", "n": 2, "Sigma0": [1e154, 0.0, 0.0, 1e154],
              "m0": 1.0, "Sigma1": [1e154, 0.0, 0.0, 1e154], "m1": 1.0})
# the ray overflows, and the reason holds a NaN residual
@example(cfg={"command": "gauss-connect", "n": 1, "Sigma0": [1.0], "m0": 1e-310,
              "Sigma1": [1.000000000000001], "m1": 1e-310})
# integers beyond the float range, as a number, in a list, and as a count
@example(cfg=gauss_config(m=10**400, steps=20))
@example(cfg={"command": "pde-evolve", "rho": [1.0] * 7 + [10**400], "theta": [0.0] * 8,
              "steps": 20})
@example(cfg=bb_explicit_config(r=[1.0, 10**400]))
@example(cfg={"command": "cone-geodesic", "base": "circle", "q": [10**400], "q_dot": [1.0],
              "alpha": 1.0, "alpha_dot": 0.0, "steps": 20})
@example(cfg=gauss_config(steps=10**400))
@example(cfg={"command": "fr-geodesic", "rho0": [1.0] * 8, "rho1": [2.0] * 8,
              "num_times": 10**400})
# the trace would have more columns than a float can count
@example(cfg={"command": "gauss-connect", "n": 10**200, "Sigma0": [1.0], "m0": 1.0,
              "Sigma1": [1.0], "m1": 4.0})
def test_fuzzed_configs_exit_typed(cfg):
    # no exception may escape main; exit 2 always comes with a reason, and
    # every summary.json is strict JSON, so exit 0 has finite numbers only
    with tempfile.TemporaryDirectory() as tmp:
        code, out = run_cli(Path(tmp), cfg)
        assert code in (0, 1, 2)
        if cfg["command"] == "gauss-connect" and cfg.get("dt", 1.0) < 1e-3:
            assert code == 1
        if code == 1:
            return
        summary = load_summary(out)
        if code == 2:
            # the last-resort handler must not hide a bug from the fuzz
            assert summary["reason"]["kind"] not in ("", "internal")
        else:
            assert summary["status"] == "ok"
