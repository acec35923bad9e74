import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uotcone
from uotcone.cli import main

TWO_PI = 2.0 * np.pi


def run_cli(tmp_path, config, name="cfg.json", out="out", seed=0):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    outdir = tmp_path / out
    code = main(["--config", str(path), "--out", str(outdir), "--seed", str(seed)])
    return code, outdir


def load_summary(outdir):
    return json.loads((outdir / "summary.json").read_text(encoding="utf-8"))


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


def test_gauss_geodesic_csv_shape(tmp_path):
    code, out = run_cli(tmp_path, gauss_config(steps=10))
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,m,xi,H,V_0_0,P_0_0"
    assert len(lines) == 12


def test_gauss_connect_scaling_case(tmp_path):
    cfg = {"command": "gauss-connect", "n": 1, "Sigma0": [1.0], "m0": 1.0,
           "Sigma1": [1.0], "m1": 4.0, "tol": 1e-10}
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    summary = load_summary(out)
    assert summary["xi0"] == pytest.approx(2.0, abs=1e-8)
    assert abs(summary["P0"][0]) <= 1e-8
    assert summary["endpoint_residual"] <= 1e-8


def test_gauss_connect_apex_crossing_is_structured(tmp_path):
    cfg = {"command": "gauss-connect", "n": 1, "Sigma0": [1.0], "m0": 1.0,
           "Sigma1": [(1.0 + TWO_PI) ** 2], "m1": 1.0}
    code, out = run_cli(tmp_path, cfg)
    assert code == 2
    reason = load_summary(out)["reason"]
    assert reason["kind"] == "apex-crossing"
    assert reason["theta"] == pytest.approx(np.pi, abs=1e-12)


def test_gauss_connect_missed_endpoint_is_structured(tmp_path, capsys):
    # theta ~ 1.10 < pi, but the verification flow at dt = 1e-3 lands about
    # 4e-8 off the endpoint, above the default tol = 1e-8
    cfg = {"command": "gauss-connect", "n": 2, "Sigma0": [1.0, 0.0, 0.0, 1.0],
           "m0": 1.0, "Sigma1": [9.0, 0.0, 0.0, 0.01], "m1": 0.01}
    code, out = run_cli(tmp_path, cfg)
    assert code == 2
    reason = load_summary(out)["reason"]
    assert reason["kind"] == "shooting-no-convergence"
    assert reason["tol"] == 1e-8
    assert reason["residual"] > reason["tol"]
    assert "Traceback" not in capsys.readouterr().err


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
    {"command": "gauss-connect", "n": 1, "Sigma0": [1.0], "m0": 1.0,
     "Sigma1": [1.0], "m1": 4.0, "max_iter": 50},
    {"command": "gauss-connect", "n": 1, "Sigma0": [1.0], "m0": 1.0,
     "Sigma1": [1.0], "m1": 4.0, "steps": 1000},
    bb_explicit_config(times=[0.0], rhobar=[[1.0] * 8], w=[[0.0] * 8], r=[1.0]),
    bb_explicit_config(n=16),
    bb_explicit_config(rhobar=[[1.0] * 8, [1.0] * 9]),
], ids=["grid-n4", "dt-zero", "dt-negative", "steps-zero", "num-times-1",
        "nan", "inf-in-grid", "connect-max-iter", "connect-steps",
        "bb-one-time", "bb-n-mismatch", "bb-ragged-rows"])
def test_config_rejected_before_any_computation(tmp_path, capsys, cfg):
    code, out = run_cli(tmp_path, cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err)["kind"] == "config"
    assert not (out / "summary.json").exists()


def test_pde_evolve_scaling_matches_radial_law(tmp_path):
    n = 64
    cfg = {"command": "pde-evolve", "model": "small", "rho": [1.0] * n,
           "theta": [1.0] * n, "dt": 1e-3, "steps": 500}
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
    t, m = rows[:, 0], rows[:, 1]
    assert np.max(np.abs(m - TWO_PI * (1.0 + 0.5 * t) ** 2)) <= 1e-6


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
    captured = capsys.readouterr().out
    assert code == 0
    assert captured.count("PASS") == 10
    summary = load_summary(out)
    assert summary["all_passed"] is True
    assert len(summary["results"]) == 10


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


def test_check_outputs_are_deterministic(tmp_path):
    code1, out1 = run_cli(tmp_path, {"command": "check", "quick": True}, out="c1")
    code2, out2 = run_cli(tmp_path, {"command": "check", "quick": True}, out="c2")
    assert code1 == 0 and code2 == 0
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


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
