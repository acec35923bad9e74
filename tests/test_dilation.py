"""Dilation covariance of every command and of the library flows the
checks use.

Every model is a Euclidean cone, and the dilation r -> sqrt(lam) r of its
radius maps geodesics to geodesics: it multiplies the mass, the energy, the
Gaussian momentum P and the density rho by lam, and it leaves xi, the cone
angle, the covariances, the means and their velocities fixed.  With lam = 4^k each of
these maps is exact in binary floating point, so the outputs must be lam
times the unscaled ones bit for bit, here over lam from 1e-300 to 1e300.

Time dilates the same way: with c = 2^j, a run with dt / c and every
velocity (P, xi, theta, qdot, alphadot, the flux w) times c must give times
t / c, velocities times c, energies times c^2 and actions times c, bit for
bit.
"""

import json

import numpy as np
import numpy.testing as npt
import pytest

from uotcone.bb import antiderivative_half
from uotcone.cli import main
from uotcone.gaussian import (AffineGaussian, GaussianCotangentState, connect_affine,
                              group_metric_eval, integrate_geodesic, symmetrize)
from uotcone.pde import Grid1D

# 4^-498 ~ 1.5e-300 .. 4^498 ~ 6.7e299; the means pairs of the parent
# missed from |k| = 332 on
KS = [-498, -450, -400, -332, -250, -100, -1, 1, 100, 250, 332, 400, 450, 498]


def random_pairs(count=20, seed=7):
    rng = np.random.default_rng(seed)

    def gaussian(n):
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        Sigma = symmetrize(Q @ np.diag(rng.uniform(0.5, 2.0, size=n)) @ Q.T)
        return AffineGaussian(Sigma, rng.uniform(-0.5, 0.5, size=n), float(rng.uniform(0.5, 2.0)))

    return [(gaussian(n), gaussian(n)) for n in (1 + i % 3 for i in range(count))]


def dilated(g, lam):
    return AffineGaussian(g.Sigma, g.mean, lam * g.m)


@pytest.mark.parametrize("k", KS)
def test_connect_affine_with_means_scales_exactly(k):
    lam = 4.0 ** k
    for g0, g1 in random_pairs():
        ref = connect_affine(g0, g1)
        conn = connect_affine(dilated(g0, lam), dilated(g1, lam))
        npt.assert_array_equal(conn.P0, lam * ref.P0)
        npt.assert_array_equal(conn.v0, ref.v0)
        assert conn.xi0 == ref.xi0
        assert conn.residual == ref.residual
        mid, ref_mid = conn.at(0.5), ref.at(0.5)
        npt.assert_array_equal(mid.Sigma, ref_mid.Sigma)
        npt.assert_array_equal(mid.mean, ref_mid.mean)
        assert mid.m == lam * ref_mid.m


# summary keys of gauss-connect that carry one power of the mass; every
# other value is unchanged by the dilation
MASS_KEYS = {"final.m", "final.H", "mass_fit.leading", "mass_fit.linear",
             "mass_fit.constant", "mass_fit.rms_residual", "mass_fit.expected_leading",
             "P0", "min_mass"}


def flatten(summary, prefix=""):
    out = {}
    for key, value in summary.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(flatten(value, f"{name}."))
        else:
            out[name] = value
    return out


def run(tmp_path, cfg, name):
    """The flattened summary, trace columns and trace rows of a CLI run;
    no columns and rows for a command that writes no trace."""
    tmp_path.mkdir(exist_ok=True)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / name
    assert main(["--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    if not (out / "trace.csv").exists():
        return flatten(summary), None, None
    with open(out / "trace.csv", encoding="utf-8") as f:
        columns = f.readline().strip().split(",")
    return flatten(summary), columns, np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)


def mass_column(name):
    """The power of lam in a trace column: one in m, H, P and rho."""
    return int(name in ("m", "H") or name.startswith(("P_", "rho")))


def assert_scaled(tmp_path, config, factor, keys, columns=mass_column):
    """The run of config(factor) is that of config(1) with every summary
    value times factor to the power keys gives its key (a set gives its
    keys the power 1) and every trace column times factor to the power
    columns(name); every other value equal."""
    if isinstance(keys, set):
        keys = dict.fromkeys(keys, 1)
    ref, names, ref_trace = run(tmp_path, config(1.0), "ref")
    summary, scaled_names, trace = run(tmp_path, config(factor), "scaled")
    assert summary.keys() == ref.keys()
    assert keys.keys() <= ref.keys()
    for key, value in ref.items():
        expected = factor ** keys[key] * np.asarray(value) if key in keys else value
        npt.assert_array_equal(summary[key], expected, err_msg=key)
    assert scaled_names == names
    if names is not None:
        powers = np.array([columns(name) for name in names])
        npt.assert_array_equal(trace, factor ** powers * ref_trace)


def gauss_connect(lam):
    return {"command": "gauss-connect", "n": 2,
            "Sigma0": [2.0, 0.3, 0.3, 1.0], "m0": lam * 1.3,
            "Sigma1": [1.2, -0.4, -0.4, 2.5], "m1": lam * 0.6, "dt": 0.01}


# the exponents k of lam = 4^k
CLI_KS = [-498, -332, -1, 1, 332, 498]


@pytest.mark.parametrize("k", CLI_KS)
def test_gauss_connect_scales_exactly(tmp_path, k):
    assert_scaled(tmp_path, gauss_connect, 4.0 ** k, MASS_KEYS)


# summary keys of the trace commands that carry one power of the mass
TRACE_MASS_KEYS = {"final.m", "final.H", "mass_fit.leading", "mass_fit.linear",
                      "mass_fit.constant", "mass_fit.rms_residual",
                      "mass_fit.expected_leading"}


def gauss_geodesic(lam=1.0, c=1.0):
    # the mass and the momentum P carry the dilation; V and xi do not
    P = lam * c * np.array([0.2, -0.05, -0.05, 0.1])
    return {"command": "gauss-geodesic", "n": 2, "V": [1.5, 0.2, 0.2, 0.7],
            "m": lam * 1.3, "P": P.tolist(), "xi": c * 0.3, "dt": 0.01 / c, "steps": 100}


@pytest.mark.parametrize("k", CLI_KS)
def test_gauss_geodesic_scales_exactly(tmp_path, k):
    assert_scaled(tmp_path, gauss_geodesic, 4.0 ** k, TRACE_MASS_KEYS)


def test_gauss_geodesic_at_subnormal_masses(tmp_path):
    # S0 = 2 (P0 / m0) stays representable where 2 / m0 overflows
    cfg = {"command": "gauss-geodesic", "n": 1, "V": [1.0], "m": 1e-310, "P": [1e-311],
           "xi": 0.1, "dt": 0.1, "steps": 10}
    run(tmp_path, cfg, "repro")
    # lam = 4^-520 ~ 8e-314 leaves m0 and P0 subnormal with 30 to 34
    # significant bits, so their rounding moves the outputs by up to about
    # 2^-30 ~ 1e-9 relative: the dilation holds to that, not bit for bit
    lam = 4.0 ** -520
    ref, _, _ = run(tmp_path, gauss_geodesic(), "ref")
    summary, _, _ = run(tmp_path, gauss_geodesic(lam), "scaled")
    for key in ("final.m", "final.H"):
        assert summary[key] == pytest.approx(lam * ref[key], rel=1e-9, abs=0.0), key


def fr_geodesic(lam):
    x = np.arange(16) * (2.0 * np.pi / 16)
    return {"command": "fr-geodesic", "num_times": 21,
            "rho0": (lam * (1.0 + 0.3 * np.cos(x))).tolist(),
            "rho1": (lam * (0.6 + 0.2 * np.sin(2.0 * x))).tolist()}


@pytest.mark.parametrize("k", CLI_KS)
def test_fr_geodesic_scales_exactly(tmp_path, k):
    assert_scaled(tmp_path, fr_geodesic, 4.0 ** k,
                  TRACE_MASS_KEYS | {"m0", "m1", "endpoint_error"})


GRID = Grid1D(n=16)


def pde_evolve(model, lam=1.0, c=1.0, steps=100):
    return {"command": "pde-evolve", "model": model,
            "rho": (lam * (1.0 + 0.3 * np.cos(GRID.x + 0.4))).tolist(),
            "theta": (c * (0.2 + 0.1 * np.sin(2.0 * GRID.x))).tolist(),
            "dt": 1.0 / (c * steps), "steps": steps}


@pytest.mark.parametrize("model", ["small", "wfr"])
@pytest.mark.parametrize("k", CLI_KS)
def test_pde_evolve_scales_exactly(tmp_path, model, k):
    assert_scaled(tmp_path, lambda lam: pde_evolve(model, lam), 4.0 ** k, TRACE_MASS_KEYS)


def bb_small_run(lam=1.0, c=1.0):
    # the continuity residual is a rate: its tolerance scales with 1 / time;
    # unit time in 1000 steps, where a last bit of H moves the energy integral
    cfg = pde_evolve("small", lam, c, steps=1000)
    del cfg["model"]
    return {**cfg, "command": "bb-action", "source": "small-run", "continuity_tol": c * 1e-5}


def bb_explicit(a=1.0, c=1.0):
    """A path whose normalized density moves by the flux w while its radius
    r, times a, grows: lam = a^2."""
    times = np.linspace(0.0, 1.0, 11)
    rate = 0.2 * np.sin(GRID.x) / (2.0 * np.pi)  # d rhobar / dt
    w = -antiderivative_half(GRID, rate)
    return {"command": "bb-action", "source": "explicit", "times": (times / c).tolist(),
            "rhobar": (1.0 / (2.0 * np.pi) + np.outer(times, rate)).tolist(),
            "w": np.tile(c * w, (times.size, 1)).tolist(),
            "r": (a * (1.0 + 0.5 * times)).tolist(), "continuity_tol": c * 1e-5}


BB_ACTION_KEYS = {"action", "transport_part", "radial_part"}


@pytest.mark.parametrize("k", CLI_KS)
def test_bb_action_scales_exactly(tmp_path, k):
    assert_scaled(tmp_path / "small-run", bb_small_run, 4.0 ** k,
                  BB_ACTION_KEYS | {"energy_integral", "action_vs_energy_gap"})
    # the radius carries sqrt(lam) = 2^k
    assert_scaled(tmp_path / "explicit", bb_explicit, 2.0 ** k,
                  dict.fromkeys(BB_ACTION_KEYS, 2))


def pde_metric(metric):
    def config(lam):
        return {"command": "pde-metric", "metric": metric,
                "rho": (lam * (1.0 + 0.3 * np.cos(GRID.x + 0.4))).tolist(),
                "rhodot": (lam * (0.2 * np.sin(GRID.x) + 0.05)).tolist()}
    return config


@pytest.mark.parametrize("metric", ["small", "gdiv"])
@pytest.mark.parametrize("k", CLI_KS)
def test_pde_metric_scales_exactly(tmp_path, metric, k):
    assert_scaled(tmp_path, pde_metric(metric), 4.0 ** k, {"value"})


@pytest.mark.parametrize("metric", ["small", "gdiv"])
def test_pde_metric_below_the_reciprocal_range(tmp_path, metric):
    # lam = 4^-511 ~ 2.2e-308: the sum of the loop weights 1 / rho_{i+1/2}
    # overflows unless their common scale is taken out; the entries of
    # rhodot that fall below 2^-1022 keep fewer bits, so the value holds to
    # a few ulps, not bit for bit
    lam = 4.0 ** -511
    ref, _, _ = run(tmp_path, pde_metric(metric)(1.0), "ref")
    summary, _, _ = run(tmp_path, pde_metric(metric)(lam), "scaled")
    assert summary["value"] == pytest.approx(lam * ref["value"], rel=1e-14, abs=0.0)


def cone_geodesic(base, a=1.0, c=1.0, p=1.0):
    # alpha carries sqrt(lam) = a; the base point does not
    q, q_dot = ([0.3], [1.0]) if base == "circle" else ([1.5, 0.2, 0.2, 0.7],
                                                        [0.1, -0.05, -0.05, 0.2])
    return {"command": "cone-geodesic", "base": base, "p": p, "q": q,
            "q_dot": (c * np.array(q_dot)).tolist(), "alpha": a * 1.0,
            "alpha_dot": a * c * 0.2, "dt": 0.01 / c, "steps": 100}


def cone_column(name):
    """The power of a = sqrt(lam) in a cone trace column."""
    return 2 * mass_column(name) + int(name in ("alpha", "alphadot"))


@pytest.mark.parametrize("base", ["circle", "spd"])
@pytest.mark.parametrize("k", CLI_KS)
def test_cone_geodesic_scales_exactly(tmp_path, base, k):
    keys = dict.fromkeys(TRACE_MASS_KEYS, 2)
    assert_scaled(tmp_path, lambda a: cone_geodesic(base, a), 2.0 ** k, keys, cone_column)


def gauss_state(lam):
    return GaussianCotangentState(V=np.array([[1.5, 0.2], [0.2, 0.7]]), m=lam * 1.3,
                                  P=lam * np.array([[0.2, -0.05], [-0.05, 0.1]]), xi=0.3)


@pytest.mark.parametrize("k", CLI_KS)
def test_integrate_geodesic_scales_exactly(k):
    lam = 4.0 ** k
    ref = integrate_geodesic(gauss_state(1.0), 0.01, 100)
    trace = integrate_geodesic(gauss_state(lam), 0.01, 100)
    powers = np.array([mass_column(name) for name in ref.columns])
    npt.assert_array_equal(trace.data, lam ** powers * ref.data)


@pytest.mark.parametrize("k", CLI_KS)
def test_group_metric_scales_exactly(k):
    lam = 4.0 ** k
    rng = np.random.default_rng(5)
    for _ in range(10):
        A = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
        Adot = rng.standard_normal((2, 2))
        Sigma = symmetrize(np.eye(2) + 0.2 * rng.standard_normal((2, 2)))
        m, mdot = rng.uniform(0.5, 2.0), rng.standard_normal()
        assert (group_metric_eval(A, lam * m, Adot, lam * mdot, Sigma)
                == lam * group_metric_eval(A, m, Adot, mdot, Sigma))


# -- time dilation ------------------------------------------------------------

# the exponents j of c = 2^j
JS = [-20, -3, 3, 20]

# summary keys of the integrating commands with their power of c
TRACE_TIME_KEYS = {"final.t": -1, "final.xi": 1, "final.H": 2, "mass_fit.leading": 2,
                   "mass_fit.linear": 1, "mass_fit.expected_leading": 2}


def time_column(name):
    """The power of c in a trace column: -1 in t, 2 in H and 1 in each
    velocity."""
    velocity = name == "xi" or name.startswith(("P_", "theta", "qdot", "alphadot"))
    return {"t": -1, "H": 2}.get(name, int(velocity))


@pytest.mark.parametrize("j", JS)
def test_gauss_geodesic_time_dilation(tmp_path, j):
    assert_scaled(tmp_path, lambda c: gauss_geodesic(c=c), 2.0 ** j, TRACE_TIME_KEYS,
                  time_column)


@pytest.mark.parametrize("model", ["small", "wfr"])
@pytest.mark.parametrize("j", JS)
def test_pde_evolve_time_dilation(tmp_path, model, j):
    assert_scaled(tmp_path, lambda c: pde_evolve(model, c=c), 2.0 ** j, TRACE_TIME_KEYS,
                  time_column)


@pytest.mark.parametrize("p", [1.0, 0.5])
@pytest.mark.parametrize("base", ["circle", "spd"])
@pytest.mark.parametrize("j", JS)
def test_cone_geodesic_time_dilation(tmp_path, p, base, j):
    # a warped cone (p != 1) has no expected m''
    keys = {key: power for key, power in TRACE_TIME_KEYS.items()
            if p == 1.0 or key != "mass_fit.expected_leading"}
    assert_scaled(tmp_path, lambda c: cone_geodesic(base, c=c, p=p), 2.0 ** j, keys,
                  time_column)


@pytest.mark.parametrize("j", JS)
def test_bb_action_time_dilation(tmp_path, j):
    # the action integrates a squared velocity over time: one power of c
    keys = dict.fromkeys(BB_ACTION_KEYS | {"continuity_residual"}, 1)
    assert_scaled(tmp_path / "small-run", lambda c: bb_small_run(c=c), 2.0 ** j,
                  {**keys, "energy_integral": 1, "action_vs_energy_gap": 1})
    assert_scaled(tmp_path / "explicit", lambda c: bb_explicit(c=c), 2.0 ** j, keys)
