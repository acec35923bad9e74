"""Dilation covariance of the two-point solve and of the geodesic commands.

Every model is a Euclidean cone, and the dilation r -> sqrt(lam) r of its
radius maps geodesics to geodesics: it multiplies the mass, the energy, the
Gaussian momentum P and the density rho by lam, and it leaves xi, the cone
angle, the covariances, the means and their velocities fixed.  With lam = 4^k each of
these maps is exact in binary floating point, so the outputs must be lam
times the unscaled ones bit for bit, here over lam from 1e-300 to 1e300.
"""

import json

import numpy as np
import numpy.testing as npt
import pytest

from uotcone.cli import main
from uotcone.gaussian import AffineGaussian, connect_affine, symmetrize

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
             "mass_fit.constant", "mass_fit.rms_residual", "P0", "min_mass"}


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
    """The flattened summary, trace columns and trace rows of a CLI run."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / name
    assert main(["--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    with open(out / "trace.csv", encoding="utf-8") as f:
        columns = f.readline().strip().split(",")
    return flatten(summary), columns, np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)


def assert_scaled(tmp_path, config, lam, mass_keys):
    """The run of config(lam) is that of config(1) with every value of
    mass_keys and every m, H, P and rho column times lam, all others equal."""
    ref, columns, ref_trace = run(tmp_path, config(1.0), "ref")
    summary, scaled_columns, trace = run(tmp_path, config(lam), "scaled")
    assert scaled_columns == columns
    assert summary.keys() == ref.keys()
    assert mass_keys <= ref.keys()
    for key, value in ref.items():
        expected = lam * np.asarray(value) if key in mass_keys else value
        npt.assert_array_equal(summary[key], expected, err_msg=key)
    mass_columns = [c in ("m", "H") or c.startswith(("P_", "rho")) for c in columns]
    npt.assert_array_equal(trace, np.where(mass_columns, lam * ref_trace, ref_trace))


def gauss_connect(lam):
    return {"command": "gauss-connect", "n": 2,
            "Sigma0": [2.0, 0.3, 0.3, 1.0], "m0": lam * 1.3,
            "Sigma1": [1.2, -0.4, -0.4, 2.5], "m1": lam * 0.6, "dt": 0.01}


@pytest.mark.parametrize("k", [-498, -332, -1, 1, 332, 498])
def test_gauss_connect_scales_exactly(tmp_path, k):
    assert_scaled(tmp_path, gauss_connect, 4.0 ** k, MASS_KEYS)


# summary keys of gauss-geodesic that carry one power of the mass
GEODESIC_MASS_KEYS = {"final.m", "final.H", "mass_fit.leading", "mass_fit.linear",
                      "mass_fit.constant", "mass_fit.rms_residual",
                      "mass_fit.expected_leading"}


def gauss_geodesic(lam):
    # the mass and the momentum P carry the dilation; V and xi do not
    return {"command": "gauss-geodesic", "n": 2, "V": [1.5, 0.2, 0.2, 0.7],
            "m": lam * 1.3, "P": [lam * 0.2, lam * -0.05, lam * -0.05, lam * 0.1],
            "xi": 0.3, "dt": 0.01, "steps": 100}


@pytest.mark.parametrize("k", [-498, -332, -1, 1, 332, 498])
def test_gauss_geodesic_scales_exactly(tmp_path, k):
    assert_scaled(tmp_path, gauss_geodesic, 4.0 ** k, GEODESIC_MASS_KEYS)


def fr_geodesic(lam):
    x = np.arange(16) * (2.0 * np.pi / 16)
    return {"command": "fr-geodesic", "num_times": 21,
            "rho0": (lam * (1.0 + 0.3 * np.cos(x))).tolist(),
            "rho1": (lam * (0.6 + 0.2 * np.sin(2.0 * x))).tolist()}


@pytest.mark.parametrize("k", [-498, -332, -1, 1, 332, 498])
def test_fr_geodesic_scales_exactly(tmp_path, k):
    assert_scaled(tmp_path, fr_geodesic, 4.0 ** k,
                  {"m0", "m1", "flat_energy", "endpoint_error"})
