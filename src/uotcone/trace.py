"""Time-series container and RK4 driver shared by all integrators, plus trace
diagnostics.

Column order is fixed: ``t, m, xi, H`` followed by the flattened state of the
particular model.  CSV output uses shortest round-trip decimal formatting so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError


@dataclass(frozen=True)
class GeodesicTrace:
    columns: tuple
    data: np.ndarray  # shape (rows, len(columns)), strictly increasing t

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[1] != len(self.columns):
            raise ValueError("trace data shape does not match columns")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("trace entries must be finite")
        if self.data.shape[0] > 1 and np.any(np.diff(self.data[:, 0]) <= 0.0):
            raise ValueError("trace times must be strictly increasing")

    @property
    def t(self):
        return self.data[:, 0]

    def column(self, name):
        return self.data[:, self.columns.index(name)]

    def block(self, prefix):
        """All columns whose name starts with prefix, as a (rows, k) array."""
        idx = [i for i, c in enumerate(self.columns) if c.startswith(prefix)]
        return self.data[:, idx]

    def to_csv(self):
        buf = io.StringIO()
        buf.write(",".join(self.columns) + "\n")
        for row in self.data:
            buf.write(",".join(repr(float(v)) for v in row) + "\n")
        return buf.getvalue()

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(self.to_csv())


def _rk4(rhs, post, states, dt):
    """Classical fixed-step RK4 from ``states[0]``; row k receives the state
    after step k, and the last state is returned.

    ``post(y)`` projects the new state in place and checks it.  A
    NumericsError raised by a stage or by ``post`` during the step from k to
    k + 1 is stamped ``step = k + 1``.
    """
    y = states[0]
    for k in range(1, len(states)):
        try:
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * dt * k1)
            k3 = rhs(y + 0.5 * dt * k2)
            k4 = rhs(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            post(y)
        except NumericsError as exc:
            exc.details["step"] = k
            raise
        states[k] = y
    return y


def relative_energy_drift(trace, column="H"):
    """max |H(t) - H(0)| / max(|H(0)|, eps) over the trace."""
    e = trace.column(column)
    scale = max(abs(e[0]), np.finfo(float).tiny)
    return float(np.max(np.abs(e - e[0])) / scale)


def mass_quadratic_fit(trace):
    """Least-squares quadratic fit of m(t).

    Returns a dict with the fitted coefficients (highest power first) and the
    rms residual.  Along geodesics of the conical metrics m(t) is a parabola
    with leading coefficient H/2.
    """
    t = trace.t
    m = trace.column("m")
    coeffs = np.polyfit(t, m, 2)
    resid = m - np.polyval(coeffs, t)
    return {
        "leading": float(coeffs[0]),
        "linear": float(coeffs[1]),
        "constant": float(coeffs[2]),
        "rms_residual": float(np.sqrt(np.mean(resid**2))),
    }


def mass_acceleration(trace):
    """Centered second differences of m(t), one value per interior sample."""
    t = trace.t
    m = trace.column("m")
    dt = t[1] - t[0]
    return (m[2:] - 2.0 * m[1:-1] + m[:-2]) / dt**2
