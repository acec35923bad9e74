"""Time-series container and RK4 driver shared by all integrators, plus trace
diagnostics.

Column order is fixed: ``t, m, xi, H`` followed by the flattened state of the
particular model.  CSV output uses shortest round-trip decimal formatting so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, NumericsError, SingularSystemError


@dataclass(frozen=True)
class GeodesicTrace:
    columns: tuple
    data: np.ndarray  # shape (rows, len(columns)), strictly increasing t

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[1] != len(self.columns):
            raise ValueError("trace data shape does not match columns")
        if not np.all(np.isfinite(self.data)):
            raise NonFiniteError("trace entries must be finite")
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

    def write_csv(self, path):
        """Write the header and the rows, split into contiguous blocks, one
        per available core.

        A forked worker formats each block after the first and sends its
        bytes through a pipe, while this process formats block 0 row by row
        and then copies the workers' bytes in block order, so the file is
        the same whatever the block count.  An OSError from the file stays
        an OSError, and kills the workers at once; a worker that fails
        raises RuntimeError.  No worker outlives the call.
        """
        blocks = np.array_split(self.data, _block_count(self.data))
        with open(path, "wb") as f:
            f.write((",".join(self.columns) + "\n").encode())
            workers = []  # (pid, read end of its pipe)
            try:
                for rows in blocks[1:]:
                    workers.append(_fork_formatter(rows, [fd for _, fd in workers]))
                for row in blocks[0]:
                    f.write(_csv_row(row))
                for _, fd in workers:
                    while chunk := os.read(fd, 1 << 20):
                        f.write(chunk)
            except BaseException:
                # a file that failed midway waits for no worker to finish
                # formatting its block
                for pid, _ in workers:
                    os.kill(pid, signal.SIGKILL)
                raise
            finally:
                for _, fd in workers:
                    os.close(fd)
                statuses = [os.waitpid(pid, 0)[1] for pid, _ in workers]
        codes = [os.waitstatus_to_exitcode(s) for s in statuses]
        if any(codes):
            # a negative code is the signal that killed the worker
            raise RuntimeError(f"a worker formatting {path} failed: exit codes {codes}")


# Formatting one entry takes 0.9-1.1 us, and a fork, one pipe write and the
# wait take 1.5-1.9 ms at 83 MB RSS (2-core Xeon, CPython 3.11.7): a block
# of 2**14 entries, 15-18 ms of work, is the least worth a worker.
_BLOCK_ENTRIES = 2**14


def _csv_row(row):
    """One CSV line of shortest round-trip floats, as bytes."""
    return (",".join(map(repr, row.tolist())) + "\n").encode()


def _block_count(data):
    """One block per available core, each of at least _BLOCK_ENTRIES
    entries and one row.  Where os.sched_getaffinity is missing (macOS,
    Windows) there is one block, and nothing is forked."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cores, len(data), data.size // _BLOCK_ENTRIES))


def _fork_formatter(rows, inherited):
    """Fork a worker that writes the CSV lines of ``rows`` into a pipe, and
    return (pid, read end).  ``inherited`` are the read ends of the earlier
    workers, which the new one closes.  The worker only formats, writes and
    exits: it calls no BLAS, imports nothing and takes no lock, because
    the fork copies no thread but this one."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            for fd in (r, *inherited):
                os.close(fd)
            text = bytearray()
            for row in rows:
                text += _csv_row(row)
            out = memoryview(text)
            while out:
                out = out[os.write(w, out):]
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _rk4(rhs, post, states, dt):
    """Classical fixed-step RK4 from ``states[0]``; row k receives the state
    after step k, and the last state is returned.

    A new state with a non-finite entry raises NonFiniteError, naming the
    first such member of a stack; then ``post(y)`` projects the new state in
    place and checks it.  A NumericsError raised by a stage, by that check or
    by ``post`` during the step from k to k + 1 is stamped ``step = k + 1``.
    """
    y = states[0]
    for k in range(1, len(states)):
        try:
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * dt * k1)
            k3 = rhs(y + 0.5 * dt * k2)
            k4 = rhs(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(y).all():
                raise NonFiniteError("non-finite state during integration",
                                     **_first_member(~np.isfinite(y).all(-1)))
            post(y)
        except NumericsError as exc:
            exc.details["step"] = k
            raise
        states[k] = y
    return y


def _first_member(bad):
    """Failure details naming the first failing member of a stack of states:
    ``bad`` holds one flag per member.  A single state (a 0-d flag, or a
    stack of one) names none."""
    return {"member": int(np.flatnonzero(bad)[0])} if np.size(bad) > 1 else {}


def relative_energy_drift(trace, column="H"):
    """max |H(t) - H(0)| / max(|H(0)|, eps) over the trace."""
    e = trace.column(column)
    scale = max(abs(e[0]), np.finfo(float).tiny)
    return float(np.max(np.abs(e - e[0])) / scale)


def mass_quadratic_fit(trace):
    """Least-squares quadratic fit of m(t).

    Returns a dict with the fitted coefficients (highest power first) and the
    rms residual.  Along geodesics of the conical metrics m(t) is a parabola
    with leading coefficient H/2.  Fewer than 3 samples do not determine a
    parabola: SingularSystemError, as for a fit that fails.
    """
    t = trace.t
    m = trace.column("m")
    if t.size < 3:
        raise SingularSystemError("a quadratic fit of m(t) needs 3 samples", samples=t.size)
    try:
        coeffs = np.polyfit(t, m, 2)
    except np.linalg.LinAlgError:
        # t^2 underflows on the tiniest time steps
        raise SingularSystemError("least-squares fit of m(t) failed",
                                  t_end=float(t[-1])) from None
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
