"""Time-series container and RK4 driver shared by all integrators, plus trace
diagnostics.

Column order is fixed: ``t, m, xi, H`` followed by the flattened state of the
particular model.  CSV output writes each entry as ``repr`` does, the
shortest round-trip decimal, so identical runs produce byte-identical files;
numpy makes those bytes for thousands of entries at a time (``_csv_chunk``).
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import NonFiniteError, NumericsError, SingularSystemError


@dataclass(frozen=True)
class GeodesicTrace:
    columns: tuple
    data: np.ndarray  # float64, shape (rows, len(columns)), strictly increasing t

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=np.float64))
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

        A forked worker (``_forked``) formats each block after the first,
        while this process formats block 0 a chunk at a time (``_csv_chunks``)
        and writes each chunk as soon as it is made, then copies the workers'
        bytes in block order, so the file is the same whatever the block
        count.  An OSError from the file stays an OSError, and kills the
        workers at once; a worker that fails raises RuntimeError.
        """
        blocks = np.array_split(self.data, _block_count(self.data))
        with open(path, "wb") as f:
            f.write((",".join(self.columns) + "\n").encode())
            with _forked([partial(_csv_block, rows) for rows in blocks[1:]],
                         f"formatting {path}") as pipes:
                for chunk in _csv_chunks(blocks[0]):
                    f.write(chunk)
                for fd in pipes:
                    while chunk := os.read(fd, 1 << 20):
                        f.write(chunk)


# Writing one entry takes about 0.4 us, and a worker costs its fork, its
# copy-on-write faults, the copy through its pipe and its reaping.  Timed
# in one process at 80 MB RSS (2-core Xeon, CPython 3.11.7, numpy 2.4),
# interleaved, a trace split into two blocks was faster than one block in
# 4 of 30 pairs at 36k entries, 17 of 40 at 41k, 33 of 40 at 49k (-11%)
# and 38 of 40 at 82k (-20%): a block of 2**15 entries is the least worth
# a worker.
_BLOCK_ENTRIES = 2**15

# A chunk of this many entries, rows or parts of rows, is formatted at a
# time: the peak of its temporaries is 1.1 MB, where a 36k-entry trace at
# once would take 9 MB.  Chunks of 2048 entries were 14% slower on 36-column
# rows, and of 8192 no faster there and 9% faster on 516-column rows.
_CHUNK_ENTRIES = 4096


def _csv_block(rows):
    """The CSV lines of ``rows``, as one bytearray."""
    text = bytearray()
    for chunk in _csv_chunks(rows):
        text += chunk.data
    return text


def _csv_chunks(rows):
    """The CSV lines of ``rows``, _CHUNK_ENTRIES entries at a time
    (``_csv_chunk``)."""
    x = rows.ravel()
    for start in range(0, x.size, _CHUNK_ENTRIES):
        yield _csv_chunk(x[start:start + _CHUNK_ENTRIES], rows.shape[1], start)


# ------------------------------------------------ shortest round-trip decimals
#
# _csv_chunk writes the bytes that repr writes for each float64 entry: the
# shortest decimal that reads back as the same double, the closest such one,
# ties to even digits (_decimal), laid out as Python's 'r' format does.
# _decimal is Schubfach (R. Giulietti, "The Schubfach way to render doubles",
# 2020, figure 7, with rop from section 9), computed on whole arrays in
# uint64 arithmetic.  Two changes from the Java reference make its digits
# Python's: the smallest subnormals are not rescaled by 10, and the
# multiples of 10^(k+1) are tried from two digits on, not three (Java prints
# 4.9E-324 and 7.9E-323 where repr prints 5e-324 and 8e-323).

_U = np.uint64
_K_MIN = -324  # the decimal exponents k of the table, K_MIN .. 292


def _flog2pow10(e):
    """floor(log2(10^e)), exact for the exponents of the table."""
    return (e * 913_124_641_741) >> 38


def _pow10_table():
    """One column per k = _K_MIN .. 292 of g = floor(10^-k / 2^r) + 1, the
    126-bit overestimate of 10^-k (r = floor(log2(10^-k)) - 125), built
    exactly from Python ints: g1 = g >> 63, then the low and high 32-bit
    halves of g1 and of g0 = g mod 2^63."""
    tens = [1]
    for _ in range(-_K_MIN):
        tens.append(10 * tens[-1])
    g = []
    for k in range(_K_MIN, 293):
        r = _flog2pow10(-k) - 125
        if k <= 0:
            g.append((tens[-k] >> r if r >= 0 else tens[-k] << -r) + 1)
        else:
            g.append((1 << -r) // tens[k] + 1)
    g1, g0 = np.array([[v >> 63 for v in g], [v & (2**63 - 1) for v in g]], dtype=_U)
    low = _U(2**32 - 1)
    return np.stack([g1, g1 & low, g1 >> _U(32), g0 & low, g0 >> _U(32)])


def _quads():
    """The four ASCII digits of each of 0000 .. 9999, as one uint32."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.empty((10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        quads[..., place] = digit.reshape((10,) + (1,) * (3 - place))
    return quads.view(np.uint32).ravel()


_G = _pow10_table()
_POW10 = 10 ** np.arange(18, dtype=_U)
_QUADS = _quads()
# Each entry is one column of these characters, of which a mask keeps those
# that repr writes: sign, "0.000" before small numbers, 17 digits with a
# "." among them (the body), "e+000" and the separator.
_TEMPLATE = np.frombuffer(b"-0.000" + b"0" * 18 + b"e+000,", np.uint8)
_SLOT = np.arange(18, dtype=np.int16)[:, None]  # body position
_PLACE = np.arange(1, 18, dtype=np.uint8)[:, None]  # digit number
_PREFIX = np.array([0, 0, 1, 2, 3], dtype=np.int16)[:, None]


def _mulhi(a0, a1, b0, b1):
    """High 64 bits of (a1 2^32 + a0) (b1 2^32 + b0), for 32-bit a0, b0,
    a1 < 2^31 and b1 < 2^27, elementwise."""
    out = a0 * b0
    out >>= _U(32)
    tmp = a1 * b0
    out += tmp
    np.multiply(a0, b1, out=tmp)
    out += tmp
    out >>= _U(32)
    np.multiply(a1, b1, out=tmp)
    out += tmp
    return out


def _decimal(x):
    """The significands f (uint64, 0 for zeros) and exponents k of the
    shortest closest decimals |x| = f 10^k of finite float64 entries x."""
    bits = x.view(_U)
    bq = (bits >> _U(52)).astype(np.int64) & 0x7FF
    t = bits & _U(2**52 - 1)
    normal = np.minimum(bq, 1)
    c = t | normal.astype(_U) << _U(52)  # |x| = c 2^q
    q = bq - normal - 1074
    # a power of two has a closer lower neighbour: an irregular interval
    irregular = (t == 0) & (bq > 1)
    # floor(log10(2^q)), or floor(log10(3/4 2^q)) for irregular ones
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = q + _flog2pow10(-k) + 2
    g1, g1l, g1h, g0l, g0h = _G.take(k - _K_MIN, axis=1, mode="clip")
    # 4c and the ends of its rounding interval, times 2^h
    cp = np.empty((3, x.size), _U)
    np.left_shift(c, _U(2), out=cp[0])
    cp[1] = cp[0] - _U(2) + irregular
    cp[2] = cp[0] + _U(2)
    cp <<= h.astype(_U)
    # vb, vbl, vbr = rop(g cp): g cp / 2^127 rounded to odd, all three at once
    c0 = cp & _U(0xFFFFFFFF)
    c1 = cp >> _U(32)
    z = np.multiply(g1, cp, out=cp)
    z >>= _U(1)
    z += _mulhi(g0l, g0h, c0, c1)
    v = _mulhi(g1l, g1h, c0, c1)
    v += z >> _U(63)
    z &= _U(2**63 - 1)
    z += _U(2**63 - 1)
    z >>= _U(63)
    v |= z
    vb, vbl, vbr = v
    # an even c keeps the ends of its interval
    vbl += c & _U(1)
    vbr -= c & _U(1)
    s = vb >> _U(2)
    # one digit fewer: u' and w' = u' + 10, the multiples of 10^(k+1) around
    sp = s // _U(10) * _U(10)
    upin = vbl <= sp << _U(2)
    wpin = (sp << _U(2)) + _U(40) <= vbr
    shorter = (upin != wpin) & (s >= _U(10))
    # else s or s + 1: the one in the interval, or the closer, ties to even
    uin = vbl <= s << _U(2)
    win = (s << _U(2)) + _U(4) <= vbr
    above_half = (vb & _U(3)) + (s & _U(1)) > _U(2)
    f = s + (win & (~uin | above_half))
    sp += _U(10) * wpin  # the one of u', w' in the interval
    sp -= f
    f += sp * shorter
    f *= c != 0
    return f, k


def _csv_chunk(x, cols, start):
    """The CSV text of float64 entries x, entries start, start + 1, ... of
    rows of cols entries, as a uint8 array: each entry as repr writes it,
    then "\\n" after the last entry of a row and "," after the others."""
    m = x.size
    f, k = _decimal(x)
    size = np.searchsorted(_POW10, f, side="right")  # digits of f
    f *= _POW10[17 - size]
    p = (size + k).astype(np.int16)  # |x| = 0.d1d2...d17 10^p
    # the 17 digits, in rows 1-17 of 19: rows 0 and 18 are "0"s
    digits = np.empty((19, m), np.uint8)
    digits[[0, 18]] = ord("0")
    lead = f // _U(10**16)
    digits[1] = lead + _U(ord("0"))
    quads = np.empty((4, m), _U)  # the other 16 digits, four at a time
    np.floor_divide(f, _U(10**12), out=quads[0])
    np.floor_divide(f, _U(10**4), out=quads[2])
    quads[1] = quads[2] // _U(10**4)
    quads[3] = f - quads[2] * _U(10**4)
    quads[2] -= quads[1] * _U(10**4)
    quads[1] -= quads[0] * _U(10**4)
    quads[0] -= lead * _U(10**4)
    packed = _QUADS.take(quads, mode="clip").view(np.uint8)
    digits[2:18].reshape(4, 4, m)[:] = packed.reshape(4, m, 4).transpose(0, 2, 1)
    n = ((digits[1:18] != ord("0")) * _PLACE).max(axis=0).astype(np.int16)
    zero = f == 0
    n[zero] = 1
    p[zero] = 1
    positional = (p + 3).view(np.uint16) <= 19  # -4 < p <= 16
    has_dot = positional & (p >= 1) | ~positional & (n > 1)
    # the body position of the dot, beyond the body if there is none
    dot = (p - 1) * positional + 1
    dot += ~has_dot * np.int16(99)
    length = n + has_dot * (np.maximum(n, dot + 1) + 1 - n)

    chars = np.empty((_TEMPLATE.size, m), np.uint8)
    chars[:] = _TEMPLATE[:, None]
    keep = np.empty(chars.shape, bool)
    np.signbit(x, out=keep[0])
    np.greater_equal(np.where(positional, -p, -1), _PREFIX, out=keep[1:6])
    # the body: the digits, each after the dot one place right, and the dot,
    # blended in uint8 arithmetic (np.where on uint8 is far slower)
    body = chars[6:24]
    shift = np.subtract(digits[0:18], digits[1:19])
    shift *= _SLOT > dot
    np.add(digits[1:19], shift, out=body)
    shift = np.subtract(ord("."), body, dtype=np.uint8)
    shift *= _SLOT == dot
    body += shift
    np.less(_SLOT, length, out=keep[6:24])
    e = p - 1
    ae = np.abs(e)
    np.add((e < 0) * np.uint8(2), ord("+"), out=chars[25])
    chars[26:29] = _QUADS.take(ae).view(np.uint8).reshape(m, 4)[:, 1:].T
    keep[24:29] = ~positional
    keep[26] &= ae >= 100
    chars[29, (cols - 1 - start) % cols::cols] = ord("\n")
    keep[29] = True
    return chars.T[keep.T]


def _cores():
    """The number of cores this process may run on, or 1 where
    os.sched_getaffinity is missing (macOS, Windows)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _block_count(data):
    """One block per available core, each of at least _BLOCK_ENTRIES
    entries and one row."""
    return max(1, min(_cores(), len(data), data.size // _BLOCK_ENTRIES))


@contextmanager
def _forked(jobs, what):
    """Fork one worker per job and yield the read ends of their pipes, in
    job order.  A worker calls its job, writes the bytes it returns into its
    pipe and exits 0; a job that raises exits 1.  An empty ``jobs`` forks
    nothing.

    A BaseException in the body kills the workers at once, so a failed
    caller waits for none of them.  On the way out the pipes are closed and
    every worker is reaped, so none outlives the block; then a worker that
    exited nonzero or was killed raises RuntimeError, naming ``what``.

    The fork copies no thread but this one.  A job may still call
    BLAS/LAPACK: numpy's OpenBLAS (verified with 0.3.31) shuts its thread
    pool down across fork through pthread_atfork, and each side starts it
    again on first use.
    """
    workers = []  # (pid, read end of its pipe)
    try:
        for job in jobs:
            workers.append(_fork(job, [fd for _, fd in workers]))
        yield [fd for _, fd in workers]
    except BaseException:
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
        raise RuntimeError(f"a worker {what} failed: exit codes {codes}")


def _fork(job, inherited):
    """Fork a worker that writes what ``job()`` returns into a pipe and
    exits, and return (pid, read end).  ``inherited`` are the read ends of
    the earlier workers, which the new one closes."""
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
            out = memoryview(job())
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
