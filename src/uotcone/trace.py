"""Time-series container, time grid and RK4 driver shared by all integrators,
plus trace diagnostics.

Column order is fixed: ``t, m, xi, H`` followed by the flattened state of the
particular model.  CSV output writes each entry as ``repr`` does, the
shortest round-trip decimal, so identical runs produce byte-identical files;
numpy makes those bytes for thousands of entries at a time (``_csv_chunk``).
"""

from __future__ import annotations

import os
import re
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import MAX_TRACE_ENTRIES
from .errors import NonFiniteError, NumericsError, SingularSystemError


@dataclass(frozen=True)
class GeodesicTrace:
    columns: tuple
    data: np.ndarray  # float64, shape (rows, len(columns)), strictly increasing t
    mass_law: float | None = None  # m'' = 2 mass_law H, set where H is computed

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=np.float64))
        if self.data.ndim != 2 or self.data.shape[1] != len(self.columns):
            raise ValueError("trace data shape does not match columns")
        bad = ~np.isfinite(self.data).all(axis=1)
        if bad.any():
            raise NonFiniteError("trace entries must be finite", step=int(np.argmax(bad)))
        if self.data.shape[0] > 1 and np.any(np.diff(self.data[:, 0]) <= 0.0):
            raise ValueError("trace times must be strictly increasing")

    @property
    def t(self):
        return self.data[:, 0]

    def column(self, name):
        return self.data[:, self.columns.index(name)]

    def block(self, prefix):
        """The columns named prefix followed by an index, digits or digits
        joined by "_" (q0, V_0_1), as a (rows, k) array: the q block of a
        cone trace holds no qdot column.  The array is read-only: a view of
        the trace where the columns are adjacent, as every model writes its
        blocks, else a copy."""
        name = re.compile(re.escape(prefix) + r"\d+(_\d+)*")
        idx = [i for i, c in enumerate(self.columns) if name.fullmatch(c)]
        if idx and idx[-1] - idx[0] == len(idx) - 1:
            block = self.data[:, idx[0]:idx[-1] + 1]
        else:
            block = self.data[:, idx]
        block.flags.writeable = False
        return block

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


# Writing one entry takes 0.26-0.35 us on one block, and a worker costs
# its fork, its copy-on-write faults, the copy through its pipe and its
# reaping.  Timed in one process at 80 MB RSS (2-core Xeon, CPython 3.11.7,
# numpy 2.4.6) on gauss-geodesic n = 4 traces, in two runs of 40
# interleaved pairs, a trace split into two blocks was faster than one
# block in 0-1 pairs at 18k entries, 12-21 at 36k, 31-32 at 41k (-5 to
# -8%), 31-33 at 49k (-13%) and 32-34 at 82k (-16 to -21%): the break-even
# of write_csv alone lies near 38k entries.  Whole rounds of the benchmark,
# run in one process with this constant switched round by round (seed 7),
# see what a fork costs this process afterwards too: its pages, the
# formatting workspace's 104 among them, are shared copy-on-write while
# the worker lives, and its later writes fault them back in (a forked
# 1001 x 516 write took 767 minor faults, 715 before the workspace).  In
# 30 gauss-cone rounds, 2**14 cuts the 36k-entry trace in two and read
# +6.1% against 2**15 (7 rounds below it); 2**16 changes no gauss-cone
# trace, and its +3.2% (11 below) is the spread of such rounds.  Every
# density trace (180k-517k entries) is two blocks at all three values; in
# 14 density rounds one block read +9.2% (5 below) with 540 minor faults a
# round against 20k, so the forks pay for their faults.  No benchmark
# trace has 38k-65k entries, so 2**15 stays.
_BLOCK_ENTRIES = 2**15

# A chunk of this many entries, rows or parts of rows, is formatted at a
# time, in the workspace that each thread keeps (_workspace): 13 uint64 an
# entry, 426 kB, where the chunk's temporaries took 1.0 MB and a 36k-entry
# trace at once would take 9 MB.  Against 4096, in gauss-cone rounds
# alternated in one process, chunks of 2048 read +14.4% (1 of 30 rounds
# below) and chunks of 8192 -2.6% and +0.8% in two sets (19 and 15 of 30
# below), and -0.2% in density rounds (8 of 14); their texts of 160-240
# kB, above malloc's mmap threshold, took 479 minor faults a gauss-cone
# round against 148, and their workspace would take 852 kB.
_CHUNK_ENTRIES = 4096


def _csv_block(rows):
    """The CSV lines of ``rows``, as one bytearray."""
    # A worker holds its whole block: a pipe holds 64 KiB and the parent
    # reads the pipes only after formatting block 0, so a worker writing each
    # chunk as made would stall and the blocks be formatted one after another
    # (2 cores, a 1001 x 516 trace: 75.6 ms as written, 133.6 ms with
    # streaming workers, which were slower in 24 of 24 interleaved pairs).
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
# 4.9E-324 and 7.9E-323 where repr prints 5e-324 and 8e-323).  A third
# makes it cheaper: Schubfach multiplies g by the centre 4c 2^h of the
# rounding interval and by both of its ends, three 64 x 126-bit products;
# here the centre's product is formed exactly, and the ends are it plus and
# minus g 2^(h+1), a table entry, in limb additions (after Dragonbox:
# J. Jeon, "Dragonbox: A New Floating-Point Binary-to-Decimal Conversion
# Algorithm", 2020, which needs one product as well).  Rounding each of the
# three exact 190-bit sums down to a multiple of 2^64 leaves the value that
# rop rounds to odd within Schubfach's bounds, so the digits do not change.

_U = np.uint64
_M32 = _U(2**32 - 1)
_M63 = _U(2**63 - 1)
_K_MIN = -324  # the decimal exponents k of the powers of ten, K_MIN .. 292


def _flog2pow10(e):
    """floor(log2(10^e)), exact for the exponents of the table."""
    return (e * 913_124_641_741) >> 38


def _pow10_table():
    """g = floor(10^-k / 2^r) + 1 for k = _K_MIN .. 292, the 126-bit
    overestimate of 10^-k (r = floor(log2(10^-k)) - 125), built exactly
    from Python ints, as the uint64 rows g >> 63 and g mod 2^63."""
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
    return np.array([[v >> 63 for v in g], [v & (2**63 - 1) for v in g]], dtype=_U)


def _limbs(g1, g0, e):
    """g 2^e for g = g1 2^63 + g0 and 1 <= e <= 6, as the rows of its parts
    above 2^127, from 2^64 to 2^127 (63 bits) and below 2^64."""
    e = e.astype(_U)
    return np.stack([g1 >> (_U(64) - e), (g1 << (e - _U(1))) & _M63 | g0 >> (_U(64) - e),
                     g0 << e])


def _exponent_tables():
    """What _decimal reads for an entry with biased exponent bq, in column
    j = bq, or j = 4095 - bq where the significand bits t are 0: a power of
    two has a closer lower neighbour (an irregular interval), except at
    bq <= 1.  Arrays of at most two rows, so that no gather of 4096
    entries outgrows malloc's mmap threshold:
    - k, with |x| = c 2^q, k = floor(log10(2^q)) (of 3/4 2^q if irregular);
    - h + 2 and the implicit bit 2^(52 + h + 2) (0 for subnormals), with
      h = q + floor(log2(10^-k)) + 2;
    - the limbs g >> 63 and g mod 2^63 of the power of ten of k;
    - the limbs of the distances g 2^(h+1) from the centre of the rounding
      interval to its upper end and, negated modulo 2^191, g 2^(h+1) or,
      if irregular, g 2^h to its lower end: the parts above 2^127, then
      from 2^64 to 2^127, then below 2^64, complemented; both are 0 in
      column 4095, where t = bq = 0, so zeros come out as f = 0."""
    j = np.arange(4096)
    bq = np.where(j < 2048, j, 4095 - j)
    irregular = (j >= 2048) & (bq > 1)
    q = np.maximum(bq, 1) - 1075
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = q + _flog2pow10(-k) + 2
    g1, g0 = _pow10_table()[:, k - _K_MIN]
    sh = h.astype(_U) + _U(2)
    up = _limbs(g1, g0, h + 1)
    down = _limbs(g1, g0, h + 1 - irregular)
    # -down = ~down + 1, the 1 carried up while the lower limbs are 0
    down = ~down
    down[1] &= _M63
    down[2] += _U(1)
    down[1] += down[2] == 0
    down[0] += down[1] >> _U(63)
    down[1] &= _M63
    ends = np.stack([up, down], axis=1)
    ends[:, :, 4095] = 0  # x = 0: P = 0 and vb = vbl = vbr = 0
    ends[2] = ~ends[2]
    return (k, np.stack([sh, (bq >= 1).astype(_U) << (_U(52) + sh)]), np.stack([g1, g0]),
            *ends)


def _quads():
    """The four ASCII digits of each of 0000 .. 9999, as one uint32."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.empty((10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        quads[..., place] = digit.reshape((10,) + (1,) * (3 - place))
    return quads.view(np.uint32).ravel()


_EXP_K, _EXP_SHIFT, _EXP_G, _EXP_TOP, _EXP_MID, _EXP_LOW = _exponent_tables()
_POW10 = 10 ** np.arange(18, dtype=_U)
_POW10_COL = _POW10[:, None]
_QUADS = _quads()
# Each entry is one column of these characters, of which a mask keeps those
# that repr writes: sign, "0.000" before small numbers, 17 digits with a
# "." among them (the body), "e+000" and the separator.
_TEMPLATE = np.frombuffer(b"-0.000" + b"0" * 18 + b"e+000,", np.uint8)
_SLOT = np.arange(18, dtype=np.int16)[:, None]  # body position
_PLACE = np.arange(1, 18, dtype=np.uint8)[:, None]  # digit number
_TEMPLATE_COL = _TEMPLATE[:, None]
_PREFIX = np.array([0, 0, 1, 2, 3], dtype=np.int16)[:, None]


# The temporaries of _decimal and _csv_chunk: name -> (byte offset per
# entry, dtype, rows or None for one row), in a buffer of _WORDS uint64 an
# entry.  An array of a chunk of m entries starts at its offset times m, so
# the chunk uses the first _WORDS * m words and every array is contiguous.
# Arrays share bytes only where the kernel never needs both at once; as
# numpy copies an operand that overlaps the output in part, no operation
# reads an array that shares bytes with its output unless it is that array.
_LAYOUT = {
    # _decimal; it leaves f at 96 and k at 24
    "t": (0, _U, None), "j": (8, _U, None), "shcb": (16, _U, 2), "G": (32, _U, 2),
    "H": (48, _U, 2), "c1": (64, _U, None), "a0": (72, _U, None), "a1": (80, _U, None),
    "mtmp": (88, _U, None), "lo": (24, _U, None), "ends": (64, _U, 2), "mid": (80, _U, 2),
    "low": (32, _U, 2), "carry": (16, bool, 2), "s": (16, _U, None), "f": (96, _U, None),
    "tens": (56, _U, None), "shorter": (32, bool, 2), "k": (24, np.int64, None),
    # _csv_chunk: the digit count and the decimal exponent p ...
    "below": (64, bool, 18), "count": (82, np.uint8, None), "size": (0, np.intp, None),
    "idx": (8, np.intp, None), "scale": (16, _U, None), "pk": (8, np.int64, None),
    "p": (84, np.int16, None),
    # ... the digit rows, filled four digits at a time ...
    "digits": (64, np.uint8, 19), "quads": (0, _U, 4), "lead": (32, _U, None),
    "qtmp": (40, _U, None), "packed": (48, np.uint32, 4),
    # ... the layout of each entry ...
    "nz": (0, bool, 17), "nmax": (17, np.uint8, None), "zero": (62, bool, None),
    "n": (86, np.int16, None), "t16": (88, np.int16, None), "t16b": (90, np.int16, None),
    "dot": (92, np.int16, None), "length": (94, np.int16, None),
    "positional": (96, bool, None), "notpos": (97, bool, None), "has_dot": (98, bool, None),
    "b1": (99, bool, None),
    # ... and its characters
    "chars": (0, np.uint8, _TEMPLATE.size), "keep": (32, bool, _TEMPLATE.size),
    "ae": (64, np.intp, None), "q32": (72, np.uint32, None), "e": (76, np.int16, None),
}
_WORDS = 13


class _Workspace:
    """The arrays of _LAYOUT for a chunk of m entries, and the views of them
    that the kernel reads, carved from ``words``."""

    def __init__(self, words, m):
        self.words = words
        for name, (offset, dtype, rows) in _LAYOUT.items():
            setattr(self, name, np.ndarray((rows, m) if rows else (m,), dtype, words, offset * m))
        self.nz8 = self.nz.view(np.uint8)
        self.groups = self.digits[2:18].reshape(4, 4, m)
        self.packed_groups = self.packed.view(np.uint8).reshape(4, m, 4).transpose(0, 2, 1)
        self.body = self.chars[6:24]
        self.mask = self.keep[6:24]  # free until the body is made
        self.mask8 = self.mask.view(np.uint8)
        self.exp_digits = self.q32.view(np.uint8).reshape(m, 4)[:, 1:].T
        self.charsT, self.keepT = self.chars.T, self.keep.T


_local = threading.local()


def _workspace(m):
    """This thread's workspace for a chunk of m <= _CHUNK_ENTRIES entries.

    Its buffer is allocated on the thread's first chunk and kept for the
    life of the thread, so a later chunk allocates no array but its text:
    glibc trims the heap between writes, and a buffer allocated per write
    would be faulted in again by every write.  It carries nothing from one
    chunk to the next, as the kernel writes each array before reading it.
    A forked worker formats with its own copy-on-write copy of the buffer
    of the thread that forked it."""
    full = getattr(_local, "workspace", None)
    if full is None:
        full = _local.workspace = _Workspace(np.empty(_WORDS * _CHUNK_ENTRIES, _U),
                                             _CHUNK_ENTRIES)
    return full if m == _CHUNK_ENTRIES else _Workspace(full.words, m)


def _mulhi(a, b0, b1, out, w):
    """High 64 bits of a (b1 2^32 + b0), for a < 2^63, 32-bit b0 and
    b1 < 2^28, elementwise, into out."""
    a0 = np.bitwise_and(a, _M32, w.a0)
    a1 = np.right_shift(a, _U(32), w.a1)
    np.multiply(a0, b0, out)
    out >>= _U(32)
    tmp = np.multiply(a1, b0, w.mtmp)
    out += tmp
    np.multiply(a0, b1, tmp)
    out += tmp
    out >>= _U(32)
    np.multiply(a1, b1, tmp)
    out += tmp
    return out


# Every operation below writes into the workspace.  numpy allocates a
# buffer for three kinds of operation, so there are none: a ufunc that
# casts an operand (here a copyto of its own, or bools seen as uint8), a
# take into out= in the default mode 'raise' (here 'clip', the indices
# being in range), and a ufunc that broadcasts a row over the rows of a
# (2, m) array (here one call per row, which is also faster).  numpy still
# buffers the operations with a column (_POW10_COL, _PLACE, _PREFIX,
# _SLOT) in a chunk of fewer than about 2700 entries, up to 130 kB each,
# and the uint8 product with _PLACE in any chunk, 8 kB.

def _decimal(x, w):
    """The significands f (uint64, 0 for zeros) and exponents k of the
    shortest closest decimals |x| = f 10^k of finite float64 entries x,
    into w.f and w.k."""
    bits = x.view(_U)
    t = np.bitwise_and(bits, _U(2**52 - 1), w.t)
    j = np.right_shift(bits, _U(52), w.j)
    j &= _U(0x7FF)
    sh, cb = w.shcb
    j ^= np.right_shift(np.subtract(t, _U(1), sh), _U(52), sh)  # 4095 - bq where t = 0
    j = j.view(np.intp)
    _EXP_SHIFT.take(j, 1, w.shcb, "clip")
    # the centre 4c 2^h of the rounding interval, and its product with g,
    # P = H1 2^127 + L1 2^63 + H0 2^64 + L0
    cb |= np.left_shift(t, sh, w.c1)
    c0 = np.bitwise_and(cb, _M32, sh)
    c1 = np.right_shift(cb, _U(32), w.c1)
    G = _EXP_G.take(j, 1, w.G, "clip")
    H1, H0 = (_mulhi(g, c0, c1, h, w) for g, h in zip(G, w.H))
    L1, L0 = (np.multiply(g, cb, g) for g in G)
    # P = (A 2^63 + fh) 2^64 + lo, with 63-bit fh
    L1_63 = np.left_shift(L1, _U(63), c0)
    lo = np.add(L0, L1_63, w.lo)
    L0 &= L1_63
    L0 >>= _U(63)  # the carry out of lo
    L1 >>= _U(1)
    L1 += H0
    L1 += L0
    A = np.right_shift(L1, _U(63), H0)
    A += H1
    fh = np.bitwise_and(L1, _M63, L1)
    # vb and (vbr, vbl): rop of the centre P and of its ends P + D (D
    # negative for the lower end), each first rounded down to a multiple of
    # 2^64: the bits above 2^127, and 1 where any of the 63 below is set
    vb = np.minimum(fh, _U(1), out=H1)
    vb |= A
    ends = _EXP_TOP.take(j, 1, w.ends, "clip")
    for end in ends:
        end += A
    mid = _EXP_MID.take(j, 1, w.mid, "clip")
    for part in mid:
        part += fh
    low = _EXP_LOW.take(j, 1, w.low, "clip")
    for limb, carry in zip(low, w.carry):
        np.greater(lo, limb, carry)  # the carry out of the lowest limbs
    np.copyto(low, w.carry)
    mid += low
    ends += np.right_shift(mid, _U(63), low)
    mid <<= _U(1)
    ends |= np.minimum(mid, _U(1), out=mid)
    # the digits d with 4d in the interval, a .. b, where an even c keeps
    # its ends
    b, a = ends
    c = np.bitwise_and(t, _U(1), t)
    b -= c
    a += c
    a += _U(3)
    ends >>= _U(2)
    # s or s + 1: the closer of the two in a .. b, ties to even
    s = np.right_shift(vb, _U(2), w.s)
    f = np.bitwise_and(s, _U(1), w.f)
    f += vb
    f += _U(1)
    f >>= _U(2)
    np.maximum(f, a, out=f)
    np.minimum(f, b, out=f)
    # one digit fewer: the multiple of 10 in a .. b (fewer than 10 wide, so
    # it holds at most one), if there is one and s has two digits
    tens = np.floor_divide(b, _U(10), w.tens)
    tens *= _U(10)
    shorter, two_digits = w.shorter
    np.greater_equal(tens, a, shorter)
    shorter &= np.greater_equal(s, _U(10), two_digits)
    np.copyto(f, tens, where=shorter)
    _EXP_K.take(j, 0, w.k, "clip")


def _csv_chunk(x, cols, start):
    """The CSV text of float64 entries x, entries start, start + 1, ... of
    rows of cols entries, as a uint8 array: each entry as repr writes it,
    then "\\n" after the last entry of a row and "," after the others.
    x holds at most _CHUNK_ENTRIES entries, and the text is the one array
    this allocates."""
    w = _workspace(x.size)
    _decimal(x, w)
    f, p = w.f, w.p
    # the digits of f: the powers of ten up to f, counted
    np.greater_equal(f, _POW10_COL, w.below)
    np.add.reduce(w.below.view(np.uint8), 0, None, w.count)
    size = w.size
    np.copyto(size, w.count)
    f *= _POW10.take(np.subtract(17, size, w.idx), 0, w.scale, "clip")
    np.copyto(p, np.add(size, w.k, w.pk), casting="unsafe")  # |x| = 0.d1d2...d17 10^p
    # the 17 digits, in rows 1-17 of 19: rows 0 and 18 are "0"s
    digits = w.digits
    digits[0] = ord("0")
    digits[18] = ord("0")
    lead = np.floor_divide(f, _U(10**16), w.lead)
    np.copyto(digits[1], lead, casting="unsafe")
    digits[1] += ord("0")
    quads = w.quads  # the other 16 digits, four at a time
    np.floor_divide(f, _U(10**12), quads[0])
    np.floor_divide(f, _U(10**4), quads[2])
    np.floor_divide(quads[2], _U(10**4), quads[1])
    np.subtract(f, np.multiply(quads[2], _U(10**4), quads[3]), quads[3])
    quads[2] -= np.multiply(quads[1], _U(10**4), w.qtmp)
    quads[1] -= np.multiply(quads[0], _U(10**4), w.qtmp)
    quads[0] -= np.multiply(lead, _U(10**4), w.qtmp)
    _QUADS.take(quads.view(np.intp), None, w.packed, "clip")
    np.copyto(w.groups, w.packed_groups)
    np.not_equal(digits[1:18], ord("0"), w.nz)
    np.multiply(w.nz8, _PLACE, w.nz8)
    n = w.n
    np.copyto(n, np.maximum.reduce(w.nz8, 0, None, w.nmax))
    zero = np.equal(f, 0, w.zero)
    n[zero] = 1
    p[zero] = 1
    t16, b1 = w.t16, w.b1
    positional = np.less_equal(np.add(p, 3, t16).view(np.uint16), 19, w.positional)  # -4 < p <= 16
    has_dot = np.bitwise_and(positional, np.greater_equal(p, 1, b1), w.has_dot)
    notpos = np.invert(positional, w.notpos)
    has_dot |= np.bitwise_and(notpos, np.greater(n, 1, b1), b1)
    # the body position of the dot, beyond the body if there is none
    dot = np.subtract(p, 1, w.dot)
    np.copyto(t16, positional)
    dot *= t16
    dot += 1
    np.copyto(t16, np.invert(has_dot, b1))
    dot += np.multiply(t16, 99, t16)
    np.subtract(np.add(np.maximum(n, np.add(dot, 1, t16), out=t16), 1, t16), n, t16)
    np.copyto(w.t16b, has_dot)
    length = np.add(n, np.multiply(w.t16b, t16, t16), w.length)

    chars, keep = w.chars, w.keep
    np.copyto(chars, _TEMPLATE_COL)
    # one contiguous row of keep per character: numpy 2.4.6 fills a strided bool out= wrongly
    np.signbit(x, keep[0])
    np.negative(p, t16)
    np.copyto(t16, -1, where=notpos)
    np.greater_equal(t16, _PREFIX, keep[1:6])
    # the body: the digits, each after the dot one place right, and the dot,
    # blended in uint8 arithmetic (np.where on uint8 is far slower); the
    # digits of rows 0-17 are free for the dot's shift once the body holds
    # the shifted digits
    body, mask, shift = w.body, w.mask, digits[0:18]
    np.subtract(shift, digits[1:19], body)
    np.greater(_SLOT, dot, mask)
    body *= w.mask8
    body += digits[1:19]
    np.subtract(ord("."), body, shift)
    np.equal(_SLOT, dot, mask)
    shift *= w.mask8
    body += shift
    np.less(_SLOT, length, keep[6:24])
    e = np.subtract(p, 1, w.e)
    ae = w.ae
    np.copyto(ae, e)
    np.abs(ae, ae)
    np.multiply(np.less(e, 0, b1).view(np.uint8), 2, chars[25])
    chars[25] += ord("+")
    _QUADS.take(ae, 0, w.q32, "clip")
    np.copyto(chars[26:29], w.exp_digits)
    keep[24:29] = notpos
    keep[26] &= np.greater_equal(ae, 100, b1)
    chars[29, (cols - 1 - start) % cols::cols] = ord("\n")
    keep[29] = True
    return w.charsT[w.keepT]


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


def _time_grid(dt, steps):
    """The sample times 0, dt, ..., steps dt of every fixed-step trace, as
    np.arange(steps + 1) * dt.  ValueError, before anything is allocated,
    unless dt is a positive, finite step and steps an integer >= 1 whose
    steps + 1 rows stay within MAX_TRACE_ENTRIES."""
    if not 0.0 < dt < np.inf:
        raise ValueError("dt must be a positive, finite step")
    if not isinstance(steps, (int, np.integer)) or not 1 <= steps < MAX_TRACE_ENTRIES:
        raise ValueError(f"steps must be a positive integer below {MAX_TRACE_ENTRIES}")
    return np.arange(steps + 1) * dt


def _rk4(rhs, post, states, dt):
    """Classical fixed-step RK4 from ``states[0]``; row k receives the state
    after step k, and the last state is returned.

    ``rhs(y, out)`` writes the derivative at y into ``out``, an array of y's
    shape that is not y.  The steps run on contiguous buffers that this call
    allocates and keeps to itself: the current state, the stage input, two
    derivatives and the accumulator, which becomes the next state.  Each
    finished state is copied into its row, so a stacked row, a strided view
    of a trace, is never stepped on.  The stages are y + (0.5 dt) k and
    y + dt k, the new state y + (dt / 6) (((k1 + 2 k2) + 2 k3) + k4), each
    operation rounded as the textbook formula rounds it.

    A new state with a non-finite entry raises NonFiniteError, naming the
    first such member of a stack; then ``post(y)`` projects the new state in
    place and checks it.  A NumericsError raised by a stage, by that check or
    by ``post`` during the step from k to k + 1 is stamped ``step = k + 1``.
    """
    y = states[0].copy()
    stage, acc, ka, kb = (np.empty_like(y) for _ in range(4))
    # 0-d operands are cheaper than Python floats
    half, step, sixth, two = map(np.asarray, (0.5 * dt, dt, dt / 6.0, 2.0))
    for k in range(1, len(states)):
        try:
            rhs(y, ka)                                              # k1
            np.add(y, np.multiply(ka, half, stage), stage)
            rhs(stage, kb)                                          # k2
            np.add(ka, np.multiply(kb, two, acc), acc)
            np.add(y, np.multiply(kb, half, stage), stage)
            rhs(stage, ka)                                          # k3
            np.add(y, np.multiply(ka, step, stage), stage)
            np.add(acc, np.multiply(ka, two, ka), acc)
            rhs(stage, ka)                                          # k4
            np.add(acc, ka, acc)
            np.add(y, np.multiply(acc, sixth, acc), acc)
            if not np.isfinite(acc).all():
                raise NonFiniteError("non-finite state during integration",
                                     **_first_member(~np.isfinite(acc).all(-1)))
            post(acc)
        except NumericsError as exc:
            exc.details["step"] = k
            raise
        states[k] = acc
        y, acc = acc, y
    return y


def _first_member(bad):
    """Failure details naming the first failing member of a stack of states:
    ``bad`` holds one flag per member.  A single state (a 0-d flag, or a
    stack of one) names none."""
    return {"member": int(np.flatnonzero(bad)[0])} if np.size(bad) > 1 else {}


def _finite(value):
    """A metric value as a float, or NonFiniteError: numpy scalar squares
    overflow to inf instead of raising OverflowError."""
    if not np.isfinite(value):
        raise NonFiniteError("the metric value overflows", value=str(value))
    return float(value)


def _norm(x):
    """np.linalg.norm(x) without under- or overflow, through the exact
    scaling of x by 2^-e, e the exponent of max|x|."""
    e = np.frexp(np.max(np.abs(x), initial=0.0))[1]
    return np.ldexp(np.linalg.norm(np.ldexp(x, -e)), e)


def relative_energy_drift(trace):
    """max |H(t) - H(0)| / max(|H(0)|, np.finfo(float).tiny) over the trace."""
    e = trace.column("H")
    scale = max(abs(e[0]), np.finfo(float).tiny)
    return float(np.max(np.abs(e - e[0])) / scale)


def mass_quadratic_fit(trace):
    """Least-squares quadratic fit of m(t).

    Returns a dict with the fitted coefficients (highest power first) and the
    rms residual.  Along geodesics of the conical metrics m(t) is a parabola
    whose leading coefficient the model's H convention fixes: a trace with a
    ``mass_law`` f also gets expected_leading = f H(0).  Fewer than 3 samples
    do not determine a parabola: SingularSystemError, as for a fit that fails.
    """
    t = trace.t
    m = trace.column("m")
    if t.size < 3:
        raise SingularSystemError("a quadratic fit of m(t) needs 3 samples", samples=t.size)
    # the fit is linear in m, so it runs in units of the power of two of
    # max |m|, exactly: no residual over- or underflows when squared, and
    # LAPACK rescales no mass beyond 1e+-292 by a factor that is not a power
    # of two; in between, every value has the bits of the fit in plain units
    e = np.frexp(np.max(np.abs(m)))[1]
    m = np.ldexp(m, -e)
    # polyfit divides the t^2 column by its norm sqrt(sum t^4), which under-
    # or overflows on the tiniest or largest times: LAPACK would get NaN
    with np.errstate(over="ignore"):
        t4 = np.sum((t * t) ** 2)
    if not 0.0 < t4 < np.inf:
        raise SingularSystemError("least-squares fit of m(t) failed", t_end=float(t[-1]))
    coeffs = np.polyfit(t, m, 2)
    resid = m - np.polyval(coeffs, t)
    leading, linear, constant = np.ldexp(coeffs, e)
    fit = {
        "leading": float(leading),
        "linear": float(linear),
        "constant": float(constant),
        "rms_residual": float(np.ldexp(np.sqrt(np.mean(resid**2)), e)),
    }
    if trace.mass_law is not None:
        fit["expected_leading"] = trace.mass_law * float(trace.column("H")[0])
    return fit
