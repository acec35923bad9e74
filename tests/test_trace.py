import errno
import json
import os
import signal
import sys
import tempfile
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from uotcone import cone, gaussian, pde
from uotcone import trace as trace_module
from uotcone.bb import bb_action, from_small_trace
from uotcone.cli import main
from uotcone.cone import ConeProblem, ConeState, circle_base, cone_geodesic_ray, integrate_cone
from uotcone.errors import NonFiniteError
from uotcone.gaussian import (GaussianCotangentState, geodesic_ray, integrate_geodesics,
                              shoot_bvp, spd_base)
from uotcone.pde import Grid1D, PdeState, integrate_pde, integrate_pdes
from uotcone.trace import GeodesicTrace, _rk4, _time_grid, mass_quadratic_fit


def test_rk4_linear_flow_is_the_degree_four_taylor_factor():
    # y' = -y: every step multiplies by 1 - z + z^2/2 - z^3/6 + z^4/24, z = dt
    dt, steps = 0.1, 20
    states = np.empty((steps + 1, 2))
    states[0] = [1.0, 2.0]
    last = _rk4(lambda y, out: np.negative(y, out), lambda y: None, states, dt)
    factor = 1.0 - dt + dt**2 / 2.0 - dt**3 / 6.0 + dt**4 / 24.0
    expected = np.outer(factor ** np.arange(steps + 1), [1.0, 2.0])
    np.testing.assert_allclose(states, expected, rtol=1e-13)
    np.testing.assert_array_equal(last, states[-1])


def test_rk4_steps_a_stack_of_states_as_its_members():
    # states of shape (steps + 1, members, d): row k holds every member after
    # step k, each exactly as a run of its own would give it
    def oscillator(y, out):  # (x, v)' = (v, -x - 0.3 v) on the last axis
        out[...] = y[..., ::-1] * [1.0, -1.0] - [0.0, 0.3] * y

    dt, steps = 0.1, 20
    y0 = np.array([[1.0, 0.0], [0.5, -2.0], [3.0, 1.0]])
    stack = np.empty((steps + 1, 3, 2))
    stack[0] = y0
    _rk4(oscillator, lambda y: None, stack, dt)
    for i in range(3):
        single = np.empty((steps + 1, 2))
        single[0] = y0[i]
        _rk4(oscillator, lambda y: None, single, dt)
        np.testing.assert_array_equal(stack[:, i], single)


def test_rk4_result_outlives_later_calls():
    # the returned state is the call's own: a later call, and one that
    # fails mid-run, leave it as it was
    def rhs(y, out):
        if y[0] > 3.5:
            raise NonFiniteError("stage failure")
        out.fill(1.0)

    states = np.zeros((4, 2))
    last = _rk4(rhs, lambda y: None, states, 1.0)
    kept = last.copy()
    _rk4(rhs, lambda y: None, np.full((3, 2), -5.0), 1.0)
    with pytest.raises(NonFiniteError):
        _rk4(rhs, lambda y: None, np.zeros((11, 2)), 1.0)
    np.testing.assert_array_equal(last, kept)
    np.testing.assert_array_equal(last, [3.0, 3.0])


def test_rk4_post_hook_projects_each_state():
    states = np.empty((6, 2))
    states[0] = [1.0, 5.0]

    def clamp(y):
        y[1] = 0.0

    _rk4(lambda y, out: out.fill(1.0), clamp, states, 0.5)
    np.testing.assert_array_equal(states[1:, 1], 0.0)
    np.testing.assert_allclose(states[:, 0], 1.0 + 0.5 * np.arange(6))


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_rk4_stage_failure_is_stamped_with_the_step_it_belongs_to(stage):
    # rhs calls 4k + 1 ... 4k + 4 are the stages of the step from k to k + 1
    calls = []

    def rhs(y, out):
        calls.append(1)
        if len(calls) == 4 * 6 + stage:
            raise NonFiniteError("stage failure")
        np.negative(y, out)

    states = np.empty((11, 1))
    states[0] = 1.0
    with pytest.raises(NonFiniteError) as exc:
        _rk4(rhs, lambda y: None, states, 0.1)
    assert exc.value.details["step"] == 7


def test_rk4_post_failure_is_stamped_with_the_new_step():
    def post(y):
        if y[0] > 3.5:
            raise NonFiniteError("post failure", value=float(y[0]))

    states = np.empty((11, 1))
    states[0] = 0.0
    with pytest.raises(NonFiniteError) as exc:
        _rk4(lambda y, out: out.fill(1.0), post, states, 1.0)
    # y after the step from k to k + 1 is k + 1; 4 is the first above 3.5
    assert exc.value.details == {"value": 4.0, "step": 4}


def pde_state():
    grid = Grid1D(n=16)
    return PdeState(grid, 1.0 + 0.1 * np.cos(grid.x), 0.05 * np.sin(grid.x))


GAUSS_STATE = GaussianCotangentState(V=np.eye(2), m=1.0, P=0.1 * np.eye(2), xi=0.2)
CONE_STATE = ConeState(q=np.zeros(1), q_dot=np.ones(1), alpha=1.0, alpha_dot=0.0)

# every builder of a fixed-step trace, as a function of (dt, steps)
TRACE_BUILDERS = {
    "integrate_pdes": lambda dt, steps: integrate_pdes([pde_state()], "small", dt, steps),
    "integrate_geodesics": lambda dt, steps: integrate_geodesics([GAUSS_STATE], dt, steps),
    "geodesic_ray": lambda dt, steps: geodesic_ray(GAUSS_STATE, dt, steps),
    "integrate_cone": lambda dt, steps: integrate_cone(
        CONE_STATE, ConeProblem(p=1.0, dt=dt, steps=steps), circle_base()),
    "cone_geodesic_ray": lambda dt, steps: cone_geodesic_ray(
        CONE_STATE, ConeProblem(p=1.0, dt=dt, steps=steps), circle_base()),
}


@pytest.mark.parametrize("dt, steps", [(float("nan"), 3), (float("inf"), 3), (0.0, 3),
                                       (-1e-3, 3), (1e-3, 0), (1e-3, -2), (1e-3, 2.5)])
@pytest.mark.parametrize("builder", TRACE_BUILDERS)
def test_every_trace_builder_refuses_a_bad_step_before_stepping(monkeypatch, builder, dt,
                                                                 steps):
    def stepped(*args):
        raise AssertionError("a state was stepped")
    for module in (cone, gaussian, pde):
        monkeypatch.setattr(module, "_rk4", stepped)
    message = ("dt must be a positive, finite step" if steps == 3
               else "steps must be a positive integer")
    with pytest.raises(ValueError, match=message):
        TRACE_BUILDERS[builder](dt, steps)


def test_a_grid_beyond_the_trace_size_limit_is_refused_before_allocating(monkeypatch):
    # 10**13 rows of times, or of a unit-time shooting trace at dt = 1e-12,
    # would ask numpy for terabytes; at a limit of 11 rows, 10 steps fit
    one = np.eye(1)
    with pytest.raises(ValueError, match="integer below 33554432"):
        _time_grid(1e-3, 10**13)
    with pytest.raises(ValueError, match="at most 33554432 trace rows"):
        shoot_bvp(one, 1.0, one, 4.0, dt=1e-12)
    monkeypatch.setattr(trace_module, "MAX_TRACE_ENTRIES", 11)
    monkeypatch.setattr(gaussian, "MAX_TRACE_ENTRIES", 11)
    assert _time_grid(0.1, 10).size == 11
    assert shoot_bvp(one, 1.0, one, 4.0, dt=0.1)[2].t.size == 11
    with pytest.raises(ValueError, match="integer below 11"):
        _time_grid(0.1, 11)
    with pytest.raises(ValueError, match="at most 11 trace rows"):
        shoot_bvp(one, 1.0, one, 4.0, dt=1.0 / 11)


@pytest.mark.parametrize("stack", [lambda: integrate_pdes([], "small", 1e-3, 3),
                                   lambda: integrate_geodesics([], 1e-3, 3)],
                         ids=["integrate_pdes", "integrate_geodesics"])
def test_an_empty_stack_is_refused(stack):
    with pytest.raises(ValueError, match="a stack needs at least one state"):
        stack()


def pde_states():
    grid = Grid1D(n=16)
    return [pde_state(), PdeState(grid, 2.0 + 0.3 * np.sin(2.0 * grid.x),
                                  -0.4 + 0.08 * np.cos(grid.x))]


GAUSS_STATES = [GAUSS_STATE, GaussianCotangentState(V=np.array([[1.5]]), m=0.7,
                                                    P=np.array([[-0.1]]), xi=-0.3)]
SPD_CONE_STATE = ConeState(q=np.array([1.2, 0.3, 0.3, 0.8]),
                           q_dot=np.array([0.1, -0.05, -0.05, 0.2]), alpha=1.1, alpha_dot=0.2)

# (mass law, traces) of every library builder: m'' = 2 f H along each trace
# of mass law f, and None where m is no parabola of a fixed rate
MASS_LAW_CASES = {
    "geodesic_ray": (0.5, lambda: [geodesic_ray(GAUSS_STATE, 1e-3, 500)]),
    "integrate_geodesics": (0.5, lambda: integrate_geodesics(GAUSS_STATES, 1e-3, 500)),
    "shoot_bvp": (0.5, lambda: [shoot_bvp(np.eye(2), 1.0, np.diag([2.0, 0.5]), 1.5)[2]]),
    "integrate_pdes-small": (0.5, lambda: integrate_pdes(pde_states(), "small", 1e-3, 500)),
    "integrate_pdes-wfr": (0.5, lambda: integrate_pdes(pde_states(), "wfr", 1e-3, 500)),
    "cone_geodesic_ray": (1.0, lambda: [cone_geodesic_ray(
        SPD_CONE_STATE, ConeProblem(p=1.0, dt=1e-3, steps=1000), spd_base(2))]),
    "integrate_cone": (1.0, lambda: [integrate_cone(
        SPD_CONE_STATE, ConeProblem(p=1.0, dt=1e-3, steps=1000), spd_base(2))]),
    "integrate_cone-p0.5": (None, lambda: [integrate_cone(
        SPD_CONE_STATE, ConeProblem(p=0.5, dt=1e-3, steps=1000), spd_base(2))]),
    "hand-built": (None, lambda: [GeodesicTrace(
        columns=("t", "m", "xi", "H"),
        data=np.column_stack([np.arange(5.0), 1.0 + np.arange(5.0) ** 2, np.zeros(5),
                              np.full(5, 4.0)]))]),
}


@pytest.mark.parametrize("case", MASS_LAW_CASES)
def test_each_trace_builder_states_its_mass_law(case):
    # the factor is set where H is computed, and the fit reads it from there
    law, build = MASS_LAW_CASES[case]
    for trace in build():
        assert trace.mass_law == law
        fit = mass_quadratic_fit(trace)
        if law is None:
            assert "expected_leading" not in fit
            continue
        assert fit["expected_leading"] == law * trace.column("H")[0]
        assert fit["expected_leading"] > 1e-3
        assert fit["leading"] == pytest.approx(fit["expected_leading"], rel=1e-9)


def test_block_is_the_prefix_followed_by_an_index():
    columns = ("t", "m", "xi", "H", "rho0", "rho1", "theta0", "theta1", "V_0_0",
               "V_0_1", "q0", "qdot0", "q10", "alpha", "alphadot")
    trace = GeodesicTrace(columns=columns,
                          data=np.arange(2.0 * len(columns)).reshape(len(columns), 2).T)
    blocks = {prefix: [columns.index(c) for c in names] for prefix, names in [
        ("rho", ["rho0", "rho1"]), ("theta", ["theta0", "theta1"]),
        ("V_", ["V_0_0", "V_0_1"]), ("q", ["q0", "q10"]), ("qdot", ["qdot0"]),
        ("alpha", []), ("V", [])]}
    for prefix, idx in blocks.items():
        block = trace.block(prefix)
        np.testing.assert_array_equal(block, trace.data[:, idx])
        # read-only: a view where the columns are adjacent, else a copy
        assert not block.flags.writeable
        assert np.shares_memory(block, trace.data) == (prefix in ("rho", "theta", "V_", "qdot"))


def big_trace(rows, cols, seed=0):
    """A trace of rows x cols entries, t strictly increasing."""
    rng = np.random.default_rng(seed)
    shape = (rows, cols - 1)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    return GeodesicTrace(columns=tuple(f"c{i}" for i in range(cols)),
                         data=np.column_stack([np.arange(rows) * 0.1, values]))


@pytest.fixture
def cores(monkeypatch):
    """Pretend this process may run on k cores."""
    def pretend(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)),
                            raising=False)
    return pretend


def repr_csv(trace):
    """The CSV text of a trace by the formula the writer must match."""
    return ",".join(trace.columns) + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in trace.data)


def shortest_digit_cases():
    """Entries where shortest-digit algorithms are known to differ: the
    smallest subnormals, powers of two (an irregular rounding interval) and
    their lower neighbours, powers of ten and their neighbours where repr
    switches between positional and exponent form, integers around 2^53,
    short decimals and signed zeros."""
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in (-6, -5, -4, -3, 15, 16, 17, 18)])
    values = np.concatenate([
        [5e-324, 1e-323, 2.0**-1070, 0.0, -0.0, 1.0 / 3.0, 2.5e17, -7.0],
        powers, np.nextafter(powers, 0.0), -powers, -np.nextafter(powers, 0.0),
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        np.arange(2.0**53 - 8, 2.0**53 + 9), np.arange(2001) * 1e-3])
    return np.resize(values, (-(-values.size // 3), 3))  # 3 entries a row beside t


def test_write_csv_streams_shortest_round_trip_rows(tmp_path, cores, monkeypatch):
    # three blocks and more (2**15 entries each): written on the available cores,
    # on one (which forks nothing) and on three, the bytes are those of the
    # serial formula, also for the entries where shortest-digit algorithms
    # differ
    special = shortest_digit_cases()
    data = big_trace(3 * trace_module._BLOCK_ENTRIES // 4 + len(special), 4).data
    data[:len(special), 1:] = special
    trace = GeodesicTrace(columns=("t", "m", "xi", "H"), data=data)
    expected = repr_csv(trace)
    fork = os.fork
    for k in (None, 1, 3):
        if k is not None:
            cores(k)
        monkeypatch.setattr(os, "fork", fork if k != 1 else None)
        trace.write_csv(tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == expected.encode("utf-8")


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(values=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40),
                         elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_write_csv_bytes_are_repr(values):
    trace = GeodesicTrace(columns=tuple(f"c{i}" for i in range(values.shape[1] + 1)),
                          data=np.column_stack([np.arange(len(values)), values]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        trace.write_csv(path)
        with open(path, "rb") as f:
            assert f.read() == repr_csv(trace).encode("utf-8")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_trace_names_its_first_row(bad):
    data = np.column_stack([np.arange(5.0), np.ones(5)])
    data[[2, 4], 1] = bad
    with pytest.raises(NonFiniteError) as exc:
        GeodesicTrace(columns=("t", "m"), data=data)
    assert exc.value.details["step"] == 2


def test_trace_data_is_float64(tmp_path):
    trace = GeodesicTrace(("t", "m"), np.array([[0, 1], [1, 2]]))
    assert trace.data.dtype == np.float64
    trace.write_csv(tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_text(encoding="utf-8") == "t,m\n0.0,1.0\n1.0,2.0\n"


def test_write_csv_bytes_are_repr_on_random_bit_patterns(tmp_path):
    # 2^16 random finite doubles, 32 at each biased exponent 0 .. 2046 (so
    # subnormals too) with random sign and significand bits, then the edges
    # of the rounding intervals: c = 2^52 at every binary exponent (an
    # irregular interval from 2^-1021 on) with both neighbours, and the two
    # smallest subnormals
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2**64 - 1, 2**16, dtype=np.uint64, endpoint=True)
    exponent = (np.arange(bits.size) % 2047).astype(np.uint64)
    bits = bits & ~np.uint64(0x7FF << 52) | exponent << np.uint64(52)
    powers = np.ldexp(1.0, np.arange(-1022, 1024))
    values = np.concatenate([bits.view(np.float64), powers, np.nextafter(powers, 0.0),
                             np.nextafter(powers, np.inf), [5e-324, 1e-323]])
    values = np.resize(values, (-(-values.size // 15), 15))
    trace = GeodesicTrace(columns=tuple(f"c{i}" for i in range(16)),
                          data=np.column_stack([np.arange(len(values)), values]))
    trace.write_csv(tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == repr_csv(trace).encode("utf-8")


def in_a_thread(f):
    """f() in a thread of its own, which has no formatting workspace yet."""
    out = []
    thread = threading.Thread(target=lambda: out.append(f()))
    thread.start()
    thread.join(60)
    assert not thread.is_alive() and out
    return out[0]


@pytest.mark.parametrize("rows, cols", [(1001, 36), (11, 16388)])
def test_formatting_memory_is_bounded(rows, cols):
    # a 1001 x 36 trace (gauss-geodesic at n = 4) and one of rows longer
    # than a chunk (fr-geodesic at n = 16384) are formatted a chunk at a
    # time, in a fresh thread, so that its workspace (13 uint64 a chunk
    # entry, 426 kB) is allocated inside the traced peak: the peak, 0.6 MB
    # with numpy 2.4, stays near the workspace and one chunk's text, not
    # the 0.8 MB of text and the 9.3 MB of temporaries of the 1001 x 36
    # trace at once
    trace = big_trace(rows, cols)

    def formatted():
        return sum(chunk.size for chunk in trace_module._csv_chunks(trace.data))

    tracemalloc.start()
    try:
        size = in_a_thread(formatted)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 18 * rows * cols
    assert peak < 1_500_000


def test_a_second_trace_allocates_only_its_text():
    # the workspace outlives a trace: the next trace in the thread, three
    # chunks the last of them short, allocates a chunk's text at a time
    # and no temporaries (each chunk's took 1 MB)
    first, second = big_trace(3, 5), big_trace(250, 36, seed=1)

    def text_and_peak():
        for _ in trace_module._csv_chunks(first.data):
            pass
        size = 0
        tracemalloc.start()
        try:
            for chunk in trace_module._csv_chunks(second.data):
                size += chunk.size
                del chunk
            return size, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    size, peak = in_a_thread(text_and_peak)
    assert peak <= size


def test_threads_formatting_at_once_each_get_repr_bytes(tmp_path):
    # each thread formats with its own workspace: four threads, more than
    # the cores, write four traces of different shapes three times each,
    # switching every microsecond
    traces = [big_trace(1001, 36, seed=2), big_trace(300, 7, seed=3),
              big_trace(7, 6145, seed=4), big_trace(50, 516, seed=5)]
    start = threading.Barrier(len(traces))
    written = {}

    def write(i):
        start.wait(60)
        for k in range(3):
            path = tmp_path / f"trace{i}-{k}.csv"
            traces[i].write_csv(path)
            written[path] = repr_csv(traces[i]).encode("utf-8")

    threads = [threading.Thread(target=write, args=(i,)) for i in range(len(traces))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(written) == 3 * len(traces)
    for path, expected in written.items():
        assert path.read_bytes() == expected


def traced_peak(f):
    """The tracemalloc peak of calling f, in bytes, and its value."""
    tracemalloc.start()
    try:
        value = f()
        return tracemalloc.get_traced_memory()[1], value
    finally:
        tracemalloc.stop()


def small_run(steps=1000, n=256):
    grid = Grid1D(n=n)
    state = PdeState(grid, 1.0 + 0.2 * np.cos(grid.x), 0.3 + 0.1 * np.sin(grid.x))
    return grid, state, integrate_pde(state, "small", dt=1e-3, steps=steps)


def test_action_memory_is_bounded():
    # bb_action on a 1001 x 256 small-run path works a block of rows at a
    # time: its peak, 0.55 MB with numpy 2.4, stays below half of one
    # (rows, n) path array, where whole-path temporaries took 8.2 MB, four
    # such arrays
    grid, _, trace = small_run()
    path = from_small_trace(trace, grid)
    peak, _ = traced_peak(lambda: bb_action(path, continuity_tol=1e-6))
    assert peak < path.rhobar.nbytes / 2


def test_pde_integration_memory_is_bounded():
    # a 1000-step n = 256 integrate_pde holds its 4.1 MB trace and fills the
    # m, xi and H columns a block of rows at a time: the peak, 4.7 MB with
    # numpy 2.4, stays within a quarter of the trace above it, where the
    # columns over whole traces took 10.3 MB
    grid, state, _ = small_run()
    peak, trace = traced_peak(lambda: integrate_pde(state, "small", dt=1e-3, steps=1000))
    assert peak < 1.25 * trace.data.nbytes


def test_rows_longer_than_a_chunk(tmp_path):
    # chunks end inside rows, at a different place in each row
    trace = big_trace(7, 3 * trace_module._CHUNK_ENTRIES // 2 + 1)
    trace.write_csv(tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == repr_csv(trace).encode("utf-8")


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("how", ["raise", "kill"])
def test_worker_failure_is_an_internal_reason(tmp_path, cores, monkeypatch, how):
    # a worker that raises or is killed: exit 2 with a reason, no traceback,
    # no hang and no child left behind
    cores(2)
    parent = os.getpid()
    chunk = trace_module._csv_chunk

    def failing(*args):
        if os.getpid() != parent:
            if how == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise ValueError("worker failure")
        return chunk(*args)

    monkeypatch.setattr(trace_module, "_csv_chunk", failing)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "fr-geodesic", "rho0": [1.0] * 8192,
                               "rho1": [2.0] * 8192}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    reason = json.loads((out / "summary.json").read_text(encoding="utf-8"))["reason"]
    assert reason["kind"] == "internal"
    code = -signal.SIGKILL if how == "kill" else 1
    assert reason["message"].endswith(f"failed: exit codes [{code}]")
    # the part of the trace written before the failure is removed
    assert sorted(p.name for p in out.iterdir()) == ["summary.json"]
    no_child_left()


class Hung(Exception):
    pass


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_write_csv_to_a_full_disk_raises_and_leaves_no_child(cores):
    # the workers' blocks far exceed a pipe's buffer, so a worker is still
    # writing when the file fails; closing the pipes before waiting ends it
    cores(3)
    trace = big_trace(1024, 256)

    def hung(signum, frame):
        raise Hung("write_csv did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        with pytest.raises(OSError) as exc:
            trace.write_csv("/dev/full")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert exc.value.errno == errno.ENOSPC
    no_child_left()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_disk_does_not_wait_for_the_workers(cores, monkeypatch):
    # workers that would take about 7 s to format their blocks (22 chunks
    # of 4096 entries each): the file fails at its first flush, and the
    # workers are killed, not awaited
    cores(3)
    trace = big_trace(1024, 256)
    parent = os.getpid()
    chunk = trace_module._csv_chunk

    def slow(*args):
        if os.getpid() != parent:
            time.sleep(0.3)
        return chunk(*args)

    monkeypatch.setattr(trace_module, "_csv_chunk", slow)
    start = time.monotonic()
    with pytest.raises(OSError) as exc:
        trace.write_csv("/dev/full")
    assert time.monotonic() - start < 2.0
    assert exc.value.errno == errno.ENOSPC
    no_child_left()
