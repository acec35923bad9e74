import errno
import json
import os
import signal
import time

import numpy as np
import pytest

from uotcone import trace as trace_module
from uotcone.cli import main
from uotcone.errors import NonFiniteError
from uotcone.trace import GeodesicTrace, _rk4


def test_rk4_linear_flow_is_the_degree_four_taylor_factor():
    # y' = -y: every step multiplies by 1 - z + z^2/2 - z^3/6 + z^4/24, z = dt
    dt, steps = 0.1, 20
    states = np.empty((steps + 1, 2))
    states[0] = [1.0, 2.0]
    last = _rk4(lambda y: -y, lambda y: None, states, dt)
    factor = 1.0 - dt + dt**2 / 2.0 - dt**3 / 6.0 + dt**4 / 24.0
    expected = np.outer(factor ** np.arange(steps + 1), [1.0, 2.0])
    np.testing.assert_allclose(states, expected, rtol=1e-13)
    np.testing.assert_array_equal(last, states[-1])


def test_rk4_steps_a_stack_of_states_as_its_members():
    # states of shape (steps + 1, members, d): row k holds every member after
    # step k, each exactly as a run of its own would give it
    def oscillator(y):  # (x, v)' = (v, -x - 0.3 v) on the last axis
        return y[..., ::-1] * [1.0, -1.0] - [0.0, 0.3] * y

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


def test_rk4_post_hook_projects_each_state():
    states = np.empty((6, 2))
    states[0] = [1.0, 5.0]

    def clamp(y):
        y[1] = 0.0

    _rk4(lambda y: np.ones(2), clamp, states, 0.5)
    np.testing.assert_array_equal(states[1:, 1], 0.0)
    np.testing.assert_allclose(states[:, 0], 1.0 + 0.5 * np.arange(6))


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_rk4_stage_failure_is_stamped_with_the_step_it_belongs_to(stage):
    # rhs calls 4k + 1 ... 4k + 4 are the stages of the step from k to k + 1
    calls = []

    def rhs(y):
        calls.append(1)
        if len(calls) == 4 * 6 + stage:
            raise NonFiniteError("stage failure")
        return -y

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
        _rk4(lambda y: np.ones(1), post, states, 1.0)
    # y after the step from k to k + 1 is k + 1; 4 is the first above 3.5
    assert exc.value.details == {"value": 4.0, "step": 4}


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


def test_write_csv_streams_shortest_round_trip_rows(tmp_path, cores, monkeypatch):
    # far above one block (2**14 entries): written on the available cores,
    # on one (which forks nothing) and on three, the bytes are those of the
    # serial formula
    special = np.array([[0.0, 1.0, -0.0, 1.0 / 3.0],
                        [0.1, 1e-300, 2.5e17, -7.0]])
    data = big_trace(20000, 4).data
    data[:2] = special
    trace = GeodesicTrace(columns=("t", "m", "xi", "H"), data=data)
    expected = "t,m,xi,H\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in data)
    fork = os.fork
    for k in (None, 1, 3):
        if k is not None:
            cores(k)
        monkeypatch.setattr(os, "fork", fork if k != 1 else None)
        trace.write_csv(tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == expected.encode("utf-8")


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("how", ["raise", "kill"])
def test_worker_failure_is_an_internal_reason(tmp_path, cores, monkeypatch, how):
    # a worker that raises or is killed: exit 2 with a reason, no traceback,
    # no hang and no child left behind
    cores(2)
    parent = os.getpid()
    row = trace_module._csv_row

    def failing(values):
        if os.getpid() != parent:
            if how == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise ValueError("worker failure")
        return row(values)

    monkeypatch.setattr(trace_module, "_csv_row", failing)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "fr-geodesic", "rho0": [1.0] * 4096,
                               "rho1": [2.0] * 4096}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    reason = json.loads((out / "summary.json").read_text(encoding="utf-8"))["reason"]
    assert reason["kind"] == "internal"
    code = -signal.SIGKILL if how == "kill" else 1
    assert reason["message"].endswith(f"failed: exit codes [{code}]")
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
    # workers that would take about 7 s to format their blocks: the file
    # fails at its first flush, and the workers are killed, not awaited
    cores(3)
    trace = big_trace(1024, 256)
    parent = os.getpid()
    row = trace_module._csv_row

    def slow(values):
        if os.getpid() != parent:
            time.sleep(0.02)
        return row(values)

    monkeypatch.setattr(trace_module, "_csv_row", slow)
    start = time.monotonic()
    with pytest.raises(OSError) as exc:
        trace.write_csv("/dev/full")
    assert time.monotonic() - start < 2.0
    assert exc.value.errno == errno.ENOSPC
    no_child_left()
