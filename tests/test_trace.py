import numpy as np
import pytest

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


def test_write_csv_streams_shortest_round_trip_rows(tmp_path):
    data = np.array([[0.0, 1.0, -0.0, 1.0 / 3.0],
                     [0.1, 1e-300, 2.5e17, -7.0]])
    trace = GeodesicTrace(columns=("t", "m", "xi", "H"), data=data)
    trace.write_csv(tmp_path / "trace.csv")
    expected = "t,m,xi,H\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in data)
    assert (tmp_path / "trace.csv").read_bytes() == expected.encode("utf-8")
