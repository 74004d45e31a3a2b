"""``integrate_linear``'s block solve against its step loop and the discrete equations.

The block solve sums each step's terms in another order than the loop
(``conftest.loop_linear``), so the two agree to round-off, not bit for bit.
These tests hold it to the loop's own accuracy: against an extended-precision
run of the same discrete equations, on the Newmark relations and the L1
equation of motion of every row, and to the loop itself over long runs.
"""

import math

import numpy as np
import pytest
from conftest import array_propagator, loop_linear
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracbeam import GridSpec, HarmonicForcing, Trajectory, fracode, integrate_linear, l1_weights

EXT = np.longdouble


def _extended_linear(c_l, k_l, e_r, alpha, q0, v0, grid, forcing):
    """The loop's discrete equations, stepped in long double with direct L1 sums.

    The coefficients are the float64 numbers the integrator uses (forcing
    samples, weights, dt^(-alpha)/Gamma(2-alpha)); only the arithmetic is
    extended.
    """
    dt, n = grid.dt, grid.n_steps
    f = forcing.values(grid.times()).astype(EXT)
    w0, h, k, damp = EXT(4.0 / dt**2), EXT(dt), EXT(k_l), EXT(e_r * c_l)
    q, v, a = (np.empty(n + 1, dtype=EXT) for _ in range(3))
    q[0], v[0] = q0, v0
    if alpha == 1.0:
        ca = EXT(2.0 * (e_r * c_l) / dt)
        a[0] = f[0] - damp * v[0] - k * q[0]
    else:
        ca = EXT(e_r * c_l * (dt ** (-alpha) / math.gamma(2.0 - alpha)))
        b = l1_weights(alpha, n + 1).astype(EXT)
        a[0] = f[0] - k * q[0]
    lhs = w0 + ca + k
    dq = np.zeros(n, dtype=EXT)
    for i in range(n):
        if alpha == 1.0:
            drag = damp * (2 / h * q[i] + v[i])
        else:
            drag = ca * (q[i] - np.dot(b[1:i + 1], dq[i - 1::-1] if i else dq[:0]))
        q[i + 1] = (f[i + 1] + w0 * (q[i] + h * v[i]) + a[i] + drag) / lhs
        a[i + 1] = w0 * (q[i + 1] - q[i] - h * v[i]) - a[i]
        v[i + 1] = v[i] + h / 2 * (a[i] + a[i + 1])
        dq[i] = q[i + 1] - q[i]
    return q, v, a


@pytest.mark.skipif(np.finfo(EXT).eps > 1e-18, reason="long double is not x87 extended here")
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("dt", [1e-2, 1e-3])
@pytest.mark.parametrize("amp", [0.0, 1.3])
def test_round_off_at_most_twice_the_loops(alpha, dt, amp):
    grid = GridSpec(dt, 3000)
    forcing = HarmonicForcing(amp, 1.1, 0.2)
    args = (1.24, 1.24, 0.5, alpha, 0.3, -0.2, grid, forcing)
    traj = integrate_linear(*args)
    exact = _extended_linear(*args)
    for got, loop, want in zip((traj.q, traj.v, traj.a), loop_linear(*args), exact):
        err = np.max(np.abs(got.astype(EXT) - want))
        assert err <= 2 * np.max(np.abs(loop.astype(EXT) - want))


def _holds_the_discrete_equations(traj, c_l, k_l, e_r, alpha, forcing) -> bool:
    """Every row within ``bench/oracle.py``'s bounds, restated from ``check_simulate``.

    The Newmark relations between consecutive rows to 1e-10 of their scales,
    and the L1 (or, at alpha = 1, classical) equation of motion to twice the
    step tolerance plus 1e-10 of its terms' magnitudes.
    """
    dt = traj.grid.dt
    t, q, v, a = traj.t, traj.q, traj.v, traj.a
    a_sum = a[:-1] + a[1:]
    dq = q[1:] - q[:-1] - dt * v[:-1] - 0.25 * dt * dt * a_sum
    dv = v[1:] - v[:-1] - 0.5 * dt * a_sum
    q_scale = np.max(np.abs(q)) + dt * np.max(np.abs(v)) + dt * dt * np.max(np.abs(a))
    v_scale = np.max(np.abs(v)) + dt * np.max(np.abs(a))
    if alpha < 1.0:
        n = len(q) - 1
        frac = np.zeros(n + 1)
        frac[1:] = (np.convolve(np.diff(q), l1_weights(alpha, n))[:n]
                    * dt ** (-alpha) / math.gamma(2.0 - alpha))
    else:
        frac = v
    terms = [a, e_r * c_l * frac, k_l * q, -forcing.values(t)]
    prev = np.maximum(np.maximum(np.abs(q), dt * np.abs(v)), 1.0)
    step_tol = np.maximum(1e-10, 64.0 * np.finfo(float).eps * 4.0 / dt**2 * prev)
    step_tol = np.concatenate(([step_tol[0]], step_tol[:-1]))
    allowed = 2.0 * step_tol + 1e-10 * sum(np.abs(x) for x in terms)
    return bool(np.all(np.abs(dq) <= 1e-10 * q_scale) and np.all(np.abs(dv) <= 1e-10 * v_scale)
                and np.all(np.abs(sum(terms)) <= allowed))


B = fracode._BLOCK


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(min_value=1e-3, max_value=1.0),
       e_r=st.floats(min_value=0.0, max_value=2.0),
       forced=st.booleans(),
       n=st.sampled_from([1, B - 1, B, B + 1, 3 * B + 1]),
       dt=st.sampled_from([1e-3, 1e-2]),
       # a subnormal state has too few significant bits for a relative bound
       q0=st.floats(min_value=-1.0, max_value=1.0, allow_subnormal=False),
       v0=st.floats(min_value=-1.0, max_value=1.0, allow_subnormal=False))
@example(alpha=1.0, e_r=0.0, forced=False, n=B + 1, dt=1e-2, q0=1.0, v0=0.0)
@example(alpha=1.0, e_r=2.0, forced=True, n=3 * B + 1, dt=1e-3, q0=-0.5, v0=1.0)
@example(alpha=0.5, e_r=0.0, forced=True, n=B, dt=1e-2, q0=0.0, v0=0.0)
def test_block_solve_holds_the_discrete_equations(alpha, e_r, forced, n, dt, q0, v0):
    # n ends inside, at, or just past a block, or past the first FFT closure
    grid = GridSpec(dt, n)
    forcing = HarmonicForcing(1.3 if forced else 0.0, 1.1, 0.2)
    traj = integrate_linear(1.24, 1.24, e_r, alpha, q0, v0, grid, forcing)
    q, v, a = loop_linear(1.24, 1.24, e_r, alpha, q0, v0, grid, forcing)
    for run in (traj, Trajectory(grid, q, v, a)):
        assert _holds_the_discrete_equations(run, 1.24, 1.24, e_r, alpha, forcing)
    # each column's round-off scale: a = (4/dt^2)(q1 - q - dt v) - a_prev
    # and v = v_prev + (dt/2)(a_prev + a) carry q's rounding up by 4/dt^2, 2/dt
    q_max = np.max(np.abs(q))
    scales = (q_max, np.max(np.abs(v)) + 2.0 / dt * q_max, np.max(np.abs(a)) + 4.0 / dt**2 * q_max)
    for got, want, scale in zip((traj.q, traj.v, traj.a), (q, v, a), scales):
        assert np.max(np.abs(got - want)) <= 1e-10 * scale


def test_long_run_stays_with_the_loop():
    # the default ``fracbeam simulate`` run: 200k steps, many FFT closures
    grid = GridSpec(1e-3, 200_000)
    traj = integrate_linear(1.24, 1.24, 1.0, 0.5, 1.0, 0.0, grid)
    q, _, _ = loop_linear(1.24, 1.24, 1.0, 0.5, 1.0, 0.0, grid)
    assert np.max(np.abs(traj.q - q)) <= 1e-10 * np.max(np.abs(q))


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
@pytest.mark.parametrize("dt, k_l, damp", [(0.01, 1.24, 0.62), (1e-3, 12.0, 2.0), (0.05, 1.0, 1e-3)])
def test_propagator_equals_its_array_recurrence(alpha, dt, k_l, damp):
    # the recurrence on Python floats, bit for bit against the same one on
    # (B, 4) arrays, with integrate_linear's constants
    if alpha == 1.0:
        ca, cv, near = 2.0 * damp / dt, damp, np.zeros(fracode._BLOCK)
    else:
        history = fracode.L1History(alpha, dt, 10)
        ca, cv, near = damp * history.scale, 0.0, history.weights[:fracode._BLOCK]
    got = fracode._propagator(dt, k_l, ca, cv, near)
    want = array_propagator(dt, k_l, ca, cv, near)
    assert got.shape == want.shape == (3 * fracode._BLOCK, 3 + fracode._BLOCK)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
