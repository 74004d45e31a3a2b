"""Shared fixtures, a per-increment stepper of ``L1History``, and the linear step loop.

The kernel is stepped a block at a time only.  ``push`` and ``lag_sums``
step it one increment at a time, the way the nonlinear integrator's loop
does inside a block (the open block in a (channels, _BLOCK) array, its near
sums by one product with a pair of ``history.near``'s rows per two
increments), for the tests that compare a history or a trajectory
increment by increment.  ``loop_linear`` is the step loop that
``integrate_linear`` ran before its block solve, kept as its oracle, and
``array_propagator`` is the block solve's matrix built on (B, 4) numpy
arrays, kept as ``fracode._propagator``'s.
"""

import weakref
from array import array

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from fracbeam import (
    GridSpec,
    L1History,
    MaterialParams,
    TipConfig,
    build_mode,
    fracode,
    modal_coefficients,
    scale_coefficients,
    solve_eigen,
)

# each history's open block while ``push`` steps it: the increments, one row
# per channel, how many it holds, and the pairs of near rows it is read with
_open_blocks = weakref.WeakKeyDictionary()


def _open_block(history):
    state = _open_blocks.get(history)
    if state is None:
        state = _open_blocks[history] = [np.zeros((history.channels, fracode._BLOCK)), 0,
                                         fracode._near_pairs(history.near)]
    return state


def push(history, *increments):
    """Add one increment per channel to the open block; close it when full.

    A count of increments that is not one per channel raises ValueError.
    """
    state = _open_block(history)
    block, r, _ = state
    for row, x in zip(block, increments, strict=True):
        row[r] = x
    state[1] = (r + 1) % fracode._BLOCK
    if state[1] == 0:
        history.close_block(*block)


def near_sums(block, pairs, b1, r) -> list:
    """Each channel's near sum over the open block's first r increments, as the integrators read it.

    After an even count r, the first column of one product of the block
    with ``pairs[r // 2]`` (``fracode._near_pairs``); after an odd count,
    the second column of the product with ``pairs[(r - 1) // 2]``, whose
    lag-1 weight is 0, plus ``b1`` times the last increment.
    """
    sums = block.dot(pairs[r // 2])
    if r % 2:
        return [odd + b1 * x for odd, x in zip(sums[:, 1].tolist(), block[:, r - 1].tolist())]
    return sums[:, 0].tolist()


def lag_sums(history) -> tuple:
    """Every channel's lag sum over its increments so far, as ``integrate_nonlinear`` reads it."""
    block, r, pairs = _open_block(history)
    fars = history.far[:, history._closed + r].tolist()
    nears = near_sums(block, pairs, float(history.weights[1]), r)
    return tuple(far + near for far, near in zip(fars, nears))


def loop_linear(c_l, k_l, e_r, alpha, q0, v0, grid: GridSpec, forcing=None):
    """``integrate_linear`` as a loop of one scalar solve per step: its oracle.

    Each step solves the Newmark/L1 closure for the new displacement, with
    the L1 history stepped a block of ``fracode._BLOCK`` increments at a time
    (near sums by ``near_sums``, far sums from ``L1History``); at
    alpha = 1 the damping acts on Newmark's velocity and no history is kept.
    Returns (q, v, a).
    """
    dt, n = grid.dt, grid.n_steps
    f = (np.zeros(n + 1) if forcing is None else forcing.values(grid.times())).tolist()
    qi, vi = float(q0), float(v0)
    w0 = 4.0 / dt**2
    half_dt = 0.5 * dt
    damp = e_r * c_l
    base = fracode._BLOCK
    classical = alpha == 1.0
    if classical:
        # damping on Newmark's velocity g (q1 - qi) - vi: its q1 part is ca
        ai = f[0] - damp * vi - k_l * qi
        ca, g = 2.0 * damp / dt, 2.0 / dt
        fars = (None,) * base
    else:
        ai = f[0] - k_l * qi
        history = L1History(alpha, dt, n)
        pairs, b1 = fracode._near_pairs(history.near), float(history.weights[1])
        block = np.zeros((1, base))
        ca = damp * history.scale
    lhs = w0 + ca + k_l          # ca: the new level's damping (b_0 = 1 in the L1 sum)
    q, v, a = array("d", [qi]), array("d", [vi]), array("d", [ai])
    for start in range(0, n, base):
        if not classical:
            fars = history.far[0, start:start + base].tolist()
        for r, (far, f1) in enumerate(zip(fars, f[start + 1:start + base + 1])):
            if classical:
                drag = damp * (g * qi + vi)
            else:
                (near_sum,) = near_sums(block, pairs, b1, r)
                drag = ca * (qi - (far + near_sum))
            q1 = (f1 + w0 * (qi + dt * vi) + ai + drag) / lhs
            a1 = w0 * (q1 - qi - dt * vi) - ai
            vi = vi + half_dt * (ai + a1)
            if not classical:
                block[0, r] = q1 - qi
            qi, ai = q1, a1
            q.append(qi)
            v.append(vi)
            a.append(ai)
        if not classical and start + base <= n:
            history.close_block(*block)
    return np.array(q), np.array(v), np.array(a)


def array_propagator(dt, k_l, ca, cv, near):
    """``fracode._propagator`` with its recurrence run on numpy arrays of the four columns."""
    B = fracode._BLOCK
    w0, half_dt = 4.0 / dt**2, 0.5 * dt
    lhs = w0 + ca + k_l
    # columns: unit q_s, unit v_s, unit a_s, unit impulse g_0
    q, v, a = np.eye(4)[:3]
    g = np.eye(4)[3]
    x = np.zeros((B, 4))
    rows = np.empty((3, B, 4))
    for r in range(B):
        q1 = (g + w0 * (q + dt * v) + a + ca * q + cv * v - ca * (near[r:0:-1] @ x[:r])) / lhs
        a1 = w0 * (q1 - q - dt * v) - a
        v = v + half_dt * (a + a1)
        x[r] = q1 - q
        q, a, g = q1, a1, 0.0
        rows[:, r] = q, v, a
    lags = sliding_window_view(np.concatenate((np.zeros((3, B - 1)), rows[:, :, 3]), axis=1),
                               B, axis=1)
    return np.concatenate((rows[:, :, :3], lags[:, :, ::-1]), axis=2).reshape(3 * B, 3 + B)


@pytest.fixture(scope="session")
def no_tip():
    return TipConfig(0.0, 0.0)


@pytest.fixture(scope="session")
def tip_mass():
    return TipConfig(1.0, 1.0)


@pytest.fixture(scope="session")
def case1_mode(no_tip):
    beta = solve_eigen(no_tip, 1)[0]
    return build_mode(no_tip, beta)


@pytest.fixture(scope="session")
def case2_mode(tip_mass):
    beta = solve_eigen(tip_mass, 1)[0]
    return build_mode(tip_mass, beta)


@pytest.fixture(scope="session")
def case1_coeffs(case1_mode):
    return modal_coefficients(case1_mode)


@pytest.fixture(scope="session")
def case2_coeffs(case2_mode):
    return modal_coefficients(case2_mode)


@pytest.fixture(scope="session")
def case1_scaled(case1_coeffs):
    return scale_coefficients(case1_coeffs, MaterialParams.from_ratio(1.0, 0.5))
