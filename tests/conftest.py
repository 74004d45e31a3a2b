"""Shared fixtures, a per-increment stepper of ``L1History``, and the linear step loop.

The kernel is stepped a block at a time only.  ``push`` and ``lag_sums``
step it one increment at a time, the way the nonlinear integrator's loop
does inside a block (the open block in a (channels, _BLOCK) array, its near
sums by one product with a row of ``history.near``), for the tests that
compare a history or a trajectory increment by increment.  ``loop_linear``
is the step loop that ``integrate_linear`` ran before its block solve, kept
as its oracle.
"""

import weakref
from array import array

import numpy as np
import pytest

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
# per channel, and how many it holds
_open_blocks = weakref.WeakKeyDictionary()


def _open_block(history):
    return _open_blocks.setdefault(history, [np.zeros((history.channels, fracode._BLOCK)), 0])


def push(history, *increments):
    """Add one increment per channel to the open block; close it when full.

    A count of increments that is not one per channel raises ValueError.
    """
    block, r = state = _open_block(history)
    for row, x in zip(block, increments, strict=True):
        row[r] = x
    state[1] = (r + 1) % fracode._BLOCK
    if state[1] == 0:
        history.close_block(*block)


def lag_sums(history) -> tuple:
    """Every channel's lag sum over its increments so far, as the integrators read it."""
    block, r = _open_block(history)
    fars = history.far[:, history._closed + r].tolist()
    return tuple(far + near for far, near in zip(fars, block.dot(history.near[r]).tolist()))


def loop_linear(c_l, k_l, e_r, alpha, q0, v0, grid: GridSpec, forcing=None):
    """``integrate_linear`` as a loop of one scalar solve per step: its oracle.

    Each step solves the Newmark/L1 closure for the new displacement, with
    the L1 history stepped a block of ``fracode._BLOCK`` increments at a time
    (near sums by one product of the open block with a row of
    ``history.near``, far sums from ``L1History``); at
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
        near = fars = (None,) * base
    else:
        ai = f[0] - k_l * qi
        history = L1History(alpha, dt, n)
        near, block = history.near, np.zeros((1, base))
        ca = damp * history.scale
    lhs = w0 + ca + k_l          # ca: the new level's damping (b_0 = 1 in the L1 sum)
    q, v, a = array("d", [qi]), array("d", [vi]), array("d", [ai])
    for start in range(0, n, base):
        if not classical:
            fars = history.far[0, start:start + base].tolist()
        for r, (row, far, f1) in enumerate(zip(near, fars, f[start + 1:start + base + 1])):
            if classical:
                drag = damp * (g * qi + vi)
            else:
                (near_sum,) = block.dot(row).tolist()
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
