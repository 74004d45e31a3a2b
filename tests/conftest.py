"""Shared fixtures, a per-increment stepper of ``L1History``, and the linear step loop.

The kernel is stepped a block at a time only.  ``push`` and ``lag_sums``
step it one increment at a time, the way the nonlinear integrator's loop
does inside a block, for the tests that compare a history or a trajectory
increment by increment.  ``loop_linear`` is the step loop that
``integrate_linear`` ran before its block solve, kept as its oracle.
"""

import weakref
from array import array
from operator import mul

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

# each history's open block, one list per channel, while ``push`` steps it
_open_blocks = weakref.WeakKeyDictionary()


def _blocks(history):
    return _open_blocks.setdefault(history, [[] for _ in range(history.channels)])


def push(history, *increments):
    """Append one increment per channel to the open block; close it when full.

    A count of increments that is not one per channel raises ValueError.
    """
    blocks = _blocks(history)
    for block, x in zip(blocks, increments, strict=True):
        block.append(x)
    if len(blocks[0]) == fracode._BASE:
        history.close_block(*blocks)
        for block in blocks:
            block.clear()


def lag_sums(history) -> tuple:
    """Every channel's lag sum over its increments so far, as the integrators read it."""
    blocks = _blocks(history)
    r = len(blocks[0])
    t = history._closed + r
    return tuple(float(far[t]) + sum(map(mul, history.near_weights[r], block))
                 for far, block in zip(history.far, blocks))


def loop_linear(c_l, k_l, e_r, alpha, q0, v0, grid: GridSpec, forcing=None):
    """``integrate_linear`` as a loop of one scalar solve per step: its oracle.

    Each step solves the Newmark/L1 closure for the new displacement, with
    the L1 history stepped a block of ``fracode._BASE`` increments at a time
    (near sums over the open block's list, far sums from ``L1History``); at
    alpha = 1 the damping acts on Newmark's velocity and no history is kept.
    Returns (q, v, a).
    """
    dt, n = grid.dt, grid.n_steps
    f = (np.zeros(n + 1) if forcing is None else forcing.values(grid.times())).tolist()
    qi, vi = float(q0), float(v0)
    w0 = 4.0 / dt**2
    half_dt = 0.5 * dt
    damp = e_r * c_l
    base = fracode._BASE
    classical = alpha == 1.0
    if classical:
        # damping on Newmark's velocity g (q1 - qi) - vi: its q1 part is ca
        ai = f[0] - damp * vi - k_l * qi
        ca, g = 2.0 * damp / dt, 2.0 / dt
        near = fars = (None,) * base
    else:
        ai = f[0] - k_l * qi
        history = L1History(alpha, dt, n)
        near, block = history.near_weights, []
        ca = damp * history.scale
    lhs = w0 + ca + k_l          # ca: the new level's damping (b_0 = 1 in the L1 sum)
    q, v, a = array("d", [qi]), array("d", [vi]), array("d", [ai])
    for start in range(0, n, base):
        if not classical:
            fars = history.far[0, start:start + base].tolist()
        for b_near, far, f1 in zip(near, fars, f[start + 1:start + base + 1]):
            if classical:
                drag = damp * (g * qi + vi)
            else:
                drag = ca * (qi - (far + sum(map(mul, b_near, block))))
            q1 = (f1 + w0 * (qi + dt * vi) + ai + drag) / lhs
            a1 = w0 * (q1 - qi - dt * vi) - ai
            vi = vi + half_dt * (ai + a1)
            if not classical:
                block.append(q1 - qi)
            qi, ai = q1, a1
            q.append(qi)
            v.append(vi)
            a.append(ai)
        if not classical and len(block) == base:
            history.close_block(block)
            block.clear()
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
