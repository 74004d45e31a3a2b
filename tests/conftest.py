"""Shared fixtures, and a per-increment driver of ``L1History``.

The kernel is stepped a block at a time only.  ``push`` and ``lag_sums``
step it one increment at a time, the way the integrators' loops do inside
a block, for the tests that compare a history or a trajectory increment by
increment.
"""

from operator import mul

import pytest

from fracbeam import (
    MaterialParams,
    TipConfig,
    build_mode,
    fracode,
    modal_coefficients,
    scale_coefficients,
    solve_eigen,
)


def push(history, *increments):
    """Append one increment per channel to the open block; close it when full.

    A count of increments that is not one per channel raises ValueError.
    """
    for block, x in zip(history.blocks, increments, strict=True):
        block.append(x)
    if len(history.blocks[0]) == fracode._BASE:
        history.close_block()


def lag_sums(history) -> tuple:
    """Every channel's lag sum over its increments so far, as the integrators read it."""
    r = len(history.blocks[0])
    return tuple(far[r] + sum(map(mul, history.near_weights[r], block))
                 for far, block in zip(history.block_fars, history.blocks))


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
