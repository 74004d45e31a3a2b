"""The L1History kernel and the integrators built on it, against direct sums.

The direct O(N^2) history sums live here only, as the oracle: the steppers
below are the integrators written with one ``np.dot`` over the whole stored
history per step.  ``integrate_linear`` is held to its step loop
(``conftest.loop_linear``) in ``test_linear_block_solve.py``; here that loop
is checked against the direct stepper and against its per-increment replay.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from conftest import lag_sums, loop_linear, near_sums, push
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbeam import (
    GridSpec,
    HarmonicForcing,
    L1History,
    MaterialParams,
    caputo_l1_series,
    fracode,
    integrate_linear,
    integrate_nonlinear,
    l1_weights,
)


def _increments(n, seed, pattern):
    """Signed increments with magnitudes from 1e-8 to 1e3."""
    rng = np.random.default_rng(seed)
    mags = 10.0 ** rng.uniform(-8.0, 3.0, n)
    if pattern == "old-large":        # the far past dominates every sum
        mags = np.where(np.arange(n) < n // 2, 1e3, 1e-8)
    elif pattern == "first-block":
        mags = np.full(n, 1e-8)
        mags[:64] = 1e3
    return mags * rng.choice([-1.0, 1.0], n)


def _direct_lag_sums(x, alpha):
    """s_t = sum_{k<t} b_{t-k} x_k for t = 0..n, by the direct convolution."""
    n = len(x)
    kernel = l1_weights(alpha, n + 1)
    kernel[0] = 0.0
    return np.convolve(x, kernel)[:n + 1]


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(min_value=1e-3, max_value=1 - 1e-6),
       n=st.sampled_from([1, 31, 32, 33, 63, 64, 65, 127, 128, 129, 4097]),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       pattern=st.sampled_from(["random", "old-large", "first-block"]))
def test_lag_sum_matches_direct_sum(alpha, n, seed, pattern):
    x = _increments(n, seed, pattern)
    history = L1History(alpha, 0.01, n)
    got = np.empty(n + 1)
    for k in range(n):
        (got[k],) = lag_sums(history)
        push(history, x[k])
    (got[n],) = lag_sums(history)
    want = _direct_lag_sums(x, alpha)
    bound = 1e-12 * _direct_lag_sums(np.abs(x), alpha)
    assert got[0] == 0.0
    assert np.all(np.abs(got - want) <= bound)


def _pair_sums(history, x, y):
    got = np.empty((len(x) + 1, 2))
    for k in range(len(x)):
        got[k] = lag_sums(history)
        push(history, x[k], y[k])
    got[-1] = lag_sums(history)
    return got


# n on both sides of the first FFT block (2 * _BLOCK), and long runs
@pytest.mark.parametrize("n", [1, 33, fracode._BLOCK + 1, 2 * fracode._BLOCK - 1,
                               2 * fracode._BLOCK + 1, 4097, 5000])
@pytest.mark.parametrize("pattern", ["random", "old-large"])
def test_pair_lag_sums_match_direct_sums(n, pattern):
    x = _increments(n, 7, pattern)
    y = _increments(n, 8, "first-block") * 1e6
    got = _pair_sums(L1History(0.37, 0.01, n, channels=2), x, y)
    assert np.all(got[0] == 0.0)
    for k, data in enumerate((x, y)):
        bound = 1e-12 * _direct_lag_sums(np.abs(data), 0.37)
        assert np.all(np.abs(got[:, k] - _direct_lag_sums(data, 0.37)) <= bound)


@pytest.mark.parametrize("n", [2 * fracode._BLOCK + 1, 4097])
def test_pair_channels_do_not_mix(n):
    # channel 0's sums are its own whatever channel 1 carries, and equal the
    # one-channel kernel's
    x = _increments(n, 3, "random")
    single = L1History(0.6, 0.01, n)
    want = np.empty(n + 1)
    for k in range(n):
        (want[k],) = lag_sums(single)
        push(single, x[k])
    (want[n],) = lag_sums(single)
    bound = 1e-12 * _direct_lag_sums(np.abs(x), 0.6)
    for y in (np.zeros(n), _increments(n, 4, "old-large") * 1e12):
        got = _pair_sums(L1History(0.6, 0.01, n, channels=2), x, y)
        assert np.all(np.abs(got[:, 0] - want) <= bound)


def _block_sums(history, columns):
    """Every target's lag sums, with the history stepped a block at a time.

    The stepping of ``integrate_nonlinear``: the open block in a
    (channels, _BLOCK) array, its near sums by ``near_sums`` (one product
    with a pair of ``history.near``'s rows per two increments), one
    ``close_block`` per full block.
    """
    n, base = len(columns[0]), fracode._BLOCK
    pairs, b1 = fracode._near_pairs(history.near), float(history.weights[1])
    block = np.zeros((len(columns), base))
    got = np.empty((n + 1, len(columns)))
    for start in range(0, n + 1, base):
        for r, far_r in enumerate(zip(*history.far[:, start:start + base].tolist())):
            if start + r > n:
                break
            got[start + r] = [far + near
                              for far, near in zip(far_r, near_sums(block, pairs, b1, r))]
            if start + r < n:
                block[:, r] = [column[start + r] for column in columns]
        if start + base <= n:
            history.close_block(*block)
    return got


@pytest.mark.parametrize("n", [fracode._BLOCK, 4097, 20001])
@pytest.mark.parametrize("width", [fracode._BLOCK])
def test_array_blocks_match_direct_sums(n, width):
    # the block solve's stepping: blocks of ``width`` increments close as one
    # array each, and ``far`` then holds the complete far sums of the next
    # block's targets
    x = _increments(n, 13, "old-large")
    history = L1History(0.45, 0.01, n)
    b = history.weights
    got = np.empty(n + 1)
    for start in range(0, n + 1, width):
        stop = min(start + width, n + 1)
        for t in range(start, stop):
            got[t] = history.far[0, t] + np.dot(b[1:t - start + 1], x[start:t][::-1])
        if stop - start == width and start + width <= n:
            history.close_block(x[start:start + width])
    bound = 1e-12 * _direct_lag_sums(np.abs(x), 0.45)
    assert np.all(np.abs(got - _direct_lag_sums(x, 0.45)) <= bound)


# the top-level block has few targets: 4097 = 2^12 + 1, 5000 = 2^12 + 904,
# 20001 = 2^14 + 3617
@pytest.mark.parametrize("n", [4097, 5000, 20001])
@pytest.mark.parametrize("channels", [1, 2])
def test_block_sums_match_direct_sums_where_top_blocks_have_few_targets(n, channels):
    columns = [_increments(n, 11, "random"), _increments(n, 12, "old-large") * 1e6][:channels]
    history = L1History(0.61, 0.01, n, channels)
    got = _block_sums(history, columns)
    assert np.all(got[0] == 0.0)
    for k, data in enumerate(columns):
        bound = 1e-12 * _direct_lag_sums(np.abs(data), 0.61)
        assert np.all(np.abs(got[:, k] - _direct_lag_sums(data, 0.61)) <= bound)
    # the per-increment driver of the other tests reads the same sums
    if channels == 1:
        single = L1History(0.61, 0.01, n)
        wrapped = np.empty(n + 1)
        for k in range(n):
            (wrapped[k],) = lag_sums(single)
            push(single, columns[0][k])
        (wrapped[n],) = lag_sums(single)
        np.testing.assert_array_equal(wrapped, got[:, 0])


def _replay_linear(c_l, k_l, e_r, alpha, q0, v0, grid, forcing):
    """``loop_linear``'s steps one at a time, on ``push`` and ``lag_sums``.

    The loop's arithmetic in its order of operations, so the trajectory is
    the loop's to the last bit.  At alpha = 1 the damping acts on Newmark's
    velocity and there is no history.
    """
    dt, n = grid.dt, grid.n_steps
    f = forcing.values(grid.times()).tolist()
    qi, vi = float(q0), float(v0)
    w0, half_dt = 4.0 / dt**2, 0.5 * dt
    damp = e_r * c_l
    classical = alpha == 1.0
    if classical:
        ai = f[0] - damp * vi - k_l * qi
        ca = 2.0 * damp / dt
    else:
        ai = f[0] - k_l * qi
        history = L1History(alpha, dt, n)
        ca = damp * history.scale
    lhs = w0 + ca + k_l
    q, v, a = [qi], [vi], [ai]
    for step in range(1, n + 1):
        if classical:
            drag = damp * (2.0 / dt * qi + vi)
        else:
            (lag,) = lag_sums(history)
            drag = ca * (qi - lag)
        q1 = (f[step] + w0 * (qi + dt * vi) + ai + drag) / lhs
        a1 = w0 * (q1 - qi - dt * vi) - ai
        vi = vi + half_dt * (ai + a1)
        if not classical:
            push(history, q1 - qi)
        qi, ai = q1, a1
        q.append(qi)
        v.append(vi)
        a.append(ai)
    return np.array(q), np.array(v), np.array(a)


# both runs cross dense and FFT closures and end inside a block
@pytest.mark.parametrize("n", [2 * fracode._BLOCK + 40, 5000])
@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
def test_integrate_linear_replays_bit_for_bit(alpha, n):
    # the oracle loop, stepped a block at a time, against its replay one
    # increment at a time
    grid = GridSpec(0.01, n)
    forcing = HarmonicForcing(1.3, 1.1, 0.2)
    loop = loop_linear(1.24, 1.24, 0.5, alpha, 0.3, -0.2, grid, forcing)
    replay = _replay_linear(1.24, 1.24, 0.5, alpha, 0.3, -0.2, grid, forcing)
    for got, want in zip(loop, replay):
        assert np.array_equal(got, want)


def test_fft_length_is_the_least_2j_or_3_2j_not_below_k():
    smooth = sorted({2**j for j in range(17)} | {3 * 2**j for j in range(16)})
    for k in range(3, 40_000):
        assert fracode._fft_length(k) == next(n for n in smooth if n >= k)


def test_closures_transform_only_the_targets_that_exist():
    # at 5000 increments the closure of [0, 4096) has 905 targets: a length
    # 6144 transform, not 8192; full blocks keep length 2L
    history = L1History(0.5, 0.01, 5000, channels=2)
    _block_sums(history, [np.ones(5000), np.ones(5000)])
    assert sorted(history._spectra) == [512, 1024, 2048, 4096, 6144]


def test_close_block_checks_the_open_block():
    base = fracode._BLOCK
    history = L1History(0.5, 0.01, 3 * base + 8, channels=2)
    with pytest.raises(ValueError, match="per channel"):
        history.close_block([1.0] * base, [1.0] * (base - 1))
    with pytest.raises(ValueError, match="per channel"):
        history.close_block([1.0] * base)
    for width in (base - 1, base + 1, 2 * base):   # one block is _BLOCK increments
        with pytest.raises(ValueError, match="per channel"):
            history.close_block([1.0] * width, [1.0] * width)
    history.close_block([1.0] * base, [1.0] * base)
    history.close_block(np.ones(base), np.ones(base))
    history.close_block(np.ones(base), np.ones(base))
    with pytest.raises(ValueError, match="full"):
        history.close_block([1.0] * base, [1.0] * base)


def test_histories_are_freed_by_reference_counting(monkeypatch, case1_coeffs):
    # a history that holds a reference to itself (a bound method stored on
    # the instance, say) lives on until the cycle collector runs, and each
    # run's arrays with it
    made = []

    class Recorded(L1History):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))

    monkeypatch.setattr(fracode, "L1History", Recorded)
    grid = GridSpec(0.01, 2 * fracode._BLOCK + 40)    # dense and FFT blocks
    gc.collect()
    gc.disable()
    try:
        for channels in (1, 2):
            history = Recorded(0.5, 0.01, grid.n_steps, channels)
            for k in range(grid.n_steps):
                push(history, *[0.1 * k, 0.2 * k][:channels])
            del history
        traj = integrate_linear(1.24, 1.24, 0.1, 0.5, 1.0, 0.0, grid)
        traj = integrate_nonlinear(case1_coeffs, MaterialParams.from_ratio(0.1, 0.5),
                                   0.1, 0.0, grid, HarmonicForcing(0.13, 3.5))
        del traj
        assert len(made) == 4
        assert all(ref() is None for ref in made)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_history_weights_and_scale():
    history = L1History(0.4, 0.02, 10)
    np.testing.assert_array_equal(history.weights[:11], l1_weights(0.4, 11))
    assert history.scale == 0.02 ** -0.4 / math.gamma(1.6)


def test_history_domain():
    for bad in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError):
            L1History(bad, 0.01, 10)
    for dt in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            L1History(0.5, dt, 10)
    with pytest.raises(ValueError):
        L1History(0.5, 0.01, 0)
    for channels in (0, 3):
        with pytest.raises(ValueError):
            L1History(0.5, 0.01, 10, channels)
    pair = L1History(0.5, 0.01, 2, channels=2)
    push(pair, 1.0, 2.0)
    push(pair, 3.0, 4.0)
    assert lag_sums(pair) == (3.0 * pair.weights[1] + pair.weights[2] * 1.0,
                              4.0 * pair.weights[1] + pair.weights[2] * 2.0)


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(min_value=1e-3, max_value=1 - 1e-6),
       n=st.integers(min_value=1, max_value=3000),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_caputo_series_matches_convolve(alpha, n, seed):
    q = np.concatenate(([0.0], np.cumsum(_increments(n, seed, "random"))))
    dt = 1e-3
    b = l1_weights(alpha, n)
    scale = dt ** -alpha / math.gamma(2 - alpha)
    want = np.convolve(np.diff(q), b)[:n] * scale
    # one FFT spreads its round-off over all nodes: the bound is normwise
    bound = 1e-12 * np.max(np.convolve(np.abs(np.diff(q)), b)[:n]) * scale
    got = caputo_l1_series(q, dt, alpha)
    assert got[0] == 0.0
    assert np.all(np.abs(got[1:] - want) <= bound)


# ------------------------------------------------------ direct-sum steppers

def _direct_linear(c_l, k_l, e_r, alpha, q0, v0, grid, forcing):
    dt, n = grid.dt, grid.n_steps
    f = forcing.values(grid.times())
    q, v, a = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)
    q[0], v[0], a[0] = q0, v0, f[0] - k_l * q0
    w0 = 4.0 / dt**2
    b = l1_weights(alpha, n)
    ca = e_r * c_l * dt ** (-alpha) / math.gamma(2.0 - alpha)
    dq = np.empty(n)
    lhs = w0 + ca * b[0] + k_l
    for i in range(n):
        hist = np.dot(b[1:i + 1], dq[i - 1::-1]) if i > 0 else 0.0
        rhs = f[i + 1] + w0 * (q[i] + dt * v[i]) + a[i] + ca * (b[0] * q[i] - hist)
        q[i + 1] = rhs / lhs
        a[i + 1] = w0 * (q[i + 1] - q[i] - dt * v[i]) - a[i]
        v[i + 1] = v[i] + 0.5 * dt * (a[i] + a[i + 1])
        dq[i] = q[i + 1] - q[i]
    return q


def _direct_nonlinear(co, mat, q0, v0, grid, base_accel, newton_tol=1e-10):
    """integrate_nonlinear's step on direct sums.

    Predictor, tolerance and damped Newton with the analytic slope.
    """
    dt, n, alpha, e_r = grid.dt, grid.n_steps, mat.alpha, mat.e_r
    force = -co.m_b * base_accel.values(grid.times())
    q, v = np.empty(n + 1), np.empty(n + 1)
    q[0], v[0] = q0, v0
    a = (force[0] - co.j_nl * q0 * v0**2 - co.k_l * q0 - 2.0 * co.k_nl * q0**3) / (
        co.m_modal + co.j_nl * q0**2)
    b = l1_weights(alpha, n)
    ca = dt ** (-alpha) / math.gamma(2.0 - alpha)
    dq, dc = np.empty(n), np.empty(n)
    w0 = 4.0 / dt**2
    for i in range(n):
        qi, vi = q[i], v[i]
        hq = np.dot(b[1:i + 1], dq[i - 1::-1]) if i > 0 else 0.0
        hc = np.dot(b[1:i + 1], dc[i - 1::-1]) if i > 0 else 0.0

        def residual(u):
            au = w0 * (u - qi - dt * vi) - a
            vu = 2.0 / dt * (u - qi) - vi
            fq = ca * (b[0] * (u - qi) + hq)
            fc = ca * (b[0] * (u**3 - qi**3) + hc)
            return (co.m_modal * au + co.j_nl * (au * u**2 + u * vu**2) + co.k_l * u
                    + e_r * co.c_l * fq + 2.0 * co.k_nl * u**3
                    + 0.5 * e_r * co.c_nl * (fc + 3.0 * u**2 * fq) - force[i + 1])

        def slope(u):
            au = w0 * (u - qi - dt * vi) - a
            vu = 2.0 / dt * (u - qi) - vi
            fq = ca * (b[0] * (u - qi) + hq)
            return (co.m_modal * w0 + co.j_nl * (w0 * u**2 + 2.0 * au * u + vu**2
                                                 + 4.0 / dt * u * vu)
                    + co.k_l + e_r * co.c_l * ca * b[0] + 6.0 * co.k_nl * u**2
                    + 0.5 * e_r * co.c_nl * (6.0 * ca * b[0] * u**2 + 6.0 * u * fq))

        u = qi + dt * vi + 0.5 * dt**2 * a
        r = residual(u)
        tol = max(newton_tol, 64.0 * np.finfo(float).eps * co.m_modal * w0
                  * max(abs(qi), abs(dt * vi), 1.0))
        for _ in range(50):
            if abs(r) < tol:
                break
            step = -r / slope(u)
            lam = 1.0
            while abs(residual(u + lam * step)) >= abs(r):
                lam *= 0.5
            u += lam * step
            r = residual(u)
        assert abs(r) < tol
        a_new = w0 * (u - qi - dt * vi) - a
        v[i + 1] = vi + 0.5 * dt * (a + a_new)
        q[i + 1], a = u, a_new
        dq[i], dc[i] = u - qi, u**3 - qi**3
    return q


@pytest.mark.parametrize("alpha, e_r, q0, v0, amp", [
    (0.3, 0.1, 1.0, 0.0, 0.0),
    (0.5, 1.0, -0.4, 0.7, 0.0),
    (0.8, 0.5, 0.0, 0.0, 1.3),
])
def test_integrate_linear_matches_direct_stepper(alpha, e_r, q0, v0, amp):
    # the oracle loop of integrate_linear on the kernel's sums
    grid = GridSpec(0.01, 3000)
    forcing = HarmonicForcing(amp, 1.1, 0.2)
    q, _, _ = loop_linear(1.24, 1.24, e_r, alpha, q0, v0, grid, forcing)
    want = _direct_linear(1.24, 1.24, e_r, alpha, q0, v0, grid, forcing)
    assert np.max(np.abs(q - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("case, alpha, q0", [("no-tip", 0.3, 0.2), ("tip-mass", 0.7, 0.0)])
def test_integrate_nonlinear_matches_direct_stepper(case, alpha, q0, case1_coeffs, case2_coeffs):
    co = case1_coeffs if case == "no-tip" else case2_coeffs
    mat = MaterialParams.from_ratio(0.1, alpha)
    w0 = math.sqrt(co.k_l / co.m_modal)
    grid = GridSpec(0.01, 1500)
    base = HarmonicForcing(0.13, 0.95 * w0)
    traj = integrate_nonlinear(co, mat, q0, 0.0, grid, base)
    want = _direct_nonlinear(co, mat, q0, 0.0, grid, base)
    assert np.max(np.abs(traj.q - want)) <= 1e-12 * np.max(np.abs(want))


# a run of n steps ends inside, at or just past a history block, or past
# the first FFT closure
@pytest.mark.parametrize("n", [1, 31, 32, 33, fracode._BLOCK - 1, fracode._BLOCK,
                               fracode._BLOCK + 1, 2 * fracode._BLOCK + 1])
def test_integrators_match_direct_steppers_at_block_boundaries(n, case2_coeffs):
    grid = GridSpec(0.01, n)
    forcing = HarmonicForcing(1.3, 1.1, 0.2)
    q, _, _ = loop_linear(1.24, 1.24, 0.5, 0.4, 0.3, -0.2, grid, forcing)
    want = _direct_linear(1.24, 1.24, 0.5, 0.4, 0.3, -0.2, grid, forcing)
    assert np.max(np.abs(q - want)) <= 1e-12 * np.max(np.abs(want))
    mat = MaterialParams.from_ratio(0.1, 0.6)
    base = HarmonicForcing(0.13, 1.05)
    traj = integrate_nonlinear(case2_coeffs, mat, 0.2, 0.1, grid, base)
    want = _direct_nonlinear(case2_coeffs, mat, 0.2, 0.1, grid, base)
    assert np.max(np.abs(traj.q - want)) <= 1e-12 * np.max(np.abs(want))
