"""integrate_nonlinear's per-step cubic and Newton solve, against two oracles.

The step residual used to be a closure defined inside the step loop and
solved by damped Newton with a centred finite-difference slope.  Both live
on here as oracles: ``closure_residual`` is that closure, and
``fd_slope_stepper`` is that integrator on the same ``L1History`` kernel,
stepped one increment at a time by ``push`` and ``lag_sums``.
``step_cubic`` is the cubic that the integrator's loop builds inline from
``_step_model``'s constants, written as one function, and ``replay_stepper``
is that loop one step at a time, from the pieces it inlines, on the same
kernel or on the direct O(N^2) history sums.  The rare
steps that Newton does not settle take the cubic's real root nearest the
predictor from the closed form; ``mp_nearest_root`` is that root in 60-digit
arithmetic.
"""

import dataclasses
import math
from functools import partial

import mpmath
import numpy as np
import pytest
from conftest import lag_sums, push
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbeam import (GridSpec, HarmonicForcing, L1History, MaterialParams, fracode,
                      integrate_nonlinear, l1_weights)
from fracbeam.errors import StepFailureError
from fracbeam.fracode import _NEWTON_TOL, _finish_step, _nearest_root, _step_model

EPS = np.finfo(float).eps


def cubic_at(cubic, d):
    """The cubic (c3, c2, c1, c0) at d by Horner's rule, as the integrator evaluates it."""
    c3, c2, c1, c0 = cubic
    return ((c3 * d + c2) * d + c1) * d + c0


def mp_nearest_root(cubic, pred):
    """The cubic's real root nearest ``pred``, by bisection in 60-digit arithmetic.

    With its leading zeros dropped, the polynomial is monotone between the
    real roots of its slope, and inside its Cauchy bound each of these pieces
    whose ends differ in sign holds one root.  None if there is no real root.
    """
    with mpmath.workdps(60):
        coeffs = [mpmath.mpf(x) for x in cubic]   # exact
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
        if len(coeffs) < 2:
            return None
        bound = 1 + max(abs(x) for x in coeffs[1:]) / abs(coeffs[0])
        ends = [-bound, bound]
        if len(coeffs) == 4:   # slope 3a x^2 + 2b x + c
            a, b, c = 3 * coeffs[0], 2 * coeffs[1], coeffs[2]
            disc = b * b - 4 * a * c
            if disc >= 0:
                ends += [(-b - mpmath.sqrt(disc)) / (2 * a), (-b + mpmath.sqrt(disc)) / (2 * a)]
        elif len(coeffs) == 3:
            ends.append(-coeffs[1] / (2 * coeffs[0]))
        ends = sorted(x for x in ends if abs(x) <= bound)
        roots = []
        for lo, hi in zip(ends, ends[1:]):
            f_lo, f_hi = mpmath.polyval(coeffs, lo), mpmath.polyval(coeffs, hi)
            if f_lo == 0 or f_hi == 0:
                roots.append(lo if f_lo == 0 else hi)
                continue
            if (f_lo < 0) == (f_hi < 0):
                continue
            while hi - lo > mpmath.mpf(10)**-40 * max(abs(lo), abs(hi), mpmath.mpf(10)**-300):
                mid = (lo + hi) / 2
                f_mid = mpmath.polyval(coeffs, mid)
                if f_mid == 0:
                    lo = hi = mid
                elif (f_mid < 0) == (f_lo < 0):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
            roots.append((lo + hi) / 2)
        if not roots:
            return None
        return float(min(roots, key=lambda x: abs(x - pred)))


def step_cubic(model, qi, vi, ai, force, lag_q, lag_c):
    """Coefficients (c3, c2, c1, c0) of one step's residual in d = u - q_i.

    The formulas of ``_step_model``'s docstring, in the integrator's order
    of operations; at alpha = 1 (``ca`` None) D^a q is the classical
    Newmark velocity and there is no q^3 history.
    """
    ca, c3, c2q, c1q2, c1k, mt, jnl, kl, knl2, h, ecl, hs, g2, j2g = model
    a0 = -(g2 * vi + ai)
    p0 = -vi if ca is None else ca * lag_q
    m0 = jnl * a0 + knl2 * qi + h * p0
    c2 = m0 + qi * c2q - j2g * vi
    c1 = qi * (2.0 * m0 + qi * c1q2) + vi * (jnl * vi - j2g * qi) + c1k
    c0 = qi * (qi * m0 + jnl * vi * vi + kl) + hs * lag_c + mt * a0 + ecl * p0 - force
    return c3, c2, c1, c0


def closure_residual(co, e_r, alpha, dt, ca, qi, vi, ai, fo, lag_q, lag_c):
    """The step residual as a function of the new displacement u."""
    mt, jnl, kl, cl, knl, cnl = co.m_modal, co.j_nl, co.k_l, co.c_l, co.k_nl, co.c_nl
    classical = alpha == 1.0
    w0 = 4.0 / dt**2
    ci = qi**3

    def residual(u):
        au = w0 * (u - qi - dt * vi) - ai
        vu = 2.0 / dt * (u - qi) - vi
        if classical:
            dq_frac = vu
            dc_frac = 3.0 * u**2 * vu
        else:
            dq_frac = ca * ((u - qi) + lag_q)
            dc_frac = ca * ((u**3 - ci) + lag_c)
        return (mt * au + jnl * (au * u**2 + u * vu**2) + kl * u
                + e_r * cl * dq_frac + 2.0 * knl * u**3
                + 0.5 * e_r * cnl * (dc_frac + 3.0 * u**2 * dq_frac) - fo)

    return residual


def residual_magnitude(co, e_r, alpha, dt, ca, qi, vi, ai, fo, lag_q, lag_c, u):
    """The sum of the magnitudes of the residual's terms, inner sums included."""
    mt, jnl, kl, cl, knl, cnl = co.m_modal, co.j_nl, co.k_l, co.c_l, co.k_nl, co.c_nl
    w0 = 4.0 / dt**2
    au = w0 * (abs(u) + abs(qi) + dt * abs(vi)) + abs(ai)
    vu = 2.0 / dt * (abs(u) + abs(qi)) + abs(vi)
    if alpha == 1.0:
        dq, dc = vu, 3.0 * u**2 * vu
    else:
        dq = ca * (abs(u) + abs(qi) + abs(lag_q))
        dc = ca * (abs(u)**3 + abs(qi)**3 + abs(lag_c))
    return (mt * au + abs(jnl) * (au * u**2 + abs(u) * vu**2) + kl * abs(u)
            + e_r * cl * dq + 2.0 * abs(knl) * abs(u)**3
            + 0.5 * e_r * abs(cnl) * (dc + 3.0 * u**2 * dq) + abs(fo))


def fd_slope_stepper(co, mat, q0, v0, grid, base_accel, newton_tol=1e-10, max_newton=50):
    """The integrator with the closure residual and a finite-difference slope."""
    dt, n, alpha, e_r = grid.dt, grid.n_steps, mat.alpha, mat.e_r
    force = (-co.m_b * base_accel.values(grid.times())).tolist()
    classical = alpha == 1.0
    qi, vi = float(q0), float(v0)
    num0 = force[0] - co.j_nl * qi * vi**2 - co.k_l * qi - 2.0 * co.k_nl * qi**3
    if classical:
        num0 -= e_r * co.c_l * vi + 3.0 * e_r * co.c_nl * qi**2 * vi
    ai = num0 / (co.m_modal + co.j_nl * qi**2)
    ca = lag_q = lag_c = None
    if not classical:
        history = L1History(alpha, dt, n, channels=2)
        ca = history.scale
    w0 = 4.0 / dt**2
    q = [qi]
    for i in range(n):
        if not classical:
            lag_q, lag_c = lag_sums(history)
        residual = closure_residual(co, e_r, alpha, dt, ca, qi, vi, ai, force[i + 1],
                                    lag_q, lag_c)
        u = qi + dt * vi + 0.5 * dt**2 * ai
        r = residual(u)
        tol = max(newton_tol, 64.0 * EPS * co.m_modal * w0 * max(abs(qi), abs(dt * vi), 1.0))
        for _ in range(max_newton):
            if abs(r) < tol:
                break
            h = 1e-7 * max(1.0, abs(u))
            step = -r * 2.0 * h / (residual(u + h) - residual(u - h))
            lam = 1.0
            while abs(residual(u + lam * step)) >= abs(r):
                lam *= 0.5
            u += lam * step
            r = residual(u)
        assert abs(r) < tol
        a1 = w0 * (u - qi - dt * vi) - ai
        vi = vi + 0.5 * dt * (ai + a1)
        if not classical:
            push(history, u - qi, u**3 - qi**3)
        qi, ai = u, a1
        q.append(qi)
    return np.array(q)


def direct_lag_sums(x, b, i):
    """Each row's lag sum after its first i increments, sum_{j=1..i} b_j x_{i-j}.

    The direct sum: the one 'valid' value of ``np.convolve`` of the
    increments with the weights b_1..b_i.
    """
    if i == 0:
        return 0.0, 0.0
    return tuple(float(np.convolve(row[:i], b[1:i + 1], "valid")[0]) for row in x)


def replay_stepper(co, mat, q0, v0, grid, base_accel, direct=False):
    """``integrate_nonlinear`` one step at a time, from the pieces its loop inlines.

    ``step_cubic`` with the lag sums of a two-channel ``L1History`` stepped
    by ``push`` (none at alpha = 1), the predictor, Newton's first step and
    ``_finish_step``, in the integrator's order of operations, so the
    trajectory is the integrator's to the last bit.  With ``direct`` the
    lag sums are ``direct_lag_sums`` over the run's increments instead.
    """
    dt, n, alpha, e_r = grid.dt, grid.n_steps, mat.alpha, mat.e_r
    force = (-co.m_b * base_accel.values(grid.times())).tolist()
    classical = alpha == 1.0
    qi, vi = float(q0), float(v0)
    num0 = force[0] - co.j_nl * qi * vi**2 - co.k_l * qi - 2.0 * co.k_nl * qi**3
    if classical:
        num0 -= e_r * co.c_l * vi + 3.0 * e_r * co.c_nl * qi**2 * vi
    ai = num0 / (co.m_modal + co.j_nl * qi**2)
    history = None if classical else L1History(alpha, dt, n, channels=2)
    model = _step_model(co, e_r, dt, None if classical else history.scale)
    if direct and not classical:
        b, x = l1_weights(alpha, n + 1), np.empty((2, n))   # the q and q^3 increments
    w0 = 4.0 / dt**2
    q, v, a = [qi], [vi], [ai]
    for step in range(1, n + 1):
        if classical:
            lag_q, lag_c = None, 0.0
        else:
            lag_q, lag_c = direct_lag_sums(x, b, step - 1) if direct else lag_sums(history)
        cubic = step_cubic(model, qi, vi, ai, force[step], lag_q, lag_c)
        d = pred = dt * vi + 0.5 * dt * dt * ai
        r = cubic_at(cubic, d)
        tol = max(_NEWTON_TOL, 64.0 * EPS * co.m_modal * w0 * max(abs(qi), abs(dt * vi), 1.0))
        if abs(r) >= tol:
            c3, c2, c1, _ = cubic
            slope = (3.0 * c3 * d + 2.0 * c2) * d + c1
            d_new = d - r / slope if slope != 0.0 else d
            r_new = cubic_at(cubic, d_new)
            if abs(r_new) < abs(r):
                d, r = d_new, r_new
            if abs(r) >= tol:
                d = _finish_step(*cubic, d, r, tol, pred, step, dt, qi, vi)
        u = qi + d
        a1 = w0 * (u - qi - dt * vi) - ai
        vi = vi + 0.5 * dt * (ai + a1)
        if direct and not classical:
            x[:, step - 1] = u - qi, u * u * u - qi * qi * qi
        elif not classical:
            push(history, u - qi, u * u * u - qi * qi * qi)
        qi, ai = u, a1
        q.append(qi)
        v.append(vi)
        a.append(ai)
    return np.array(q), np.array(v), np.array(a)


def scaled(co, j, k, c):
    return dataclasses.replace(co, j_nl=j * co.j_nl, k_nl=k * co.k_nl, c_nl=c * co.c_nl)


# ------------------------------------------------------------ the cubic

SCALES = st.sampled_from([1.0, 1e-8, 0.0])
# a state float; subnormal ones would put the 1e-12 relative bounds below
# the spacing of the numbers they compare
normal = partial(st.floats, allow_subnormal=False)
# the box of step states and models both cubic tests draw from
STEP_BOX = dict(case=st.sampled_from(["no-tip", "tip-mass"]),
                j=SCALES, k=SCALES, c=SCALES,
                alpha=st.one_of(st.just(1.0), st.floats(1e-3, 1.0 - 1e-6)),
                e_r=normal(0.0, 2.0),
                log10_dt=st.floats(-4.0, -1.0),
                qi=normal(-2.0, 2.0), vi=normal(-20.0, 20.0), ai=normal(-500.0, 500.0),
                fo=normal(-10.0, 10.0), lag_q=normal(-5.0, 5.0), lag_c=normal(-5.0, 5.0))


@settings(max_examples=400, deadline=None)
@given(**STEP_BOX, d=normal(-1.0, 1.0))
def test_step_cubic_matches_closure_residual(case, j, k, c, alpha, e_r, log10_dt, qi, vi,
                                             ai, fo, lag_q, lag_c, d,
                                             case1_coeffs, case2_coeffs):
    co = scaled(case1_coeffs if case == "no-tip" else case2_coeffs, j, k, c)
    dt = 10.0**log10_dt
    ca = None if alpha == 1.0 else L1History(alpha, dt, 1).scale
    c3, c2, c1, c0 = step_cubic(_step_model(co, e_r, dt, ca), qi, vi, ai, fo, lag_q, lag_c)
    u = qi + d
    d = u - qi     # exact, so both sides see the same u
    got = ((c3 * d + c2) * d + c1) * d + c0
    state = (co, e_r, alpha, dt, ca, qi, vi, ai, fo, lag_q, lag_c)
    want = closure_residual(*state)(u)
    assert abs(got - want) <= 1e-12 * residual_magnitude(*state, u)
    # the analytic slope against the closure's complex-step derivative; the
    # magnitude is convex and increasing in |u|, so its forward difference
    # bounds the sum of the magnitudes of the terms' derivatives
    slope = (3.0 * c3 * d + 2.0 * c2) * d + c1
    exact = closure_residual(*state)(u + 1e-30j).imag / 1e-30
    h = 1e-6 * max(1.0, abs(u))
    scale = (residual_magnitude(*state, abs(u) + h) - residual_magnitude(*state, abs(u))) / h
    assert abs(slope - exact) <= 1e-12 * scale


@settings(max_examples=300, deadline=None)
@given(**STEP_BOX)
def test_closed_form_picks_the_root_nearest_the_predictor(case, j, k, c, alpha, e_r, log10_dt,
                                                          qi, vi, ai, fo, lag_q, lag_c,
                                                          case1_coeffs, case2_coeffs):
    co = scaled(case1_coeffs if case == "no-tip" else case2_coeffs, j, k, c)
    dt = 10.0**log10_dt
    ca = None if alpha == 1.0 else L1History(alpha, dt, 1).scale
    cubic = step_cubic(_step_model(co, e_r, dt, ca), qi, vi, ai, fo, lag_q, lag_c)
    pred = dt * vi + 0.5 * dt * dt * ai
    want = mp_nearest_root(cubic, pred)
    got = _nearest_root(*cubic, pred)
    # c3 > 0 here, or every nonlinear term is zero and the step is a line of
    # slope c1 > 0: either way there is a real root
    assert want is not None and got is not None
    assert abs(got - want) <= 1e-11 * abs(want)


# ------------------------------------------------------- the trajectory

def trajectory_bound(co, traj, newton_tol=1e-10):
    """What the per-step tolerance allows two solves of a run to drift apart.

    Both solves stop with |r| < tol, so at the same state their roots differ
    by e <= 2 tol / |r'|, and r' >= M_t w0 / 2 on these runs (the inertia
    term M_t w0 = 4 M_t / dt^2 dominates the slope).  Newmark turns a
    displacement error e into a velocity error 2 e / dt, which the weakly
    damped oscillator carries as a displacement amplitude of at most
    e (1 + 2 / (dt omega)), omega being its lowest linear frequency.  The
    n steps' errors add up at worst.
    """
    dt, n = traj.grid.dt, traj.grid.n_steps
    w0 = 4.0 / dt**2
    state = max(np.max(np.abs(traj.q)), dt * np.max(np.abs(traj.v)), 1.0)
    tol = max(newton_tol, 64.0 * EPS * co.m_modal * w0 * state)
    omega = math.sqrt(co.k_l / (co.m_modal + co.j_nl * np.max(traj.q**2)))
    return n * 2.0 * tol / (0.5 * co.m_modal * w0) * (1.0 + 2.0 / (dt * omega))


@pytest.mark.parametrize("case", ["no-tip", "tip-mass"])
@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
def test_trajectory_matches_fd_slope_stepper(case, alpha, case1_coeffs, case2_coeffs):
    co = case1_coeffs if case == "no-tip" else case2_coeffs
    mat = MaterialParams.from_ratio(0.1, alpha)
    grid = GridSpec(0.01, 3000)
    base = HarmonicForcing(0.13, 1.02 * math.sqrt(co.k_l / co.m_modal))
    traj = integrate_nonlinear(co, mat, 0.0, 0.0, grid, base)
    want = fd_slope_stepper(co, mat, 0.0, 0.0, grid, base)
    assert np.max(np.abs(traj.q - want)) <= trajectory_bound(co, traj)


# a large-amplitude tip-mass run on which every step enters _finish_step, and
# step 91 takes the closed form (test_closed_form_fallback_matches_newton)
STALL = dict(ratio=0.23608192197325845, alpha=0.5726133457159566, dt=0.02088715983593783,
             n=91, amp=29.150353062206644, q0=-0.006024160800807912, v0=17.32884565474078)


@pytest.mark.parametrize("case, alpha, n", [
    ("no-tip", 1.0, 1001), ("tip-mass", 1.0, 1001),
    ("no-tip", 0.5, 1001), ("tip-mass", 0.5, 1001),
    ("stall", 1.0, STALL["n"]), ("stall", STALL["alpha"], STALL["n"]),
])
def test_trajectory_equals_replay(case, alpha, n, case1_coeffs, case2_coeffs):
    # every run ends inside a history block (1001 = 7 * 128 + 105, 91 < 128)
    assert n % fracode._BLOCK not in (0, 1)
    co = case1_coeffs if case == "no-tip" else case2_coeffs
    omega = math.sqrt(co.k_l / co.m_modal)
    if case == "stall":
        mat = MaterialParams.from_ratio(STALL["ratio"], alpha)
        grid, base = GridSpec(STALL["dt"], n), HarmonicForcing(STALL["amp"], omega)
        q0, v0 = STALL["q0"], STALL["v0"]
    else:
        mat = MaterialParams.from_ratio(0.1, alpha)
        grid, base = GridSpec(0.01, n), HarmonicForcing(0.5, 1.02 * omega)
        q0, v0 = 0.3, -0.4
    traj = integrate_nonlinear(co, mat, q0, v0, grid, base)
    q, v, a = replay_stepper(co, mat, q0, v0, grid, base)
    np.testing.assert_array_equal(traj.q, q)
    np.testing.assert_array_equal(traj.v, v)
    np.testing.assert_array_equal(traj.a, a)


@pytest.mark.parametrize("case", ["no-tip", "tip-mass"])
@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.7, 0.95])
def test_trajectory_matches_direct_history_replay(case, alpha, case1_coeffs, case2_coeffs):
    # runs that end after one step, one short of, on and one past the first
    # history block's edge (the first three close no block), and past dense
    # and FFT closures.  The direct replay has no blocks, so its first n
    # steps are its n-step run.
    co = case1_coeffs if case == "no-tip" else case2_coeffs
    mat = MaterialParams.from_ratio(0.1, alpha)
    base = HarmonicForcing(0.5, 1.02 * math.sqrt(co.k_l / co.m_modal))
    runs = [1, 127, 128, 129, 1000, 8193]
    want, _, _ = replay_stepper(co, mat, 0.3, -0.4, GridSpec(0.01, runs[-1]), base, direct=True)
    for n in runs:
        traj = integrate_nonlinear(co, mat, 0.3, -0.4, GridSpec(0.01, n), base)
        assert np.max(np.abs(traj.q - want[:n + 1])) <= 1e-11 * np.max(np.abs(want[:n + 1]))


@pytest.mark.parametrize("case", ["no-tip", "tip-mass"])
@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_pair_product_matches_direct_history_replay(case, alpha, case1_coeffs, case2_coeffs):
    # runs whose last step falls on an even and an odd slot at the edges of
    # the first two history blocks: a pair's product is read at its even
    # step, and a run can end before its odd step
    co = case1_coeffs if case == "no-tip" else case2_coeffs
    mat = MaterialParams.from_ratio(0.1, alpha)
    base = HarmonicForcing(0.5, 1.02 * math.sqrt(co.k_l / co.m_modal))
    runs = [1, 2, 3, 127, 128, 129, 255, 256, 257]
    want, _, _ = replay_stepper(co, mat, 0.3, -0.4, GridSpec(0.01, runs[-1]), base, direct=True)
    for n in runs:
        traj = integrate_nonlinear(co, mat, 0.3, -0.4, GridSpec(0.01, n), base)
        assert np.max(np.abs(traj.q - want[:n + 1])) <= 1e-11 * np.max(np.abs(want[:n + 1]))


def test_near_pairs_are_near_rows_without_the_odd_rows_lag_one_weight():
    near = L1History(0.37, 0.01, 10, channels=2).near
    pairs = fracode._near_pairs(near)
    assert pairs.shape == (fracode._BLOCK // 2, fracode._BLOCK, 2) and pairs.flags.c_contiguous
    for k, pair in enumerate(pairs):
        np.testing.assert_array_equal(pair[:, 0], near[2 * k])
        odd = near[2 * k + 1].copy()
        assert odd[2 * k] == near[1, 0] > 0   # b_1
        odd[2 * k] = 0.0
        np.testing.assert_array_equal(pair[:, 1], odd)


def step_cubic_at(co, mat, traj, base, step):
    """The cubic of ``step`` and its predictor, rebuilt from the trajectory's levels before it."""
    dt, n = traj.grid.dt, traj.grid.n_steps
    classical = mat.alpha == 1.0
    history = None if classical else L1History(mat.alpha, dt, n, channels=2)
    if not classical:
        for u, qi in zip(traj.q[1:step].tolist(), traj.q[:step - 1].tolist()):
            push(history, u - qi, u * u * u - qi * qi * qi)
    model = _step_model(co, mat.e_r, dt, None if classical else history.scale)
    force = -co.m_b * base.values(traj.grid.times())[step]
    qi, vi, ai = traj.q[step - 1], traj.v[step - 1], traj.a[step - 1]
    lags = (None, 0.0) if classical else lag_sums(history)
    return step_cubic(model, qi, vi, ai, force, *lags), dt * vi + 0.5 * dt * dt * ai


def test_closed_form_fallback_matches_newton(case2_coeffs, monkeypatch):
    # a large-amplitude tip-mass run whose Newton iterates stop falling at
    # step 91, above the residual's tolerance and round-off floor; the step
    # takes its cubic's real root nearest the predictor
    co = case2_coeffs
    mat = MaterialParams.from_ratio(STALL["ratio"], STALL["alpha"])
    dt, n = STALL["dt"], STALL["n"]
    grid = GridSpec(dt, n)
    base = HarmonicForcing(STALL["amp"], math.sqrt(co.k_l / co.m_modal))
    entered, picked = [], []

    def finish_spy(*args):
        entered.append(args[8])
        return _finish_step(*args)

    def nearest_spy(*args):
        picked.append(_nearest_root(*args))
        return picked[-1]

    monkeypatch.setattr(fracode, "_finish_step", finish_spy)
    monkeypatch.setattr(fracode, "_nearest_root", nearest_spy)
    traj = integrate_nonlinear(co, mat, STALL["q0"], STALL["v0"], grid, base)
    assert entered == list(range(1, n + 1))
    assert len(picked) == 1
    root = picked[0]
    assert traj.q[n] == traj.q[n - 1] + root
    # this cubic's root as bisection to 1e-15 finds it
    assert traj.q[n] == pytest.approx(0.0401987762292243, rel=1e-12)
    cubic, pred = step_cubic_at(co, mat, traj, base, n)
    assert abs(root - mp_nearest_root(cubic, pred)) <= 1e-12 * abs(root)
    # the root is where a converged Newton would land: a Newton step from it
    # moves it by no more than round-off
    slope = (3.0 * cubic[0] * root + 2.0 * cubic[1]) * root + cubic[2]
    assert abs(cubic_at(cubic, root) / slope) <= 1e-12 * max(abs(root), 1.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_step_far_from_its_predictor_takes_the_nearest_root(alpha, case1_coeffs):
    # forcing 1e20: the predictor lands about 4e15 from step 1's root (near
    # -1.22e6 at alpha = 0.5, -5.0e5 at alpha = 1), where plain Newton,
    # shrinking d by about a third per step, does not reach it in 50 steps
    dt, q0, v0 = 0.01, 0.1, -0.2
    mat = MaterialParams.from_ratio(0.1, alpha)
    base = HarmonicForcing(1e20, 3.0)
    traj = integrate_nonlinear(case1_coeffs, mat, q0, v0, GridSpec(dt, 10), base)
    assert np.all(np.isfinite(traj.q))
    cubic, pred = step_cubic_at(case1_coeffs, mat, traj, base, 1)
    root = traj.q[1] - q0
    assert abs(root - pred) > 1e15
    assert abs(root - mp_nearest_root(cubic, pred)) <= 1e-12 * abs(root)


def test_step_failure_names_time_and_state(case1_coeffs, monkeypatch):
    # forcing 1e300 drives q past 1e293 in a step or two; the next step's
    # cubic has a non-finite coefficient and its closed form overflows, so
    # it has no finite real root
    dt, q0, v0 = 1e-3, 0.1, -0.2
    base = HarmonicForcing(1e300, 1.0)
    cubics = []

    def nearest_spy(*args):
        cubics.append(args[:4])
        return _nearest_root(*args)

    monkeypatch.setattr(fracode, "_nearest_root", nearest_spy)
    for alpha, step in ((0.5, 3), (1.0, 2)):
        mat = MaterialParams.from_ratio(0.1, alpha)
        with pytest.raises(StepFailureError) as info:
            integrate_nonlinear(case1_coeffs, mat, q0, v0, GridSpec(dt, 10), base)
        err = info.value
        assert not all(map(math.isfinite, cubics[-1]))
        traj = integrate_nonlinear(case1_coeffs, mat, q0, v0, GridSpec(dt, step - 1), base)
        qi, vi = traj.q[-1].item(), traj.v[-1].item()
        assert (err.step, err.t, err.q, err.v) == (step, step * dt, qi, vi)
        assert f"step {step} (t = {step * dt!r}, q = {qi!r}, v = {vi!r}," in str(err)
        assert str(err).endswith("the step's cubic has no finite real root")


def test_step_failure_inside_a_block_names_its_step(case2_coeffs, monkeypatch):
    # the stall of test_closed_form_fallback_matches_newton, step 91, lies
    # inside the first history block (91 < 128); with no finite root from
    # the closed form it fails, naming the level it started from
    co = case2_coeffs
    mat = MaterialParams.from_ratio(STALL["ratio"], STALL["alpha"])
    dt, n = STALL["dt"], STALL["n"]
    assert n % fracode._BLOCK not in (0, 1)
    base = HarmonicForcing(STALL["amp"], math.sqrt(co.k_l / co.m_modal))
    q0, v0 = STALL["q0"], STALL["v0"]
    traj = integrate_nonlinear(co, mat, q0, v0, GridSpec(dt, n - 1), base)
    preds = []

    def no_root(c3, c2, c1, c0, pred):
        preds.append(pred)
        return None

    monkeypatch.setattr(fracode, "_nearest_root", no_root)
    with pytest.raises(StepFailureError) as info:
        integrate_nonlinear(co, mat, q0, v0, GridSpec(dt, n), base)
    err = info.value
    qi, vi = traj.q[n - 1].item(), traj.v[n - 1].item()
    assert (err.step, err.t, err.q, err.v) == (n, n * dt, qi, vi)
    tol = 64.0 * EPS * co.m_modal * 4.0 / dt**2 * max(abs(qi), abs(dt * vi), 1.0)
    assert preds == [dt * vi + 0.5 * dt * dt * traj.a[n - 1]] and err.residual >= tol
    assert f"step {n} (t = {n * dt!r}, q = {qi!r}, v = {vi!r}," in str(err)


# ------------------------------------------------------- the history blocks

def test_last_block_closes_only_when_a_later_step_reads_it(case1_coeffs, monkeypatch):
    # 8192 = 64 * 128 steps: the 64th block's far sums reach no step, so it
    # is not closed; one step more reads them
    mat = MaterialParams.from_ratio(0.1, 0.5)
    base = HarmonicForcing(0.5, 1.02 * math.sqrt(case1_coeffs.k_l / case1_coeffs.m_modal))
    close_block = L1History.close_block
    closed = []

    def spy(history, *blocks):
        closed.append(history._closed)
        close_block(history, *blocks)

    monkeypatch.setattr(L1History, "close_block", spy)
    runs = {}
    for n, want in ((8192, 63), (8193, 64)):
        closed.clear()
        runs[n] = integrate_nonlinear(case1_coeffs, mat, 0.3, -0.4, GridSpec(0.01, n), base)
        assert closed == [128 * k for k in range(want)]
    short, long = runs[8192], runs[8193]
    for x, y in ((short.q, long.q), (short.v, long.v), (short.a, long.a)):
        np.testing.assert_array_equal(x, y[:-1])
